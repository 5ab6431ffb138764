#pragma once
// Cholesky factorization and the triangular solves the solver needs:
//  * orthonormalization of wavefunction blocks (Cholesky-QR),
//  * the ACE projector xi = W * (L^H)^{-1} (Lin 2016, Eq. 14),
//  * applying (Phi^H Phi)^{-1} inside the parallel-transport projector.

#include "la/matrix.hpp"

namespace ptim::la {

// Factor Hermitian positive definite A = L * L^H; returns lower-triangular L.
// Throws ptim::Error if A is not (numerically) positive definite.
MatC cholesky(const MatC& A);

// Solve L * X = B in place (L lower triangular), column by column.
void solve_lower(const MatC& L, MatC& B);
// Solve L^H * X = B in place.
void solve_lower_herm(const MatC& L, MatC& B);
// Solve (L*L^H) * X = B in place — full Cholesky solve.
void cholesky_solve(const MatC& L, MatC& B);
// Solve X * L^H = B in place (right-solve with the upper factor): the ACE
// basis transform xi = W * L^{-H}.
void solve_upper_right(const MatC& L, MatC& B);

}  // namespace ptim::la
