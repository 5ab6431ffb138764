#pragma once
// BLAS-like dense kernels (complex double) written from scratch: the target
// machine ships no BLAS/LAPACK. The three gemm variants used by the solver
// are implemented directly with cache-aware loop orders and OpenMP over
// output columns; a generic dispatcher covers the remaining cases.

#include "la/matrix.hpp"

namespace ptim::la {

// C = alpha * op(A) * op(B) + beta * C, op in {'N','T','C'}.
void gemm(char transA, char transB, cplx alpha, const MatC& A, const MatC& B,
          cplx beta, MatC& C);

// Convenience wrappers for the hot shapes.
// C = A * B (both 'N').
void gemm_nn(const MatC& A, const MatC& B, MatC& C, cplx alpha = 1.0,
             cplx beta = 0.0);
// C = A^H * B — overlap matrices S = Phi^H * Psi; k-major dot products.
void gemm_cn(const MatC& A, const MatC& B, MatC& C, cplx alpha = 1.0,
             cplx beta = 0.0);
// C = A * B^H.
void gemm_nc(const MatC& A, const MatC& B, MatC& C, cplx alpha = 1.0,
             cplx beta = 0.0);

// y = alpha*x + y on raw ranges.
void axpy(size_t n, cplx alpha, const cplx* x, cplx* y);
// Conjugated dot product acc + <x|y> = acc + sum conj(x_i) y_i, added in
// index order: a dot split in two, the second part continuing from the
// first part's value, is bitwise the unsplit one.
cplx dotc(size_t n, const cplx* x, const cplx* y, cplx acc = 0.0);
// Euclidean norm.
real_t nrm2(size_t n, const cplx* x);
void scal(size_t n, cplx alpha, cplx* x);

// Frobenius norm of A - B (shape-checked); used widely in tests.
real_t frob_diff(const MatC& A, const MatC& B);
real_t frob_norm(const MatC& A);

}  // namespace ptim::la
