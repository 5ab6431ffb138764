#pragma once
// Electron density builders for mixed states, rho(r) = 2 sum_ij sigma_ij
// phi_i(r) conj(phi_j(r)) (spin factor 2, sigma eigenvalues in [0,1]).
//
// Two algorithmically equivalent paths mirroring the paper:
//  * diagonal — rho = 2 sum_b d_b |phi'_b(r)|^2 after sigma = Q D Q^H and
//               phi' = Phi Q (the paper's "Diag" optimization, N
//               transforms). This is the production path: density_diag is
//               the one kernel every caller reaches (ground-state SCF,
//               measurements, RK4, and each rank's block of the
//               band-distributed midpoint density),
//  * naive    — explicit (i,j) pair loop, the pre-optimization baseline
//               (O(N^2 Ng) work after N transforms); the kBaseline
//               propagator keeps it at one rank.
// Both agree to machine precision; tests enforce it.

#include <vector>

#include "la/matrix.hpp"
#include "pw/transforms.hpp"

namespace ptim::ham {

// rho = 2 sum_b occ_b |phi_b(r)|^2 for diagonal occupations. Bands run in
// fixed tiles of 4 (one batched transform each, so the extra live memory is
// 4 grid columns); zero-occupation columns are skipped. Every grid point
// sums its bands in band order, so the result is bitwise independent of
// the OpenMP team width.
std::vector<real_t> density_diag(const la::MatC& phi_coeffs,
                                 const std::vector<real_t>& occ,
                                 const pw::SphereGridMap& map);

// Full sigma: hermitize, sigma = Q D Q^H, then density_diag(Phi Q, D).
std::vector<real_t> density_sigma(const la::MatC& phi_coeffs,
                                  const la::MatC& sigma,
                                  const pw::SphereGridMap& map);

// Full sigma via the explicit pair loop (baseline; benchmarking only).
std::vector<real_t> density_sigma_naive(const la::MatC& phi_coeffs,
                                        const la::MatC& sigma,
                                        const pw::SphereGridMap& map);

// integral rho dr (should equal the electron count); bitwise independent
// of the OpenMP team width.
real_t integrate(const std::vector<real_t>& rho, const grid::FftGrid& g);

}  // namespace ptim::ham
