// Density builders (the diagonal kernel and the naive pair loop), Hartree
// solver, LDA functional values and Fermi-Dirac occupations.

#include <gtest/gtest.h>
#include <omp.h>

#include <cmath>

#include "ham/density.hpp"
#include "la/blas.hpp"
#include "ham/hartree.hpp"
#include "ham/xc_lda.hpp"
#include "la/eig.hpp"
#include "occ/fermi.hpp"
#include "test_helpers.hpp"

using namespace ptim;

namespace {
struct Env {
  test::TinySystem sys = test::TinySystem::make(3.0);
  pw::SphereGridMap map{*sys.sphere, *sys.den_grid};
};

// A full complex occupation matrix sigma = U D U^H (random unitary U, so
// every off-diagonal is populated) whose spectrum holds one exact zero.
struct SingularSigma {
  la::MatC u;              // eigenvectors
  std::vector<real_t> d;   // eigenvalues, d[1] == 0
  la::MatC sigma;
};

SingularSigma singular_sigma(size_t nb, unsigned seed) {
  SingularSigma out;
  out.u = la::eig_herm(test::random_hermitian(nb, seed)).V;
  out.d.resize(nb);
  for (size_t i = 0; i < nb; ++i)
    out.d[i] = (i == 1) ? 0.0 : 0.1 + 0.8 * static_cast<real_t>(i) /
                                          static_cast<real_t>(nb);
  la::MatC ud = out.u;
  for (size_t j = 0; j < nb; ++j)
    for (size_t i = 0; i < nb; ++i) ud(i, j) *= out.d[j];
  out.sigma.resize(nb, nb);
  la::gemm('N', 'C', 1.0, ud, out.u, 0.0, out.sigma);
  return out;
}

// Runs fn with an OpenMP team width of `threads`, restoring the old width.
template <typename F>
auto with_threads(int threads, F fn) {
  const int old = omp_get_max_threads();
  omp_set_num_threads(threads);
  auto r = fn();
  omp_set_num_threads(old);
  return r;
}
}  // namespace

TEST(Density, DiagIntegratesToElectronCount) {
  Env e;
  const size_t npw = e.sys.sphere->npw();
  const la::MatC phi = test::random_orbitals(npw, 5, 17);
  const std::vector<real_t> occ{1.0, 1.0, 0.5, 0.25, 0.0};
  const auto rho = ham::density_diag(phi, occ, e.map);
  real_t nelec = 0.0;
  for (const real_t f : occ) nelec += 2.0 * f;
  EXPECT_NEAR(ham::integrate(rho, *e.sys.den_grid), nelec, 1e-9 * nelec);
  for (const real_t r : rho) EXPECT_GE(r, -1e-12);
}

TEST(Density, SigmaPathsAgree) {
  Env e;
  const size_t npw = e.sys.sphere->npw();
  const size_t nb = 5;
  const la::MatC phi = test::random_orbitals(npw, nb, 23);
  const la::MatC sigma = test::random_occupation_matrix(nb, 29);

  const auto rho_gemm = ham::density_sigma(phi, sigma, e.map);
  const auto rho_naive = ham::density_sigma_naive(phi, sigma, e.map);
  ASSERT_EQ(rho_gemm.size(), rho_naive.size());
  for (size_t i = 0; i < rho_gemm.size(); ++i)
    EXPECT_NEAR(rho_gemm[i], rho_naive[i], 1e-10);

  // Diagonalized path: rho from (phi*Q, diag(D)).
  const auto eig = la::eig_herm(sigma);
  la::MatC rotated(npw, nb);
  la::gemm_nn(phi, eig.V, rotated);
  const auto rho_diag = ham::density_diag(rotated, eig.w, e.map);
  for (size_t i = 0; i < rho_gemm.size(); ++i)
    EXPECT_NEAR(rho_gemm[i], rho_diag[i], 1e-10);
}

TEST(Density, KernelMatchesNaiveAcrossTileEdges) {
  // nb in {1,3,4,5,9}: below, at and across the 4-band tiles.
  Env e;
  const size_t npw = e.sys.sphere->npw();
  for (const size_t nb : {1, 3, 4, 5, 9}) {
    const la::MatC phi = test::random_orbitals(npw, nb, 23);
    const SingularSigma ss = singular_sigma(nb, 29 + static_cast<unsigned>(nb));
    ASSERT_GT(std::abs(ss.sigma(0, nb - 1)), 0.0) << "nb=" << nb;

    const auto rho_naive = ham::density_sigma_naive(phi, ss.sigma, e.map);
    const auto rho_sigma = ham::density_sigma(phi, ss.sigma, e.map);
    la::MatC rotated(npw, nb);
    la::gemm_nn(phi, ss.u, rotated);
    // The exact zero in d is a skipped column.
    const auto rho_kernel = ham::density_diag(rotated, ss.d, e.map);
    ASSERT_EQ(rho_sigma.size(), rho_naive.size());
    for (size_t i = 0; i < rho_naive.size(); ++i) {
      ASSERT_NEAR(rho_sigma[i], rho_naive[i], 1e-13) << "nb=" << nb;
      ASSERT_NEAR(rho_kernel[i], rho_naive[i], 1e-13) << "nb=" << nb;
    }
  }
}

TEST(Density, KernelBitwiseAcrossTeamWidths) {
  Env e;
  const size_t npw = e.sys.sphere->npw();
  const size_t nb = 9;
  const la::MatC phi = test::random_orbitals(npw, nb, 41);
  const SingularSigma ss = singular_sigma(nb, 43);
  const auto run = [&] {
    return ham::density_sigma(phi, ss.sigma, e.map);
  };
  const auto rho1 = with_threads(1, run);
  const auto rho4 = with_threads(4, run);
  EXPECT_EQ(rho1, rho4);
  EXPECT_EQ(with_threads(4, run), rho4);  // and from call to call
}

TEST(Density, IntegrateBitwiseAcrossTeamWidths) {
  Env e;
  const size_t npw = e.sys.sphere->npw();
  const la::MatC phi = test::random_orbitals(npw, 5, 47);
  const auto rho =
      ham::density_diag(phi, {1.0, 0.9, 0.5, 0.25, 0.1}, e.map);
  const auto run = [&] { return ham::integrate(rho, *e.sys.den_grid); };
  const real_t n1 = with_threads(1, run);
  EXPECT_EQ(with_threads(4, run), n1);
  EXPECT_EQ(with_threads(4, run), n1);
}

TEST(Density, SigmaTraceGivesElectronCount) {
  Env e;
  const size_t npw = e.sys.sphere->npw();
  const size_t nb = 4;
  const la::MatC phi = test::random_orbitals(npw, nb, 31);
  const la::MatC sigma = test::random_occupation_matrix(nb, 37);
  const auto rho = ham::density_sigma(phi, sigma, e.map);
  real_t tr = 0.0;
  for (size_t i = 0; i < nb; ++i) tr += std::real(sigma(i, i));
  EXPECT_NEAR(ham::integrate(rho, *e.sys.den_grid), 2.0 * tr, 1e-8);
}

TEST(Hartree, GaussianChargeAgainstAnalytic) {
  // rho(r) = (a/pi)^{3/2} q e^{-a r^2} (periodic images negligible for a
  // narrow Gaussian in a big box): V(r) = q erf(sqrt(a) r)/r far from wrap.
  const auto lat = grid::Lattice::cubic(14.0);
  const grid::FftGrid g(lat, {36, 36, 36});
  const real_t a = 4.0, q = 2.0;
  const auto c = lat.center();
  std::vector<real_t> rho(g.size());
  const auto& dims = g.dims();
  for (size_t i2 = 0; i2 < dims[2]; ++i2)
    for (size_t i1 = 0; i1 < dims[1]; ++i1)
      for (size_t i0 = 0; i0 < dims[0]; ++i0) {
        const auto r = g.rvec(i0, i1, i2) - c;
        rho[g.linear(i0, i1, i2)] =
            q * std::pow(a / kPi, 1.5) * std::exp(-a * grid::norm2(r));
      }
  const auto h = ham::hartree_potential(rho, g);

  // Near the charge, periodic images and the neutralizing background only
  // perturb at the percent level; compare the potential *difference* of two
  // nearby radii against the isolated-charge erf solution.
  auto v_at = [&](size_t i) { return h.v[g.linear(i, i, i)]; };
  auto r_at = [&](size_t i) {
    const auto r = g.rvec(i, i, i) - c;
    return std::sqrt(grid::norm2(r));
  };
  auto v_exact = [&](real_t r) { return q * std::erf(std::sqrt(a) * r) / r; };
  const real_t dv_num = v_at(20) - v_at(21);
  const real_t dv_ref = v_exact(r_at(20)) - v_exact(r_at(21));
  EXPECT_NEAR(dv_num, dv_ref, 0.03 * std::abs(dv_ref));
  EXPECT_GT(h.energy, 0.0);
}

TEST(Hartree, SingleModeIsExact) {
  // rho(r) = cos(G0.r)  =>  V_H(r) = (4 pi/|G0|^2) cos(G0.r) exactly.
  const auto lat = grid::Lattice::cubic(9.0);
  const grid::FftGrid g(lat, {12, 12, 12});
  const auto g0 = lat.gvec(1, 2, 0);
  std::vector<real_t> rho(g.size());
  const auto& dims = g.dims();
  for (size_t i2 = 0; i2 < dims[2]; ++i2)
    for (size_t i1 = 0; i1 < dims[1]; ++i1)
      for (size_t i0 = 0; i0 < dims[0]; ++i0)
        rho[g.linear(i0, i1, i2)] =
            std::cos(grid::dot(g0, g.rvec(i0, i1, i2)));
  const auto h = ham::hartree_potential(rho, g);
  const real_t factor = kFourPi / grid::norm2(g0);
  for (size_t i = 0; i < g.size(); i += 7)
    EXPECT_NEAR(h.v[i], factor * rho[i], 1e-10);
  // E_H = (1/2) * factor * integral cos^2 = factor * Omega / 4.
  EXPECT_NEAR(h.energy, factor * lat.volume() / 4.0, 1e-8);
}

TEST(Hartree, EnergyQuadraticInCharge) {
  Env e;
  std::vector<real_t> rho(e.sys.den_grid->size(), 0.0);
  // Put a localized blob.
  rho[5] = 1.0;
  rho[6] = 2.0;
  const auto h1 = ham::hartree_potential(rho, *e.sys.den_grid);
  for (auto& v : rho) v *= 3.0;
  const auto h3 = ham::hartree_potential(rho, *e.sys.den_grid);
  EXPECT_NEAR(h3.energy, 9.0 * h1.energy, 1e-9 * std::abs(h3.energy));
}

TEST(XcLda, KnownValues) {
  // rho = 1: rs = (3/4pi)^{1/3} = 0.62035; Slater ex = -0.73856 per
  // electron; PZ81 high-density branch.
  const auto r = ham::lda_pz81(1.0);
  const real_t ex = -0.75 * std::cbrt(3.0 / kPi);
  const real_t rs = std::cbrt(3.0 / (4.0 * kPi));
  const real_t ec = 0.0311 * std::log(rs) - 0.048 + 0.0020 * rs * std::log(rs) -
                    0.0116 * rs;
  EXPECT_NEAR(r.exc_density, ex + ec, 1e-10);
  // vxc < exc/rho for LDA (more negative).
  EXPECT_LT(r.vxc, r.exc_density);
  // Zero density edge.
  const auto z = ham::lda_pz81(0.0);
  EXPECT_EQ(z.exc_density, 0.0);
  EXPECT_EQ(z.vxc, 0.0);
}

TEST(XcLda, VxcIsFunctionalDerivative) {
  // Finite-difference check: vxc = d(rho exc)/d rho.
  for (const real_t rho : {0.01, 0.1, 0.5, 1.0, 3.0}) {
    const real_t h = 1e-6 * rho;
    const auto p = ham::lda_pz81(rho + h);
    const auto m = ham::lda_pz81(rho - h);
    const auto c = ham::lda_pz81(rho);
    EXPECT_NEAR((p.exc_density - m.exc_density) / (2.0 * h), c.vxc,
                1e-5 * std::abs(c.vxc));
  }
}

TEST(Fermi, OccupationsSumAndLimits) {
  const std::vector<real_t> eps{-0.5, -0.3, -0.1, 0.0, 0.2, 0.4};
  const real_t kt = 8000.0 * units::kboltz_ha_per_k;
  const real_t nelec = 6.0;
  const real_t mu = occ::find_mu(eps, nelec, kt);
  const auto f = occ::occupations(eps, mu, kt);
  real_t sum = 0.0;
  for (const real_t v : f) {
    EXPECT_GE(v, 0.0);
    EXPECT_LE(v, 1.0);
    sum += 2.0 * v;
  }
  EXPECT_NEAR(sum, nelec, 1e-8);
  // Monotone decreasing with eps.
  for (size_t i = 1; i < f.size(); ++i) EXPECT_LE(f[i], f[i - 1] + 1e-14);
}

TEST(Fermi, ZeroTemperatureIsStep) {
  const std::vector<real_t> eps{-1.0, -0.5, 0.0, 0.5};
  const auto f = occ::occupations(eps, -0.25, 0.0);
  EXPECT_EQ(f[0], 1.0);
  EXPECT_EQ(f[1], 1.0);
  EXPECT_EQ(f[2], 0.0);
  EXPECT_EQ(f[3], 0.0);
}

TEST(Fermi, HighTemperatureSpreads) {
  const std::vector<real_t> eps{-0.1, 0.0, 0.1, 0.2};
  const real_t kt_lo = 300.0 * units::kboltz_ha_per_k;
  const real_t kt_hi = 30000.0 * units::kboltz_ha_per_k;
  const auto f_lo =
      occ::occupations(eps, occ::find_mu(eps, 4.0, kt_lo), kt_lo);
  const auto f_hi =
      occ::occupations(eps, occ::find_mu(eps, 4.0, kt_hi), kt_hi);
  // Higher T pushes occupations toward uniform 0.5.
  EXPECT_GT(f_hi[3], f_lo[3]);
  EXPECT_LT(f_hi[0], f_lo[0]);
}

TEST(Fermi, EntropyNonPositiveTerm) {
  const std::vector<real_t> occ_v{1.0, 0.9, 0.5, 0.1, 0.0};
  const real_t kt = 0.02;
  EXPECT_LE(occ::entropy_term(occ_v, kt), 0.0);
  const std::vector<real_t> pure{1.0, 1.0, 0.0};
  EXPECT_EQ(occ::entropy_term(pure, kt), 0.0);
}
