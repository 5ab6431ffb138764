// Assembled Hamiltonian: Hermiticity in every exchange mode, velocity-gauge
// kinetic term, energy assembly, and the ground-state SCF/Davidson stack.

#include <gtest/gtest.h>
#include <omp.h>

#include <cmath>

#include "gs/davidson.hpp"
#include "gs/scf.hpp"
#include "ham/density.hpp"
#include "ham/hartree.hpp"
#include "ham/xc_lda.hpp"
#include "la/blas.hpp"
#include "la/util.hpp"
#include "pseudo/ewald.hpp"
#include "test_helpers.hpp"

using namespace ptim;

namespace {

test::TinySystem make_sys(bool hybrid = true) {
  ham::HamiltonianOptions opt;
  opt.hybrid = hybrid;
  return test::TinySystem::make(3.0, 8.0, opt);
}

std::vector<real_t> uniform_density(const test::TinySystem& s, real_t nelec) {
  return std::vector<real_t>(s.den_grid->size(),
                             nelec / s.lattice->volume());
}

}  // namespace

TEST(Hamiltonian, SemilocalHermitian) {
  auto sys = make_sys(false);
  sys.ham->set_density(uniform_density(sys, 8.0));
  const size_t npw = sys.sphere->npw();
  const la::MatC phi = test::random_orbitals(npw, 5, 101);
  la::MatC hphi;
  sys.ham->apply_semilocal(phi, hphi);
  const la::MatC m = pw::overlap(phi, hphi);
  EXPECT_LT(la::hermiticity_defect(m), 1e-10);
}

TEST(Hamiltonian, HybridHermitianAllModes) {
  auto sys = make_sys(true);
  sys.ham->set_density(uniform_density(sys, 8.0));
  const size_t npw = sys.sphere->npw();
  const size_t nb = 4;
  const la::MatC phi = test::random_orbitals(npw, nb, 102);
  const la::MatC sigma = test::random_occupation_matrix(nb, 103);

  sys.ham->set_exchange_mode(ham::ExchangeMode::kExactDiag);
  sys.ham->set_exchange_source_mixed(phi, sigma);
  la::MatC hphi;
  sys.ham->apply(phi, hphi);
  const la::MatC m = pw::overlap(phi, hphi);
  EXPECT_LT(la::hermiticity_defect(m), 1e-10);
}

TEST(Hamiltonian, VelocityGaugeShiftsKinetic) {
  auto sys = make_sys(false);
  const grid::Vec3 a{0.2, 0.0, 0.0};
  sys.ham->set_vector_potential(a);
  const auto kin = sys.ham->kinetic_diag();
  for (size_t i = 0; i < sys.sphere->npw(); i += 7) {
    const auto g = sys.sphere->gvec(i);
    EXPECT_NEAR(kin[i], 0.5 * grid::norm2(g + a), 1e-12);
  }
  // A != 0 breaks the +G/-G degeneracy of the kinetic term.
  bool asymmetric = false;
  for (size_t i = 1; i < sys.sphere->npw(); ++i) {
    const auto f = sys.sphere->freqs()[i];
    if (f[0] != 0) {
      asymmetric = true;
      break;
    }
  }
  EXPECT_TRUE(asymmetric);
}

TEST(Hamiltonian, ExternalPotentialEntersApply) {
  auto sys = make_sys(false);
  sys.ham->set_density(uniform_density(sys, 8.0));
  const size_t npw = sys.sphere->npw();
  const la::MatC phi = test::random_orbitals(npw, 2, 106);
  la::MatC h0;
  sys.ham->apply(phi, h0);
  // Constant external potential shifts H by that constant.
  std::vector<real_t> vext(sys.den_grid->size(), 0.37);
  sys.ham->set_external_potential(vext);
  la::MatC h1;
  sys.ham->apply(phi, h1);
  for (size_t i = 0; i < h0.size(); ++i)
    EXPECT_NEAR(std::abs(h1.data()[i] - h0.data()[i] -
                         0.37 * phi.data()[i]),
                0.0, 1e-9);
}

TEST(Davidson, FindsLowestStatesOfKnownOperator) {
  // Diagonal operator on the sphere basis: H = diag(kinetic) — eigenvalues
  // are the sorted kinetic factors.
  auto sys = make_sys(false);
  const size_t npw = sys.sphere->npw();
  const auto kin = sys.ham->kinetic_diag();
  auto apply = [&](const la::MatC& in, la::MatC& out) {
    out.resize(in.rows(), in.cols());
    for (size_t b = 0; b < in.cols(); ++b)
      for (size_t i = 0; i < npw; ++i) out(i, b) = kin[i] * in(i, b);
  };
  const size_t nb = 4;
  const la::MatC x0 = test::random_orbitals(npw, nb, 107);
  gs::DavidsonOptions opt;
  opt.tol = 1e-7;
  const auto res = gs::davidson(apply, x0, kin, opt);
  ASSERT_TRUE(res.converged);
  std::vector<real_t> sorted_kin = kin;
  std::sort(sorted_kin.begin(), sorted_kin.end());
  for (size_t j = 0; j < nb; ++j)
    EXPECT_NEAR(res.eps[j], sorted_kin[j], 1e-7);
}

TEST(Davidson, ConvergesOnRealHamiltonian) {
  auto sys = make_sys(false);
  sys.ham->set_density(uniform_density(sys, 8.0));
  const size_t npw = sys.sphere->npw();
  auto apply = [&](const la::MatC& in, la::MatC& out) {
    sys.ham->apply(in, out);
  };
  const la::MatC x0 = test::random_orbitals(npw, 6, 108);
  gs::DavidsonOptions opt;
  opt.tol = 1e-6;
  opt.max_iter = 80;
  const auto res = gs::davidson(apply, x0, sys.ham->kinetic_diag(), opt);
  EXPECT_TRUE(res.converged);
  // Eigenvalues ascending and below the vacuum continuum.
  for (size_t j = 1; j < res.eps.size(); ++j)
    EXPECT_LE(res.eps[j - 1], res.eps[j] + 1e-10);
  EXPECT_LT(pw::orthonormality_defect(res.x), 1e-6);
}

TEST(GroundState, SemilocalScfConverges) {
  auto sys = make_sys(false);
  gs::ScfOptions opt;
  opt.nbands = 6;
  opt.nelec = 8.0;  // 2 Si atoms x 4 valence electrons
  opt.temperature_k = 300.0;
  opt.tol_rho = 1e-6;
  const auto res = gs::ground_state(*sys.ham, opt);
  EXPECT_TRUE(res.converged);
  // Density integrates to the electron count.
  EXPECT_NEAR(ham::integrate(res.rho, *sys.den_grid), 8.0, 1e-6);
  // Occupied states below mu, empties above.
  EXPECT_LT(res.eps[0], res.mu);
  EXPECT_GT(res.eps[5], res.mu);
  EXPECT_LT(pw::orthonormality_defect(res.phi), 1e-6);
  // Total energy is negative and finite.
  EXPECT_LT(res.energy.total(), 0.0);
  EXPECT_TRUE(std::isfinite(res.energy.total()));
}

TEST(GroundState, HybridLowersExchangeEnergy) {
  auto sys = make_sys(true);
  gs::ScfOptions opt;
  opt.nbands = 6;
  opt.nelec = 8.0;
  opt.temperature_k = 1000.0;
  opt.tol_rho = 1e-6;
  opt.max_outer_ace = 6;
  const auto res = gs::ground_state(*sys.ham, opt);
  EXPECT_TRUE(res.converged);
  EXPECT_LT(res.energy.fock, 0.0);
  EXPECT_GE(res.outer_iterations, 2);
  // ACE operator left in place for TD restarts.
  EXPECT_TRUE(sys.ham->ace().valid());
}

TEST(EnergyTerms, TotalIsSum) {
  ham::EnergyTerms e;
  e.kinetic = 1.0;
  e.local = -2.0;
  e.hartree = 0.5;
  e.xc = -0.7;
  e.fock = -0.1;
  e.nonlocal = 0.05;
  e.ewald = -3.0;
  EXPECT_NEAR(e.total(), 1.0 - 2.0 + 0.5 - 0.7 - 0.1 + 0.05 - 3.0, 1e-14);
}

TEST(EnergyTerms, BitwiseAcrossCallsAndTeamWidths) {
  // Every energy reduction adds fixed-order partials, so one input gives the
  // same bits from call to call and at any OpenMP team width.
  auto sys = make_sys(true);
  const size_t nb = 4;
  const la::MatC phi = test::random_orbitals(sys.sphere->npw(), nb, 111);
  const la::MatC sigma = test::random_occupation_matrix(nb, 112);
  const auto rho = ham::density_sigma(phi, sigma, sys.ham->den_map());
  const grid::FftGrid& g = *sys.den_grid;
  const auto terms = [&](int threads) {
    const int old = omp_get_max_threads();
    omp_set_num_threads(threads);
    sys.ham->set_density(rho);
    sys.ham->set_exchange_mode(ham::ExchangeMode::kExactDiag);
    sys.ham->set_exchange_source_mixed(phi, sigma);
    const ham::EnergyTerms e = sys.ham->energy(phi, sigma, rho);
    std::vector<real_t> vxc;
    const std::vector<real_t> v{
        e.kinetic, e.local, e.hartree, e.xc, e.fock, e.nonlocal,
        ham::hartree_potential(rho, g).energy,
        ham::lda_pz81_eval(rho, g.dvol(), vxc),
        pseudo::ewald_energy(sys.atoms, *sys.lattice),
        ham::integrate(rho, g)};
    omp_set_num_threads(old);
    return v;
  };
  const auto ref = terms(1);
  EXPECT_EQ(terms(1), ref);
  EXPECT_EQ(terms(4), ref);
  EXPECT_EQ(terms(4), ref);
}
