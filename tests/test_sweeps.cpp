// Parameterized property sweeps across the configuration space: every
// PT-IM variant x temperature combination must preserve the same physical
// invariants, and the screened-exchange kernel must respond monotonically
// to its screening parameter.

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <memory>

#include "gs/scf.hpp"
#include "ham/density.hpp"
#include "la/blas.hpp"
#include "la/eig.hpp"
#include "pw/wavefunction.hpp"
#include "td/observables.hpp"
#include "td/ptim.hpp"
#include "test_helpers.hpp"

using namespace ptim;

namespace {

struct SharedGs {
  test::TinySystem sys;
  gs::ScfResult ground;
};

// One ground state per temperature, shared across all sweep cases; the
// cache owns its entries.
SharedGs& gs_for(real_t temperature_k) {
  static std::map<long, std::unique_ptr<SharedGs>> cache;
  const long key = std::lround(temperature_k);
  auto it = cache.find(key);
  if (it == cache.end()) {
    // Built in place: the Hamiltonian keeps references into its system.
    std::unique_ptr<SharedGs> e(new SharedGs{test::TinySystem::make(3.0), {}});
    gs::ScfOptions opt;
    opt.nbands = 6;
    opt.nelec = 8.0;
    opt.temperature_k = temperature_k;
    opt.tol_rho = 1e-7;
    e->ground = gs::ground_state(*e->sys.ham, opt);
    it = cache.emplace(key, std::move(e)).first;
  }
  return *it->second;
}

}  // namespace

using SweepParam = std::tuple<td::PtImVariant, int /*kelvin*/>;

class PtImSweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(PtImSweep, StepInvariants) {
  const auto [variant, kelvin] = GetParam();
  auto& env = gs_for(static_cast<real_t>(kelvin));

  td::TdState s = td::TdState::from_occupations(env.ground.phi,
                                                env.ground.occ);
  const real_t tr0 = td::sigma_trace(s.sigma);
  const auto rho0 =
      ham::density_sigma(s.phi, s.sigma, env.sys.ham->den_map());
  env.sys.ham->set_density(rho0);
  const real_t e0 = env.sys.ham->energy(s.phi, s.sigma, rho0).total();

  td::PtImOptions opt;
  opt.dt = 1.5;
  opt.tol = 1e-8;
  opt.variant = variant;
  td::PtImPropagator prop(*env.sys.ham, opt, nullptr);
  const auto stats = prop.step(s);

  EXPECT_TRUE(stats.converged);
  EXPECT_LT(pw::orthonormality_defect(s.phi), 1e-9);
  EXPECT_LT(td::sigma_hermiticity_defect(s.sigma), 1e-11);
  EXPECT_NEAR(td::sigma_trace(s.sigma), tr0, 1e-7);
  // Eigen-occupations remain physical (within fixed-point tolerance).
  const auto eig = la::eig_herm(s.sigma);
  for (const real_t w : eig.w) {
    EXPECT_GT(w, -1e-6);
    EXPECT_LT(w, 1.0 + 1e-6);
  }
  // Field-free total energy conserved over the step.
  const auto rho1 =
      ham::density_sigma(s.phi, s.sigma, env.sys.ham->den_map());
  env.sys.ham->set_density(rho1);
  const real_t e1 = env.sys.ham->energy(s.phi, s.sigma, rho1).total();
  EXPECT_NEAR(e1, e0, 2e-5 * std::abs(e0));
}

INSTANTIATE_TEST_SUITE_P(
    VariantsByTemperature, PtImSweep,
    ::testing::Combine(::testing::Values(td::PtImVariant::kBaseline,
                                         td::PtImVariant::kDiag,
                                         td::PtImVariant::kAce),
                       ::testing::Values(0, 8000)),
    [](const ::testing::TestParamInfo<SweepParam>& info) {
      const td::PtImVariant v = std::get<0>(info.param);
      const int t = std::get<1>(info.param);
      const char* vn = v == td::PtImVariant::kBaseline ? "Baseline"
                       : v == td::PtImVariant::kDiag   ? "Diag"
                                                       : "Ace";
      return std::string(vn) + "_" + std::to_string(t) + "K";
    });

class ScreeningSweep : public ::testing::TestWithParam<double> {};

TEST_P(ScreeningSweep, KernelWithinBareCoulombBound) {
  const real_t mu = GetParam();
  test::TinySystem sys = test::TinySystem::make(3.0);
  pw::SphereGridMap map{*sys.sphere, *sys.wfc_grid};
  ham::ExchangeOptions opt;
  opt.mu = mu;
  ham::ExchangeOperator xop(map, opt);
  const auto& g2 = sys.wfc_grid->g2();
  for (size_t i = 0; i < g2.size(); i += 23) {
    EXPECT_GE(xop.kernel()[i], 0.0);
    if (g2[i] > 1e-8) {
      EXPECT_LE(xop.kernel()[i], kFourPi / g2[i] * (1.0 + 1e-12));
    }
  }
  EXPECT_NEAR(xop.kernel()[0], kPi / (mu * mu), 1e-9 / (mu * mu));
}

INSTANTIATE_TEST_SUITE_P(MuValues, ScreeningSweep,
                         ::testing::Values(0.05, 0.106, 0.2, 0.5, 1.0));

TEST(Screening, ExchangeEnergyDecreasesWithMu) {
  // Stronger screening (larger mu) weakens the exchange interaction:
  // |E_x| must be monotone decreasing in mu.
  test::TinySystem sys = test::TinySystem::make(3.0);
  pw::SphereGridMap map{*sys.sphere, *sys.wfc_grid};
  const la::MatC phi = test::random_orbitals(sys.sphere->npw(), 4, 777);
  const std::vector<real_t> d{1.0, 0.8, 0.5, 0.2};
  real_t prev = -1e9;
  for (const real_t mu : {0.05, 0.106, 0.3, 0.8, 2.0}) {
    ham::ExchangeOptions opt;
    opt.mu = mu;
    ham::ExchangeOperator xop(map, opt);
    const real_t ex = xop.energy_diag(phi, d);
    EXPECT_LT(ex, 0.0);
    EXPECT_GT(ex, prev);  // less negative as screening grows
    prev = ex;
  }
}

TEST(Screening, BareCoulombStrongerThanStronglyScreened) {
  // The inequality |E_x(bare)| > |E_x(screened)| requires the screening
  // length 1/mu to be well inside the cell; at the HSE06 mu = 0.106 and an
  // 8-bohr test box the Gamma-point G=0 regularizations dominate instead
  // (a finite-size effect, not a bug). Use strong screening here.
  test::TinySystem sys = test::TinySystem::make(3.0);
  pw::SphereGridMap map{*sys.sphere, *sys.wfc_grid};
  const la::MatC phi = test::random_orbitals(sys.sphere->npw(), 3, 778);
  const std::vector<real_t> d{1.0, 0.6, 0.3};
  ham::ExchangeOptions screened;
  screened.mu = 0.8;  // screening length ~1.2 bohr << box
  ham::ExchangeOptions bare;
  bare.screened = false;
  const real_t e_s = ham::ExchangeOperator(map, screened).energy_diag(phi, d);
  const real_t e_b = ham::ExchangeOperator(map, bare).energy_diag(phi, d);
  EXPECT_LT(e_b, e_s);  // bare Coulomb binds more
}

class EcutSweep : public ::testing::TestWithParam<double> {};

TEST_P(EcutSweep, SphereGridConsistency) {
  // For any cutoff: the suggested grids hold the sphere, transforms round
  // trip, and npw grows with ecut^{3/2} within loose bounds.
  const real_t ecut = GetParam();
  const auto lat = grid::Lattice::cubic(8.0);
  const grid::GSphere sphere(lat, ecut);
  const grid::FftGrid g(lat, sphere.suggest_dims(1));
  pw::SphereGridMap map(sphere, g);
  la::MatC c = test::random_matrix(sphere.npw(), 2, 900);
  la::MatC real_space, back;
  map.to_real_batch(c, real_space);
  map.to_sphere_batch(real_space, back);
  EXPECT_LT(la::frob_diff(c, back), 1e-10);
  const real_t expected =
      lat.volume() * std::pow(2.0 * ecut, 1.5) / (6.0 * kPi * kPi);
  EXPECT_GT(static_cast<real_t>(sphere.npw()), 0.5 * expected);
  EXPECT_LT(static_cast<real_t>(sphere.npw()), 2.2 * expected);
}

INSTANTIATE_TEST_SUITE_P(Cutoffs, EcutSweep,
                         ::testing::Values(1.0, 2.0, 3.0, 5.0, 8.0));
