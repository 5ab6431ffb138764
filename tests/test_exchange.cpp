// The Fock exchange operator and ACE: the paper's central numerical claims.
//  * the sigma-diagonalization path is exactly equivalent to the naive
//    Alg. 2 triple loop (Sec. IV-A1),
//  * the operator is Hermitian and negative semidefinite,
//  * FFT counts drop from O(N^3) to O(N^2) under diagonalization,
//  * ACE reproduces Vx on the constructing orbitals (Lin 2016).

#include <gtest/gtest.h>

#include <cmath>

#include "ham/ace.hpp"
#include "ham/exchange.hpp"
#include "la/blas.hpp"
#include "la/eig.hpp"
#include "la/util.hpp"
#include "test_helpers.hpp"

using namespace ptim;

namespace {
struct Env {
  test::TinySystem sys = test::TinySystem::make(3.0);
  pw::SphereGridMap map{*sys.sphere, *sys.wfc_grid};
  ham::ExchangeOperator xop{map, {}};
};
}  // namespace

TEST(ExchangeKernel, ScreenedLimits) {
  Env e;
  const auto& k = e.xop.kernel();
  const real_t mu = e.xop.options().mu;
  // G=0 is the finite HSE value pi/mu^2.
  // Find the G=0 grid point (linear index 0 is (0,0,0)).
  EXPECT_NEAR(k[0], kPi / (mu * mu), 1e-10);
  for (const real_t v : k) {
    EXPECT_GE(v, 0.0);
    EXPECT_LE(v, kPi / (mu * mu) * (1.0 + 1e-12));
  }
}

TEST(ExchangeKernel, BareCoulombMode) {
  test::TinySystem sys = test::TinySystem::make(3.0);
  pw::SphereGridMap map{*sys.sphere, *sys.wfc_grid};
  ham::ExchangeOptions opt;
  opt.screened = false;
  ham::ExchangeOperator xop(map, opt);
  // Away from G=0 the kernel is 4 pi/G^2.
  const auto& g2 = sys.wfc_grid->g2();
  for (size_t i = 1; i < g2.size(); i += 37) {
    if (g2[i] > 1e-8) {
      EXPECT_NEAR(xop.kernel()[i], kFourPi / g2[i], 1e-10);
    }
  }
}

TEST(Exchange, MixedNaiveEqualsMixedDiag) {
  Env e;
  const size_t npw = e.sys.sphere->npw();
  const size_t nb = 4;
  const la::MatC phi = test::random_orbitals(npw, nb, 71);
  const la::MatC sigma = test::random_occupation_matrix(nb, 72);
  const la::MatC tgt = test::random_orbitals(npw, 3, 73);

  la::MatC out_naive(npw, 3), out_diag(npw, 3);
  e.xop.apply_mixed_naive(phi, sigma, tgt, out_naive);
  e.xop.apply_mixed_diag(phi, sigma, tgt, out_diag);
  EXPECT_LT(la::frob_diff(out_naive, out_diag),
            1e-11 * std::max(la::frob_norm(out_naive), 1.0));
}

TEST(Exchange, DiagonalSigmaReducesToPureStates) {
  Env e;
  const size_t npw = e.sys.sphere->npw();
  const size_t nb = 4;
  const la::MatC phi = test::random_orbitals(npw, nb, 74);
  const std::vector<real_t> d{1.0, 0.8, 0.3, 0.05};
  la::MatC sigma(nb, nb);
  for (size_t i = 0; i < nb; ++i) sigma(i, i) = d[i];

  la::MatC out_a(npw, nb), out_b(npw, nb);
  e.xop.apply_diag(phi, d, phi, out_a);
  e.xop.apply_mixed_naive(phi, sigma, phi, out_b);
  EXPECT_LT(la::frob_diff(out_a, out_b), 1e-11);
}

TEST(Exchange, OperatorIsHermitian) {
  Env e;
  const size_t npw = e.sys.sphere->npw();
  const la::MatC src = test::random_orbitals(npw, 3, 75);
  const std::vector<real_t> d{1.0, 0.6, 0.2};
  const la::MatC probes = test::random_orbitals(npw, 4, 76);
  la::MatC vp(npw, 4);
  e.xop.apply_diag(src, d, probes, vp);
  const la::MatC m = pw::overlap(probes, vp);
  EXPECT_LT(la::hermiticity_defect(m), 1e-11);
}

TEST(Exchange, NegativeSemidefinite) {
  Env e;
  const size_t npw = e.sys.sphere->npw();
  const la::MatC src = test::random_orbitals(npw, 3, 77);
  const std::vector<real_t> d{1.0, 0.5, 0.25};
  const la::MatC probes = test::random_orbitals(npw, 5, 78);
  la::MatC vp(npw, 5);
  e.xop.apply_diag(src, d, probes, vp);
  for (size_t j = 0; j < 5; ++j) {
    const cplx q = la::dotc(npw, probes.col(j), vp.col(j));
    EXPECT_LE(std::real(q), 1e-12);
    EXPECT_NEAR(std::imag(q), 0.0, 1e-12);
  }
}

TEST(Exchange, AccumulateFlag) {
  Env e;
  const size_t npw = e.sys.sphere->npw();
  const la::MatC src = test::random_orbitals(npw, 2, 79);
  const std::vector<real_t> d{1.0, 1.0};
  const la::MatC tgt = test::random_orbitals(npw, 2, 80);
  la::MatC base = test::random_matrix(npw, 2, 81);
  la::MatC acc = base;
  e.xop.apply_diag(src, d, tgt, acc, /*accumulate=*/true);
  la::MatC fresh(npw, 2);
  e.xop.apply_diag(src, d, tgt, fresh, false);
  for (size_t i = 0; i < acc.size(); ++i)
    EXPECT_NEAR(std::abs(acc.data()[i] - (base.data()[i] + fresh.data()[i])),
                0.0, 1e-12);
}

TEST(Exchange, FftCountComplexity) {
  // Diag path: 2*N_src*N_tgt transforms; naive mixed path: 2*N^2*N_tgt
  // (the paper's N^3 with N_tgt = N). This is the measured complexity claim.
  Env e;
  const size_t npw = e.sys.sphere->npw();
  const size_t nb = 4;
  const la::MatC phi = test::random_orbitals(npw, nb, 82);
  const la::MatC sigma = test::random_occupation_matrix(nb, 83);

  la::MatC out(npw, nb);
  e.xop.fft_count = 0;
  e.xop.apply_diag(phi, std::vector<real_t>(nb, 0.5), phi, out);
  EXPECT_EQ(e.xop.fft_count, static_cast<long>(2 * nb * nb));

  e.xop.fft_count = 0;
  e.xop.apply_mixed_naive(phi, sigma, phi, out);
  EXPECT_EQ(e.xop.fft_count, static_cast<long>(2 * nb * nb * nb));
}

TEST(Exchange, EnergyNegativeAndConsistent) {
  Env e;
  const size_t npw = e.sys.sphere->npw();
  const size_t nb = 3;
  const la::MatC phi = test::random_orbitals(npw, nb, 84);
  const std::vector<real_t> d{1.0, 0.7, 0.4};
  const real_t ex = e.xop.energy_diag(phi, d);
  EXPECT_LT(ex, 0.0);

  // energy_mixed with the equivalent diagonal sigma agrees.
  la::MatC sigma(nb, nb);
  for (size_t i = 0; i < nb; ++i) sigma(i, i) = d[i];
  EXPECT_NEAR(e.xop.energy_mixed(phi, sigma), ex, 1e-10 * std::abs(ex));
}

TEST(Exchange, ZeroOccupationsShortCircuit) {
  Env e;
  const size_t npw = e.sys.sphere->npw();
  const la::MatC phi = test::random_orbitals(npw, 3, 85);
  la::MatC out(npw, 3);
  e.xop.fft_count = 0;
  e.xop.apply_diag(phi, {0.0, 0.0, 0.0}, phi, out);
  EXPECT_EQ(e.xop.fft_count, 0);
  EXPECT_LT(la::frob_norm(out), 1e-14);
}

// ----------------------------------------------------- batched exchange ---

TEST(ExchangeBatch, BatchedDiagMatchesPerPair) {
  // The acceptance bar for the batched engine: blocks of >= 8 sources
  // through the batched FFT agree with the per-pair path to 1e-10.
  test::TinySystem sys = test::TinySystem::make(3.0);
  pw::SphereGridMap map{*sys.sphere, *sys.wfc_grid};
  ham::ExchangeOptions single_opt, batched_opt;
  single_opt.batch_size = 1;
  batched_opt.batch_size = 8;
  ham::ExchangeOperator xop_single(map, single_opt);
  ham::ExchangeOperator xop_batched(map, batched_opt);

  const size_t npw = sys.sphere->npw();
  const size_t nb = 10;  // forces a full block of 8 plus a partial block
  const la::MatC phi = test::random_orbitals(npw, nb, 611);
  std::vector<real_t> d(nb);
  for (size_t i = 0; i < nb; ++i) d[i] = 1.0 - 0.08 * static_cast<real_t>(i);
  const la::MatC tgt = test::random_orbitals(npw, 5, 612);

  la::MatC out_single(npw, 5), out_batched(npw, 5);
  xop_single.apply_diag(phi, d, tgt, out_single);
  xop_batched.apply_diag(phi, d, tgt, out_batched);

  real_t max_abs = 0.0;
  for (size_t i = 0; i < out_single.size(); ++i)
    max_abs = std::max(
        max_abs, std::abs(out_single.data()[i] - out_batched.data()[i]));
  EXPECT_LE(max_abs, 1e-10);
  // Identical transform counts: batching changes grouping, not complexity.
  EXPECT_EQ(xop_single.fft_count, xop_batched.fft_count);
}

TEST(ExchangeBatch, BatchedNaiveMatchesPerPair) {
  test::TinySystem sys = test::TinySystem::make(3.0);
  pw::SphereGridMap map{*sys.sphere, *sys.wfc_grid};
  ham::ExchangeOptions single_opt, batched_opt;
  single_opt.batch_size = 1;
  batched_opt.batch_size = 8;
  ham::ExchangeOperator xop_single(map, single_opt);
  ham::ExchangeOperator xop_batched(map, batched_opt);

  const size_t npw = sys.sphere->npw();
  const size_t nb = 5;
  const la::MatC phi = test::random_orbitals(npw, nb, 621);
  const la::MatC sigma = test::random_occupation_matrix(nb, 622);
  const la::MatC tgt = test::random_orbitals(npw, 3, 623);

  la::MatC out_single(npw, 3), out_batched(npw, 3);
  xop_single.apply_mixed_naive(phi, sigma, tgt, out_single);
  xop_batched.apply_mixed_naive(phi, sigma, tgt, out_batched);

  real_t max_abs = 0.0;
  for (size_t i = 0; i < out_single.size(); ++i)
    max_abs = std::max(
        max_abs, std::abs(out_single.data()[i] - out_batched.data()[i]));
  EXPECT_LE(max_abs, 1e-10);
  EXPECT_EQ(xop_single.fft_count, xop_batched.fft_count);
}

TEST(ExchangeBatch, OddBatchSizesAgree) {
  // Partial trailing blocks for every block width.
  test::TinySystem sys = test::TinySystem::make(3.0);
  pw::SphereGridMap map{*sys.sphere, *sys.wfc_grid};
  const size_t npw = sys.sphere->npw();
  const size_t nb = 7;
  const la::MatC phi = test::random_orbitals(npw, nb, 631);
  std::vector<real_t> d(nb, 0.5);
  d[2] = 0.0;  // exercise occupation compression inside a block
  const la::MatC tgt = test::random_orbitals(npw, 2, 632);

  ham::ExchangeOptions ref_opt;
  ref_opt.batch_size = 1;
  ham::ExchangeOperator ref_op(map, ref_opt);
  la::MatC ref(npw, 2);
  ref_op.apply_diag(phi, d, tgt, ref);

  for (const size_t bs : {size_t(2), size_t(3), size_t(8), size_t(16)}) {
    ham::ExchangeOptions opt;
    opt.batch_size = bs;
    ham::ExchangeOperator xop(map, opt);
    la::MatC out(npw, 2);
    xop.apply_diag(phi, d, tgt, out);
    real_t max_abs = 0.0;
    for (size_t i = 0; i < out.size(); ++i)
      max_abs = std::max(max_abs, std::abs(out.data()[i] - ref.data()[i]));
    EXPECT_LE(max_abs, 1e-10) << "batch_size=" << bs;
    EXPECT_EQ(xop.fft_count, static_cast<long>(2 * (nb - 1) * 2))
        << "batch_size=" << bs;
  }
}

TEST(ExchangeBatch, RejectsZeroWidth) {
  // A zero batch width throws at construction, and the setter rejects it
  // the same way while leaving the current width unchanged.
  Env e;
  ham::ExchangeOptions bad;
  bad.batch_size = 0;
  EXPECT_THROW(ham::ExchangeOperator(e.map, bad), Error);

  const size_t bs = e.xop.batch_size();
  EXPECT_THROW(e.xop.set_batch_size(0), Error);
  EXPECT_EQ(e.xop.batch_size(), bs);
}

// ---------------------------------------------------------------- ACE ----

TEST(Ace, ExactOnConstructingOrbitals) {
  Env e;
  const size_t npw = e.sys.sphere->npw();
  const size_t nb = 4;
  const la::MatC phi = test::random_orbitals(npw, nb, 91);
  const std::vector<real_t> d{1.0, 0.8, 0.5, 0.2};
  la::MatC w(npw, nb);
  e.xop.apply_diag(phi, d, phi, w);

  const auto ace = ham::AceOperator::build(phi, w);
  EXPECT_EQ(ace.rank(), nb);
  la::MatC out(npw, nb);
  ace.apply(phi, out);
  EXPECT_LT(la::frob_diff(out, w), 1e-8 * std::max(la::frob_norm(w), 1.0));
}

TEST(Ace, HermitianNegativeSemidefinite) {
  Env e;
  const size_t npw = e.sys.sphere->npw();
  const la::MatC phi = test::random_orbitals(npw, 3, 92);
  const std::vector<real_t> d{1.0, 0.6, 0.3};
  la::MatC w(npw, 3);
  e.xop.apply_diag(phi, d, phi, w);
  const auto ace = ham::AceOperator::build(phi, w);

  const la::MatC probes = test::random_orbitals(npw, 5, 93);
  la::MatC vp(npw, 5);
  ace.apply(probes, vp);
  const la::MatC m = pw::overlap(probes, vp);
  EXPECT_LT(la::hermiticity_defect(m), 1e-11);
  for (size_t j = 0; j < 5; ++j) EXPECT_LE(std::real(m(j, j)), 1e-12);
}

TEST(Ace, EnergyMatchesExactOnSource) {
  Env e;
  const size_t npw = e.sys.sphere->npw();
  const size_t nb = 3;
  const la::MatC phi = test::random_orbitals(npw, nb, 94);
  const std::vector<real_t> d{0.9, 0.5, 0.1};
  la::MatC w(npw, nb);
  e.xop.apply_diag(phi, d, phi, w);
  const auto ace = ham::AceOperator::build(phi, w);

  const real_t e_exact = e.xop.energy_diag(phi, d);
  const real_t e_ace = ace.energy(phi, d);
  EXPECT_NEAR(e_ace, e_exact, 1e-8 * std::abs(e_exact));
}

TEST(Ace, GoodApproximationNearSourceSpace) {
  // A slightly perturbed orbital should still see nearly the exact Vx —
  // the property the PT-IM-ACE inner loop relies on.
  Env e;
  const size_t npw = e.sys.sphere->npw();
  const size_t nb = 4;
  const la::MatC phi = test::random_orbitals(npw, nb, 95);
  const std::vector<real_t> d{1.0, 0.8, 0.4, 0.2};
  la::MatC w(npw, nb);
  e.xop.apply_diag(phi, d, phi, w);
  const auto ace = ham::AceOperator::build(phi, w);

  la::MatC tgt = phi;
  const la::MatC noise = test::random_matrix(npw, nb, 96);
  for (size_t i = 0; i < tgt.size(); ++i)
    tgt.data()[i] += 0.01 * noise.data()[i];

  la::MatC exact(npw, nb), approx(npw, nb);
  e.xop.apply_diag(phi, d, tgt, exact);
  ace.apply(tgt, approx);
  EXPECT_LT(la::frob_diff(exact, approx), 0.05 * la::frob_norm(exact));
}
