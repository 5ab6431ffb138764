// Distributed kernels: block layouts, the Fig. 1 Alltoallv transpose, the
// Fig. 6 SHM overlap reduction, the ring-based wavefunction rotation, the
// distributed Anderson mixer, and — centrally — the equality of the
// Bcast / Ring / Async-Ring exchange patterns (rank-local and legacy
// full-replication APIs) with the serial operator.

#include <gtest/gtest.h>

#include "backend/buffer.hpp"
#include "dist/exchange_dist.hpp"
#include "dist/layout.hpp"
#include "dist/mixer_dist.hpp"
#include "dist/rotate.hpp"
#include "dist/transpose.hpp"
#include "la/blas.hpp"
#include "la/cholesky.hpp"
#include "la/mixer.hpp"
#include "test_helpers.hpp"

using namespace ptim;

TEST(Layout, BlockDecomposition) {
  const dist::BlockLayout lay(10, 4);
  // 10 = 3 + 3 + 2 + 2.
  EXPECT_EQ(lay.count(0), 3u);
  EXPECT_EQ(lay.count(1), 3u);
  EXPECT_EQ(lay.count(2), 2u);
  EXPECT_EQ(lay.count(3), 2u);
  EXPECT_EQ(lay.offset(0), 0u);
  EXPECT_EQ(lay.offset(3), 8u);
  EXPECT_EQ(lay.total(), 10u);
  EXPECT_EQ(lay.owner(0), 0);
  EXPECT_EQ(lay.owner(5), 1);
  EXPECT_EQ(lay.owner(9), 3);
}

TEST(Layout, MorePartsThanItems) {
  const dist::BlockLayout lay(2, 4);
  EXPECT_EQ(lay.count(0), 1u);
  EXPECT_EQ(lay.count(1), 1u);
  EXPECT_EQ(lay.count(2), 0u);
  EXPECT_EQ(lay.count(3), 0u);
  EXPECT_EQ(lay.total(), 2u);
}

class TransposeParam : public ::testing::TestWithParam<int> {};

TEST_P(TransposeParam, BandGridRoundTrip) {
  const int p = GetParam();
  const size_t npw = 37, nb = 7;
  const la::MatC full = test::random_matrix(npw, nb, 200 + p);
  const dist::BlockLayout bands(nb, p), rows(npw, p);

  std::vector<la::MatC> grid_blocks(static_cast<size_t>(p));
  std::vector<la::MatC> back_blocks(static_cast<size_t>(p));
  ptmpi::run_ranks(p, 1, [&](ptmpi::Comm& c) {
    const int me = c.rank();
    la::MatC band_block(npw, bands.count(me));
    for (size_t b = 0; b < bands.count(me); ++b)
      for (size_t i = 0; i < npw; ++i)
        band_block(i, b) = full(i, bands.offset(me) + b);

    la::MatC g = dist::band_to_grid(c, band_block, bands, rows);
    grid_blocks[static_cast<size_t>(me)] = g;
    back_blocks[static_cast<size_t>(me)] =
        dist::grid_to_band(c, g, bands, rows);
  });

  // Grid blocks: rank r holds rows [rows.offset(r), ...) of all columns.
  for (int r = 0; r < p; ++r) {
    const auto& g = grid_blocks[static_cast<size_t>(r)];
    ASSERT_EQ(g.rows(), rows.count(r));
    ASSERT_EQ(g.cols(), nb);
    for (size_t b = 0; b < nb; ++b)
      for (size_t i = 0; i < rows.count(r); ++i)
        EXPECT_NEAR(std::abs(g(i, b) - full(rows.offset(r) + i, b)), 0.0,
                    1e-14);
  }
  // Round trip restores the band blocks.
  for (int r = 0; r < p; ++r) {
    const auto& bb = back_blocks[static_cast<size_t>(r)];
    for (size_t b = 0; b < bands.count(r); ++b)
      for (size_t i = 0; i < npw; ++i)
        EXPECT_NEAR(std::abs(bb(i, b) - full(i, bands.offset(r) + b)), 0.0,
                    1e-14);
  }
}

INSTANTIATE_TEST_SUITE_P(RankCounts, TransposeParam,
                         ::testing::Values(1, 2, 3, 4, 7));

TEST(Overlap, DistributedMatchesSerial) {
  const size_t npw = 48, m = 5, n = 4;
  const la::MatC a = test::random_matrix(npw, m, 301);
  const la::MatC b = test::random_matrix(npw, n, 302);
  la::MatC ref(m, n);
  la::gemm_cn(a, b, ref);

  for (const bool use_shm : {false, true}) {
    const int p = 4;
    const dist::BlockLayout rows(npw, p);
    std::vector<la::MatC> results(static_cast<size_t>(p));
    ptmpi::run_ranks(p, 2, [&](ptmpi::Comm& c) {
      const int me = c.rank();
      la::MatC ar(rows.count(me), m), br(rows.count(me), n);
      for (size_t j = 0; j < m; ++j)
        for (size_t i = 0; i < rows.count(me); ++i)
          ar(i, j) = a(rows.offset(me) + i, j);
      for (size_t j = 0; j < n; ++j)
        for (size_t i = 0; i < rows.count(me); ++i)
          br(i, j) = b(rows.offset(me) + i, j);
      results[static_cast<size_t>(me)] =
          dist::overlap_distributed(c, ar, br, use_shm);
    });
    for (int r = 0; r < p; ++r)
      EXPECT_LT(la::frob_diff(results[static_cast<size_t>(r)], ref), 1e-11)
          << "use_shm=" << use_shm << " rank=" << r;
  }
}

TEST(Overlap, ShmReducesAllreduceTraffic) {
  // Fig. 6's claim: with node-shared accumulation, allreduce bytes stay the
  // same per call but only node leaders contribute meaningful data; the
  // measurable proxy here is that the SHM path issues exactly one
  // allreduce while producing the same result (traffic reduction is a
  // netsim-level claim, correctness is checked above).
  const size_t npw = 32, m = 3;
  const la::MatC a = test::random_matrix(npw, m, 303);
  const int p = 4;
  const dist::BlockLayout rows(npw, p);
  ptmpi::run_ranks(p, 2, [&](ptmpi::Comm& c) {
    const int me = c.rank();
    la::MatC ar(rows.count(me), m);
    for (size_t j = 0; j < m; ++j)
      for (size_t i = 0; i < rows.count(me); ++i)
        ar(i, j) = a(rows.offset(me) + i, j);
    (void)dist::overlap_distributed(c, ar, ar, true);
  });
  const auto& stats = ptmpi::last_run_stats();
  for (const auto& s : stats)
    EXPECT_EQ(s.ops.at("Allreduce").calls, 1);
}

// ------------------------------------------------------- exchange dist ---

namespace {
struct XEnv {
  test::TinySystem sys = test::TinySystem::make(3.0);
  pw::SphereGridMap map{*sys.sphere, *sys.wfc_grid};
  ham::ExchangeOperator xop{map, {}};
};
}  // namespace

class ExchangePatternParam
    : public ::testing::TestWithParam<std::tuple<dist::ExchangePattern, int>> {
};

TEST_P(ExchangePatternParam, MatchesSerialOperator) {
  const auto [pattern, p] = GetParam();
  XEnv e;
  const size_t npw = e.sys.sphere->npw();
  const size_t nb = 6;
  const la::MatC src = test::random_orbitals(npw, nb, 401);
  std::vector<real_t> d{1.0, 0.9, 0.7, 0.4, 0.2, 0.05};
  const la::MatC tgt = src;

  la::MatC ref(npw, nb);
  e.xop.apply_diag(src, d, tgt, ref);

  // Both executors, explicitly: the serial operator is the independent
  // reference for each, whatever PTIM_BACKEND defaults to.
  const dist::BlockLayout bands(nb, p);
  for (const auto kind :
       {backend::Kind::kHostSerial, backend::Kind::kHostAsync}) {
    ham::ExchangeOptions opt;
    opt.backend = kind;
    const ham::ExchangeOperator xop(e.map, opt);
    std::vector<la::MatC> blocks(static_cast<size_t>(p));
    ptmpi::run_ranks(p, 2, [&](ptmpi::Comm& c) {
      blocks[static_cast<size_t>(c.rank())] =
          test::exchange_block(c, xop, src, d, tgt, pattern);
    });

    for (int r = 0; r < p; ++r) {
      const auto& blk = blocks[static_cast<size_t>(r)];
      ASSERT_EQ(blk.cols(), bands.count(r));
      for (size_t b = 0; b < bands.count(r); ++b)
        for (size_t i = 0; i < npw; ++i)
          EXPECT_NEAR(std::abs(blk(i, b) - ref(i, bands.offset(r) + b)), 0.0,
                      1e-10)
              << backend::kind_name(kind) << " "
              << dist::pattern_name(pattern) << " p=" << p;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    PatternsByRanks, ExchangePatternParam,
    ::testing::Combine(::testing::Values(dist::ExchangePattern::kBcast,
                                         dist::ExchangePattern::kRing,
                                         dist::ExchangePattern::kAsyncRing),
                       ::testing::Values(1, 2, 3, 4)));

TEST(ExchangeDist, LocalApiNonDivisibleMatchesSerial) {
  // The rank-local API on an uneven split (7 bands on 3 ranks), a zero
  // occupation and targets distinct from the sources, against the serial
  // operator.
  XEnv e;
  const size_t npw = e.sys.sphere->npw();
  const size_t nb = 7;  // non-divisible on 3 ranks
  const la::MatC src = test::random_orbitals(npw, nb, 410);
  std::vector<real_t> d{1.0, 0.9, 0.7, 0.4, 0.2, 0.05, 0.0};
  const la::MatC tgt = test::random_orbitals(npw, nb, 411);

  la::MatC ref(npw, nb);
  e.xop.apply_diag(src, d, tgt, ref);

  const int p = 3;
  const dist::BlockLayout tb(nb, p);
  for (const auto pat :
       {dist::ExchangePattern::kBcast, dist::ExchangePattern::kRing,
        dist::ExchangePattern::kAsyncRing}) {
    std::vector<la::MatC> local(static_cast<size_t>(p));
    ptmpi::run_ranks(p, 2, [&](ptmpi::Comm& c) {
      local[static_cast<size_t>(c.rank())] =
          test::exchange_block(c, e.xop, src, d, tgt, pat);
    });
    for (int r = 0; r < p; ++r) {
      const auto& blk = local[static_cast<size_t>(r)];
      ASSERT_EQ(blk.cols(), tb.count(r));
      for (size_t b = 0; b < tb.count(r); ++b)
        for (size_t i = 0; i < npw; ++i)
          EXPECT_NEAR(std::abs(blk(i, b) - ref(i, tb.offset(r) + b)), 0.0,
                      1e-10)
              << dist::pattern_name(pat);
    }
  }
}

TEST(ExchangeDist, MixedLocalMatchesSerialNaive) {
  // Full-sigma exchange on rank-local blocks (the distributed Baseline
  // path) against the serial Alg. 2 triple loop.
  XEnv e;
  const size_t npw = e.sys.sphere->npw();
  const size_t nb = 5;
  const la::MatC src = test::random_orbitals(npw, nb, 420);
  const la::MatC sigma = test::random_occupation_matrix(nb, 421);
  const la::MatC tgt = test::random_orbitals(npw, nb, 422);

  la::MatC ref(npw, nb);
  e.xop.apply_mixed_naive(src, sigma, tgt, ref);

  la::MatC theta(npw, nb);
  la::gemm_nn(src, sigma, theta);

  for (const int p : {2, 3}) {
    const dist::BlockLayout sb(nb, p), tb(nb, p);
    std::vector<la::MatC> blocks(static_cast<size_t>(p));
    ptmpi::run_ranks(p, 2, [&](ptmpi::Comm& c) {
      const int me = c.rank();
      blocks[static_cast<size_t>(me)] =
          dist::exchange_apply_distributed_mixed_local(
              c, e.xop, dist::scatter_bands(src, sb, me),
              dist::scatter_bands(theta, sb, me),
              dist::scatter_bands(tgt, tb, me), sb,
              dist::ExchangePattern::kAsyncRing);
    });
    for (int r = 0; r < p; ++r) {
      const auto& blk = blocks[static_cast<size_t>(r)];
      for (size_t b = 0; b < tb.count(r); ++b)
        for (size_t i = 0; i < npw; ++i)
          EXPECT_NEAR(std::abs(blk(i, b) - ref(i, tb.offset(r) + b)), 0.0,
                      1e-10)
              << "p=" << p;
    }
  }
}

// ------------------------------------------------------------- rotation ---

class RotateParam : public ::testing::TestWithParam<int> {};

TEST_P(RotateParam, MatchesSerialGemm) {
  const int p = GetParam();
  const size_t npw = 41, nb = 7;
  const la::MatC a = test::random_matrix(npw, nb, 500 + p);
  const la::MatC r = test::random_matrix(nb, nb, 510 + p);
  la::MatC ref(npw, nb);
  la::gemm_nn(a, r, ref);

  const dist::BlockLayout bands(nb, p);
  for (const auto pat :
       {dist::ExchangePattern::kBcast, dist::ExchangePattern::kRing,
        dist::ExchangePattern::kAsyncRing}) {
    std::vector<la::MatC> blocks(static_cast<size_t>(p));
    ptmpi::run_ranks(p, 2, [&](ptmpi::Comm& c) {
      blocks[static_cast<size_t>(c.rank())] = dist::rotate_bands(
          c, dist::scatter_bands(a, bands, c.rank()), r, bands, pat);
    });
    for (int q = 0; q < p; ++q)
      for (size_t b = 0; b < bands.count(q); ++b)
        for (size_t i = 0; i < npw; ++i)
          EXPECT_NEAR(std::abs(blocks[static_cast<size_t>(q)](i, b) -
                               ref(i, bands.offset(q) + b)),
                      0.0, 1e-12)
              << dist::pattern_name(pat) << " p=" << p;
  }
}

INSTANTIATE_TEST_SUITE_P(RankCounts, RotateParam,
                         ::testing::Values(1, 2, 3, 4, 9));

TEST(Rotate, ReusesPersistentSlabBuffers) {
  // Band rotation circulates through the host-synchronous engine, which
  // must hold its slabs in persistent buffers too: 1 per rank for Bcast, 2
  // per rank (cur/nxt) for the rings, whatever the round count.
  const size_t npw = 29, nb = 6;
  const la::MatC a = test::random_matrix(npw, nb, 530);
  const la::MatC r = test::random_matrix(nb, nb, 531);
  for (const int p : {2, 3, 6}) {
    const dist::BlockLayout bands(nb, p);
    for (const auto pat :
         {dist::ExchangePattern::kBcast, dist::ExchangePattern::kRing,
          dist::ExchangePattern::kAsyncRing}) {
      const long before = backend::buffer_alloc_count();
      ptmpi::run_ranks(p, 2, [&](ptmpi::Comm& c) {
        (void)dist::rotate_bands(c, dist::scatter_bands(a, bands, c.rank()),
                                 r, bands, pat);
      });
      const long per_rank = pat == dist::ExchangePattern::kBcast ? 1 : 2;
      EXPECT_EQ(backend::buffer_alloc_count() - before, per_rank * p)
          << dist::pattern_name(pat) << " p=" << p;
    }
  }
}

TEST(Rotate, SolveUpperRightDistributedMatchesSerial) {
  const size_t npw = 33, nb = 6;
  const la::MatC a = test::random_matrix(npw, nb, 520);
  const la::MatC spd = [&] {
    la::MatC h = test::random_hermitian(nb, 521);
    for (size_t i = 0; i < nb; ++i) h(i, i) += 4.0;
    return h;
  }();
  const la::MatC l = la::cholesky(spd);
  la::MatC ref = a;
  la::solve_upper_right(l, ref);

  const int p = 3;
  const dist::BlockLayout bands(nb, p), rows(npw, p);
  std::vector<la::MatC> blocks(static_cast<size_t>(p));
  ptmpi::run_ranks(p, 1, [&](ptmpi::Comm& c) {
    blocks[static_cast<size_t>(c.rank())] = dist::solve_upper_right_distributed(
        c, l, dist::scatter_bands(a, bands, c.rank()), bands, rows);
  });
  for (int q = 0; q < p; ++q)
    for (size_t b = 0; b < bands.count(q); ++b)
      for (size_t i = 0; i < npw; ++i)
        // The transpose-solve-transpose path runs the identical per-row
        // arithmetic as the serial solve: exact agreement.
        EXPECT_EQ(blocks[static_cast<size_t>(q)](i, b),
                  ref(i, bands.offset(q) + b));
}

TEST(Rotate, GatherScatterRoundTrip) {
  const size_t npw = 29, nb = 5;
  const la::MatC full = test::random_matrix(npw, nb, 530);
  const int p = 4;
  const dist::BlockLayout bands(nb, p);
  std::vector<la::MatC> gathered(static_cast<size_t>(p));
  ptmpi::run_ranks(p, 2, [&](ptmpi::Comm& c) {
    const la::MatC local = dist::scatter_bands(full, bands, c.rank());
    gathered[static_cast<size_t>(c.rank())] =
        dist::gather_bands(c, local, bands);
  });
  for (int r = 0; r < p; ++r)
    EXPECT_EQ(la::frob_diff(gathered[static_cast<size_t>(r)], full), 0.0);
}

// -------------------------------------------------------- Anderson mixer ---

TEST(DistMixer, MatchesSerialAndersonMixer) {
  // Same fixed-point iteration history fed to the serial mixer on the full
  // vector and to the distributed mixer on (local block ++ shared tail):
  // the mixed iterates must agree to rounding on every rank.
  const size_t local_total = 48, shared = 9;
  const int p = 3;
  const dist::BlockLayout lay(local_total, p);
  const int iters = 6;

  // Build a deterministic sequence of (x, f) pairs.
  std::vector<std::vector<cplx>> xs, fs;
  Rng rng(77);
  for (int k = 0; k < iters; ++k) {
    std::vector<cplx> x(local_total + shared), f(local_total + shared);
    for (auto& v : x) v = rng.uniform_cplx();
    for (auto& v : f) v = rng.uniform_cplx() * 0.1;
    xs.push_back(x);
    fs.push_back(f);
  }

  la::AndersonMixer serial(local_total + shared, 20, 0.7);
  std::vector<std::vector<cplx>> serial_out;
  for (int k = 0; k < iters; ++k)
    serial_out.push_back(serial.mix(xs[static_cast<size_t>(k)],
                                    fs[static_cast<size_t>(k)]));

  std::vector<std::vector<std::vector<cplx>>> dist_out(
      static_cast<size_t>(p));
  ptmpi::run_ranks(p, 1, [&](ptmpi::Comm& c) {
    const int me = c.rank();
    const size_t n_loc = lay.count(me), off = lay.offset(me);
    dist::DistAndersonMixer mixer(c, n_loc, shared, 20, 0.7);
    for (int k = 0; k < iters; ++k) {
      std::vector<cplx> x(n_loc + shared), f(n_loc + shared);
      for (size_t i = 0; i < n_loc; ++i) {
        x[i] = xs[static_cast<size_t>(k)][off + i];
        f[i] = fs[static_cast<size_t>(k)][off + i];
      }
      for (size_t i = 0; i < shared; ++i) {
        x[n_loc + i] = xs[static_cast<size_t>(k)][local_total + i];
        f[n_loc + i] = fs[static_cast<size_t>(k)][local_total + i];
      }
      dist_out[static_cast<size_t>(me)].push_back(mixer.mix(x, f));
    }
  });

  for (int r = 0; r < p; ++r) {
    const size_t n_loc = lay.count(r), off = lay.offset(r);
    for (int k = 0; k < iters; ++k) {
      const auto& got =
          dist_out[static_cast<size_t>(r)][static_cast<size_t>(k)];
      const auto& want = serial_out[static_cast<size_t>(k)];
      for (size_t i = 0; i < n_loc; ++i)
        EXPECT_NEAR(std::abs(got[i] - want[off + i]), 0.0, 1e-12)
            << "rank " << r << " iter " << k;
      for (size_t i = 0; i < shared; ++i)
        EXPECT_NEAR(std::abs(got[n_loc + i] - want[local_total + i]), 0.0,
                    1e-12)
            << "rank " << r << " iter " << k << " shared";
    }
  }
}

TEST(ExchangeDist, RingUsesSendrecvNotBcast) {
  // The communication-pattern shift the paper's Table I reports: Bcast
  // bytes collapse to zero under the ring variants, replaced by Sendrecv
  // (sync) or Wait (async).
  XEnv e;
  const size_t npw = e.sys.sphere->npw();
  const la::MatC src = test::random_orbitals(npw, 4, 402);
  const std::vector<real_t> d{1.0, 0.8, 0.5, 0.2};

  auto run = [&](dist::ExchangePattern pat) {
    ptmpi::run_ranks(4, 2, [&](ptmpi::Comm& c) {
      (void)test::exchange_block(c, e.xop, src, d, src, pat);
    });
    return ptmpi::last_run_stats();
  };

  const auto s_bcast = run(dist::ExchangePattern::kBcast);
  EXPECT_GT(s_bcast[0].ops.at("Bcast").calls, 0);
  EXPECT_EQ(s_bcast[0].ops.count("Sendrecv"), 0u);

  const auto s_ring = run(dist::ExchangePattern::kRing);
  EXPECT_EQ(s_ring[0].ops.count("Bcast"), 0u);
  EXPECT_EQ(s_ring[0].ops.at("Sendrecv").calls, 3);  // p-1 steps

  const auto s_async = run(dist::ExchangePattern::kAsyncRing);
  EXPECT_EQ(s_async[0].ops.count("Bcast"), 0u);
  EXPECT_EQ(s_async[0].ops.count("Sendrecv"), 0u);
  EXPECT_GT(s_async[0].ops.at("Wait").calls, 0);
}

TEST(ExchangeDist, RingReusesPersistentSlabBuffers) {
  // Drive-by fix pin: the circulation engine must hold its slab storage in
  // a FIXED set of persistent buffers reused across all p rounds (double
  // buffering), never reallocating per round — on a device backend a
  // per-round allocation would serialize the streams. The global
  // backend::Buffer allocation counter makes the property observable:
  // the stream-pipelined engine double-buffers every pattern, exactly 2
  // buffers per rank independent of the number of rounds, on both
  // executors. (Rotation's host-synchronous engine is pinned in
  // Rotate.ReusesPersistentSlabBuffers.)
  XEnv e;
  const size_t npw = e.sys.sphere->npw();
  const la::MatC src = test::random_orbitals(npw, 6, 460);
  const std::vector<real_t> d{1.0, 0.8, 0.6, 0.4, 0.2, 0.1};

  for (const auto kind :
       {backend::Kind::kHostSerial, backend::Kind::kHostAsync}) {
    ham::ExchangeOptions opt;
    opt.backend = kind;
    ham::ExchangeOperator xop(e.map, opt);
    for (const int p : {2, 3, 6}) {  // round count varies 2 -> 6
      for (const auto pat :
           {dist::ExchangePattern::kBcast, dist::ExchangePattern::kRing,
            dist::ExchangePattern::kAsyncRing}) {
        const long before = backend::buffer_alloc_count();
        ptmpi::run_ranks(p, 2, [&](ptmpi::Comm& c) {
          (void)test::exchange_block(c, xop, src, d, src, pat);
        });
        // Assert the exact TOTAL so a single rank over-allocating cannot
        // hide in integer division.
        EXPECT_EQ(backend::buffer_alloc_count() - before, 2L * p)
            << backend::kind_name(kind) << " " << dist::pattern_name(pat)
            << " p=" << p;
      }
    }
  }
}
