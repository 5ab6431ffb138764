// The device-execution subsystem: stream/event semantics of both host
// executors and — centrally — bit-identity of the overlapped HostAsync ring
// exchange with the inline HostSerial one for all three circulation
// patterns in both precisions.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <thread>
#include <vector>

#include "backend/buffer.hpp"
#include "backend/executor.hpp"
#include "common/timer.hpp"
#include "dist/circulate.hpp"
#include "dist/exchange_dist.hpp"
#include "dist/layout.hpp"
#include "dist/rotate.hpp"
#include "la/blas.hpp"
#include "la/util.hpp"
#include "test_helpers.hpp"

using namespace ptim;

// ---------------------------------------------------------- executors ----

TEST(HostSerial, LaunchesRunInlineAtEnqueue) {
  auto& ex = backend::shared_executor(backend::Kind::kHostSerial);
  backend::Stream s = ex.create_stream("t");
  int x = 0;
  ex.launch(s, [&] { x = 42; }, "test.set");
  EXPECT_EQ(x, 42);  // inline: visible before any synchronize
  backend::Event e = ex.record(s);
  ex.stream_wait_event(s, e);  // already signaled — must not block
  ex.synchronize(e);
  ex.synchronize(s);
  EXPECT_GE(ex.launch_count("test.set"), 1);
}

TEST(HostAsync, StreamIsInOrder) {
  auto& ex = backend::shared_executor(backend::Kind::kHostAsync);
  backend::Stream s = ex.create_stream("order");
  std::vector<int> seq;
  for (int i = 0; i < 200; ++i)
    ex.launch(s, [&seq, i] { seq.push_back(i); }, "test.seq");
  ex.synchronize(s);
  ASSERT_EQ(seq.size(), 200u);
  for (int i = 0; i < 200; ++i) EXPECT_EQ(seq[static_cast<size_t>(i)], i);
}

TEST(HostAsync, StreamsRunConcurrently) {
  // Stream A blocks on a promise that only a task on stream B fulfills —
  // enqueued AFTER A's task. Progress proves the two streams execute on
  // independent workers (a serialized executor would deadlock here).
  auto& ex = backend::shared_executor(backend::Kind::kHostAsync);
  backend::Stream a = ex.create_stream("a");
  backend::Stream b = ex.create_stream("b");
  std::promise<void> handoff;
  std::shared_future<void> fut = handoff.get_future().share();
  std::atomic<bool> ok{false};
  ex.launch(
      a,
      [fut, &ok] {
        ok = fut.wait_for(std::chrono::seconds(30)) ==
             std::future_status::ready;
      },
      "test.wait");
  ex.launch(b, [&handoff] { handoff.set_value(); }, "test.signal");
  ex.synchronize(a);
  ex.synchronize(b);
  EXPECT_TRUE(ok.load());
}

TEST(HostAsync, EventsOrderAcrossStreams) {
  auto& ex = backend::shared_executor(backend::Kind::kHostAsync);
  backend::Stream prod = ex.create_stream("prod");
  backend::Stream cons = ex.create_stream("cons");
  int x = 0;
  std::vector<int> seen;
  for (int i = 0; i < 50; ++i) {
    ex.launch(prod, [&x, i] { x = i; }, "test.produce");
    backend::Event e = ex.record(prod);
    ex.stream_wait_event(cons, e);
    // Without the event wait this read would race (TSan-visible) and could
    // observe stale values; with it, the producer's write happens-before.
    ex.launch(cons, [&x, &seen] { seen.push_back(x); }, "test.consume");
    backend::Event done = ex.record(cons);
    ex.stream_wait_event(prod, done);  // producer must not overtake reader
  }
  ex.synchronize(cons);
  ex.synchronize(prod);
  ASSERT_EQ(seen.size(), 50u);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(seen[static_cast<size_t>(i)], i);
}

TEST(HostAsync, HostSynchronizeOnEvent) {
  auto& ex = backend::shared_executor(backend::Kind::kHostAsync);
  backend::Stream s = ex.create_stream("evt");
  std::atomic<int> x{0};
  ex.launch(
      s,
      [&x] {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
        x = 7;
      },
      "test.slow");
  backend::Event e = ex.record(s);
  ex.synchronize(e);
  EXPECT_EQ(x.load(), 7);
  ex.synchronize(s);
}

TEST(HostAsync, TaskExceptionsRethrowOnSynchronize) {
  auto& ex = backend::shared_executor(backend::Kind::kHostAsync);
  backend::Stream s = ex.create_stream("err");
  ex.launch(s, [] { throw ptim::Error("kernel failed"); }, "test.throw");
  int after = 0;
  ex.launch(s, [&after] { after = 1; }, "test.after");
  EXPECT_THROW(ex.synchronize(s), ptim::Error);
  EXPECT_EQ(after, 1);  // the stream keeps draining past a failed task
  // The error is consumed; the stream remains usable.
  ex.launch(s, [&after] { after = 2; }, "test.after");
  ex.synchronize(s);
  EXPECT_EQ(after, 2);
}

TEST(Backend, DefaultKindAndNames) {
  EXPECT_STREQ(backend::kind_name(backend::Kind::kHostSerial), "serial");
  EXPECT_STREQ(backend::kind_name(backend::Kind::kHostAsync), "async");
  // Whatever PTIM_BACKEND selects, the executors for both kinds must exist
  // and agree on their kind tags.
  const backend::Kind def = backend::default_kind();
  EXPECT_TRUE(def == backend::Kind::kHostSerial ||
              def == backend::Kind::kHostAsync);
  EXPECT_EQ(backend::shared_executor(backend::Kind::kHostSerial).kind(),
            backend::Kind::kHostSerial);
  EXPECT_EQ(backend::shared_executor(backend::Kind::kHostAsync).kind(),
            backend::Kind::kHostAsync);
}

TEST(Buffer, CountsOnlyRealAllocations) {
  const long before = backend::buffer_alloc_count();
  backend::Buffer<cplx> b;
  EXPECT_EQ(backend::buffer_alloc_count(), before);
  b.ensure(128);
  EXPECT_EQ(backend::buffer_alloc_count(), before + 1);
  b.ensure(64);   // shrink request: no-op
  b.ensure(128);  // same size: no-op
  EXPECT_EQ(backend::buffer_alloc_count(), before + 1);
  b.ensure(256);  // growth: one more
  EXPECT_EQ(backend::buffer_alloc_count(), before + 2);
  EXPECT_EQ(b.size(), 256u);
}

// ------------------------------------- overlapped ring bit-identity ----

namespace {

struct XEnv {
  test::TinySystem sys = test::TinySystem::make(3.0);
  pw::SphereGridMap map{*sys.sphere, *sys.wfc_grid};
};

// Distributed diag exchange under one backend kind; returns all rank
// blocks concatenated for exact comparison.
std::vector<la::MatC> run_dist_diag(const XEnv& e, backend::Kind kind,
                                    Precision prec, dist::ExchangePattern pat,
                                    int p, const la::MatC& src,
                                    const std::vector<real_t>& d,
                                    const la::MatC& tgt) {
  ham::ExchangeOptions opt;
  opt.precision = prec;
  opt.backend = kind;
  ham::ExchangeOperator xop(e.map, opt);
  std::vector<la::MatC> blocks(static_cast<size_t>(p));
  ptmpi::run_ranks(p, 2, [&](ptmpi::Comm& c) {
    blocks[static_cast<size_t>(c.rank())] =
        test::exchange_block(c, xop, src, d, tgt, pat);
  });
  return blocks;
}

std::vector<la::MatC> run_dist_mixed(const XEnv& e, backend::Kind kind,
                                     Precision prec, dist::ExchangePattern pat,
                                     int p, const la::MatC& src,
                                     const la::MatC& theta,
                                     const la::MatC& tgt) {
  ham::ExchangeOptions opt;
  opt.precision = prec;
  opt.backend = kind;
  ham::ExchangeOperator xop(e.map, opt);
  const dist::BlockLayout bands(src.cols(), p);
  std::vector<la::MatC> blocks(static_cast<size_t>(p));
  ptmpi::run_ranks(p, 2, [&](ptmpi::Comm& c) {
    const int me = c.rank();
    blocks[static_cast<size_t>(me)] =
        dist::exchange_apply_distributed_mixed_local(
            c, xop, dist::scatter_bands(src, bands, me),
            dist::scatter_bands(theta, bands, me),
            dist::scatter_bands(tgt, bands, me), bands, pat);
  });
  return blocks;
}

}  // namespace

TEST(OverlappedRing, AsyncBitIdenticalToSerialAllPatternsBothPrecisions) {
  XEnv e;
  const size_t npw = e.sys.sphere->npw();
  const size_t nb = 7;
  const la::MatC src = test::random_orbitals(npw, nb, 930);
  const la::MatC tgt = test::random_orbitals(npw, nb, 931);
  const std::vector<real_t> d{1.0, 0.9, 0.6, 0.4, 0.15, 0.05, 0.0};

  for (const int p : {3, 4}) {
    for (const auto pat :
         {dist::ExchangePattern::kBcast, dist::ExchangePattern::kRing,
          dist::ExchangePattern::kAsyncRing}) {
      for (const Precision prec : {Precision::kDouble, Precision::kSingle}) {
        const auto serial = run_dist_diag(e, backend::Kind::kHostSerial, prec,
                                          pat, p, src, d, tgt);
        const auto async = run_dist_diag(e, backend::Kind::kHostAsync, prec,
                                         pat, p, src, d, tgt);
        for (int r = 0; r < p; ++r) {
          const auto ri = static_cast<size_t>(r);
          EXPECT_EQ(la::frob_diff(serial[ri], async[ri]), 0.0)
              << dist::pattern_name(pat) << " p=" << p
              << " prec=" << precision_name(prec) << " rank " << r;
        }
      }
    }
  }
}

TEST(OverlappedRing, MoreRanksThanBands) {
  // Zero-width slabs must flow through the pipelined engine unharmed.
  XEnv e;
  const size_t npw = e.sys.sphere->npw();
  const la::MatC src = test::random_orbitals(npw, 3, 940);
  const la::MatC tgt = test::random_orbitals(npw, 3, 941);
  const std::vector<real_t> d{1.0, 0.5, 0.2};
  const int p = 5;
  for (const auto pat :
       {dist::ExchangePattern::kRing, dist::ExchangePattern::kAsyncRing}) {
    const auto serial = run_dist_diag(e, backend::Kind::kHostSerial,
                                      Precision::kDouble, pat, p, src, d, tgt);
    const auto async = run_dist_diag(e, backend::Kind::kHostAsync,
                                     Precision::kDouble, pat, p, src, d, tgt);
    for (int r = 0; r < p; ++r)
      EXPECT_EQ(la::frob_diff(serial[static_cast<size_t>(r)],
                              async[static_cast<size_t>(r)]),
                0.0)
          << dist::pattern_name(pat) << " rank " << r;
  }
}

TEST(OverlappedRing, MixedWeightedPathBitIdentical) {
  XEnv e;
  const size_t npw = e.sys.sphere->npw();
  const size_t nb = 5;
  const la::MatC src = test::random_orbitals(npw, nb, 950);
  const la::MatC sigma = test::random_occupation_matrix(nb, 951);
  la::MatC theta(npw, nb);
  la::gemm_nn(src, sigma, theta);
  const la::MatC tgt = test::random_orbitals(npw, nb, 952);
  const int p = 3;
  for (const auto pat :
       {dist::ExchangePattern::kBcast, dist::ExchangePattern::kRing,
        dist::ExchangePattern::kAsyncRing}) {
    for (const Precision prec : {Precision::kDouble, Precision::kSingle}) {
      const auto serial = run_dist_mixed(e, backend::Kind::kHostSerial, prec,
                                         pat, p, src, theta, tgt);
      const auto async = run_dist_mixed(e, backend::Kind::kHostAsync, prec,
                                        pat, p, src, theta, tgt);
      for (int r = 0; r < p; ++r)
        EXPECT_EQ(la::frob_diff(serial[static_cast<size_t>(r)],
                                async[static_cast<size_t>(r)]),
                  0.0)
            << dist::pattern_name(pat) << " prec=" << precision_name(prec)
            << " rank " << r;
    }
  }
}

TEST(OverlappedRing, ApplySlabAndCommRoundLaunchCounts) {
  // The pipelined ring must launch exactly p apply-slab kernels and p-1
  // comm rounds per circulation on each rank.
  XEnv e;
  const size_t npw = e.sys.sphere->npw();
  const la::MatC src = test::random_orbitals(npw, 4, 960);
  const la::MatC tgt = test::random_orbitals(npw, 4, 961);
  const std::vector<real_t> d{1.0, 0.8, 0.5, 0.2};
  const int p = 4;
  auto& ex = backend::shared_executor(backend::Kind::kHostAsync);
  ex.reset_launch_stats();
  (void)run_dist_diag(e, backend::Kind::kHostAsync, Precision::kDouble,
                      dist::ExchangePattern::kAsyncRing, p, src, d, tgt);
  EXPECT_EQ(ex.launch_count("xchg.apply_slab.fp64"), p * p);  // p per rank
  EXPECT_EQ(ex.launch_count("xchg.apply_slab.fp32"), 0);
  EXPECT_EQ(ex.launch_count("xchg.comm_round"), p * (p - 1));  // p-1 per rank
  // FP32 slabs launch the fp32 apply kernel.
  ex.reset_launch_stats();
  (void)run_dist_diag(e, backend::Kind::kHostAsync, Precision::kSingle,
                      dist::ExchangePattern::kAsyncRing, p, src, d, tgt);
  EXPECT_EQ(ex.launch_count("xchg.apply_slab.fp32"), p * p);
}

TEST(OverlappedRing, ApplyExceptionDrainsAndPropagates) {
  // A throwing apply kernel must not hang peer ranks (the comm stream
  // still completes every transfer round) and must surface the error from
  // the circulation's synchronize, after all tasks referencing the
  // circulate frame have drained.
  auto& ex = backend::shared_executor(backend::Kind::kHostAsync);
  const size_t stride = 8;
  const dist::BlockLayout bands(4, 2);
  EXPECT_THROW(
      ptmpi::run_ranks(2, 1,
                       [&](ptmpi::Comm& c) {
                         std::vector<cplx> mine(
                             bands.count(c.rank()) * stride,
                             cplx(static_cast<real_t>(c.rank())));
                         dist::circulate_slabs(
                             c, bands, stride, mine.data(),
                             dist::ExchangePattern::kAsyncRing,
                             [&](const cplx*, int origin) {
                               if (c.rank() == 0 && origin == 1)
                                 throw ptim::Error("apply kernel failed");
                             },
                             &ex);
                       }),
      ptim::Error);
}

// ----------------------------------------------------- wire model ----

TEST(WireModel, DelaysPointToPointDelivery) {
  ptmpi::set_wire_model(20e-3, 0.0);
  Timer t;
  ptmpi::run_ranks(2, 1, [&](ptmpi::Comm& c) {
    double x = 1.0;
    if (c.rank() == 0)
      c.send(1, &x, sizeof(x));
    else
      c.recv(0, &x, sizeof(x));
  });
  ptmpi::set_wire_model(0.0, 0.0);
  EXPECT_GE(t.seconds(), 15e-3);  // the recv waited out the wire time
}
