#pragma once
// Shared slab-circulation engine behind the band-parallel collectives
// (exchange and rotation). `mine` points at this rank's payload —
// src_bands.count(me) bands of `stride` elements each, read in place — and
// apply(slab, origin) accumulates the contribution of the block that
// originated on rank `origin`. The three patterns match Table I: one
// broadcast per round, a synchronous Sendrecv ring, or an Isend/Irecv ring
// whose transfer overlaps the apply.
//
// The engine is generic over the slab element type: cplx for the FP64
// pipeline, cplxf for the FP32 exchange policy — the latter halves every
// Bcast/Sendrecv/Wait byte count for free. Transfers go through the
// raw-byte Comm API (cast pinned explicitly so the typed element-count
// overloads never capture a bytes argument).
//
// Two execution modes share the round structure:
//  * stream-pipelined (ex != nullptr) — the exchange engine, the paper's
//    overlap scheme on the backend subsystem: slabs are double-buffered,
//    every round's ptmpi transfer (and its waits) is a task on a `comm`
//    stream, every apply a task on a `compute` stream, and events order the
//    two — while slab k is being computed, slab k+1 is on the wire,
//  * host-synchronous (ex == nullptr) — band rotation's engine
//    (dist/rotate): each round's transfer and compute run on the calling
//    thread. The per-slab applies run in the same round order in both
//    modes, so results are bit-identical.
//
// Slab storage is a fixed set of backend::Buffers allocated up front and
// reused across all p rounds (double buffering) — never per round; the
// allocation count per circulation is pinned in test_dist.

#include <algorithm>
#include <type_traits>
#include <vector>

#include "backend/backend.hpp"
#include "backend/buffer.hpp"
#include "backend/executor.hpp"
#include "common/types.hpp"
#include "dist/layout.hpp"
#include "dist/pattern.hpp"
#include "obs/obs.hpp"
#include "ptmpi/comm.hpp"

namespace ptim::dist {

namespace detail {

// Host-synchronous engine: band rotation (dist::rotate_bands) circulates
// through it with no executor on every distributed step. Moving rotation
// onto the streamed engine is a performance question, not a correctness
// one — the two are bit-identical.
template <typename T, typename Apply>
void circulate_slabs_sync(ptmpi::Comm& c, const T* mine, size_t mine_elems,
                          size_t slab_elems, ExchangePattern pat,
                          const Apply& apply) {
  const int p = c.size();
  const int me = c.rank();
  const size_t slab_bytes = slab_elems * sizeof(T);

  switch (pat) {
    case ExchangePattern::kBcast: {
      backend::Buffer<T> buf(slab_elems);
      for (int root = 0; root < p; ++root) {
        {
          OBS_SPAN("xchg.bcast", obs::Cat::kComm);
          if (root == me) std::copy(mine, mine + mine_elems, buf.data());
          c.bcast(static_cast<void*>(buf.data()), slab_bytes, root);
        }
        OBS_SPAN("xchg.apply_slab", obs::Cat::kCompute);
        apply(buf.data(), root);
      }
      break;
    }
    case ExchangePattern::kRing: {
      // Persistent double buffer: cur/nxt swap across all p rounds.
      backend::Buffer<T> b0(slab_elems), b1(slab_elems);
      T* cur = b0.data();
      T* nxt = b1.data();
      std::copy(mine, mine + mine_elems, cur);
      const int next = (me + 1) % p;
      const int prev = (me - 1 + p) % p;
      for (int s = 0; s < p; ++s) {
        {
          OBS_SPAN("xchg.apply_slab", obs::Cat::kCompute);
          apply(cur, (me - s % p + p) % p);
        }
        if (s + 1 < p) {
          OBS_SPAN("xchg.sendrecv", obs::Cat::kComm);
          c.sendrecv(next, static_cast<const void*>(cur), slab_bytes, prev,
                     static_cast<void*>(nxt), slab_bytes,
                     /*tag=*/s);
          std::swap(cur, nxt);
        }
      }
      break;
    }
    case ExchangePattern::kAsyncRing: {
      backend::Buffer<T> b0(slab_elems), b1(slab_elems);
      T* cur = b0.data();
      T* nxt = b1.data();
      std::copy(mine, mine + mine_elems, cur);
      const int next = (me + 1) % p;
      const int prev = (me - 1 + p) % p;
      for (int s = 0; s < p; ++s) {
        ptmpi::Request rr, rs;
        const bool more = s + 1 < p;
        if (more) {
          rr = c.irecv(prev, nxt, slab_bytes, /*tag=*/s);
          rs = c.isend(next, cur, slab_bytes, /*tag=*/s);
        }
        // Compute overlaps the in-flight transfer.
        {
          OBS_SPAN("xchg.apply_slab", obs::Cat::kCompute);
          apply(cur, (me - s % p + p) % p);
        }
        if (more) {
          OBS_SPAN("xchg.wait", obs::Cat::kComm);
          c.wait(rs);
          c.wait(rr);
          std::swap(cur, nxt);
        }
      }
      break;
    }
  }
}

// Per-rank persistent stream pair: each ptmpi rank is one thread, so a
// thread_local cache reuses the same compute/comm streams (and, under
// HostAsync, their worker threads) across circulations instead of paying
// stream creation inside the hot loop — the stream analogue of the
// persistent slab Buffers. Safe because every circulation drains both
// streams before returning; switching executors mid-process (tests sweep
// backend kinds) replaces the pair, joining the old workers.
struct CirculateStreams {
  backend::Executor* ex = nullptr;
  backend::Stream compute, comm;
};
inline CirculateStreams& cached_streams(backend::Executor& ex) {
  thread_local CirculateStreams cs;
  if (cs.ex != &ex) {
    cs.compute = ex.create_stream("xchg.compute");
    cs.comm = ex.create_stream("xchg.comm");
    cs.ex = &ex;
  }
  return cs;
}

// Stream-pipelined engine (paper Fig. 5 overlap): round s's transfer runs
// as a task on the `comm` stream while round s's apply runs on the
// `compute` stream; double-buffered slabs with events closing the two
// races (the transfer must not overwrite a buffer the compute stream is
// still reading, and the compute stream must not read a buffer whose
// transfer has not landed). Buffer r%2 carries round r in every pattern.
template <typename T, typename Apply>
void circulate_slabs_streamed(ptmpi::Comm& c, const T* mine, size_t mine_elems,
                              size_t slab_elems, ExchangePattern pat,
                              const Apply& apply, backend::Executor& ex) {
  const int p = c.size();
  const int me = c.rank();
  const size_t slab_bytes = slab_elems * sizeof(T);
  // Launch name of the per-slab apply, by slab scalar.
  const char* const apply_kernel = std::is_same_v<T, cplxf>
                                       ? "xchg.apply_slab.fp32"
                                       : "xchg.apply_slab.fp64";

  CirculateStreams& cs = cached_streams(ex);
  backend::Stream& compute = cs.compute;
  backend::Stream& comm = cs.comm;
  backend::Buffer<T> b0(slab_elems), b1(slab_elems);
  T* const buf[2] = {b0.data(), b1.data()};

  // done[s] — the compute stream finished reading round s's buffer;
  // landed[s] — the comm stream finished writing round s+1's buffer.
  std::vector<backend::Event> done(static_cast<size_t>(p));
  std::vector<backend::Event> landed(static_cast<size_t>(p));

  auto launch_apply = [&](int s, int origin) {
    const T* slab = buf[s % 2];
    ex.launch(
        compute,
        [&apply, slab, origin] {
          // Recorded on the compute stream's worker lane.
          OBS_SPAN("xchg.apply_slab", obs::Cat::kCompute);
          apply(slab, origin);
        },
        apply_kernel);
    done[static_cast<size_t>(s)] = ex.record(compute);
  };

  switch (pat) {
    case ExchangePattern::kBcast: {
      for (int root = 0; root < p; ++root) {
        T* b = buf[root % 2];
        // The transfer reuses the buffer the compute stream last read two
        // rounds ago — wait for that read to retire before overwriting.
        if (root >= 2)
          ex.stream_wait_event(comm, done[static_cast<size_t>(root - 2)]);
        ex.launch(
            comm,
            [&c, mine, mine_elems, b, slab_bytes, root, me] {
              OBS_SPAN("xchg.comm_round", obs::Cat::kComm);
              if (root == me) std::copy(mine, mine + mine_elems, b);
              c.bcast(static_cast<void*>(b), slab_bytes, root);
            },
            "xchg.comm_round");
        landed[static_cast<size_t>(root)] = ex.record(comm);
        ex.stream_wait_event(compute, landed[static_cast<size_t>(root)]);
        launch_apply(root, root);
      }
      break;
    }
    case ExchangePattern::kRing:
    case ExchangePattern::kAsyncRing: {
      std::copy(mine, mine + mine_elems, buf[0]);
      const int next = (me + 1) % p;
      const int prev = (me - 1 + p) % p;
      const bool posted = pat == ExchangePattern::kAsyncRing;
      for (int s = 0; s < p; ++s) {
        T* cur = buf[s % 2];
        T* nxt = buf[(s + 1) % 2];
        if (s + 1 < p) {
          // The receive overwrites the buffer computed on in round s-1.
          if (s >= 1)
            ex.stream_wait_event(comm, done[static_cast<size_t>(s - 1)]);
          ex.launch(
              comm,
              [&c, cur, nxt, slab_bytes, next, prev, s, posted] {
                OBS_SPAN("xchg.comm_round", obs::Cat::kComm);
                if (posted) {
                  // Isend/Irecv first, waits after — the ptmpi waits are
                  // what this stream's completion event stands for.
                  ptmpi::Request rr =
                      c.irecv(prev, nxt, slab_bytes, /*tag=*/s);
                  ptmpi::Request rs =
                      c.isend(next, static_cast<const void*>(cur), slab_bytes,
                              /*tag=*/s);
                  c.wait(rs);
                  c.wait(rr);
                } else {
                  c.sendrecv(next, static_cast<const void*>(cur), slab_bytes,
                             prev, static_cast<void*>(nxt), slab_bytes,
                             /*tag=*/s);
                }
              },
              "xchg.comm_round");
          landed[static_cast<size_t>(s)] = ex.record(comm);
        }
        // Round s computes on `cur`, which round s-1's transfer produced.
        if (s >= 1)
          ex.stream_wait_event(compute, landed[static_cast<size_t>(s - 1)]);
        launch_apply(s, (me - s % p + p) % p);
      }
      break;
    }
  }

  // Host rejoins only once BOTH queues drain; task exceptions rethrow
  // here. If the compute stream failed, the comm stream must still be
  // drained before unwinding — its queued transfer tasks reference this
  // frame's buffers/events, and peer ranks are mid-ring. (It cannot hang:
  // record() signal tasks are unconditional and streams keep draining past
  // a failed task, so every awaited event still fires.)
  try {
    ex.synchronize(compute);
  } catch (...) {
    try {
      ex.synchronize(comm);
    } catch (...) {
      // Secondary comm failure is subsumed by the compute error.
    }
    throw;
  }
  ex.synchronize(comm);
}

}  // namespace detail

template <typename T, typename Apply>
void circulate_slabs(ptmpi::Comm& c, const BlockLayout& src_bands,
                     size_t stride, const T* mine, ExchangePattern pat,
                     const Apply& apply, backend::Executor* ex = nullptr) {
  const int p = c.size();

  size_t maxw = 0;
  for (int r = 0; r < p; ++r) maxw = std::max(maxw, src_bands.count(r));
  const size_t slab_elems = maxw * stride;
  const size_t mine_elems = src_bands.count(c.rank()) * stride;

  if (p == 1) {
    apply(mine, 0);
    return;
  }
  if (ex)
    detail::circulate_slabs_streamed(c, mine, mine_elems, slab_elems, pat,
                                     apply, *ex);
  else
    detail::circulate_slabs_sync(c, mine, mine_elems, slab_elems, pat, apply);
}

}  // namespace ptim::dist
