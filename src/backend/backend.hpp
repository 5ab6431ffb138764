#pragma once
// Execution-backend selection for the exact-exchange hot path.
//
// The paper's ARM/GPU port expresses the exchange pipeline as asynchronous
// kernel launches on streams so that ring communication of wavefunction
// slabs overlaps the pair-density FFT/K(G) compute of the previous slab.
// This header is the lightweight knob other layers thread through their
// options structs; the execution model itself lives in stream.hpp /
// executor.hpp and the concrete executors in host_serial.cpp /
// host_async.cpp.
//
//   kHostSerial — reference executor: launches run inline at enqueue time,
//                 trivially deterministic, zero threads.
//   kHostAsync  — worker-thread stream executor with real event
//                 dependencies, modeling a GPU queue on CPU. This is the
//                 production default: the distributed ring double-buffers
//                 slabs so the wire transfer of slab k+1 overlaps the
//                 compute of slab k.
//
// Both produce bit-identical results (pinned by test_backend): the
// compute stream serializes the per-slab applies in round order.
//
// Band rotation (dist/rotate) is not an exchange kernel: it keeps the
// host-synchronous ring of dist/circulate.hpp and takes no executor.

namespace ptim::backend {

enum class Kind { kHostSerial, kHostAsync };

const char* kind_name(Kind k);

// Process default, read once from the PTIM_BACKEND environment variable:
// "serial" | "async" (unset = async). CI runs the backend test
// label under both executor defaults this way.
Kind default_kind();

class Executor;

// Lazily constructed process-wide executor per kind. Thread-safe; streams
// created from it are independent, so concurrent ptmpi ranks can share one
// instance.
Executor& shared_executor(Kind k);

}  // namespace ptim::backend
