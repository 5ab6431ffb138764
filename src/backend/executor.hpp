#pragma once
// Executor — the device-execution interface of the backend subsystem.
//
// An Executor creates streams and enqueues named kernels on them; events
// provide cross-stream ordering (record on one stream, wait on another)
// and host synchronization. Two concrete executors exist:
//  * HostSerial (host_serial.cpp) — every launch runs inline at enqueue
//    time on the calling thread; the deterministic reference,
//  * HostAsync (host_async.cpp)   — one worker thread per stream with real
//    event dependencies, modeling a GPU queue on CPU. The overlapped ring
//    exchange (dist/circulate.hpp) is built on this.
//
// Launches are host closures standing in for device kernels. Per-name
// launch counts are recorded so tests and benches can assert which kernels
// actually ran.

#include <map>
#include <mutex>
#include <string>

#include "backend/backend.hpp"
#include "backend/stream.hpp"

namespace ptim::backend {

class Executor {
 public:
  virtual ~Executor() = default;

  virtual Kind kind() const = 0;

  // New in-order work queue. HostAsync spawns a worker thread; release the
  // last Stream reference (or let it go out of scope) to join it.
  virtual Stream create_stream(const std::string& name) = 0;

  // Enqueue `fn` on `s` under kernel name `name`. Same-stream launches run
  // in submission order; cross-stream order only via events.
  virtual void launch(const Stream& s, std::function<void()> fn,
                      const char* name) = 0;

  // Marker after everything submitted to `s` so far.
  virtual Event record(const Stream& s) = 0;

  // All work submitted to `s` after this call runs only once `e` has
  // signaled (cudaStreamWaitEvent semantics).
  virtual void stream_wait_event(const Stream& s, const Event& e) = 0;

  // Host-side blocking waits. Stream synchronization rethrows the first
  // exception any task on the stream raised.
  virtual void synchronize(const Stream& s) = 0;
  virtual void synchronize(const Event& e) = 0;

  // --- launch accounting -------------------------------------------------
  long launch_count(const std::string& name) const {
    std::lock_guard<std::mutex> lock(stats_mu_);
    const auto it = launches_.find(name);
    return it == launches_.end() ? 0 : it->second;
  }
  long total_launches() const {
    std::lock_guard<std::mutex> lock(stats_mu_);
    long n = 0;
    for (const auto& [k, v] : launches_) n += v;
    return n;
  }
  void reset_launch_stats() {
    std::lock_guard<std::mutex> lock(stats_mu_);
    launches_.clear();
  }

 protected:
  void note_launch(const char* name) {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++launches_[name];
  }

 private:
  mutable std::mutex stats_mu_;
  std::map<std::string, long> launches_;
};

}  // namespace ptim::backend
