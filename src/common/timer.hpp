#pragma once
// Wall-clock timing and a process-wide profiling registry.
//
// The registry mirrors what PWDFT's internal timers provide: named sections
// accumulate (count, seconds); benches read them back to print per-stage
// breakdowns (e.g. Fock exchange vs density vs mixing, or per-MPI-op time
// for the Table I reproduction).
//
// Since the obs subsystem landed, the registry is a thin string-keyed
// facade over obs interned-id accumulation (obs::profile_*): the
// per-call map lookup the old implementation paid in every ScopedTimer
// destructor is now a one-time intern per call site plus a vector-slot
// add. Existing string tags ("exchange.diag", ...) keep working unchanged,
// and every ScopedTimer section doubles as an obs trace span when
// tracing is enabled, so timed sections appear in exported timelines.

#include <chrono>
#include <map>
#include <string>

#include "obs/obs.hpp"

namespace ptim {

class Timer {
 public:
  Timer() : start_(clock::now()) {}
  void reset() { start_ = clock::now(); }
  double seconds() const {
    return std::chrono::duration<double>(clock::now() - start_).count();
  }

 private:
  using clock = std::chrono::steady_clock;
  clock::time_point start_;
};

struct ProfileEntry {
  long count = 0;
  double seconds = 0.0;
};

// Thread-safe accumulation of named timing sections (obs-backed).
class ProfileRegistry {
 public:
  static ProfileRegistry& instance();

  void add(const std::string& name, double seconds);
  void add(uint32_t name_id, double seconds);
  ProfileEntry get(const std::string& name) const;
  std::map<std::string, ProfileEntry> snapshot() const;
  void clear();
};

// RAII section timer: accumulates into the registry on destruction and,
// when tracing is enabled, records the section as a trace span. Hot call
// sites should pre-intern (static const uint32_t id = obs::intern("x"))
// and use the id overload; the string overload interns per construction.
class ScopedTimer {
 public:
  explicit ScopedTimer(const std::string& name,
                       obs::Cat cat = obs::Cat::kCompute)
      : ScopedTimer(obs::intern(name), cat) {}
  explicit ScopedTimer(uint32_t name_id, obs::Cat cat = obs::Cat::kCompute)
      : name_id_(name_id), cat_(cat) {
    if (obs::enabled()) t0_ns_ = obs::now_ns();
  }
  ~ScopedTimer() {
    obs::profile_add(name_id_, timer_.seconds());
    if (t0_ns_ != 0) obs::record_span(name_id_, cat_, t0_ns_, obs::now_ns());
  }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  uint32_t name_id_;
  obs::Cat cat_;
  uint64_t t0_ns_ = 0;
  Timer timer_;
};

}  // namespace ptim
