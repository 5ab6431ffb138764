#include "backend/backend.hpp"

#include <cstdlib>
#include <memory>
#include <mutex>
#include <string>

#include "backend/host_async.hpp"
#include "backend/host_serial.hpp"
#include "common/error.hpp"

namespace ptim::backend {

const char* kind_name(Kind k) {
  switch (k) {
    case Kind::kHostSerial: return "serial";
    case Kind::kHostAsync: return "async";
  }
  return "?";
}

Kind default_kind() {
  // Read once: CI selects the executor default per process via PTIM_BACKEND
  // ("serial" | "async"); unset means the production HostAsync.
  static const Kind kind = [] {
    const char* env = std::getenv("PTIM_BACKEND");
    if (!env || !*env) return Kind::kHostAsync;
    const std::string v(env);
    if (v == "serial" || v == "host_serial") return Kind::kHostSerial;
    if (v == "async" || v == "host_async") return Kind::kHostAsync;
    throw Error("PTIM_BACKEND=\"" + v +
                "\" is not a backend (expected serial | async)");
  }();
  return kind;
}

Executor& shared_executor(Kind k) {
  static std::once_flag once_serial, once_async;
  static std::unique_ptr<Executor> serial, async;
  if (k == Kind::kHostSerial) {
    std::call_once(once_serial,
                   [] { serial = std::make_unique<HostSerialExecutor>(); });
    return *serial;
  }
  std::call_once(once_async,
                 [] { async = std::make_unique<HostAsyncExecutor>(); });
  return *async;
}

}  // namespace ptim::backend
