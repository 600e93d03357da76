// Runtime ISA dispatch: probe once, publish the chosen kernel table through
// a single atomic pointer, honor the GREENVIS_SIMD override at startup, and
// let tests/oracles swap paths at runtime via set_path().
#include "src/util/simd/simd.hpp"

#include <atomic>
#include <cstdlib>
#include <string>
#include <vector>

#include "src/util/error.hpp"
#include "src/util/simd/kernels_impl.hpp"

namespace greenvis::util::simd {
namespace {

const KernelTable* table_or_null(IsaPath path) {
  switch (path) {
    case IsaPath::kScalar:
      return &scalar_table();
    case IsaPath::kAvx2:
      return avx2_table();
  }
  return nullptr;
}

/// Best path the hardware supports: AVX2 when its TU was compiled for the
/// ISA and the CPU reports the feature, scalar otherwise.
IsaPath probe_best() {
#if defined(__AVX2__)
  const bool cpu_avx2 = true;  // AVX2 baseline build: no probe needed.
#elif defined(__x86_64__) || defined(__i386__)
  const bool cpu_avx2 = __builtin_cpu_supports("avx2");
#else
  const bool cpu_avx2 = false;
#endif
  return cpu_avx2 && avx2_table() != nullptr ? IsaPath::kAvx2
                                             : IsaPath::kScalar;
}

/// Scalar always runs; the only other path a host can run is the one the
/// probe found.
bool supported_on(IsaPath path, IsaPath detected) {
  return path == IsaPath::kScalar || path == detected;
}

/// The one name parser behind parse_path() and GREENVIS_SIMD. `detected`
/// resolves "auto", so the dispatcher can parse its own override without
/// re-entering dispatcher() mid-construction.
IsaPath parse_name(const std::string& name, IsaPath detected,
                   const std::string& source) {
  if (name == "auto") {
    return detected;
  }
  if (name == "scalar") {
    return IsaPath::kScalar;
  }
  if (name == "avx2") {
    return IsaPath::kAvx2;
  }
  // The name is user input: a failed precondition would print this file's
  // path instead of naming only the source.
  throw util::ContractViolation(source + ": unknown path '" + name +
                                "' (scalar|avx2|auto)");
}

struct Dispatcher {
  IsaPath detected;
  std::atomic<const KernelTable*> active;

  Dispatcher() : detected(probe_best()), active(table_or_null(detected)) {
    const char* env = std::getenv("GREENVIS_SIMD");
    if (env == nullptr || *env == '\0') {
      return;
    }
    const std::string name(env);
    const IsaPath forced = parse_name(name, detected, "GREENVIS_SIMD");
    if (!supported_on(forced, detected)) {
      throw util::ContractViolation("GREENVIS_SIMD=" + name +
                                    " is not supported on this host "
                                    "(detected " +
                                    std::string(path_name(detected)) + ")");
    }
    active.store(table_or_null(forced), std::memory_order_relaxed);
  }
};

Dispatcher& dispatcher() {
  static Dispatcher d;
  return d;
}

}  // namespace

const char* path_name(IsaPath path) {
  switch (path) {
    case IsaPath::kScalar:
      return "scalar";
    case IsaPath::kAvx2:
      return "avx2";
  }
  return "unknown";
}

IsaPath parse_path(const std::string& name) {
  return parse_name(name, detected_path(), "SIMD path");
}

bool path_supported(IsaPath path) {
  return supported_on(path, dispatcher().detected);
}

std::vector<IsaPath> supported_paths() {
  std::vector<IsaPath> out;
  for (IsaPath p : {IsaPath::kScalar, IsaPath::kAvx2}) {
    if (path_supported(p)) {
      out.push_back(p);
    }
  }
  return out;
}

IsaPath detected_path() { return dispatcher().detected; }

IsaPath active_path() {
  return dispatcher().active.load(std::memory_order_relaxed)->path;
}

void set_path(IsaPath path) {
  GREENVIS_REQUIRE_MSG(path_supported(path),
                       std::string("SIMD path '") + path_name(path) +
                           "' is not supported on this host");
  dispatcher().active.store(table_or_null(path), std::memory_order_relaxed);
}

const KernelTable& table_for(IsaPath path) {
  GREENVIS_REQUIRE_MSG(path_supported(path),
                       std::string("SIMD path '") + path_name(path) +
                           "' is not supported on this host");
  return *table_or_null(path);
}

const KernelTable& kernels() {
  return *dispatcher().active.load(std::memory_order_relaxed);
}

}  // namespace greenvis::util::simd
