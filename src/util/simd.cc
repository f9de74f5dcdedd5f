#include "util/simd.h"

#include <atomic>
#include <cstdlib>
#include <cstring>

#include "util/status.h"

namespace scaddar {

namespace {

SimdLevel ProbeCpu() {
#if defined(__x86_64__) || defined(__i386__)
  if (__builtin_cpu_supports("avx2")) {
    return SimdLevel::kAvx2;
  }
#endif
  return SimdLevel::kScalar;
}

bool ProbeForceScalar() {
  const char* value = std::getenv("SCADDAR_FORCE_SCALAR_KERNELS");
  return value != nullptr && value[0] != '\0' &&
         std::strcmp(value, "0") != 0;
}

// -1 means "no pin"; otherwise the pinned SimdLevel as an int.
std::atomic<int>& PinnedLevel() {
  static std::atomic<int> pinned{-1};
  return pinned;
}

}  // namespace

std::string_view SimdLevelName(SimdLevel level) {
  switch (level) {
    case SimdLevel::kScalar:
      return "scalar";
    case SimdLevel::kAvx2:
      return "avx2";
  }
  return "unknown";
}

SimdLevel DetectedSimdLevel() {
  static const SimdLevel detected = ProbeCpu();
  return detected;
}

bool ScalarKernelsForced() {
  static const bool forced = ProbeForceScalar();
  return forced;
}

SimdLevel ActiveSimdLevel() {
  const int pinned = PinnedLevel().load(std::memory_order_relaxed);
  if (pinned >= 0) {
    return static_cast<SimdLevel>(pinned);
  }
  return ScalarKernelsForced() ? SimdLevel::kScalar : DetectedSimdLevel();
}

void SetActiveSimdLevel(SimdLevel level) {
  SCADDAR_CHECK(level <= DetectedSimdLevel());
  PinnedLevel().store(static_cast<int>(level), std::memory_order_relaxed);
}

void ResetActiveSimdLevel() {
  PinnedLevel().store(-1, std::memory_order_relaxed);
}

}  // namespace scaddar
