#ifndef SCADDAR_UTIL_SIMD_H_
#define SCADDAR_UTIL_SIMD_H_

#include <string_view>

namespace scaddar {

/// The instruction tiers the kernels dispatch over: the portable scalar
/// kernels, and AVX2 as the one vector tier. Ordered, so "is AVX2 usable"
/// is `level >= kAvx2`; a CPU with wider vectors reports `kAvx2`.
enum class SimdLevel {
  kScalar = 0,  // Portable baseline, always available.
  kAvx2 = 1,    // 4x64-bit integer lanes (x86-64 with AVX2).
};

/// Stable lower-case name for logs, bench labels and JSON ("scalar",
/// "avx2").
std::string_view SimdLevelName(SimdLevel level);

/// The best level this CPU supports, probed once (cpuid on x86). Reports
/// hardware capability only — it ignores the force-scalar override and
/// whether the binary was even built with AVX2 kernels (a backend may be
/// absent; dispatchers must handle a null backend at a supported level).
SimdLevel DetectedSimdLevel();

/// True when the `SCADDAR_FORCE_SCALAR_KERNELS` environment variable is set
/// to a non-empty value other than "0". Read once at first use; flipping the
/// variable after that has no effect. The override keeps the portable
/// fallback testable/benchmarkable on hardware that would otherwise always
/// dispatch to the vector backend.
bool ScalarKernelsForced();

/// The level the kernel dispatchers select right now:
/// `SetActiveSimdLevel` pin if present, else `kScalar` when
/// `ScalarKernelsForced()`, else `DetectedSimdLevel()`. Thread-safe (one
/// atomic load).
SimdLevel ActiveSimdLevel();

/// Pins `ActiveSimdLevel()` to `level` until `ResetActiveSimdLevel`. For
/// tests and benches that compare backends inside one process; `level` must
/// not exceed `DetectedSimdLevel()` (checked — pinning a level the CPU
/// cannot execute would SIGILL later).
void SetActiveSimdLevel(SimdLevel level);

/// Clears a `SetActiveSimdLevel` pin, returning dispatch to the
/// environment-aware default.
void ResetActiveSimdLevel();

}  // namespace scaddar

#endif  // SCADDAR_UTIL_SIMD_H_
