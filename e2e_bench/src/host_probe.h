#ifndef SCADDAR_E2E_BENCH_HOST_PROBE_H_
#define SCADDAR_E2E_BENCH_HOST_PROBE_H_

// A fixed reference computation that measures how fast the host runs this
// thread right now. On a shared host the same code runs up to ~1.6x slower
// for seconds at a time while other tenants load it; the benchmark scales its
// set-up and CPU-time metrics by a power of the reference's speed, measured
// in slices interleaved with the work it times, so that the gated numbers
// describe the program and not the other tenants. The reference is the
// benchmark's own code: no change to the program can change it.

#include <time.h>

#include <algorithm>
#include <array>
#include <cstdint>

#include "loadgen.h"

namespace scaddar::e2e {

inline double ThreadCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// Thread CPU time of one reference slice on the host the benchmark was
/// sized on (4-vCPU Intel Xeon VM, quiet neighbours). Scaled metrics read as
/// CPU time on a host that runs the slice this fast.
inline constexpr double kReferenceSliceS = 45e-6;

/// The workloads slow down more than the slice does: across 90 runs on the
/// sizing host their CPU time went as the slice's speed to the power -1.2
/// to -1.45 (-1.0 on uring_mixed). The sort feels a shared core but misses
/// part of what other tenants take from caches and memory. So a time at
/// host speed s is scaled by s to this power.
inline constexpr double kSpeedExponent = 1.4;

class HostProbe {
 public:
  /// Runs the reference twice and returns the thread CPU seconds of the
  /// second pass: the first brings its code and data back into the caches
  /// the program just used, so the timed pass does not depend on how much
  /// the program evicted.
  double Slice() {
    Reference();
    const double start = ThreadCpuSeconds();
    Reference();
    return ThreadCpuSeconds() - start;
  }

 private:
  /// Sorts L1-resident random keys: branchy code whose slowdown tracked
  /// the workloads' best when the host was contended (better than multiply
  /// chains or pointer chasing). Fresh keys on every pass, so the branch
  /// predictor cannot learn them.
  void Reference() {
    for (uint32_t& key : keys_) {
      key = static_cast<uint32_t>(rng_.Next());
    }
    std::sort(keys_.begin(), keys_.end());
    uint32_t median = keys_[keys_.size() / 2];
    asm volatile("" : "+r"(median));  // The result counts as used.
  }

  std::array<uint32_t, 1024> keys_{};
  Rng rng_{0};
};

}  // namespace scaddar::e2e

#endif  // SCADDAR_E2E_BENCH_HOST_PROBE_H_
