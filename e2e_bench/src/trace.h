#ifndef SCADDAR_E2E_BENCH_TRACE_H_
#define SCADDAR_E2E_BENCH_TRACE_H_

// In-memory spans recorded around every public call the benchmark makes,
// written out at exit as Chrome trace-event JSON (Perfetto opens it).

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace scaddar::e2e {

/// Which part of an episode a span belongs to. Per-layer metrics read the
/// timed phase (plus ingest from set-up), the same window `run_s` covers.
enum class Phase : uint8_t { kSetup, kRamp, kRun };

struct Span {
  const char* name = "";  // Static string: the call or phase.
  int32_t parent = -1;    // Index of the enclosing span; -1 at top level.
  int32_t episode = 0;
  Phase phase = Phase::kSetup;
  int64_t round = -1;     // Server round at entry; -1 outside rounds.
  int64_t start_ns = 0;   // Since the tracer was created.
  int64_t end_ns = 0;
  int64_t a = 0;          // Call-specific values; see the README's table.
  int64_t b = 0;

  double duration_us() const {
    return static_cast<double>(end_ns - start_ns) * 1e-3;
  }
};

class Tracer {
 public:
  explicit Tracer(std::string workload);

  void set_episode(int32_t episode) { episode_ = episode; }
  void set_phase(Phase phase) { phase_ = phase; }

  /// Opens a span nested in the innermost open one; returns its index.
  int32_t Begin(const char* name, int64_t round);

  /// Closes the innermost open span (which must be `index`).
  void End(int32_t index);

  /// Stores a closed span's call-specific values (known only after the
  /// call returns, so reading them stays outside the span's interval).
  void Annotate(int32_t index, int64_t a, int64_t b = 0) {
    spans_[static_cast<size_t>(index)].a = a;
    spans_[static_cast<size_t>(index)].b = b;
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// Writes the spans of `episode` as Chrome trace-event JSON; false on an
  /// I/O error.
  bool WriteChromeTrace(const std::string& path, int32_t episode) const;

 private:
  int64_t NowNs() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
  }

  std::string workload_;
  std::chrono::steady_clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<int32_t> open_;
  int32_t episode_ = 0;
  Phase phase_ = Phase::kSetup;
};

}  // namespace scaddar::e2e

#endif  // SCADDAR_E2E_BENCH_TRACE_H_
