#ifndef SCADDAR_BENCH_BENCH_UTIL_H_
#define SCADDAR_BENCH_BENCH_UTIL_H_

// Shared helpers for the experiment harnesses. Each bench binary
// regenerates one table/figure from the paper (see DESIGN.md's
// per-experiment index) as deterministic, seed-fixed console tables, and
// the perf-tracking benches additionally emit a `BENCH_*.json` in one
// standardized schema (`BenchJson`) so the per-PR perf trajectory is
// machine-readable.

#include <sys/utsname.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "random/sequence.h"

namespace scaddar::bench {

inline void PrintHeader(const std::string& experiment_id,
                        const std::string& title) {
  std::printf("==================================================================\n");
  std::printf("%s — %s\n", experiment_id.c_str(), title.c_str());
  std::printf("==================================================================\n");
}

inline void PrintRule() {
  std::printf("------------------------------------------------------------------\n");
}

/// Deterministic per-object X0 streams for the experiments (the paper's
/// Section 5 setting uses 20 objects; callers pick counts and sizes).
inline std::vector<std::vector<uint64_t>> MakeObjects(uint64_t master_seed,
                                                      int64_t num_objects,
                                                      int64_t blocks_each,
                                                      PrngKind kind,
                                                      int bits) {
  std::vector<std::vector<uint64_t>> objects;
  objects.reserve(static_cast<size_t>(num_objects));
  for (int64_t m = 0; m < num_objects; ++m) {
    objects.push_back(
        X0Sequence::Create(kind, master_seed + static_cast<uint64_t>(m) * 7919,
                           bits)
            .value()
            .Materialize(blocks_each));
  }
  return objects;
}

// --- Timing -------------------------------------------------------------

/// Wall-clock seconds of one `work()` call.
template <typename Fn>
double TimeSeconds(Fn&& work) {
  const auto start = std::chrono::steady_clock::now();
  work();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// Per-round wall-time aggregate of one measurement (warmup excluded).
struct RoundTiming {
  int64_t rounds = 0;
  double total_seconds = 0;
  double p50_us = 0;
  double p99_us = 0;
};

/// The timing loop shared by the wall-clock benches: runs `round()`
/// `warmup_rounds` times untimed first — so cold-start effects (e.g. every
/// cursor window filling at once in round 0) don't masquerade as
/// steady-state cost — then `timed_rounds` times with per-round timing.
/// Each timed round's return value is handed to `observe` *outside* the
/// timed window, so accumulation cost never pollutes the measurement.
template <typename RoundFn, typename ObserveFn>
RoundTiming MeasureRounds(int64_t warmup_rounds, int64_t timed_rounds,
                          RoundFn&& round, ObserveFn&& observe) {
  for (int64_t i = 0; i < warmup_rounds; ++i) {
    round();
  }
  RoundTiming timing;
  timing.rounds = timed_rounds;
  std::vector<double> round_us;
  round_us.reserve(static_cast<size_t>(timed_rounds));
  for (int64_t i = 0; i < timed_rounds; ++i) {
    const auto start = std::chrono::steady_clock::now();
    auto result = round();
    const auto stop = std::chrono::steady_clock::now();
    const double us =
        std::chrono::duration<double, std::micro>(stop - start).count();
    round_us.push_back(us);
    timing.total_seconds += us * 1e-6;
    observe(std::move(result));
  }
  std::sort(round_us.begin(), round_us.end());
  const auto percentile = [&](double p) {
    const auto index =
        static_cast<size_t>(p * static_cast<double>(round_us.size() - 1));
    return round_us[index];
  };
  if (!round_us.empty()) {
    timing.p50_us = percentile(0.50);
    timing.p99_us = percentile(0.99);
  }
  return timing;
}

/// Median of `values` (the upper one of the middle two for an even count;
/// 0 when empty).
inline double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  return values[values.size() / 2];
}

/// Two code paths timed side by side (see `TimeAlternating`).
struct AlternatingTiming {
  double first_seconds = 0;   // Median seconds of one `first()` pass.
  double second_seconds = 0;  // Median seconds of one `second()` pass.
  double ratio = 0;  // Median over passes of second / first seconds.
};

/// Times `first()` and `second()` in `passes` alternating pairs of passes
/// (the order flips every pair) after one untimed warm-up pass of each.
/// Both paths then see the same host load; timed seconds apart, a change
/// in the other tenants' load between them would move their ratio.
template <typename FirstFn, typename SecondFn>
AlternatingTiming TimeAlternating(int64_t passes, FirstFn&& first,
                                  SecondFn&& second) {
  first();
  second();
  std::vector<double> first_s;
  std::vector<double> second_s;
  std::vector<double> ratios;
  for (int64_t pass = 0; pass < passes; ++pass) {
    double a = 0;
    double b = 0;
    if (pass % 2 == 0) {
      a = TimeSeconds(first);
      b = TimeSeconds(second);
    } else {
      b = TimeSeconds(second);
      a = TimeSeconds(first);
    }
    first_s.push_back(a);
    second_s.push_back(b);
    ratios.push_back(a > 0 ? b / a : 0);
  }
  return AlternatingTiming{Median(std::move(first_s)),
                           Median(std::move(second_s)),
                           Median(std::move(ratios))};
}

/// Best-of-R: repeats `measure()` and keeps the result with the smallest
/// `seconds(result)`. Rounds are microseconds long, so a single repetition
/// is at the mercy of scheduler jitter; the minimum is the least-disturbed
/// run.
template <typename MeasureFn, typename SecondsFn>
auto BestOf(int64_t repetitions, MeasureFn&& measure, SecondsFn&& seconds) {
  auto best = measure();
  for (int64_t rep = 1; rep < repetitions; ++rep) {
    auto candidate = measure();
    if (seconds(candidate) < seconds(best)) {
      best = std::move(candidate);
    }
  }
  return best;
}

// --- Host metadata ------------------------------------------------------

/// What machine a BENCH_*.json came from. Perf numbers are only comparable
/// within one host (and one governor setting); the regression checker warns
/// when a baseline and a candidate disagree here.
struct HostInfo {
  std::string cpu_model;   // /proc/cpuinfo "model name" (first core).
  int64_t cores = 0;       // Online processors.
  std::string governor;    // cpu0's cpufreq governor ("unknown" without
                           // cpufreq, e.g. in containers).
  std::string kernel;      // uname -r.
};

/// First line of `path` matching `key:`, value part only; "" when absent.
inline std::string ReadTaggedLine(const char* path, std::string_view key) {
  std::FILE* file = std::fopen(path, "r");
  if (file == nullptr) {
    return "";
  }
  char line[512];
  std::string value;
  while (std::fgets(line, sizeof(line), file) != nullptr) {
    std::string_view view(line);
    if (!view.starts_with(key)) {
      continue;
    }
    const size_t colon = view.find(':');
    if (colon == std::string_view::npos) {
      continue;
    }
    view = view.substr(colon + 1);
    while (!view.empty() && (view.front() == ' ' || view.front() == '\t')) {
      view.remove_prefix(1);
    }
    while (!view.empty() && (view.back() == '\n' || view.back() == ' ')) {
      view.remove_suffix(1);
    }
    value = std::string(view);
    break;
  }
  std::fclose(file);
  return value;
}

/// Whole first line of `path`, trimmed; "" when unreadable.
inline std::string ReadFirstLine(const char* path) {
  std::FILE* file = std::fopen(path, "r");
  if (file == nullptr) {
    return "";
  }
  char line[256];
  std::string value;
  if (std::fgets(line, sizeof(line), file) != nullptr) {
    value = line;
    while (!value.empty() &&
           (value.back() == '\n' || value.back() == ' ')) {
      value.pop_back();
    }
  }
  std::fclose(file);
  return value;
}

inline HostInfo QueryHost() {
  HostInfo host;
  host.cpu_model = ReadTaggedLine("/proc/cpuinfo", "model name");
  if (host.cpu_model.empty()) {
    host.cpu_model = "unknown";
  }
  host.cores = static_cast<int64_t>(sysconf(_SC_NPROCESSORS_ONLN));
  host.governor = ReadFirstLine(
      "/sys/devices/system/cpu/cpu0/cpufreq/scaling_governor");
  if (host.governor.empty()) {
    host.governor = "unknown";
  }
  utsname names{};
  host.kernel = uname(&names) == 0 ? names.release : "unknown";
  return host;
}

// --- Standardized BENCH_*.json ------------------------------------------

/// One numeric field of a `BenchJson` tier or path object. `decimals == 0`
/// prints a rounded integer, anything else a fixed-point double.
struct JsonMetric {
  const char* key;
  double value;
  int decimals;
};

/// Builds the standardized bench JSON document shared by `bench_serving`,
/// `bench_remap_throughput` and `bench_lookup`:
///
/// ```json
/// {
///   "experiment": "<name>",
///   "tiers": [
///     {"ops": N, "<tier metric>": ..., "<tier label>": "...",
///      "paths": {
///       "<path>": {"<metric>": ..., ...},
///       ...
///      }},
///     ...
///   ]
/// }
/// ```
///
/// One tier per workload point (op-log depth), one path per implementation
/// being compared (batch/scalar/store, simd/scalar, ...). Call order:
/// `BeginTier`, then tier metrics/labels, then `Path` per path, `EndTier`;
/// finally `Finish`/`WriteFile`.
class BenchJson {
 public:
  explicit BenchJson(const char* experiment) {
    const HostInfo host = QueryHost();
    json_ = "{\n  \"experiment\": \"";
    json_ += experiment;
    json_ += "\",\n  \"host\": {\"cpu\": \"";
    json_ += host.cpu_model;
    json_ += "\", \"cores\": ";
    char buffer[32];
    std::snprintf(buffer, sizeof(buffer), "%lld",
                  static_cast<long long>(host.cores));
    json_ += buffer;
    json_ += ", \"governor\": \"";
    json_ += host.governor;
    json_ += "\", \"kernel\": \"";
    json_ += host.kernel;
    json_ += "\"},\n  \"tiers\": [\n";
  }

  void BeginTier(int64_t ops) {
    if (!first_tier_) {
      json_ += ",\n";
    }
    first_tier_ = false;
    paths_open_ = false;
    char buffer[64];
    std::snprintf(buffer, sizeof(buffer), "    {\"ops\": %lld",
                  static_cast<long long>(ops));
    json_ += buffer;
  }

  void TierMetric(const char* key, double value, int decimals = 2) {
    json_ += ",\n     \"";
    json_ += key;
    json_ += "\": ";
    AppendNumber(value, decimals);
  }

  void TierLabel(const char* key, std::string_view value) {
    json_ += ",\n     \"";
    json_ += key;
    json_ += "\": \"";
    json_.append(value);
    json_ += "\"";
  }

  void Path(const char* name, std::initializer_list<JsonMetric> metrics) {
    json_ += paths_open_ ? ",\n" : ",\n     \"paths\": {\n";
    paths_open_ = true;
    json_ += "      \"";
    json_ += name;
    json_ += "\": {";
    bool first = true;
    for (const JsonMetric& metric : metrics) {
      if (!first) {
        json_ += ", ";
      }
      first = false;
      json_ += "\"";
      json_ += metric.key;
      json_ += "\": ";
      AppendNumber(metric.value, metric.decimals);
    }
    json_ += "}";
  }

  void EndTier() {
    if (paths_open_) {
      json_ += "\n     }";
    }
    json_ += "}";
  }

  std::string Finish() const { return json_ + "\n  ]\n}\n"; }

  /// Writes the completed document; returns false on I/O failure.
  bool WriteFile(const char* path) const {
    std::FILE* out = std::fopen(path, "w");
    if (out == nullptr) {
      return false;
    }
    const std::string document = Finish();
    const bool ok =
        std::fwrite(document.data(), 1, document.size(), out) ==
        document.size();
    return std::fclose(out) == 0 && ok;
  }

 private:
  void AppendNumber(double value, int decimals) {
    char buffer[48];
    if (decimals == 0) {
      std::snprintf(buffer, sizeof(buffer), "%lld",
                    static_cast<long long>(value < 0 ? value - 0.5
                                                     : value + 0.5));
    } else {
      std::snprintf(buffer, sizeof(buffer), "%.*f", decimals, value);
    }
    json_ += buffer;
  }

  std::string json_;
  bool first_tier_ = true;
  bool paths_open_ = false;
};

}  // namespace scaddar::bench

#endif  // SCADDAR_BENCH_BENCH_UTIL_H_
