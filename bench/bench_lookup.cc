// EXP-E — AO1: the cost of the access function AF(). Google-benchmark
// timings of a single block lookup as the op log grows, against the
// directory baseline's O(1) hash lookup and the comparators. The paper's
// claim: AF() is "a series of inexpensive mod and div functions" — tens of
// nanoseconds even after many operations, no directory required.
//
// Also two ablations:
//  - CompiledLog vs. Mapper: the precompiled renumbering tables vs. the
//    binary-search replay;
//  - concurrency (Appendix A's argument): SCADDAR's AF() is stateless and
//    scales linearly with reader threads, while a centralized directory
//    serializes behind a mutex.

// Usage: bench_lookup [--json-only] [google-benchmark flags]
// After the google-benchmark suite, the binary measures the 4096-block
// batch lookup with the SIMD backend pinned on vs. off, in alternating
// passes, and the per-call loop, and writes BENCH_lookup.json (schema
// shared with BENCH_serving.json; see bench_util.h): each path's median
// pass and the median of the per-pass speedups. --json-only skips the
// suite.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstring>
#include <mutex>
#include <span>

#include "bench/bench_util.h"
#include "core/compiled_log.h"
#include "core/mapper.h"
#include "placement/registry.h"
#include "random/sequence.h"
#include "util/simd.h"

namespace scaddar {
namespace {

OpLog LogWithOps(int64_t n0, int64_t ops) {
  OpLog log = OpLog::Create(n0).value();
  for (int64_t j = 0; j < ops; ++j) {
    // Mixed churn: two adds, then a removal.
    const ScalingOp op = (j % 3 == 2)
                             ? ScalingOp::Remove({j % log.current_disks()})
                                   .value()
                             : ScalingOp::Add(1).value();
    SCADDAR_CHECK(log.Append(op).ok());
  }
  return log;
}

void BM_ScaddarAF(benchmark::State& state) {
  const OpLog log = LogWithOps(8, state.range(0));
  const Mapper mapper(&log);
  auto seq = X0Sequence::Create(PrngKind::kSplitMix64, 1, 64).value();
  const std::vector<uint64_t> x0 = seq.Materialize(4096);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(mapper.LocatePhysical(x0[i++ & 4095]));
  }
  state.SetLabel("ops=" + std::to_string(state.range(0)));
}
BENCHMARK(BM_ScaddarAF)->Arg(0)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->Arg(16)
    ->Arg(32)->Arg(64);

void BM_PolicyLocate(benchmark::State& state, const char* name) {
  auto policy = MakePolicy(name, 8).value();
  auto seq = X0Sequence::Create(PrngKind::kSplitMix64, 2, 64).value();
  SCADDAR_CHECK(policy->AddObject(1, seq.Materialize(4096)).ok());
  for (int64_t j = 0; j < 8; ++j) {
    SCADDAR_CHECK(policy->ApplyOp(ScalingOp::Add(1).value()).ok());
  }
  BlockIndex i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(policy->Locate(1, i++ & 4095));
  }
}
BENCHMARK_CAPTURE(BM_PolicyLocate, scaddar, "scaddar");
BENCHMARK_CAPTURE(BM_PolicyLocate, naive, "naive");
BENCHMARK_CAPTURE(BM_PolicyLocate, mod, "mod");
BENCHMARK_CAPTURE(BM_PolicyLocate, directory, "directory");
BENCHMARK_CAPTURE(BM_PolicyLocate, roundrobin, "roundrobin");
BENCHMARK_CAPTURE(BM_PolicyLocate, jump, "jump");
BENCHMARK_CAPTURE(BM_PolicyLocate, chash, "chash");

void BM_CompiledAF(benchmark::State& state) {
  OpLog log = OpLog::Create(8).value();
  for (int64_t j = 0; j < state.range(0); ++j) {
    const ScalingOp op = (j % 3 == 2)
                             ? ScalingOp::Remove({j % log.current_disks()})
                                   .value()
                             : ScalingOp::Add(1).value();
    SCADDAR_CHECK(log.Append(op).ok());
  }
  const CompiledLog compiled(log);
  auto seq = X0Sequence::Create(PrngKind::kSplitMix64, 5, 64).value();
  const std::vector<uint64_t> x0 = seq.Materialize(4096);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(compiled.LocatePhysical(x0[i++ & 4095]));
  }
  state.SetLabel("ops=" + std::to_string(state.range(0)));
}
BENCHMARK(BM_CompiledAF)->Arg(0)->Arg(8)->Arg(32)->Arg(64);

// Step-major batch lookup over a 4096-block span: same answers as
// BM_CompiledAF but the outer loop walks compiled steps, so per-step
// parameters stay in registers across the span. Throughput is reported in
// blocks/sec (items_per_second); compare against BM_ScaddarAF /
// BM_CompiledAF at the same ops count for the batch speedup.
void BM_CompiledAFBatch(benchmark::State& state) {
  OpLog log = OpLog::Create(8).value();
  for (int64_t j = 0; j < state.range(0); ++j) {
    const ScalingOp op = (j % 3 == 2)
                             ? ScalingOp::Remove({j % log.current_disks()})
                                   .value()
                             : ScalingOp::Add(1).value();
    SCADDAR_CHECK(log.Append(op).ok());
  }
  const CompiledLog compiled(log);
  auto seq = X0Sequence::Create(PrngKind::kSplitMix64, 5, 64).value();
  const std::vector<uint64_t> x0 = seq.Materialize(4096);
  std::vector<PhysicalDiskId> out(x0.size());
  for (auto _ : state) {
    compiled.LocatePhysicalBatch(std::span<const uint64_t>(x0),
                                 std::span<PhysicalDiskId>(out));
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(x0.size()));
  state.SetLabel("ops=" + std::to_string(state.range(0)));
}
BENCHMARK(BM_CompiledAFBatch)->Arg(0)->Arg(8)->Arg(32)->Arg(64);

// --- Concurrency ablation (Appendix A's directory-bottleneck claim). ---

// A centralized directory as a real server would run it: every lookup
// takes the directory lock, because concurrent scaling operations mutate
// the same table.
class LockedDirectory {
 public:
  explicit LockedDirectory(std::vector<PhysicalDiskId> entries)
      : entries_(std::move(entries)) {}

  PhysicalDiskId Locate(size_t block) const {
    std::lock_guard<std::mutex> lock(mu_);
    return entries_[block];
  }

 private:
  mutable std::mutex mu_;
  std::vector<PhysicalDiskId> entries_;
};

void BM_ConcurrentScaddarAF(benchmark::State& state) {
  static const OpLog* log = [] {
    auto* created = new OpLog(OpLog::Create(8).value());
    for (int j = 0; j < 8; ++j) {
      SCADDAR_CHECK(created->Append(ScalingOp::Add(1).value()).ok());
    }
    return created;
  }();
  static const CompiledLog* compiled = new CompiledLog(*log);
  auto seq = X0Sequence::Create(
                 PrngKind::kSplitMix64,
                 static_cast<uint64_t>(state.thread_index()) + 1, 64)
                 .value();
  const std::vector<uint64_t> x0 = seq.Materialize(4096);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(compiled->LocatePhysical(x0[i++ & 4095]));
  }
}
BENCHMARK(BM_ConcurrentScaddarAF)->Threads(1)->Threads(4)->Threads(8);

void BM_ConcurrentLockedDirectory(benchmark::State& state) {
  static const LockedDirectory* directory = [] {
    auto seq = X0Sequence::Create(PrngKind::kSplitMix64, 9, 64).value();
    std::vector<PhysicalDiskId> entries;
    for (const uint64_t x : seq.Materialize(4096)) {
      entries.push_back(static_cast<PhysicalDiskId>(x % 16));
    }
    return new LockedDirectory(std::move(entries));
  }();
  size_t i = static_cast<size_t>(state.thread_index()) * 17;
  for (auto _ : state) {
    benchmark::DoNotOptimize(directory->Locate(i++ & 4095));
  }
}
BENCHMARK(BM_ConcurrentLockedDirectory)->Threads(1)->Threads(4)->Threads(8);

// --- BENCH_lookup.json: SIMD vs. scalar vs. per-call AF() lookups. ---

struct LookupResult {
  int64_t blocks = 0;
  double seconds = 0;

  double BlocksPerSecond() const {
    return seconds > 0 ? static_cast<double>(blocks) / seconds : 0;
  }
};

/// Timed passes per path of one `MeasureLookup`.
constexpr int64_t kLookupPasses = 11;

/// `first()` against `second()`, each pass `spans` runs of the path, in
/// alternating passes (one warm-up pass of each first).
template <typename FirstFn, typename SecondFn>
bench::AlternatingTiming MeasureLookup(int64_t spans, FirstFn&& first,
                                       SecondFn&& second) {
  const auto repeat = [spans](auto& work) {
    return [&work, spans] {
      for (int64_t p = 0; p < spans; ++p) {
        work();
      }
    };
  };
  return bench::TimeAlternating(kLookupPasses, repeat(first), repeat(second));
}

void WriteLookupJson() {
  // The "simd" path pins the detected level; the label names the backend
  // that runs under that pin (scalar where this binary lacks AVX2's).
  const SimdLevel simd_level = DetectedSimdLevel();
  SetActiveSimdLevel(simd_level);
  const std::string level_name = internal::ActiveBackend().name;
  ResetActiveSimdLevel();
  constexpr int64_t kSpan = 4096;
  constexpr int64_t kSpansPerPass = 256;
  auto seq = X0Sequence::Create(PrngKind::kSplitMix64, 5, 64).value();
  const std::vector<uint64_t> x0 = seq.Materialize(kSpan);
  std::vector<PhysicalDiskId> out(x0.size());
  bench::PrintRule();
  std::printf("%lld-block span lookups: batch (%s/scalar) vs. per-call\n",
              static_cast<long long>(kSpan), level_name.c_str());
  std::printf("%-6s %-10s %-16s %-10s\n", "ops", "path", "blocks/s",
              "speedup");
  bench::BenchJson json("bench_lookup");
  for (const int64_t ops : {0, 8, 32, 64}) {
    const OpLog log = LogWithOps(8, ops);
    const CompiledLog compiled(log);
    const auto batch_pass = [&] {
      compiled.LocatePhysicalBatch(std::span<const uint64_t>(x0),
                                   std::span<PhysicalDiskId>(out));
      benchmark::DoNotOptimize(out.data());
    };
    const auto batch_at = [&](SimdLevel level) {
      return [&, level] {
        SetActiveSimdLevel(level);
        batch_pass();
      };
    };
    const auto per_call_pass = [&] {
      for (size_t i = 0; i < x0.size(); ++i) {
        out[i] = compiled.LocatePhysical(x0[i]);
      }
      benchmark::DoNotOptimize(out.data());
    };
    const bench::AlternatingTiming batch = MeasureLookup(
        kSpansPerPass, batch_at(simd_level), batch_at(SimdLevel::kScalar));
    ResetActiveSimdLevel();
    // The per-call loop runs against the simd batch, so its median comes
    // from passes under the same load too.
    const bench::AlternatingTiming per_call_timing =
        MeasureLookup(kSpansPerPass, batch_at(simd_level), per_call_pass);
    ResetActiveSimdLevel();
    const int64_t blocks = kSpan * kSpansPerPass;
    const LookupResult simd{blocks, batch.first_seconds};
    const LookupResult scalar{blocks, batch.second_seconds};
    const LookupResult per_call{blocks, per_call_timing.second_seconds};
    const double speedup = batch.ratio;
    std::printf("%-6lld %-10s %-16.0f %-10s\n",
                static_cast<long long>(ops), level_name.c_str(),
                simd.BlocksPerSecond(), "");
    std::printf("%-6lld %-10s %-16.0f %-10.2f\n",
                static_cast<long long>(ops), "scalar",
                scalar.BlocksPerSecond(), speedup);
    std::printf("%-6lld %-10s %-16.0f %-10s\n",
                static_cast<long long>(ops), "per-call",
                per_call.BlocksPerSecond(), "");
    json.BeginTier(ops);
    json.TierLabel("simd_level", level_name);
    json.TierMetric("speedup_simd_vs_scalar", speedup);
    json.TierMetric("passes", static_cast<double>(kLookupPasses), 0);
    const auto path = [&](const char* name, const LookupResult& result) {
      json.Path(name,
                {{"blocks", static_cast<double>(result.blocks), 0},
                 {"seconds", result.seconds, 6},
                 {"blocks_per_second", result.BlocksPerSecond(), 0}});
    };
    path("simd", simd);
    path("scalar", scalar);
    path("per_call", per_call);
    json.EndTier();
  }
  SCADDAR_CHECK(json.WriteFile("BENCH_lookup.json"));
  std::printf("wrote BENCH_lookup.json\n");
}

}  // namespace
}  // namespace scaddar

int main(int argc, char** argv) {
  bool json_only = false;
  int kept = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json-only") == 0) {
      json_only = true;
    } else {
      argv[kept++] = argv[i];
    }
  }
  argc = kept;
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
    return 1;
  }
  if (!json_only) {
    benchmark::RunSpecifiedBenchmarks();
  }
  benchmark::Shutdown();
  scaddar::WriteLookupJson();
  return 0;
}
