// EXP-F — RF() throughput: how fast a whole redistribution plan can be
// computed. Planning is pure computation (the actual I/O is the
// migration's job), so this measures blocks/second of REMAP-chain
// evaluation plus the raw single-step REMAP primitives.
//
// Two tiers are measured (docs/batch_engine.md explains how to read
// them):
//  - *Mapper variants: the scalar reference — one Mapper replay per block
//    per epoch (the pre-batch-engine planner, tests/plan_oracle.h);
//  - default variants: the step-major CompiledLog batch kernels on one
//    thread.
//
// Usage: bench_remap_throughput [--json-only] [google-benchmark flags]
// After the google-benchmark suite, the binary measures the batch kernel
// with the SIMD backend pinned on vs. off, in alternating passes, and
// writes BENCH_remap.json (schema shared with BENCH_serving.json; see
// bench_util.h): each path's median pass and the median of the per-pass
// speedups. --json-only skips the google-benchmark suite.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstring>
#include <span>
#include <string>

#include "bench/bench_util.h"
#include "core/compiled_log.h"
#include "core/redistribution.h"
#include "random/sequence.h"
#include "tests/plan_oracle.h"
#include "util/simd.h"

namespace scaddar {
namespace {

void BM_RemapAddStep(benchmark::State& state) {
  auto seq = X0Sequence::Create(PrngKind::kSplitMix64, 1, 64).value();
  const std::vector<uint64_t> x = seq.Materialize(4096);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(RemapAdd(x[i++ & 4095], 8, 9));
  }
}
BENCHMARK(BM_RemapAddStep);

void BM_RemapRemoveStep(benchmark::State& state) {
  const ScalingOp op = ScalingOp::Remove({3}).value();
  auto seq = X0Sequence::Create(PrngKind::kSplitMix64, 2, 64).value();
  const std::vector<uint64_t> x = seq.Materialize(4096);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(RemapRemove(x[i++ & 4095], 8, 7, op));
  }
}
BENCHMARK(BM_RemapRemoveStep);

// Batch-kernel planner (the default PlanOperation path), single thread.
void BM_PlanOperation(benchmark::State& state) {
  const int64_t blocks = state.range(0);
  OpLog log = OpLog::Create(8).value();
  SCADDAR_CHECK(log.Append(ScalingOp::Add(2).value()).ok());
  auto seq = X0Sequence::Create(PrngKind::kSplitMix64, 3, 64).value();
  const std::vector<uint64_t> x0 = seq.Materialize(blocks);
  for (auto _ : state) {
    const MovePlan plan = PlanOperation(log, 1, {{1, &x0}});
    benchmark::DoNotOptimize(plan.num_moves());
  }
  state.SetItemsProcessed(state.iterations() * blocks);
}
BENCHMARK(BM_PlanOperation)->Arg(10000)->Arg(100000)->Arg(1000000);

// Scalar reference: one Mapper replay per block per epoch.
void BM_PlanOperationMapper(benchmark::State& state) {
  const int64_t blocks = state.range(0);
  OpLog log = OpLog::Create(8).value();
  SCADDAR_CHECK(log.Append(ScalingOp::Add(2).value()).ok());
  auto seq = X0Sequence::Create(PrngKind::kSplitMix64, 3, 64).value();
  const std::vector<uint64_t> x0 = seq.Materialize(blocks);
  for (auto _ : state) {
    const MovePlan plan = PlanOperationScalar(log, 1, {{1, &x0}});
    benchmark::DoNotOptimize(plan.num_moves());
  }
  state.SetItemsProcessed(state.iterations() * blocks);
}
BENCHMARK(BM_PlanOperationMapper)->Arg(10000)->Arg(100000)->Arg(1000000);

OpLog LongAddHistory(int64_t ops) {
  OpLog log = OpLog::Create(8).value();
  for (int64_t j = 0; j < ops; ++j) {
    SCADDAR_CHECK(log.Append(ScalingOp::Add(1).value()).ok());
  }
  return log;
}

void BM_PlanAfterLongHistory(benchmark::State& state) {
  const int64_t ops = state.range(0);
  const OpLog log = LongAddHistory(ops);
  auto seq = X0Sequence::Create(PrngKind::kSplitMix64, 4, 64).value();
  const std::vector<uint64_t> x0 = seq.Materialize(100000);
  for (auto _ : state) {
    const MovePlan plan = PlanOperation(log, ops, {{1, &x0}});
    benchmark::DoNotOptimize(plan.num_moves());
  }
  state.SetItemsProcessed(state.iterations() * 100000);
  state.SetLabel("ops=" + std::to_string(ops));
}
BENCHMARK(BM_PlanAfterLongHistory)->Arg(1)->Arg(8)->Arg(32);

void BM_PlanAfterLongHistoryMapper(benchmark::State& state) {
  const int64_t ops = state.range(0);
  const OpLog log = LongAddHistory(ops);
  auto seq = X0Sequence::Create(PrngKind::kSplitMix64, 4, 64).value();
  const std::vector<uint64_t> x0 = seq.Materialize(100000);
  for (auto _ : state) {
    const MovePlan plan = PlanOperationScalar(log, ops, {{1, &x0}});
    benchmark::DoNotOptimize(plan.num_moves());
  }
  state.SetItemsProcessed(state.iterations() * 100000);
  state.SetLabel("ops=" + std::to_string(ops));
}
BENCHMARK(BM_PlanAfterLongHistoryMapper)->Arg(1)->Arg(8)->Arg(32);

// --- BENCH_remap.json: SIMD vs. scalar batch-kernel throughput. ---

/// Mixed-churn log matching bench_lookup's shape: two adds, then a removal.
OpLog MixedHistory(int64_t ops) {
  OpLog log = OpLog::Create(8).value();
  for (int64_t j = 0; j < ops; ++j) {
    const ScalingOp op = (j % 3 == 2)
                             ? ScalingOp::Remove({j % log.current_disks()})
                                   .value()
                             : ScalingOp::Add(1).value();
    SCADDAR_CHECK(log.Append(op).ok());
  }
  return log;
}

struct KernelResult {
  int64_t blocks = 0;
  double seconds = 0;

  double BlocksPerSecond() const {
    return seconds > 0 ? static_cast<double>(blocks) / seconds : 0;
  }
};

/// Alternating passes per path of one `MeasureKernel`.
constexpr int64_t kKernelPasses = 11;

/// One pass of LocatePhysicalBatch over `x0` with the dispatched backend
/// pinned to `simd_level` against one pinned to scalar, in alternating
/// passes (one warm-up pass of each first).
bench::AlternatingTiming MeasureKernel(const CompiledLog& compiled,
                                       const std::vector<uint64_t>& x0,
                                       SimdLevel simd_level) {
  std::vector<PhysicalDiskId> out(x0.size());
  const auto pass_at = [&](SimdLevel level) {
    return [&, level] {
      SetActiveSimdLevel(level);
      compiled.LocatePhysicalBatch(std::span<const uint64_t>(x0),
                                   std::span<PhysicalDiskId>(out));
      benchmark::DoNotOptimize(out.data());
    };
  };
  const bench::AlternatingTiming timing = bench::TimeAlternating(
      kKernelPasses, pass_at(simd_level), pass_at(SimdLevel::kScalar));
  ResetActiveSimdLevel();
  return timing;
}

void WriteRemapJson() {
  // The "simd" path pins the detected level. On non-AVX2 hosts, or in a
  // binary built without the AVX2 backend, that pin dispatches to the
  // scalar backend (speedup ~1.0); the tier records the backend that ran.
  const SimdLevel simd_level = DetectedSimdLevel();
  SetActiveSimdLevel(simd_level);
  const std::string level_name = internal::ActiveBackend().name;
  ResetActiveSimdLevel();
  constexpr int64_t kBlocks = 1'000'000;
  auto seq = X0Sequence::Create(PrngKind::kSplitMix64, 4, 64).value();
  const std::vector<uint64_t> x0 = seq.Materialize(kBlocks);
  bench::PrintRule();
  std::printf("batch kernel, %lld blocks: %s vs. scalar\n",
              static_cast<long long>(kBlocks), level_name.c_str());
  std::printf("%-6s %-8s %-10s %-16s %-16s %-10s\n", "ops", "history",
              "backend", "blocks/s", "seconds", "speedup");
  bench::BenchJson json("bench_remap_throughput");
  struct Tier {
    int64_t ops;
    const char* history;
  };
  for (const Tier tier : {Tier{1, "adds"}, Tier{8, "adds"}, Tier{32, "adds"},
                          Tier{32, "mixed"}}) {
    const OpLog log = std::strcmp(tier.history, "adds") == 0
                          ? LongAddHistory(tier.ops)
                          : MixedHistory(tier.ops);
    const CompiledLog compiled(log);
    const bench::AlternatingTiming timing =
        MeasureKernel(compiled, x0, simd_level);
    const KernelResult simd{kBlocks, timing.first_seconds};
    const KernelResult scalar{kBlocks, timing.second_seconds};
    const double speedup = timing.ratio;
    std::printf("%-6lld %-8s %-10s %-16.0f %-16.6f %-10s\n",
                static_cast<long long>(tier.ops), tier.history,
                level_name.c_str(), simd.BlocksPerSecond(), simd.seconds,
                "");
    std::printf("%-6lld %-8s %-10s %-16.0f %-16.6f %-10.2f\n",
                static_cast<long long>(tier.ops), tier.history, "scalar",
                scalar.BlocksPerSecond(), scalar.seconds, speedup);
    json.BeginTier(tier.ops);
    json.TierLabel("history", tier.history);
    json.TierLabel("simd_level", level_name);
    json.TierMetric("speedup_simd_vs_scalar", speedup);
    json.TierMetric("passes", static_cast<double>(kKernelPasses), 0);
    json.Path("simd", {{"blocks", static_cast<double>(simd.blocks), 0},
                       {"seconds", simd.seconds, 6},
                       {"blocks_per_second", simd.BlocksPerSecond(), 0}});
    json.Path("scalar",
              {{"blocks", static_cast<double>(scalar.blocks), 0},
               {"seconds", scalar.seconds, 6},
               {"blocks_per_second", scalar.BlocksPerSecond(), 0}});
    json.EndTier();
  }
  SCADDAR_CHECK(json.WriteFile("BENCH_remap.json"));
  std::printf("wrote BENCH_remap.json\n");
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
  scaddar::WriteRemapJson();
  return 0;
}
