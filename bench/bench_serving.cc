// EXP-S (extension) — the serving path under REMAP chain depth: scheduler
// round throughput (requests/s) and p50/p99 round latency for the
// production row read (`batch`: `RoundScheduler::RunBatched`, one load from
// the stream's store row per request) vs. the scalar per-block Locate path,
// at op-log depths 0 / 8 / 32. The scalar and store rows run the per-block
// rounds of tests/serving_oracle.h.
//
// Usage: bench_serving [--smoke]
//   --smoke   tiny sizes, no BENCH_serving.json (CI wiring check only).
// The full run writes BENCH_serving.json to the working directory.

#include <cstdio>
#include <cstring>
#include <vector>

#include "bench/bench_util.h"
#include "placement/scaddar_policy.h"
#include "server/scheduler.h"
#include "storage/block_store.h"
#include "tests/serving_oracle.h"

namespace scaddar {
namespace {

struct Sizes {
  int64_t objects = 24;
  int64_t blocks_each = 20'000;
  int64_t streams = 128;
  int64_t rounds = 400;
  // Untimed rounds first, so the cold start (every stream fetching its
  // row and every cache line cold in round 0) doesn't masquerade as
  // steady-state cost.
  int64_t warmup_rounds = 64;
  // Each path is measured this many times on a fresh fixture and the
  // fastest repetition wins — rounds are microseconds long, so a single
  // pass is at the mercy of scheduler jitter.
  int64_t repetitions = 3;
};

struct PathResult {
  int64_t requests = 0;
  int64_t served = 0;
  bench::RoundTiming timing;

  double RequestsPerSecond() const {
    return timing.total_seconds > 0
               ? static_cast<double>(requests) / timing.total_seconds
               : 0;
  }
};

/// Policy with `ops` single-disk additions applied, store materialized to
/// AF() (idle migration: all serving paths route identically), and a fixed
/// stream population that never finishes inside the horizon.
struct Fixture {
  Fixture(int64_t ops, const Sizes& sizes)
      : policy(8),
        disks(DiskSpec{.capacity_blocks = 10'000'000,
                       .bandwidth_blocks_per_round = 64}),
        store(&disks) {
    const auto x0s = bench::MakeObjects(0x5e71ull, sizes.objects,
                                        sizes.blocks_each,
                                        PrngKind::kSplitMix64, 64);
    for (ObjectId id = 1; id <= sizes.objects; ++id) {
      SCADDAR_CHECK(
          policy.AddObject(id, x0s[static_cast<size_t>(id - 1)]).ok());
    }
    for (int64_t j = 0; j < ops; ++j) {
      SCADDAR_CHECK(policy.ApplyOp(ScalingOp::Add(1).value()).ok());
    }
    SCADDAR_CHECK(disks.SyncLiveSet(policy.log().physical_disks()).ok());
    std::vector<PhysicalDiskId> locations;
    for (ObjectId id = 1; id <= sizes.objects; ++id) {
      policy.LocateAllBlocks(id, locations);
      SCADDAR_CHECK(store.PlaceObject(id, locations).ok());
    }
    for (int64_t s = 0; s < sizes.streams; ++s) {
      const ObjectId object = 1 + s % sizes.objects;
      streams.emplace_back(s, object, sizes.blocks_each, 0);
      // Stagger starting offsets so requests spread over the objects.
      streams.back().SeekTo((s * 977) % (sizes.blocks_each / 2));
    }
  }

  ScaddarPolicy policy;
  DiskArray disks;
  BlockStore store;
  RoundScheduler scheduler;
  std::vector<Stream> streams;
};

template <typename RoundFn>
PathResult Measure(Fixture& fx, const Sizes& sizes, RoundFn&& run_round) {
  PathResult result;
  result.timing = bench::MeasureRounds(
      sizes.warmup_rounds, sizes.rounds, [&] { return run_round(fx); },
      [&](const RoundServiceResult& service) {
        result.requests += service.requests;
        result.served += service.served;
      });
  return result;
}

template <typename RoundFn>
PathResult MeasureBest(int64_t ops, const Sizes& sizes, RoundFn&& run_round) {
  return bench::BestOf(
      sizes.repetitions,
      [&] {
        Fixture fx(ops, sizes);
        return Measure(fx, sizes, run_round);
      },
      [](const PathResult& result) { return result.timing.total_seconds; });
}

PathResult MeasureBatched(int64_t ops, const Sizes& sizes) {
  return MeasureBest(ops, sizes, [](Fixture& f) {
    return f.scheduler.RunBatched(f.streams, f.store, f.disks, nullptr);
  });
}

PathResult MeasureScalar(int64_t ops, const Sizes& sizes) {
  return MeasureBest(ops, sizes, [](Fixture& f) {
    return ServeByScalarLocate(f.streams, f.policy, f.disks.BandwidthBudgets())
        .service;
  });
}

PathResult MeasureStore(int64_t ops, const Sizes& sizes) {
  return MeasureBest(ops, sizes, [](Fixture& f) {
    return ServeFromStore(f.streams, f.store, f.disks.BandwidthBudgets())
        .service;
  });
}

void AppendPathJson(bench::BenchJson& json, const char* name,
                    const PathResult& result) {
  json.Path(name,
            {{"requests", static_cast<double>(result.requests), 0},
             {"seconds", result.timing.total_seconds, 6},
             {"requests_per_second", result.RequestsPerSecond(), 0},
             {"p50_us", result.timing.p50_us, 2},
             {"p99_us", result.timing.p99_us, 2}});
}

}  // namespace
}  // namespace scaddar

int main(int argc, char** argv) {
  using namespace scaddar;
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    }
  }
  bench::PrintHeader("EXP-S",
                     "serving path: store-row reads vs. scalar Locate");
  Sizes sizes;
  if (smoke) {
    sizes = Sizes{.objects = 4, .blocks_each = 600, .streams = 8,
                  .rounds = 20};
  }
  std::printf("%-6s %-12s %-14s %-12s %-12s %-10s\n", "ops", "path",
              "requests/s", "p50-us", "p99-us", "speedup");
  bench::BenchJson json("bench_serving");
  for (const int64_t ops : {0, 8, 32}) {
    const PathResult batched = MeasureBatched(ops, sizes);
    const PathResult scalar = MeasureScalar(ops, sizes);
    const PathResult store = MeasureStore(ops, sizes);
    const double speedup =
        scalar.timing.total_seconds > 0 && batched.timing.total_seconds > 0
            ? scalar.timing.total_seconds / batched.timing.total_seconds
            : 0;
    std::printf("%-6lld %-12s %-14.0f %-12.2f %-12.2f %-10s\n",
                static_cast<long long>(ops), "batch",
                batched.RequestsPerSecond(), batched.timing.p50_us,
                batched.timing.p99_us, "");
    std::printf("%-6lld %-12s %-14.0f %-12.2f %-12.2f %-10.2f\n",
                static_cast<long long>(ops), "scalar",
                scalar.RequestsPerSecond(), scalar.timing.p50_us,
                scalar.timing.p99_us, speedup);
    std::printf("%-6lld %-12s %-14.0f %-12.2f %-12.2f %-10s\n",
                static_cast<long long>(ops), "store",
                store.RequestsPerSecond(), store.timing.p50_us,
                store.timing.p99_us, "");
    json.BeginTier(ops);
    json.TierMetric("speedup_batch_vs_scalar", speedup);
    AppendPathJson(json, "batch", batched);
    AppendPathJson(json, "scalar", scalar);
    AppendPathJson(json, "store", store);
    json.EndTier();
  }
  bench::PrintRule();
  std::printf(
      "Expected shape: the scalar path replays the object's REMAP chain per\n"
      "request, so its cost grows with op-log depth. The batch path reads\n"
      "the stream's store row, one load per request, and the store path one\n"
      "hash lookup per request; neither depends on op-log depth, and the\n"
      "batch path is the faster of the two.\n");
  if (!smoke) {
    SCADDAR_CHECK(json.WriteFile("BENCH_serving.json"));
    std::printf("wrote BENCH_serving.json\n");
  }
  return 0;
}
