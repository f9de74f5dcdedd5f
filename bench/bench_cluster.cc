// EXP-CL (extension) — scale-out cluster serving: jump-hash routed server
// shards with coordinated scaling and cross-shard migration.
//
// Three questions, one per tier block:
//  1. Throughput scaling — wall-clock request throughput, median round
//     time and process CPU per round at 1/2/3 server shards, offered load
//     scaled with the shard count, for three paths: `auto` (`Tick`, which
//     forks a shard onto the pool only when its measured work pays for the
//     fork/join), `pooled` (`TickPooled`: shards always tick on the thread
//     pool) and `serial` (`TickSerialized`: shards tick one by one on the
//     calling thread), plus the share of `auto` rounds that forked. Three
//     loads per shard: 1x (8 disks, 96 streams), 4x (32 disks, 384 streams)
//     and 48x (384 disks, 4,608 streams), whose ~100 µs shard ticks
//     outweigh the fork/join. Objects land on shards by the jump hash, so
//     shards of one cluster carry uneven loads. A last 48x row adds a
//     fourth shard at the first timed round: its timed rounds cover the new
//     shard's fill from empty. Each number is the median of interleaved
//     repetitions.
//  2. Migration cost — blocks copied between shards after `AddServerShard`
//     (jump-hash delta, expected ~1/(N+1) of the catalog) vs. the naive
//     rehash-everything baseline (`id mod N` routing, which strands
//     ~N/(N+1) of all objects on the wrong shard after a grow).
//  3. Scale-out under fire — a Zipf flash crowd slams the cluster exactly
//     when a shard is added: hiccup rate, startup-latency p50/p99/p999 and
//     handed-off-session rejects while the evacuation runs under the
//     interconnect budget.
//
// Usage: bench_cluster [--smoke] [--json-only]
//   --smoke      tiny sizes, no BENCH_cluster.json (CI wiring check).
//   --json-only  suppress the console tables, still write the JSON.
// The full run writes BENCH_cluster.json to the working directory.

#include <time.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "cluster/cluster_server.h"
#include "server/workload/traffic_engine.h"
#include "stats/percentile.h"

namespace scaddar {
namespace {

struct Sizes {
  // Tier 1: throughput scaling.
  int64_t objects_per_shard = 8;
  int64_t blocks_each = 20'000;
  int64_t streams_per_shard = 96;
  int64_t rounds = 1'000;
  int64_t warmup_rounds = 32;
  int64_t repetitions = 5;
  // Tier 2: migration cost.
  int64_t catalog_objects = 128;
  int64_t catalog_blocks = 2'000;
  // Tier 3: scale-out under fire.
  int64_t fire_rounds = 400;
  int64_t fire_objects = 24;
  int64_t fire_blocks = 4'000;
};

ClusterConfig BaseConfig() {
  ClusterConfig config;
  config.shard.initial_disks = 8;
  config.shard.disk_spec = {.capacity_blocks = 10'000'000,
                            .bandwidth_blocks_per_round = 16};
  config.cross_shard_budget = 256;
  return config;
}

// --- Tier 1: throughput scaling -----------------------------------------

/// One throughput row: `shards` shards, each offered `scale` times tier
/// 1's disks and streams; with `add_shard`, one more shard joins at the
/// first timed round.
struct Row {
  const char* size;
  int64_t scale;
  int shards;
  bool add_shard = false;
};

/// How a pass ticks the cluster; indexes `kPathNames` and
/// `ScalingResult::paths`.
enum Path { kAuto, kPooled, kSerial, kNumPaths };
constexpr const char* kPathNames[kNumPaths] = {"auto", "pooled", "serial"};

struct PathResult {
  double requests_per_second = 0;  // Wall clock.
  double round_p50_us = 0;         // Median round, wall clock.
  double cpu_us_per_round = 0;     // Process CPU, every thread.
  double pooled_share = 0;         // Share of timed rounds that forked.
};

struct ScalingResult {
  Row row;
  int64_t streams = 0;
  std::array<PathResult, kNumPaths> paths;  // Medians over repetitions.
};

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// One timed pass: a cluster of `row.shards` serving a steady population
/// sized to its capacity, every round on the wall clock.
PathResult MeasureOnce(const Row& row, Path path, const Sizes& sizes) {
  ClusterConfig config = BaseConfig();
  config.initial_shards = row.shards;
  config.shard.initial_disks *= row.scale;
  // Streams must admit on their object's shard, and the jump hash spreads
  // objects binomially, not exactly evenly: leave the admission cap
  // headroom above the worst per-shard imbalance at these catalog sizes.
  config.shard.disk_spec.bandwidth_blocks_per_round = 32;
  auto cluster = ClusterServer::Create(config).value();
  const int64_t objects = sizes.objects_per_shard * row.shards;
  for (ObjectId id = 1; id <= objects; ++id) {
    SCADDAR_CHECK(cluster->AddObject(id, sizes.blocks_each).ok());
  }
  const int64_t streams = sizes.streams_per_shard * row.scale * row.shards;
  for (int64_t s = 0; s < streams; ++s) {
    const ObjectId object = 1 + s % objects;
    const auto id = cluster->StartStream(object);
    SCADDAR_CHECK(id.ok());
    // Spread positions so the horizon never finishes a stream.
    SCADDAR_CHECK(
        cluster->SeekStream(id.value(), (s * 977) % (sizes.blocks_each / 2))
            .ok());
  }
  const auto tick = [&]() {
    switch (path) {
      case kPooled:
        return cluster->TickPooled();
      case kSerial:
        return cluster->TickSerialized();
      default:
        return cluster->Tick();
    }
  };
  for (int64_t i = 0; i < sizes.warmup_rounds; ++i) {
    tick();
  }
  if (row.add_shard) {
    SCADDAR_CHECK(cluster->AddServerShard().ok());
  }
  int64_t requests = 0;
  int64_t pooled_rounds = 0;
  double seconds = 0;
  std::vector<double> round_us;
  round_us.reserve(static_cast<size_t>(sizes.rounds));
  const double cpu_start = ProcessCpuSeconds();
  for (int64_t i = 0; i < sizes.rounds; ++i) {
    const auto start = std::chrono::steady_clock::now();
    const ClusterRoundMetrics metrics = tick();
    const std::chrono::duration<double, std::micro> elapsed =
        std::chrono::steady_clock::now() - start;
    round_us.push_back(elapsed.count());
    requests += metrics.requests;
    pooled_rounds += metrics.pooled;
    seconds += elapsed.count() * 1e-6;
  }
  const double cpu_seconds = ProcessCpuSeconds() - cpu_start;
  const double rounds = static_cast<double>(sizes.rounds);
  return PathResult{
      .requests_per_second =
          seconds > 0 ? static_cast<double>(requests) / seconds : 0,
      .round_p50_us = bench::Median(std::move(round_us)),
      .cpu_us_per_round = cpu_seconds * 1e6 / rounds,
      .pooled_share = static_cast<double>(pooled_rounds) / rounds};
}

std::vector<ScalingResult> MeasureScaling(const std::vector<Row>& rows,
                                          const Sizes& sizes) {
  std::vector<ScalingResult> results;
  for (const Row& row : rows) {
    results.push_back(ScalingResult{
        .row = row,
        .streams = sizes.streams_per_shard * row.scale * row.shards,
        .paths = {}});
  }
  // Interleave repetitions and paths so a slow patch on a shared host
  // degrades every candidate alike; each metric is its median over the
  // repetitions.
  std::vector<std::array<std::vector<PathResult>, kNumPaths>> samples(
      results.size());
  for (int64_t rep = 0; rep < sizes.repetitions; ++rep) {
    for (size_t t = 0; t < rows.size(); ++t) {
      for (int path = 0; path < kNumPaths; ++path) {
        samples[t][static_cast<size_t>(path)].push_back(
            MeasureOnce(rows[t], static_cast<Path>(path), sizes));
      }
    }
  }
  for (size_t t = 0; t < results.size(); ++t) {
    for (size_t path = 0; path < kNumPaths; ++path) {
      const std::vector<PathResult>& reps = samples[t][path];
      const auto median_of = [&reps](double PathResult::*field) {
        std::vector<double> values;
        for (const PathResult& rep : reps) {
          values.push_back(rep.*field);
        }
        return bench::Median(std::move(values));
      };
      results[t].paths[path] = PathResult{
          .requests_per_second = median_of(&PathResult::requests_per_second),
          .round_p50_us = median_of(&PathResult::round_p50_us),
          .cpu_us_per_round = median_of(&PathResult::cpu_us_per_round),
          .pooled_share = median_of(&PathResult::pooled_share)};
    }
  }
  return results;
}

// --- Tier 2: migration cost vs naive rehash -----------------------------

struct MigrationCost {
  int64_t moved_objects = 0;
  int64_t moved_blocks = 0;
  int64_t naive_moved_objects = 0;
  int64_t rounds_to_drain = 0;
  double moved_fraction = 0;
  double naive_fraction = 0;
};

MigrationCost MeasureMigrationCost(const Sizes& sizes) {
  constexpr int kShards = 4;
  ClusterConfig config = BaseConfig();
  config.initial_shards = kShards;
  auto cluster = ClusterServer::Create(config).value();
  for (ObjectId id = 1; id <= sizes.catalog_objects; ++id) {
    SCADDAR_CHECK(cluster->AddObject(id, sizes.catalog_blocks).ok());
  }
  SCADDAR_CHECK(cluster->AddServerShard().ok());
  MigrationCost cost;
  cost.moved_objects = cluster->migrator().pending_transfers();
  while (!cluster->MigrationIdle()) {
    cluster->Tick();
    ++cost.rounds_to_drain;
    SCADDAR_CHECK(cost.rounds_to_drain < 1'000'000);
  }
  SCADDAR_CHECK(cluster->VerifyIntegrity().ok());
  cost.moved_blocks = cluster->migrator().total_blocks_copied();
  // The naive baseline: route by `id mod N`. Growing N to N+1 reroutes
  // every object whose residue changes — nearly the whole catalog.
  for (ObjectId id = 1; id <= sizes.catalog_objects; ++id) {
    if (id % kShards != id % (kShards + 1)) {
      ++cost.naive_moved_objects;
    }
  }
  cost.moved_fraction = static_cast<double>(cost.moved_objects) /
                        static_cast<double>(sizes.catalog_objects);
  cost.naive_fraction = static_cast<double>(cost.naive_moved_objects) /
                        static_cast<double>(sizes.catalog_objects);
  return cost;
}

// --- Tier 3: scale-out under a flash crowd ------------------------------

struct FireResult {
  int64_t requests = 0;
  int64_t served = 0;
  int64_t hiccups = 0;
  int64_t cross_shard_blocks = 0;
  int64_t handoff_rejects = 0;
  int64_t rounds_to_idle = 0;  // From the add to cluster-wide idleness.
  int64_t startup_p50 = 0;
  int64_t startup_p99 = 0;
  int64_t startup_p999 = 0;

  double HiccupRate() const {
    return requests > 0
               ? static_cast<double>(hiccups) / static_cast<double>(requests)
               : 0;
  }
};

FireResult RunScaleOutUnderFire(const Sizes& sizes) {
  ClusterConfig config = BaseConfig();
  config.initial_shards = 2;
  config.cross_shard_budget = 64;  // A deliberately narrow interconnect.
  auto cluster = ClusterServer::Create(config).value();
  for (ObjectId id = 1; id <= sizes.fire_objects; ++id) {
    SCADDAR_CHECK(cluster->AddObject(id, sizes.fire_blocks).ok());
  }
  const int64_t add_round = sizes.fire_rounds / 4;
  TrafficConfig traffic_config;
  traffic_config.seed = 0xc1f5ull;
  traffic_config.arrivals_per_round = 2.0;
  traffic_config.zipf_theta = 0.729;
  traffic_config.seek_probability = 0.02;
  // The premiere lands exactly when the third shard comes up: arrivals
  // spike onto the Zipf head while its blocks may be mid-evacuation.
  traffic_config.flash_crowds.push_back(
      FlashCrowd{.start_round = add_round,
                 .duration = sizes.fire_rounds / 10,
                 .rank = 0,
                 .boost = 6});
  TrafficEngine traffic(traffic_config);
  traffic.SetObjects(cluster->objects());

  FireResult result;
  bool was_idle_after_add = false;
  for (int64_t round = 0; round < sizes.fire_rounds; ++round) {
    if (round == add_round) {
      SCADDAR_CHECK(cluster->AddServerShard().ok());
    }
    const ClusterRoundMetrics metrics = traffic.DriveRound(*cluster);
    result.requests += metrics.requests;
    result.served += metrics.served;
    result.hiccups += metrics.hiccups;
    result.cross_shard_blocks += metrics.cross_shard_blocks;
    if (round >= add_round && !was_idle_after_add) {
      ++result.rounds_to_idle;
      was_idle_after_add = cluster->MigrationIdle();
    }
  }
  SCADDAR_CHECK(cluster->VerifyIntegrity().ok());
  result.handoff_rejects = cluster->handoff_rejects();
  const std::vector<int64_t> latencies = cluster->StartupLatencies();
  result.startup_p50 = PercentileOf(latencies, 0.50);
  result.startup_p99 = PercentileOf(latencies, 0.99);
  result.startup_p999 = PercentileOf(latencies, 0.999);
  return result;
}

}  // namespace
}  // namespace scaddar

int main(int argc, char** argv) {
  using namespace scaddar;
  bool smoke = false;
  bool json_only = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--json-only") == 0) {
      json_only = true;
    }
  }
  Sizes sizes;
  if (smoke) {
    sizes = Sizes{.objects_per_shard = 3,
                  .blocks_each = 600,
                  .streams_per_shard = 8,
                  .rounds = 10,
                  .warmup_rounds = 3,
                  .repetitions = 1,
                  .catalog_objects = 24,
                  .catalog_blocks = 120,
                  .fire_rounds = 60,
                  .fire_objects = 8,
                  .fire_blocks = 400};
  }

  if (!json_only) {
    bench::PrintHeader("EXP-CL",
                       "cluster serving: shards, scaling and migration cost");
    std::printf("%-5s %-7s %-8s %-27s %-27s %-6s\n", "", "", "",
                "round p50, wall (us)", "CPU per round (us)", "auto");
    std::printf("%-5s %-7s %-8s %-8s %-8s %-9s %-8s %-8s %-9s %-6s\n",
                "size", "shards", "streams", "auto", "pooled", "serial",
                "auto", "pooled", "serial", "forks");
  }
  bench::BenchJson json("bench_cluster");
  std::vector<Row> rows;
  for (const auto& [size, scale] :
       {std::pair<const char*, int64_t>{"1x", 1}, {"4x", 4}, {"48x", 48}}) {
    for (const int shards : {1, 2, 3}) {
      rows.push_back(Row{.size = size, .scale = scale, .shards = shards});
    }
  }
  rows.push_back(
      Row{.size = "48x", .scale = 48, .shards = 3, .add_shard = true});
  const std::vector<ScalingResult> scaling = MeasureScaling(rows, sizes);
  for (const ScalingResult& result : scaling) {
    const Row& row = result.row;
    const auto& paths = result.paths;
    if (!json_only) {
      char shards[16];
      std::snprintf(shards, sizeof(shards), row.add_shard ? "%d+1" : "%d",
                    row.shards);
      std::printf(
          "%-5s %-7s %-8lld %-8.1f %-8.1f %-9.1f %-8.1f %-8.1f %-9.1f "
          "%-5.1f%%\n",
          row.size, shards, static_cast<long long>(result.streams),
          paths[kAuto].round_p50_us, paths[kPooled].round_p50_us,
          paths[kSerial].round_p50_us, paths[kAuto].cpu_us_per_round,
          paths[kPooled].cpu_us_per_round, paths[kSerial].cpu_us_per_round,
          100.0 * paths[kAuto].pooled_share);
    }
    json.BeginTier(row.shards);
    json.TierLabel("size", row.size);
    if (row.add_shard) {
      json.TierLabel("scenario", "add_shard_at_first_timed_round");
    }
    json.TierMetric("streams", static_cast<double>(result.streams), 0);
    json.TierMetric("auto_pooled_share", paths[kAuto].pooled_share, 4);
    for (int path = 0; path < kNumPaths; ++path) {
      const PathResult& r = paths[static_cast<size_t>(path)];
      json.Path(kPathNames[path],
                {{"requests_per_second", r.requests_per_second, 0},
                 {"round_p50_us", r.round_p50_us, 1},
                 {"cpu_us_per_round", r.cpu_us_per_round, 1}});
    }
    json.EndTier();
  }

  const MigrationCost cost = MeasureMigrationCost(sizes);
  if (!json_only) {
    bench::PrintRule();
    std::printf(
        "AddServerShard on a 4-shard cluster (%lld objects):\n"
        "  jump-hash delta: %lld objects moved (%.1f%%), %lld blocks,\n"
        "  drained in %lld rounds; naive mod-N rehash would move %lld\n"
        "  objects (%.1f%%) — %.1fx the interconnect traffic.\n",
        static_cast<long long>(sizes.catalog_objects),
        static_cast<long long>(cost.moved_objects),
        100.0 * cost.moved_fraction,
        static_cast<long long>(cost.moved_blocks),
        static_cast<long long>(cost.rounds_to_drain),
        static_cast<long long>(cost.naive_moved_objects),
        100.0 * cost.naive_fraction,
        cost.moved_objects > 0
            ? static_cast<double>(cost.naive_moved_objects) /
                  static_cast<double>(cost.moved_objects)
            : 0);
  }
  json.BeginTier(0);
  json.TierLabel("scenario", "migration_cost_add_shard");
  json.TierMetric("moved_objects", static_cast<double>(cost.moved_objects),
                  0);
  json.TierMetric("moved_fraction", cost.moved_fraction, 4);
  json.TierMetric("moved_blocks", static_cast<double>(cost.moved_blocks), 0);
  json.TierMetric("naive_moved_objects",
                  static_cast<double>(cost.naive_moved_objects), 0);
  json.TierMetric("naive_fraction", cost.naive_fraction, 4);
  json.TierMetric("rounds_to_drain",
                  static_cast<double>(cost.rounds_to_drain), 0);
  json.EndTier();

  const FireResult fire = RunScaleOutUnderFire(sizes);
  if (!json_only) {
    bench::PrintRule();
    std::printf(
        "Zipf flash crowd during AddServerShard (2 -> 3 shards):\n"
        "  requests=%lld served=%lld hiccup-rate=%.4f\n"
        "  cross-shard-blocks=%lld handoff-rejects=%lld idle-after=%lld"
        " rounds\n"
        "  startup latency p50/p99/p999 = %lld/%lld/%lld rounds\n",
        static_cast<long long>(fire.requests),
        static_cast<long long>(fire.served), fire.HiccupRate(),
        static_cast<long long>(fire.cross_shard_blocks),
        static_cast<long long>(fire.handoff_rejects),
        static_cast<long long>(fire.rounds_to_idle),
        static_cast<long long>(fire.startup_p50),
        static_cast<long long>(fire.startup_p99),
        static_cast<long long>(fire.startup_p999));
    bench::PrintRule();
    std::printf(
        "Expected shape: serial rounds grow with the shard count (one\n"
        "thread does all the work); pooled rounds beat serial ones only\n"
        "when a shard tick outweighs the pool's fork/join, which here is\n"
        "only at 48x, and at 1x and 4x they spend several times the CPU;\n"
        "auto rounds stay serial at 1x and 4x and fork at 48x, so they\n"
        "track the better branch, also while an added shard fills (its\n"
        "light ticks stay on the calling thread and the heavy shards\n"
        "still fork); the add-shard delta stays near 1/(N+1)\n"
        "of objects while mod-N rehash strands ~N/(N+1); the flash\n"
        "crowd's hiccups stay bounded because the source shard keeps\n"
        "serving every stream until its object's copy commits.\n");
  }
  json.BeginTier(0);
  json.TierLabel("scenario", "zipf_flash_crowd_add_shard");
  json.TierMetric("hiccup_rate", fire.HiccupRate(), 4);
  json.TierMetric("requests", static_cast<double>(fire.requests), 0);
  json.TierMetric("served", static_cast<double>(fire.served), 0);
  json.TierMetric("cross_shard_blocks",
                  static_cast<double>(fire.cross_shard_blocks), 0);
  json.TierMetric("handoff_rejects",
                  static_cast<double>(fire.handoff_rejects), 0);
  json.TierMetric("rounds_to_idle",
                  static_cast<double>(fire.rounds_to_idle), 0);
  json.TierMetric("startup_p50", static_cast<double>(fire.startup_p50), 0);
  json.TierMetric("startup_p99", static_cast<double>(fire.startup_p99), 0);
  json.TierMetric("startup_p999", static_cast<double>(fire.startup_p999), 0);
  json.EndTier();

  if (!smoke) {
    SCADDAR_CHECK(json.WriteFile("BENCH_cluster.json"));
    if (!json_only) {
      std::printf("wrote BENCH_cluster.json\n");
    }
  }
  return 0;
}
