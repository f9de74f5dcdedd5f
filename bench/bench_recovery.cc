// EXP-REC (extension) — multi-level checkpoint/restart economics: what a
// checkpoint set costs to write, and what it buys at restart time.
//
// Four numbers per state size, one path each, each the best of 3 runs:
//  1. checkpoint — wall cost of writing one L1 (single local copy) and one
//     L2 (redundant) set of the full server state, and the fragment bytes
//     the set occupies across the snapshot-location farm. The state is
//     drained, and every timed write follows a set that compacted the
//     journal.
//  2. restore — cold restart from the newest checkpoint set
//     (`RestoreFromCheckpoint`): snapshot rows land directly in the store;
//     only the journal suffix replays.
//  3. replay — a restart from metadata alone (policy, op log, catalog),
//     timed by a bench-local function: the catalog rebuilt, X0
//     materialized, the op log replayed with each object registered at its
//     recorded epoch, and every block's placement recomputed through the
//     full remap chain into the store. This is what a restart costs without
//     checkpoint rows.
//  4. mid-migration capture — `EncodeServerSnapshot(CaptureState())` while
//     a disk removal is queued and the journal still holds the previous
//     removal's moves, as it does between two sets of a migrating server.
//     Both calls are const, so every run times the same state.
//
// The acceptance target: restore_blocks_per_second beats
// replay_blocks_per_second at every tier, and the gap widens with op-log
// depth (replay is O(blocks x ops); restore is O(blocks + ops)). Each
// tier also restores an XOR L2 set after losing one snapshot location —
// correctness is asserted, and the parity-rebuild cost is reported.
//
// Usage: bench_recovery [--smoke] [--json-only]
//   --smoke      tiny sizes, no BENCH_recovery.json (CI wiring check).
//   --json-only  suppress the console tables, still write the JSON.
// The full run writes BENCH_recovery.json to the working directory.

#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "core/op_log.h"
#include "placement/registry.h"
#include "recovery/checkpoint_manager.h"
#include "recovery/snapshot.h"
#include "server/server.h"
#include "storage/block_store.h"
#include "storage/catalog.h"
#include "storage/disk_array.h"

namespace scaddar {
namespace {

struct Sizes {
  int64_t objects = 0;
  int64_t blocks_each = 0;
  int64_t scaling_ops = 0;  // Op-log depth driven by online scale-ups.
};

ServerConfig RecoveryConfig() {
  ServerConfig config;
  config.initial_disks = 8;
  // High per-disk bandwidth so each tier's migrations drain in a handful
  // of rounds — the bench measures restart cost, not migration time.
  config.disk_spec = {.capacity_blocks = 2'000'000,
                      .bandwidth_blocks_per_round = 4096};
  config.master_seed = 0x5ec0bell;
  config.journal_migration = true;
  return config;
}

/// Placement fingerprint: every object's full materialized row.
std::map<ObjectId, std::vector<PhysicalDiskId>> Placement(
    const Catalog& catalog, const BlockStore& store) {
  std::map<ObjectId, std::vector<PhysicalDiskId>> out;
  for (const ObjectId id : catalog.object_ids()) {
    const auto row = store.LocationsOf(id).value();
    out[id] = std::vector<PhysicalDiskId>(row.begin(), row.end());
  }
  return out;
}

std::map<ObjectId, std::vector<PhysicalDiskId>> Placement(
    const CmServer& server) {
  return Placement(server.catalog(), server.store());
}

/// What a restart from metadata alone rebuilds.
struct ReplayedState {
  explicit ReplayedState(const ServerConfig& config)
      : catalog(config.master_seed, config.prng_kind, config.bits),
        disks(config.disk_spec),
        store(&disks) {}

  Catalog catalog;
  std::unique_ptr<PlacementPolicy> policy;
  DiskArray disks;
  BlockStore store;
};

/// The replay comparator: rebuilds the catalog and policy from `metadata`'s
/// op log and catalog records (rows are ignored) — each object registered,
/// its X0 materialized, at its recorded epoch, interleaved with op replay
/// so its remap chain starts there — then places every block where AF()
/// says. Valid for a converged capture, where the store equals AF().
std::unique_ptr<ReplayedState> ReplayFromMetadata(
    const ServerConfig& config, const ServerSnapshot& metadata) {
  auto state = std::make_unique<ReplayedState>(config);
  const OpLog script = OpLog::Deserialize(metadata.oplog).value();
  PolicyOptions options;
  options.seed = config.master_seed ^ 0xd15c5ull;
  state->policy = MakePolicyWithDisks(config.policy,
                                      script.physical_disks_at(0), options)
                      .value();
  for (Epoch j = 0; j <= script.num_ops(); ++j) {
    for (const SnapshotObject& record : metadata.objects) {
      if (record.epoch_added != j) {
        continue;
      }
      SCADDAR_CHECK(state->catalog
                        .AddObject(record.id, record.num_blocks, record.weight)
                        .ok());
      SCADDAR_CHECK(
          state->catalog.SetGeneration(record.id, record.generation).ok());
      SCADDAR_CHECK(state->policy
                        ->AddObject(record.id,
                                    state->catalog.MaterializeX0(record.id)
                                        .value())
                        .ok());
    }
    if (j < script.num_ops()) {
      SCADDAR_CHECK(state->policy->ApplyOp(script.op(j + 1)).ok());
    }
  }
  SCADDAR_CHECK(
      state->disks.SyncLiveSet(state->policy->log().physical_disks()).ok());
  std::vector<PhysicalDiskId> locations;
  for (const ObjectId id : state->catalog.object_ids()) {
    state->policy->LocateAllBlocks(id, locations);
    SCADDAR_CHECK(state->store.PlaceObject(id, locations).ok());
  }
  return state;
}

/// Builds one tier's server: ingest, a few streams, then `scaling_ops`
/// online scale-ups with serving rounds in between, drained at the end so
/// the store equals AF() and the replay comparator lands on the same
/// placement.
std::unique_ptr<CmServer> BuildState(const Sizes& sizes) {
  auto server = std::move(CmServer::Create(RecoveryConfig())).value();
  for (int64_t id = 1; id <= sizes.objects; ++id) {
    SCADDAR_CHECK(server->AddObject(id, sizes.blocks_each).ok());
  }
  for (int64_t id = 1; id <= std::min<int64_t>(sizes.objects, 16); ++id) {
    SCADDAR_CHECK(server->StartStream(id).ok());
  }
  for (int64_t op = 0; op < sizes.scaling_ops; ++op) {
    SCADDAR_CHECK(server->ScaleAdd(1).ok());
    for (int i = 0; i < 2; ++i) {
      server->Tick();
    }
  }
  int64_t guard = 0;
  while (!server->migration().idle()) {
    server->Tick();
    SCADDAR_CHECK(++guard < 200'000);
  }
  return server;
}

struct TierResult {
  Sizes sizes;
  int64_t total_blocks = 0;
  int64_t oplog_ops = 0;
  double l1_seconds = 0;
  double l2_seconds = 0;
  int64_t set_bytes = 0;          // Fragment bytes of one L2 XOR set.
  double restore_seconds = 0;
  double replay_seconds = 0;
  double degraded_seconds = 0;    // Restore after losing one location.
  double capture_seconds = 0;     // Mid-migration capture + encode.
  int64_t capture_journal = 0;    // Live journal entries at that capture.
  int64_t capture_bytes = 0;      // Document bytes of that capture.

  double CheckpointBps() const {
    return l2_seconds > 0 ? static_cast<double>(total_blocks) / l2_seconds
                          : 0;
  }
  double RestoreBps() const {
    return restore_seconds > 0
               ? static_cast<double>(total_blocks) / restore_seconds
               : 0;
  }
  double ReplayBps() const {
    return replay_seconds > 0
               ? static_cast<double>(total_blocks) / replay_seconds
               : 0;
  }
  double CaptureBps() const {
    return capture_seconds > 0
               ? static_cast<double>(total_blocks) / capture_seconds
               : 0;
  }
  double Speedup() const {
    return restore_seconds > 0 ? replay_seconds / restore_seconds : 0;
  }
};

TierResult RunTier(const Sizes& sizes) {
  TierResult result;
  result.sizes = sizes;
  auto server = BuildState(sizes);
  result.total_blocks = server->store().total_blocks();
  result.oplog_ops = server->policy().log().num_ops();
  const auto expected = Placement(*server);
  const ServerConfig config = server->config();

  // Every path is timed best of 3: the first timed run carries a cold
  // start. What a run builds is checked and torn down outside the timing.
  const auto best_of_3 = [](auto&& run) {
    return bench::BestOf(3, run, [](double seconds) { return seconds; });
  };

  // --- Path 1: checkpoint write cost. -------------------------------------
  CheckpointManager manager(CheckpointOptions{
      .num_locations = 4, .redundancy = CheckpointRedundancy::kXor});
  SCADDAR_CHECK(server->AttachCheckpointManager(&manager).ok());
  const auto time_write = [&](int level) {
    return best_of_3([&] {
      return bench::TimeSeconds(
          [&] { SCADDAR_CHECK(server->WriteCheckpoint(level).ok()); });
    });
  };
  result.l1_seconds = time_write(1);
  const int64_t bytes_before_l2 = manager.stats().bytes_written;
  result.l2_seconds = time_write(2);
  result.set_bytes =
      (manager.stats().bytes_written - bytes_before_l2) / 3;  // Per set.

  // --- Path 3 input: the metadata alone, same state. ----------------------
  ServerSnapshot metadata = server->CaptureState();
  for (SnapshotObject& record : metadata.objects) {
    record.row.clear();
  }
  SCADDAR_CHECK(server->AttachCheckpointManager(nullptr).ok());

  // --- Path 4: a mid-migration capture. -----------------------------------
  // Detached, nothing compacts the journal: it keeps one drained removal's
  // moves while the next removal waits in the queue. Removals, because a
  // removed disk's blocks always move; after about fifteen scale-ups a
  // 64-bit X0 has no randomness left to send blocks to a new disk.
  const auto drain = [&] {
    int64_t guard = 0;
    while (!server->migration().idle()) {
      server->Tick();
      SCADDAR_CHECK(++guard < 200'000);
    }
  };
  SCADDAR_CHECK(server->ScaleRemove({0}).ok());
  drain();
  SCADDAR_CHECK(server->ScaleRemove({0}).ok());
  SCADDAR_CHECK(!server->migration().idle());
  result.capture_journal = server->journal().size();
  result.capture_seconds = best_of_3([&] {
    std::string document;
    const double seconds = bench::TimeSeconds(
        [&] { document = EncodeServerSnapshot(server->CaptureState()); });
    result.capture_bytes = static_cast<int64_t>(document.size());
    return seconds;
  });
  server.reset();  // The process is gone; only manager + metadata survive.

  // --- Path 2: cold restore from the newest checkpoint set. ---------------
  const auto restore = [&] {
    std::unique_ptr<CmServer> restored;
    const double seconds = bench::TimeSeconds([&] {
      restored =
          std::move(CmServer::RestoreFromCheckpoint(config, manager)).value();
    });
    SCADDAR_CHECK(Placement(*restored) == expected);
    return seconds;
  };
  result.restore_seconds = best_of_3(restore);

  // --- Path 3: full op-log replay (the no-checkpoint restart). ------------
  result.replay_seconds = best_of_3([&] {
    std::unique_ptr<ReplayedState> replayed;
    const double seconds = bench::TimeSeconds(
        [&] { replayed = ReplayFromMetadata(config, metadata); });
    SCADDAR_CHECK(Placement(replayed->catalog, replayed->store) == expected);
    return seconds;
  });

  // --- Degraded restore: one snapshot location is gone. -------------------
  SCADDAR_CHECK(manager.DropLocation(0).ok());
  result.degraded_seconds = best_of_3(restore);
  return result;
}

void PrintTier(const TierResult& result) {
  std::printf(
      "%6lld objects x %5lld blocks  (%9lld blocks, %3lld ops)\n",
      static_cast<long long>(result.sizes.objects),
      static_cast<long long>(result.sizes.blocks_each),
      static_cast<long long>(result.total_blocks),
      static_cast<long long>(result.oplog_ops));
  std::printf(
      "  checkpoint  L1 %8.2f ms   L2(xor) %8.2f ms   set %8.2f MiB\n",
      result.l1_seconds * 1e3, result.l2_seconds * 1e3,
      static_cast<double>(result.set_bytes) / (1024.0 * 1024.0));
  std::printf(
      "  restart     restore %8.2f ms   replay %8.2f ms   degraded %8.2f ms\n",
      result.restore_seconds * 1e3, result.replay_seconds * 1e3,
      result.degraded_seconds * 1e3);
  std::printf(
      "  throughput  restore %12.0f blk/s   replay %12.0f blk/s   "
      "speedup %5.1fx\n",
      result.RestoreBps(), result.ReplayBps(), result.Speedup());
  std::printf(
      "  migrating   capture %8.3f ms   journal %7lld entries   "
      "document %6.2f MiB\n",
      result.capture_seconds * 1e3,
      static_cast<long long>(result.capture_journal),
      static_cast<double>(result.capture_bytes) / (1024.0 * 1024.0));
  bench::PrintRule();
}

}  // namespace
}  // namespace scaddar

int main(int argc, char** argv) {
  bool smoke = false;
  bool json_only = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--json-only") == 0) {
      json_only = true;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", argv[i]);
      return 1;
    }
  }

  using scaddar::Sizes;
  std::vector<Sizes> tiers;
  if (smoke) {
    tiers.push_back(Sizes{8, 64, 2});
  } else {
    // Op-log depth scales with state size: replay walks the remap chain
    // per block (O(blocks x ops)), restore decodes rows (O(blocks)), so
    // the depth axis is what separates the two restart paths. A server
    // that has scaled dozens of times is exactly the one that needs
    // checkpoints.
    tiers.push_back(Sizes{64, 512, 48});
    tiers.push_back(Sizes{128, 1'024, 64});
    tiers.push_back(Sizes{256, 2'048, 96});
  }

  if (!json_only) {
    scaddar::bench::PrintHeader(
        "EXP-REC", "checkpoint cost vs. restart time vs. op-log replay");
  }
  scaddar::bench::BenchJson json("recovery");
  for (const Sizes& sizes : tiers) {
    const scaddar::TierResult result = scaddar::RunTier(sizes);
    if (!json_only) {
      scaddar::PrintTier(result);
    }
    json.BeginTier(result.oplog_ops);
    json.TierMetric("objects", static_cast<double>(sizes.objects), 0);
    json.TierMetric("blocks", static_cast<double>(result.total_blocks), 0);
    json.TierMetric("set_mib",
                    static_cast<double>(result.set_bytes) / (1024.0 * 1024.0),
                    2);
    json.TierMetric("restore_speedup_vs_replay", result.Speedup(), 2);
    json.Path("checkpoint",
              {{"l1_ms", result.l1_seconds * 1e3, 3},
               {"l2_ms", result.l2_seconds * 1e3, 3},
               {"checkpoint_blocks_per_second", result.CheckpointBps(), 0}});
    json.Path("restore",
              {{"ms", result.restore_seconds * 1e3, 3},
               {"restore_blocks_per_second", result.RestoreBps(), 0}});
    json.Path("replay",
              {{"ms", result.replay_seconds * 1e3, 3},
               {"replay_blocks_per_second", result.ReplayBps(), 0}});
    json.Path("degraded_restore",
              {{"ms", result.degraded_seconds * 1e3, 3}});
    json.Path("mid_migration_capture",
              {{"ms", result.capture_seconds * 1e3, 3},
               {"journal_entries", static_cast<double>(result.capture_journal),
                0},
               {"document_mib",
                static_cast<double>(result.capture_bytes) / (1024.0 * 1024.0),
                2},
               {"capture_blocks_per_second", result.CaptureBps(), 0}});
    json.EndTier();
  }

  if (!smoke) {
    if (!json.WriteFile("BENCH_recovery.json")) {
      std::fprintf(stderr, "cannot write BENCH_recovery.json\n");
      return 1;
    }
    if (!json_only) {
      std::printf("wrote BENCH_recovery.json\n");
    }
  }
  return 0;
}
