#include "workloads.h"

#include <cmath>
#include <filesystem>
#include <string>
#include <system_error>
#include <vector>

#include "cluster/cluster_server.h"
#include "recovery/checkpoint_manager.h"
#include "server/server.h"
#include "closed_loop.h"
#include "storage/block_io.h"
#include "storage/storage_backend.h"

namespace scaddar::e2e {
namespace {

/// RO1 for one scaling call issued on a converged server: reconciliation
/// queues exactly the blocks the op must move (for a removal, every block
/// on the removed disks), their share lies within a binomial tolerance of
/// z_j, and the drain moves exactly the queued blocks.
class MoveCheck {
 public:
  static MoveCheck Add(const CmServer& server, int64_t count, double eps,
                       std::string label) {
    MoveCheck check(server, eps, std::move(label));
    const auto before = static_cast<double>(server.policy().current_disks());
    check.z_ =
        static_cast<double>(count) / (before + static_cast<double>(count));
    return check;
  }

  static MoveCheck Remove(const CmServer& server,
                          const std::vector<DiskSlot>& slots, double eps,
                          std::string label) {
    MoveCheck check(server, eps, std::move(label));
    const std::vector<PhysicalDiskId>& disks =
        server.policy().log().physical_disks();
    check.z_ = static_cast<double>(slots.size()) /
               static_cast<double>(disks.size());
    check.exact_ = 0;
    for (const DiskSlot slot : slots) {
      check.exact_ += server.store().CountOn(disks[static_cast<size_t>(slot)]);
    }
    return check;
  }

  /// Right after the call: the queue against z_j.
  void AfterCall(const CmServer& server, std::vector<std::string>& failures) {
    queued_ = server.migration().pending();
    // A governor rebase inside the call queues the full redistribution too,
    // so only the drain-side bound applies.
    rebased_ = ReorgTriggers(server) > triggers_before_;
    if (rebased_) {
      return;
    }
    if (exact_ >= 0 && queued_ != exact_) {
      failures.push_back(label_ + ": queued " + std::to_string(queued_) +
                         " blocks, removed disks held " +
                         std::to_string(exact_));
    }
    const double mean = static_cast<double>(blocks_) * z_;
    const double tolerance =
        6.0 * std::sqrt(mean * (1.0 - z_)) + eps_ * mean + 1.0;
    if (std::abs(static_cast<double>(queued_) - mean) > tolerance) {
      failures.push_back(label_ + ": queued " + std::to_string(queued_) +
                         " blocks, z_j predicts " + std::to_string(mean) +
                         " +- " + std::to_string(tolerance));
    }
  }

  /// After the drain that followed the call with no other op in between.
  void AfterDrain(const CmServer& server,
                  std::vector<std::string>& failures) const {
    const int64_t moved = server.migration().total_moved() - moved_before_;
    if (rebased_ ? moved > queued_ : moved != queued_) {
      failures.push_back(label_ + ": moved " + std::to_string(moved) +
                         " blocks, reconciliation queued " +
                         std::to_string(queued_));
    }
  }

 private:
  MoveCheck(const CmServer& server, double eps, std::string label)
      : label_(std::move(label)),
        eps_(eps),
        blocks_(server.store().total_blocks()),
        moved_before_(server.migration().total_moved()),
        triggers_before_(ReorgTriggers(server)) {
    if (!server.migration().idle()) {
      label_ += " (not converged)";
    }
  }

  std::string label_;
  double eps_;
  int64_t blocks_;
  int64_t moved_before_;
  int64_t triggers_before_;
  double z_ = 0;
  int64_t exact_ = -1;  // Blocks on the removed disks; -1 for an add.
  int64_t queued_ = 0;
  bool rebased_ = false;
};

// --- serve_steady ---------------------------------------------------------

constexpr int64_t kSteadyDisks = 256;
constexpr int64_t kSteadyObjects = 1024;
constexpr int64_t kSteadyBlocks = 2000;
constexpr int64_t kSteadyRounds = 8000;
constexpr double kSteadyArrivals = 4.0;  // Keeps the server at its cap.

EpisodeResult ServeSteady(const EpisodeContext& ctx, Tracer* tracer) {
  EpisodeResult result;
  ServerConfig config;
  config.initial_disks = kSteadyDisks;
  ExtraSetUps<CmServer>(config, kSteadyObjects, kSteadyBlocks, 2, result);
  auto server =
      SetUp<CmServer>(config, kSteadyObjects, kSteadyBlocks, tracer, result);
  if (server == nullptr) {
    return result;
  }
  ClosedLoop<CmServer> loop(*server, ctx.seed, kSteadyArrivals, kSteadyObjects,
                            kSteadyBlocks, tracer, result);
  loop.Ramp(/*until_first_finish=*/true, 50'000);
  loop.BeginRun();
  loop.Rounds(kSteadyRounds);
  loop.EndRun();
  if (result.counts.migrated_blocks != 0 ||
      result.counts.converge_rounds != 0) {
    loop.Fail("serve_steady moved blocks without a scaling call");
  }
  return result;
}

// --- scale_churn ----------------------------------------------------------

constexpr int64_t kChurnDisks = 16;
constexpr int64_t kChurnObjects = 24;
constexpr int64_t kChurnBlocks = 1000;
constexpr double kChurnEps = 0.05;
constexpr double kChurnArrivals = 0.7;
constexpr int64_t kOverlapRounds = 40;
constexpr int64_t kCheckpointEvery = 100;
constexpr int64_t kLevel2Every = 400;

EpisodeResult ScaleChurn(const EpisodeContext& ctx, Tracer* tracer) {
  EpisodeResult result;
  ServerConfig config;
  config.initial_disks = kChurnDisks;
  config.journal_migration = true;
  config.governor_bits = 24;
  config.governor_eps = kChurnEps;
  config.auto_reorg = true;
  // The manager outlives the server that points at it.
  CheckpointManager checkpoints(
      CheckpointOptions{.num_locations = 4,
                        .redundancy = CheckpointRedundancy::kXor});
  ExtraSetUps<CmServer>(config, kChurnObjects, kChurnBlocks, 8, result);
  auto server =
      SetUp<CmServer>(config, kChurnObjects, kChurnBlocks, tracer, result);
  if (server == nullptr) {
    return result;
  }
  if (const Status attached = server->AttachCheckpointManager(&checkpoints);
      !attached.ok()) {
    result.check_failures.push_back("AttachCheckpointManager: " +
                                    attached.ToString());
    return result;
  }
  ClosedLoop<CmServer> loop(*server, ctx.seed, kChurnArrivals, kChurnObjects,
                            kChurnBlocks, tracer, result);
  loop.set_after_tick([&] {
    const int64_t n = loop.run_rounds() + 1;
    if (n % kCheckpointEvery != 0) {
      return;
    }
    const int level = n % kLevel2Every == 0 ? 2 : 1;
    loop.Call("CmServer::WriteCheckpoint", level,
              [&] { return server->WriteCheckpoint(level); });
  });
  loop.Ramp(/*until_first_finish=*/false, 5'000);
  loop.BeginRun();

  // Each group starts converged; its second op lands while the first is
  // still migrating, then the group drains and verifies.
  struct Group {
    int64_t add;
    std::vector<DiskSlot> remove;  // Empty: the group is a single add.
  };
  const Group groups[] = {{4, {2, 5}}, {4, {1}}, {2, {}}};
  for (const Group& group : groups) {
    const std::string label = "ScaleAdd(" + std::to_string(group.add) + ")";
    MoveCheck check = MoveCheck::Add(*server, group.add, kChurnEps, label);
    loop.Scale("CmServer::ScaleAdd",
               [&] { return server->ScaleAdd(group.add); });
    check.AfterCall(*server, result.check_failures);
    if (!group.remove.empty()) {
      loop.Rounds(kOverlapRounds);
      loop.Scale("CmServer::ScaleRemove",
                 [&] { return server->ScaleRemove(group.remove); });
    }
    loop.Drain();
    loop.Verify(label);
    if (group.remove.empty()) {
      check.AfterDrain(*server, result.check_failures);
    }
  }
  loop.EndRun();
  if (result.counts.reorg_triggers != 1) {
    loop.Fail("expected exactly one governor-triggered redistribution, saw " +
              std::to_string(result.counts.reorg_triggers));
  }
  return result;
}

// --- uring_mixed ----------------------------------------------------------

constexpr int64_t kUringDisks = 16;
constexpr int64_t kUringObjects = 12;
constexpr int64_t kUringBlocks = 1000;
constexpr int kUringQueueDepth = 32;
constexpr int64_t kUringBlockBytes = 4096;
constexpr int64_t kUringQuietRounds = 40;
constexpr double kUringArrivals = 0.7;

void RunUringOps(CmServer& server, ClosedLoop<CmServer>& loop,
                 std::vector<std::string>& failures) {
  // Every op drains and verifies before the next: overlapping ops abort on
  // real backends (see the README). Quiet rounds after each op measure
  // serve-only I/O.
  struct Op {
    int64_t add;
    std::vector<DiskSlot> remove;
  };
  const Op ops[] = {{4, {}}, {0, {2, 5}}, {4, {}}, {0, {1}}, {2, {}}};
  for (const Op& op : ops) {
    if (op.add > 0) {
      const std::string label = "ScaleAdd(" + std::to_string(op.add) + ")";
      MoveCheck check = MoveCheck::Add(server, op.add, 0.0, label);
      loop.Scale("CmServer::ScaleAdd",
                 [&] { return server.ScaleAdd(op.add); });
      check.AfterCall(server, failures);
      loop.Drain();
      loop.Verify(label);
      check.AfterDrain(server, failures);
      loop.Rounds(kUringQuietRounds);
    } else {
      const std::string label = "ScaleRemove";
      MoveCheck check = MoveCheck::Remove(server, op.remove, 0.0, label);
      loop.Scale("CmServer::ScaleRemove",
                 [&] { return server.ScaleRemove(op.remove); });
      check.AfterCall(server, failures);
      loop.Drain();
      loop.Verify(label);
      check.AfterDrain(server, failures);
      loop.Rounds(kUringQuietRounds);
    }
  }
}

EpisodeResult UringMixed(const EpisodeContext& ctx, Tracer* tracer) {
  EpisodeResult result;
  const std::string dir = ctx.image_root + "/uring_images";
  std::error_code error;
  std::filesystem::remove_all(dir, error);
  ServerConfig config;
  config.initial_disks = kUringDisks;
  config.storage_backend = "uring:" + dir;
  config.io_queue_depth = kUringQueueDepth;
  config.io_block_bytes = kUringBlockBytes;
  for (int i = 0; i < 2; ++i) {
    ExtraSetUps<CmServer>(config, kUringObjects, kUringBlocks, 1, result);
    std::filesystem::remove_all(dir, error);
  }
  {
    auto server =
        SetUp<CmServer>(config, kUringObjects, kUringBlocks, tracer, result);
    if (server != nullptr) {
      BlockIoEngine& engine = *server->io_engine();
      StorageBackend& backend = engine.backend();
      result.notes.push_back(
          "backend " + std::string(backend.name()) + ", O_DIRECT " +
          (backend.direct_io() ? "on" : "off") + ", block bytes " +
          std::to_string(backend.block_bytes()) + ", queue depth " +
          std::to_string(backend.queue_depth()));
      if (backend.name() != "uring") {
        result.check_failures.push_back(
            "the uring: spec fell back to the " + std::string(backend.name()) +
            " backend");
      }
      ClosedLoop<CmServer> loop(*server, ctx.seed, kUringArrivals,
                                kUringObjects, kUringBlocks, tracer, result);
      loop.Ramp(/*until_first_finish=*/false, 5'000);
      const IoStats io_before = backend.stats();
      const EngineIoStats engine_before = engine.stats();
      loop.BeginRun();
      RunUringOps(*server, loop, result.check_failures);
      loop.EndRun();
      const IoStats& io = backend.stats();
      const EngineIoStats& eng = engine.stats();
      Counts& counts = result.counts;
      counts.io_reads = io.reads - io_before.reads;
      counts.io_writes = io.writes - io_before.writes;
      counts.io_flushes = io.flushes - io_before.flushes;
      counts.io_submits = io.submit_batches - io_before.submit_batches;
      counts.io_failures =
          (eng.serve_errors - engine_before.serve_errors) +
          (eng.copy_failures - engine_before.copy_failures) +
          (io.injected_eio - io_before.injected_eio) +
          (io.injected_short - io_before.injected_short);
      if (counts.io_failures != 0) {
        loop.Fail("real I/O failed " + std::to_string(counts.io_failures) +
                  " transfers");
      }
      if (eng.serve_reads != server->total_served()) {
        loop.Fail("verified serve reads " + std::to_string(eng.serve_reads) +
                  " != served blocks " +
                  std::to_string(server->total_served()));
      }
    }
  }
  std::filesystem::remove_all(dir, error);
  if (error) {
    result.check_failures.push_back("could not remove " + dir + ": " +
                                    error.message());
  }
  return result;
}

// --- cluster_scale_out ----------------------------------------------------

constexpr int kClusterShards = 3;
constexpr int64_t kShardDisks = 64;
constexpr int64_t kClusterObjects = 384;
constexpr int64_t kClusterBlocks = 2000;
constexpr int64_t kCrossShardBudget = 128;
constexpr int64_t kClusterTrafficRounds = 100;
constexpr double kClusterArrivals = 4.0;

EpisodeResult ClusterScaleOut(const EpisodeContext& ctx, Tracer* tracer) {
  EpisodeResult result;
  ClusterConfig config;
  config.shard.initial_disks = kShardDisks;
  config.initial_shards = kClusterShards;
  config.cross_shard_budget = kCrossShardBudget;
  ExtraSetUps<ClusterServer>(config, kClusterObjects, kClusterBlocks, 4,
                             result);
  auto cluster = SetUp<ClusterServer>(config, kClusterObjects, kClusterBlocks,
                                      tracer, result);
  if (cluster == nullptr) {
    return result;
  }
  ClosedLoop<ClusterServer> loop(*cluster, ctx.seed, kClusterArrivals,
                                 kClusterObjects, kClusterBlocks, tracer,
                                 result);
  std::vector<std::string>& failures = result.check_failures;
  loop.Ramp(/*until_first_finish=*/true, 50'000);
  loop.BeginRun();

  // Scale out: jump hash reroutes ~1/(N+1) of the objects to the new shard.
  int added = -1;
  int64_t copied_before = cluster->migrator().total_blocks_copied();
  loop.Scale("ClusterServer::AddServerShard", [&] {
    StatusOr<int> member = cluster->AddServerShard();
    if (!member.ok()) {
      return member.status();
    }
    added = member.value();
    return OkStatus();
  });
  const int64_t moved_in = cluster->migrator().pending_transfers();
  {
    const double z = 1.0 / (kClusterShards + 1);
    const double mean = static_cast<double>(kClusterObjects) * z;
    const double tolerance = 6.0 * std::sqrt(mean * (1.0 - z)) + 1.0;
    if (std::abs(static_cast<double>(moved_in) - mean) > tolerance) {
      failures.push_back("AddServerShard rerouted " + std::to_string(moved_in) +
                         " objects, expected " + std::to_string(mean));
    }
  }
  loop.Rounds(kClusterTrafficRounds);
  loop.Drain();
  loop.Verify("AddServerShard");
  if (cluster->migrator().total_blocks_copied() - copied_before !=
      moved_in * kClusterBlocks) {
    failures.push_back("AddServerShard copied a different block count than "
                       "its rerouted objects hold");
  }

  // Scale up shard 0's disks.
  const CmServer& shard0 = *cluster->shard(0);
  MoveCheck check = MoveCheck::Add(shard0, 4, 0.0, "ScaleAddDisks(0, 4)");
  loop.Scale("ClusterServer::ScaleAddDisks",
             [&] { return cluster->ScaleAddDisks(0, 4); });
  check.AfterCall(shard0, failures);
  loop.Rounds(kClusterTrafficRounds);
  loop.Drain();
  loop.Verify("ScaleAddDisks");
  check.AfterDrain(shard0, failures);

  // Scale back in: every object the added shard owns moves out.
  int64_t owned = 0;
  for (const ObjectId object : cluster->objects()) {
    owned += cluster->OwnerOf(object) == added ? 1 : 0;
  }
  copied_before = cluster->migrator().total_blocks_copied();
  loop.Scale("ClusterServer::RemoveServerShard",
             [&] { return cluster->RemoveServerShard(added); });
  if (cluster->migrator().pending_transfers() != owned) {
    failures.push_back("RemoveServerShard queued " +
                       std::to_string(cluster->migrator().pending_transfers()) +
                       " transfers for " + std::to_string(owned) +
                       " owned objects");
  }
  loop.Rounds(kClusterTrafficRounds);
  loop.Drain();
  loop.Verify("RemoveServerShard");
  if (cluster->migrator().total_blocks_copied() - copied_before !=
      owned * kClusterBlocks) {
    failures.push_back("RemoveServerShard copied a different block count "
                       "than the shard owned");
  }
  loop.EndRun();
  return result;
}

constexpr Workload kWorkloads[] = {
    {"serve_steady",
     "serving and admission at the cap, no scaling: the control for "
     "migration changes",
     &ServeSteady},
    {"scale_churn",
     "overlapping scaling ops, journaled migration, checkpoints and a "
     "governor-triggered rebase",
     &ScaleChurn},
    {"uring_mixed",
     "real block I/O on io_uring: serve reads, two-phase copies, flushes and "
     "ingest writes",
     &UringMixed},
    {"cluster_scale_out",
     "the cluster layer: pooled shard ticks, cross-shard transfers and stream "
     "handoff",
     &ClusterScaleOut},
};

}  // namespace

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& workload : kWorkloads) {
    if (name == workload.name) {
      return &workload;
    }
  }
  return nullptr;
}

}  // namespace scaddar::e2e
