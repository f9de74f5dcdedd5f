#ifndef SCADDAR_CLUSTER_CLUSTER_SERVER_H_
#define SCADDAR_CLUSTER_CLUSTER_SERVER_H_

#include <array>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "cluster/cross_shard_migrator.h"
#include "placement/shard_map.h"
#include "server/config.h"
#include "server/server.h"
#include "util/statusor.h"
#include "util/thread_pool.h"

namespace scaddar {

class CheckpointManager;

/// Configuration of the scale-out cluster: every server shard is built from
/// the same `ServerConfig` template (same policy, same master seed — an
/// object's X0 sequence is shard-independent, so a migrated object's
/// placement is recomputed fresh on its destination, never shipped).
struct ClusterConfig {
  /// Per-shard server template. `first_stream_id` is overwritten per shard
  /// (each shard hands out ids tagged with its member id in the high bits).
  ServerConfig shard;

  /// Server shards at creation (>= 1).
  int initial_shards = 1;

  /// Cross-shard interconnect budget: blocks any one shard may send — and,
  /// independently, receive — per round while objects migrate between
  /// shards. 0 freezes cross-shard copies (transfers queue but never
  /// advance).
  int64_t cross_shard_budget = 64;
};

/// Cluster-wide per-round metrics: the field-for-field sum of the member
/// shards' `RoundMetrics` (merged serially in shard creation order) plus the
/// cross-shard reorganization counters. For a 1-shard cluster the common
/// fields are byte-identical to the bare server's metrics.
struct ClusterRoundMetrics {
  int64_t round = 0;
  int64_t active_streams = 0;
  int64_t requests = 0;
  int64_t served = 0;
  int64_t hiccups = 0;
  int64_t migrated = 0;            // Disk-level moves inside shards.
  int64_t pending_migration = 0;   // Disk-level, summed over shards.
  int64_t retiring_disks = 0;
  int64_t cross_shard_blocks = 0;  // Copied between shards this round.
  int64_t cross_shard_commits = 0; // Objects that changed shards this round.
  int64_t pending_transfers = 0;   // Cross-shard queue depth after the round.
  int64_t pooled = 0;              // 1 when a shard ticked on a worker.
};

/// A cluster of independent `CmServer` shards behind one façade — the
/// scale-*out* axis to the shards' internal scale-*up* (disk scaling).
///
/// Layering mirrors a single server's placement/store split, one level up:
///  - the `ShardMap` (jump hash over stable member ids) is where objects
///    *should* live — the cluster's AF();
///  - the owner directory is where objects *are* — materialized truth;
///  - the `CrossShardMigrator` converges the two after `AddServerShard` /
///    `RemoveServerShard`, under per-shard interconnect budgets, while the
///    owning shard keeps serving every affected stream.
///
/// Determinism contract: shards interact only through the serial sections
/// (merge, transfer commits, retirement), which run in shard creation
/// order. A round's outcome is therefore identical whichever thread ticks
/// each shard (`TickPooled`, `TickSerialized`, and `Tick`, which forks only
/// the shards that pay), and a 1-shard cluster is byte-identical to a bare
/// `CmServer` fed the same calls.
class ClusterServer {
 public:
  static StatusOr<std::unique_ptr<ClusterServer>> Create(
      const ClusterConfig& config);

  ClusterServer(const ClusterServer&) = delete;
  ClusterServer& operator=(const ClusterServer&) = delete;

  // --- Object catalog (routed). ----------------------------------------
  /// Ingests an object on the shard the map routes it to.
  Status AddObject(ObjectId id, int64_t num_blocks, int64_t bitrate_weight = 1);

  /// Deletes an object from its owning shard (refused while streamed, like
  /// the bare server); any queued cross-shard transfer is cancelled.
  Status RemoveObject(ObjectId id);

  // --- Streaming (routed). ---------------------------------------------
  /// Starts a stream on the object's *owning* shard (during a migration the
  /// source serves until the commit flips ownership). Returns the
  /// cluster-unique stream id: shard member in the high bits.
  StatusOr<int64_t> StartStream(ObjectId object);

  Status PauseStream(int64_t stream_id);
  Status ResumeStream(int64_t stream_id);
  Status SeekStream(int64_t stream_id, BlockIndex block);

  // --- Rounds. ----------------------------------------------------------
  /// One cluster round: tick every shard, merge metrics serially in shard
  /// order, pump cross-shard copies and commit completed transfers, retire
  /// drained shards. A shard ticks on a woken pool worker only when its
  /// measured work pays for the wake-up (`ShardLanes` over each shard's
  /// smoothed `Tick` wall time and the pool's measured fork/join cost); the
  /// calling thread ticks the rest, and `ClusterRoundMetrics::pooled` says
  /// whether any shard forked.
  ClusterRoundMetrics Tick();

  /// `Tick` with the branch forced: in a round of 2+ shards every shard
  /// but the first forks onto the pool, or every shard ticks on the
  /// calling thread. The outcome is identical to `Tick`'s; only the
  /// threads differ.
  ClusterRoundMetrics TickPooled();
  ClusterRoundMetrics TickSerialized();

  // --- Cluster scaling. -------------------------------------------------
  /// Adds an empty server shard and reroutes: every object whose jump-hash
  /// target moved (an expected ~1/(N+1) of the catalog — nothing else)
  /// gets a queued cross-shard transfer. Returns the new stable member id.
  StatusOr<int> AddServerShard();

  /// Removes member `shard` from routing (swap-with-last renumbering, ~2/N
  /// of objects reroute) and queues its evacuation. The shard keeps serving
  /// until it owns nothing and drains, then its server is destroyed.
  Status RemoveServerShard(int shard);

  // --- Per-shard disk scaling (forwarded). ------------------------------
  Status ScaleAddDisks(int shard, int64_t count);
  Status ScaleRemoveDisks(int shard, std::vector<DiskSlot> slots);

  // --- Adaptive self-triggered reorganization (forwarded). --------------
  /// Configures every live shard's governor and CoV threshold (validated
  /// once up front — all-or-nothing), and updates the shard template so
  /// shards added later inherit the knobs.
  Status ConfigureGovernor(int bits, double eps, double cov_threshold);

  /// Enables/disables the adaptive driver on every live shard and in the
  /// shard template.
  void SetAutoReorg(bool enabled);

  /// Self-triggered reorganizations summed over live shards.
  int64_t TotalReorgTriggers() const;

  // --- Invariants. -------------------------------------------------------
  /// Cross-checks the cluster: every owned object lives in exactly its
  /// owner's catalog, route targets diverge from owners only while a
  /// transfer is queued, and every shard's own store matches its AF()
  /// (shards with pending disk migration are skipped, as in the bare
  /// server).
  Status VerifyIntegrity() const;

  /// True when no cross-shard transfer is queued and no shard has pending
  /// disk-level migration.
  bool MigrationIdle() const;

  // --- Accessors. ---------------------------------------------------------
  int64_t round() const { return round_; }
  int num_shards() const { return static_cast<int>(shards_.size()); }
  const ShardMap& map() const { return map_; }
  const CrossShardMigrator& migrator() const { return migrator_; }
  const ClusterConfig& config() const { return config_; }

  /// Member ids in shard creation order (the serial-section order).
  std::vector<int> members() const;

  /// The shard serving member `id`, or null. Retiring members are still
  /// returned until their server drains and is destroyed.
  const CmServer* shard(int id) const;
  CmServer* shard(int id);

  /// Owning member of `object`, or -1. Diverges from `map().MemberOf` only
  /// while the object's transfer is in flight.
  int OwnerOf(ObjectId object) const;

  int64_t num_objects() const { return static_cast<int64_t>(objects_.size()); }

  /// Cluster catalog in ingestion order (= popularity rank for the traffic
  /// engine, matching the bare server's registration order).
  const std::vector<ObjectId>& objects() const { return objects_; }

  /// Cluster-total stream counters: sums over live shards plus what
  /// retired shards had counted (streams detached for handoff count in
  /// neither completed nor hiccups).
  int64_t active_streams() const;
  int64_t total_served() const;
  int64_t total_hiccups() const;
  int64_t completed_streams() const;

  /// Handed-off streams the destination's admission control turned away
  /// (the session drops instead of resuming — the cluster-level hiccup of
  /// last resort).
  int64_t handoff_rejects() const { return handoff_rejects_; }

  /// Cluster-wide startup latencies (rounds to first delivered block): the
  /// samples of retired shards, then each live shard's in creation order.
  /// A handed-off stream keeps the one sample of its first delivery.
  std::vector<int64_t> StartupLatencies() const;

  // --- Checkpoint/restart (src/recovery). --------------------------------
  /// Serializes the whole cluster — seat table, owner directory and one
  /// nested server snapshot per shard — into one checksummed document.
  /// In-flight cross-shard transfers are deliberately excluded: restore
  /// re-derives them from route-vs-owner divergence.
  StatusOr<std::string> EncodeCheckpoint() const;

  /// Writes `EncodeCheckpoint` through `manager` as an L`level` set at the
  /// current cluster round.
  Status WriteCheckpoint(CheckpointManager& manager, int level) const;

  /// Rebuilds a cluster from the newest valid set in `manager`: the shard
  /// map from its checkpointed parts, each shard via
  /// `CmServer::FromSnapshotDocument` (journal-wins reconciliation inside),
  /// then `ReconcileRouting` to requeue any transfer the kill interrupted.
  static StatusOr<std::unique_ptr<ClusterServer>> RestoreFromCheckpoint(
      const ClusterConfig& config, CheckpointManager& manager);

 private:
  /// Rounds a shard's smoothed tick time looks back over.
  static constexpr int kTickWindow = 5;

  struct Shard {
    int member = 0;
    std::unique_ptr<CmServer> server;
    bool retiring = false;
    // Wall time of its last `kTickWindow` Ticks (a ring, oldest overwritten
    // first) and how many Ticks were timed in all.
    std::array<double, kTickWindow> tick_ns{};
    int64_t ticks_timed = 0;

    /// The median of the window, so a slow round or two (a cold first
    /// tick, a preempted thread) do not move it; 0, which never forks,
    /// until the window is full.
    double SmoothedTickNs() const;
  };

  enum class RoundMode { kMeasured, kPooled, kSerial };

  explicit ClusterServer(const ClusterConfig& config);

  /// Index into `shards_` for member `id`, or -1.
  int ShardIndexOf(int member) const;

  /// The member encoded in a cluster stream id's high bits.
  static int MemberOfStreamId(int64_t stream_id);

  /// The config template specialized for `member` (stream-id tag, per-shard
  /// backend directory).
  ServerConfig ShardConfig(int member) const;

  /// Builds a shard server for `member` from the config template.
  StatusOr<std::unique_ptr<CmServer>> BuildShard(int member) const;

  /// Requeues/retargets/cancels transfers so every object's queued
  /// destination equals its *latest* route target. Walks `objects_` in
  /// insertion order — the deterministic spine of the transfer queue.
  void ReconcileRouting();

  /// Runs the ticks for shards [0, n), each on the lane `mode` picks, then
  /// the serial tail; the single implementation behind `Tick`, `TickPooled`
  /// and `TickSerialized`.
  ClusterRoundMetrics RunRound(RoundMode mode);

  /// The pool's fork/join cost for the widest fork this round could make,
  /// one woken worker per shard but the first (capped by the pool), measured
  /// the first time a round of that width asks.
  double ForkJoinNs();

  /// Serial tail of a round: merge, transfer pump, commits, retirement.
  void CommitTransfer(const ObjectTransfer& transfer);

  /// Destroys retiring shards that own nothing, serve nothing and have no
  /// pending disk migration, keeping their startup latencies and stream
  /// counters.
  void RetireDrainedShards();

  ClusterConfig config_;
  ShardMap map_;
  std::vector<Shard> shards_;               // Creation order.
  std::unordered_map<ObjectId, int> owner_; // Materialized truth.
  std::vector<ObjectId> objects_;           // Insertion order (determinism).
  CrossShardMigrator migrator_;
  // Built by the first round of 2+ shards that may fork, with one worker per
  // hardware thread. `fork_join_ns_[w]` is its measured cost for a fork
  // that wakes w workers (0 until measured).
  std::unique_ptr<ThreadPool> pool_;
  std::vector<double> fork_join_ns_;

  int64_t round_ = 0;
  int64_t handoff_rejects_ = 0;
  // What destroyed shards had counted.
  std::vector<int64_t> retired_latencies_;
  int64_t retired_served_ = 0;
  int64_t retired_hiccups_ = 0;
  int64_t retired_completed_ = 0;
};

/// The measured choice behind `ClusterServer::Tick`: the lane that ticks
/// each shard, in shard order. A shard whose smoothed tick time is at least
/// twice `fork_join_ns` pays for a woken worker and gets a lane of its own
/// (1, 2, ...), except the first such shard, which stays on the calling
/// thread's lane 0 with every shard that does not pay. All zeros (a serial
/// round) when fewer than two shards pay or the pool has one worker.
/// `ThreadPool::ParallelFor` groups the lanes into chunks when there are
/// more lanes than `pool_threads`.
std::vector<int> ShardLanes(const std::vector<double>& shard_tick_ns,
                            int pool_threads, double fork_join_ns);

/// The cluster-wide active-stream view for the traffic engine (see
/// `TrafficEngine::Drive`): every shard's streams, shards in creation order.
/// A 1-shard cluster's view is exactly the bare server's.
std::vector<const Stream*> StreamView(const ClusterServer& cluster);

}  // namespace scaddar

#endif  // SCADDAR_CLUSTER_CLUSTER_SERVER_H_
