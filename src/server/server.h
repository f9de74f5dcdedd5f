#ifndef SCADDAR_SERVER_SERVER_H_
#define SCADDAR_SERVER_SERVER_H_

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "core/scaling_op.h"
#include "placement/policy.h"
#include "placement/registry.h"
#include "server/admission.h"
#include "server/config.h"
#include "server/migration.h"
#include "server/reorg_driver.h"
#include "server/scheduler.h"
#include "server/stream.h"
#include "storage/block_store.h"
#include "storage/catalog.h"
#include "storage/disk_array.h"
#include "storage/move_journal.h"
#include "util/statusor.h"

namespace scaddar {

class BlockIoEngine;
class CheckpointManager;
class FaultInjector;
struct ServerSnapshot;

/// What a checkpoint restart found and rebuilt.
struct CheckpointRestoreStats {
  int64_t set_id = 0;          // Checkpoint set the restore loaded.
  int level = 0;               // Its level (1 or 2).
  int64_t snapshot_round = 0;  // Server round at capture.
  int64_t sets_rejected = 0;   // Newer sets skipped as torn/corrupt.
  bool rebuilt_from_parity = false;
  int64_t streams_restored = 0;
  /// Committed journal entries newer than the snapshot that were re-applied
  /// to the restored rows — the "journal wins" half of reconciliation.
  int64_t committed_replayed = 0;
  JournalRecoveryStats journal;  // In-flight move resolution.
};

/// A stream's playback state captured when its object migrates to another
/// server shard: everything the destination needs to resume the session
/// (the rate is re-derived from the object's bitrate weight, which travels
/// with the object).
struct StreamHandoff {
  ObjectId object = 0;
  BlockIndex next_block = 0;
  bool paused = false;
  /// The first block was delivered, so the stream's startup latency is
  /// already recorded.
  bool playback_started = false;
  /// Rounds since the stream started. Shard round counters differ, so the
  /// start round itself cannot travel; the destination re-derives it.
  int64_t waited_rounds = 0;
};

/// Per-round server metrics.
struct RoundMetrics {
  int64_t round = 0;
  int64_t active_streams = 0;
  int64_t requests = 0;
  int64_t served = 0;
  int64_t served_degraded = 0;  // Of `served`: read from a non-primary copy.
  int64_t hiccups = 0;
  int64_t migrated = 0;
  int64_t pending_migration = 0;
  int64_t retiring_disks = 0;
};

/// The simulated continuous media server the paper motivates: random
/// placement for load balancing, a placement policy (SCADDAR by default) for
/// block location, and *online* disk scaling — streams keep playing while a
/// background migration drains/fills disks with leftover bandwidth.
///
/// The server owns four cooperating layers:
///  - `Catalog`: per-object seeds (the only per-object persistent state);
///  - `PlacementPolicy`: where blocks *should* be (AF);
///  - `BlockStore` + `DiskArray`: where blocks *are*, and the hardware;
///  - `MigrationExecutor`: converges the two after scaling operations.
///
/// Replication (Section 6) is a placement concern: an object may keep R
/// copies of every block, copy `r` of block `i` at row `r*B + i` of its
/// store row and at AF()'s offset target. An unplanned disk failure
/// (`FailDisk`) is a removal with nothing to drain: reads fall back to the
/// surviving copies, and the ordinary reconciliation re-homes every lost
/// copy from a healthy one.
class CmServer {
 public:
  /// Builds an idle server with `config.initial_disks` empty disks.
  static StatusOr<std::unique_ptr<CmServer>> Create(
      const ServerConfig& config);

  CmServer(const CmServer&) = delete;
  CmServer& operator=(const CmServer&) = delete;
  ~CmServer();

  /// Ingests a new CM object: derives its seed, materializes `X0`, places
  /// its blocks per the policy and writes them to the store, `replicas`
  /// copies of each (in [1, current disks], else InvalidArgument). More
  /// than one copy needs the SCADDAR policy (Unimplemented otherwise) and
  /// the simulated tier (FailedPrecondition on a real backend).
  Status AddObject(ObjectId id, int64_t num_blocks,
                   int64_t bitrate_weight = 1, int64_t replicas = 1);

  /// Deletes an object and frees its blocks. Refused while any active
  /// stream is playing it (FailedPrecondition).
  Status RemoveObject(ObjectId id);

  /// Scaling operation: adds a group of `count` disks (online). Newly added
  /// disks start empty; the migration executor fills them in the
  /// background.
  Status ScaleAdd(int64_t count);

  /// Scaling operation: removes the disk group at the given current-epoch
  /// slots (online). The physical disks keep serving reads until drained,
  /// then retire.
  Status ScaleRemove(std::vector<DiskSlot> slots);

  /// Unplanned failure: the placement disk `disk` dies at once. It serves
  /// and sources nothing from now on; its slot is removed from placement
  /// and every copy it held is queued for re-homing from a healthy copy of
  /// its block (a block with none is lost, see `UnreadableBlocks`). NotFound
  /// unless `disk` is a placement disk; FailedPrecondition if it already
  /// failed, if fewer disks than the largest replica count would be left,
  /// or while a real backend or a checkpoint manager is attached (neither
  /// records failed disks). `Tick` also fails the disks an attached fault
  /// injector schedules.
  Status FailDisk(PhysicalDiskId disk);

  /// Blocks with no copy left off failed disks (0 unless a failure hit
  /// every copy of a block before it was re-homed).
  int64_t UnreadableBlocks() const;

  /// True iff appending `op` would break the Lemma 4.3 tolerance for this
  /// server's `b` and `eps` — callers should then `FullRedistribution()`
  /// instead (the paper's recommendation).
  bool WouldExceedTolerance(const ScalingOp& op) const;

  /// The paper's fallback once the random range is exhausted: every object
  /// gets a fresh seed generation and placement restarts from an empty op
  /// log over the current disks. Blocks migrate online like any other
  /// reorganization.
  Status FullRedistribution();

  // --- Adaptive self-triggered reorganization. --------------------------
  /// Replaces the adaptive driver's governor and CoV threshold (validated;
  /// InvalidArgument on non-finite or out-of-range values). The enabled
  /// flag and trigger history carry over. Mirrors the knobs into `config()`
  /// so checkpoint restores and cluster shard templates see them.
  Status ConfigureGovernor(int bits, double eps, double cov_threshold);

  /// Turns the adaptive driver on or off. While on, the server rebases
  /// (full redistribution) before any scaling op that would break the ε
  /// budget, and at end of round when the budget is already spent or the
  /// live per-disk CoV drifts past the configured threshold.
  void SetAutoReorg(bool enabled);

  const AdaptiveReorgDriver& reorg_driver() const { return reorg_; }

  /// Every reorganization the driver has triggered, in round order
  /// (checkpointed; survives kill-restarts).
  const std::vector<ReorgTrigger>& reorg_triggers() const {
    return reorg_.triggers();
  }

  /// Starts a playback stream if admission control allows it; returns the
  /// stream id or ResourceExhausted.
  StatusOr<int64_t> StartStream(ObjectId object);

  /// Re-admits a stream another shard detached (`DetachStreamsFor`): the
  /// same admission check and id order as `StartStream`, then the handoff's
  /// position, pause state and startup bookkeeping. A stream that already
  /// started records no second startup latency; one still waiting records
  /// one that counts its rounds on both shards.
  StatusOr<int64_t> AdoptStream(const StreamHandoff& handoff);

  /// Runs one scheduling round: serve streams, spend leftover bandwidth on
  /// migration, retire drained disks, drop finished streams.
  RoundMetrics Tick();

  /// Detaches every active stream playing `object` and returns their
  /// playback states, in stream-vector (ascending id) order. The streams
  /// vanish from this server (they count as neither completed nor hiccuped
  /// further); the cluster layer re-attaches them on the shard the object
  /// migrated to.
  std::vector<StreamHandoff> DetachStreamsFor(ObjectId object);

  // --- VCR controls (Section 1 motivation #4). ---
  // Each finds the stream by binary search: `streams()` is in ascending id
  // order (ids are issued increasing; compaction, detach and restore keep
  // the order).
  Status PauseStream(int64_t stream_id);
  Status ResumeStream(int64_t stream_id);
  /// Jumps the stream to `block` (clamped into the object's range).
  Status SeekStream(int64_t stream_id, BlockIndex block);

  /// Verifies that the materialized store matches AF() — every copy of
  /// every block on its target, which also proves full redundancy
  /// (meaningful when no migration is pending — otherwise reports
  /// FailedPrecondition).
  Status VerifyIntegrity() const;

  // --- Multi-level checkpoint/restart (src/recovery). -------------------
  /// Attaches (or detaches, with null) the checkpoint manager. The caller
  /// owns it — its locations are the durable state that survives a
  /// kill/restart. Attachment forces the move journal on (checkpoint
  /// restart replays the WAL over snapshot rows) and is refused while a
  /// real-I/O engine is selected (the engine persists its own layout and
  /// journal; checkpointing covers the metadata-simulation tier) or while a
  /// failed disk still holds copies (a snapshot cannot tell it from a
  /// draining one).
  Status AttachCheckpointManager(CheckpointManager* manager);

  /// Attaches `manager` and turns on periodic checkpoints: an L1 set every
  /// `every` rounds, upgraded to an L2 redundant set every `level2_every`
  /// rounds (0 = never). Writes a bootstrap set immediately so a restart
  /// is possible before the first interval elapses.
  Status EnableCheckpoints(CheckpointManager* manager, int64_t every,
                           int64_t level2_every = 0);

  /// Captures the full serving state — policy metadata, op log, the
  /// journal's unfinished suffix, materialized rows, staged copies, stream
  /// cursors and counters. Valid mid-migration: rows + staged + unfinished
  /// journal entries describe the in-between state exactly.
  ServerSnapshot CaptureState() const;

  /// Encodes the current state and writes one checkpoint set at `level`.
  /// Only once the set is durable is the journal's committed prefix
  /// compacted (the set now covers it); a killed write leaves it live for
  /// the restart to replay over the previous set. An injected
  /// snapshot-phase kill marks the server crashed and returns Unavailable.
  Status WriteCheckpoint(int level);

  /// Simulates a process kill and restarts *in place* from the newest valid
  /// checkpoint set plus the surviving journal text. Everything volatile
  /// dies (streams, migration queue, round counters — the restored server
  /// rewinds to the snapshot round with streams at their saved positions);
  /// committed moves newer than the snapshot are replayed from the journal,
  /// so no committed placement is ever lost.
  StatusOr<CheckpointRestoreStats> KillRestartFromCheckpoint();

  /// Builds a fresh server from the newest valid set in `manager` (which
  /// stays attached, so checkpointing continues). `config` supplies the
  /// hardware/simulation knobs; its policy/bits/prng/master_seed must match
  /// the snapshot's semantics. The policy and catalog are rebuilt by
  /// replaying the op log with each object registered at its recorded
  /// epoch, so only deterministic policies ("scaddar", "naive", "mod",
  /// "roundrobin") restore; the directory and ring policies carry RNG state
  /// and report Unimplemented.
  static StatusOr<std::unique_ptr<CmServer>> RestoreFromCheckpoint(
      const ServerConfig& config, CheckpointManager& manager,
      CheckpointRestoreStats* stats = nullptr);

  /// Builds a fresh server from one encoded snapshot document (the
  /// journal embedded in the document is the WAL). The cluster layer uses
  /// this to restore member shards out of a cluster set.
  static StatusOr<std::unique_ptr<CmServer>> FromSnapshotDocument(
      const ServerConfig& config, std::string_view document,
      CheckpointRestoreStats* stats = nullptr);

  /// The attached checkpoint manager, or null.
  CheckpointManager* checkpoint_manager() const { return checkpoint_; }

  // --- Real block I/O. --------------------------------------------------
  /// Switches the storage backend (`MakeStorageBackend` spec; "sim" drops
  /// back to pure simulation). Only legal while the store is empty — block
  /// images are written at ingest, so an established farm cannot change
  /// media under itself. `queue_depth` <= 0 keeps the config value. A real
  /// backend forces the move journal on (real bytes only move under the
  /// WAL protocol) and binds the backend fault hook to whatever fault
  /// injector is attached, now or later.
  Status SelectBackend(std::string_view spec, int queue_depth = 0);

  /// The real-I/O engine, or null when the backend is "sim".
  BlockIoEngine* io_engine() const { return io_engine_.get(); }

  // --- Fault injection & crash recovery. --------------------------------
  /// Attaches (or detaches, with null) the fault engine; it reaches every
  /// hook site through the disk array. The caller owns the injector.
  void AttachFaultInjector(FaultInjector* injector) {
    disks_.set_fault_injector(injector);
  }

  /// True after an injected crash killed the server — mid-round (migration
  /// crash points) or mid-checkpoint (snapshot-phase kill points). A
  /// crashed server ignores `Tick` until `SimulateCrashRestart` or
  /// `KillRestartFromCheckpoint`.
  bool crashed() const { return migration_.crashed() || snapshot_crashed_; }

  /// Simulates a process crash + restart. Volatile state dies: the
  /// migration queue, active streams and round budgets are dropped.
  /// Durable state survives: the store (disk contents), the move journal
  /// (round-tripped through its text form, proving the serialized WAL
  /// carries everything recovery needs), and the policy/catalog metadata.
  /// Recovery then (1) replays the journal so every in-flight move is
  /// fully applied or fully undone, (2) recomputes the retiring-disk set
  /// from store occupancy vs. the placement live set, and (3) re-seeds the
  /// migration queue with a reconciliation scan. Returns what the journal
  /// replay found. Callable at any point, crashed or not.
  StatusOr<JournalRecoveryStats> SimulateCrashRestart();

  // --- Accessors -----------------------------------------------------
  const ServerConfig& config() const { return config_; }
  const Catalog& catalog() const { return catalog_; }
  Catalog& catalog() { return catalog_; }
  const PlacementPolicy& policy() const { return *policy_; }
  const BlockStore& store() const { return store_; }
  const DiskArray& disks() const { return disks_; }
  DiskArray& disks() { return disks_; }
  const MigrationExecutor& migration() const { return migration_; }
  const MoveJournal& journal() const { return journal_; }
  const std::vector<Stream>& streams() const { return streams_; }
  const AdmissionController& admission() const { return admission_; }

  int64_t round() const { return round_; }
  int64_t active_streams() const {
    return static_cast<int64_t>(streams_.size());
  }

  /// Active streams playing `object` — O(1) via a refcount maintained by
  /// `StartStream`/`Tick` (this is what makes `RemoveObject` O(1) in the
  /// stream count).
  int64_t ActiveStreamsFor(ObjectId object) const;

  /// Aggregate committed stream bandwidth: the sum of rates over
  /// `streams()`, paused streams and finished ones not yet compacted
  /// included (blocks/round). O(1): a running total adjusted wherever a
  /// stream joins or leaves `streams()`.
  int64_t ActiveLoad() const { return committed_load_; }

  /// Startup latency (rounds from `StartStream` to the first delivered
  /// block) of every stream that has started playback, in start order.
  /// `Tick`'s serving round appends an entry when it delivers a stream's
  /// first block; a seek before then delivers nothing. The percentile
  /// reports (p99/p999) in the benches and scenario summaries read this.
  const std::vector<int64_t>& startup_latencies() const {
    return startup_latencies_;
  }
  int64_t completed_streams() const { return completed_streams_; }
  int64_t total_hiccups() const { return total_hiccups_; }
  int64_t total_served() const { return total_served_; }

  /// Aggregate bandwidth of the *placement-live* disks (excludes retiring
  /// disks, whose bandwidth is transitional). O(1) between placement
  /// changes: the sum over `policy().log().physical_disks()` is recomputed
  /// on the first call after `policy().placement_key()` changes.
  int64_t PlacementBandwidth() const;

 private:
  explicit CmServer(const ServerConfig& config);

  /// Appends a stream (its id above every current one) and charges its
  /// rate and object refcount. The stream reads the object's copy count.
  Stream& AppendStream(int64_t id, ObjectId object, int64_t num_blocks,
                       int64_t start_round, int64_t rate);

  /// The active stream with `stream_id`, or null.
  Stream* FindStream(int64_t stream_id);

  /// Rebuilds the disk array's live set as policy disks plus still-draining
  /// retiring disks.
  Status SyncDisks();

  /// The journal-recovery step both restarts share: replays the journal
  /// against the store, drops its committed prefix, re-derives the retiring
  /// set (disks outside the placement live set that still hold blocks,
  /// failed disks excluded) and re-queues every block AF() wants elsewhere
  /// — when `rescan`, or while a disk drains.
  StatusOr<JournalRecoveryStats> RecoverFromJournal(bool rescan);

  /// Rebuilds this (freshly reset) server from a decoded snapshot plus the
  /// surviving journal text (`live_journal` wins over the snapshot for
  /// moves that progressed after the capture).
  Status LoadFromState(const ServerSnapshot& snapshot,
                       std::string_view live_journal,
                       CheckpointRestoreStats* stats);

  /// End-of-round checkpoint cadence (`checkpoint_every` /
  /// `checkpoint_level2_every`); tolerates injected snapshot kills.
  void MaybeCheckpoint();

  /// Metadata mutations (ingest, scaling) are not journaled — an immediate
  /// L1 set after each one is what makes them durable. No-op when no
  /// manager is attached.
  Status MetadataBarrier();

  /// Builds the adaptive driver from config knobs (governor_bits falls back
  /// to bits when 0).
  static StatusOr<AdaptiveReorgDriver> BuildReorgDriver(
      const ServerConfig& config);

  /// Budget gate before a scaling op: if the driver is on and `op` would
  /// break the ε budget, record a trigger and rebase first (the rebase
  /// resets the op log, making `op` affordable). Physical-id order is
  /// preserved across the rebase, so removal slot numbers stay valid.
  Status MaybeRebaseBeforeOp(const ScalingOp& op);

  /// End-of-round driver check: budget overrun first (a tightened or newly
  /// enabled governor can stand outside budget with no op in sight), then
  /// the paced CoV evaluation over the live per-disk counts.
  void MaybeAutoReorgOnRound();

  ServerConfig config_;
  Catalog catalog_;
  std::unique_ptr<PlacementPolicy> policy_;
  DiskArray disks_;
  std::unique_ptr<BlockIoEngine> io_engine_;  // Null when backend == "sim".
  BlockStore store_;
  RoundScheduler scheduler_;
  MigrationExecutor migration_;
  AdaptiveReorgDriver reorg_;
  MoveJournal journal_;
  CheckpointManager* checkpoint_ = nullptr;  // Not owned; may be null.
  bool snapshot_crashed_ = false;  // Injected kill inside a checkpoint write.
  AdmissionController admission_;
  std::vector<Stream> streams_;  // Ascending id order.
  std::unordered_map<ObjectId, int64_t> streams_per_object_;
  int64_t committed_load_ = 0;  // Sum of rates over `streams_`.
  // `PlacementBandwidth` cache and the placement key it was computed at
  // (0: never; keys start at 1). A server is driven from one thread.
  mutable uint64_t bandwidth_key_ = 0;
  mutable int64_t placement_bandwidth_ = 0;
  std::vector<PhysicalDiskId> retiring_;
  std::vector<int64_t> startup_latencies_;

  int64_t round_ = 0;
  int64_t next_stream_id_ = 0;
  int64_t completed_streams_ = 0;
  int64_t total_hiccups_ = 0;
  int64_t total_served_ = 0;
};

}  // namespace scaddar

#endif  // SCADDAR_SERVER_SERVER_H_
