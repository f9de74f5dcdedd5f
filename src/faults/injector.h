#ifndef SCADDAR_FAULTS_INJECTOR_H_
#define SCADDAR_FAULTS_INJECTOR_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/types.h"
#include "random/prng.h"
#include "util/statusor.h"

namespace scaddar {

/// The durable phases of one journaled block move, in commit order (the
/// write-ahead protocol in `MoveJournal`). Crash points are keyed to the
/// boundary *immediately after* each phase's durable write, so every
/// intermediate on-disk state the protocol can produce is reachable.
enum class MovePhase {
  kIntentLogged = 0,     // WAL intent record written.
  kCopyStaged = 1,       // Block bytes staged on the target disk.
  kCopyLogged = 2,       // WAL copied record written.
  kLocationFlipped = 3,  // Store now serves the block from the target.
  kCommitLogged = 4,     // WAL commit record written.
};
inline constexpr int kNumMovePhases = 5;

/// The durable phases of one checkpoint-set write (`CheckpointManager`), in
/// write order. Kill points at these boundaries produce every torn-set state
/// the multi-level scheme must survive: nothing written, a primary fragment
/// without its redundancy, and a complete set (the benign case).
enum class SnapshotPhase {
  kCaptured = 0,        // State captured in memory; nothing durable yet.
  kPrimaryWritten = 1,  // First fragment durable; redundancy still missing.
  kSetComplete = 2,     // Every fragment durable; the set is valid.
};
inline constexpr int kNumSnapshotPhases = 3;

/// What a scheduled fault does when it fires.
enum class FaultKind {
  /// Kill the process at a (move ordinal, phase) boundary. The executor
  /// stops dead; only state written durably before the boundary survives.
  kCrash,
  /// Unplanned disk death at the start of a round (consumed by
  /// `CmServer::Tick` through `FailDisk`: an Eq. 3a/3b removal with zero
  /// drain time).
  kDiskFail,
  /// Probabilistic transient I/O error on block transfers and replica
  /// reads. Fires per attempt with `probability`, from the injector's
  /// seeded generator — identical schedules replay identically.
  kTransientError,
  /// Invoke the registered test hook just before a move ordinal executes
  /// (used to race scaling operations against a migration round).
  kHook,
  /// Probabilistic fault on *real* storage-backend transfers (the
  /// `StorageBackend` fault hook): an op completes with EIO or a short
  /// transfer instead of touching/filling the whole block image.
  kBackendError,
  /// Kill the process at a (snapshot ordinal, snapshot phase) boundary
  /// inside a checkpoint-set write. Fragments durable before the boundary
  /// survive — possibly a torn set the loader must reject.
  kSnapshotCrash,
  /// Flip one byte in the checkpoint fragment being written at a snapshot
  /// location (silent media corruption; caught by checksum at load).
  kSnapshotCorrupt,
};

/// What a kBackendError event does to the transfer it hits.
enum class BackendFaultKind {
  kEio = 0,    // Op fails outright; the medium is untouched.
  kShort = 1,  // Op transfers ~half the block (a torn/short write or read).
};

/// One scheduled fault. Events are keyed to round numbers and, for crash
/// and hook events, to journaled-move ordinals and migration phases.
struct FaultEvent {
  FaultKind kind = FaultKind::kCrash;
  /// The event is armed only during this round; -1 arms it every round.
  int64_t round = -1;
  /// kCrash / kHook: fire at this 0-based move ordinal. The ordinal counts
  /// the moves the migration executor attempts — queue entries that passed
  /// the round's bandwidth gate — across rounds since construction or
  /// `ResetMoveCount`. Entries the gate turns away and entries that retire
  /// for free are not counted. A journaled move keeps the ordinal it was
  /// staged at through the round's commit pass, so a crash at a
  /// commit-side phase (kCopyLogged and later) names the same move.
  /// kSnapshotCrash / kSnapshotCorrupt: the 0-based snapshot ordinal
  /// (snapshots counted across the injector's lifetime by `BeginSnapshot`).
  int64_t move = 0;
  /// kCrash: the phase boundary of that move to die at.
  MovePhase phase = MovePhase::kIntentLogged;
  /// kSnapshotCrash: the snapshot-phase boundary to die at.
  SnapshotPhase snapshot_phase = SnapshotPhase::kCaptured;
  /// kDiskFail: the disk to kill. kTransientError: restrict errors to
  /// transfers/reads touching this disk (-1 = any disk).
  /// kSnapshotCorrupt: the snapshot location to corrupt (-1 = any).
  PhysicalDiskId disk = -1;
  /// kTransientError / kBackendError: per-attempt failure probability.
  double probability = 0.0;
  /// kBackendError: what the fault does to the transfer.
  BackendFaultKind backend = BackendFaultKind::kEio;

  friend bool operator==(const FaultEvent&, const FaultEvent&) = default;
};

/// Shape of `FaultSchedule::Random` output.
struct RandomScheduleOptions {
  int64_t crashes = 1;            // kCrash events at random (move, phase).
  int64_t max_crash_move = 32;    // Crash move ordinals drawn from [0, this).
  int64_t disk_failures = 0;      // kDiskFail events.
  int64_t max_round = 256;        // Failure rounds drawn from [1, this).
  int64_t failure_spacing = 64;   // Minimum rounds between disk failures.
  int64_t max_disk_id = 16;       // Failure targets drawn from [0, this).
  double transient_probability = 0.0;  // > 0 adds one any-disk error event.
};

/// A deterministic, replayable list of fault events. Schedules serialize to
/// a line-oriented text form (see docs/fault_injection.md) and can be
/// generated from a seed, so a failing run is reproduced by its seed alone.
class FaultSchedule {
 public:
  FaultSchedule() = default;

  /// A seeded random schedule: same seed + options, same events.
  static FaultSchedule Random(uint64_t seed,
                              const RandomScheduleOptions& options);

  void Add(const FaultEvent& event) { events_.push_back(event); }
  const std::vector<FaultEvent>& events() const { return events_; }
  int64_t num_events() const { return static_cast<int64_t>(events_.size()); }

  /// Text form: one `crash|fail|transient|hook|backend|snapcrash|
  /// snapcorrupt` line per event; round-trips via `Deserialize`.
  std::string Serialize() const;
  static StatusOr<FaultSchedule> Deserialize(std::string_view text);

  friend bool operator==(const FaultSchedule& a, const FaultSchedule& b) {
    return a.events_ == b.events_;
  }

 private:
  std::vector<FaultEvent> events_;
};

/// The runtime fault engine. Attached to a `DiskArray` (and read from there
/// by the migration executor and the servers), it answers "does a fault
/// fire here?" at every hook point. Detached (the default null pointer) the
/// hooks cost one branch — the zero-cost-when-disabled contract.
///
/// One-shot events (crash, hook, disk failure) disarm after firing so a
/// post-recovery rerun of the same rounds proceeds cleanly; probabilistic
/// events stay armed and draw from the seeded generator.
class FaultInjector {
 public:
  explicit FaultInjector(FaultSchedule schedule, uint64_t seed = 0);

  /// Round gate: called once at the top of every server round.
  void BeginRound(int64_t round);

  /// Disks scheduled to die this round (kDiskFail events; each returned
  /// once). `CmServer::Tick` calls this right after `BeginRound`.
  std::vector<PhysicalDiskId> TakeDiskFailures();

  /// Called by the executor when a move is about to execute (its entry
  /// passed the bandwidth gate); advances the move ordinal and fires any
  /// kHook event scheduled for it.
  void BeginMove();

  /// True iff a kCrash event fires at this phase boundary of the current
  /// move. The caller must then abandon all in-memory state.
  bool CrashAt(MovePhase phase);

  /// True iff a transient error hits a transfer from `from` to `to`.
  bool FailTransfer(PhysicalDiskId from, PhysicalDiskId to);

  /// True iff a transient error hits a block read from `disk`.
  bool FailRead(PhysicalDiskId disk);

  /// Called by `CheckpointManager::Write` when a checkpoint set is about to
  /// be captured; advances the snapshot ordinal that kSnapshotCrash and
  /// kSnapshotCorrupt events key on.
  void BeginSnapshot();

  /// True iff a kSnapshotCrash event fires at this phase boundary of the
  /// current snapshot. The caller must treat the process as killed.
  bool CrashAtSnapshot(SnapshotPhase phase);

  /// True iff a kSnapshotCorrupt event hits the fragment being written at
  /// `location` during the current snapshot (one-shot per event).
  bool CorruptSnapshotAt(int64_t location);

  /// Consulted by the storage backend's fault hook for every real block
  /// transfer on `disk`. Armed kBackendError events draw per-op from the
  /// seeded generator (first hit wins); returns the fault to inject, or
  /// nothing. Same replayability contract as `FailTransfer`.
  std::optional<BackendFaultKind> NextBackendFault(PhysicalDiskId disk);

  /// Test hook invoked by kHook events (e.g. enqueue a scaling operation
  /// mid-round to exercise the executor's epoch guard).
  void SetHook(std::function<void()> hook) { hook_ = std::move(hook); }

  /// Restarts move-ordinal counting (schedules keyed to a fresh executor).
  void ResetMoveCount() { move_ = -1; }

  /// The ordinal `BeginMove` last advanced to (-1 before any move).
  int64_t current_move() const { return move_; }

  /// Points the count at `ordinal` *without* firing hooks. A journaled
  /// round stages every move in its pass and completes the write-ahead
  /// protocol in a commit pass; that pass points the count back at each
  /// staged move's ordinal for its commit-side phase boundaries
  /// (kCopyLogged and later), then at the pass's last attempt again, so
  /// per-move crash events target the move they name and later moves keep
  /// counting from where the pass left off.
  void ResumeMove(int64_t ordinal) { move_ = ordinal; }

  const FaultSchedule& schedule() const { return schedule_; }
  int64_t current_round() const { return round_; }
  int64_t moves_seen() const { return move_ + 1; }
  int64_t crashes_fired() const { return crashes_fired_; }
  int64_t hooks_fired() const { return hooks_fired_; }
  int64_t transient_errors_fired() const { return transient_errors_fired_; }
  int64_t disk_failures_fired() const { return disk_failures_fired_; }
  int64_t backend_faults_fired() const { return backend_faults_fired_; }
  int64_t snapshot_crashes_fired() const { return snapshot_crashes_fired_; }
  int64_t snapshot_corruptions_fired() const {
    return snapshot_corruptions_fired_;
  }

  /// The ordinal `BeginSnapshot` last advanced to (-1 before any snapshot).
  int64_t current_snapshot() const { return snapshot_; }

 private:
  bool RoundMatches(const FaultEvent& event) const {
    return event.round < 0 || event.round == round_;
  }
  bool TransientHits(PhysicalDiskId a, PhysicalDiskId b);

  FaultSchedule schedule_;
  std::vector<bool> fired_;  // Parallel to schedule_.events().
  std::unique_ptr<Prng> prng_;
  std::function<void()> hook_;
  int64_t round_ = -1;
  int64_t move_ = -1;
  int64_t snapshot_ = -1;
  int64_t crashes_fired_ = 0;
  int64_t hooks_fired_ = 0;
  int64_t transient_errors_fired_ = 0;
  int64_t disk_failures_fired_ = 0;
  int64_t backend_faults_fired_ = 0;
  int64_t snapshot_crashes_fired_ = 0;
  int64_t snapshot_corruptions_fired_ = 0;
};

}  // namespace scaddar

#endif  // SCADDAR_FAULTS_INJECTOR_H_
