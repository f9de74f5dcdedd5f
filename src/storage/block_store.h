#ifndef SCADDAR_STORAGE_BLOCK_STORE_H_
#define SCADDAR_STORAGE_BLOCK_STORE_H_

#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "core/redistribution.h"
#include "core/types.h"
#include "placement/policy.h"
#include "storage/disk_array.h"
#include "util/statusor.h"

namespace scaddar {

class BlockIoEngine;

/// The *materialized* truth of where every block physically resides. The
/// placement policy computes where blocks *should* be; the block store
/// records where they *are*. During an online scaling operation the two
/// disagree until the migration finishes — reads must go through the store,
/// which is exactly how the paper's server keeps serving during
/// reorganization. Streams read their object's row in place, through a
/// pointer they re-fetch only when `layout_key()` changes.
///
/// If constructed with a `DiskArray`, occupancy counters are kept in sync.
class BlockStore {
 public:
  explicit BlockStore(DiskArray* disks = nullptr);

  // A copy would carry the layout key to rows at other addresses.
  BlockStore(const BlockStore&) = delete;
  BlockStore& operator=(const BlockStore&) = delete;
  BlockStore(BlockStore&&) = default;
  BlockStore& operator=(BlockStore&&) = default;

  /// Attaches (or detaches, with null) the real-I/O engine. With an engine
  /// attached every mutation forwards to it *before* mutating the
  /// bookkeeping — block images move on the backing medium in lockstep
  /// with the location map, and an engine failure leaves the store
  /// untouched. Without one the store is the pure simulation it always was.
  void AttachIoEngine(BlockIoEngine* io) { io_ = io; }
  BlockIoEngine* io_engine() const { return io_; }

  /// Materializes an object whose block `i` lives on `locations[i]`
  /// (non-empty; physical ids are non-negative, else InvalidArgument).
  Status PlaceObject(ObjectId id, const std::vector<PhysicalDiskId>& locations);

  /// Deletes an object's blocks.
  Status DropObject(ObjectId id);

  /// Where block `ref` currently resides.
  StatusOr<PhysicalDiskId> LocationOf(BlockRef ref) const;

  /// Row view of an object's materialized locations: `row[i]` is block `i`'s
  /// physical disk. The span stays valid while `layout_key()` is unchanged;
  /// entries change in place as moves apply (batch consumers — streams,
  /// migration rounds — pay one hash lookup per object instead of per
  /// block).
  StatusOr<std::span<const PhysicalDiskId>> LocationsOf(ObjectId id) const;

  /// Change token for where the rows live: a process-unique value drawn
  /// when the store is built and again by every `PlaceObject` and
  /// `DropObject`. While it is unchanged, every row pointer taken from
  /// `LocationsOf` stays valid and reads the current locations, since moves
  /// update entries in place. Same idiom as
  /// `PlacementPolicy::placement_key()`.
  uint64_t layout_key() const { return layout_key_; }

  /// Monotonic counter bumped by every successful mutation, moves and
  /// staged copies included. The migration executor compares it to detect
  /// row changes it did not make itself, the same contract as
  /// `OpLog::revision()` on the placement side.
  int64_t mutation_revision() const { return mutation_revision_; }

  /// Executes one relocation; fails (without side effects) if the block is
  /// not currently on `move.from_physical`. Metadata only: with an I/O
  /// engine attached it is FailedPrecondition, because real bytes move
  /// only through staged copies (`StageCopy`, then `CommitStagedMove`).
  Status ApplyMove(const BlockMove& move);

  // --- Staged copies (the journaled move protocol's middle state). -------
  // A staged copy models the durable bytes a migration has written to the
  // target disk *before* the location flip makes them authoritative: the
  // block is still served from its current disk, but the target's occupancy
  // is charged. A crash between stage and commit leaves the staged copy
  // behind for `MoveJournal::Recover` to roll forward or release.

  /// Charges a durable copy of `ref`'s bytes to `to`. Fails if the block is
  /// unknown, already on `to`, or already staged somewhere.
  Status StageCopy(BlockRef ref, PhysicalDiskId to);

  /// Promotes the staged copy to the authoritative location: the block now
  /// lives on `to` and `from`'s occupancy is released. Fails (without side
  /// effects) unless the block is on `from` and staged exactly to `to`.
  Status CommitStagedMove(BlockRef ref, PhysicalDiskId from,
                          PhysicalDiskId to);

  /// Releases a staged copy without flipping the location (crash recovery
  /// rollback of a torn or orphaned copy).
  Status AbortStagedCopy(BlockRef ref);

  /// True when `ref`'s staged bytes are intact on the backing medium (reads
  /// them back through the attached engine). Trivially true without an
  /// engine — simulated staged copies cannot tear. NotFound when nothing is
  /// staged. `MoveJournal::Recover` gates roll-forward on this.
  StatusOr<bool> ValidateStagedImage(BlockRef ref) const;

  /// Where `ref` is currently staged to, or NotFound.
  StatusOr<PhysicalDiskId> StagedTarget(BlockRef ref) const;

  /// Every outstanding staged copy in deterministic (object, block) order —
  /// the recovery sweep enumerates these to release orphans.
  std::vector<std::pair<BlockRef, PhysicalDiskId>> StagedCopies() const;

  /// Outstanding staged copies (0 whenever no move is mid-protocol).
  int64_t staged_blocks() const { return staged_count_; }

  /// Executes a whole plan; stops at the first failing move.
  Status ApplyPlan(const MovePlan& plan);

  /// Verifies that every stored block is exactly where AF() says it should
  /// be — the RF()/AF() agreement check, one `LocateAllBlocks` batch pass
  /// per object. Fails (InternalError) on the first diverging row, and
  /// while staged copies are outstanding: a converged store has no move
  /// mid-protocol.
  Status VerifyAgainstPolicy(const PlacementPolicy& policy) const;

  int64_t total_blocks() const { return total_blocks_; }

  /// Blocks per physical disk (only disks that hold blocks appear).
  const std::unordered_map<PhysicalDiskId, int64_t>& per_disk_counts() const {
    return per_disk_counts_;
  }

  /// Blocks currently on `disk`.
  int64_t CountOn(PhysicalDiskId disk) const;

 private:
  /// Adds (`sign` = 1) or removes (-1) `counts[d]` blocks on every disk
  /// `d`, one `AdjustDisk` call per disk.
  void AdjustDisks(const std::vector<int64_t>& counts, int64_t sign);
  void AdjustDisk(PhysicalDiskId disk, int64_t delta);

  DiskArray* disks_;  // Not owned; may be null.
  BlockIoEngine* io_ = nullptr;  // Not owned; may be null.
  std::unordered_map<ObjectId, std::vector<PhysicalDiskId>> locations_;
  std::unordered_map<PhysicalDiskId, int64_t> per_disk_counts_;
  // staged_[object][block] = disk holding the not-yet-committed copy.
  std::unordered_map<ObjectId, std::unordered_map<BlockIndex, PhysicalDiskId>>
      staged_;
  int64_t staged_count_ = 0;
  int64_t total_blocks_ = 0;
  int64_t mutation_revision_ = 0;
  uint64_t layout_key_;
};

}  // namespace scaddar

#endif  // SCADDAR_STORAGE_BLOCK_STORE_H_
