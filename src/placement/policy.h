#ifndef SCADDAR_PLACEMENT_POLICY_H_
#define SCADDAR_PLACEMENT_POLICY_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/op_log.h"
#include "core/scaling_op.h"
#include "core/types.h"
#include "util/statusor.h"

namespace scaddar {

/// A placement policy is a concrete (RF(), AF()) pair: it decides where
/// every block of every registered object lives, and how blocks relocate
/// when the disk array scales. SCADDAR is one policy; the paper's
/// alternatives (naive remap, complete redistribution, directory
/// bookkeeping, round-robin striping) and the modern comparators (jump
/// hash, consistent hashing) implement the same interface so the benches
/// can run them side by side.
///
/// All policies share the scaling history (an `OpLog`) and the registered
/// objects' `X0` streams; subclasses add whatever per-policy state their
/// `AF()` needs (SCADDAR: none; directory: every block's location).
class PlacementPolicy {
 public:
  virtual ~PlacementPolicy() = default;

  PlacementPolicy(const PlacementPolicy&) = delete;
  PlacementPolicy& operator=(const PlacementPolicy&) = delete;

  /// Stable policy name ("scaddar", "naive", ...).
  virtual std::string_view name() const = 0;

  /// Registers an object and its per-block random numbers, kept as `copies`
  /// copies of every block (Section 6's replication). Copy `r` of block `i`
  /// of an object with `B` blocks is row index `r*B + i` of the batch AF()
  /// calls below, so an object spans `copies * B` rows; copy 0 is the
  /// primary and the only one `Locate` resolves. Fails on duplicate ids and
  /// on `copies < 1`; `copies > 1` is Unimplemented unless the policy places
  /// copies (SCADDAR's offset family). Objects must be registered in the
  /// same order across policies for movement comparisons to be meaningful.
  Status AddObject(ObjectId id, std::vector<uint64_t> x0, int64_t copies = 1);

  /// Deletes an object (its blocks simply stop existing — freeing space
  /// needs no relocation under any policy). NotFound if absent.
  Status RemoveObject(ObjectId id);

  /// Applies scaling operation `j = log().num_ops() + 1` (Definition 3.3),
  /// relocating blocks per the policy's redistribution function.
  Status ApplyOp(const ScalingOp& op);

  /// The access function `AF()`: the physical disk currently holding
  /// `block` of `object` (which must be registered; checked).
  virtual PhysicalDiskId Locate(ObjectId object, BlockIndex block) const = 0;

  /// Batch `AF()`: fills `out` with the physical disk of every row of
  /// `object`, copies included (resized to `copies * B`). The default loops
  /// over `Locate`; policies with a batch fast path (SCADDAR's step-major
  /// compiled kernels) override it so bulk consumers — reconciliation,
  /// snapshots, planners — pay one virtual call per object, not per block.
  virtual void LocateAllBlocks(ObjectId object,
                               std::vector<PhysicalDiskId>& out) const;

  /// Batch `AF()` over an arbitrary set of row indices of one object
  /// (sizes must match; indices bounds-checked). The migration executor
  /// resolves a round's queued blocks per object through this.
  virtual void LocateMany(ObjectId object, std::span<const BlockIndex> blocks,
                          std::span<PhysicalDiskId> out) const;

  /// Scaling history (shared semantics across policies).
  const OpLog& log() const { return log_; }

  /// Change token for `AF()`: a process-unique value drawn when the policy
  /// is built and again by every `AddObject`, `RemoveObject` and `ApplyOp`.
  /// Equal keys mean the same policy instance with the same placement.
  /// `log().revision()` cannot say that much: a fresh policy (the full
  /// redistribution fallback) restarts it at 0, so a swapped-in policy can
  /// reach the revision its predecessor had.
  uint64_t placement_key() const { return placement_key_; }
  int64_t current_disks() const { return log_.current_disks(); }

  /// Total registered blocks across all objects.
  int64_t total_blocks() const { return total_blocks_; }

  /// Number of registered objects.
  int64_t num_objects() const { return static_cast<int64_t>(objects_.size()); }

  /// Per-disk block counts, indexed like `log().physical_disks()` (i.e. by
  /// live-disk position). O(total blocks) — calls Locate for every block.
  std::vector<int64_t> PerDiskCounts() const;

  /// Physical disk of every block in deterministic (registration order,
  /// block index) order; two snapshots from different epochs diff into
  /// movement stats.
  std::vector<PhysicalDiskId> AssignmentSnapshot() const;

  /// Registered objects (id, X0 values) in registration order — read-only
  /// enumeration for migration and verification layers.
  const std::vector<std::pair<ObjectId, std::vector<uint64_t>>>&
  objects_view() const {
    return objects_;
  }

  /// Number of blocks of a registered object (checked).
  int64_t NumBlocksOf(ObjectId id) const;

  /// Copies per block of a registered object (checked).
  int64_t CopiesOf(ObjectId id) const;

  /// The largest copy count any registered object holds (1 when none).
  int64_t MaxCopies() const;

  /// Epoch at which the object was registered (checked). Epoch-aware
  /// policies (SCADDAR, naive) start the object's remap chain there: an
  /// object written after `j` scaling operations is initially placed as
  /// `X0 mod N_j` and has no earlier history — this both matches how a
  /// real server ingests new content and avoids burning random range on
  /// operations that predate the object.
  Epoch epoch_added(ObjectId id) const;

 protected:
  /// `n0` disks before any scaling operations (must be > 0; checked).
  explicit PlacementPolicy(int64_t n0);

  /// Starts from an explicit epoch-0 log (no operations yet; checked) —
  /// used to rebuild placement over an existing array's physical ids after
  /// a full redistribution.
  explicit PlacementPolicy(OpLog initial_log);

  /// Hook: called after an object's X0 vector is stored.
  virtual Status OnObjectAdded(ObjectId id);

  /// True iff the batch AF() resolves copy rows (`AddObject`'s `copies`).
  virtual bool PlacesCopies() const { return false; }

  /// Hook: called before an object's state is dropped.
  virtual Status OnObjectRemoved(ObjectId id);

  /// Hook: called after `op` was validated and appended to the log; the
  /// pre-op state is `log().physical_disks_at(log().num_ops() - 1)`.
  virtual Status OnOp(const ScalingOp& op) = 0;

  /// X0 values of a registered object (checked).
  const std::vector<uint64_t>& x0_of(ObjectId id) const;

  /// One registered object's AF() inputs, found with one hash probe.
  struct ObjectEntry {
    const std::vector<uint64_t>& x0;
    Epoch epoch;
    int64_t copies;
  };
  ObjectEntry entry_of(ObjectId id) const;  // Checked.

  /// Registered objects in registration order.
  const std::vector<std::pair<ObjectId, std::vector<uint64_t>>>& objects()
      const {
    return objects_;
  }

 private:
  OpLog log_;
  std::vector<std::pair<ObjectId, std::vector<uint64_t>>> objects_;
  std::vector<Epoch> added_epoch_;  // Parallel to objects_.
  std::vector<int64_t> copies_;     // Parallel to objects_.
  std::unordered_map<ObjectId, size_t> object_index_;
  int64_t total_blocks_ = 0;
  uint64_t placement_key_ = 0;
};

}  // namespace scaddar

#endif  // SCADDAR_PLACEMENT_POLICY_H_
