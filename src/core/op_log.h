#ifndef SCADDAR_CORE_OP_LOG_H_
#define SCADDAR_CORE_OP_LOG_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/scaling_op.h"
#include "core/types.h"
#include "util/intmath.h"
#include "util/statusor.h"

namespace scaddar {

/// The complete history of scaling operations on a disk array — the only
/// state SCADDAR needs to locate any block (contrast with a per-block
/// directory of millions of entries; this is the "storage structure for
/// recording scaling operations" from Section 1).
///
/// The log tracks, per epoch `j`:
///  - `N_j`, the disk count (Definition 3.3);
///  - the slot -> physical-disk-id mapping (slots are compacted on removal,
///    physical ids are stable and never reused);
///  - the running product `Pi_k = N0 * N1 * ... * Nk` from Lemma 4.2/4.3,
///    used to decide when the shrinking random range forces a full
///    redistribution.
class OpLog {
 public:
  /// Creates a log for an array that starts with `n0` disks; fails if
  /// `n0 <= 0`. Initial physical ids are `0 .. n0-1`.
  static StatusOr<OpLog> Create(int64_t n0);

  /// Creates a log whose epoch-0 disks carry the given (distinct,
  /// non-negative) physical ids. Used when restarting placement over an
  /// existing array — e.g. the full-redistribution fallback, where the new
  /// epoch 0 must address the disks that are already spinning.
  static StatusOr<OpLog> CreateWithIds(std::vector<PhysicalDiskId> ids);

  OpLog(const OpLog&) = default;
  OpLog& operator=(const OpLog&) = default;
  OpLog(OpLog&&) noexcept = default;
  OpLog& operator=(OpLog&&) noexcept = default;

  /// Appends scaling operation `j = num_ops()+1`. Validates the op against
  /// the current epoch: removals must name existing slots and must leave at
  /// least one disk. On success updates `N_j`, the physical mapping and
  /// `Pi`.
  Status Append(const ScalingOp& op);

  /// Number of scaling operations performed (the paper's `j`).
  int64_t num_ops() const { return static_cast<int64_t>(ops_.size()); }

  /// Monotonic counter bumped by every successful `Append`. Lets holders of
  /// a compiled snapshot (`CompiledLog`) detect staleness with one integer
  /// compare instead of recompiling defensively; unlike `num_ops()` it is
  /// explicitly a change-detection token, not a semantic quantity.
  int64_t revision() const { return revision_; }

  /// `N_j` for `j` in `[0, num_ops()]` (checked).
  int64_t disks_after(Epoch j) const;

  /// `N_0`.
  int64_t initial_disks() const { return disk_counts_.front(); }

  /// Current disk count `N_{num_ops()}`.
  int64_t current_disks() const { return disk_counts_.back(); }

  /// The `j`-th operation, 1-based as in the paper (`j` in [1, num_ops()],
  /// checked).
  const ScalingOp& op(Epoch j) const;

  /// Slot -> physical disk id at epoch `j` (checked). The vector has
  /// `disks_after(j)` entries.
  const std::vector<PhysicalDiskId>& physical_disks_at(Epoch j) const;

  /// Slot -> physical disk id for the current epoch.
  const std::vector<PhysicalDiskId>& physical_disks() const {
    return physical_by_epoch_.back();
  }

  /// The next physical id an addition would assign (ids are monotonic).
  PhysicalDiskId next_physical_id() const { return next_physical_id_; }

  /// Running product `Pi_k = N0 * ... * Nk` (saturating).
  const SaturatingProduct& pi() const { return pi_; }

  /// Lemma 4.3 precondition: `Pi_k <= R0 * eps / (1 + eps)`. While this
  /// holds, the unfairness coefficient stays below `eps`. `r0` is the
  /// initial random range (2^b - 1) and `eps` must be > 0 (checked).
  bool SatisfiesTolerance(uint64_t r0, double eps) const;

  /// True iff appending `op` would break `SatisfiesTolerance(r0, eps)` —
  /// the implementation of the paper's "find out whether the next operation
  /// will lead to a violation of the precondition in Lemma 4.3".
  bool WouldExceedTolerance(const ScalingOp& op, uint64_t r0,
                            double eps) const;

  /// Text serialization "N0;op1;op2;..."; round-trips via `Deserialize`.
  std::string Serialize() const;
  static StatusOr<OpLog> Deserialize(std::string_view text);

  friend bool operator==(const OpLog& a, const OpLog& b) {
    return a.disk_counts_ == b.disk_counts_ && a.ops_ == b.ops_;
  }

 private:
  explicit OpLog(int64_t n0);

  std::vector<ScalingOp> ops_;            // ops_[j-1] is operation j.
  std::vector<int64_t> disk_counts_;      // disk_counts_[j] is N_j.
  std::vector<std::vector<PhysicalDiskId>> physical_by_epoch_;
  PhysicalDiskId next_physical_id_ = 0;
  SaturatingProduct pi_;
  int64_t revision_ = 0;
};

}  // namespace scaddar

#endif  // SCADDAR_CORE_OP_LOG_H_
