#ifndef SCADDAR_CORE_REDISTRIBUTION_H_
#define SCADDAR_CORE_REDISTRIBUTION_H_

#include <cstdint>
#include <vector>

#include "core/op_log.h"
#include "core/types.h"
#include "stats/movement.h"
#include "util/statusor.h"

namespace scaddar {

/// One physical block relocation produced by the redistribution function
/// `RF()`.
struct BlockMove {
  BlockRef block;
  DiskSlot from_slot = 0;
  DiskSlot to_slot = 0;
  PhysicalDiskId from_physical = 0;
  PhysicalDiskId to_physical = 0;

  friend bool operator==(const BlockMove&, const BlockMove&) = default;
};

/// The output of `RF()` for one scaling operation: every block that must
/// change physical disks, plus accounting of how many blocks were examined.
class MovePlan {
 public:
  MovePlan() = default;

  void Add(BlockMove move) { moves_.push_back(move); }
  void set_blocks_considered(int64_t n) { blocks_considered_ = n; }

  /// Pre-sizes the move vector. The planners pass the RO1-expected move
  /// count (`z_j/N_j · blocks` for additions), so million-block plans grow
  /// without `push_back` reallocation churn.
  void Reserve(int64_t n) {
    moves_.reserve(static_cast<size_t>(n < 0 ? 0 : n));
  }

  const std::vector<BlockMove>& moves() const { return moves_; }
  int64_t num_moves() const { return static_cast<int64_t>(moves_.size()); }
  int64_t blocks_considered() const { return blocks_considered_; }

  /// RO1 accounting against the theoretical minimum for `n_prev -> n_cur`.
  MovementStats ToMovementStats(int64_t n_prev, int64_t n_cur) const;

 private:
  std::vector<BlockMove> moves_;
  int64_t blocks_considered_ = 0;
};

/// Non-owning view of one object's original random numbers `X0(i)`.
/// `start_epoch` is the epoch at which the object was written: its REMAP
/// chain begins there (0 for objects that predate all scaling operations).
struct ObjectBlocksView {
  ObjectId object = 0;
  const std::vector<uint64_t>* x0 = nullptr;  // Must outlive the call.
  Epoch start_epoch = 0;
};

/// The paper's `RF()` for scaling operation `j` (1-based, in
/// [1, log.num_ops()], checked): computes which blocks must move between
/// epochs `j-1` and `j`. Per Section 4: on additions the REMAP chain is
/// evaluated for *every* block (any block may win a slot on a new disk); on
/// removals only blocks resident on removed disks relocate — the plan
/// contains exactly those blocks whose *physical* disk changes.
///
/// Evaluation is batched through `CompiledLog` step-major kernels: one
/// chain pass reads each block at both `j-1` and `j`. Moves come out in
/// input order: objects as given, blocks ascending.
MovePlan PlanOperation(const OpLog& log, Epoch j,
                       const std::vector<ObjectBlocksView>& objects);

/// Plans the paper's fallback when Lemma 4.3's precondition is violated:
/// a complete redistribution onto a fresh placement. `from` maps blocks via
/// (`from_log` replayed over `from_x0`); `to` via (`to_log` over `to_x0`,
/// typically a new seed generation with an empty log). Both views must
/// enumerate the same objects with the same block counts (checked). Every
/// block whose physical disk differs is emitted. Batched and ordered like
/// `PlanOperation`.
MovePlan PlanFullRedistribution(const OpLog& from_log,
                                const std::vector<ObjectBlocksView>& from_x0,
                                const OpLog& to_log,
                                const std::vector<ObjectBlocksView>& to_x0);

}  // namespace scaddar

#endif  // SCADDAR_CORE_REDISTRIBUTION_H_
