#ifndef SCADDAR_FAULTS_RECOVERY_H_
#define SCADDAR_FAULTS_RECOVERY_H_

#include <cstdint>
#include <vector>

#include "placement/scaddar_policy.h"
#include "util/statusor.h"

namespace scaddar {

/// One data transfer of a failure recovery: materialize a copy of `block`
/// on `write_to` by reading its surviving replica from `read_from`.
struct RecoveryAction {
  BlockRef block;
  PhysicalDiskId read_from = 0;
  PhysicalDiskId write_to = 0;
  /// True if this action rebuilds the block's primary copy, false for the
  /// mirror copy.
  bool rebuilds_primary = false;

  friend bool operator==(const RecoveryAction&,
                         const RecoveryAction&) = default;
};

/// The full plan to restore 2-way redundancy after an *unplanned* single
/// disk failure, treated as a SCADDAR removal operation (Section 6: with
/// mirroring at offset f(Nj), the failed disk's data survives on mirrors,
/// and the removal remap tells every lost copy where to go).
struct RecoveryPlan {
  int64_t blocks_considered = 0;
  /// Copies lost on the failed disk, by role.
  int64_t lost_primaries = 0;
  int64_t lost_mirrors = 0;
  /// Additional relocations forced by slot renumbering (a copy that
  /// survived but whose target disk changed).
  int64_t relocations = 0;
  std::vector<RecoveryAction> actions;

  int64_t num_actions() const {
    return static_cast<int64_t>(actions.size());
  }
};

/// Plans recovery for a mirrored SCADDAR deployment.
///
/// Contract: `policy` must ALREADY have the failure applied as its latest
/// operation — a removal of the single failed slot (callers translate the
/// failed physical disk to its pre-failure slot and apply
/// `ScalingOp::Remove({slot})` first; checked). The plan compares the
/// mirrored layout at the pre-failure epoch against the post-failure epoch
/// and emits one action per copy that must be (re)materialized, always
/// reading from a replica that survived the failure — never from the
/// failed disk.
///
/// The mirror sits at `ReplicaOffset(N, 2, 1)` = N/2 slots from the
/// primary, always on a distinct disk, so every block has a surviving
/// source and the plan is complete.
StatusOr<RecoveryPlan> PlanMirrorRecovery(const ScaddarPolicy& policy);

}  // namespace scaddar

#endif  // SCADDAR_FAULTS_RECOVERY_H_
