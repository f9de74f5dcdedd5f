#ifndef SCADDAR_FAULTS_REPLICATION_H_
#define SCADDAR_FAULTS_REPLICATION_H_

#include <cstdint>
#include <unordered_set>
#include <vector>

#include "placement/scaddar_policy.h"
#include "util/statusor.h"

namespace scaddar {

/// R-way generalization of Section 6's fixed-offset mirroring: replica `r`
/// of a block lives at slot `(primary + ReplicaOffset(Nj, R, r)) mod Nj`.
/// Offsets are pure functions of the epoch's disk count, so no directory is
/// needed and the replicas scale with the same op log. `R = 2` is the
/// paper's mirror at `f(Nj) = Nj/2`.
///
/// With `Nj >= R` the R offsets are distinct, every replica is on a
/// different disk, and any `R-1` simultaneous disk failures leave each
/// block readable.
class ReplicatedPlacement {
 public:
  /// `replicas >= 2` (checked); `policy` borrowed (non-null, checked).
  ReplicatedPlacement(const ScaddarPolicy* policy, int64_t replicas);

  /// Slot of replica `r`; replica 0 is the primary.
  DiskSlot ReplicaSlot(ObjectId object, BlockIndex block, int64_t r) const;

  /// Physical disk of replica `r`.
  PhysicalDiskId ReplicaOf(ObjectId object, BlockIndex block,
                           int64_t r) const;

  /// All replica disks of the block, primary first.
  std::vector<PhysicalDiskId> ReplicasOf(ObjectId object,
                                         BlockIndex block) const;

  /// The first healthy replica in priority order; NotFound if every
  /// replica's disk failed.
  StatusOr<PhysicalDiskId> LocateForRead(
      ObjectId object, BlockIndex block,
      const std::unordered_set<PhysicalDiskId>& failed) const;

  /// Per-disk block counts including every replica (R-fold storage).
  std::vector<int64_t> PerDiskCountsWithReplicas() const;

  /// `R - 1` when the current disk count keeps the offsets distinct.
  int64_t MaxFailuresTolerated() const;

  int64_t replicas() const { return replicas_; }

 private:
  const ScaddarPolicy* policy_;
  int64_t replicas_;
};

}  // namespace scaddar

#endif  // SCADDAR_FAULTS_REPLICATION_H_
