#include "faults/replication.h"

namespace scaddar {

ReplicatedPlacement::ReplicatedPlacement(const ScaddarPolicy* policy,
                                         int64_t replicas)
    : policy_(policy), replicas_(replicas) {
  SCADDAR_CHECK(policy != nullptr);
  SCADDAR_CHECK(replicas >= 2);
}

DiskSlot ReplicatedPlacement::ReplicaSlot(ObjectId object, BlockIndex block,
                                          int64_t r) const {
  const int64_t n = policy_->current_disks();
  const DiskSlot primary = policy_->LocateSlot(object, block);
  return (primary + ReplicaOffset(n, replicas_, r)) % n;
}

PhysicalDiskId ReplicatedPlacement::ReplicaOf(ObjectId object,
                                              BlockIndex block,
                                              int64_t r) const {
  return policy_->log()
      .physical_disks()[static_cast<size_t>(ReplicaSlot(object, block, r))];
}

std::vector<PhysicalDiskId> ReplicatedPlacement::ReplicasOf(
    ObjectId object, BlockIndex block) const {
  std::vector<PhysicalDiskId> disks;
  disks.reserve(static_cast<size_t>(replicas_));
  for (int64_t r = 0; r < replicas_; ++r) {
    disks.push_back(ReplicaOf(object, block, r));
  }
  return disks;
}

StatusOr<PhysicalDiskId> ReplicatedPlacement::LocateForRead(
    ObjectId object, BlockIndex block,
    const std::unordered_set<PhysicalDiskId>& failed) const {
  for (int64_t r = 0; r < replicas_; ++r) {
    const PhysicalDiskId disk = ReplicaOf(object, block, r);
    if (!failed.contains(disk)) {
      return disk;
    }
  }
  return NotFoundError("every replica is on a failed disk");
}

std::vector<int64_t> ReplicatedPlacement::PerDiskCountsWithReplicas() const {
  const int64_t n = policy_->current_disks();
  std::vector<int64_t> counts(static_cast<size_t>(n), 0);
  for (const auto& [object, x0] : policy_->objects_view()) {
    for (size_t i = 0; i < x0.size(); ++i) {
      for (int64_t r = 0; r < replicas_; ++r) {
        ++counts[static_cast<size_t>(
            ReplicaSlot(object, static_cast<BlockIndex>(i), r))];
      }
    }
  }
  return counts;
}

int64_t ReplicatedPlacement::MaxFailuresTolerated() const {
  return policy_->current_disks() >= replicas_ ? replicas_ - 1 : 0;
}

}  // namespace scaddar
