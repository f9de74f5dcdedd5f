#include "storage/disk_array.h"

#include <algorithm>

namespace scaddar {

Status DiskArray::SyncLiveSet(const std::vector<PhysicalDiskId>& live) {
  std::unordered_map<PhysicalDiskId, bool> next_live;
  next_live.reserve(live.size());
  for (const PhysicalDiskId id : live) {
    next_live[id] = true;
    if (!disks_.contains(id)) {
      disks_.emplace(id, SimDisk(id, default_spec_));
    }
  }
  // Disks leaving the live set must already be drained.
  for (const auto& [id, was_live] : live_) {
    if (was_live && !next_live.contains(id)) {
      const SimDisk& disk = disks_.at(id);
      if (disk.num_blocks() != 0) {
        return FailedPreconditionError(
            "cannot retire a disk that still holds blocks");
      }
    }
  }
  live_ = std::move(next_live);
  num_live_ = static_cast<int64_t>(live.size());
  return OkStatus();
}

Status DiskArray::AddDisk(PhysicalDiskId id, const DiskSpec& spec) {
  if (disks_.contains(id)) {
    return AlreadyExistsError("disk id already present");
  }
  disks_.emplace(id, SimDisk(id, spec));
  live_[id] = true;
  ++num_live_;
  return OkStatus();
}

bool DiskArray::IsLive(PhysicalDiskId id) const {
  const auto it = live_.find(id);
  return it != live_.end() && it->second;
}

StatusOr<SimDisk*> DiskArray::GetDisk(PhysicalDiskId id) {
  const auto it = disks_.find(id);
  if (it == disks_.end()) {
    return NotFoundError("unknown disk id");
  }
  return &it->second;
}

StatusOr<const SimDisk*> DiskArray::GetDisk(PhysicalDiskId id) const {
  const auto it = disks_.find(id);
  if (it == disks_.end()) {
    return NotFoundError("unknown disk id");
  }
  return const_cast<const SimDisk*>(&it->second);
}

std::vector<PhysicalDiskId> DiskArray::live_ids() const {
  std::vector<PhysicalDiskId> ids;
  ids.reserve(static_cast<size_t>(num_live_));
  for (const auto& [id, is_live] : live_) {
    if (is_live) {
      ids.push_back(id);
    }
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

int64_t DiskArray::TotalBandwidth() const {
  int64_t total = 0;
  for (const auto& [id, is_live] : live_) {
    if (is_live) {
      total += disks_.at(id).spec().bandwidth_blocks_per_round;
    }
  }
  return total;
}

std::vector<int64_t> DiskArray::BandwidthBudgets() const {
  PhysicalDiskId max_id = -1;
  for (const auto& [id, is_live] : live_) {
    if (is_live) {
      max_id = std::max(max_id, id);
    }
  }
  std::vector<int64_t> budgets(static_cast<size_t>(max_id + 1), kNotLive);
  for (const auto& [id, is_live] : live_) {
    if (is_live) {
      budgets[static_cast<size_t>(id)] =
          disks_.at(id).spec().bandwidth_blocks_per_round;
    }
  }
  return budgets;
}

int64_t DiskArray::TotalFreeCapacity() const {
  int64_t total = 0;
  for (const auto& [id, is_live] : live_) {
    if (is_live) {
      const SimDisk& disk = disks_.at(id);
      total += disk.spec().capacity_blocks - disk.num_blocks();
    }
  }
  return total;
}

std::vector<int64_t> DiskArray::LiveOccupancy() const {
  std::vector<int64_t> occupancy;
  for (const PhysicalDiskId id : live_ids()) {
    occupancy.push_back(disks_.at(id).num_blocks());
  }
  return occupancy;
}

}  // namespace scaddar
