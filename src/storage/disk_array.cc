#include "storage/disk_array.h"

#include <algorithm>

namespace scaddar {

namespace {

Status NegativeIdError() {
  return InvalidArgumentError("physical disk ids are non-negative");
}

}  // namespace

Status DiskArray::SyncLiveSet(const std::vector<PhysicalDiskId>& live) {
  for (const PhysicalDiskId id : live) {
    if (id < 0) {
      return NegativeIdError();
    }
    if (IsFailed(id)) {
      return FailedPreconditionError("a failed disk cannot return to service");
    }
  }
  for (const PhysicalDiskId id : live) {
    EnsureSlot(id);
    std::optional<SimDisk>& disk = disks_[static_cast<size_t>(id)];
    if (!disk.has_value()) {
      disk.emplace(id, default_spec_);
    }
  }
  std::vector<char> next_live(disks_.size(), 0);
  for (const PhysicalDiskId id : live) {
    next_live[static_cast<size_t>(id)] = 1;
  }
  // Disks leaving the live set must already be drained.
  for (size_t id = 0; id < live_.size(); ++id) {
    if (live_[id] && !next_live[id] && disks_[id]->num_blocks() != 0) {
      return FailedPreconditionError(
          "cannot retire a disk that still holds blocks");
    }
  }
  live_ = std::move(next_live);
  RebuildBudgets();
  return OkStatus();
}

Status DiskArray::Fail(PhysicalDiskId id) {
  if (!IsLive(id)) {
    return NotFoundError("only a live disk can fail");
  }
  live_[static_cast<size_t>(id)] = 0;
  failed_.insert(std::upper_bound(failed_.begin(), failed_.end(), id), id);
  RebuildBudgets();
  return OkStatus();
}

bool DiskArray::IsFailed(PhysicalDiskId id) const {
  return std::binary_search(failed_.begin(), failed_.end(), id);
}

Status DiskArray::AddDisk(PhysicalDiskId id, const DiskSpec& spec) {
  if (id < 0) {
    return NegativeIdError();
  }
  if (Has(id)) {
    return AlreadyExistsError("disk id already present");
  }
  EnsureSlot(id);
  disks_[static_cast<size_t>(id)].emplace(id, spec);
  live_[static_cast<size_t>(id)] = 1;
  RebuildBudgets();
  return OkStatus();
}

void DiskArray::EnsureSlot(PhysicalDiskId id) {
  if (static_cast<size_t>(id) >= disks_.size()) {
    disks_.resize(static_cast<size_t>(id) + 1);
    live_.resize(static_cast<size_t>(id) + 1, 0);
  }
}

void DiskArray::RebuildBudgets() {
  size_t end = live_.size();
  while (end > 0 && !live_[end - 1]) {
    --end;
  }
  budgets_.assign(end, kNotLive);
  num_live_ = 0;
  for (size_t id = 0; id < end; ++id) {
    if (live_[id]) {
      budgets_[id] = disks_[id]->spec().bandwidth_blocks_per_round;
      ++num_live_;
    }
  }
}

bool DiskArray::IsLive(PhysicalDiskId id) const {
  return id >= 0 && static_cast<size_t>(id) < live_.size() &&
         live_[static_cast<size_t>(id)];
}

bool DiskArray::Has(PhysicalDiskId id) const {
  return id >= 0 && static_cast<size_t>(id) < disks_.size() &&
         disks_[static_cast<size_t>(id)].has_value();
}

StatusOr<SimDisk*> DiskArray::GetDisk(PhysicalDiskId id) {
  if (!Has(id)) {
    return NotFoundError("unknown disk id");
  }
  return &*disks_[static_cast<size_t>(id)];
}

StatusOr<const SimDisk*> DiskArray::GetDisk(PhysicalDiskId id) const {
  if (!Has(id)) {
    return NotFoundError("unknown disk id");
  }
  return &*disks_[static_cast<size_t>(id)];
}

std::vector<PhysicalDiskId> DiskArray::live_ids() const {
  std::vector<PhysicalDiskId> ids;
  ids.reserve(static_cast<size_t>(num_live_));
  for (size_t id = 0; id < live_.size(); ++id) {
    if (live_[id]) {
      ids.push_back(static_cast<PhysicalDiskId>(id));
    }
  }
  return ids;
}

int64_t DiskArray::TotalBandwidth() const {
  int64_t total = 0;
  for (size_t id = 0; id < live_.size(); ++id) {
    if (live_[id]) {
      total += disks_[id]->spec().bandwidth_blocks_per_round;
    }
  }
  return total;
}

int64_t DiskArray::TotalFreeCapacity() const {
  int64_t total = 0;
  for (size_t id = 0; id < live_.size(); ++id) {
    if (live_[id]) {
      total += disks_[id]->spec().capacity_blocks - disks_[id]->num_blocks();
    }
  }
  return total;
}

std::vector<int64_t> DiskArray::LiveOccupancy() const {
  std::vector<int64_t> occupancy;
  for (size_t id = 0; id < live_.size(); ++id) {
    if (live_[id]) {
      occupancy.push_back(disks_[id]->num_blocks());
    }
  }
  return occupancy;
}

}  // namespace scaddar
