#include "placement/policy.h"

#include <algorithm>
#include <atomic>

namespace scaddar {

namespace {

/// Process-wide source of placement keys. Shards of a cluster mutate their
/// policies from pool threads, so the counter is atomic.
uint64_t NextPlacementKey() {
  static std::atomic<uint64_t> next{1};
  return next.fetch_add(1);
}

}  // namespace

PlacementPolicy::PlacementPolicy(int64_t n0)
    : log_(std::move(OpLog::Create(n0).value())),
      placement_key_(NextPlacementKey()) {}

PlacementPolicy::PlacementPolicy(OpLog initial_log)
    : log_(std::move(initial_log)), placement_key_(NextPlacementKey()) {
  SCADDAR_CHECK(log_.num_ops() == 0);
}

Status PlacementPolicy::AddObject(ObjectId id, std::vector<uint64_t> x0,
                                  int64_t copies) {
  if (object_index_.contains(id)) {
    return AlreadyExistsError("object already registered");
  }
  if (copies < 1) {
    return InvalidArgumentError("an object needs at least one copy");
  }
  if (copies > 1 && !PlacesCopies()) {
    return UnimplementedError("this policy places one copy per block");
  }
  object_index_[id] = objects_.size();
  total_blocks_ += static_cast<int64_t>(x0.size());
  objects_.emplace_back(id, std::move(x0));
  added_epoch_.push_back(log_.num_ops());
  copies_.push_back(copies);
  placement_key_ = NextPlacementKey();
  return OnObjectAdded(id);
}

Status PlacementPolicy::ApplyOp(const ScalingOp& op) {
  SCADDAR_RETURN_IF_ERROR(log_.Append(op));
  placement_key_ = NextPlacementKey();
  return OnOp(op);
}

void PlacementPolicy::LocateAllBlocks(ObjectId object,
                                      std::vector<PhysicalDiskId>& out) const {
  const size_t blocks = x0_of(object).size();
  out.resize(blocks);
  for (size_t i = 0; i < blocks; ++i) {
    out[i] = Locate(object, static_cast<BlockIndex>(i));
  }
}

void PlacementPolicy::LocateMany(ObjectId object,
                                 std::span<const BlockIndex> blocks,
                                 std::span<PhysicalDiskId> out) const {
  SCADDAR_CHECK(blocks.size() == out.size());
  for (size_t i = 0; i < blocks.size(); ++i) {
    out[i] = Locate(object, blocks[i]);
  }
}

Status PlacementPolicy::OnObjectAdded(ObjectId /*id*/) { return OkStatus(); }

Status PlacementPolicy::OnObjectRemoved(ObjectId /*id*/) {
  return OkStatus();
}

Status PlacementPolicy::RemoveObject(ObjectId id) {
  const auto it = object_index_.find(id);
  if (it == object_index_.end()) {
    return NotFoundError("object not registered");
  }
  SCADDAR_RETURN_IF_ERROR(OnObjectRemoved(id));
  placement_key_ = NextPlacementKey();
  const size_t index = it->second;
  total_blocks_ -= static_cast<int64_t>(objects_[index].second.size());
  objects_.erase(objects_.begin() + static_cast<ptrdiff_t>(index));
  added_epoch_.erase(added_epoch_.begin() + static_cast<ptrdiff_t>(index));
  copies_.erase(copies_.begin() + static_cast<ptrdiff_t>(index));
  object_index_.erase(it);
  // Reindex the tail.
  for (size_t i = index; i < objects_.size(); ++i) {
    object_index_[objects_[i].first] = i;
  }
  return OkStatus();
}

const std::vector<uint64_t>& PlacementPolicy::x0_of(ObjectId id) const {
  const auto it = object_index_.find(id);
  SCADDAR_CHECK(it != object_index_.end());
  return objects_[it->second].second;
}

int64_t PlacementPolicy::NumBlocksOf(ObjectId id) const {
  return static_cast<int64_t>(x0_of(id).size());
}

Epoch PlacementPolicy::epoch_added(ObjectId id) const {
  return entry_of(id).epoch;
}

int64_t PlacementPolicy::CopiesOf(ObjectId id) const {
  return entry_of(id).copies;
}

int64_t PlacementPolicy::MaxCopies() const {
  return copies_.empty() ? 1
                         : *std::max_element(copies_.begin(), copies_.end());
}

PlacementPolicy::ObjectEntry PlacementPolicy::entry_of(ObjectId id) const {
  const auto it = object_index_.find(id);
  SCADDAR_CHECK(it != object_index_.end());
  return ObjectEntry{objects_[it->second].second, added_epoch_[it->second],
                     copies_[it->second]};
}

std::vector<int64_t> PlacementPolicy::PerDiskCounts() const {
  const std::vector<PhysicalDiskId>& physical = log_.physical_disks();
  std::unordered_map<PhysicalDiskId, size_t> position;
  position.reserve(physical.size());
  for (size_t i = 0; i < physical.size(); ++i) {
    position[physical[i]] = i;
  }
  std::vector<int64_t> counts(physical.size(), 0);
  for (const auto& [id, x0] : objects_) {
    for (size_t i = 0; i < x0.size(); ++i) {
      const PhysicalDiskId disk = Locate(id, static_cast<BlockIndex>(i));
      const auto it = position.find(disk);
      SCADDAR_CHECK(it != position.end());
      ++counts[it->second];
    }
  }
  return counts;
}

std::vector<PhysicalDiskId> PlacementPolicy::AssignmentSnapshot() const {
  std::vector<PhysicalDiskId> snapshot;
  snapshot.reserve(static_cast<size_t>(total_blocks_));
  for (const auto& [id, x0] : objects_) {
    for (size_t i = 0; i < x0.size(); ++i) {
      snapshot.push_back(Locate(id, static_cast<BlockIndex>(i)));
    }
  }
  return snapshot;
}

}  // namespace scaddar
