#include "storage/block_store.h"

#include <algorithm>
#include <atomic>

#include "storage/block_io.h"

namespace scaddar {

namespace {

/// Process-wide source of layout keys. Shards of a cluster mutate their
/// stores from pool threads, so the counter is atomic.
uint64_t NextLayoutKey() {
  static std::atomic<uint64_t> next{1};
  return next.fetch_add(1);
}

/// Blocks per disk of `row`, indexed by physical id (ids are small), or
/// InvalidArgument if an id is negative. Ingest counts a row once and then
/// adjusts each disk once, instead of once per block.
StatusOr<std::vector<int64_t>> CountPerDisk(
    std::span<const PhysicalDiskId> row) {
  std::vector<int64_t> counts;
  for (const PhysicalDiskId disk : row) {
    if (disk < 0) {
      return InvalidArgumentError("physical disk ids are non-negative");
    }
    if (static_cast<size_t>(disk) >= counts.size()) {
      counts.resize(static_cast<size_t>(disk) + 1, 0);
    }
    ++counts[static_cast<size_t>(disk)];
  }
  return counts;
}

}  // namespace

BlockStore::BlockStore(DiskArray* disks)
    : disks_(disks), layout_key_(NextLayoutKey()) {}

Status BlockStore::PlaceObject(ObjectId id,
                               const std::vector<PhysicalDiskId>& locations) {
  if (locations.empty()) {
    return InvalidArgumentError("object must have >= 1 block");
  }
  if (locations_.contains(id)) {
    return AlreadyExistsError("object already materialized");
  }
  SCADDAR_ASSIGN_OR_RETURN(const std::vector<int64_t> counts,
                           CountPerDisk(locations));
  if (io_ != nullptr) {
    SCADDAR_RETURN_IF_ERROR(io_->PlaceObject(
        id, std::span<const PhysicalDiskId>(locations)));
  }
  locations_[id] = locations;
  total_blocks_ += static_cast<int64_t>(locations.size());
  AdjustDisks(counts, 1);
  ++mutation_revision_;
  layout_key_ = NextLayoutKey();
  return OkStatus();
}

Status BlockStore::DropObject(ObjectId id) {
  const auto it = locations_.find(id);
  if (it == locations_.end()) {
    return NotFoundError("object not materialized");
  }
  if (io_ != nullptr) {
    SCADDAR_RETURN_IF_ERROR(io_->DropObject(id));
  }
  AdjustDisks(CountPerDisk(it->second).value(), -1);
  // Staged copies of a dropped object are garbage: release their space.
  const auto staged = staged_.find(id);
  if (staged != staged_.end()) {
    for (const auto& [block, disk] : staged->second) {
      AdjustDisk(disk, -1);
      --staged_count_;
    }
    staged_.erase(staged);
  }
  total_blocks_ -= static_cast<int64_t>(it->second.size());
  locations_.erase(it);
  ++mutation_revision_;
  layout_key_ = NextLayoutKey();
  return OkStatus();
}

StatusOr<std::span<const PhysicalDiskId>> BlockStore::LocationsOf(
    ObjectId id) const {
  const auto it = locations_.find(id);
  if (it == locations_.end()) {
    return NotFoundError("object not materialized");
  }
  return std::span<const PhysicalDiskId>(it->second);
}

StatusOr<PhysicalDiskId> BlockStore::LocationOf(BlockRef ref) const {
  const auto it = locations_.find(ref.object);
  if (it == locations_.end()) {
    return NotFoundError("object not materialized");
  }
  if (ref.block < 0 ||
      ref.block >= static_cast<BlockIndex>(it->second.size())) {
    return OutOfRangeError("block index out of range");
  }
  return it->second[static_cast<size_t>(ref.block)];
}

Status BlockStore::ApplyMove(const BlockMove& move) {
  if (io_ != nullptr) {
    return FailedPreconditionError(
        "real bytes move only through staged copies");
  }
  const auto it = locations_.find(move.block.object);
  if (it == locations_.end()) {
    return NotFoundError("object not materialized");
  }
  if (move.block.block < 0 ||
      move.block.block >= static_cast<BlockIndex>(it->second.size())) {
    return OutOfRangeError("block index out of range");
  }
  PhysicalDiskId& location =
      it->second[static_cast<size_t>(move.block.block)];
  if (location != move.from_physical) {
    return FailedPreconditionError("block is not on the expected source disk");
  }
  location = move.to_physical;
  AdjustDisk(move.from_physical, -1);
  AdjustDisk(move.to_physical, 1);
  ++mutation_revision_;
  return OkStatus();
}

Status BlockStore::StageCopy(BlockRef ref, PhysicalDiskId to) {
  const auto it = locations_.find(ref.object);
  if (it == locations_.end()) {
    return NotFoundError("object not materialized");
  }
  if (ref.block < 0 ||
      ref.block >= static_cast<BlockIndex>(it->second.size())) {
    return OutOfRangeError("block index out of range");
  }
  const PhysicalDiskId from = it->second[static_cast<size_t>(ref.block)];
  if (from == to) {
    return InvalidArgumentError("block already resides on the target disk");
  }
  auto& object_staged = staged_[ref.object];
  if (object_staged.contains(ref.block)) {
    return FailedPreconditionError("block already has a staged copy");
  }
  if (io_ != nullptr) {
    SCADDAR_RETURN_IF_ERROR(io_->StageCopy(ref, from, to));
  }
  object_staged.emplace(ref.block, to);
  AdjustDisk(to, 1);
  ++staged_count_;
  ++mutation_revision_;
  return OkStatus();
}

Status BlockStore::CommitStagedMove(BlockRef ref, PhysicalDiskId from,
                                    PhysicalDiskId to) {
  const auto it = locations_.find(ref.object);
  if (it == locations_.end()) {
    return NotFoundError("object not materialized");
  }
  if (ref.block < 0 ||
      ref.block >= static_cast<BlockIndex>(it->second.size())) {
    return OutOfRangeError("block index out of range");
  }
  const auto staged = staged_.find(ref.object);
  if (staged == staged_.end() || !staged->second.contains(ref.block)) {
    return FailedPreconditionError("block has no staged copy");
  }
  if (staged->second.at(ref.block) != to) {
    return FailedPreconditionError("staged copy is on a different disk");
  }
  PhysicalDiskId& location = it->second[static_cast<size_t>(ref.block)];
  if (location != from) {
    return FailedPreconditionError("block is not on the expected source disk");
  }
  if (io_ != nullptr) {
    SCADDAR_RETURN_IF_ERROR(io_->CommitStaged(ref, from, to));
  }
  // The staged copy becomes the authoritative one (no occupancy change on
  // `to`); the source copy is released.
  location = to;
  staged->second.erase(ref.block);
  if (staged->second.empty()) {
    staged_.erase(staged);
  }
  --staged_count_;
  AdjustDisk(from, -1);
  ++mutation_revision_;
  return OkStatus();
}

Status BlockStore::AbortStagedCopy(BlockRef ref) {
  const auto staged = staged_.find(ref.object);
  if (staged == staged_.end()) {
    return NotFoundError("block has no staged copy");
  }
  const auto entry = staged->second.find(ref.block);
  if (entry == staged->second.end()) {
    return NotFoundError("block has no staged copy");
  }
  if (io_ != nullptr) {
    SCADDAR_RETURN_IF_ERROR(io_->AbortStaged(ref));
  }
  AdjustDisk(entry->second, -1);
  staged->second.erase(entry);
  if (staged->second.empty()) {
    staged_.erase(staged);
  }
  --staged_count_;
  ++mutation_revision_;
  return OkStatus();
}

StatusOr<bool> BlockStore::ValidateStagedImage(BlockRef ref) const {
  const auto staged = staged_.find(ref.object);
  if (staged == staged_.end() || !staged->second.contains(ref.block)) {
    return NotFoundError("block has no staged copy");
  }
  if (io_ == nullptr) {
    return true;  // Simulated staged copies cannot tear.
  }
  return io_->ValidateStagedImage(ref);
}

StatusOr<PhysicalDiskId> BlockStore::StagedTarget(BlockRef ref) const {
  const auto staged = staged_.find(ref.object);
  if (staged == staged_.end()) {
    return NotFoundError("block has no staged copy");
  }
  const auto entry = staged->second.find(ref.block);
  if (entry == staged->second.end()) {
    return NotFoundError("block has no staged copy");
  }
  return entry->second;
}

std::vector<std::pair<BlockRef, PhysicalDiskId>> BlockStore::StagedCopies()
    const {
  std::vector<std::pair<BlockRef, PhysicalDiskId>> out;
  out.reserve(static_cast<size_t>(staged_count_));
  for (const auto& [object, blocks] : staged_) {
    for (const auto& [block, disk] : blocks) {
      out.emplace_back(BlockRef{object, block}, disk);
    }
  }
  std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    return a.first.object != b.first.object
               ? a.first.object < b.first.object
               : a.first.block < b.first.block;
  });
  return out;
}

Status BlockStore::ApplyPlan(const MovePlan& plan) {
  for (const BlockMove& move : plan.moves()) {
    SCADDAR_RETURN_IF_ERROR(ApplyMove(move));
  }
  return OkStatus();
}

Status BlockStore::VerifyAgainstPolicy(const PlacementPolicy& policy) const {
  if (staged_count_ > 0) {
    return InternalError("staged copies outstanding; a move is mid-protocol");
  }
  std::vector<PhysicalDiskId> expected;
  for (const auto& [id, locations] : locations_) {
    policy.LocateAllBlocks(id, expected);
    if (expected != locations) {
      return InternalError("materialized location diverges from AF()");
    }
  }
  return OkStatus();
}

int64_t BlockStore::CountOn(PhysicalDiskId disk) const {
  const auto it = per_disk_counts_.find(disk);
  return it == per_disk_counts_.end() ? 0 : it->second;
}

void BlockStore::AdjustDisks(const std::vector<int64_t>& counts,
                             int64_t sign) {
  for (size_t disk = 0; disk < counts.size(); ++disk) {
    if (counts[disk] > 0) {
      AdjustDisk(static_cast<PhysicalDiskId>(disk), sign * counts[disk]);
    }
  }
}

void BlockStore::AdjustDisk(PhysicalDiskId disk, int64_t delta) {
  const auto count = per_disk_counts_.try_emplace(disk, 0).first;
  count->second += delta;
  SCADDAR_CHECK(count->second >= 0);
  if (count->second == 0) {
    per_disk_counts_.erase(count);
  }
  if (disks_ != nullptr) {
    StatusOr<SimDisk*> sim = disks_->GetDisk(disk);
    if (sim.ok()) {
      if (delta > 0) {
        (*sim)->AddBlocks(delta);
      } else {
        (*sim)->RemoveBlocks(-delta);
      }
    }
  }
}

}  // namespace scaddar
