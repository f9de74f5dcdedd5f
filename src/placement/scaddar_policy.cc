#include "placement/scaddar_policy.h"

#include <numeric>
#include <span>

namespace scaddar {

int64_t ReplicaOffset(int64_t n, int64_t replicas, int64_t r) {
  SCADDAR_CHECK(n >= 1);
  SCADDAR_CHECK(replicas >= 2);
  SCADDAR_CHECK(r >= 0 && r < replicas);
  return r * n / replicas;
}

const CompiledLog& ScaddarPolicy::compiled() const {
  if (compiled_ == nullptr ||
      compiled_->source_revision() != log().revision()) {
    compiled_ = std::make_unique<CompiledLog>(log());
  }
  return *compiled_;
}

PhysicalDiskId ScaddarPolicy::Locate(ObjectId object,
                                     BlockIndex block) const {
  const ObjectEntry entry = entry_of(object);
  SCADDAR_CHECK(block >= 0 &&
                block < static_cast<BlockIndex>(entry.x0.size()));
  return compiled().LocatePhysical(entry.x0[static_cast<size_t>(block)],
                                   entry.epoch);
}

void ScaddarPolicy::LocateAllBlocks(ObjectId object,
                                    std::vector<PhysicalDiskId>& out) const {
  const ObjectEntry entry = entry_of(object);
  out.resize(entry.x0.size() * static_cast<size_t>(entry.copies));
  if (entry.copies > 1) {
    std::vector<BlockIndex> rows(out.size());
    std::iota(rows.begin(), rows.end(), BlockIndex{0});
    LocateMany(object, std::span<const BlockIndex>(rows),
               std::span<PhysicalDiskId>(out));
    return;
  }
  compiled().LocatePhysicalBatch(std::span<const uint64_t>(entry.x0),
                                 std::span<PhysicalDiskId>(out), entry.epoch);
}

void ScaddarPolicy::LocateMany(ObjectId object,
                               std::span<const BlockIndex> blocks,
                               std::span<PhysicalDiskId> out) const {
  SCADDAR_CHECK(blocks.size() == out.size());
  const ObjectEntry entry = entry_of(object);
  const auto num_blocks = static_cast<BlockIndex>(entry.x0.size());
  std::vector<uint64_t> gathered(blocks.size());
  for (size_t i = 0; i < blocks.size(); ++i) {
    const BlockIndex row = blocks[i];
    SCADDAR_CHECK(row >= 0 && row < num_blocks * entry.copies);
    gathered[i] = entry.x0[static_cast<size_t>(
        row < num_blocks ? row : row % num_blocks)];
  }
  if (entry.copies == 1) {
    compiled().LocatePhysicalBatch(std::span<const uint64_t>(gathered), out,
                                   entry.epoch);
    return;
  }
  // Copy `r` of a block lands `ReplicaOffset(n, R, r)` slots after the
  // primary's slot: one slot pass, then a rotation per row.
  std::vector<DiskSlot> slots(blocks.size());
  compiled().LocateSlotBatch(std::span<const uint64_t>(gathered),
                             std::span<DiskSlot>(slots), entry.epoch);
  const int64_t n = current_disks();
  const std::vector<PhysicalDiskId>& physical = log().physical_disks();
  for (size_t i = 0; i < blocks.size(); ++i) {
    const int64_t offset =
        ReplicaOffset(n, entry.copies, blocks[i] / num_blocks);
    out[i] = physical[static_cast<size_t>((slots[i] + offset) % n)];
  }
}

DiskSlot ScaddarPolicy::LocateSlot(ObjectId object, BlockIndex block) const {
  const ObjectEntry entry = entry_of(object);
  SCADDAR_CHECK(block >= 0 &&
                block < static_cast<BlockIndex>(entry.x0.size()));
  return compiled().LocateSlot(entry.x0[static_cast<size_t>(block)],
                               entry.epoch);
}

Status ScaddarPolicy::OnOp(const ScalingOp& /*op*/) {
  // SCADDAR needs no per-block state: the op log is the whole RF() record.
  // The compiled-log cache self-invalidates via OpLog::revision().
  return OkStatus();
}

}  // namespace scaddar
