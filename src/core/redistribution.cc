#include "core/redistribution.h"

#include <algorithm>
#include <cmath>

#include "core/compiled_log.h"

namespace scaddar {

MovementStats MovePlan::ToMovementStats(int64_t n_prev, int64_t n_cur) const {
  MovementStats stats;
  stats.total_blocks = blocks_considered_;
  stats.moved_blocks = num_moves();
  stats.moved_fraction =
      blocks_considered_ == 0
          ? 0.0
          : static_cast<double>(num_moves()) /
                static_cast<double>(blocks_considered_);
  stats.theoretical_fraction = TheoreticalMoveFraction(n_prev, n_cur);
  if (stats.theoretical_fraction == 0.0) {
    stats.overhead_ratio = stats.moved_fraction == 0.0 ? 1.0 : HUGE_VAL;
  } else {
    stats.overhead_ratio = stats.moved_fraction / stats.theoretical_fraction;
  }
  return stats;
}

namespace {

// Step-major evaluation tile: small enough that two tiles of chain state
// plus a slot buffer stay cache-resident while the outer loop walks steps.
constexpr int64_t kBatchTile = 4096;

// Reserve for the RO1-expected move count plus slack for randomness, so a
// plan at the expected size never reallocates.
int64_t ExpectedMoves(double fraction, int64_t blocks) {
  const double expected = fraction * static_cast<double>(blocks);
  return static_cast<int64_t>(expected + expected / 16.0 + 64.0);
}

}  // namespace

MovePlan PlanOperation(const OpLog& log, Epoch j,
                       const std::vector<ObjectBlocksView>& objects) {
  SCADDAR_CHECK(j >= 1 && j <= log.num_ops());
  // Objects written at or after op `j` have nothing to move.
  int64_t total = 0;
  for (const ObjectBlocksView& view : objects) {
    SCADDAR_CHECK(view.x0 != nullptr);
    total += view.start_epoch < j ? static_cast<int64_t>(view.x0->size()) : 0;
  }
  const CompiledLog compiled(log);
  const std::vector<PhysicalDiskId>& before = log.physical_disks_at(j - 1);
  const std::vector<PhysicalDiskId>& after = log.physical_disks_at(j);
  MovePlan plan;
  plan.Reserve(ExpectedMoves(
      TheoreticalMoveFraction(compiled.disks_after(j - 1),
                              compiled.disks_after(j)),
      total));
  const FastDiv64 mod_before(
      static_cast<uint64_t>(compiled.disks_after(j - 1)));
  const FastDiv64 mod_after(static_cast<uint64_t>(compiled.disks_after(j)));
  std::vector<uint64_t> chain(static_cast<size_t>(kBatchTile));
  std::vector<uint64_t> slot_before(static_cast<size_t>(kBatchTile));
  for (const ObjectBlocksView& view : objects) {
    if (view.start_epoch >= j) {
      continue;
    }
    const auto blocks = static_cast<int64_t>(view.x0->size());
    for (int64_t tile = 0; tile < blocks; tile += kBatchTile) {
      const int64_t count = std::min(kBatchTile, blocks - tile);
      const std::span<uint64_t> xs(chain.data(), static_cast<size_t>(count));
      std::copy_n(view.x0->data() + tile, count, chain.data());
      compiled.AdvanceXBatch(xs, view.start_epoch, j - 1);
      for (int64_t i = 0; i < count; ++i) {
        slot_before[static_cast<size_t>(i)] = mod_before.Mod(chain[static_cast<size_t>(i)]);
      }
      compiled.AdvanceXBatch(xs, j - 1, j);
      for (int64_t i = 0; i < count; ++i) {
        const DiskSlot s_before =
            static_cast<DiskSlot>(slot_before[static_cast<size_t>(i)]);
        const DiskSlot s_after =
            static_cast<DiskSlot>(mod_after.Mod(chain[static_cast<size_t>(i)]));
        const PhysicalDiskId phys_before = before[static_cast<size_t>(s_before)];
        const PhysicalDiskId phys_after = after[static_cast<size_t>(s_after)];
        if (phys_before != phys_after) {
          plan.Add(BlockMove{
              .block = {view.object, static_cast<BlockIndex>(tile + i)},
              .from_slot = s_before,
              .to_slot = s_after,
              .from_physical = phys_before,
              .to_physical = phys_after,
          });
        }
      }
    }
  }
  plan.set_blocks_considered(total);
  return plan;
}

MovePlan PlanFullRedistribution(const OpLog& from_log,
                                const std::vector<ObjectBlocksView>& from_x0,
                                const OpLog& to_log,
                                const std::vector<ObjectBlocksView>& to_x0) {
  // Every view participates: a full redistribution re-places all blocks.
  SCADDAR_CHECK(from_x0.size() == to_x0.size());
  int64_t total = 0;
  for (size_t v = 0; v < from_x0.size(); ++v) {
    SCADDAR_CHECK(from_x0[v].x0 != nullptr && to_x0[v].x0 != nullptr);
    SCADDAR_CHECK(from_x0[v].object == to_x0[v].object);
    SCADDAR_CHECK(from_x0[v].x0->size() == to_x0[v].x0->size());
    total += static_cast<int64_t>(from_x0[v].x0->size());
  }
  const CompiledLog from_compiled(from_log);
  const CompiledLog to_compiled(to_log);
  const std::vector<PhysicalDiskId>& before = from_log.physical_disks();
  const std::vector<PhysicalDiskId>& after = to_log.physical_disks();
  MovePlan plan;
  // A full redistribution moves nearly everything; reserve every block.
  plan.Reserve(total);
  std::vector<uint64_t> from_chain(static_cast<size_t>(kBatchTile));
  std::vector<uint64_t> to_chain(static_cast<size_t>(kBatchTile));
  const FastDiv64 mod_before(
      static_cast<uint64_t>(from_compiled.current_disks()));
  const FastDiv64 mod_after(static_cast<uint64_t>(to_compiled.current_disks()));
  for (size_t v = 0; v < from_x0.size(); ++v) {
    const ObjectBlocksView& from_view = from_x0[v];
    const ObjectBlocksView& to_view = to_x0[v];
    const auto blocks = static_cast<int64_t>(from_view.x0->size());
    for (int64_t tile = 0; tile < blocks; tile += kBatchTile) {
      const int64_t count = std::min(kBatchTile, blocks - tile);
      std::copy_n(from_view.x0->data() + tile, count, from_chain.data());
      std::copy_n(to_view.x0->data() + tile, count, to_chain.data());
      from_compiled.FinalXBatch(
          std::span<uint64_t>(from_chain.data(), static_cast<size_t>(count)),
          from_view.start_epoch);
      to_compiled.FinalXBatch(
          std::span<uint64_t>(to_chain.data(), static_cast<size_t>(count)),
          to_view.start_epoch);
      for (int64_t i = 0; i < count; ++i) {
        const DiskSlot s_before = static_cast<DiskSlot>(
            mod_before.Mod(from_chain[static_cast<size_t>(i)]));
        const DiskSlot s_after = static_cast<DiskSlot>(
            mod_after.Mod(to_chain[static_cast<size_t>(i)]));
        const PhysicalDiskId phys_before = before[static_cast<size_t>(s_before)];
        const PhysicalDiskId phys_after = after[static_cast<size_t>(s_after)];
        if (phys_before != phys_after) {
          plan.Add(BlockMove{
              .block = {from_view.object, static_cast<BlockIndex>(tile + i)},
              .from_slot = s_before,
              .to_slot = s_after,
              .from_physical = phys_before,
              .to_physical = phys_after,
          });
        }
      }
    }
  }
  plan.set_blocks_considered(total);
  return plan;
}

}  // namespace scaddar
