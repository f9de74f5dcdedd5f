#ifndef SCADDAR_TESTS_PLAN_ORACLE_H_
#define SCADDAR_TESTS_PLAN_ORACLE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/mapper.h"
#include "core/op_log.h"
#include "core/redistribution.h"
#include "core/types.h"

namespace scaddar {

/// Reference planners: one `Mapper` replay per block per epoch, no
/// batching, no threads. The equivalence oracles for `PlanOperation` and
/// `PlanFullRedistribution` (`batch_equivalence_test`), and the baseline
/// `bench_remap_throughput` measures the step-major kernels against.
inline MovePlan PlanOperationScalar(
    const OpLog& log, Epoch j, const std::vector<ObjectBlocksView>& objects) {
  SCADDAR_CHECK(j >= 1 && j <= log.num_ops());
  const Mapper mapper(&log);
  const std::vector<PhysicalDiskId>& before = log.physical_disks_at(j - 1);
  const std::vector<PhysicalDiskId>& after = log.physical_disks_at(j);
  MovePlan plan;
  int64_t considered = 0;
  for (const ObjectBlocksView& view : objects) {
    SCADDAR_CHECK(view.x0 != nullptr);
    if (view.start_epoch >= j) {
      continue;  // Written at/after this op; nothing of it can move.
    }
    for (size_t i = 0; i < view.x0->size(); ++i) {
      ++considered;
      const uint64_t x0 = (*view.x0)[i];
      const DiskSlot slot_before =
          mapper.SlotBetween(x0, view.start_epoch, j - 1);
      const DiskSlot slot_after = mapper.SlotBetween(x0, view.start_epoch, j);
      const PhysicalDiskId phys_before =
          before[static_cast<size_t>(slot_before)];
      const PhysicalDiskId phys_after = after[static_cast<size_t>(slot_after)];
      if (phys_before != phys_after) {
        plan.Add(BlockMove{
            .block = {view.object, static_cast<BlockIndex>(i)},
            .from_slot = slot_before,
            .to_slot = slot_after,
            .from_physical = phys_before,
            .to_physical = phys_after,
        });
      }
    }
  }
  plan.set_blocks_considered(considered);
  return plan;
}

inline MovePlan PlanFullRedistributionScalar(
    const OpLog& from_log, const std::vector<ObjectBlocksView>& from_x0,
    const OpLog& to_log, const std::vector<ObjectBlocksView>& to_x0) {
  SCADDAR_CHECK(from_x0.size() == to_x0.size());
  const Mapper from_mapper(&from_log);
  const Mapper to_mapper(&to_log);
  const std::vector<PhysicalDiskId>& before = from_log.physical_disks();
  const std::vector<PhysicalDiskId>& after = to_log.physical_disks();
  MovePlan plan;
  int64_t considered = 0;
  for (size_t obj = 0; obj < from_x0.size(); ++obj) {
    const ObjectBlocksView& from_view = from_x0[obj];
    const ObjectBlocksView& to_view = to_x0[obj];
    SCADDAR_CHECK(from_view.object == to_view.object);
    SCADDAR_CHECK(from_view.x0 != nullptr && to_view.x0 != nullptr);
    SCADDAR_CHECK(from_view.x0->size() == to_view.x0->size());
    for (size_t i = 0; i < from_view.x0->size(); ++i) {
      ++considered;
      const DiskSlot slot_before = from_mapper.SlotBetween(
          (*from_view.x0)[i], from_view.start_epoch, from_log.num_ops());
      const DiskSlot slot_after = to_mapper.SlotBetween(
          (*to_view.x0)[i], to_view.start_epoch, to_log.num_ops());
      const PhysicalDiskId phys_before =
          before[static_cast<size_t>(slot_before)];
      const PhysicalDiskId phys_after =
          after[static_cast<size_t>(slot_after)];
      if (phys_before != phys_after) {
        plan.Add(BlockMove{
            .block = {from_view.object, static_cast<BlockIndex>(i)},
            .from_slot = slot_before,
            .to_slot = slot_after,
            .from_physical = phys_before,
            .to_physical = phys_after,
        });
      }
    }
  }
  plan.set_blocks_considered(considered);
  return plan;
}

}  // namespace scaddar

#endif  // SCADDAR_TESTS_PLAN_ORACLE_H_
