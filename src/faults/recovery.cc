#include "faults/recovery.h"

#include "core/mapper.h"

namespace scaddar {

StatusOr<RecoveryPlan> PlanMirrorRecovery(const ScaddarPolicy& policy) {
  const OpLog& log = policy.log();
  const Epoch j = log.num_ops();
  if (j < 1) {
    return FailedPreconditionError("no failure operation has been applied");
  }
  const ScalingOp& op = log.op(j);
  if (!op.is_remove() || op.removed_slots().size() != 1) {
    return FailedPreconditionError(
        "latest operation must be a single-slot removal (the failure)");
  }
  const int64_t n_prev = log.disks_after(j - 1);
  const int64_t n_cur = log.disks_after(j);
  if (n_prev < 2 || n_cur < 2) {
    return FailedPreconditionError("mirroring needs at least two disks");
  }
  const std::vector<PhysicalDiskId>& phys_prev = log.physical_disks_at(j - 1);
  const std::vector<PhysicalDiskId>& phys_cur = log.physical_disks_at(j);
  const PhysicalDiskId failed =
      phys_prev[static_cast<size_t>(op.removed_slots().front())];
  const int64_t offset_prev = ReplicaOffset(n_prev, 2, 1);
  const int64_t offset_cur = ReplicaOffset(n_cur, 2, 1);

  const Mapper mapper(&log);
  RecoveryPlan plan;
  for (const auto& [object, x0] : policy.objects_view()) {
    const Epoch start = policy.epoch_added(object);
    if (start >= j) {
      continue;  // Written after the failure; already fully redundant.
    }
    for (size_t i = 0; i < x0.size(); ++i) {
      ++plan.blocks_considered;
      const uint64_t x = x0[i];
      const DiskSlot old_p_slot = mapper.SlotBetween(x, start, j - 1);
      const DiskSlot old_m_slot = (old_p_slot + offset_prev) % n_prev;
      const PhysicalDiskId old_p = phys_prev[static_cast<size_t>(old_p_slot)];
      const PhysicalDiskId old_m = phys_prev[static_cast<size_t>(old_m_slot)];
      const DiskSlot new_p_slot = mapper.SlotBetween(x, start, j);
      const DiskSlot new_m_slot = (new_p_slot + offset_cur) % n_cur;
      const PhysicalDiskId new_p = phys_cur[static_cast<size_t>(new_p_slot)];
      const PhysicalDiskId new_m = phys_cur[static_cast<size_t>(new_m_slot)];

      plan.lost_primaries += old_p == failed ? 1 : 0;
      plan.lost_mirrors += old_m == failed ? 1 : 0;

      // Surviving replicas of this block (at least one: the two copies sit
      // on distinct disks).
      PhysicalDiskId survivors[2];
      int num_survivors = 0;
      if (old_p != failed) {
        survivors[num_survivors++] = old_p;
      }
      if (old_m != failed) {
        survivors[num_survivors++] = old_m;
      }
      SCADDAR_CHECK(num_survivors >= 1);

      const BlockRef ref{object, static_cast<BlockIndex>(i)};
      for (const auto& [target, is_primary] :
           {std::pair<PhysicalDiskId, bool>{new_p, true},
            std::pair<PhysicalDiskId, bool>{new_m, false}}) {
        bool already_there = false;
        for (int s = 0; s < num_survivors; ++s) {
          if (survivors[s] == target) {
            already_there = true;
            break;
          }
        }
        if (already_there) {
          continue;
        }
        // Prefer a source that is not also busy receiving this block.
        PhysicalDiskId source = survivors[0];
        if (num_survivors > 1 && survivors[0] == new_p && !is_primary) {
          source = survivors[1];
        }
        const bool copy_existed =
            (is_primary ? old_p : old_m) != failed;
        plan.relocations += copy_existed ? 1 : 0;
        plan.actions.push_back(RecoveryAction{
            .block = ref,
            .read_from = source,
            .write_to = target,
            .rebuilds_primary = is_primary,
        });
      }
    }
  }
  return plan;
}

}  // namespace scaddar
