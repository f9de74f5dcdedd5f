// Failure drill: a mirrored SCADDAR array loses a disk without warning.
// The operator models the failure as a removal operation, asks the
// recovery planner for the exact transfer list that restores full 2-way
// redundancy, and audits that no transfer reads the dead disk.
//
// Run: ./build/examples/failure_drill

#include <cstdio>
#include <vector>

#include "faults/recovery.h"
#include "random/sequence.h"

using scaddar::BlockIndex;
using scaddar::PhysicalDiskId;
using scaddar::PlanMirrorRecovery;
using scaddar::PrngKind;
using scaddar::RecoveryPlan;
using scaddar::ReplicaOffset;
using scaddar::ScaddarPolicy;
using scaddar::ScalingOp;
using scaddar::X0Sequence;

int main() {
  constexpr int64_t kDisks = 10;
  constexpr int64_t kBlocks = 50000;
  constexpr scaddar::DiskSlot kFailedSlot = 6;

  ScaddarPolicy policy(kDisks);
  const std::vector<uint64_t> x0 =
      X0Sequence::Create(PrngKind::kSplitMix64, 0xfee1u, 64)
          .value()
          .Materialize(kBlocks);
  SCADDAR_CHECK(policy.AddObject(1, x0, /*copies=*/2).ok());

  // Before the failure: every block has a primary and a mirror at offset
  // f(N) = N/2, always on distinct disks. Copy r of block i is row
  // r*kBlocks + i of the object's batch AF().
  const PhysicalDiskId failed_disk =
      policy.log().physical_disks()[kFailedSlot];
  std::printf("array: %lld disks, %lld blocks, mirrored at offset %lld\n",
              static_cast<long long>(kDisks),
              static_cast<long long>(kBlocks),
              static_cast<long long>(ReplicaOffset(kDisks, 2, 1)));
  std::printf("disk %lld fails unexpectedly...\n\n",
              static_cast<long long>(failed_disk));

  // 1. Reads keep working immediately: the mirror serves the dead disk's
  //    share. (No remap needed for availability — only for re-protection.)
  {
    std::vector<PhysicalDiskId> rows;
    policy.LocateAllBlocks(1, rows);
    int64_t served_by_mirror = 0;
    for (BlockIndex i = 0; i < kBlocks; ++i) {
      const PhysicalDiskId primary = rows[static_cast<size_t>(i)];
      const PhysicalDiskId mirror = rows[static_cast<size_t>(kBlocks + i)];
      SCADDAR_CHECK(primary != failed_disk || mirror != failed_disk);
      served_by_mirror += primary == failed_disk ? 1 : 0;
    }
    std::printf("phase 1 — degraded service: all %lld blocks readable; "
                "%lld served from mirrors\n",
                static_cast<long long>(kBlocks),
                static_cast<long long>(served_by_mirror));
  }

  // 2. Re-protect: apply the failure as a removal op and plan recovery.
  SCADDAR_CHECK(policy.ApplyOp(ScalingOp::Remove({kFailedSlot}).value()).ok());
  const RecoveryPlan plan = PlanMirrorRecovery(policy).value();
  std::printf("\nphase 2 — recovery plan (failure = removal op, now %lld "
              "disks):\n",
              static_cast<long long>(policy.current_disks()));
  std::printf("  lost copies      : %lld primaries, %lld mirrors\n",
              static_cast<long long>(plan.lost_primaries),
              static_cast<long long>(plan.lost_mirrors));
  std::printf("  transfers needed : %lld (incl. %lld offset-induced "
              "relocations)\n",
              static_cast<long long>(plan.num_actions()),
              static_cast<long long>(plan.relocations));

  // 3. Audit the plan.
  int64_t reads_from_dead_disk = 0;
  for (const auto& action : plan.actions) {
    reads_from_dead_disk += action.read_from == failed_disk ? 1 : 0;
  }
  std::printf("  audit            : %lld transfers read the dead disk "
              "(must be 0)\n",
              static_cast<long long>(reads_from_dead_disk));

  // 4. After executing the plan, redundancy is full again under the new
  //    layout; the op log alone records what happened:
  std::printf("\nop log after the drill: \"%s\"\n",
              policy.log().Serialize().c_str());
  return 0;
}
