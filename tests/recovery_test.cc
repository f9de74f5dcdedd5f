#include "faults/recovery.h"

#include <map>
#include <set>

#include <gtest/gtest.h>

#include "random/sequence.h"

namespace scaddar {
namespace {

std::vector<uint64_t> MakeX0(uint64_t seed, int64_t n) {
  return X0Sequence::Create(PrngKind::kSplitMix64, seed, 64)
      .value()
      .Materialize(n);
}

// Disks of object 1's copies: the primary of block i is row i, its mirror
// row blocks + i.
std::vector<PhysicalDiskId> CopyRows(const ScaddarPolicy& policy) {
  std::vector<PhysicalDiskId> rows;
  policy.LocateAllBlocks(1, rows);
  return rows;
}

// Builds a mirrored policy, records the pre-failure copy sets, fails
// `slot`, and returns (policy-after, plan).
struct Scenario {
  Scenario(int64_t n0, int64_t blocks, DiskSlot failed_slot)
      : policy(n0) {
    SCADDAR_CHECK(policy.AddObject(1, MakeX0(9, blocks), 2).ok());
    const std::vector<PhysicalDiskId> rows = CopyRows(policy);
    for (BlockIndex i = 0; i < blocks; ++i) {
      before_copies[i] = {rows[static_cast<size_t>(i)],
                          rows[static_cast<size_t>(blocks + i)]};
    }
    failed = policy.log().physical_disks()[static_cast<size_t>(failed_slot)];
    SCADDAR_CHECK(
        policy.ApplyOp(ScalingOp::Remove({failed_slot}).value()).ok());
  }

  ScaddarPolicy policy;
  std::map<BlockIndex, std::set<PhysicalDiskId>> before_copies;
  PhysicalDiskId failed = -1;
};

TEST(RecoveryTest, PreconditionsEnforced) {
  ScaddarPolicy fresh(4);
  EXPECT_EQ(PlanMirrorRecovery(fresh).status().code(),
            StatusCode::kFailedPrecondition);
  ScaddarPolicy added(4);
  ASSERT_TRUE(added.ApplyOp(ScalingOp::Add(1).value()).ok());
  EXPECT_EQ(PlanMirrorRecovery(added).status().code(),
            StatusCode::kFailedPrecondition);
  ScaddarPolicy group(6);
  ASSERT_TRUE(group.ApplyOp(ScalingOp::Remove({0, 1}).value()).ok());
  EXPECT_EQ(PlanMirrorRecovery(group).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(RecoveryTest, NeverReadsFromTheFailedDisk) {
  Scenario scenario(8, 4000, 3);
  const StatusOr<RecoveryPlan> plan = PlanMirrorRecovery(scenario.policy);
  ASSERT_TRUE(plan.ok());
  for (const RecoveryAction& action : plan->actions) {
    EXPECT_NE(action.read_from, scenario.failed);
    EXPECT_NE(action.write_to, scenario.failed);
    EXPECT_NE(action.read_from, action.write_to);
  }
}

TEST(RecoveryTest, SourcesHeldTheBlockBeforeTheFailure) {
  Scenario scenario(8, 4000, 5);
  const StatusOr<RecoveryPlan> plan = PlanMirrorRecovery(scenario.policy);
  ASSERT_TRUE(plan.ok());
  for (const RecoveryAction& action : plan->actions) {
    EXPECT_TRUE(
        scenario.before_copies[action.block.block].contains(action.read_from))
        << "block " << action.block.block << " read from a disk that never "
        << "held it";
  }
}

TEST(RecoveryTest, ExecutionRestoresFullRedundancy) {
  Scenario scenario(10, 6000, 7);
  const StatusOr<RecoveryPlan> plan = PlanMirrorRecovery(scenario.policy);
  ASSERT_TRUE(plan.ok());
  // Simulate execution: start from surviving copies, apply all writes.
  std::map<BlockIndex, std::set<PhysicalDiskId>> copies;
  for (const auto& [block, replicas] : scenario.before_copies) {
    for (const PhysicalDiskId disk : replicas) {
      if (disk != scenario.failed) {
        copies[block].insert(disk);
      }
    }
  }
  for (const RecoveryAction& action : plan->actions) {
    ASSERT_TRUE(copies[action.block.block].contains(action.read_from));
    copies[action.block.block].insert(action.write_to);
  }
  // Every block must now be present at its post-failure primary AND mirror.
  const std::vector<PhysicalDiskId> rows = CopyRows(scenario.policy);
  for (const auto& [block, replicas] : copies) {
    EXPECT_TRUE(replicas.contains(rows[static_cast<size_t>(block)]))
        << "block " << block;
    EXPECT_TRUE(replicas.contains(rows[static_cast<size_t>(6000 + block)]))
        << "block " << block;
  }
}

TEST(RecoveryTest, LossAccountingMatchesPreFailureLayout) {
  Scenario scenario(8, 8000, 2);
  const StatusOr<RecoveryPlan> plan = PlanMirrorRecovery(scenario.policy);
  ASSERT_TRUE(plan.ok());
  // Recount by role using a fresh mirrored view of the pre-failure epoch:
  // primaries lost = blocks whose primary was the failed disk.
  int64_t expected_primaries = 0;
  int64_t expected_mirrors = 0;
  ScaddarPolicy reference(8);
  ASSERT_TRUE(reference.AddObject(1, MakeX0(9, 8000), 2).ok());
  const std::vector<PhysicalDiskId> rows = CopyRows(reference);
  for (BlockIndex i = 0; i < 8000; ++i) {
    expected_primaries +=
        rows[static_cast<size_t>(i)] == scenario.failed ? 1 : 0;
    expected_mirrors +=
        rows[static_cast<size_t>(8000 + i)] == scenario.failed ? 1 : 0;
  }
  EXPECT_EQ(plan->lost_primaries, expected_primaries);
  EXPECT_EQ(plan->lost_mirrors, expected_mirrors);
  // Each block loses at most one copy under a single failure; roughly 2/8
  // of blocks are touched.
  EXPECT_NEAR(static_cast<double>(plan->lost_primaries + plan->lost_mirrors) /
                  8000.0,
              0.25, 0.03);
}

TEST(RecoveryTest, LateObjectsAreSkipped) {
  Scenario scenario(8, 1000, 1);
  // An object ingested after the failure is already fully redundant.
  ASSERT_TRUE(scenario.policy.AddObject(2, MakeX0(10, 500)).ok());
  const StatusOr<RecoveryPlan> plan = PlanMirrorRecovery(scenario.policy);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->blocks_considered, 1000);
  for (const RecoveryAction& action : plan->actions) {
    EXPECT_EQ(action.block.object, 1);
  }
}

TEST(RecoveryTest, TwoDiskArrayRecovers) {
  Scenario scenario(3, 600, 0);  // 3 -> 2 disks; offset becomes 1.
  const StatusOr<RecoveryPlan> plan = PlanMirrorRecovery(scenario.policy);
  ASSERT_TRUE(plan.ok());
  EXPECT_GT(plan->num_actions(), 0);
}

}  // namespace
}  // namespace scaddar
