#include "core/redistribution.h"

#include <cmath>
#include <set>

#include <gtest/gtest.h>

#include "core/mapper.h"
#include "random/sequence.h"

namespace scaddar {
namespace {

std::vector<uint64_t> MakeX0(uint64_t seed, int64_t n) {
  return X0Sequence::Create(PrngKind::kSplitMix64, seed, 64)
      .value()
      .Materialize(n);
}

TEST(MovePlanTest, MovementStatsAccounting) {
  MovePlan plan;
  plan.set_blocks_considered(100);
  for (int i = 0; i < 20; ++i) {
    plan.Add(BlockMove{.block = {1, i}});
  }
  const MovementStats stats = plan.ToMovementStats(4, 5);
  EXPECT_EQ(stats.total_blocks, 100);
  EXPECT_EQ(stats.moved_blocks, 20);
  EXPECT_DOUBLE_EQ(stats.moved_fraction, 0.2);
  EXPECT_DOUBLE_EQ(stats.theoretical_fraction, 0.2);
  EXPECT_DOUBLE_EQ(stats.overhead_ratio, 1.0);
}

TEST(PlanOperationTest, MatchesBruteForceDiff) {
  OpLog log = OpLog::Create(4).value();
  ASSERT_TRUE(log.Append(ScalingOp::Add(2).value()).ok());
  ASSERT_TRUE(log.Append(ScalingOp::Remove({1, 4}).value()).ok());
  const std::vector<uint64_t> x0_a = MakeX0(1, 500);
  const std::vector<uint64_t> x0_b = MakeX0(2, 300);
  const std::vector<ObjectBlocksView> objects = {{10, &x0_a}, {20, &x0_b}};
  const Mapper mapper(&log);
  for (Epoch j = 1; j <= log.num_ops(); ++j) {
    const MovePlan plan = PlanOperation(log, j, objects);
    EXPECT_EQ(plan.blocks_considered(), 800);
    // Brute force: count diffs via the mapper directly.
    std::set<std::pair<ObjectId, BlockIndex>> planned;
    for (const BlockMove& move : plan.moves()) {
      planned.insert({move.block.object, move.block.block});
      EXPECT_EQ(move.from_physical,
                log.physical_disks_at(j - 1)[static_cast<size_t>(
                    move.from_slot)]);
      EXPECT_EQ(move.to_physical,
                log.physical_disks_at(j)[static_cast<size_t>(move.to_slot)]);
      EXPECT_NE(move.from_physical, move.to_physical);
    }
    int64_t expected_moves = 0;
    for (const ObjectBlocksView& view : objects) {
      for (size_t i = 0; i < view.x0->size(); ++i) {
        const uint64_t x0 = (*view.x0)[i];
        const bool moved = mapper.PhysicalAfter(x0, j - 1) !=
                           mapper.PhysicalAfter(x0, j);
        EXPECT_EQ(planned.contains({view.object,
                                    static_cast<BlockIndex>(i)}),
                  moved);
        expected_moves += moved ? 1 : 0;
      }
    }
    EXPECT_EQ(plan.num_moves(), expected_moves);
  }
}

TEST(PlanOperationTest, AdditionMovesOnlyOntoNewDisks) {
  OpLog log = OpLog::Create(5).value();
  ASSERT_TRUE(log.Append(ScalingOp::Add(3).value()).ok());
  const std::vector<uint64_t> x0 = MakeX0(3, 5000);
  const MovePlan plan = PlanOperation(log, 1, {{1, &x0}});
  for (const BlockMove& move : plan.moves()) {
    EXPECT_GE(move.to_physical, 5);  // Only new physical ids 5, 6, 7.
    EXPECT_LE(move.to_physical, 7);
  }
  const MovementStats stats = plan.ToMovementStats(5, 8);
  EXPECT_NEAR(stats.overhead_ratio, 1.0, 0.08);  // RO1 within noise.
}

TEST(PlanOperationTest, RemovalMovesExactlyTheEvictedBlocks) {
  OpLog log = OpLog::Create(6).value();
  ASSERT_TRUE(log.Append(ScalingOp::Remove({2}).value()).ok());
  const std::vector<uint64_t> x0 = MakeX0(4, 6000);
  const Mapper mapper(&log);
  const MovePlan plan = PlanOperation(log, 1, {{1, &x0}});
  int64_t on_removed = 0;
  for (size_t i = 0; i < x0.size(); ++i) {
    if (mapper.PhysicalAfter(x0[i], 0) == 2) {
      ++on_removed;
    }
  }
  EXPECT_EQ(plan.num_moves(), on_removed);
  for (const BlockMove& move : plan.moves()) {
    EXPECT_EQ(move.from_physical, 2);
    EXPECT_NE(move.to_physical, 2);
  }
}

TEST(PlanFullRedistributionTest, IdenticalPlacementsNeedNoMoves) {
  OpLog log = OpLog::Create(4).value();
  const std::vector<uint64_t> x0 = MakeX0(5, 1000);
  const std::vector<ObjectBlocksView> views = {{1, &x0}};
  const MovePlan plan = PlanFullRedistribution(log, views, log, views);
  EXPECT_EQ(plan.num_moves(), 0);
  EXPECT_EQ(plan.blocks_considered(), 1000);
}

TEST(PlanFullRedistributionTest, FreshSeedsMoveMostBlocks) {
  const OpLog log = OpLog::Create(8).value();
  const std::vector<uint64_t> old_x0 = MakeX0(6, 4000);
  const std::vector<uint64_t> new_x0 = MakeX0(7, 4000);
  const MovePlan plan = PlanFullRedistribution(log, {{1, &old_x0}}, log,
                                               {{1, &new_x0}});
  // Independent uniform placements agree with probability 1/N = 1/8.
  const double moved_fraction =
      static_cast<double>(plan.num_moves()) / 4000.0;
  EXPECT_NEAR(moved_fraction, 7.0 / 8.0, 0.03);
}

TEST(PlanFullRedistributionTest, TargetsNewDiskSetCompletely) {
  // Old: 4 disks {0,1,2,3}; new log addresses disks {0,1,2,3,4,5}.
  OpLog old_log = OpLog::Create(4).value();
  OpLog new_log =
      OpLog::CreateWithIds({0, 1, 2, 3, 4, 5}).value();
  const std::vector<uint64_t> old_x0 = MakeX0(8, 3000);
  const std::vector<uint64_t> new_x0 = MakeX0(9, 3000);
  const MovePlan plan = PlanFullRedistribution(
      old_log, {{1, &old_x0}}, new_log, {{1, &new_x0}});
  std::set<PhysicalDiskId> destinations;
  for (const BlockMove& move : plan.moves()) {
    destinations.insert(move.to_physical);
    EXPECT_LE(move.to_physical, 5);
    EXPECT_LE(move.from_physical, 3);
  }
  EXPECT_EQ(destinations.size(), 6u);  // All six disks receive blocks.
}

TEST(PlanOperationDeathTest, EpochZeroHasNoOperation) {
  const OpLog log = OpLog::Create(4).value();
  const std::vector<uint64_t> x0 = MakeX0(10, 10);
  EXPECT_DEATH(PlanOperation(log, 1, {{1, &x0}}), "SCADDAR_CHECK");
}

}  // namespace
}  // namespace scaddar
