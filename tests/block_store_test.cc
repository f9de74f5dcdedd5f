#include "storage/block_store.h"

#include <gtest/gtest.h>

#include <map>
#include <random>

#include "placement/scaddar_policy.h"
#include "random/sequence.h"

namespace scaddar {
namespace {

std::vector<uint64_t> MakeX0(uint64_t seed, int64_t n) {
  return X0Sequence::Create(PrngKind::kSplitMix64, seed, 64)
      .value()
      .Materialize(n);
}

TEST(BlockStoreTest, PlaceAndLocate) {
  BlockStore store;
  ASSERT_TRUE(store.PlaceObject(1, {0, 1, 2, 0}).ok());
  EXPECT_EQ(store.total_blocks(), 4);
  EXPECT_EQ(*store.LocationOf({1, 0}), 0);
  EXPECT_EQ(*store.LocationOf({1, 2}), 2);
  EXPECT_EQ(store.CountOn(0), 2);
  EXPECT_EQ(store.CountOn(1), 1);
  EXPECT_EQ(store.CountOn(9), 0);
}

TEST(BlockStoreTest, PlaceValidation) {
  BlockStore store;
  EXPECT_FALSE(store.PlaceObject(1, {}).ok());
  ASSERT_TRUE(store.PlaceObject(1, {0}).ok());
  EXPECT_EQ(store.PlaceObject(1, {0}).code(), StatusCode::kAlreadyExists);
}

TEST(BlockStoreTest, LocationErrors) {
  BlockStore store;
  ASSERT_TRUE(store.PlaceObject(1, {0, 1}).ok());
  EXPECT_EQ(store.LocationOf({2, 0}).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(store.LocationOf({1, 2}).status().code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(store.LocationOf({1, -1}).status().code(),
            StatusCode::kOutOfRange);
}

TEST(BlockStoreTest, DropObject) {
  BlockStore store;
  ASSERT_TRUE(store.PlaceObject(1, {0, 0}).ok());
  ASSERT_TRUE(store.DropObject(1).ok());
  EXPECT_EQ(store.total_blocks(), 0);
  EXPECT_EQ(store.CountOn(0), 0);
  EXPECT_EQ(store.DropObject(1).code(), StatusCode::kNotFound);
}

TEST(BlockStoreTest, ApplyMoveChecksSource) {
  BlockStore store;
  ASSERT_TRUE(store.PlaceObject(1, {0, 1}).ok());
  BlockMove move{.block = {1, 0}, .from_physical = 5, .to_physical = 2};
  EXPECT_EQ(store.ApplyMove(move).code(), StatusCode::kFailedPrecondition);
  move.from_physical = 0;
  ASSERT_TRUE(store.ApplyMove(move).ok());
  EXPECT_EQ(*store.LocationOf({1, 0}), 2);
  EXPECT_EQ(store.CountOn(0), 0);
  EXPECT_EQ(store.CountOn(2), 1);
}

TEST(BlockStoreTest, KeepsDiskArrayOccupancyInSync) {
  DiskArray disks(DiskSpec{.capacity_blocks = 100,
                           .bandwidth_blocks_per_round = 4});
  ASSERT_TRUE(disks.SyncLiveSet({0, 1, 2}).ok());
  BlockStore store(&disks);
  ASSERT_TRUE(store.PlaceObject(1, {0, 0, 1}).ok());
  EXPECT_EQ((*disks.GetDisk(0))->num_blocks(), 2);
  EXPECT_EQ((*disks.GetDisk(1))->num_blocks(), 1);
  ASSERT_TRUE(store.ApplyMove(BlockMove{
      .block = {1, 0}, .from_physical = 0, .to_physical = 2}).ok());
  EXPECT_EQ((*disks.GetDisk(0))->num_blocks(), 1);
  EXPECT_EQ((*disks.GetDisk(2))->num_blocks(), 1);
  ASSERT_TRUE(store.DropObject(1).ok());
  EXPECT_EQ((*disks.GetDisk(2))->num_blocks(), 0);
}

// Ingest and drop count a row per disk and adjust each disk once; the
// result must equal a per-block recount of the rows and staged copies,
// both in `per_disk_counts()` and in every disk's occupancy.
TEST(BlockStoreTest, OccupancyMatchesPerBlockRecount) {
  constexpr PhysicalDiskId kDisks = 7;
  DiskArray disks(DiskSpec{.capacity_blocks = 10'000,
                           .bandwidth_blocks_per_round = 4});
  std::vector<PhysicalDiskId> all;
  for (PhysicalDiskId id = 0; id < kDisks; ++id) {
    all.push_back(id);
  }
  ASSERT_TRUE(disks.SyncLiveSet(all).ok());
  BlockStore store(&disks);
  std::mt19937_64 rng(7);
  const auto disk = [&rng] {
    return static_cast<PhysicalDiskId>(rng() % static_cast<uint64_t>(kDisks));
  };
  const auto expect_recount = [&](std::string_view step) {
    std::map<PhysicalDiskId, int64_t> recount;
    for (ObjectId id = 1; id <= 6; ++id) {
      const auto row = store.LocationsOf(id);
      if (row.ok()) {
        for (const PhysicalDiskId d : *row) {
          ++recount[d];
        }
      }
    }
    for (const auto& [ref, d] : store.StagedCopies()) {
      ++recount[d];
    }
    const std::map<PhysicalDiskId, int64_t> counts(
        store.per_disk_counts().begin(), store.per_disk_counts().end());
    EXPECT_EQ(counts, recount) << step;
    for (PhysicalDiskId id = 0; id < kDisks; ++id) {
      EXPECT_EQ((*disks.GetDisk(id))->num_blocks(),
                recount.contains(id) ? recount.at(id) : 0)
          << step << " disk " << id;
    }
  };
  for (ObjectId id = 1; id <= 6; ++id) {
    std::vector<PhysicalDiskId> row(static_cast<size_t>(50 + 20 * id));
    for (PhysicalDiskId& d : row) {
      d = id == 3 ? 5 : disk();  // Object 3 sits on one disk only.
    }
    ASSERT_TRUE(store.PlaceObject(id, row).ok());
  }
  expect_recount("place");
  ASSERT_TRUE(store.DropObject(2).ok());
  expect_recount("drop");
  for (BlockIndex b = 0; b < 40; ++b) {
    const PhysicalDiskId from = *store.LocationOf({4, b});
    ASSERT_TRUE(store
                    .ApplyMove(BlockMove{.block = {4, b},
                                         .from_physical = from,
                                         .to_physical = (from + 1) % kDisks})
                    .ok());
  }
  expect_recount("move");
  for (BlockIndex b = 0; b < 30; ++b) {
    const PhysicalDiskId from = *store.LocationOf({5, b});
    ASSERT_TRUE(store.StageCopy({5, b}, (from + 2) % kDisks).ok());
  }
  expect_recount("stage");
  for (BlockIndex b = 0; b < 10; ++b) {
    const PhysicalDiskId from = *store.LocationOf({5, b});
    ASSERT_TRUE(store.CommitStagedMove({5, b}, from, (from + 2) % kDisks).ok());
  }
  for (BlockIndex b = 10; b < 20; ++b) {
    ASSERT_TRUE(store.AbortStagedCopy({5, b}).ok());
  }
  expect_recount("commit/abort");
  ASSERT_TRUE(store.DropObject(5).ok());  // Releases 10 staged copies too.
  ASSERT_TRUE(store.DropObject(3).ok());
  expect_recount("drop staged");
  EXPECT_EQ(store.staged_blocks(), 0);
}

TEST(BlockStoreTest, PlaceRejectsNegativeDiskIds) {
  BlockStore store;
  EXPECT_EQ(store.PlaceObject(1, {0, -1}).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(store.total_blocks(), 0);
  EXPECT_TRUE(store.per_disk_counts().empty());
  EXPECT_EQ(store.LocationsOf(1).status().code(), StatusCode::kNotFound);
}

TEST(BlockStoreTest, VerifyAgainstPolicyDetectsDrift) {
  ScaddarPolicy policy(4);
  const std::vector<uint64_t> x0 = MakeX0(1, 100);
  ASSERT_TRUE(policy.AddObject(1, x0).ok());
  BlockStore store;
  std::vector<PhysicalDiskId> locations;
  for (BlockIndex i = 0; i < 100; ++i) {
    locations.push_back(policy.Locate(1, i));
  }
  ASSERT_TRUE(store.PlaceObject(1, locations).ok());
  EXPECT_TRUE(store.VerifyAgainstPolicy(policy).ok());
  // Scaling without applying the plan makes the store stale.
  ASSERT_TRUE(policy.ApplyOp(ScalingOp::Add(2).value()).ok());
  EXPECT_EQ(store.VerifyAgainstPolicy(policy).code(), StatusCode::kInternal);
}

TEST(BlockStoreTest, ApplyPlanConvergesToPolicy) {
  ScaddarPolicy policy(4);
  const std::vector<uint64_t> x0 = MakeX0(2, 2000);
  ASSERT_TRUE(policy.AddObject(1, x0).ok());
  BlockStore store;
  std::vector<PhysicalDiskId> locations;
  for (BlockIndex i = 0; i < 2000; ++i) {
    locations.push_back(policy.Locate(1, i));
  }
  ASSERT_TRUE(store.PlaceObject(1, locations).ok());
  ASSERT_TRUE(policy.ApplyOp(ScalingOp::Remove({1}).value()).ok());
  const MovePlan plan = PlanOperation(policy.log(), 1, {{1, &x0}});
  ASSERT_TRUE(store.ApplyPlan(plan).ok());
  EXPECT_TRUE(store.VerifyAgainstPolicy(policy).ok());
}

}  // namespace
}  // namespace scaddar
