#include "storage/disk_array.h"

#include <gtest/gtest.h>

#include "storage/disk.h"

namespace scaddar {
namespace {

DiskSpec SmallSpec() {
  return DiskSpec{.capacity_blocks = 100, .bandwidth_blocks_per_round = 4};
}

TEST(SimDiskTest, OccupancyBounds) {
  SimDisk disk(1, SmallSpec());
  EXPECT_EQ(disk.num_blocks(), 0);
  EXPECT_FALSE(disk.IsFull());
  disk.AddBlocks(100);
  EXPECT_TRUE(disk.IsFull());
  disk.RemoveBlocks(40);
  EXPECT_EQ(disk.num_blocks(), 60);
}

TEST(SimDiskDeathTest, OverflowAborts) {
  SimDisk disk(1, SmallSpec());
  EXPECT_DEATH(disk.AddBlocks(101), "SCADDAR_CHECK");
  EXPECT_DEATH(disk.RemoveBlocks(1), "SCADDAR_CHECK");
}

TEST(SimDiskTest, ServiceCounters) {
  SimDisk disk(1, SmallSpec());
  disk.RecordServedRequests(3);
  disk.RecordServedRequests(2);
  disk.RecordMigrationTransfers(7);
  EXPECT_EQ(disk.served_requests(), 5);
  EXPECT_EQ(disk.migration_transfers(), 7);
}

TEST(DiskArrayTest, SyncCreatesMissingDisks) {
  DiskArray array(SmallSpec());
  ASSERT_TRUE(array.SyncLiveSet({0, 1, 2}).ok());
  EXPECT_EQ(array.num_live(), 3);
  EXPECT_TRUE(array.IsLive(1));
  EXPECT_FALSE(array.IsLive(5));
  EXPECT_EQ(array.live_ids(), (std::vector<PhysicalDiskId>{0, 1, 2}));
  EXPECT_EQ(array.TotalBandwidth(), 12);
  EXPECT_EQ(array.TotalFreeCapacity(), 300);
}

TEST(DiskArrayTest, SyncRetiresEmptyDisks) {
  DiskArray array(SmallSpec());
  ASSERT_TRUE(array.SyncLiveSet({0, 1, 2}).ok());
  ASSERT_TRUE(array.SyncLiveSet({0, 2}).ok());
  EXPECT_EQ(array.num_live(), 2);
  EXPECT_FALSE(array.IsLive(1));
  // The retired disk's object still exists for post-mortem stats.
  EXPECT_TRUE(array.GetDisk(1).ok());
}

TEST(DiskArrayTest, SyncRefusesToRetireLoadedDisk) {
  DiskArray array(SmallSpec());
  ASSERT_TRUE(array.SyncLiveSet({0, 1}).ok());
  (*array.GetDisk(1))->AddBlocks(5);
  const Status status = array.SyncLiveSet({0});
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
  EXPECT_TRUE(array.IsLive(1));  // Unchanged on failure.
}

TEST(DiskArrayTest, RetiredDiskCanComeBack) {
  DiskArray array(SmallSpec());
  ASSERT_TRUE(array.SyncLiveSet({0, 1}).ok());
  ASSERT_TRUE(array.SyncLiveSet({0}).ok());
  ASSERT_TRUE(array.SyncLiveSet({0, 1}).ok());
  EXPECT_TRUE(array.IsLive(1));
}

TEST(DiskArrayTest, AddDiskWithCustomSpec) {
  DiskArray array(SmallSpec());
  const DiskSpec big{.capacity_blocks = 1000,
                     .bandwidth_blocks_per_round = 16};
  ASSERT_TRUE(array.AddDisk(9, big).ok());
  EXPECT_EQ(array.AddDisk(9, big).code(), StatusCode::kAlreadyExists);
  EXPECT_EQ((*array.GetDisk(9))->spec().bandwidth_blocks_per_round, 16);
  EXPECT_EQ(array.TotalBandwidth(), 16);
}

TEST(DiskArrayTest, UnknownDiskIsNotFound) {
  DiskArray array(SmallSpec());
  EXPECT_EQ(array.GetDisk(3).status().code(), StatusCode::kNotFound);
}

// The table is indexed by physical id: gaps, ids past the end and negative
// ids hold no disk, and negative ids cannot be created.
TEST(DiskArrayTest, GapsAndNegativeIdsHoldNoDisk) {
  DiskArray array(SmallSpec());
  ASSERT_TRUE(array.SyncLiveSet({0, 4}).ok());
  EXPECT_EQ(array.GetDisk(2).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(array.GetDisk(5).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(array.GetDisk(-1).status().code(), StatusCode::kNotFound);
  EXPECT_FALSE(array.IsLive(2));
  EXPECT_FALSE(array.IsLive(-1));
  EXPECT_EQ(array.SyncLiveSet({0, -2}).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(array.AddDisk(-1, SmallSpec()).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(array.live_ids(), (std::vector<PhysicalDiskId>{0, 4}));
}

// The budget template follows every change of the live set: it equals a
// rebuild from `live_ids()` — each live disk's bandwidth at its id,
// `kNotLive` in every gap, nothing past the largest live id.
TEST(DiskArrayTest, BudgetTemplateTracksLiveSet) {
  DiskArray array(SmallSpec());
  const auto rebuilt = [&array] {
    const std::vector<PhysicalDiskId> live = array.live_ids();
    std::vector<int64_t> budgets(
        live.empty() ? 0 : static_cast<size_t>(live.back() + 1), kNotLive);
    for (const PhysicalDiskId id : live) {
      budgets[static_cast<size_t>(id)] =
          (*array.GetDisk(id))->spec().bandwidth_blocks_per_round;
    }
    return budgets;
  };
  EXPECT_TRUE(array.BandwidthBudgets().empty());
  ASSERT_TRUE(array.SyncLiveSet({3, 0, 1}).ok());
  EXPECT_EQ(array.BandwidthBudgets(),
            (std::vector<int64_t>{4, 4, kNotLive, 4}));
  ASSERT_TRUE(array.AddDisk(6, DiskSpec{.capacity_blocks = 10,
                                        .bandwidth_blocks_per_round = 9})
                  .ok());
  EXPECT_EQ(array.BandwidthBudgets(), rebuilt());
  EXPECT_EQ(array.BandwidthBudgets()[6], 9);
  EXPECT_EQ(array.TotalBandwidth(), 21);
  ASSERT_TRUE(array.SyncLiveSet({0, 1}).ok());  // Retires 3 and 6.
  EXPECT_EQ(array.BandwidthBudgets(), (std::vector<int64_t>{4, 4}));
  (*array.GetDisk(1))->AddBlocks(1);
  EXPECT_FALSE(array.SyncLiveSet({0}).ok());  // Refused: disk 1 is loaded.
  EXPECT_EQ(array.BandwidthBudgets(), (std::vector<int64_t>{4, 4}));
  ASSERT_TRUE(array.SyncLiveSet({1, 6}).ok());  // Retired disk 6 returns.
  EXPECT_EQ(array.BandwidthBudgets(), rebuilt());
  EXPECT_EQ(array.num_live(), 2);
}

TEST(DiskArrayTest, LiveOccupancyOrdering) {
  DiskArray array(SmallSpec());
  ASSERT_TRUE(array.SyncLiveSet({2, 0, 1}).ok());
  (*array.GetDisk(0))->AddBlocks(5);
  (*array.GetDisk(2))->AddBlocks(9);
  EXPECT_EQ(array.LiveOccupancy(), (std::vector<int64_t>{5, 0, 9}));
}

}  // namespace
}  // namespace scaddar
