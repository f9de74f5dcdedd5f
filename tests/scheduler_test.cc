#include "server/scheduler.h"

#include <gtest/gtest.h>

#include <vector>

#include "placement/scaddar_policy.h"
#include "server/migration.h"

namespace scaddar {
namespace {

DiskSpec Spec(int64_t bandwidth) {
  return DiskSpec{.capacity_blocks = 1000,
                  .bandwidth_blocks_per_round = bandwidth};
}

/// One object over `n0` disks whose store row is AF(): with no scaling ops
/// SCADDAR places block i on disk `x0[i] mod n0`, so the test picks every
/// block's disk through its X0.
struct Farm {
  Farm(int64_t n0, int64_t bandwidth, const std::vector<uint64_t>& x0)
      : policy(n0), disks(Spec(bandwidth)), store(&disks) {
    SCADDAR_CHECK(policy.AddObject(1, x0).ok());
    SCADDAR_CHECK(disks.SyncLiveSet(policy.log().physical_disks()).ok());
    std::vector<PhysicalDiskId> row;
    policy.LocateAllBlocks(1, row);
    SCADDAR_CHECK(store.PlaceObject(1, row).ok());
  }

  RoundServiceResult Serve(std::vector<Stream>& streams,
                           std::vector<int64_t>* leftover = nullptr) {
    return scheduler.RunBatched(streams, store, disks, leftover);
  }

  ScaddarPolicy policy;
  DiskArray disks;
  BlockStore store;
  MigrationExecutor migration;
  RoundScheduler scheduler;
};

TEST(RoundSchedulerTest, ServesWithinBandwidth) {
  Farm farm(1, 2, {0, 0, 0, 0});
  std::vector<Stream> streams;
  streams.emplace_back(0, 1, 4, 0);
  streams.emplace_back(1, 1, 4, 0);
  const RoundServiceResult result = farm.Serve(streams);
  EXPECT_EQ(result.requests, 2);
  EXPECT_EQ(result.served, 2);
  EXPECT_EQ(result.hiccups, 0);
  EXPECT_EQ(streams[0].next_block(), 1);
  EXPECT_EQ(streams[1].next_block(), 1);
}

TEST(RoundSchedulerTest, OverloadCausesHiccups) {
  Farm farm(1, 1, {0, 0});
  std::vector<Stream> streams;
  streams.emplace_back(0, 1, 2, 0);
  streams.emplace_back(1, 1, 2, 0);
  streams.emplace_back(2, 1, 2, 0);
  const RoundServiceResult result = farm.Serve(streams);
  EXPECT_EQ(result.requests, 3);
  EXPECT_EQ(result.served, 1);
  EXPECT_EQ(result.hiccups, 2);
  // FIFO: stream 0 got the block; the others stalled in place.
  EXPECT_EQ(streams[0].next_block(), 1);
  EXPECT_EQ(streams[1].next_block(), 0);
  EXPECT_EQ(streams[1].hiccups(), 1);
  EXPECT_EQ(streams[2].hiccups(), 1);
}

TEST(RoundSchedulerTest, LeftoverBandwidthReported) {
  Farm farm(2, 4, {0, 2});  // Both blocks on disk 0.
  std::vector<Stream> streams;
  streams.emplace_back(0, 1, 2, 0);
  std::vector<int64_t> leftover;
  farm.Serve(streams, &leftover);
  EXPECT_EQ(leftover[0], 3);  // One of four units spent on disk 0.
  EXPECT_EQ(leftover[1], 4);  // Disk 1 untouched.
}

TEST(RoundSchedulerTest, FinishedStreamsAreSkipped) {
  Farm farm(1, 4, {0});
  std::vector<Stream> streams;
  streams.emplace_back(0, 1, 1, 0);
  farm.Serve(streams);
  ASSERT_TRUE(streams[0].finished());
  const RoundServiceResult result = farm.Serve(streams);
  EXPECT_EQ(result.requests, 0);
  EXPECT_EQ(result.served, 0);
}

TEST(RoundSchedulerTest, ReadsRouteToMaterializedLocation) {
  // AF() says disk 0, but the block still sits on disk 1 with its
  // reconciliation move pending: the read must go to the store row, or it
  // would serve a block the disk does not hold.
  Farm farm(2, 1, {0});
  ASSERT_EQ(farm.policy.Locate(1, 0), 0);
  ASSERT_TRUE(farm.store.DropObject(1).ok());
  ASSERT_TRUE(farm.store.PlaceObject(1, {1}).ok());
  farm.migration.EnqueueReconciliation(farm.store, farm.policy);
  ASSERT_EQ(farm.migration.pending(), 1);
  std::vector<Stream> streams;
  streams.emplace_back(0, 1, 1, 0);
  const RoundServiceResult result = farm.Serve(streams);
  EXPECT_EQ(result.served, 1);
  EXPECT_EQ((*farm.disks.GetDisk(1))->served_requests(), 1);
  EXPECT_EQ((*farm.disks.GetDisk(0))->served_requests(), 0);
}

TEST(StreamTest, LifecycleAndHiccups) {
  Stream stream(7, 3, 2, 10);
  EXPECT_EQ(stream.id(), 7);
  EXPECT_EQ(stream.object(), 3);
  EXPECT_EQ(stream.start_round(), 10);
  EXPECT_FALSE(stream.finished());
  EXPECT_EQ(stream.NextBlockRef(), (BlockRef{3, 0}));
  stream.RecordHiccup();
  EXPECT_EQ(stream.hiccups(), 1);
  EXPECT_EQ(stream.next_block(), 0);
  stream.DeliverBlock();
  stream.DeliverBlock();
  EXPECT_TRUE(stream.finished());
}

}  // namespace
}  // namespace scaddar
