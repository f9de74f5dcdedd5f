#include "server/scheduler.h"

#include <gtest/gtest.h>

namespace scaddar {
namespace {

DiskSpec Spec(int64_t bandwidth) {
  return DiskSpec{.capacity_blocks = 1000,
                  .bandwidth_blocks_per_round = bandwidth};
}

TEST(RoundSchedulerTest, ServesWithinBandwidth) {
  DiskArray disks(Spec(2));
  ASSERT_TRUE(disks.SyncLiveSet({0}).ok());
  BlockStore store(&disks);
  ASSERT_TRUE(store.PlaceObject(1, {0, 0, 0, 0}).ok());
  std::vector<Stream> streams;
  streams.emplace_back(0, 1, 4, 0);
  streams.emplace_back(1, 1, 4, 0);
  RoundScheduler scheduler;
  const RoundServiceResult result =
      scheduler.Run(streams, store, disks, nullptr);
  EXPECT_EQ(result.requests, 2);
  EXPECT_EQ(result.served, 2);
  EXPECT_EQ(result.hiccups, 0);
  EXPECT_EQ(streams[0].next_block(), 1);
  EXPECT_EQ(streams[1].next_block(), 1);
}

TEST(RoundSchedulerTest, OverloadCausesHiccups) {
  DiskArray disks(Spec(1));
  ASSERT_TRUE(disks.SyncLiveSet({0}).ok());
  BlockStore store(&disks);
  ASSERT_TRUE(store.PlaceObject(1, {0, 0}).ok());
  std::vector<Stream> streams;
  streams.emplace_back(0, 1, 2, 0);
  streams.emplace_back(1, 1, 2, 0);
  streams.emplace_back(2, 1, 2, 0);
  RoundScheduler scheduler;
  const RoundServiceResult result =
      scheduler.Run(streams, store, disks, nullptr);
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
  DiskArray disks(Spec(4));
  ASSERT_TRUE(disks.SyncLiveSet({0, 1}).ok());
  BlockStore store(&disks);
  ASSERT_TRUE(store.PlaceObject(1, {0, 0}).ok());
  std::vector<Stream> streams;
  streams.emplace_back(0, 1, 2, 0);
  RoundScheduler scheduler;
  std::vector<int64_t> leftover;
  scheduler.Run(streams, store, disks, &leftover);
  EXPECT_EQ(leftover[0], 3);  // One of four units spent on disk 0.
  EXPECT_EQ(leftover[1], 4);  // Disk 1 untouched.
}

TEST(RoundSchedulerTest, FinishedStreamsAreSkipped) {
  DiskArray disks(Spec(4));
  ASSERT_TRUE(disks.SyncLiveSet({0}).ok());
  BlockStore store(&disks);
  ASSERT_TRUE(store.PlaceObject(1, {0}).ok());
  std::vector<Stream> streams;
  streams.emplace_back(0, 1, 1, 0);
  RoundScheduler scheduler;
  scheduler.Run(streams, store, disks, nullptr);
  ASSERT_TRUE(streams[0].finished());
  const RoundServiceResult result =
      scheduler.Run(streams, store, disks, nullptr);
  EXPECT_EQ(result.requests, 0);
  EXPECT_EQ(result.served, 0);
}

TEST(RoundSchedulerTest, ReadsRouteToMaterializedLocation) {
  // The block sits on disk 1 even if some placement would prefer disk 0:
  // the scheduler must consult the store.
  DiskArray disks(Spec(1));
  ASSERT_TRUE(disks.SyncLiveSet({0, 1}).ok());
  BlockStore store(&disks);
  ASSERT_TRUE(store.PlaceObject(1, {1}).ok());
  std::vector<Stream> streams;
  streams.emplace_back(0, 1, 1, 0);
  RoundScheduler scheduler;
  scheduler.Run(streams, store, disks, nullptr);
  EXPECT_EQ((*disks.GetDisk(1))->served_requests(), 1);
  EXPECT_EQ((*disks.GetDisk(0))->served_requests(), 0);
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
