#include "server/location_cursor.h"

#include <gtest/gtest.h>

#include "placement/scaddar_policy.h"
#include "random/sequence.h"
#include "server/migration.h"
#include "storage/block_store.h"

namespace scaddar {
namespace {

std::vector<uint64_t> MakeX0(uint64_t seed, int64_t n) {
  return X0Sequence::Create(PrngKind::kSplitMix64, seed, 64)
      .value()
      .Materialize(n);
}

constexpr int64_t kBlocks = 2000;

/// Policy + store + migration wired like the server's serving path.
struct Fixture {
  explicit Fixture(int64_t n0 = 4)
      : policy(n0),
        disks(DiskSpec{.capacity_blocks = 1'000'000,
                       .bandwidth_blocks_per_round = 8}),
        store(&disks) {
    SCADDAR_CHECK(policy.AddObject(1, MakeX0(1, kBlocks)).ok());
    SCADDAR_CHECK(disks.SyncLiveSet(policy.log().physical_disks()).ok());
    std::vector<PhysicalDiskId> locations;
    for (BlockIndex i = 0; i < kBlocks; ++i) {
      locations.push_back(policy.Locate(1, i));
    }
    SCADDAR_CHECK(store.PlaceObject(1, locations).ok());
  }

  /// Applies an Add op and queues the divergence, like CmServer::ScaleAdd.
  void ScaleAdd(int64_t count) {
    SCADDAR_CHECK(policy.ApplyOp(ScalingOp::Add(count).value()).ok());
    SCADDAR_CHECK(disks.SyncLiveSet(policy.log().physical_disks()).ok());
    migration.EnqueueReconciliation(store, policy);
  }

  void DrainMigration() {
    while (!migration.idle()) {
      std::vector<int64_t> budget = disks.BandwidthBudgets();
      for (const PhysicalDiskId id : disks.live_ids()) {
        budget[static_cast<size_t>(id)] = 100;
      }
      migration.RunRound(budget, store, disks, policy);
    }
  }

  ScaddarPolicy policy;
  DiskArray disks;
  BlockStore store;
  MigrationExecutor migration;
};

TEST(LocationCursorTest, MatchesStoreTruthOverFullPlayback) {
  Fixture fx;
  LocationCursor cursor(1, kBlocks);
  for (BlockIndex i = 0; i < kBlocks; ++i) {
    EXPECT_EQ(cursor.Get(i, fx.policy, fx.store, fx.migration),
              *fx.store.LocationOf({1, i}))
        << "block " << i;
  }
}

TEST(LocationCursorTest, SequentialReadsRefillOncePerWindow) {
  Fixture fx;
  LocationCursor cursor(1, kBlocks, /*window=*/128);
  for (BlockIndex i = 0; i < kBlocks; ++i) {
    cursor.Get(i, fx.policy, fx.store, fx.migration);
  }
  EXPECT_EQ(cursor.refills(), (kBlocks + 127) / 128);
}

TEST(LocationCursorTest, ScalingOpMidStreamRedirectsToPostOpLocations) {
  Fixture fx;
  LocationCursor cursor(1, kBlocks, /*window=*/256);
  // Play the first half; the window is warm past the read point.
  for (BlockIndex i = 0; i < kBlocks / 2; ++i) {
    ASSERT_EQ(cursor.Get(i, fx.policy, fx.store, fx.migration),
              *fx.store.LocationOf({1, i}));
  }
  // Scaling op between rounds: the op log revision changes, divergent
  // blocks are queued, and the store starts drifting toward the new AF().
  fx.ScaleAdd(2);
  // Mid-migration the cursor must keep following materialized truth
  // (reads go to where blocks *are*), re-resolving as moves land.
  BlockIndex i = kBlocks / 2;
  for (; i < kBlocks / 2 + 64; ++i) {
    ASSERT_EQ(cursor.Get(i, fx.policy, fx.store, fx.migration),
              *fx.store.LocationOf({1, i}))
        << "mid-migration block " << i;
    std::vector<int64_t> budget = fx.disks.BandwidthBudgets();
    for (const PhysicalDiskId id : fx.disks.live_ids()) {
      budget[static_cast<size_t>(id)] = 4;
    }
    fx.migration.RunRound(budget, fx.store, fx.disks, fx.policy);
  }
  fx.DrainMigration();
  // Post-migration: store == new AF(), and the cursor serves the post-op
  // locations (which differ from the pre-op placement for some blocks).
  // A twin policy without the op replays where reads *would* have gone.
  ScaddarPolicy pre_op(4);
  SCADDAR_CHECK(pre_op.AddObject(1, MakeX0(1, kBlocks)).ok());
  int64_t redirected = 0;
  for (; i < kBlocks; ++i) {
    const PhysicalDiskId served =
        cursor.Get(i, fx.policy, fx.store, fx.migration);
    ASSERT_EQ(served, fx.policy.Locate(1, i)) << "post-op block " << i;
    if (served != pre_op.Locate(1, i)) {
      ++redirected;
    }
  }
  EXPECT_GT(redirected, 0);
}

TEST(LocationCursorTest, PendingMovesBypassWindowThenDrainRefills) {
  Fixture fx;
  LocationCursor cursor(1, kBlocks, /*window=*/512);
  ASSERT_EQ(cursor.Get(0, fx.policy, fx.store, fx.migration),
            *fx.store.LocationOf({1, 0}));
  const int64_t warm_refills = cursor.refills();
  // Displace block 3 with the divergence queued (the invariant every
  // mutation source upholds).
  const PhysicalDiskId from = *fx.store.LocationOf({1, 3});
  PhysicalDiskId to = from;
  for (const PhysicalDiskId id : fx.disks.live_ids()) {
    if (id != from) {
      to = id;
      break;
    }
  }
  MovePlan plan;
  plan.Add(BlockMove{.block = {1, 3}});
  fx.migration.EnqueuePlan(plan);
  ASSERT_TRUE(fx.store
                  .ApplyMove(BlockMove{.block = {1, 3},
                                       .from_physical = from,
                                       .to_physical = to})
                  .ok());
  // While the object has a pending move the cursor serves the materialized
  // row directly — the stale warm window is bypassed, not churned.
  EXPECT_EQ(cursor.Get(3, fx.policy, fx.store, fx.migration), to);
  EXPECT_EQ(cursor.refills(), warm_refills);
  // Draining moves the block back to its AF() target and bumps the row
  // revision, so the first clean read refills the (now stale) window.
  fx.DrainMigration();
  ASSERT_EQ(fx.migration.pending_for(1), 0);
  EXPECT_EQ(cursor.Get(3, fx.policy, fx.store, fx.migration),
            *fx.store.LocationOf({1, 3}));
  EXPECT_GT(cursor.refills(), warm_refills);
}

TEST(LocationCursorTest, ForeignObjectMovesDoNotEvictCleanWindow) {
  Fixture fx;
  // A second object whose migration traffic must not disturb object 1.
  SCADDAR_CHECK(fx.policy.AddObject(2, MakeX0(2, kBlocks)).ok());
  std::vector<PhysicalDiskId> locations;
  for (BlockIndex i = 0; i < kBlocks; ++i) {
    locations.push_back(fx.policy.Locate(2, i));
  }
  SCADDAR_CHECK(fx.store.PlaceObject(2, locations).ok());

  LocationCursor cursor(1, kBlocks, /*window=*/512);
  cursor.Get(0, fx.policy, fx.store, fx.migration);
  const int64_t warm_refills = cursor.refills();

  // Displace a block of object 2, divergence queued — the shape of another
  // stream's migration round landing a move.
  const PhysicalDiskId from = *fx.store.LocationOf({2, 7});
  PhysicalDiskId to = from;
  for (const PhysicalDiskId id : fx.disks.live_ids()) {
    if (id != from) {
      to = id;
      break;
    }
  }
  MovePlan plan;
  plan.Add(BlockMove{.block = {2, 7}});
  fx.migration.EnqueuePlan(plan);
  ASSERT_TRUE(fx.store
                  .ApplyMove(BlockMove{.block = {2, 7},
                                       .from_physical = from,
                                       .to_physical = to})
                  .ok());

  // The global store revision moved, but object 1's row did not: the warm
  // window survives the row-level check and keeps serving refill-free.
  EXPECT_TRUE(cursor.WindowCovers(10, fx.policy, fx.store));
  EXPECT_EQ(cursor.Get(10, fx.policy, fx.store, fx.migration),
            *fx.store.LocationOf({1, 10}));
  EXPECT_EQ(cursor.refills(), warm_refills);
}

TEST(LocationCursorTest, SeekOutsideWindowRefills) {
  Fixture fx;
  LocationCursor cursor(1, kBlocks, /*window=*/64);
  cursor.Get(0, fx.policy, fx.store, fx.migration);
  EXPECT_TRUE(cursor.WindowCovers(10, fx.policy, fx.store));
  EXPECT_FALSE(cursor.WindowCovers(1000, fx.policy, fx.store));
  EXPECT_EQ(cursor.Get(1000, fx.policy, fx.store, fx.migration),
            *fx.store.LocationOf({1, 1000}));
  // Backward seek (VCR rewind) as well.
  EXPECT_EQ(cursor.Get(5, fx.policy, fx.store, fx.migration),
            *fx.store.LocationOf({1, 5}));
}

}  // namespace
}  // namespace scaddar
