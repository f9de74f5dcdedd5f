// The serving read contract: a stream reads its object's store row through
// a pointer it re-fetches only when `BlockStore::layout_key()` changes, so
// every read must equal `store.LocationOf` — across moves (which update the
// row in place), other objects' drops and placements, and its own object
// being dropped and re-placed (where a stale pointer would read freed
// memory).
#include <gtest/gtest.h>

#include <vector>

#include "placement/scaddar_policy.h"
#include "random/sequence.h"
#include "server/migration.h"
#include "server/scheduler.h"
#include "server/stream.h"
#include "storage/block_store.h"

namespace scaddar {
namespace {

std::vector<uint64_t> MakeX0(uint64_t seed, int64_t n) {
  return X0Sequence::Create(PrngKind::kSplitMix64, seed, 64)
      .value()
      .Materialize(n);
}

constexpr int64_t kBlocks = 2000;

/// Policy + store + migration wired like the server's serving path, with
/// object 1 materialized at AF().
struct Fixture {
  Fixture()
      : policy(4),
        disks(DiskSpec{.capacity_blocks = 1'000'000,
                       .bandwidth_blocks_per_round = 8}),
        store(&disks) {
    Add(1);
  }

  void Add(ObjectId id) {
    SCADDAR_CHECK(policy.AddObject(id, MakeX0(id, kBlocks)).ok());
    SCADDAR_CHECK(disks.SyncLiveSet(policy.log().physical_disks()).ok());
    std::vector<PhysicalDiskId> row;
    policy.LocateAllBlocks(id, row);
    SCADDAR_CHECK(store.PlaceObject(id, row).ok());
  }

  /// A live disk other than `from`.
  PhysicalDiskId OtherDisk(PhysicalDiskId from) const {
    for (const PhysicalDiskId id : disks.live_ids()) {
      if (id != from) {
        return id;
      }
    }
    return from;
  }

  ScaddarPolicy policy;
  DiskArray disks;
  BlockStore store;
  MigrationExecutor migration;
};

PhysicalDiskId Read(Stream& stream, const BlockStore& store, BlockIndex i) {
  return stream.Row(store)[static_cast<size_t>(i)];
}

TEST(StreamRowTest, ReadAfterMoveReturnsNewDisk) {
  Fixture fx;
  Stream stream(0, 1, kBlocks, 0);
  const PhysicalDiskId* const row = stream.Row(fx.store);

  // A metadata move lands in place: the next read sees it, with no
  // re-fetch of the row.
  const PhysicalDiskId from = *fx.store.LocationOf({1, 3});
  const PhysicalDiskId to = fx.OtherDisk(from);
  ASSERT_TRUE(fx.store
                  .ApplyMove(BlockMove{.block = {1, 3},
                                       .from_physical = from,
                                       .to_physical = to})
                  .ok());
  EXPECT_EQ(Read(stream, fx.store, 3), to);
  EXPECT_EQ(stream.Row(fx.store), row);

  // A staged copy is not authoritative until its commit flips the row.
  const PhysicalDiskId staged_from = *fx.store.LocationOf({1, 4});
  const PhysicalDiskId staged_to = fx.OtherDisk(staged_from);
  ASSERT_TRUE(fx.store.StageCopy({1, 4}, staged_to).ok());
  EXPECT_EQ(Read(stream, fx.store, 4), staged_from);
  ASSERT_TRUE(fx.store.CommitStagedMove({1, 4}, staged_from, staged_to).ok());
  EXPECT_EQ(Read(stream, fx.store, 4), staged_to);
  EXPECT_EQ(stream.Row(fx.store), row);
}

TEST(StreamRowTest, ScalingOpMidStreamFollowsMigration) {
  Fixture fx;
  Stream stream(0, 1, kBlocks, 0);
  BlockIndex i = 0;
  for (; i < kBlocks / 2; ++i) {
    ASSERT_EQ(Read(stream, fx.store, i), *fx.store.LocationOf({1, i}));
  }
  // Scaling op between rounds: divergent blocks are queued, and the store
  // drifts toward the new AF() as rounds land moves.
  SCADDAR_CHECK(fx.policy.ApplyOp(ScalingOp::Add(2).value()).ok());
  SCADDAR_CHECK(fx.disks.SyncLiveSet(fx.policy.log().physical_disks()).ok());
  fx.migration.EnqueueReconciliation(fx.store, fx.policy);
  ASSERT_GT(fx.migration.pending(), 0);
  int64_t moved = 0;
  for (; i < kBlocks; ++i) {
    // Every block of the row, not just the next one: moves anywhere in it
    // must show on the next read.
    for (BlockIndex k = 0; k < kBlocks; k += 97) {
      ASSERT_EQ(Read(stream, fx.store, k), *fx.store.LocationOf({1, k}))
          << "read " << i << " block " << k;
    }
    std::vector<int64_t> budget = fx.disks.BandwidthBudgets();
    for (const PhysicalDiskId id : fx.disks.live_ids()) {
      budget[static_cast<size_t>(id)] = 4;
    }
    moved += fx.migration.RunRound(budget, fx.store, fx.disks, fx.policy);
  }
  EXPECT_GT(moved, 0);
  ASSERT_TRUE(fx.migration.idle());
  for (BlockIndex k = 0; k < kBlocks; ++k) {
    ASSERT_EQ(Read(stream, fx.store, k), fx.policy.Locate(1, k));
  }
}

TEST(StreamRowTest, OtherObjectDroppedAndPlacedKeepsReadsCorrect) {
  Fixture fx;
  fx.Add(2);
  Stream stream(0, 1, kBlocks, 0);
  const PhysicalDiskId* const row = stream.Row(fx.store);
  const uint64_t key = fx.store.layout_key();

  ASSERT_TRUE(fx.store.DropObject(2).ok());
  ASSERT_TRUE(
      fx.store.PlaceObject(2, std::vector<PhysicalDiskId>(kBlocks, 0)).ok());
  EXPECT_NE(fx.store.layout_key(), key);
  // Object 1's row did not move, so the re-fetched pointer is the old one.
  EXPECT_EQ(stream.Row(fx.store), row);
  for (BlockIndex i = 0; i < kBlocks; ++i) {
    ASSERT_EQ(Read(stream, fx.store, i), *fx.store.LocationOf({1, i}));
  }
}

TEST(StreamRowTest, OwnObjectReplacedAtNewLocationsRefetchesRow) {
  Fixture fx;
  Stream stream(0, 1, kBlocks, 0);
  ASSERT_EQ(Read(stream, fx.store, 0), *fx.store.LocationOf({1, 0}));
  const std::vector<PhysicalDiskId> on_zero(kBlocks, 0);
  const std::vector<PhysicalDiskId> on_one(kBlocks, 1);

  // Object 1's row is freed. Object 3 is placed before object 1 comes
  // back, so an allocator that reuses the freed buffer hands it to object
  // 3: a stale pointer would then read disk 0 (and under ASan, freed
  // memory before that).
  ASSERT_TRUE(fx.store.DropObject(1).ok());
  ASSERT_TRUE(fx.store.PlaceObject(3, on_zero).ok());
  ASSERT_TRUE(fx.store.PlaceObject(1, on_one).ok());
  for (BlockIndex i = 0; i < kBlocks; ++i) {
    ASSERT_EQ(Read(stream, fx.store, i), 1) << "block " << i;
  }
}

TEST(StreamRowTest, CopiesAreReadFromTheSameRow) {
  // Two blocks, two copies: row entries `c*2 + i`, copy 0 of both blocks on
  // disk 0 and copy 1 on disk 1, one unit of bandwidth per disk.
  DiskArray disks(
      DiskSpec{.capacity_blocks = 100, .bandwidth_blocks_per_round = 1});
  ASSERT_TRUE(disks.SyncLiveSet({0, 1}).ok());
  BlockStore store(&disks);
  ASSERT_TRUE(store.PlaceObject(1, {0, 0, 1, 1}).ok());
  RoundScheduler scheduler;
  std::vector<Stream> streams;
  streams.emplace_back(0, 1, 2, 0, /*rate=*/1, /*copies=*/2);
  streams.emplace_back(1, 1, 2, 0, /*rate=*/1, /*copies=*/2);

  // The second stream finds disk 0 spent and reads copy 1 on disk 1.
  RoundServiceResult result = scheduler.RunBatched(streams, store, disks,
                                                   /*leftover=*/nullptr);
  EXPECT_EQ(result.served, 2);
  EXPECT_EQ(result.served_degraded, 1);
  EXPECT_EQ((*disks.GetDisk(1))->served_requests(), 1);

  // Copy 1 of block 1 moves to disk 0, in place in the row both streams
  // already hold: the fallback now finds no budget on either copy's disk.
  ASSERT_TRUE(store
                  .ApplyMove(BlockMove{.block = {1, 3},
                                       .from_physical = 1,
                                       .to_physical = 0})
                  .ok());
  result = scheduler.RunBatched(streams, store, disks, /*leftover=*/nullptr);
  EXPECT_EQ(result.served, 1);
  EXPECT_EQ(result.served_degraded, 0);
  EXPECT_EQ(result.hiccups, 1);
  EXPECT_EQ((*disks.GetDisk(1))->served_requests(), 1);
  EXPECT_EQ(streams[1].next_block(), 1);
}

}  // namespace
}  // namespace scaddar
