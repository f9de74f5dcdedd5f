// The cluster layer's correctness contract: the shared jump-hash ShardMap
// (renumbering stability, delta-set minimality, small-catalog balance), the
// bandwidth-budgeted CrossShardMigrator state machine, and ClusterServer's
// scaling operations — objects and their live streams follow the routing
// across AddServerShard / RemoveServerShard with conservation invariants
// checked end to end.

#include <gtest/gtest.h>
#include <stdlib.h>

#include <algorithm>
#include <filesystem>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "cluster/cluster_server.h"
#include "cluster/cross_shard_migrator.h"
#include "placement/shard_map.h"
#include "recovery/checkpoint_manager.h"
#include "recovery/snapshot.h"
#include "storage/block_io.h"
#include "storage/storage_backend.h"

namespace scaddar {
namespace {

// ---------------------------------------------------------------------------
// ShardMap

TEST(ShardMapTest, InitialSeatingIsIdentity) {
  const ShardMap map(4);
  EXPECT_EQ(map.num_seats(), 4);
  EXPECT_EQ(map.epoch(), 0);
  EXPECT_EQ(map.seats(), (std::vector<int>{0, 1, 2, 3}));
  for (uint64_t key = 0; key < 1000; ++key) {
    const int member = map.MemberOf(key);
    EXPECT_GE(member, 0);
    EXPECT_LT(member, 4);
  }
}

TEST(ShardMapTest, AddMemberMovesOnlyTheMinimalDelta) {
  ShardMap before(4);
  ShardMap after = before;
  const int added = after.AddMember();
  EXPECT_EQ(added, 4);
  EXPECT_EQ(after.epoch(), 1);

  std::vector<uint64_t> keys(20'000);
  for (size_t i = 0; i < keys.size(); ++i) {
    keys[i] = static_cast<uint64_t>(i) * 2'654'435'761ull + 1;
  }
  const std::vector<uint64_t> changed = ChangedKeys(before, after, keys);
  // Every moved key lands on the new member — a pure add displaces nothing
  // between the old members.
  for (const uint64_t key : changed) {
    EXPECT_EQ(after.MemberOf(key), added);
  }
  // And the delta is the jump-hash minimum, ~1/(N+1) = 20% (loose band).
  const double fraction =
      static_cast<double>(changed.size()) / static_cast<double>(keys.size());
  EXPECT_GT(fraction, 0.17);
  EXPECT_LT(fraction, 0.23);
}

TEST(ShardMapTest, RemoveKeepsSurvivingSeatsStable) {
  ShardMap before(5);
  ShardMap after = before;
  ASSERT_TRUE(after.RemoveMember(2).ok());
  EXPECT_EQ(after.num_seats(), 4);
  EXPECT_FALSE(after.HasMember(2));
  // Swap-with-last: member 4 took over seat 2.
  EXPECT_EQ(after.seats(), (std::vector<int>{0, 1, 4, 3}));

  std::vector<uint64_t> keys(20'000);
  for (size_t i = 0; i < keys.size(); ++i) {
    keys[i] = static_cast<uint64_t>(i) * 11'400'714'819'323'198'485ull + 7;
  }
  int64_t moved = 0;
  for (const uint64_t key : keys) {
    const int was = before.MemberOf(key);
    const int now = after.MemberOf(key);
    EXPECT_NE(now, 2);
    if (was == now) {
      continue;
    }
    ++moved;
    // Only keys leaving the removed member or the renumbered tail member
    // may move; members 0, 1 and 3 keep every key they had.
    EXPECT_TRUE(was == 2 || was == 4) << "member " << was << " lost a key";
  }
  // Arbitrary removal costs ~2/N = 40% movement (the swap-with-last price;
  // loose band).
  const double fraction =
      static_cast<double>(moved) / static_cast<double>(keys.size());
  EXPECT_GT(fraction, 0.30);
  EXPECT_LT(fraction, 0.50);
}

TEST(ShardMapTest, RemoveRejectsAbsentAndLastMember) {
  ShardMap map(2);
  EXPECT_FALSE(map.RemoveMember(7).ok());
  ASSERT_TRUE(map.RemoveMember(0).ok());
  EXPECT_FALSE(map.RemoveMember(1).ok());  // Last member stays.
  EXPECT_EQ(map.num_seats(), 1);
  // Member ids are never reused, even after removals.
  EXPECT_EQ(map.AddMember(), 2);
  EXPECT_EQ(map.AddMember(), 3);
}

TEST(ShardMapTest, BalancedAtSmallKeyCounts) {
  const ShardMap map(4);
  std::vector<int64_t> per_member(4, 0);
  for (uint64_t key = 1; key <= 64; ++key) {
    ++per_member[static_cast<size_t>(map.MemberOf(key))];
  }
  // 64 keys over 4 members: every member gets a real share (jump hash's
  // low-variance guarantee at catalog sizes where Zipf skew bites hardest).
  for (const int64_t count : per_member) {
    EXPECT_GE(count, 8);
    EXPECT_LE(count, 26);
  }
}

// ---------------------------------------------------------------------------
// CrossShardMigrator

TEST(CrossShardMigratorTest, CopiesUnderBudgetThenCommits) {
  CrossShardMigrator migrator;
  migrator.Enqueue(ObjectTransfer{.object = 1, .from = 0, .to = 1,
                                  .num_blocks = 10});
  EXPECT_TRUE(migrator.HasTransfer(1));
  EXPECT_EQ(migrator.pending_blocks(), 10);

  CrossShardRound round = migrator.AdvanceRound(4);
  EXPECT_EQ(round.blocks_copied, 4);
  EXPECT_TRUE(round.ready_to_commit.empty());
  round = migrator.AdvanceRound(4);
  EXPECT_EQ(migrator.pending_blocks(), 2);
  round = migrator.AdvanceRound(4);
  EXPECT_EQ(round.blocks_copied, 2);
  ASSERT_EQ(round.ready_to_commit.size(), 1u);
  EXPECT_EQ(round.ready_to_commit[0].object, 1);
  EXPECT_TRUE(migrator.idle());
  EXPECT_EQ(migrator.total_blocks_copied(), 10);
  EXPECT_EQ(migrator.total_commits(), 1);
}

TEST(CrossShardMigratorTest, BudgetsArePerShardNotGlobal) {
  CrossShardMigrator migrator;
  // Disjoint pairs copy concurrently at full budget...
  migrator.Enqueue(ObjectTransfer{.object = 1, .from = 0, .to = 1,
                                  .num_blocks = 8});
  migrator.Enqueue(ObjectTransfer{.object = 2, .from = 2, .to = 3,
                                  .num_blocks = 8});
  CrossShardRound round = migrator.AdvanceRound(8);
  EXPECT_EQ(round.blocks_copied, 16);
  EXPECT_EQ(round.ready_to_commit.size(), 2u);

  // ...but transfers sharing a sender split its budget in queue order.
  migrator.Enqueue(ObjectTransfer{.object = 3, .from = 0, .to = 1,
                                  .num_blocks = 8});
  migrator.Enqueue(ObjectTransfer{.object = 4, .from = 0, .to = 2,
                                  .num_blocks = 8});
  round = migrator.AdvanceRound(8);
  EXPECT_EQ(round.blocks_copied, 8);
  ASSERT_EQ(round.ready_to_commit.size(), 1u);
  EXPECT_EQ(round.ready_to_commit[0].object, 3);
  round = migrator.AdvanceRound(8);
  ASSERT_EQ(round.ready_to_commit.size(), 1u);
  EXPECT_EQ(round.ready_to_commit[0].object, 4);
}

TEST(CrossShardMigratorTest, RetargetResetsProgressAndCancelsHomecoming) {
  CrossShardMigrator migrator;
  migrator.Enqueue(ObjectTransfer{.object = 9, .from = 0, .to = 1,
                                  .num_blocks = 10});
  migrator.AdvanceRound(4);
  EXPECT_EQ(migrator.pending_blocks(), 6);

  migrator.Retarget(9, 2);  // Newer scaling op reroutes the object.
  EXPECT_EQ(migrator.TargetOf(9), 2);
  EXPECT_EQ(migrator.pending_blocks(), 10);  // Staged bytes were for shard 1.
  EXPECT_EQ(migrator.retargets(), 1);

  migrator.Retarget(9, 0);  // ...and a later op routes it back home.
  EXPECT_FALSE(migrator.HasTransfer(9));
  EXPECT_TRUE(migrator.idle());
  EXPECT_EQ(migrator.retargets(), 2);
}

// ---------------------------------------------------------------------------
// ClusterServer

ClusterConfig SmallCluster(int shards) {
  ClusterConfig config;
  config.shard.initial_disks = 4;
  config.shard.disk_spec = {.capacity_blocks = 100'000,
                            .bandwidth_blocks_per_round = 8};
  config.initial_shards = shards;
  config.cross_shard_budget = 64;
  return config;
}

void DrainCluster(ClusterServer& cluster,
                  ClusterRoundMetrics (ClusterServer::*tick)() =
                      &ClusterServer::Tick) {
  int64_t guard = 0;
  while (!cluster.MigrationIdle()) {
    (cluster.*tick)();
    ASSERT_LT(++guard, 100'000) << "cluster drain did not converge";
  }
}

TEST(ClusterServerTest, RoutesObjectsAndConservesTheCatalog) {
  auto cluster = ClusterServer::Create(SmallCluster(4)).value();
  for (ObjectId id = 1; id <= 40; ++id) {
    ASSERT_TRUE(cluster->AddObject(id, 240).ok());
  }
  EXPECT_EQ(cluster->num_objects(), 40);
  int64_t across_shards = 0;
  for (const int member : cluster->members()) {
    across_shards += cluster->shard(member)->catalog().num_objects();
  }
  EXPECT_EQ(across_shards, 40);
  for (ObjectId id = 1; id <= 40; ++id) {
    EXPECT_EQ(cluster->OwnerOf(id),
              cluster->map().MemberOf(static_cast<uint64_t>(id)));
  }
  EXPECT_TRUE(cluster->VerifyIntegrity().ok());

  EXPECT_FALSE(cluster->AddObject(1, 240).ok());     // Duplicate.
  EXPECT_FALSE(cluster->RemoveObject(999).ok());     // Absent.
  ASSERT_TRUE(cluster->RemoveObject(1).ok());
  EXPECT_EQ(cluster->OwnerOf(1), -1);
  EXPECT_TRUE(cluster->VerifyIntegrity().ok());
}

TEST(ClusterServerTest, AddShardMigratesExactlyTheDeltaSet) {
  auto cluster = ClusterServer::Create(SmallCluster(3)).value();
  std::vector<uint64_t> keys;
  for (ObjectId id = 1; id <= 60; ++id) {
    ASSERT_TRUE(cluster->AddObject(id, 240).ok());
    keys.push_back(static_cast<uint64_t>(id));
  }
  const ShardMap before = cluster->map();

  const auto member = cluster->AddServerShard();
  ASSERT_TRUE(member.ok());
  const std::vector<uint64_t> expected_delta =
      ChangedKeys(before, cluster->map(), keys);
  ASSERT_FALSE(expected_delta.empty());

  // Every queued transfer targets the new shard and the queue is exactly
  // the delta set, in catalog order.
  const std::vector<ObjectTransfer> queued =
      cluster->migrator().QueueSnapshot();
  ASSERT_EQ(queued.size(), expected_delta.size());
  for (size_t i = 0; i < queued.size(); ++i) {
    EXPECT_EQ(static_cast<uint64_t>(queued[i].object), expected_delta[i]);
    EXPECT_EQ(queued[i].to, member.value());
  }

  DrainCluster(*cluster);
  EXPECT_TRUE(cluster->VerifyIntegrity().ok());
  for (ObjectId id = 1; id <= 60; ++id) {
    EXPECT_EQ(cluster->OwnerOf(id),
              cluster->map().MemberOf(static_cast<uint64_t>(id)));
  }
  EXPECT_EQ(cluster->shard(member.value())->catalog().num_objects(),
            static_cast<int64_t>(expected_delta.size()));
  // Interconnect cost: exactly the moved objects' blocks, no more.
  EXPECT_EQ(cluster->migrator().total_blocks_copied(),
            static_cast<int64_t>(expected_delta.size()) * 240);
}

TEST(ClusterServerTest, StreamsFollowTheirObjectAcrossShards) {
  auto cluster = ClusterServer::Create(SmallCluster(2)).value();
  for (ObjectId id = 1; id <= 20; ++id) {
    ASSERT_TRUE(cluster->AddObject(id, 240).ok());
  }
  // A couple of live sessions per object, one of them paused.
  for (ObjectId id = 1; id <= 20; ++id) {
    ASSERT_TRUE(cluster->StartStream(id).ok());
  }
  const auto paused_id = cluster->StartStream(7);
  ASSERT_TRUE(paused_id.ok());
  ASSERT_TRUE(cluster->PauseStream(paused_id.value()).ok());
  for (int i = 0; i < 5; ++i) {
    cluster->Tick();
  }
  const int64_t streams_before = cluster->active_streams();

  const auto member = cluster->AddServerShard();
  ASSERT_TRUE(member.ok());
  DrainCluster(*cluster);

  // No session was lost (admission has ample headroom here): every stream
  // now lives on its object's current owner, paused state preserved.
  EXPECT_EQ(cluster->active_streams() + cluster->completed_streams(),
            streams_before);
  EXPECT_EQ(cluster->handoff_rejects(), 0);
  for (const int shard_member : cluster->members()) {
    for (const Stream& stream : cluster->shard(shard_member)->streams()) {
      EXPECT_EQ(cluster->OwnerOf(stream.object()), shard_member);
    }
  }
  int64_t paused_count = 0;
  for (const int shard_member : cluster->members()) {
    for (const Stream& stream : cluster->shard(shard_member)->streams()) {
      paused_count += stream.paused() ? 1 : 0;
    }
  }
  EXPECT_EQ(paused_count, 1);
  EXPECT_TRUE(cluster->VerifyIntegrity().ok());
}

TEST(ClusterServerTest, RemoveShardEvacuatesAndRetiresIt) {
  auto cluster = ClusterServer::Create(SmallCluster(3)).value();
  for (ObjectId id = 1; id <= 45; ++id) {
    ASSERT_TRUE(cluster->AddObject(id, 240).ok());
  }
  for (ObjectId id = 1; id <= 45; id += 3) {
    ASSERT_TRUE(cluster->StartStream(id).ok());
  }
  const int64_t streams_before = cluster->active_streams();
  ASSERT_GT(cluster->shard(1)->catalog().num_objects(), 0);

  ASSERT_TRUE(cluster->RemoveServerShard(1).ok());
  EXPECT_FALSE(cluster->map().HasMember(1));
  EXPECT_NE(cluster->shard(1), nullptr);  // Still serving while evacuating.
  DrainCluster(*cluster);

  EXPECT_EQ(cluster->shard(1), nullptr);  // Drained and destroyed.
  EXPECT_EQ(cluster->num_shards(), 2);
  EXPECT_EQ(cluster->active_streams() + cluster->completed_streams(),
            streams_before);
  EXPECT_EQ(cluster->handoff_rejects(), 0);
  for (ObjectId id = 1; id <= 45; ++id) {
    EXPECT_NE(cluster->OwnerOf(id), 1);
    EXPECT_EQ(cluster->OwnerOf(id),
              cluster->map().MemberOf(static_cast<uint64_t>(id)));
  }
  EXPECT_TRUE(cluster->VerifyIntegrity().ok());

  EXPECT_FALSE(cluster->RemoveServerShard(1).ok());  // Already gone.
}

TEST(ClusterServerTest, OverlappingScaleOpsRetargetToTheLatestRouting) {
  auto cluster = ClusterServer::Create(SmallCluster(3)).value();
  for (ObjectId id = 1; id <= 60; ++id) {
    ASSERT_TRUE(cluster->AddObject(id, 240).ok());
  }
  // Add a shard, then remove it again before a single copy-round runs: every
  // queued transfer must retarget, and transfers pointed back home cancel.
  const auto member = cluster->AddServerShard();
  ASSERT_TRUE(member.ok());
  ASSERT_GT(cluster->migrator().pending_transfers(), 0);
  ASSERT_TRUE(cluster->RemoveServerShard(member.value()).ok());
  EXPECT_GT(cluster->migrator().retargets(), 0);

  DrainCluster(*cluster);
  EXPECT_EQ(cluster->shard(member.value()), nullptr);
  EXPECT_TRUE(cluster->VerifyIntegrity().ok());
  for (ObjectId id = 1; id <= 60; ++id) {
    EXPECT_EQ(cluster->OwnerOf(id),
              cluster->map().MemberOf(static_cast<uint64_t>(id)));
  }
}

TEST(ClusterServerTest, SerializedAndPooledRoundsAreIdentical) {
  // Forced pooled, forced serial and measured rounds (which pick either
  // branch round by round) must agree on every count.
  auto pooled = ClusterServer::Create(SmallCluster(4)).value();
  auto serialized = ClusterServer::Create(SmallCluster(4)).value();
  auto measured = ClusterServer::Create(SmallCluster(4)).value();
  for (ClusterServer* cluster : {pooled.get(), serialized.get(),
                                 measured.get()}) {
    for (ObjectId id = 1; id <= 32; ++id) {
      ASSERT_TRUE(cluster->AddObject(id, 240).ok());
    }
    for (ObjectId id = 1; id <= 32; id += 2) {
      ASSERT_TRUE(cluster->StartStream(id).ok());
    }
    ASSERT_TRUE(cluster->AddServerShard().ok());
  }

  for (int round = 0; round < 40; ++round) {
    const ClusterRoundMetrics a = pooled->TickPooled();
    const ClusterRoundMetrics b = serialized->TickSerialized();
    const ClusterRoundMetrics c = measured->Tick();
    EXPECT_EQ(a.pooled, 1);
    EXPECT_EQ(b.pooled, 0);
    for (const ClusterRoundMetrics& other : {b, c}) {
      EXPECT_EQ(a.round, other.round);
      EXPECT_EQ(a.served, other.served);
      EXPECT_EQ(a.hiccups, other.hiccups);
      EXPECT_EQ(a.migrated, other.migrated);
      EXPECT_EQ(a.cross_shard_blocks, other.cross_shard_blocks);
      EXPECT_EQ(a.cross_shard_commits, other.cross_shard_commits);
      EXPECT_EQ(a.pending_transfers, other.pending_transfers);
    }
  }
  for (const ClusterServer* other : {serialized.get(), measured.get()}) {
    EXPECT_EQ(pooled->total_served(), other->total_served());
    EXPECT_EQ(pooled->StartupLatencies(), other->StartupLatencies());
    EXPECT_TRUE(other->VerifyIntegrity().ok());
  }
  EXPECT_TRUE(pooled->VerifyIntegrity().ok());
}

TEST(ClusterServerTest, OneShardRoundsNeverFork) {
  auto cluster = ClusterServer::Create(SmallCluster(1)).value();
  ASSERT_TRUE(cluster->AddObject(1, 240).ok());
  ASSERT_TRUE(cluster->StartStream(1).ok());
  EXPECT_EQ(cluster->TickPooled().pooled, 0);
  EXPECT_EQ(cluster->Tick().pooled, 0);
  EXPECT_EQ(cluster->TickSerialized().pooled, 0);
}

using Lanes = std::vector<int>;

TEST(ShardLanesTest, LightShardsStaySerial) {
  // cluster_scale_out's anchor: 4 shards of ~19 us ticks against a 19 us
  // fork/join, so no shard pays for a woken worker.
  EXPECT_EQ(ShardLanes({19'000, 19'000, 19'000, 19'000}, 4, 19'000),
            (Lanes{0, 0, 0, 0}));
  EXPECT_EQ(ShardLanes({19'000, 19'000, 19'000}, 4, 19'000),
            (Lanes{0, 0, 0}));
}

TEST(ShardLanesTest, HeavyShardsFork) {
  // The heavy anchor: 256-disk shards tick in ~103 us against a 30 us
  // fork/join; the calling thread keeps the first.
  EXPECT_EQ(ShardLanes({103'000, 103'000, 103'000, 103'000}, 4, 30'000),
            (Lanes{0, 1, 2, 3}));
  EXPECT_EQ(ShardLanes({103'000, 103'000, 103'000}, 4, 30'000),
            (Lanes{0, 1, 2}));
  // The margin is inclusive: exactly twice the cost forks.
  EXPECT_EQ(ShardLanes({60'000, 60'000}, 4, 30'000), (Lanes{0, 1}));
  EXPECT_EQ(ShardLanes({60'000, 59'999}, 4, 30'000), (Lanes{0, 0}));
}

TEST(ShardLanesTest, LightShardsStayOnTheCallingThread) {
  // A shard added or drained by a scale-out ticks light beside heavy ones:
  // the heavy shards still fork, and the light one joins the calling
  // thread wherever it sits.
  EXPECT_EQ(ShardLanes({103'000, 103'000, 103'000, 5'000}, 4, 30'000),
            (Lanes{0, 1, 2, 0}));
  EXPECT_EQ(ShardLanes({5'000, 103'000, 103'000, 103'000}, 4, 30'000),
            (Lanes{0, 0, 1, 2}));
  EXPECT_EQ(ShardLanes({5'000, 70'000, 5'000, 70'000}, 4, 30'000),
            (Lanes{0, 0, 0, 1}));
  // One heavy shard among light ones: a worker would only take the heavy
  // shard off the calling thread's light ones, so the round stays serial.
  EXPECT_EQ(ShardLanes({400'000, 5'000, 5'000, 5'000}, 4, 30'000),
            (Lanes{0, 0, 0, 0}));
  EXPECT_EQ(ShardLanes({5'000, 5'000, 400'000, 5'000}, 4, 30'000),
            (Lanes{0, 0, 0, 0}));
}

TEST(ShardLanesTest, NothingToForkStaysSerial) {
  EXPECT_EQ(ShardLanes({}, 4, 30'000), Lanes{});
  EXPECT_EQ(ShardLanes({1'000'000}, 4, 30'000), (Lanes{0}));  // 1 shard.
  EXPECT_EQ(ShardLanes({1'000'000, 1'000'000}, 1, 30'000), (Lanes{0, 0}));
  // Shards not yet timed price at zero.
  EXPECT_EQ(ShardLanes({0, 0, 0}, 4, 30'000), (Lanes{0, 0, 0}));
}

std::vector<int64_t> Sorted(std::vector<int64_t> values) {
  std::sort(values.begin(), values.end());
  return values;
}

/// A 2-shard cluster that added a shard, started 10 streams on it with
/// startup latencies 0..9 (each resumed one round after the last), then
/// removed it again: the streams were handed off and the shard destroyed.
/// `samples` receives the startup latencies before the removal.
std::unique_ptr<ClusterServer> ClusterWithRetiredShard(
    std::vector<int64_t>* samples) {
  auto cluster = ClusterServer::Create(SmallCluster(2)).value();
  for (ObjectId id = 1; id <= 30; ++id) {
    SCADDAR_CHECK(cluster->AddObject(id, 600).ok());
  }
  const int member = cluster->AddServerShard().value();
  DrainCluster(*cluster);
  std::vector<ObjectId> owned;
  for (ObjectId id = 1; id <= 30; ++id) {
    if (cluster->OwnerOf(id) == member) {
      owned.push_back(id);
    }
  }
  SCADDAR_CHECK(!owned.empty());
  std::vector<int64_t> ids;
  for (size_t i = 0; i < 10; ++i) {
    ids.push_back(cluster->StartStream(owned[i % owned.size()]).value());
    SCADDAR_CHECK(cluster->PauseStream(ids.back()).ok());
  }
  for (const int64_t id : ids) {
    SCADDAR_CHECK(cluster->ResumeStream(id).ok());
    cluster->Tick();
  }
  *samples = cluster->StartupLatencies();
  SCADDAR_CHECK(cluster->RemoveServerShard(member).ok());
  DrainCluster(*cluster);
  SCADDAR_CHECK(cluster->shard(member) == nullptr);
  return cluster;
}

TEST(ClusterServerTest, RetiredShardKeepsItsStartupSamples) {
  std::vector<int64_t> before;
  auto cluster = ClusterWithRetiredShard(&before);
  EXPECT_EQ(Sorted(before),
            (std::vector<int64_t>{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}));
  // All 10 sessions survived the handoff, and none recorded a second
  // sample on its destination.
  EXPECT_EQ(cluster->active_streams(), 10);
  EXPECT_EQ(cluster->handoff_rejects(), 0);
  EXPECT_EQ(Sorted(cluster->StartupLatencies()), Sorted(before));
}

TEST(ClusterServerTest, PausedHandoffRecordsOneSampleAcrossBothShards) {
  auto cluster = ClusterServer::Create(SmallCluster(2)).value();
  for (ObjectId id = 1; id <= 20; ++id) {
    ASSERT_TRUE(cluster->AddObject(id, 240).ok());
  }
  // An object the next AddServerShard hands to the new shard.
  ShardMap probe = cluster->map();
  const int added = probe.AddMember();
  ObjectId object = 0;
  for (ObjectId id = 1; id <= 20 && object == 0; ++id) {
    object = probe.MemberOf(static_cast<uint64_t>(id)) == added ? id : 0;
  }
  ASSERT_NE(object, 0);

  const int64_t started = cluster->round();
  const int64_t source_id = cluster->StartStream(object).value();
  ASSERT_TRUE(cluster->PauseStream(source_id).ok());
  for (int i = 0; i < 3; ++i) {
    cluster->Tick();  // Waits on the source shard.
  }
  ASSERT_EQ(cluster->AddServerShard().value(), added);
  DrainCluster(*cluster);
  ASSERT_EQ(cluster->OwnerOf(object), added);
  const std::vector<Stream>& moved = cluster->shard(added)->streams();
  ASSERT_EQ(moved.size(), 1u);
  EXPECT_TRUE(moved[0].paused());
  EXPECT_EQ(moved[0].next_block(), 0);
  const int64_t dest_id = moved[0].id();
  for (int i = 0; i < 2; ++i) {
    cluster->Tick();  // Waits on the destination shard.
  }
  EXPECT_TRUE(cluster->StartupLatencies().empty());

  ASSERT_TRUE(cluster->ResumeStream(dest_id).ok());
  const int64_t delivered = cluster->round();
  cluster->Tick();
  EXPECT_EQ(cluster->StartupLatencies(),
            (std::vector<int64_t>{delivered - started}));
  cluster->Tick();
  EXPECT_EQ(cluster->StartupLatencies().size(), 1u);
}

TEST(ClusterServerTest, CheckpointKeepsRetiredStartupSamples) {
  // Without a retired shard the document has no line for its samples.
  auto fresh = ClusterServer::Create(SmallCluster(2)).value();
  const std::string plain = fresh->EncodeCheckpoint().value();
  EXPECT_EQ(plain.find("retiredlatencies"), std::string::npos);
  EXPECT_TRUE(DecodeClusterSnapshot(plain).value().retired_latencies.empty());

  std::vector<int64_t> before;
  auto cluster = ClusterWithRetiredShard(&before);
  CheckpointManager manager;
  ASSERT_TRUE(cluster->WriteCheckpoint(manager, 1).ok());
  auto restored =
      ClusterServer::RestoreFromCheckpoint(cluster->config(), manager);
  ASSERT_TRUE(restored.ok()) << restored.status();
  EXPECT_EQ((*restored)->StartupLatencies(), cluster->StartupLatencies());
  EXPECT_EQ(Sorted((*restored)->StartupLatencies()), Sorted(before));
}

TEST(ClusterServerTest, RetiredShardKeepsItsStreamCounters) {
  auto cluster = ClusterServer::Create(SmallCluster(2)).value();
  for (ObjectId id = 1; id <= 30; ++id) {
    ASSERT_TRUE(cluster->AddObject(id, 60).ok());
  }
  const int member = cluster->AddServerShard().value();
  DrainCluster(*cluster);
  std::vector<ObjectId> owned;
  for (ObjectId id = 1; id <= 30; ++id) {
    if (cluster->OwnerOf(id) == member) {
      owned.push_back(id);
    }
  }
  ASSERT_FALSE(owned.empty());
  for (size_t i = 0; i < 12; ++i) {
    ASSERT_TRUE(cluster->StartStream(owned[i % owned.size()]).ok());
  }
  for (int round = 0; round < 1000 && cluster->active_streams() > 0;
       ++round) {
    cluster->Tick();
  }
  ASSERT_EQ(cluster->active_streams(), 0);
  ASSERT_EQ(cluster->total_served(), 720);
  ASSERT_EQ(cluster->completed_streams(), 12);
  const int64_t hiccups = cluster->total_hiccups();

  ASSERT_TRUE(cluster->RemoveServerShard(member).ok());
  DrainCluster(*cluster);
  ASSERT_EQ(cluster->shard(member), nullptr);
  EXPECT_EQ(cluster->total_served(), 720);
  EXPECT_EQ(cluster->completed_streams(), 12);
  EXPECT_EQ(cluster->total_hiccups(), hiccups);

  CheckpointManager manager;
  ASSERT_TRUE(cluster->WriteCheckpoint(manager, 1).ok());
  auto restored =
      ClusterServer::RestoreFromCheckpoint(cluster->config(), manager);
  ASSERT_TRUE(restored.ok()) << restored.status();
  EXPECT_EQ((*restored)->total_served(), 720);
  EXPECT_EQ((*restored)->completed_streams(), 12);
  EXPECT_EQ((*restored)->total_hiccups(), hiccups);
  // Documents without the line decode as zero.
  auto fresh = ClusterServer::Create(SmallCluster(2)).value();
  const std::string plain = fresh->EncodeCheckpoint().value();
  EXPECT_EQ(plain.find("retiredtotals"), std::string::npos);
  EXPECT_EQ(DecodeClusterSnapshot(plain).value().retired_served, 0);
}

TEST(ClusterServerTest, PerShardDiskScalingStaysOnline) {
  auto cluster = ClusterServer::Create(SmallCluster(2)).value();
  for (ObjectId id = 1; id <= 16; ++id) {
    ASSERT_TRUE(cluster->AddObject(id, 240).ok());
  }
  ASSERT_TRUE(cluster->ScaleAddDisks(0, 2).ok());
  ASSERT_TRUE(cluster->ScaleRemoveDisks(1, {0}).ok());
  EXPECT_FALSE(cluster->ScaleAddDisks(9, 2).ok());  // No such shard.
  DrainCluster(*cluster);
  EXPECT_TRUE(cluster->VerifyIntegrity().ok());
  EXPECT_EQ(cluster->shard(0)->disks().num_live(), 6);
  EXPECT_EQ(cluster->shard(1)->disks().num_live(), 3);
}

TEST(ClusterServerTest, PooledShardsRunOnUring) {
  // Pool workers tick the shards, while ingest, transfers and image checks
  // issue from the main thread, so every shard's backend is driven by
  // several threads in turn; each thread must get a ring of its own.
  if (!UringAvailable()) {
    GTEST_SKIP() << "io_uring unavailable on this kernel";
  }
  std::string dir = ::testing::TempDir() + "scaddar_cluster_XXXXXX";
  ASSERT_NE(::mkdtemp(dir.data()), nullptr);
  ClusterConfig config = SmallCluster(3);
  config.shard.storage_backend = "uring:" + dir;
  auto cluster = ClusterServer::Create(config).value();
  for (ObjectId id = 1; id <= 18; ++id) {
    ASSERT_TRUE(cluster->AddObject(id, 120).ok());
  }
  for (ObjectId id = 1; id <= 18; id += 2) {
    ASSERT_TRUE(cluster->StartStream(id).ok());
  }
  for (int round = 0; round < 10; ++round) {
    cluster->TickPooled();
  }
  ASSERT_TRUE(cluster->ScaleAddDisks(0, 2).ok());
  DrainCluster(*cluster, &ClusterServer::TickPooled);
  ASSERT_TRUE(cluster->AddServerShard().ok());
  DrainCluster(*cluster, &ClusterServer::TickPooled);

  EXPECT_TRUE(cluster->VerifyIntegrity().ok());
  int64_t serve_reads = 0;
  for (const int member : cluster->members()) {
    CmServer* const shard = cluster->shard(member);
    BlockIoEngine* const engine = shard->io_engine();
    ASSERT_NE(engine, nullptr);
    EXPECT_EQ(engine->backend().name(), "uring");
    EXPECT_EQ(engine->stats().serve_errors, 0);
    serve_reads += engine->stats().serve_reads;
    for (const ObjectId object : shard->catalog().object_ids()) {
      const int64_t blocks = shard->catalog().GetObject(object)->num_blocks;
      for (BlockIndex block = 0; block < blocks; ++block) {
        const BlockRef ref{object, block};
        const auto image = engine->ReadImage(ref);
        ASSERT_TRUE(image.ok()) << image.status().ToString();
        EXPECT_TRUE(BlockIoEngine::CheckImage(
            ref, engine->content_seed(), image->data(),
            static_cast<int64_t>(image->size())))
            << "object " << object << " block " << block;
      }
    }
  }
  EXPECT_GT(serve_reads, 0);
  cluster.reset();
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace scaddar
