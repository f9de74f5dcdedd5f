#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "placement/scaddar_policy.h"
#include "random/sequence.h"
#include "migration_oracle.h"
#include "server/migration.h"
#include "server/server.h"
#include "server/workload/traffic_engine.h"

namespace scaddar {
namespace {

std::vector<uint64_t> MakeX0(uint64_t seed, int64_t n) {
  return X0Sequence::Create(PrngKind::kSplitMix64, seed, 64)
      .value()
      .Materialize(n);
}

/// Policy/store/disks triple that can be cloned by construction: two
/// instances built with the same arguments are bit-identical.
struct Fixture {
  explicit Fixture(int64_t n0, const std::vector<int64_t>& object_blocks)
      : policy(n0),
        disks(DiskSpec{.capacity_blocks = 1'000'000,
                       .bandwidth_blocks_per_round = 8}),
        store(&disks) {
    ObjectId id = 1;
    for (const int64_t blocks : object_blocks) {
      SCADDAR_CHECK(
          policy.AddObject(id, MakeX0(static_cast<uint64_t>(id), blocks))
              .ok());
      ++id;
    }
    SCADDAR_CHECK(disks.SyncLiveSet(policy.log().physical_disks()).ok());
    id = 1;
    for (const int64_t blocks : object_blocks) {
      std::vector<PhysicalDiskId> locations;
      for (BlockIndex i = 0; i < blocks; ++i) {
        locations.push_back(policy.Locate(id, i));
      }
      SCADDAR_CHECK(store.PlaceObject(id, locations).ok());
      ++id;
    }
  }

  void Apply(const ScalingOp& op) {
    SCADDAR_CHECK(policy.ApplyOp(op).ok());
    std::vector<PhysicalDiskId> live = policy.log().physical_disks();
    for (const PhysicalDiskId id : disks.live_ids()) {
      if (store.CountOn(id) > 0) {
        live.push_back(id);  // Retiring disks keep serving until drained.
      }
    }
    std::sort(live.begin(), live.end());
    live.erase(std::unique(live.begin(), live.end()), live.end());
    SCADDAR_CHECK(disks.SyncLiveSet(live).ok());
  }

  std::vector<int64_t> Budget(int64_t per_disk) {
    std::vector<int64_t> budget = disks.BandwidthBudgets();
    for (int64_t& units : budget) {
      if (units != kNotLive) {
        units = per_disk;
      }
    }
    return budget;
  }

  ScaddarPolicy policy;
  DiskArray disks;
  BlockStore store;
  MigrationExecutor migration;
  ScalarMigrationOracle oracle;
};

const std::vector<int64_t> kObjects = {1500, 700, 2300};

/// The batched RunRound must move the exact same block set, in the same
/// rounds, as the scalar oracle — tight per-disk budgets force starvation
/// and requeues, so the requeue discipline is exercised too.
TEST(ServingEquivalenceTest, RunRoundMovesIdenticalToScalar) {
  Fixture batched(4, kObjects);
  Fixture scalar(4, kObjects);
  const ScalingOp op = ScalingOp::Add(2).value();
  batched.Apply(op);
  scalar.Apply(op);
  batched.migration.EnqueueReconciliation(batched.store, batched.policy);
  scalar.oracle.EnqueueReconciliation(scalar.store, scalar.policy);
  ASSERT_EQ(batched.migration.QueueSnapshot(),
            scalar.oracle.QueueSnapshot());
  int rounds = 0;
  while (!batched.migration.idle() || !scalar.oracle.idle()) {
    auto batched_budget = batched.Budget(3);
    auto scalar_budget = scalar.Budget(3);
    const int64_t moved_batched = batched.migration.RunRound(
        batched_budget, batched.store, batched.disks, batched.policy);
    const int64_t moved_scalar = scalar.oracle.RunRound(
        scalar_budget, scalar.store, scalar.disks, scalar.policy);
    ASSERT_EQ(moved_batched, moved_scalar) << "round " << rounds;
    ASSERT_EQ(batched.migration.QueueSnapshot(),
              scalar.oracle.QueueSnapshot())
        << "round " << rounds;
    ASSERT_EQ(batched_budget, scalar_budget) << "round " << rounds;
    ASSERT_LT(++rounds, 2000) << "migration failed to converge";
  }
  // Same final store state, block by block.
  for (ObjectId id = 1; id <= static_cast<ObjectId>(kObjects.size()); ++id) {
    const auto row_batched = batched.store.LocationsOf(id);
    const auto row_scalar = scalar.store.LocationsOf(id);
    ASSERT_TRUE(row_batched.ok() && row_scalar.ok());
    ASSERT_TRUE(std::equal(row_batched->begin(), row_batched->end(),
                           row_scalar->begin(), row_scalar->end()))
        << "object " << id;
  }
  EXPECT_EQ(batched.migration.total_moved(), scalar.oracle.total_moved());
  EXPECT_TRUE(batched.store.VerifyAgainstPolicy(batched.policy).ok());
}

/// Same check across a remove op (retiring disks drain through the batched
/// path too).
TEST(ServingEquivalenceTest, RunRoundIdenticalAcrossRemove) {
  Fixture batched(6, kObjects);
  Fixture scalar(6, kObjects);
  const ScalingOp op = ScalingOp::Remove({1, 4}).value();
  batched.Apply(op);
  scalar.Apply(op);
  batched.migration.EnqueueReconciliation(batched.store, batched.policy);
  scalar.oracle.EnqueueReconciliation(scalar.store, scalar.policy);
  int rounds = 0;
  while (!batched.migration.idle() || !scalar.oracle.idle()) {
    auto batched_budget = batched.Budget(5);
    auto scalar_budget = scalar.Budget(5);
    batched.migration.RunRound(batched_budget, batched.store, batched.disks,
                               batched.policy);
    scalar.oracle.RunRound(scalar_budget, scalar.store, scalar.disks,
                           scalar.policy);
    ASSERT_EQ(batched.migration.QueueSnapshot(),
              scalar.oracle.QueueSnapshot())
        << "round " << rounds;
    ASSERT_LT(++rounds, 2000);
  }
  EXPECT_EQ(batched.migration.total_moved(), scalar.oracle.total_moved());
}

/// The sharded reconciliation scan queues a byte-identical block list for
/// any thread count (the PR-1 planner determinism discipline).
TEST(ServingEquivalenceTest, ReconciliationShardingByteIdentical) {
  std::vector<std::vector<BlockRef>> queues;
  for (const int threads : {1, 2, 8}) {
    Fixture fx(4, kObjects);
    fx.Apply(ScalingOp::Add(3).value());
    ParallelPlanOptions options;
    options.num_threads = threads;
    options.min_blocks_to_shard = 1;  // Force sharding even at this size.
    fx.migration.EnqueueReconciliation(fx.store, fx.policy, options);
    queues.push_back(fx.migration.QueueSnapshot());
  }
  ASSERT_GT(queues[0].size(), 0u);
  EXPECT_EQ(queues[0], queues[1]);
  EXPECT_EQ(queues[0], queues[2]);
}

ServerConfig BaseConfig(ServingPath path) {
  ServerConfig config;
  config.initial_disks = 6;
  config.disk_spec = {.capacity_blocks = 100'000,
                      .bandwidth_blocks_per_round = 6};
  config.serving_path = path;
  return config;
}

std::unique_ptr<CmServer> MakeServer(const ServerConfig& config) {
  auto server = CmServer::Create(config);
  SCADDAR_CHECK(server.ok());
  return std::move(server).value();
}

/// Full-server equivalence: a batched-cursor server and a store-oracle
/// server fed the same script (streams + scaling ops mid-playback) report
/// identical metrics every round.
TEST(ServingEquivalenceTest, BatchedServerMatchesStoreOracleThroughScaling) {
  auto batched = MakeServer(BaseConfig(ServingPath::kBatchCursor));
  auto oracle = MakeServer(BaseConfig(ServingPath::kStoreScalar));
  for (CmServer* server : {batched.get(), oracle.get()}) {
    ASSERT_TRUE(server->AddObject(1, 400).ok());
    ASSERT_TRUE(server->AddObject(2, 250).ok());
    for (int s = 0; s < 6; ++s) {
      ASSERT_TRUE(server->StartStream(1 + (s % 2)).ok());
    }
  }
  for (int round = 0; round < 300; ++round) {
    if (round == 20) {
      ASSERT_TRUE(batched->ScaleAdd(2).ok());
      ASSERT_TRUE(oracle->ScaleAdd(2).ok());
    }
    if (round == 60) {
      ASSERT_TRUE(batched->ScaleRemove({3}).ok());
      ASSERT_TRUE(oracle->ScaleRemove({3}).ok());
    }
    const RoundMetrics a = batched->Tick();
    const RoundMetrics b = oracle->Tick();
    ASSERT_EQ(a.requests, b.requests) << "round " << round;
    ASSERT_EQ(a.served, b.served) << "round " << round;
    ASSERT_EQ(a.hiccups, b.hiccups) << "round " << round;
    ASSERT_EQ(a.migrated, b.migrated) << "round " << round;
    ASSERT_EQ(a.pending_migration, b.pending_migration) << "round " << round;
  }
  EXPECT_EQ(batched->total_served(), oracle->total_served());
  EXPECT_EQ(batched->total_hiccups(), oracle->total_hiccups());
  EXPECT_GT(batched->total_served(), 0);
}

/// VCR-churn twin: seeded Zipf arrivals with pause/resume/seek and a flash
/// crowd while the array scales up and down and migration rounds interleave,
/// raced against a store-oracle server fed the identical traffic trace.
/// Identical per-round metrics prove the cursor windows never serve a block
/// from a stale location, lose one, or serve one twice.
TEST(ServingEquivalenceTest, StressConcurrentScaleUpMatchesOracle) {
  TrafficConfig traffic_config;
  traffic_config.seed = 0x57e55ull;
  traffic_config.arrivals_per_round = 2.0;
  traffic_config.zipf_theta = 0.729;
  traffic_config.pause_probability = 0.02;
  traffic_config.resume_probability = 0.3;
  traffic_config.seek_probability = 0.03;
  traffic_config.flash_crowds.push_back(
      FlashCrowd{.start_round = 40, .duration = 10, .rank = 0, .boost = 3});

  auto batched = MakeServer(BaseConfig(ServingPath::kBatchCursor));
  auto oracle = MakeServer(BaseConfig(ServingPath::kStoreScalar));
  for (CmServer* server : {batched.get(), oracle.get()}) {
    for (ObjectId id = 1; id <= 8; ++id) {
      ASSERT_TRUE(server->AddObject(id, 120 + 40 * id).ok());
    }
  }
  // Twin engines with the same seed fed identically evolving servers emit
  // identical traces (the replayability contract doing double duty).
  TrafficEngine batched_traffic(traffic_config);
  TrafficEngine oracle_traffic(traffic_config);
  batched_traffic.SetObjects(batched->catalog().object_ids());
  oracle_traffic.SetObjects(oracle->catalog().object_ids());

  for (int round = 0; round < 160; ++round) {
    if (round == 30) {
      ASSERT_TRUE(batched->ScaleAdd(3).ok());
      ASSERT_TRUE(oracle->ScaleAdd(3).ok());
    }
    if (round == 90) {
      ASSERT_TRUE(batched->ScaleRemove({2}).ok());
      ASSERT_TRUE(oracle->ScaleRemove({2}).ok());
    }
    const RoundMetrics a = batched_traffic.DriveRound(*batched);
    const RoundMetrics b = oracle_traffic.DriveRound(*oracle);
    ASSERT_EQ(a.requests, b.requests) << "round " << round;
    ASSERT_EQ(a.served, b.served) << "round " << round;
    ASSERT_EQ(a.hiccups, b.hiccups) << "round " << round;
    ASSERT_EQ(a.migrated, b.migrated) << "round " << round;
  }
  EXPECT_EQ(batched_traffic.rejected_arrivals(),
            oracle_traffic.rejected_arrivals());
  EXPECT_EQ(batched->total_served(), oracle->total_served());
  EXPECT_EQ(batched->total_hiccups(), oracle->total_hiccups());
  EXPECT_GT(batched->total_served(), 0);
}

/// Satellite: repeated X0 materialization is byte-identical, and the
/// single-allocation path matches the reusable-sequence path.
TEST(ServingEquivalenceTest, MaterializeOnceByteIdentical) {
  const auto once_a =
      X0Sequence::MaterializeOnce(PrngKind::kSplitMix64, 77, 32, 5000);
  const auto once_b =
      X0Sequence::MaterializeOnce(PrngKind::kSplitMix64, 77, 32, 5000);
  ASSERT_TRUE(once_a.ok() && once_b.ok());
  EXPECT_EQ(*once_a, *once_b);
  const auto seq = X0Sequence::Create(PrngKind::kSplitMix64, 77, 32);
  ASSERT_TRUE(seq.ok());
  EXPECT_EQ(*once_a, seq->Materialize(5000));
}

/// Satellite: the active-stream refcount makes RemoveObject refuse exactly
/// while streams play and allow removal the moment the last one ends.
TEST(ServingEquivalenceTest, RemoveObjectRefcountTracksStreamLifecycle) {
  auto server = MakeServer(BaseConfig(ServingPath::kBatchCursor));
  ASSERT_TRUE(server->AddObject(1, 30).ok());
  ASSERT_TRUE(server->AddObject(2, 500).ok());
  ASSERT_TRUE(server->StartStream(1).ok());
  ASSERT_TRUE(server->StartStream(1).ok());
  ASSERT_TRUE(server->StartStream(2).ok());
  EXPECT_EQ(server->ActiveStreamsFor(1), 2);
  EXPECT_EQ(server->ActiveStreamsFor(2), 1);
  EXPECT_FALSE(server->RemoveObject(1).ok());
  // Object 1's streams (30 blocks) finish well before object 2's.
  for (int round = 0; round < 40; ++round) {
    server->Tick();
  }
  EXPECT_EQ(server->ActiveStreamsFor(1), 0);
  EXPECT_EQ(server->ActiveStreamsFor(2), 1);
  EXPECT_TRUE(server->RemoveObject(1).ok());
  EXPECT_FALSE(server->RemoveObject(2).ok());
}

}  // namespace
}  // namespace scaddar
