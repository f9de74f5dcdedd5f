#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <ostream>
#include <vector>

#include "migration_oracle.h"
#include "placement/scaddar_policy.h"
#include "random/sequence.h"
#include "server/migration.h"
#include "server/server.h"
#include "server/workload/traffic_engine.h"
#include "serving_oracle.h"

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

ServerConfig BaseConfig() {
  ServerConfig config;
  config.initial_disks = 6;
  config.disk_spec = {.capacity_blocks = 100'000,
                      .bandwidth_blocks_per_round = 6};
  return config;
}

std::unique_ptr<CmServer> MakeServer(const ServerConfig& config) {
  auto server = CmServer::Create(config);
  SCADDAR_CHECK(server.ok());
  return std::move(server).value();
}

/// One stream's serving outcome, for comparing a prediction with a round.
struct StreamState {
  int64_t id = 0;
  BlockIndex next_block = 0;
  int64_t hiccups = 0;

  friend bool operator==(const StreamState&, const StreamState&) = default;
};

std::ostream& operator<<(std::ostream& out, const StreamState& state) {
  return out << "{stream " << state.id << ", block " << state.next_block
             << ", hiccups " << state.hiccups << "}";
}

/// Served-request counters of disks [0, n), 0 where no disk exists.
std::vector<int64_t> ServedPerDisk(const DiskArray& disks, size_t n) {
  std::vector<int64_t> served(n, 0);
  for (size_t id = 0; id < n; ++id) {
    const StatusOr<const SimDisk*> disk =
        disks.GetDisk(static_cast<PhysicalDiskId>(id));
    if (disk.ok()) {
      served[id] = (*disk)->served_requests();
    }
  }
  return served;
}

/// The per-round serving oracle around a production server. Each `Tick`
/// first predicts the round with the store-lookup oracle
/// (`tests/serving_oracle.h`) on a copy of the server's streams, against
/// its store and its round budgets, then ticks the server and checks the
/// prediction: the round's requests, served and hiccups, every surviving
/// stream's position and hiccups, and every disk's served-request delta.
/// Reads route to the materialized location in the oracle, so a cursor
/// that serves a pending block from its AF() window fails here. The other
/// members forward, so `TrafficEngine::Drive` can drive it like a server.
class OracleCheckedServer {
 public:
  explicit OracleCheckedServer(CmServer& server) : server_(server) {}

  int64_t round() const { return server_.round(); }
  const CmServer& server() const { return server_; }
  int64_t rounds_checked() const { return rounds_checked_; }
  int64_t rounds_migrating() const { return rounds_migrating_; }

  StatusOr<int64_t> StartStream(ObjectId object) {
    return server_.StartStream(object);
  }
  Status PauseStream(int64_t id) { return server_.PauseStream(id); }
  Status ResumeStream(int64_t id) { return server_.ResumeStream(id); }
  Status SeekStream(int64_t id, BlockIndex block) {
    return server_.SeekStream(id, block);
  }

  RoundMetrics Tick() {
    const int64_t round = server_.round();
    rounds_migrating_ += server_.migration().idle() ? 0 : 1;
    std::vector<Stream> predicted = server_.streams();
    const OracleRound oracle = ServeFromStore(
        predicted, server_.store(), server_.disks().BandwidthBudgets());
    const std::vector<int64_t> served_before =
        ServedPerDisk(server_.disks(), oracle.served_on.size());

    const RoundMetrics metrics = server_.Tick();

    EXPECT_EQ(metrics.requests, oracle.service.requests) << "round " << round;
    EXPECT_EQ(metrics.served, oracle.service.served) << "round " << round;
    EXPECT_EQ(metrics.hiccups, oracle.service.hiccups) << "round " << round;
    std::vector<StreamState> expected;
    for (const Stream& stream : predicted) {
      if (!stream.finished()) {
        expected.push_back({stream.id(), stream.next_block(), stream.hiccups()});
      }
    }
    std::vector<StreamState> actual;
    for (const Stream& stream : server_.streams()) {
      actual.push_back({stream.id(), stream.next_block(), stream.hiccups()});
    }
    EXPECT_EQ(actual, expected) << "round " << round;
    const std::vector<int64_t> served_after =
        ServedPerDisk(server_.disks(), oracle.served_on.size());
    for (size_t id = 0; id < served_after.size(); ++id) {
      EXPECT_EQ(served_after[id] - served_before[id], oracle.served_on[id])
          << "round " << round << " disk " << id;
    }
    ++rounds_checked_;
    return metrics;
  }

 private:
  CmServer& server_;
  int64_t rounds_checked_ = 0;
  int64_t rounds_migrating_ = 0;
};

/// The active-stream view `TrafficEngine::Drive` rolls VCR events over.
const std::vector<Stream>& StreamView(const OracleCheckedServer& target) {
  return target.server().streams();
}

/// Every round of a server with streams playing through a scale-up and a
/// scale-down matches the store-lookup oracle, migration rounds included.
TEST(ServingEquivalenceTest, BatchedServerMatchesStoreOracleThroughScaling) {
  auto server = MakeServer(BaseConfig());
  ASSERT_TRUE(server->AddObject(1, 400).ok());
  ASSERT_TRUE(server->AddObject(2, 250).ok());
  for (int s = 0; s < 6; ++s) {
    ASSERT_TRUE(server->StartStream(1 + (s % 2)).ok());
  }
  OracleCheckedServer checked(*server);
  for (int round = 0; round < 300; ++round) {
    if (round == 20) {
      ASSERT_TRUE(server->ScaleAdd(2).ok());
    }
    if (round == 60) {
      ASSERT_TRUE(server->ScaleRemove({3}).ok());
    }
    checked.Tick();
    ASSERT_FALSE(::testing::Test::HasFailure()) << "round " << round;
  }
  EXPECT_EQ(checked.rounds_checked(), 300);
  EXPECT_GT(checked.rounds_migrating(), 0);
  EXPECT_GT(server->total_served(), 0);
  EXPECT_TRUE(server->VerifyIntegrity().ok());
}

/// VCR churn: seeded Zipf arrivals with pause/resume/seek and a flash crowd
/// while the array scales up and down and migration rounds interleave. The
/// traffic engine drives the oracle-checked server, so every round proves
/// the cursor windows never serve a block from a stale location, lose one,
/// or serve one twice.
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

  auto server = MakeServer(BaseConfig());
  for (ObjectId id = 1; id <= 8; ++id) {
    ASSERT_TRUE(server->AddObject(id, 120 + 40 * id).ok());
  }
  TrafficEngine traffic(traffic_config);
  traffic.SetObjects(server->catalog().object_ids());
  OracleCheckedServer checked(*server);

  for (int round = 0; round < 160; ++round) {
    if (round == 30) {
      ASSERT_TRUE(server->ScaleAdd(3).ok());
    }
    if (round == 90) {
      ASSERT_TRUE(server->ScaleRemove({2}).ok());
    }
    traffic.DriveRound(checked);
    ASSERT_FALSE(::testing::Test::HasFailure()) << "round " << round;
  }
  EXPECT_EQ(checked.rounds_checked(), 160);
  EXPECT_GT(checked.rounds_migrating(), 0);
  EXPECT_GT(server->total_served(), 0);
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
  auto server = MakeServer(BaseConfig());
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
