// End-to-end invariants across the whole stack: placement policies, the
// materialized block store, online migration and the CM server, driven by
// randomized but seed-deterministic operation sequences.

#include <algorithm>

#include <gtest/gtest.h>

#include "placement/registry.h"
#include "random/distributions.h"
#include "random/sequence.h"
#include "server/server.h"
#include "server/workload/traffic_engine.h"
#include "stats/load_metrics.h"
#include "stats/movement.h"

namespace scaddar {
namespace {

std::vector<uint64_t> MakeX0(uint64_t seed, int64_t n) {
  return X0Sequence::Create(PrngKind::kSplitMix64, seed, 64)
      .value()
      .Materialize(n);
}

// Generates a random but valid scaling op for the current disk count.
ScalingOp RandomOp(Prng& prng, int64_t current_disks) {
  const bool add = current_disks <= 2 || Bernoulli(prng, 0.6);
  if (add) {
    return ScalingOp::Add(
               1 + static_cast<int64_t>(UniformUint64(prng, 3)))
        .value();
  }
  const int64_t count = 1 + static_cast<int64_t>(UniformUint64(
                                prng, static_cast<uint64_t>(
                                          std::min<int64_t>(
                                              current_disks - 1, 3))));
  const std::vector<int64_t> slots =
      SampleWithoutReplacement(prng, current_disks, count);
  return ScalingOp::Remove(slots).value();
}

class RandomChurnTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RandomChurnTest, StoreAlwaysConvergesToPolicy) {
  const uint64_t seed = GetParam();
  auto prng = MakePrng(PrngKind::kSplitMix64, seed);
  auto policy = MakePolicy("scaddar", 6).value();
  const std::vector<uint64_t> x0 = MakeX0(seed, 3000);
  ASSERT_TRUE(policy->AddObject(1, x0).ok());

  BlockStore store;
  std::vector<PhysicalDiskId> locations;
  for (BlockIndex i = 0; i < 3000; ++i) {
    locations.push_back(policy->Locate(1, i));
  }
  ASSERT_TRUE(store.PlaceObject(1, locations).ok());

  for (int step = 0; step < 12; ++step) {
    const ScalingOp op = RandomOp(*prng, policy->current_disks());
    ASSERT_TRUE(policy->ApplyOp(op).ok()) << op.ToString();
    const MovePlan plan =
        PlanOperation(policy->log(), policy->log().num_ops(), {{1, &x0}});
    ASSERT_TRUE(store.ApplyPlan(plan).ok()) << op.ToString();
    ASSERT_TRUE(store.VerifyAgainstPolicy(*policy).ok())
        << "diverged after " << op.ToString();
    // RO1 on every step.
    const MovementStats stats = plan.ToMovementStats(
        policy->log().disks_after(policy->log().num_ops() - 1),
        policy->current_disks());
    EXPECT_LT(stats.overhead_ratio, 1.35) << op.ToString();
  }
}

TEST_P(RandomChurnTest, LoadStaysBalancedUnderChurn) {
  const uint64_t seed = GetParam() ^ 0xabcdef;
  auto prng = MakePrng(PrngKind::kSplitMix64, seed);
  auto policy = MakePolicy("scaddar", 8).value();
  for (ObjectId id = 1; id <= 10; ++id) {
    ASSERT_TRUE(
        policy->AddObject(id, MakeX0(seed + static_cast<uint64_t>(id), 4000))
            .ok());
  }
  for (int step = 0; step < 8; ++step) {
    const ScalingOp op = RandomOp(*prng, policy->current_disks());
    ASSERT_TRUE(policy->ApplyOp(op).ok());
  }
  const LoadMetrics metrics = ComputeLoadMetrics(policy->PerDiskCounts());
  // 64-bit range: far from exhaustion, CoV stays small.
  EXPECT_LT(metrics.coefficient_of_variation, 0.06);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomChurnTest,
                         ::testing::Values(1, 2, 3, 4, 5, 101, 202, 303));

TEST(ServerIntegrationTest, WorkloadDrivenScalingStaysConsistent) {
  ServerConfig config;
  config.initial_disks = 6;
  config.disk_spec = {.capacity_blocks = 100'000,
                      .bandwidth_blocks_per_round = 10};
  config.master_seed = 99;
  // Random placement gives statistical (not deterministic) service
  // guarantees: per-disk demand is ~Binomial(streams, 1/N), so a
  // conservative cap keeps the overload tail (hiccups) small.
  config.admission_utilization_cap = 0.5;
  auto server = std::move(CmServer::Create(config)).value();
  for (ObjectId id = 1; id <= 5; ++id) {
    ASSERT_TRUE(server->AddObject(id, 300).ok());
  }
  TrafficEngine traffic(
      {.seed = 31, .arrivals_per_round = 0.4, .zipf_theta = 0.729});
  traffic.SetObjects({1, 2, 3, 4, 5});

  int64_t started = 0;
  for (int round = 0; round < 600; ++round) {
    for (const ObjectId id :
         traffic.NextRound(server->round(), server->streams()).arrivals) {
      if (server->StartStream(id).ok()) {
        ++started;
      }
    }
    if (round == 100) {
      ASSERT_TRUE(server->ScaleAdd(2).ok());
    }
    if (round == 300) {
      ASSERT_TRUE(server->ScaleRemove({1, 5}).ok());
    }
    server->Tick();
  }
  EXPECT_GT(started, 50);
  EXPECT_GT(server->completed_streams(), 0);
  // Let any remaining migration finish, then verify global consistency.
  int rounds = 0;
  while (!server->migration().idle()) {
    server->Tick();
    ASSERT_LT(++rounds, 50000);
  }
  EXPECT_TRUE(server->VerifyIntegrity().ok());
  // Hiccup rate must stay in the statistical-overload tail, not collapse
  // into systematic starvation (the scale-down at round 300 transiently
  // over-commits streams admitted against the larger array).
  EXPECT_LT(static_cast<double>(server->total_hiccups()),
            0.03 * static_cast<double>(server->total_served()) + 5);
}

TEST(ServerIntegrationTest, ToleranceDrivenFullRedistribution) {
  // Drive a 32-bit server past its Lemma 4.3 budget, rebase, and keep
  // scaling — placement must stay consistent throughout.
  ServerConfig config;
  config.initial_disks = 8;
  config.bits = 32;
  config.governor_eps = 0.05;
  config.master_seed = 7;
  auto server = std::move(CmServer::Create(config)).value();
  ASSERT_TRUE(server->AddObject(1, 2000).ok());

  int rebases = 0;
  for (int i = 0; i < 12; ++i) {
    const ScalingOp op = ScalingOp::Add(1).value();
    if (server->WouldExceedTolerance(op)) {
      ASSERT_TRUE(server->FullRedistribution().ok());
      ++rebases;
      EXPECT_EQ(server->policy().log().num_ops(), 0);
    }
    ASSERT_TRUE(server->ScaleAdd(1).ok());
  }
  EXPECT_GE(rebases, 1);  // b=32 cannot absorb 12 ops without rebasing.
  int rounds = 0;
  while (!server->migration().idle()) {
    server->Tick();
    ASSERT_LT(++rounds, 100000);
  }
  EXPECT_TRUE(server->VerifyIntegrity().ok());
  EXPECT_EQ(server->policy().current_disks(), 20);
}

TEST(ServerIntegrationTest, AllPoliciesSurviveChurnWithStreams) {
  for (const std::string_view name : {"scaddar", "directory", "jump"}) {
    ServerConfig config;
    config.initial_disks = 5;
    config.policy = std::string(name);
    config.master_seed = 55;
    auto server = std::move(CmServer::Create(config)).value();
    ASSERT_TRUE(server->AddObject(1, 500).ok());
    ASSERT_TRUE(server->StartStream(1).ok());
    ASSERT_TRUE(server->ScaleAdd(1).ok());
    for (int round = 0; round < 100; ++round) {
      server->Tick();
    }
    ASSERT_TRUE(server->ScaleRemove({2}).ok());
    int rounds = 0;
    while (!server->migration().idle()) {
      server->Tick();
      ASSERT_LT(++rounds, 50000) << name;
    }
    server->Tick();
    EXPECT_TRUE(server->VerifyIntegrity().ok()) << name;
  }
}

}  // namespace
}  // namespace scaddar
