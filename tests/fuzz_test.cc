// Randomized (but seed-deterministic) robustness tests: random op logs
// round-trip serialization, random churn keeps every cross-layer invariant,
// and the servers stay internally consistent under a random driver.

#include <gtest/gtest.h>

#include "core/compiled_log.h"
#include "core/mapper.h"
#include "faults/injector.h"
#include "random/distributions.h"
#include "random/sequence.h"
#include "server/server.h"

namespace scaddar {
namespace {

ScalingOp RandomOp(Prng& prng, int64_t current_disks) {
  if (current_disks <= 2 || Bernoulli(prng, 0.65)) {
    return ScalingOp::Add(
               1 + static_cast<int64_t>(UniformUint64(prng, 4)))
        .value();
  }
  const int64_t max_remove = std::min<int64_t>(current_disks - 1, 3);
  const int64_t count =
      1 + static_cast<int64_t>(
              UniformUint64(prng, static_cast<uint64_t>(max_remove)));
  return ScalingOp::Remove(SampleWithoutReplacement(prng, current_disks,
                                                    count))
      .value();
}

class FuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FuzzTest, OpLogSerializationRoundTripsUnderChurn) {
  auto prng = MakePrng(PrngKind::kSplitMix64, GetParam());
  OpLog log = OpLog::Create(
                  1 + static_cast<int64_t>(UniformUint64(*prng, 16)))
                  .value();
  for (int step = 0; step < 25; ++step) {
    ASSERT_TRUE(log.Append(RandomOp(*prng, log.current_disks())).ok());
    const StatusOr<OpLog> parsed = OpLog::Deserialize(log.Serialize());
    ASSERT_TRUE(parsed.ok()) << log.Serialize();
    ASSERT_EQ(*parsed, log);
    ASSERT_EQ(parsed->physical_disks(), log.physical_disks());
    ASSERT_EQ(static_cast<uint64_t>(parsed->pi().value()),
              static_cast<uint64_t>(log.pi().value()));
  }
}

TEST_P(FuzzTest, CompiledAndReplayedAFNeverDisagree) {
  auto prng = MakePrng(PrngKind::kSplitMix64, GetParam() ^ 0x11);
  OpLog log = OpLog::Create(6).value();
  auto seq =
      X0Sequence::Create(PrngKind::kXoshiro256, GetParam(), 64).value();
  for (int step = 0; step < 20; ++step) {
    ASSERT_TRUE(log.Append(RandomOp(*prng, log.current_disks())).ok());
    const Mapper mapper(&log);
    const CompiledLog compiled(log);
    for (int i = 0; i < 200; ++i) {
      const uint64_t x0 = seq.Next();
      ASSERT_EQ(compiled.LocatePhysical(x0), mapper.LocatePhysical(x0));
    }
  }
}

TEST_P(FuzzTest, ServerSurvivesRandomDriver) {
  const uint64_t seed = GetParam() ^ 0x22;
  auto prng = MakePrng(PrngKind::kSplitMix64, seed);
  ServerConfig config;
  config.initial_disks = 6;
  config.master_seed = seed;
  config.admission_utilization_cap = 0.6;
  auto server = std::move(CmServer::Create(config)).value();
  ObjectId next_object = 1;
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(server->AddObject(next_object++, 200).ok());
  }
  for (int round = 0; round < 400; ++round) {
    const double dice = UniformDouble(*prng);
    if (dice < 0.03 && server->catalog().num_objects() < 12) {
      ASSERT_TRUE(server
                      ->AddObject(next_object++,
                                  50 + static_cast<int64_t>(
                                           UniformUint64(*prng, 300)))
                      .ok());
    } else if (dice < 0.05 && server->catalog().num_objects() > 1) {
      // Remove a random object if idle (ignore refusals for streaming
      // objects — that path is exercised too).
      const auto& ids = server->catalog().object_ids();
      const ObjectId victim = ids[static_cast<size_t>(
          UniformUint64(*prng, ids.size()))];
      const Status status = server->RemoveObject(victim);
      ASSERT_TRUE(status.ok() ||
                  status.code() == StatusCode::kFailedPrecondition);
    } else if (dice < 0.08) {
      const ScalingOp op = RandomOp(*prng, server->policy().current_disks());
      if (op.is_add()) {
        ASSERT_TRUE(server->ScaleAdd(op.add_count()).ok());
      } else if (server->policy().current_disks() -
                     static_cast<int64_t>(op.removed_slots().size()) >=
                 2) {
        ASSERT_TRUE(server->ScaleRemove(op.removed_slots()).ok());
      }
    } else if (dice < 0.25) {
      const auto& ids = server->catalog().object_ids();
      const ObjectId object = ids[static_cast<size_t>(
          UniformUint64(*prng, ids.size()))];
      (void)server->StartStream(object);  // Admission may refuse.
    }
    const RoundMetrics metrics = server->Tick();
    // Per-round invariants.
    ASSERT_GE(metrics.served, 0);
    ASSERT_EQ(metrics.requests, metrics.served + metrics.hiccups);
    ASSERT_EQ(server->store().total_blocks(),
              server->catalog().total_blocks());
  }
  // Let everything settle and verify global consistency.
  int rounds = 0;
  while (!server->migration().idle()) {
    server->Tick();
    ASSERT_LT(++rounds, 100000);
  }
  EXPECT_TRUE(server->VerifyIntegrity().ok());
}

TEST_P(FuzzTest, ReplicatedServerNeverLosesDataUnderSingleFailures) {
  const uint64_t seed = GetParam() ^ 0x33;
  auto prng = MakePrng(PrngKind::kSplitMix64, seed);
  ServerConfig config;
  config.initial_disks = 8;
  config.master_seed = seed;
  auto server = std::move(CmServer::Create(config)).value();
  ASSERT_TRUE(server->AddObject(1, 1000, 1, /*replicas=*/2).ok());
  (void)server->StartStream(1);
  for (int round = 0; round < 300; ++round) {
    const double dice = UniformDouble(*prng);
    if (dice < 0.01) {
      // Fail a random live disk, but only when fully repaired (single
      // overlapping failure — the 2-way guarantee).
      if (server->migration().idle()) {
        const std::vector<PhysicalDiskId>& live =
            server->policy().log().physical_disks();
        const PhysicalDiskId victim = live[static_cast<size_t>(
            UniformUint64(*prng, live.size()))];
        if (static_cast<int64_t>(live.size()) > 3) {
          ASSERT_TRUE(server->FailDisk(victim).ok());
        }
      }
    } else if (dice < 0.02) {
      ASSERT_TRUE(server->ScaleAdd(1).ok());
    }
    server->Tick();
    ASSERT_EQ(server->UnreadableBlocks(), 0);
  }
  int rounds = 0;
  while (!server->migration().idle()) {
    server->Tick();
    ASSERT_LT(++rounds, 100000);
  }
  EXPECT_TRUE(server->VerifyIntegrity().ok());
}

TEST_P(FuzzTest, ServerNeverLosesBlocksUnderRandomFaultSchedules) {
  const uint64_t seed = GetParam() ^ 0x44;
  auto prng = MakePrng(PrngKind::kSplitMix64, seed);
  ServerConfig config;
  config.initial_disks = 6;
  config.master_seed = seed;
  config.journal_migration = true;
  auto server = std::move(CmServer::Create(config)).value();
  ObjectId next_object = 1;
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(server->AddObject(next_object++, 250).ok());
  }
  RandomScheduleOptions schedule_options;
  schedule_options.crashes = 6;
  schedule_options.max_crash_move = 64;
  schedule_options.transient_probability = 0.05;
  FaultInjector injector(FaultSchedule::Random(seed, schedule_options), seed);
  server->AttachFaultInjector(&injector);
  int64_t recoveries = 0;
  for (int round = 0; round < 300; ++round) {
    const double dice = UniformDouble(*prng);
    if (server->crashed()) {
      // The dead process loses its volatile state; restart and recover.
      ASSERT_TRUE(server->SimulateCrashRestart().ok());
      ++recoveries;
    } else if (dice < 0.04) {
      const ScalingOp op = RandomOp(*prng, server->policy().current_disks());
      if (op.is_add()) {
        ASSERT_TRUE(server->ScaleAdd(op.add_count()).ok());
      } else if (server->policy().current_disks() -
                     static_cast<int64_t>(op.removed_slots().size()) >=
                 2) {
        ASSERT_TRUE(server->ScaleRemove(op.removed_slots()).ok());
      }
    } else if (dice < 0.2) {
      (void)server->StartStream(1 + static_cast<ObjectId>(
                                        UniformUint64(*prng, 3)));
    }
    server->Tick();
    // No block is ever lost or duplicated, crashed or not: the durable
    // store always carries exactly the cataloged block population.
    ASSERT_EQ(server->store().total_blocks(),
              server->catalog().total_blocks());
  }
  // Drain to convergence through any remaining crash events.
  int rounds = 0;
  while (!server->migration().idle() || server->crashed()) {
    if (server->crashed()) {
      ASSERT_TRUE(server->SimulateCrashRestart().ok());
      ++recoveries;
    }
    server->Tick();
    ASSERT_LT(++rounds, 100000);
  }
  EXPECT_EQ(recoveries, injector.crashes_fired());
  EXPECT_EQ(server->store().staged_blocks(), 0);
  EXPECT_TRUE(server->VerifyIntegrity().ok());
}

TEST_P(FuzzTest, ReplicatedServerSurvivesRandomFaultSchedules) {
  const uint64_t seed = GetParam() ^ 0x55;
  ServerConfig config;
  config.initial_disks = 10;
  config.master_seed = seed;
  auto server = std::move(CmServer::Create(config)).value();
  ASSERT_TRUE(server->AddObject(1, 800, 1, /*replicas=*/2).ok());
  (void)server->StartStream(1);
  // Scheduled disk deaths (spaced wider than a rebuild takes, preserving
  // the single-overlapping-failure guarantee) plus transient read/transfer
  // errors that the executor's re-queue must absorb.
  RandomScheduleOptions schedule_options;
  schedule_options.crashes = 0;
  schedule_options.disk_failures = 2;
  schedule_options.max_round = 100;
  schedule_options.failure_spacing = 400;
  schedule_options.max_disk_id = config.initial_disks;
  schedule_options.transient_probability = 0.02;
  FaultInjector injector(FaultSchedule::Random(seed, schedule_options), seed);
  server->AttachFaultInjector(&injector);
  for (int round = 0; round < 900; ++round) {
    server->Tick();
    ASSERT_EQ(server->UnreadableBlocks(), 0);
  }
  int rounds = 0;
  while (!server->migration().idle()) {
    server->Tick();
    ASSERT_LT(++rounds, 100000);
  }
  EXPECT_EQ(injector.disk_failures_fired(), 2);
  EXPECT_TRUE(server->VerifyIntegrity().ok());
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzTest,
                         ::testing::Values(0xf001, 0xf002, 0xf003, 0xf004,
                                           0xf005, 0xf006));

}  // namespace
}  // namespace scaddar
