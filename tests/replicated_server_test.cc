// R-way replication inside `CmServer` (Section 6): copies as extra store
// rows at AF()'s offset targets, unplanned disk failures, replica-fallback
// reads and repair by ordinary reconciliation. Copy `r` of block `i` of an
// object with `B` blocks is row `r*B + i` of its store row.

#include <gtest/gtest.h>

#include "faults/injector.h"
#include "recovery/checkpoint_manager.h"
#include "recovery/snapshot.h"
#include "server/server.h"

namespace scaddar {
namespace {

ServerConfig Config(int64_t disks = 8) {
  ServerConfig config;
  config.initial_disks = disks;
  config.disk_spec = {.capacity_blocks = 100'000,
                      .bandwidth_blocks_per_round = 16};
  config.master_seed = 1234;
  return config;
}

std::unique_ptr<CmServer> Make(const ServerConfig& config) {
  return std::move(CmServer::Create(config)).value();
}

void Drain(CmServer& server, int limit = 100000) {
  int rounds = 0;
  while (!server.migration().idle()) {
    server.Tick();
    SCADDAR_CHECK(++rounds < limit);
  }
}

int64_t BlocksOf(const CmServer& server, ObjectId id) {
  return server.catalog().GetObject(id).value().num_blocks;
}

/// Copies per block, read off the store row's length.
int64_t CopiesOf(const CmServer& server, ObjectId id) {
  return static_cast<int64_t>(server.store().LocationsOf(id).value().size()) /
         BlocksOf(server, id);
}

/// The disk copy `r` of block `i` sits on now.
PhysicalDiskId CopyOn(const CmServer& server, ObjectId id, int64_t r,
                      BlockIndex i) {
  return server.store().LocationsOf(id).value()[static_cast<size_t>(
      r * BlocksOf(server, id) + i)];
}

// --- Copies, failures and repair. ------------------------------------------

TEST(ReplicatedServerTest, AddObjectValidatesReplicaCount) {
  auto server = Make(Config());
  EXPECT_EQ(server->AddObject(1, 10, 1, /*replicas=*/0).code(),
            StatusCode::kInvalidArgument);
  auto small = Make(Config(2));
  // Fewer disks than replicas.
  EXPECT_EQ(small->AddObject(1, 10, 1, /*replicas=*/3).code(),
            StatusCode::kInvalidArgument);
  EXPECT_FALSE(small->catalog().Contains(1));
}

TEST(ReplicatedServerTest, AddObjectMaterializesAllReplicas) {
  auto server = Make(Config());
  ASSERT_TRUE(server->AddObject(1, 500, 1, 2).ok());
  EXPECT_TRUE(server->VerifyIntegrity().ok());
  EXPECT_EQ(server->store().total_blocks(), 1000);
  for (BlockIndex i = 0; i < 500; ++i) {
    EXPECT_NE(CopyOn(*server, 1, 0, i), CopyOn(*server, 1, 1, i));
  }
}

TEST(ReplicatedServerTest, StreamsPlayCleanlyWhenHealthy) {
  auto server = Make(Config());
  ASSERT_TRUE(server->AddObject(1, 60, 1, 2).ok());
  ASSERT_TRUE(server->StartStream(1).ok());
  for (int round = 0; round < 60; ++round) {
    server->Tick();
  }
  EXPECT_EQ(server->active_streams(), 0);
  EXPECT_EQ(server->total_hiccups(), 0);
  EXPECT_EQ(server->total_served(), 60);
}

TEST(ReplicatedServerTest, FailDiskValidation) {
  auto server = Make(Config(4));
  ASSERT_TRUE(server->AddObject(1, 100, 1, 3).ok());
  EXPECT_EQ(server->FailDisk(99).code(), StatusCode::kNotFound);
  ASSERT_TRUE(server->FailDisk(2).ok());
  EXPECT_EQ(server->FailDisk(2).code(), StatusCode::kFailedPrecondition);
  // 3 live disks left == replicas; another failure would break R-way.
  EXPECT_EQ(server->FailDisk(0).code(), StatusCode::kFailedPrecondition);
}

TEST(ReplicatedServerTest, NoDataLossOnSingleFailure) {
  auto server = Make(Config());
  ASSERT_TRUE(server->AddObject(1, 3000, 1, 2).ok());
  ASSERT_TRUE(server->FailDisk(3).ok());
  EXPECT_EQ(server->UnreadableBlocks(), 0);
  EXPECT_GT(server->migration().pending(), 0);
}

TEST(ReplicatedServerTest, RepairsRestoreFullRedundancy) {
  auto server = Make(Config());
  ASSERT_TRUE(server->AddObject(1, 3000, 1, 2).ok());
  ASSERT_TRUE(server->FailDisk(5).ok());
  Drain(*server);
  EXPECT_TRUE(server->VerifyIntegrity().ok());
  EXPECT_GT(server->migration().total_moved(), 0);
  // No copy may reference the dead disk anymore.
  for (BlockIndex i = 0; i < 3000; ++i) {
    EXPECT_NE(CopyOn(*server, 1, 0, i), 5);
    EXPECT_NE(CopyOn(*server, 1, 1, i), 5);
  }
  EXPECT_EQ(server->store().CountOn(5), 0);
}

TEST(ReplicatedServerTest, StreamsSurviveTheFailureWindow) {
  // Slow disks + a big object keep the repair backlog alive for hundreds
  // of rounds, so the playing stream must cross blocks whose primary is
  // still dead — and get them from the mirror without a hiccup.
  ServerConfig config = Config();
  config.disk_spec.bandwidth_blocks_per_round = 4;
  auto server = Make(config);
  ASSERT_TRUE(server->AddObject(1, 20000, 1, 2).ok());
  ASSERT_TRUE(server->StartStream(1).ok());
  for (int round = 0; round < 50; ++round) {
    server->Tick();
  }
  ASSERT_TRUE(server->FailDisk(2).ok());
  int64_t degraded = 0;
  for (int round = 0; round < 350; ++round) {
    degraded += server->Tick().served_degraded;
  }
  EXPECT_EQ(server->total_served(), 400);  // 400 rounds x 1 block.
  // The repair frontier overtakes a 1-block/round stream within a couple
  // of rounds, so only the first post-failure reads can be degraded — but
  // at least one must be, and none may hiccup: the mirror covers the dead
  // disk seamlessly.
  EXPECT_GE(degraded, 1);
  EXPECT_EQ(server->total_hiccups(), 0);
}

TEST(ReplicatedServerTest, TripleReplicationSurvivesTwoOverlappingFailures) {
  auto server = Make(Config(9));
  ASSERT_TRUE(server->AddObject(1, 2000, 1, 3).ok());
  ASSERT_TRUE(server->FailDisk(1).ok());
  // Second failure before the first repair finishes.
  ASSERT_TRUE(server->FailDisk(4).ok());
  EXPECT_EQ(server->UnreadableBlocks(), 0);
  Drain(*server);
  EXPECT_TRUE(server->VerifyIntegrity().ok());
}

TEST(ReplicatedServerTest, DoubleFailureOnTwoWayLosesSomeBlocksHonestly) {
  auto server = Make(Config(8));
  ASSERT_TRUE(server->AddObject(1, 4000, 1, 2).ok());
  ASSERT_TRUE(server->FailDisk(0).ok());
  // Immediately fail the offset partner before any repair round runs:
  // blocks whose two copies sat on {0, 4} are gone.
  ASSERT_TRUE(server->FailDisk(4).ok());
  EXPECT_GT(server->UnreadableBlocks(), 0);
  EXPECT_LT(server->UnreadableBlocks(), 4000 / 2);
}

TEST(ReplicatedServerTest, RepairBeforeSecondFailurePreventsLoss) {
  auto server = Make(Config(8));
  ASSERT_TRUE(server->AddObject(1, 4000, 1, 2).ok());
  ASSERT_TRUE(server->FailDisk(0).ok());
  Drain(*server);
  ASSERT_TRUE(server->FailDisk(4).ok());
  EXPECT_EQ(server->UnreadableBlocks(), 0);
  Drain(*server);
  EXPECT_TRUE(server->VerifyIntegrity().ok());
}

TEST(ReplicatedServerTest, ScaleAddRebalancesReplicas) {
  auto server = Make(Config());
  ASSERT_TRUE(server->AddObject(1, 2000, 1, 2).ok());
  ASSERT_TRUE(server->ScaleAdd(2).ok());
  Drain(*server);
  EXPECT_TRUE(server->VerifyIntegrity().ok());
  // The new disks hold copies now.
  int64_t on_new = 0;
  for (BlockIndex i = 0; i < 2000; ++i) {
    for (int64_t r = 0; r < 2; ++r) {
      on_new += CopyOn(*server, 1, r, i) >= 8 ? 1 : 0;
    }
  }
  EXPECT_NEAR(static_cast<double>(on_new) / 4000.0, 2.0 / 10.0, 0.07);
}

TEST(ReplicatedServerTest, PerObjectReplicaCounts) {
  auto server = Make(Config(8));
  ASSERT_TRUE(server->AddObject(1, 100, 1, /*replicas=*/2).ok());
  ASSERT_TRUE(server->AddObject(2, 100).ok());  // Cold: one copy.
  ASSERT_TRUE(server->AddObject(3, 100, 1, /*replicas=*/3).ok());  // Hot.
  EXPECT_EQ(CopiesOf(*server, 1), 2);
  EXPECT_EQ(CopiesOf(*server, 2), 1);
  EXPECT_EQ(CopiesOf(*server, 3), 3);
  EXPECT_FALSE(server->AddObject(4, 10, 1, /*replicas=*/9).ok());
  EXPECT_FALSE(server->AddObject(4, 10, 1, /*replicas=*/-1).ok());
  EXPECT_TRUE(server->VerifyIntegrity().ok());
}

TEST(ReplicatedServerTest, PartialReplicationLosesOnlyColdBlocks) {
  auto server = Make(Config(8));
  ASSERT_TRUE(server->AddObject(1, 2000, 1, /*replicas=*/2).ok());
  ASSERT_TRUE(server->AddObject(2, 2000, 1, /*replicas=*/1).ok());
  ASSERT_TRUE(server->FailDisk(3).ok());
  const int64_t unreadable = server->UnreadableBlocks();
  // Only the unreplicated object can lose blocks: ~1/8 of its 2000.
  EXPECT_GT(unreadable, 0);
  EXPECT_NEAR(static_cast<double>(unreadable), 2000.0 / 8.0, 60.0);
  // The replicated object remains fully readable.
  for (BlockIndex i = 0; i < 2000; ++i) {
    bool healthy = false;
    for (int64_t r = 0; r < 2; ++r) {
      if (CopyOn(*server, 1, r, i) != 3) {
        healthy = true;
      }
    }
    EXPECT_TRUE(healthy) << "replicated block " << i << " lost";
  }
  // Repairs drain even though some copies are unrecoverable.
  Drain(*server);
}

TEST(ReplicatedServerTest, TripleReplicaObjectSurvivesDoubleFailure) {
  auto server = Make(Config(9));
  ASSERT_TRUE(server->AddObject(1, 1500, 1, /*replicas=*/3).ok());
  ASSERT_TRUE(server->FailDisk(0).ok());
  ASSERT_TRUE(server->FailDisk(3).ok());  // Before any repair.
  EXPECT_EQ(server->UnreadableBlocks(), 0);
}

TEST(ReplicatedServerTest, FailureDuringScalingConverges) {
  auto server = Make(Config());
  ASSERT_TRUE(server->AddObject(1, 2000, 1, 2).ok());
  ASSERT_TRUE(server->ScaleAdd(2).ok());
  for (int round = 0; round < 3; ++round) {
    server->Tick();  // Mid-migration...
  }
  ASSERT_TRUE(server->FailDisk(6).ok());  // ...a disk dies.
  EXPECT_EQ(server->UnreadableBlocks(), 0);
  Drain(*server);
  EXPECT_TRUE(server->VerifyIntegrity().ok());
}

// --- Failure paths the folded server adds. ----------------------------------

TEST(ReplicatedServerTest, LostBlocksHiccupAfterTheQueueDrains) {
  // One copy per block: a failure loses the dead disk's blocks. Their
  // entries leave the queue so the drain ends, but the stream must keep
  // hiccuping at the first lost block instead of reading its AF() target.
  auto server = Make(Config(4));
  ASSERT_TRUE(server->AddObject(1, 400).ok());
  ASSERT_TRUE(server->FailDisk(1).ok());
  const int64_t lost = server->UnreadableBlocks();
  EXPECT_GT(lost, 0);
  Drain(*server);
  EXPECT_EQ(server->UnreadableBlocks(), lost);
  EXPECT_FALSE(server->VerifyIntegrity().ok());
  BlockIndex first_lost = 0;
  while (CopyOn(*server, 1, 0, first_lost) != 1) {
    ++first_lost;
  }
  ASSERT_TRUE(server->StartStream(1).ok());
  for (int round = 0; round < 500; ++round) {
    server->Tick();
  }
  ASSERT_EQ(server->streams().size(), 1u);
  EXPECT_EQ(server->streams().front().next_block(), first_lost);
  EXPECT_EQ(server->total_served(), first_lost);
  EXPECT_EQ(server->disks().GetDisk(1).value()->served_requests(), 0);
}

TEST(ReplicatedServerTest, ScheduledFailuresAndReadErrorsDegradeToCopies) {
  auto server = Make(Config(8));
  ASSERT_TRUE(server->AddObject(1, 3000, 1, 2).ok());
  ASSERT_TRUE(server->StartStream(1).ok());
  FaultSchedule schedule;
  schedule.Add(FaultEvent{.kind = FaultKind::kDiskFail, .round = 5,
                          .disk = 6});
  schedule.Add(FaultEvent{.kind = FaultKind::kTransientError,
                          .round = -1,
                          .disk = -1,
                          .probability = 0.2});
  FaultInjector injector(schedule, 7);
  server->AttachFaultInjector(&injector);
  int64_t degraded = 0;
  for (int round = 0; round < 200; ++round) {
    degraded += server->Tick().served_degraded;
    ASSERT_EQ(server->UnreadableBlocks(), 0);
  }
  Drain(*server);
  EXPECT_EQ(injector.disk_failures_fired(), 1);
  EXPECT_TRUE(server->disks().IsFailed(6));
  EXPECT_GT(injector.transient_errors_fired(), 0);
  EXPECT_GT(degraded, 0);
  EXPECT_TRUE(server->VerifyIntegrity().ok());
}

TEST(ReplicatedServerTest, OneCopyReadsDrawNothingFromTheInjector) {
  auto server = Make(Config(4));
  ASSERT_TRUE(server->AddObject(1, 200).ok());
  ASSERT_TRUE(server->StartStream(1).ok());
  FaultSchedule schedule;
  schedule.Add(FaultEvent{.kind = FaultKind::kTransientError,
                          .round = -1,
                          .disk = -1,
                          .probability = 1.0});
  FaultInjector injector(schedule, 7);
  server->AttachFaultInjector(&injector);
  for (int round = 0; round < 50; ++round) {
    server->Tick();
  }
  EXPECT_EQ(server->total_served(), 50);
  EXPECT_EQ(injector.transient_errors_fired(), 0);
}

TEST(ReplicatedServerTest, ScaleRemoveKeepsAsManyDisksAsReplicas) {
  auto server = Make(Config(4));
  ASSERT_TRUE(server->AddObject(1, 100, 1, 3).ok());
  EXPECT_EQ(server->ScaleRemove({0, 1}).code(),
            StatusCode::kFailedPrecondition);
  ASSERT_TRUE(server->ScaleRemove({0}).ok());
  Drain(*server);
  EXPECT_TRUE(server->VerifyIntegrity().ok());
}

TEST(ReplicatedServerTest, CopiesNeedTheSimulatedScaddarTier) {
  ServerConfig naive = Config();
  naive.policy = "naive";
  auto server = Make(naive);
  EXPECT_EQ(server->AddObject(1, 10, 1, 2).code(), StatusCode::kUnimplemented);
  EXPECT_FALSE(server->catalog().Contains(1));
  EXPECT_TRUE(server->AddObject(1, 10).ok());

  ServerConfig mem = Config();
  mem.storage_backend = "mem";
  auto real = Make(mem);
  EXPECT_EQ(real->AddObject(1, 10, 1, 2).code(),
            StatusCode::kFailedPrecondition);
  ASSERT_TRUE(real->AddObject(1, 10).ok());
  EXPECT_EQ(real->FailDisk(0).code(), StatusCode::kFailedPrecondition);
}

TEST(ReplicatedServerTest, CheckpointsCarryCopiesAndRefuseFailedDisks) {
  auto server = Make(Config());
  ASSERT_TRUE(server->AddObject(1, 1000, 1, 2).ok());
  ASSERT_TRUE(server->AddObject(2, 500).ok());
  CheckpointManager manager;
  ASSERT_TRUE(server->EnableCheckpoints(&manager, 4).ok());
  EXPECT_EQ(server->FailDisk(0).code(), StatusCode::kFailedPrecondition);
  ASSERT_TRUE(server->ScaleAdd(2).ok());
  for (int round = 0; round < 6; ++round) {
    server->Tick();  // Checkpoints land mid-migration.
  }
  ASSERT_TRUE(server->KillRestartFromCheckpoint().ok());
  EXPECT_EQ(CopiesOf(*server, 1), 2);
  EXPECT_EQ(CopiesOf(*server, 2), 1);
  Drain(*server);
  EXPECT_TRUE(server->VerifyIntegrity().ok());
  auto restored = std::move(CmServer::FromSnapshotDocument(
                                Config(), EncodeServerSnapshot(
                                              server->CaptureState())))
                      .value();
  EXPECT_EQ(CopiesOf(*restored, 1), 2);
  EXPECT_TRUE(restored->VerifyIntegrity().ok());

  // A failed disk still holding copies cannot be checkpointed.
  auto failing = Make(Config());
  ASSERT_TRUE(failing->AddObject(1, 1000, 1, 2).ok());
  ASSERT_TRUE(failing->FailDisk(3).ok());
  CheckpointManager later;
  EXPECT_EQ(failing->AttachCheckpointManager(&later).code(),
            StatusCode::kFailedPrecondition);
  Drain(*failing);
  EXPECT_TRUE(failing->AttachCheckpointManager(&later).ok());
}

}  // namespace
}  // namespace scaddar
