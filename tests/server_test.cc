#include "server/server.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <vector>

#include "recovery/checkpoint_manager.h"

namespace scaddar {
namespace {

ServerConfig SmallConfig() {
  ServerConfig config;
  config.initial_disks = 4;
  config.disk_spec = {.capacity_blocks = 50'000,
                      .bandwidth_blocks_per_round = 8};
  config.master_seed = 2024;
  return config;
}

std::unique_ptr<CmServer> MakeServer(const ServerConfig& config) {
  auto server = CmServer::Create(config);
  SCADDAR_CHECK(server.ok());
  return std::move(server).value();
}

TEST(CmServerTest, CreateValidation) {
  ServerConfig bad = SmallConfig();
  bad.initial_disks = 0;
  EXPECT_FALSE(CmServer::Create(bad).ok());
  bad = SmallConfig();
  bad.bits = 70;
  EXPECT_FALSE(CmServer::Create(bad).ok());
  bad = SmallConfig();
  bad.policy = "bogus";
  EXPECT_FALSE(CmServer::Create(bad).ok());
}

TEST(CmServerTest, BitsWiderThanGeneratorFailAtIngest) {
  ServerConfig config = SmallConfig();
  config.prng_kind = PrngKind::kPcg32;  // 32-bit generator...
  config.bits = 48;                     // ...cannot produce 48-bit X0.
  auto server = MakeServer(config);
  EXPECT_FALSE(server->AddObject(1, 10).ok());
  EXPECT_EQ(server->store().total_blocks(), 0);
  // The failed ingest must leave no trace anywhere.
  EXPECT_FALSE(server->catalog().Contains(1));
  EXPECT_EQ(server->policy().num_objects(), 0);
}

TEST(CmServerTest, AddObjectMaterializesAllBlocks) {
  auto server = MakeServer(SmallConfig());
  ASSERT_TRUE(server->AddObject(1, 1000).ok());
  EXPECT_EQ(server->store().total_blocks(), 1000);
  EXPECT_TRUE(server->VerifyIntegrity().ok());
  // All four disks hold a share.
  for (const PhysicalDiskId id : server->disks().live_ids()) {
    EXPECT_GT(server->store().CountOn(id), 0);
  }
}

TEST(CmServerTest, DuplicateObjectRejected) {
  auto server = MakeServer(SmallConfig());
  ASSERT_TRUE(server->AddObject(1, 10).ok());
  EXPECT_FALSE(server->AddObject(1, 10).ok());
}

TEST(CmServerTest, RemoveObjectFreesBlocks) {
  auto server = MakeServer(SmallConfig());
  ASSERT_TRUE(server->AddObject(1, 500).ok());
  ASSERT_TRUE(server->AddObject(2, 300).ok());
  ASSERT_TRUE(server->RemoveObject(1).ok());
  EXPECT_EQ(server->store().total_blocks(), 300);
  EXPECT_FALSE(server->catalog().Contains(1));
  EXPECT_TRUE(server->VerifyIntegrity().ok());
  EXPECT_EQ(server->RemoveObject(1).code(), StatusCode::kNotFound);
}

TEST(CmServerTest, RemoveObjectRefusedWhileStreaming) {
  auto server = MakeServer(SmallConfig());
  ASSERT_TRUE(server->AddObject(1, 100).ok());
  ASSERT_TRUE(server->StartStream(1).ok());
  EXPECT_EQ(server->RemoveObject(1).code(),
            StatusCode::kFailedPrecondition);
  for (int round = 0; round < 100; ++round) {
    server->Tick();
  }
  EXPECT_TRUE(server->RemoveObject(1).ok());
}

TEST(CmServerTest, RemoveObjectDuringMigrationIsSafe) {
  auto server = MakeServer(SmallConfig());
  ASSERT_TRUE(server->AddObject(1, 800).ok());
  ASSERT_TRUE(server->AddObject(2, 800).ok());
  ASSERT_TRUE(server->ScaleAdd(2).ok());
  // Queue holds moves for object 1; delete it mid-migration.
  ASSERT_TRUE(server->RemoveObject(1).ok());
  int rounds = 0;
  while (!server->migration().idle()) {
    server->Tick();
    ASSERT_LT(++rounds, 10000);
  }
  EXPECT_TRUE(server->VerifyIntegrity().ok());
  EXPECT_EQ(server->store().total_blocks(), 800);
}

TEST(CmServerTest, StreamPlaysToCompletionWithoutHiccups) {
  auto server = MakeServer(SmallConfig());
  ASSERT_TRUE(server->AddObject(1, 50).ok());
  ASSERT_TRUE(server->StartStream(1).ok());
  for (int round = 0; round < 50; ++round) {
    server->Tick();
  }
  EXPECT_EQ(server->completed_streams(), 1);
  EXPECT_EQ(server->active_streams(), 0);
  EXPECT_EQ(server->total_hiccups(), 0);
  EXPECT_EQ(server->total_served(), 50);
}

TEST(CmServerTest, AdmissionControlRejectsOverload) {
  ServerConfig config = SmallConfig();
  config.admission_utilization_cap = 0.5;  // 4 disks * 8 bw * 0.5 = 16.
  auto server = MakeServer(config);
  ASSERT_TRUE(server->AddObject(1, 100).ok());
  int64_t admitted = 0;
  int64_t rejected = 0;
  for (int i = 0; i < 20; ++i) {
    if (server->StartStream(1).ok()) {
      ++admitted;
    } else {
      ++rejected;
    }
  }
  EXPECT_EQ(admitted, 16);
  EXPECT_EQ(rejected, 4);
}

TEST(CmServerTest, StartStreamUnknownObjectFails) {
  auto server = MakeServer(SmallConfig());
  EXPECT_EQ(server->StartStream(9).status().code(), StatusCode::kNotFound);
}

TEST(CmServerTest, ScaleAddMigratesOnline) {
  auto server = MakeServer(SmallConfig());
  ASSERT_TRUE(server->AddObject(1, 2000).ok());
  ASSERT_TRUE(server->ScaleAdd(2).ok());
  EXPECT_GT(server->migration().pending(), 0);
  EXPECT_EQ(server->policy().current_disks(), 6);
  int rounds = 0;
  while (!server->migration().idle()) {
    server->Tick();
    ASSERT_LT(++rounds, 10000);
  }
  EXPECT_TRUE(server->VerifyIntegrity().ok());
  // New disks now hold roughly 2/6 of all blocks.
  const int64_t on_new = server->store().CountOn(4) + server->store().CountOn(5);
  EXPECT_NEAR(static_cast<double>(on_new) / 2000.0, 2.0 / 6.0, 0.05);
}

TEST(CmServerTest, ScaleRemoveDrainsAndRetires) {
  auto server = MakeServer(SmallConfig());
  ASSERT_TRUE(server->AddObject(1, 2000).ok());
  ASSERT_TRUE(server->ScaleRemove({1}).ok());
  // Disk 1 is retiring: still live (it holds blocks) but not a placement
  // target.
  EXPECT_TRUE(server->disks().IsLive(1));
  EXPECT_EQ(server->policy().current_disks(), 3);
  int rounds = 0;
  while (!server->migration().idle()) {
    server->Tick();
    ASSERT_LT(++rounds, 10000);
  }
  server->Tick();  // One more round to run the retirement check.
  EXPECT_FALSE(server->disks().IsLive(1));
  EXPECT_EQ(server->store().CountOn(1), 0);
  EXPECT_TRUE(server->VerifyIntegrity().ok());
}

TEST(CmServerTest, ScaleRemoveValidatesSlots) {
  auto server = MakeServer(SmallConfig());
  EXPECT_FALSE(server->ScaleRemove({7}).ok());
  EXPECT_FALSE(server->ScaleRemove({0, 1, 2, 3}).ok());
  EXPECT_EQ(server->policy().current_disks(), 4);
}

TEST(CmServerTest, StreamsKeepPlayingDuringMigration) {
  ServerConfig config = SmallConfig();
  config.admission_utilization_cap = 0.4;
  auto server = MakeServer(config);
  ASSERT_TRUE(server->AddObject(1, 400).ok());
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(server->StartStream(1).ok());
  }
  ASSERT_TRUE(server->ScaleAdd(2).ok());
  int64_t served = 0;
  for (int round = 0; round < 200; ++round) {
    const RoundMetrics metrics = server->Tick();
    served += metrics.served;
  }
  EXPECT_GT(served, 1000);
  EXPECT_EQ(server->total_hiccups(), 0);  // Low load: no glitches.
}

TEST(CmServerTest, ToleranceGateUsesConfiguredBits) {
  ServerConfig config = SmallConfig();
  config.bits = 16;  // Tiny range: very few ops allowed.
  config.governor_eps = 0.05;
  auto server = MakeServer(config);
  const ScalingOp add = ScalingOp::Add(1).value();
  int supported = 0;
  while (!server->WouldExceedTolerance(add) && supported < 50) {
    ASSERT_TRUE(server->ScaleAdd(1).ok());
    ++supported;
  }
  EXPECT_GT(supported, 0);
  EXPECT_LT(supported, 10);  // b=16 with ~4-10 disks exhausts quickly.
}

TEST(CmServerTest, FullRedistributionRestartsPlacement) {
  auto server = MakeServer(SmallConfig());
  ASSERT_TRUE(server->AddObject(1, 1000).ok());
  ASSERT_TRUE(server->AddObject(2, 500).ok());
  ASSERT_TRUE(server->ScaleAdd(1).ok());
  ASSERT_TRUE(server->FullRedistribution().ok());
  EXPECT_EQ(server->policy().log().num_ops(), 0);  // Fresh epoch 0.
  EXPECT_EQ(server->policy().current_disks(), 5);
  EXPECT_EQ(server->catalog().GetObject(1)->seed_generation, 1);
  int rounds = 0;
  while (!server->migration().idle()) {
    server->Tick();
    ASSERT_LT(++rounds, 20000);
  }
  EXPECT_TRUE(server->VerifyIntegrity().ok());
}

TEST(CmServerTest, VerifyIntegrityReportsPendingMigration) {
  auto server = MakeServer(SmallConfig());
  ASSERT_TRUE(server->AddObject(1, 500).ok());
  ASSERT_TRUE(server->ScaleAdd(1).ok());
  EXPECT_EQ(server->VerifyIntegrity().code(),
            StatusCode::kFailedPrecondition);
}

TEST(CmServerTest, MetricsReportRoundState) {
  auto server = MakeServer(SmallConfig());
  ASSERT_TRUE(server->AddObject(1, 100).ok());
  ASSERT_TRUE(server->StartStream(1).ok());
  const RoundMetrics metrics = server->Tick();
  EXPECT_EQ(metrics.round, 0);
  EXPECT_EQ(metrics.active_streams, 1);
  EXPECT_EQ(metrics.requests, 1);
  EXPECT_EQ(metrics.served, 1);
  EXPECT_EQ(metrics.hiccups, 0);
  EXPECT_EQ(server->round(), 1);
}

TEST(CmServerTest, WorksWithEveryRegisteredPolicy) {
  for (const std::string_view name :
       {"scaddar", "naive", "mod", "directory", "jump", "chash"}) {
    ServerConfig config = SmallConfig();
    config.policy = std::string(name);
    auto server = MakeServer(config);
    ASSERT_TRUE(server->AddObject(1, 500).ok()) << name;
    ASSERT_TRUE(server->ScaleAdd(1).ok()) << name;
    int rounds = 0;
    while (!server->migration().idle() && rounds < 20000) {
      server->Tick();
      ++rounds;
    }
    EXPECT_TRUE(server->VerifyIntegrity().ok()) << name;
  }
}

// The server keeps its committed load, placement bandwidth and the disk
// array's budget template as running values; each must equal a recount
// from scratch. `streams()` must stay in ascending id order, which the VCR
// calls' binary search relies on.
void ExpectTotalsMatchRecount(const CmServer& server) {
  int64_t load = 0;
  for (const Stream& stream : server.streams()) {
    load += stream.rate();
  }
  EXPECT_EQ(server.ActiveLoad(), load);

  int64_t bandwidth = 0;
  for (const PhysicalDiskId id : server.policy().log().physical_disks()) {
    bandwidth +=
        server.disks().GetDisk(id).value()->spec().bandwidth_blocks_per_round;
  }
  EXPECT_EQ(server.PlacementBandwidth(), bandwidth);

  const std::vector<PhysicalDiskId> live = server.disks().live_ids();
  std::vector<int64_t> budgets(
      live.empty() ? 0 : static_cast<size_t>(live.back() + 1), kNotLive);
  for (const PhysicalDiskId id : live) {
    budgets[static_cast<size_t>(id)] =
        server.disks().GetDisk(id).value()->spec().bandwidth_blocks_per_round;
  }
  EXPECT_EQ(server.disks().BandwidthBudgets(), budgets);

  for (size_t i = 1; i < server.streams().size(); ++i) {
    EXPECT_LT(server.streams()[i - 1].id(), server.streams()[i].id());
  }
}

TEST(CmServerTest, RunningTotalsEqualRecomputation) {
  ServerConfig config = SmallConfig();
  config.initial_disks = 6;
  auto server = MakeServer(config);
  CheckpointManager manager;
  ASSERT_TRUE(server->EnableCheckpoints(&manager, /*every=*/16).ok());
  std::mt19937_64 rng(20241017);
  const auto pick = [&rng](size_t n) {
    return static_cast<size_t>(rng() % n);
  };
  ObjectId next_object = 1;
  // Rates 1-4: with every rate 1 a load is just a stream count, and a
  // recount over the wrong streams could still come out equal.
  const auto add_object = [&] {
    const int64_t rate = 1 + static_cast<int64_t>(pick(4));
    const int64_t blocks = 30 + static_cast<int64_t>(pick(90));
    ASSERT_TRUE(server->AddObject(next_object++, blocks, rate).ok());
  };
  for (int i = 0; i < 6; ++i) {
    add_object();
  }
  const auto random_object = [&] {
    const std::vector<ObjectId> ids = server->catalog().object_ids();
    return ids.empty() ? ObjectId{0} : ids[pick(ids.size())];
  };

  int64_t detached = 0;
  int64_t seeks_to_end = 0;
  int64_t unknown_ids = 0;
  for (int step = 0; step < 1500 && !HasFailure(); ++step) {
    const size_t op = pick(100);
    const std::vector<Stream>& streams = server->streams();
    if (op < 30) {
      (void)server->StartStream(random_object());
    } else if (op < 44 && !streams.empty()) {
      // VCR calls must hit exactly the stream they name.
      const Stream& target = streams[pick(streams.size())];
      const int64_t id = target.id();
      const size_t vcr = pick(3);
      if (vcr == 0) {
        ASSERT_TRUE(server->PauseStream(id).ok());
        EXPECT_TRUE(target.paused());
      } else if (vcr == 1) {
        ASSERT_TRUE(server->ResumeStream(id).ok());
        EXPECT_FALSE(target.paused());
      } else {
        const bool to_end = pick(4) == 0;
        const BlockIndex block =
            to_end ? target.num_blocks()
                   : static_cast<BlockIndex>(
                         pick(static_cast<size_t>(target.num_blocks())));
        ASSERT_TRUE(server->SeekStream(id, block).ok());
        EXPECT_EQ(target.next_block(), block);
        seeks_to_end += to_end ? 1 : 0;
      }
    } else if (op < 70) {
      server->Tick();
    } else if (op < 73) {
      ASSERT_TRUE(server->ScaleAdd(1 + static_cast<int64_t>(pick(2))).ok());
    } else if (op < 76) {
      const int64_t disks = server->policy().current_disks();
      if (disks > 3) {
        ASSERT_TRUE(server
                        ->ScaleRemove({static_cast<DiskSlot>(
                            pick(static_cast<size_t>(disks)))})
                        .ok());
      }
    } else if (op < 78) {
      ASSERT_TRUE(server->FullRedistribution().ok());
    } else if (op < 81) {
      (void)server->RemoveObject(random_object());  // Refused if streamed.
    } else if (op < 84) {
      add_object();
    } else if (op < 86) {
      ASSERT_TRUE(server->SimulateCrashRestart().ok());
    } else if (op < 88) {
      ASSERT_TRUE(server->KillRestartFromCheckpoint().ok());
    } else if (op < 92) {
      const ObjectId object = random_object();
      const int64_t before = server->ActiveStreamsFor(object);
      server->DetachStreamsFor(object);
      EXPECT_EQ(server->ActiveStreamsFor(object), 0);
      detached += before;
    } else {
      // Ids below, between and above the live ones (finished, detached or
      // never issued) are NotFound.
      const int64_t top = streams.empty() ? 0 : streams.back().id() + 2;
      const auto id = static_cast<int64_t>(pick(static_cast<size_t>(top + 1)));
      const bool live = std::any_of(
          streams.begin(), streams.end(),
          [id](const Stream& stream) { return stream.id() == id; });
      if (!live) {
        EXPECT_EQ(server->PauseStream(id).code(), StatusCode::kNotFound);
        EXPECT_EQ(server->SeekStream(id, 0).code(), StatusCode::kNotFound);
        ++unknown_ids;
      }
    }
    ExpectTotalsMatchRecount(*server);
  }
  // The walk must have exercised the paths whose bookkeeping it checks.
  EXPECT_GT(server->completed_streams(), 0);
  EXPECT_GT(detached, 0);
  EXPECT_GT(seeks_to_end, 0);
  EXPECT_GT(unknown_ids, 0);
}

}  // namespace
}  // namespace scaddar
