#include <gtest/gtest.h>

#include "cluster/cluster_server.h"
#include "recovery/checkpoint_manager.h"
#include "recovery/snapshot.h"
#include "server/server.h"

namespace scaddar {
namespace {

std::unique_ptr<CmServer> MakeServer() {
  ServerConfig config;
  config.initial_disks = 4;
  config.master_seed = 77;
  return std::move(CmServer::Create(config)).value();
}

TEST(StreamVcrTest, SeekClampsToObjectRange) {
  Stream stream(0, 1, 10, 0);
  stream.SeekTo(5);
  EXPECT_EQ(stream.next_block(), 5);
  stream.SeekTo(-3);
  EXPECT_EQ(stream.next_block(), 0);
  stream.SeekTo(99);
  EXPECT_EQ(stream.next_block(), 10);
  EXPECT_TRUE(stream.finished());
}

TEST(StreamVcrTest, PauseResume) {
  Stream stream(0, 1, 10, 0);
  EXPECT_FALSE(stream.paused());
  stream.Pause();
  EXPECT_TRUE(stream.paused());
  stream.Resume();
  EXPECT_FALSE(stream.paused());
}

TEST(ServerVcrTest, PausedStreamConsumesNothing) {
  auto server = MakeServer();
  ASSERT_TRUE(server->AddObject(1, 100).ok());
  const int64_t id = *server->StartStream(1);
  server->Tick();
  ASSERT_TRUE(server->PauseStream(id).ok());
  const RoundMetrics paused_round = server->Tick();
  EXPECT_EQ(paused_round.requests, 0);
  EXPECT_EQ(paused_round.served, 0);
  EXPECT_EQ(server->streams()[0].next_block(), 1);  // Frozen.
  ASSERT_TRUE(server->ResumeStream(id).ok());
  const RoundMetrics resumed_round = server->Tick();
  EXPECT_EQ(resumed_round.served, 1);
  EXPECT_EQ(server->streams()[0].next_block(), 2);
}

TEST(ServerVcrTest, StartupLatencyWaitsForFirstDeliveredBlock) {
  // Paused and seeked before its first block, the stream has received
  // nothing: its startup sample is taken when a block is delivered.
  auto server = MakeServer();
  ASSERT_TRUE(server->AddObject(1, 100).ok());
  const int64_t id = *server->StartStream(1);
  ASSERT_TRUE(server->PauseStream(id).ok());
  ASSERT_TRUE(server->SeekStream(id, 10).ok());
  for (int round = 0; round < 5; ++round) {
    EXPECT_EQ(server->Tick().served, 0);
  }
  EXPECT_TRUE(server->startup_latencies().empty());
  ASSERT_TRUE(server->ResumeStream(id).ok());
  EXPECT_EQ(server->Tick().served, 1);
  EXPECT_EQ(server->startup_latencies(), std::vector<int64_t>{5});
}

TEST(ServerVcrTest, SeekJumpsPlayback) {
  auto server = MakeServer();
  ASSERT_TRUE(server->AddObject(1, 100).ok());
  const int64_t id = *server->StartStream(1);
  for (int round = 0; round < 10; ++round) {
    server->Tick();
  }
  EXPECT_EQ(server->streams()[0].next_block(), 10);
  ASSERT_TRUE(server->SeekStream(id, 90).ok());  // Fast-forward.
  for (int round = 0; round < 10; ++round) {
    server->Tick();
  }
  // 90..99 played, stream finished and was reaped.
  EXPECT_EQ(server->completed_streams(), 1);
  EXPECT_EQ(server->active_streams(), 0);
  EXPECT_EQ(server->total_hiccups(), 0);
}

TEST(ServerVcrTest, RewindReplaysBlocks) {
  auto server = MakeServer();
  ASSERT_TRUE(server->AddObject(1, 50).ok());
  const int64_t id = *server->StartStream(1);
  for (int round = 0; round < 20; ++round) {
    server->Tick();
  }
  ASSERT_TRUE(server->SeekStream(id, 0).ok());  // Rewind to the start.
  EXPECT_EQ(server->streams()[0].next_block(), 0);
  server->Tick();
  EXPECT_EQ(server->streams()[0].next_block(), 1);
}

TEST(ServerVcrTest, SeekToEndFinishesStream) {
  auto server = MakeServer();
  ASSERT_TRUE(server->AddObject(1, 30).ok());
  const int64_t id = *server->StartStream(1);
  ASSERT_TRUE(server->SeekStream(id, 30).ok());
  server->Tick();
  EXPECT_EQ(server->completed_streams(), 1);
  EXPECT_EQ(server->active_streams(), 0);
}

TEST(ServerVcrTest, ControlsRequireActiveStream) {
  auto server = MakeServer();
  ASSERT_TRUE(server->AddObject(1, 10).ok());
  EXPECT_EQ(server->PauseStream(9).code(), StatusCode::kNotFound);
  EXPECT_EQ(server->ResumeStream(9).code(), StatusCode::kNotFound);
  EXPECT_EQ(server->SeekStream(9, 0).code(), StatusCode::kNotFound);
}

TEST(ServerVcrTest, VcrDuringOnlineScaling) {
  auto server = MakeServer();
  ASSERT_TRUE(server->AddObject(1, 200).ok());
  const int64_t id = *server->StartStream(1);
  ASSERT_TRUE(server->ScaleAdd(2).ok());
  ASSERT_TRUE(server->SeekStream(id, 150).ok());
  int rounds = 0;
  while (!server->migration().idle()) {
    server->Tick();
    ASSERT_LT(++rounds, 10000);
  }
  for (int round = 0; round < 60; ++round) {
    server->Tick();
  }
  EXPECT_EQ(server->completed_streams(), 1);
  EXPECT_EQ(server->total_hiccups(), 0);
  EXPECT_TRUE(server->VerifyIntegrity().ok());
}

// The VCR calls find a stream by binary search over `streams()`, so the
// vector must stay in ascending id order wherever streams arrive: end-of-
// round compaction, a cluster handoff (the destination re-admits each
// session under a fresh id) and a checkpoint kill-restart (streams reload
// in captured order). Every stream must then answer VCR calls by its id.
void ExpectOrderedAndControllable(CmServer& server) {
  const std::vector<Stream>& streams = server.streams();
  for (size_t i = 1; i < streams.size(); ++i) {
    EXPECT_LT(streams[i - 1].id(), streams[i].id());
  }
  for (const Stream& stream : streams) {
    const bool was_paused = stream.paused();
    ASSERT_TRUE(server.PauseStream(stream.id()).ok());
    EXPECT_TRUE(stream.paused());
    if (!was_paused) {
      ASSERT_TRUE(server.ResumeStream(stream.id()).ok());
      EXPECT_FALSE(stream.paused());
    }
  }
}

TEST(ServerVcrTest, StreamOrderSurvivesClusterHandoff) {
  ClusterConfig config;
  config.shard.initial_disks = 4;
  config.shard.disk_spec = {.capacity_blocks = 100'000,
                            .bandwidth_blocks_per_round = 8};
  config.initial_shards = 2;
  auto cluster = ClusterServer::Create(config).value();
  for (ObjectId id = 1; id <= 20; ++id) {
    ASSERT_TRUE(cluster->AddObject(id, 240, 1 + id % 2).ok());
  }
  // Sessions start over several rounds so handoffs interleave with
  // streams admitted at different times.
  for (int round = 0; round < 4; ++round) {
    for (ObjectId id = 1 + round; id <= 20; id += 4) {
      const auto stream = cluster->StartStream(id);
      ASSERT_TRUE(stream.ok());
      if (id % 3 == 0) {
        ASSERT_TRUE(cluster->PauseStream(stream.value()).ok());
      }
    }
    cluster->Tick();
  }
  const auto member = cluster->AddServerShard();
  ASSERT_TRUE(member.ok());
  int64_t guard = 0;
  while (!cluster->MigrationIdle()) {
    cluster->Tick();
    ASSERT_LT(++guard, 100'000);
  }
  ASSERT_EQ(cluster->handoff_rejects(), 0);
  ASSERT_FALSE(cluster->shard(member.value())->streams().empty());
  for (const int shard : cluster->members()) {
    ExpectOrderedAndControllable(*cluster->shard(shard));
  }
}

TEST(ServerVcrTest, StreamOrderSurvivesKillRestart) {
  auto server = MakeServer();
  CheckpointManager manager;
  ASSERT_TRUE(server->EnableCheckpoints(&manager, /*every=*/4).ok());
  for (ObjectId id = 1; id <= 6; ++id) {
    ASSERT_TRUE(server->AddObject(id, 10 * id, 1 + id % 2).ok());
  }
  for (int round = 0; round < 10; ++round) {
    const auto stream = server->StartStream(1 + round % 6);
    ASSERT_TRUE(stream.ok());
    if (round % 3 == 1) {
      ASSERT_TRUE(server->PauseStream(stream.value()).ok());
    }
    server->Tick();
  }
  ASSERT_GT(server->completed_streams(), 0);  // Compaction ran.
  ASSERT_TRUE(server->KillRestartFromCheckpoint().ok());
  ASSERT_GT(server->active_streams(), 1);
  ExpectOrderedAndControllable(*server);
  int64_t load = 0;
  for (const Stream& stream : server->streams()) {
    load += stream.rate();
  }
  EXPECT_EQ(server->ActiveLoad(), load);
}

TEST(ServerVcrTest, RestoreRejectsStreamsOutOfIdOrder) {
  auto server = MakeServer();
  ASSERT_TRUE(server->AddObject(1, 50).ok());
  ASSERT_TRUE(server->StartStream(1).ok());
  ASSERT_TRUE(server->StartStream(1).ok());
  ServerSnapshot snapshot = server->CaptureState();
  ASSERT_TRUE(
      CmServer::FromSnapshotDocument(server->config(),
                                     EncodeServerSnapshot(snapshot))
          .ok());
  std::swap(snapshot.streams[0], snapshot.streams[1]);
  EXPECT_EQ(CmServer::FromSnapshotDocument(server->config(),
                                           EncodeServerSnapshot(snapshot))
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace scaddar
