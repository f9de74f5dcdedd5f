// The cluster façade's equivalence oracle: a 1-shard ClusterServer is
// byte-identical to a bare CmServer fed the same call sequence — stream
// ids, per-round metrics, startup latencies, stream positions and the
// materialized store — through object ingest, disk scale-up/down and a full
// seeded traffic history. Plus the DSL-level face of the same contract and
// the N-shard conservation invariants under traffic.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "cluster/cluster_server.h"
#include "server/scenario.h"
#include "server/server.h"
#include "server/workload/traffic_engine.h"

namespace scaddar {
namespace {

ServerConfig SmallServer() {
  ServerConfig config;
  config.initial_disks = 4;
  config.disk_spec = {.capacity_blocks = 100'000,
                      .bandwidth_blocks_per_round = 8};
  return config;
}

TrafficConfig BusyTraffic() {
  TrafficConfig config;
  config.arrivals_per_round = 3.0;
  config.zipf_theta = 0.729;
  config.pause_probability = 0.02;
  config.resume_probability = 0.3;
  config.seek_probability = 0.02;
  config.flash_crowds.push_back(
      FlashCrowd{.start_round = 20, .duration = 10, .rank = 0, .boost = 4});
  return config;
}

void ExpectSameMetrics(const RoundMetrics& bare,
                       const ClusterRoundMetrics& cluster) {
  EXPECT_EQ(bare.round, cluster.round);
  EXPECT_EQ(bare.active_streams, cluster.active_streams);
  EXPECT_EQ(bare.requests, cluster.requests);
  EXPECT_EQ(bare.served, cluster.served);
  EXPECT_EQ(bare.hiccups, cluster.hiccups);
  EXPECT_EQ(bare.migrated, cluster.migrated);
  EXPECT_EQ(bare.pending_migration, cluster.pending_migration);
  EXPECT_EQ(bare.retiring_disks, cluster.retiring_disks);
  EXPECT_EQ(cluster.cross_shard_blocks, 0);
  EXPECT_EQ(cluster.pending_transfers, 0);
}

void ExpectSameStreams(const CmServer& bare, const CmServer& shard) {
  ASSERT_EQ(bare.streams().size(), shard.streams().size());
  for (size_t i = 0; i < bare.streams().size(); ++i) {
    const Stream& a = bare.streams()[i];
    const Stream& b = shard.streams()[i];
    EXPECT_EQ(a.id(), b.id());
    EXPECT_EQ(a.object(), b.object());
    EXPECT_EQ(a.next_block(), b.next_block());
    EXPECT_EQ(a.paused(), b.paused());
    EXPECT_EQ(a.hiccups(), b.hiccups());
  }
}

TEST(ClusterEquivalenceTest, OneShardClusterIsByteIdenticalToBareServer) {
  auto bare = CmServer::Create(SmallServer()).value();
  ClusterConfig cluster_config;
  cluster_config.shard = SmallServer();
  cluster_config.initial_shards = 1;
  auto cluster = ClusterServer::Create(cluster_config).value();

  for (ObjectId id = 1; id <= 12; ++id) {
    ASSERT_TRUE(bare->AddObject(id, 300).ok());
    ASSERT_TRUE(cluster->AddObject(id, 300).ok());
  }
  // Stream ids must match call for call (member 0 owns the bare id range).
  for (ObjectId id = 1; id <= 12; id += 3) {
    const auto bare_id = bare->StartStream(id);
    const auto cluster_id = cluster->StartStream(id);
    ASSERT_TRUE(bare_id.ok());
    ASSERT_TRUE(cluster_id.ok());
    EXPECT_EQ(bare_id.value(), cluster_id.value());
  }

  // Twin seeded engines over identically-evolving servers emit identical
  // traces; interleave disk scaling mid-history.
  TrafficEngine bare_traffic(BusyTraffic());
  TrafficEngine cluster_traffic(BusyTraffic());
  std::vector<ObjectId> objects;
  for (ObjectId id = 1; id <= 12; ++id) {
    objects.push_back(id);
  }
  bare_traffic.SetObjects(objects);
  cluster_traffic.SetObjects(objects);

  for (int round = 0; round < 120; ++round) {
    if (round == 30) {
      ASSERT_TRUE(bare->ScaleAdd(2).ok());
      ASSERT_TRUE(cluster->ScaleAddDisks(0, 2).ok());
    }
    if (round == 70) {
      ASSERT_TRUE(bare->ScaleRemove({0, 1}).ok());
      ASSERT_TRUE(cluster->ScaleRemoveDisks(0, {0, 1}).ok());
    }
    const RoundMetrics bare_metrics = bare_traffic.DriveRound(*bare);
    const ClusterRoundMetrics cluster_metrics =
        cluster_traffic.DriveRound(*cluster);
    ExpectSameMetrics(bare_metrics, cluster_metrics);
  }

  EXPECT_EQ(bare_traffic.rejected_arrivals(),
            cluster_traffic.rejected_arrivals());
  EXPECT_EQ(bare->total_served(), cluster->total_served());
  EXPECT_EQ(bare->total_hiccups(), cluster->total_hiccups());
  EXPECT_EQ(bare->completed_streams(), cluster->completed_streams());
  EXPECT_EQ(bare->startup_latencies(), cluster->StartupLatencies());
  ExpectSameStreams(*bare, *cluster->shard(0));

  // Byte-identical materialized placement: every object's blocks sit on the
  // same disks in both stores.
  int64_t guard = 0;
  while (!bare->migration().idle() || !cluster->MigrationIdle()) {
    bare->Tick();
    cluster->Tick();
    ASSERT_LT(++guard, 100'000);
  }
  ASSERT_TRUE(bare->VerifyIntegrity().ok());
  ASSERT_TRUE(cluster->VerifyIntegrity().ok());
  const BlockStore& bare_store = bare->store();
  const BlockStore& shard_store = cluster->shard(0)->store();
  for (ObjectId id = 1; id <= 12; ++id) {
    for (BlockIndex block = 0; block < 300; ++block) {
      const auto bare_disk = bare_store.LocationOf(BlockRef{id, block});
      const auto shard_disk = shard_store.LocationOf(BlockRef{id, block});
      ASSERT_TRUE(bare_disk.ok());
      ASSERT_TRUE(shard_disk.ok());
      EXPECT_EQ(bare_disk.value(), shard_disk.value());
    }
  }
}

TEST(ClusterEquivalenceTest, DslRunsIdenticallyThroughBothInterpreters) {
  // Same script body; only the disk-scaling command differs in spelling
  // (`scale add` vs `scaledisks 0 add`).
  const std::string common_head =
      "addobject 1 300\n"
      "addobject 2 300\n"
      "addobject 3 300\n"
      "stream 1\n"
      "stream 2\n"
      "traffic seed 42\n"
      "traffic arrivals 2.5\n"
      "traffic vcr 0.05 0.4 0.05\n"
      "ticktraffic 40\n";
  const std::string common_tail =
      "ticktraffic 40\n"
      "drain\n"
      "verify\n";
  const std::string bare_script = common_head + "scale add 2\n" + common_tail;
  const std::string cluster_script =
      common_head + "scaledisks 0 add 2\n" + common_tail;

  auto bare = CmServer::Create(SmallServer()).value();
  ClusterConfig cluster_config;
  cluster_config.shard = SmallServer();
  cluster_config.initial_shards = 1;
  auto cluster = ClusterServer::Create(cluster_config).value();

  const auto bare_result = RunScenario(*bare, bare_script);
  const auto cluster_result = RunScenario(*cluster, cluster_script);
  ASSERT_TRUE(bare_result.ok()) << bare_result.status().ToString();
  ASSERT_TRUE(cluster_result.ok()) << cluster_result.status().ToString();

  EXPECT_EQ(bare_result.value().lines_executed,
            cluster_result.value().lines_executed);
  EXPECT_EQ(bare_result.value().rounds, cluster_result.value().rounds);
  EXPECT_EQ(bare_result.value().served, cluster_result.value().served);
  EXPECT_EQ(bare_result.value().hiccups, cluster_result.value().hiccups);
  EXPECT_EQ(bare_result.value().migrated, cluster_result.value().migrated);
  EXPECT_EQ(bare_result.value().streams_started,
            cluster_result.value().streams_started);
  EXPECT_EQ(bare_result.value().streams_rejected,
            cluster_result.value().streams_rejected);
  EXPECT_EQ(bare_result.value().startup_p50,
            cluster_result.value().startup_p50);
  EXPECT_EQ(bare_result.value().startup_p99,
            cluster_result.value().startup_p99);
  EXPECT_EQ(bare_result.value().startup_p999,
            cluster_result.value().startup_p999);
}

TEST(ClusterEquivalenceTest, ScaleUpAndDownUnderTrafficConservesSessions) {
  ClusterConfig config;
  config.shard = SmallServer();
  config.initial_shards = 2;
  config.cross_shard_budget = 64;
  auto cluster = ClusterServer::Create(config).value();
  for (ObjectId id = 1; id <= 24; ++id) {
    ASSERT_TRUE(cluster->AddObject(id, 300).ok());
  }
  TrafficEngine traffic(BusyTraffic());
  traffic.SetObjects(cluster->objects());

  int added_member = -1;
  for (int round = 0; round < 160; ++round) {
    if (round == 30) {
      const auto member = cluster->AddServerShard();
      ASSERT_TRUE(member.ok());
      added_member = member.value();
    }
    if (round == 90) {
      ASSERT_TRUE(cluster->RemoveServerShard(added_member).ok());
    }
    traffic.DriveRound(*cluster);
  }
  int64_t guard = 0;
  while (!cluster->MigrationIdle()) {
    cluster->Tick();
    ASSERT_LT(++guard, 100'000);
  }
  EXPECT_EQ(cluster->shard(added_member), nullptr);
  EXPECT_EQ(cluster->num_shards(), 2);
  EXPECT_TRUE(cluster->VerifyIntegrity().ok());

  // Conservation: the catalog survives the scale-up/down cycle intact.
  // (This workload deliberately saturates admission, so some handed-off
  // sessions may be rejected at their destination — that is the documented
  // drop-of-last-resort, not a leak.)
  int64_t catalog_across = 0;
  for (const int member : cluster->members()) {
    catalog_across += cluster->shard(member)->catalog().num_objects();
  }
  EXPECT_EQ(catalog_across, 24);
  EXPECT_GT(cluster->total_served(), 0);
}

}  // namespace
}  // namespace scaddar
