#include "server/scenario.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <string_view>

#include "cluster/cluster_server.h"
#include "storage/block_io.h"

namespace scaddar {
namespace {

ServerConfig SmallConfig() {
  ServerConfig config;
  config.initial_disks = 4;
  config.master_seed = 555;
  return config;
}

std::unique_ptr<CmServer> MakeServer() {
  return std::move(CmServer::Create(SmallConfig())).value();
}

std::unique_ptr<ClusterServer> MakeCluster(int shards) {
  ClusterConfig config;
  config.shard = SmallConfig();
  config.initial_shards = shards;
  return std::move(ClusterServer::Create(config)).value();
}

/// The script failed with InvalidArgument and a message starting `prefix`
/// ("line N: ...").
void ExpectLineError(const StatusOr<ScenarioResult>& result,
                     std::string_view prefix) {
  ASSERT_FALSE(result.ok()) << "expected " << prefix;
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(result.status().message().starts_with(prefix))
      << result.status().message() << " does not start with " << prefix;
}

TEST(ScenarioTest, EndToEndScript) {
  auto server = MakeServer();
  const StatusOr<ScenarioResult> result = RunScenario(*server, R"(
# A full lifecycle.
addobject 1 200
addobject 2 100 2
stream 1
tick 50
scale add 2
drain
verify
stream 2
tick 110
removeobject 2
)");
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->streams_started, 2);
  EXPECT_GT(result->served, 0);
  EXPECT_GT(result->migrated, 0);
  EXPECT_EQ(server->policy().current_disks(), 6);
}

TEST(ScenarioTest, CommentsAndBlanksIgnored) {
  auto server = MakeServer();
  const StatusOr<ScenarioResult> result = RunScenario(*server, R"(
# comment only

addobject 1 10   # trailing comment
)");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->lines_executed, 1);
}

TEST(ScenarioTest, ErrorsNameTheLine) {
  auto server = MakeServer();
  const StatusOr<ScenarioResult> result = RunScenario(*server, R"(
addobject 1 10
bogus command
)");
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("line 3"), std::string::npos);

  // Malformed arguments name their line too, on both targets.
  ExpectLineError(RunScenario(*MakeServer(), "addobject 1 10\n"
                                             "addobject one 10\n"),
                  "line 2: malformed integer");
  ExpectLineError(RunScenario(*MakeServer(), "governor 12 abc\n"),
                  "line 1: malformed number");
  ExpectLineError(RunScenario(*MakeServer(), "\nscale remove 1,,2\n"),
                  "line 2: malformed integer");
  ExpectLineError(RunScenario(*MakeServer(), "checkpoint x\n"),
                  "line 1: malformed integer");
  ExpectLineError(RunScenario(*MakeServer(), "traffic zipf steep\n"),
                  "line 1: malformed number");
  ExpectLineError(RunScenario(*MakeCluster(1), "addobject one 10\n"),
                  "line 1: malformed integer");
  ExpectLineError(RunScenario(*MakeCluster(1), "addobject 1 10\n"
                                               "scaledisks 0 add x\n"),
                  "line 2: malformed integer");
  ExpectLineError(RunScenario(*MakeCluster(1), "seek 0 x\n"),
                  "line 1: malformed integer");
}

TEST(ScenarioTest, CommandsATargetLacksFailOnTheirLine) {
  for (const std::string command :
       {"scale add 1", "scale remove 0", "rebase", "backend mem", "crash",
        "checkpoint 5", "killrestart"}) {
    auto cluster = MakeCluster(1);
    ExpectLineError(
        RunScenario(*cluster,
                    "addobject 1 10\n" + command + "\naddobject 2 10\n"),
        "line 2: " + command.substr(0, command.find(' ')) +
            " is not available on a cluster");
    EXPECT_EQ(cluster->num_objects(), 1) << command;
  }
  for (const std::string command :
       {"addshard", "removeshard 0", "scaledisks 0 add 1",
        "scaledisks 0 remove 0"}) {
    auto server = MakeServer();
    ExpectLineError(
        RunScenario(*server,
                    "addobject 1 10\n" + command + "\naddobject 2 10\n"),
        "line 2: " + command.substr(0, command.find(' ')) +
            " is not available on a bare server");
    EXPECT_FALSE(server->catalog().Contains(2)) << command;
  }
}

TEST(ScenarioTest, ClusterDiskScalingAndUnknownShards) {
  auto cluster = MakeCluster(2);
  const StatusOr<ScenarioResult> result = RunScenario(*cluster, R"(
addobject 1 200
addobject 2 200
addobject 3 200
addobject 4 200
stream 1
scaledisks 1 add 2
drain
scaledisks 1 remove 0,3
tick 5
drain
verify
)");
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(cluster->shard(0)->disks().num_live(), 4);
  EXPECT_EQ(cluster->shard(1)->disks().num_live(), 4);
  EXPECT_EQ(cluster->shard(1)->policy().current_disks(), 4);
  EXPECT_GT(result->migrated, 0);

  // Unknown members fail their line and change nothing.
  ExpectLineError(RunScenario(*cluster, "removeshard 7\n"), "line 1: ");
  ExpectLineError(RunScenario(*cluster, "scaledisks 7 add 1\n"), "line 1: ");
  ExpectLineError(RunScenario(*cluster, "scaledisks 7 remove 0\n"),
                  "line 1: ");
  // A member id that wraps to a small int must not name another shard.
  ExpectLineError(RunScenario(*cluster, "removeshard 4294967296\n"),
                  "line 1: shard member out of range");
  EXPECT_EQ(cluster->num_shards(), 2);
  EXPECT_TRUE(cluster->MigrationIdle());
}

TEST(ScenarioTest, FailingCommandStopsExecution) {
  auto server = MakeServer();
  const StatusOr<ScenarioResult> result = RunScenario(*server, R"(
addobject 1 10
addobject 1 10
addobject 2 10
)");
  ASSERT_FALSE(result.ok());
  EXPECT_FALSE(server->catalog().Contains(2));
}

TEST(ScenarioTest, StreamRejectionIsCountedNotFatal) {
  ServerConfig config;
  config.initial_disks = 1;
  config.disk_spec.bandwidth_blocks_per_round = 2;
  config.admission_utilization_cap = 1.0;
  config.master_seed = 9;
  auto server = std::move(CmServer::Create(config)).value();
  const StatusOr<ScenarioResult> result = RunScenario(*server, R"(
addobject 1 50
stream 1
stream 1
stream 1
)");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->streams_started, 2);
  EXPECT_EQ(result->streams_rejected, 1);
}

TEST(ScenarioTest, VcrCommands) {
  auto server = MakeServer();
  const StatusOr<ScenarioResult> result = RunScenario(*server, R"(
addobject 1 100
stream 1
tick 5
pause 0
tick 5
resume 0
seek 0 90
tick 15
)");
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(server->completed_streams(), 1);
}

TEST(ScenarioTest, RebaseCommand) {
  auto server = MakeServer();
  const StatusOr<ScenarioResult> result = RunScenario(*server, R"(
addobject 1 300
scale add 1
drain
rebase
drain
verify
)");
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(server->catalog().GetObject(1)->seed_generation, 1);
}

TEST(ScenarioTest, MalformedArgumentsRejected) {
  auto server = MakeServer();
  EXPECT_FALSE(RunScenario(*server, "addobject one 10\n").ok());
  EXPECT_FALSE(RunScenario(*server, "tick -3\n").ok());
  EXPECT_FALSE(RunScenario(*server, "scale sideways 2\n").ok());
  EXPECT_FALSE(RunScenario(*server, "scale remove 1,,2\n").ok());
}

TEST(ScenarioTest, GovernorDeclarationDrivesAutoReorg) {
  auto server = MakeServer();
  const StatusOr<ScenarioResult> result = RunScenario(*server, R"(
governor 12 0.05
autoreorg on
addobject 1 300
stream 1
scale add 2
tick 5
scale add 2
tick 5
scale add 2
tick 5
scale add 2
drain
verify
)");
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_GT(result->auto_reorg_triggers, 0);
  EXPECT_EQ(server->reorg_driver().governor().bits(), 12);
  EXPECT_TRUE(server->reorg_driver().enabled());
}

TEST(ScenarioTest, GovernorRejectsMalformedDeclarations) {
  auto server = MakeServer();
  // Wrong arity falls out of the command match entirely.
  EXPECT_FALSE(RunScenario(*server, "governor\n").ok());
  EXPECT_FALSE(RunScenario(*server, "governor 12\n").ok());
  EXPECT_FALSE(RunScenario(*server, "governor 12 0.05 0.2 7\n").ok());
  // Unparseable and out-of-range arguments.
  EXPECT_FALSE(RunScenario(*server, "governor twelve 0.05\n").ok());
  EXPECT_FALSE(RunScenario(*server, "governor 0 0.05\n").ok());
  EXPECT_FALSE(RunScenario(*server, "governor 65 0.05\n").ok());
  // An int64 that wraps to a small int must not sneak past validation.
  EXPECT_FALSE(RunScenario(*server, "governor 4294967301 0.05\n").ok());
  // eps must be a finite positive number (from_chars accepts nan/inf).
  EXPECT_FALSE(RunScenario(*server, "governor 12 0\n").ok());
  EXPECT_FALSE(RunScenario(*server, "governor 12 -0.5\n").ok());
  EXPECT_FALSE(RunScenario(*server, "governor 12 nan\n").ok());
  EXPECT_FALSE(RunScenario(*server, "governor 12 inf\n").ok());
  EXPECT_FALSE(RunScenario(*server, "governor 12 0.05 nan\n").ok());
  EXPECT_FALSE(RunScenario(*server, "governor 12 0.05 -1\n").ok());
  // None of the rejected declarations reconfigured the server.
  EXPECT_EQ(server->config().governor_bits, 0);
  // One declaration per scenario: the duplicate errors after the first
  // line already configured, so probe it on a fresh server.
  auto fresh = MakeServer();
  EXPECT_FALSE(
      RunScenario(*fresh, "governor 12 0.05\ngovernor 14 0.1\n").ok());
  EXPECT_EQ(fresh->config().governor_bits, 12);
  EXPECT_FALSE(RunScenario(*server, "autoreorg maybe\n").ok());
  EXPECT_FALSE(RunScenario(*server, "autoreorg\n").ok());
}

TEST(ScenarioTest, AutoReorgTogglesWithoutGovernor) {
  auto server = MakeServer();
  const StatusOr<ScenarioResult> result = RunScenario(*server, R"(
addobject 1 50
autoreorg on
tick 3
autoreorg off
tick 3
)");
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->auto_reorg_triggers, 0);
  EXPECT_FALSE(server->reorg_driver().enabled());
}

TEST(ScenarioTest, BackendCommand) {
  auto server = MakeServer();
  std::string dir = ::testing::TempDir() + "scaddar_scn_XXXXXX";
  ASSERT_NE(::mkdtemp(dir.data()), nullptr);
  const StatusOr<ScenarioResult> result =
      RunScenario(*server, "backend file:" + dir + " 8\n"
                           "addobject 1 50\n"
                           "stream 1\n"
                           "tick 60\n"
                           "verify\n");
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_NE(server->io_engine(), nullptr);
  EXPECT_EQ(server->io_engine()->backend().queue_depth(), 8);
  EXPECT_GT(server->io_engine()->stats().serve_reads, 0);
  // Selecting a backend is only legal on an empty store, and an unknown
  // spec is a line error.
  EXPECT_FALSE(RunScenario(*server, "backend mem\n").ok());
  auto fresh = MakeServer();
  EXPECT_FALSE(RunScenario(*fresh, "backend nvme:/dev/nvme0\n").ok());
}

}  // namespace
}  // namespace scaddar
