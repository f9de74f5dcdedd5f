// scenario_runner — executes a scenario script against a fresh CM server.
// Scripts make experiments repeatable and reviewable: the same file drives
// tests, demos and capacity studies.
//
//   ./build/examples/scenario_runner path/to/script.scn
//   ./build/examples/scenario_runner            # runs the built-in demo
//
// `--cluster[=N]` runs the script against an N-server-shard ClusterServer
// (default 2) instead. The one interpreter serves both targets; a cluster
// accepts `addshard`, `removeshard` and `scaledisks` in place of the
// bare-server-only commands. With N=1 the summary is identical to the bare
// run for any script of the commands both accept — the cluster equivalence
// contract.
//
// See src/server/scenario.h for the command reference, which marks the
// commands only one target accepts.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>

#include "cluster/cluster_server.h"
#include "server/scenario.h"

namespace {

constexpr const char* kDemoScript = R"(# Built-in demo: grow, churn, rebase.
addobject 1 2000
addobject 2 1000 2
stream 1
stream 2
tick 100
scale add 2          # grow the array online
tick 200
scale remove 1       # retire a disk online
drain
verify
rebase               # fresh seeds, empty op log
drain
verify
)";

void PrintSummary(const scaddar::ScenarioResult& result) {
  std::printf("\nscenario complete:\n");
  std::printf("  commands executed : %lld\n",
              static_cast<long long>(result.lines_executed));
  std::printf("  rounds simulated  : %lld\n",
              static_cast<long long>(result.rounds));
  std::printf("  streams started   : %lld (rejected %lld)\n",
              static_cast<long long>(result.streams_started),
              static_cast<long long>(result.streams_rejected));
  std::printf("  blocks served     : %lld (hiccups %lld)\n",
              static_cast<long long>(result.served),
              static_cast<long long>(result.hiccups));
  std::printf("  blocks migrated   : %lld\n",
              static_cast<long long>(result.migrated));
  std::printf("  startup p50/p99/p999 : %lld/%lld/%lld rounds\n",
              static_cast<long long>(result.startup_p50),
              static_cast<long long>(result.startup_p99),
              static_cast<long long>(result.startup_p999));
  if (result.auto_reorg_triggers > 0) {
    std::printf("  auto reorgs       : %lld\n",
                static_cast<long long>(result.auto_reorg_triggers));
  }
  if (result.crashes > 0) {
    std::printf("  crashes survived  : %lld\n",
                static_cast<long long>(result.crashes));
  }
  if (result.kill_restarts > 0) {
    std::printf("  checkpoint restarts : %lld\n",
                static_cast<long long>(result.kill_restarts));
  }
}

}  // namespace

int main(int argc, char** argv) {
  int cluster_shards = 0;
  const char* path = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--cluster") == 0) {
      cluster_shards = 2;
    } else if (std::strncmp(argv[i], "--cluster=", 10) == 0) {
      cluster_shards = std::atoi(argv[i] + 10);
      if (cluster_shards < 1) {
        std::fprintf(stderr, "bad cluster shard count in %s\n", argv[i]);
        return 1;
      }
    } else {
      path = argv[i];
    }
  }
  std::string script;
  if (path != nullptr) {
    std::ifstream file(path);
    if (!file) {
      std::fprintf(stderr, "cannot open %s\n", path);
      return 1;
    }
    std::ostringstream buffer;
    buffer << file.rdbuf();
    script = buffer.str();
    std::printf("running scenario %s\n", path);
  } else {
    script = kDemoScript;
    std::printf("running the built-in demo scenario:\n%s\n", kDemoScript);
  }

  scaddar::ServerConfig config;
  config.initial_disks = 8;
  config.master_seed = 0x5ce11ull;
  // Journaled migration so scripts may use the `crash` command.
  config.journal_migration = true;

  if (cluster_shards > 0) {
    scaddar::ClusterConfig cluster_config;
    cluster_config.shard = config;
    cluster_config.shard.journal_migration = false;  // No `crash` command.
    cluster_config.initial_shards = cluster_shards;
    std::printf("cluster mode: %d server shards\n", cluster_shards);
    auto cluster =
        std::move(scaddar::ClusterServer::Create(cluster_config)).value();
    const scaddar::StatusOr<scaddar::ScenarioResult> result =
        scaddar::RunScenario(*cluster, script);
    if (!result.ok()) {
      std::fprintf(stderr, "scenario failed: %s\n",
                   result.status().ToString().c_str());
      return 1;
    }
    PrintSummary(result.value());
    std::printf("  final shards      : %d (", cluster->num_shards());
    bool first = true;
    for (const int member : cluster->members()) {
      std::printf("%s%d:%lld disks", first ? "" : ", ", member,
                  static_cast<long long>(
                      cluster->shard(member)->disks().num_live()));
      first = false;
    }
    std::printf(")\n");
    return 0;
  }

  auto server = std::move(scaddar::CmServer::Create(config)).value();
  const scaddar::StatusOr<scaddar::ScenarioResult> result =
      scaddar::RunScenario(*server, script);
  if (!result.ok()) {
    std::fprintf(stderr, "scenario failed: %s\n",
                 result.status().ToString().c_str());
    return 1;
  }
  PrintSummary(result.value());
  std::printf("  final disks       : %lld, op log \"%s\"\n",
              static_cast<long long>(server->policy().current_disks()),
              server->policy().log().Serialize().c_str());
  return 0;
}
