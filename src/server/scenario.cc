#include "server/scenario.h"

#include <charconv>
#include <climits>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "cluster/cluster_server.h"
#include "recovery/checkpoint_manager.h"
#include "server/workload/traffic_engine.h"
#include "stats/percentile.h"
#include "util/tokens.h"

namespace scaddar {
namespace {

using Tokens = std::vector<std::string_view>;

// --- Lexing and argument parsing. ------------------------------------------

StatusOr<int64_t> ParseInt(std::string_view token) {
  return ParseIntToken(token, "");
}

StatusOr<double> ParseDouble(std::string_view token) {
  double value = 0;
  const auto [ptr, ec] =
      std::from_chars(token.data(), token.data() + token.size(), value);
  if (ec != std::errc() || ptr != token.data() + token.size()) {
    return InvalidArgumentError("malformed number");
  }
  return value;
}

StatusOr<std::vector<DiskSlot>> ParseSlotList(std::string_view token) {
  std::vector<DiskSlot> slots;
  while (!token.empty()) {
    const size_t comma = token.find(',');
    SCADDAR_ASSIGN_OR_RETURN(const int64_t slot,
                             ParseInt(token.substr(0, comma)));
    slots.push_back(slot);
    if (comma == std::string_view::npos) {
      break;
    }
    token = token.substr(comma + 1);
  }
  return slots;
}

/// A shard member id: it must fit an `int`, or a wrapped value would name
/// another shard.
StatusOr<int> ParseMember(std::string_view token) {
  SCADDAR_ASSIGN_OR_RETURN(const int64_t member, ParseInt(token));
  if (member < 0 || member > INT_MAX) {
    return InvalidArgumentError("shard member out of range");
  }
  return static_cast<int>(member);
}

// --- The target seam: what a bare server and a cluster do differently. ----

int64_t MigratedBlocks(const RoundMetrics& metrics) { return metrics.migrated; }
int64_t MigratedBlocks(const ClusterRoundMetrics& metrics) {
  return metrics.migrated + metrics.cross_shard_blocks;
}

bool MigrationIdle(const CmServer& server) {
  return server.migration().idle();
}
bool MigrationIdle(const ClusterServer& cluster) {
  return cluster.MigrationIdle();
}

/// Registration order, which is the traffic engine's popularity rank.
const std::vector<ObjectId>& ObjectOrder(const CmServer& server) {
  return server.catalog().object_ids();
}
const std::vector<ObjectId>& ObjectOrder(const ClusterServer& cluster) {
  return cluster.objects();
}

/// The CoV threshold a `governor` line without one keeps.
double DefaultCov(const CmServer& server) {
  return server.reorg_driver().cov_threshold();
}
double DefaultCov(const ClusterServer& cluster) {
  return cluster.config().shard.reorg_cov_threshold;
}

std::vector<int64_t> StartupLatencies(const CmServer& server) {
  return server.startup_latencies();
}
std::vector<int64_t> StartupLatencies(const ClusterServer& cluster) {
  return cluster.StartupLatencies();
}

int64_t ReorgTriggers(const CmServer& server) {
  return static_cast<int64_t>(server.reorg_triggers().size());
}
int64_t ReorgTriggers(const ClusterServer& cluster) {
  return cluster.TotalReorgTriggers();
}

const char* TargetName(const CmServer&) { return "a bare server"; }
const char* TargetName(const ClusterServer&) { return "a cluster"; }

// --- One scenario run. -----------------------------------------------------

template <typename Target>
struct Run {
  explicit Run(Target& scenario_target) : target(scenario_target) {}
  Run(const Run&) = delete;
  Run& operator=(const Run&) = delete;

  ~Run() {
    // The manager dies with the run, so the server must not keep a pointer
    // to it on any exit path (success or line error).
    if constexpr (std::is_same_v<Target, CmServer>) {
      if (checkpoint != nullptr) {
        SCADDAR_CHECK(target.AttachCheckpointManager(nullptr).ok());
      }
    }
  }

  void Record(const auto& metrics) {
    ++result.rounds;
    result.served += metrics.served;
    result.hiccups += metrics.hiccups;
    result.migrated += MigratedBlocks(metrics);
  }

  /// A stream start from `stream` or a `ticktraffic` arrival: a refusal by
  /// admission is counted, any other error fails the line.
  Status CountStart(const StatusOr<int64_t>& id) {
    if (id.ok()) {
      ++result.streams_started;
    } else if (id.status().code() == StatusCode::kResourceExhausted) {
      ++result.streams_rejected;
    } else {
      return id.status();
    }
    return OkStatus();
  }

  Target& target;
  ScenarioResult result;
  // Settings accumulate into `traffic_config`; `ticktraffic` (re)builds the
  // engine lazily over the target's objects.
  TrafficConfig traffic_config;
  std::unique_ptr<TrafficEngine> traffic;
  // `governor` is a declaration, not a runtime action: one per scenario, so
  // a script's ε semantics cannot silently change partway through.
  bool governor_declared = false;
  // Created by `checkpoint` (bare server only).
  std::unique_ptr<CheckpointManager> checkpoint;
};

// --- Commands both targets accept. -----------------------------------------

template <typename Target>
Status AddObject(Run<Target>& run, const Tokens& t) {
  SCADDAR_ASSIGN_OR_RETURN(const int64_t id, ParseInt(t[1]));
  SCADDAR_ASSIGN_OR_RETURN(const int64_t blocks, ParseInt(t[2]));
  int64_t weight = 1;
  if (t.size() == 4) {
    SCADDAR_ASSIGN_OR_RETURN(weight, ParseInt(t[3]));
  }
  return run.target.AddObject(id, blocks, weight);
}

template <typename Target>
Status RemoveObject(Run<Target>& run, const Tokens& t) {
  SCADDAR_ASSIGN_OR_RETURN(const int64_t id, ParseInt(t[1]));
  return run.target.RemoveObject(id);
}

template <typename Target>
Status StartStream(Run<Target>& run, const Tokens& t) {
  SCADDAR_ASSIGN_OR_RETURN(const int64_t object, ParseInt(t[1]));
  return run.CountStart(run.target.StartStream(object));
}

template <typename Target>
Status Pause(Run<Target>& run, const Tokens& t) {
  SCADDAR_ASSIGN_OR_RETURN(const int64_t id, ParseInt(t[1]));
  return run.target.PauseStream(id);
}

template <typename Target>
Status Resume(Run<Target>& run, const Tokens& t) {
  SCADDAR_ASSIGN_OR_RETURN(const int64_t id, ParseInt(t[1]));
  return run.target.ResumeStream(id);
}

template <typename Target>
Status Seek(Run<Target>& run, const Tokens& t) {
  SCADDAR_ASSIGN_OR_RETURN(const int64_t id, ParseInt(t[1]));
  SCADDAR_ASSIGN_OR_RETURN(const int64_t block, ParseInt(t[2]));
  return run.target.SeekStream(id, block);
}

template <typename Target>
Status Governor(Run<Target>& run, const Tokens& t) {
  if (run.governor_declared) {
    return InvalidArgumentError("duplicate governor declaration");
  }
  SCADDAR_ASSIGN_OR_RETURN(const int64_t bits, ParseInt(t[1]));
  if (bits < 1 || bits > 64) {
    return InvalidArgumentError("governor bits must be in [1, 64]");
  }
  SCADDAR_ASSIGN_OR_RETURN(const double eps, ParseDouble(t[2]));
  double cov = DefaultCov(run.target);
  if (t.size() == 4) {
    SCADDAR_ASSIGN_OR_RETURN(cov, ParseDouble(t[3]));
  }
  SCADDAR_RETURN_IF_ERROR(
      run.target.ConfigureGovernor(static_cast<int>(bits), eps, cov));
  run.governor_declared = true;
  return OkStatus();
}

template <typename Target>
Status AutoReorg(Run<Target>& run, const Tokens& t) {
  if (t[1] != "on" && t[1] != "off") {
    return InvalidArgumentError("autoreorg takes on|off");
  }
  run.target.SetAutoReorg(t[1] == "on");
  return OkStatus();
}

template <typename Target>
Status Tick(Run<Target>& run, const Tokens& t) {
  SCADDAR_ASSIGN_OR_RETURN(const int64_t rounds, ParseInt(t[1]));
  if (rounds < 0) {
    return InvalidArgumentError("tick count must be >= 0");
  }
  for (int64_t i = 0; i < rounds; ++i) {
    run.Record(run.target.Tick());
  }
  return OkStatus();
}

template <typename Target>
Status Drain(Run<Target>& run, const Tokens&) {
  int64_t guard = 0;
  while (!MigrationIdle(run.target)) {
    run.Record(run.target.Tick());
    if (++guard > 1'000'000) {
      return InvalidArgumentError("drain did not converge");
    }
  }
  return OkStatus();
}

template <typename Target>
Status Verify(Run<Target>& run, const Tokens&) {
  return run.target.VerifyIntegrity();
}

template <typename Target>
Status Traffic(Run<Target>& run, const Tokens& t) {
  // Any settings change invalidates the running engine; the next
  // `ticktraffic` rebuilds it (a fresh deterministic trace).
  run.traffic.reset();
  TrafficConfig& config = run.traffic_config;
  const std::string_view key = t[1];
  if (key == "seed" && t.size() == 3) {
    SCADDAR_ASSIGN_OR_RETURN(const int64_t seed, ParseInt(t[2]));
    config.seed = static_cast<uint64_t>(seed);
  } else if (key == "arrivals" && t.size() == 3) {
    SCADDAR_ASSIGN_OR_RETURN(config.arrivals_per_round, ParseDouble(t[2]));
  } else if (key == "zipf" && t.size() == 3) {
    SCADDAR_ASSIGN_OR_RETURN(config.zipf_theta, ParseDouble(t[2]));
  } else if (key == "diurnal" && t.size() == 4) {
    SCADDAR_ASSIGN_OR_RETURN(config.diurnal_amplitude, ParseDouble(t[2]));
    SCADDAR_ASSIGN_OR_RETURN(config.diurnal_period, ParseInt(t[3]));
  } else if (key == "vcr" && t.size() == 5) {
    SCADDAR_ASSIGN_OR_RETURN(config.pause_probability, ParseDouble(t[2]));
    SCADDAR_ASSIGN_OR_RETURN(config.resume_probability, ParseDouble(t[3]));
    SCADDAR_ASSIGN_OR_RETURN(config.seek_probability, ParseDouble(t[4]));
  } else if (key == "flash" && t.size() == 6) {
    FlashCrowd crowd;
    SCADDAR_ASSIGN_OR_RETURN(crowd.start_round, ParseInt(t[2]));
    SCADDAR_ASSIGN_OR_RETURN(crowd.duration, ParseInt(t[3]));
    SCADDAR_ASSIGN_OR_RETURN(crowd.rank, ParseInt(t[4]));
    SCADDAR_ASSIGN_OR_RETURN(crowd.boost, ParseInt(t[5]));
    config.flash_crowds.push_back(crowd);
  } else {
    return InvalidArgumentError("unrecognized traffic setting");
  }
  return ValidateTrafficConfig(config);
}

template <typename Target>
Status TickTraffic(Run<Target>& run, const Tokens& t) {
  SCADDAR_ASSIGN_OR_RETURN(const int64_t rounds, ParseInt(t[1]));
  if (rounds < 0) {
    return InvalidArgumentError("ticktraffic count must be >= 0");
  }
  if (run.traffic == nullptr) {
    if (ObjectOrder(run.target).empty()) {
      return InvalidArgumentError("ticktraffic needs at least one object");
    }
    run.traffic = std::make_unique<TrafficEngine>(run.traffic_config);
    run.traffic->SetObjects(ObjectOrder(run.target));
  }
  const auto count_start = [&run](const StatusOr<int64_t>& id) {
    return run.CountStart(id);
  };
  for (int64_t i = 0; i < rounds; ++i) {
    SCADDAR_ASSIGN_OR_RETURN(const auto metrics,
                             run.traffic->Drive(run.target, count_start));
    run.Record(metrics);
  }
  return OkStatus();
}

// --- Bare-server commands. -------------------------------------------------

Status Scale(Run<CmServer>& run, const Tokens& t) {
  if (t[1] == "add") {
    SCADDAR_ASSIGN_OR_RETURN(const int64_t count, ParseInt(t[2]));
    return run.target.ScaleAdd(count);
  }
  if (t[1] == "remove") {
    SCADDAR_ASSIGN_OR_RETURN(const std::vector<DiskSlot> slots,
                             ParseSlotList(t[2]));
    return run.target.ScaleRemove(slots);
  }
  return InvalidArgumentError("scale takes add|remove");
}

Status Rebase(Run<CmServer>& run, const Tokens&) {
  return run.target.FullRedistribution();
}

Status Backend(Run<CmServer>& run, const Tokens& t) {
  int64_t queue_depth = 0;
  if (t.size() == 3) {
    SCADDAR_ASSIGN_OR_RETURN(queue_depth, ParseInt(t[2]));
  }
  return run.target.SelectBackend(t[1], static_cast<int>(queue_depth));
}

Status Crash(Run<CmServer>& run, const Tokens&) {
  SCADDAR_RETURN_IF_ERROR(run.target.SimulateCrashRestart().status());
  ++run.result.crashes;
  return OkStatus();
}

Status Checkpoint(Run<CmServer>& run, const Tokens& t) {
  SCADDAR_ASSIGN_OR_RETURN(const int64_t every, ParseInt(t[1]));
  int64_t level2_every = 0;
  if (t.size() >= 3) {
    SCADDAR_ASSIGN_OR_RETURN(level2_every, ParseInt(t[2]));
  }
  CheckpointOptions options;
  if (t.size() == 4) {
    SCADDAR_ASSIGN_OR_RETURN(options.redundancy,
                             ParseCheckpointRedundancy(t[3]));
  }
  run.checkpoint = std::make_unique<CheckpointManager>(options);
  return run.target.EnableCheckpoints(run.checkpoint.get(), every,
                                      level2_every);
}

Status KillRestart(Run<CmServer>& run, const Tokens&) {
  SCADDAR_RETURN_IF_ERROR(run.target.KillRestartFromCheckpoint().status());
  ++run.result.crashes;
  ++run.result.kill_restarts;
  return OkStatus();
}

// --- Cluster commands. -----------------------------------------------------

Status AddShard(Run<ClusterServer>& run, const Tokens&) {
  return run.target.AddServerShard().status();
}

Status RemoveShard(Run<ClusterServer>& run, const Tokens& t) {
  SCADDAR_ASSIGN_OR_RETURN(const int member, ParseMember(t[1]));
  return run.target.RemoveServerShard(member);
}

Status ScaleDisks(Run<ClusterServer>& run, const Tokens& t) {
  SCADDAR_ASSIGN_OR_RETURN(const int member, ParseMember(t[1]));
  if (t[2] == "add") {
    SCADDAR_ASSIGN_OR_RETURN(const int64_t count, ParseInt(t[3]));
    return run.target.ScaleAddDisks(member, count);
  }
  if (t[2] == "remove") {
    SCADDAR_ASSIGN_OR_RETURN(std::vector<DiskSlot> slots,
                             ParseSlotList(t[3]));
    return run.target.ScaleRemoveDisks(member, std::move(slots));
  }
  return InvalidArgumentError("scaledisks takes add|remove");
}

// --- The command table. ----------------------------------------------------

template <typename Target>
using Handler = Status (*)(Run<Target>&, const Tokens&);

/// `handler` on `Owner`, none on any other target.
template <typename Target, typename Owner>
constexpr Handler<Target> Only(Handler<Owner> handler) {
  if constexpr (std::is_same_v<Target, Owner>) {
    return handler;
  } else {
    return nullptr;
  }
}

template <typename Target>
struct Command {
  std::string_view name;
  size_t min_args;  // Tokens after the command word.
  size_t max_args;
  Handler<Target> handler;  // Null where the target lacks the command.
};

/// Every DSL command, once, with the argument counts it takes and its
/// handler on `Target`; `server/scenario.h` documents them.
template <typename Target>
constexpr Command<Target> kCommands[] = {
    {"addobject", 2, 3, &AddObject<Target>},
    {"removeobject", 1, 1, &RemoveObject<Target>},
    {"stream", 1, 1, &StartStream<Target>},
    {"pause", 1, 1, &Pause<Target>},
    {"resume", 1, 1, &Resume<Target>},
    {"seek", 2, 2, &Seek<Target>},
    {"governor", 2, 3, &Governor<Target>},
    {"autoreorg", 1, 1, &AutoReorg<Target>},
    {"tick", 1, 1, &Tick<Target>},
    {"drain", 0, 0, &Drain<Target>},
    {"verify", 0, 0, &Verify<Target>},
    {"traffic", 2, 5, &Traffic<Target>},
    {"ticktraffic", 1, 1, &TickTraffic<Target>},
    {"scale", 2, 2, Only<Target, CmServer>(&Scale)},
    {"rebase", 0, 0, Only<Target, CmServer>(&Rebase)},
    {"backend", 1, 2, Only<Target, CmServer>(&Backend)},
    {"crash", 0, 0, Only<Target, CmServer>(&Crash)},
    {"checkpoint", 1, 3, Only<Target, CmServer>(&Checkpoint)},
    {"killrestart", 0, 0, Only<Target, CmServer>(&KillRestart)},
    {"addshard", 0, 0, Only<Target, ClusterServer>(&AddShard)},
    {"removeshard", 1, 1, Only<Target, ClusterServer>(&RemoveShard)},
    {"scaledisks", 3, 3, Only<Target, ClusterServer>(&ScaleDisks)},
};

template <typename Target>
Status Execute(Run<Target>& run, const Tokens& tokens) {
  for (const Command<Target>& command : kCommands<Target>) {
    if (command.name != tokens[0]) {
      continue;
    }
    if (command.handler == nullptr) {
      return InvalidArgumentError(std::string(command.name) +
                                  " is not available on " +
                                  TargetName(run.target));
    }
    const size_t args = tokens.size() - 1;
    if (args < command.min_args || args > command.max_args) {
      return InvalidArgumentError("wrong number of arguments to " +
                                  std::string(command.name));
    }
    return command.handler(run, tokens);
  }
  return InvalidArgumentError("unrecognized command");
}

template <typename Target>
StatusOr<ScenarioResult> Interpret(Target& target, std::string_view script) {
  Run<Target> run(target);
  for (int64_t line_number = 1; !script.empty(); ++line_number) {
    const size_t eol = script.find('\n');
    const std::string_view line = script.substr(0, eol);
    script = eol == std::string_view::npos ? std::string_view()
                                           : script.substr(eol + 1);
    const Tokens tokens = SplitTokens(line.substr(0, line.find('#')));
    if (tokens.empty()) {
      continue;
    }
    ++run.result.lines_executed;
    const Status status = Execute(run, tokens);
    if (!status.ok()) {
      return InvalidArgumentError("line " + std::to_string(line_number) +
                                  ": " + status.message());
    }
  }
  const std::vector<int64_t> latencies = StartupLatencies(target);
  run.result.startup_p50 = PercentileOf(latencies, 0.50);
  run.result.startup_p99 = PercentileOf(latencies, 0.99);
  run.result.startup_p999 = PercentileOf(latencies, 0.999);
  run.result.auto_reorg_triggers = ReorgTriggers(target);
  return run.result;
}

}  // namespace

StatusOr<ScenarioResult> RunScenario(CmServer& server,
                                     std::string_view script) {
  return Interpret(server, script);
}

StatusOr<ScenarioResult> RunScenario(ClusterServer& cluster,
                                     std::string_view script) {
  return Interpret(cluster, script);
}

}  // namespace scaddar
