#ifndef SCADDAR_SERVER_SCENARIO_H_
#define SCADDAR_SERVER_SCENARIO_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "server/server.h"
#include "util/statusor.h"

namespace scaddar {

class ClusterServer;

/// Aggregate outcome of a scenario run. The startup percentiles
/// (nearest-rank, in rounds from `stream` to first delivered block) cover
/// every stream that began playback during the run; 0 when none did.
struct ScenarioResult {
  int64_t lines_executed = 0;
  int64_t rounds = 0;
  int64_t served = 0;
  int64_t hiccups = 0;
  int64_t migrated = 0;
  int64_t streams_started = 0;
  int64_t streams_rejected = 0;
  int64_t crashes = 0;
  int64_t kill_restarts = 0;  // `killrestart` commands (also in crashes).
  /// Reorganizations the adaptive driver triggered on its own (budget or
  /// CoV) across the run — the count of `reorg_triggers()` at the end.
  int64_t auto_reorg_triggers = 0;
  int64_t startup_p50 = 0;
  int64_t startup_p99 = 0;
  int64_t startup_p999 = 0;
};

/// Drives a `CmServer` or a `ClusterServer` from a small line-oriented
/// script — the repeatable experiment format used by operators and the test
/// suite. One interpreter serves both targets. Commands (one per line; `#`
/// starts a comment; blank lines ignored), marked [server] or [cluster]
/// where only one target accepts them:
///
///   addobject <id> <blocks> [weight]     ingest an object
///   removeobject <id>                    delete an object
///   stream <object-id>                   start a stream (admission may
///                                        reject; counted, not an error)
///   pause <stream-id> | resume <stream-id> | seek <stream-id> <block>
///   governor <bits> <eps> [cov]          configure the adaptive driver's
///                                        governor (generator width, ε
///                                        budget) and optionally the CoV
///                                        drift threshold (default: the
///                                        server's current one, or the
///                                        cluster's shard template's); at
///                                        most one declaration per scenario
///   autoreorg on|off                     enable/disable self-triggered
///                                        reorganization (budget gate on
///                                        scaling ops + end-of-round watch)
///   tick <rounds>                        run scheduling rounds
///   drain                                tick until migration is idle (on
///                                        a cluster: no cross-shard transfer
///                                        queued and every shard idle)
///   verify                               assert store matches AF()
///   scale add <count>                    [server] online disk-group
///                                        addition
///   scale remove <slot>[,<slot>...]      [server] online disk-group removal
///   rebase                               [server] full redistribution
///   backend <spec> [queue-depth]         [server] select the storage
///                                        backend ("sim", "mem",
///                                        "file:<dir>", "uring:<dir>"); only
///                                        legal while the store is empty
///   crash                                [server] kill the process and
///                                        restart it (journal recovery;
///                                        streams die)
///   checkpoint <every> [level2-every] [redundancy]
///                                        [server] attach a checkpoint
///                                        manager (owned by the scenario
///                                        run) and write an L1 set every
///                                        <every> rounds, upgraded to a
///                                        redundant L2 set every
///                                        [level2-every] rounds over four
///                                        snapshot locations;
///                                        [redundancy] is partner (the
///                                        default) or xor
///   killrestart                          [server] kill the process and
///                                        restart from the newest valid
///                                        checkpoint set (streams resume at
///                                        their saved positions; requires
///                                        `checkpoint`)
///   addshard                             [cluster] add a server shard
///                                        (jump-hash delta objects start
///                                        migrating)
///   removeshard <member>                 [cluster] evacuate and retire a
///                                        shard
///   scaledisks <member> add <count>      [cluster] disk-group addition
///                                        inside one shard
///   scaledisks <member> remove <slot>[,<slot>...]
///                                        [cluster] disk-group removal
///                                        inside one shard
///
/// Traffic-engine hooks (seeded, replayable synthetic load — see
/// `server/workload/traffic_engine.h`):
///
///   traffic seed <n>                     engine seed (default fixed)
///   traffic arrivals <mean>              Poisson arrivals per round
///   traffic zipf <theta>                 popularity skew (0 = uniform)
///   traffic diurnal <amplitude> <period> sinusoidal load modulation
///   traffic vcr <pause> <resume> <seek>  per-stream event probabilities
///   traffic flash <start> <dur> <rank> <boost>   schedule a flash crowd
///   ticktraffic <rounds>                 run rounds driven by the engine
///                                        (arrivals + VCR events + Tick)
///
/// `traffic` settings take effect at the next `ticktraffic`, which
/// (re)builds the engine over the target's objects in registration order
/// (= popularity rank). Changing settings between `ticktraffic` runs starts
/// a fresh deterministic trace.
///
/// On a cluster, `migrated` counts disk-level moves inside shards plus the
/// blocks copied between shards. A 1-shard cluster runs any script of the
/// commands both targets accept to the same `ScenarioResult` as a bare
/// server with the shard's config — the DSL-level face of the cluster
/// equivalence contract.
///
/// Execution stops at the first failing command, including a malformed
/// argument or a command the target does not accept; the error is
/// InvalidArgument and names the line.
StatusOr<ScenarioResult> RunScenario(CmServer& server,
                                     std::string_view script);
StatusOr<ScenarioResult> RunScenario(ClusterServer& cluster,
                                     std::string_view script);

}  // namespace scaddar

#endif  // SCADDAR_SERVER_SCENARIO_H_
