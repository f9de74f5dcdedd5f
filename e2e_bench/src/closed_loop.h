#ifndef SCADDAR_E2E_BENCH_CLOSED_LOOP_H_
#define SCADDAR_E2E_BENCH_CLOSED_LOOP_H_

// One episode's closed load loop: builds the target through its public API,
// runs the traffic round by round, and times every call. It drives a bare
// `CmServer` or a `ClusterServer` from the one thread that calls it.

#include <time.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "cluster/cluster_server.h"
#include "episode.h"
#include "host_probe.h"
#include "loadgen.h"
#include "server/server.h"
#include "stats/percentile.h"
#include "trace.h"

namespace scaddar::e2e {

using Clock = std::chrono::steady_clock;

inline double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

/// CPU time of every thread of this process (the cluster's shard pool and
/// io_uring workers included).
inline double CpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// Public-call names per target, so each span names the API it entered.
struct CallNames {
  const char* create;
  const char* add_object;
  const char* start_stream;
  const char* pause;
  const char* resume;
  const char* seek;
  const char* tick;
  const char* verify;
};

inline constexpr CallNames kServerCalls = {
    "CmServer::Create",      "CmServer::AddObject",
    "CmServer::StartStream", "CmServer::PauseStream",
    "CmServer::ResumeStream", "CmServer::SeekStream",
    "CmServer::Tick",        "CmServer::VerifyIntegrity"};

inline constexpr CallNames kClusterCalls = {
    "ClusterServer::Create",       "ClusterServer::AddObject",
    "ClusterServer::StartStream",  "ClusterServer::PauseStream",
    "ClusterServer::ResumeStream", "ClusterServer::SeekStream",
    "ClusterServer::Tick",         "ClusterServer::VerifyIntegrity"};

template <typename Target>
constexpr const CallNames& NamesFor() {
  if constexpr (std::is_same_v<Target, ClusterServer>) {
    return kClusterCalls;
  } else {
    return kServerCalls;
  }
}

// --- Readers of public state, one overload per target. -------------------

/// Stream ids only grow and `Tick` drops finished streams in order, so each
/// server's stream vector is sorted by id.
inline bool HasStream(const std::vector<Stream>& streams, int64_t id) {
  const auto it = std::lower_bound(
      streams.begin(), streams.end(), id,
      [](const Stream& stream, int64_t value) { return stream.id() < value; });
  return it != streams.end() && it->id() == id;
}

inline bool IsAlive(const CmServer& server, int64_t id) {
  return HasStream(server.streams(), id);
}

inline bool IsAlive(const ClusterServer& cluster, int64_t id) {
  for (const int member : cluster.members()) {
    if (HasStream(cluster.shard(member)->streams(), id)) {
      return true;
    }
  }
  return false;
}

/// Disk-level moves queued (summed over shards for the cluster).
inline int64_t QueuedMoves(const CmServer& server) {
  return server.migration().pending();
}

inline int64_t QueuedMoves(const ClusterServer& cluster) {
  int64_t total = 0;
  for (const int member : cluster.members()) {
    total += cluster.shard(member)->migration().pending();
  }
  return total;
}

/// Blocks still to move: disk-level queue plus cross-shard transfers.
inline int64_t QueuedBlocks(const CmServer& server) {
  return QueuedMoves(server);
}

inline int64_t QueuedBlocks(const ClusterServer& cluster) {
  return QueuedMoves(cluster) + cluster.migrator().pending_blocks();
}

inline bool WorkPending(const CmServer& server) {
  return !server.migration().idle();
}

inline bool WorkPending(const ClusterServer& cluster) {
  return !cluster.MigrationIdle();
}

inline int64_t ReorgTriggers(const CmServer& server) {
  return static_cast<int64_t>(server.reorg_triggers().size());
}

inline int64_t ReorgTriggers(const ClusterServer& cluster) {
  return cluster.TotalReorgTriggers();
}

/// Every member server (the bare server is its own only member).
inline std::vector<const CmServer*> Members(const CmServer& server) {
  return {&server};
}

inline std::vector<const CmServer*> Members(const ClusterServer& cluster) {
  std::vector<const CmServer*> servers;
  for (const int member : cluster.members()) {
    servers.push_back(cluster.shard(member));
  }
  return servers;
}

inline std::vector<int64_t> StartupLatencies(const CmServer& server) {
  return server.startup_latencies();
}

inline std::vector<int64_t> StartupLatencies(const ClusterServer& cluster) {
  return cluster.StartupLatencies();
}

// --- Set-up. ---------------------------------------------------------------

/// Creates the target and ingests `objects` objects of `blocks_each` blocks
/// (ids 1..objects, in popularity-rank order). Times it into `setup_s`, with
/// a reference slice on either side for the host's speed.
template <typename Target, typename Config>
std::unique_ptr<Target> SetUp(const Config& config, int64_t objects,
                              int64_t blocks_each, Tracer* tracer,
                              EpisodeResult& result) {
  const CallNames& names = NamesFor<Target>();
  if (tracer != nullptr) {
    tracer->set_phase(Phase::kSetup);
  }
  HostProbe probe;
  const double probe_before = probe.Slice();
  const auto start = Clock::now();
  const int32_t create_span =
      tracer != nullptr ? tracer->Begin(names.create, -1) : -1;
  auto created = Target::Create(config);
  if (tracer != nullptr) {
    tracer->End(create_span);
  }
  if (!created.ok()) {
    result.check_failures.push_back("Create: " + created.status().ToString());
    return nullptr;
  }
  std::unique_ptr<Target> target = std::move(created).value();
  for (int64_t rank = 0; rank < objects; ++rank) {
    const int32_t span =
        tracer != nullptr ? tracer->Begin(names.add_object, -1) : -1;
    const Status status = target->AddObject(rank + 1, blocks_each);
    if (tracer != nullptr) {
      tracer->End(span);
      tracer->Annotate(span, blocks_each);
    }
    if (!status.ok()) {
      result.check_failures.push_back("AddObject: " + status.ToString());
      return nullptr;
    }
  }
  result.setup_s.push_back(Seconds(Clock::now() - start));
  result.setup_probe_s.push_back((probe_before + probe.Slice()) / 2);
  return target;
}

/// Set-up is short next to an episode, so one sample per episode would leave
/// its median noisy: time `count` more set-ups of throwaway targets.
template <typename Target, typename Config>
void ExtraSetUps(const Config& config, int64_t objects, int64_t blocks_each,
                 int count, EpisodeResult& result) {
  for (int i = 0; i < count; ++i) {
    SetUp<Target>(config, objects, blocks_each, nullptr, result);
  }
}

// --- The closed loop. -----------------------------------------------------

template <typename Target>
class ClosedLoop {
 public:
  ClosedLoop(Target& target, uint64_t seed, double arrivals_per_round,
             int64_t objects, int64_t blocks_each, Tracer* tracer,
             EpisodeResult& result)
      : target_(target),
        gen_(seed, arrivals_per_round,
             std::vector<int64_t>(static_cast<size_t>(objects), blocks_each)),
        tracer_(tracer),
        result_(result) {}

  ClosedLoop(const ClosedLoop&) = delete;
  ClosedLoop& operator=(const ClosedLoop&) = delete;

  int64_t run_rounds() const { return result_.counts.rounds; }

  /// Runs inside each round's timed window, right after `Tick`.
  void set_after_tick(std::function<void()> fn) { after_tick_ = std::move(fn); }

  /// Untimed warm-up: rounds until admission control has refused a stream
  /// (the server runs at its cap) and, if asked, a stream has finished.
  void Ramp(bool until_first_finish, int64_t max_rounds) {
    SetPhase(Phase::kRamp);
    const int32_t span = Begin("ramp");
    int64_t rounds = 0;
    while (rounds < max_rounds &&
           (ramp_rejects_ == 0 ||
            (until_first_finish && CompletedStreams() == 0))) {
      Round();
      ++rounds;
    }
    End(span);
    if (rounds == max_rounds) {
      Fail("ramp did not reach the admission cap");
    }
  }

  void BeginRun() {
    SetPhase(Phase::kRun);
    result_.probe_s.push_back(probe_.Slice());
    last_probe_ = Clock::now();
    run_span_ = Begin("run");
    recording_ = true;
    bench_ns_ = 0;
    cpu_start_ = CpuSeconds();
    run_start_ = Clock::now();
  }

  void EndRun() {
    const auto end = Clock::now();
    recording_ = false;
    End(run_span_);
    result_.wall_s = Seconds(end - run_start_);
    result_.cpu_s = CpuSeconds() - cpu_start_;
    result_.gen_s = static_cast<double>(bench_ns_) * 1e-9;
    result_.run_s = result_.wall_s - result_.gen_s;
    result_.probe_s.push_back(probe_.Slice());
    Counts& counts = result_.counts;
    counts.startup_p99_rounds = PercentileOf(StartupLatencies(target_), 0.99);
    counts.reorg_triggers = ReorgTriggers(target_);
    counts.input_digest = gen_.digest();
  }

  /// One closed-loop round: this round's StartStream and VCR calls, then
  /// Tick. The next round starts when Tick returns.
  void Round() {
    const CallNames& names = NamesFor<Target>();
    if (recording_) {
      MaybeProbe();
    }
    const auto t0 = Clock::now();
    gen_.NextArrivals(ranks_);
    gen_.DueEvents(round_, due_);
    live_.clear();
    int64_t skipped = 0;
    int64_t lost = 0;
    for (VcrEvent& event : due_) {
      event.stream = Follow(event.stream);
      if (event.stream == kLost) {
        ++lost;
      } else if (IsAlive(target_, event.stream)) {
        live_.push_back(event);
      } else {
        ++skipped;  // The stream has finished.
      }
    }
    if constexpr (kCluster) {
      FindCommitting();
    }
    const int64_t queued_at_entry = QueuedMoves(target_);
    const bool pending_at_entry = WorkPending(target_);
    const double cpu1 = recording_ ? CpuSeconds() : 0;
    const auto t1 = Clock::now();

    const int32_t round_span = Begin("round");
    admitted_.clear();
    int64_t rejected = 0;
    for (const int64_t rank : ranks_) {
      const int32_t span = Begin(names.start_stream);
      const StatusOr<int64_t> id = target_.StartStream(rank + 1);
      End(span);
      Annotate(span, id.ok() ? 1 : 0);
      if (id.ok()) {
        admitted_.push_back({id.value(), rank});
      } else if (id.status().code() == StatusCode::kResourceExhausted) {
        ++rejected;
      } else {
        ++result_.call_errors;
      }
    }
    for (const VcrEvent& event : live_) {
      const int32_t span = Begin(event.kind == VcrKind::kPause ? names.pause
                                 : event.kind == VcrKind::kResume
                                     ? names.resume
                                     : names.seek);
      const Status status = Apply(event);
      End(span);
      if (!status.ok()) {
        ++result_.call_errors;
      }
    }
    // Benchmark work inside the window, cut out of the round's time.
    Clock::duration noted{};
    double noted_cpu = 0;
    if constexpr (kCluster) {
      if (!handoffs_.empty()) {
        const auto start = Clock::now();
        const double cpu = recording_ ? CpuSeconds() : 0;
        NoteSessions();
        noted_cpu = recording_ ? CpuSeconds() - cpu : 0;
        noted = Clock::now() - start;
      }
    }
    const int32_t tick_span = Begin(names.tick);
    last_ = target_.Tick();
    End(tick_span);
    if (after_tick_ && recording_) {
      after_tick_();
    }
    End(round_span);
    const auto t2 = Clock::now();
    const double cpu2 = recording_ ? CpuSeconds() : 0;

    Annotate(tick_span, queued_at_entry, last_.migrated);
    int64_t moved = 0;
    if constexpr (kCluster) {
      moved = FollowHandoffs();
    }
    for (const auto& [id, rank] : admitted_) {
      gen_.OnAdmitted(id, rank, round_);
    }
    for (const VcrEvent& event : live_) {
      if (event.kind == VcrKind::kPause) {
        gen_.OnPauseApplied(event);
      }
    }
    ++round_;
    if (!recording_) {
      ramp_rejects_ += rejected;
      return;
    }
    Counts& counts = result_.counts;
    ++counts.rounds;
    counts.converge_rounds += pending_at_entry ? 1 : 0;
    counts.requests += last_.requests;
    counts.served += last_.served;
    counts.hiccups += last_.hiccups;
    counts.migrated_blocks += last_.migrated;
    counts.stream_calls += static_cast<int64_t>(ranks_.size());
    counts.rejected += rejected;
    counts.vcr_calls += static_cast<int64_t>(live_.size());
    counts.vcr_skipped += skipped;
    counts.vcr_lost += lost;
    counts.sessions_moved += moved;
    result_.calls += static_cast<int64_t>(ranks_.size() + live_.size()) + 1;
    if constexpr (kCluster) {
      counts.cross_shard_blocks += last_.cross_shard_blocks;
      counts.migrated_blocks += last_.cross_shard_blocks;
      counts.pending_transfers_max =
          std::max(counts.pending_transfers_max, last_.pending_transfers);
      counts.dropped_streams = target_.handoff_rejects();
    } else {
      counts.journal_entries_max =
          std::max(counts.journal_entries_max, target_.journal().size());
    }
    result_.round_us.push_back(
        std::chrono::duration<double, std::micro>(t2 - t1 - noted).count());
    result_.round_cpu_us.push_back((cpu2 - cpu1 - noted_cpu) * 1e6);
    result_.round_probes.push_back(
        static_cast<int32_t>(result_.probe_s.size()));
    bench_ns_ += std::chrono::duration_cast<std::chrono::nanoseconds>(
                     (t1 - t0) + noted + (Clock::now() - t2))
                     .count();
  }

  void Rounds(int64_t n) {
    for (int64_t i = 0; i < n; ++i) {
      Round();
    }
  }

  /// Rounds until no move or transfer is queued and no disk is draining.
  void Drain() {
    constexpr int64_t kMaxRounds = 200'000;
    const int32_t span = Begin("drain");
    int64_t rounds = 0;
    do {
      Round();
      ++rounds;
    } while ((WorkPending(target_) || last_.retiring_disks > 0) &&
             rounds < kMaxRounds);
    End(span);
    if (rounds == kMaxRounds) {
      Fail("drain did not converge");
    }
  }

  void Verify(const std::string& label) {
    const int32_t span = Begin(NamesFor<Target>().verify);
    const Status status = target_.VerifyIntegrity();
    End(span);
    ++result_.calls;
    if (!status.ok()) {
      Fail("VerifyIntegrity after " + label + ": " + status.ToString());
    }
  }

  /// Times one scaling call. Records the blocks it queued and whether the
  /// governor rebased inside it; in traced episodes also times a batch
  /// AF() over the whole catalog afterwards (the `core` layer probe).
  template <typename Fn>
  Status Scale(const char* name, Fn&& fn) {
    const auto t0 = Clock::now();
    const int64_t queued_before = QueuedBlocks(target_);
    const int64_t triggers_before = ReorgTriggers(target_);
    const auto t1 = Clock::now();
    const int32_t span = Begin(name);
    const Status status = fn();
    End(span);
    const auto t2 = Clock::now();
    const int64_t enqueued = QueuedBlocks(target_) - queued_before;
    const bool rebased = ReorgTriggers(target_) > triggers_before;
    Annotate(span, enqueued, rebased ? 1 : 0);
    result_.scale_ms.push_back(
        std::chrono::duration<double, std::milli>(t2 - t1).count());
    ++result_.calls;
    for (const CmServer* server : Members(target_)) {
      const OpLog& log = server->policy().log();
      result_.budget_consumed_max =
          std::max(result_.budget_consumed_max,
                   server->reorg_driver().governor().BudgetConsumed(log));
      result_.counts.op_log_depth_max =
          std::max(result_.counts.op_log_depth_max, log.num_ops());
    }
    if (tracer_ != nullptr) {
      LocateProbe();
    }
    if (!status.ok()) {
      Fail(std::string(name) + ": " + status.ToString());
    }
    bench_ns_ += std::chrono::duration_cast<std::chrono::nanoseconds>(
                     (t1 - t0) + (Clock::now() - t2))
                     .count();
    return status;
  }

  /// Times one call that is neither traffic nor scaling (checkpoints).
  template <typename Fn>
  Status Call(const char* name, int64_t a, Fn&& fn) {
    const int32_t span = Begin(name);
    const Status status = fn();
    End(span);
    Annotate(span, a);
    ++result_.calls;
    if (!status.ok()) {
      Fail(std::string(name) + ": " + status.ToString());
    }
    return status;
  }

  void Fail(std::string message) {
    result_.check_failures.push_back(std::move(message));
  }

 private:
  /// Between rounds of the timed phase, a reference slice every
  /// `kProbeEvery` of wall time. Benchmark time: cut out of the run's time.
  void MaybeProbe() {
    const auto start = Clock::now();
    if (start - last_probe_ < kProbeEvery) {
      return;
    }
    result_.probe_s.push_back(probe_.Slice());
    last_probe_ = Clock::now();
    bench_ns_ += std::chrono::duration_cast<std::chrono::nanoseconds>(
                     last_probe_ - start)
                     .count();
  }

  Status Apply(const VcrEvent& event) {
    switch (event.kind) {
      case VcrKind::kPause:
        return target_.PauseStream(event.stream);
      case VcrKind::kResume:
        return target_.ResumeStream(event.stream);
      case VcrKind::kSeek:
        return target_.SeekStream(event.stream, event.arg);
    }
    return InternalError("unknown VCR event");
  }

  int64_t CompletedStreams() const { return target_.completed_streams(); }

  /// The id a stream's session runs under now: a cross-shard commit moves
  /// sessions to new ids. kLost when the destination refused the session.
  int64_t Follow(int64_t id) const {
    for (auto it = moved_to_.find(id); it != moved_to_.end();
         it = moved_to_.find(id)) {
      id = it->second;
    }
    return id;
  }

  /// Cluster, before the round's calls: the transfers whose copy can
  /// complete, and so commit, in this round's Tick.
  void FindCommitting() {
    handoffs_.clear();
    if (target_.migrator().idle()) {
      return;
    }
    const int64_t budget = target_.config().cross_shard_budget;
    for (const ObjectTransfer& transfer : target_.migrator().QueueSnapshot()) {
      if (transfer.num_blocks - transfer.copied <= budget) {
        handoffs_.push_back({transfer, {}});
      }
    }
  }

  /// Cluster, right before Tick: the sessions those commits would hand off,
  /// in the state Tick sees them.
  void NoteSessions() {
    for (Handoff& handoff : handoffs_) {
      const ObjectTransfer& transfer = handoff.transfer;
      for (const Stream& stream : target_.shard(transfer.from)->streams()) {
        if (stream.object() == transfer.object && !stream.finished()) {
          handoff.sessions.push_back(
              {stream.id(), stream.next_block(), stream.paused()});
        }
      }
    }
  }

  /// Cluster, after Tick: a commit re-admits the object's sessions on the
  /// destination under new ids, in the order it detached them (id order),
  /// and seeks each to the block its session had reached. Maps every noted
  /// session to its successor, so its pending VCR events follow it, and
  /// checks the sessions left without one against the cluster's refusals.
  /// Returns the sessions followed.
  int64_t FollowHandoffs() {
    int64_t committed = 0, followed = 0, lost = 0, at_end = 0;
    std::vector<const Stream*> successors;
    for (const Handoff& handoff : handoffs_) {
      const ObjectTransfer& transfer = handoff.transfer;
      if (target_.OwnerOf(transfer.object) != transfer.to) {
        continue;  // Still copying.
      }
      ++committed;
      successors.clear();
      for (const Stream& stream : target_.shard(transfer.to)->streams()) {
        if (stream.object() == transfer.object) {
          successors.push_back(&stream);
        }
      }
      size_t next = 0;
      for (const Session& session : handoff.sessions) {
        // Tick plays a session for at most one block before the commit.
        const Stream* successor =
            next < successors.size() ? successors[next] : nullptr;
        const int64_t played =
            successor != nullptr ? successor->next_block() - session.next_block
                                 : -1;
        if (successor != nullptr && successor->paused() == session.paused &&
            (played == 0 || (played == 1 && !session.paused))) {
          moved_to_[session.id] = successor->id();
          ++next;
          ++followed;
        } else if (!session.paused &&
                   session.next_block + 1 == transfer.num_blocks) {
          ++at_end;  // Finished in Tick, or refused on its last block.
        } else {
          moved_to_[session.id] = kLost;
          ++lost;
        }
      }
      if (next != successors.size()) {
        Fail("object " + std::to_string(transfer.object) + ": " +
             std::to_string(successors.size() - next) +
             " handed-off sessions match no noted session");
      }
    }
    handoffs_.clear();
    const int64_t refused = target_.handoff_rejects() - rejects_seen_;
    rejects_seen_ = target_.handoff_rejects();
    if (committed != last_.cross_shard_commits || refused < lost ||
        refused > lost + at_end) {
      Fail("round " + std::to_string(round_) + ": followed " +
           std::to_string(committed) + " of " +
           std::to_string(last_.cross_shard_commits) + " commits, " +
           std::to_string(lost) + " sessions lost vs " +
           std::to_string(refused) + " refused");
    }
    return followed;
  }

  /// Batch AF() over every member's catalog: the `core` layer's cost per
  /// block at the current op-log depth.
  void LocateProbe() {
    std::vector<PhysicalDiskId> out;
    for (const CmServer* server : Members(target_)) {
      const PlacementPolicy& policy = server->policy();
      const int32_t span = Begin("PlacementPolicy::LocateAllBlocks");
      int64_t blocks = 0;
      for (const ObjectId id : server->catalog().object_ids()) {
        policy.LocateAllBlocks(id, out);
        blocks += static_cast<int64_t>(out.size());
      }
      End(span);
      Annotate(span, blocks, policy.log().num_ops());
    }
  }

  void SetPhase(Phase phase) {
    if (tracer_ != nullptr) {
      tracer_->set_phase(phase);
    }
  }
  int32_t Begin(const char* name) {
    return tracer_ != nullptr ? tracer_->Begin(name, round_) : -1;
  }
  void End(int32_t span) {
    if (tracer_ != nullptr) {
      tracer_->End(span);
    }
  }
  void Annotate(int32_t span, int64_t a, int64_t b = 0) {
    if (tracer_ != nullptr) {
      tracer_->Annotate(span, a, b);
    }
  }

  static constexpr bool kCluster = std::is_same_v<Target, ClusterServer>;
  using Metrics =
      std::conditional_t<kCluster, ClusterRoundMetrics, RoundMetrics>;

  static constexpr int64_t kLost = -1;  // Stream ids are never negative.
  static constexpr auto kProbeEvery = std::chrono::milliseconds(5);

  /// A session as Tick will see it.
  struct Session {
    int64_t id = 0;
    BlockIndex next_block = 0;
    bool paused = false;
  };
  /// A transfer that may commit this round, and its sessions.
  struct Handoff {
    ObjectTransfer transfer;
    std::vector<Session> sessions;
  };

  Target& target_;
  LoadGenerator gen_;
  Tracer* tracer_;
  EpisodeResult& result_;
  std::function<void()> after_tick_;
  HostProbe probe_;
  Clock::time_point last_probe_;

  int64_t round_ = 0;
  bool recording_ = false;
  int64_t ramp_rejects_ = 0;
  int64_t bench_ns_ = 0;
  int32_t run_span_ = -1;
  double cpu_start_ = 0;
  Clock::time_point run_start_;
  Metrics last_;

  std::vector<int64_t> ranks_;
  std::vector<VcrEvent> due_;
  std::vector<VcrEvent> live_;
  std::vector<std::pair<int64_t, int64_t>> admitted_;  // (stream id, rank)

  // Cluster only: sessions moved between shards.
  std::vector<Handoff> handoffs_;
  std::unordered_map<int64_t, int64_t> moved_to_;  // Old id -> new id.
  int64_t rejects_seen_ = 0;
};

}  // namespace scaddar::e2e

#endif  // SCADDAR_E2E_BENCH_CLOSED_LOOP_H_
