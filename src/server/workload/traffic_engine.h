#ifndef SCADDAR_SERVER_WORKLOAD_TRAFFIC_ENGINE_H_
#define SCADDAR_SERVER_WORKLOAD_TRAFFIC_ENGINE_H_

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "core/types.h"
#include "random/distributions.h"
#include "random/prng.h"
#include "server/server.h"
#include "util/statusor.h"

namespace scaddar {

/// One flash crowd: for `duration` rounds starting at `start_round`,
/// `boost` extra clients per round all request the object at popularity
/// rank `rank` — the "everyone tunes into the premiere" burst that a
/// load-balanced random placement is supposed to absorb and a skewed one
/// is not.
struct FlashCrowd {
  int64_t start_round = 0;
  int64_t duration = 0;
  int64_t rank = 0;
  int64_t boost = 0;
};

/// Knobs for the traffic engine. Every field has a quiet default so tests
/// can enable exactly the effect under study.
struct TrafficConfig {
  /// Master seed: two engines with equal configs fed the same server
  /// evolution emit identical traffic (the replayability contract).
  uint64_t seed = 0x7aff1cull;

  /// Mean new-stream arrivals per round before modulation (Poisson).
  double arrivals_per_round = 1.0;

  /// Object popularity skew (0 = uniform; ~0.729 = classic VoD Zipf).
  double zipf_theta = 0.729;

  /// Diurnal load curve: the arrival mean is scaled by
  /// `1 + amplitude * sin(2*pi * round / period)` — the day/night swing of
  /// a VoD service compressed to simulation rounds. `amplitude` in [0, 1);
  /// 0 disables. `period` must be > 0 when amplitude is set.
  double diurnal_amplitude = 0.0;
  int64_t diurnal_period = 1440;

  /// Scheduled flash crowds (may overlap; boosts add).
  std::vector<FlashCrowd> flash_crowds = {};

  /// Per-active-stream, per-round probabilities of VCR events. A paused
  /// stream rolls only `resume_probability`; a playing stream rolls pause
  /// then seek.
  double pause_probability = 0.0;
  double resume_probability = 0.0;
  double seek_probability = 0.0;
};

/// OK when `config` is in range (probabilities in [0, 1], counts and rates
/// finite and non-negative, a positive period under a diurnal curve);
/// InvalidArgument naming the first bad setting otherwise. The engine
/// requires it.
Status ValidateTrafficConfig(const TrafficConfig& config);

/// The VCR/seek half of a round's traffic, keyed by stream id.
struct SeekEvent {
  int64_t stream_id = 0;
  BlockIndex block = 0;
};

/// Everything the engine decided for one round. Deterministic given the
/// config seed and the (round, active-stream) inputs, so a scenario that
/// records its config can be replayed bit-for-bit.
struct RoundTraffic {
  int64_t round = 0;
  std::vector<ObjectId> arrivals;     // New stream requests (by object).
  std::vector<int64_t> pauses;        // Stream ids to pause.
  std::vector<int64_t> resumes;       // Stream ids to resume.
  std::vector<SeekEvent> seeks;       // Streams jumping position.
};

/// The active-stream view the engine rolls VCR events over: a bare server's
/// streams, in the order `streams()` keeps them. `cluster/cluster_server.h`
/// overloads it for a cluster.
inline const std::vector<Stream>& StreamView(const CmServer& server) {
  return server.streams();
}

/// Seeded, replayable traffic generator for the examples, the serving
/// benches, the scenario DSL and the twin-server stress tests: Poisson
/// arrivals over Zipf object popularity, a diurnal load curve, scheduled
/// flash crowds and per-stream VCR events (pause / resume / random seek),
/// all drawn from one private PRNG so a `(config, server history)` pair maps
/// to exactly one traffic trace. With the curve, the crowds and VCR off it
/// is the plain Poisson+Zipf arrival source; the rest are the time-varying
/// and interactive effects the paper's Section 1 motivates (VCR operations
/// are motivation #4 for random placement).
class TrafficEngine {
 public:
  explicit TrafficEngine(const TrafficConfig& config);

  /// Registers the requestable objects; index order is popularity rank
  /// (first = most popular). Must be called before generating traffic.
  /// Resets the popularity CDF, not the PRNG (arrival streams stay
  /// deterministic across catalog growth).
  void SetObjects(std::vector<ObjectId> objects);

  /// Decides the round's traffic from the current active-stream view.
  /// Pure sampling: does not touch the server.
  RoundTraffic NextRound(int64_t round, const std::vector<Stream>& active);

  /// Pointer-view overload for callers whose active streams don't live in
  /// one vector (the cluster layer concatenates its shards' stream vectors
  /// in seat order). Same draws in the same order: a 1-shard cluster view
  /// replays bit-for-bit against the vector overload.
  RoundTraffic NextRound(int64_t round,
                         const std::vector<const Stream*>& active);

  /// Runs one round of `target`, a `CmServer` or a `ClusterServer`: draws
  /// the round's traffic over `StreamView(target)`, starts each arrival
  /// through the target's admission and hands the result to `on_arrival`,
  /// applies the pauses, then the resumes, then the seeks, and ticks. A
  /// non-OK status from `on_arrival` abandons the round before the tick.
  template <typename Target, typename OnArrival>
  StatusOr<decltype(std::declval<Target&>().Tick())> Drive(
      Target& target, OnArrival on_arrival) {
    const RoundTraffic traffic = NextRound(target.round(), StreamView(target));
    for (const ObjectId object : traffic.arrivals) {
      SCADDAR_RETURN_IF_ERROR(on_arrival(target.StartStream(object)));
    }
    for (const int64_t id : traffic.pauses) {
      SCADDAR_CHECK(target.PauseStream(id).ok());
    }
    for (const int64_t id : traffic.resumes) {
      SCADDAR_CHECK(target.ResumeStream(id).ok());
    }
    for (const SeekEvent& seek : traffic.seeks) {
      SCADDAR_CHECK(target.SeekStream(seek.stream_id, seek.block).ok());
    }
    return target.Tick();
  }

  /// `Drive` where no refusal is fatal: every arrival the target refuses
  /// counts in `rejected_arrivals()`. Returns the tick's metrics.
  template <typename Target>
  auto DriveRound(Target& target) {
    return Drive(target, [this](const StatusOr<int64_t>& id) {
             rejected_arrivals_ += id.ok() ? 0 : 1;
             return OkStatus();
           }).value();
  }

  /// Arrivals refused across all `DriveRound` calls.
  int64_t rejected_arrivals() const { return rejected_arrivals_; }

  /// The arrival mean after diurnal modulation at `round` (flash-crowd
  /// boosts are separate, deterministic adds). Exposed for tests.
  double ModulatedArrivalMean(int64_t round) const;

 private:
  TrafficConfig config_;
  std::unique_ptr<Prng> prng_;
  std::vector<ObjectId> objects_;
  std::unique_ptr<ZipfDistribution> popularity_;
  int64_t rejected_arrivals_ = 0;
};

}  // namespace scaddar

#endif  // SCADDAR_SERVER_WORKLOAD_TRAFFIC_ENGINE_H_
