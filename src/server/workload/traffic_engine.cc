#include "server/workload/traffic_engine.h"

#include <cmath>
#include <utility>

#include "util/status.h"

namespace scaddar {

Status ValidateTrafficConfig(const TrafficConfig& config) {
  // Written so that NaN fails every range.
  const auto finite_non_negative = [](double x) {
    return x >= 0.0 && std::isfinite(x);
  };
  const auto probability = [](double p) { return p >= 0.0 && p <= 1.0; };
  if (!finite_non_negative(config.arrivals_per_round)) {
    return InvalidArgumentError("traffic arrivals must be finite and >= 0");
  }
  if (!finite_non_negative(config.zipf_theta)) {
    return InvalidArgumentError("traffic zipf theta must be finite and >= 0");
  }
  if (!(config.diurnal_amplitude >= 0.0 && config.diurnal_amplitude < 1.0)) {
    return InvalidArgumentError("traffic diurnal amplitude must be in [0, 1)");
  }
  if (config.diurnal_amplitude > 0.0 && config.diurnal_period <= 0) {
    return InvalidArgumentError("traffic diurnal period must be > 0");
  }
  for (const FlashCrowd& crowd : config.flash_crowds) {
    if (crowd.duration < 0 || crowd.boost < 0 || crowd.rank < 0) {
      return InvalidArgumentError(
          "traffic flash duration, rank and boost must be >= 0");
    }
  }
  if (!probability(config.pause_probability) ||
      !probability(config.resume_probability) ||
      !probability(config.seek_probability)) {
    return InvalidArgumentError("traffic vcr probabilities must be in [0, 1]");
  }
  return OkStatus();
}

TrafficEngine::TrafficEngine(const TrafficConfig& config)
    : config_(config),
      prng_(MakePrng(PrngKind::kSplitMix64, config.seed)) {
  SCADDAR_CHECK(ValidateTrafficConfig(config).ok());
}

void TrafficEngine::SetObjects(std::vector<ObjectId> objects) {
  SCADDAR_CHECK(!objects.empty());
  objects_ = std::move(objects);
  popularity_ = std::make_unique<ZipfDistribution>(
      static_cast<int64_t>(objects_.size()), config_.zipf_theta);
}

double TrafficEngine::ModulatedArrivalMean(int64_t round) const {
  double mean = config_.arrivals_per_round;
  if (config_.diurnal_amplitude > 0.0) {
    constexpr double kTau = 6.283185307179586;
    mean *= 1.0 + config_.diurnal_amplitude *
                      std::sin(kTau * static_cast<double>(round) /
                               static_cast<double>(config_.diurnal_period));
  }
  return mean;
}

RoundTraffic TrafficEngine::NextRound(int64_t round,
                                      const std::vector<Stream>& active) {
  std::vector<const Stream*> view;
  view.reserve(active.size());
  for (const Stream& stream : active) {
    view.push_back(&stream);
  }
  return NextRound(round, view);
}

RoundTraffic TrafficEngine::NextRound(
    int64_t round, const std::vector<const Stream*>& active) {
  SCADDAR_CHECK(popularity_ != nullptr);
  RoundTraffic traffic;
  traffic.round = round;

  // Background arrivals: Poisson around the diurnally modulated mean,
  // objects drawn by Zipf rank.
  const int64_t background = PoissonSample(*prng_, ModulatedArrivalMean(round));
  traffic.arrivals.reserve(static_cast<size_t>(background));
  for (int64_t i = 0; i < background; ++i) {
    const int64_t rank = popularity_->Sample(*prng_);
    traffic.arrivals.push_back(objects_[static_cast<size_t>(rank)]);
  }

  // Flash crowds: a deterministic burst aimed at one rank. The *count* is
  // exact (the premiere starts on schedule whatever the dice say); only
  // which background clients it displaces is random.
  for (const FlashCrowd& crowd : config_.flash_crowds) {
    if (round < crowd.start_round || round >= crowd.start_round + crowd.duration) {
      continue;
    }
    const size_t rank = static_cast<size_t>(
        std::min(crowd.rank,
                 static_cast<int64_t>(objects_.size()) - 1));
    for (int64_t i = 0; i < crowd.boost; ++i) {
      traffic.arrivals.push_back(objects_[rank]);
    }
  }

  // VCR events, rolled per active stream in view order (deterministic).
  for (const Stream* stream : active) {
    if (stream->finished()) {
      continue;
    }
    if (stream->paused()) {
      if (Bernoulli(*prng_, config_.resume_probability)) {
        traffic.resumes.push_back(stream->id());
      }
      continue;
    }
    if (config_.pause_probability > 0.0 &&
        Bernoulli(*prng_, config_.pause_probability)) {
      traffic.pauses.push_back(stream->id());
      continue;
    }
    if (config_.seek_probability > 0.0 &&
        Bernoulli(*prng_, config_.seek_probability)) {
      traffic.seeks.push_back(SeekEvent{
          stream->id(),
          static_cast<BlockIndex>(UniformUint64(
              *prng_, static_cast<uint64_t>(stream->num_blocks())))});
    }
  }
  return traffic;
}

}  // namespace scaddar
