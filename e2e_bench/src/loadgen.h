#ifndef SCADDAR_E2E_BENCH_LOADGEN_H_
#define SCADDAR_E2E_BENCH_LOADGEN_H_

// The benchmark's own load generator. It shares no code with the program's
// traffic engine, so a change to the program cannot change the inputs the
// benchmark feeds it: the same seed always yields the same arrivals,
// objects and VCR schedules.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <queue>
#include <utility>
#include <vector>

namespace scaddar::e2e {

/// splitmix64: tiny, fast, and fully specified here.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}

  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }

  /// Uniform in [0, 1).
  double Uniform() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

  /// Uniform in [lo, hi] (inclusive; requires lo <= hi).
  int64_t Between(int64_t lo, int64_t hi) {
    const uint64_t span = static_cast<uint64_t>(hi - lo) + 1;
    return lo + static_cast<int64_t>(Next() % span);
  }

 private:
  uint64_t state_;
};

/// Knuth's product method; exact for the small means the workloads use.
inline int64_t Poisson(Rng& rng, double mean) {
  const double limit = std::exp(-mean);
  int64_t count = 0;
  double product = rng.Uniform();
  while (product > limit) {
    ++count;
    product *= rng.Uniform();
  }
  return count;
}

/// Zipf(theta) over ranks [0, n): P(rank i) proportional to 1/(i+1)^theta.
class Zipf {
 public:
  Zipf(int64_t n, double theta) : cdf_(static_cast<size_t>(n)) {
    double total = 0;
    for (int64_t i = 0; i < n; ++i) {
      total += 1.0 / std::pow(static_cast<double>(i + 1), theta);
      cdf_[static_cast<size_t>(i)] = total;
    }
    for (double& c : cdf_) {
      c /= total;
    }
  }

  int64_t Sample(Rng& rng) const {
    const double u = rng.Uniform();
    const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
    return std::min<int64_t>(it - cdf_.begin(),
                             static_cast<int64_t>(cdf_.size()) - 1);
  }

 private:
  std::vector<double> cdf_;
};

// Object popularity and the VCR mix are the same on every workload; only the
// arrival rate differs.
inline constexpr double kZipfTheta = 0.729;
inline constexpr double kPauseProbability = 0.5;  // Per admitted stream.
inline constexpr int64_t kPauseMinRounds = 5;
inline constexpr int64_t kPauseMaxRounds = 60;
inline constexpr double kSeekProbability = 0.3;  // Per admitted stream.

enum class VcrKind { kPause, kResume, kSeek };

struct VcrEvent {
  int64_t round = 0;
  VcrKind kind = VcrKind::kPause;
  int64_t stream = 0;
  int64_t arg = 0;  // Pause: rounds until resume. Seek: target block.
};

/// Arrivals are Poisson per round with Zipf-ranked objects; every admitted
/// stream draws its own pause (with a later resume) and seek events. Objects
/// are addressed by popularity rank; the caller maps ranks to object ids.
class LoadGenerator {
 public:
  /// `arrivals_per_round` is the Poisson mean.
  LoadGenerator(uint64_t seed, double arrivals_per_round,
                std::vector<int64_t> blocks_by_rank)
      : arrivals_per_round_(arrivals_per_round),
        arrivals_(seed ^ 0xa441ull),
        vcr_(seed ^ 0x7c2ull),
        zipf_(static_cast<int64_t>(blocks_by_rank.size()), kZipfTheta),
        blocks_by_rank_(std::move(blocks_by_rank)) {}

  /// Object ranks requested this round.
  void NextArrivals(std::vector<int64_t>& ranks) {
    ranks.clear();
    const int64_t n = Poisson(arrivals_, arrivals_per_round_);
    for (int64_t i = 0; i < n; ++i) {
      ranks.push_back(zipf_.Sample(arrivals_));
      Mix(static_cast<uint64_t>(ranks.back()));
    }
  }

  /// Draws the VCR schedule of a stream admitted at `round` for `rank`.
  void OnAdmitted(int64_t stream, int64_t rank, int64_t round) {
    const int64_t blocks = blocks_by_rank_[static_cast<size_t>(rank)];
    if (vcr_.Uniform() < kPauseProbability) {
      Push({round + vcr_.Between(1, blocks - 1), VcrKind::kPause, stream,
            vcr_.Between(kPauseMinRounds, kPauseMaxRounds)});
    }
    if (vcr_.Uniform() < kSeekProbability) {
      Push({round + vcr_.Between(1, blocks - 1), VcrKind::kSeek, stream,
            vcr_.Between(0, blocks - 1)});
    }
  }

  /// A pause that reached a live stream schedules its resume.
  void OnPauseApplied(const VcrEvent& pause) {
    Push({pause.round + pause.arg, VcrKind::kResume, pause.stream, 0});
  }

  /// Pops every event due at or before `round`.
  void DueEvents(int64_t round, std::vector<VcrEvent>& out) {
    out.clear();
    while (!events_.empty() && events_.top().event.round <= round) {
      out.push_back(events_.top().event);
      events_.pop();
    }
  }

  /// Running hash of every draw: equal seeds give equal digests.
  uint64_t digest() const { return digest_; }

 private:
  struct Queued {
    VcrEvent event;
    int64_t seq = 0;
    bool operator>(const Queued& other) const {
      return event.round != other.event.round ? event.round > other.event.round
                                              : seq > other.seq;
    }
  };

  void Push(const VcrEvent& event) {
    events_.push(Queued{event, next_seq_++});
    Mix(static_cast<uint64_t>(event.round) * 31 +
        static_cast<uint64_t>(event.arg));
  }

  void Mix(uint64_t value) {
    digest_ = (digest_ ^ value) * 0x100000001b3ull;
  }

  double arrivals_per_round_;
  Rng arrivals_;
  Rng vcr_;
  Zipf zipf_;
  std::vector<int64_t> blocks_by_rank_;
  std::priority_queue<Queued, std::vector<Queued>, std::greater<Queued>>
      events_;
  int64_t next_seq_ = 0;
  uint64_t digest_ = 0xcbf29ce484222325ull;
};

}  // namespace scaddar::e2e

#endif  // SCADDAR_E2E_BENCH_LOADGEN_H_
