#include "faults/injector.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <iterator>

#include "random/distributions.h"
#include "util/tokens.h"

namespace scaddar {

namespace {

constexpr std::string_view kHeader = "faults-v1";

// One schedule line per event: its kind's token, then the kind's fields.
// `tokens` counts the kind token too.
struct KindSyntax {
  FaultKind kind;
  std::string_view token;
  size_t tokens;
};

constexpr KindSyntax kKindSyntax[] = {
    {FaultKind::kCrash, "crash", 4},
    {FaultKind::kDiskFail, "fail", 3},
    {FaultKind::kTransientError, "transient", 4},
    {FaultKind::kHook, "hook", 3},
    {FaultKind::kBackendError, "backend", 5},
    {FaultKind::kSnapshotCrash, "snapcrash", 3},
    {FaultKind::kSnapshotCorrupt, "snapcorrupt", 3},
};

std::string_view KindToken(FaultKind kind) {
  for (const KindSyntax& syntax : kKindSyntax) {
    if (syntax.kind == kind) {
      return syntax.token;
    }
  }
  SCADDAR_CHECK(false);
  return {};
}

const char* BackendKindToken(BackendFaultKind kind) {
  return kind == BackendFaultKind::kShort ? "short" : "eio";
}

StatusOr<int64_t> ParseInt(std::string_view token) {
  return ParseIntToken(token, "fault schedule");
}

StatusOr<double> ParseDouble(std::string_view token) {
  const std::string copy(token);
  char* end = nullptr;
  const double value = std::strtod(copy.c_str(), &end);
  if (end != copy.c_str() + copy.size()) {
    return InvalidArgumentError("malformed probability in fault schedule");
  }
  return value;
}

}  // namespace

FaultSchedule FaultSchedule::Random(uint64_t seed,
                                    const RandomScheduleOptions& options) {
  auto prng = MakePrng(PrngKind::kSplitMix64, seed);
  FaultSchedule schedule;
  for (int64_t i = 0; i < options.crashes; ++i) {
    FaultEvent event;
    event.kind = FaultKind::kCrash;
    event.round = -1;
    event.move = static_cast<int64_t>(UniformUint64(
        *prng, static_cast<uint64_t>(std::max<int64_t>(
                   options.max_crash_move, 1))));
    event.phase = static_cast<MovePhase>(
        UniformUint64(*prng, static_cast<uint64_t>(kNumMovePhases)));
    schedule.Add(event);
  }
  int64_t next_round = 1;
  for (int64_t i = 0; i < options.disk_failures; ++i) {
    FaultEvent event;
    event.kind = FaultKind::kDiskFail;
    event.round =
        next_round + static_cast<int64_t>(UniformUint64(
                         *prng, static_cast<uint64_t>(std::max<int64_t>(
                                    options.max_round, 2))));
    next_round = event.round + options.failure_spacing;
    event.disk = static_cast<PhysicalDiskId>(UniformUint64(
        *prng,
        static_cast<uint64_t>(std::max<int64_t>(options.max_disk_id, 1))));
    schedule.Add(event);
  }
  if (options.transient_probability > 0.0) {
    FaultEvent event;
    event.kind = FaultKind::kTransientError;
    event.round = -1;
    event.disk = -1;
    event.probability = options.transient_probability;
    schedule.Add(event);
  }
  return schedule;
}

std::string FaultSchedule::Serialize() const {
  std::string out(kHeader);
  out += '\n';
  char buffer[160];
  for (const FaultEvent& event : events_) {
    switch (event.kind) {
      case FaultKind::kCrash:
        std::snprintf(buffer, sizeof(buffer), " %lld %lld %d\n",
                      static_cast<long long>(event.round),
                      static_cast<long long>(event.move),
                      static_cast<int>(event.phase));
        break;
      case FaultKind::kDiskFail:
        std::snprintf(buffer, sizeof(buffer), " %lld %lld\n",
                      static_cast<long long>(event.round),
                      static_cast<long long>(event.disk));
        break;
      case FaultKind::kTransientError:
        std::snprintf(buffer, sizeof(buffer), " %lld %lld %.17g\n",
                      static_cast<long long>(event.round),
                      static_cast<long long>(event.disk), event.probability);
        break;
      case FaultKind::kHook:
        std::snprintf(buffer, sizeof(buffer), " %lld %lld\n",
                      static_cast<long long>(event.round),
                      static_cast<long long>(event.move));
        break;
      case FaultKind::kBackendError:
        std::snprintf(buffer, sizeof(buffer), " %lld %lld %s %.17g\n",
                      static_cast<long long>(event.round),
                      static_cast<long long>(event.disk),
                      BackendKindToken(event.backend), event.probability);
        break;
      case FaultKind::kSnapshotCrash:
        std::snprintf(buffer, sizeof(buffer), " %lld %d\n",
                      static_cast<long long>(event.move),
                      static_cast<int>(event.snapshot_phase));
        break;
      case FaultKind::kSnapshotCorrupt:
        std::snprintf(buffer, sizeof(buffer), " %lld %lld\n",
                      static_cast<long long>(event.move),
                      static_cast<long long>(event.disk));
        break;
    }
    out += KindToken(event.kind);
    out += buffer;
  }
  return out;
}

StatusOr<FaultSchedule> FaultSchedule::Deserialize(std::string_view text) {
  FaultSchedule schedule;
  bool header_seen = false;
  std::string_view rest = text;
  while (!rest.empty()) {
    const size_t eol = rest.find('\n');
    std::string_view line = rest.substr(0, eol);
    rest = eol == std::string_view::npos ? std::string_view()
                                         : rest.substr(eol + 1);
    const size_t hash = line.find('#');
    if (hash != std::string_view::npos) {
      line = line.substr(0, hash);
    }
    const std::vector<std::string_view> tokens = SplitTokens(line);
    if (tokens.empty()) {
      continue;
    }
    if (!header_seen) {
      if (tokens.size() != 1 || tokens[0] != kHeader) {
        return InvalidArgumentError("unrecognized fault schedule header");
      }
      header_seen = true;
      continue;
    }
    const auto* syntax = std::find_if(
        std::begin(kKindSyntax), std::end(kKindSyntax),
        [&tokens](const KindSyntax& candidate) {
          return candidate.token == tokens[0] &&
                 candidate.tokens == tokens.size();
        });
    if (syntax == std::end(kKindSyntax)) {
      return InvalidArgumentError("unrecognized fault schedule line");
    }
    FaultEvent event;
    event.kind = syntax->kind;
    if (event.kind == FaultKind::kCrash) {
      SCADDAR_ASSIGN_OR_RETURN(event.round, ParseInt(tokens[1]));
      SCADDAR_ASSIGN_OR_RETURN(event.move, ParseInt(tokens[2]));
      SCADDAR_ASSIGN_OR_RETURN(const int64_t phase, ParseInt(tokens[3]));
      if (phase < 0 || phase >= kNumMovePhases) {
        return InvalidArgumentError("crash phase out of range");
      }
      event.phase = static_cast<MovePhase>(phase);
    } else if (event.kind == FaultKind::kDiskFail) {
      SCADDAR_ASSIGN_OR_RETURN(event.round, ParseInt(tokens[1]));
      SCADDAR_ASSIGN_OR_RETURN(event.disk, ParseInt(tokens[2]));
    } else if (event.kind == FaultKind::kTransientError) {
      SCADDAR_ASSIGN_OR_RETURN(event.round, ParseInt(tokens[1]));
      SCADDAR_ASSIGN_OR_RETURN(event.disk, ParseInt(tokens[2]));
      SCADDAR_ASSIGN_OR_RETURN(event.probability, ParseDouble(tokens[3]));
      // Negated so NaN (which fails every comparison) is also rejected.
      if (!(event.probability >= 0.0 && event.probability <= 1.0)) {
        return InvalidArgumentError("transient probability outside [0, 1]");
      }
    } else if (event.kind == FaultKind::kHook) {
      SCADDAR_ASSIGN_OR_RETURN(event.round, ParseInt(tokens[1]));
      SCADDAR_ASSIGN_OR_RETURN(event.move, ParseInt(tokens[2]));
    } else if (event.kind == FaultKind::kBackendError) {
      SCADDAR_ASSIGN_OR_RETURN(event.round, ParseInt(tokens[1]));
      SCADDAR_ASSIGN_OR_RETURN(event.disk, ParseInt(tokens[2]));
      if (tokens[3] == "eio") {
        event.backend = BackendFaultKind::kEio;
      } else if (tokens[3] == "short") {
        event.backend = BackendFaultKind::kShort;
      } else {
        return InvalidArgumentError("unrecognized backend fault kind");
      }
      SCADDAR_ASSIGN_OR_RETURN(event.probability, ParseDouble(tokens[4]));
      if (!(event.probability >= 0.0 && event.probability <= 1.0)) {
        return InvalidArgumentError("backend probability outside [0, 1]");
      }
    } else if (event.kind == FaultKind::kSnapshotCrash) {
      SCADDAR_ASSIGN_OR_RETURN(event.move, ParseInt(tokens[1]));
      SCADDAR_ASSIGN_OR_RETURN(const int64_t phase, ParseInt(tokens[2]));
      if (phase < 0 || phase >= kNumSnapshotPhases) {
        return InvalidArgumentError("snapshot crash phase out of range");
      }
      event.snapshot_phase = static_cast<SnapshotPhase>(phase);
    } else {  // kSnapshotCorrupt
      SCADDAR_ASSIGN_OR_RETURN(event.move, ParseInt(tokens[1]));
      SCADDAR_ASSIGN_OR_RETURN(event.disk, ParseInt(tokens[2]));
    }
    schedule.Add(event);
  }
  if (!header_seen) {
    return InvalidArgumentError("empty fault schedule");
  }
  return schedule;
}

FaultInjector::FaultInjector(FaultSchedule schedule, uint64_t seed)
    : schedule_(std::move(schedule)),
      fired_(schedule_.events().size(), false),
      prng_(MakePrng(PrngKind::kSplitMix64, seed ^ 0xfa17ull)) {}

void FaultInjector::BeginRound(int64_t round) { round_ = round; }

std::vector<PhysicalDiskId> FaultInjector::TakeDiskFailures() {
  std::vector<PhysicalDiskId> disks;
  const std::vector<FaultEvent>& events = schedule_.events();
  for (size_t i = 0; i < events.size(); ++i) {
    const FaultEvent& event = events[i];
    if (event.kind != FaultKind::kDiskFail || fired_[i] ||
        !RoundMatches(event)) {
      continue;
    }
    fired_[i] = true;
    ++disk_failures_fired_;
    disks.push_back(event.disk);
  }
  return disks;
}

void FaultInjector::BeginMove() {
  ++move_;
  const std::vector<FaultEvent>& events = schedule_.events();
  for (size_t i = 0; i < events.size(); ++i) {
    const FaultEvent& event = events[i];
    if (event.kind != FaultKind::kHook || fired_[i] || !RoundMatches(event) ||
        event.move != move_) {
      continue;
    }
    fired_[i] = true;
    ++hooks_fired_;
    if (hook_) {
      hook_();
    }
  }
}

bool FaultInjector::CrashAt(MovePhase phase) {
  const std::vector<FaultEvent>& events = schedule_.events();
  for (size_t i = 0; i < events.size(); ++i) {
    const FaultEvent& event = events[i];
    if (event.kind != FaultKind::kCrash || fired_[i] || !RoundMatches(event) ||
        event.move != move_ || event.phase != phase) {
      continue;
    }
    fired_[i] = true;
    ++crashes_fired_;
    return true;
  }
  return false;
}

bool FaultInjector::TransientHits(PhysicalDiskId a, PhysicalDiskId b) {
  const std::vector<FaultEvent>& events = schedule_.events();
  for (const FaultEvent& event : events) {
    if (event.kind != FaultKind::kTransientError || !RoundMatches(event)) {
      continue;
    }
    if (event.disk >= 0 && event.disk != a && event.disk != b) {
      continue;
    }
    if (Bernoulli(*prng_, event.probability)) {
      ++transient_errors_fired_;
      return true;
    }
  }
  return false;
}

bool FaultInjector::FailTransfer(PhysicalDiskId from, PhysicalDiskId to) {
  return TransientHits(from, to);
}

bool FaultInjector::FailRead(PhysicalDiskId disk) {
  return TransientHits(disk, disk);
}

void FaultInjector::BeginSnapshot() { ++snapshot_; }

bool FaultInjector::CrashAtSnapshot(SnapshotPhase phase) {
  const std::vector<FaultEvent>& events = schedule_.events();
  for (size_t i = 0; i < events.size(); ++i) {
    const FaultEvent& event = events[i];
    if (event.kind != FaultKind::kSnapshotCrash || fired_[i] ||
        event.move != snapshot_ || event.snapshot_phase != phase) {
      continue;
    }
    fired_[i] = true;
    ++snapshot_crashes_fired_;
    return true;
  }
  return false;
}

bool FaultInjector::CorruptSnapshotAt(int64_t location) {
  const std::vector<FaultEvent>& events = schedule_.events();
  for (size_t i = 0; i < events.size(); ++i) {
    const FaultEvent& event = events[i];
    if (event.kind != FaultKind::kSnapshotCorrupt || fired_[i] ||
        event.move != snapshot_ ||
        (event.disk >= 0 && event.disk != location)) {
      continue;
    }
    fired_[i] = true;
    ++snapshot_corruptions_fired_;
    return true;
  }
  return false;
}

std::optional<BackendFaultKind> FaultInjector::NextBackendFault(
    PhysicalDiskId disk) {
  const std::vector<FaultEvent>& events = schedule_.events();
  for (const FaultEvent& event : events) {
    if (event.kind != FaultKind::kBackendError || !RoundMatches(event)) {
      continue;
    }
    if (event.disk >= 0 && event.disk != disk) {
      continue;
    }
    if (Bernoulli(*prng_, event.probability)) {
      ++backend_faults_fired_;
      return event.backend;
    }
  }
  return std::nullopt;
}

}  // namespace scaddar
