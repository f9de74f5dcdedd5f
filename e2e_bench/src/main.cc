// Whole-run wall-clock benchmark of the SCADDAR continuous-media server.
//
// Usage: scaddar_e2e --workload <name> --seed <n> --seconds <s>
//                    --trace <0|1> --out-dir <dir>
//
// After one untimed warm-up, repeats the workload's episode (set-up, untimed
// ramp, timed phase) until `--seconds` have passed, cycling through eight
// inputs derived from `--seed`. `--trace 0` covers each input at least once
// and reports the end-to-end metrics; `--trace 1` alternates untraced and
// traced episodes, reports the per-layer metrics from the traced ones and
// the tracing overhead between the two, and writes the first traced
// episode's spans to `<out-dir>/trace_<workload>.json`. Prints a report,
// then one JSON line: {"correct", "attempted", "failed", "metrics"}. Exits 1
// when any correctness check fails, and 3 without a result when
// `uring_mixed` cannot run io_uring on a private tmpfs.

#include <malloc.h>
#include <sched.h>
#include <sys/mount.h>
#include <sys/resource.h>
#include <linux/magic.h>
#include <sys/vfs.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <limits>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "bench/bench_util.h"
#include "episode.h"
#include "loadgen.h"
#include "closed_loop.h"
#include "host_probe.h"
#include "storage/storage_backend.h"
#include "trace.h"
#include "workloads.h"

namespace scaddar::e2e {
namespace {

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string out_dir;
};

bool ParseArgs(int argc, char** argv, Args& args) {
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false, have_out = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string_view key = argv[i];
    const std::string_view value = argv[i + 1];
    const char* end = value.data() + value.size();
    if (key == "--workload") {
      args.workload = std::string(value);
      have_workload = true;
    } else if (key == "--seed") {
      have_seed = std::from_chars(value.data(), end, args.seed).ptr == end;
    } else if (key == "--seconds") {
      int64_t seconds = 0;
      have_seconds = std::from_chars(value.data(), end, seconds).ptr == end &&
                     seconds >= 1 && seconds <= 120;
      args.seconds = static_cast<double>(seconds);
    } else if (key == "--trace") {
      have_trace = value == "0" || value == "1";
      args.trace = value == "1";
    } else if (key == "--out-dir") {
      args.out_dir = std::string(value);
      have_out = !value.empty();
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && have_workload && have_seed && have_seconds &&
         have_trace && have_out;
}

/// Nearest-rank quantile (q in [0, 1]); 0 for no samples.
double Quantile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<size_t>(
      std::max(1.0, std::ceil(q * static_cast<double>(values.size()))));
  return values[std::min(rank, values.size()) - 1];
}

double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// The host's speed over a stretch of work: the mean over the reference
/// slices taken in it of the sizing host's slice time over the slice's time
/// (about 1 on a quiet host, 0.6 under the heaviest contention seen).
/// Slices come at even intervals, so this weights speed by time spent.
double HostSpeed(const std::vector<double>& slices, size_t begin, size_t end) {
  double sum = 0;
  for (size_t i = begin; i < end; ++i) {
    sum += Ratio(kReferenceSliceS, slices[i]);
  }
  return Ratio(sum, static_cast<double>(end - begin));
}

double HostSpeed(const std::vector<double>& slices) {
  return HostSpeed(slices, 0, slices.size());
}

/// What a time measured at host speed `speed` is multiplied by to read at
/// reference speed.
double SpeedScale(double speed) { return std::pow(speed, kSpeedExponent); }

/// Each timed round's CPU time scaled by the host's speed around it: the
/// slices within `kRoundWindow` of the round, about 20 ms on either side.
/// Host speed changes within an episode, so one factor per episode would
/// blur a round-time percentile.
std::vector<double> ScaledRoundCpu(const EpisodeResult& r) {
  constexpr size_t kRoundWindow = 4;
  std::vector<double> scaled(r.round_cpu_us.size());
  for (size_t i = 0; i < scaled.size(); ++i) {
    const auto taken = static_cast<size_t>(r.round_probes[i]);
    const size_t begin = taken > kRoundWindow ? taken - kRoundWindow : 0;
    const size_t end = std::min(taken + kRoundWindow, r.probe_s.size());
    scaled[i] =
        r.round_cpu_us[i] * SpeedScale(HostSpeed(r.probe_s, begin, end));
  }
  return scaled;
}

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::string note;  // Sample counts and the like, for the report only.
};

/// Each run cycles its episodes through this many inputs derived from
/// `--seed`, so its medians and rates average over several inputs, not one.
/// Inputs differ: `scale_churn`'s round p50 by ~8% between inputs, so with
/// four inputs its run-to-run spread was up to 0.13.
constexpr int kInputs = 8;

uint64_t InputSeed(uint64_t seed, int input) {
  return seed * kInputs + static_cast<uint64_t>(input);
}

/// The median of each input's episodes, then the mean over the inputs: the
/// inputs differ in cost by up to ~15%, and how many episodes each gets
/// depends on timing, so a plain median would move with that mix.
double InputMedian(const std::vector<double>& values,
                   const std::vector<const EpisodeResult*>& runs) {
  std::map<int, std::vector<double>> by_input;
  for (size_t i = 0; i < values.size(); ++i) {
    by_input[runs[i]->input].push_back(values[i]);
  }
  double sum = 0;
  for (auto& [input, group] : by_input) {
    sum += Median(std::move(group));
  }
  return Ratio(sum, static_cast<double>(by_input.size()));
}

/// Every end-to-end metric of the README table, from untraced episodes.
/// Counts and rates pool the first `kInputs` episodes, one per input, so
/// they repeat exactly for a given seed.
std::vector<Metric> EndToEnd(const std::vector<const EpisodeResult*>& runs,
                             double peak_rss_mb) {
  // Round percentiles are taken per episode (each has >= 1000 rounds, so
  // >= 10 samples lie beyond p99), then the median over each input's
  // episodes, so one disturbed episode cannot move them.
  // Set-up and CPU times are scaled by the host's speed while they were
  // measured (see host_probe.h); wall times are reported as measured.
  std::vector<double> setup, run, cpu, p50, p99, cpu_p50, cpu_p99, scale,
      raw_cpu, speed;
  for (const EpisodeResult* r : runs) {
    for (size_t i = 0; i < r->setup_s.size(); ++i) {
      setup.push_back(r->setup_s[i] *
                      SpeedScale(Ratio(kReferenceSliceS, r->setup_probe_s[i])));
    }
    const double host = HostSpeed(r->probe_s);
    speed.push_back(host);
    run.push_back(r->run_s);
    raw_cpu.push_back(r->cpu_s - r->gen_s);
    cpu.push_back(raw_cpu.back() * SpeedScale(host));
    p50.push_back(Quantile(r->round_us, 0.50));
    p99.push_back(Quantile(r->round_us, 0.99));
    const std::vector<double> round_cpu = ScaledRoundCpu(*r);
    cpu_p50.push_back(Quantile(round_cpu, 0.50));
    cpu_p99.push_back(Quantile(round_cpu, 0.99));
    scale.insert(scale.end(), r->scale_ms.begin(), r->scale_ms.end());
  }
  Counts c;  // Per-episode mean over the inputs for counts; sums for rates.
  const size_t pooled = std::min<size_t>(runs.size(), kInputs);
  for (size_t i = 0; i < pooled; ++i) {
    const Counts& r = runs[i]->counts;
    c.rounds += r.rounds;
    c.converge_rounds += r.converge_rounds;
    c.migrated_blocks += r.migrated_blocks;
    c.cross_shard_blocks += r.cross_shard_blocks;
    c.requests += r.requests;
    c.hiccups += r.hiccups;
    c.stream_calls += r.stream_calls;
    c.rejected += r.rejected;
    c.startup_p99_rounds += r.startup_p99_rounds;
    c.dropped_streams += r.dropped_streams;
  }
  const auto per_episode = [pooled](int64_t total) {
    return static_cast<double>(total) / static_cast<double>(pooled);
  };
  const std::string inputs =
      "mean over " + std::to_string(pooled) + " inputs";
  const std::string episodes = "per-input median of " +
                               std::to_string(runs.size()) + " episodes";
  const std::string round_n =
      episodes + " of n=" + std::to_string(runs.front()->round_us.size()) +
      " rounds";
  return {
      {"setup_s", Median(setup), "s",
       "median of " + std::to_string(setup.size()) +
           " set-ups, at reference speed"},
      {"run_s", InputMedian(run, runs), "s", episodes},
      {"run_cpu_s", InputMedian(cpu, runs), "s",
       episodes + ", all threads, at reference speed"},
      {"run_cpu_raw_s", InputMedian(raw_cpu, runs), "s",
       episodes + ", as measured"},
      {"host_speed", InputMedian(speed, runs), "ratio", episodes},
      {"round_p50_us", InputMedian(p50, runs), "us", round_n},
      {"round_p99_us", InputMedian(p99, runs), "us", round_n},
      {"round_cpu_p50_us", InputMedian(cpu_p50, runs), "us",
       round_n + ", all threads, at reference speed"},
      {"round_cpu_p99_us", InputMedian(cpu_p99, runs), "us",
       round_n + ", all threads, at reference speed"},
      {"scale_call_p50_ms",
       scale.empty() ? std::numeric_limits<double>::quiet_NaN()
                     : Median(scale),
       "ms", "n=" + std::to_string(scale.size()) + " calls"},
      {"converge_rounds", per_episode(c.converge_rounds), "rounds",
       inputs + ", of " + std::to_string(per_episode(c.rounds)) +
           " timed rounds"},
      {"migrated_blocks", per_episode(c.migrated_blocks), "blocks",
       inputs + ", " + std::to_string(per_episode(c.cross_shard_blocks)) +
           " cross-shard"},
      {"hiccup_rate",
       Ratio(static_cast<double>(c.hiccups), static_cast<double>(c.requests)),
       "ratio",
       std::to_string(c.hiccups) + "/" + std::to_string(c.requests) +
           " requests"},
      {"reject_rate",
       Ratio(static_cast<double>(c.rejected),
             static_cast<double>(c.stream_calls)),
       "ratio",
       std::to_string(c.rejected) + "/" + std::to_string(c.stream_calls) +
           " StartStream calls"},
      {"startup_p99_rounds", per_episode(c.startup_p99_rounds), "rounds",
       inputs},
      {"dropped_streams", per_episode(c.dropped_streams), "streams", inputs},
      {"peak_rss_mb", peak_rss_mb, "MB", "whole process"},
  };
}

/// The per-layer table, from the spans of the traced episodes' timed phase
/// (and set-up, for ingest) plus the counters those episodes read.
std::vector<Metric> PerLayer(const Tracer& tracer,
                             const std::vector<const EpisodeResult*>& traced,
                             const std::vector<const EpisodeResult*>& plain) {
  const std::vector<Span>& spans = tracer.spans();
  const auto select = [&](auto&& keep) {
    std::vector<const Span*> out;
    for (const Span& span : spans) {
      if (span.phase == Phase::kRun && keep(span)) {
        out.push_back(&span);
      }
    }
    return out;
  };
  const auto named = [](std::vector<std::string_view> names) {
    return [names = std::move(names)](const Span& span) {
      return std::find(names.begin(), names.end(), span.name) != names.end();
    };
  };
  const auto us = [](const std::vector<const Span*>& set) {
    std::vector<double> out;
    for (const Span* span : set) {
      out.push_back(span->duration_us());
    }
    return out;
  };
  const auto ms = [&](const std::vector<const Span*>& set) {
    std::vector<double> out = us(set);
    for (double& v : out) {
      v *= 1e-3;
    }
    return out;
  };
  const auto n = [](const auto& set) {
    return static_cast<double>(set.size());
  };

  const auto quiet = select([](const Span& s) {
    return std::string_view(s.name) == "CmServer::Tick" && s.a == 0;
  });
  const auto migrating = select([](const Span& s) {
    return std::string_view(s.name) == "CmServer::Tick" && s.a > 0;
  });
  const auto ticks = select(named({"CmServer::Tick", "ClusterServer::Tick"}));
  double depth_sum = 0, depth_max = 0, moves = 0;
  for (const Span* span : ticks) {
    depth_sum += static_cast<double>(span->a);
    depth_max = std::max(depth_max, static_cast<double>(span->a));
    moves += static_cast<double>(span->b);
  }
  const auto admits = select(
      named({"CmServer::StartStream", "ClusterServer::StartStream"}));
  const double refused = static_cast<double>(std::count_if(
      admits.begin(), admits.end(), [](const Span* s) { return s->a == 0; }));
  const auto vcr = select(named(
      {"CmServer::PauseStream", "CmServer::ResumeStream",
       "CmServer::SeekStream", "ClusterServer::PauseStream",
       "ClusterServer::ResumeStream", "ClusterServer::SeekStream"}));
  const auto disk_scale = [&](std::vector<std::string_view> names,
                              bool rebased) {
    const auto is_named = named(std::move(names));
    return select([&](const Span& s) {
      return is_named(s) && (s.b == 1) == rebased;
    });
  };
  const auto adds =
      disk_scale({"CmServer::ScaleAdd", "ClusterServer::ScaleAddDisks"}, false);
  const auto removes = disk_scale({"CmServer::ScaleRemove"}, false);
  const auto rebases = disk_scale(
      {"CmServer::ScaleAdd", "CmServer::ScaleRemove",
       "ClusterServer::ScaleAddDisks"},
      true);
  const auto shard_scale = select(named(
      {"ClusterServer::AddServerShard", "ClusterServer::RemoveServerShard"}));
  double enqueued = 0;
  const auto all_scale = select(named(
      {"CmServer::ScaleAdd", "CmServer::ScaleRemove",
       "ClusterServer::ScaleAddDisks", "ClusterServer::AddServerShard",
       "ClusterServer::RemoveServerShard"}));
  for (const Span* span : all_scale) {
    enqueued += static_cast<double>(span->a);
  }
  const auto verify = select(
      named({"CmServer::VerifyIntegrity", "ClusterServer::VerifyIntegrity"}));
  const auto checkpoints = select(named({"CmServer::WriteCheckpoint"}));
  const auto locate = select(named({"PlacementPolicy::LocateAllBlocks"}));
  double located_ns = 0, located_blocks = 0;
  for (const Span* span : locate) {
    located_ns += span->duration_us() * 1e3;
    located_blocks += static_cast<double>(span->a);
  }
  double ingest_us = 0, ingest_blocks = 0;
  for (const Span& span : spans) {
    const std::string_view name = span.name;
    if (span.phase == Phase::kSetup &&
        (name == "CmServer::AddObject" || name == "ClusterServer::AddObject")) {
      ingest_us += span.duration_us();
      ingest_blocks += static_cast<double>(span.a);
    }
  }
  const auto cluster_ticks = select(named({"ClusterServer::Tick"}));

  const Counts& c = traced.front()->counts;
  double cpu = 0, wall = 0, budget = 0;
  std::vector<double> gen, traced_run, plain_run, speed;
  for (const EpisodeResult* r : traced) {
    cpu += r->cpu_s;
    wall += r->wall_s;
    budget = std::max(budget, r->budget_consumed_max);
    traced_run.push_back(r->run_s);
    speed.push_back(HostSpeed(r->probe_s));
  }
  for (const EpisodeResult* r : plain) {
    gen.push_back(r->gen_s);
    plain_run.push_back(r->run_s);
  }
  const double overhead =
      (Ratio(Median(traced_run), Median(plain_run)) - 1.0) * 100.0;
  const auto count = [](int64_t v) { return static_cast<double>(v); };

  return {
      {"server.tick_quiet_us.p50", Quantile(us(quiet), 0.5), "us", ""},
      {"server.tick_quiet_us.p99", Quantile(us(quiet), 0.99), "us", ""},
      {"server.tick_quiet_us.n", n(quiet), "count", ""},
      {"server.tick_migrating_us.p50", Quantile(us(migrating), 0.5), "us", ""},
      {"server.tick_migrating_us.p99", Quantile(us(migrating), 0.99), "us",
       ""},
      {"server.tick_migrating_us.n", n(migrating), "count", ""},
      {"server.queue_depth.mean", Ratio(depth_sum, n(ticks)), "blocks", ""},
      {"server.queue_depth.max", depth_max, "blocks", ""},
      {"server.moves_per_queued", Ratio(moves, depth_sum), "ratio", ""},
      {"server.admit_us.p50", Quantile(us(admits), 0.5), "us", ""},
      {"server.admit_us.n", n(admits), "count", ""},
      {"server.admit_refused", refused, "count", ""},
      {"server.vcr_us.p50", Quantile(us(vcr), 0.5), "us", ""},
      {"server.vcr_us.n", n(vcr), "count", ""},
      {"server.scale_ms.add.p50", Median(ms(adds)), "ms", ""},
      {"server.scale_ms.add.n", n(adds), "count", ""},
      {"server.scale_ms.remove.p50", Median(ms(removes)), "ms", ""},
      {"server.scale_ms.remove.n", n(removes), "count", ""},
      {"server.scale_ms.rebase.p50", Median(ms(rebases)), "ms", ""},
      {"server.scale_ms.rebase.n", n(rebases), "count", ""},
      {"server.scale_enqueued", Ratio(enqueued, n(all_scale)), "blocks/call",
       ""},
      {"server.verify_ms", Median(ms(verify)), "ms", ""},
      {"server.verify_ms.n", n(verify), "count", ""},
      {"server.reorg_triggers", count(c.reorg_triggers), "count", ""},
      {"server.budget_consumed", budget, "ratio", ""},
      {"server.requests", count(c.requests), "count", ""},
      {"server.served", count(c.served), "count", ""},
      {"server.hiccups", count(c.hiccups), "count", ""},
      {"server.migrated_blocks", count(c.migrated_blocks), "blocks", ""},
      {"server.converge_rounds", count(c.converge_rounds), "rounds", ""},
      {"server.startup_p99_rounds", count(c.startup_p99_rounds), "rounds", ""},
      {"storage.ingest_us_per_kblock", Ratio(ingest_us, ingest_blocks / 1e3),
       "us", ""},
      {"storage.journal_entries_max", count(c.journal_entries_max), "count",
       ""},
      {"storage.io_reads", count(c.io_reads), "count", ""},
      {"storage.io_writes", count(c.io_writes), "count", ""},
      {"storage.io_flushes", count(c.io_flushes), "count", ""},
      {"storage.io_ops_per_submit",
       Ratio(count(c.io_reads + c.io_writes), count(c.io_submits)), "ratio",
       ""},
      {"storage.io_failures", count(c.io_failures), "count", ""},
      {"recovery.checkpoint_ms.p50", Median(ms(checkpoints)), "ms", ""},
      {"recovery.checkpoint_ms.max", Quantile(ms(checkpoints), 1.0), "ms", ""},
      {"recovery.checkpoint_ms.n", n(checkpoints), "count", ""},
      {"core.locate_ns_per_block", Ratio(located_ns, located_blocks), "ns", ""},
      {"core.op_log_depth", count(c.op_log_depth_max), "count", ""},
      {"cluster.tick_us.p50", Quantile(us(cluster_ticks), 0.5), "us", ""},
      {"cluster.tick_us.p99", Quantile(us(cluster_ticks), 0.99), "us", ""},
      {"cluster.tick_us.n", n(cluster_ticks), "count", ""},
      {"cluster.cpu_per_wall", Ratio(cpu, wall), "ratio", ""},
      {"cluster.scale_ms", Median(ms(shard_scale)), "ms", ""},
      {"cluster.cross_shard_blocks", count(c.cross_shard_blocks), "blocks",
       ""},
      {"cluster.pending_transfers_max", count(c.pending_transfers_max),
       "count", ""},
      {"cluster.handoff_rejects", count(c.dropped_streams), "count", ""},
      {"bench.gen_s", Median(gen), "s", ""},
      {"bench.trace_overhead_pct", overhead, "%", ""},
      {"bench.host_speed", Median(speed), "ratio", ""},
  };
}

/// Self time per span name: duration minus the part its children cover.
void PrintSelfTimes(const Tracer& tracer) {
  const std::vector<Span>& spans = tracer.spans();
  std::vector<double> child_us(spans.size(), 0);
  for (const Span& span : spans) {
    if (span.parent >= 0) {
      child_us[static_cast<size_t>(span.parent)] += span.duration_us();
    }
  }
  struct Row {
    int64_t count = 0;
    double total_us = 0;
    double self_us = 0;
  };
  std::map<std::string, Row> rows;
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& span = spans[i];
    if (span.phase != Phase::kRun) {
      continue;
    }
    Row& row = rows[span.name];
    ++row.count;
    row.total_us += span.duration_us();
    row.self_us += span.duration_us() - child_us[i];
  }
  std::printf("self time in the timed phase of traced episodes:\n");
  std::printf("  %-36s %10s %12s %12s\n", "span", "count", "total_ms",
              "self_ms");
  for (const auto& [name, row] : rows) {
    std::printf("  %-36s %10lld %12.3f %12.3f\n", name.c_str(),
                static_cast<long long>(row.count), row.total_us * 1e-3,
                row.self_us * 1e-3);
  }
}

void PrintMetrics(const char* title, const std::vector<Metric>& metrics) {
  std::printf("%s:\n", title);
  for (const Metric& m : metrics) {
    std::printf("  %-32s %16.6f %-12s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.note.c_str());
  }
}

/// Every metric with a value; `BENCHMARK.json` selects the ones it gates.
void PrintJson(bool correct, int64_t attempted, int64_t failed,
               const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              correct ? "true" : "false", static_cast<long long>(attempted),
              static_cast<long long>(failed));
  bool first = true;
  for (const Metric& m : metrics) {
    if (!std::isfinite(m.value)) {
      continue;  // No samples (NaN), which JSON cannot hold.
    }
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                first ? "" : ", ", m.name.c_str(), m.value, m.unit.c_str());
    first = false;
  }
  std::printf("}}\n");
}

/// Mounts a tmpfs at `dir` in a mount namespace private to this process, so
/// block images live in RAM while their path stays inside the checkout; the
/// mount vanishes when the process exits. Must run before any thread starts.
/// Returns what failed, or an empty string.
std::string MountPrivateTmpfs(const std::string& dir) {
  std::error_code error;
  std::filesystem::create_directories(dir, error);
  const char* step = nullptr;
  if (unshare(CLONE_NEWNS) != 0) {
    step = "unshare";
  } else if (mount(nullptr, "/", nullptr, MS_REC | MS_PRIVATE, nullptr) != 0) {
    step = "making mounts private";  // Never mount where it could propagate.
  } else if (mount("tmpfs", dir.c_str(), "tmpfs", MS_NOSUID | MS_NODEV,
                   "size=512m,mode=0700") != 0) {
    step = "mount";
  }
  if (step != nullptr) {
    return std::string(step) + ": " + std::strerror(errno);
  }
  struct statfs fs {};
  if (statfs(dir.c_str(), &fs) != 0 || fs.f_type != TMPFS_MAGIC) {
    return "statfs does not report a tmpfs";
  }
  return "";
}

uint64_t ArrivalDigest(uint64_t seed) {
  LoadGenerator gen(seed, 4.0, std::vector<int64_t>(64, 1000));
  std::vector<int64_t> ranks;
  for (int i = 0; i < 256; ++i) {
    gen.NextArrivals(ranks);
  }
  return gen.digest();
}

int Main(int argc, char** argv) {
  // Freed memory stays in the heap: glibc would otherwise return the large
  // buffers each checkpoint and snapshot allocates and fault them back in
  // page by page, and page faults in a VM cost whatever the host is busy
  // with (a million faults in 10 s of scale_churn, 14% of its CPU time).
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, 1 << 30);
  Args args;
  if (!ParseArgs(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: scaddar_e2e --workload <name> --seed <n> --seconds "
                 "<1..120> --trace <0|1> --out-dir <dir>\n");
    return 2;
  }
  const Workload* workload = FindWorkload(args.workload);
  if (workload == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  if (args.workload == "uring_mixed" && !UringAvailable()) {
    std::fprintf(stderr,
                 "io_uring is unavailable here; uring_mixed would silently "
                 "measure the sync file backend, so it is not reported\n");
    return 3;
  }
  std::error_code error;
  std::filesystem::create_directories(args.out_dir, error);
  EpisodeContext context{InputSeed(args.seed, 0), args.out_dir};
  if (args.workload == "uring_mixed") {
    // On the checkout's disk the workload would measure the disk, not the
    // program, so it is not reported there either.
    context.image_root = args.out_dir + "/tmpfs";
    const std::string failed = MountPrivateTmpfs(context.image_root);
    if (!failed.empty()) {
      std::fprintf(stderr,
                   "cannot mount a private tmpfs at %s (%s); uring_mixed "
                   "would measure the disk, so it is not reported\n",
                   context.image_root.c_str(), failed.c_str());
      return 3;
    }
  }

  const bench::HostInfo host = bench::QueryHost();
  std::printf("workload %s (%s)\nseed %llu, %g s, trace %d\n", workload->name,
              workload->why, static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0);
  std::printf("host: %s, %lld cores, governor %s, kernel %s, io_uring %s\n",
              host.cpu_model.c_str(), static_cast<long long>(host.cores),
              host.governor.c_str(), host.kernel.c_str(),
              UringAvailable() ? "available" : "unavailable");
  if (args.workload == "uring_mixed") {
    std::printf("block images on a private tmpfs at %s\n",
                context.image_root.c_str());
  }

  std::vector<std::string> failures;
  const uint64_t digest = ArrivalDigest(InputSeed(args.seed, 0));
  if (digest != ArrivalDigest(InputSeed(args.seed, 0)) ||
      digest == ArrivalDigest(InputSeed(args.seed + 1, 0))) {
    failures.push_back("load generator: seeds do not map one-to-one to "
                       "inputs");
  }

  Tracer tracer(workload->name);
  // One untimed warm-up episode first: the first episode in a fresh process
  // runs slower (page faults, allocator growth). Its checks still count.
  const EpisodeResult warm_up = workload->run(context, nullptr);
  for (const std::string& f : warm_up.check_failures) {
    failures.push_back("warm-up episode: " + f);
  }
  // Untraced runs cover every input; traced runs pair each traced episode
  // with an untraced one on the same input, for the overhead.
  std::vector<EpisodeResult> episodes;
  std::vector<int> inputs;
  const int min_episodes = args.trace ? 2 : kInputs;
  constexpr double kHardLimitS = 150;
  const auto start = Clock::now();
  double longest = 0;
  for (int e = 0; failures.empty(); ++e) {
    const bool traced = args.trace && e % 2 == 1;
    inputs.push_back((args.trace ? e / 2 : e) % kInputs);
    context.seed = InputSeed(args.seed, inputs.back());
    tracer.set_episode(e);
    const auto episode_start = Clock::now();
    episodes.push_back(workload->run(context, traced ? &tracer : nullptr));
    episodes.back().traced = traced;
    episodes.back().input = inputs.back();
    longest = std::max(longest, Seconds(Clock::now() - episode_start));
    const double elapsed = Seconds(Clock::now() - start);
    if (!episodes.back().check_failures.empty()) {
      break;
    }
    if (e + 1 >= min_episodes &&
        (elapsed >= args.seconds || elapsed + longest > kHardLimitS)) {
      break;
    }
  }

  int64_t attempted = warm_up.calls, failed = warm_up.call_errors;
  std::vector<const EpisodeResult*> plain, traced;
  std::map<int, const Counts*> first_counts = {{0, &warm_up.counts}};
  for (size_t i = 0; i < episodes.size(); ++i) {
    const EpisodeResult& r = episodes[i];
    (r.traced ? traced : plain).push_back(&r);
    attempted += r.calls;
    failed += r.call_errors;
    for (const std::string& f : r.check_failures) {
      failures.push_back("episode " + std::to_string(i) + ": " + f);
    }
    const auto [first, inserted] = first_counts.emplace(inputs[i], &r.counts);
    if (!inserted && !(*first->second == r.counts)) {
      failures.push_back("episode " + std::to_string(i) +
                         " counts differ from an earlier episode on the same "
                         "input");
    }
  }
  if (failed > 0) {
    failures.push_back(std::to_string(failed) +
                       " public calls returned unexpected errors");
  }
  for (const std::string& note : warm_up.notes) {
    std::printf("%s\n", note.c_str());
  }
  std::printf("episodes: %zu untraced, %zu traced\n", plain.size(),
              traced.size());
  for (size_t i = 0; i < episodes.size(); ++i) {
    const EpisodeResult& r = episodes[i];
    const double speed = HostSpeed(r.probe_s);
    std::printf("  episode %zu (input %d)%s: setup %.4f s, run %.4f s, "
                "cpu %.4f s, round p50 %.1f us, p99 %.1f us, cpu p50 %.1f "
                "us, p99 %.1f us; host speed %.3f, scaled cpu %.4f s, cpu "
                "p50 %.1f us\n",
                i, inputs[i], r.traced ? " traced" : "", Median(r.setup_s),
                r.run_s, r.cpu_s - r.gen_s, Quantile(r.round_us, 0.5),
                Quantile(r.round_us, 0.99), Quantile(r.round_cpu_us, 0.5),
                Quantile(r.round_cpu_us, 0.99), speed,
                (r.cpu_s - r.gen_s) * SpeedScale(speed),
                Quantile(ScaledRoundCpu(r), 0.5));
  }
  const Counts& vcr = warm_up.counts;
  std::printf("VCR events per episode on input 0: %lld made, %lld skipped "
              "(stream finished), %lld dropped (session refused at a "
              "cross-shard handoff); %lld sessions followed to another "
              "shard\n",
              static_cast<long long>(vcr.vcr_calls),
              static_cast<long long>(vcr.vcr_skipped),
              static_cast<long long>(vcr.vcr_lost),
              static_cast<long long>(vcr.sessions_moved));

  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const double peak_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;
  const bool complete = failures.empty() && !plain.empty() &&
                        (!args.trace || !traced.empty());
  std::vector<Metric> end_to_end;
  if (!plain.empty() && plain.front()->check_failures.empty()) {
    end_to_end = EndToEnd(plain, peak_rss_mb);
    PrintMetrics("end-to-end (untraced)", end_to_end);
  }
  std::vector<Metric> per_layer;
  if (args.trace && complete) {
    per_layer = PerLayer(tracer, traced, plain);
    PrintMetrics("per-layer (traced)", per_layer);
    PrintSelfTimes(tracer);
    const std::string path =
        args.out_dir + "/trace_" + std::string(workload->name) + ".json";
    if (tracer.WriteChromeTrace(path, 1)) {
      std::printf("trace: %s\n", path.c_str());
    } else {
      failures.push_back("could not write " + path);
    }
  }
  for (const std::string& f : failures) {
    std::printf("CHECK FAILED: %s\n", f.c_str());
  }
  const bool correct = failures.empty() && complete;
  PrintJson(correct, attempted, failed, args.trace ? per_layer : end_to_end);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace scaddar::e2e

int main(int argc, char** argv) { return scaddar::e2e::Main(argc, argv); }
