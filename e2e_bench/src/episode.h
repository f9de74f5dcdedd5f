#ifndef SCADDAR_E2E_BENCH_EPISODE_H_
#define SCADDAR_E2E_BENCH_EPISODE_H_

#include <cstdint>
#include <string>
#include <vector>

namespace scaddar::e2e {

/// Everything an episode counts. On every workload these repeat exactly for
/// a given seed; the runner checks that across the episodes of a run.
struct Counts {
  int64_t rounds = 0;           // Timed rounds.
  int64_t converge_rounds = 0;  // Timed rounds that began with work pending.
  int64_t migrated_blocks = 0;  // Disk-level moves plus cross-shard blocks.
  int64_t cross_shard_blocks = 0;
  int64_t requests = 0;
  int64_t served = 0;
  int64_t hiccups = 0;
  int64_t stream_calls = 0;  // StartStream calls.
  int64_t rejected = 0;      // Of those, refused by admission control.
  int64_t vcr_calls = 0;
  int64_t vcr_skipped = 0;     // VCR events due after their stream finished.
  int64_t vcr_lost = 0;        // VCR events for sessions a handoff dropped.
  int64_t sessions_moved = 0;  // Sessions followed to another shard.
  int64_t startup_p99_rounds = 0;
  int64_t dropped_streams = 0;  // Cluster handoff rejects.
  int64_t reorg_triggers = 0;
  int64_t journal_entries_max = 0;
  int64_t pending_transfers_max = 0;
  int64_t op_log_depth_max = 0;
  int64_t io_reads = 0;  // Backend counters over the timed phase.
  int64_t io_writes = 0;
  int64_t io_flushes = 0;
  int64_t io_submits = 0;
  int64_t io_failures = 0;
  uint64_t input_digest = 0;  // Hash of every generator draw.

  bool operator==(const Counts&) const = default;
};

struct EpisodeResult {
  bool traced = false;
  int input = 0;  // Which of the run's inputs the episode replayed.
  std::vector<double> setup_s;  // Create + ingest, one sample per set-up.
  double run_s = 0;      // Timed phase minus the benchmark's own work.
  double gen_s = 0;      // The benchmark's own work in the timed phase.
  double cpu_s = 0;      // Process CPU over the timed phase.
  double wall_s = 0;     // Wall time of the timed phase.
  double budget_consumed_max = 0;  // Governor fuel gauge after scaling.
  std::vector<double> round_us;      // Per timed round: all server calls.
  std::vector<double> round_cpu_us;  // The same rounds in process CPU time.
  std::vector<double> scale_ms;  // Per scaling call.
  // Host speed (see host_probe.h): reference-slice CPU seconds, per set-up
  // (mean of one slice before and one after) and through the timed phase,
  // and per timed round the number of slices taken before it.
  std::vector<double> setup_probe_s;
  std::vector<double> probe_s;
  std::vector<int32_t> round_probes;
  Counts counts;
  int64_t calls = 0;        // Public calls made in the timed phase.
  int64_t call_errors = 0;  // Of those, calls that returned an unexpected
                            // error (admission refusals are expected).
  std::vector<std::string> check_failures;
  std::vector<std::string> notes;  // Facts to print (backend, O_DIRECT...).
};

}  // namespace scaddar::e2e

#endif  // SCADDAR_E2E_BENCH_EPISODE_H_
