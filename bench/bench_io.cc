// EXP-IO (extension) — real-I/O backends: io_uring submission rings vs.
// the portable sync backend behind the StorageBackend seam.
//
// Two questions, one per tier block:
//  1. Raw backend throughput — blocks/second written and read back through
//     each file-backed backend at queue depths 1/8/32, same disk files,
//     same 4 KiB block images. The io_uring backend's claim is amortized
//     submission (one `io_uring_enter` per batch for all disks, fixed
//     buffers); the sync backend pays a handoff per batch to per-disk
//     workers. The acceptance target: uring >= 2x sync at QD >= 8.
//  2. Served-round latency — a file-backed CmServer's per-round Tick cost
//     (p50/p99) and served-block throughput on each backend, quiet vs.
//     with a scale-up migration running. This is the number the serving
//     path actually feels: every delivered block becomes a real read, every
//     migration round a batched copy + flush.
//
// Usage: bench_io [--smoke] [--json-only] [--dir=<path>]
//   --smoke      tiny sizes, no BENCH_io.json (CI wiring check).
//   --json-only  suppress the console tables, still write the JSON.
//   --dir=<path> where the backing disk files live (default
//                ./bench_io_disks; put it on a real filesystem to measure
//                real media, tmpfs measures the software stack).
// The full run writes BENCH_io.json to the working directory.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "server/server.h"
#include "storage/block_io.h"
#include "storage/storage_backend.h"

namespace scaddar {
namespace {

constexpr int64_t kBlockBytes = 4096;

struct Sizes {
  int64_t raw_disks = 4;
  int64_t raw_blocks = 16'384;   // Total blocks per pass (64 MiB).
  int64_t raw_batch = 256;       // In-flight ops between drains.
  int64_t objects = 8;
  int64_t blocks_each = 2'000;
  int64_t streams = 64;
  int64_t rounds = 120;
  int64_t warmup_rounds = 16;
};

// --- Tier 1: raw backend throughput --------------------------------------

struct RawResult {
  double write_seconds = 0;
  double read_seconds = 0;
  int64_t blocks = 0;
  int64_t submit_batches = 0;

  double WriteBps() const {
    return write_seconds > 0
               ? static_cast<double>(blocks) / write_seconds
               : 0;
  }
  double ReadBps() const {
    return read_seconds > 0 ? static_cast<double>(blocks) / read_seconds : 0;
  }
};

/// Writes then reads back `sizes.raw_blocks` block images striped over
/// `sizes.raw_disks` disks, `sizes.raw_batch` ops in flight between
/// drains, timing each direction.
RawResult RunRawPass(StorageBackend& backend, const Sizes& sizes) {
  RawResult result;
  result.blocks = sizes.raw_blocks;
  for (int64_t disk = 0; disk < sizes.raw_disks; ++disk) {
    SCADDAR_CHECK(backend.OpenDisk(disk).ok());
  }
  const int64_t arena_blocks = sizes.raw_batch;
  std::byte* arena = static_cast<std::byte*>(std::aligned_alloc(
      4096, static_cast<size_t>(arena_blocks * kBlockBytes)));
  SCADDAR_CHECK(arena != nullptr);
  SCADDAR_CHECK(backend.RegisterBufferArena(arena, arena_blocks).ok());
  for (int64_t i = 0; i < arena_blocks; ++i) {
    BlockIoEngine::FillImage(BlockRef{1, i}, /*seed=*/0xb10c,
                             arena + i * kBlockBytes, kBlockBytes);
  }

  std::vector<IoCompletion> done;
  const auto run_pass = [&](bool write) {
    return bench::TimeSeconds([&] {
      int64_t issued = 0;
      while (issued < sizes.raw_blocks) {
        const int64_t batch =
            std::min(arena_blocks, sizes.raw_blocks - issued);
        for (int64_t i = 0; i < batch; ++i) {
          const int64_t op = issued + i;
          const PhysicalDiskId disk = op % sizes.raw_disks;
          const int64_t slot = op / sizes.raw_disks;
          std::byte* buf = arena + i * kBlockBytes;
          if (write) {
            SCADDAR_CHECK(backend.EnqueueWrite(disk, slot, buf).ok());
          } else {
            SCADDAR_CHECK(backend.EnqueueRead(disk, slot, buf).ok());
          }
        }
        done.clear();
        SCADDAR_CHECK(backend.DrainCompletions(done).ok());
        SCADDAR_CHECK(static_cast<int64_t>(done.size()) == batch);
        issued += batch;
      }
      if (write) {
        for (int64_t disk = 0; disk < sizes.raw_disks; ++disk) {
          SCADDAR_CHECK(backend.Flush(disk).ok());
        }
      }
    });
  };
  result.write_seconds = run_pass(/*write=*/true);
  result.read_seconds = run_pass(/*write=*/false);
  result.submit_batches = backend.stats().submit_batches;
  for (int64_t disk = 0; disk < sizes.raw_disks; ++disk) {
    SCADDAR_CHECK(backend.CloseDisk(disk).ok());
  }
  std::free(arena);
  return result;
}

// --- Tier 2: served-round latency ----------------------------------------

struct ServingResult {
  bench::RoundTiming quiet;
  bench::RoundTiming migrating;
  int64_t quiet_served = 0;
  int64_t migrating_served = 0;

  static double Bps(const bench::RoundTiming& timing, int64_t served) {
    return timing.total_seconds > 0
               ? static_cast<double>(served) / timing.total_seconds
               : 0;
  }
};

/// One file-backed server: steady-state rounds timed, then the same
/// streams timed again with a 2-disk scale-up migration in flight.
ServingResult RunServing(const std::string& spec, const Sizes& sizes) {
  ServerConfig config;
  config.initial_disks = 8;
  config.disk_spec = {.capacity_blocks = 10'000'000,
                      .bandwidth_blocks_per_round = 32};
  config.master_seed = 4242;
  config.storage_backend = spec;
  config.io_queue_depth = 32;
  auto server_or = CmServer::Create(config);
  SCADDAR_CHECK(server_or.ok());
  CmServer& server = **server_or;
  for (int64_t id = 1; id <= sizes.objects; ++id) {
    SCADDAR_CHECK(server.AddObject(id, sizes.blocks_each).ok());
  }
  for (int64_t s = 0; s < sizes.streams; ++s) {
    // Streams finish and restart across the measurement; reattach lazily.
    if (!server.StartStream(1 + s % sizes.objects).ok()) {
      break;
    }
  }
  ServingResult result;
  int64_t served_before = server.total_served();
  const auto tick_round = [&] {
    if (server.active_streams() < sizes.streams) {
      (void)server.StartStream(1 + server.total_served() % sizes.objects);
    }
    server.Tick();
    return 0;
  };
  result.quiet = bench::MeasureRounds(sizes.warmup_rounds, sizes.rounds,
                                      tick_round, [](int) {});
  result.quiet_served = server.total_served() - served_before;

  SCADDAR_CHECK(server.ScaleAdd(2).ok());
  served_before = server.total_served();
  result.migrating = bench::MeasureRounds(/*warmup_rounds=*/0, sizes.rounds,
                                          tick_round, [](int) {});
  result.migrating_served = server.total_served() - served_before;
  return result;
}

}  // namespace
}  // namespace scaddar

int main(int argc, char** argv) {
  using namespace scaddar;
  bool smoke = false;
  bool json_only = false;
  std::string dir = "bench_io_disks";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--json-only") == 0) {
      json_only = true;
    } else if (std::strncmp(argv[i], "--dir=", 6) == 0) {
      dir = argv[i] + 6;
    }
  }
  Sizes sizes;
  if (smoke) {
    sizes = Sizes{.raw_disks = 2,
                  .raw_blocks = 256,
                  .raw_batch = 64,
                  .objects = 3,
                  .blocks_each = 200,
                  .streams = 8,
                  .rounds = 12,
                  .warmup_rounds = 3};
  }
  MakeDirectories(dir);
  const bool uring = UringAvailable();

  if (!json_only) {
    bench::PrintHeader("EXP-IO",
                       "real-I/O backends: io_uring vs. sync file, per-disk "
                       "queue depth");
    if (!uring) {
      std::printf("note: io_uring unavailable on this kernel/sandbox; the\n"
                  "      uring path is skipped and only sync is measured.\n");
    }
    std::printf("%-8s %-4s %-14s %-14s %-9s\n", "backend", "qd", "write-bl/s",
                "read-bl/s", "batches");
  }
  bench::BenchJson json("bench_io");

  const std::vector<int> depths = {1, 8, 32};
  double sync_read_qd8 = 0;
  double uring_read_qd8 = 0;
  for (const int qd : depths) {
    json.BeginTier(sizes.raw_blocks);
    char scenario[32];
    std::snprintf(scenario, sizeof(scenario), "raw_qd%d", qd);
    json.TierLabel("scenario", scenario);
    json.TierMetric("queue_depth", qd, 0);
    for (const char* kind : {"sync", "uring"}) {
      const bool is_uring = std::strcmp(kind, "uring") == 0;
      if (is_uring && !uring) {
        continue;
      }
      BackendOptions options;
      options.block_bytes = kBlockBytes;
      options.queue_depth = qd;
      const std::string spec = std::string(is_uring ? "uring:" : "file:") +
                               dir + "/raw_" + kind;
      auto backend = MakeStorageBackend(spec, options);
      SCADDAR_CHECK(backend.ok());
      const RawResult result = RunRawPass(**backend, sizes);
      if (!json_only) {
        std::printf("%-8s %-4d %-14.0f %-14.0f %-9lld\n", kind, qd,
                    result.WriteBps(), result.ReadBps(),
                    static_cast<long long>(result.submit_batches));
      }
      if (qd == 8) {
        (is_uring ? uring_read_qd8 : sync_read_qd8) = result.ReadBps();
      }
      json.Path(kind,
                {{"write_blocks_per_second", result.WriteBps(), 0},
                 {"read_blocks_per_second", result.ReadBps(), 0},
                 {"submit_batches",
                  static_cast<double>(result.submit_batches), 0}});
    }
    json.EndTier();
  }

  if (!json_only) {
    bench::PrintRule();
    std::printf("%-8s %-11s %-11s %-11s %-13s\n", "backend", "phase",
                "p50-us", "p99-us", "served-bl/s");
  }
  for (const char* kind : {"sync", "uring"}) {
    const bool is_uring = std::strcmp(kind, "uring") == 0;
    if (is_uring && !uring) {
      continue;
    }
    const std::string spec = std::string(is_uring ? "uring:" : "file:") +
                             dir + "/serving_" + kind;
    const ServingResult result = RunServing(spec, sizes);
    const double quiet_bps =
        ServingResult::Bps(result.quiet, result.quiet_served);
    const double migrating_bps =
        ServingResult::Bps(result.migrating, result.migrating_served);
    if (!json_only) {
      std::printf("%-8s %-11s %-11.1f %-11.1f %-13.0f\n", kind, "quiet",
                  result.quiet.p50_us, result.quiet.p99_us, quiet_bps);
      std::printf("%-8s %-11s %-11.1f %-11.1f %-13.0f\n", kind, "migrating",
                  result.migrating.p50_us, result.migrating.p99_us,
                  migrating_bps);
    }
    json.BeginTier(sizes.rounds);
    json.TierLabel("scenario", "served_rounds");
    json.Path(kind, {{"quiet_p50_us", result.quiet.p50_us, 1},
                     {"quiet_p99_us", result.quiet.p99_us, 1},
                     {"quiet_served_blocks_per_second", quiet_bps, 0},
                     {"migrating_p50_us", result.migrating.p50_us, 1},
                     {"migrating_p99_us", result.migrating.p99_us, 1},
                     {"migrating_served_blocks_per_second", migrating_bps,
                      0}});
    json.EndTier();
  }

  if (!json_only) {
    bench::PrintRule();
    std::printf(
        "Expected shape: at QD >= 8 the uring backend amortizes one\n"
        "submission per batch for all disks against the sync backend's\n"
        "per-disk worker handoffs — the target is >= 2x read throughput.\n"
        "Served-round p99 stays flat under migration because a round's\n"
        "reads and a round's staged copies each go down as one batch.\n");
  }
  if (!smoke) {
    SCADDAR_CHECK(json.WriteFile("BENCH_io.json"));
    if (!json_only) {
      std::printf("wrote BENCH_io.json\n");
    }
    if (uring && sync_read_qd8 > 0 &&
        uring_read_qd8 < 2.0 * sync_read_qd8) {
      std::fprintf(stderr,
                   "WARNING: uring read throughput %.0f bl/s below the 2x "
                   "sync target (%.0f bl/s) at QD 8\n",
                   uring_read_qd8, sync_read_qd8);
    }
  }
  return 0;
}
