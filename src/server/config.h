#ifndef SCADDAR_SERVER_CONFIG_H_
#define SCADDAR_SERVER_CONFIG_H_

#include <cstdint>
#include <string>

#include "random/prng.h"
#include "storage/disk.h"

namespace scaddar {

/// Configuration of the simulated continuous media server. The simulation
/// is round-based: one round is the playback time of one block, each active
/// stream consumes one block per round, and each disk retrieves
/// `bandwidth_blocks_per_round` blocks per round.
struct ServerConfig {
  /// Disks before any scaling operations (the paper's N0).
  int64_t initial_disks = 8;

  /// Hardware model for newly added disks.
  DiskSpec disk_spec = {.capacity_blocks = 200'000,
                        .bandwidth_blocks_per_round = 8};

  /// Placement policy name from the registry ("scaddar", "directory", ...).
  std::string policy = "scaddar";

  /// Pseudo-random generator family and bit width `b` for `p_r(s_m)`.
  PrngKind prng_kind = PrngKind::kSplitMix64;
  int bits = 64;

  /// Master seed; per-object seeds derive from it.
  uint64_t master_seed = 0x5caddae0'0b10c5ull;

  /// Fraction of aggregate disk bandwidth admission control may commit to
  /// streams; the rest is headroom for seeks and reorganization.
  double admission_utilization_cap = 0.85;

  /// Upper bound on migration transfers charged to any single disk per
  /// round *in addition to* leftover service bandwidth (0 = only leftover).
  int64_t migration_extra_budget = 0;

  /// First stream id this server hands out (ids count up from here). The
  /// cluster layer gives each server shard a disjoint id range so stream
  /// ids are cluster-unique and carry their shard in the high bits; a bare
  /// server keeps the default 0.
  int64_t first_stream_id = 0;

  /// Run every migration transfer through the crash-consistent write-ahead
  /// move journal (intent -> copy -> commit). Off by default: the journal
  /// only matters when crashes are possible (fault-injection runs), and the
  /// plain path is the established bench baseline.
  bool journal_migration = false;

  /// Storage backend spec for real block I/O (`MakeStorageBackend` syntax):
  /// "sim" (default) keeps the pure simulation — no `BlockIoEngine`, no
  /// bytes move, byte-identical to the pre-backend server. "mem",
  /// "file:<dir>" and "uring:<dir>" attach an engine: every served block
  /// issues a physical read and every migration round lands its copies
  /// through batched backend submissions. A non-"sim" backend forces
  /// `journal_migration` on — real bytes move only under the WAL protocol.
  std::string storage_backend = "sim";

  /// Per-disk submission-queue depth for real backends (io_uring ring
  /// entries; auto-submit high-water mark for the sync backend).
  int io_queue_depth = 32;

  /// Block-image size in bytes for real backends; must be a positive
  /// multiple of 4096 (the O_DIRECT sector alignment).
  int64_t io_block_bytes = 4096;

  // --- Multi-level checkpoint/restart (src/recovery). Effective only once
  // a CheckpointManager is attached (`CmServer::EnableCheckpoints`) — the
  // manager is owned outside the server, like the fault injector. ---

  /// Write an L1 (single local copy) checkpoint set every this many rounds
  /// (0 = no periodic checkpoints).
  int64_t checkpoint_every = 0;

  /// Write an L2 (redundant) set every this many rounds instead of the L1
  /// due that round (0 = L1 only). Should be a multiple of
  /// `checkpoint_every` to align with the L1 cadence.
  int64_t checkpoint_level2_every = 0;

  // --- Adaptive self-triggered reorganization (src/server/reorg_driver).
  // The driver watches the Section 4.3 ε budget before every scaling op
  // and the live per-disk CoV at end of round, and schedules a full
  // redistribution as a background migration job when either is
  // threatened. ---

  /// Master switch for the adaptive placement driver.
  bool auto_reorg = false;

  /// Governor generator width `b` for the budget watch (0 = use `bits`).
  int governor_bits = 0;

  /// Lemma 4.3 tolerance ε: the largest acceptable unfairness coefficient.
  /// The governor's budget and `CmServer::WouldExceedTolerance` both read
  /// it.
  double governor_eps = 0.05;

  /// CoV drift threshold that triggers a reorganization (0 = budget watch
  /// only, no CoV watch).
  double reorg_cov_threshold = 0.0;

  /// Rounds between CoV evaluations (CoV is O(disks) per check, but a
  /// triggered reorg is expensive — this knob paces how eagerly drift is
  /// noticed).
  int64_t reorg_check_every = 16;
};

}  // namespace scaddar

#endif  // SCADDAR_SERVER_CONFIG_H_
