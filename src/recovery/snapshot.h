#ifndef SCADDAR_RECOVERY_SNAPSHOT_H_
#define SCADDAR_RECOVERY_SNAPSHOT_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/governor.h"
#include "core/types.h"
#include "util/statusor.h"

namespace scaddar {

/// The versioned, checksummed snapshot documents behind multi-level
/// checkpoint/restart — the server's one persisted form. A snapshot
/// captures *everything* a server needs to resume: the metadata AF() is
/// computed from (policy + op log + catalog), plus the materialized store
/// rows, staged copies, active stream cursors, serving counters and the
/// unfinished suffix of the move journal as of the capture instant. The
/// rows are a restart cache: restoring them directly is what makes a
/// checkpoint restart cheaper than replaying placement history, since no
/// remap chain is walked per block.
///
/// Every document starts with one header line
///
///   <magic> <payload-bytes> <checksum: 16 lowercase hex digits>
///
/// and decoding rejects any document whose byte count or checksum does not
/// match — a torn or corrupted snapshot is detected before a single field
/// is trusted, and the checkpoint loader falls back to the previous set.
/// The payload is text lines, except that each `object` line is followed
/// by its row as a binary section (see `EncodeServerSnapshot`).

/// A 64-bit word-wise checksum over `data` — the integrity checksum on
/// snapshot documents and checkpoint fragments. xxHash64-style: four lanes
/// of 8-byte little-endian words, folded, then the tail, then an avalanche.
/// Every step is a bijection of the running state for a fixed input and
/// injective in its input word for a fixed state, so any single changed
/// byte always changes the checksum.
uint64_t SnapshotChecksum(std::string_view data);

/// Prepends the `<magic> <bytes> <checksum>` header line to `payload`.
std::string WrapChecksummed(std::string_view magic, std::string_view payload);

/// Validates the header line and returns the payload view into `document`.
/// InvalidArgument ("torn"/"checksum mismatch") on any disagreement.
StatusOr<std::string_view> UnwrapChecksummed(std::string_view magic,
                                             std::string_view document);

/// One catalog object plus its materialized placement row.
struct SnapshotObject {
  ObjectId id = 0;
  int64_t num_blocks = 0;
  int64_t weight = 1;
  int64_t generation = 0;
  Epoch epoch_added = 0;
  std::vector<PhysicalDiskId> row;  // row[i] = block i's physical disk.

  friend bool operator==(const SnapshotObject&,
                         const SnapshotObject&) = default;
};

/// One active playback session, cursor position included.
struct SnapshotStream {
  int64_t id = 0;
  ObjectId object = 0;
  BlockIndex next_block = 0;
  int64_t rate = 1;
  int64_t start_round = 0;
  int64_t hiccups = 0;
  bool paused = false;
  bool playback_started = false;

  friend bool operator==(const SnapshotStream&,
                         const SnapshotStream&) = default;
};

/// Full single-server state at one instant.
struct ServerSnapshot {
  std::string policy;
  std::string oplog;    // OpLog::Serialize text.
  // MoveJournal::SerializeUnfinished text as of the capture: only the moves
  // still in flight (none at a round boundary) plus the next id. The rows
  // and staged copies already record every committed or aborted move.
  std::string journal;
  std::vector<SnapshotObject> objects;  // Catalog registration order.
  std::vector<std::pair<BlockRef, PhysicalDiskId>> staged;
  std::vector<SnapshotStream> streams;
  std::vector<int64_t> startup_latencies;
  int64_t round = 0;
  int64_t next_stream_id = 0;
  int64_t completed_streams = 0;
  int64_t total_served = 0;
  int64_t total_hiccups = 0;
  // True when the capture was quiescent: migration idle, no staged copies,
  // no retiring disks — i.e. the rows provably equal AF(). A restore from a
  // quiescent snapshot with an empty surviving WAL skips the divergence
  // rescan entirely (nothing was in flight, nothing moved afterwards).
  bool converged = false;
  // Adaptive reorg driver state. `governor_bits == 0` means the document
  // predates the driver (or never configured one): restore keeps the
  // config-built driver and empty trigger history.
  int governor_bits = 0;
  double governor_eps = 0.0;
  double reorg_cov_threshold = 0.0;
  int64_t reorg_check_every = 16;
  bool auto_reorg = false;
  std::vector<ReorgTrigger> reorg_triggers;
};

/// Encodes `snapshot` as one `scaddar-ckpt-v2` document. Each object is a
/// text line `object <id> <blocks> <weight> <generation> <epoch> <len>
/// <width>` followed by its row: `len` disk ids of `width` bytes each,
/// little-endian, then a newline. `width` is the narrowest of 1, 2, 4 and 8
/// bytes that holds the row's largest id; ids outside [0, 2^32) take 8.
std::string EncodeServerSnapshot(const ServerSnapshot& snapshot);
StatusOr<ServerSnapshot> DecodeServerSnapshot(std::string_view document);

/// One member shard inside a cluster snapshot. The document is a complete
/// `EncodeServerSnapshot` output (own header + checksum), nested verbatim.
struct ClusterSnapshotShard {
  int member = 0;
  bool retiring = false;
  std::string document;

  friend bool operator==(const ClusterSnapshotShard&,
                         const ClusterSnapshotShard&) = default;
};

/// Cluster-wide state: the seat-table router, the owner directory (object
/// insertion order — the deterministic spine of the transfer queue) and one
/// nested server snapshot per shard. In-flight cross-shard transfers are
/// volatile by design: restore re-derives them from route-vs-owner
/// divergence, the same reconciliation that runs after a membership change.
struct ClusterSnapshot {
  std::vector<int> seats;
  int next_member = 0;
  int64_t map_epoch = 0;
  std::vector<std::pair<ObjectId, int>> owners;  // Insertion order.
  std::vector<ClusterSnapshotShard> shards;      // Creation order.
  int64_t round = 0;
  int64_t handoff_rejects = 0;
  // Startup latencies and stream counters of destroyed shards. Each line is
  // written only when non-empty or non-zero; a document without it decodes
  // as empty or zero.
  std::vector<int64_t> retired_latencies;
  int64_t retired_served = 0;
  int64_t retired_hiccups = 0;
  int64_t retired_completed = 0;
};

std::string EncodeClusterSnapshot(const ClusterSnapshot& snapshot);
StatusOr<ClusterSnapshot> DecodeClusterSnapshot(std::string_view document);

}  // namespace scaddar

#endif  // SCADDAR_RECOVERY_SNAPSHOT_H_
