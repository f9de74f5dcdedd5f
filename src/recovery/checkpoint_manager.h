#ifndef SCADDAR_RECOVERY_CHECKPOINT_MANAGER_H_
#define SCADDAR_RECOVERY_CHECKPOINT_MANAGER_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "util/statusor.h"

namespace scaddar {

class FaultInjector;

/// How a level-2 checkpoint set survives the loss of one snapshot location
/// (the SCR multi-level idea: frequent cheap local snapshots, rarer
/// redundant sets that survive whole-disk loss).
enum class CheckpointRedundancy {
  /// The full document is written to two distinct locations; either copy
  /// alone restores the set.
  kPartner,
  /// The document is split into `num_locations - 1` data fragments plus one
  /// XOR parity fragment, one per location; any single lost or corrupted
  /// fragment is reconstructed from the others.
  kXor,
};

/// "partner" | "xor" -> enum; InvalidArgument otherwise.
StatusOr<CheckpointRedundancy> ParseCheckpointRedundancy(
    std::string_view token);

struct CheckpointOptions {
  /// Independent snapshot locations (distinct failure domains — disk
  /// groups, in a real deployment). >= 2; >= 3 for XOR to beat partner.
  int64_t num_locations = 4;
  /// Scheme used by level-2 sets (level-1 sets are always one local copy).
  CheckpointRedundancy redundancy = CheckpointRedundancy::kPartner;
};

/// Identity of one written checkpoint set.
struct CheckpointSetInfo {
  int64_t id = 0;     // Monotonic set number (newest = largest).
  int level = 1;      // 1 = single local copy, 2 = redundant set.
  int64_t round = 0;  // Server round at capture.
};

/// Lifetime counters (bytes are fragment bytes, redundancy included).
struct CheckpointStats {
  int64_t l1_written = 0;
  int64_t l2_written = 0;
  int64_t bytes_written = 0;
  int64_t sets_rejected = 0;       // Torn/corrupt sets skipped during load.
  int64_t parity_rebuilds = 0;     // XOR reconstructions performed.
  int64_t snapshot_crashes = 0;    // Injected kills mid-write.
  int64_t snapshot_corruptions = 0;  // Injected fragment corruptions.
};

/// A successfully loaded checkpoint.
struct LoadedCheckpoint {
  CheckpointSetInfo info;
  std::string payload;
  int64_t sets_rejected = 0;  // Newer sets skipped as torn/corrupt.
  bool rebuilt_from_parity = false;
};

/// The durable side of multi-level checkpointing: a small farm of
/// independent snapshot locations, a write path that lays checkpoint sets
/// across them (L1 = one local copy, L2 = partner or XOR redundancy), and a
/// load path that returns the newest set that still validates — torn sets
/// (an injected kill mid-write), corrupted fragments (checksum mismatch)
/// and wholesale location loss all fall back or reconstruct.
///
/// Like the move journal, the manager keeps its "durable" bytes in memory:
/// it survives the simulated process kill (`CmServer` kill/restart drops
/// every volatile layer but keeps the manager and the journal text), and
/// the fault surface (`DropLocation`, `CorruptNewestAt`, injected
/// `snapcrash`/`snapcorrupt` events) produces exactly the on-disk states a
/// real crash or media fault would leave.
class CheckpointManager {
 public:
  explicit CheckpointManager(CheckpointOptions options = {});

  /// Writes one checkpoint set. `payload` is the encoded (already
  /// checksummed) snapshot document; `level` selects the redundancy
  /// (1 = local, 2 = the configured scheme). Consults `injector` (may be
  /// null) at every snapshot-phase boundary: a fired kill leaves whatever
  /// fragments were durable so far — possibly a torn set — and returns
  /// Unavailable; the caller must treat the process as dead.
  StatusOr<CheckpointSetInfo> Write(std::string_view payload, int level,
                                    int64_t round,
                                    FaultInjector* injector = nullptr);

  /// Newest set whose payload can be assembled and validates; falls back
  /// set by set (torn and corrupt sets are counted, never trusted).
  /// NotFound when no set survives.
  StatusOr<LoadedCheckpoint> LoadNewestValid();

  // --- Fault surface (tests and chaos scripts). --------------------------
  /// Destroys every fragment at `location` — whole-disk loss.
  Status DropLocation(int64_t location);

  /// Flips one byte in the newest fragment stored at `location` (silent
  /// media corruption; the load path must reject the fragment by checksum).
  Status CorruptNewestAt(int64_t location);

  int64_t num_locations() const {
    return static_cast<int64_t>(locations_.size());
  }
  int64_t num_sets() const { return static_cast<int64_t>(sets_.size()); }
  const CheckpointStats& stats() const { return stats_; }
  const CheckpointOptions& options() const { return options_; }

 private:
  struct Fragment {
    int64_t location = 0;
    std::string name;
  };
  struct SetRecord {
    CheckpointSetInfo info;
    CheckpointRedundancy redundancy = CheckpointRedundancy::kPartner;
    int64_t data_fragments = 1;   // Excluding parity.
    int64_t payload_bytes = 0;
    std::vector<Fragment> fragments;  // In write order; parity last (XOR).
  };

  /// Writes one framed fragment document; applies injected corruption.
  void PutFragment(SetRecord& record, int64_t location, int64_t index,
                   int64_t count, std::string_view bytes, bool parity,
                   FaultInjector* injector);

  /// Assembles and validates `record`'s payload; InvalidArgument/NotFound
  /// when the set is torn, corrupt beyond redundancy, or incomplete.
  StatusOr<std::string> Assemble(const SetRecord& record,
                                 bool* rebuilt_from_parity);

  CheckpointOptions options_;
  std::vector<std::map<std::string, std::string>> locations_;
  std::vector<SetRecord> sets_;  // Ascending set id.
  int64_t next_set_ = 1;
  CheckpointStats stats_;
};

}  // namespace scaddar

#endif  // SCADDAR_RECOVERY_CHECKPOINT_MANAGER_H_
