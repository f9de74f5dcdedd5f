#ifndef SCADDAR_SERVER_SCHEDULER_H_
#define SCADDAR_SERVER_SCHEDULER_H_

#include <cstdint>
#include <vector>

#include "server/stream.h"
#include "storage/block_store.h"
#include "storage/disk_array.h"

namespace scaddar {

class BlockIoEngine;

/// Outcome of one scheduling round.
struct RoundServiceResult {
  int64_t requests = 0;
  int64_t served = 0;
  int64_t served_degraded = 0;  // Of `served`: read from a non-primary copy.
  int64_t hiccups = 0;
};

/// Round-based retrieval scheduler. Each active stream requests its next
/// block; the request is routed to the disk that *materially* holds the
/// block (the block store — not the placement target, which may differ
/// mid-migration). A disk serves at most its per-round bandwidth; overflow
/// requests hiccup and the stream retries next round. For an object with
/// several copies, a request whose primary disk has failed, has no budget
/// left or hits an injected read error falls back to copies 1..R-1 in
/// order; only a block with no readable copy hiccups.
///
/// Each request reads the stream's store row (`Stream::Row`) at its next
/// block, and each iteration prefetches that entry for the stream a fixed
/// distance ahead, since rows are scattered over memory. Served-request
/// counters flush once per disk per round. The per-block store-lookup and
/// scalar-`Locate` rounds in `tests/serving_oracle.h` are its equivalence
/// oracle and the `bench_serving` baselines.
///
/// `leftover` (if non-null) receives each live disk's unused bandwidth,
/// indexed by physical id like `DiskArray::BandwidthBudgets` (`kNotLive`
/// for ids with no live disk). The migration executor spends it afterwards
/// — this is how online reorganization shares the array with normal
/// service.
class RoundScheduler {
 public:
  /// Attaches (or detaches, with null) the real-I/O engine. With an engine
  /// attached, every delivered block also queues a physical serve read
  /// (`BlockIoEngine::EnqueueServeRead`) against the disk that served it;
  /// the server drains the round's reads with `FinishServeRound` after the
  /// scheduler returns, so submission overlaps the migration phase.
  void set_io_engine(BlockIoEngine* io) { io_ = io; }

  /// Serves round `round`. A stream's first delivered block marks its
  /// playback started and appends `round - start_round()` to
  /// `startup_latencies` (if non-null).
  RoundServiceResult RunBatched(
      std::vector<Stream>& streams, const BlockStore& store, DiskArray& disks,
      std::vector<int64_t>* leftover, int64_t round = 0,
      std::vector<int64_t>* startup_latencies = nullptr) const;

 private:
  BlockIoEngine* io_ = nullptr;  // Not owned; may be null.
};

}  // namespace scaddar

#endif  // SCADDAR_SERVER_SCHEDULER_H_
