#ifndef SCADDAR_TESTS_SERVING_ORACLE_H_
#define SCADDAR_TESTS_SERVING_ORACLE_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "core/types.h"
#include "placement/policy.h"
#include "server/scheduler.h"
#include "server/stream.h"
#include "storage/block_store.h"
#include "storage/disk_array.h"

namespace scaddar {

/// One oracle round's outcome. `served_on` counts the requests each disk
/// served, indexed by physical id like the `DiskArray::BandwidthBudgets`
/// vector the round started from.
struct OracleRound {
  RoundServiceResult service;
  std::vector<int64_t> served_on;
};

/// A per-block scheduling round, the reference `RoundScheduler::RunBatched`
/// is checked against: streams in id order (FIFO fairness), each needing
/// `rate()` consecutive blocks per round; the first shortfall is a hiccup
/// and the stream stalls for the rest of the round (partial delivery of a
/// multi-rate frame is useless). `locate(stream)` routes the stream's next
/// block. Spends `budget` only — no disk counter, no I/O — so it can
/// predict a live server's round without touching it.
template <typename Locate>
OracleRound OracleServe(std::vector<Stream>& streams,
                        std::vector<int64_t> budget, Locate&& locate) {
  OracleRound round;
  round.served_on.assign(budget.size(), 0);
  for (Stream& stream : streams) {
    if (stream.finished() || stream.paused()) {
      continue;
    }
    for (int64_t r = 0; r < stream.rate() && !stream.finished(); ++r) {
      ++round.service.requests;
      const PhysicalDiskId location = locate(stream);
      // A request routed to an id without a live disk means the store (or
      // AF()) and the array disagree.
      SCADDAR_CHECK(location >= 0 &&
                    location < static_cast<PhysicalDiskId>(budget.size()) &&
                    budget[static_cast<size_t>(location)] != kNotLive);
      int64_t& remaining = budget[static_cast<size_t>(location)];
      if (remaining > 0) {
        --remaining;
        stream.DeliverBlock();
        ++round.served_on[static_cast<size_t>(location)];
        ++round.service.served;
      } else {
        stream.RecordHiccup();
        ++round.service.hiccups;
        break;
      }
    }
  }
  return round;
}

/// Store-lookup oracle: one `BlockStore::LocationOf` hash lookup per
/// request, so reads always route to the materialized location — the
/// truth the production cursors must reproduce mid-migration.
inline OracleRound ServeFromStore(std::vector<Stream>& streams,
                                  const BlockStore& store,
                                  std::vector<int64_t> budget) {
  return OracleServe(streams, std::move(budget), [&](const Stream& stream) {
    const StatusOr<PhysicalDiskId> location =
        store.LocationOf(stream.NextBlockRef());
    SCADDAR_CHECK(location.ok());
    return *location;
  });
}

/// Scalar-locate baseline: one virtual `policy.Locate` chain replay per
/// request. Routes like the store only while no migration is pending
/// (store == AF()); `bench_serving` measures the batch path against it.
inline OracleRound ServeByScalarLocate(std::vector<Stream>& streams,
                                       const PlacementPolicy& policy,
                                       std::vector<int64_t> budget) {
  return OracleServe(streams, std::move(budget), [&](const Stream& stream) {
    return policy.Locate(stream.object(), stream.next_block());
  });
}

}  // namespace scaddar

#endif  // SCADDAR_TESTS_SERVING_ORACLE_H_
