#include "server/scheduler.h"

#include <utility>

#include "storage/block_io.h"

namespace scaddar {

namespace {

/// The budget slot of the disk a request routes to. A block can transiently
/// sit on a retiring disk; such disks stay in the live set until drained,
/// so a request routed to an id without a live disk means the store (or
/// AF()) and the array disagree — a real bug.
int64_t& ServingBudget(std::vector<int64_t>& budget, PhysicalDiskId location) {
  SCADDAR_CHECK(location >= 0 &&
                location < static_cast<PhysicalDiskId>(budget.size()) &&
                budget[static_cast<size_t>(location)] != kNotLive);
  return budget[static_cast<size_t>(location)];
}

}  // namespace

RoundServiceResult RoundScheduler::RunBatched(
    std::vector<Stream>& streams, const PlacementPolicy& policy,
    const MigrationExecutor& migration, const BlockStore& store,
    DiskArray& disks, std::vector<int64_t>* leftover) const {
  RoundServiceResult result;
  // Served-request counters live in a flat array beside the budgets and
  // flush once per disk at the end of the round.
  std::vector<int64_t> budget = disks.BandwidthBudgets();
  std::vector<int64_t> served_on(budget.size(), 0);
  for (Stream& stream : streams) {
    if (stream.finished() || stream.paused()) {
      continue;
    }
    LocationCursor& cursor = stream.cursor();
    for (int64_t r = 0; r < stream.rate() && !stream.finished(); ++r) {
      ++result.requests;
      const PhysicalDiskId location =
          cursor.Get(stream.next_block(), policy, store, migration);
      int64_t& remaining = ServingBudget(budget, location);
      if (remaining > 0) {
        --remaining;
        if (io_ != nullptr) {
          SCADDAR_CHECK(
              io_->EnqueueServeRead(stream.NextBlockRef(), location).ok());
        }
        stream.DeliverBlock();
        ++served_on[static_cast<size_t>(location)];
        ++result.served;
      } else {
        stream.RecordHiccup();
        ++result.hiccups;
        break;
      }
    }
  }
  for (size_t id = 0; id < served_on.size(); ++id) {
    if (served_on[id] > 0) {
      disks.GetDisk(static_cast<PhysicalDiskId>(id))
          .value()
          ->RecordServedRequests(served_on[id]);
    }
  }
  if (leftover != nullptr) {
    *leftover = std::move(budget);
  }
  return result;
}

}  // namespace scaddar
