#include "server/scheduler.h"

#include <span>
#include <utility>

#include "faults/injector.h"
#include "storage/block_io.h"

namespace scaddar {

namespace {

/// The budget slot of the disk a read routes to, or null when that disk
/// failed. A block can transiently sit on a retiring disk; such disks stay
/// in the live set until drained, so a request routed to any other id
/// without a live disk means the store (or AF()) and the array disagree —
/// a real bug.
int64_t* ServingBudget(std::span<int64_t> budget, const DiskArray& disks,
                       PhysicalDiskId location) {
  if (location >= 0 && location < static_cast<PhysicalDiskId>(budget.size()) &&
      budget[static_cast<size_t>(location)] != kNotLive) {
    return &budget[static_cast<size_t>(location)];
  }
  SCADDAR_CHECK(disks.IsFailed(location));
  return nullptr;
}

/// What one round of serving reads and spends.
struct ServeRound {
  const PlacementPolicy& policy;
  const MigrationExecutor& migration;
  const BlockStore& store;
  DiskArray& disks;
  std::span<int64_t> budget;
  std::span<int64_t> served_on;
  BlockIoEngine* io;
  RoundServiceResult result;
};

/// One round of `stream`, whose object has copies: each read lands on the
/// primary or, when the primary's disk failed, has no budget left or an
/// injected transient error hits the read, on copies 1..R-1 in order (copy
/// `c` of block `i` is row `c*B + i` of the store row). Only a block with
/// no readable copy hiccups. Kept out of line: inlined into the serving
/// loop, or as a branch inside the one-copy loop, it measurably slowed
/// every one-copy read.
[[gnu::noinline]] void ServeFromCopies(Stream& stream, ServeRound& round) {
  FaultInjector* const injector = round.disks.fault_injector();
  for (int64_t r = 0; r < stream.rate() && !stream.finished(); ++r) {
    ++round.result.requests;
    PhysicalDiskId disk = stream.cursor().Get(stream.next_block(), round.policy,
                                              round.store, round.migration);
    int64_t* remaining = nullptr;
    for (int64_t c = 0; c < stream.copies() && remaining == nullptr; ++c) {
      if (c > 0) {
        disk = round.store.LocationsOf(stream.object())
                   .value()[static_cast<size_t>(
                       c * stream.num_blocks() + stream.next_block())];
      }
      remaining = ServingBudget(round.budget, round.disks, disk);
      if (remaining != nullptr && *remaining <= 0) {
        remaining = nullptr;
      } else if (remaining != nullptr && injector != nullptr &&
                 injector->FailRead(disk)) {
        round.disks.GetDisk(disk).value()->RecordTransientError();
        remaining = nullptr;
      }
      round.result.served_degraded += remaining != nullptr && c > 0 ? 1 : 0;
    }
    if (remaining == nullptr) {
      stream.RecordHiccup();
      ++round.result.hiccups;
      break;
    }
    --*remaining;
    if (round.io != nullptr) {
      SCADDAR_CHECK(
          round.io->EnqueueServeRead(stream.NextBlockRef(), disk).ok());
    }
    stream.DeliverBlock();
    ++round.served_on[static_cast<size_t>(disk)];
    ++round.result.served;
  }
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
  ServeRound copies{policy, migration, store, disks, budget, served_on, io_,
                    {}};
  for (Stream& stream : streams) {
    if (stream.finished() || stream.paused()) {
      continue;
    }
    if (stream.copies() > 1) {
      ServeFromCopies(stream, copies);
      continue;
    }
    LocationCursor& cursor = stream.cursor();
    for (int64_t r = 0; r < stream.rate() && !stream.finished(); ++r) {
      ++result.requests;
      const PhysicalDiskId location =
          cursor.Get(stream.next_block(), policy, store, migration);
      int64_t* const remaining = ServingBudget(budget, disks, location);
      if (remaining != nullptr && *remaining > 0) {
        --*remaining;
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
  result.requests += copies.result.requests;
  result.served += copies.result.served;
  result.served_degraded += copies.result.served_degraded;
  result.hiccups += copies.result.hiccups;
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
