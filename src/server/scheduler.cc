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

/// Streams ahead of the one being served whose next row entry each
/// iteration prefetches. On `e2e_bench`'s `serve_steady` (median of four
/// runs) `run_cpu_s` read 0.224 s without the prefetch and 0.174, 0.149
/// and 0.147 s at 8, 24 and 64 streams ahead: the gain levels off by 24.
constexpr size_t kPrefetchAhead = 24;

/// What one round of serving reads and spends.
struct ServeRound {
  const BlockStore& store;
  DiskArray& disks;
  std::span<int64_t> budget;
  std::span<int64_t> served_on;
  BlockIoEngine* io;
  int64_t round;
  std::vector<int64_t>* startup_latencies;
  RoundServiceResult result;
};

/// Marks the stream's first delivered block and takes its startup sample.
void NoteDelivery(Stream& stream, const ServeRound& round) {
  if (!stream.playback_started()) [[unlikely]] {
    stream.MarkPlaybackStarted();
    if (round.startup_latencies != nullptr) {
      round.startup_latencies->push_back(round.round - stream.start_round());
    }
  }
}

/// One round of `stream`, whose object has copies: each read lands on the
/// primary or, when the primary's disk failed, has no budget left or an
/// injected transient error hits the read, on copies 1..R-1 in order (copy
/// `c` of block `i` is row `c*B + i` of the store row). Only a block with
/// no readable copy hiccups. Kept out of line: inlined into the serving
/// loop, or as a branch inside the one-copy loop, it measurably slowed
/// every one-copy read.
[[gnu::noinline]] void ServeFromCopies(Stream& stream, ServeRound& round) {
  FaultInjector* const injector = round.disks.fault_injector();
  const PhysicalDiskId* const row = stream.Row(round.store);
  for (int64_t r = 0; r < stream.rate() && !stream.finished(); ++r) {
    ++round.result.requests;
    PhysicalDiskId disk = 0;
    int64_t* remaining = nullptr;
    for (int64_t c = 0; c < stream.copies() && remaining == nullptr; ++c) {
      disk = row[static_cast<size_t>(c * stream.num_blocks() +
                                     stream.next_block())];
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
    NoteDelivery(stream, round);
    ++round.served_on[static_cast<size_t>(disk)];
    ++round.result.served;
  }
}

}  // namespace

RoundServiceResult RoundScheduler::RunBatched(
    std::vector<Stream>& streams, const BlockStore& store, DiskArray& disks,
    std::vector<int64_t>* leftover, int64_t round,
    std::vector<int64_t>* startup_latencies) const {
  RoundServiceResult result;
  // Served-request counters live in a flat array beside the budgets and
  // flush once per disk at the end of the round.
  std::vector<int64_t> budget = disks.BandwidthBudgets();
  std::vector<int64_t> served_on(budget.size(), 0);
  ServeRound serving{store, disks, budget, served_on, io_, round,
                     startup_latencies, {}};
  for (size_t s = 0; s < streams.size(); ++s) {
    if (s + kPrefetchAhead < streams.size()) {
      streams[s + kPrefetchAhead].PrefetchNext();
    }
    Stream& stream = streams[s];
    if (stream.finished() || stream.paused()) {
      continue;
    }
    if (stream.copies() > 1) {
      ServeFromCopies(stream, serving);
      continue;
    }
    const PhysicalDiskId* const row = stream.Row(store);
    for (int64_t r = 0; r < stream.rate() && !stream.finished(); ++r) {
      ++result.requests;
      const PhysicalDiskId location =
          row[static_cast<size_t>(stream.next_block())];
      int64_t* const remaining = ServingBudget(budget, disks, location);
      if (remaining != nullptr && *remaining > 0) {
        --*remaining;
        if (io_ != nullptr) {
          SCADDAR_CHECK(
              io_->EnqueueServeRead(stream.NextBlockRef(), location).ok());
        }
        stream.DeliverBlock();
        NoteDelivery(stream, serving);
        ++served_on[static_cast<size_t>(location)];
        ++result.served;
      } else {
        stream.RecordHiccup();
        ++result.hiccups;
        break;
      }
    }
  }
  result.requests += serving.result.requests;
  result.served += serving.result.served;
  result.served_degraded += serving.result.served_degraded;
  result.hiccups += serving.result.hiccups;
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
