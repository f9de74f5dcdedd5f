#ifndef SCADDAR_SERVER_STREAM_H_
#define SCADDAR_SERVER_STREAM_H_

#include <cstdint>

#include "core/types.h"
#include "storage/block_store.h"

namespace scaddar {

/// One client playback session. A stream consumes its object's blocks in
/// order, one per round; a round in which the scheduled disk could not
/// deliver the block is a *hiccup* (the display glitch CM servers exist to
/// avoid) and the stream stalls at the same block.
///
/// A stream reads its block's location straight from its object's store
/// row, the materialized truth that moves update in place. It keeps a
/// pointer to that row and re-fetches it only when the store's
/// `layout_key()` changes, so a read is one load.
class Stream {
 public:
  /// `rate` is the stream's bandwidth in blocks per round (>= 1): a
  /// double-rate object consumes two blocks every round. Defaults to 1.
  /// `copies` is the object's copy count; reads fall back across copies.
  Stream(int64_t id, ObjectId object, int64_t num_blocks, int64_t start_round,
         int64_t rate = 1, int64_t copies = 1)
      : id_(id),
        object_(object),
        num_blocks_(num_blocks),
        start_round_(start_round),
        rate_(rate),
        copies_(static_cast<int32_t>(copies)) {}

  int64_t id() const { return id_; }
  ObjectId object() const { return object_; }
  int64_t start_round() const { return start_round_; }

  bool finished() const { return next_block_ >= num_blocks_; }
  BlockIndex next_block() const { return next_block_; }
  BlockRef NextBlockRef() const { return BlockRef{object_, next_block_}; }

  /// The block was delivered this round; advance playback.
  void DeliverBlock() { ++next_block_; }

  /// The block was not delivered; stall and count the glitch.
  void RecordHiccup() { ++hiccups_; }

  int64_t hiccups() const { return hiccups_; }

  /// Startup-latency observation: true once the stream's first block was
  /// delivered (the serving round flips it and records `round -
  /// start_round` as the stream's startup latency). A handoff or restore
  /// carries it, so a stream has one sample.
  bool playback_started() const { return playback_started_; }
  void MarkPlaybackStarted() { playback_started_ = true; }

  // --- VCR-style operations (Section 1: "interactive applications or
  // VCR-style operations on CM streams" are exactly what random placement
  // supports and constrained striping does not). ---

  /// Paused streams consume no blocks and no bandwidth.
  bool paused() const { return paused_; }
  void Pause() { paused_ = true; }
  void Resume() { paused_ = false; }

  /// Jumps playback to `block` (clamped to [0, num_blocks]); a seek to
  /// `num_blocks` ends the stream.
  void SeekTo(BlockIndex block);

  /// Reattaches a stream at a saved position — a checkpoint restore or a
  /// cross-shard handoff: position, pause state and per-stream counters.
  void RestoreProgress(BlockIndex next_block, int64_t hiccups, bool paused,
                       bool playback_started);

  int64_t num_blocks() const { return num_blocks_; }

  /// Blocks this stream must receive per round to avoid a hiccup.
  int64_t rate() const { return rate_; }

  /// Copies of every block of the object.
  int64_t copies() const { return copies_; }

  /// The object's store row in `store`: `row[c*B + i]` is the disk that
  /// holds copy `c` of block `i`, B = `num_blocks()`. Fetched through
  /// `BlockStore::LocationsOf` only when `store.layout_key()` moved since
  /// the last fetch.
  const PhysicalDiskId* Row(const BlockStore& store) {
    if (row_key_ != store.layout_key()) [[unlikely]] {
      FetchRow(store);
    }
    return row_;
  }

  /// Starts loading the row entry of the next block into cache, from the
  /// last fetched row: a stale row only wastes the hint, since a prefetch
  /// never faults. A stream that has not read yet has no row, and offsetting
  /// a null pointer is undefined, so it is skipped.
  void PrefetchNext() const {
    if (row_ != nullptr) {
      __builtin_prefetch(row_ + next_block_);
    }
  }

 private:
  int64_t id_;
  ObjectId object_;
  int64_t num_blocks_;
  int64_t start_round_;
  int64_t rate_;
  BlockIndex next_block_ = 0;
  int64_t hiccups_ = 0;
  bool paused_ = false;
  bool playback_started_ = false;
  // Beside the flags, in what would be padding: a copy count never exceeds
  // the disk count, and the serving loop walks streams every round.
  int32_t copies_;
  const PhysicalDiskId* row_ = nullptr;
  uint64_t row_key_ = 0;  // Matches no store: layout keys start at 1.

  void FetchRow(const BlockStore& store);
};

}  // namespace scaddar

#endif  // SCADDAR_SERVER_STREAM_H_
