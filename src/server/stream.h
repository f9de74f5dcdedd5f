#ifndef SCADDAR_SERVER_STREAM_H_
#define SCADDAR_SERVER_STREAM_H_

#include <cstdint>

#include "core/types.h"
#include "server/location_cursor.h"

namespace scaddar {

/// One client playback session. A stream consumes its object's blocks in
/// order, one per round; a round in which the scheduled disk could not
/// deliver the block is a *hiccup* (the display glitch CM servers exist to
/// avoid) and the stream stalls at the same block.
///
/// Sequential consumption is what makes the batch serving path work: each
/// stream owns a `LocationCursor` whose prefetched window the scheduler
/// reads instead of resolving every block individually.
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
        copies_(static_cast<int32_t>(copies)),
        cursor_(object, num_blocks) {}

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

  /// Startup-latency observation: true once the server has noted the
  /// stream's first delivered block (`CmServer::Tick` flips it and records
  /// `round - start_round` as the stream's startup latency). Pure
  /// bookkeeping — never read by any serving path.
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
  /// cross-shard handoff: cursor, pause state and per-stream counters.
  void RestoreProgress(BlockIndex next_block, int64_t hiccups, bool paused,
                       bool playback_started);

  int64_t num_blocks() const { return num_blocks_; }

  /// Blocks this stream must receive per round to avoid a hiccup.
  int64_t rate() const { return rate_; }

  /// Copies of every block of the object.
  int64_t copies() const { return copies_; }

  /// The stream's prefetch window over its object's serving locations.
  LocationCursor& cursor() { return cursor_; }
  const LocationCursor& cursor() const { return cursor_; }

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
  LocationCursor cursor_;
};

}  // namespace scaddar

#endif  // SCADDAR_SERVER_STREAM_H_
