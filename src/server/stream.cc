#include "server/stream.h"

#include <algorithm>

namespace scaddar {

void Stream::SeekTo(BlockIndex block) {
  next_block_ = std::clamp<BlockIndex>(block, 0, num_blocks_);
}

void Stream::RestoreProgress(BlockIndex next_block, int64_t hiccups,
                             bool paused, bool playback_started) {
  next_block_ = std::clamp<BlockIndex>(next_block, 0, num_blocks_);
  hiccups_ = hiccups;
  paused_ = paused;
  playback_started_ = playback_started;
}

void Stream::FetchRow(const BlockStore& store) {
  const StatusOr<std::span<const PhysicalDiskId>> row =
      store.LocationsOf(object_);
  // A stream's object stays in its server's store until the stream ends.
  SCADDAR_CHECK(row.ok());
  row_ = row->data();
  row_key_ = store.layout_key();
}

}  // namespace scaddar
