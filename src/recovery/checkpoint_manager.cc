#include "recovery/checkpoint_manager.h"

#include <algorithm>
#include <utility>

#include "faults/injector.h"
#include "recovery/snapshot.h"
#include "util/tokens.h"

namespace scaddar {

namespace {

constexpr std::string_view kFragMagic = "scaddar-ckptfrag-v2";

StatusOr<int64_t> ParseInt(std::string_view token) {
  return ParseIntToken(token, "checkpoint fragment");
}

/// One validated fragment, parsed out of its framed document.
struct FragmentView {
  int64_t set = 0;
  int level = 0;
  int64_t round = 0;
  int64_t index = 0;
  int64_t count = 0;
  bool parity = false;
  int64_t total_bytes = 0;
  std::string_view bytes;
};

/// Frames fragment `bytes`: a header line under the fragment checksum, so
/// a flipped byte anywhere — header or body — fails validation.
std::string FrameFragment(const CheckpointSetInfo& info, int64_t index,
                          int64_t count, bool parity, int64_t total_bytes,
                          std::string_view bytes) {
  std::string inner = "frag ";
  inner += std::to_string(info.id);
  inner += ' ';
  inner += std::to_string(info.level);
  inner += ' ';
  inner += std::to_string(info.round);
  inner += ' ';
  inner += std::to_string(index);
  inner += ' ';
  inner += std::to_string(count);
  inner += ' ';
  inner += parity ? '1' : '0';
  inner += ' ';
  inner += std::to_string(total_bytes);
  inner += '\n';
  inner += bytes;
  return WrapChecksummed(kFragMagic, inner);
}

StatusOr<FragmentView> ParseFragment(std::string_view document) {
  SCADDAR_ASSIGN_OR_RETURN(const std::string_view inner,
                           UnwrapChecksummed(kFragMagic, document));
  const size_t eol = inner.find('\n');
  if (eol == std::string_view::npos) {
    return InvalidArgumentError("checkpoint fragment has no header");
  }
  const std::vector<std::string_view> fields =
      SplitTokens(inner.substr(0, eol));
  if (fields.size() != 8 || fields[0] != "frag") {
    return InvalidArgumentError("malformed checkpoint fragment header");
  }
  FragmentView view;
  SCADDAR_ASSIGN_OR_RETURN(view.set, ParseInt(fields[1]));
  SCADDAR_ASSIGN_OR_RETURN(const int64_t level, ParseInt(fields[2]));
  SCADDAR_ASSIGN_OR_RETURN(view.round, ParseInt(fields[3]));
  SCADDAR_ASSIGN_OR_RETURN(view.index, ParseInt(fields[4]));
  SCADDAR_ASSIGN_OR_RETURN(view.count, ParseInt(fields[5]));
  SCADDAR_ASSIGN_OR_RETURN(const int64_t parity, ParseInt(fields[6]));
  SCADDAR_ASSIGN_OR_RETURN(view.total_bytes, ParseInt(fields[7]));
  view.level = static_cast<int>(level);
  view.parity = parity != 0;
  view.bytes = inner.substr(eol + 1);
  return view;
}

}  // namespace

StatusOr<CheckpointRedundancy> ParseCheckpointRedundancy(
    std::string_view token) {
  if (token == "partner") {
    return CheckpointRedundancy::kPartner;
  }
  if (token == "xor") {
    return CheckpointRedundancy::kXor;
  }
  return InvalidArgumentError(
      "unrecognized checkpoint redundancy (want partner|xor)");
}

CheckpointManager::CheckpointManager(CheckpointOptions options)
    : options_(options),
      locations_(static_cast<size_t>(std::max<int64_t>(
          options.num_locations, 2))) {
  options_.num_locations = static_cast<int64_t>(locations_.size());
}

void CheckpointManager::PutFragment(SetRecord& record, int64_t location,
                                    int64_t index, int64_t count,
                                    std::string_view bytes, bool parity,
                                    FaultInjector* injector) {
  std::string name = "set" + std::to_string(record.info.id) +
                     (parity ? ".parity" : ".frag" + std::to_string(index));
  std::string document = FrameFragment(record.info, index, count, parity,
                                       record.payload_bytes, bytes);
  stats_.bytes_written += static_cast<int64_t>(document.size());
  auto& slot = locations_[static_cast<size_t>(location)][name];
  slot = std::move(document);
  if (injector != nullptr && injector->CorruptSnapshotAt(location)) {
    // Injected silent media corruption: flip one byte mid-document. The
    // load path must reject this fragment by checksum, never trust it.
    slot[slot.size() / 2] ^= 0x40;
    ++stats_.snapshot_corruptions;
  }
  record.fragments.push_back(Fragment{location, std::move(name)});
}

StatusOr<CheckpointSetInfo> CheckpointManager::Write(std::string_view payload,
                                                     int level, int64_t round,
                                                     FaultInjector* injector) {
  if (level != 1 && level != 2) {
    return InvalidArgumentError("checkpoint level must be 1 or 2");
  }
  if (injector != nullptr) {
    injector->BeginSnapshot();
    if (injector->CrashAtSnapshot(SnapshotPhase::kCaptured)) {
      ++stats_.snapshot_crashes;
      return UnavailableError("injected kill before any snapshot write");
    }
  }
  const int64_t num_locations = this->num_locations();
  SetRecord record;
  record.info.id = next_set_++;
  record.info.level = level;
  record.info.round = round;
  record.redundancy = options_.redundancy;
  record.payload_bytes = static_cast<int64_t>(payload.size());
  const int64_t home = record.info.id % num_locations;

  // The set record is appended *before* its fragments land — the manifest
  // intent. A kill mid-write leaves a recorded but torn set, exactly the
  // state the load path must detect and skip.
  sets_.push_back(std::move(record));
  SetRecord& live = sets_.back();

  const auto crash_at = [&](SnapshotPhase phase) {
    if (injector != nullptr && injector->CrashAtSnapshot(phase)) {
      ++stats_.snapshot_crashes;
      return true;
    }
    return false;
  };

  if (level == 1) {
    live.data_fragments = 1;
    PutFragment(live, home, 0, 1, payload, /*parity=*/false, injector);
    if (crash_at(SnapshotPhase::kPrimaryWritten)) {
      return UnavailableError("injected kill after primary snapshot write");
    }
    ++stats_.l1_written;
  } else if (options_.redundancy == CheckpointRedundancy::kPartner) {
    live.data_fragments = 2;
    PutFragment(live, home, 0, 2, payload, /*parity=*/false, injector);
    if (crash_at(SnapshotPhase::kPrimaryWritten)) {
      return UnavailableError("injected kill after primary snapshot write");
    }
    PutFragment(live, (home + 1) % num_locations, 1, 2, payload,
                /*parity=*/false, injector);
    ++stats_.l2_written;
  } else {
    // XOR across locations: num_locations - 1 data pieces + one parity,
    // each on its own location. piece_len covers the payload with the last
    // piece possibly short; parity is the XOR of zero-padded pieces.
    const int64_t pieces = num_locations - 1;
    const int64_t total = live.payload_bytes;
    const int64_t piece_len = std::max<int64_t>((total + pieces - 1) / pieces,
                                                1);
    live.data_fragments = pieces;
    std::string parity(static_cast<size_t>(piece_len), '\0');
    for (int64_t i = 0; i < pieces; ++i) {
      const int64_t begin = std::min(i * piece_len, total);
      const int64_t end = std::min(begin + piece_len, total);
      const std::string_view piece =
          payload.substr(static_cast<size_t>(begin),
                         static_cast<size_t>(end - begin));
      for (int64_t b = 0; b < end - begin; ++b) {
        parity[static_cast<size_t>(b)] ^= piece[static_cast<size_t>(b)];
      }
      PutFragment(live, (home + i) % num_locations, i, pieces + 1, piece,
                  /*parity=*/false, injector);
      if (i == 0 && crash_at(SnapshotPhase::kPrimaryWritten)) {
        return UnavailableError("injected kill after primary snapshot write");
      }
    }
    PutFragment(live, (home + pieces) % num_locations, pieces, pieces + 1,
                parity, /*parity=*/true, injector);
    ++stats_.l2_written;
  }
  if (crash_at(SnapshotPhase::kSetComplete)) {
    // The set is fully durable; the restart simply resumes from it.
    return UnavailableError("injected kill after snapshot set completed");
  }
  return live.info;
}

StatusOr<std::string> CheckpointManager::Assemble(const SetRecord& record,
                                                  bool* rebuilt_from_parity) {
  *rebuilt_from_parity = false;
  // Collect whatever fragments still exist and validate.
  std::vector<StatusOr<FragmentView>> views;
  views.reserve(record.fragments.size());
  for (const Fragment& fragment : record.fragments) {
    const auto& store = locations_[static_cast<size_t>(fragment.location)];
    const auto it = store.find(fragment.name);
    if (it == store.end()) {
      views.push_back(NotFoundError("checkpoint fragment missing"));
      continue;
    }
    StatusOr<FragmentView> view = ParseFragment(it->second);
    if (view.ok() &&
        (view->set != record.info.id ||
         view->total_bytes != record.payload_bytes)) {
      view = InvalidArgumentError("checkpoint fragment identity mismatch");
    }
    views.push_back(std::move(view));
  }

  if (record.info.level == 1 ||
      record.redundancy == CheckpointRedundancy::kPartner) {
    // Any valid full copy restores the set.
    const int64_t expected =
        record.info.level == 1 ? 1 : record.data_fragments;
    if (static_cast<int64_t>(record.fragments.size()) < expected) {
      return InvalidArgumentError("checkpoint set torn (write interrupted)");
    }
    for (size_t i = 0; i < views.size(); ++i) {
      if (!views[i].ok()) {
        continue;
      }
      if (record.info.level == 2 && i > 0) {
        *rebuilt_from_parity = true;  // Primary lost; partner copy used.
      }
      return std::string(views[i]->bytes);
    }
    return InvalidArgumentError("no valid copy of checkpoint set");
  }

  // XOR reconstruction. All pieces plus parity must have been written; a
  // torn set (kill mid-write) is rejected outright.
  const int64_t pieces = record.data_fragments;
  if (static_cast<int64_t>(record.fragments.size()) != pieces + 1) {
    return InvalidArgumentError("checkpoint set torn (write interrupted)");
  }
  const int64_t total = record.payload_bytes;
  const int64_t piece_len = std::max<int64_t>((total + pieces - 1) / pieces,
                                              1);
  const auto expected_len = [&](int64_t i) {
    const int64_t begin = std::min(i * piece_len, total);
    return std::min(begin + piece_len, total) - begin;
  };
  int64_t missing = -1;
  for (int64_t i = 0; i < pieces; ++i) {
    const auto& view = views[static_cast<size_t>(i)];
    const bool valid =
        view.ok() &&
        static_cast<int64_t>(view->bytes.size()) == expected_len(i);
    if (valid) {
      continue;
    }
    if (missing >= 0) {
      return InvalidArgumentError(
          "checkpoint set lost more than one fragment");
    }
    missing = i;
  }
  std::string payload;
  payload.reserve(static_cast<size_t>(total));
  for (int64_t i = 0; i < pieces; ++i) {
    if (i != missing) {
      payload.append(views[static_cast<size_t>(i)]->bytes);
      continue;
    }
    // Rebuild the lost piece: parity XOR every surviving piece, padded to
    // the parity length, then trimmed to the piece's real extent.
    const auto& parity = views[static_cast<size_t>(pieces)];
    if (!parity.ok() ||
        static_cast<int64_t>(parity->bytes.size()) != piece_len) {
      return InvalidArgumentError(
          "checkpoint parity fragment invalid; cannot rebuild");
    }
    std::string rebuilt(parity->bytes);
    for (int64_t j = 0; j < pieces; ++j) {
      if (j == missing) {
        continue;
      }
      const std::string_view piece = views[static_cast<size_t>(j)]->bytes;
      for (size_t b = 0; b < piece.size(); ++b) {
        rebuilt[b] ^= piece[b];
      }
    }
    rebuilt.resize(static_cast<size_t>(expected_len(i)));
    payload += rebuilt;
    ++stats_.parity_rebuilds;
    *rebuilt_from_parity = true;
  }
  if (static_cast<int64_t>(payload.size()) != total) {
    return InvalidArgumentError("checkpoint payload size mismatch");
  }
  return payload;
}

StatusOr<LoadedCheckpoint> CheckpointManager::LoadNewestValid() {
  int64_t rejected = 0;
  for (auto it = sets_.rbegin(); it != sets_.rend(); ++it) {
    bool rebuilt = false;
    StatusOr<std::string> payload = Assemble(*it, &rebuilt);
    if (!payload.ok()) {
      ++rejected;
      ++stats_.sets_rejected;
      continue;
    }
    LoadedCheckpoint loaded;
    loaded.info = it->info;
    loaded.payload = std::move(payload).value();
    loaded.sets_rejected = rejected;
    loaded.rebuilt_from_parity = rebuilt;
    return loaded;
  }
  return NotFoundError("no valid checkpoint set");
}

Status CheckpointManager::DropLocation(int64_t location) {
  if (location < 0 || location >= num_locations()) {
    return InvalidArgumentError("checkpoint location out of range");
  }
  locations_[static_cast<size_t>(location)].clear();
  return OkStatus();
}

Status CheckpointManager::CorruptNewestAt(int64_t location) {
  if (location < 0 || location >= num_locations()) {
    return InvalidArgumentError("checkpoint location out of range");
  }
  auto& store = locations_[static_cast<size_t>(location)];
  for (auto it = sets_.rbegin(); it != sets_.rend(); ++it) {
    for (const Fragment& fragment : it->fragments) {
      if (fragment.location != location) {
        continue;
      }
      const auto doc = store.find(fragment.name);
      if (doc == store.end()) {
        continue;
      }
      doc->second[doc->second.size() / 2] ^= 0x40;
      return OkStatus();
    }
  }
  return NotFoundError("no checkpoint fragment at that location");
}

}  // namespace scaddar
