#include "recovery/snapshot.h"

#include <bit>
#include <charconv>
#include <cstdio>
#include <cstring>

#include "util/tokens.h"

namespace scaddar {

namespace {

constexpr std::string_view kServerMagic = "scaddar-ckpt-v2";
constexpr std::string_view kClusterMagic = "scaddar-cluster-ckpt-v2";

// Row sections and checksum words are little-endian, read and written with
// plain memcpy.
static_assert(std::endian::native == std::endian::little,
              "snapshot rows and checksum words are little-endian");

constexpr uint64_t kPrime1 = 0x9e3779b185ebca87ull;
constexpr uint64_t kPrime2 = 0xc2b2ae3d27d4eb4full;
constexpr uint64_t kPrime3 = 0x165667b19e3779f9ull;
constexpr uint64_t kPrime4 = 0x85ebca77c2b2ae63ull;
constexpr uint64_t kPrime5 = 0x27d4eb2f165667c5ull;

uint64_t LoadWord(const char* p) {
  uint64_t word;
  std::memcpy(&word, p, sizeof(word));
  return word;
}

/// One lane step: injective in `word` for a fixed `lane` (odd multiplier),
/// and a bijection of `lane` for a fixed word (add, rotate, odd multiply).
uint64_t Mix(uint64_t lane, uint64_t word) {
  return std::rotl(lane + word * kPrime2, 31) * kPrime1;
}

StatusOr<int64_t> ParseInt(std::string_view token) {
  return ParseIntToken(token, "snapshot");
}

/// Exactly the 16 lowercase hex digits `WrapChecksummed` writes, so that no
/// changed header byte (an upper-cased digit, say) parses to the same sum.
StatusOr<uint64_t> ParseHex(std::string_view token) {
  if (token.size() != 16 ||
      token.find_first_not_of("0123456789abcdef") != std::string_view::npos) {
    return InvalidArgumentError("malformed checksum in snapshot");
  }
  uint64_t value = 0;
  std::from_chars(token.data(), token.data() + token.size(), value, 16);
  return value;
}

void AppendInt(std::string& out, int64_t value) {
  char buffer[24];
  const auto [ptr, ec] = std::to_chars(buffer, buffer + sizeof(buffer), value);
  (void)ec;
  out.append(buffer, ptr);
}

StatusOr<double> ParseFloat(std::string_view token) {
  double value = 0.0;
  const auto [ptr, ec] =
      std::from_chars(token.data(), token.data() + token.size(), value);
  if (ec != std::errc() || ptr != token.data() + token.size()) {
    return InvalidArgumentError("malformed float in snapshot");
  }
  return value;
}

void AppendFloat(std::string& out, double value) {
  // max_digits10 round-trips every finite double exactly.
  char buffer[40];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  out += buffer;
}

/// Cursor over a payload: line-oriented fields plus exact-byte blobs for
/// nested documents (op log, journal, per-shard snapshots) whose content is
/// itself multi-line.
class PayloadReader {
 public:
  explicit PayloadReader(std::string_view payload) : rest_(payload) {}

  bool done() const { return rest_.empty(); }
  size_t left() const { return rest_.size(); }

  /// Next line, without the trailing newline.
  std::string_view NextLine() {
    const size_t eol = rest_.find('\n');
    const std::string_view line = rest_.substr(0, eol);
    rest_ = eol == std::string_view::npos ? std::string_view()
                                          : rest_.substr(eol + 1);
    return line;
  }

  /// Exactly `bytes` raw bytes followed by one newline.
  StatusOr<std::string_view> NextBlob(int64_t bytes) {
    if (bytes < 0 || static_cast<size_t>(bytes) + 1 > rest_.size()) {
      return InvalidArgumentError("snapshot blob truncated");
    }
    const std::string_view blob = rest_.substr(0, static_cast<size_t>(bytes));
    if (rest_[static_cast<size_t>(bytes)] != '\n') {
      return InvalidArgumentError("snapshot blob missing terminator");
    }
    rest_ = rest_.substr(static_cast<size_t>(bytes) + 1);
    return blob;
  }

 private:
  std::string_view rest_;
};

/// Narrowest width in {1, 2, 4, 8} bytes that holds every id in `row`;
/// an id outside [0, 2^32), negative ones included, takes 8. Every id fits
/// in k bytes exactly when their bitwise OR does.
int RowWidth(const std::vector<PhysicalDiskId>& row) {
  uint64_t bits = 0;
  for (const PhysicalDiskId disk : row) {
    bits |= static_cast<uint64_t>(disk);
  }
  return bits <= 0xff ? 1 : bits <= 0xffff ? 2 : bits <= 0xffffffff ? 4 : 8;
}

/// Calls `fn` with a zero of the unsigned type `width` bytes wide.
template <typename Fn>
void WithWord(int64_t width, Fn fn) {
  switch (width) {
    case 1:
      return fn(uint8_t{0});
    case 2:
      return fn(uint16_t{0});
    case 4:
      return fn(uint32_t{0});
    default:
      return fn(uint64_t{0});
  }
}

/// Appends `row` as `width`-byte words plus the closing newline.
void AppendRow(std::string& out, const std::vector<PhysicalDiskId>& row,
               int width) {
  const size_t at = out.size();
  out.resize(at + row.size() * static_cast<size_t>(width) + 1);
  char* bytes = out.data() + at;
  WithWord(width, [&](auto word) {
    for (const PhysicalDiskId disk : row) {
      word = static_cast<decltype(word)>(disk);
      std::memcpy(bytes, &word, sizeof(word));
      bytes += sizeof(word);
    }
  });
  out.back() = '\n';
}

/// `object <id> <blocks> <weight> <generation> <epoch> <len> <width>`, whose
/// row section `reader` is positioned at.
StatusOr<SnapshotObject> ParseObject(
    const std::vector<std::string_view>& fields, PayloadReader& reader) {
  SnapshotObject object;
  SCADDAR_ASSIGN_OR_RETURN(object.id, ParseInt(fields[1]));
  SCADDAR_ASSIGN_OR_RETURN(object.num_blocks, ParseInt(fields[2]));
  SCADDAR_ASSIGN_OR_RETURN(object.weight, ParseInt(fields[3]));
  SCADDAR_ASSIGN_OR_RETURN(object.generation, ParseInt(fields[4]));
  SCADDAR_ASSIGN_OR_RETURN(object.epoch_added, ParseInt(fields[5]));
  SCADDAR_ASSIGN_OR_RETURN(const int64_t len, ParseInt(fields[6]));
  SCADDAR_ASSIGN_OR_RETURN(const int64_t width, ParseInt(fields[7]));
  if (width != 1 && width != 2 && width != 4 && width != 8) {
    return InvalidArgumentError("object row width is not 1, 2, 4 or 8");
  }
  // Bound the length by the bytes left before multiplying: a hostile length
  // is refused here, never overflowed.
  if (len < 0 ||
      len > static_cast<int64_t>(reader.left() / static_cast<size_t>(width))) {
    return InvalidArgumentError("object row runs past the snapshot payload");
  }
  SCADDAR_ASSIGN_OR_RETURN(const std::string_view bytes,
                           reader.NextBlob(len * width));
  object.row.resize(static_cast<size_t>(len));
  WithWord(width, [&](auto word) {
    const char* in = bytes.data();
    for (PhysicalDiskId& disk : object.row) {
      std::memcpy(&word, in, sizeof(word));
      disk = static_cast<PhysicalDiskId>(word);
      in += sizeof(word);
    }
  });
  return object;
}

/// Appends `<key> <count> <v1> ... <vcount>` (no trailing newline).
void AppendLatencies(std::string& out, std::string_view key,
                     const std::vector<int64_t>& latencies) {
  out += key;
  out += ' ';
  AppendInt(out, static_cast<int64_t>(latencies.size()));
  for (const int64_t latency : latencies) {
    out += ' ';
    AppendInt(out, latency);
  }
}

/// Parses the fields of an `AppendLatencies` line into `out`.
Status ParseLatencies(const std::vector<std::string_view>& fields,
                      std::vector<int64_t>& out) {
  SCADDAR_ASSIGN_OR_RETURN(const int64_t count, ParseInt(fields[1]));
  if (count != static_cast<int64_t>(fields.size()) - 2) {
    return InvalidArgumentError("latency count mismatch in snapshot");
  }
  out.reserve(static_cast<size_t>(count));
  for (size_t f = 2; f < fields.size(); ++f) {
    SCADDAR_ASSIGN_OR_RETURN(const int64_t latency, ParseInt(fields[f]));
    out.push_back(latency);
  }
  return OkStatus();
}

void AppendBlob(std::string& out, std::string_view key,
                std::string_view blob) {
  out += key;
  out += ' ';
  AppendInt(out, static_cast<int64_t>(blob.size()));
  out += '\n';
  out += blob;
  out += '\n';
}

}  // namespace

uint64_t SnapshotChecksum(std::string_view data) {
  const char* p = data.data();
  const char* const end = p + data.size();
  uint64_t lane0 = kPrime1 + kPrime2;
  uint64_t lane1 = kPrime2;
  uint64_t lane2 = 0;
  uint64_t lane3 = 0 - kPrime1;
  for (; end - p >= 32; p += 32) {
    lane0 = Mix(lane0, LoadWord(p));
    lane1 = Mix(lane1, LoadWord(p + 8));
    lane2 = Mix(lane2, LoadWord(p + 16));
    lane3 = Mix(lane3, LoadWord(p + 24));
  }
  // The fold is a bijection of each lane while the others hold, so a lane
  // that differs keeps the sum different.
  uint64_t hash = std::rotl(lane0, 1) + std::rotl(lane1, 7) +
                  std::rotl(lane2, 12) + std::rotl(lane3, 18) + data.size();
  for (; end - p >= 8; p += 8) {
    hash = std::rotl(hash ^ Mix(0, LoadWord(p)), 27) * kPrime1 + kPrime4;
  }
  for (; p < end; ++p) {
    hash = std::rotl(hash ^ (static_cast<unsigned char>(*p) * kPrime5), 11) *
           kPrime1;
  }
  // Avalanche: xor-shifts and odd multiplies, each invertible.
  hash ^= hash >> 33;
  hash *= kPrime2;
  hash ^= hash >> 29;
  hash *= kPrime3;
  hash ^= hash >> 32;
  return hash;
}

std::string WrapChecksummed(std::string_view magic, std::string_view payload) {
  std::string out;
  out.reserve(magic.size() + 40 + payload.size());
  out += magic;
  out += ' ';
  AppendInt(out, static_cast<int64_t>(payload.size()));
  char sum[24];
  std::snprintf(sum, sizeof(sum), " %016llx\n",
                static_cast<unsigned long long>(SnapshotChecksum(payload)));
  out += sum;
  out += payload;
  return out;
}

StatusOr<std::string_view> UnwrapChecksummed(std::string_view magic,
                                             std::string_view document) {
  const size_t eol = document.find('\n');
  if (eol == std::string_view::npos) {
    return InvalidArgumentError("snapshot document has no header line");
  }
  const std::vector<std::string_view> fields =
      SplitTokens(document.substr(0, eol));
  if (fields.size() != 3 || fields[0] != magic) {
    return InvalidArgumentError("unrecognized snapshot header");
  }
  SCADDAR_ASSIGN_OR_RETURN(const int64_t bytes, ParseInt(fields[1]));
  SCADDAR_ASSIGN_OR_RETURN(const uint64_t expected, ParseHex(fields[2]));
  const std::string_view payload = document.substr(eol + 1);
  if (static_cast<int64_t>(payload.size()) != bytes) {
    return InvalidArgumentError("snapshot document torn (length mismatch)");
  }
  if (SnapshotChecksum(payload) != expected) {
    return InvalidArgumentError("snapshot checksum mismatch");
  }
  return payload;
}

std::string EncodeServerSnapshot(const ServerSnapshot& snapshot) {
  // Reserve from the real row sizes; the text lines are estimates.
  std::vector<int> widths;
  widths.reserve(snapshot.objects.size());
  size_t bytes = 256 + snapshot.oplog.size() + snapshot.journal.size() +
                 4 * snapshot.startup_latencies.size() +
                 64 * (snapshot.reorg_triggers.size() +
                       snapshot.staged.size() + snapshot.streams.size());
  for (const SnapshotObject& object : snapshot.objects) {
    widths.push_back(RowWidth(object.row));
    bytes += 128 + object.row.size() * static_cast<size_t>(widths.back());
  }
  std::string payload;
  payload.reserve(bytes);
  payload += "policy ";
  payload += snapshot.policy;
  payload += '\n';
  payload += "round ";
  AppendInt(payload, snapshot.round);
  payload += "\nnextstream ";
  AppendInt(payload, snapshot.next_stream_id);
  payload += "\ncompleted ";
  AppendInt(payload, snapshot.completed_streams);
  payload += "\nserved ";
  AppendInt(payload, snapshot.total_served);
  payload += "\nhiccups ";
  AppendInt(payload, snapshot.total_hiccups);
  payload += "\nconverged ";
  AppendInt(payload, snapshot.converged ? 1 : 0);
  payload += '\n';
  AppendLatencies(payload, "latencies", snapshot.startup_latencies);
  payload += '\n';
  if (snapshot.governor_bits > 0) {
    payload += "governor ";
    AppendInt(payload, snapshot.governor_bits);
    payload += ' ';
    AppendFloat(payload, snapshot.governor_eps);
    payload += ' ';
    AppendFloat(payload, snapshot.reorg_cov_threshold);
    payload += ' ';
    AppendInt(payload, snapshot.reorg_check_every);
    payload += ' ';
    AppendInt(payload, snapshot.auto_reorg ? 1 : 0);
    payload += '\n';
  }
  for (const ReorgTrigger& trigger : snapshot.reorg_triggers) {
    payload += "trigger ";
    AppendInt(payload, trigger.round);
    payload += ' ';
    AppendInt(payload, trigger.reason == ReorgReason::kCov ? 1 : 0);
    payload += ' ';
    AppendFloat(payload, trigger.value);
    payload += '\n';
  }
  AppendBlob(payload, "oplog", snapshot.oplog);
  AppendBlob(payload, "journal", snapshot.journal);
  for (size_t i = 0; i < snapshot.objects.size(); ++i) {
    const SnapshotObject& object = snapshot.objects[i];
    payload += "object ";
    AppendInt(payload, object.id);
    payload += ' ';
    AppendInt(payload, object.num_blocks);
    payload += ' ';
    AppendInt(payload, object.weight);
    payload += ' ';
    AppendInt(payload, object.generation);
    payload += ' ';
    AppendInt(payload, object.epoch_added);
    payload += ' ';
    AppendInt(payload, static_cast<int64_t>(object.row.size()));
    payload += ' ';
    AppendInt(payload, widths[i]);
    payload += '\n';
    AppendRow(payload, object.row, widths[i]);
  }
  for (const auto& [ref, disk] : snapshot.staged) {
    payload += "staged ";
    AppendInt(payload, ref.object);
    payload += ' ';
    AppendInt(payload, ref.block);
    payload += ' ';
    AppendInt(payload, disk);
    payload += '\n';
  }
  for (const SnapshotStream& stream : snapshot.streams) {
    payload += "stream ";
    AppendInt(payload, stream.id);
    payload += ' ';
    AppendInt(payload, stream.object);
    payload += ' ';
    AppendInt(payload, stream.next_block);
    payload += ' ';
    AppendInt(payload, stream.rate);
    payload += ' ';
    AppendInt(payload, stream.start_round);
    payload += ' ';
    AppendInt(payload, stream.hiccups);
    payload += ' ';
    AppendInt(payload, stream.paused ? 1 : 0);
    payload += ' ';
    AppendInt(payload, stream.playback_started ? 1 : 0);
    payload += '\n';
  }
  return WrapChecksummed(kServerMagic, payload);
}

StatusOr<ServerSnapshot> DecodeServerSnapshot(std::string_view document) {
  SCADDAR_ASSIGN_OR_RETURN(const std::string_view payload,
                           UnwrapChecksummed(kServerMagic, document));
  ServerSnapshot snapshot;
  bool policy_seen = false;
  bool oplog_seen = false;
  bool journal_seen = false;
  PayloadReader reader(payload);
  while (!reader.done()) {
    const std::vector<std::string_view> fields =
        SplitTokens(reader.NextLine());
    if (fields.empty()) {
      continue;
    }
    const std::string_view key = fields[0];
    if (key == "object" && fields.size() == 8) {
      SCADDAR_ASSIGN_OR_RETURN(SnapshotObject object,
                               ParseObject(fields, reader));
      snapshot.objects.push_back(std::move(object));
    } else if (key == "policy" && fields.size() == 2) {
      snapshot.policy = std::string(fields[1]);
      policy_seen = true;
    } else if (key == "round" && fields.size() == 2) {
      SCADDAR_ASSIGN_OR_RETURN(snapshot.round, ParseInt(fields[1]));
    } else if (key == "nextstream" && fields.size() == 2) {
      SCADDAR_ASSIGN_OR_RETURN(snapshot.next_stream_id, ParseInt(fields[1]));
    } else if (key == "completed" && fields.size() == 2) {
      SCADDAR_ASSIGN_OR_RETURN(snapshot.completed_streams,
                               ParseInt(fields[1]));
    } else if (key == "served" && fields.size() == 2) {
      SCADDAR_ASSIGN_OR_RETURN(snapshot.total_served, ParseInt(fields[1]));
    } else if (key == "hiccups" && fields.size() == 2) {
      SCADDAR_ASSIGN_OR_RETURN(snapshot.total_hiccups, ParseInt(fields[1]));
    } else if (key == "converged" && fields.size() == 2) {
      SCADDAR_ASSIGN_OR_RETURN(const int64_t converged, ParseInt(fields[1]));
      snapshot.converged = converged != 0;
    } else if (key == "governor" && fields.size() == 6) {
      SCADDAR_ASSIGN_OR_RETURN(const int64_t bits, ParseInt(fields[1]));
      SCADDAR_ASSIGN_OR_RETURN(snapshot.governor_eps, ParseFloat(fields[2]));
      SCADDAR_ASSIGN_OR_RETURN(snapshot.reorg_cov_threshold,
                               ParseFloat(fields[3]));
      SCADDAR_ASSIGN_OR_RETURN(snapshot.reorg_check_every,
                               ParseInt(fields[4]));
      SCADDAR_ASSIGN_OR_RETURN(const int64_t auto_on, ParseInt(fields[5]));
      snapshot.governor_bits = static_cast<int>(bits);
      snapshot.auto_reorg = auto_on != 0;
    } else if (key == "trigger" && fields.size() == 4) {
      ReorgTrigger trigger;
      SCADDAR_ASSIGN_OR_RETURN(trigger.round, ParseInt(fields[1]));
      SCADDAR_ASSIGN_OR_RETURN(const int64_t reason, ParseInt(fields[2]));
      SCADDAR_ASSIGN_OR_RETURN(trigger.value, ParseFloat(fields[3]));
      trigger.reason = reason != 0 ? ReorgReason::kCov : ReorgReason::kBudget;
      snapshot.reorg_triggers.push_back(trigger);
    } else if (key == "latencies" && fields.size() >= 2) {
      SCADDAR_RETURN_IF_ERROR(
          ParseLatencies(fields, snapshot.startup_latencies));
    } else if (key == "oplog" && fields.size() == 2) {
      SCADDAR_ASSIGN_OR_RETURN(const int64_t bytes, ParseInt(fields[1]));
      SCADDAR_ASSIGN_OR_RETURN(const std::string_view blob,
                               reader.NextBlob(bytes));
      snapshot.oplog = std::string(blob);
      oplog_seen = true;
    } else if (key == "journal" && fields.size() == 2) {
      SCADDAR_ASSIGN_OR_RETURN(const int64_t bytes, ParseInt(fields[1]));
      SCADDAR_ASSIGN_OR_RETURN(const std::string_view blob,
                               reader.NextBlob(bytes));
      snapshot.journal = std::string(blob);
      journal_seen = true;
    } else if (key == "staged" && fields.size() == 4) {
      BlockRef ref;
      SCADDAR_ASSIGN_OR_RETURN(ref.object, ParseInt(fields[1]));
      SCADDAR_ASSIGN_OR_RETURN(ref.block, ParseInt(fields[2]));
      SCADDAR_ASSIGN_OR_RETURN(const int64_t disk, ParseInt(fields[3]));
      snapshot.staged.emplace_back(ref, disk);
    } else if (key == "stream" && fields.size() == 9) {
      SnapshotStream stream;
      SCADDAR_ASSIGN_OR_RETURN(stream.id, ParseInt(fields[1]));
      SCADDAR_ASSIGN_OR_RETURN(stream.object, ParseInt(fields[2]));
      SCADDAR_ASSIGN_OR_RETURN(stream.next_block, ParseInt(fields[3]));
      SCADDAR_ASSIGN_OR_RETURN(stream.rate, ParseInt(fields[4]));
      SCADDAR_ASSIGN_OR_RETURN(stream.start_round, ParseInt(fields[5]));
      SCADDAR_ASSIGN_OR_RETURN(stream.hiccups, ParseInt(fields[6]));
      SCADDAR_ASSIGN_OR_RETURN(const int64_t paused, ParseInt(fields[7]));
      SCADDAR_ASSIGN_OR_RETURN(const int64_t started, ParseInt(fields[8]));
      stream.paused = paused != 0;
      stream.playback_started = started != 0;
      snapshot.streams.push_back(stream);
    } else {
      return InvalidArgumentError("unrecognized snapshot line");
    }
  }
  if (!policy_seen || !oplog_seen || !journal_seen) {
    return InvalidArgumentError("incomplete server snapshot");
  }
  return snapshot;
}

std::string EncodeClusterSnapshot(const ClusterSnapshot& snapshot) {
  std::string payload;
  payload += "round ";
  AppendInt(payload, snapshot.round);
  payload += "\nhandoffrejects ";
  AppendInt(payload, snapshot.handoff_rejects);
  if (!snapshot.retired_latencies.empty()) {
    payload += '\n';
    AppendLatencies(payload, "retiredlatencies", snapshot.retired_latencies);
  }
  if (snapshot.retired_served != 0 || snapshot.retired_hiccups != 0 ||
      snapshot.retired_completed != 0) {
    payload += "\nretiredtotals ";
    AppendInt(payload, snapshot.retired_served);
    payload += ' ';
    AppendInt(payload, snapshot.retired_hiccups);
    payload += ' ';
    AppendInt(payload, snapshot.retired_completed);
  }
  payload += "\nmap ";
  AppendInt(payload, snapshot.next_member);
  payload += ' ';
  AppendInt(payload, snapshot.map_epoch);
  payload += ' ';
  AppendInt(payload, static_cast<int64_t>(snapshot.seats.size()));
  for (const int seat : snapshot.seats) {
    payload += ' ';
    AppendInt(payload, seat);
  }
  payload += '\n';
  for (const auto& [object, owner] : snapshot.owners) {
    payload += "owner ";
    AppendInt(payload, object);
    payload += ' ';
    AppendInt(payload, owner);
    payload += '\n';
  }
  for (const ClusterSnapshotShard& shard : snapshot.shards) {
    payload += "shard ";
    AppendInt(payload, shard.member);
    payload += ' ';
    AppendInt(payload, shard.retiring ? 1 : 0);
    payload += ' ';
    AppendInt(payload, static_cast<int64_t>(shard.document.size()));
    payload += '\n';
    payload += shard.document;
    payload += '\n';
  }
  return WrapChecksummed(kClusterMagic, payload);
}

StatusOr<ClusterSnapshot> DecodeClusterSnapshot(std::string_view document) {
  SCADDAR_ASSIGN_OR_RETURN(const std::string_view payload,
                           UnwrapChecksummed(kClusterMagic, document));
  ClusterSnapshot snapshot;
  bool map_seen = false;
  PayloadReader reader(payload);
  while (!reader.done()) {
    const std::string_view line = reader.NextLine();
    const std::vector<std::string_view> fields = SplitTokens(line);
    if (fields.empty()) {
      continue;
    }
    const std::string_view key = fields[0];
    if (key == "round" && fields.size() == 2) {
      SCADDAR_ASSIGN_OR_RETURN(snapshot.round, ParseInt(fields[1]));
    } else if (key == "handoffrejects" && fields.size() == 2) {
      SCADDAR_ASSIGN_OR_RETURN(snapshot.handoff_rejects, ParseInt(fields[1]));
    } else if (key == "retiredlatencies" && fields.size() >= 2) {
      SCADDAR_RETURN_IF_ERROR(
          ParseLatencies(fields, snapshot.retired_latencies));
    } else if (key == "retiredtotals" && fields.size() == 4) {
      SCADDAR_ASSIGN_OR_RETURN(snapshot.retired_served, ParseInt(fields[1]));
      SCADDAR_ASSIGN_OR_RETURN(snapshot.retired_hiccups, ParseInt(fields[2]));
      SCADDAR_ASSIGN_OR_RETURN(snapshot.retired_completed,
                               ParseInt(fields[3]));
    } else if (key == "map" && fields.size() >= 4) {
      SCADDAR_ASSIGN_OR_RETURN(const int64_t next_member, ParseInt(fields[1]));
      SCADDAR_ASSIGN_OR_RETURN(snapshot.map_epoch, ParseInt(fields[2]));
      SCADDAR_ASSIGN_OR_RETURN(const int64_t seats, ParseInt(fields[3]));
      if (seats != static_cast<int64_t>(fields.size()) - 4) {
        return InvalidArgumentError("seat count mismatch in cluster snapshot");
      }
      snapshot.next_member = static_cast<int>(next_member);
      for (size_t f = 4; f < fields.size(); ++f) {
        SCADDAR_ASSIGN_OR_RETURN(const int64_t seat, ParseInt(fields[f]));
        snapshot.seats.push_back(static_cast<int>(seat));
      }
      map_seen = true;
    } else if (key == "owner" && fields.size() == 3) {
      SCADDAR_ASSIGN_OR_RETURN(const int64_t object, ParseInt(fields[1]));
      SCADDAR_ASSIGN_OR_RETURN(const int64_t owner, ParseInt(fields[2]));
      snapshot.owners.emplace_back(object, static_cast<int>(owner));
    } else if (key == "shard" && fields.size() == 4) {
      ClusterSnapshotShard shard;
      SCADDAR_ASSIGN_OR_RETURN(const int64_t member, ParseInt(fields[1]));
      SCADDAR_ASSIGN_OR_RETURN(const int64_t retiring, ParseInt(fields[2]));
      SCADDAR_ASSIGN_OR_RETURN(const int64_t bytes, ParseInt(fields[3]));
      SCADDAR_ASSIGN_OR_RETURN(const std::string_view blob,
                               reader.NextBlob(bytes));
      shard.member = static_cast<int>(member);
      shard.retiring = retiring != 0;
      shard.document = std::string(blob);
      snapshot.shards.push_back(std::move(shard));
    } else {
      return InvalidArgumentError("unrecognized cluster snapshot line");
    }
  }
  if (!map_seen) {
    return InvalidArgumentError("incomplete cluster snapshot");
  }
  return snapshot;
}

}  // namespace scaddar
