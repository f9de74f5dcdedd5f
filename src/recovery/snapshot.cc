#include "recovery/snapshot.h"

#include <charconv>
#include <cstdio>

#include "util/tokens.h"

namespace scaddar {

namespace {

constexpr std::string_view kServerMagic = "scaddar-ckpt-v1";
constexpr std::string_view kClusterMagic = "scaddar-cluster-ckpt-v1";

StatusOr<int64_t> ParseInt(std::string_view token) {
  return ParseIntToken(token, "snapshot");
}

StatusOr<uint64_t> ParseHex(std::string_view token) {
  uint64_t value = 0;
  const auto [ptr, ec] = std::from_chars(
      token.data(), token.data() + token.size(), value, 16);
  if (ec != std::errc() || ptr != token.data() + token.size()) {
    return InvalidArgumentError("malformed checksum in snapshot");
  }
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

/// In-place integer cursor for the hot `object` row lines: from_chars over
/// the raw bytes, no per-token string_view vector. A large snapshot is
/// dominated by row digits, so decode speed here is restart speed.
class IntCursor {
 public:
  explicit IntCursor(std::string_view text) : rest_(text) {}

  bool done() {
    SkipSpaces();
    return rest_.empty();
  }

  StatusOr<int64_t> Next() {
    SkipSpaces();
    int64_t value = 0;
    const auto [ptr, ec] =
        std::from_chars(rest_.data(), rest_.data() + rest_.size(), value);
    if (ec != std::errc() || ptr == rest_.data()) {
      return InvalidArgumentError("malformed integer in snapshot");
    }
    rest_ = rest_.substr(static_cast<size_t>(ptr - rest_.data()));
    if (!rest_.empty() && rest_.front() != ' ') {
      return InvalidArgumentError("malformed integer in snapshot");
    }
    return value;
  }

  std::string_view rest() const { return rest_; }

 private:
  void SkipSpaces() {
    while (!rest_.empty() && rest_.front() == ' ') {
      rest_.remove_prefix(1);
    }
  }

  std::string_view rest_;
};

/// `object <id> <blocks> <weight> <generation> <epoch> <len> <disk>...`
StatusOr<SnapshotObject> ParseObjectLine(std::string_view body) {
  IntCursor cursor(body);
  SnapshotObject object;
  SCADDAR_ASSIGN_OR_RETURN(object.id, cursor.Next());
  SCADDAR_ASSIGN_OR_RETURN(object.num_blocks, cursor.Next());
  SCADDAR_ASSIGN_OR_RETURN(object.weight, cursor.Next());
  SCADDAR_ASSIGN_OR_RETURN(object.generation, cursor.Next());
  SCADDAR_ASSIGN_OR_RETURN(object.epoch_added, cursor.Next());
  SCADDAR_ASSIGN_OR_RETURN(const int64_t row_len, cursor.Next());
  if (row_len < 0) {
    return InvalidArgumentError("object row length mismatch in snapshot");
  }
  // The row loop is the decode hot path — one integer per block in the
  // snapshot — so it parses raw, without a StatusOr round-trip per token.
  object.row.resize(static_cast<size_t>(row_len));
  const char* p = cursor.rest().data();
  const char* const end = p + cursor.rest().size();
  for (int64_t i = 0; i < row_len; ++i) {
    while (p < end && *p == ' ') {
      ++p;
    }
    int64_t disk = 0;
    const auto [next, ec] = std::from_chars(p, end, disk);
    if (ec != std::errc() || next == p ||
        (next != end && *next != ' ')) {
      return InvalidArgumentError("object row length mismatch in snapshot");
    }
    object.row[static_cast<size_t>(i)] = disk;
    p = next;
  }
  while (p < end && *p == ' ') {
    ++p;
  }
  if (p != end) {
    return InvalidArgumentError("object row length mismatch in snapshot");
  }
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
  uint64_t hash = 0xcbf29ce484222325ull;  // FNV-1a 64 offset basis.
  for (const char c : data) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ull;  // FNV prime.
  }
  return hash;
}

std::string WrapChecksummed(std::string_view magic, std::string_view payload) {
  std::string out(magic);
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
  std::string payload;
  payload.reserve(256 + snapshot.oplog.size() + snapshot.journal.size() +
                  snapshot.objects.size() * 64);
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
  for (const SnapshotObject& object : snapshot.objects) {
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
    for (const PhysicalDiskId disk : object.row) {
      payload += ' ';
      AppendInt(payload, disk);
    }
    payload += '\n';
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
    const std::string_view line = reader.NextLine();
    if (line.starts_with("object ")) {
      // Row lines carry one token per block — parse them without the
      // generic tokenizer so large snapshots decode at restart speed.
      SCADDAR_ASSIGN_OR_RETURN(SnapshotObject object,
                               ParseObjectLine(line.substr(7)));
      snapshot.objects.push_back(std::move(object));
      continue;
    }
    const std::vector<std::string_view> fields = SplitTokens(line);
    if (fields.empty()) {
      continue;
    }
    const std::string_view key = fields[0];
    if (key == "policy" && fields.size() == 2) {
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
