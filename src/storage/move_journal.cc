#include "storage/move_journal.h"

#include <algorithm>
#include <cstdio>

#include "util/tokens.h"

namespace scaddar {

namespace {

constexpr std::string_view kHeader = "moves-v1";

StatusOr<int64_t> ParseInt(std::string_view token) {
  return ParseIntToken(token, "move journal");
}

bool Finished(const JournalEntry& entry) {
  return entry.phase == JournalPhase::kCommitted ||
         entry.phase == JournalPhase::kAborted;
}

}  // namespace

int64_t MoveJournal::Begin(BlockRef block, PhysicalDiskId from,
                           PhysicalDiskId to) {
  JournalEntry entry;
  entry.id = next_id_++;
  entry.block = block;
  entry.from = from;
  entry.to = to;
  entry.phase = JournalPhase::kIntent;
  entries_.push_back(entry);
  ++pending_;
  return entry.id;
}

JournalEntry& MoveJournal::EntryFor(int64_t id) {
  // Ids are consecutive: `Begin` appends `next_id_++`, `Compact` drops only
  // a prefix and `Deserialize` refuses gaps, so an id's slot is its offset
  // from the front entry.
  SCADDAR_CHECK(!entries_.empty() && id >= entries_.front().id &&
                id <= entries_.back().id && "unknown journal id");
  return entries_[static_cast<size_t>(id - entries_.front().id)];
}

void MoveJournal::MarkCopied(int64_t id) {
  JournalEntry& entry = EntryFor(id);
  SCADDAR_CHECK(entry.phase == JournalPhase::kIntent);
  entry.phase = JournalPhase::kCopied;
}

void MoveJournal::MarkCommitted(int64_t id) {
  JournalEntry& entry = EntryFor(id);
  SCADDAR_CHECK(entry.phase == JournalPhase::kCopied);
  entry.phase = JournalPhase::kCommitted;
  --pending_;
}

void MoveJournal::MarkAborted(int64_t id) {
  JournalEntry& entry = EntryFor(id);
  SCADDAR_CHECK(entry.phase == JournalPhase::kIntent);
  entry.phase = JournalPhase::kAborted;
  --pending_;
}

void MoveJournal::Compact() {
  while (!entries_.empty() && Finished(entries_.front())) {
    entries_.pop_front();
  }
}

std::string MoveJournal::Serialize() const {
  return SerializeFrom(entries_.begin());
}

std::string MoveJournal::SerializeUnfinished() const {
  // With nothing pending every entry is finished: no scan needed.
  return SerializeFrom(pending_ == 0 ? entries_.end()
                                     : std::find_if_not(entries_.begin(),
                                                        entries_.end(),
                                                        Finished));
}

std::string MoveJournal::SerializeFrom(
    std::deque<JournalEntry>::const_iterator first) const {
  std::string out(kHeader);
  out += '\n';
  char buffer[160];
  std::snprintf(buffer, sizeof(buffer), "next %lld\n",
                static_cast<long long>(next_id_));
  out += buffer;
  for (; first != entries_.end(); ++first) {
    const JournalEntry& entry = *first;
    std::snprintf(buffer, sizeof(buffer), "move %lld %lld %lld %lld %lld %d\n",
                  static_cast<long long>(entry.id),
                  static_cast<long long>(entry.block.object),
                  static_cast<long long>(entry.block.block),
                  static_cast<long long>(entry.from),
                  static_cast<long long>(entry.to),
                  static_cast<int>(entry.phase));
    out += buffer;
  }
  return out;
}

StatusOr<MoveJournal> MoveJournal::Deserialize(std::string_view text) {
  MoveJournal journal;
  bool header_seen = false;
  std::string_view rest = text;
  while (!rest.empty()) {
    const size_t eol = rest.find('\n');
    std::string_view line = rest.substr(0, eol);
    rest = eol == std::string_view::npos ? std::string_view()
                                         : rest.substr(eol + 1);
    const size_t hash = line.find('#');
    if (hash != std::string_view::npos) {
      line = line.substr(0, hash);
    }
    const std::vector<std::string_view> tokens = SplitTokens(line);
    if (tokens.empty()) {
      continue;
    }
    if (!header_seen) {
      if (tokens.size() != 1 || tokens[0] != kHeader) {
        return InvalidArgumentError("unrecognized move journal header");
      }
      header_seen = true;
      continue;
    }
    if (tokens[0] == "next" && tokens.size() == 2) {
      SCADDAR_ASSIGN_OR_RETURN(journal.next_id_, ParseInt(tokens[1]));
    } else if (tokens[0] == "move" && tokens.size() == 7) {
      JournalEntry entry;
      SCADDAR_ASSIGN_OR_RETURN(entry.id, ParseInt(tokens[1]));
      SCADDAR_ASSIGN_OR_RETURN(entry.block.object, ParseInt(tokens[2]));
      SCADDAR_ASSIGN_OR_RETURN(entry.block.block, ParseInt(tokens[3]));
      SCADDAR_ASSIGN_OR_RETURN(entry.from, ParseInt(tokens[4]));
      SCADDAR_ASSIGN_OR_RETURN(entry.to, ParseInt(tokens[5]));
      SCADDAR_ASSIGN_OR_RETURN(const int64_t phase, ParseInt(tokens[6]));
      if (phase < 0 || phase > static_cast<int64_t>(JournalPhase::kAborted)) {
        return InvalidArgumentError("move journal phase out of range");
      }
      entry.phase = static_cast<JournalPhase>(phase);
      if (!journal.entries_.empty() &&
          entry.id != journal.entries_.back().id + 1) {
        return InvalidArgumentError("move journal ids are not consecutive");
      }
      journal.entries_.push_back(entry);
      if (!Finished(entry)) {
        ++journal.pending_;
      }
    } else {
      return InvalidArgumentError("unrecognized move journal line");
    }
  }
  if (!header_seen) {
    return InvalidArgumentError("empty move journal");
  }
  if (!journal.entries_.empty() &&
      journal.next_id_ <= journal.entries_.back().id) {
    return InvalidArgumentError("move journal next id precedes its entries");
  }
  return journal;
}

StatusOr<JournalRecoveryStats> MoveJournal::Recover(BlockStore& store) {
  JournalRecoveryStats stats;
  for (JournalEntry& entry : entries_) {
    if (Finished(entry)) {
      continue;
    }
    ++stats.scanned;
    if (entry.phase == JournalPhase::kIntent) {
      // Intent with no durable copy: nothing happened on disk. Discard; the
      // reconciliation scan re-discovers the move if it is still wanted.
      entry.phase = JournalPhase::kCommitted;
      --pending_;
      ++stats.discarded_intents;
      continue;
    }
    // kCopied: the staged bytes are durable. Roll the move forward — unless
    // the location flip itself already made it to disk before the crash.
    const StatusOr<PhysicalDiskId> location = store.LocationOf(entry.block);
    if (!location.ok()) {
      // Object vanished (dropped after the intent); its staged copies were
      // already released by DropObject.
      entry.phase = JournalPhase::kCommitted;
      --pending_;
      ++stats.discarded_intents;
      continue;
    }
    if (*location == entry.to) {
      // Flip was durable; only the commit record is missing. If the crash
      // landed between flip and commit-log there is no stage left to claim.
      entry.phase = JournalPhase::kCommitted;
      --pending_;
      ++stats.already_applied;
      continue;
    }
    if (*location != entry.from) {
      return InternalError(
          "journal replay: block is on neither source nor target");
    }
    const StatusOr<PhysicalDiskId> staged = store.StagedTarget(entry.block);
    if (!staged.ok() || *staged != entry.to) {
      return InternalError(
          "journal replay: copied record without a matching staged copy");
    }
    // The copied record promises staged bytes, but with a real backend the
    // stage write may have died in the submission queue (crash between the
    // log record and the batched submit) or landed short. Read the image
    // back before trusting it; a torn copy rolls *back* and the block is
    // re-discovered by reconciliation.
    SCADDAR_ASSIGN_OR_RETURN(const bool intact,
                             store.ValidateStagedImage(entry.block));
    if (!intact) {
      SCADDAR_RETURN_IF_ERROR(store.AbortStagedCopy(entry.block));
      entry.phase = JournalPhase::kAborted;
      --pending_;
      ++stats.torn_copies_released;
      continue;
    }
    SCADDAR_RETURN_IF_ERROR(
        store.CommitStagedMove(entry.block, entry.from, entry.to));
    entry.phase = JournalPhase::kCommitted;
    --pending_;
    ++stats.rolled_forward;
  }

  // Orphan sweep: every kCopied entry consumed its stage above, so any
  // staged copy still outstanding is a torn write from a crash between
  // StageCopy and the copied log record. Release them.
  for (const auto& [ref, disk] : store.StagedCopies()) {
    SCADDAR_RETURN_IF_ERROR(store.AbortStagedCopy(ref));
    ++stats.orphan_stages_released;
  }
  SCADDAR_CHECK(store.staged_blocks() == 0);
  return stats;
}

}  // namespace scaddar
