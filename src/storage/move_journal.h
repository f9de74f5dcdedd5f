#ifndef SCADDAR_STORAGE_MOVE_JOURNAL_H_
#define SCADDAR_STORAGE_MOVE_JOURNAL_H_

#include <cstdint>
#include <deque>
#include <string>
#include <string_view>

#include "core/types.h"
#include "storage/block_store.h"
#include "util/statusor.h"

namespace scaddar {

/// Durable state of one journaled move. Records advance strictly
/// kIntent -> kCopied -> kCommitted; a crash can strand an entry at any of
/// the first two. An intent whose copy failed (injected EIO, short write)
/// is closed out as kAborted — the move never happened and the block is
/// re-queued by the executor.
enum class JournalPhase {
  kIntent = 0,     // Move decided; nothing written to the target yet.
  kCopied = 1,     // Block bytes durably staged on the target disk.
  kCommitted = 2,  // Location flipped; the move is fully applied.
  kAborted = 3,    // Copy failed; the staged slot was released.
};

/// One write-ahead record: "block moves from -> to".
struct JournalEntry {
  int64_t id = 0;
  BlockRef block;
  PhysicalDiskId from = 0;
  PhysicalDiskId to = 0;
  JournalPhase phase = JournalPhase::kIntent;

  friend bool operator==(const JournalEntry&, const JournalEntry&) = default;
};

/// What `Recover` found and did.
struct JournalRecoveryStats {
  int64_t scanned = 0;           // Entries examined (non-committed).
  int64_t rolled_forward = 0;    // kCopied completed via the staged copy.
  int64_t already_applied = 0;   // kCopied whose flip was already durable.
  int64_t discarded_intents = 0; // kIntent dropped (reconciliation re-queues).
  int64_t orphan_stages_released = 0;  // Torn copies with no kCopied record.
  int64_t torn_copies_released = 0;    // kCopied whose staged *bytes* failed
                                       // image validation (a batched write
                                       // that never reached the medium).
};

/// The write-ahead move journal that makes migration crash-consistent: every
/// move logs intent -> copied -> committed around the `BlockStore` staged-
/// copy protocol, so a crash at *any* boundary replays — via `Recover` plus
/// the ordinary reconciliation scan — to exactly the placement the
/// uninterrupted run would have produced. Re-execution is idempotent:
/// recovery only ever completes or releases work, never repeats it.
///
/// The journal is the durable artifact a real deployment would fsync; the
/// simulation keeps it in memory and round-trips it through `Serialize` /
/// `Deserialize` at simulated crash points to prove the text form carries
/// everything recovery needs.
class MoveJournal {
 public:
  MoveJournal() = default;

  /// Appends an intent record; returns its id for the later phase marks.
  /// Ids are consecutive, so each mark below finds its entry in O(1).
  int64_t Begin(BlockRef block, PhysicalDiskId from, PhysicalDiskId to);

  /// Marks the entry's staged copy durable (id must exist and be kIntent).
  void MarkCopied(int64_t id);

  /// Marks the entry fully applied (id must exist and be kCopied).
  void MarkCommitted(int64_t id);

  /// Closes an intent whose copy failed (id must exist and be kIntent).
  /// The entry stops being pending; recovery skips it.
  void MarkAborted(int64_t id);

  /// Entries not yet committed.
  int64_t pending() const { return pending_; }
  int64_t size() const { return static_cast<int64_t>(entries_.size()); }
  const std::deque<JournalEntry>& entries() const { return entries_; }

  /// Drops the committed prefix (checkpoint truncation; keeps ids stable).
  void Compact();

  /// Text form ("moves-v1" header + one line per entry); round-trips via
  /// `Deserialize`, which refuses entry ids that are not strictly
  /// consecutive or a `next` id that does not follow them
  /// (InvalidArgument): the phase marks index entries by id.
  std::string Serialize() const;
  static StatusOr<MoveJournal> Deserialize(std::string_view text);

  /// The same text for only the suffix `Compact` would keep: the entries
  /// from the first unfinished one on, plus `next`. A checkpoint embeds
  /// this, since its rows and staged copies already record every finished
  /// move; at a round boundary nothing is unfinished and it holds no entry.
  std::string SerializeUnfinished() const;

  /// Crash recovery: replays every non-committed entry against the durable
  /// `store` and releases orphaned staged copies, leaving the store with
  /// zero staged blocks and every journaled move either fully applied or
  /// fully undone. Idempotent — running it twice is a no-op the second
  /// time. Blocks whose moves were discarded are picked up by the caller's
  /// reconciliation scan (`MigrationExecutor::EnqueueReconciliation`).
  StatusOr<JournalRecoveryStats> Recover(BlockStore& store);

 private:
  JournalEntry& EntryFor(int64_t id);
  std::string SerializeFrom(std::deque<JournalEntry>::const_iterator first)
      const;

  std::deque<JournalEntry> entries_;
  int64_t next_id_ = 0;
  int64_t pending_ = 0;
};

}  // namespace scaddar

#endif  // SCADDAR_STORAGE_MOVE_JOURNAL_H_
