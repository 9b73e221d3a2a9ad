// Append-only recovery journal for the Steering Service.
//
// Steering's Backup & Recovery state (which tasks are watched, where they
// are placed, how they have moved) used to live only in memory: one crashed
// service host orphaned every watched task. The journal persists that state
// in a common::Wal as it changes, and restore_from_journal() replays it so a
// restarted (or promoted standby) steering service re-adopts its tasks.
//
// Format: one record per Wal frame, "v1 <kind> key=value ...", kind, keys and
// values escaped by common/kvcodec. Append-only by construction — recovery
// state is always a fold over the full history, never an in-place update.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/wal.h"

namespace gae::steering {

/// The journal's writer: each line rides one common::Wal record, which buys
/// torn-tail detection on replay, a scrubbable on-disk format
/// (storage/scrubber.h watches the same Wal), snapshot compaction, and
/// standby replication by wrapping the Wal's storage in
/// ha::ReplicatedWalStorage. A failed append surfaces to the caller; the
/// underlying storage latches itself.
class WalJournalSink {
 public:
  /// `wal` must outlive the sink.
  explicit WalJournalSink(Wal* wal) : wal_(wal) {}

  Status append(const std::string& line) { return wal_->append(line); }

 private:
  Wal* wal_;
};

/// Decodes a journal Wal — the primary's own or a standby's replica — back
/// into the lines restore_from_journal replays. Folds from the last snapshot
/// (its payload is the newline-joined lines) plus the record tail; a torn
/// final frame is dropped as the usual crash artifact, and a mid-log CRC
/// mismatch keeps the valid prefix and logs a warning.
Result<std::vector<std::string>> journal_lines_from_wal(const Wal& wal);

/// One journal record: a kind plus flat string fields.
struct JournalRecord {
  std::string kind;  // "watch" | "place" | "move" | "recover" | "restart" | "done"
  std::map<std::string, std::string> fields;

  std::string field(const std::string& key, const std::string& fallback = "") const;
  double field_double(const std::string& key, double fallback = 0.0) const;

  /// Serialises to one "v1 ..." line (no trailing newline).
  std::string to_line() const;

  /// Parses a line written by to_line(). INVALID_ARGUMENT on malformed or
  /// unknown-version input.
  static Result<JournalRecord> parse(const std::string& line);
};

/// Parses a whole journal, skipping blank lines. Fails on the first
/// malformed record.
Result<std::vector<JournalRecord>> parse_journal(const std::vector<std::string>& lines);

}  // namespace gae::steering
