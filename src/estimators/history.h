// Task execution history: the raw material for history-based runtime
// prediction (paper §6.1). Maintenance is decentralised in the paper — each
// execution site keeps its own history — so the store is a plain value type
// a site service owns.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "common/time_types.h"
#include "common/wal.h"
#include "storage/health.h"

namespace gae::estimators {

/// One completed task observation.
struct HistoryEntry {
  /// Categorical attributes (login, executable, queue, partition, nodes...).
  std::map<std::string, std::string> attributes;
  /// Observed runtime in seconds (reference-CPU).
  double runtime_seconds = 0.0;
  SimTime recorded_at = 0;
  bool successful = true;
};

/// Position of an entry in its store: entries are numbered 0, 1, 2... in
/// the order add() saw them, and trimming does not renumber the survivors.
using HistorySeq = std::uint32_t;

/// The store keeps an inverted index over its successful entries, so that
/// similarity search reads only the entries that share an attribute value
/// with the query instead of scanning the whole history.
class TaskHistoryStore {
 public:
  /// `max_entries` bounds memory; the oldest entries fall off. 0 = unbounded.
  explicit TaskHistoryStore(std::size_t max_entries = 0) : max_entries_(max_entries) {}

  /// Journals every completion sample to `wal` from now on (null detaches),
  /// making the decentralised site history crash-consistent.
  void attach_wal(Wal* wal) { wal_ = wal; }

  /// Degraded-mode gate (optional): add() drops samples while the store is
  /// not writable, failed appends latch read-only, recover() reports drops
  /// through note_recover.
  void attach_health(storage::StoreHealth* health) { health_ = health; }

  void add(HistoryEntry entry);

  std::size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }
  const std::vector<HistoryEntry>& entries() const { return entries_; }

  void clear();

  /// Ascending positions of the successful entries whose attribute `key`
  /// equals `value` (empty when there are none).
  std::span<const HistorySeq> postings(const std::string& key, const std::string& value) const;
  /// Ascending positions of every successful entry.
  std::span<const HistorySeq> successful() const { return successful_.view(); }
  /// The entry at position `seq`; `seq` must come from postings()/successful().
  const HistoryEntry& at(HistorySeq seq) const { return entries_[seq - first_seq_]; }

  /// Compacts the WAL to one snapshot of the current entries.
  Status save_snapshot();
  /// Rebuilds the store from the WAL (last snapshot + tail). Replays
  /// through add(), so max_entries trimming applies; idempotent; tolerates
  /// a torn final record.
  Status recover();
  /// Canonical one-line-per-entry serialisation (snapshot payload; tests
  /// byte-compare recovered state through it).
  std::string export_state() const;

 private:
  /// One posting list: ascending positions, live from `head` on. Trimming
  /// pops from the front; the dead prefix is compacted away once it makes
  /// up half the vector.
  struct Postings {
    std::vector<HistorySeq> seqs;
    std::size_t head = 0;

    std::span<const HistorySeq> view() const {
      return std::span<const HistorySeq>(seqs).subspan(head);
    }
    bool empty() const { return head == seqs.size(); }
    void pop_front();
  };
  using ValuePostings = std::unordered_map<std::string, Postings>;

  void index_entry(HistorySeq seq, const HistoryEntry& entry);
  void unindex_oldest(const HistoryEntry& entry);
  void reindex();

  std::size_t max_entries_;
  Wal* wal_ = nullptr;
  storage::StoreHealth* health_ = nullptr;
  std::vector<HistoryEntry> entries_;  // oldest first; entries_[0] is first_seq_
  HistorySeq first_seq_ = 0;
  std::unordered_map<std::string, ValuePostings> index_;  // key -> value -> postings
  Postings successful_;
};

/// One-line codec for a history entry (the WAL payload format).
std::string encode_history_entry(const HistoryEntry& entry);
Result<HistoryEntry> decode_history_entry(const std::string& line);

/// Persists a history store as CSV (attributes flattened as k=v;k=v). The
/// decentralised site histories survive service restarts this way.
Status save_history(const TaskHistoryStore& store, const std::string& path);

/// Loads a history CSV written by save_history. INVALID_ARGUMENT on
/// malformed content, NOT_FOUND when the file is missing.
Result<TaskHistoryStore> load_history(const std::string& path,
                                      std::size_t max_entries = 0);

}  // namespace gae::estimators
