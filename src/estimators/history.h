// Task execution history: the raw material for history-based runtime
// prediction (paper §6.1). Maintenance is decentralised in the paper — each
// execution site keeps its own history — so the store is a plain value type
// a site service owns.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/stats.h"
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

/// Names a template registered with one store (register_template).
using TemplateId = std::size_t;

/// The store groups its successful entries by similarity template, so that
/// an estimate reads one group's statistics instead of walking entries.
///
/// A registered template (keys + regression attribute) files every
/// successful entry that carries all of its keys into one group per tuple
/// of key values. A group holds its members and two Welford accumulators,
/// folded in insertion order: exactly what a loop over the members, oldest
/// first, computes. The write path pays for this: add() folds each entry
/// into one group per template, and trimming re-folds every group that
/// lost a member from the members it keeps.
class TaskHistoryStore {
 private:
  /// One member list: ascending positions, live from `head` on. Trimming
  /// pops from the front; the dead prefix is compacted away once it makes
  /// up half the vector.
  struct SeqList {
    std::vector<HistorySeq> seqs;
    std::size_t head = 0;

    std::span<const HistorySeq> view() const {
      return std::span<const HistorySeq>(seqs).subspan(head);
    }
    bool empty() const { return head == seqs.size(); }
    void pop_front();
  };

 public:
  /// The successful entries that share one tuple of a template's key values.
  class Group {
   public:
    /// Ascending positions of the members (never empty).
    std::span<const HistorySeq> members() const { return members_.view(); }
    /// The members' runtimes.
    const RunningStats& runtimes() const { return runtimes_; }
    /// Runtime on the template's regression attribute, over the members
    /// whose value std::stod parses.
    const LinearRegression& fit() const { return fit_; }

   private:
    friend class TaskHistoryStore;
    SeqList members_;
    RunningStats runtimes_;
    LinearRegression fit_;
  };

  /// `max_entries` bounds memory; the oldest entries fall off. 0 = unbounded.
  explicit TaskHistoryStore(std::size_t max_entries = 0) : max_entries_(max_entries) {}

  TaskHistoryStore(const TaskHistoryStore&) = default;
  TaskHistoryStore(TaskHistoryStore&&) = default;
  /// Assignment takes `other`'s entries, bound and attachments but keeps
  /// this store's registered templates and their ids (estimators built over
  /// this store hold them), and regroups the entries under them.
  TaskHistoryStore& operator=(const TaskHistoryStore& other);
  TaskHistoryStore& operator=(TaskHistoryStore&& other);

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

  /// Drops every entry; registered templates stay.
  void clear();

  /// Groups the store by `keys`, regressing runtime on `regress_on`, and
  /// folds the entries it already holds. Registering a template again
  /// returns its first id, so many estimators over one store share groups.
  TemplateId register_template(const std::vector<std::string>& keys,
                               const std::string& regress_on);
  /// Number of distinct templates registered.
  std::size_t template_count() const { return templates_.size(); }
  /// A registered template with exactly these keys (any regression attribute).
  std::optional<TemplateId> find_template(const std::vector<std::string>& keys) const;
  /// The group of template `id` whose key values `attributes` carries; null
  /// when it lacks a key or no successful entry shares its values. `key` is
  /// scratch space a caller may reuse across calls.
  const Group* group(TemplateId id, const std::map<std::string, std::string>& attributes,
                     std::string& key) const;

  /// Ascending positions of every successful entry.
  std::span<const HistorySeq> successful() const { return successful_.members(); }
  /// Runtimes of every successful entry, oldest first.
  const RunningStats& successful_runtimes() const { return successful_.runtimes(); }
  /// The entry at position `seq`; `seq` must come from a member list.
  const HistoryEntry& at(HistorySeq seq) const { return entries_[seq - first_seq_]; }

  /// Compacts the WAL to one snapshot of the current entries.
  Status save_snapshot();
  /// Rebuilds the store from the WAL (last snapshot + tail). Replays
  /// through add(), so max_entries trimming applies; idempotent; tolerates
  /// a torn final record. Registered templates stay.
  Status recover();
  /// Canonical one-line-per-entry serialisation (snapshot payload; tests
  /// byte-compare recovered state through it).
  std::string export_state() const;

 private:
  struct Template {
    std::vector<std::string> keys;
    std::string regress_on;
    std::unordered_map<std::string, Group> groups;  // by encoded key values
  };

  void index_entry(HistorySeq seq, const HistoryEntry& entry);
  void index_into(Template& tmpl, HistorySeq seq, const HistoryEntry& entry, std::string& key);
  void trim(std::size_t drop);
  void refold(Group& group, const std::string* regress_on);
  void reindex();

  std::size_t max_entries_;
  Wal* wal_ = nullptr;
  storage::StoreHealth* health_ = nullptr;
  std::vector<HistoryEntry> entries_;  // oldest first; entries_[0] is first_seq_
  HistorySeq first_seq_ = 0;
  std::vector<Template> templates_;  // indexed by TemplateId
  Group successful_;                 // every successful entry; no regression
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
