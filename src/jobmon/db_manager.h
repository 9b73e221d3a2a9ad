// DBManager (paper §5.4): each Job Monitoring Service instance owns a
// database repository of job monitoring records. The DBManager controls all
// access to it and publishes job monitoring updates to MonALISA.
//
// With a Wal attached the repository is crash-consistent, BOSS-style: every
// update is appended to the log before it lands in memory, save_snapshot()
// compacts the log, and recover() rebuilds the exact pre-crash view
// (snapshot fold + tail replay) on a restarted instance. update() compacts
// by itself once the tail outgrows kCompactRatio × the last snapshot (at
// least kCompactMinSnapshotBytes), so the log stays within a constant factor
// of the repository however many updates it takes.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/wal.h"
#include "exec/job.h"
#include "monalisa/repository.h"
#include "storage/health.h"

namespace gae::jobmon {

/// A stored monitoring record: the task view plus where it ran.
struct JobRecord {
  exec::TaskInfo info;
  std::string site;
  SimTime updated_at = 0;
};

/// Canonical one-line serialisation of a record (the WAL payload; tests
/// byte-compare recovered state through it).
std::string encode_job_record(const std::string& task_id, const JobRecord& record);
Result<std::pair<std::string, JobRecord>> decode_job_record(const std::string& line);

class DBManager {
 public:
  /// update() compacts once the WAL tail exceeds
  /// kCompactRatio × max(last snapshot, kCompactMinSnapshotBytes).
  static constexpr std::uint64_t kCompactRatio = 4;
  static constexpr std::uint64_t kCompactMinSnapshotBytes = 16 * 1024;

  /// `monitoring` may be null (no MonALISA publishing); `wal` may be null
  /// (in-memory only, the historical behaviour).
  explicit DBManager(monalisa::Repository* monitoring, Wal* wal = nullptr)
      : monitoring_(monitoring), wal_(wal) {}

  /// Degraded-mode gate (optional; must outlive this). When attached,
  /// mutations are refused while the store is read-only or quarantined,
  /// get() is refused while quarantined (the in-memory view may be
  /// poisoned), a failed WAL append latches the store read-only, and
  /// recover() reports what it dropped through StoreHealth::note_recover.
  void attach_health(storage::StoreHealth* health) { health_ = health; }

  /// Inserts or refreshes a record, journals the update, and publishes the
  /// state to MonALISA. Dropped (with a log line) while the store is not
  /// writable — an un-journalable update must not fork memory from disk.
  /// After a journaled update it compacts the WAL when the tail is over the
  /// bound; a failed compaction is logged, leaves the store writable, and
  /// is retried once the tail has grown by another bound.
  void update(const std::string& task_id, const exec::TaskInfo& info,
              const std::string& site, SimTime now);

  /// NOT_FOUND when the repository has no record of the task; UNAVAILABLE
  /// while the store is quarantined (integrity damage: the view cannot be
  /// trusted until repair).
  Result<JobRecord> get(const std::string& task_id) const;

  std::vector<JobRecord> all() const;
  std::size_t size() const { return records_.size(); }

  /// Compacts the WAL to one snapshot of the current repository.
  Status save_snapshot();

  /// Rebuilds the repository from the WAL (last snapshot + record tail).
  /// Replaces in-memory state entirely, publishes nothing, and is
  /// idempotent: recover(); recover() leaves the same repository. A torn
  /// final record is dropped silently (crash artifact); OK with an empty
  /// or missing log (empty repository).
  Status recover();

  /// Canonical serialisation of the whole repository, one record per line
  /// in task-id order — what save_snapshot writes, and what tests
  /// byte-compare across a crash.
  std::string export_state() const;

 private:
  void compact_if_due();

  monalisa::Repository* monitoring_;
  Wal* wal_;
  storage::StoreHealth* health_ = nullptr;
  std::map<std::string, JobRecord> records_;
  /// Tail size at which to retry after a failed compaction (0: none failed).
  std::uint64_t retry_tail_bytes_ = 0;
};

}  // namespace gae::jobmon
