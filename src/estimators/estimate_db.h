// The "separate database" of §6.2: runtime estimates recorded at submission
// time, consulted later by the queue-time estimator to compute the remaining
// runtime of queued/running tasks.
//
// With a Wal attached every put/erase is journaled, save_snapshot()
// compacts the log, and recover() rebuilds the exact pre-crash map on a
// restarted estimator service.
#pragma once

#include <optional>
#include <string>
#include <unordered_map>

#include "common/status.h"
#include "common/wal.h"
#include "storage/health.h"

namespace gae::estimators {

class EstimateDatabase {
 public:
  EstimateDatabase() = default;
  explicit EstimateDatabase(Wal* wal) : wal_(wal) {}

  /// Journals mutations to `wal` from now on (null detaches).
  void attach_wal(Wal* wal) { wal_ = wal; }

  /// Degraded-mode gate (optional): mutations are dropped while the store
  /// is not writable, get() refused while quarantined, failed appends latch
  /// read-only, recover() reports drops through note_recover.
  void attach_health(storage::StoreHealth* health) { health_ = health; }

  /// Stores (or overwrites) the submit-time runtime estimate for a task.
  /// Dropped (with a log line) while the store is not writable.
  void put(const std::string& task_id, double estimated_runtime_seconds);

  /// NOT_FOUND when no estimate was recorded for the task; UNAVAILABLE
  /// while the store is quarantined.
  Result<double> get(const std::string& task_id) const;
  /// get() for hot paths that only need the value: nullopt wherever get()
  /// fails, without building the error.
  std::optional<double> lookup(const std::string& task_id) const;

  bool has(const std::string& task_id) const { return estimates_.count(task_id) != 0; }
  void erase(const std::string& task_id);
  std::size_t size() const { return estimates_.size(); }

  /// Compacts the WAL to one snapshot of the current map.
  Status save_snapshot();
  /// Rebuilds the map from the WAL (last snapshot + tail); idempotent,
  /// replaces in-memory state, tolerates a torn final record.
  Status recover();
  /// Canonical one-line-per-entry serialisation in task-id order (snapshot
  /// payload; tests byte-compare recovered state through it).
  std::string export_state() const;

 private:
  Wal* wal_ = nullptr;
  storage::StoreHealth* health_ = nullptr;
  std::unordered_map<std::string, double> estimates_;
};

}  // namespace gae::estimators
