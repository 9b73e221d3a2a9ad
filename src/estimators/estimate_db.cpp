#include "estimators/estimate_db.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <vector>

#include "common/kvcodec.h"
#include "common/log.h"

namespace gae::estimators {

namespace {

std::string fmt_double(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

// WAL payloads: "put <task> <value>" / "del <task>", task percent-escaped.
std::string encode_put(const std::string& task_id, double value) {
  return "put " + kv::escape(task_id) + " " + fmt_double(value);
}
std::string encode_del(const std::string& task_id) {
  return "del " + kv::escape(task_id);
}

}  // namespace

void EstimateDatabase::put(const std::string& task_id, double estimated_runtime_seconds) {
  if (health_ && !health_->writable()) {
    GAE_LOG_WARN << "estimate db: dropping put for " << task_id << " ("
                 << storage::store_state_name(health_->state()) << ")";
    return;
  }
  estimates_[task_id] = estimated_runtime_seconds;
  if (wal_) {
    const Status s = wal_->append(encode_put(task_id, estimated_runtime_seconds));
    if (!s.is_ok()) {
      GAE_LOG_WARN << "estimate db wal append failed: " << s.message();
      if (health_) health_->mark_read_only("wal append failed: " + s.message());
    }
  }
}

void EstimateDatabase::erase(const std::string& task_id) {
  if (health_ && !health_->writable()) {
    GAE_LOG_WARN << "estimate db: dropping erase for " << task_id << " ("
                 << storage::store_state_name(health_->state()) << ")";
    return;
  }
  if (estimates_.erase(task_id) > 0 && wal_) {
    const Status s = wal_->append(encode_del(task_id));
    if (!s.is_ok()) {
      GAE_LOG_WARN << "estimate db wal append failed: " << s.message();
      if (health_) health_->mark_read_only("wal append failed: " + s.message());
    }
  }
}

Result<double> EstimateDatabase::get(const std::string& task_id) const {
  if (health_ && !health_->readable()) {
    return unavailable_error("estimate db quarantined: " + health_->reason());
  }
  auto it = estimates_.find(task_id);
  if (it == estimates_.end()) return not_found_error("no estimate for task " + task_id);
  return it->second;
}

std::optional<double> EstimateDatabase::lookup(const std::string& task_id) const {
  if (health_ && !health_->readable()) return std::nullopt;
  auto it = estimates_.find(task_id);
  if (it == estimates_.end()) return std::nullopt;
  return it->second;
}

std::string EstimateDatabase::export_state() const {
  std::vector<const std::pair<const std::string, double>*> sorted;
  sorted.reserve(estimates_.size());
  for (const auto& entry : estimates_) sorted.push_back(&entry);
  std::sort(sorted.begin(), sorted.end(),
            [](const auto* a, const auto* b) { return a->first < b->first; });
  std::string out;
  for (const auto* entry : sorted) {
    out += encode_put(entry->first, entry->second);
    out += '\n';
  }
  return out;
}

Status EstimateDatabase::save_snapshot() {
  if (!wal_) return failed_precondition_error("estimate db has no wal");
  return wal_->write_snapshot(export_state());
}

Status EstimateDatabase::recover() {
  if (!wal_) return failed_precondition_error("estimate db has no wal");
  RecoverStats stats;
  auto read = wal_->recover(&stats);
  if (!read.is_ok()) return read.status();
  if (health_) health_->note_recover(stats);
  const WalReadResult& log = read.value();

  std::unordered_map<std::string, double> recovered;
  auto apply = [&recovered](const std::string& line) -> Status {
    std::istringstream in(line);
    std::string op, task;
    if (!(in >> op >> task)) return invalid_argument_error("bad estimate record: " + line);
    auto unescaped = kv::unescape(task);
    if (!unescaped.is_ok()) return unescaped.status();
    if (op == "put") {
      std::string value;
      if (!(in >> value)) return invalid_argument_error("put without value: " + line);
      recovered[unescaped.value()] = std::strtod(value.c_str(), nullptr);
    } else if (op == "del") {
      recovered.erase(unescaped.value());
    } else {
      return invalid_argument_error("unknown estimate op: " + op);
    }
    return Status::ok();
  };

  std::size_t at = log.replay_start();
  if (at < log.records.size() && log.records[at].type == WalRecord::Type::kSnapshot) {
    std::istringstream lines(log.records[at].payload);
    std::string line;
    while (std::getline(lines, line)) {
      if (line.empty()) continue;
      const Status s = apply(line);
      if (!s.is_ok()) return s;
    }
    ++at;
  }
  for (; at < log.records.size(); ++at) {
    const Status s = apply(log.records[at].payload);
    if (!s.is_ok()) return s;
  }
  estimates_ = std::move(recovered);
  return Status::ok();
}

}  // namespace gae::estimators
