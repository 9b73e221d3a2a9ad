#include "jobmon/db_manager.h"

#include <algorithm>
#include <cstdlib>
#include <sstream>

#include "common/kvcodec.h"
#include "common/log.h"

namespace gae::jobmon {

namespace {

// Composite fields (input files, attributes) pack parts with ';' and ':';
// those delimiters are percent-escaped inside each part so arbitrary
// strings survive (kv::unescape undoes any %XX on the way back).
std::string esc_part(const std::string& in) {
  std::string out;
  for (char c : in) {
    if (c == '%') out += "%25";
    else if (c == ';') out += "%3B";
    else if (c == ':') out += "%3A";
    else out += c;
  }
  return out;
}

std::string unesc_part(const std::string& in) {
  auto r = kv::unescape(in);
  return r.is_ok() ? r.value() : in;
}

std::string join(const std::vector<std::string>& parts) {
  std::string out;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i) out += ';';
    out += esc_part(parts[i]);
  }
  return out;
}

std::vector<std::string> split(const std::string& s) {
  std::vector<std::string> out;
  if (s.empty()) return out;
  std::istringstream in(s);
  std::string part;
  while (std::getline(in, part, ';')) out.push_back(unesc_part(part));
  return out;
}

std::string fmt_double(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

std::string encode_job_record(const std::string& task_id, const JobRecord& record) {
  const exec::TaskInfo& info = record.info;
  const exec::TaskSpec& spec = info.spec;
  std::map<std::string, std::string> f;
  f["task"] = task_id;
  f["site"] = record.site;
  f["at"] = std::to_string(record.updated_at);
  f["job"] = spec.job_id;
  f["owner"] = spec.owner;
  f["exe"] = spec.executable;
  f["work"] = fmt_double(spec.work_seconds);
  f["prio"] = std::to_string(spec.priority);
  f["ckpt"] = spec.checkpointable ? "1" : "0";
  f["outbytes"] = std::to_string(spec.output_bytes);
  if (!spec.input_files.empty()) f["inputs"] = join(spec.input_files);
  {
    std::string attrs;
    for (const auto& [k, v] : spec.attributes) {
      if (!attrs.empty()) attrs += ';';
      attrs += esc_part(k) + ":" + esc_part(v);
    }
    if (!attrs.empty()) f["attrs"] = attrs;
  }
  f["state"] = std::to_string(static_cast<int>(info.state));
  f["submit"] = std::to_string(info.submit_time);
  f["start"] = std::to_string(info.start_time);
  f["done"] = std::to_string(info.completion_time);
  f["cpu"] = fmt_double(info.cpu_seconds_used);
  f["prog"] = fmt_double(info.progress);
  f["qpos"] = std::to_string(info.queue_position);
  f["node"] = info.node;
  f["inb"] = std::to_string(info.input_bytes_transferred);
  f["outb"] = std::to_string(info.output_bytes_written);
  if (!info.detail.empty()) f["detail"] = info.detail;
  return kv::encode(f);
}

Result<std::pair<std::string, JobRecord>> decode_job_record(const std::string& line) {
  auto fields = kv::decode(line);
  if (!fields.is_ok()) return fields.status();
  const auto& f = fields.value();
  auto field = [&f](const std::string& key) -> std::string {
    auto it = f.find(key);
    return it == f.end() ? std::string() : it->second;
  };
  const std::string task_id = field("task");
  if (task_id.empty()) return invalid_argument_error("job record without task id");

  JobRecord rec;
  rec.site = field("site");
  rec.updated_at = std::strtoll(field("at").c_str(), nullptr, 10);
  exec::TaskSpec& spec = rec.info.spec;
  spec.id = task_id;
  spec.job_id = field("job");
  spec.owner = field("owner");
  spec.executable = field("exe");
  spec.work_seconds = std::strtod(field("work").c_str(), nullptr);
  spec.priority = static_cast<int>(std::strtol(field("prio").c_str(), nullptr, 10));
  spec.checkpointable = field("ckpt") == "1";
  spec.output_bytes = std::strtoull(field("outbytes").c_str(), nullptr, 10);
  spec.input_files = split(field("inputs"));
  {
    // Split raw on ';' and ':' first; each component unescapes separately.
    std::istringstream pairs(field("attrs"));
    std::string pair;
    while (std::getline(pairs, pair, ';')) {
      const std::size_t colon = pair.find(':');
      if (colon != std::string::npos) {
        spec.attributes[unesc_part(pair.substr(0, colon))] =
            unesc_part(pair.substr(colon + 1));
      }
    }
  }
  exec::TaskInfo& info = rec.info;
  info.state = static_cast<exec::TaskState>(std::strtol(field("state").c_str(), nullptr, 10));
  info.submit_time = std::strtoll(field("submit").c_str(), nullptr, 10);
  info.start_time = std::strtoll(field("start").c_str(), nullptr, 10);
  info.completion_time = std::strtoll(field("done").c_str(), nullptr, 10);
  info.cpu_seconds_used = std::strtod(field("cpu").c_str(), nullptr);
  info.progress = std::strtod(field("prog").c_str(), nullptr);
  info.queue_position = static_cast<int>(std::strtol(field("qpos").c_str(), nullptr, 10));
  info.node = field("node");
  info.input_bytes_transferred = std::strtoull(field("inb").c_str(), nullptr, 10);
  info.output_bytes_written = std::strtoull(field("outb").c_str(), nullptr, 10);
  info.detail = field("detail");
  return std::make_pair(task_id, std::move(rec));
}

void DBManager::update(const std::string& task_id, const exec::TaskInfo& info,
                       const std::string& site, SimTime now) {
  if (health_ && !health_->writable()) {
    // Applying in memory what cannot be journaled forks memory from disk;
    // the record stays at its last durable state until repair.
    GAE_LOG_WARN << "jobmon: dropping update for " << task_id << " ("
                 << storage::store_state_name(health_->state())
                 << "): " << health_->reason();
    return;
  }
  JobRecord& rec = records_[task_id];
  const bool state_changed = rec.updated_at == 0 || rec.info.state != info.state;
  rec.info = info;
  rec.site = site;
  rec.updated_at = now;

  if (wal_) {
    const Status s = wal_->append(encode_job_record(task_id, rec));
    if (!s.is_ok()) {
      GAE_LOG_WARN << "jobmon wal append failed for " << task_id << ": " << s.message();
      if (health_) health_->mark_read_only("wal append failed: " + s.message());
    } else {
      compact_if_due();
    }
  }

  // "The Job Monitoring Service ... sends an update to MonALISA whenever the
  // state of a job changes" (§5). State transitions go to the event log;
  // progress goes to a numeric series so dashboards can plot it.
  if (monitoring_) {
    if (state_changed) {
      monitoring_->publish_event({now, site, "job_state",
                                  task_id + ":" + exec::task_state_name(info.state)});
    }
    monitoring_->publish(task_id, "progress", now, info.progress);
  }
}

Result<JobRecord> DBManager::get(const std::string& task_id) const {
  if (health_ && !health_->readable()) {
    return unavailable_error("jobmon store quarantined: " + health_->reason());
  }
  auto it = records_.find(task_id);
  if (it == records_.end()) return not_found_error("no record for task " + task_id);
  return it->second;
}

std::vector<JobRecord> DBManager::all() const {
  std::vector<JobRecord> out;
  out.reserve(records_.size());
  for (const auto& [_, rec] : records_) out.push_back(rec);
  return out;
}

std::string DBManager::export_state() const {
  std::string out;
  for (const auto& [task_id, rec] : records_) {
    out += encode_job_record(task_id, rec);
    out += '\n';
  }
  return out;
}

Status DBManager::save_snapshot() {
  if (!wal_) return failed_precondition_error("jobmon db has no wal");
  return wal_->write_snapshot(export_state());
}

void DBManager::compact_if_due() {
  const std::uint64_t bound =
      kCompactRatio * std::max(wal_->snapshot_bytes(), kCompactMinSnapshotBytes);
  const std::uint64_t tail = wal_->bytes_since_snapshot();
  if (tail <= std::max(bound, retry_tail_bytes_)) return;
  const Status s = save_snapshot();
  if (s.is_ok()) {
    retry_tail_bytes_ = 0;
    return;
  }
  // The records are journaled; only the compaction failed. A standby that
  // missed the snapshot is healed by the shipper's gap resync.
  GAE_LOG_WARN << "jobmon wal compaction failed: " << s.message();
  retry_tail_bytes_ = tail + bound;
}

Status DBManager::recover() {
  if (!wal_) return failed_precondition_error("jobmon db has no wal");
  RecoverStats stats;
  auto read = wal_->recover(&stats);
  if (!read.is_ok()) return read.status();
  if (health_) health_->note_recover(stats);
  const WalReadResult& log = read.value();

  std::map<std::string, JobRecord> recovered;
  std::size_t at = log.replay_start();
  if (at < log.records.size() &&
      log.records[at].type == WalRecord::Type::kSnapshot) {
    // The snapshot is export_state(): one encoded record per line.
    std::istringstream lines(log.records[at].payload);
    std::string line;
    while (std::getline(lines, line)) {
      if (line.empty()) continue;
      auto rec = decode_job_record(line);
      if (!rec.is_ok()) return rec.status();
      recovered[rec.value().first] = std::move(rec).value().second;
    }
    ++at;
  }
  for (; at < log.records.size(); ++at) {
    auto rec = decode_job_record(log.records[at].payload);
    if (!rec.is_ok()) return rec.status();
    recovered[rec.value().first] = std::move(rec).value().second;
  }
  if (log.corrupt) {
    GAE_LOG_WARN << "jobmon wal: corruption mid-log; recovered valid prefix ("
                 << recovered.size() << " records)";
  }
  records_ = std::move(recovered);
  retry_tail_bytes_ = 0;
  return Status::ok();
}

}  // namespace gae::jobmon
