#include "estimators/history.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>

#include "common/kvcodec.h"
#include "common/log.h"

namespace gae::estimators {

namespace {
std::string fmt_double(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}
}  // namespace

std::string encode_history_entry(const HistoryEntry& entry) {
  std::map<std::string, std::string> f;
  f["rt"] = fmt_double(entry.runtime_seconds);
  f["at"] = std::to_string(entry.recorded_at);
  f["ok"] = entry.successful ? "1" : "0";
  for (const auto& [k, v] : entry.attributes) f["a." + k] = v;
  return kv::encode(f);
}

Result<HistoryEntry> decode_history_entry(const std::string& line) {
  auto fields = kv::decode(line);
  if (!fields.is_ok()) return fields.status();
  HistoryEntry entry;
  for (const auto& [key, value] : fields.value()) {
    if (key == "rt") {
      entry.runtime_seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "at") {
      entry.recorded_at = std::strtoll(value.c_str(), nullptr, 10);
    } else if (key == "ok") {
      entry.successful = value == "1";
    } else if (key.rfind("a.", 0) == 0) {
      entry.attributes[key.substr(2)] = value;
    } else {
      return invalid_argument_error("unknown history field: " + key);
    }
  }
  return entry;
}

namespace {

/// The group `keys` files `attributes` under: the key values, each
/// length-prefixed so that no two tuples encode alike. False when an
/// attribute is missing.
bool group_key(const std::vector<std::string>& keys,
               const std::map<std::string, std::string>& attributes, std::string& out) {
  out.clear();
  for (const auto& key : keys) {
    const auto it = attributes.find(key);
    if (it == attributes.end()) return false;
    const std::size_t n = it->second.size();
    out.append(reinterpret_cast<const char*>(&n), sizeof n);
    out += it->second;
  }
  return true;
}

}  // namespace

TaskHistoryStore& TaskHistoryStore::operator=(const TaskHistoryStore& other) {
  return *this = TaskHistoryStore(other);
}

// The templates belong to the estimators built over this store, so they
// stay, and their groups are rebuilt over `other`'s entries.
TaskHistoryStore& TaskHistoryStore::operator=(TaskHistoryStore&& other) {
  if (this == &other) return *this;
  max_entries_ = other.max_entries_;
  wal_ = other.wal_;
  health_ = other.health_;
  entries_ = std::move(other.entries_);
  reindex();
  return *this;
}

void TaskHistoryStore::add(HistoryEntry entry) {
  if (health_ && !health_->writable()) {
    GAE_LOG_WARN << "history store: dropping sample ("
                 << storage::store_state_name(health_->state()) << ")";
    return;
  }
  if (wal_) {
    const Status s = wal_->append(encode_history_entry(entry));
    if (!s.is_ok()) {
      GAE_LOG_WARN << "history wal append failed: " << s.message();
      if (health_) health_->mark_read_only("wal append failed: " + s.message());
    }
  }
  // Positions are 32-bit; a trimmed store that has seen 2^32 samples
  // renumbers its survivors from 0.
  if (first_seq_ + entries_.size() > std::numeric_limits<HistorySeq>::max()) reindex();
  index_entry(static_cast<HistorySeq>(first_seq_ + entries_.size()), entry);
  entries_.push_back(std::move(entry));
  if (max_entries_ > 0 && entries_.size() > max_entries_) trim(entries_.size() - max_entries_);
}

void TaskHistoryStore::clear() {
  entries_.clear();
  reindex();
}

TemplateId TaskHistoryStore::register_template(const std::vector<std::string>& keys,
                                               const std::string& regress_on) {
  for (TemplateId id = 0; id < templates_.size(); ++id) {
    if (templates_[id].keys == keys && templates_[id].regress_on == regress_on) return id;
  }
  Template& tmpl = templates_.emplace_back(Template{keys, regress_on, {}});
  std::string key;
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    if (entries_[i].successful) {
      index_into(tmpl, static_cast<HistorySeq>(first_seq_ + i), entries_[i], key);
    }
  }
  return templates_.size() - 1;
}

std::optional<TemplateId> TaskHistoryStore::find_template(
    const std::vector<std::string>& keys) const {
  for (TemplateId id = 0; id < templates_.size(); ++id) {
    if (templates_[id].keys == keys) return id;
  }
  return std::nullopt;
}

const TaskHistoryStore::Group* TaskHistoryStore::group(
    TemplateId id, const std::map<std::string, std::string>& attributes,
    std::string& key) const {
  const Template& tmpl = templates_[id];
  if (!group_key(tmpl.keys, attributes, key)) return nullptr;
  const auto it = tmpl.groups.find(key);
  return it == tmpl.groups.end() ? nullptr : &it->second;
}

void TaskHistoryStore::SeqList::pop_front() {
  if (++head * 2 >= seqs.size()) {
    seqs.erase(seqs.begin(), seqs.begin() + static_cast<std::ptrdiff_t>(head));
    head = 0;
  }
}

namespace {

/// Folds one member into a group's accumulators, as the loop over members
/// that the group stands for would.
void fold(RunningStats& runtimes, LinearRegression& fit, const std::string* regress_on,
          const HistoryEntry& entry) {
  runtimes.add(entry.runtime_seconds);
  if (!regress_on) return;
  const auto x = entry.attributes.find(*regress_on);
  if (x == entry.attributes.end()) return;
  try {
    fit.add(std::stod(x->second), entry.runtime_seconds);
  } catch (...) {
    // a non-numeric value stays out of the regression
  }
}

}  // namespace

void TaskHistoryStore::index_entry(HistorySeq seq, const HistoryEntry& entry) {
  if (!entry.successful) return;
  successful_.members_.seqs.push_back(seq);
  fold(successful_.runtimes_, successful_.fit_, nullptr, entry);
  std::string key;
  for (Template& tmpl : templates_) index_into(tmpl, seq, entry, key);
}

void TaskHistoryStore::index_into(Template& tmpl, HistorySeq seq, const HistoryEntry& entry,
                                  std::string& key) {
  if (!group_key(tmpl.keys, entry.attributes, key)) return;
  Group& group = tmpl.groups[key];
  group.members_.seqs.push_back(seq);
  fold(group.runtimes_, group.fit_, &tmpl.regress_on, entry);
}

// A Welford accumulator cannot take a sample back out, so every group that
// loses a member is folded again from the members it keeps, oldest first.
void TaskHistoryStore::trim(std::size_t drop) {
  std::vector<std::pair<Template*, std::string>> touched;
  bool any_successful = false;
  std::string key;
  for (std::size_t i = 0; i < drop; ++i) {
    const HistoryEntry& entry = entries_[i];
    if (!entry.successful) continue;
    // The oldest entry left heads every member list it is on.
    successful_.members_.pop_front();
    any_successful = true;
    for (Template& tmpl : templates_) {
      if (!group_key(tmpl.keys, entry.attributes, key)) continue;
      tmpl.groups.find(key)->second.members_.pop_front();
      const std::pair<Template*, std::string> at{&tmpl, key};
      if (std::find(touched.begin(), touched.end(), at) == touched.end()) touched.push_back(at);
    }
  }
  entries_.erase(entries_.begin(), entries_.begin() + static_cast<std::ptrdiff_t>(drop));
  first_seq_ += static_cast<HistorySeq>(drop);

  if (any_successful) refold(successful_, nullptr);
  for (const auto& [tmpl, at] : touched) {
    const auto it = tmpl->groups.find(at);
    if (it->second.members_.empty()) {
      tmpl->groups.erase(it);
    } else {
      refold(it->second, &tmpl->regress_on);
    }
  }
}

void TaskHistoryStore::refold(Group& group, const std::string* regress_on) {
  group.runtimes_ = {};
  group.fit_ = {};
  for (const HistorySeq seq : group.members()) {
    fold(group.runtimes_, group.fit_, regress_on, at(seq));
  }
}

void TaskHistoryStore::reindex() {
  successful_ = {};
  for (Template& tmpl : templates_) tmpl.groups.clear();
  first_seq_ = 0;
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    index_entry(static_cast<HistorySeq>(i), entries_[i]);
  }
}

std::string TaskHistoryStore::export_state() const {
  std::string out;
  for (const auto& entry : entries_) {
    out += encode_history_entry(entry);
    out += '\n';
  }
  return out;
}

Status TaskHistoryStore::save_snapshot() {
  if (!wal_) return failed_precondition_error("history store has no wal");
  return wal_->write_snapshot(export_state());
}

Status TaskHistoryStore::recover() {
  if (!wal_) return failed_precondition_error("history store has no wal");
  RecoverStats stats;
  auto read = wal_->recover(&stats);
  if (!read.is_ok()) return read.status();
  if (health_) health_->note_recover(stats);
  const WalReadResult& log = read.value();

  // Replay into a detached store so a mid-replay failure leaves this one
  // untouched, then adopt the result (add() applies max_entries trimming);
  // the assignment groups it under this store's templates.
  TaskHistoryStore recovered(max_entries_);
  auto apply = [&recovered](const std::string& line) -> Status {
    auto entry = decode_history_entry(line);
    if (!entry.is_ok()) return entry.status();
    recovered.add(std::move(entry).value());
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
  recovered.wal_ = wal_;
  recovered.health_ = health_;
  *this = std::move(recovered);
  return Status::ok();
}

namespace {
constexpr const char* kHistoryHeader = "runtime_seconds,recorded_at_s,successful,attributes";
}  // namespace

Status save_history(const TaskHistoryStore& store, const std::string& path) {
  std::ofstream out(path);
  if (!out) return unavailable_error("cannot write history file: " + path);
  out << kHistoryHeader << '\n';
  out.precision(15);
  for (const auto& e : store.entries()) {
    out << e.runtime_seconds << ',' << to_seconds(e.recorded_at) << ','
        << (e.successful ? 1 : 0) << ',';
    bool first = true;
    for (const auto& [k, v] : e.attributes) {
      if (!first) out << ';';
      first = false;
      out << k << '=' << v;
    }
    out << '\n';
  }
  return out ? Status::ok() : unavailable_error("write failed: " + path);
}

Result<TaskHistoryStore> load_history(const std::string& path, std::size_t max_entries) {
  std::ifstream in(path);
  if (!in) return not_found_error("cannot open history file: " + path);
  std::string line;
  if (!std::getline(in, line)) return invalid_argument_error("empty history file");
  if (!line.empty() && line.back() == '\r') line.pop_back();
  if (line != kHistoryHeader) {
    return invalid_argument_error("unexpected history header: " + line);
  }
  TaskHistoryStore store(max_entries);
  int lineno = 1;
  while (std::getline(in, line)) {
    ++lineno;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty()) continue;
    // Three numeric fields, then the attribute blob (may itself be empty).
    std::istringstream fields(line);
    std::string runtime_s, recorded_s, success_s, attrs_s;
    if (!std::getline(fields, runtime_s, ',') || !std::getline(fields, recorded_s, ',') ||
        !std::getline(fields, success_s, ',')) {
      return invalid_argument_error("history line " + std::to_string(lineno) +
                                    ": too few fields");
    }
    std::getline(fields, attrs_s);
    HistoryEntry entry;
    try {
      entry.runtime_seconds = std::stod(runtime_s);
      entry.recorded_at = from_seconds(std::stod(recorded_s));
    } catch (...) {
      return invalid_argument_error("history line " + std::to_string(lineno) +
                                    ": bad number");
    }
    entry.successful = success_s == "1";
    std::istringstream attrs(attrs_s);
    std::string pair;
    while (std::getline(attrs, pair, ';')) {
      const auto eq = pair.find('=');
      if (eq == std::string::npos) {
        return invalid_argument_error("history line " + std::to_string(lineno) +
                                      ": malformed attribute '" + pair + "'");
      }
      entry.attributes[pair.substr(0, eq)] = pair.substr(eq + 1);
    }
    store.add(std::move(entry));
  }
  return store;
}

}  // namespace gae::estimators
