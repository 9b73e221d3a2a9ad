#include "steering/journal.h"

#include <cstdlib>
#include <sstream>

#include "common/kvcodec.h"
#include "common/log.h"

namespace gae::steering {
namespace {

constexpr char kVersion[] = "v1";

}  // namespace

std::string JournalRecord::field(const std::string& key,
                                 const std::string& fallback) const {
  auto it = fields.find(key);
  return it == fields.end() ? fallback : it->second;
}

double JournalRecord::field_double(const std::string& key, double fallback) const {
  auto it = fields.find(key);
  if (it == fields.end()) return fallback;
  char* end = nullptr;
  const double v = std::strtod(it->second.c_str(), &end);
  return end == it->second.c_str() ? fallback : v;
}

std::string JournalRecord::to_line() const {
  std::string line = std::string(kVersion) + " " + kv::escape(kind);
  if (!fields.empty()) {
    line += ' ';
    line += kv::encode(fields);
  }
  return line;
}

Result<JournalRecord> JournalRecord::parse(const std::string& line) {
  std::istringstream in(line);
  std::string version, kind;
  if (!(in >> version >> kind)) {
    return invalid_argument_error("short journal line: " + line);
  }
  if (version != kVersion) {
    return invalid_argument_error("unknown journal version: " + version);
  }
  JournalRecord rec;
  auto unescaped = kv::unescape(kind);
  if (!unescaped.is_ok()) return unescaped.status();
  rec.kind = std::move(unescaped).value();
  std::string rest;
  std::getline(in, rest);
  auto fields = kv::decode(rest);
  if (!fields.is_ok()) return fields.status();
  rec.fields = std::move(fields).value();
  return rec;
}

Result<std::vector<JournalRecord>> parse_journal(const std::vector<std::string>& lines) {
  std::vector<JournalRecord> records;
  for (const std::string& line : lines) {
    if (line.empty()) continue;
    auto rec = JournalRecord::parse(line);
    if (!rec.is_ok()) return rec.status();
    records.push_back(std::move(rec).value());
  }
  return records;
}

Result<std::vector<std::string>> journal_lines_from_wal(const Wal& wal) {
  auto read = wal.read();
  if (!read.is_ok()) return read.status();
  const WalReadResult& log = read.value();

  std::vector<std::string> lines;
  std::size_t at = log.replay_start();
  if (at < log.records.size() &&
      log.records[at].type == WalRecord::Type::kSnapshot) {
    std::istringstream in(log.records[at].payload);
    std::string line;
    while (std::getline(in, line)) {
      if (!line.empty()) lines.push_back(line);
    }
    ++at;
  }
  for (; at < log.records.size(); ++at) {
    lines.push_back(log.records[at].payload);
  }
  if (log.corrupt) {
    GAE_LOG_WARN << "steering journal wal: corruption mid-log; recovered valid prefix ("
                 << lines.size() << " lines)";
  }
  return lines;
}

}  // namespace gae::steering
