#include "storage/scrubber.h"

#include <algorithm>

#include "common/log.h"

namespace gae::storage {

const char* scrub_verdict_name(ScrubVerdict verdict) {
  switch (verdict) {
    case ScrubVerdict::kClean: return "clean";
    case ScrubVerdict::kTornTail: return "torn_tail";
    case ScrubVerdict::kCorrupt: return "corrupt";
  }
  return "unknown";
}

Scrubber::Scrubber(const Clock& clock, ScrubberOptions options)
    : clock_(clock), options_(options), metrics_(options_.metrics) {}

void Scrubber::add_target(ScrubTarget target) {
  if (!target.storage) return;
  const std::string prefix = "wal." + target.stream + ".scrub.";
  Target entry;
  entry.runs = &metrics_->counter(prefix + "runs");
  entry.frames = &metrics_->counter(prefix + "frames");
  entry.corrupt = &metrics_->counter(prefix + "corrupt");
  entry.target = std::move(target);
  targets_[entry.target.stream] = std::move(entry);
}

ScrubReport Scrubber::scrub_target(Target& entry) {
  const ScrubTarget& t = entry.target;
  entry.last_scrub = clock_.now();
  entry.runs->inc();

  ScrubReport report;
  report.stream = t.stream;

  auto bytes = t.storage->read_all();
  if (!bytes.is_ok()) {
    report.verdict = ScrubVerdict::kCorrupt;
    entry.corrupt->inc();
    if (t.health) t.health->quarantine("scrub read error: " + bytes.status().message());
    return report;
  }
  report.bytes = bytes.value().size();

  const WalReadResult decoded = Wal::decode(bytes.value());
  report.frames = decoded.records.size();
  report.damaged_bytes = report.bytes - decoded.valid_bytes;
  entry.frames->inc(decoded.records.size());

  if (decoded.corrupt) {
    report.verdict = ScrubVerdict::kCorrupt;
  } else if (decoded.torn_tail) {
    report.verdict = ScrubVerdict::kTornTail;
  }
  const bool damage =
      report.verdict == ScrubVerdict::kCorrupt ||
      (report.verdict == ScrubVerdict::kTornTail && options_.quarantine_on_torn_tail);
  if (damage) {
    entry.corrupt->inc();
    GAE_LOG_ERROR << "scrub: stream '" << t.stream << "' "
                  << scrub_verdict_name(report.verdict) << " (" << report.frames
                  << " clean frames, " << report.damaged_bytes << " damaged bytes)";
    if (t.health) {
      t.health->quarantine("scrub found " +
                           std::string(scrub_verdict_name(report.verdict)) + ": " +
                           std::to_string(report.damaged_bytes) + " damaged bytes");
    }
  }
  return report;
}

Result<ScrubReport> Scrubber::scrub(const std::string& stream) {
  auto it = targets_.find(stream);
  if (it == targets_.end()) return not_found_error("no scrub target: " + stream);
  return scrub_target(it->second);
}

std::size_t Scrubber::tick() {
  const SimTime now = clock_.now();
  // Due targets, least-recently-scrubbed first, so the budget rotates
  // fairly instead of always feeding the same early streams.
  std::vector<Target*> due;
  for (auto& [_, entry] : targets_) {
    if (entry.last_scrub == kSimTimeNever ||
        now - entry.last_scrub >= options_.interval) {
      due.push_back(&entry);
    }
  }
  std::sort(due.begin(), due.end(), [](const Target* a, const Target* b) {
    return a->last_scrub < b->last_scrub;
  });

  std::size_t scrubbed = 0;
  std::size_t budget_spent = 0;
  for (Target* entry : due) {
    if (scrubbed > 0 && budget_spent >= options_.max_bytes_per_tick) break;
    const ScrubReport report = scrub_target(*entry);
    budget_spent += report.bytes;
    ++scrubbed;
  }
  return scrubbed;
}

void Scrubber::note_repaired(const std::string& stream) {
  metrics_->counter("wal." + stream + ".scrub.repaired").inc();
}

}  // namespace gae::storage
