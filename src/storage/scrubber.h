// Background integrity scrubbing for WAL-backed stores.
//
// Crash recovery only inspects a log when a process restarts; bit rot does
// not wait for a restart. The Scrubber re-reads registered logs on a
// clock-injected cadence, re-verifies the CRC framing of every record and
// snapshot, and — instead of letting a rotten store keep answering reads —
// quarantines it through its StoreHealth, which arms the repair recipe
// (storage/repair.h) to pull a verified image back from a hot standby.
//
// Rate limiting is byte-budgeted per tick so a scrub pass over a large log
// cannot starve the serving path; the cadence and budget both come from
// options, and the clock is injected so virtual-time tests are exact.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/status.h"
#include "common/wal.h"
#include "storage/health.h"
#include "telemetry/metrics.h"

namespace gae::storage {

enum class ScrubVerdict {
  kClean = 0,
  /// Trailing bytes do not frame a complete record. On a live store (no
  /// crash in between) this means a torn append latched the write path.
  kTornTail,
  /// CRC mismatch mid-log, an unknown frame type, or an unreadable medium:
  /// the store's view may be poisoned.
  kCorrupt,
};

const char* scrub_verdict_name(ScrubVerdict verdict);

struct ScrubTarget {
  std::string stream;
  WalStorage* storage = nullptr;
  /// Quarantined on damage (may be null: detect-and-count only).
  StoreHealth* health = nullptr;
};

struct ScrubberOptions {
  /// Minimum gap between two scrubs of the same target (tick() cadence).
  SimDuration interval = from_seconds(5);
  /// Byte budget per tick(): scrubbing stops for this tick once the logs
  /// verified so far exceed it. One target is always scrubbed when due,
  /// however large, so progress is guaranteed.
  std::size_t max_bytes_per_tick = 4 * 1024 * 1024;
  /// Quarantine on a torn tail too (default): on a live store a torn tail
  /// is a latched torn append, not a crash artifact, and the standby holds
  /// the complete log.
  bool quarantine_on_torn_tail = true;
  /// Registry for the per-stream wal.<stream>.scrub.{runs,frames,corrupt,
  /// repaired} counters; null = a registry the scrubber owns. Must outlive
  /// the scrubber.
  telemetry::MetricsRegistry* metrics = nullptr;
};

struct ScrubReport {
  std::string stream;
  ScrubVerdict verdict = ScrubVerdict::kClean;
  std::size_t frames = 0;         // frames verified in the valid prefix
  std::size_t bytes = 0;          // total log bytes read
  std::size_t damaged_bytes = 0;  // bytes past the valid prefix
};

class Scrubber {
 public:
  explicit Scrubber(const Clock& clock, ScrubberOptions options = {});

  /// Registers a log to scrub (replacing any previous target for the
  /// stream). `storage` (and `health`, when set) must outlive the scrubber.
  void add_target(ScrubTarget target);

  /// Verifies one stream immediately (no cadence or budget applied).
  /// NOT_FOUND for unknown streams; a read error quarantines and reports
  /// kCorrupt — an unreadable log cannot be trusted any more than a rotten
  /// one, and repair heals both the same way.
  Result<ScrubReport> scrub(const std::string& stream);

  /// Scrubs every target whose interval has elapsed, oldest-scrub first,
  /// within the byte budget. Returns the number of targets scrubbed. Call
  /// from a periodic event (simulation) or a timer thread (live).
  std::size_t tick();

  /// Repair completed for `stream`: bumps wal.<stream>.scrub.repaired (the
  /// repair recipe calls this so detection and healing share a series).
  void note_repaired(const std::string& stream);

 private:
  struct Target {
    ScrubTarget target;
    SimTime last_scrub = kSimTimeNever;
    /// wal.<stream>.scrub.*, resolved when the target is added.
    telemetry::Counter* runs = nullptr;
    telemetry::Counter* frames = nullptr;
    telemetry::Counter* corrupt = nullptr;
  };

  ScrubReport scrub_target(Target& entry);

  const Clock& clock_;
  ScrubberOptions options_;
  telemetry::RegistryRef metrics_;
  std::map<std::string, Target> targets_;
};

}  // namespace gae::storage
