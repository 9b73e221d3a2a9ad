// Always-on sharded TTL read cache for the jobmon read path (info / status
// / list). Promotes what used to be a brownout-only snapshot into the
// normal serving plane: monitoring reads are the paper's highest-volume
// traffic, dominated by dashboards polling the same handful of keys, and a
// short freshness bound turns that fan-out into one map lookup.
//
// Staleness is bounded three ways:
//   - every entry expires after ttl_ms (brownout_ttl_ms while the host is
//     browned out — load shedding tolerates older answers);
//   - the Job Information Collector invalidates a task's entries (and the
//     list) explicitly on every job-state transition, so transitions are
//     visible immediately, not after TTL;
//   - failover drops the whole cache (PromotionOptions::drop_caches) — a
//     newly promoted primary must not serve reads recorded under the old
//     primary's epoch.
//
// Thread-safe; keys hash across `shards` independent mutex+map shards so
// concurrent RPC workers do not serialise on one cache lock.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "rpc/value.h"
#include "telemetry/instrument.h"
#include "telemetry/metrics.h"

namespace gae::jobmon {

struct ReadCacheOptions {
  /// Freshness bound for normal serving; entries older than this miss.
  int ttl_ms = 250;
  /// Extended acceptance while the host is browned out: shedding load is
  /// worth serving older (still explicitly-invalidated) data.
  int brownout_ttl_ms = 2000;
  /// Independent mutex+map shards; keys hash across them.
  std::size_t shards = 8;
  /// Entry cap per shard; a full shard is swept of expired entries and, if
  /// still full, flushed (it is a cache — dropping is always correct).
  std::size_t max_entries_per_shard = 1024;
  /// Monotonic time source in µs; null = rpc::steady_now_us. Tests inject
  /// a manual one to step TTLs deterministically.
  std::function<std::int64_t()> now_us;
  /// Registry for the cache's jobmon.cache.{hits,misses,invalidations}
  /// counters and jobmon.cache.entries gauge; null = a registry the cache
  /// owns. Must outlive the cache.
  telemetry::MetricsRegistry* metrics = nullptr;
};

class ReadCache {
 public:
  explicit ReadCache(ReadCacheOptions options = {});

  /// The cached value for `key` if it is younger than the applicable TTL
  /// (brownout selects the extended bound). Expired entries are erased on
  /// the way out.
  std::optional<rpc::Value> get(const std::string& key, bool brownout = false);

  /// Inserts or refreshes `key`.
  void put(const std::string& key, rpc::Value value);

  void invalidate(const std::string& key);
  /// Drops every entry derived from one task: info/<id>, status/<id>, and
  /// the list (whose membership the transition may have changed).
  void invalidate_task(const std::string& task_id);
  /// Drops everything (failover: the epoch advanced under this cache).
  void invalidate_all();

  /// Key conventions shared with the RPC binding.
  static std::string info_key(const std::string& task_id) { return "info/" + task_id; }
  static std::string status_key(const std::string& task_id) {
    return "status/" + task_id;
  }
  static constexpr const char* kListKey = "list";

  std::size_t size() const;

 private:
  struct Entry {
    rpc::Value value;
    std::int64_t inserted_at_us = 0;
  };
  struct Shard {
    std::mutex mutex;
    std::unordered_map<std::string, Entry> entries;
  };

  Shard& shard_for(const std::string& key);

  ReadCacheOptions options_;
  std::vector<std::unique_ptr<Shard>> shards_;
  telemetry::RegistryRef metrics_;
  /// jobmon.cache.*; invalidations counts entries actually dropped.
  telemetry::CacheCounters counters_;
};

}  // namespace gae::jobmon
