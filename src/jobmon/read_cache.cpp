#include "jobmon/read_cache.h"

#include "rpc/deadline.h"

namespace gae::jobmon {

ReadCache::ReadCache(ReadCacheOptions options)
    : options_(std::move(options)),
      metrics_(options_.metrics),
      counters_(*metrics_, "jobmon.cache") {
  if (options_.shards == 0) options_.shards = 1;
  if (!options_.now_us) options_.now_us = [] { return rpc::steady_now_us(); };
  shards_.reserve(options_.shards);
  for (std::size_t i = 0; i < options_.shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

ReadCache::Shard& ReadCache::shard_for(const std::string& key) {
  return *shards_[std::hash<std::string>{}(key) % shards_.size()];
}

std::optional<rpc::Value> ReadCache::get(const std::string& key, bool brownout) {
  const std::int64_t ttl_us =
      static_cast<std::int64_t>(brownout ? options_.brownout_ttl_ms : options_.ttl_ms) *
      1000;
  const std::int64_t now = options_.now_us();
  Shard& shard = shard_for(key);
  {
    std::lock_guard<std::mutex> lock(shard.mutex);
    auto it = shard.entries.find(key);
    if (it != shard.entries.end()) {
      if (now - it->second.inserted_at_us <= ttl_us) {
        counters_.hits.inc();
        return it->second.value;
      }
      // Expired under the applicable bound; erase so the shard never fills
      // with dead entries between sweeps.
      shard.entries.erase(it);
      counters_.entries.add(-1);
    }
  }
  counters_.misses.inc();
  return std::nullopt;
}

void ReadCache::put(const std::string& key, rpc::Value value) {
  const std::int64_t now = options_.now_us();
  Shard& shard = shard_for(key);
  std::lock_guard<std::mutex> lock(shard.mutex);
  auto it = shard.entries.find(key);
  if (it != shard.entries.end()) {
    it->second = {std::move(value), now};
    return;
  }
  if (shard.entries.size() >= options_.max_entries_per_shard) {
    // Sweep expired entries first; if the shard is full of live ones, flush
    // it — a cache may always forget, and a full flush is cheaper than
    // tracking recency on the hot path.
    const std::int64_t ttl_us = static_cast<std::int64_t>(options_.ttl_ms) * 1000;
    std::size_t dropped = 0;
    for (auto e = shard.entries.begin(); e != shard.entries.end();) {
      if (now - e->second.inserted_at_us > ttl_us) {
        e = shard.entries.erase(e);
        ++dropped;
      } else {
        ++e;
      }
    }
    if (shard.entries.size() >= options_.max_entries_per_shard) {
      dropped += shard.entries.size();
      shard.entries.clear();
    }
    counters_.entries.add(-static_cast<std::int64_t>(dropped));
  }
  shard.entries.emplace(key, Entry{std::move(value), now});
  counters_.entries.add(1);
}

void ReadCache::invalidate(const std::string& key) {
  Shard& shard = shard_for(key);
  std::lock_guard<std::mutex> lock(shard.mutex);
  if (shard.entries.erase(key) > 0) {
    counters_.invalidations.inc();
    counters_.entries.add(-1);
  }
}

void ReadCache::invalidate_task(const std::string& task_id) {
  invalidate(info_key(task_id));
  invalidate(status_key(task_id));
  invalidate(kListKey);
}

void ReadCache::invalidate_all() {
  std::size_t dropped = 0;
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    dropped += shard->entries.size();
    shard->entries.clear();
  }
  if (dropped > 0) {
    counters_.invalidations.inc(dropped);
    counters_.entries.add(-static_cast<std::int64_t>(dropped));
  }
}

std::size_t ReadCache::size() const {
  std::size_t total = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    total += shard->entries.size();
  }
  return total;
}

}  // namespace gae::jobmon
