#include "rpc/pool.h"

namespace gae::rpc {

namespace {

std::string endpoint_key(const std::string& host, std::uint16_t port) {
  return host + ":" + std::to_string(port);
}

}  // namespace

ConnectionPool::ConnectionPool(PoolOptions options)
    : options_(options),
      metrics_(options_.metrics),
      dials_(metrics_->counter("rpc.pool.dials")),
      reuses_(metrics_->counter("rpc.pool.reuses")),
      health_evictions_(metrics_->counter("rpc.pool.health_evictions")),
      idle_reaped_(metrics_->counter("rpc.pool.idle_reaped")),
      discards_(metrics_->counter("rpc.pool.discards")),
      overflow_(metrics_->counter("rpc.pool.overflow")),
      idle_gauge_(metrics_->gauge("rpc.pool.idle")) {
  if (options_.clock) {
    clock_ = options_.clock;
  } else {
    owned_clock_ = std::make_shared<WallClock>();
    clock_ = owned_clock_.get();
  }
  transport_ = options_.transport ? options_.transport : &tcp_transport();
}

Result<ConnectionPool::Conn> ConnectionPool::checkout(const std::string& host,
                                                      std::uint16_t port) {
  const std::string key = endpoint_key(host, port);
  const SimTime now = clock_->now();
  bool overflow = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    reap_idle_locked(now);
    EndpointPool& pool = pools_[key];
    // Most recently parked first: the freshest connection is the least
    // likely to have been closed by the peer's keep-alive timeout.
    while (!pool.idle.empty()) {
      IdleConn parked = std::move(pool.idle.back());
      pool.idle.pop_back();
      idle_gauge_.add(-1);
      if (options_.health_check && !parked.stream->healthy()) {
        health_evictions_.inc();
        continue;  // destructor closes the dead socket
      }
      ++pool.checked_out;
      reuses_.inc();
      Conn conn;
      conn.stream = std::move(parked.stream);
      conn.key = key;
      conn.reused = true;
      return conn;
    }
    if (pool.checked_out >= options_.max_size) {
      overflow = true;
      overflow_.inc();
    } else {
      ++pool.checked_out;  // reserve the slot before the unlocked dial
    }
  }

  auto stream = transport_->connect(host, port);
  if (!stream.is_ok()) {
    if (!overflow) {
      std::lock_guard<std::mutex> lock(mutex_);
      --pools_[key].checked_out;
    }
    return stream.status();
  }
  dials_.inc();
  Conn conn;
  conn.stream = std::move(stream).value();
  conn.stream->set_no_delay(true);
  conn.key = key;
  conn.overflow = overflow;
  return conn;
}

void ConnectionPool::checkin(Conn conn) {
  if (!conn.stream || !conn.stream->valid()) return;
  const SimTime now = clock_->now();
  std::lock_guard<std::mutex> lock(mutex_);
  EndpointPool& pool = pools_[conn.key];
  if (!conn.overflow && pool.checked_out > 0) --pool.checked_out;
  reap_idle_locked(now);
  if (conn.overflow || pool.idle.size() >= options_.max_idle) {
    discards_.inc();
    return;  // destructor closes it
  }
  pool.idle.push_back({std::move(conn.stream), now});
  idle_gauge_.add(1);
}

void ConnectionPool::discard(Conn conn) {
  std::lock_guard<std::mutex> lock(mutex_);
  EndpointPool& pool = pools_[conn.key];
  if (!conn.overflow && pool.checked_out > 0) --pool.checked_out;
  discards_.inc();
  // conn.stream closes as the argument goes out of scope.
}

void ConnectionPool::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [key, pool] : pools_) {
    idle_gauge_.add(-static_cast<std::int64_t>(pool.idle.size()));
    pool.idle.clear();
  }
}

void ConnectionPool::reap_idle() {
  std::lock_guard<std::mutex> lock(mutex_);
  reap_idle_locked(clock_->now());
}

void ConnectionPool::reap_idle_locked(SimTime now) {
  if (options_.idle_timeout_ms <= 0) return;
  // Bound the sweep rate: at most once per 1/4 timeout, so the hot path
  // usually pays one comparison.
  const SimTime cutoff_age = static_cast<SimTime>(options_.idle_timeout_ms) * 1000;
  if (last_reap_ != 0 && now - last_reap_ < cutoff_age / 4) return;
  last_reap_ = now;
  for (auto& [key, pool] : pools_) {
    while (!pool.idle.empty() && now - pool.idle.front().parked_at > cutoff_age) {
      pool.idle.pop_front();
      idle_reaped_.inc();
      idle_gauge_.add(-1);
    }
  }
}

std::size_t ConnectionPool::idle_count(const std::string& host, std::uint16_t port) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = pools_.find(endpoint_key(host, port));
  return it == pools_.end() ? 0 : it->second.idle.size();
}

std::size_t ConnectionPool::live_count(const std::string& host, std::uint16_t port) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = pools_.find(endpoint_key(host, port));
  return it == pools_.end() ? 0 : it->second.idle.size() + it->second.checked_out;
}

}  // namespace gae::rpc
