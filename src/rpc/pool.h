// Per-endpoint pools of keep-alive TCP connections, so N in-flight RPC
// calls ride N sockets instead of serialising on one persistent stream
// (the fig-6 scaling axis: response time versus concurrent clients).
//
// The pool is transport-only: it dials, parks, health-checks and reaps
// sockets. Which endpoint to dial — breakers, failover order, leader
// hints — stays the caller's (RpcClient's) decision. Thread-safe; the
// checkout/checkin hot path takes one mutex but never holds it across
// connect() or any other syscall that can block on the network.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "common/clock.h"
#include "common/status.h"
#include "rpc/transport.h"
#include "telemetry/metrics.h"

namespace gae::rpc {

struct PoolOptions {
  /// Idle connections retained per endpoint; a checkin beyond this closes
  /// the socket instead of parking it.
  std::size_t max_idle = 8;
  /// Hard cap on live (idle + checked-out) connections per endpoint.
  /// Checkouts beyond it still dial — admission control bounds request
  /// concurrency, not the pool — but the connection is marked overflow and
  /// closed on checkin rather than parked.
  std::size_t max_size = 64;
  /// Idle connections older than this are reaped (closed) instead of
  /// reused; 0 disables reaping. Keep-alive peers and NAT boxes drop silent
  /// connections eventually — reaping first keeps checkout failures rare.
  int idle_timeout_ms = 30'000;
  /// Peek the socket on checkout: a pooled connection whose peer already
  /// closed (or that has unread bytes — a desynced exchange) is evicted
  /// instead of handed out.
  bool health_check = true;
  /// Time source for idle ages; null = a shared wall clock.
  const Clock* clock = nullptr;
  /// Byte transport the pool dials through; null = the process-wide TCP
  /// transport. The simulation harness injects its SimTransport here. Must
  /// outlive the pool.
  Transport* transport = nullptr;
  /// Registry for the pool's rpc.pool.{dials,reuses,health_evictions,
  /// idle_reaped,discards,overflow} counters and rpc.pool.idle gauge; null =
  /// a registry the pool owns. Must outlive the pool.
  telemetry::MetricsRegistry* metrics = nullptr;
};

class ConnectionPool {
 public:
  explicit ConnectionPool(PoolOptions options = {});

  /// A checked-out connection. Return it with checkin() after a clean
  /// exchange or discard() after any transport error; destroying it
  /// without either simply closes the socket (counted as a discard).
  struct Conn {
    std::unique_ptr<Stream> stream;
    /// True when the connection came off the idle list — a request that
    /// fails instantly on a reused connection may have raced the peer's
    /// keep-alive close, so callers treat that failure as retryable even
    /// for non-idempotent calls (no bytes reached a live server).
    bool reused = false;

   private:
    friend class ConnectionPool;
    std::string key;        // "host:port"
    bool overflow = false;  // dialled past max_size; never parked
  };

  /// Pops a healthy idle connection for host:port, or dials a new one.
  /// Errors surface the dial failure (the caller charges its breaker).
  Result<Conn> checkout(const std::string& host, std::uint16_t port);

  /// Parks a healthy connection for reuse (closed instead when the idle
  /// list is full or the connection was an overflow dial).
  void checkin(Conn conn);

  /// Closes a connection that failed mid-exchange; its slot is freed.
  void discard(Conn conn);

  /// Drops every idle connection (all endpoints). Checked-out connections
  /// are unaffected — they are closed on their eventual checkin/discard.
  void clear();

  /// Closes idle connections past the idle timeout. Runs opportunistically
  /// inside checkout/checkin too; exposed for deterministic tests.
  void reap_idle();

  std::size_t idle_count(const std::string& host, std::uint16_t port) const;
  /// Idle + checked-out connections for one endpoint.
  std::size_t live_count(const std::string& host, std::uint16_t port) const;

  /// The registry the pool counts into (injected or owned).
  telemetry::MetricsRegistry& metrics() const { return *metrics_; }

 private:
  struct IdleConn {
    std::unique_ptr<Stream> stream;
    SimTime parked_at = 0;
  };
  struct EndpointPool {
    std::deque<IdleConn> idle;      // most recently parked at the back
    std::size_t checked_out = 0;
  };

  void reap_idle_locked(SimTime now);

  PoolOptions options_;
  std::shared_ptr<Clock> owned_clock_;  // when no clock injected
  const Clock* clock_ = nullptr;
  Transport* transport_ = nullptr;

  telemetry::RegistryRef metrics_;
  telemetry::Counter& dials_;
  telemetry::Counter& reuses_;
  telemetry::Counter& health_evictions_;
  telemetry::Counter& idle_reaped_;
  telemetry::Counter& discards_;
  telemetry::Counter& overflow_;
  telemetry::Gauge& idle_gauge_;

  mutable std::mutex mutex_;
  std::map<std::string, EndpointPool> pools_;
  SimTime last_reap_ = 0;
};

}  // namespace gae::rpc
