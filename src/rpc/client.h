// Blocking RPC client with per-endpoint connection pools, per-call
// deadlines, retry with deterministic backoff, per-endpoint circuit
// breakers, and an ordered failover endpoint list.
//
// Thread-safe: concurrent call() invocations each check a keep-alive
// connection out of the pool and ride their own socket, so N in-flight
// calls use N connections instead of serialising on one stream (the fig-6
// scaling axis). Endpoint/breaker bookkeeping is guarded by one internal
// mutex that is never held across network I/O.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/admission.h"
#include "common/clock.h"
#include "common/retry.h"
#include "common/status.h"
#include "rpc/pool.h"
#include "rpc/value.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"

namespace gae::rpc {

enum class Protocol { kXmlRpc, kJsonRpc };

/// One server address; clients take an ordered failover list of these.
struct Endpoint {
  std::string host;
  std::uint16_t port = 0;
};

/// Per-call knobs. The deadline covers the whole call including retries and
/// backoff sleeps; it is enforced on the wire via the socket receive timeout.
struct CallOptions {
  /// Whole-call budget in wall milliseconds; 0 = none. Rides the
  /// x-gae-deadline header as *remaining* milliseconds per attempt, so the
  /// server can refuse work whose caller has already given up. Inside a
  /// server handler the effective budget is additionally clamped to the
  /// thread's ambient deadline (rpc/deadline.h) — a downstream hop never
  /// gets more budget than is left of the upstream call.
  int deadline_ms = 0;
  /// Retry schedule for retryable transport errors (UNAVAILABLE,
  /// DEADLINE_EXCEEDED, RESOURCE_EXHAUSTED). RPC faults from a live server
  /// are never retried — the server answered. When retry.budget is set,
  /// each retry additionally needs a budget token (storm suppression).
  RetryPolicy retry;
  /// When false, an error after request bytes may have reached the server
  /// is returned as UNAVAILABLE instead of retried: the call might already
  /// have executed, and re-sending would double-apply it.
  bool idempotent = true;
  /// Criticality stamped on the x-gae-tier header; overloaded servers shed
  /// the least critical tiers first.
  Criticality tier = Criticality::kStatus;
};

/// One embedded request of a multi-call batch (rpc.batch / call_many).
struct BatchItem {
  std::string method;
  Array params;
  /// Per-item criticality; the batch rides the wire at the criticality of
  /// its most critical item.
  Criticality tier = Criticality::kStatus;
};

/// Client construction knobs.
struct ClientOptions {
  /// Applied by the two-argument call().
  CallOptions default_call;
  /// Breaker config shared by every endpoint (each endpoint gets its own
  /// breaker instance).
  CircuitBreakerOptions breaker;
  /// Connection-pool sizing for the client's own pool (ignored when
  /// shared_pool is set).
  PoolOptions pool;
  /// Share one pool between clients (e.g. every client of one process):
  /// pooled connections are keyed by endpoint, so clients talking to the
  /// same service reuse each other's sockets. Null = the client owns a
  /// private pool built from `pool`.
  std::shared_ptr<ConnectionPool> shared_pool;
  /// Time source for deadlines and the breakers; null = a shared wall clock.
  /// Inject a ManualClock for virtual-time breaker tests.
  const Clock* clock = nullptr;
  /// Byte transport for the client's own pool (ignored when shared_pool is
  /// set — a shared pool brings its own); null = the process-wide TCP
  /// transport. Must outlive the client.
  Transport* transport = nullptr;
  /// Backoff sleeper; null = real sleep. Tests inject a recorder.
  std::function<void(int ms)> sleep_ms;
  /// Re-resolves the failover list (typically from the Clarens registry).
  /// Invoked lazily on the next call after any endpoint's breaker opens, so
  /// traffic drains away from dead services toward freshly discovered ones
  /// without manual reconfiguration. Returning an empty list keeps the
  /// current endpoints. Breaker state is preserved for endpoints that
  /// survive the refresh.
  std::function<std::vector<Endpoint>()> resolve_endpoints;
  /// Observes every per-endpoint breaker state change (callers publish these
  /// to MonALISA). Runs inside the call path under the client's bookkeeping
  /// lock — keep it cheap and never call back into this client.
  std::function<void(const Endpoint&, CircuitBreaker::State from,
                     CircuitBreaker::State to)>
      on_breaker_transition;
  /// Registry for the client's counters; null = a registry the client owns.
  /// It holds the rpc.client.* totals (calls, attempts, failed_calls, ...)
  /// and per-endpoint rpc.client.<host:port>.{attempts,retries,
  /// breaker_transitions,breaker_open}; a private pool counts its rpc.pool.*
  /// here too. Must outlive the client.
  telemetry::MetricsRegistry* metrics = nullptr;
  /// When set, every call records one "client" span (child of the ambient
  /// thread context) to this tracer. Trace context is injected on the wire
  /// regardless — a tracer-less client still propagates the ambient triple,
  /// it just records no hop of its own. Must outlive the client.
  telemetry::Tracer* tracer = nullptr;
  /// Service name stamped on client spans.
  std::string trace_service = "rpc-client";
};

class RpcClient {
 public:
  RpcClient(std::string host, std::uint16_t port, Protocol protocol = Protocol::kXmlRpc);

  /// Failover list: endpoints are tried in order starting from the last
  /// endpoint a call succeeded on (sticky), skipping those whose breaker is
  /// open. Stickiness keeps a flapping earlier endpoint from stealing
  /// traffic back from a healthy failover target mid-burst; traffic only
  /// moves when the current endpoint fails or its breaker opens.
  RpcClient(std::vector<Endpoint> endpoints, Protocol protocol,
            ClientOptions options = {});

  /// Session token sent as x-clarens-session on every call ("" = none).
  /// Not synchronised with in-flight calls — set it before sharing the
  /// client across threads.
  void set_session_token(std::string token) { session_token_ = std::move(token); }
  const std::string& session_token() const { return session_token_; }

  /// Invokes `method` with the client's default CallOptions. RPC faults come
  /// back as the originating StatusCode; transport failures as UNAVAILABLE;
  /// an exhausted deadline budget as DEADLINE_EXCEEDED.
  Result<Value> call(const std::string& method, const Array& params = {});

  /// Invokes `method` with explicit per-call options.
  Result<Value> call(const std::string& method, const Array& params,
                     const CallOptions& options);

  /// Coalesces the items into one rpc.batch round trip (one wire exchange,
  /// one server admission ticket at the criticality of the most critical
  /// item) and returns one Result per item, in order. Single-item batches
  /// degrade to a plain call; a server without rpc.batch (NOT_FOUND) is
  /// retried item-by-item so old peers keep working. A transport failure of
  /// the batch itself is reported against every item.
  std::vector<Result<Value>> call_many(const std::vector<BatchItem>& items);
  std::vector<Result<Value>> call_many(const std::vector<BatchItem>& items,
                                       const CallOptions& options);

  /// Drops every pooled idle connection (in-flight calls keep theirs; the
  /// next call dials fresh).
  void disconnect();

  /// The registry the client counts into (injected or owned).
  telemetry::MetricsRegistry& metrics() const { return *metrics_; }

  /// Breaker state for endpoint `index` (construction order).
  CircuitBreaker::State breaker_state(std::size_t index) const;
  std::size_t endpoint_count() const;
  Endpoint endpoint(std::size_t index) const;

  /// Replaces the failover list now (what resolve_endpoints does lazily).
  /// Endpoints present in both lists keep their breaker state; an empty
  /// list is ignored.
  void set_endpoints(std::vector<Endpoint> endpoints);

  /// The connection pool behind this client (shared or private).
  ConnectionPool& pool() { return *pool_; }

 private:
  /// Pre-resolved rpc.client.<host:port>.* counter handles for one endpoint,
  /// armed when the endpoint list is (re)built so the call hot path records
  /// without building metric names or taking registry locks.
  struct EndpointCounters {
    telemetry::Counter* attempts = nullptr;
    telemetry::Counter* retries = nullptr;
    telemetry::Counter* breaker_transitions = nullptr;
    telemetry::Counter* breaker_open = nullptr;
  };

  /// The client-wide rpc.client.<name> totals, resolved at construction.
  /// None ends in ".retries": retries are counted per endpoint only, and
  /// readers sum rpc.client.*.retries.
  struct Totals {
    explicit Totals(telemetry::MetricsRegistry& metrics);
    telemetry::Counter& calls;
    telemetry::Counter& attempts;
    /// Attempts served by an endpoint other than the first in the list.
    telemetry::Counter& failovers;
    telemetry::Counter& deadline_exceeded;
    /// Attempts rejected locally because every endpoint's breaker was open.
    telemetry::Counter& breaker_rejections;
    /// Calls that exhausted all attempts (or were non-retryable).
    telemetry::Counter& failed_calls;
    /// Times the endpoint list was refreshed via resolve_endpoints.
    telemetry::Counter& reresolves;
    /// Retries suppressed because the shared RetryBudget was out of tokens.
    telemetry::Counter& retry_budget_exhausted;
    /// 503 responses (the server shed the request under admission control).
    telemetry::Counter& shed_rejections;
    /// NOT_PRIMARY faults whose "leader=host:port" hint was followed.
    telemetry::Counter& not_primary_redirects;
    /// Batches coalesced by call_many (items ride in batched_items).
    telemetry::Counter& batches;
    telemetry::Counter& batched_items;
  };

  /// A checked-out connection plus the endpoint it belongs to.
  struct Checkout {
    ConnectionPool::Conn conn;
    std::size_t index = 0;
    EndpointCounters counters;
  };

  /// Bumps the given cached counter for endpoint `index`. Caller holds
  /// mutex_.
  void count_endpoint(std::size_t index, telemetry::Counter* EndpointCounters::*what);
  /// Rebuilds endpoint_counters_ to mirror endpoints_. Caller holds mutex_.
  void arm_endpoint_counters();
  void arm_breaker_listener(CircuitBreaker& breaker, std::size_t index);
  std::unique_ptr<CircuitBreaker> make_breaker(std::size_t index);
  void set_endpoints_locked(std::vector<Endpoint> endpoints);
  /// Runs resolve_endpoints when a breaker opened since the last call.
  /// Caller must NOT hold mutex_ (the resolver may block on the registry).
  void maybe_re_resolve();
  /// One wire attempt. Sets `wrote_request` once request bytes may have
  /// reached the server (the non-idempotent retry guard keys off this);
  /// `attempt_index` reports the endpoint the attempt is charged to, as
  /// acquire_connection sets it.
  Result<Value> call_attempt(const std::string& method, const Array& params,
                             SimTime deadline, Criticality tier, bool& wrote_request,
                             std::size_t& attempt_index);

  /// Checks a connection out for the earliest endpoint in sticky walk order
  /// (starting at preferred_endpoint_) whose breaker admits the call.
  /// UNAVAILABLE when every endpoint is open or unreachable. `index` ends at
  /// the endpoint checked out or, on failure, the last one whose dial failed
  /// (the walk's first endpoint when every breaker rejected).
  Result<Checkout> acquire_connection(std::size_t& index);

  const Clock& clock() const { return *clock_ptr_; }
  /// Milliseconds until `deadline` (<= 0 means exhausted); deadline 0 = none.
  int remaining_ms(SimTime deadline) const;

  Protocol protocol_;
  ClientOptions options_;
  std::shared_ptr<Clock> owned_clock_;  // when no clock injected
  const Clock* clock_ptr_ = nullptr;
  telemetry::RegistryRef metrics_;  // declared before pool_: a private pool counts here
  Totals totals_;
  std::shared_ptr<ConnectionPool> pool_;
  std::string session_token_;
  std::atomic<std::int64_t> next_id_{1};

  /// Guards every member below. Never held across connect/send/recv.
  mutable std::mutex mutex_;
  std::vector<Endpoint> endpoints_;
  std::vector<std::unique_ptr<CircuitBreaker>> breakers_;
  std::vector<EndpointCounters> endpoint_counters_;  // parallel to endpoints_
  bool needs_resolve_ = false;
  /// Where the failover walk starts: the endpoint of the last successful
  /// attempt (the sticky-endpoint fix — previously every reconnect walked
  /// from index 0 and a flapping primary stole traffic back mid-burst).
  std::size_t preferred_endpoint_ = 0;
};

}  // namespace gae::rpc
