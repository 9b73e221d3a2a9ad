// RPC server: accepts TCP connections, frames HTTP, decodes XML-RPC or
// JSON-RPC by content type, and dispatches to a registered handler set.
//
// Concurrency model: one acceptor thread plus a fixed worker pool; each live
// connection occupies a worker for its keep-alive duration. This mirrors the
// JClarens servlet-container deployment the paper benchmarked in fig. 6 —
// response time stays flat until concurrent clients exceed the worker count,
// then grows as connections queue. The per-request loop body itself
// (RequestEngine) is the same one dst::SimHost drives under simulation.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/admission.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "rpc/http.h"
#include "rpc/transport.h"
#include "rpc/value.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"

namespace gae::rpc {

/// Per-call metadata available to handlers.
struct CallContext {
  /// Value of the x-clarens-session header ("" when absent).
  std::string session_token;
  /// "xmlrpc", "jsonrpc" or "local".
  std::string protocol;
  /// Propagated trace triple off the wire (x-gae-trace header). "" = none.
  std::string trace;
  /// Absolute steady-clock deadline (µs, per rpc/deadline.h) for this call;
  /// 0 = none. Derived from the x-gae-deadline header. dispatch() rejects
  /// already-expired work before the handler runs, and installs the rest as
  /// the handler thread's ambient deadline so downstream client calls
  /// inherit what is left of the budget.
  std::int64_t deadline_us = 0;
  /// Criticality off the x-gae-tier header; absent defaults to kStatus.
  Criticality tier = Criticality::kStatus;
};

/// A method implementation. Return a Status error to send an RPC fault.
using Method = std::function<Result<Value>(const Array& params, const CallContext& ctx)>;

/// Routes calls to methods; shared by the live server and the in-process
/// transport used under simulation.
class Dispatcher {
 public:
  /// Registers `name` (e.g. "jobmon.status"). Last registration wins.
  void register_method(const std::string& name, Method method);

  bool has_method(const std::string& name) const;
  std::vector<std::string> method_names() const;

  /// Invokes a method; NOT_FOUND for unknown names, INVALID_ARGUMENT when a
  /// handler throws (bad parameter shapes).
  Result<Value> dispatch(const std::string& method, const Array& params,
                         const CallContext& ctx) const;

  /// Middleware: runs before every dispatch; an error short-circuits.
  using Interceptor = std::function<Status(const std::string& method, const CallContext& ctx)>;
  void add_interceptor(Interceptor interceptor);

  /// Registers the "rpc.batch" multi-call method: params = [[{method,
  /// params}, ...]], result = one {ok, result | code+message} struct per
  /// item, in order. The batch rides one wire exchange and one admission
  /// ticket (the client stamps the x-gae-tier header with the most critical
  /// item's tier); each item then dispatches through the normal pipeline —
  /// interceptors, per-method metrics, and a per-item server span chained to
  /// the batch's span. Items past `max_items` are refused, as is a nested
  /// rpc.batch. The call's remaining deadline applies to every item, so
  /// items after the budget runs out are pre-rejected, not silently skipped.
  void enable_batch(std::size_t max_items = 64);

  /// Arms telemetry on every dispatch, whichever transport it arrives by
  /// (TCP worker or in-process call): a "server" span per request — child of
  /// the wire context in ctx.trace, or of the ambient span for in-process
  /// hops — plus per-method rpc.server.<method>.{calls,errors,in_flight,
  /// latency_us} metrics. Either pointer may be null; both must outlive the
  /// dispatcher.
  void set_telemetry(telemetry::MetricsRegistry* metrics, telemetry::Tracer* tracer,
                     std::string service_name);

 private:
  /// A registered method plus its pre-resolved metric handles. Handles are
  /// resolved once (at registration or set_telemetry, whichever comes last)
  /// so the dispatch hot path records without building metric names or
  /// taking registry locks.
  struct MethodEntry {
    Method fn;
    telemetry::Counter* calls = nullptr;
    telemetry::Counter* errors = nullptr;
    telemetry::Counter* deadline_expired = nullptr;
    telemetry::Gauge* in_flight = nullptr;
    telemetry::Histogram* latency = nullptr;
  };

  void arm_method_metrics(const std::string& name, MethodEntry& entry);

  std::map<std::string, MethodEntry> methods_;
  std::vector<Interceptor> interceptors_;
  telemetry::MetricsRegistry* metrics_ = nullptr;
  telemetry::Tracer* tracer_ = nullptr;
  std::string service_name_ = "rpc";
};

/// Converts service Status codes to wire fault codes and back, so a client
/// sees the same StatusCode the handler returned.
int status_to_fault_code(StatusCode code);
StatusCode fault_code_to_status(int fault_code);

/// Settings every served connection runs under, whichever host accepted it
/// (RpcServer over a Transport, dst::SimHost over the simulated network).
struct ConnectionOptions {
  /// Per-connection receive timeout: a connection that stays silent this
  /// long (slowloris, wedged peer) is closed and its worker freed. 0
  /// disables — workers then block on silent peers forever.
  int recv_timeout_ms = 30'000;
  /// Request framing caps (oversized peers get a 400 + close).
  std::size_t max_header_bytes = 1u << 20;
  std::size_t max_body_bytes = 64u << 20;
  /// When set, the engine counts rpc.server.{bad_requests,
  /// connections_timed_out} and, with admission, rpc.server.{requests_shed,
  /// queue_shed} and the rpc.server.{admission_limit,brownout} gauges;
  /// RpcServer adds its acceptor gauges. Per-method metrics live on the
  /// Dispatcher (set_telemetry). Must outlive the host.
  telemetry::MetricsRegistry* metrics = nullptr;
  /// Adaptive per-request admission control. When set, every request must
  /// take a ticket from the controller before its body is decoded; refused
  /// requests get a well-formed 503 fault in the request's own protocol
  /// (clients classify it RESOURCE_EXHAUSTED and retry with backoff) instead
  /// of a silently dropped connection. The CoDel queue bound also engages: a
  /// connection whose first request was picked up too long after the accept
  /// is answered with a 503 and closed. Must outlive the host.
  AdmissionController* admission = nullptr;
};

/// What the engine remembers about one connection between its requests.
struct ConnectionState {
  /// Steady instant (rpc/deadline.h) the connection was accepted. The first
  /// request pays the wait since then against its deadline budget and the
  /// CoDel queue bound.
  std::int64_t accepted_at_us = 0;
  bool first_request = true;
};

/// The one server-side request loop body: read one request, admit it,
/// dispatch it and write the answer. RpcServer runs it in a loop on a worker
/// thread; dst::SimHost runs it from the simulated network's delivery
/// callback while bytes are buffered. Thread-safe across connections.
class RequestEngine {
 public:
  RequestEngine(std::shared_ptr<Dispatcher> dispatcher, ConnectionOptions options);

  /// Applies the receive timeout and no-delay to a freshly accepted stream.
  void open(Stream& stream) const;

  /// Serves one request. False once the connection is done — EOF, receive
  /// timeout, framing error (answered with a 400), CoDel shed, write failure
  /// or Connection: close — and the caller should close it.
  bool serve_one(Stream& stream, ConnectionState& conn);

  /// Requests answered, admission sheds included.
  std::uint64_t requests_served() const { return requests_.load(); }
  /// Requests refused by the admission controller (ticket and CoDel sheds).
  std::uint64_t requests_shed() const { return shed_.load(); }
  /// Connections closed because the peer went silent past recv_timeout_ms.
  std::uint64_t connections_timed_out() const { return timeouts_.load(); }

 private:
  void read_failed(Stream& stream, const Status& status);

  std::shared_ptr<Dispatcher> dispatcher_;
  ConnectionOptions options_;
  std::atomic<std::uint64_t> requests_{0};
  std::atomic<std::uint64_t> shed_{0};
  std::atomic<std::uint64_t> timeouts_{0};
  /// Pre-resolved admission telemetry (armed when both metrics and admission
  /// are configured) so the shed path never builds names.
  telemetry::Counter* shed_counter_ = nullptr;
  telemetry::Counter* queue_shed_counter_ = nullptr;
  telemetry::Gauge* admission_limit_gauge_ = nullptr;
  telemetry::Gauge* brownout_gauge_ = nullptr;
};

struct ServerOptions {
  std::uint16_t port = 0;  // 0 = ephemeral
  std::size_t num_workers = 8;
  /// Connections admitted concurrently (accepted but not yet finished);
  /// excess connections are closed at accept. 0 = 2 * num_workers. The outer
  /// backstop behind connection.admission.
  std::size_t max_in_flight = 0;
  /// Byte transport to listen on; null = the process-wide TCP transport.
  /// Must outlive the server.
  Transport* transport = nullptr;
  /// Per-connection settings. With connection.metrics set the server also
  /// keeps rpc.server.queue_depth (worker-pool backlog) and
  /// rpc.server.connections gauges current and counts
  /// rpc.server.connections_rejected.
  ConnectionOptions connection{};
};

class RpcServer {
 public:
  RpcServer(std::shared_ptr<Dispatcher> dispatcher, ServerOptions options);
  ~RpcServer();

  RpcServer(const RpcServer&) = delete;
  RpcServer& operator=(const RpcServer&) = delete;

  /// Binds and starts the acceptor; returns the bound port.
  Result<std::uint16_t> start();

  /// Stops accepting and joins all threads. Idempotent.
  void stop();

  std::uint16_t port() const { return port_; }

  /// Total requests served (all connections).
  std::uint64_t requests_served() const { return engine_.requests_served(); }

  /// Connections dropped at accept because max_in_flight was reached.
  std::uint64_t connections_rejected() const { return rejected_.load(); }

  /// Connections closed because the peer went silent past recv_timeout_ms.
  std::uint64_t connections_timed_out() const { return engine_.connections_timed_out(); }

  /// Requests refused by the admission controller (per-request 503 sheds,
  /// including CoDel queue sheds). 0 unless connection.admission is set.
  std::uint64_t requests_shed() const { return engine_.requests_shed(); }

 private:
  void accept_loop();
  void serve_connection(Stream& stream, std::int64_t accepted_at_us);

  /// Live-connection registry so stop() can unblock workers parked in recv
  /// on kept-alive connections.
  void register_connection(Stream* stream);
  void unregister_connection(Stream* stream);

  ServerOptions options_;
  RequestEngine engine_;
  std::unique_ptr<Listener> listener_;
  std::unique_ptr<ThreadPool> pool_;
  std::thread acceptor_;
  std::atomic<bool> running_{false};
  std::atomic<std::uint64_t> rejected_{0};
  std::atomic<std::size_t> in_flight_{0};
  std::uint16_t port_ = 0;
  std::mutex conns_mutex_;
  std::set<Stream*> active_conns_;
};

}  // namespace gae::rpc
