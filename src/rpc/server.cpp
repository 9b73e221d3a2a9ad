#include "rpc/server.h"

#include <chrono>
#include <optional>
#include <stdexcept>
#include <utility>

#include "common/log.h"
#include "rpc/deadline.h"
#include "rpc/jsonrpc.h"
#include "rpc/xmlrpc.h"

namespace gae::rpc {

void Dispatcher::register_method(const std::string& name, Method method) {
  MethodEntry& entry = methods_[name];
  entry.fn = std::move(method);
  arm_method_metrics(name, entry);
}

void Dispatcher::arm_method_metrics(const std::string& name, MethodEntry& entry) {
  if (!metrics_) return;
  entry.calls = &metrics_->counter("rpc.server." + name + ".calls");
  entry.errors = &metrics_->counter("rpc.server." + name + ".errors");
  entry.deadline_expired = &metrics_->counter("rpc.server." + name + ".deadline_expired");
  entry.in_flight = &metrics_->gauge("rpc.server." + name + ".in_flight");
  entry.latency = &metrics_->histogram("rpc.server." + name + ".latency_us");
}

bool Dispatcher::has_method(const std::string& name) const {
  return methods_.count(name) != 0;
}

std::vector<std::string> Dispatcher::method_names() const {
  std::vector<std::string> names;
  names.reserve(methods_.size());
  for (const auto& [name, _] : methods_) names.push_back(name);
  return names;
}

void Dispatcher::add_interceptor(Interceptor interceptor) {
  interceptors_.push_back(std::move(interceptor));
}

void Dispatcher::enable_batch(std::size_t max_items) {
  register_method(
      "rpc.batch",
      [this, max_items](const Array& params, const CallContext& ctx) -> Result<Value> {
        if (params.size() != 1 || !params[0].is_array()) {
          return invalid_argument_error(
              "rpc.batch expects one array parameter of embedded calls");
        }
        const Array& items = params[0].as_array();
        if (items.size() > max_items) {
          return invalid_argument_error("rpc.batch accepts at most " +
                                        std::to_string(max_items) + " items, got " +
                                        std::to_string(items.size()));
        }
        // Sub-calls reuse the batch's context — session, tier, and crucially
        // deadline_us, so items dispatched after the caller's budget ran out
        // are pre-rejected per item — but clear the wire trace: each item's
        // server span should chain to the batch's own (now ambient) span,
        // not re-parent to the remote client context.
        CallContext sub = ctx;
        sub.trace.clear();
        Array out;
        out.reserve(items.size());
        for (const Value& item : items) {
          auto one = [&]() -> Result<Value> {
            try {
              if (!item.is_struct()) {
                return invalid_argument_error("batch item must be a struct");
              }
              const std::string method = item.get_string("method", "");
              if (method.empty()) {
                return invalid_argument_error("batch item lacks a method");
              }
              if (method == "rpc.batch") {
                // One level only: nesting would let a single admission
                // ticket cover max_items^depth dispatches.
                return invalid_argument_error("nested rpc.batch is not allowed");
              }
              Array sub_params;
              if (item.has("params")) sub_params = item.at("params").as_array();
              return dispatch(method, sub_params, sub);
            } catch (const std::exception& e) {
              return invalid_argument_error(std::string("malformed batch item: ") +
                                            e.what());
            }
          }();
          // Per-item status: one failed item never poisons its siblings.
          Struct entry;
          if (one.is_ok()) {
            entry["ok"] = true;
            entry["result"] = std::move(one).value();
          } else {
            entry["ok"] = false;
            entry["code"] = status_to_fault_code(one.status().code());
            entry["message"] = one.status().message();
          }
          out.push_back(Value(std::move(entry)));
        }
        return Value(std::move(out));
      });
}

void Dispatcher::set_telemetry(telemetry::MetricsRegistry* metrics,
                               telemetry::Tracer* tracer, std::string service_name) {
  metrics_ = metrics;
  tracer_ = tracer;
  service_name_ = std::move(service_name);
  for (auto& [name, entry] : methods_) arm_method_metrics(name, entry);
}

Result<Value> Dispatcher::dispatch(const std::string& method, const Array& params,
                                   const CallContext& ctx) const {
  // Span first so interceptor rejections (auth, ACL) are traced and timed
  // like any other outcome. The remote parent comes off the wire; for
  // in-process hops ctx.trace is empty and the span chains to the ambient
  // thread-local context instead.
  std::optional<telemetry::ScopedSpan> span;
  if (tracer_ || metrics_) {
    span.emplace(tracer_, service_name_, method, "server",
                 telemetry::parse_trace(ctx.trace));
  }
  const auto it = methods_.find(method);
  const MethodEntry* entry = it == methods_.end() ? nullptr : &it->second;
  if (entry && entry->calls) {
    entry->calls->inc();
    entry->in_flight->add(1);
  }
  // Decrement by RAII: a handler that throws something other than
  // std::exception unwinds straight through the dispatch body below, and the
  // gauge must not stay stuck high when it does.
  struct InFlightGuard {
    telemetry::Gauge* gauge;
    ~InFlightGuard() {
      if (gauge) gauge->add(-1);
    }
  } in_flight_guard{entry && entry->calls ? entry->in_flight : nullptr};

  auto result = [&]() -> Result<Value> {
    if (!entry) return not_found_error("no such method: " + method);
    // Deadline plane: work whose whole-call budget is already spent is
    // refused before interceptors or the handler run — the caller has given
    // up on the answer, and computing it anyway deepens the overload.
    if (ctx.deadline_us != 0 && steady_now_us() >= ctx.deadline_us) {
      if (entry->deadline_expired) entry->deadline_expired->inc();
      return deadline_exceeded_error("deadline expired before dispatch of " + method);
    }
    // Whatever budget remains becomes the thread's ambient deadline, so
    // downstream RpcClient calls the handler makes forward only what is
    // left of it (minus the time spent here) on their own wire headers.
    DeadlineScope deadline_scope(ctx.deadline_us);
    for (const auto& interceptor : interceptors_) {
      const Status s = interceptor(method, ctx);
      if (!s.is_ok()) return s;
    }
    try {
      return entry->fn(params, ctx);
    } catch (const std::exception& e) {
      return invalid_argument_error(std::string("handler error in ") + method + ": " +
                                    e.what());
    }
  }();

  if (entry && entry->calls) {
    // The span (engaged whenever metrics are) already timed this dispatch.
    entry->latency->record(static_cast<std::uint64_t>(span->elapsed_us()));
    if (!result.is_ok()) entry->errors->inc();
  }
  if (span && !result.is_ok()) span->set_status(result.status().code());
  return result;
}

int status_to_fault_code(StatusCode code) { return 100 + static_cast<int>(code); }

StatusCode fault_code_to_status(int fault_code) {
  const int raw = fault_code - 100;
  if (raw < 0 || raw > static_cast<int>(StatusCode::kNotPrimary)) return StatusCode::kInternal;
  return static_cast<StatusCode>(raw);
}

// The transport-independent steps between "one framed HTTP request" and "one
// framed HTTP response", private to RequestEngine.
namespace {

/// True when the request's content type selects the JSON-RPC codec.
bool rpc_request_is_json(const http::Request& req) {
  return req.header("content-type", "text/xml").find("json") != std::string::npos;
}

/// Builds the per-call context from the request's transport fields.
/// `queue_delay_us` is charged against the arriving deadline budget.
CallContext rpc_context_from_request(const http::Request& req, std::int64_t picked_up_us,
                                     std::int64_t queue_delay_us) {
  CallContext ctx;
  ctx.session_token = req.header("x-clarens-session");
  ctx.protocol = rpc_request_is_json(req) ? "jsonrpc" : "xmlrpc";
  // Trace context rides the x-gae-trace header.
  ctx.trace = req.trace;
  ctx.tier = criticality_from_wire(req.tier);
  // Deadline off the wire: remaining milliseconds at client send time, minus
  // whatever time the request already spent queued before being served.
  if (req.deadline_ms >= 0) {
    const std::int64_t budget_us =
        static_cast<std::int64_t>(req.deadline_ms) * 1000 - queue_delay_us;
    ctx.deadline_us = picked_up_us + (budget_us > 0 ? budget_us : 0);
  }
  return ctx;
}

/// Decodes the body, dispatches through `dispatch` (invoked at most once, for
/// a well-formed call) and encodes the reply, faults included.
http::Response rpc_dispatch_request(
    const http::Request& req, const CallContext& ctx,
    const std::function<Result<Value>(const std::string& method, const Array& params,
                                      const CallContext& ctx)>& dispatch) {
  const bool is_json = rpc_request_is_json(req);
  http::Response resp;
  resp.headers["content-type"] = is_json ? "application/json" : "text/xml";
  if (is_json) {
    auto call = jsonrpc::decode_call(req.body);
    if (!call.is_ok()) {
      resp.body = jsonrpc::encode_fault(status_to_fault_code(call.status().code()),
                                        call.status().message(), 0);
    } else {
      auto result = dispatch(call.value().method, call.value().params, ctx);
      resp.body = result.is_ok()
                      ? jsonrpc::encode_response(result.value(), call.value().id)
                      : jsonrpc::encode_fault(status_to_fault_code(result.status().code()),
                                              result.status().message(), call.value().id);
    }
  } else {
    auto call = xmlrpc::decode_call(req.body);
    if (!call.is_ok()) {
      resp.body = xmlrpc::encode_fault(status_to_fault_code(call.status().code()),
                                       call.status().message());
    } else {
      auto result = dispatch(call.value().method, call.value().params, ctx);
      resp.body = result.is_ok()
                      ? xmlrpc::encode_response(result.value())
                      : xmlrpc::encode_fault(status_to_fault_code(result.status().code()),
                                             result.status().message());
    }
  }
  return resp;
}

/// The well-formed 503 fault an admission shed answers with, in the
/// request's own protocol (clients map it to RESOURCE_EXHAUSTED and retry
/// with backoff; a silent close would read as an outage and trigger
/// reconnect storms).
http::Response rpc_shed_response(bool is_json) {
  const int fault = status_to_fault_code(StatusCode::kResourceExhausted);
  const std::string msg = "server overloaded: request shed";
  http::Response resp;
  resp.headers["content-type"] = is_json ? "application/json" : "text/xml";
  resp.status_code = 503;
  resp.reason = "Service Unavailable";
  resp.body = is_json ? jsonrpc::encode_fault(fault, msg, 0) : xmlrpc::encode_fault(fault, msg);
  return resp;
}

}  // namespace

RequestEngine::RequestEngine(std::shared_ptr<Dispatcher> dispatcher, ConnectionOptions options)
    : dispatcher_(std::move(dispatcher)), options_(options) {
  if (options_.metrics && options_.admission) {
    shed_counter_ = &options_.metrics->counter("rpc.server.requests_shed");
    queue_shed_counter_ = &options_.metrics->counter("rpc.server.queue_shed");
    admission_limit_gauge_ = &options_.metrics->gauge("rpc.server.admission_limit");
    brownout_gauge_ = &options_.metrics->gauge("rpc.server.brownout");
  }
}

void RequestEngine::open(Stream& stream) const {
  stream.set_no_delay(true);
  if (options_.recv_timeout_ms > 0) stream.set_recv_timeout_ms(options_.recv_timeout_ms);
}

void RequestEngine::read_failed(Stream& stream, const Status& status) {
  if (status.code() == StatusCode::kDeadlineExceeded) {
    // Peer sat silent past the receive timeout; reclaim the connection.
    timeouts_.fetch_add(1, std::memory_order_relaxed);
    if (options_.metrics) options_.metrics->counter("rpc.server.connections_timed_out").inc();
  } else if (status.code() == StatusCode::kInvalidArgument) {
    // Malformed framing (bad request line, unparseable content-length,
    // oversized header/body). Tell the peer why before closing — a
    // best-effort 400; a write failure here changes nothing, the
    // connection is closing either way.
    GAE_LOG(Debug) << "rpc request framing error: " << status;
    if (options_.metrics) options_.metrics->counter("rpc.server.bad_requests").inc();
    http::Response bad;
    bad.status_code = 400;
    bad.reason = "Bad Request";
    bad.headers["content-type"] = "text/plain";
    bad.body = status.message() + "\n";
    (void)http::write_response(stream, bad, /*keep_alive=*/false);
  } else if (status.code() != StatusCode::kUnavailable) {
    // Clean close of a kept-alive connection is routine; anything else
    // is worth a log line.
    GAE_LOG(Debug) << "rpc request framing error: " << status;
  }
}

bool RequestEngine::serve_one(Stream& stream, ConnectionState& conn) {
  auto reqr = http::read_request(stream, {options_.max_header_bytes, options_.max_body_bytes});
  if (!reqr.is_ok()) {
    read_failed(stream, reqr.status());
    return false;
  }
  const http::Request req = std::move(reqr).value();
  const bool keep_alive = req.keep_alive();
  const bool is_json = rpc_request_is_json(req);

  // The first request on a connection additionally pays for the time since
  // the accept — the budget kept draining while the connection waited for a
  // worker, and the client-side clock that stamped the deadline header
  // cannot see that wait.
  const std::int64_t picked_up_us = steady_now_us();
  const bool first_request = std::exchange(conn.first_request, false);
  const std::int64_t queue_delay_us = first_request && picked_up_us > conn.accepted_at_us
                                          ? picked_up_us - conn.accepted_at_us
                                          : 0;
  const CallContext ctx = rpc_context_from_request(req, picked_up_us, queue_delay_us);

  // Admission: a first request whose connection sat in the acceptor queue
  // past the CoDel bound is shed and its connection closed (closing is what
  // drains the queue); every other request must take a concurrency ticket,
  // refused by criticality tier once the limiter is at capacity.
  AdmissionController* admission = options_.admission;
  const bool queue_shed = admission && first_request &&
                          admission->queue_overloaded(static_cast<std::uint64_t>(queue_delay_us));
  if (admission && (queue_shed || !admission->try_admit(ctx.tier))) {
    if (queue_shed && queue_shed_counter_) queue_shed_counter_->inc();
    shed_.fetch_add(1, std::memory_order_relaxed);
    if (shed_counter_) shed_counter_->inc();
    requests_.fetch_add(1, std::memory_order_relaxed);
    const bool shed_keep_alive = keep_alive && !queue_shed;
    return http::write_response(stream, rpc_shed_response(is_json), shed_keep_alive).is_ok() &&
           shed_keep_alive;
  }

  // Ticket released by RAII so a decode fault (no dispatch) cannot leak
  // admission capacity.
  struct Ticket {
    AdmissionController* ctrl;
    ~Ticket() {
      if (ctrl) ctrl->release();
    }
  } ticket{admission};

  // Dispatch timed at the admission layer: the sample feeds the AIMD limit,
  // and the gauges publish the limit it settled on.
  const http::Response resp = rpc_dispatch_request(
      req, ctx, [&](const std::string& method, const Array& params, const CallContext& call_ctx) {
        const std::int64_t start_us = steady_now_us();
        auto result = dispatcher_->dispatch(method, params, call_ctx);
        if (admission) {
          admission->on_sample(static_cast<std::uint64_t>(steady_now_us() - start_us));
          if (admission_limit_gauge_) {
            admission_limit_gauge_->set(static_cast<std::int64_t>(admission->limit()));
            brownout_gauge_->set(admission->browned_out() ? 1 : 0);
          }
        }
        return result;
      });

  requests_.fetch_add(1, std::memory_order_relaxed);
  return http::write_response(stream, resp, keep_alive).is_ok() && keep_alive;
}

RpcServer::RpcServer(std::shared_ptr<Dispatcher> dispatcher, ServerOptions options)
    : options_(options), engine_(std::move(dispatcher), options.connection) {}

RpcServer::~RpcServer() { stop(); }

Result<std::uint16_t> RpcServer::start() {
  Transport& transport = options_.transport ? *options_.transport : tcp_transport();
  auto listener = transport.listen(options_.port);
  if (!listener.is_ok()) return listener.status();
  listener_ = std::move(listener).value();
  port_ = listener_->port();
  pool_ = std::make_unique<ThreadPool>(options_.num_workers);
  running_.store(true);
  acceptor_ = std::thread([this] { accept_loop(); });
  return port_;
}

void RpcServer::stop() {
  if (!running_.exchange(false)) {
    if (acceptor_.joinable()) acceptor_.join();
    return;
  }
  if (listener_) listener_->close();
  if (acceptor_.joinable()) acceptor_.join();
  {
    // Kick workers out of blocking reads on kept-alive connections.
    std::lock_guard<std::mutex> lock(conns_mutex_);
    for (Stream* stream : active_conns_) stream->shutdown_both();
  }
  if (pool_) pool_->shutdown(false);
}

void RpcServer::register_connection(Stream* stream) {
  std::lock_guard<std::mutex> lock(conns_mutex_);
  active_conns_.insert(stream);
}

void RpcServer::unregister_connection(Stream* stream) {
  std::lock_guard<std::mutex> lock(conns_mutex_);
  active_conns_.erase(stream);
}

void RpcServer::accept_loop() {
  const std::size_t max_in_flight =
      options_.max_in_flight > 0 ? options_.max_in_flight : 2 * options_.num_workers;
  telemetry::MetricsRegistry* metrics = options_.connection.metrics;
  while (running_.load()) {
    auto stream = listener_->accept();
    if (!stream.is_ok()) {
      if (running_.load()) {
        GAE_LOG(Warn) << "rpc accept failed: " << stream.status();
      }
      return;
    }
    // Admission control: beyond the in-flight cap every further connection
    // would only deepen the worker queue (slowloris amplification), so shed
    // it at the door instead.
    if (in_flight_.load(std::memory_order_relaxed) >= max_in_flight) {
      rejected_.fetch_add(1, std::memory_order_relaxed);
      if (metrics) metrics->counter("rpc.server.connections_rejected").inc();
      continue;  // stream destructor closes the socket
    }
    in_flight_.fetch_add(1, std::memory_order_relaxed);
    // Stamp the accept instant: serve_connection charges the time the
    // connection spends waiting for a worker against both the CoDel queue
    // bound and the first request's deadline budget.
    const std::int64_t accepted_at_us = steady_now_us();
    std::shared_ptr<Stream> conn = std::move(stream).value();
    const bool ok = pool_->submit([this, metrics, conn, accepted_at_us]() mutable {
      serve_connection(*conn, accepted_at_us);
      const auto remaining = in_flight_.fetch_sub(1, std::memory_order_relaxed) - 1;
      if (metrics) {
        metrics->gauge("rpc.server.connections").set(static_cast<std::int64_t>(remaining));
      }
    });
    if (!ok) {
      in_flight_.fetch_sub(1, std::memory_order_relaxed);
      return;
    }
    if (metrics) {
      // Queue depth right after admission is the moment it peaks: every
      // admitted connection beyond the worker count is sitting in the pool
      // queue (the fig-6 knee the paper measures).
      metrics->gauge("rpc.server.queue_depth")
          .set(static_cast<std::int64_t>(pool_->queued()));
      metrics->gauge("rpc.server.connections")
          .set(static_cast<std::int64_t>(in_flight_.load(std::memory_order_relaxed)));
    }
  }
}

void RpcServer::serve_connection(Stream& stream, std::int64_t accepted_at_us) {
  engine_.open(stream);
  register_connection(&stream);
  // Unregister before the caller releases the stream, so stop() never calls
  // shutdown_both() on a destroyed object.
  struct Deregister {
    RpcServer* server;
    Stream* stream;
    ~Deregister() { server->unregister_connection(stream); }
  } deregister{this, &stream};

  ConnectionState conn{accepted_at_us};
  while (running_.load() && engine_.serve_one(stream, conn)) {
  }
}

}  // namespace gae::rpc
