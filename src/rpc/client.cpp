#include "rpc/client.h"

#include <algorithm>
#include <chrono>
#include <thread>

#include "rpc/deadline.h"
#include "rpc/http.h"
#include "rpc/jsonrpc.h"
#include "rpc/server.h"  // fault-code <-> StatusCode mapping
#include "rpc/xmlrpc.h"

namespace gae::rpc {

namespace {

/// Legacy single-endpoint clients keep roughly the old semantics — a quick
/// transparent retry of a dropped keep-alive connection — plus bounded
/// backoff so a dead server is not hammered in a tight loop.
ClientOptions legacy_options() {
  ClientOptions options;
  options.default_call.retry.max_attempts = 3;
  options.default_call.retry.initial_backoff_ms = 10;
  options.default_call.retry.max_backoff_ms = 500;
  return options;
}

/// Unpacks one {ok, result | code+message} entry of an rpc.batch response.
Result<Value> decode_batch_entry(const Value& entry) {
  if (!entry.is_struct()) {
    return Status(StatusCode::kInternal,
                  "malformed rpc.batch response entry: " + entry.debug_string());
  }
  if (entry.get_bool("ok", false)) {
    return entry.has("result") ? entry.at("result") : Value();
  }
  const int code = static_cast<int>(
      entry.get_int("code", status_to_fault_code(StatusCode::kInternal)));
  return Status(fault_code_to_status(code),
                entry.get_string("message", "batch item failed"));
}

/// Extracts the "leader=host:port" hint a replica embeds in a NOT_PRIMARY
/// fault message. False when the message carries no (parseable) hint.
bool parse_leader_hint(const std::string& message, std::string& host,
                       std::uint16_t& port) {
  const std::size_t at = message.find("leader=");
  if (at == std::string::npos) return false;
  std::size_t end = message.find_first_of(" ,;)", at + 7);
  if (end == std::string::npos) end = message.size();
  const std::string hint = message.substr(at + 7, end - at - 7);
  const std::size_t colon = hint.rfind(':');
  if (colon == std::string::npos || colon == 0 || colon + 1 >= hint.size()) return false;
  int parsed = 0;
  for (std::size_t i = colon + 1; i < hint.size(); ++i) {
    if (hint[i] < '0' || hint[i] > '9') return false;
    parsed = parsed * 10 + (hint[i] - '0');
    if (parsed > 65535) return false;
  }
  if (parsed <= 0) return false;
  host = hint.substr(0, colon);
  port = static_cast<std::uint16_t>(parsed);
  return true;
}

}  // namespace

RpcClient::RpcClient(std::string host, std::uint16_t port, Protocol protocol)
    : RpcClient(std::vector<Endpoint>{{std::move(host), port}}, protocol,
                legacy_options()) {}

RpcClient::Totals::Totals(telemetry::MetricsRegistry& metrics)
    : calls(metrics.counter("rpc.client.calls")),
      attempts(metrics.counter("rpc.client.attempts")),
      failovers(metrics.counter("rpc.client.failovers")),
      deadline_exceeded(metrics.counter("rpc.client.deadline_exceeded")),
      breaker_rejections(metrics.counter("rpc.client.breaker_rejections")),
      failed_calls(metrics.counter("rpc.client.failed_calls")),
      reresolves(metrics.counter("rpc.client.reresolves")),
      retry_budget_exhausted(metrics.counter("rpc.client.retry_budget_exhausted")),
      shed_rejections(metrics.counter("rpc.client.shed_rejections")),
      not_primary_redirects(metrics.counter("rpc.client.not_primary_redirects")),
      batches(metrics.counter("rpc.client.batches")),
      batched_items(metrics.counter("rpc.client.batched_items")) {}

RpcClient::RpcClient(std::vector<Endpoint> endpoints, Protocol protocol,
                     ClientOptions options)
    : protocol_(protocol),
      options_(std::move(options)),
      metrics_(options_.metrics),
      totals_(*metrics_),
      endpoints_(std::move(endpoints)) {
  if (options_.clock) {
    clock_ptr_ = options_.clock;
  } else {
    owned_clock_ = std::make_shared<WallClock>();
    clock_ptr_ = owned_clock_.get();
  }
  if (!options_.sleep_ms) {
    options_.sleep_ms = [](int ms) {
      std::this_thread::sleep_for(std::chrono::milliseconds(ms));
    };
  }
  if (options_.shared_pool) {
    pool_ = options_.shared_pool;
  } else {
    PoolOptions pool_options = options_.pool;
    if (!pool_options.clock) pool_options.clock = clock_ptr_;
    if (!pool_options.metrics) pool_options.metrics = metrics_.get();
    if (!pool_options.transport) pool_options.transport = options_.transport;
    pool_ = std::make_shared<ConnectionPool>(pool_options);
  }
  breakers_.reserve(endpoints_.size());
  for (std::size_t i = 0; i < endpoints_.size(); ++i) {
    breakers_.push_back(make_breaker(i));
  }
  arm_endpoint_counters();
}

void RpcClient::count_endpoint(std::size_t index,
                               telemetry::Counter* EndpointCounters::*what) {
  if (index < endpoint_counters_.size()) (endpoint_counters_[index].*what)->inc();
}

void RpcClient::arm_endpoint_counters() {
  endpoint_counters_.assign(endpoints_.size(), EndpointCounters{});
  for (std::size_t i = 0; i < endpoints_.size(); ++i) {
    const std::string prefix =
        "rpc.client." + endpoints_[i].host + ":" + std::to_string(endpoints_[i].port) + ".";
    EndpointCounters& ec = endpoint_counters_[i];
    ec.attempts = &metrics_->counter(prefix + "attempts");
    ec.retries = &metrics_->counter(prefix + "retries");
    ec.breaker_transitions = &metrics_->counter(prefix + "breaker_transitions");
    ec.breaker_open = &metrics_->counter(prefix + "breaker_open");
  }
}

void RpcClient::arm_breaker_listener(CircuitBreaker& breaker, std::size_t index) {
  breaker.set_transition_listener(
      [this, index](CircuitBreaker::State from, CircuitBreaker::State to, SimTime) {
        // Runs with mutex_ held (breakers are only driven under the lock).
        // A breaker opening means an endpoint went dark: refresh the
        // failover list from discovery before the next connection attempt.
        if (to == CircuitBreaker::State::kOpen) needs_resolve_ = true;
        count_endpoint(index, &EndpointCounters::breaker_transitions);
        if (to == CircuitBreaker::State::kOpen) {
          count_endpoint(index, &EndpointCounters::breaker_open);
        }
        if (options_.on_breaker_transition && index < endpoints_.size()) {
          options_.on_breaker_transition(endpoints_[index], from, to);
        }
      });
}

std::unique_ptr<CircuitBreaker> RpcClient::make_breaker(std::size_t index) {
  auto breaker = std::make_unique<CircuitBreaker>(*clock_ptr_, options_.breaker);
  arm_breaker_listener(*breaker, index);
  return breaker;
}

void RpcClient::set_endpoints(std::vector<Endpoint> endpoints) {
  std::lock_guard<std::mutex> lock(mutex_);
  set_endpoints_locked(std::move(endpoints));
}

void RpcClient::set_endpoints_locked(std::vector<Endpoint> endpoints) {
  if (endpoints.empty()) return;
  std::vector<std::unique_ptr<CircuitBreaker>> breakers;
  breakers.reserve(endpoints.size());
  std::size_t preferred = 0;  // sticky preference follows its endpoint
  for (std::size_t i = 0; i < endpoints.size(); ++i) {
    std::unique_ptr<CircuitBreaker> kept;
    for (std::size_t j = 0; j < endpoints_.size(); ++j) {
      if (breakers_[j] && endpoints_[j].host == endpoints[i].host &&
          endpoints_[j].port == endpoints[i].port) {
        kept = std::move(breakers_[j]);
        if (preferred_endpoint_ == j) preferred = i;
        break;
      }
    }
    breakers.push_back(kept ? std::move(kept) : nullptr);
  }
  endpoints_ = std::move(endpoints);
  breakers_ = std::move(breakers);
  preferred_endpoint_ = preferred;
  // (Re)arm listeners after endpoints_ is final so kept breakers report
  // their endpoint's new index.
  for (std::size_t i = 0; i < breakers_.size(); ++i) {
    if (!breakers_[i]) {
      breakers_[i] = make_breaker(i);
    } else {
      arm_breaker_listener(*breakers_[i], i);
    }
  }
  arm_endpoint_counters();
}

void RpcClient::maybe_re_resolve() {
  if (!options_.resolve_endpoints) return;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!needs_resolve_) return;
    needs_resolve_ = false;
  }
  // The resolver typically queries the registry over its own RPC client —
  // run it unlocked so concurrent calls are not serialised behind it.
  auto fresh = options_.resolve_endpoints();
  if (fresh.empty()) return;
  totals_.reresolves.inc();
  std::lock_guard<std::mutex> lock(mutex_);
  set_endpoints_locked(std::move(fresh));
}

void RpcClient::disconnect() { pool_->clear(); }

CircuitBreaker::State RpcClient::breaker_state(std::size_t index) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return breakers_.at(index)->state();
}

std::size_t RpcClient::endpoint_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return endpoints_.size();
}

Endpoint RpcClient::endpoint(std::size_t index) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return endpoints_.at(index);
}

int RpcClient::remaining_ms(SimTime deadline) const {
  return static_cast<int>((deadline - clock().now()) / 1000);
}

Result<RpcClient::Checkout> RpcClient::acquire_connection(std::size_t& index) {
  maybe_re_resolve();
  // Sticky walk: start from the endpoint that served the last successful
  // attempt and fall back in list order (wrapping), skipping endpoints whose
  // breaker rejects. Starting from the *preferred* endpoint rather than
  // index 0 keeps a flapping primary from stealing traffic back from a
  // healthy failover target; traffic returns to an earlier endpoint only
  // when the current one fails.
  Status last = unavailable_error("rpc client has no endpoints");
  bool any_admitted = false;
  for (std::size_t k = 0;; ++k) {
    Endpoint target;
    std::size_t candidate = 0;
    EndpointCounters counters;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (k >= endpoints_.size()) break;
      candidate = (preferred_endpoint_ + k) % endpoints_.size();
      if (k == 0) index = candidate;
      if (!breakers_[candidate]->allow()) continue;
      any_admitted = true;
      target = endpoints_[candidate];
      counters = endpoint_counters_[candidate];
    }
    index = candidate;
    auto conn = pool_->checkout(target.host, target.port);
    if (!conn.is_ok()) {
      std::lock_guard<std::mutex> lock(mutex_);
      if (candidate < breakers_.size()) breakers_[candidate]->record_failure();
      last = conn.status();
      continue;
    }
    return Checkout{std::move(conn).value(), candidate, counters};
  }
  if (!any_admitted) {
    totals_.breaker_rejections.inc();
    return unavailable_error("circuit open: every endpoint is rejecting calls");
  }
  return last;
}

Result<Value> RpcClient::call(const std::string& method, const Array& params) {
  return call(method, params, options_.default_call);
}

Result<Value> RpcClient::call(const std::string& method, const Array& params,
                              const CallOptions& options) {
  totals_.calls.inc();
  // Fresh traffic funds the retry budget; the deposit happens whether or
  // not this call ever retries.
  if (options.retry.budget) options.retry.budget->on_request();
  // One client span per logical call (retries included) — the Dapper shape:
  // the server hop becomes this span's child via the injected context.
  std::optional<telemetry::ScopedSpan> span;
  if (options_.tracer) {
    span.emplace(options_.tracer, options_.trace_service, method, "client");
  }

  // The effective whole-call budget is the tighter of the explicit option
  // and the thread's ambient deadline (what is left of the enclosing server
  // call, when this client runs inside a handler).
  int effective_deadline_ms = options.deadline_ms;
  const int ambient_rem = ambient_deadline_remaining_ms();
  if (ambient_rem == 0) {
    totals_.deadline_exceeded.inc();
    totals_.failed_calls.inc();
    const Status s =
        deadline_exceeded_error("ambient deadline expired before call: " + method);
    if (span) span->set_status(s.code());
    return s;
  }
  if (ambient_rem > 0 &&
      (effective_deadline_ms <= 0 || ambient_rem < effective_deadline_ms)) {
    effective_deadline_ms = ambient_rem;
  }
  const SimTime deadline =
      effective_deadline_ms > 0
          ? clock().now() + static_cast<SimTime>(effective_deadline_ms) * 1000
          : 0;
  const int max_attempts = std::max(1, options.retry.max_attempts);
  Status last = unavailable_error("rpc call made no attempts");
  int redirects = 0;  // NOT_PRIMARY leader hints followed this call

  for (int attempt = 1; attempt <= max_attempts; ++attempt) {
    bool wrote_request = false;
    std::size_t attempt_index = 0;
    auto result =
        call_attempt(method, params, deadline, options.tier, wrote_request, attempt_index);
    if (result.is_ok()) return result;
    last = result.status();
    if (last.code() == StatusCode::kDeadlineExceeded) totals_.deadline_exceeded.inc();

    // A NOT_PRIMARY fault is an answer from a healthy replica, not an
    // outage: the endpoint's breaker is not charged (call_attempt already
    // recorded the success), and when the fault names the leader we follow
    // the hint — put the leader first in the failover list and re-send.
    // Bounded so two replicas pointing at each other cannot loop a call.
    if (last.code() == StatusCode::kNotPrimary) {
      std::string leader_host;
      std::uint16_t leader_port = 0;
      if (redirects < 2 && parse_leader_hint(last.message(), leader_host, leader_port)) {
        ++redirects;
        totals_.not_primary_redirects.inc();
        std::lock_guard<std::mutex> lock(mutex_);
        std::vector<Endpoint> reordered;
        reordered.push_back({leader_host, leader_port});
        for (const auto& e : endpoints_) {
          if (e.host != leader_host || e.port != leader_port) reordered.push_back(e);
        }
        set_endpoints_locked(std::move(reordered));
        preferred_endpoint_ = 0;  // the leader now heads the list
        --attempt;  // the redirect does not consume a retry attempt
        continue;
      }
      break;  // no hint (or hint chain too long): surface the fault
    }

    // RPC faults and semantic errors are answers, not outages.
    if (!RetryPolicy::is_retryable(last.code())) break;
    if (wrote_request && !options.idempotent) {
      // The request may have reached (and executed on) the server; blindly
      // re-sending a non-idempotent call could double-apply it.
      last = unavailable_error("not retrying non-idempotent call " + method +
                               " (request may have reached the server): " +
                               last.message());
      break;
    }
    if (attempt >= max_attempts) break;
    int backoff = options.retry.backoff_ms(attempt);
    if (deadline > 0) {
      const int rem = remaining_ms(deadline);
      if (rem <= 1) {
        // No room for even a minimal next attempt.
        totals_.deadline_exceeded.inc();
        last = deadline_exceeded_error("deadline budget exhausted after " +
                                       std::to_string(attempt) + " attempt(s): " + method);
        break;
      }
      // Clamp the sleep so backoff never overshoots the remaining budget:
      // sleep at most rem-1 ms and leave at least 1 ms for the attempt
      // itself. (Previously a backoff >= rem abandoned the call outright,
      // wasting budget that a shorter sleep could have used.)
      if (backoff >= rem) backoff = rem - 1;
    }
    if (options.retry.budget && !options.retry.budget->try_retry()) {
      totals_.retry_budget_exhausted.inc();
      last = resource_exhausted_error("retry budget exhausted for " + method + ": " +
                                      last.message());
      break;
    }
    {
      std::lock_guard<std::mutex> lock(mutex_);  // guards endpoint_counters_
      count_endpoint(attempt_index, &EndpointCounters::retries);
    }
    if (backoff > 0) options_.sleep_ms(backoff);
  }
  totals_.failed_calls.inc();
  if (span) span->set_status(last.code());
  return last;
}

Result<Value> RpcClient::call_attempt(const std::string& method, const Array& params,
                                      SimTime deadline, Criticality tier,
                                      bool& wrote_request, std::size_t& attempt_index) {
  totals_.attempts.inc();
  auto acquired = acquire_connection(attempt_index);
  if (!acquired.is_ok()) return acquired.status();
  Checkout checkout = std::move(acquired).value();
  const std::size_t index = checkout.index;
  if (index != 0) totals_.failovers.inc();
  checkout.counters.attempts->inc();

  // Bookkeeping for the wire outcome: success parks the connection for the
  // next caller and re-anchors the sticky preference; failure closes it and
  // charges the endpoint's breaker.
  auto succeed = [&]() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (index < breakers_.size()) breakers_[index]->record_success();
      preferred_endpoint_ = index;
    }
    pool_->checkin(std::move(checkout.conn));
  };
  auto fail = [&]() {
    pool_->discard(std::move(checkout.conn));
    std::lock_guard<std::mutex> lock(mutex_);
    if (index < breakers_.size()) breakers_[index]->record_failure();
  };

  Stream& stream = *checkout.conn.stream;
  int wire_deadline_ms = -1;
  if (deadline > 0) {
    const int rem = remaining_ms(deadline);
    if (rem <= 0) {
      pool_->checkin(std::move(checkout.conn));  // unused, still healthy
      return deadline_exceeded_error("deadline expired before send: " + method);
    }
    stream.set_recv_timeout_ms(rem);
    wire_deadline_ms = rem;
  } else {
    stream.set_recv_timeout_ms(0);
  }

  http::Request req;
  req.method = "POST";
  req.path = "/rpc";
  // Remaining budget at send time plus the request tier, in their header
  // fields; the server turns the budget back into an absolute deadline
  // on its own clock and sheds by tier under overload.
  req.deadline_ms = wire_deadline_ms;
  req.tier = static_cast<int>(tier);
  req.session = session_token_;

  // Propagate the ambient trace context (the enclosing ScopedSpan — this
  // call's client span, or whatever server span this client runs under).
  // The x-gae-trace header is the only carrier.
  const telemetry::TraceContext trace_ctx = telemetry::current_trace();
  if (trace_ctx.valid()) {
    req.trace = telemetry::format_trace(trace_ctx);
  }

  if (protocol_ == Protocol::kJsonRpc) {
    req.content_type = "application/json";
    req.body = jsonrpc::encode_call(method, params,
                                    next_id_.fetch_add(1, std::memory_order_relaxed));
  } else {
    req.content_type = "text/xml";
    req.body = xmlrpc::encode_call(method, params);
  }

  wrote_request = true;
  Status ws = http::write_request(stream, req);
  if (!ws.is_ok()) {
    // A write failure on a *reused* keep-alive connection usually means the
    // peer closed it while parked — no request reached a live server, so
    // even non-idempotent calls may retry safely.
    if (checkout.conn.reused) wrote_request = false;
    fail();
    return ws;
  }
  auto respr = http::read_response(stream);
  if (!respr.is_ok()) {
    fail();
    if (respr.status().code() == StatusCode::kInvalidArgument) {
      // Unparseable response framing means a corrupt transport, not a bad
      // argument — report it as the retryable outage it is.
      return unavailable_error("corrupt response: " + respr.status().message());
    }
    return respr.status();
  }
  // The server answered; RPC faults below are its answer, not an outage.
  const http::Response resp = std::move(respr).value();
  succeed();

  if (resp.status_code == 503) {
    // Admission-control shed. The body carries a RESOURCE_EXHAUSTED fault in
    // our own protocol; prefer its message, but classify the response as
    // retryable-with-backoff even if the body is unparseable — a shed is
    // load feedback, never a protocol error.
    totals_.shed_rejections.inc();
    if (protocol_ == Protocol::kJsonRpc) {
      auto decoded = jsonrpc::decode_response(resp.body);
      if (decoded.is_ok() && decoded.value().is_fault) {
        return Status(fault_code_to_status(decoded.value().fault_code),
                      decoded.value().fault_string);
      }
    } else {
      auto decoded = xmlrpc::decode_response(resp.body);
      if (decoded.is_ok() && decoded.value().is_fault) {
        return Status(fault_code_to_status(decoded.value().fault_code),
                      decoded.value().fault_string);
      }
    }
    return resource_exhausted_error("server shed request (503): " + method);
  }

  if (protocol_ == Protocol::kJsonRpc) {
    auto decoded = jsonrpc::decode_response(resp.body);
    if (!decoded.is_ok()) return decoded.status();
    if (decoded.value().is_fault) {
      return Status(fault_code_to_status(decoded.value().fault_code),
                    decoded.value().fault_string);
    }
    return std::move(decoded).value().result;
  }
  auto decoded = xmlrpc::decode_response(resp.body);
  if (!decoded.is_ok()) return decoded.status();
  if (decoded.value().is_fault) {
    return Status(fault_code_to_status(decoded.value().fault_code),
                  decoded.value().fault_string);
  }
  return std::move(decoded).value().result;
}

// The client half of rpc.batch (the server half is Dispatcher::enable_batch):
// pure coalescing policy over the public call() path.
std::vector<Result<Value>> RpcClient::call_many(const std::vector<BatchItem>& items) {
  return call_many(items, options_.default_call);
}

std::vector<Result<Value>> RpcClient::call_many(const std::vector<BatchItem>& items,
                                                const CallOptions& options) {
  std::vector<Result<Value>> results;
  results.reserve(items.size());
  if (items.empty()) return results;

  const auto item_options = [&](const BatchItem& item) {
    CallOptions o = options;
    o.tier = item.tier;
    return o;
  };

  // A batch of one gains nothing from the envelope — skip it.
  if (items.size() == 1) {
    results.push_back(call(items[0].method, items[0].params, item_options(items[0])));
    return results;
  }

  Array embedded;
  embedded.reserve(items.size());
  Criticality tier = items[0].tier;
  for (const BatchItem& item : items) {
    tier = more_critical(tier, item.tier);
    Struct entry;
    entry["method"] = item.method;
    entry["params"] = Value(item.params);
    embedded.push_back(Value(std::move(entry)));
  }
  CallOptions batch_options = options;
  // The envelope rides at the most critical item's tier: shedding the whole
  // batch because a bulk item rode along would invert the shed order.
  batch_options.tier = tier;

  auto batched = call("rpc.batch", Array{Value(std::move(embedded))}, batch_options);
  if (batched.is_ok()) {
    totals_.batches.inc();
    totals_.batched_items.inc(items.size());
    const Value& body = batched.value();
    for (std::size_t i = 0; i < items.size(); ++i) {
      if (!body.is_array() || i >= body.as_array().size()) {
        results.push_back(Status(StatusCode::kInternal,
                                 "rpc.batch response lacks entry " + std::to_string(i) +
                                     " for " + items[i].method));
        continue;
      }
      results.push_back(decode_batch_entry(body.as_array()[i]));
    }
    return results;
  }

  if (batched.status().code() == StatusCode::kNotFound) {
    // Old peer without rpc.batch: degrade to one call per item so mixed-
    // version deployments keep working through a rollout.
    for (const BatchItem& item : items) {
      results.push_back(call(item.method, item.params, item_options(item)));
    }
    return results;
  }

  // The batch itself failed (transport, deadline, shed): every item shares
  // that fate — none of them reached a handler.
  for (std::size_t i = 0; i < items.size(); ++i) results.push_back(batched.status());
  return results;
}

}  // namespace gae::rpc
