// Overload resilience, end to end: the adaptive admission controller in
// isolation (virtual time, exact), deadline propagation across the wire,
// well-formed 503 sheds, retry-budget storm suppression, the brownout
// degraded modes of the estimator and jobmon bindings, and a live-TCP storm
// proving shed order follows criticality.
#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "clarens/host.h"
#include "common/admission.h"
#include "common/clock.h"
#include "common/retry.h"
#include "estimators/rpc_binding.h"
#include "estimators/service.h"
#include "jobmon/rpc_binding.h"
#include "jobmon/service.h"
#include "net/socket.h"
#include "rpc/client.h"
#include "rpc/deadline.h"
#include "rpc/server.h"
#include "rpc/xmlrpc.h"
#include "sim/load.h"
#include "telemetry/metrics.h"

namespace gae {
namespace {

using rpc::Array;
using rpc::CallContext;
using rpc::Struct;
using rpc::Value;

// ---------------------------------------------------------------------------
// AdmissionController in isolation (ManualClock: every assertion is exact)
// ---------------------------------------------------------------------------

TEST(AdmissionAimd, RaisesWhenFastClampsWhenSlow) {
  ManualClock clock;
  AdmissionOptions o;
  o.min_limit = 2;
  o.initial_limit = 10;
  o.max_limit = 64;
  o.samples_per_update = 4;
  o.ewma_alpha = 1.0;  // track the last sample exactly
  o.latency_tolerance = 2.0;
  o.decrease_factor = 0.8;
  o.brownout_hold_ms = 1000;
  AdmissionController c(clock, o);
  ASSERT_EQ(c.limit(), 10u);

  // Four fast samples anchor the floor at 1ms and earn an additive raise.
  for (int i = 0; i < 4; ++i) c.on_sample(1000);
  EXPECT_EQ(c.limit(), 11u);
  EXPECT_EQ(c.snapshot().raises, 1u);

  // Latency drifts to 5x the floor: multiplicative clamp (11 * 0.8 -> 8)
  // and the brownout hold engages.
  for (int i = 0; i < 4; ++i) c.on_sample(5000);
  EXPECT_EQ(c.limit(), 8u);
  EXPECT_EQ(c.snapshot().clamps, 1u);
  EXPECT_TRUE(c.browned_out());

  // Brownout expires brownout_hold_ms after the clamp (load is zero).
  clock.advance_by(2'000'000);
  EXPECT_FALSE(c.browned_out());

  // Sustained congestion clamps again and again but never below min_limit.
  for (int round = 0; round < 8; ++round) {
    for (int i = 0; i < 4; ++i) c.on_sample(5000);
  }
  EXPECT_EQ(c.limit(), o.min_limit);
}

TEST(AdmissionTiers, ShedOrderFollowsCriticality) {
  ManualClock clock;
  AdmissionOptions o;
  o.min_limit = o.initial_limit = o.max_limit = 10;
  o.tier_fraction = {1.0, 0.9, 0.75};
  AdmissionController c(clock, o);

  // Bulk may only occupy 75% of the limit (ceiling 7.5 -> 7 slots).
  int bulk = 0;
  while (c.try_admit(Criticality::kBulk)) ++bulk;
  EXPECT_EQ(bulk, 7);
  // Status fills to 90% (two more), control to the full limit (one more).
  int status = 0;
  while (c.try_admit(Criticality::kStatus)) ++status;
  EXPECT_EQ(status, 2);
  int control = 0;
  while (c.try_admit(Criticality::kControl)) ++control;
  EXPECT_EQ(control, 1);
  EXPECT_EQ(c.in_flight(), 10u);

  // Each fill loop ended with exactly one refusal, counted per tier.
  const auto snap = c.snapshot();
  EXPECT_EQ(snap.shed[static_cast<int>(Criticality::kBulk)], 1u);
  EXPECT_EQ(snap.shed[static_cast<int>(Criticality::kStatus)], 1u);
  EXPECT_EQ(snap.shed[static_cast<int>(Criticality::kControl)], 1u);
  for (int i = 0; i < 10; ++i) c.release();
  EXPECT_EQ(c.in_flight(), 0u);
}

TEST(AdmissionCoDel, QueueBoundArmsShedsAndResets) {
  ManualClock clock;
  AdmissionOptions o;  // defaults: target 5ms, interval 100ms
  AdmissionController c(clock, o);
  clock.advance_to(1'000'000);

  // First observation above target arms the interval but admits.
  EXPECT_FALSE(c.queue_overloaded(10'000));
  clock.advance_by(50'000);
  EXPECT_FALSE(c.queue_overloaded(10'000));  // interval not yet elapsed
  clock.advance_by(60'000);                  // 110ms above target: shed
  EXPECT_TRUE(c.queue_overloaded(10'000));
  EXPECT_EQ(c.snapshot().queue_shed, 1u);

  // One observation back below target resets the bound.
  EXPECT_FALSE(c.queue_overloaded(1'000));
  EXPECT_FALSE(c.queue_overloaded(10'000));  // re-arming, not shedding
  EXPECT_EQ(c.snapshot().queue_shed, 1u);
}

TEST(RetryBudgetTest, TokenBucketCapsRetriesAtRatioOfFreshTraffic) {
  RetryBudget b(RetryBudgetOptions{0.5, 2.0});
  // Bucket starts full: two retries pass, the third is refused.
  EXPECT_TRUE(b.try_retry());
  EXPECT_TRUE(b.try_retry());
  EXPECT_FALSE(b.try_retry());
  EXPECT_EQ(b.exhausted(), 1u);
  // Two fresh requests deposit ratio each: one whole retry token.
  b.on_request();
  b.on_request();
  EXPECT_TRUE(b.try_retry());
  EXPECT_FALSE(b.try_retry());
}

// ---------------------------------------------------------------------------
// Deadline plane
// ---------------------------------------------------------------------------

TEST(DeadlineDispatch, ExpiredWorkRejectedBeforeHandlerRuns) {
  auto dispatcher = std::make_shared<rpc::Dispatcher>();
  telemetry::MetricsRegistry metrics;
  std::atomic<int> handler_calls{0};
  dispatcher->register_method("slow.op",
                              [&handler_calls](const Array&, const CallContext&) -> Result<Value> {
                                ++handler_calls;
                                return Value(static_cast<std::int64_t>(1));
                              });
  dispatcher->set_telemetry(&metrics, nullptr, "rpc");

  CallContext ctx;
  ctx.deadline_us = rpc::steady_now_us() - 1000;  // already expired
  const auto r = dispatcher->dispatch("slow.op", {}, ctx);
  ASSERT_FALSE(r.is_ok());
  EXPECT_EQ(r.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(handler_calls.load(), 0);
  EXPECT_EQ(metrics.counter("rpc.server.slow.op.deadline_expired").value(), 1u);

  // A live deadline dispatches normally.
  ctx.deadline_us = rpc::steady_now_us() + 5'000'000;
  EXPECT_TRUE(dispatcher->dispatch("slow.op", {}, ctx).is_ok());
  EXPECT_EQ(handler_calls.load(), 1);
}

TEST(DeadlineWire, ZeroBudgetHeaderRejectedBeforeDispatch) {
  auto dispatcher = std::make_shared<rpc::Dispatcher>();
  std::atomic<int> handler_calls{0};
  dispatcher->register_method("echo.op",
                              [&handler_calls](const Array&, const CallContext&) -> Result<Value> {
                                ++handler_calls;
                                return Value(static_cast<std::int64_t>(1));
                              });
  rpc::RpcServer server(dispatcher, rpc::ServerOptions{0, 2});
  auto port = server.start();
  ASSERT_TRUE(port.is_ok());

  // A request that arrives with its whole budget already spent: the server
  // must answer DEADLINE_EXCEEDED without ever invoking the handler.
  const std::string body = rpc::xmlrpc::encode_call("echo.op", {Value(static_cast<std::int64_t>(1))});
  const std::string req = "POST /rpc HTTP/1.1\r\ncontent-type: text/xml\r\n"
                          "x-gae-deadline: 0\r\nconnection: close\r\ncontent-length: " +
                          std::to_string(body.size()) + "\r\n\r\n" + body;
  auto conn = net::TcpStream::connect("127.0.0.1", port.value());
  ASSERT_TRUE(conn.is_ok());
  conn.value().set_recv_timeout_ms(2000);
  conn.value().write_all(req);
  std::string resp;
  char buf[4096];
  for (;;) {
    auto r = conn.value().read_some(buf, sizeof(buf));
    if (!r.is_ok() || r.value() == 0) break;
    resp.append(buf, r.value());
  }
  server.stop();

  EXPECT_EQ(handler_calls.load(), 0);
  EXPECT_NE(resp.find("fault"), std::string::npos);
  // Fault code 100 + kDeadlineExceeded.
  EXPECT_NE(resp.find(std::to_string(rpc::status_to_fault_code(StatusCode::kDeadlineExceeded))),
            std::string::npos);
}

TEST(DeadlineWire, RemainingBudgetForwardedToDownstreamHop) {
  // Every deadline computation reads the overridden steady clock, so the
  // frontend can burn its 30ms virtually and the surviving budget is exact.
  ManualClock steady(1'000'000);
  rpc::set_steady_clock_override(&steady);
  struct Restore {
    ~Restore() { rpc::set_steady_clock_override(nullptr); }
  } restore;

  // Backend reports how much budget (ms) arrived with the request.
  auto backend_dispatcher = std::make_shared<rpc::Dispatcher>();
  backend_dispatcher->register_method(
      "backend.remaining", [](const Array&, const CallContext& ctx) -> Result<Value> {
        if (ctx.deadline_us == 0) return Value(static_cast<std::int64_t>(-1));
        return Value((ctx.deadline_us - rpc::steady_now_us()) / 1000);
      });
  rpc::RpcServer backend(backend_dispatcher, rpc::ServerOptions{0, 2});
  auto backend_port = backend.start();
  ASSERT_TRUE(backend_port.is_ok());

  // Frontend burns ~30ms of the budget, then calls the backend with NO
  // explicit deadline: the ambient deadline installed by its own dispatch
  // must ride the downstream x-gae-deadline header.
  auto frontend_dispatcher = std::make_shared<rpc::Dispatcher>();
  frontend_dispatcher->register_method(
      "frontend.op",
      [port = backend_port.value(), &steady](const Array&, const CallContext&) -> Result<Value> {
        steady.advance_by(from_millis(30));
        rpc::ClientOptions copts;
        copts.clock = &steady;
        rpc::RpcClient downstream({{"127.0.0.1", port}}, rpc::Protocol::kXmlRpc, copts);
        return downstream.call("backend.remaining", {});
      });
  rpc::RpcServer frontend(frontend_dispatcher, rpc::ServerOptions{0, 2});
  auto frontend_port = frontend.start();
  ASSERT_TRUE(frontend_port.is_ok());

  rpc::ClientOptions copts;
  copts.clock = &steady;
  rpc::RpcClient client({{"127.0.0.1", frontend_port.value()}}, rpc::Protocol::kXmlRpc, copts);
  rpc::CallOptions opts;
  opts.deadline_ms = 500;
  const auto r = client.call("frontend.op", {}, opts);
  frontend.stop();
  backend.stop();

  ASSERT_TRUE(r.is_ok()) << r.status().message();
  const std::int64_t remaining = r.value().as_int();
  // Virtual time makes the arithmetic exact: 500ms stamped by the client,
  // 30ms burned by the frontend, 470ms forwarded on the downstream header.
  EXPECT_EQ(remaining, 470);
}

TEST(DeadlineClient, ExpiredAmbientDeadlineFailsWithoutAnAttempt) {
  rpc::RpcClient client("127.0.0.1", 1);  // never contacted
  rpc::DeadlineScope expired(rpc::steady_now_us() - 1000);
  const auto r = client.call("any.op", {});
  ASSERT_FALSE(r.is_ok());
  EXPECT_EQ(r.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(client.metrics().counter("rpc.client.attempts").value(), 0u);
  EXPECT_EQ(client.metrics().counter("rpc.client.deadline_exceeded").value(), 1u);
}

TEST(RetryBudgetClient, BudgetExhaustionStopsRetryStorm) {
  // A port with nothing listening: every attempt fails UNAVAILABLE
  // (retryable). The shared budget allows exactly one retry.
  std::uint16_t closed_port;
  {
    rpc::RpcServer server(std::make_shared<rpc::Dispatcher>(), rpc::ServerOptions{0, 1});
    auto port = server.start();
    ASSERT_TRUE(port.is_ok());
    closed_port = port.value();
    server.stop();
  }
  RetryBudget budget(RetryBudgetOptions{0.0, 1.0});
  rpc::ClientOptions copts;
  copts.sleep_ms = [](int) {};  // no real backoff sleeps
  rpc::RpcClient client({{"127.0.0.1", closed_port}}, rpc::Protocol::kXmlRpc, copts);
  rpc::CallOptions opts;
  opts.retry.max_attempts = 5;
  opts.retry.budget = &budget;
  const auto r = client.call("any.op", {}, opts);
  ASSERT_FALSE(r.is_ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(client.metrics().counter("rpc.client.attempts").value(), 2u);  // 1 fresh + 1 budgeted retry
  EXPECT_EQ(client.metrics().snapshot().counter_sum("rpc.client.", ".retries"), 1u);
  EXPECT_EQ(client.metrics().counter("rpc.client.retry_budget_exhausted").value(), 1u);
  EXPECT_EQ(budget.exhausted(), 1u);
}

// ---------------------------------------------------------------------------
// 503 sheds on the wire
// ---------------------------------------------------------------------------

/// A server with a single admission slot plus a handler that parks inside it,
/// so every further request is deterministically shed.
class ShedTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto dispatcher = std::make_shared<rpc::Dispatcher>();
    dispatcher->register_method("block.op",
                                [this](const Array&, const CallContext&) -> Result<Value> {
                                  std::unique_lock<std::mutex> lock(mutex_);
                                  entered_ = true;
                                  cv_.notify_all();
                                  cv_.wait(lock, [this] { return release_; });
                                  return Value(static_cast<std::int64_t>(1));
                                });
    dispatcher->register_method("echo.op", [](const Array&, const CallContext&) -> Result<Value> {
      return Value(static_cast<std::int64_t>(1));
    });
    AdmissionOptions aopts;
    aopts.min_limit = aopts.initial_limit = aopts.max_limit = 1;
    aopts.tier_fraction = {1.0, 1.0, 1.0};
    admission_ = std::make_unique<AdmissionController>(wall_, aopts);
    rpc::ServerOptions sopts;
    sopts.port = 0;
    sopts.num_workers = 3;
    sopts.connection.admission = admission_.get();
    server_ = std::make_unique<rpc::RpcServer>(dispatcher, sopts);
    auto port = server_->start();
    ASSERT_TRUE(port.is_ok());
    port_ = port.value();

    // Occupy the only slot and wait until the handler holds its ticket.
    blocker_ = std::thread([this] {
      rpc::RpcClient c("127.0.0.1", port_);
      rpc::CallOptions opts;
      opts.retry = RetryPolicy::none();
      (void)c.call("block.op", {}, opts);
    });
    std::unique_lock<std::mutex> lock(mutex_);
    ASSERT_TRUE(cv_.wait_for(lock, std::chrono::seconds(5), [this] { return entered_; }));
  }

  void TearDown() override {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      release_ = true;
    }
    cv_.notify_all();
    if (blocker_.joinable()) blocker_.join();
    server_->stop();
  }

  /// Reads exactly one HTTP response (headers + content-length body).
  static std::string read_response(net::TcpStream& conn) {
    std::string data;
    char buf[4096];
    std::size_t header_end = std::string::npos;
    while ((header_end = data.find("\r\n\r\n")) == std::string::npos) {
      auto r = conn.read_some(buf, sizeof(buf));
      if (!r.is_ok() || r.value() == 0) return data;
      data.append(buf, r.value());
    }
    const std::size_t body_len = content_length(data);
    while (data.size() < header_end + 4 + body_len) {
      auto r = conn.read_some(buf, sizeof(buf));
      if (!r.is_ok() || r.value() == 0) break;
      data.append(buf, r.value());
    }
    return data;
  }

  static std::size_t content_length(const std::string& resp) {
    // Case-insensitive-enough header scan ("content-length" vs "Content-Length").
    std::size_t pos = resp.find("ontent-length:");
    if (pos == std::string::npos) return 0;
    pos = resp.find(':', pos) + 1;
    return static_cast<std::size_t>(std::strtoul(resp.c_str() + pos, nullptr, 10));
  }

  std::string shed_request(const std::string& extra_headers = "") const {
    const std::string body = rpc::xmlrpc::encode_call("echo.op", {Value(static_cast<std::int64_t>(1))});
    return "POST /rpc HTTP/1.1\r\ncontent-type: text/xml\r\n" + extra_headers +
           "content-length: " + std::to_string(body.size()) + "\r\n\r\n" + body;
  }

  WallClock wall_;
  std::unique_ptr<AdmissionController> admission_;
  std::unique_ptr<rpc::RpcServer> server_;
  std::uint16_t port_ = 0;
  std::thread blocker_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool entered_ = false;
  bool release_ = false;
};

TEST_F(ShedTest, ShedResponseIsWellFormed503AndKeepsTheConnection) {
  auto conn = net::TcpStream::connect("127.0.0.1", port_);
  ASSERT_TRUE(conn.is_ok());
  conn.value().set_recv_timeout_ms(2000);

  // First request on a keep-alive connection: shed, but the connection and
  // the framing both survive.
  conn.value().write_all(shed_request());
  const std::string first = read_response(conn.value());
  ASSERT_NE(first.find("HTTP/1.1 503"), std::string::npos) << first;
  const std::size_t header_end = first.find("\r\n\r\n");
  ASSERT_NE(header_end, std::string::npos);
  const std::string body = first.substr(header_end + 4);
  EXPECT_EQ(body.size(), content_length(first));
  EXPECT_NE(body.find("fault"), std::string::npos);
  // Fault code 100 + kResourceExhausted: clients map it back to the code.
  EXPECT_NE(body.find(std::to_string(rpc::status_to_fault_code(StatusCode::kResourceExhausted))),
            std::string::npos);

  // The same connection accepts a second request (keep-alive preserved).
  conn.value().write_all(shed_request("connection: close\r\n"));
  const std::string second = read_response(conn.value());
  EXPECT_NE(second.find("HTTP/1.1 503"), std::string::npos);
  EXPECT_EQ(server_->requests_shed(), 2u);
}

TEST_F(ShedTest, ClientClassifiesShedAsRetryableResourceExhausted) {
  rpc::RpcClient client("127.0.0.1", port_);
  rpc::CallOptions opts;
  opts.retry = RetryPolicy::none();
  const auto r = client.call("echo.op", {Value(static_cast<std::int64_t>(1))}, opts);
  ASSERT_FALSE(r.is_ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
  EXPECT_TRUE(RetryPolicy::is_retryable(r.status().code()));
  EXPECT_EQ(client.metrics().counter("rpc.client.shed_rejections").value(), 1u);
  // The breaker must not count a shed as endpoint failure (the server is
  // healthy, just full): the endpoint stays closed/usable.
  EXPECT_EQ(client.breaker_state(0), CircuitBreaker::State::kClosed);
}

// ---------------------------------------------------------------------------
// Live storm: shed order under real concurrency
// ---------------------------------------------------------------------------

TEST(OverloadStorm, CriticalTierOutlivesBulkUnderStorm) {
  auto dispatcher = std::make_shared<rpc::Dispatcher>();
  dispatcher->register_method("work.op", [](const Array&, const CallContext&) -> Result<Value> {
    return Value(static_cast<std::int64_t>(1));
  });
  WallClock wall;
  AdmissionOptions aopts;
  aopts.min_limit = aopts.initial_limit = aopts.max_limit = 2;  // fixed limit
  aopts.tier_fraction = {1.0, 0.75, 0.5};  // ceilings 2 / 1.5 / 1
  AdmissionController admission(wall, aopts);
  rpc::ServerOptions sopts;
  sopts.port = 0;
  sopts.num_workers = 4;
  sopts.connection.admission = &admission;
  rpc::RpcServer server(dispatcher, sopts);
  auto port = server.start();
  ASSERT_TRUE(port.is_ok());

  // Pin one admitted ticket for the whole storm: bulk's ceiling (1) is then
  // permanently saturated while control's ceiling (2) still has a free slot.
  // This replaces handler sleep-induced contention, whose shed pattern
  // depended on scheduler timing, with a deterministic occupancy.
  ASSERT_TRUE(admission.try_admit(Criticality::kControl));

  constexpr int kThreadsPerTier = 4;
  constexpr int kCallsPerThread = 20;
  std::atomic<int> successes[kCriticalityTiers] = {};
  std::vector<std::thread> threads;
  for (int tier = 0; tier < kCriticalityTiers; ++tier) {
    for (int t = 0; t < kThreadsPerTier; ++t) {
      threads.emplace_back([&, tier] {
        for (int i = 0; i < kCallsPerThread; ++i) {
          // Connect-per-call: keep-alive would pin a worker per client and
          // turn this into a connection test rather than an admission test.
          rpc::RpcClient client("127.0.0.1", port.value());
          rpc::CallOptions opts;
          opts.retry = RetryPolicy::none();
          opts.tier = static_cast<Criticality>(tier);
          if (client.call("work.op", {}, opts).is_ok()) ++successes[tier];
        }
      });
    }
  }
  for (auto& t : threads) t.join();
  admission.release();
  server.stop();

  const int control = successes[static_cast<int>(Criticality::kControl)].load();
  const int bulk = successes[static_cast<int>(Criticality::kBulk)].load();
  // Every bulk request that reached the server was shed at its saturated
  // ceiling; control still got through on the remaining slot.
  EXPECT_GT(server.requests_shed(), 0u);
  EXPECT_GT(control, 0);
  EXPECT_EQ(bulk, 0);
}

// ---------------------------------------------------------------------------
// Brownout degraded modes of the service bindings
// ---------------------------------------------------------------------------

/// Forces brownout by parking one admitted ticket in a single-slot
/// controller (load 1.0 >= brownout_load).
struct ForcedBrownout {
  explicit ForcedBrownout(AdmissionController& c) : controller(c) {
    held = controller.try_admit(Criticality::kControl);
  }
  ~ForcedBrownout() {
    if (held) controller.release();
  }
  AdmissionController& controller;
  bool held = false;
};

AdmissionOptions single_slot_options() {
  AdmissionOptions o;
  o.min_limit = o.initial_limit = o.max_limit = 1;
  o.tier_fraction = {1.0, 1.0, 1.0};
  return o;
}

TEST(BrownoutBinding, EstimatorFallsBackToCheapMeanEstimate) {
  sim::Simulation sim;
  sim::Grid grid;
  grid.add_site("site-a").add_node("a0", 1.0, nullptr);
  exec::ExecutionService exec(sim, grid, "site-a");
  const std::map<std::string, std::string> attrs = {
      {"executable", "reco"}, {"login", "alice"}, {"queue", "q"}, {"nodes", "1"}};
  auto runtime = std::make_shared<estimators::RuntimeEstimator>(
      std::make_shared<estimators::TaskHistoryStore>());
  for (int i = 0; i < 4; ++i) runtime->record(attrs, 120.0, 0);
  estimators::TransferEstimatorOptions topts;
  topts.probe_noise = 0.0;
  estimators::EstimatorService service(
      std::make_shared<estimators::EstimateDatabase>(),
      std::make_unique<estimators::FileTransferEstimator>(grid, topts));
  service.add_site("site-a", runtime, &exec);

  ManualClock host_clock;
  clarens::HostOptions hopts;
  hopts.require_auth = false;
  clarens::ClarensHost host("est-host", host_clock, hopts);
  WallClock wall;
  AdmissionController admission(wall, single_slot_options());
  telemetry::MetricsRegistry metrics;
  estimators::register_estimator_methods(host, service, nullptr, &metrics, &admission);

  Struct attrs_value;
  for (const auto& [k, v] : attrs) attrs_value[k] = Value(v);
  const Array params = {Value(std::string("site-a")), Value(attrs_value)};

  // Healthy: full similarity-matched estimate, marked degraded=false.
  auto healthy = host.call("estimator.runtime", params);
  ASSERT_TRUE(healthy.is_ok()) << healthy.status().message();
  EXPECT_FALSE(healthy.value().get_bool("degraded", true));

  // Browned out: the cheap history-mean estimate, explicitly marked.
  ForcedBrownout brownout(admission);
  ASSERT_TRUE(brownout.held);
  auto degraded = host.call("estimator.runtime", params);
  ASSERT_TRUE(degraded.is_ok()) << degraded.status().message();
  EXPECT_TRUE(degraded.value().get_bool("degraded", false));
  EXPECT_EQ(degraded.value().get_string("template", ""), "*");
  EXPECT_NEAR(degraded.value().get_double("seconds", 0.0), 120.0, 1e-9);
  EXPECT_EQ(metrics.counter("estimator.brownout_fallbacks").value(), 1u);
}

TEST(BrownoutBinding, JobMonServesBoundedStalenessSnapshot) {
  sim::Simulation sim;
  sim::Grid grid;
  grid.add_site("site-a").add_node("a0", 1.0, nullptr);
  exec::ExecutionService exec(sim, grid, "site-a");
  monalisa::Repository monitoring;
  auto estimates = std::make_shared<estimators::EstimateDatabase>();
  jobmon::JobMonitoringService jms(sim.clock(), &monitoring, estimates);
  jms.attach_site("site-a", &exec);
  estimates->put("t1", 120.0);
  exec::TaskSpec spec;
  spec.id = "t1";
  spec.job_id = "job-1";
  spec.owner = "alice";
  spec.work_seconds = 100;
  ASSERT_TRUE(exec.submit(spec).is_ok());
  sim.run_until(from_seconds(30));  // t1 is RUNNING

  ManualClock host_clock;
  clarens::HostOptions hopts;
  hopts.require_auth = false;
  clarens::ClarensHost host("jm-host", host_clock, hopts);
  WallClock wall;
  AdmissionController admission(wall, single_slot_options());
  telemetry::MetricsRegistry metrics;
  // Staleness window far beyond the test duration: the snapshot taken under
  // brownout must keep serving even as the live world moves on.
  jobmon::register_jobmon_methods(host, jms, nullptr, &metrics, &admission, 60'000);

  // Healthy reads are live and say so.
  auto live = host.call("jobmon.info", {Value(std::string("t1"))});
  ASSERT_TRUE(live.is_ok());
  EXPECT_FALSE(live.value().get_bool("stale", true));
  EXPECT_EQ(live.value().get_string("status", ""), "RUNNING");

  ForcedBrownout brownout(admission);
  ASSERT_TRUE(brownout.held);
  auto cached = host.call("jobmon.info", {Value(std::string("t1"))});
  ASSERT_TRUE(cached.is_ok());
  EXPECT_TRUE(cached.value().get_bool("stale", false));
  EXPECT_EQ(cached.value().get_string("status", ""), "RUNNING");
  EXPECT_GE(metrics.counter("jobmon.brownout_cached").value(), 1u);

  // Unknown ids miss the snapshot with a distinguishable NOT_FOUND.
  auto miss = host.call("jobmon.info", {Value(std::string("ghost"))});
  EXPECT_EQ(miss.status().code(), StatusCode::kNotFound);

  // The live world moves on (t1 finishes) but the snapshot, still within its
  // staleness window, keeps answering with the state it captured.
  sim.run_until(from_seconds(500));
  const std::string live_state = jms.status("t1").value();
  EXPECT_NE(live_state, "RUNNING");
  auto stale_status = host.call("jobmon.status", {Value(std::string("t1"))});
  ASSERT_TRUE(stale_status.is_ok());
  EXPECT_EQ(stale_status.value().as_string(), "RUNNING");
}

}  // namespace
}  // namespace gae
