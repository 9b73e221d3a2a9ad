// RetryPolicy backoff schedule, RpcClient deadline budgets, and the
// CircuitBreaker state machine — all under a virtual clock, so every
// assertion is exact and repeatable.
#include <gtest/gtest.h>

#include <vector>

#include "common/clock.h"
#include "common/retry.h"
#include "rpc/client.h"
#include "rpc/server.h"

namespace gae {
namespace {

// ---------------------------------------------------------------------------
// RetryPolicy
// ---------------------------------------------------------------------------

TEST(RetryPolicyTest, ExactExponentialWithoutJitter) {
  RetryPolicy p;
  p.initial_backoff_ms = 100;
  p.backoff_multiplier = 2.0;
  p.max_backoff_ms = 10'000;
  p.jitter_fraction = 0.0;
  EXPECT_EQ(p.backoff_ms(1), 100);
  EXPECT_EQ(p.backoff_ms(2), 200);
  EXPECT_EQ(p.backoff_ms(3), 400);
  EXPECT_EQ(p.backoff_ms(4), 800);
  EXPECT_EQ(p.backoff_ms(5), 1600);
}

TEST(RetryPolicyTest, BackoffCappedAtMax) {
  RetryPolicy p;
  p.initial_backoff_ms = 100;
  p.backoff_multiplier = 10.0;
  p.max_backoff_ms = 700;
  p.jitter_fraction = 0.0;
  EXPECT_EQ(p.backoff_ms(1), 100);
  EXPECT_EQ(p.backoff_ms(2), 700);
  EXPECT_EQ(p.backoff_ms(3), 700);
  EXPECT_EQ(p.backoff_ms(9), 700);
}

TEST(RetryPolicyTest, JitterStaysInBoundsAndIsDeterministic) {
  RetryPolicy p;
  p.initial_backoff_ms = 100;
  p.backoff_multiplier = 2.0;
  p.max_backoff_ms = 10'000;
  p.jitter_fraction = 0.25;
  p.jitter_seed = 42;

  RetryPolicy same = p;
  int nominal = 100;
  for (int attempt = 1; attempt <= 7; ++attempt) {
    const int b = p.backoff_ms(attempt);
    // The drawn offset is in [-0.25, +0.25] * nominal (integer truncation
    // gets one millisecond of slack).
    EXPECT_GE(b, nominal * 3 / 4 - 1) << "attempt " << attempt;
    EXPECT_LE(b, nominal * 5 / 4 + 1) << "attempt " << attempt;
    // Pure function of (policy, attempt): replaying gives the same schedule.
    EXPECT_EQ(b, same.backoff_ms(attempt));
    nominal = std::min(nominal * 2, p.max_backoff_ms);
  }
}

TEST(RetryPolicyTest, DifferentSeedsGiveDifferentSchedules) {
  RetryPolicy a;
  a.jitter_fraction = 0.5;
  a.jitter_seed = 1;
  RetryPolicy b = a;
  b.jitter_seed = 2;
  bool differs = false;
  for (int attempt = 1; attempt <= 8 && !differs; ++attempt) {
    differs = a.backoff_ms(attempt) != b.backoff_ms(attempt);
  }
  EXPECT_TRUE(differs);
}

TEST(RetryPolicyTest, NonePolicyNeverRetries) {
  const RetryPolicy p = RetryPolicy::none();
  EXPECT_EQ(p.max_attempts, 1);
  EXPECT_EQ(p.backoff_ms(1), 0);
}

TEST(RetryPolicyTest, RetryableClassification) {
  EXPECT_TRUE(RetryPolicy::is_retryable(StatusCode::kUnavailable));
  EXPECT_TRUE(RetryPolicy::is_retryable(StatusCode::kDeadlineExceeded));
  EXPECT_TRUE(RetryPolicy::is_retryable(StatusCode::kResourceExhausted));

  EXPECT_FALSE(RetryPolicy::is_retryable(StatusCode::kOk));
  EXPECT_FALSE(RetryPolicy::is_retryable(StatusCode::kNotFound));
  EXPECT_FALSE(RetryPolicy::is_retryable(StatusCode::kInvalidArgument));
  EXPECT_FALSE(RetryPolicy::is_retryable(StatusCode::kPermissionDenied));
  EXPECT_FALSE(RetryPolicy::is_retryable(StatusCode::kFailedPrecondition));
  EXPECT_FALSE(RetryPolicy::is_retryable(StatusCode::kInternal));
}

// ---------------------------------------------------------------------------
// CircuitBreaker state machine (virtual time)
// ---------------------------------------------------------------------------

CircuitBreakerOptions small_breaker() {
  CircuitBreakerOptions o;
  o.window_size = 8;
  o.window_ms = 60'000;
  o.failure_rate_threshold = 0.5;
  o.min_samples = 5;
  o.open_cooldown_ms = 5'000;
  o.half_open_probes = 1;
  return o;
}

TEST(CircuitBreakerTest, StaysClosedBelowMinSamples) {
  ManualClock clock;
  CircuitBreaker breaker(clock, small_breaker());
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(breaker.allow());
    breaker.record_failure();
  }
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
  EXPECT_EQ(breaker.opens(), 0u);
  EXPECT_DOUBLE_EQ(breaker.failure_rate(), 1.0);
}

TEST(CircuitBreakerTest, TripsAtFailureRateThreshold) {
  ManualClock clock;
  CircuitBreaker breaker(clock, small_breaker());
  // 2 successes + 3 failures = 5 samples at 60% failure: trips.
  breaker.record_success();
  breaker.record_success();
  breaker.record_failure();
  breaker.record_failure();
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
  breaker.record_failure();
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kOpen);
  EXPECT_EQ(breaker.opens(), 1u);

  EXPECT_FALSE(breaker.allow());
  EXPECT_FALSE(breaker.allow());
  EXPECT_EQ(breaker.rejections(), 2u);
}

TEST(CircuitBreakerTest, CooldownLeadsToHalfOpenAndSuccessCloses) {
  ManualClock clock;
  CircuitBreaker breaker(clock, small_breaker());
  for (int i = 0; i < 5; ++i) breaker.record_failure();
  ASSERT_EQ(breaker.state(), CircuitBreaker::State::kOpen);

  clock.advance_by(4'999 * 1000);
  EXPECT_FALSE(breaker.allow());  // still cooling down

  clock.advance_by(2 * 1000);
  EXPECT_TRUE(breaker.allow());  // the probe
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kHalfOpen);
  EXPECT_FALSE(breaker.allow());  // only one probe admitted

  breaker.record_success();
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
  EXPECT_TRUE(breaker.allow());
  EXPECT_DOUBLE_EQ(breaker.failure_rate(), 0.0);  // history cleared on close
}

TEST(CircuitBreakerTest, HalfOpenProbeFailureReopens) {
  ManualClock clock;
  CircuitBreaker breaker(clock, small_breaker());
  for (int i = 0; i < 5; ++i) breaker.record_failure();
  clock.advance_by(5'001 * 1000);
  ASSERT_TRUE(breaker.allow());
  ASSERT_EQ(breaker.state(), CircuitBreaker::State::kHalfOpen);

  breaker.record_failure();
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kOpen);
  EXPECT_EQ(breaker.opens(), 2u);
  EXPECT_FALSE(breaker.allow());  // cooldown restarted

  clock.advance_by(5'001 * 1000);
  EXPECT_TRUE(breaker.allow());  // probes again after the new cooldown
}

TEST(CircuitBreakerTest, AllProbesMustSucceedToClose) {
  ManualClock clock;
  CircuitBreakerOptions o = small_breaker();
  o.half_open_probes = 2;
  CircuitBreaker breaker(clock, o);
  for (int i = 0; i < 5; ++i) breaker.record_failure();
  clock.advance_by(5'001 * 1000);

  ASSERT_TRUE(breaker.allow());
  ASSERT_TRUE(breaker.allow());
  EXPECT_FALSE(breaker.allow());  // probe budget spent
  breaker.record_success();
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kHalfOpen);  // one more to go
  breaker.record_success();
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
}

TEST(CircuitBreakerTest, StaleOutcomesFallOutOfTheWindow) {
  ManualClock clock;
  CircuitBreakerOptions o = small_breaker();
  o.window_ms = 1'000;
  CircuitBreaker breaker(clock, o);

  for (int i = 0; i < 4; ++i) breaker.record_failure();
  ASSERT_EQ(breaker.state(), CircuitBreaker::State::kClosed);

  // The old failures age out; fresh ones start a new count.
  clock.advance_by(2'000 * 1000);
  breaker.record_failure();
  breaker.record_failure();
  breaker.record_failure();
  breaker.record_failure();
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed) << "stale outcomes counted";
  breaker.record_failure();  // fifth fresh sample: now it trips
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kOpen);
}

// ---------------------------------------------------------------------------
// RpcClient deadline budget + breaker integration (no server listening)
// ---------------------------------------------------------------------------

/// A loopback port with nothing behind it: start a server to reserve a port,
/// then stop it so connects are refused.
std::uint16_t closed_port() {
  auto dispatcher = std::make_shared<rpc::Dispatcher>();
  rpc::RpcServer server(dispatcher, rpc::ServerOptions{0, 1});
  auto port = server.start();
  EXPECT_TRUE(port.is_ok());
  server.stop();
  return port.value_or(1);
}

TEST(RpcClientRetryTest, DeadlineBudgetExhaustedUnderVirtualClock) {
  ManualClock clock;
  rpc::ClientOptions options;
  options.clock = &clock;
  options.sleep_ms = [&clock](int ms) { clock.advance_by(SimTime{ms} * 1000); };
  options.breaker.min_samples = 100;  // keep the breaker out of this test

  rpc::RpcClient client({{"127.0.0.1", closed_port()}}, rpc::Protocol::kXmlRpc, options);

  rpc::CallOptions call;
  call.deadline_ms = 100;
  call.retry.max_attempts = 10;
  call.retry.initial_backoff_ms = 60;
  call.retry.backoff_multiplier = 2.0;
  call.retry.jitter_fraction = 0.0;

  auto r = client.call("any.method", {}, call);
  ASSERT_FALSE(r.is_ok());
  EXPECT_EQ(r.status().code(), StatusCode::kDeadlineExceeded);

  // Attempt 1 fails (connect refused) at t=0, backoff 60ms fits the 100ms
  // budget; attempt 2 fails at t=60 and the next backoff (120ms) overshoots
  // the ~40ms left, so it is clamped to 39ms — leaving 1ms for attempt 3 at
  // t=99, after which no further attempt fits. (The clamp means a backoff
  // larger than the remaining budget shortens the sleep instead of
  // abandoning budget the call could still use.)
  EXPECT_EQ(client.metrics().counter("rpc.client.attempts").value(), 3u);
  EXPECT_EQ(client.metrics().snapshot().counter_sum("rpc.client.", ".retries"), 2u);
  EXPECT_GE(client.metrics().counter("rpc.client.deadline_exceeded").value(), 1u);
  EXPECT_EQ(client.metrics().counter("rpc.client.failed_calls").value(), 1u);
}

TEST(RpcClientRetryTest, BreakerOpensAfterRepeatedConnectFailuresThenProbes) {
  ManualClock clock;
  rpc::ClientOptions options;
  options.clock = &clock;
  options.sleep_ms = [&clock](int ms) { clock.advance_by(SimTime{ms} * 1000); };
  options.breaker.min_samples = 2;
  options.breaker.window_size = 8;
  options.breaker.failure_rate_threshold = 0.5;
  options.breaker.open_cooldown_ms = 1'000;
  options.default_call.retry = RetryPolicy::none();

  rpc::RpcClient client({{"127.0.0.1", closed_port()}}, rpc::Protocol::kXmlRpc, options);

  // Two refused connects trip the breaker.
  EXPECT_FALSE(client.call("m", {}).is_ok());
  EXPECT_FALSE(client.call("m", {}).is_ok());
  EXPECT_EQ(client.breaker_state(0), CircuitBreaker::State::kOpen);

  // While open, calls are rejected locally without touching the network.
  auto rejected = client.call("m", {});
  ASSERT_FALSE(rejected.is_ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kUnavailable);
  EXPECT_NE(rejected.status().message().find("circuit open"), std::string::npos);
  EXPECT_GE(client.metrics().counter("rpc.client.breaker_rejections").value(), 1u);

  // After the cooldown a probe is admitted; it fails, so the breaker reopens.
  clock.advance_by(1'001 * 1000);
  EXPECT_FALSE(client.call("m", {}).is_ok());
  EXPECT_EQ(client.breaker_state(0), CircuitBreaker::State::kOpen);
}

TEST(RpcClientRetryTest, RetryAfterAFailedDialIsChargedToTheDialledEndpoint) {
  ManualClock clock;
  rpc::ClientOptions options;
  options.clock = &clock;
  options.sleep_ms = [&clock](int ms) { clock.advance_by(SimTime{ms} * 1000); };
  options.breaker.min_samples = 1;  // one refused dial opens a breaker
  options.breaker.open_cooldown_ms = 60'000;

  auto dispatcher = std::make_shared<rpc::Dispatcher>();
  dispatcher->register_method("ping", [](const rpc::Array&, const rpc::CallContext&)
                                          -> Result<rpc::Value> { return rpc::Value(true); });
  rpc::RpcServer live(dispatcher, rpc::ServerOptions{0, 1});
  auto live_port = live.start();
  ASSERT_TRUE(live_port.is_ok());
  const std::uint16_t dead_port = closed_port();
  rpc::RpcClient client({{"127.0.0.1", dead_port}, {"127.0.0.1", live_port.value()}},
                        rpc::Protocol::kXmlRpc, options);

  // Endpoint 0 refuses (its breaker opens) and endpoint 1 answers.
  ASSERT_TRUE(client.call("ping", {}).is_ok());
  ASSERT_EQ(client.breaker_state(0), CircuitBreaker::State::kOpen);

  // Now endpoint 1 refuses its dial too: the walk skips open endpoint 0,
  // endpoint 1's dial fails, and the retry that follows is endpoint 1's.
  live.stop();
  client.disconnect();
  rpc::CallOptions call;
  call.retry.max_attempts = 2;
  call.retry.initial_backoff_ms = 1;
  call.retry.jitter_fraction = 0.0;
  EXPECT_FALSE(client.call("ping", {}, call).is_ok());

  const auto retries = [&](std::uint16_t port) {
    return client.metrics()
        .counter("rpc.client.127.0.0.1:" + std::to_string(port) + ".retries")
        .value();
  };
  EXPECT_EQ(retries(live_port.value()), 1u);
  EXPECT_EQ(retries(dead_port), 0u);
  EXPECT_EQ(client.metrics().snapshot().counter_sum("rpc.client.", ".retries"), 1u);
}

}  // namespace
}  // namespace gae
