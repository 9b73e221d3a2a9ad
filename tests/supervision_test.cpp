// Liveness layer unit tests: leased discovery, the registry RPC face,
// heartbeat failure detection, supervised restarts, and breaker-driven
// endpoint re-resolution in the RPC client.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "clarens/host.h"
#include "clarens/registry.h"
#include "clarens/registry_binding.h"
#include "common/clock.h"
#include "common/retry.h"
#include "monalisa/repository.h"
#include "rpc/client.h"
#include "rpc/server.h"
#include "supervision/failure_detector.h"
#include "supervision/supervisor.h"
#include "telemetry/metrics.h"

namespace gae {
namespace {

using clarens::Lease;
using clarens::RegistryOptions;
using clarens::ServiceInfo;
using clarens::ServiceRegistry;

ServiceInfo info(const std::string& name, const std::string& host = "127.0.0.1",
                 std::uint16_t port = 8080) {
  ServiceInfo i;
  i.name = name;
  i.host = host;
  i.port = port;
  return i;
}

// ---------------------------------------------------------------------------
// Leased registry
// ---------------------------------------------------------------------------

TEST(RegistryLease, ExpiresAfterTtlAndRenewExtends) {
  ManualClock clock;
  ServiceRegistry reg("host", &clock, RegistryOptions{from_seconds(30)});

  const Lease lease = reg.register_service(info("jobmon@a"));
  EXPECT_EQ(lease.expires_at, from_seconds(30));
  EXPECT_TRUE(reg.lookup("jobmon@a").is_ok());

  clock.advance_by(from_seconds(29));
  ASSERT_TRUE(reg.renew("jobmon@a", lease.id).is_ok());
  clock.advance_by(from_seconds(29));  // t=58 < 29+30: still live
  EXPECT_TRUE(reg.lookup("jobmon@a").is_ok());
  EXPECT_EQ(reg.live_count(), 1u);

  clock.advance_by(from_seconds(2));  // t=60 >= 59: lapsed
  EXPECT_EQ(reg.lookup("jobmon@a").status().code(), StatusCode::kNotFound);
  EXPECT_TRUE(reg.discover("jobmon").empty());
  EXPECT_EQ(reg.live_count(), 0u);
  EXPECT_EQ(reg.local_count(), 1u);  // not yet swept

  // A lapsed lease cannot be renewed back to life.
  EXPECT_EQ(reg.renew("jobmon@a", lease.id).code(), StatusCode::kNotFound);

  EXPECT_EQ(reg.sweep(), 1u);
  EXPECT_EQ(reg.local_count(), 0u);
  EXPECT_EQ(reg.expirations(), 1u);
  auto tomb = reg.tombstone("jobmon@a");
  ASSERT_TRUE(tomb.is_ok());
  EXPECT_EQ(tomb.value(), from_seconds(59));

  // Re-registration clears the tombstone and grants a fresh lease.
  const Lease fresh = reg.register_service(info("jobmon@a"));
  EXPECT_NE(fresh.id, lease.id);
  EXPECT_TRUE(reg.lookup("jobmon@a").is_ok());
  EXPECT_FALSE(reg.tombstone("jobmon@a").is_ok());
}

TEST(RegistryLease, StaleLeaseIdCannotRenewReplacement) {
  ManualClock clock;
  ServiceRegistry reg("host", &clock, RegistryOptions{from_seconds(30)});
  const Lease old_lease = reg.register_service(info("est@a", "10.0.0.1", 1111));
  const Lease new_lease = reg.register_service(info("est@a", "10.0.0.2", 2222));

  // The replaced instance's heartbeats must not keep the new entry alive.
  EXPECT_EQ(reg.renew("est@a", old_lease.id).code(), StatusCode::kFailedPrecondition);
  EXPECT_TRUE(reg.renew("est@a", new_lease.id).is_ok());
  EXPECT_EQ(reg.replacements(), 1u);
  EXPECT_EQ(reg.lookup("est@a").value().host, "10.0.0.2");
}

TEST(RegistryLease, SameEndpointRefreshIsNotAReplacement) {
  ManualClock clock;
  ServiceRegistry reg("host", &clock, RegistryOptions{from_seconds(30)});
  reg.register_service(info("est@a"));
  reg.register_service(info("est@a"));  // same host/port: a refresh
  EXPECT_EQ(reg.replacements(), 0u);
}

TEST(RegistryLease, ClocklessRegistryKeepsImmortalSemantics) {
  ServiceRegistry reg("host");
  const Lease lease = reg.register_service(info("svc"), from_seconds(1));
  EXPECT_EQ(lease.expires_at, kSimTimeNever);
  EXPECT_TRUE(reg.renew("svc", lease.id).is_ok());
  EXPECT_TRUE(reg.lookup("svc").is_ok());
  EXPECT_EQ(reg.sweep(), 0u);
}

TEST(RegistryLease, PeerLookupSkipsExpiredEntries) {
  ManualClock clock;
  ServiceRegistry local("local", &clock, RegistryOptions{from_seconds(10)});
  ServiceRegistry remote("remote", &clock, RegistryOptions{from_seconds(10)});
  local.add_peer(&remote);

  remote.register_service(info("sphinx@b"));
  EXPECT_TRUE(local.lookup("sphinx@b").is_ok());
  EXPECT_EQ(local.discover("sphinx").size(), 1u);

  clock.advance_by(from_seconds(10));
  EXPECT_FALSE(local.lookup("sphinx@b").is_ok());
  EXPECT_TRUE(local.discover("sphinx").empty());
}

TEST(RegistryLease, TombstoneHorizonBoundsTheGraveyard) {
  ManualClock clock;
  telemetry::MetricsRegistry metrics;
  RegistryOptions options;
  options.default_ttl = from_seconds(10);
  options.tombstone_horizon = from_seconds(60);
  options.metrics = &metrics;
  ServiceRegistry reg("host", &clock, options);

  // Churn through three short-lived service names.
  for (int i = 0; i < 3; ++i) {
    reg.register_service(info("ephemeral-" + std::to_string(i)));
  }
  clock.advance_by(from_seconds(10));  // all lapse
  EXPECT_EQ(reg.sweep(), 3u);
  EXPECT_EQ(reg.tombstone_count(), 3u);
  EXPECT_EQ(metrics.snapshot().gauges.at("clarens.registry.tombstones"), 3);

  // Within the horizon the tombstones persist (peers can still learn of the
  // death); past it they are expired and counted.
  clock.advance_by(from_seconds(59));
  reg.sweep();
  EXPECT_EQ(reg.tombstone_count(), 3u);
  clock.advance_by(from_seconds(2));
  reg.sweep();
  EXPECT_EQ(reg.tombstone_count(), 0u);
  EXPECT_EQ(reg.tombstone_expirations(), 3u);
  auto snap = metrics.snapshot();
  EXPECT_EQ(snap.counters.at("clarens.registry.tombstones_expired"), 3u);
  EXPECT_EQ(snap.gauges.at("clarens.registry.tombstones"), 0);

  // horizon = 0 keeps the historical keep-forever behaviour.
  ServiceRegistry forever("host2", &clock, RegistryOptions{from_seconds(10)});
  forever.register_service(info("pinned"));
  clock.advance_by(from_seconds(10));
  forever.sweep();
  clock.advance_by(from_seconds(100'000));
  forever.sweep();
  EXPECT_EQ(forever.tombstone_count(), 1u);
  EXPECT_EQ(forever.tombstone_expirations(), 0u);
}

// ---------------------------------------------------------------------------
// registry.* RPC face
// ---------------------------------------------------------------------------

TEST(RegistryBinding, LeaseLifecycleOverRpc) {
  using rpc::Value;
  ManualClock clock;
  clarens::HostOptions options;
  options.require_auth = false;
  options.registry.default_ttl = from_seconds(20);
  clarens::ClarensHost host("gae-host", clock, options);
  clarens::register_registry_methods(host);

  auto lease = host.call("registry.register",
                         {Value("jobmon@a"), Value("127.0.0.1"), Value(9000)});
  ASSERT_TRUE(lease.is_ok()) << lease.status();
  const std::int64_t lease_id = lease.value().get_int("lease_id", 0);
  EXPECT_GT(lease_id, 0);
  EXPECT_DOUBLE_EQ(lease.value().get_double("expires_at_s", 0), 20.0);

  auto found = host.call("registry.lookup", {Value("jobmon@a")});
  ASSERT_TRUE(found.is_ok());
  EXPECT_EQ(found.value().get_string("host", ""), "127.0.0.1");
  EXPECT_EQ(found.value().get_int("port", 0), 9000);

  // Heartbeat over the wire face keeps the lease alive...
  clock.advance_by(from_seconds(15));
  ASSERT_TRUE(host.call("registry.renew", {Value("jobmon@a"), Value(lease_id)}).is_ok());
  clock.advance_by(from_seconds(15));
  EXPECT_TRUE(host.call("registry.lookup", {Value("jobmon@a")}).is_ok());

  // ...and silence lets it lapse.
  clock.advance_by(from_seconds(20));
  EXPECT_EQ(host.call("registry.lookup", {Value("jobmon@a")}).status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(host.call("registry.renew", {Value("jobmon@a"), Value(lease_id)})
                .status()
                .code(),
            StatusCode::kNotFound);

  // Discover returns only live entries.
  host.call("registry.register", {Value("est@a"), Value("127.0.0.1"), Value(9001)});
  auto all = host.call("registry.discover", {});
  ASSERT_TRUE(all.is_ok());
  EXPECT_EQ(all.value().as_array().size(), 1u);

  ASSERT_TRUE(host.call("registry.deregister", {Value("est@a")}).is_ok());
  EXPECT_TRUE(host.call("registry.discover", {}).value().as_array().empty());
}

TEST(RegistryBinding, LookupIsAnonymousButRegistrationIsGated) {
  using rpc::Value;
  ManualClock clock;
  clarens::ClarensHost host("gae-host", clock);  // require_auth = true
  clarens::register_registry_methods(host);
  host.registry().register_service(info("jobmon@a"));

  // Clarens exposed anonymous lookup; mutations need a session.
  EXPECT_TRUE(host.call("registry.lookup", {Value("jobmon@a")}).is_ok());
  EXPECT_TRUE(host.call("registry.discover", {}).is_ok());
  EXPECT_EQ(host.call("registry.register",
                      {Value("rogue"), Value("10.0.0.1"), Value(1)})
                .status()
                .code(),
            StatusCode::kUnauthenticated);
  EXPECT_EQ(host.call("registry.deregister", {Value("jobmon@a")}).status().code(),
            StatusCode::kUnauthenticated);
}

// ---------------------------------------------------------------------------
// Failure detector
// ---------------------------------------------------------------------------

TEST(FailureDetectorTest, GradesAliveSuspectDeadAgainstMissedBeats) {
  ManualClock clock;
  monalisa::Repository monitoring;
  supervision::FailureDetectorOptions options;
  options.heartbeat_interval = from_seconds(5);
  options.suspect_after_missed = 1;
  options.dead_after_missed = 3;
  supervision::FailureDetector detector(clock, options, &monitoring);

  detector.watch("jobmon@a");
  EXPECT_EQ(detector.liveness("jobmon@a"), supervision::Liveness::kAlive);
  EXPECT_EQ(detector.liveness("never-watched"), supervision::Liveness::kDead);

  clock.advance_by(from_seconds(4));
  detector.heartbeat("jobmon@a");
  clock.advance_by(from_seconds(4));
  EXPECT_EQ(detector.missed_heartbeats("jobmon@a"), 0);
  EXPECT_EQ(detector.liveness("jobmon@a"), supervision::Liveness::kAlive);

  clock.advance_by(from_seconds(2));  // 6 s silent: one missed beat
  EXPECT_EQ(detector.missed_heartbeats("jobmon@a"), 1);
  EXPECT_EQ(detector.liveness("jobmon@a"), supervision::Liveness::kSuspect);
  EXPECT_TRUE(detector.check().empty());  // suspect is not dead
  EXPECT_DOUBLE_EQ(monitoring.latest("jobmon@a", "liveness").value().value, 0.5);

  clock.advance_by(from_seconds(10));  // 16 s silent: three missed beats
  auto dead = detector.check();
  ASSERT_EQ(dead.size(), 1u);
  EXPECT_EQ(dead[0], "jobmon@a");
  EXPECT_DOUBLE_EQ(monitoring.latest("jobmon@a", "liveness").value().value, 0.0);

  // Death is edge-triggered: a second check reports nothing new.
  EXPECT_TRUE(detector.check().empty());

  // A heartbeat resurrects the service.
  detector.heartbeat("jobmon@a");
  EXPECT_EQ(detector.liveness("jobmon@a"), supervision::Liveness::kAlive);
  EXPECT_TRUE(detector.check().empty());
  EXPECT_DOUBLE_EQ(monitoring.latest("jobmon@a", "liveness").value().value, 1.0);
}

TEST(FailureDetectorTest, VerdictListenerSeesTransitions) {
  ManualClock clock;
  supervision::FailureDetector detector(clock, {from_seconds(5), 1, 2});
  std::vector<std::pair<std::string, supervision::Liveness>> verdicts;
  detector.set_verdict_listener(
      [&](const std::string& s, supervision::Liveness l) { verdicts.emplace_back(s, l); });

  detector.watch("svc");
  clock.advance_by(from_seconds(6));
  detector.check();  // alive -> suspect
  clock.advance_by(from_seconds(6));
  detector.check();  // suspect -> dead
  ASSERT_EQ(verdicts.size(), 2u);
  EXPECT_EQ(verdicts[0].second, supervision::Liveness::kSuspect);
  EXPECT_EQ(verdicts[1].second, supervision::Liveness::kDead);

  detector.forget("svc");
  EXPECT_EQ(detector.watched_count(), 0u);
}

TEST(FailureDetectorTest, DebounceSuppressesFlappingDeathVerdicts) {
  // A service whose heartbeat squeaks in just past the deadline grades dead
  // on one check and alive on the next. Without debouncing every such flap
  // fires a death verdict (and, downstream, a spurious standby promotion).
  ManualClock clock;
  supervision::FailureDetectorOptions options;
  options.heartbeat_interval = from_seconds(5);
  options.suspect_after_missed = 1;
  options.dead_after_missed = 3;
  options.dead_debounce_checks = 2;
  supervision::FailureDetector detector(clock, options);
  detector.watch("svc");

  // Flap: silent long enough to grade dead, then the late beat lands.
  clock.advance_by(from_seconds(16));  // three missed beats: raw-dead
  EXPECT_TRUE(detector.check().empty());  // first dead grade is debounced
  EXPECT_EQ(detector.liveness("svc"), supervision::Liveness::kSuspect);
  detector.heartbeat("svc");  // the straggler arrives: streak resets
  EXPECT_EQ(detector.liveness("svc"), supervision::Liveness::kAlive);
  EXPECT_TRUE(detector.check().empty());

  // Repeat the flap: still no death verdict — that's the hysteresis.
  clock.advance_by(from_seconds(16));
  EXPECT_TRUE(detector.check().empty());
  detector.heartbeat("svc");
  EXPECT_TRUE(detector.check().empty());

  // A real death: two consecutive dead grades with no beat between them.
  clock.advance_by(from_seconds(16));
  EXPECT_TRUE(detector.check().empty());   // debounce check 1
  auto dead = detector.check();            // debounce check 2: published
  ASSERT_EQ(dead.size(), 1u);
  EXPECT_EQ(dead[0], "svc");
  EXPECT_EQ(detector.liveness("svc"), supervision::Liveness::kDead);
}

TEST(FailureDetectorTest, DefaultDebounceKeepsHistoricalSingleCheckDeath) {
  ManualClock clock;
  supervision::FailureDetector detector(clock, {from_seconds(5), 1, 3});
  detector.watch("svc");
  clock.advance_by(from_seconds(16));
  EXPECT_EQ(detector.check().size(), 1u);  // dies on the first dead grade
}

// ---------------------------------------------------------------------------
// Supervisor
// ---------------------------------------------------------------------------

TEST(SupervisorTest, RestartsDeadServiceAfterBackoff) {
  ManualClock clock;
  monalisa::Repository monitoring;
  supervision::FailureDetector detector(clock, {from_seconds(5), 1, 2});
  supervision::SupervisorOptions options;
  options.restart_backoff = RetryPolicy{3, 1000, 2.0, 60'000, 0.0, 1};
  telemetry::MetricsRegistry metrics;
  supervision::Supervisor supervisor(clock, options, &monitoring, &metrics);

  int restarts = 0;
  supervisor.manage({"jobmon@a", [&]() -> Status {
                       ++restarts;
                       return Status::ok();
                     }});
  supervisor.attach(detector);
  detector.watch("jobmon@a");

  clock.advance_by(from_seconds(11));  // two missed beats: dead
  detector.check();                    // verdict feeds the supervisor
  EXPECT_TRUE(supervisor.restart_pending("jobmon@a"));
  EXPECT_EQ(supervisor.tick(), 0u);  // backoff (1 s) not yet elapsed
  EXPECT_EQ(restarts, 0);

  clock.advance_by(from_millis(1000));
  EXPECT_EQ(supervisor.tick(), 1u);
  EXPECT_EQ(restarts, 1);
  EXPECT_FALSE(supervisor.restart_pending("jobmon@a"));
  EXPECT_EQ(metrics.counter("supervision.deaths").value(), 1u);
  EXPECT_EQ(metrics.counter("supervision.restarts_succeeded").value(), 1u);

  // The restart re-armed the watch with a fresh baseline.
  EXPECT_EQ(detector.liveness("jobmon@a"), supervision::Liveness::kAlive);
}

TEST(SupervisorTest, BacksOffAndEventuallyGivesUp) {
  ManualClock clock;
  supervision::SupervisorOptions options;
  options.restart_backoff = RetryPolicy{3, 1000, 2.0, 60'000, 0.0, 1};
  telemetry::MetricsRegistry metrics;
  supervision::Supervisor supervisor(clock, options, nullptr, &metrics);

  int attempts = 0;
  supervisor.manage({"flappy", [&]() -> Status {
                       ++attempts;
                       return unavailable_error("still down");
                     }});
  supervisor.on_service_dead("flappy");
  supervisor.on_service_dead("flappy");  // idempotent while pending
  EXPECT_EQ(metrics.counter("supervision.deaths").value(), 2u);

  // Attempts run at +1 s, then +2 s, then +4 s (capped exponential).
  clock.advance_by(from_millis(1000));
  EXPECT_EQ(supervisor.tick(), 0u);
  EXPECT_EQ(attempts, 1);
  EXPECT_TRUE(supervisor.restart_pending("flappy"));

  clock.advance_by(from_millis(1999));
  supervisor.tick();
  EXPECT_EQ(attempts, 1);  // second backoff not yet over
  clock.advance_by(from_millis(1));
  supervisor.tick();
  EXPECT_EQ(attempts, 2);

  clock.advance_by(from_millis(4000));
  supervisor.tick();
  EXPECT_EQ(attempts, 3);
  EXPECT_FALSE(supervisor.restart_pending("flappy"));  // gave up
  EXPECT_EQ(metrics.counter("supervision.gave_up").value(), 1u);
  EXPECT_EQ(metrics.counter("supervision.restarts_failed").value(), 3u);

  // Unmanaged names are ignored outright.
  supervisor.on_service_dead("unknown");
  EXPECT_FALSE(supervisor.restart_pending("unknown"));
}

// ---------------------------------------------------------------------------
// Breaker observability + client endpoint re-resolution
// ---------------------------------------------------------------------------

TEST(CircuitBreakerObservability, SnapshotAndListenerTrackTransitions) {
  ManualClock clock;
  CircuitBreakerOptions options;
  options.min_samples = 2;
  options.failure_rate_threshold = 0.5;
  options.open_cooldown_ms = 1000;
  CircuitBreaker breaker(clock, options);

  std::vector<std::pair<CircuitBreaker::State, CircuitBreaker::State>> transitions;
  breaker.set_transition_listener(
      [&](CircuitBreaker::State from, CircuitBreaker::State to, SimTime) {
        transitions.emplace_back(from, to);
      });

  ASSERT_TRUE(breaker.allow());
  breaker.record_failure();
  ASSERT_TRUE(breaker.allow());
  breaker.record_failure();  // trips
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kOpen);
  EXPECT_FALSE(breaker.allow());  // rejected while open

  clock.advance_by(from_millis(1000));
  ASSERT_TRUE(breaker.allow());  // half-open probe
  breaker.record_success();
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);

  ASSERT_EQ(transitions.size(), 3u);
  EXPECT_EQ(transitions[0].second, CircuitBreaker::State::kOpen);
  EXPECT_EQ(transitions[1].second, CircuitBreaker::State::kHalfOpen);
  EXPECT_EQ(transitions[2].second, CircuitBreaker::State::kClosed);

  const CircuitBreaker::Snapshot snap = breaker.snapshot();
  EXPECT_EQ(snap.state, CircuitBreaker::State::kClosed);
  EXPECT_EQ(snap.opens, 1u);
  EXPECT_EQ(snap.rejections, 1u);
  // Closing from half-open clears the window: the breaker starts fresh.
  EXPECT_EQ(snap.window_samples, 0u);
  EXPECT_DOUBLE_EQ(snap.failure_rate, 0.0);
}

TEST(ClientReResolution, OpenBreakerTriggersRegistryReResolve) {
  // A live backend the registry will eventually point at.
  auto dispatcher = std::make_shared<rpc::Dispatcher>();
  dispatcher->register_method(
      "echo", [](const rpc::Array& params, const rpc::CallContext&) -> Result<rpc::Value> {
        return params.empty() ? rpc::Value() : params.front();
      });
  rpc::RpcServer backend(dispatcher, rpc::ServerOptions{0, 2});
  auto backend_port = backend.start();
  ASSERT_TRUE(backend_port.is_ok());

  // A port that refuses connections: bind a server, note the port, stop it.
  std::uint16_t dead_port = 0;
  {
    rpc::RpcServer doomed(dispatcher, rpc::ServerOptions{0, 1});
    auto p = doomed.start();
    ASSERT_TRUE(p.is_ok());
    dead_port = p.value();
    doomed.stop();
  }

  // The registry initially maps the service to the dead endpoint; the
  // resolver below is what a registry.discover round-trip would return.
  ServiceRegistry registry("client-side");
  registry.register_service(info("jobmon@a", "127.0.0.1", dead_port));

  rpc::ClientOptions options;
  options.default_call.retry.max_attempts = 4;
  options.default_call.retry.initial_backoff_ms = 1;
  options.default_call.retry.max_backoff_ms = 2;
  options.default_call.retry.jitter_fraction = 0.0;
  options.breaker.min_samples = 2;
  options.breaker.failure_rate_threshold = 0.5;
  options.breaker.open_cooldown_ms = 60'000;
  options.resolve_endpoints = [&registry]() {
    std::vector<rpc::Endpoint> endpoints;
    for (const auto& i : registry.discover("jobmon")) {
      endpoints.push_back({i.host, i.port});
    }
    return endpoints;
  };
  std::vector<std::pair<CircuitBreaker::State, CircuitBreaker::State>> transitions;
  options.on_breaker_transition = [&](const rpc::Endpoint&, CircuitBreaker::State from,
                                      CircuitBreaker::State to) {
    transitions.emplace_back(from, to);
  };

  rpc::RpcClient client({{"127.0.0.1", dead_port}}, rpc::Protocol::kXmlRpc, options);

  // The service "moves": a fresh instance registers the live endpoint.
  registry.register_service(info("jobmon@a", "127.0.0.1", backend_port.value()));

  // Connection failures trip the dead endpoint's breaker; the open
  // transition flags a re-resolve, and the retry loop finishes the same
  // call against the freshly discovered endpoint.
  auto r = client.call("echo", {rpc::Value(std::int64_t{7})});
  ASSERT_TRUE(r.is_ok()) << r.status();
  EXPECT_EQ(r.value().as_int(), 7);
  EXPECT_EQ(client.metrics().counter("rpc.client.reresolves").value(), 1u);
  EXPECT_EQ(client.endpoint(0).port, backend_port.value());
  ASSERT_FALSE(transitions.empty());
  EXPECT_EQ(transitions[0].second, CircuitBreaker::State::kOpen);

  // Subsequent calls stick to the healthy endpoint with no further churn.
  ASSERT_TRUE(client.call("echo", {rpc::Value(std::int64_t{8})}).is_ok());
  EXPECT_EQ(client.metrics().counter("rpc.client.reresolves").value(), 1u);
  backend.stop();
}

}  // namespace
}  // namespace gae
