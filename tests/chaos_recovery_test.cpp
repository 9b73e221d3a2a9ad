// Chaos tests: deterministic transport faults against the RPC stack, on live
// TCP and on the simulated network, and steering Backup & Recovery (journal
// included) under simulated failures.
//
// Everything here replays bit-for-bit: transport faults follow a scripted
// plan or a seeded RNG, and the simulation side runs in virtual time.
#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "common/wal.h"
#include "exec/execution_service.h"
#include "dst/sim_host.h"
#include "dst/simnet.h"
#include "rpc/client.h"
#include "rpc/faulty_transport.h"
#include "rpc/server.h"
#include "sim/load.h"
#include "sim/network.h"
#include "steering/journal.h"
#include "steering/service.h"

namespace gae {
namespace {

// ---------------------------------------------------------------------------
// Journal format
// ---------------------------------------------------------------------------

TEST(RecoveryJournal, RecordRoundTripsAwkwardCharacters) {
  steering::JournalRecord rec;
  rec.kind = "watch";
  rec.fields["task"] = "t 1=weird%stuff";
  rec.fields["detail"] = "line\nbreak and = signs";
  rec.fields["executable"] = "run\tme\v--now\f";

  auto parsed = steering::JournalRecord::parse(rec.to_line());
  ASSERT_TRUE(parsed.is_ok()) << parsed.status();
  EXPECT_EQ(parsed.value().kind, "watch");
  EXPECT_EQ(parsed.value().fields, rec.fields);
}

TEST(RecoveryJournal, WireFormatIsStable) {
  // Journals already on disk must keep replaying, so the bytes of a line
  // are pinned here.
  steering::JournalRecord rec;
  rec.kind = "move";
  rec.fields["task"] = "t 1";
  rec.fields["from"] = "site-a";
  rec.fields["to"] = "site=b%";
  rec.fields["detail"] = "a\r\nb";
  EXPECT_EQ(rec.to_line(), "v1 move detail=a%0D%0Ab from=site-a task=t%201 to=site%3Db%25");

  steering::JournalRecord bare;
  bare.kind = "restart";
  EXPECT_EQ(bare.to_line(), "v1 restart");
  auto parsed = steering::JournalRecord::parse("v1 restart");
  ASSERT_TRUE(parsed.is_ok()) << parsed.status();
  EXPECT_EQ(parsed.value().kind, "restart");
  EXPECT_TRUE(parsed.value().fields.empty());
}

TEST(RecoveryJournal, TornTrailingLineIsTolerated) {
  steering::JournalRecord rec;
  rec.kind = "watch";
  rec.fields["task"] = "t1";
  // The line parser is strict: a torn line is malformed wherever it sits.
  const std::vector<std::string> lines = {rec.to_line(), "v1 watch task=t2",
                                          "v1 move task"};  // torn mid-write
  EXPECT_FALSE(steering::parse_journal(lines).is_ok());

  // A crash mid-append tears the journal's last Wal frame instead, and the
  // Wal's framing drops it before any line reaches the parser.
  MemoryWalStorage store;
  Wal wal(&store);
  steering::WalJournalSink sink(&wal);
  ASSERT_TRUE(sink.append(rec.to_line()).is_ok());
  ASSERT_TRUE(sink.append("v1 watch task=t2").is_ok());
  ASSERT_TRUE(sink.append("v1 move task=t2 from=site-a to=site-b").is_ok());
  store.mutable_bytes().resize(store.bytes().size() - 5);
  auto recovered = steering::journal_lines_from_wal(wal);
  ASSERT_TRUE(recovered.is_ok()) << recovered.status();
  auto parsed = steering::parse_journal(recovered.value());
  ASSERT_TRUE(parsed.is_ok()) << parsed.status();
  ASSERT_EQ(parsed.value().size(), 2u);
  EXPECT_EQ(parsed.value()[1].field("task"), "t2");
}

TEST(RecoveryJournal, UnknownVersionRejected) {
  EXPECT_FALSE(steering::JournalRecord::parse("v9 watch task=t1").is_ok());
  EXPECT_FALSE(steering::JournalRecord::parse("v1").is_ok());
}

// ---------------------------------------------------------------------------
// Transport chaos: RpcClient through a FaultyTransport, on live TCP and on
// the simulated network
// ---------------------------------------------------------------------------

/// The service under chaos: counter.incr counts the calls that executed,
/// echo returns its argument.
std::shared_ptr<rpc::Dispatcher> counting_dispatcher(std::atomic<int>& increments) {
  auto dispatcher = std::make_shared<rpc::Dispatcher>();
  dispatcher->register_method(
      "counter.incr",
      [&increments](const rpc::Array&, const rpc::CallContext&) -> Result<rpc::Value> {
        return rpc::Value(static_cast<std::int64_t>(++increments));
      });
  dispatcher->register_method(
      "echo", [](const rpc::Array& params, const rpc::CallContext&) -> Result<rpc::Value> {
        return params.empty() ? rpc::Value() : params.front();
      });
  return dispatcher;
}

/// Client options tuned for tests: fast deterministic backoff, lenient
/// breaker (individual tests override what they probe).
rpc::ClientOptions chaos_client_options() {
  rpc::ClientOptions options;
  options.default_call.retry.max_attempts = 5;
  options.default_call.retry.initial_backoff_ms = 1;
  options.default_call.retry.max_backoff_ms = 5;
  options.default_call.retry.jitter_fraction = 0.0;
  options.breaker.min_samples = 1000;  // out of the way unless a test wants it
  return options;
}

/// Each env hosts the service and says how its own network makes an
/// endpoint unreachable or slow.
class TcpChaosEnv {
 public:
  explicit TcpChaosEnv(std::shared_ptr<rpc::Dispatcher> dispatcher)
      : server_(std::move(dispatcher), rpc::ServerOptions{0, 4}) {
    auto port = server_.start();
    EXPECT_TRUE(port.is_ok()) << port.status();
    port_ = port.value_or(0);
  }

  rpc::Transport& transport() { return rpc::tcp_transport(); }
  rpc::Endpoint server() const { return {"127.0.0.1", port_}; }

  /// A port nobody listens on: a bound-then-closed listener's.
  rpc::Endpoint unreachable() {
    auto dead = transport().listen(0);
    EXPECT_TRUE(dead.is_ok()) << dead.status();
    return {"127.0.0.1", dead.is_ok() ? dead.value()->port() : std::uint16_t{0}};
  }

  /// A peer that never answers: a listener nobody accepts from (the kernel
  /// completes the handshake and buffers the request).
  rpc::Endpoint stalled() {
    auto listener = transport().listen(0);
    EXPECT_TRUE(listener.is_ok()) << listener.status();
    stalled_ = std::move(listener).value();
    return {"127.0.0.1", stalled_->port()};
  }

  /// Live TCP keeps the wall clock and real backoff sleeps.
  void virtualize(rpc::ClientOptions&) {}

 private:
  rpc::RpcServer server_;
  std::uint16_t port_ = 0;
  std::unique_ptr<rpc::Listener> stalled_;
};

class SimChaosEnv {
 public:
  explicit SimChaosEnv(std::shared_ptr<rpc::Dispatcher> dispatcher)
      : net_(/*seed=*/19),
        dispatcher_(std::move(dispatcher)),
        host_(net_, "server", dispatcher_, 0) {
    EXPECT_TRUE(host_.start().is_ok());
  }

  rpc::Transport& transport() { return net_.transport_for("client"); }
  rpc::Endpoint server() const { return {"server", host_.port()}; }

  /// A replica of the service on a host the client is partitioned from.
  rpc::Endpoint unreachable() {
    replica_ = std::make_unique<dst::SimHost>(net_, "server-a", dispatcher_, 0);
    EXPECT_TRUE(replica_->start().is_ok());
    net_.partition("client", "server-a");
    return {"server-a", replica_->port()};
  }

  /// The service behind a link whose latency (1 s of virtual time) outlasts
  /// every deadline the tests set.
  rpc::Endpoint stalled() {
    net_.link().base_latency_us = 1'000'000;
    return server();
  }

  /// The client reads the network's clock, and its backoff sleeps run the
  /// network forward: no wall-clock sleep anywhere.
  void virtualize(rpc::ClientOptions& options) {
    options.clock = &net_.clock();
    options.sleep_ms = [this](int ms) { net_.run_for(static_cast<SimDuration>(ms) * 1000); };
  }

 private:
  dst::SimNetwork net_;
  std::shared_ptr<rpc::Dispatcher> dispatcher_;
  dst::SimHost host_;
  std::unique_ptr<dst::SimHost> replica_;
};

/// What one run of seeded chaos saw.
struct ChaosRun {
  std::map<std::string, std::uint64_t> faults;
  std::uint64_t retries = 0;
  int served = 0;
};

template <typename Env>
class TransportChaos : public ::testing::Test {
 protected:
  TransportChaos() : env_(counting_dispatcher(increments_)) {}

  rpc::ClientOptions options() {
    rpc::ClientOptions options = chaos_client_options();
    env_.virtualize(options);
    return options;
  }

  /// (Re)builds the client under test. It dials `endpoints` (default: the
  /// service) through a FaultyTransport that runs `plan` over the env's
  /// transport.
  rpc::RpcClient& make_client(rpc::FaultPlan plan, rpc::ClientOptions options,
                              std::vector<rpc::Endpoint> endpoints = {}) {
    client_.reset();  // before the transport its pool dials through
    faulty_ = std::make_unique<rpc::FaultyTransport>(&env_.transport(), std::move(plan));
    options.transport = faulty_.get();
    if (endpoints.empty()) endpoints = {env_.server()};
    client_ = std::make_unique<rpc::RpcClient>(std::move(endpoints), rpc::Protocol::kXmlRpc,
                                               std::move(options));
    return *client_;
  }
  rpc::RpcClient& make_client(rpc::FaultPlan plan) {
    return make_client(std::move(plan), options());
  }

  /// 50 idempotent calls through a 30 % fault rate drawn from `seed`.
  ChaosRun seeded_run(std::uint64_t seed) {
    rpc::FaultPlan plan;
    plan.fault_rate = 0.3;
    plan.seed = seed;
    rpc::ClientOptions fresh = options();
    fresh.pool.max_idle = 0;  // every attempt dials: one draw each
    fresh.default_call.retry.initial_backoff_ms = 0;  // retry at once
    auto& client = make_client(plan, fresh);
    ChaosRun run;
    for (int i = 0; i < 50; ++i) {
      if (client.call("echo", {rpc::Value(std::int64_t{i})}).is_ok()) ++run.served;
    }
    run.faults = faulty_->fault_counts();
    run.retries = client.metrics().snapshot().counter_sum("rpc.client.", ".retries");
    return run;
  }

  std::atomic<int> increments_{0};
  Env env_;
  std::unique_ptr<rpc::FaultyTransport> faulty_;
  std::unique_ptr<rpc::RpcClient> client_;
};

using ChaosEnvs = ::testing::Types<TcpChaosEnv, SimChaosEnv>;
TYPED_TEST_SUITE(TransportChaos, ChaosEnvs);

TYPED_TEST(TransportChaos, RetriesThroughScriptedFaultsAndSucceeds) {
  rpc::FaultPlan plan;
  plan.script = {{rpc::FaultKind::kRefuseConnect},
                 {rpc::FaultKind::kGarbage},
                 {rpc::FaultKind::kNone}};
  auto& client = this->make_client(plan);
  auto r = client.call("echo", {rpc::Value(std::int64_t{41})});
  ASSERT_TRUE(r.is_ok()) << r.status();
  EXPECT_EQ(r.value().as_int(), 41);

  // Two faulted connections, then the clean one.
  EXPECT_EQ(client.metrics().snapshot().counter_sum("rpc.client.", ".retries"), 2u);
  EXPECT_EQ(this->faulty_->faults_injected(), 2u);
  auto counts = this->faulty_->fault_counts();
  EXPECT_EQ(counts["refuse-connect"], 1u);
  EXPECT_EQ(counts["garbage"], 1u);
}

TYPED_TEST(TransportChaos, DroppedResponseIsNotRetriedForNonIdempotentCalls) {
  rpc::FaultPlan plan;
  plan.script = {{rpc::FaultKind::kDropResponse}};
  auto& client = this->make_client(plan);
  rpc::CallOptions call = this->options().default_call;
  call.idempotent = false;

  auto r = client.call("counter.incr", {}, call);
  ASSERT_FALSE(r.is_ok());
  EXPECT_EQ(r.status().code(), StatusCode::kUnavailable);
  EXPECT_NE(r.status().message().find("non-idempotent"), std::string::npos);

  // The server executed the call exactly once: the client refused to
  // double-send a request that may already have been applied.
  EXPECT_EQ(this->increments_.load(), 1);
  EXPECT_EQ(client.metrics().counter("rpc.client.attempts").value(), 1u);
}

TYPED_TEST(TransportChaos, DroppedResponseIsRetriedWhenIdempotent) {
  rpc::FaultPlan plan;
  plan.script = {{rpc::FaultKind::kDropResponse}};
  auto& client = this->make_client(plan);
  auto r = client.call("counter.incr", {});  // idempotent by default
  ASSERT_TRUE(r.is_ok()) << r.status();
  // Re-sent after the swallowed response — which is why the default is only
  // safe for idempotent methods (the server ran it twice).
  EXPECT_EQ(this->increments_.load(), 2);
}

TYPED_TEST(TransportChaos, RequestCutMidWriteIsNeverExecuted) {
  rpc::FaultPlan plan;
  plan.script = {{rpc::FaultKind::kDropAfterBytes, 20}};
  auto& client = this->make_client(plan);
  rpc::CallOptions call = this->options().default_call;
  call.idempotent = false;

  auto r = client.call("counter.incr", {}, call);
  ASSERT_FALSE(r.is_ok());
  EXPECT_EQ(r.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(client.metrics().counter("rpc.client.attempts").value(), 1u);
  EXPECT_EQ(this->faulty_->fault_counts()["drop-after-bytes"], 1u);
  // 20 bytes of a request are no request: nothing ran.
  EXPECT_EQ(this->increments_.load(), 0);
}

TYPED_TEST(TransportChaos, IdempotentCallRetriesThroughACutRequest) {
  rpc::FaultPlan plan;
  plan.script = {{rpc::FaultKind::kDropAfterBytes, 20}};
  auto& client = this->make_client(plan);
  auto r = client.call("counter.incr", {});
  ASSERT_TRUE(r.is_ok()) << r.status();
  EXPECT_EQ(r.value().as_int(), 1);
  EXPECT_EQ(this->increments_.load(), 1);  // the cut request never ran
  EXPECT_EQ(client.metrics().snapshot().counter_sum("rpc.client.", ".retries"), 1u);
}

TYPED_TEST(TransportChaos, DeadlineFiresOnDelayedTransport) {
  rpc::ClientOptions options = this->options();
  options.default_call.retry = RetryPolicy::none();
  auto& client = this->make_client({}, options, {this->env_.stalled()});
  rpc::CallOptions call;
  call.deadline_ms = 50;
  call.retry = RetryPolicy::none();

  auto r = client.call("echo", {rpc::Value(std::int64_t{1})}, call);
  ASSERT_FALSE(r.is_ok());
  EXPECT_EQ(r.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_GE(client.metrics().counter("rpc.client.deadline_exceeded").value(), 1u);
}

TYPED_TEST(TransportChaos, FailoverReachesSecondEndpointWhenPrimaryIsUnreachable) {
  rpc::ClientOptions options = this->options();
  options.breaker.min_samples = 1;  // the refused dial is the primary's one sample
  options.breaker.failure_rate_threshold = 0.5;
  options.breaker.open_cooldown_ms = 60'000;

  // The primary cannot be reached through the env's network; the fallback is
  // the service.
  auto& client =
      this->make_client({}, options, {this->env_.unreachable(), this->env_.server()});
  auto r = client.call("echo", {rpc::Value(std::int64_t{99})});
  ASSERT_TRUE(r.is_ok()) << r.status();
  EXPECT_EQ(r.value().as_int(), 99);
  EXPECT_GE(client.metrics().counter("rpc.client.failovers").value(), 1u);
  EXPECT_EQ(client.breaker_state(0), CircuitBreaker::State::kOpen);
  EXPECT_EQ(client.breaker_state(1), CircuitBreaker::State::kClosed);

  // Subsequent calls go straight to the healthy endpoint.
  ASSERT_TRUE(client.call("echo", {rpc::Value(std::int64_t{5})}).is_ok());
}

TYPED_TEST(TransportChaos, SeededFaultsReplayFromTheirSeed) {
  const ChaosRun first = this->seeded_run(5);
  const ChaosRun again = this->seeded_run(5);
  EXPECT_GT(first.retries, 0u);
  EXPECT_EQ(first.faults, again.faults);
  EXPECT_EQ(first.retries, again.retries);
  EXPECT_EQ(first.served, again.served);

  const ChaosRun other = this->seeded_run(6);
  EXPECT_NE(other.faults, first.faults);
}

// Only live TCP has client threads: several clients dial through one
// FaultyTransport at once.
TEST(TransportChaosTcp, ConcurrentClientsShareOneSchedule) {
  std::atomic<int> increments{0};
  TcpChaosEnv env(counting_dispatcher(increments));
  rpc::FaultPlan plan;
  plan.script = {{rpc::FaultKind::kRefuseConnect},
                 {rpc::FaultKind::kGarbage},
                 {rpc::FaultKind::kDropResponse},
                 {rpc::FaultKind::kDropAfterBytes, 20}};
  rpc::FaultyTransport faulty(&env.transport(), plan);
  rpc::ClientOptions options = chaos_client_options();
  options.transport = &faulty;

  constexpr int kClients = 4;
  constexpr int kCalls = 10;
  std::vector<std::unique_ptr<rpc::RpcClient>> clients;
  for (int i = 0; i < kClients; ++i) {
    clients.push_back(std::make_unique<rpc::RpcClient>(std::vector<rpc::Endpoint>{env.server()},
                                                       rpc::Protocol::kXmlRpc, options));
  }
  std::atomic<int> served{0};
  std::vector<std::thread> threads;
  for (auto& client : clients) {
    threads.emplace_back([&served, c = client.get()] {
      for (int i = 0; i < kCalls; ++i) {
        if (c->call("echo", {rpc::Value(std::int64_t{i})}).is_ok()) ++served;
      }
    });
  }
  for (auto& t : threads) t.join();

  // The first four connects take the four faults, whichever threads make
  // them, and no attempt succeeds on a faulted connection: every scripted
  // fault lands and costs its call exactly one retry.
  EXPECT_EQ(served.load(), kClients * kCalls);
  EXPECT_EQ(faulty.faults_injected(), plan.script.size());
  std::uint64_t retries = 0;
  for (auto& client : clients) {
    retries += client->metrics().snapshot().counter_sum("rpc.client.", ".retries");
  }
  EXPECT_EQ(retries, plan.script.size());
}

// ---------------------------------------------------------------------------
// Simulated grid chaos: execution-service and link failures under steering
// ---------------------------------------------------------------------------

exec::TaskSpec task_spec(const std::string& id, double work) {
  exec::TaskSpec s;
  s.id = id;
  s.job_id = "job-1";
  s.owner = "alice";
  s.work_seconds = work;
  s.attributes = {{"executable", "primes"}, {"login", "alice"}, {"queue", "q"},
                  {"nodes", "1"}};
  return s;
}

sphinx::JobDescription one_task_job(const std::string& job_id, exec::TaskSpec task) {
  sphinx::JobDescription job;
  job.id = job_id;
  job.owner = "alice";
  job.tasks.push_back({std::move(task), {}});
  return job;
}

/// Two-site grid (site-a deliberately loaded so placement deterministically
/// prefers site-b), network manager wired into both execution services, and
/// a steering service writing a recovery journal.
class ChaosRecoveryTest : public ::testing::Test {
 protected:
  ChaosRecoveryTest() : net_(sim_, grid_) {
    grid_.add_site("site-a").add_node("a0", 1.0,
                                      std::make_shared<sim::ConstantLoad>(0.9));
    grid_.add_site("site-b").add_node("b0", 1.0, nullptr);
    grid_.add_site("tier0").store_file("data.root", 500'000'000);  // 5 s solo
    grid_.set_default_link({100e6, 0});

    exec_a_ = std::make_unique<exec::ExecutionService>(sim_, grid_, "site-a");
    exec_b_ = std::make_unique<exec::ExecutionService>(sim_, grid_, "site-b");
    exec_a_->use_network(&net_);
    exec_b_->use_network(&net_);
    estimate_db_ = std::make_shared<estimators::EstimateDatabase>();

    for (auto* holder : {&est_a_, &est_b_}) {
      *holder = std::make_shared<estimators::RuntimeEstimator>(
          std::make_shared<estimators::TaskHistoryStore>());
      for (int i = 0; i < 5; ++i) {
        (*holder)->record(task_spec("h", 1).attributes, 283.0, 0);
      }
    }

    scheduler_ = std::make_unique<sphinx::SphinxScheduler>(sim_, grid_, &monitoring_,
                                                           estimate_db_);
    scheduler_->add_site("site-a", {exec_a_.get(), est_a_});
    scheduler_->add_site("site-b", {exec_b_.get(), est_b_});

    jms_ = std::make_unique<jobmon::JobMonitoringService>(sim_.clock(), &monitoring_,
                                                          estimate_db_);
    jms_->attach_site("site-a", exec_a_.get());
    jms_->attach_site("site-b", exec_b_.get());
  }

  steering::SteeringService& make_steering(steering::SteeringOptions options = {}) {
    steering::SteeringService::Deps deps;
    deps.sim = &sim_;
    deps.scheduler = scheduler_.get();
    deps.jobmon = jms_.get();
    deps.services = {{"site-a", exec_a_.get()}, {"site-b", exec_b_.get()}};
    deps.journal = &journal_;
    deps.monitoring = &monitoring_;
    steering_ = std::make_unique<steering::SteeringService>(deps, options);
    return *steering_;
  }

  std::vector<std::string> journal_lines() const {
    auto lines = steering::journal_lines_from_wal(journal_wal_);
    EXPECT_TRUE(lines.is_ok()) << lines.status();
    return lines.value_or({});
  }

  sim::Simulation sim_;
  sim::Grid grid_;
  sim::NetworkManager net_;
  monalisa::Repository monitoring_;
  MemoryWalStorage journal_store_;
  Wal journal_wal_{&journal_store_};
  steering::WalJournalSink journal_{&journal_wal_};
  std::unique_ptr<exec::ExecutionService> exec_a_, exec_b_;
  std::shared_ptr<estimators::RuntimeEstimator> est_a_, est_b_;
  std::shared_ptr<estimators::EstimateDatabase> estimate_db_;
  std::unique_ptr<sphinx::SphinxScheduler> scheduler_;
  std::unique_ptr<jobmon::JobMonitoringService> jms_;
  std::unique_ptr<steering::SteeringService> steering_;
};

TEST_F(ChaosRecoveryTest, ServiceFailureMidJobRecoversViaSphinx) {
  steering::SteeringOptions opts;
  opts.auto_steer = false;  // isolate Backup & Recovery
  auto& steering = make_steering(opts);

  // A long blocker keeps site-a busy so Sphinx deterministically places t1 on
  // free site-b (same idiom as the steering suite).
  ASSERT_TRUE(exec_a_->submit(task_spec("blocker", 50'000)).is_ok());
  estimate_db_->put("blocker", 50'000);
  ASSERT_TRUE(scheduler_->submit(one_task_job("j1", task_spec("t1", 300))).is_ok());
  ASSERT_EQ(scheduler_->task_site("t1").value(), "site-b");

  // Kill the execution service mid-run; Backup & Recovery must resubmit the
  // task through Sphinx at the surviving site. Free site-a so the recovered
  // task finishes promptly.
  sim_.schedule_at(from_seconds(5), [this] { exec_b_->fail_service("chaos"); });
  sim_.schedule_at(from_seconds(6), [this] { exec_a_->kill("blocker", "make room"); });
  sim_.run();

  EXPECT_GE(steering.stats().recoveries, 1u);
  EXPECT_EQ(steering.stats().completions, 1u);
  EXPECT_EQ(scheduler_->task_site("t1").value(), "site-a");
  EXPECT_EQ(jms_->status("t1").value(), "COMPLETED");

  // The journey is journaled and the counters reach MonALISA.
  EXPECT_GE(steering.stats().journal_appends, 3u);  // watch + recover + done
  EXPECT_DOUBLE_EQ(monitoring_.latest("steering", "recoveries").value().value, 1.0);
  EXPECT_DOUBLE_EQ(monitoring_.latest("steering", "completions").value().value, 1.0);
}

TEST_F(ChaosRecoveryTest, JournalReplayAfterSteeringRestartReadoptsTasks) {
  steering::SteeringOptions opts;
  opts.auto_steer = false;
  make_steering(opts);

  ASSERT_TRUE(exec_a_->submit(task_spec("blocker", 50'000)).is_ok());
  estimate_db_->put("blocker", 50'000);
  ASSERT_TRUE(scheduler_->submit(one_task_job("j1", task_spec("t1", 300))).is_ok());
  ASSERT_EQ(scheduler_->task_site("t1").value(), "site-b");
  sim_.schedule_at(from_seconds(5), [this] { exec_b_->fail_service("chaos"); });
  sim_.schedule_at(from_seconds(6), [this] { exec_a_->kill("blocker", "make room"); });
  sim_.run_until(from_seconds(60));
  ASSERT_GE(steering_->stats().recoveries, 1u);  // recovered before the "crash"

  // Steering "crashes": the in-memory watch state is gone. A fresh instance
  // starts empty, then replays the journal and re-adopts the running task.
  steering_.reset();
  auto& revived = make_steering(opts);
  EXPECT_EQ(revived.watched_tasks(), 0u);
  ASSERT_TRUE(revived.restore_from_journal(journal_lines()).is_ok());
  EXPECT_EQ(revived.watched_tasks(), 1u);
  EXPECT_EQ(revived.stats().journal_adopted, 1u);
  EXPECT_GE(revived.stats().journal_replayed, 2u);

  // The revived service sees the task through to completion.
  sim_.run();
  EXPECT_EQ(revived.stats().completions, 1u);
  EXPECT_EQ(jms_->status("t1").value(), "COMPLETED");

  // Replaying the (now longer) journal again converges: the task is done,
  // so another restart adopts nothing.
  steering_.reset();
  auto& third = make_steering(opts);
  ASSERT_TRUE(third.restore_from_journal(journal_lines()).is_ok());
  EXPECT_EQ(third.watched_tasks(), 0u);
  EXPECT_EQ(third.stats().journal_adopted, 0u);
}

TEST_F(ChaosRecoveryTest, LinkFailureMidStagingResubmitsThroughSphinx) {
  steering::SteeringOptions opts;
  opts.auto_steer = false;
  opts.recovery_interval_seconds = 15.0;
  opts.max_auto_resubmits = 2;
  auto& steering = make_steering(opts);

  // Keep site-a busy for the whole test: both the initial placement and the
  // post-failure resubmit should pick site-b (the link heals before the
  // recovery tick fires).
  ASSERT_TRUE(exec_a_->submit(task_spec("blocker", 50'000)).is_ok());
  estimate_db_->put("blocker", 50'000);
  exec::TaskSpec spec = task_spec("t1", 50);
  spec.input_files = {"data.root"};
  ASSERT_TRUE(scheduler_->submit(one_task_job("j1", std::move(spec))).is_ok());
  ASSERT_EQ(scheduler_->task_site("t1").value(), "site-b");

  // The WAN to site-b dies two seconds into staging and heals at t=12; the
  // in-flight pull aborts, the task fails, and Backup & Recovery resubmits
  // once the recovery tick fires at t=15.
  sim_.schedule_at(from_seconds(2), [this] {
    net_.fail_link("tier0", "site-b", from_seconds(10));
  });
  sim_.run();

  EXPECT_GE(net_.aborted_transfers(), 1u);
  EXPECT_GE(steering.stats().resubmits, 1u);
  EXPECT_EQ(steering.stats().completions, 1u);
  EXPECT_EQ(jms_->status("t1").value(), "COMPLETED");
  EXPECT_DOUBLE_EQ(monitoring_.latest("steering", "resubmits").value().value, 1.0);
}

}  // namespace
}  // namespace gae
