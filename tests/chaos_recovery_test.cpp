// Chaos tests: deterministic fault injection against the live RPC stack, and
// steering Backup & Recovery (journal included) under simulated failures.
//
// Everything here replays bit-for-bit: transport faults follow a scripted
// plan or a seeded RNG, and the simulation side runs in virtual time.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>

#include "common/wal.h"
#include "exec/execution_service.h"
#include "net/fault_injector.h"
#include "rpc/client.h"
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
// Live transport chaos: RpcClient vs FaultInjector
// ---------------------------------------------------------------------------

struct CountingServer {
  std::shared_ptr<rpc::Dispatcher> dispatcher = std::make_shared<rpc::Dispatcher>();
  std::atomic<int> increments{0};
  std::unique_ptr<rpc::RpcServer> server;
  std::uint16_t port = 0;

  CountingServer() {
    dispatcher->register_method(
        "counter.incr",
        [this](const rpc::Array&, const rpc::CallContext&) -> Result<rpc::Value> {
          return rpc::Value(static_cast<std::int64_t>(++increments));
        });
    dispatcher->register_method(
        "echo", [](const rpc::Array& params, const rpc::CallContext&) -> Result<rpc::Value> {
          return params.empty() ? rpc::Value() : params.front();
        });
    server = std::make_unique<rpc::RpcServer>(dispatcher, rpc::ServerOptions{0, 4});
    auto p = server->start();
    EXPECT_TRUE(p.is_ok());
    port = p.value_or(0);
  }
};

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

TEST(TransportChaos, RetriesThroughScriptedFaultsAndSucceeds) {
  CountingServer backend;
  net::FaultPlan plan;
  plan.script = {{net::FaultKind::kRefuseConnect, 0, 0},
                 {net::FaultKind::kGarbage, 0, 0},
                 {net::FaultKind::kNone, 0, 0}};
  net::FaultInjector proxy("127.0.0.1", backend.port, plan);
  auto proxy_port = proxy.start();
  ASSERT_TRUE(proxy_port.is_ok());

  rpc::RpcClient client({{"127.0.0.1", proxy_port.value()}}, rpc::Protocol::kXmlRpc,
                        chaos_client_options());
  auto r = client.call("echo", {rpc::Value(std::int64_t{41})});
  ASSERT_TRUE(r.is_ok()) << r.status();
  EXPECT_EQ(r.value().as_int(), 41);

  // Two faulted connections, then the clean one.
  EXPECT_EQ(client.stats().retries, 2u);
  EXPECT_EQ(proxy.faults_injected(), 2u);
  auto counts = proxy.fault_counts();
  EXPECT_EQ(counts["refuse-connect"], 1u);
  EXPECT_EQ(counts["garbage"], 1u);
  proxy.stop();
}

TEST(TransportChaos, DroppedResponseIsNotRetriedForNonIdempotentCalls) {
  CountingServer backend;
  net::FaultPlan plan;
  plan.script = {{net::FaultKind::kDropResponse, 0, 0}};
  net::FaultInjector proxy("127.0.0.1", backend.port, plan);
  auto proxy_port = proxy.start();
  ASSERT_TRUE(proxy_port.is_ok());

  rpc::RpcClient client({{"127.0.0.1", proxy_port.value()}}, rpc::Protocol::kXmlRpc,
                        chaos_client_options());
  rpc::CallOptions call = chaos_client_options().default_call;
  call.idempotent = false;

  auto r = client.call("counter.incr", {}, call);
  ASSERT_FALSE(r.is_ok());
  EXPECT_EQ(r.status().code(), StatusCode::kUnavailable);
  EXPECT_NE(r.status().message().find("non-idempotent"), std::string::npos);

  // The server executed the call exactly once: the client refused to
  // double-send a request that may already have been applied.
  EXPECT_EQ(backend.increments.load(), 1);
  EXPECT_EQ(client.stats().attempts, 1u);
  proxy.stop();
}

TEST(TransportChaos, DroppedResponseIsRetriedWhenIdempotent) {
  CountingServer backend;
  net::FaultPlan plan;
  plan.script = {{net::FaultKind::kDropResponse, 0, 0}};
  net::FaultInjector proxy("127.0.0.1", backend.port, plan);
  auto proxy_port = proxy.start();
  ASSERT_TRUE(proxy_port.is_ok());

  rpc::RpcClient client({{"127.0.0.1", proxy_port.value()}}, rpc::Protocol::kXmlRpc,
                        chaos_client_options());
  auto r = client.call("counter.incr", {});  // idempotent by default
  ASSERT_TRUE(r.is_ok()) << r.status();
  // Re-sent after the swallowed response — which is why the default is only
  // safe for idempotent methods (the server ran it twice).
  EXPECT_EQ(backend.increments.load(), 2);
  proxy.stop();
}

TEST(TransportChaos, DeadlineFiresOnDelayedTransport) {
  CountingServer backend;
  net::FaultPlan plan;
  plan.script = {{net::FaultKind::kDelay, 0, 2'000}};
  net::FaultInjector proxy("127.0.0.1", backend.port, plan);
  auto proxy_port = proxy.start();
  ASSERT_TRUE(proxy_port.is_ok());

  rpc::ClientOptions options = chaos_client_options();
  options.default_call.retry = RetryPolicy::none();
  rpc::RpcClient client({{"127.0.0.1", proxy_port.value()}}, rpc::Protocol::kXmlRpc,
                        options);
  rpc::CallOptions call;
  call.deadline_ms = 150;
  call.retry = RetryPolicy::none();

  auto r = client.call("echo", {rpc::Value(std::int64_t{1})}, call);
  ASSERT_FALSE(r.is_ok());
  EXPECT_EQ(r.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_GE(client.stats().deadline_exceeded, 1u);
  proxy.stop();
}

TEST(TransportChaos, FailoverReachesSecondEndpointWhenPrimaryMisbehaves) {
  CountingServer backend;
  net::FaultPlan plan;
  plan.fault_rate = 1.0;  // every proxied connection misbehaves
  plan.seed = 7;
  plan.random_kinds = {net::FaultKind::kRefuseConnect};
  net::FaultInjector proxy("127.0.0.1", backend.port, plan);
  auto proxy_port = proxy.start();
  ASSERT_TRUE(proxy_port.is_ok());

  rpc::ClientOptions options = chaos_client_options();
  options.breaker.min_samples = 2;
  options.breaker.failure_rate_threshold = 0.5;
  options.breaker.open_cooldown_ms = 60'000;

  // Primary endpoint goes through the always-faulty proxy; the fallback hits
  // the server directly.
  rpc::RpcClient client({{"127.0.0.1", proxy_port.value()}, {"127.0.0.1", backend.port}},
                        rpc::Protocol::kXmlRpc, options);
  auto r = client.call("echo", {rpc::Value(std::int64_t{99})});
  ASSERT_TRUE(r.is_ok()) << r.status();
  EXPECT_EQ(r.value().as_int(), 99);
  EXPECT_GE(client.stats().failovers, 1u);
  EXPECT_EQ(client.breaker_state(0), CircuitBreaker::State::kOpen);
  EXPECT_EQ(client.breaker_state(1), CircuitBreaker::State::kClosed);

  // Subsequent calls go straight to the healthy endpoint.
  ASSERT_TRUE(client.call("echo", {rpc::Value(std::int64_t{5})}).is_ok());
  proxy.stop();
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
