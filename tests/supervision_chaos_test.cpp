// Ensemble supervision chaos: kill jobmon, the estimator state, and steering
// mid-workload and assert the deployment converges — the dead instance's
// lease lapses within one TTL, the failure detector declares it dead, the
// supervisor restarts it with recovered WAL/journal state byte-equal to the
// pre-crash view, and the workload (including the fig-7 steering scenario)
// still completes. Everything runs in virtual time, so the timeline below is
// exact: leases are 10 s, heartbeats every 5 s, death after 2 missed beats,
// restart backoff 1 s.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "clarens/registry.h"
#include "common/wal.h"
#include "estimators/estimate_db.h"
#include "estimators/runtime_estimator.h"
#include "jobmon/service.h"
#include "monalisa/repository.h"
#include "sim/engine.h"
#include "sim/grid.h"
#include "sim/load.h"
#include "sphinx/scheduler.h"
#include "steering/journal.h"
#include "steering/service.h"
#include "supervision/failure_detector.h"
#include "supervision/supervisor.h"

namespace gae {
namespace {

constexpr double kLeaseTtlS = 10.0;
constexpr double kHeartbeatS = 5.0;
constexpr double kJobSeconds = 283.0;  // fig. 7's prime-counting job
constexpr double kSiteALoad = 0.8;

std::map<std::string, std::string> fig7_attrs() {
  return {{"executable", "primes"}, {"login", "alice"}, {"queue", "short"},
          {"nodes", "1"}};
}

exec::TaskSpec task_spec(const std::string& id, double work) {
  exec::TaskSpec s;
  s.id = id;
  s.job_id = "job-" + id;
  s.owner = "alice";
  s.executable = "primes";
  s.work_seconds = work;
  s.attributes = fig7_attrs();
  return s;
}

sphinx::JobDescription one_task_job(const std::string& job_id, exec::TaskSpec task) {
  sphinx::JobDescription job;
  job.id = job_id;
  job.owner = "alice";
  task.job_id = job_id;
  job.tasks.push_back({std::move(task), {}});
  return job;
}

/// The fig-7 grid (loaded site-a, free site-b, both estimating 283 s) plus
/// the full robustness layer: leased registry, WAL-backed jobmon and
/// estimator state, journaled steering, failure detector and supervisor —
/// all driven by the simulation clock.
class SupervisionChaosTest : public ::testing::Test {
 protected:
  SupervisionChaosTest()
      : registry_("gae-host", &sim_.clock(),
                  clarens::RegistryOptions{from_seconds(kLeaseTtlS)}),
        jobmon_wal_(&jobmon_storage_),
        estimate_wal_(&estimate_storage_),
        detector_(sim_.clock(),
                  supervision::FailureDetectorOptions{from_seconds(kHeartbeatS),
                                                      /*suspect_after_missed=*/1,
                                                      /*dead_after_missed=*/2},
                  &monitoring_),
        supervisor_(sim_.clock(), supervisor_options(), &monitoring_) {
    grid_.add_site("site-a").add_node("a0", 1.0,
                                      std::make_shared<sim::ConstantLoad>(kSiteALoad));
    grid_.add_site("site-b").add_node("b0", 1.0, nullptr);
    grid_.set_default_link({100e6, 0});

    exec_a_ = std::make_unique<exec::ExecutionService>(sim_, grid_, "site-a");
    exec_b_ = std::make_unique<exec::ExecutionService>(sim_, grid_, "site-b");

    estimate_db_ = std::make_shared<estimators::EstimateDatabase>();
    estimate_db_->attach_wal(&estimate_wal_);

    for (auto* holder : {&est_a_, &est_b_}) {
      *holder = std::make_shared<estimators::RuntimeEstimator>(
          std::make_shared<estimators::TaskHistoryStore>());
      for (int i = 0; i < 8; ++i) (*holder)->record(fig7_attrs(), kJobSeconds, 0);
    }

    scheduler_ = std::make_unique<sphinx::SphinxScheduler>(sim_, grid_, &monitoring_,
                                                           estimate_db_);
    scheduler_->add_site("site-a", {exec_a_.get(), est_a_});
    scheduler_->add_site("site-b", {exec_b_.get(), est_b_});

    jms_ = std::make_unique<jobmon::JobMonitoringService>(sim_.clock(), &monitoring_,
                                                          estimate_db_, &jobmon_wal_);
    jms_->attach_site("site-a", exec_a_.get());
    jms_->attach_site("site-b", exec_b_.get());

    supervisor_.attach(detector_);
  }

  static supervision::SupervisorOptions supervisor_options() {
    supervision::SupervisorOptions o;
    o.restart_backoff = RetryPolicy{/*max_attempts=*/3, /*initial_backoff_ms=*/1000,
                                    /*backoff_multiplier=*/2.0, /*max_backoff_ms=*/60'000,
                                    /*jitter_fraction=*/0.0, /*jitter_seed=*/1};
    return o;
  }

  static clarens::ServiceInfo service_info(const std::string& name) {
    clarens::ServiceInfo i;
    i.name = name;
    i.host = "127.0.0.1";
    i.port = 9000;
    return i;
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

  static steering::SteeringOptions fig7_options() {
    steering::SteeringOptions o;
    o.auto_steer = true;
    o.optimizer_interval_seconds = 15;
    o.min_observation_seconds = 30;
    o.keep_original_on_move = true;  // the paper's "testing purposes" mode
    return o;
  }

  /// The deployment's heartbeat plane: every interval, each live service
  /// renews its lease and beats the detector, then the registry sweeps,
  /// verdicts are computed and the supervisor runs due restarts.
  void arm_supervision(double horizon_s) {
    for (double t = kHeartbeatS; t <= horizon_s; t += kHeartbeatS) {
      sim_.schedule_at(from_seconds(t), [this] {
        if (jms_) {
          detector_.heartbeat("jobmon");
          registry_.renew("jobmon", jobmon_lease_.id);
        }
        if (estimator_alive_) {
          detector_.heartbeat("estimator");
          registry_.renew("estimator", estimator_lease_.id);
        }
        if (steering_) {
          detector_.heartbeat("steering");
          registry_.renew("steering", steering_lease_.id);
        }
        registry_.sweep();
        detector_.check();
        supervisor_.tick();
      });
    }
  }

  /// Restart recipe: rebuild jobmon on the same WAL, recover, re-attach the
  /// execution sites, hand the instance back to steering, fresh lease.
  Status restart_jobmon() {
    jms_ = std::make_unique<jobmon::JobMonitoringService>(sim_.clock(), &monitoring_,
                                                          estimate_db_, &jobmon_wal_);
    const Status s = jms_->mutable_db().recover();
    if (!s.is_ok()) return s;
    recovered_jobmon_ = jms_->db().export_state();  // before new events arrive
    jms_->attach_site("site-a", exec_a_.get());
    jms_->attach_site("site-b", exec_b_.get());
    if (steering_) steering_->rebind_jobmon(jms_.get());
    jobmon_lease_ = registry_.register_service(service_info("jobmon"));
    return Status::ok();
  }

  Status restart_estimator() {
    estimate_db_->attach_wal(&estimate_wal_);
    const Status s = estimate_db_->recover();
    if (!s.is_ok()) return s;
    recovered_estimates_ = estimate_db_->export_state();
    estimator_alive_ = true;
    estimator_lease_ = registry_.register_service(service_info("estimator"));
    return Status::ok();
  }

  Status restart_steering(const steering::SteeringOptions& options) {
    auto& revived = make_steering(options);
    auto lines = steering::journal_lines_from_wal(journal_wal_);
    if (!lines.is_ok()) return lines.status();
    const Status s = revived.restore_from_journal(lines.value());
    if (!s.is_ok()) return s;
    steering_lease_ = registry_.register_service(service_info("steering"));
    return Status::ok();
  }

  sim::Simulation sim_;
  sim::Grid grid_;
  monalisa::Repository monitoring_;
  clarens::ServiceRegistry registry_;
  MemoryWalStorage jobmon_storage_, estimate_storage_;
  Wal jobmon_wal_, estimate_wal_;
  MemoryWalStorage journal_store_;
  Wal journal_wal_{&journal_store_};
  steering::WalJournalSink journal_{&journal_wal_};

  std::unique_ptr<exec::ExecutionService> exec_a_, exec_b_;
  std::shared_ptr<estimators::RuntimeEstimator> est_a_, est_b_;
  std::shared_ptr<estimators::EstimateDatabase> estimate_db_;
  std::unique_ptr<sphinx::SphinxScheduler> scheduler_;
  std::unique_ptr<jobmon::JobMonitoringService> jms_;
  std::unique_ptr<steering::SteeringService> steering_;

  supervision::FailureDetector detector_;
  supervision::Supervisor supervisor_;

  clarens::Lease jobmon_lease_, estimator_lease_, steering_lease_;
  bool estimator_alive_ = false;

  std::string pre_crash_jobmon_, recovered_jobmon_;
  std::string pre_crash_estimates_, recovered_estimates_;
  bool lookup_failed_in_outage_ = false;
  bool tombstoned_in_outage_ = false;
};

// ---------------------------------------------------------------------------
// jobmon crash
// ---------------------------------------------------------------------------

TEST_F(SupervisionChaosTest, JobmonCrashExpiresLeaseRestartsAndRecoversState) {
  steering::SteeringOptions opts;
  opts.auto_steer = false;  // isolate monitoring recovery from steering moves
  make_steering(opts);

  jobmon_lease_ = registry_.register_service(service_info("jobmon"));
  detector_.watch("jobmon");
  supervisor_.manage({"jobmon", [this] { return restart_jobmon(); }});

  // Blocker keeps site-a busy so t1 deterministically lands on free site-b.
  ASSERT_TRUE(exec_a_->submit(task_spec("blocker", 50'000)).is_ok());
  estimate_db_->put("blocker", 50'000);
  ASSERT_TRUE(scheduler_->submit(one_task_job("j1", task_spec("t1", 300))).is_ok());
  ASSERT_EQ(scheduler_->task_site("t1").value(), "site-b");

  arm_supervision(400);

  // Crash mid-workload: the monitoring process is simply gone. Heartbeats
  // and lease renewals stop with it.
  sim_.schedule_at(from_seconds(62), [this] {
    pre_crash_jobmon_ = jms_->db().export_state();
    steering_->rebind_jobmon(nullptr);
    jms_.reset();
  });
  // One lease TTL after the crash the registry must no longer route to the
  // dead instance (last renewal t=60 -> lapse t=70; checked at t=72, which
  // is crash + one TTL).
  sim_.schedule_at(from_seconds(72), [this] {
    lookup_failed_in_outage_ = !registry_.lookup("jobmon").is_ok();
    tombstoned_in_outage_ = registry_.tombstone("jobmon").is_ok();
  });

  sim_.run_until(from_seconds(400));

  EXPECT_TRUE(lookup_failed_in_outage_);
  EXPECT_TRUE(tombstoned_in_outage_);
  EXPECT_GE(registry_.expirations(), 1u);

  // The supervisor rebuilt the service from its WAL...
  ASSERT_TRUE(jms_ != nullptr);
  EXPECT_EQ(supervisor_.stats().deaths_seen, 1u);
  EXPECT_EQ(supervisor_.stats().restarts_succeeded, 1u);
  ASSERT_FALSE(pre_crash_jobmon_.empty());
  // ...byte-equal to the pre-crash repository (snapshot + tail replay)...
  EXPECT_EQ(recovered_jobmon_, pre_crash_jobmon_);
  // ...and the ensemble is healthy again: fresh lease, live heartbeats.
  EXPECT_TRUE(registry_.lookup("jobmon").is_ok());
  EXPECT_EQ(detector_.liveness("jobmon"), supervision::Liveness::kAlive);

  // The recovered monitor saw the workload through to completion.
  EXPECT_EQ(jms_->status("t1").value(), "COMPLETED");
  EXPECT_EQ(steering_->stats().completions, 1u);

  // MonALISA carries the whole story: liveness dipped to 0 and returned.
  auto series = monitoring_.series("jobmon", "liveness", 0, from_seconds(400));
  ASSERT_FALSE(series.empty());
  bool saw_dead = false;
  for (const auto& p : series) saw_dead = saw_dead || p.value == 0.0;
  EXPECT_TRUE(saw_dead);
  EXPECT_DOUBLE_EQ(series.back().value, 1.0);
}

TEST_F(SupervisionChaosTest, JobmonSnapshotBeforeCrashStillRecoversExactly) {
  steering::SteeringOptions opts;
  opts.auto_steer = false;
  make_steering(opts);
  jobmon_lease_ = registry_.register_service(service_info("jobmon"));
  detector_.watch("jobmon");
  supervisor_.manage({"jobmon", [this] { return restart_jobmon(); }});

  ASSERT_TRUE(exec_a_->submit(task_spec("blocker", 50'000)).is_ok());
  estimate_db_->put("blocker", 50'000);
  ASSERT_TRUE(scheduler_->submit(one_task_job("j1", task_spec("t1", 300))).is_ok());

  arm_supervision(200);
  // Periodic compaction ran before the crash: recovery folds snapshot + tail.
  sim_.schedule_at(from_seconds(30), [this] {
    ASSERT_TRUE(jms_->mutable_db().save_snapshot().is_ok());
  });
  sim_.schedule_at(from_seconds(62), [this] {
    pre_crash_jobmon_ = jms_->db().export_state();
    steering_->rebind_jobmon(nullptr);
    jms_.reset();
  });
  sim_.run_until(from_seconds(200));

  ASSERT_TRUE(jms_ != nullptr);
  EXPECT_EQ(recovered_jobmon_, pre_crash_jobmon_);
  EXPECT_EQ(jms_->db().export_state().empty(), false);
}

// ---------------------------------------------------------------------------
// estimator crash
// ---------------------------------------------------------------------------

TEST_F(SupervisionChaosTest, EstimatorCrashRecoversByteEqualEstimates) {
  steering::SteeringOptions opts;
  opts.auto_steer = false;
  make_steering(opts);

  estimator_alive_ = true;
  estimator_lease_ = registry_.register_service(service_info("estimator"));
  detector_.watch("estimator");
  supervisor_.manage({"estimator", [this] { return restart_estimator(); }});

  ASSERT_TRUE(exec_a_->submit(task_spec("blocker", 50'000)).is_ok());
  estimate_db_->put("blocker", 50'000);
  for (int i = 1; i <= 3; ++i) {
    const std::string id = "t" + std::to_string(i);
    ASSERT_TRUE(
        scheduler_->submit(one_task_job("j" + std::to_string(i), task_spec(id, 100 + i)))
            .is_ok());
  }

  arm_supervision(200);

  // Crash: the estimator's in-memory map diverges from the journal (here it
  // grows a ghost entry the WAL never saw — any post-crash memory is junk).
  sim_.schedule_at(from_seconds(32), [this] {
    estimator_alive_ = false;
    pre_crash_estimates_ = estimate_db_->export_state();
    estimate_db_->attach_wal(nullptr);
    estimate_db_->put("ghost-of-crash", 1.0);
  });
  sim_.schedule_at(from_seconds(42), [this] {
    lookup_failed_in_outage_ = !registry_.lookup("estimator").is_ok();
  });

  sim_.run_until(from_seconds(200));

  EXPECT_TRUE(lookup_failed_in_outage_);
  EXPECT_TRUE(estimator_alive_);  // supervisor brought it back
  EXPECT_EQ(supervisor_.stats().restarts_succeeded, 1u);
  ASSERT_FALSE(pre_crash_estimates_.empty());
  EXPECT_EQ(recovered_estimates_, pre_crash_estimates_);
  EXPECT_FALSE(estimate_db_->has("ghost-of-crash"));
  EXPECT_TRUE(registry_.lookup("estimator").is_ok());

  // recover(); recover() is a fixed point even on the live shared instance.
  ASSERT_TRUE(estimate_db_->recover().is_ok());
  EXPECT_EQ(estimate_db_->export_state(), recovered_estimates_);
  // Compaction keeps the bytes too.
  ASSERT_TRUE(estimate_db_->save_snapshot().is_ok());
  ASSERT_TRUE(estimate_db_->recover().is_ok());
  EXPECT_EQ(estimate_db_->export_state(), recovered_estimates_);
}

// ---------------------------------------------------------------------------
// steering crash mid-fig-7
// ---------------------------------------------------------------------------

TEST_F(SupervisionChaosTest, SteeringCrashMidFig7StillCompletesSteeredJob) {
  make_steering(fig7_options());
  steering_lease_ = registry_.register_service(service_info("steering"));
  detector_.watch("steering");
  supervisor_.manage(
      {"steering", [this] { return restart_steering(fig7_options()); }});

  // Fig. 7: both sites estimate 283 s, the tie lands the job on loaded
  // site-a, and steering is what rescues it.
  auto plan = scheduler_->submit(one_task_job("analysis-job", task_spec("primes-1",
                                                                        kJobSeconds)));
  ASSERT_TRUE(plan.is_ok()) << plan.status();
  ASSERT_EQ(plan.value().placements[0].site, "site-a");

  arm_supervision(600);

  // Steering dies before its first move decision (min observation is 30 s).
  sim_.schedule_at(from_seconds(22), [this] { steering_.reset(); });
  sim_.schedule_at(from_seconds(32), [this] {
    lookup_failed_in_outage_ = !registry_.lookup("steering").is_ok();
  });

  sim_.run_until(from_seconds(2000));

  EXPECT_TRUE(lookup_failed_in_outage_);
  EXPECT_EQ(supervisor_.stats().restarts_succeeded, 1u);
  ASSERT_TRUE(steering_ != nullptr);

  // The revived instance re-adopted the watch from the journal, then made
  // the fig-7 move and saw the job complete.
  EXPECT_GE(steering_->stats().journal_adopted, 1u);
  EXPECT_GE(steering_->stats().auto_moves, 1u);
  EXPECT_GE(steering_->stats().completions, 1u);

  auto steered = exec_b_->query("primes-1");
  ASSERT_TRUE(steered.is_ok());
  EXPECT_EQ(steered.value().state, exec::TaskState::kCompleted);
  // Far ahead of the loaded site-a run (~283/0.2 s), despite the crash.
  EXPECT_LT(to_seconds(steered.value().completion_time), 700.0);
  EXPECT_EQ(jms_->status("primes-1").value(), "COMPLETED");
}

}  // namespace
}  // namespace gae
