// Newer execution-service features: periodic checkpointing with restart on
// node failure, and fair-share dispatch.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <set>

#include "estimators/runtime_estimator.h"
#include "exec/execution_service.h"
#include "monalisa/repository.h"
#include "sim/load.h"

namespace gae::exec {
namespace {

TaskSpec make_spec(const std::string& id, double work, const std::string& owner = "alice",
                   int priority = 0) {
  TaskSpec spec;
  spec.id = id;
  spec.owner = owner;
  spec.work_seconds = work;
  spec.priority = priority;
  return spec;
}

class CheckpointTest : public ::testing::Test {
 protected:
  CheckpointTest() { grid_.add_site("s").add_node("n0", 1.0, nullptr); }
  sim::Simulation sim_;
  sim::Grid grid_;
};

TEST_F(CheckpointTest, NodeFailureRestartsFromPeriodicCheckpoint) {
  ExecOptions opts;
  opts.mean_time_between_failures = 120.0;  // deterministic seed draws below
  opts.failure_seed = 42;
  opts.checkpoint_interval_seconds = 30.0;
  ExecutionService exec(sim_, grid_, "s", opts);

  auto spec = make_spec("t1", 400.0);
  spec.checkpointable = true;
  ASSERT_TRUE(exec.submit(spec).is_ok());

  std::size_t restarts = 0;
  exec.subscribe([&](const TaskEvent& ev) {
    if (ev.detail.rfind("node failure: restarted", 0) == 0) ++restarts;
  });
  sim_.run();

  auto info = exec.query("t1").value();
  // The task survives node failures and eventually completes.
  EXPECT_EQ(info.state, TaskState::kCompleted);
  EXPECT_GE(restarts, 1u);
  // Total wall time exceeds the work: failures cost recomputation since the
  // last checkpoint, plus requeue time.
  EXPECT_GT(info.completion_time, from_seconds(400.0));
}

TEST_F(CheckpointTest, NonCheckpointableTaskStillFails) {
  ExecOptions opts;
  opts.mean_time_between_failures = 50.0;
  opts.failure_seed = 7;
  opts.checkpoint_interval_seconds = 30.0;
  ExecutionService exec(sim_, grid_, "s", opts);
  ASSERT_TRUE(exec.submit(make_spec("t1", 1e6)).is_ok());
  sim_.run();
  EXPECT_EQ(exec.query("t1").value().state, TaskState::kFailed);
}

TEST_F(CheckpointTest, NoCheckpointIntervalMeansFailure) {
  ExecOptions opts;
  opts.mean_time_between_failures = 50.0;
  opts.failure_seed = 7;
  opts.checkpoint_interval_seconds = 0.0;  // feature off
  ExecutionService exec(sim_, grid_, "s", opts);
  auto spec = make_spec("t1", 1e6);
  spec.checkpointable = true;
  ASSERT_TRUE(exec.submit(spec).is_ok());
  sim_.run();
  EXPECT_EQ(exec.query("t1").value().state, TaskState::kFailed);
}

TEST_F(CheckpointTest, CheckpointProgressNeverExceedsLive) {
  ExecOptions opts;
  opts.checkpoint_interval_seconds = 25.0;
  ExecutionService exec(sim_, grid_, "s", opts);
  auto spec = make_spec("t1", 100.0);
  spec.checkpointable = true;
  ASSERT_TRUE(exec.submit(spec).is_ok());
  sim_.run_until(from_seconds(60));
  // Live checkpoint (on-demand) reflects 60 s; the periodic one trails at 50.
  EXPECT_NEAR(exec.checkpoint("t1").value(), 60.0, 1e-6);
}

class FairShareTest : public ::testing::Test {
 protected:
  FairShareTest() { grid_.add_site("s").add_node("n0", 1.0, nullptr); }
  sim::Simulation sim_;
  sim::Grid grid_;
};

TEST_F(FairShareTest, LightUserJumpsHeavyUsersQueue) {
  ExecOptions opts;
  opts.fair_share = true;
  ExecutionService exec(sim_, grid_, "s", opts);

  // alice builds up usage.
  ASSERT_TRUE(exec.submit(make_spec("a1", 100, "alice")).is_ok());
  ASSERT_TRUE(exec.submit(make_spec("a2", 100, "alice")).is_ok());
  ASSERT_TRUE(exec.submit(make_spec("b1", 100, "bob")).is_ok());
  sim_.run_until(from_seconds(50));  // a1 running; a2, b1 queued

  sim_.run();
  // bob (zero usage) dispatched before alice's second task.
  EXPECT_LT(exec.query("b1").value().start_time, exec.query("a2").value().start_time);
  EXPECT_NEAR(exec.owner_usage("alice"), 200.0, 1e-6);
  EXPECT_NEAR(exec.owner_usage("bob"), 100.0, 1e-6);
}

TEST_F(FairShareTest, PriorityStillDominatesFairShare) {
  ExecOptions opts;
  opts.fair_share = true;
  ExecutionService exec(sim_, grid_, "s", opts);
  ASSERT_TRUE(exec.submit(make_spec("running", 100, "alice")).is_ok());
  // alice's high-priority task beats bob's low-priority one despite usage.
  ASSERT_TRUE(exec.submit(make_spec("alice-high", 10, "alice", 5)).is_ok());
  ASSERT_TRUE(exec.submit(make_spec("bob-low", 10, "bob", 0)).is_ok());
  sim_.run();
  EXPECT_LT(exec.query("alice-high").value().start_time,
            exec.query("bob-low").value().start_time);
}

TEST_F(FairShareTest, DisabledMeansStrictFifo) {
  ExecutionService exec(sim_, grid_, "s");  // fair_share off
  ASSERT_TRUE(exec.submit(make_spec("a1", 100, "alice")).is_ok());
  ASSERT_TRUE(exec.submit(make_spec("a2", 10, "alice")).is_ok());
  ASSERT_TRUE(exec.submit(make_spec("b1", 10, "bob")).is_ok());
  sim_.run();
  EXPECT_LT(exec.query("a2").value().start_time, exec.query("b1").value().start_time);
}

class DrainTest : public ::testing::Test {
 protected:
  DrainTest() {
    auto& site = grid_.add_site("s");
    site.add_node("n0", 1.0, nullptr);
    site.add_node("n1", 1.0, nullptr);
  }
  sim::Simulation sim_;
  sim::Grid grid_;
};

TEST_F(DrainTest, DrainedNodeAcceptsNoNewWork) {
  ExecutionService exec(sim_, grid_, "s");
  ASSERT_TRUE(exec.drain_node(1).is_ok());
  EXPECT_TRUE(exec.node_drained(1));
  EXPECT_EQ(exec.free_nodes(), 1u);

  ASSERT_TRUE(exec.submit(make_spec("t1", 50)).is_ok());
  ASSERT_TRUE(exec.submit(make_spec("t2", 50)).is_ok());
  sim_.run();
  // Both ran serially on node 0.
  EXPECT_EQ(exec.query("t1").value().node, "n0");
  EXPECT_EQ(exec.query("t2").value().node, "n0");
  EXPECT_EQ(exec.query("t2").value().completion_time, from_seconds(100));
}

TEST_F(DrainTest, RunningTaskFinishesDuringDrain) {
  ExecutionService exec(sim_, grid_, "s");
  ASSERT_TRUE(exec.submit(make_spec("t1", 50)).is_ok());
  sim_.run_until(from_seconds(10));
  const auto node_name = exec.query("t1").value().node;
  const std::size_t index = node_name == "n0" ? 0 : 1;
  ASSERT_TRUE(exec.drain_node(index).is_ok());
  sim_.run();
  EXPECT_EQ(exec.query("t1").value().state, TaskState::kCompleted);
}

TEST_F(DrainTest, UndrainResumesDispatch) {
  ExecutionService exec(sim_, grid_, "s");
  ASSERT_TRUE(exec.drain_node(0).is_ok());
  ASSERT_TRUE(exec.drain_node(1).is_ok());
  ASSERT_TRUE(exec.submit(make_spec("t1", 10)).is_ok());
  sim_.run();
  EXPECT_EQ(exec.query("t1").value().state, TaskState::kQueued);  // nowhere to run

  ASSERT_TRUE(exec.undrain_node(0).is_ok());
  sim_.run();
  EXPECT_EQ(exec.query("t1").value().state, TaskState::kCompleted);
  EXPECT_FALSE(exec.node_drained(0));
}

TEST_F(DrainTest, DrainValidation) {
  ExecutionService exec(sim_, grid_, "s");
  EXPECT_EQ(exec.drain_node(99).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(exec.undrain_node(99).code(), StatusCode::kInvalidArgument);
  EXPECT_FALSE(exec.node_drained(99));
}

TEST(MonalisaAlarm, EdgeTriggeredThreshold) {
  monalisa::Repository repo;
  std::vector<double> fired;
  repo.add_alarm({"site-a", "cpu_load", 0.8, true},
                 [&](const monalisa::AlarmEvent& ev) { fired.push_back(ev.point.value); });

  repo.publish("site-a", "cpu_load", 1, 0.5);   // below
  repo.publish("site-a", "cpu_load", 2, 0.9);   // crosses: fires
  repo.publish("site-a", "cpu_load", 3, 0.95);  // still above: no refire
  repo.publish("site-a", "cpu_load", 4, 0.4);   // rearms
  repo.publish("site-a", "cpu_load", 5, 0.85);  // fires again
  ASSERT_EQ(fired.size(), 2u);
  EXPECT_DOUBLE_EQ(fired[0], 0.9);
  EXPECT_DOUBLE_EQ(fired[1], 0.85);
  EXPECT_EQ(repo.alarm_log().size(), 2u);
}

TEST(MonalisaAlarm, FallingAlarmAndUnsubscribe) {
  monalisa::Repository repo;
  int fired = 0;
  const int token =
      repo.add_alarm({"s", "free_nodes", 1.0, false}, [&](const monalisa::AlarmEvent&) {
        ++fired;
      });
  repo.publish("s", "free_nodes", 1, 5);
  repo.publish("s", "free_nodes", 2, 0);  // falls to <= 1: fires
  EXPECT_EQ(fired, 1);
  repo.unsubscribe(token);
  repo.publish("s", "free_nodes", 3, 5);
  repo.publish("s", "free_nodes", 4, 0);
  EXPECT_EQ(fired, 1);
}

TEST(MonalisaAlarm, OtherSeriesDoNotTrigger) {
  monalisa::Repository repo;
  int fired = 0;
  repo.add_alarm({"s", "cpu_load", 0.5, true},
                 [&](const monalisa::AlarmEvent&) { ++fired; });
  repo.publish("s", "mem_load", 1, 0.9);
  repo.publish("other", "cpu_load", 1, 0.9);
  EXPECT_EQ(fired, 0);
}

}  // namespace
}  // namespace gae::exec

namespace gae::exec {
namespace {

class PreemptionTest : public ::testing::Test {
 protected:
  PreemptionTest() { grid_.add_site("s").add_node("n0", 1.0, nullptr); }
  sim::Simulation sim_;
  sim::Grid grid_;
};

TEST_F(PreemptionTest, HigherPriorityEvictsRunningTask) {
  ExecOptions opts;
  opts.preemptive = true;
  ExecutionService exec(sim_, grid_, "s", opts);
  ASSERT_TRUE(exec.submit(make_spec("low", 100, "alice", 0)).is_ok());
  sim_.run_until(from_seconds(30));
  ASSERT_TRUE(exec.submit(make_spec("high", 10, "bob", 5)).is_ok());
  sim_.run_until(from_seconds(31));

  // The high-priority task took the node immediately.
  EXPECT_EQ(exec.query("high").value().state, TaskState::kRunning);
  EXPECT_EQ(exec.query("low").value().state, TaskState::kQueued);
  // Vanilla task lost its progress on eviction.
  EXPECT_DOUBLE_EQ(exec.query("low").value().cpu_seconds_used, 0.0);

  sim_.run();
  // high finished at ~40, low restarted after: 41 + 100.
  EXPECT_EQ(exec.query("high").value().completion_time, from_seconds(40));
  EXPECT_EQ(exec.query("low").value().completion_time, from_seconds(140));
}

TEST_F(PreemptionTest, CheckpointableVictimKeepsProgress) {
  ExecOptions opts;
  opts.preemptive = true;
  ExecutionService exec(sim_, grid_, "s", opts);
  auto low = make_spec("low", 100, "alice", 0);
  low.checkpointable = true;
  ASSERT_TRUE(exec.submit(low).is_ok());
  sim_.run_until(from_seconds(30));
  ASSERT_TRUE(exec.submit(make_spec("high", 10, "bob", 5)).is_ok());
  sim_.run();
  // 30 cpu-seconds survived the eviction: resumes at 40, done at 110.
  EXPECT_EQ(exec.query("low").value().completion_time, from_seconds(110));
}

TEST_F(PreemptionTest, EqualPriorityNeverPreempts) {
  ExecOptions opts;
  opts.preemptive = true;
  ExecutionService exec(sim_, grid_, "s", opts);
  ASSERT_TRUE(exec.submit(make_spec("first", 100, "alice", 3)).is_ok());
  ASSERT_TRUE(exec.submit(make_spec("second", 10, "bob", 3)).is_ok());
  sim_.run_until(from_seconds(5));
  EXPECT_EQ(exec.query("first").value().state, TaskState::kRunning);
  EXPECT_EQ(exec.query("second").value().state, TaskState::kQueued);
}

TEST_F(PreemptionTest, DisabledByDefault) {
  ExecutionService exec(sim_, grid_, "s");
  ASSERT_TRUE(exec.submit(make_spec("low", 100, "alice", 0)).is_ok());
  ASSERT_TRUE(exec.submit(make_spec("high", 10, "bob", 9)).is_ok());
  sim_.run_until(from_seconds(5));
  EXPECT_EQ(exec.query("low").value().state, TaskState::kRunning);
  EXPECT_EQ(exec.query("high").value().state, TaskState::kQueued);
}

TEST(HistoryPersistence, SaveLoadRoundTrip) {
  estimators::TaskHistoryStore store;
  store.add({{{"executable", "reco"}, {"nodes", "4"}}, 123.5, from_seconds(10), true});
  store.add({{{"executable", "skim"}}, 45.25, from_seconds(20), false});
  store.add({{}, 7.0, from_seconds(30), true});  // no attributes at all

  const std::string path = ::testing::TempDir() + "/gae_history_test.csv";
  ASSERT_TRUE(estimators::save_history(store, path).is_ok());
  auto loaded = estimators::load_history(path);
  ASSERT_TRUE(loaded.is_ok()) << loaded.status();
  ASSERT_EQ(loaded.value().size(), 3u);
  const auto& entries = loaded.value().entries();
  EXPECT_DOUBLE_EQ(entries[0].runtime_seconds, 123.5);
  EXPECT_EQ(entries[0].attributes.at("executable"), "reco");
  EXPECT_EQ(entries[0].attributes.at("nodes"), "4");
  EXPECT_FALSE(entries[1].successful);
  EXPECT_TRUE(entries[2].attributes.empty());
  EXPECT_EQ(entries[2].recorded_at, from_seconds(30));
  std::remove(path.c_str());
}

TEST(HistoryPersistence, MalformedRejected) {
  const std::string path = ::testing::TempDir() + "/gae_history_bad.csv";
  {
    std::ofstream out(path);
    out << "wrong header\n";
  }
  EXPECT_EQ(estimators::load_history(path).status().code(),
            StatusCode::kInvalidArgument);
  {
    std::ofstream out(path);
    out << "runtime_seconds,recorded_at_s,successful,attributes\n";
    out << "notanumber,0,1,\n";
  }
  EXPECT_EQ(estimators::load_history(path).status().code(),
            StatusCode::kInvalidArgument);
  std::remove(path.c_str());
  EXPECT_EQ(estimators::load_history(path).status().code(), StatusCode::kNotFound);
}

TEST(HistoryPersistence, LoadedHistoryDrivesEstimates) {
  estimators::TaskHistoryStore store;
  std::map<std::string, std::string> attrs = {{"executable", "primes"}};
  for (int i = 0; i < 5; ++i) store.add({attrs, 283.0, 0, true});
  const std::string path = ::testing::TempDir() + "/gae_history_est.csv";
  ASSERT_TRUE(estimators::save_history(store, path).is_ok());

  auto loaded = estimators::load_history(path);
  ASSERT_TRUE(loaded.is_ok());
  estimators::RuntimeEstimator est(
      std::make_shared<estimators::TaskHistoryStore>(std::move(loaded).value()));
  auto r = est.estimate(attrs);
  ASSERT_TRUE(r.is_ok());
  EXPECT_NEAR(r.value().seconds, 283.0, 1e-9);
  std::remove(path.c_str());
}

void expect_same_task_info(const TaskInfo& a, const TaskInfo& b) {
  SCOPED_TRACE(b.spec.id);
  EXPECT_EQ(a.spec.id, b.spec.id);
  EXPECT_EQ(a.spec.job_id, b.spec.job_id);
  EXPECT_EQ(a.spec.owner, b.spec.owner);
  EXPECT_EQ(a.spec.executable, b.spec.executable);
  EXPECT_EQ(a.spec.work_seconds, b.spec.work_seconds);
  EXPECT_EQ(a.spec.priority, b.spec.priority);
  EXPECT_EQ(a.spec.input_files, b.spec.input_files);
  EXPECT_EQ(a.spec.output_bytes, b.spec.output_bytes);
  EXPECT_EQ(a.spec.checkpointable, b.spec.checkpointable);
  EXPECT_EQ(a.spec.environment, b.spec.environment);
  EXPECT_EQ(a.spec.attributes, b.spec.attributes);
  EXPECT_EQ(a.state, b.state);
  EXPECT_EQ(a.submit_time, b.submit_time);
  EXPECT_EQ(a.start_time, b.start_time);
  EXPECT_EQ(a.completion_time, b.completion_time);
  EXPECT_EQ(a.cpu_seconds_used, b.cpu_seconds_used);
  EXPECT_EQ(a.progress, b.progress);
  EXPECT_EQ(a.queue_position, b.queue_position);
  EXPECT_EQ(a.node, b.node);
  EXPECT_EQ(a.input_bytes_transferred, b.input_bytes_transferred);
  EXPECT_EQ(a.output_bytes_written, b.output_bytes_written);
  EXPECT_EQ(a.detail, b.detail);
}

TEST(ListTasks, EveryTaskEqualsItsQuery) {
  sim::Simulation sim;
  sim::Grid grid;
  auto& site = grid.add_site("s");
  for (int i = 0; i < 3; ++i) site.add_node("n" + std::to_string(i), 1.0, nullptr);
  grid.add_site("remote").store_file("data.root", 1'000'000'000);  // 10 s of staging
  ExecutionService exec(sim, grid, "s");

  ASSERT_TRUE(exec.submit(make_spec("done", 1)).is_ok());
  ASSERT_TRUE(exec.submit(make_spec("run", 100)).is_ok());
  auto staged = make_spec("stage", 100);
  staged.input_files = {"data.root"};
  ASSERT_TRUE(exec.submit(staged).is_ok());
  ASSERT_TRUE(exec.submit(make_spec("susp", 50)).is_ok());
  ASSERT_TRUE(exec.submit(make_spec("killme", 50)).is_ok());
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(exec.submit(make_spec("q" + std::to_string(i), 50, "bob", i % 2)).is_ok());
  }
  sim.run_until(from_seconds(3));  // "done" finished; q1 took its node
  ASSERT_TRUE(exec.suspend("susp").is_ok());
  ASSERT_TRUE(exec.kill("killme").is_ok());
  sim.run_until(from_seconds(4));

  const auto all = exec.list_tasks();
  ASSERT_EQ(all.size(), 9u);
  std::set<TaskState> states;
  for (const TaskInfo& info : all) {
    states.insert(info.state);
    auto queried = exec.query(info.spec.id);
    ASSERT_TRUE(queried.is_ok());
    expect_same_task_info(info, queried.value());
  }
  EXPECT_EQ(states, (std::set<TaskState>{TaskState::kQueued, TaskState::kStaging,
                                         TaskState::kRunning, TaskState::kSuspended,
                                         TaskState::kCompleted, TaskState::kKilled}));
  EXPECT_EQ(exec.query("q3").value().queue_position, 0);  // priority 1 before 0
  EXPECT_EQ(exec.query("q2").value().queue_position, 2);

  exec.fail_service();
  EXPECT_TRUE(exec.list_tasks().empty());
}

}  // namespace
}  // namespace gae::exec
