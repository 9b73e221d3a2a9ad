#include "estimators/queue_time_estimator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "sim/load.h"

namespace gae::estimators {
namespace {

exec::TaskSpec spec(const std::string& id, double work, int priority = 0) {
  exec::TaskSpec s;
  s.id = id;
  s.work_seconds = work;
  s.priority = priority;
  return s;
}

class QueueEstimatorTest : public ::testing::Test {
 protected:
  QueueEstimatorTest() {
    grid_.add_site("s").add_node("n0", 1.0, nullptr);
    service_ = std::make_unique<exec::ExecutionService>(sim_, grid_, "s");
    db_ = std::make_shared<EstimateDatabase>();
  }

  sim::Simulation sim_;
  sim::Grid grid_;
  std::unique_ptr<exec::ExecutionService> service_;
  std::shared_ptr<EstimateDatabase> db_;
};

TEST_F(QueueEstimatorTest, UnknownTaskIsError) {
  QueueTimeEstimator est(*service_, db_);
  EXPECT_EQ(est.estimate("nope").status().code(), StatusCode::kNotFound);
}

TEST_F(QueueEstimatorTest, RunningTaskWaitsZero) {
  ASSERT_TRUE(service_->submit(spec("t1", 100)).is_ok());
  sim_.run_until(from_seconds(1));
  QueueTimeEstimator est(*service_, db_);
  auto r = est.estimate("t1");
  ASSERT_TRUE(r.is_ok());
  EXPECT_DOUBLE_EQ(r.value().seconds, 0.0);
  EXPECT_EQ(r.value().tasks_ahead, 0u);
}

TEST_F(QueueEstimatorTest, SumsRemainingOfTasksAhead) {
  // running (est 100), then high-priority queued (est 50), then the target.
  ASSERT_TRUE(service_->submit(spec("running", 100, 0)).is_ok());
  db_->put("running", 100);
  sim_.run_until(from_seconds(20));  // running has 20 s elapsed
  ASSERT_TRUE(service_->submit(spec("high", 50, 5)).is_ok());
  db_->put("high", 50);
  ASSERT_TRUE(service_->submit(spec("target", 10, 1)).is_ok());

  QueueTimeEstimator est(*service_, db_);
  auto r = est.estimate("target");
  ASSERT_TRUE(r.is_ok());
  // running: 100 - 20 = 80 remaining; high: 50. Total 130.
  EXPECT_NEAR(r.value().seconds, 130.0, 1e-6);
  EXPECT_EQ(r.value().tasks_ahead, 2u);

  // The paper's formula tracks the actual start time on a 1-node pool:
  sim_.run();
  const SimTime started = service_->query("target").value().start_time;
  EXPECT_NEAR(to_seconds(started - from_seconds(20)), 130.0, 1.0);
}

TEST_F(QueueEstimatorTest, EqualPriorityAheadCountsByOption) {
  ASSERT_TRUE(service_->submit(spec("running", 100)).is_ok());
  db_->put("running", 100);
  ASSERT_TRUE(service_->submit(spec("ahead", 30, 1)).is_ok());
  db_->put("ahead", 30);
  ASSERT_TRUE(service_->submit(spec("target", 10, 1)).is_ok());

  QueueTimeOptions with;
  with.include_equal_priority_ahead = true;
  EXPECT_NEAR(QueueTimeEstimator(*service_, db_, with).estimate("target").value().seconds,
              130.0, 1e-6);

  QueueTimeOptions without;
  without.include_equal_priority_ahead = false;
  // Paper-faithful: only strictly higher priorities + running tasks.
  EXPECT_NEAR(
      QueueTimeEstimator(*service_, db_, without).estimate("target").value().seconds,
      100.0, 1e-6);
}

TEST_F(QueueEstimatorTest, LowerPriorityQueuedTasksIgnored) {
  ASSERT_TRUE(service_->submit(spec("running", 100)).is_ok());
  db_->put("running", 100);
  ASSERT_TRUE(service_->submit(spec("target", 10, 5)).is_ok());
  ASSERT_TRUE(service_->submit(spec("low", 500, 0)).is_ok());
  db_->put("low", 500);

  QueueTimeEstimator est(*service_, db_);
  EXPECT_NEAR(est.estimate("target").value().seconds, 100.0, 1e-6);
}

TEST_F(QueueEstimatorTest, SuspendedTasksDoNotCount) {
  ASSERT_TRUE(service_->submit(spec("running", 100)).is_ok());
  db_->put("running", 100);
  ASSERT_TRUE(service_->submit(spec("parked", 300, 9)).is_ok());
  db_->put("parked", 300);
  ASSERT_TRUE(service_->suspend("parked").is_ok());
  ASSERT_TRUE(service_->submit(spec("target", 10, 1)).is_ok());

  QueueTimeEstimator est(*service_, db_);
  EXPECT_NEAR(est.estimate("target").value().seconds, 100.0, 1e-6);
}

TEST_F(QueueEstimatorTest, FallbackEstimateForUnknownTasks) {
  ASSERT_TRUE(service_->submit(spec("running", 100)).is_ok());
  // No db entry for "running".
  ASSERT_TRUE(service_->submit(spec("target", 10, 0)).is_ok());
  QueueTimeOptions opts;
  opts.fallback_estimate_seconds = 250.0;
  QueueTimeEstimator est(*service_, db_, opts);
  EXPECT_NEAR(est.estimate("target").value().seconds, 250.0, 1e-6);
}

TEST_F(QueueEstimatorTest, DivideByNodesSpreadsBacklog) {
  sim::Grid grid;
  auto& site = grid.add_site("multi");
  site.add_node("n0", 1.0, nullptr);
  site.add_node("n1", 1.0, nullptr);
  exec::ExecutionService service(sim_, grid, "multi");
  auto db = std::make_shared<EstimateDatabase>();

  ASSERT_TRUE(service.submit(spec("r1", 100)).is_ok());
  ASSERT_TRUE(service.submit(spec("r2", 100)).is_ok());
  ASSERT_TRUE(service.submit(spec("q1", 100, 1)).is_ok());
  ASSERT_TRUE(service.submit(spec("target", 10, 0)).is_ok());
  for (const char* id : {"r1", "r2", "q1"}) db->put(id, 100);

  QueueTimeOptions plain;
  EXPECT_NEAR(QueueTimeEstimator(service, db, plain).estimate("target").value().seconds,
              300.0, 1e-6);
  QueueTimeOptions divided;
  divided.divide_by_nodes = true;
  EXPECT_NEAR(QueueTimeEstimator(service, db, divided).estimate("target").value().seconds,
              150.0, 1e-6);
}

TEST_F(QueueEstimatorTest, OverdueTasksContributeZeroNotNegative) {
  ASSERT_TRUE(service_->submit(spec("running", 100)).is_ok());
  db_->put("running", 30);  // estimate was far too low
  sim_.run_until(from_seconds(60));  // elapsed 60 > estimate 30
  ASSERT_TRUE(service_->submit(spec("target", 10, 0)).is_ok());
  QueueTimeEstimator est(*service_, db_);
  EXPECT_DOUBLE_EQ(est.estimate("target").value().seconds, 0.0);
}

// The sum as it was made before the estimator walked tasks in place: every
// TaskInfo copied out of list_tasks(), a second time to count busy nodes.
Result<QueueTimeEstimate> scan_queue_time(const exec::ExecutionService& service,
                                          const EstimateDatabase& estimates,
                                          const QueueTimeOptions& options,
                                          const std::string& task_id) {
  auto target = service.query(task_id);
  if (!target.is_ok()) return target.status();
  const exec::TaskInfo& info = target.value();
  QueueTimeEstimate out;
  if (info.state != exec::TaskState::kQueued) return out;
  for (const exec::TaskInfo& other : service.list_tasks()) {
    if (other.spec.id == task_id || exec::is_terminal(other.state)) continue;
    if (other.state == exec::TaskState::kSuspended) continue;
    bool counts = other.spec.priority > info.spec.priority;
    if (!counts && options.include_equal_priority_ahead &&
        other.spec.priority == info.spec.priority &&
        other.state == exec::TaskState::kQueued) {
      counts = other.queue_position >= 0 && info.queue_position >= 0 &&
               other.queue_position < info.queue_position;
    }
    if (!counts && (other.state == exec::TaskState::kRunning ||
                    other.state == exec::TaskState::kStaging)) {
      counts = true;
    }
    if (!counts) continue;
    const double estimated =
        estimates.get(other.spec.id).value_or(options.fallback_estimate_seconds);
    out.seconds += std::max(0.0, estimated - other.cpu_seconds_used);
    ++out.tasks_ahead;
  }
  if (options.divide_by_nodes) {
    std::size_t occupied = 0;
    for (const exec::TaskInfo& t : service.list_tasks()) {
      if (t.state == exec::TaskState::kRunning || t.state == exec::TaskState::kStaging) {
        ++occupied;
      }
    }
    out.seconds /= static_cast<double>(std::max<std::size_t>(1, occupied + service.free_nodes()));
  }
  return out;
}

// Random execution states — queued, staging, running, suspended and
// terminal tasks, mixed priorities, equal priorities queued ahead, drained
// nodes, tasks with no recorded estimate — and every task asked about under
// every option, against the list_tasks() scan, to the bit.
TEST(QueueEstimatorOracle, MatchesListTasksScanOnRandomStates) {
  std::size_t queued_targets = 0;
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    sim::Simulation sim;
    sim::Grid grid;
    auto& site = grid.add_site("s");
    const auto nodes = rng.uniform_int(1, 4);
    for (std::int64_t n = 0; n < nodes; ++n) site.add_node("n" + std::to_string(n), 1.0, nullptr);
    grid.add_site("far").add_node("f0", 1.0, nullptr);
    grid.site("far").store_file("input.dat", 50'000'000);
    grid.set_default_link({1e6, from_millis(30)});  // staging takes ~50 s
    exec::ExecutionService service(sim, grid, "s");
    auto db = std::make_shared<EstimateDatabase>();
    if (nodes > 1 && rng.bernoulli(0.5)) {
      ASSERT_TRUE(service.drain_node(0).is_ok());
    }

    std::vector<std::string> ids;
    for (int i = 0; i < 40; ++i) {
      // Ids out of submission order, so task-id order is not queue order.
      const std::string id = "t" + std::to_string(rng.uniform_int(100, 999)) + "-" +
                             std::to_string(i);
      exec::TaskSpec s =
          spec(id, rng.uniform(20.0, 400.0), static_cast<int>(rng.uniform_int(0, 3)));
      if (rng.bernoulli(0.3)) s.input_files = {"input.dat"};
      ASSERT_TRUE(service.submit(s).is_ok());
      if (rng.bernoulli(0.7)) db->put(id, rng.uniform(10.0, 500.0));
      ids.push_back(id);
      sim.run_until(sim.now() + from_seconds(rng.uniform(0.0, 15.0)));
      const std::string& other = rng.pick(ids);
      const double action = rng.uniform(0.0, 1.0);
      if (action < 0.08) {
        (void)service.suspend(other);
      } else if (action < 0.12) {
        (void)service.resume(other);
      } else if (action < 0.16) {
        (void)service.kill(other);
      } else if (action < 0.19) {
        (void)service.inject_task_failure(other, "injected");
      } else if (action < 0.27) {
        (void)service.set_priority(other, static_cast<int>(rng.uniform_int(0, 3)));
      }
    }

    ids.push_back("no-such-task");
    for (const std::string& id : ids) {
      const auto info = service.query(id);
      if (info.is_ok() && info.value().state == exec::TaskState::kQueued) ++queued_targets;
      for (const bool equal_ahead : {true, false}) {
        for (const bool divide : {false, true}) {
          QueueTimeOptions options;
          options.include_equal_priority_ahead = equal_ahead;
          options.divide_by_nodes = divide;
          options.fallback_estimate_seconds = 321.0;
          const auto got = QueueTimeEstimator(service, db, options).estimate(id);
          const auto want = scan_queue_time(service, *db, options, id);
          ASSERT_EQ(got.status().code(), want.status().code()) << id;
          if (!got.is_ok()) continue;
          ASSERT_EQ(std::bit_cast<std::uint64_t>(got.value().seconds),
                    std::bit_cast<std::uint64_t>(want.value().seconds))
              << id;
          ASSERT_EQ(got.value().tasks_ahead, want.value().tasks_ahead) << id;
        }
      }
    }
  }
  EXPECT_GT(queued_targets, 100u);  // the states did queue work
}

}  // namespace
}  // namespace gae::estimators
