// Property-based checks on the execution service's accounting invariants,
// swept over random workloads and load profiles.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/rng.h"
#include "exec/execution_service.h"
#include "sim/load.h"

namespace gae::exec {
namespace {

struct Scenario {
  std::uint64_t seed;
  int tasks;
  int nodes;
};

class ExecPropertyTest : public ::testing::TestWithParam<Scenario> {};

TEST_P(ExecPropertyTest, AccountingInvariantsHold) {
  const Scenario sc = GetParam();
  Rng rng(sc.seed);

  sim::Simulation sim;
  sim::Grid grid;
  auto& site = grid.add_site("s");
  for (int n = 0; n < sc.nodes; ++n) {
    // Mixed load profiles, including time-varying ones.
    std::shared_ptr<sim::LoadProfile> profile;
    switch (rng.uniform_int(0, 2)) {
      case 0:
        profile = std::make_shared<sim::ConstantLoad>(rng.uniform(0.0, 0.8));
        break;
      case 1:
        profile = std::make_shared<sim::PeriodicLoad>(
            rng.uniform(0.0, 0.3), rng.uniform(0.4, 0.9),
            from_seconds(rng.uniform(5, 60)), from_seconds(rng.uniform(5, 60)));
        break;
      default:
        profile = std::shared_ptr<sim::LoadProfile>(sim::make_random_walk_load(
            rng.fork("walk" + std::to_string(n)), 0.0, 0.9, from_seconds(20),
            from_seconds(20000)));
    }
    site.add_node("n" + std::to_string(n), rng.uniform(0.5, 2.0), profile);
  }

  ExecutionService exec(sim, grid, "s");
  std::vector<double> works;
  for (int i = 0; i < sc.tasks; ++i) {
    TaskSpec spec;
    spec.id = "t" + std::to_string(i);
    spec.job_id = "job";
    spec.owner = "u";
    spec.work_seconds = rng.uniform(1.0, 300.0);
    spec.priority = static_cast<int>(rng.uniform_int(0, 3));
    works.push_back(spec.work_seconds);
    ASSERT_TRUE(exec.submit(spec).is_ok());
  }

  sim.run();

  for (int i = 0; i < sc.tasks; ++i) {
    auto info = exec.query("t" + std::to_string(i));
    ASSERT_TRUE(info.is_ok());
    const TaskInfo& t = info.value();

    // Everything completes (no failures configured).
    EXPECT_EQ(t.state, TaskState::kCompleted) << t.spec.id;

    // CPU accounting lands exactly on the requested work.
    EXPECT_NEAR(t.cpu_seconds_used, works[static_cast<std::size_t>(i)], 1e-6);
    EXPECT_DOUBLE_EQ(t.progress, 1.0);

    // Causality: submit <= start <= completion.
    EXPECT_LE(t.submit_time, t.start_time);
    EXPECT_LT(t.start_time, t.completion_time);

    // Wall time running >= work / max-possible-rate. With speeds <= 2.0 the
    // run cannot take less than work/2 wall seconds.
    const double wall = to_seconds(t.completion_time - t.start_time);
    EXPECT_GE(wall + 1e-6, works[static_cast<std::size_t>(i)] / 2.0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ExecPropertyTest,
    ::testing::Values(Scenario{1, 5, 1}, Scenario{2, 10, 2}, Scenario{3, 20, 3},
                      Scenario{4, 30, 4}, Scenario{5, 8, 8}, Scenario{6, 40, 2},
                      Scenario{7, 15, 5}, Scenario{8, 25, 1}));

/// Determinism: the same scenario replayed twice yields identical timings.
TEST(ExecDeterminism, IdenticalRunsProduceIdenticalTimelines) {
  auto run_once = [] {
    sim::Simulation sim;
    sim::Grid grid;
    auto& site = grid.add_site("s");
    site.add_node("n0", 1.0,
                  std::make_shared<sim::PeriodicLoad>(0.1, 0.7, from_seconds(13),
                                                      from_seconds(7)));
    site.add_node("n1", 1.3, std::make_shared<sim::ConstantLoad>(0.2));
    ExecutionService exec(sim, grid, "s");
    for (int i = 0; i < 12; ++i) {
      TaskSpec spec;
      spec.id = "t" + std::to_string(i);
      spec.work_seconds = 10.0 + 7.0 * i;
      spec.priority = i % 3;
      exec.submit(spec);
    }
    sim.run();
    std::vector<SimTime> completions;
    for (const auto& info : exec.list_tasks()) completions.push_back(info.completion_time);
    return completions;
  };
  EXPECT_EQ(run_once(), run_once());
}

/// Priority inversion never happens among queued tasks: a task never starts
/// while a strictly higher-priority task is still queued.
TEST(ExecOrdering, NoPriorityInversionAtDispatch) {
  sim::Simulation sim;
  sim::Grid grid;
  grid.add_site("s").add_node("n0", 1.0, nullptr);
  ExecutionService exec(sim, grid, "s");

  std::vector<std::pair<std::string, int>> start_order;
  exec.subscribe([&](const TaskEvent& ev) {
    if (ev.new_state == TaskState::kStaging) {
      auto info = exec.query(ev.task_id);
      start_order.emplace_back(ev.task_id, info.value().spec.priority);
    }
  });

  Rng rng(99);
  for (int i = 0; i < 20; ++i) {
    TaskSpec spec;
    spec.id = "t" + std::to_string(i);
    spec.work_seconds = rng.uniform(1, 5);
    spec.priority = static_cast<int>(rng.uniform_int(0, 4));
    ASSERT_TRUE(exec.submit(spec).is_ok());
  }
  sim.run();

  // After the first dispatch (which happens per-submit), priorities of
  // subsequent starts must be non-increasing *per wave*: verify weaker but
  // robust invariant -- every started task had max priority among then-queued.
  // Since all tasks were submitted at t=0 before any completion, the start
  // order from the second task onwards must be sorted by priority desc.
  ASSERT_EQ(start_order.size(), 20u);
  for (std::size_t i = 2; i < start_order.size(); ++i) {
    EXPECT_GE(start_order[i - 1].second, start_order[i].second)
        << start_order[i - 1].first << " before " << start_order[i].first;
  }
}

/// Checks that the queue positions a service reports agree with its queue:
/// queued_tasks() holds each kQueued task once, in priority-then-FIFO order
/// (`stamp` numbers enqueues), and query() and list_tasks() report each
/// task's index in it, or -1 exactly when the task is not queued.
void expect_queue_consistent(const ExecutionService& exec,
                             const std::map<std::string, std::uint64_t>& stamp) {
  SCOPED_TRACE("site " + exec.site());
  const std::vector<TaskInfo> queued = exec.queued_tasks();
  std::map<std::string, int> index;
  for (std::size_t i = 0; i < queued.size(); ++i) {
    const TaskInfo& t = queued[i];
    ASSERT_EQ(t.queue_position, static_cast<int>(i)) << t.spec.id;
    ASSERT_EQ(t.state, TaskState::kQueued) << t.spec.id;
    ASSERT_TRUE(index.emplace(t.spec.id, static_cast<int>(i)).second) << t.spec.id << " twice";
    if (i == 0) continue;
    const TaskInfo& prev = queued[i - 1];
    ASSERT_GE(prev.spec.priority, t.spec.priority) << prev.spec.id << " before " << t.spec.id;
    if (prev.spec.priority == t.spec.priority) {
      ASSERT_LT(stamp.at(prev.spec.id), stamp.at(t.spec.id))
          << prev.spec.id << " before " << t.spec.id;
    }
  }
  if (!exec.is_up()) {
    ASSERT_TRUE(queued.empty());
    return;
  }
  std::size_t queued_in_list = 0;
  for (const TaskInfo& t : exec.list_tasks()) {
    const auto at = index.find(t.spec.id);
    const int want = at == index.end() ? -1 : at->second;
    ASSERT_EQ(t.queue_position, want) << t.spec.id;
    ASSERT_EQ(t.state == TaskState::kQueued, want >= 0) << t.spec.id;
    ASSERT_EQ(exec.query(t.spec.id).value().queue_position, want) << t.spec.id;
    if (want >= 0) ++queued_in_list;
  }
  ASSERT_EQ(queued_in_list, index.size());
}

/// Queue positions stay exact under every operation that moves a task in or
/// out of the queue: submits and resubmits, suspend, resume, kill,
/// re-prioritising, preemption, node failure with checkpoint restart,
/// flocking to a peer pool, fair-share picks, and whole-service failure and
/// recovery.
TEST(ExecQueueInvariant, PositionsMatchQueueUnderRandomOperations) {
  std::size_t max_queued = 0;
  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    sim::Simulation sim;
    sim::Grid grid;
    auto& site = grid.add_site("s");
    const auto nodes = rng.uniform_int(1, 3);
    for (std::int64_t n = 0; n < nodes; ++n) site.add_node("n" + std::to_string(n), 1.0, nullptr);
    grid.add_site("p").add_node("p0", 1.0, nullptr);

    ExecOptions options;
    options.preemptive = rng.bernoulli(0.5);
    options.fair_share = rng.bernoulli(0.5);
    options.mean_time_between_failures = rng.bernoulli(0.5) ? 120.0 : 0.0;
    options.checkpoint_interval_seconds = rng.bernoulli(0.5) ? 10.0 : 0.0;
    options.failure_seed = seed;
    ExecutionService exec(sim, grid, "s", options);
    ExecutionService peer(sim, grid, "p");
    if (rng.bernoulli(0.5)) exec.flock_with(&peer);

    // Enqueue order per site: every transition into kQueued enqueues.
    std::map<std::string, std::map<std::string, std::uint64_t>> stamp;
    std::uint64_t next_stamp = 0;
    for (ExecutionService* svc : {&exec, &peer}) {
      svc->subscribe([&stamp, &next_stamp](const TaskEvent& ev) {
        if (ev.new_state == TaskState::kQueued) stamp[ev.site][ev.task_id] = next_stamp++;
      });
    }

    std::vector<std::string> ids;
    for (int step = 0; step < 200; ++step) {
      const double action = rng.uniform(0.0, 1.0);
      const std::string other = ids.empty() ? "none" : rng.pick(ids);
      if (action < 0.35 || ids.empty()) {
        // A new task, or a resubmit of an old id (replaces a terminal record).
        TaskSpec spec;
        spec.id = !ids.empty() && rng.bernoulli(0.2) ? other : "t" + std::to_string(step);
        spec.owner = rng.bernoulli(0.5) ? "alice" : "bob";
        spec.work_seconds = rng.uniform(5.0, 80.0);
        spec.priority = static_cast<int>(rng.uniform_int(0, 3));
        spec.checkpointable = rng.bernoulli(0.5);
        if (exec.submit(spec).is_ok() && spec.id != other) ids.push_back(spec.id);
      } else if (action < 0.45) {
        (void)exec.suspend(other);
      } else if (action < 0.55) {
        (void)exec.resume(other);
      } else if (action < 0.60) {
        (void)exec.kill(other);
      } else if (action < 0.72) {
        // A queued task is re-enqueued without a transition; stamp it first,
        // as the dispatch that follows may enqueue others.
        const auto before = exec.query(other);
        if (before.is_ok() && before.value().state == TaskState::kQueued) {
          stamp["s"][other] = next_stamp++;
        }
        (void)exec.set_priority(other, static_cast<int>(rng.uniform_int(0, 3)));
      } else if (action < 0.74) {
        exec.fail_service("injected");
      } else if (action < 0.78) {
        exec.recover_service();
      } else {
        sim.run_until(sim.now() + from_seconds(rng.uniform(0.0, 20.0)));
      }
      SCOPED_TRACE("step " + std::to_string(step));
      expect_queue_consistent(exec, stamp["s"]);
      if (HasFatalFailure()) return;
      expect_queue_consistent(peer, stamp["p"]);
      if (HasFatalFailure()) return;
      max_queued = std::max(max_queued, exec.queued_tasks().size());
    }
  }
  EXPECT_GT(max_queued, 10u);  // the queue did grow
}

}  // namespace
}  // namespace gae::exec
