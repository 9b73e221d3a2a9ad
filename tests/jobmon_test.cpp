#include "jobmon/service.h"

#include <gtest/gtest.h>

#include "clarens/host.h"
#include "common/clock.h"
#include "jobmon/read_cache.h"
#include "jobmon/rpc_binding.h"
#include "sim/load.h"

namespace gae::jobmon {
namespace {

exec::TaskSpec spec(const std::string& id, double work, int priority = 0) {
  exec::TaskSpec s;
  s.id = id;
  s.job_id = "job-1";
  s.owner = "alice";
  s.work_seconds = work;
  s.priority = priority;
  s.environment = {{"HOME", "/home/alice"}};
  return s;
}

class JobMonTest : public ::testing::Test {
 protected:
  JobMonTest() {
    grid_.add_site("site-a").add_node("a0", 1.0, nullptr);
    grid_.add_site("site-b").add_node("b0", 1.0, nullptr);
    exec_a_ = std::make_unique<exec::ExecutionService>(sim_, grid_, "site-a");
    exec_b_ = std::make_unique<exec::ExecutionService>(sim_, grid_, "site-b");
    estimates_ = std::make_shared<estimators::EstimateDatabase>();
    jms_ = std::make_unique<JobMonitoringService>(sim_.clock(), &monitoring_, estimates_);
    jms_->attach_site("site-a", exec_a_.get());
    jms_->attach_site("site-b", exec_b_.get());
  }

  sim::Simulation sim_;
  sim::Grid grid_;
  monalisa::Repository monitoring_;
  std::unique_ptr<exec::ExecutionService> exec_a_, exec_b_;
  std::shared_ptr<estimators::EstimateDatabase> estimates_;
  std::unique_ptr<JobMonitoringService> jms_;
};

TEST_F(JobMonTest, UnknownTaskIsNotFound) {
  EXPECT_EQ(jms_->info("ghost").status().code(), StatusCode::kNotFound);
}

TEST_F(JobMonTest, LiveInfoWhileRunning) {
  estimates_->put("t1", 120.0);
  ASSERT_TRUE(exec_a_->submit(spec("t1", 100)).is_ok());
  sim_.run_until(from_seconds(30));

  auto r = jms_->info("t1");
  ASSERT_TRUE(r.is_ok());
  EXPECT_FALSE(r.value().from_database);
  EXPECT_EQ(r.value().site, "site-a");
  EXPECT_EQ(r.value().info.state, exec::TaskState::kRunning);
  EXPECT_NEAR(r.value().info.cpu_seconds_used, 30.0, 1e-6);
  EXPECT_NEAR(r.value().elapsed_seconds, 30.0, 1e-6);
  EXPECT_DOUBLE_EQ(r.value().estimated_runtime_seconds, 120.0);
  // remaining = estimate - cpu = 90.
  EXPECT_NEAR(r.value().remaining_seconds, 90.0, 1e-6);
  EXPECT_EQ(r.value().info.spec.environment.at("HOME"), "/home/alice");
}

TEST_F(JobMonTest, ConvenienceAccessors) {
  estimates_->put("t1", 100.0);
  ASSERT_TRUE(exec_a_->submit(spec("t1", 100)).is_ok());
  ASSERT_TRUE(exec_a_->submit(spec("t2", 50, 0)).is_ok());
  sim_.run_until(from_seconds(10));

  EXPECT_EQ(jms_->status("t1").value(), "RUNNING");
  EXPECT_EQ(jms_->status("t2").value(), "QUEUED");
  EXPECT_EQ(jms_->queue_position("t2").value(), 0);
  EXPECT_NEAR(jms_->elapsed_time("t1").value(), 10.0, 1e-6);
  EXPECT_NEAR(jms_->remaining_time("t1").value(), 90.0, 1e-6);
  EXPECT_NEAR(jms_->progress("t1").value(), 0.1, 1e-6);
}

TEST_F(JobMonTest, TerminalTaskServedFromDatabase) {
  ASSERT_TRUE(exec_a_->submit(spec("t1", 10)).is_ok());
  sim_.run();
  auto r = jms_->info("t1");
  ASSERT_TRUE(r.is_ok());
  EXPECT_TRUE(r.value().from_database);
  EXPECT_EQ(r.value().info.state, exec::TaskState::kCompleted);
  EXPECT_DOUBLE_EQ(r.value().remaining_seconds, 0.0);
  EXPECT_NEAR(r.value().elapsed_seconds, 10.0, 1e-6);
}

TEST_F(JobMonTest, DbServesAfterServiceFailure) {
  ASSERT_TRUE(exec_a_->submit(spec("t1", 100)).is_ok());
  sim_.run_until(from_seconds(40));
  exec_a_->fail_service("disk died");

  // The collector cannot reach site-a anymore, but the DB saw the failure
  // transition and still answers.
  auto r = jms_->info("t1");
  ASSERT_TRUE(r.is_ok());
  EXPECT_TRUE(r.value().from_database);
  EXPECT_EQ(r.value().info.state, exec::TaskState::kFailed);
  EXPECT_NEAR(r.value().info.cpu_seconds_used, 40.0, 1e-6);
}

TEST_F(JobMonTest, StateChangesPublishedToMonALISA) {
  ASSERT_TRUE(exec_a_->submit(spec("t1", 10)).is_ok());
  sim_.run();
  const auto events = monitoring_.events_since(0);
  ASSERT_GE(events.size(), 4u);  // QUEUED, STAGING, RUNNING, COMPLETED
  EXPECT_EQ(events.front().kind, "job_state");
  EXPECT_EQ(events.front().payload, "t1:QUEUED");
  EXPECT_EQ(events.back().payload, "t1:COMPLETED");
  EXPECT_EQ(events.back().source, "site-a");
}

TEST_F(JobMonTest, ListAllSpansSitesAndArchive) {
  ASSERT_TRUE(exec_a_->submit(spec("t1", 5)).is_ok());
  ASSERT_TRUE(exec_b_->submit(spec("t2", 500)).is_ok());
  sim_.run_until(from_seconds(20));  // t1 done, t2 running
  const auto all = jms_->list_all();
  ASSERT_EQ(all.size(), 2u);
}

TEST_F(JobMonTest, CrossSiteLookup) {
  ASSERT_TRUE(exec_b_->submit(spec("b-task", 100)).is_ok());
  sim_.run_until(from_seconds(1));
  auto r = jms_->info("b-task");
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(r.value().site, "site-b");
}

TEST_F(JobMonTest, JobSummaryAggregates) {
  auto s1 = spec("t1", 10);
  auto s2 = spec("t2", 1000);
  auto s3 = spec("t3", 1000);
  ASSERT_TRUE(exec_a_->submit(s1).is_ok());
  ASSERT_TRUE(exec_a_->submit(s2).is_ok());
  ASSERT_TRUE(exec_b_->submit(s3).is_ok());
  sim_.run_until(from_seconds(50));  // t1 done; t2 queued behind? t1 finished at 10 -> t2 running; t3 running

  auto summary = jms_->job_summary("job-1");
  ASSERT_TRUE(summary.is_ok()) << summary.status();
  EXPECT_EQ(summary.value().tasks_total, 3u);
  EXPECT_EQ(summary.value().completed, 1u);
  EXPECT_EQ(summary.value().running, 2u);
  EXPECT_GT(summary.value().total_cpu_seconds, 10.0);
  EXPECT_GT(summary.value().mean_progress, 0.0);
  EXPECT_EQ(jms_->job_summary("ghost-job").status().code(), StatusCode::kNotFound);
}

TEST_F(JobMonTest, ProgressSeriesPublishedToMonALISA) {
  ASSERT_TRUE(exec_a_->submit(spec("t1", 100)).is_ok());
  sim_.run_until(from_seconds(60));
  ASSERT_TRUE(exec_a_->suspend("t1").is_ok());  // forces an update at 60% progress
  auto latest = monitoring_.latest("t1", "progress");
  ASSERT_TRUE(latest.is_ok());
  EXPECT_NEAR(latest.value().value, 0.6, 1e-6);
  sim_.run();
}

TEST_F(JobMonTest, EventFeedTailsStateChanges) {
  ASSERT_TRUE(exec_a_->submit(spec("t1", 10)).is_ok());
  sim_.run();
  // QUEUED, STAGING, RUNNING, COMPLETED.
  auto events = jms_->events_since(0);
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events[0].seq, 1u);
  EXPECT_EQ(events[0].state, exec::TaskState::kQueued);
  EXPECT_EQ(events[3].state, exec::TaskState::kCompleted);
  EXPECT_EQ(events[3].site, "site-a");
  EXPECT_EQ(jms_->last_event_seq(), 4u);

  // Tail from a midpoint; and max caps the batch.
  EXPECT_EQ(jms_->events_since(2).size(), 2u);
  EXPECT_EQ(jms_->events_since(0, 3).size(), 3u);
  EXPECT_TRUE(jms_->events_since(4).empty());
}

TEST_F(JobMonTest, RpcBindingRoundTrip) {
  ManualClock clock;
  clarens::HostOptions opts;
  opts.require_auth = false;
  clarens::ClarensHost host("jm-host", clock, opts);
  register_jobmon_methods(host, *jms_);

  estimates_->put("t1", 100.0);
  ASSERT_TRUE(exec_a_->submit(spec("t1", 100)).is_ok());
  sim_.run_until(from_seconds(25));

  auto info = host.call("jobmon.info", {rpc::Value("t1")});
  ASSERT_TRUE(info.is_ok()) << info.status();
  EXPECT_EQ(info.value().get_string("status", ""), "RUNNING");
  EXPECT_EQ(info.value().get_string("site", ""), "site-a");
  EXPECT_NEAR(info.value().get_double("cpu_seconds_used", 0), 25.0, 1e-6);
  EXPECT_NEAR(info.value().get_double("remaining_seconds", 0), 75.0, 1e-6);
  EXPECT_EQ(info.value().get_int("priority", -1), 0);
  EXPECT_EQ(info.value().at("environment").get_string("HOME", ""), "/home/alice");

  EXPECT_EQ(host.call("jobmon.status", {rpc::Value("t1")}).value().as_string(),
            "RUNNING");
  EXPECT_NEAR(host.call("jobmon.remainingTime", {rpc::Value("t1")}).value().as_double(),
              75.0, 1e-6);
  EXPECT_NEAR(host.call("jobmon.progress", {rpc::Value("t1")}).value().as_double(), 0.25,
              1e-6);
  EXPECT_EQ(host.call("jobmon.queuePosition", {rpc::Value("t1")}).value().as_int(), -1);

  auto list = host.call("jobmon.list", {});
  ASSERT_TRUE(list.is_ok());
  EXPECT_EQ(list.value().as_array().size(), 1u);

  auto summary = host.call("jobmon.jobSummary", {rpc::Value("job-1")});
  ASSERT_TRUE(summary.is_ok()) << summary.status();
  EXPECT_EQ(summary.value().get_int("tasks_total", 0), 1);
  EXPECT_EQ(summary.value().get_int("running", 0), 1);

  auto events = host.call("jobmon.eventsSince", {rpc::Value(0)});
  ASSERT_TRUE(events.is_ok()) << events.status();
  ASSERT_EQ(events.value().as_array().size(), 3u);  // QUEUED, STAGING, RUNNING
  EXPECT_EQ(events.value().as_array()[0].get_string("state", ""), "QUEUED");
  EXPECT_EQ(host.call("jobmon.eventsSince", {}).status().code(),
            StatusCode::kInvalidArgument);

  // Bad arguments become INVALID_ARGUMENT faults.
  EXPECT_EQ(host.call("jobmon.info", {}).status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(host.call("jobmon.info", {rpc::Value(5)}).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(host.call("jobmon.info", {rpc::Value("ghost")}).status().code(),
            StatusCode::kNotFound);

  // Service registered itself for discovery.
  EXPECT_TRUE(host.registry().lookup("jobmon@jm-host").is_ok());
}

TEST_F(JobMonTest, ReadCacheServesRepeatsAndInvalidatesOnTransitions) {
  ManualClock clock;
  clarens::HostOptions opts;
  opts.require_auth = false;
  clarens::ClarensHost host("jm-host", clock, opts);

  std::int64_t fake_now = 0;
  ReadCacheOptions cache_options;
  cache_options.ttl_ms = 1000;
  cache_options.now_us = [&fake_now] { return fake_now; };
  telemetry::MetricsRegistry cache_metrics;
  cache_options.metrics = &cache_metrics;
  ReadCache cache(cache_options);
  register_jobmon_methods(host, *jms_, nullptr, nullptr, nullptr, 2000, &cache);

  estimates_->put("t1", 100.0);
  ASSERT_TRUE(exec_a_->submit(spec("t1", 100)).is_ok());
  sim_.run_until(from_seconds(25));
  // The QUEUED/STAGING/RUNNING transitions already invalidated (empty) keys.
  const auto baseline_invalidations = cache_metrics.counter("jobmon.cache.invalidations").value();

  // First read misses and populates; the repeat is served from the cache
  // and carries the stale marker.
  auto first = host.call("jobmon.info", {rpc::Value("t1")});
  ASSERT_TRUE(first.is_ok()) << first.status();
  EXPECT_FALSE(first.value().get_bool("stale", true));
  auto second = host.call("jobmon.info", {rpc::Value("t1")});
  ASSERT_TRUE(second.is_ok());
  EXPECT_TRUE(second.value().get_bool("stale", false));
  EXPECT_EQ(second.value().get_string("status", ""), "RUNNING");
  EXPECT_EQ(cache_metrics.counter("jobmon.cache.hits").value(), 1u);

  // status and list ride the cache too.
  ASSERT_TRUE(host.call("jobmon.status", {rpc::Value("t1")}).is_ok());
  EXPECT_EQ(host.call("jobmon.status", {rpc::Value("t1")}).value().as_string(),
            "RUNNING");
  ASSERT_TRUE(host.call("jobmon.list", {}).is_ok());
  ASSERT_TRUE(host.call("jobmon.list", {}).is_ok());
  EXPECT_GE(cache_metrics.counter("jobmon.cache.hits").value(), 3u);

  // The collector's completion transition invalidates, so the next read is
  // fresh — not a TTL-stale RUNNING snapshot.
  sim_.run_until(from_seconds(200));
  EXPECT_GT(cache_metrics.counter("jobmon.cache.invalidations").value(), baseline_invalidations);
  auto after = host.call("jobmon.info", {rpc::Value("t1")});
  ASSERT_TRUE(after.is_ok()) << after.status();
  EXPECT_FALSE(after.value().get_bool("stale", true));
  EXPECT_EQ(after.value().get_string("status", ""), "COMPLETED");

  // And entries age out on their own: past the TTL the repeat re-misses.
  const auto misses_before = cache_metrics.counter("jobmon.cache.misses").value();
  fake_now += 2'000'000;
  ASSERT_TRUE(host.call("jobmon.info", {rpc::Value("t1")}).is_ok());
  EXPECT_GT(cache_metrics.counter("jobmon.cache.misses").value(), misses_before);
}

}  // namespace
}  // namespace gae::jobmon
