// Tests of the benchmark's summary math and answer checkers.
//
//   cmake --build <build-dir> --target gaebench_test && <build-dir>/gaebench_test
//
// (or `python3 gaebench/run.py --self-test` from the repository root).
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "summary.h"

namespace {

int failures = 0;

void expect(bool ok, const char* what, int line) {
  if (ok) return;
  ++failures;
  std::fprintf(stderr, "summary_test.cpp:%d: FAILED: %s\n", line, what);
}

#define EXPECT(cond) expect((cond), #cond, __LINE__)
#define EXPECT_NEAR(a, b) expect(std::fabs((a) - (b)) < 1e-9, #a " == " #b, __LINE__)

using gae::StatusCode;
using gae::rpc::Struct;
using gae::rpc::Value;
using namespace gaebench;

/// `a` within the histogram's resolution (half a 1 % bucket) of `b`.
#define EXPECT_CLOSE(a, b) \
  expect(std::fabs((a) - (b)) <= 0.005 * std::fabs(b) + 1e-9, #a " ~= " #b, __LINE__)

LatencyHistogram ramp(int n) {
  LatencyHistogram h;
  for (int i = n; i >= 1; --i) h.record(static_cast<double>(i));  // any order
  return h;
}

void histogram_ranks() {
  const LatencyHistogram h = ramp(99);
  EXPECT(h.count() == 99);
  EXPECT_CLOSE(h.at_rank(1), 1.0);
  EXPECT_CLOSE(h.at_rank(50), 50.0);
  EXPECT_CLOSE(h.at_rank(99), 99.0);
  EXPECT_CLOSE(h.at_rank(500), 99.0);  // clamped to the slowest
  // Entries sharing a bucket spread across it in rank order.
  LatencyHistogram same;
  for (int i = 0; i < 4; ++i) same.record(1000.0);
  EXPECT(same.at_rank(1) < same.at_rank(2) && same.at_rank(2) < same.at_rank(4));
  EXPECT_CLOSE(same.at_rank(2), 1000.0);
  // Out-of-range latencies land in the end buckets.
  LatencyHistogram edges;
  edges.record(0.01);
  edges.record(1e9);
  EXPECT_CLOSE(edges.at_rank(1), 1.0);
  EXPECT(edges.at_rank(2) >= 1e7);
  LatencyHistogram merged = ramp(10);
  merged.merge(ramp(10));
  EXPECT(merged.count() == 20);
  EXPECT_CLOSE(merged.at_rank(20), 10.0);
  EXPECT(LatencyHistogram{}.at_rank(1) == 0.0);
}

void percentiles_count_failures_as_slowest() {
  constexpr double kPenalty = 400'000.0;
  // 99 successes (1..99 µs) and one failure: rank 99 of 100 is the slowest
  // success; the failure sits above it.
  EXPECT_CLOSE(percentile_with_failures(ramp(99), 1, 99.0, kPenalty), 99.0);
  // Two failures push rank 99 of 100 onto a failure.
  EXPECT_NEAR(percentile_with_failures(ramp(98), 2, 99.0, kPenalty), kPenalty);
  // A failure never lowers a percentile, even when it was quick to fail.
  EXPECT_CLOSE(percentile_with_failures(ramp(50), 50, 50.0, kPenalty), 50.0);
  EXPECT_NEAR(percentile_with_failures(ramp(49), 51, 50.0, kPenalty), kPenalty);
  // Nothing attempted.
  EXPECT_NEAR(percentile_with_failures(LatencyHistogram{}, 0, 99.0, kPenalty), 0.0);
  // Only failures.
  EXPECT_NEAR(percentile_with_failures(LatencyHistogram{}, 3, 50.0, kPenalty), kPenalty);
}

void summary_counts_every_attempt() {
  WindowLog log(2.0, 2);
  for (int i = 0; i < 8; ++i) log.record(i * 0.1, 10.0 + i, StatusCode::kOk);
  log.record(0.85, 1.0, StatusCode::kResourceExhausted);
  log.record(0.9, 2.0, StatusCode::kDeadlineExceeded);
  const WindowSummary s = summarize(log, 2.0, 400'000.0);
  EXPECT(s.attempted == 10);
  EXPECT(s.succeeded == 8);
  EXPECT(s.failed == 2);
  EXPECT(s.failures_by_code.at("RESOURCE_EXHAUSTED") == 1);
  EXPECT(s.failures_by_code.at("DEADLINE_EXCEEDED") == 1);
  // Bases: throughput counts successes per second of window; rates are
  // shares of attempts.
  EXPECT_NEAR(s.throughput_rps, 4.0);
  EXPECT_NEAR(s.success_rate, 0.8);
  EXPECT_NEAR(s.error_rate, 0.2);
  // p99 of 10 attempts is rank 10: a failure.
  EXPECT_NEAR(s.p99_us, 400'000.0);
  // p50 is rank 5: the fifth-fastest success (10, 11, 12, 13, 14).
  EXPECT_CLOSE(s.p50_us, 14.0);
}

void slices_take_medians() {
  // Four one-second slices: 2, 2, 2 and 10 successes; the stall-free
  // majority sets the median throughput.
  WindowLog log(4.0, 4);
  const int per_slice[] = {2, 2, 2, 10};
  for (int slice = 0; slice < 4; ++slice) {
    for (int i = 0; i < per_slice[slice]; ++i) {
      log.record(slice + 0.001 * (i + 1), 100.0 * (slice + 1), StatusCode::kOk);
    }
  }
  const WindowSummary s = summarize_slices(log, 4.0, 400'000.0);
  EXPECT(s.attempted == 16);
  EXPECT_NEAR(s.throughput_rps, 2.0);
  EXPECT_CLOSE(s.p50_us, 250.0);  // slice p50s 100, 200, 300, 400
  // Completions after the nominal end land in the last slice; merging
  // adds slice by slice.
  WindowLog late(4.0, 4);
  late.record(5.5, 1.0, StatusCode::kUnavailable);
  log.merge(late);
  EXPECT(log.slices()[3].failed() == 1);
  EXPECT(summarize(log, 4.0, 400'000.0).attempted == 17);
}

void ratios_and_medians() {
  EXPECT_NEAR(ratio(3.0, 4.0), 0.75);
  EXPECT_NEAR(ratio(3.0, 0.0), 0.0);
  EXPECT_NEAR(median({3, 1, 2}), 2.0);
  EXPECT_NEAR(median({4, 1, 3, 2}), 2.5);
  EXPECT_NEAR(median({}), 0.0);
  EXPECT_NEAR(percentile({40, 10, 30, 20}, 50.0), 20.0);
  EXPECT_NEAR(percentile({40, 10, 30, 20}, 100.0), 40.0);
  EXPECT_NEAR(percentile({}, 99.0), 0.0);
}

void drift_compares_window_ends() {
  WindowLog log(1.0, 10);
  for (int i = 0; i < 10; ++i) log.record(i * 0.1 + 0.05, 100.0 + 10 * i, StatusCode::kOk);
  log.record(0.95, 1.0, StatusCode::kInternal);  // failures do not count
  // First fifth: 100, 110 -> p50 100. Last fifth: 180, 190 -> p50 180.
  EXPECT(std::fabs(latency_drift(log, 0.2) - 1.8) < 0.02);
}

SpanRecord span(std::uint64_t id, std::uint64_t parent, std::int64_t start, std::int64_t dur) {
  SpanRecord s;
  s.trace_id = 1;
  s.span_id = id;
  s.parent_id = parent;
  s.start_us = start;
  s.duration_us = dur;
  s.kind = "internal";
  return s;
}

void self_time_subtracts_children() {
  const SpanRecord parent = span(1, 0, 1000, 100);
  EXPECT(self_time_us(parent, {}) == 100);
  EXPECT(self_time_us(parent, {span(2, 1, 1010, 30)}) == 70);
  // Overlapping children count once: [1010,1040) u [1030,1060) = 50.
  EXPECT(self_time_us(parent, {span(2, 1, 1010, 30), span(3, 1, 1030, 30)}) == 50);
  // Disjoint children add: 20 + 20.
  EXPECT(self_time_us(parent, {span(2, 1, 1000, 20), span(3, 1, 1080, 20)}) == 60);
  // A child poking out of the parent is clipped to it: [1090,1100) = 10.
  EXPECT(self_time_us(parent, {span(2, 1, 1090, 50)}) == 90);
  // A child wholly outside covers nothing; one covering everything leaves 0.
  EXPECT(self_time_us(parent, {span(2, 1, 2000, 50)}) == 100);
  EXPECT(self_time_us(parent, {span(2, 1, 900, 500)}) == 0);
}

void span_tree_walks_parents() {
  SpanRecord client = span(1, 0, 0, 100);
  client.kind = "client";
  SpanRecord server = span(2, 1, 20, 60);
  server.kind = "server";
  SpanRecord handler = span(3, 2, 30, 40);
  handler.service = "jobmon";
  handler.name = "info";
  const SpanTree tree({client, server, handler});
  EXPECT(tree.children(1).size() == 1);
  EXPECT(tree.children(3).empty());
  // Client minus server, server minus handler.
  EXPECT(self_time_us(client, tree.children(1)) == 40);
  EXPECT(self_time_us(server, tree.children(2)) == 20);
  EXPECT(tree.durations("internal", "jobmon", "info") == std::vector<double>{40.0});
  EXPECT(tree.durations("internal", "steering", "").empty());
}

Value info(const std::string& id, const std::string& status, std::int64_t priority, bool stale) {
  Struct s;
  s["task_id"] = Value(id);
  s["status"] = Value(status);
  s["priority"] = Value(priority);
  s["stale"] = Value(stale);
  return Value(std::move(s));
}

void checkers() {
  EXPECT(check_jobmon_info(info("t1", "RUNNING", 0, false), "t1").verdict == Verdict::kCorrect);
  EXPECT(check_jobmon_info(info("t2", "RUNNING", 0, false), "t1").verdict == Verdict::kWrong);
  EXPECT(check_jobmon_info(info("t1", "DANCING", 0, false), "t1").verdict == Verdict::kWrong);
  EXPECT(check_jobmon_info(Value("t1"), "t1").verdict == Verdict::kWrong);

  Struct est;
  est["seconds"] = Value(12.5);
  est["degraded"] = Value(false);
  EXPECT(check_runtime_estimate(Value(est), 12.5).verdict == Verdict::kCorrect);
  EXPECT(check_runtime_estimate(Value(est), 12.500001).verdict == Verdict::kWrong);
  est["degraded"] = Value(true);
  EXPECT(check_runtime_estimate(Value(est), 99.0).verdict == Verdict::kFlagged);

  Struct queue;
  queue["seconds"] = Value(30.0);
  queue["tasks_ahead"] = Value(std::int64_t{3});
  EXPECT(check_queue_estimate(Value(queue), 30.0, 3).verdict == Verdict::kCorrect);
  EXPECT(check_queue_estimate(Value(queue), 30.0, 4).verdict == Verdict::kWrong);

  const SteerExpectation paused{"t1", "SUSPENDED", "", -1};
  const SteerExpectation resumed{"t1", "", "SUSPENDED", -1};
  const SteerExpectation reprioritised{"t1", "", "", 7};
  EXPECT(check_steer_read(info("t1", "SUSPENDED", 0, false), paused).verdict == Verdict::kCorrect);
  EXPECT(check_steer_read(info("t1", "RUNNING", 0, false), paused).verdict == Verdict::kWrong);
  EXPECT(check_steer_read(info("t1", "RUNNING", 0, true), paused).verdict == Verdict::kFlagged);
  EXPECT(check_steer_read(info("t1", "QUEUED", 0, false), resumed).verdict == Verdict::kCorrect);
  EXPECT(check_steer_read(info("t1", "SUSPENDED", 0, false), resumed).verdict == Verdict::kWrong);
  EXPECT(check_steer_read(info("t1", "QUEUED", 7, false), reprioritised).verdict ==
         Verdict::kCorrect);
  EXPECT(check_steer_read(info("t1", "QUEUED", 3, false), reprioritised).verdict ==
         Verdict::kWrong);
  // A stale flag waives the command check but not the identity check.
  EXPECT(check_steer_read(info("t9", "QUEUED", 3, true), reprioritised).verdict ==
         Verdict::kWrong);
}

}  // namespace

int main() {
  histogram_ranks();
  percentiles_count_failures_as_slowest();
  summary_counts_every_attempt();
  slices_take_medians();
  ratios_and_medians();
  drift_compares_window_ends();
  self_time_subtracts_children();
  span_tree_walks_parents();
  checkers();
  if (failures == 0) std::printf("gaebench_test: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
