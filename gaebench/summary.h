// Summary math and answer checkers of the GAE service benchmark.
//
// Everything here is pure (no sockets, no threads) so summary_test.cpp can
// pin down the accounting rules the end-to-end numbers rest on:
//   - every attempted operation is counted; a failed or refused operation
//     ranks above every success in the latency percentiles;
//   - every ratio names its base (a zero base gives 0, never NaN);
//   - a span's self time is its duration minus the part of it that its
//     child spans cover.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "rpc/value.h"

namespace gaebench {

// -- Operation accounting ---------------------------------------------------

/// Latencies of successful operations in fixed, geometrically spaced
/// buckets, each 1 % wide, from 1 µs to 10 s (faster lands in the first
/// bucket, slower in the last). Its memory is fixed, so what a window
/// records does not grow with throughput and stays out of the process's
/// peak RSS.
class LatencyHistogram {
 public:
  static constexpr double kMinUs = 1.0;
  static constexpr double kGrowth = 1.01;
  static constexpr std::size_t kBuckets = 1621;  // kMinUs * kGrowth^1621 > 10 s

  void record(double latency_us);
  void merge(const LatencyHistogram& other);
  std::uint64_t count() const { return count_; }
  /// The `rank`-th fastest recorded latency (1-based, clamped to count()),
  /// placed within its bucket by its rank there; 0 when empty.
  double at_rank(std::uint64_t rank) const;

 private:
  std::array<std::uint32_t, kBuckets> buckets_{};
  std::uint64_t count_ = 0;
};

/// Nearest-rank percentile `p` (0 < p <= 100) over every attempted
/// operation: the successes in `ok`, followed by `failures` operations that
/// rank above every success. When the rank lands on a failure the result is
/// `failure_penalty_us` (the client's call deadline: a failed call misses
/// any latency limit). 0 when nothing was attempted.
double percentile_with_failures(const LatencyHistogram& ok, std::uint64_t failures, double p,
                                double failure_penalty_us);

/// Every operation of one window, by completion time in equal slices: per
/// slice the successes' latency histogram and the failures by StatusCode.
/// Operations completing after the last slice's nominal end land in it.
/// Sized when built, so recording never allocates.
class WindowLog {
 public:
  static constexpr std::size_t kCodes = static_cast<std::size_t>(gae::StatusCode::kNotPrimary) + 1;
  struct Slice {
    LatencyHistogram ok;
    std::array<std::uint64_t, kCodes> failures{};  // by StatusCode; [kOk] unused
    std::uint64_t failed() const;
  };

  WindowLog(double seconds, int slices);

  void record(double end_seconds, double latency_us, gae::StatusCode code);
  /// Adds `other`'s operations (same slicing) to this log.
  void merge(const WindowLog& other);

  double slice_seconds() const { return slice_seconds_; }
  const std::vector<Slice>& slices() const { return slices_; }

 private:
  double slice_seconds_;
  std::vector<Slice> slices_;
};

/// Closed-loop results of one measured window.
struct WindowSummary {
  std::uint64_t attempted = 0;
  std::uint64_t succeeded = 0;
  std::uint64_t failed = 0;
  std::map<std::string, std::uint64_t> failures_by_code;  // StatusCode name -> count
  double seconds = 0.0;
  double throughput_rps = 0.0;  // succeeded / seconds
  double p50_us = 0.0;
  double p99_us = 0.0;
  double success_rate = 0.0;  // succeeded / attempted
  double error_rate = 0.0;    // failed / attempted
};

/// Summarises a whole window that lasted `seconds`.
WindowSummary summarize(const WindowLog& log, double seconds, double failure_penalty_us);

/// One summary per slice of the log, each over the slice's own length.
std::vector<WindowSummary> slice_summaries(const WindowLog& log, double failure_penalty_us);

/// Like summarize(), but throughput, p50 and p99 are medians over the log's
/// slices, so one transient stall of the host does not swing a run; counts
/// and rates stay whole-window. Failures rank as slowest within their own
/// slice.
WindowSummary summarize_slices(const WindowLog& log, double seconds, double failure_penalty_us);

/// num / den, or 0 when den is 0 (an idle layer has no ratio).
double ratio(double num, double den);

/// Median of `values` (mean of the middle two for even counts); 0 if empty.
double median(std::vector<double> values);

/// Nearest-rank percentile of plain samples; 0 if empty.
double percentile(std::vector<double> values, double p);

/// Latency drift across a window: p50 of the successes in the last
/// `fraction` of the log's slices (at least one) over p50 of those in the
/// first. Stationary behaviour reads ~1; unbounded growth reads > 1.
double latency_drift(const WindowLog& log, double fraction);

// -- Spans ------------------------------------------------------------------

/// A finished span reduced to what the per-layer metrics need.
struct SpanRecord {
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;
  std::uint64_t parent_id = 0;
  std::int64_t start_us = 0;
  std::int64_t duration_us = 0;
  std::string service;
  std::string name;
  std::string kind;
};

/// `span`'s duration minus the length of the union of its children's
/// intervals, each clipped to `span`'s own interval. Never negative.
std::int64_t self_time_us(const SpanRecord& span, const std::vector<SpanRecord>& children);

/// Spans indexed by parent, for walking request trees.
class SpanTree {
 public:
  explicit SpanTree(std::vector<SpanRecord> spans);

  const std::vector<SpanRecord>& spans() const { return spans_; }
  /// Direct children of `span_id` (copies; trees here are shallow).
  std::vector<SpanRecord> children(std::uint64_t span_id) const;
  /// Durations of every span with this kind, service and name, in µs. An
  /// empty `service` or `name` matches any.
  std::vector<double> durations(const std::string& kind, const std::string& service,
                                const std::string& name) const;

 private:
  std::vector<SpanRecord> spans_;
  std::multimap<std::uint64_t, std::size_t> by_parent_;  // parent id -> index
};

// -- Answer checkers --------------------------------------------------------

/// Verdict on one response.
enum class Verdict {
  kCorrect,   // the answer is right
  kFlagged,   // the service flagged it (stale=true / degraded=true) and the
              // check was waived; counted, not failed
  kWrong,     // a wrong answer: the run fails
};

struct Check {
  Verdict verdict = Verdict::kCorrect;
  std::string detail;  // why, for kWrong
};

/// jobmon.info must answer for the task it was asked about, in a valid state.
Check check_jobmon_info(const gae::rpc::Value& response, const std::string& task_id);

/// estimator.runtime must equal the in-process estimate for the same
/// attributes, unless the response says degraded=true.
Check check_runtime_estimate(const gae::rpc::Value& response, double expected_seconds);

/// estimator.queueTime must equal the in-process estimate.
Check check_queue_estimate(const gae::rpc::Value& response, double expected_seconds,
                           std::int64_t expected_tasks_ahead);

/// What a steering command should leave behind, as a jobmon.info read
/// sees it.
struct SteerExpectation {
  std::string task_id;
  /// Required status, or "" when only `forbidden_status` applies.
  std::string status;
  /// Status the task must have left ("" = none).
  std::string forbidden_status;
  /// Required priority, or -1 for "not checked".
  std::int64_t priority = -1;
};

/// The confirming read after a steering command must reflect the command,
/// unless it is flagged stale=true (served from the read cache).
Check check_steer_read(const gae::rpc::Value& response, const SteerExpectation& expect);

}  // namespace gaebench
