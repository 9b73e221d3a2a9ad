#include "summary.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "exec/job.h"

namespace gaebench {

using gae::rpc::Value;

void LatencyHistogram::record(double latency_us) {
  const double steps = std::log(std::max(latency_us, kMinUs) / kMinUs) / std::log(kGrowth);
  const auto index = static_cast<std::size_t>(std::min(steps, static_cast<double>(kBuckets - 1)));
  ++buckets_[index];
  ++count_;
}

void LatencyHistogram::merge(const LatencyHistogram& other) {
  for (std::size_t i = 0; i < kBuckets; ++i) buckets_[i] += other.buckets_[i];
  count_ += other.count_;
}

double LatencyHistogram::at_rank(std::uint64_t rank) const {
  if (count_ == 0) return 0.0;
  rank = std::clamp<std::uint64_t>(rank, 1, count_);
  std::uint64_t below = 0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    if (below + buckets_[i] >= rank) {
      // The bucket's entries spread evenly (in log space) across its width.
      const double within = (static_cast<double>(rank - below) - 0.5) / buckets_[i];
      return kMinUs * std::pow(kGrowth, static_cast<double>(i) + within);
    }
    below += buckets_[i];
  }
  return 0.0;  // unreachable: the buckets add up to count_
}

double percentile_with_failures(const LatencyHistogram& ok, std::uint64_t failures, double p,
                                double failure_penalty_us) {
  const std::uint64_t n = ok.count() + failures;
  if (n == 0) return 0.0;
  auto rank = static_cast<std::uint64_t>(std::ceil(p / 100.0 * static_cast<double>(n)));
  rank = std::clamp<std::uint64_t>(rank, 1, n);
  if (rank > ok.count()) return failure_penalty_us;
  return ok.at_rank(rank);
}

std::uint64_t WindowLog::Slice::failed() const {
  std::uint64_t total = 0;
  for (std::uint64_t f : failures) total += f;
  return total;
}

WindowLog::WindowLog(double seconds, int slices)
    : slice_seconds_(seconds / std::max(1, slices)),
      slices_(static_cast<std::size_t>(std::max(1, slices))) {}

void WindowLog::record(double end_seconds, double latency_us, gae::StatusCode code) {
  const double i = slice_seconds_ > 0 ? end_seconds / slice_seconds_ : 0.0;
  Slice& slice = slices_[static_cast<std::size_t>(
      std::clamp(i, 0.0, static_cast<double>(slices_.size() - 1)))];
  if (code == gae::StatusCode::kOk) {
    slice.ok.record(latency_us);
  } else {
    ++slice.failures[static_cast<std::size_t>(code)];
  }
}

void WindowLog::merge(const WindowLog& other) {
  for (std::size_t s = 0; s < slices_.size() && s < other.slices_.size(); ++s) {
    slices_[s].ok.merge(other.slices_[s].ok);
    for (std::size_t c = 0; c < kCodes; ++c) slices_[s].failures[c] += other.slices_[s].failures[c];
  }
}

namespace {

/// Summary of the slices [first, last) of `log` over `seconds`.
WindowSummary summarize_range(const WindowLog& log, std::size_t first, std::size_t last,
                              double seconds, double failure_penalty_us) {
  WindowSummary s;
  s.seconds = seconds;
  LatencyHistogram ok;
  for (std::size_t i = first; i < last; ++i) {
    const WindowLog::Slice& slice = log.slices()[i];
    ok.merge(slice.ok);
    for (std::size_t c = 0; c < WindowLog::kCodes; ++c) {
      if (slice.failures[c] == 0) continue;
      s.failed += slice.failures[c];
      s.failures_by_code[gae::status_code_name(static_cast<gae::StatusCode>(c))] +=
          slice.failures[c];
    }
  }
  s.succeeded = ok.count();
  s.attempted = s.succeeded + s.failed;
  s.throughput_rps = ratio(static_cast<double>(s.succeeded), seconds);
  s.success_rate = ratio(static_cast<double>(s.succeeded), static_cast<double>(s.attempted));
  s.error_rate = ratio(static_cast<double>(s.failed), static_cast<double>(s.attempted));
  s.p50_us = percentile_with_failures(ok, s.failed, 50.0, failure_penalty_us);
  s.p99_us = percentile_with_failures(ok, s.failed, 99.0, failure_penalty_us);
  return s;
}

}  // namespace

WindowSummary summarize(const WindowLog& log, double seconds, double failure_penalty_us) {
  return summarize_range(log, 0, log.slices().size(), seconds, failure_penalty_us);
}

std::vector<WindowSummary> slice_summaries(const WindowLog& log, double failure_penalty_us) {
  std::vector<WindowSummary> out;
  for (std::size_t i = 0; i < log.slices().size(); ++i) {
    out.push_back(summarize_range(log, i, i + 1, log.slice_seconds(), failure_penalty_us));
  }
  return out;
}

WindowSummary summarize_slices(const WindowLog& log, double seconds, double failure_penalty_us) {
  WindowSummary whole = summarize(log, seconds, failure_penalty_us);
  std::vector<double> rps, p50, p99;
  for (const WindowSummary& s : slice_summaries(log, failure_penalty_us)) {
    rps.push_back(s.throughput_rps);
    p50.push_back(s.p50_us);
    p99.push_back(s.p99_us);
  }
  whole.throughput_rps = median(std::move(rps));
  whole.p50_us = median(std::move(p50));
  whole.p99_us = median(std::move(p99));
  return whole;
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 ? values[mid] : (values[mid - 1] + values[mid]) / 2.0;
}

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  const std::size_t n = values.size();
  auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * static_cast<double>(n)));
  const auto index = static_cast<std::ptrdiff_t>(std::clamp<std::size_t>(rank, 1, n) - 1);
  std::nth_element(values.begin(), values.begin() + index, values.end());
  return values[static_cast<std::size_t>(index)];
}

double latency_drift(const WindowLog& log, double fraction) {
  const std::size_t n = log.slices().size();
  const std::size_t edge = std::clamp<std::size_t>(
      static_cast<std::size_t>(std::lround(fraction * static_cast<double>(n))), 1, n);
  LatencyHistogram head, tail;
  for (std::size_t i = 0; i < edge; ++i) head.merge(log.slices()[i].ok);
  for (std::size_t i = n - edge; i < n; ++i) tail.merge(log.slices()[i].ok);
  return ratio(percentile_with_failures(tail, 0, 50.0, 0.0),
               percentile_with_failures(head, 0, 50.0, 0.0));
}

std::int64_t self_time_us(const SpanRecord& span, const std::vector<SpanRecord>& children) {
  const std::int64_t begin = span.start_us;
  const std::int64_t end = span.start_us + span.duration_us;
  std::vector<std::pair<std::int64_t, std::int64_t>> covered;
  for (const auto& child : children) {
    const std::int64_t b = std::max(begin, child.start_us);
    const std::int64_t e = std::min(end, child.start_us + child.duration_us);
    if (e > b) covered.emplace_back(b, e);
  }
  std::sort(covered.begin(), covered.end());
  std::int64_t union_us = 0;
  std::int64_t run_begin = 0, run_end = 0;
  bool open = false;
  for (const auto& [b, e] : covered) {
    if (open && b <= run_end) {
      run_end = std::max(run_end, e);
      continue;
    }
    if (open) union_us += run_end - run_begin;
    run_begin = b;
    run_end = e;
    open = true;
  }
  if (open) union_us += run_end - run_begin;
  return std::max<std::int64_t>(0, span.duration_us - union_us);
}

SpanTree::SpanTree(std::vector<SpanRecord> spans) : spans_(std::move(spans)) {
  for (std::size_t i = 0; i < spans_.size(); ++i) by_parent_.emplace(spans_[i].parent_id, i);
}

std::vector<SpanRecord> SpanTree::children(std::uint64_t span_id) const {
  std::vector<SpanRecord> out;
  auto [lo, hi] = by_parent_.equal_range(span_id);
  for (auto it = lo; it != hi; ++it) out.push_back(spans_[it->second]);
  return out;
}

namespace {

bool matches(const SpanRecord& s, const std::string& kind, const std::string& service,
             const std::string& name) {
  return s.kind == kind && (service.empty() || s.service == service) &&
         (name.empty() || s.name == name);
}

}  // namespace

std::vector<double> SpanTree::durations(const std::string& kind, const std::string& service,
                                        const std::string& name) const {
  std::vector<double> out;
  for (const auto& s : spans_) {
    if (matches(s, kind, service, name)) out.push_back(static_cast<double>(s.duration_us));
  }
  return out;
}

namespace {

Check wrong(std::string detail) { return {Verdict::kWrong, std::move(detail)}; }

bool valid_state_name(const std::string& name) {
  using gae::exec::TaskState;
  for (TaskState s : {TaskState::kQueued, TaskState::kStaging, TaskState::kRunning,
                      TaskState::kSuspended, TaskState::kCompleted, TaskState::kFailed,
                      TaskState::kKilled}) {
    if (name == gae::exec::task_state_name(s)) return true;
  }
  return false;
}

bool flag(const Value& response, const char* key) {
  return response.has(key) && response.at(key).is_bool() && response.at(key).as_bool();
}

}  // namespace

Check check_jobmon_info(const Value& response, const std::string& task_id) {
  if (!response.is_struct()) return wrong("jobmon.info answer is not a struct");
  const std::string got = response.get_string("task_id", "");
  if (got != task_id) return wrong("jobmon.info(" + task_id + ") answered for '" + got + "'");
  const std::string status = response.get_string("status", "");
  if (!valid_state_name(status)) {
    return wrong("jobmon.info(" + task_id + ") has invalid status '" + status + "'");
  }
  return {};
}

Check check_runtime_estimate(const Value& response, double expected_seconds) {
  if (!response.is_struct() || !response.has("seconds")) {
    return wrong("estimator.runtime answer has no seconds");
  }
  if (flag(response, "degraded")) return {Verdict::kFlagged, "degraded"};
  const double got = response.get_double("seconds", std::nan(""));
  if (got != expected_seconds) {
    return wrong("estimator.runtime answered " + std::to_string(got) + ", in-process " +
                 std::to_string(expected_seconds));
  }
  return {};
}

Check check_queue_estimate(const Value& response, double expected_seconds,
                           std::int64_t expected_tasks_ahead) {
  if (!response.is_struct() || !response.has("seconds")) {
    return wrong("estimator.queueTime answer has no seconds");
  }
  const double got = response.get_double("seconds", std::nan(""));
  const std::int64_t ahead = response.get_int("tasks_ahead", -1);
  if (got != expected_seconds || ahead != expected_tasks_ahead) {
    return wrong("estimator.queueTime answered " + std::to_string(got) + "/" +
                 std::to_string(ahead) + ", in-process " + std::to_string(expected_seconds) +
                 "/" + std::to_string(expected_tasks_ahead));
  }
  return {};
}

Check check_steer_read(const Value& response, const SteerExpectation& expect) {
  Check base = check_jobmon_info(response, expect.task_id);
  if (base.verdict == Verdict::kWrong) return base;
  if (flag(response, "stale")) return {Verdict::kFlagged, "stale"};
  const std::string status = response.get_string("status", "");
  if (!expect.status.empty() && status != expect.status) {
    return wrong("task " + expect.task_id + " reads " + status + ", expected " + expect.status);
  }
  if (!expect.forbidden_status.empty() && status == expect.forbidden_status) {
    return wrong("task " + expect.task_id + " still reads " + status);
  }
  if (expect.priority >= 0 && response.get_int("priority", -1) != expect.priority) {
    return wrong("task " + expect.task_id + " reads priority " +
                 std::to_string(response.get_int("priority", -1)) + ", expected " +
                 std::to_string(expect.priority));
  }
  return {};
}

}  // namespace gaebench
