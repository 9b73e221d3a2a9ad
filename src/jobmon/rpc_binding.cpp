#include "jobmon/rpc_binding.h"

#include <memory>
#include <mutex>
#include <utility>

#include "rpc/deadline.h"
#include "telemetry/instrument.h"

namespace gae::jobmon {

using rpc::Array;
using rpc::CallContext;
using rpc::Struct;
using rpc::Value;

Value report_to_value(const JobMonitorReport& report) {
  Struct out;
  const exec::TaskInfo& info = report.info;
  out["task_id"] = Value(info.spec.id);
  out["job_id"] = Value(info.spec.job_id);
  out["owner"] = Value(info.spec.owner);
  out["status"] = Value(std::string(exec::task_state_name(info.state)));
  out["site"] = Value(report.site);
  out["node"] = Value(info.node);
  out["priority"] = Value(static_cast<std::int64_t>(info.spec.priority));
  out["queue_position"] = Value(static_cast<std::int64_t>(info.queue_position));
  out["progress"] = Value(info.progress);
  out["cpu_seconds_used"] = Value(info.cpu_seconds_used);
  out["elapsed_seconds"] = Value(report.elapsed_seconds);
  out["remaining_seconds"] = Value(report.remaining_seconds);
  out["estimated_runtime_seconds"] = Value(report.estimated_runtime_seconds);
  out["submit_time"] = Value(to_seconds(info.submit_time));
  out["execution_time"] =
      Value(info.start_time == kSimTimeNever ? -1.0 : to_seconds(info.start_time));
  out["completion_time"] =
      Value(info.completion_time == kSimTimeNever ? -1.0 : to_seconds(info.completion_time));
  out["input_bytes"] = Value(static_cast<std::int64_t>(info.input_bytes_transferred));
  out["output_bytes"] = Value(static_cast<std::int64_t>(info.output_bytes_written));
  out["detail"] = Value(info.detail);
  Struct env;
  for (const auto& [k, v] : info.spec.environment) env[k] = Value(v);
  out["environment"] = Value(std::move(env));
  return Value(std::move(out));
}

namespace {

/// All jobmon methods take exactly one string parameter: the task id.
Result<std::string> task_id_param(const Array& params, const char* method) {
  if (params.size() != 1 || !params[0].is_string()) {
    return invalid_argument_error(std::string(method) + "(task_id)");
  }
  return params[0].as_string();
}

/// Bounded-staleness snapshot of every report, rebuilt at most once per
/// staleness window while the host is browned out. Monitoring reads served
/// from it cost one map lookup instead of a fan-out over the execution
/// services — stale data is tolerable for jobmon tiers, absence is not.
struct SnapshotCache {
  std::mutex mutex;
  std::map<std::string, JobMonitorReport> reports;  // by task id
  std::int64_t refreshed_at_us = 0;
  bool valid = false;
};

}  // namespace

void register_jobmon_methods(clarens::ClarensHost& host, JobMonitoringService& service,
                             telemetry::Tracer* tracer,
                             telemetry::MetricsRegistry* metrics,
                             AdmissionController* admission, int staleness_ms,
                             ReadCache* cache) {
  const telemetry::TracedRegistrar d(host.dispatcher(), tracer, metrics);

  // The collector's update feed is the cache's invalidation source: every
  // job-state transition drops that task's entries and the list, so cached
  // reads are stale by at most one TTL *and* never miss a transition.
  if (cache) {
    service.add_update_listener([cache](const std::string& task_id, exec::TaskState) {
      cache->invalidate_task(task_id);
    });
  }

  auto snapshot_cache = std::make_shared<SnapshotCache>();
  const std::int64_t staleness_us = static_cast<std::int64_t>(staleness_ms) * 1000;
  telemetry::Counter* cached_counter =
      metrics ? &metrics->counter("jobmon.brownout_cached") : nullptr;
  // Refreshes the snapshot if it has gone stale, then hands it to `read`
  // under the lock (only the brownout path pays this). A read looks up or
  // walks the reports in place: copying the whole map would make each
  // request O(jobs) exactly while the host is overloaded.
  auto with_snapshot = [snapshot_cache, &service, staleness_us,
                        cached_counter](const auto& read) {
    std::lock_guard<std::mutex> lock(snapshot_cache->mutex);
    const std::int64_t now = rpc::steady_now_us();
    if (!snapshot_cache->valid || now - snapshot_cache->refreshed_at_us > staleness_us) {
      snapshot_cache->reports.clear();
      for (auto& report : service.list_all()) {
        std::string id = report.info.spec.id;
        snapshot_cache->reports[std::move(id)] = std::move(report);
      }
      snapshot_cache->refreshed_at_us = now;
      snapshot_cache->valid = true;
    }
    if (cached_counter) cached_counter->inc();
    return read(std::as_const(snapshot_cache->reports));
  };

  d.register_method(
      "jobmon.info",
      [&service, admission, with_snapshot, cache](const Array& params,
                                                  const CallContext&) -> Result<Value> {
        auto id = task_id_param(params, "jobmon.info");
        if (!id.is_ok()) return id.status();
        const bool browned = admission && admission->browned_out();
        const std::string key = ReadCache::info_key(id.value());
        if (cache) {
          if (auto hit = cache->get(key, browned)) return std::move(*hit);
        }
        if (browned) {
          Result<Value> v = with_snapshot([&id](const auto& reports) -> Result<Value> {
            auto it = reports.find(id.value());
            if (it == reports.end()) {
              return not_found_error("no such task in snapshot: " + id.value());
            }
            Value out = report_to_value(it->second);
            out.as_struct()["stale"] = Value(true);
            return out;
          });
          if (cache && v.is_ok()) cache->put(key, v.value());
          return v;
        }
        auto report = service.info(id.value());
        if (!report.is_ok()) return report.status();
        Value out = report_to_value(report.value());
        if (cache) {
          // The cached copy is flagged stale up front: by the time it is
          // served again it is, by definition, at least one read old.
          Value flagged = out;
          flagged.as_struct()["stale"] = Value(true);
          cache->put(key, std::move(flagged));
        }
        out.as_struct()["stale"] = Value(false);
        return out;
      });

  d.register_method(
      "jobmon.status",
      [&service, admission, with_snapshot, cache](const Array& params,
                                                  const CallContext&) -> Result<Value> {
        auto id = task_id_param(params, "jobmon.status");
        if (!id.is_ok()) return id.status();
        const bool browned = admission && admission->browned_out();
        const std::string key = ReadCache::status_key(id.value());
        if (cache) {
          if (auto hit = cache->get(key, browned)) return std::move(*hit);
        }
        if (browned) {
          Result<Value> v = with_snapshot([&id](const auto& reports) -> Result<Value> {
            auto it = reports.find(id.value());
            if (it == reports.end()) {
              return not_found_error("no such task in snapshot: " + id.value());
            }
            return Value(std::string(exec::task_state_name(it->second.info.state)));
          });
          if (cache && v.is_ok()) cache->put(key, v.value());
          return v;
        }
        auto s = service.status(id.value());
        if (!s.is_ok()) return s.status();
        Value v(std::move(s).value());
        if (cache) cache->put(key, v);
        return v;
      });

  d.register_method("jobmon.remainingTime",
                    [&service](const Array& params, const CallContext&) -> Result<Value> {
                      auto id = task_id_param(params, "jobmon.remainingTime");
                      if (!id.is_ok()) return id.status();
                      auto v = service.remaining_time(id.value());
                      if (!v.is_ok()) return v.status();
                      return Value(v.value());
                    });

  d.register_method("jobmon.elapsedTime",
                    [&service](const Array& params, const CallContext&) -> Result<Value> {
                      auto id = task_id_param(params, "jobmon.elapsedTime");
                      if (!id.is_ok()) return id.status();
                      auto v = service.elapsed_time(id.value());
                      if (!v.is_ok()) return v.status();
                      return Value(v.value());
                    });

  d.register_method("jobmon.queuePosition",
                    [&service](const Array& params, const CallContext&) -> Result<Value> {
                      auto id = task_id_param(params, "jobmon.queuePosition");
                      if (!id.is_ok()) return id.status();
                      auto v = service.queue_position(id.value());
                      if (!v.is_ok()) return v.status();
                      return Value(static_cast<std::int64_t>(v.value()));
                    });

  d.register_method("jobmon.progress",
                    [&service](const Array& params, const CallContext&) -> Result<Value> {
                      auto id = task_id_param(params, "jobmon.progress");
                      if (!id.is_ok()) return id.status();
                      auto v = service.progress(id.value());
                      if (!v.is_ok()) return v.status();
                      return Value(v.value());
                    });

  d.register_method("jobmon.jobSummary",
                    [&service](const Array& params, const CallContext&) -> Result<Value> {
                      auto id = task_id_param(params, "jobmon.jobSummary(job_id)");
                      if (!id.is_ok()) return id.status();
                      auto s = service.job_summary(id.value());
                      if (!s.is_ok()) return s.status();
                      Struct out;
                      out["job_id"] = Value(s.value().job_id);
                      out["tasks_total"] = Value(static_cast<std::int64_t>(s.value().tasks_total));
                      out["running"] = Value(static_cast<std::int64_t>(s.value().running));
                      out["queued"] = Value(static_cast<std::int64_t>(s.value().queued));
                      out["completed"] = Value(static_cast<std::int64_t>(s.value().completed));
                      out["failed"] = Value(static_cast<std::int64_t>(s.value().failed));
                      out["total_cpu_seconds"] = Value(s.value().total_cpu_seconds);
                      out["mean_progress"] = Value(s.value().mean_progress);
                      return Value(std::move(out));
                    });

  d.register_method(
      "jobmon.eventsSince",
      [&service](const Array& params, const CallContext&) -> Result<Value> {
        if (params.empty() || !params[0].is_int()) {
          return invalid_argument_error("jobmon.eventsSince(seq[, max])");
        }
        const auto after = static_cast<std::uint64_t>(params[0].as_int());
        const std::size_t max =
            params.size() > 1 ? static_cast<std::size_t>(params[1].as_int()) : 100;
        Array out;
        for (const auto& ev : service.events_since(after, max)) {
          Struct s;
          s["seq"] = Value(static_cast<std::int64_t>(ev.seq));
          s["time"] = Value(to_seconds(ev.time));
          s["task_id"] = Value(ev.task_id);
          s["site"] = Value(ev.site);
          s["state"] = Value(std::string(exec::task_state_name(ev.state)));
          out.emplace_back(std::move(s));
        }
        return Value(std::move(out));
      });

  d.register_method(
      "jobmon.list",
      [&service, admission, with_snapshot, cache](const Array&,
                                                  const CallContext&) -> Result<Value> {
        const bool browned = admission && admission->browned_out();
        if (cache) {
          if (auto hit = cache->get(ReadCache::kListKey, browned)) return std::move(*hit);
        }
        Array out;
        if (browned) {
          with_snapshot([&out](const auto& reports) {
            out.reserve(reports.size());
            for (const auto& [id, report] : reports) {
              out.push_back(report_to_value(report));
              out.back().as_struct()["stale"] = Value(true);
            }
          });
          Value v(std::move(out));
          if (cache) cache->put(ReadCache::kListKey, v);
          return v;
        }
        for (const auto& report : service.list_all()) {
          out.push_back(report_to_value(report));
        }
        if (cache) {
          Array flagged = out;
          for (auto& item : flagged) item.as_struct()["stale"] = Value(true);
          cache->put(ReadCache::kListKey, Value(std::move(flagged)));
        }
        return Value(std::move(out));
      });

  host.registry().register_service(
      {"jobmon@" + host.name(), host.name(), host.port(), "xmlrpc", {}, 0});
}

}  // namespace gae::jobmon
