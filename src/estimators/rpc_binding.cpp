#include "estimators/rpc_binding.h"

#include <cmath>

#include "telemetry/instrument.h"

namespace gae::estimators {

using rpc::Array;
using rpc::CallContext;
using rpc::Struct;
using rpc::Value;

void register_estimator_methods(clarens::ClarensHost& host, EstimatorService& service,
                                telemetry::Tracer* tracer,
                                telemetry::MetricsRegistry* metrics,
                                AdmissionController* admission) {
  const telemetry::TracedRegistrar d(host.dispatcher(), tracer, metrics);
  telemetry::Counter* brownout_fallbacks =
      metrics ? &metrics->counter("estimator.brownout_fallbacks") : nullptr;

  // estimator.runtime(site, {attr: value, ...}) -> {seconds, samples, ...}
  // Under brownout the similarity matcher is skipped for the cheap
  // history-mean estimate; the response says so via degraded=true.
  d.register_method(
      "estimator.runtime",
      [&service, admission, brownout_fallbacks, tracer](
          const Array& params, const CallContext&) -> Result<Value> {
        if (params.size() != 2 || !params[0].is_string() || !params[1].is_struct()) {
          return invalid_argument_error("estimator.runtime(site, attributes)");
        }
        const bool degraded = admission && admission->browned_out();
        Result<RuntimeEstimate> est = [&]() {
          if (degraded) {
            // A distinct span name makes brownout service visible in traces.
            telemetry::ScopedSpan span(tracer, "estimator", "runtime.brownout",
                                       "internal");
            if (brownout_fallbacks) brownout_fallbacks->inc();
            return service.runtime_cheap(params[0].as_string());
          }
          std::map<std::string, std::string> attributes;
          for (const auto& [key, value] : params[1].as_struct()) {
            attributes[key] = value.is_string() ? value.as_string() : value.debug_string();
          }
          return service.runtime(params[0].as_string(), attributes);
        }();
        if (!est.is_ok()) return est.status();
        Struct out;
        out["seconds"] = Value(est.value().seconds);
        out["samples"] = Value(static_cast<std::int64_t>(est.value().samples));
        out["template"] = Value(est.value().template_name);
        out["estimator"] = Value(std::string(estimator_kind_name(est.value().used)));
        out["stddev"] = Value(est.value().stddev);
        out["degraded"] = Value(degraded);
        return Value(std::move(out));
      });

  // estimator.queueTime(site, task_id) -> {seconds, tasks_ahead}
  d.register_method(
      "estimator.queueTime",
      [&service](const Array& params, const CallContext&) -> Result<Value> {
        if (params.size() != 2 || !params[0].is_string() || !params[1].is_string()) {
          return invalid_argument_error("estimator.queueTime(site, task_id)");
        }
        auto est = service.queue_time(params[0].as_string(), params[1].as_string());
        if (!est.is_ok()) return est.status();
        Struct out;
        out["seconds"] = Value(est.value().seconds);
        out["tasks_ahead"] = Value(static_cast<std::int64_t>(est.value().tasks_ahead));
        return Value(std::move(out));
      });

  // estimator.transferTime(src, dst, bytes[, now_seconds]) -> {seconds, bandwidth}
  d.register_method(
      "estimator.transferTime",
      [&service](const Array& params, const CallContext&) -> Result<Value> {
        if (params.size() < 3 || !params[0].is_string() || !params[1].is_string() ||
            !params[2].is_number()) {
          return invalid_argument_error("estimator.transferTime(src, dst, bytes[, now])");
        }
        // Casting a negative, NaN or too large double to an integer is
        // undefined, so such values are refused before the casts.
        const double bytes = params[2].as_double();
        if (!(bytes >= 0.0 && bytes < 0x1p64)) {
          return invalid_argument_error("estimator.transferTime: bytes must be in [0, 2^64)");
        }
        const double now_seconds = params.size() > 3 ? params[3].as_double() : 0.0;
        if (!(std::abs(now_seconds) < 9e12)) {  // SimTime counts int64 microseconds
          return invalid_argument_error("estimator.transferTime: now out of range");
        }
        auto est = service.transfer_time(params[0].as_string(), params[1].as_string(),
                                         static_cast<std::uint64_t>(bytes),
                                         from_seconds(now_seconds));
        if (!est.is_ok()) return est.status();
        Struct out;
        out["seconds"] = Value(est.value().seconds);
        out["bandwidth_bytes_per_sec"] = Value(est.value().bandwidth_bytes_per_sec);
        return Value(std::move(out));
      });

  d.register_method("estimator.sites",
                    [&service](const Array&, const CallContext&) -> Result<Value> {
                      Array out;
                      for (const auto& site : service.sites()) out.push_back(Value(site));
                      return Value(std::move(out));
                    });

  host.registry().register_service(
      {"estimator@" + host.name(), host.name(), host.port(), "xmlrpc", {}, 0});
}

}  // namespace gae::estimators
