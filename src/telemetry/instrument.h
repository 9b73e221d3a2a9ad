// Header-only glue for instrumenting RPC method handlers with service-level
// spans. The host's dispatcher already records one "server" span per
// dispatch under the host's name; wrapping a handler with traced() adds the
// owning *service's* span beneath it (service "steering" inside host
// "gae-host"), which is what makes a fig-7 steering command assemble into a
// trace whose spans name distinct services.
#pragma once

#include <string>
#include <utility>

#include "rpc/server.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"

namespace gae::telemetry {

/// Wraps `inner` in an "internal" span recorded to `tracer` (pass-through
/// when tracer is null) and, when `metrics` is set, counts
/// "<service>.<name>.calls" / ".errors" through handles resolved here, once.
inline rpc::Method traced(Tracer* tracer, std::string service, std::string name,
                          rpc::Method inner, MetricsRegistry* metrics = nullptr) {
  if (!tracer && !metrics) return inner;
  Counter* calls = metrics ? &metrics->counter(service + "." + name + ".calls") : nullptr;
  Counter* errors = metrics ? &metrics->counter(service + "." + name + ".errors") : nullptr;
  return [tracer, calls, errors, service = std::move(service), name = std::move(name),
          inner = std::move(inner)](const rpc::Array& params,
                                    const rpc::CallContext& ctx) -> Result<rpc::Value> {
    ScopedSpan span(tracer, service, name, "internal");
    auto result = inner(params, ctx);
    if (!result.is_ok()) span.set_status(result.status().code());
    if (calls) {
      calls->inc();
      if (!result.is_ok()) errors->inc();
    }
    return result;
  };
}

/// Drop-in stand-in for a Dispatcher reference in binding code: registers
/// each method with traced() applied, deriving the span's service from the
/// method's "<service>.<name>" prefix ("steering.kill" -> service
/// "steering", span "kill"). Null tracer and metrics make it a plain
/// pass-through registration.
class TracedRegistrar {
 public:
  TracedRegistrar(rpc::Dispatcher& dispatcher, Tracer* tracer, MetricsRegistry* metrics)
      : dispatcher_(dispatcher), tracer_(tracer), metrics_(metrics) {}

  void register_method(const std::string& name, rpc::Method method) const {
    const auto dot = name.find('.');
    std::string service = dot == std::string::npos ? name : name.substr(0, dot);
    std::string short_name = dot == std::string::npos ? name : name.substr(dot + 1);
    dispatcher_.register_method(name, traced(tracer_, std::move(service),
                                             std::move(short_name), std::move(method),
                                             metrics_));
  }

 private:
  rpc::Dispatcher& dispatcher_;
  Tracer* tracer_;
  MetricsRegistry* metrics_;
};

/// Pre-resolved cache telemetry under one prefix: "<prefix>.{hits,misses,
/// invalidations}" counters plus a "<prefix>.entries" gauge. Resolving the
/// handles once at construction keeps registry-name building and registry
/// locks off cache hot paths.
struct CacheCounters {
  Counter& hits;
  Counter& misses;
  Counter& invalidations;
  Gauge& entries;

  CacheCounters(MetricsRegistry& registry, const std::string& prefix)
      : hits(registry.counter(prefix + ".hits")),
        misses(registry.counter(prefix + ".misses")),
        invalidations(registry.counter(prefix + ".invalidations")),
        entries(registry.gauge(prefix + ".entries")) {}
};

}  // namespace gae::telemetry
