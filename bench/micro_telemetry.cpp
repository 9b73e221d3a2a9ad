// Telemetry overhead bench: the micro_rpc hot path (loopback echo round
// trip) with telemetry disarmed vs fully armed (per-method metrics, client
// counters, tracing on both hops). Emits BENCH_telemetry.json via
// --bench_json=PATH with per-scenario p50/p95/p99 + throughput and the
// relative overhead, which the issue budget caps at 5% on the round-trip
// path.
//
// Usage: micro_telemetry [--bench_json=PATH] [--iters=N]
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench_json.h"
#include "rpc/client.h"
#include "rpc/server.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"

namespace {

using namespace gae;
using namespace gae::rpc;

Value sample_struct(int entries) {
  Struct s;
  for (int i = 0; i < entries; ++i) {
    const std::string key = "field" + std::to_string(i);
    switch (i % 4) {
      case 0: s[key] = Value(static_cast<std::int64_t>(i * 1234)); break;
      case 1: s[key] = Value(i * 0.5); break;
      case 2: s[key] = Value("value-" + std::to_string(i)); break;
      default: s[key] = Value(Array{Value(i), Value("x"), Value(true)});
    }
  }
  return Value(std::move(s));
}

/// One scenario: `iters` echo round trips over loopback, returning per-call
/// latencies. Telemetry is armed on both ends when registries are non-null.
std::vector<double> run_round_trips(std::size_t iters,
                                    telemetry::MetricsRegistry* metrics,
                                    telemetry::Tracer* tracer) {
  auto dispatcher = std::make_shared<Dispatcher>();
  dispatcher->register_method(
      "echo", [](const Array& params, const CallContext&) -> gae::Result<Value> {
        return params.empty() ? Value() : params.front();
      });
  if (metrics || tracer) dispatcher->set_telemetry(metrics, tracer, "bench-host");

  ServerOptions server_options;
  server_options.port = 0;
  server_options.num_workers = 2;
  server_options.connection.metrics = metrics;
  RpcServer server(dispatcher, server_options);
  auto port = server.start();
  if (!port.is_ok()) {
    std::fprintf(stderr, "server start failed: %s\n", port.status().message().c_str());
    return {};
  }

  ClientOptions client_options;
  client_options.metrics = metrics;
  client_options.tracer = tracer;
  RpcClient client({{"127.0.0.1", port.value()}}, Protocol::kXmlRpc, client_options);

  const Value payload = sample_struct(8);
  // Warmup: connection setup, registry handle creation, branch predictors.
  for (int i = 0; i < 200; ++i) {
    if (!client.call("echo", {payload}).is_ok()) return {};
  }

  std::vector<double> latencies_us;
  latencies_us.reserve(iters);
  for (std::size_t i = 0; i < iters; ++i) {
    const auto start = std::chrono::steady_clock::now();
    auto r = client.call("echo", {payload});
    const auto elapsed = std::chrono::steady_clock::now() - start;
    if (!r.is_ok()) {
      std::fprintf(stderr, "call failed: %s\n", r.status().message().c_str());
      return {};
    }
    latencies_us.push_back(std::chrono::duration<double, std::micro>(elapsed).count());
  }
  server.stop();
  return latencies_us;
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t iters = 3000;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--iters=", 8) == 0) {
      iters = static_cast<std::size_t>(std::atoll(argv[i] + 8));
    }
  }

  // Interleave the scenarios so machine-level drift (thermal, noisy
  // neighbours) hits all of them equally instead of biasing one. The
  // metrics-only and trace-only scenarios localise a budget regression to
  // the registry or the span path.
  std::vector<double> off_us, metrics_us, trace_us, on_us;
  telemetry::MetricsRegistry metrics;
  telemetry::Tracer tracer;  // default capacity — the deployed configuration
  struct Scenario {
    telemetry::MetricsRegistry* metrics;
    telemetry::Tracer* tracer;
    std::vector<double>* sink;
    std::vector<double> round_p50s;
  };
  Scenario scenarios[] = {{nullptr, nullptr, &off_us, {}},
                          {&metrics, nullptr, &metrics_us, {}},
                          {nullptr, &tracer, &trace_us, {}},
                          {&metrics, &tracer, &on_us, {}}};
  constexpr int kRounds = 8;
  for (int round = 0; round < kRounds; ++round) {
    // Rotate the running order every round: whichever scenario runs first in
    // a round sees a systematically different machine (cold caches, turbo
    // headroom), and a fixed order would bake that into the comparison.
    for (int i = 0; i < 4; ++i) {
      Scenario& s = scenarios[(round + i) % 4];
      auto lat = run_round_trips(iters / kRounds, s.metrics, s.tracer);
      if (lat.empty()) return 1;
      std::vector<double> sorted = lat;
      std::sort(sorted.begin(), sorted.end());
      s.round_p50s.push_back(sorted[sorted.size() / 2]);
      s.sink->insert(s.sink->end(), lat.begin(), lat.end());
    }
  }
  // Overhead headline: median of per-round paired p50 ratios. Pairing each
  // round's on/off (which run seconds apart) before aggregating cancels
  // machine drift that a pooled p50 comparison absorbs as noise; the median
  // across rounds discards bursts that land inside a single round.
  std::vector<double> ratios;
  for (int r = 0; r < kRounds; ++r) {
    if (scenarios[0].round_p50s[r] > 0) {
      ratios.push_back(scenarios[3].round_p50s[r] / scenarios[0].round_p50s[r]);
    }
  }
  std::sort(ratios.begin(), ratios.end());
  const double overhead_pct =
      ratios.empty() ? 0.0 : 100.0 * (ratios[ratios.size() / 2] - 1.0);

  const auto base = gae::bench::summarize("round_trip_telemetry_off", std::move(off_us));
  const auto metrics_scn =
      gae::bench::summarize("round_trip_metrics_only", std::move(metrics_us));
  const auto trace_scn = gae::bench::summarize("round_trip_trace_only", std::move(trace_us));
  const auto armed = gae::bench::summarize("round_trip_telemetry_on", std::move(on_us));

  std::printf("telemetry off: p50 %.1fus p95 %.1fus p99 %.1fus  %.0f req/s\n",
              base.p50_us, base.p95_us, base.p99_us, base.throughput_rps);
  std::printf("metrics only:  p50 %.1fus p95 %.1fus p99 %.1fus  %.0f req/s\n",
              metrics_scn.p50_us, metrics_scn.p95_us, metrics_scn.p99_us,
              metrics_scn.throughput_rps);
  std::printf("trace only:    p50 %.1fus p95 %.1fus p99 %.1fus  %.0f req/s\n",
              trace_scn.p50_us, trace_scn.p95_us, trace_scn.p99_us,
              trace_scn.throughput_rps);
  std::printf("telemetry on:  p50 %.1fus p95 %.1fus p99 %.1fus  %.0f req/s\n",
              armed.p50_us, armed.p95_us, armed.p99_us, armed.throughput_rps);
  std::printf("p50 overhead: %.2f%% (budget 5%%)\n", overhead_pct);

  const std::string path = gae::bench::bench_json_path(argc, argv);
  if (!path.empty()) {
    char overhead[64];
    std::snprintf(overhead, sizeof overhead, "\"p50_overhead_pct\": %.2f", overhead_pct);
    if (!gae::bench::write_bench_json(path, "micro_telemetry",
                                      {base, metrics_scn, trace_scn, armed}, {overhead})) {
      std::fprintf(stderr, "failed to write %s\n", path.c_str());
      return 1;
    }
    std::printf("wrote %s\n", path.c_str());
  }
  return 0;
}
