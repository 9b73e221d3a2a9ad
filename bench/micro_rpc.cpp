// E7 micro-benchmarks: codec and transport costs of the web-service layer,
// plus a faulty-transport scenario measuring what retry buys (and costs)
// at different fault rates.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>
#include <vector>

#include "bench_json.h"
#include "common/rng.h"
#include "rpc/client.h"
#include "rpc/jsonrpc.h"
#include "rpc/server.h"
#include "rpc/xmlrpc.h"

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

void BM_XmlRpcEncode(benchmark::State& state) {
  const Value v = sample_struct(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(xmlrpc::encode_response(v));
  }
}
BENCHMARK(BM_XmlRpcEncode)->Arg(4)->Arg(16)->Arg(64);

void BM_XmlRpcDecode(benchmark::State& state) {
  const std::string xml =
      xmlrpc::encode_response(sample_struct(static_cast<int>(state.range(0))));
  for (auto _ : state) {
    benchmark::DoNotOptimize(xmlrpc::decode_response(xml));
  }
}
BENCHMARK(BM_XmlRpcDecode)->Arg(4)->Arg(16)->Arg(64);

/// A jobmon.info response as jobmon::report_to_value shapes it: 21 members,
/// 8 of them doubles.
Value job_info_shape() {
  Struct env;
  env["GAE_SITE"] = Value("site-a");
  env["OMP_NUM_THREADS"] = Value("1");
  Struct s;
  s["task_id"] = Value("task-000042");
  s["job_id"] = Value("job-0007");
  s["owner"] = Value("analyst");
  s["status"] = Value("RUNNING");
  s["site"] = Value("site-a");
  s["node"] = Value("a-node-03");
  s["priority"] = Value(std::int64_t{5});
  s["queue_position"] = Value(std::int64_t{-1});
  s["progress"] = Value(0.37412345678901234);
  s["cpu_seconds_used"] = Value(1234.5678901234);
  s["elapsed_seconds"] = Value(1500.25);
  s["remaining_seconds"] = Value(2345.6789);
  s["estimated_runtime_seconds"] = Value(3845.9289);
  s["submit_time"] = Value(120.0);
  s["execution_time"] = Value(131.5);
  s["completion_time"] = Value(-1.0);
  s["input_bytes"] = Value(std::int64_t{104'857'600});
  s["output_bytes"] = Value(std::int64_t{0});
  s["detail"] = Value("");
  s["environment"] = Value(std::move(env));
  s["stale"] = Value(false);
  return Value(std::move(s));
}

/// Arg 0: encode_response; arg 1: decode_response.
void BM_XmlRpcJobInfo(benchmark::State& state) {
  const Value v = job_info_shape();
  const std::string xml = xmlrpc::encode_response(v);
  for (auto _ : state) {
    if (state.range(0) == 0) {
      benchmark::DoNotOptimize(xmlrpc::encode_response(v));
    } else {
      benchmark::DoNotOptimize(xmlrpc::decode_response(xml));
    }
  }
}
BENCHMARK(BM_XmlRpcJobInfo)->Arg(0)->Arg(1);

/// An ha.append call shipping one ~330-byte jobmon WAL frame, hex-encoded as
/// ha::RpcShipperTransport sends it. Arg 0: encode_call; arg 1: decode_call.
void BM_XmlRpcHaAppend(benchmark::State& state) {
  std::string hex;
  for (int i = 0; i < 330; ++i) {
    static const char kDigits[] = "0123456789abcdef";
    hex.push_back(kDigits[(i * 7) % 16]);
    hex.push_back(kDigits[(i * 13) % 16]);
  }
  const Array params{Value("jobmon"),         Value(std::int64_t{1}),
                     Value(std::int64_t{41}), Value(std::int64_t{1}),
                     Value(hex),              Value(std::int64_t{3'735'928'559}),
                     Value("127.0.0.1"),      Value(std::int64_t{40'123})};
  const std::string xml = xmlrpc::encode_call("ha.append", params);
  for (auto _ : state) {
    if (state.range(0) == 0) {
      benchmark::DoNotOptimize(xmlrpc::encode_call("ha.append", params));
    } else {
      benchmark::DoNotOptimize(xmlrpc::decode_call(xml));
    }
  }
}
BENCHMARK(BM_XmlRpcHaAppend)->Arg(0)->Arg(1);

void BM_JsonEncode(benchmark::State& state) {
  const Value v = sample_struct(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(json::encode(v));
  }
}
BENCHMARK(BM_JsonEncode)->Arg(4)->Arg(16)->Arg(64);

void BM_JsonDecode(benchmark::State& state) {
  const std::string text = json::encode(sample_struct(static_cast<int>(state.range(0))));
  for (auto _ : state) {
    benchmark::DoNotOptimize(json::decode(text));
  }
}
BENCHMARK(BM_JsonDecode)->Arg(4)->Arg(16)->Arg(64);

/// Full round trip over loopback TCP, one blocking client.
void BM_RoundTrip(benchmark::State& state) {
  auto dispatcher = std::make_shared<Dispatcher>();
  dispatcher->register_method(
      "echo", [](const Array& params, const CallContext&) -> gae::Result<Value> {
        return params.empty() ? Value() : params.front();
      });
  RpcServer server(dispatcher, ServerOptions{0, 2});
  auto port = server.start();
  if (!port.is_ok()) {
    state.SkipWithError("server start failed");
    return;
  }
  const Protocol protocol = state.range(0) == 0 ? Protocol::kXmlRpc : Protocol::kJsonRpc;
  RpcClient client("127.0.0.1", port.value(), protocol);
  const Value payload = sample_struct(8);
  for (auto _ : state) {
    auto r = client.call("echo", {payload});
    if (!r.is_ok()) {
      state.SkipWithError("call failed");
      return;
    }
  }
  server.stop();
}
BENCHMARK(BM_RoundTrip)->Arg(0)->Arg(1)->Unit(benchmark::kMicrosecond);

/// Round trips over a transport that fails a seeded fraction of calls with
/// UNAVAILABLE (injected via a dispatcher interceptor, so keep-alive framing
/// stays intact and the sweep isolates the retry policy itself).
///
/// Args: {fault rate in percent, retry on/off}. Reported counters:
/// success_rate, p50_us, p99_us.
void BM_FaultyTransport(benchmark::State& state) {
  const double fault_rate = static_cast<double>(state.range(0)) / 100.0;
  const bool with_retry = state.range(1) != 0;

  auto dispatcher = std::make_shared<Dispatcher>();
  dispatcher->register_method(
      "echo", [](const Array& params, const CallContext&) -> gae::Result<Value> {
        return params.empty() ? Value() : params.front();
      });
  // Deterministic per-call faults: same seed, same fault sequence.
  auto rng = std::make_shared<Rng>(20'260'806);
  auto rng_mutex = std::make_shared<std::mutex>();
  dispatcher->add_interceptor(
      [fault_rate, rng, rng_mutex](const std::string&, const CallContext&) -> Status {
        std::lock_guard<std::mutex> lock(*rng_mutex);
        if (rng->bernoulli(fault_rate)) {
          return unavailable_error("injected transport fault");
        }
        return Status::ok();
      });

  RpcServer server(dispatcher, ServerOptions{0, 2});
  auto port = server.start();
  if (!port.is_ok()) {
    state.SkipWithError("server start failed");
    return;
  }

  ClientOptions options;
  options.default_call.retry.max_attempts = with_retry ? 4 : 1;
  options.default_call.retry.initial_backoff_ms = 1;
  options.default_call.retry.max_backoff_ms = 8;
  options.default_call.retry.jitter_fraction = 0.0;
  options.breaker.min_samples = 1u << 30;  // sweep the policy, not the breaker
  RpcClient client({{"127.0.0.1", port.value()}}, Protocol::kXmlRpc, options);

  const Value payload = sample_struct(8);
  std::uint64_t ok_calls = 0, failed_calls = 0;
  std::vector<double> latencies_us;
  for (auto _ : state) {
    const auto start = std::chrono::steady_clock::now();
    auto r = client.call("echo", {payload});
    const auto elapsed = std::chrono::steady_clock::now() - start;
    latencies_us.push_back(
        std::chrono::duration<double, std::micro>(elapsed).count());
    if (r.is_ok()) {
      ++ok_calls;
    } else {
      ++failed_calls;
    }
  }
  server.stop();

  std::sort(latencies_us.begin(), latencies_us.end());
  auto percentile = [&](double p) {
    if (latencies_us.empty()) return 0.0;
    const auto idx = static_cast<std::size_t>(p * (latencies_us.size() - 1));
    return latencies_us[idx];
  };
  state.counters["success_rate"] =
      benchmark::Counter(static_cast<double>(ok_calls) /
                         std::max<double>(1.0, static_cast<double>(ok_calls + failed_calls)));
  state.counters["p50_us"] = benchmark::Counter(percentile(0.50));
  state.counters["p99_us"] = benchmark::Counter(percentile(0.99));
  state.counters["retries"] =
      benchmark::Counter(static_cast<double>(client.stats().retries));
}
BENCHMARK(BM_FaultyTransport)
    ->Args({1, 0})->Args({1, 1})
    ->Args({5, 0})->Args({5, 1})
    ->Args({20, 0})->Args({20, 1})
    ->Unit(benchmark::kMicrosecond);

/// --bench_json mode: a direct percentile measurement of the loopback round
/// trip per protocol, written as BENCH_rpc.json for CI artifact upload
/// (google-benchmark's own JSON lacks percentiles without repetition sweeps).
int run_bench_json(const std::string& path) {
  constexpr std::size_t kIters = 3000;
  std::vector<gae::bench::Scenario> scenarios;
  for (const Protocol protocol : {Protocol::kXmlRpc, Protocol::kJsonRpc}) {
    auto dispatcher = std::make_shared<Dispatcher>();
    dispatcher->register_method(
        "echo", [](const Array& params, const CallContext&) -> gae::Result<Value> {
          return params.empty() ? Value() : params.front();
        });
    RpcServer server(dispatcher, ServerOptions{0, 2});
    auto port = server.start();
    if (!port.is_ok()) {
      std::fprintf(stderr, "server start failed: %s\n", port.status().message().c_str());
      return 1;
    }
    RpcClient client("127.0.0.1", port.value(), protocol);
    const Value payload = sample_struct(8);
    for (int i = 0; i < 200; ++i) {
      if (!client.call("echo", {payload}).is_ok()) return 1;
    }
    std::vector<double> latencies_us;
    latencies_us.reserve(kIters);
    for (std::size_t i = 0; i < kIters; ++i) {
      const auto start = std::chrono::steady_clock::now();
      auto r = client.call("echo", {payload});
      const auto elapsed = std::chrono::steady_clock::now() - start;
      if (!r.is_ok()) {
        std::fprintf(stderr, "call failed: %s\n", r.status().message().c_str());
        return 1;
      }
      latencies_us.push_back(
          std::chrono::duration<double, std::micro>(elapsed).count());
    }
    server.stop();
    scenarios.push_back(gae::bench::summarize(
        protocol == Protocol::kXmlRpc ? "round_trip_xmlrpc" : "round_trip_jsonrpc",
        std::move(latencies_us)));
  }
  for (const auto& s : scenarios) {
    std::printf("%s: p50 %.1fus p95 %.1fus p99 %.1fus  %.0f req/s\n", s.name.c_str(),
                s.p50_us, s.p95_us, s.p99_us, s.throughput_rps);
  }
  if (!gae::bench::write_bench_json(path, "micro_rpc", scenarios)) {
    std::fprintf(stderr, "failed to write %s\n", path.c_str());
    return 1;
  }
  std::printf("wrote %s\n", path.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = gae::bench::bench_json_path(argc, argv);
  if (!json_path.empty()) return run_bench_json(json_path);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
