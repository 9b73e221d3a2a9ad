// Concurrency ablation: goodput and tail latency of the RPC fabric at 1 /
// 4 / 16 / 64 concurrent clients, comparing three client configurations
// against the same server:
//
//   single  — the pre-pool client shape: one persistent connection, calls
//             serialised on it (a mutex around the call reproduces the old
//             single-stream RpcClient). Adding clients adds queueing, not
//             parallelism — the fig-6 flat line.
//   pooled  — the per-endpoint connection pool: N in-flight calls check out
//             N keep-alive sockets, so server workers run in parallel.
//   batched — pooled plus rpc.batch: each round trip carries kBatch status
//             reads (one wire exchange, one admission ticket), the dashboard
//             poll pattern the jobmon read path serves.
//
// Goodput counts successful items per wall second (a batch of 8 counts 8).
// The tentpole acceptance bar is pooled/batched goodput at 16 clients >= 2x
// the single-connection configuration; the JSON artifact records the ratio.
//
// Emits BENCH_concurrency.json (see --bench_json=PATH).
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench_json.h"
#include "rpc/client.h"
#include "rpc/server.h"

using namespace gae;

namespace {

constexpr int kHandlerMs = 2;      // simulated jobmon read (DB lookup + encode)
constexpr int kBatch = 8;          // items per rpc.batch round trip
constexpr double kRunSeconds = 1.2;
const std::vector<int> kClientCounts = {1, 4, 16, 64};

std::shared_ptr<rpc::Dispatcher> read_dispatcher() {
  auto d = std::make_shared<rpc::Dispatcher>();
  d->register_method("mon.read",
                     [](const rpc::Array&, const rpc::CallContext&) -> Result<rpc::Value> {
                       std::this_thread::sleep_for(std::chrono::milliseconds(kHandlerMs));
                       return rpc::Value(static_cast<std::int64_t>(1));
                     });
  d->enable_batch(kBatch * 2);
  return d;
}

struct RunResult {
  std::vector<double> item_us;  // per successful item, end-to-end
  std::uint64_t ok = 0;
  std::uint64_t errors = 0;
  double elapsed_s = 0;
  double goodput_ips = 0;  // successful items per wall second
};

enum class Mode { kSingle, kPooled, kBatched };

const char* mode_name(Mode mode) {
  switch (mode) {
    case Mode::kSingle: return "single";
    case Mode::kPooled: return "pooled";
    case Mode::kBatched: return "batched";
  }
  return "?";
}

RunResult run_load(std::uint16_t port, Mode mode, int threads) {
  RunResult result;
  rpc::ClientOptions options;
  options.default_call.retry.max_attempts = 2;
  rpc::RpcClient client({{"127.0.0.1", port}}, rpc::Protocol::kJsonRpc, options);

  std::mutex serialise;  // taken around every call in single mode only
  std::mutex collect;
  const auto start = std::chrono::steady_clock::now();
  const auto end = start + std::chrono::duration<double>(kRunSeconds);

  std::vector<std::thread> workers;
  workers.reserve(static_cast<std::size_t>(threads));
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&] {
      std::vector<double> local_us;
      std::uint64_t local_ok = 0, local_errors = 0;
      while (std::chrono::steady_clock::now() < end) {
        const auto t0 = std::chrono::steady_clock::now();
        std::uint64_t items_ok = 0, items_bad = 0;
        if (mode == Mode::kBatched) {
          std::vector<rpc::BatchItem> items(
              static_cast<std::size_t>(kBatch),
              rpc::BatchItem{"mon.read", {}, Criticality::kStatus});
          for (const auto& r : client.call_many(items)) {
            r.is_ok() ? ++items_ok : ++items_bad;
          }
        } else {
          std::unique_lock<std::mutex> one_stream(serialise, std::defer_lock);
          if (mode == Mode::kSingle) one_stream.lock();
          auto r = client.call("mon.read", {});
          r.is_ok() ? ++items_ok : ++items_bad;
        }
        const double us =
            std::chrono::duration<double, std::micro>(std::chrono::steady_clock::now() -
                                                      t0)
                .count();
        // Every item in a round trip waited the whole round trip.
        for (std::uint64_t i = 0; i < items_ok; ++i) local_us.push_back(us);
        local_ok += items_ok;
        local_errors += items_bad;
      }
      std::lock_guard<std::mutex> lock(collect);
      result.item_us.insert(result.item_us.end(), local_us.begin(), local_us.end());
      result.ok += local_ok;
      result.errors += local_errors;
    });
  }
  for (auto& w : workers) w.join();
  result.elapsed_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  result.goodput_ips =
      result.elapsed_s > 0 ? static_cast<double>(result.ok) / result.elapsed_s : 0;
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  rpc::ServerOptions server_options;
  server_options.num_workers = 96;  // the server is not the axis under test
  rpc::RpcServer server(read_dispatcher(), server_options);
  auto port = server.start();
  if (!port.is_ok()) {
    std::fprintf(stderr, "bind failed: %s\n", port.status().to_string().c_str());
    return 1;
  }

  std::printf("# abl_concurrency: %d ms handler, batch=%d, %.1fs per cell\n",
              kHandlerMs, kBatch, kRunSeconds);
  std::printf("%-10s %8s %12s %10s %10s %8s\n", "mode", "clients", "goodput_ips",
              "p50_ms", "p99_ms", "errors");

  std::vector<bench::Scenario> scenarios;
  double single_16 = 0, pooled_16 = 0, batched_16 = 0;
  for (const Mode mode : {Mode::kSingle, Mode::kPooled, Mode::kBatched}) {
    for (const int clients : kClientCounts) {
      RunResult r = run_load(port.value(), mode, clients);
      bench::Scenario s = bench::summarize(
          std::string(mode_name(mode)) + "/c" + std::to_string(clients), r.item_us);
      s.throughput_rps = r.goodput_ips;  // wall-clock goodput, not 1/latency
      scenarios.push_back(s);
      if (clients == 16) {
        if (mode == Mode::kSingle) single_16 = r.goodput_ips;
        if (mode == Mode::kPooled) pooled_16 = r.goodput_ips;
        if (mode == Mode::kBatched) batched_16 = r.goodput_ips;
      }
      std::printf("%-10s %8d %12.1f %10.2f %10.2f %8llu\n", mode_name(mode), clients,
                  r.goodput_ips, s.p50_us / 1e3, s.p99_us / 1e3,
                  static_cast<unsigned long long>(r.errors));
    }
  }

  const double pooled_speedup = single_16 > 0 ? pooled_16 / single_16 : 0;
  const double batched_speedup = single_16 > 0 ? batched_16 / single_16 : 0;
  std::printf("# speedup at 16 clients vs single-connection: pooled %.2fx, "
              "batched %.2fx\n",
              pooled_speedup, batched_speedup);

  const std::string json = bench::bench_json_path(argc, argv);
  if (!json.empty()) {
    char extra[160];
    std::snprintf(extra, sizeof(extra),
                  "\"speedup_16_clients\": {\"pooled\": %.3f, \"batched\": %.3f}",
                  pooled_speedup, batched_speedup);
    if (!bench::write_bench_json(json, "abl_concurrency", scenarios, {extra})) {
      std::fprintf(stderr, "failed to write %s\n", json.c_str());
      return 1;
    }
    std::printf("# wrote %s\n", json.c_str());
  }

  server.stop();
  // The acceptance bar for the pooled fabric: >= 2x single-connection
  // goodput at 16 concurrent clients.
  return pooled_speedup >= 2.0 && batched_speedup >= 2.0 ? 0 : 2;
}
