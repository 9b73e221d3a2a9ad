// Overload ablation: goodput and tail latency of the RPC fabric under 1x /
// 5x / 10x nominal load, with and without the overload-resilience stack.
//
//   static   — the pre-admission configuration: a fixed worker pool behind a
//              deep accept queue, no deadlines on the wire. Under a storm
//              every connection queues, every handler runs to completion, and
//              the caller has long since given up on most of the answers.
//   adaptive — the same server with the AdmissionController attached and a
//              60 ms whole-call deadline on every request: the AIMD limiter
//              bounds handler concurrency, CoDel drains the acceptor queue,
//              expired requests are rejected before dispatch, and sheds are
//              answered with a cheap 503 instead of a burned handler.
//
// Goodput counts only answers the caller could still use: successful calls
// whose end-to-end latency fit the 60 ms budget. Requests are spread across
// the three criticality tiers round-robin, so the tier-0 tail under storm is
// also reported (the admission ceilings should hold it near its no-load
// value while bulk is shed).
//
// Emits BENCH_overload.json (see --bench_json=PATH).
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench_json.h"
#include "common/admission.h"
#include "common/clock.h"
#include "common/retry.h"
#include "rpc/client.h"
#include "rpc/server.h"

using namespace gae;

namespace {

constexpr int kWorkers = 8;
constexpr int kHandlerMs = 40;    // simulated I/O-bound handler work
// Caller patience for the whole call, exactly 2x the handler floor: any
// answer that beats the deadline is by construction within 2x of the
// no-load latency, which is the tail guarantee the deadline plane sells.
constexpr int kDeadlineMs = 80;
constexpr int kBaseThreads = 4;   // "1x": comfortably inside capacity
constexpr double kRunSeconds = 2.0;

std::shared_ptr<rpc::Dispatcher> work_dispatcher() {
  auto d = std::make_shared<rpc::Dispatcher>();
  d->register_method("work.op",
                     [](const rpc::Array&, const rpc::CallContext&) -> Result<rpc::Value> {
                       std::this_thread::sleep_for(std::chrono::milliseconds(kHandlerMs));
                       return rpc::Value(static_cast<std::int64_t>(1));
                     });
  return d;
}

struct LoadResult {
  std::vector<double> good_us;        // latencies of within-deadline successes
  std::vector<double> tier0_good_us;  // same, tier 0 only
  std::uint64_t attempts = 0;
  std::uint64_t good = 0;
  std::uint64_t shed = 0;      // RESOURCE_EXHAUSTED (503 / retry-budget)
  std::uint64_t late = 0;      // DEADLINE_EXCEEDED or answered past budget
  std::uint64_t errors = 0;    // everything else
  double elapsed_s = 0;
  double goodput_rps = 0;
  double tier0_p99_us = 0;
};

/// Closed-loop storm: `threads` clients, connect-per-call (a kept-alive
/// connection would pin a worker per client and measure the connection cap,
/// not admission), tiers assigned round-robin across threads.
LoadResult run_load(std::uint16_t port, int threads, bool with_deadline) {
  LoadResult result;
  std::mutex mutex;
  const auto start = std::chrono::steady_clock::now();
  const auto end = start + std::chrono::duration<double>(kRunSeconds);

  std::vector<std::thread> workers;
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      const auto tier = static_cast<Criticality>(t % kCriticalityTiers);
      std::vector<double> good_us, tier0_us;
      std::uint64_t attempts = 0, good = 0, shed = 0, late = 0, errors = 0;
      while (std::chrono::steady_clock::now() < end) {
        const auto t0 = std::chrono::steady_clock::now();
        rpc::RpcClient client("127.0.0.1", port);
        rpc::CallOptions opts;
        opts.retry = RetryPolicy::none();
        opts.tier = tier;
        opts.deadline_ms = with_deadline ? kDeadlineMs : 0;
        const auto r = client.call("work.op", {}, opts);
        const double us =
            std::chrono::duration<double, std::micro>(std::chrono::steady_clock::now() - t0)
                .count();
        ++attempts;
        if (r.is_ok() && us <= kDeadlineMs * 1000.0) {
          ++good;
          good_us.push_back(us);
          if (tier == Criticality::kControl) tier0_us.push_back(us);
        } else if (r.is_ok()) {
          ++late;  // answered, but past the caller's patience
        } else if (r.status().code() == StatusCode::kResourceExhausted) {
          ++shed;
        } else if (r.status().code() == StatusCode::kDeadlineExceeded) {
          ++late;
        } else {
          ++errors;
        }
      }
      std::lock_guard<std::mutex> lock(mutex);
      result.good_us.insert(result.good_us.end(), good_us.begin(), good_us.end());
      result.tier0_good_us.insert(result.tier0_good_us.end(), tier0_us.begin(),
                                  tier0_us.end());
      result.attempts += attempts;
      result.good += good;
      result.shed += shed;
      result.late += late;
      result.errors += errors;
    });
  }
  for (auto& w : workers) w.join();

  result.elapsed_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  result.goodput_rps =
      result.elapsed_s > 0 ? static_cast<double>(result.good) / result.elapsed_s : 0;
  std::sort(result.tier0_good_us.begin(), result.tier0_good_us.end());
  result.tier0_p99_us = bench::percentile_of(result.tier0_good_us, 99);
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  struct Row {
    std::string name;
    LoadResult r;
  };
  std::vector<Row> rows;

  const int loads[] = {1, 5, 10};
  for (const bool adaptive : {false, true}) {
    // One server per configuration; the only difference is the admission
    // controller and whether clients send a deadline.
    WallClock wall;
    AdmissionOptions aopts;
    // Size the limiter to the worker pool (a limit above num_workers can
    // never bind: only a worker can hold a ticket) and keep the acceptor
    // queue short — queue time is pure deadline burn for a 60 ms budget.
    aopts.min_limit = 2;
    aopts.initial_limit = kWorkers;
    aopts.max_limit = kWorkers;
    aopts.queue_interval_ms = 30;
    AdmissionController admission(wall, aopts);
    rpc::ServerOptions sopts;
    sopts.port = 0;
    sopts.num_workers = kWorkers;
    sopts.max_in_flight = 256;  // deep accept queue for both configurations
    if (adaptive) sopts.connection.admission = &admission;
    rpc::RpcServer server(work_dispatcher(), sopts);
    auto port = server.start();
    if (!port.is_ok()) {
      std::fprintf(stderr, "server start failed: %s\n", port.status().message().c_str());
      return 1;
    }
    for (const int load : loads) {
      const std::string name =
          std::string(adaptive ? "adaptive" : "static") + "_" + std::to_string(load) + "x";
      rows.push_back({name, run_load(port.value(), kBaseThreads * load, adaptive)});
      const LoadResult& r = rows.back().r;
      std::printf(
          "%-12s threads=%-3d attempts=%-6llu good=%-6llu shed=%-6llu late=%-6llu "
          "err=%-4llu goodput=%8.1f rps  tier0_p99=%8.0f us\n",
          name.c_str(), kBaseThreads * load,
          static_cast<unsigned long long>(r.attempts),
          static_cast<unsigned long long>(r.good),
          static_cast<unsigned long long>(r.shed),
          static_cast<unsigned long long>(r.late),
          static_cast<unsigned long long>(r.errors), r.goodput_rps, r.tier0_p99_us);
    }
    server.stop();
  }

  auto find = [&rows](const std::string& name) -> const LoadResult& {
    for (const auto& row : rows) {
      if (row.name == name) return row.r;
    }
    static LoadResult empty;
    return empty;
  };
  const double static_10x = find("static_10x").goodput_rps;
  const double adaptive_10x = find("adaptive_10x").goodput_rps;
  const double goodput_ratio = static_10x > 0 ? adaptive_10x / static_10x : 0;
  const double p99_1x = find("adaptive_1x").tier0_p99_us;
  const double p99_10x = find("adaptive_10x").tier0_p99_us;
  const double p99_ratio = p99_1x > 0 ? p99_10x / p99_1x : 0;
  std::printf("\nadaptive/static goodput at 10x: %.2fx   tier0 p99 10x/1x: %.2fx\n",
              goodput_ratio, p99_ratio);

  std::vector<bench::Scenario> scenarios;
  std::vector<std::string> goodputs, p99s;
  for (const auto& row : rows) {
    scenarios.push_back(bench::summarize(row.name, row.r.good_us));
    char buf[160];
    std::snprintf(buf, sizeof(buf), "\"%s\": %.1f", row.name.c_str(), row.r.goodput_rps);
    goodputs.emplace_back(buf);
    std::snprintf(buf, sizeof(buf), "\"%s\": %.1f", row.name.c_str(), row.r.tier0_p99_us);
    p99s.emplace_back(buf);
  }
  auto join = [](const std::vector<std::string>& parts) {
    std::string out = "{";
    for (std::size_t i = 0; i < parts.size(); ++i) {
      out += parts[i];
      if (i + 1 < parts.size()) out += ", ";
    }
    return out + "}";
  };
  char member[200];
  std::vector<std::string> extra;
  extra.push_back("\"goodput_rps\": " + join(goodputs));
  extra.push_back("\"tier0_p99_us\": " + join(p99s));
  std::snprintf(member, sizeof(member), "\"goodput_x10_ratio\": %.3f", goodput_ratio);
  extra.emplace_back(member);
  std::snprintf(member, sizeof(member), "\"tier0_p99_10x_over_1x\": %.3f", p99_ratio);
  extra.emplace_back(member);
  std::snprintf(member, sizeof(member),
                "\"config\": {\"workers\": %d, \"handler_ms\": %d, \"deadline_ms\": %d, "
                "\"base_threads\": %d, \"run_seconds\": %.1f}",
                kWorkers, kHandlerMs, kDeadlineMs, kBaseThreads, kRunSeconds);
  extra.emplace_back(member);

  std::string path = bench::bench_json_path(argc, argv);
  if (path.empty()) path = "BENCH_overload.json";
  if (!bench::write_bench_json(path, "abl_overload", scenarios, extra)) {
    std::fprintf(stderr, "failed to write %s\n", path.c_str());
    return 1;
  }
  std::printf("wrote %s\n", path.c_str());
  return 0;
}
