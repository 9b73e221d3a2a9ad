// Figure 6 reproduction: Job Monitoring Service response time vs number of
// concurrent clients.
//
// Paper setup (§7): the JMS hosted on a (Windows-XP) JClarens server;
// several clients call service methods in parallel; the figure reports the
// average time to fulfil a request per concurrency level, and the paper
// concludes the service "scales well ... as long as they do not exceed a
// certain limit".
//
// Here the JMS runs on the C++ Clarens host over real loopback TCP with a
// fixed worker pool, and real client threads hammer jobmon.* methods. The
// expected shape: flat response time up to roughly the worker count, then a
// graceful linear-ish rise as connections queue.
//
// A failed call counts in the latency columns at the time it took and in the
// errors column; req/s and the closing total count successful calls only.
// The exit status is non-zero when any level saw an error.
#include <atomic>
#include <cstdio>
#include <thread>
#include <vector>

#include "clarens/host.h"
#include "common/clock.h"
#include "common/stats.h"
#include "estimators/estimate_db.h"
#include "jobmon/rpc_binding.h"
#include "jobmon/service.h"
#include "rpc/client.h"
#include "sim/engine.h"

#include "common/log.h"

using namespace gae;


namespace {

struct Level {
  int clients;
  double mean_ms;
  double p95_ms;
  double throughput_rps;  // successful calls per second
  int succeeded;
  int errors;
};

}  // namespace

int main(int argc, char** argv) {
  set_log_level(LogLevel::kWarn);  // keep demo output clean
  const int calls_per_client = argc > 1 ? std::atoi(argv[1]) : 200;

  // --- Server side: one site, a few monitored jobs, JMS on a Clarens host.
  sim::Simulation sim;
  sim::Grid grid;
  grid.add_site("site-a").add_node("a0", 1.0, nullptr);
  exec::ExecutionService exec(sim, grid, "site-a");
  auto estimates = std::make_shared<estimators::EstimateDatabase>();
  jobmon::JobMonitoringService jms(sim.clock(), nullptr, estimates);
  jms.attach_site("site-a", &exec);

  for (int i = 0; i < 10; ++i) {
    exec::TaskSpec spec;
    spec.id = "job-" + std::to_string(i);
    spec.owner = "alice";
    spec.work_seconds = 1e7;  // stays RUNNING/QUEUED for the whole benchmark
    estimates->put(spec.id, 1e7);
    exec.submit(spec);
  }
  sim.run_until(from_seconds(100));

  WallClock wall;
  clarens::HostOptions hopts;
  hopts.require_auth = false;     // fig. 6 measures service time, not auth
  hopts.rpc_workers = 8;          // the "certain limit" of the conclusion
  clarens::ClarensHost host("jm-host", wall, hopts);
  jobmon::register_jobmon_methods(host, jms);
  auto port = host.serve(0);
  if (!port.is_ok()) {
    std::fprintf(stderr, "serve failed: %s\n", port.status().to_string().c_str());
    return 1;
  }

  std::printf("Figure 6: Response times for queries to Job Monitoring Service\n");
  std::printf("(loopback TCP, %zu server workers, %d calls/client)\n\n",
              hopts.rpc_workers, calls_per_client);
  std::printf("%-10s %14s %12s %16s %8s\n", "clients", "avg_ms/req", "p95_ms", "ok req/s",
              "errors");

  auto run_level = [&](int clients, rpc::Protocol protocol) {
    std::vector<std::thread> threads;
    std::vector<std::vector<double>> latencies(static_cast<std::size_t>(clients));
    std::atomic<int> errors{0};

    const auto wall_start = std::chrono::steady_clock::now();
    for (int c = 0; c < clients; ++c) {
      threads.emplace_back([&, c] {
        rpc::RpcClient client("127.0.0.1", port.value(), protocol);
        auto& lats = latencies[static_cast<std::size_t>(c)];
        lats.reserve(static_cast<std::size_t>(calls_per_client));
        for (int k = 0; k < calls_per_client; ++k) {
          const auto t0 = std::chrono::steady_clock::now();
          auto r = client.call("jobmon.info",
                               {rpc::Value("job-" + std::to_string(k % 10))});
          const auto t1 = std::chrono::steady_clock::now();
          if (!r.is_ok()) errors.fetch_add(1);
          lats.push_back(
              std::chrono::duration<double, std::milli>(t1 - t0).count());
        }
      });
    }
    for (auto& t : threads) t.join();
    const double wall_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - wall_start)
            .count();

    std::vector<double> all;
    for (auto& v : latencies) all.insert(all.end(), v.begin(), v.end());
    Level level;
    level.clients = clients;
    level.mean_ms = mean_of(all);
    level.p95_ms = percentile(all, 95);
    level.errors = errors.load();
    level.succeeded = static_cast<int>(all.size()) - level.errors;
    level.throughput_rps = static_cast<double>(level.succeeded) / wall_seconds;
    return level;
  };

  std::vector<Level> results;
  for (int clients : {1, 2, 4, 6, 8, 12, 16, 24, 32, 48}) {
    const Level level = run_level(clients, rpc::Protocol::kXmlRpc);
    results.push_back(level);
    std::printf("%-10d %14.3f %12.3f %16.0f %8d\n", level.clients, level.mean_ms,
                level.p95_ms, level.throughput_rps, level.errors);
  }

  std::printf("\n-- wire-format comparison (8 clients) --\n");
  std::printf("%-10s %14s %12s %16s %8s\n", "protocol", "avg_ms/req", "p95_ms", "ok req/s",
              "errors");
  const Level xml = run_level(8, rpc::Protocol::kXmlRpc);
  std::printf("%-10s %14.3f %12.3f %16.0f %8d\n", "xmlrpc", xml.mean_ms, xml.p95_ms,
              xml.throughput_rps, xml.errors);
  const Level json = run_level(8, rpc::Protocol::kJsonRpc);
  std::printf("%-10s %14.3f %12.3f %16.0f %8d\n", "jsonrpc", json.mean_ms, json.p95_ms,
              json.throughput_rps, json.errors);

  // Shape check for EXPERIMENTS.md: flat region vs saturated region.
  const double flat = results.front().mean_ms;
  const double saturated = results.back().mean_ms;
  std::printf("\nmean latency @1 client: %.3f ms; @%d clients: %.3f ms (%.1fx)\n", flat,
              results.back().clients, saturated, saturated / flat);
  results.push_back(xml);
  results.push_back(json);
  long long served = 0;
  long long failed = 0;
  for (const Level& level : results) {
    served += level.succeeded;
    failed += level.errors;
  }
  std::printf("served %lld requests total, %lld failed\n", served, failed);
  host.stop();
  return failed == 0 ? 0 : 1;
}
