// Deterministic-simulation seed sweep: plays randomized whole-cluster fault
// schedules (kills, restarts, partitions, clock skew, WAL bit rot) against
// dst::Cluster on virtual time and reports throughput plus any invariant
// violations.
//
//   dst_sweep [--seeds=N] [--begin=S] [--bench_json=PATH]   sweep mode
//   dst_sweep --seed=S [--trace]                            replay one seed
//
// --trace also prints the network event trace: one line per connect,
// accept, send (with its byte count), delivery, reset and partition event.
//
// Replay is bit-identical: the seed fully determines the schedule, the
// network jitter, and the workload, so a seed printed by a failing sweep
// (or by CI) reproduces the identical run here.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench_json.h"
#include "dst/explore.h"

namespace {

std::string flag_value(int argc, char** argv, const std::string& name) {
  const std::string prefix = "--" + name + "=";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind(prefix, 0) == 0) return arg.substr(prefix.size());
  }
  return "";
}

bool flag_present(int argc, char** argv, const std::string& name) {
  const std::string bare = "--" + name;
  for (int i = 1; i < argc; ++i) {
    if (bare == argv[i]) return true;
  }
  return false;
}

int replay_seed(std::uint64_t seed, bool trace) {
  gae::dst::ExploreOptions options;
  options.cluster.trace = trace;
  std::printf("replaying seed %llu\n", static_cast<unsigned long long>(seed));
  auto result = gae::dst::run_seed(seed, options);
  std::printf("schedule:\n");
  for (const auto& action : result.actions) std::printf("  %s\n", action.c_str());
  std::printf("writes_acked=%llu reads_ok=%llu reads_err=%llu promoted=%d\n",
              static_cast<unsigned long long>(result.writes_acked),
              static_cast<unsigned long long>(result.reads_ok),
              static_cast<unsigned long long>(result.reads_err), result.promoted ? 1 : 0);
  if (trace) {
    std::printf("trace:\n");
    for (const auto& line : result.trace) std::printf("  %s\n", line.c_str());
  }
  if (result.ok) {
    std::printf("seed %llu: all invariants held (%llu checks)\n",
                static_cast<unsigned long long>(seed),
                static_cast<unsigned long long>(result.invariant_checks));
    return 0;
  }
  std::printf("%s", gae::dst::format_failure(result).c_str());
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string one_seed = flag_value(argc, argv, "seed");
  if (!one_seed.empty()) {
    return replay_seed(std::strtoull(one_seed.c_str(), nullptr, 10),
                       flag_present(argc, argv, "trace"));
  }

  std::uint64_t seeds = 2000;
  std::uint64_t begin = 1;
  if (const std::string v = flag_value(argc, argv, "seeds"); !v.empty()) {
    seeds = std::strtoull(v.c_str(), nullptr, 10);
  }
  if (const std::string v = flag_value(argc, argv, "begin"); !v.empty()) {
    begin = std::strtoull(v.c_str(), nullptr, 10);
  }

  gae::dst::ExploreOptions options;
  const auto start = std::chrono::steady_clock::now();
  auto report = gae::dst::explore(begin, begin + seeds, options);
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();

  const double schedules_per_sec = secs > 0 ? static_cast<double>(report.seeds_run) / secs : 0;
  const double checks_per_sec =
      secs > 0 ? static_cast<double>(report.total_invariant_checks) / secs : 0;
  std::printf("swept %llu seeds in %.2fs: %.1f schedules/s, %.0f invariant checks/s, "
              "%llu acked writes, %zu failing seed(s)\n",
              static_cast<unsigned long long>(report.seeds_run), secs, schedules_per_sec,
              checks_per_sec, static_cast<unsigned long long>(report.total_writes_acked),
              report.failures.size());
  for (const auto& failure : report.failures) {
    std::printf("%s", gae::dst::format_failure(failure).c_str());
  }

  const std::string json = gae::bench::bench_json_path(argc, argv);
  if (!json.empty()) {
    std::vector<std::string> extra = {
        "\"seeds\": " + std::to_string(report.seeds_run),
        "\"wall_seconds\": " + std::to_string(secs),
        "\"schedules_per_sec\": " + std::to_string(schedules_per_sec),
        "\"invariant_checks_per_sec\": " + std::to_string(checks_per_sec),
        "\"failing_seeds\": " + std::to_string(report.failures.size()),
    };
    gae::bench::write_bench_json(json, "dst_sweep", {}, extra);
  }
  return report.failures.empty() ? 0 : 1;
}
