// GAE service benchmark program.
//
//   gae_bench --workload <jobmon_poll|estimate_query|steer_rw> --seed <n>
//             --seconds <s> --trace <0|1>
//
// --trace 0 sets the workload's services up several times (setup_s is the
// median), warms the last set-up up, then runs the closed-loop clients for
// --seconds and prints the end-to-end metrics. --trace 1 runs an untraced
// window of --seconds/2 and a traced one of at most 5 s, and prints the
// per-layer metrics. Either way the last stdout line is one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {name: {value, unit}}}
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/log.h"
#include "rpc/jsonrpc.h"
#include "rpc/xmlrpc.h"
#include "summary.h"
#include "world.h"

namespace gaebench {
namespace {

using Clock = std::chrono::steady_clock;

/// Independent set-ups per untraced run (at least kMinSetups, more while
/// they took under kSetupSeconds in all); setup_s is their median.
constexpr std::size_t kMinSetups = 3;
constexpr std::size_t kMaxSetups = 50;
constexpr double kSetupSeconds = 1.5;
/// The traced window is at most this long: every span stays in memory
/// until the window closes, and a steer_rw operation records about ten.
constexpr double kTracedSeconds = 5.0;
/// Spans the traced window may hold before the ring overwrites.
constexpr std::size_t kTracerCapacity = 1'500'000;
/// A failed operation ranks at the client deadline in the percentiles.
constexpr double kFailurePenaltyUs = kDeadlineMs * 1000.0;
/// End-to-end timings are medians over one-second slices of the window.
constexpr double kSliceSeconds = 1.0;
/// Closed-loop warm-up before every window: lets connections, caches and
/// the admission limiter settle, and gives the host's CPUs time to ramp
/// up from the single-threaded set-up.
constexpr double kWarmupSeconds = 10.0;
/// Drift compares the last fifth of a window with the first.
constexpr double kDriftFraction = 0.2;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

bool parse_args(int argc, char** argv, Args& args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::stoull(value);
    } else if (key == "--seconds") {
      args.seconds = std::stod(value);
    } else if (key == "--trace") {
      args.trace = value == "1";
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args.workload.empty() && args.seconds > 0;
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

double current_rss_mb() {
  std::ifstream statm("/proc/self/statm");
  long pages_total = 0, pages_resident = 0;
  statm >> pages_total >> pages_resident;
  return static_cast<double>(pages_resident) * static_cast<double>(sysconf(_SC_PAGESIZE)) /
         (1024.0 * 1024.0);
}

/// The world plus its closed-loop clients.
struct Deployment {
  std::unique_ptr<World> world;
  std::vector<std::unique_ptr<Client>> clients;

  ~Deployment() {
    clients.clear();  // clients hold references into the world
    world.reset();
  }
};

std::unique_ptr<Deployment> deploy(const Args& args, gae::telemetry::Tracer* tracer) {
  auto d = std::make_unique<Deployment>();
  d->world = make_world(args.workload, args.seed, tracer);
  if (!d->world) throw std::runtime_error("unknown workload: " + args.workload);
  for (std::size_t i = 0; i < d->world->client_count(); ++i) {
    d->clients.push_back(d->world->make_client(i, /*record=*/tracer != nullptr));
  }
  return d;
}

struct Window {
  WindowLog log;
  double seconds = 0.0;
  double cpu_seconds = 0.0;
  double rss_start_mb = 0.0;
  double rss_end_mb = 0.0;
  double peak_rss_mb = 0.0;
};

int slice_count(double seconds) {
  return std::max(1, static_cast<int>(std::lround(seconds / kSliceSeconds)));
}

/// Runs every client in a closed loop for `seconds`, then has the world
/// check the state the clients left behind. Operations started before the
/// stop signal all count, and the window lasts until the last of them
/// completed. Each client records into its own WindowLog, whose size is
/// fixed before the window opens, so the window's memory figures show the
/// services, not the benchmark's own records.
Window run_window(Deployment& d, double seconds) {
  const std::size_t n = d.clients.size();
  const int slices = slice_count(seconds);
  std::vector<WindowLog> per_client(n, WindowLog(seconds, slices));
  std::atomic<bool> stop{false};
  Window w{WindowLog(seconds, slices)};
  w.rss_start_mb = current_rss_mb();
  const double cpu0 = cpu_seconds();
  const auto start = Clock::now();
  std::vector<std::thread> threads;
  threads.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    threads.emplace_back([&, i] {
      WindowLog& log = per_client[i];
      Client& client = *d.clients[i];
      while (!stop.load(std::memory_order_relaxed)) {
        const auto t0 = Clock::now();
        const gae::StatusCode code = client.step();
        const auto t1 = Clock::now();
        log.record(std::chrono::duration<double>(t1 - start).count(),
                   std::chrono::duration<double, std::micro>(t1 - t0).count(), code);
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  stop.store(true);
  for (auto& t : threads) t.join();
  w.seconds = std::chrono::duration<double>(Clock::now() - start).count();
  w.cpu_seconds = cpu_seconds() - cpu0;
  w.rss_end_mb = current_rss_mb();
  w.peak_rss_mb = peak_rss_mb();
  for (const auto& log : per_client) w.log.merge(log);
  d.world->check_quiescent();
  return w;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::snprintf(value, sizeof value, "%.17g", v);
    if (i) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " + value + ", \"unit\": \"" +
           metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

void print_window(const char* label, const WindowSummary& s, const Window& w) {
  std::printf("# %s: attempted=%llu ok=%llu failed=%llu over %.3f s; %.1f ops/s; p50=%.1f us "
              "p99=%.1f us (n=%llu); cpu=%.3f s; rss %.1f -> %.1f MB\n",
              label, static_cast<unsigned long long>(s.attempted),
              static_cast<unsigned long long>(s.succeeded),
              static_cast<unsigned long long>(s.failed), s.seconds, s.throughput_rps, s.p50_us,
              s.p99_us, static_cast<unsigned long long>(s.attempted), w.cpu_seconds,
              w.rss_start_mb, w.rss_end_mb);
  for (const auto& [code, count] : s.failures_by_code) {
    std::printf("#   failed %s: %llu\n", code.c_str(), static_cast<unsigned long long>(count));
  }
  // The window slice by slice, so drift and stalls show as a trend.
  std::printf("#   per slice (ops/s, p50 us, p99 us):");
  for (const WindowSummary& t : slice_summaries(w.log, kFailurePenaltyUs)) {
    std::printf(" %.0f/%.0f/%.0f", t.throughput_rps, t.p50_us, t.p99_us);
  }
  std::printf("\n");
}

bool report_checks(World& world) {
  const CheckTally& tally = world.tally();
  std::printf("# answers: correct=%llu flagged=%llu wrong=%llu\n",
              static_cast<unsigned long long>(tally.correct()),
              static_cast<unsigned long long>(tally.flagged()),
              static_cast<unsigned long long>(tally.wrong()));
  if (tally.wrong() > 0) std::printf("# first wrong answer: %s\n", tally.first_wrong().c_str());
  return tally.wrong() == 0;
}

int run_untraced(const Args& args) {
  std::vector<double> setups;
  std::unique_ptr<Deployment> d;
  double spent = 0.0;
  while (setups.size() < kMinSetups || (spent < kSetupSeconds && setups.size() < kMaxSetups)) {
    d.reset();
    const auto t0 = Clock::now();
    d = deploy(args, nullptr);
    setups.push_back(std::chrono::duration<double>(Clock::now() - t0).count());
    spent += setups.back();
  }
  std::printf("# setup: median %.6f s over %zu set-ups (min %.6f, max %.6f)\n", median(setups),
              setups.size(), *std::min_element(setups.begin(), setups.end()),
              *std::max_element(setups.begin(), setups.end()));
  run_window(*d, kWarmupSeconds);
  const Window w = run_window(*d, args.seconds);
  print_window("window", summarize(w.log, w.seconds, kFailurePenaltyUs), w);
  const WindowSummary s = summarize_slices(w.log, w.seconds, kFailurePenaltyUs);
  std::printf("# medians over %zu slices: %.1f ops/s; p50=%.1f us p99=%.1f us\n",
              w.log.slices().size(), s.throughput_rps, s.p50_us, s.p99_us);
  std::printf("# drift: p50 last/first %.0f%% of window = %.3f; rss growth %.2f MB\n",
              kDriftFraction * 100, latency_drift(w.log, kDriftFraction),
              w.rss_end_mb - w.rss_start_mb);
  const bool correct = report_checks(*d->world) && s.attempted > 0;
  print_result(correct, s.attempted, s.failed,
               {{"setup_s", median(setups), "s"},
                {"throughput_rps", s.throughput_rps, "1/s"},
                {"p50_us", s.p50_us, "us"},
                {"p99_us", s.p99_us, "us"},
                {"success_rate", s.success_rate, "ratio"},
                {"cpu_us_per_op", ratio(w.cpu_seconds * 1e6, static_cast<double>(s.succeeded)),
                 "us"},
                {"peak_rss_mb", w.peak_rss_mb, "MB"}});
  return 0;
}

/// Median per-exchange encode and decode time (µs) of the recorded
/// requests and responses, in the workload's wire protocol.
std::pair<double, double> codec_times(const std::vector<Exchange>& exchanges,
                                      gae::rpc::Protocol protocol) {
  if (exchanges.empty()) return {0.0, 0.0};
  constexpr int kRounds = 7;
  constexpr int kPasses = 20;
  std::vector<double> enc, dec;
  std::size_t sink = 0;
  for (int round = 0; round < kRounds; ++round) {
    double enc_us = 0.0, dec_us = 0.0;
    for (int pass = 0; pass < kPasses; ++pass) {
      for (const auto& x : exchanges) {
        const auto t0 = Clock::now();
        std::string req, resp;
        if (protocol == gae::rpc::Protocol::kXmlRpc) {
          req = gae::rpc::xmlrpc::encode_call(x.method, x.params);
          resp = gae::rpc::xmlrpc::encode_response(x.response);
        } else {
          req = gae::rpc::jsonrpc::encode_call(x.method, x.params, 1);
          resp = gae::rpc::jsonrpc::encode_response(x.response, 1);
        }
        const auto t1 = Clock::now();
        if (protocol == gae::rpc::Protocol::kXmlRpc) {
          sink += gae::rpc::xmlrpc::decode_call(req).is_ok();
          sink += gae::rpc::xmlrpc::decode_response(resp).is_ok();
        } else {
          sink += gae::rpc::jsonrpc::decode_call(req).is_ok();
          sink += gae::rpc::jsonrpc::decode_response(resp).is_ok();
        }
        const auto t2 = Clock::now();
        enc_us += std::chrono::duration<double, std::micro>(t1 - t0).count();
        dec_us += std::chrono::duration<double, std::micro>(t2 - t1).count();
      }
    }
    const double n = static_cast<double>(kPasses) * static_cast<double>(exchanges.size());
    enc.push_back(enc_us / n);
    dec.push_back(dec_us / n);
  }
  if (sink != 2 * kRounds * kPasses * exchanges.size()) {
    throw std::runtime_error("recorded exchange failed to decode");
  }
  return {median(enc), median(dec)};
}

std::vector<SpanRecord> span_records(const gae::telemetry::Tracer& tracer) {
  std::vector<SpanRecord> out;
  for (const auto& s : tracer.spans()) {
    out.push_back({s.context.trace_id, s.context.span_id, s.context.parent_span_id, s.start_us,
                   s.duration_us, s.service, s.name, s.kind});
  }
  return out;
}

/// The per-layer metrics, in BENCHMARK.json order, with units.
const std::vector<std::pair<std::string, std::string>>& layer_metric_units() {
  static const std::vector<std::pair<std::string, std::string>> units = {
      {"rpc.self_us.p50", "us"},
      {"rpc.self_us.p99", "us"},
      {"rpc.codec.encode_us", "us"},
      {"rpc.codec.decode_us", "us"},
      {"rpc.pool.reuse_ratio", "ratio"},
      {"rpc.client.retries_per_op", "ratio"},
      {"rpc.server.queue_depth.max", "count"},
      {"admission.clamps_per_s", "1/s"},
      {"admission.limit.final", "count"},
      {"admission.shed_share", "ratio"},
      {"admission.brownout_share", "ratio"},
      {"clarens.dispatch_self_us.p50", "us"},
      {"jobmon.cache.hit_ratio", "ratio"},
      {"jobmon.cache.invalidations_per_op", "ratio"},
      {"jobmon.handler_us.p50", "us"},
      {"jobmon.handler_us.p99", "us"},
      {"jobmon.snapshot_copies_per_s", "1/s"},
      {"jobmon.info_direct_us", "us"},
      {"jobmon.stale_after_write_share", "ratio"},
      {"estimator.handler_us.p50", "us"},
      {"estimator.handler_us.p99", "us"},
      {"estimator.runtime_direct_us", "us"},
      {"estimator.queue_time_direct_us", "us"},
      {"estimator.degraded_share", "ratio"},
      {"steering.handler_us.p50", "us"},
      {"steering.handler_us.p99", "us"},
      {"steering.pause_us.p50", "us"},
      {"steering.resume_us.p50", "us"},
      {"steering.priority_us.p50", "us"},
      {"exec.transitions_per_cmd", "ratio"},
      {"ha.append_us.p50", "us"},
      {"ha.append_us.p99", "us"},
      {"ha.batches_per_cmd", "ratio"},
      {"wal.bytes_per_cmd", "B"},
      {"error_rate", "ratio"},
      {"drift.p50_ratio", "ratio"},
      {"drift.rss_growth_mb", "MB"},
      {"trace.overhead_share", "ratio"},
      {"trace.spans_dropped", "count"},
  };
  return units;
}

int run_traced(const Args& args) {
  const double half = args.seconds / 2.0;

  // Untraced reference window: the base of trace.overhead_share and of the
  // drift figures.
  double untraced_rps = 0.0;
  MetricMap m;
  bool correct = true;
  {
    auto d = deploy(args, nullptr);
    run_window(*d, kWarmupSeconds);
    const Window w = run_window(*d, half);
    const WindowSummary s = summarize(w.log, w.seconds, kFailurePenaltyUs);
    print_window("untraced window", s, w);
    untraced_rps = s.throughput_rps;
    m["drift.p50_ratio"] = latency_drift(w.log, kDriftFraction);
    m["drift.rss_growth_mb"] = w.rss_end_mb - w.rss_start_mb;
    correct = report_checks(*d->world) && correct;
  }

  gae::telemetry::Tracer tracer(kTracerCapacity);
  auto d = deploy(args, &tracer);
  const double traced_seconds = std::min(half, kTracedSeconds);
  run_window(*d, kWarmupSeconds);
  tracer.clear();
  d->world->begin_window();

  // Sampler: the server's queue-depth gauge and the admission brownout
  // flag, once a millisecond.
  std::atomic<bool> sampling{true};
  std::int64_t depth_max = 0;
  std::uint64_t samples = 0;
  double browned = 0.0;
  std::thread sampler([&] {
    while (sampling.load()) {
      depth_max = std::max(depth_max, d->world->queue_depth());
      browned += d->world->brownout_fraction();
      ++samples;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  const Window w = run_window(*d, traced_seconds);
  sampling.store(false);
  sampler.join();

  const WindowSummary s = summarize(w.log, w.seconds, kFailurePenaltyUs);
  print_window("traced window", s, w);
  const std::uint64_t dropped = tracer.dropped();
  const SpanTree tree(span_records(tracer));
  std::printf("# spans: %zu retained, %llu dropped\n", tree.spans().size(),
              static_cast<unsigned long long>(dropped));

  LayerInputs in;
  in.seconds = w.seconds;
  in.attempted = s.attempted;
  in.spans = &tree;
  in.queue_depth_max = static_cast<double>(depth_max);
  in.brownout_share = ratio(browned, static_cast<double>(samples));
  d->world->layer_metrics(in, &tracer, m);

  std::vector<Exchange> exchanges;
  for (const auto& c : d->clients) {
    exchanges.insert(exchanges.end(), c->exchanges().begin(), c->exchanges().end());
  }
  const auto [enc, dec] = codec_times(exchanges, d->world->protocol());
  m["rpc.codec.encode_us"] = enc;
  m["rpc.codec.decode_us"] = dec;
  m["error_rate"] = s.error_rate;
  m["trace.overhead_share"] = 1.0 - ratio(s.throughput_rps, untraced_rps);
  m["trace.spans_dropped"] = static_cast<double>(dropped);
  correct = report_checks(*d->world) && correct && s.attempted > 0;

  std::vector<Metric> metrics;
  for (const auto& [name, unit] : layer_metric_units()) {
    auto it = m.find(name);
    metrics.push_back({name, it == m.end() ? 0.0 : it->second, unit});
  }
  print_result(correct, s.attempted, s.failed, metrics);
  return 0;
}

}  // namespace
}  // namespace gaebench

int main(int argc, char** argv) {
  gae::set_log_level(gae::LogLevel::kWarn);
  gaebench::Args args;
  if (!gaebench::parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: gae_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>\n");
    return 2;
  }
  try {
    return args.trace ? gaebench::run_traced(args) : gaebench::run_untraced(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "gae_bench: %s\n", e.what());
    return 1;
  }
}
