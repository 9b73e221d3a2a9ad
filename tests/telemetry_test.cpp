// Telemetry subsystem tests: histogram bucket math, registry snapshots under
// concurrent recording, trace-context propagation over a live TCP hop (the
// fig-7 steering command assembling into one cross-service trace), the
// telemetry.snapshot RPC face, the MonALISA bridge, and metric survival
// across a supervised service restart.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <set>
#include <thread>
#include <vector>

#include "clarens/host.h"
#include "estimators/estimate_db.h"
#include "estimators/runtime_estimator.h"
#include "jobmon/rpc_binding.h"
#include "jobmon/service.h"
#include "monalisa/repository.h"
#include "rpc/client.h"
#include "sim/engine.h"
#include "sim/grid.h"
#include "sim/load.h"
#include "sphinx/scheduler.h"
#include "steering/rpc_binding.h"
#include "steering/service.h"
#include "supervision/supervisor.h"
#include "telemetry/instrument.h"
#include "telemetry/metrics.h"
#include "telemetry/monalisa_bridge.h"
#include "telemetry/rpc_binding.h"
#include "telemetry/trace.h"

namespace gae {
namespace {

using telemetry::Histogram;
using telemetry::HistogramSnapshot;
using telemetry::MetricsRegistry;
using telemetry::MetricsSnapshot;
using telemetry::ScopedSpan;
using telemetry::Span;
using telemetry::TraceContext;
using telemetry::Tracer;

// ---------------------------------------------------------------------------
// Histogram bucket boundaries
// ---------------------------------------------------------------------------

TEST(Histogram, BucketIndexBoundaries) {
  // Bucket 0 holds exactly {0}; bucket i >= 1 holds [2^(i-1), 2^i).
  EXPECT_EQ(Histogram::bucket_index(0), 0);
  EXPECT_EQ(Histogram::bucket_index(1), 1);
  EXPECT_EQ(Histogram::bucket_index(2), 2);
  EXPECT_EQ(Histogram::bucket_index(3), 2);
  EXPECT_EQ(Histogram::bucket_index(4), 3);
  EXPECT_EQ(Histogram::bucket_index(7), 3);
  EXPECT_EQ(Histogram::bucket_index(8), 4);
  for (int i = 1; i < Histogram::kBuckets - 1; ++i) {
    const std::uint64_t lo = Histogram::bucket_lower_bound(i);
    const std::uint64_t hi = Histogram::bucket_upper_bound(i);
    EXPECT_EQ(Histogram::bucket_index(lo), i) << "lower bound of bucket " << i;
    EXPECT_EQ(Histogram::bucket_index(hi - 1), i) << "upper edge of bucket " << i;
    EXPECT_EQ(Histogram::bucket_index(hi), i + 1) << "first value past bucket " << i;
  }
  // Values beyond the last bucket's lower bound clamp into the last bucket.
  EXPECT_EQ(Histogram::bucket_index(UINT64_MAX), Histogram::kBuckets - 1);
}

TEST(Histogram, RecordLandsInExpectedBuckets) {
  Histogram h;
  h.record(0);
  h.record(1);
  h.record(2);
  h.record(3);
  h.record(1024);
  const HistogramSnapshot s = h.snapshot();
  EXPECT_EQ(s.count, 5u);
  EXPECT_EQ(s.sum, 0u + 1 + 2 + 3 + 1024);
  EXPECT_EQ(s.min, 0u);
  EXPECT_EQ(s.max, 1024u);
  EXPECT_EQ(s.buckets[0], 1u);   // {0}
  EXPECT_EQ(s.buckets[1], 1u);   // [1,2)
  EXPECT_EQ(s.buckets[2], 2u);   // [2,4)
  EXPECT_EQ(s.buckets[11], 1u);  // [1024,2048)
}

TEST(Histogram, PercentilesInterpolateWithinBucket) {
  Histogram h;
  for (int i = 0; i < 100; ++i) h.record(1000);  // all in [512, 1024)
  const HistogramSnapshot s = h.snapshot();
  for (double p : {50.0, 95.0, 99.0}) {
    const double v = s.percentile(p);
    EXPECT_GE(v, 512.0) << "p" << p;
    EXPECT_LE(v, 1024.0) << "p" << p;
  }
  // A bimodal distribution separates cleanly across buckets.
  Histogram h2;
  for (int i = 0; i < 90; ++i) h2.record(10);      // [8,16)
  for (int i = 0; i < 10; ++i) h2.record(100000);  // [65536,131072)
  const HistogramSnapshot s2 = h2.snapshot();
  EXPECT_LT(s2.percentile(50), 16.0);
  EXPECT_GE(s2.percentile(95), 65536.0);
}

TEST(Histogram, SnapshotMergeAddsBucketwise) {
  Histogram a, b;
  a.record(5);
  a.record(7);
  b.record(1000);
  HistogramSnapshot sa = a.snapshot();
  const HistogramSnapshot sb = b.snapshot();
  sa.merge(sb);
  EXPECT_EQ(sa.count, 3u);
  EXPECT_EQ(sa.sum, 5u + 7 + 1000);
  EXPECT_EQ(sa.min, 5u);
  EXPECT_EQ(sa.max, 1000u);
}

// ---------------------------------------------------------------------------
// Registry under concurrent recording
// ---------------------------------------------------------------------------

TEST(MetricsRegistry, SnapshotUnderConcurrentRecordStaysConsistent) {
  MetricsRegistry registry;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20'000;
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry, &go] {
      while (!go.load()) {
      }
      auto& counter = registry.counter("work.calls");
      auto& hist = registry.histogram("work.latency_us");
      auto& gauge = registry.gauge("work.level");
      for (int i = 0; i < kPerThread; ++i) {
        counter.inc();
        hist.record(static_cast<std::uint64_t>(i % 1000));
        gauge.add(1);
        gauge.add(-1);
      }
    });
  }
  go.store(true);
  // Snapshot while the writers hammer: every snapshot must be internally
  // sane (bucket sum never exceeds the then-current count ceiling).
  for (int i = 0; i < 50; ++i) {
    const MetricsSnapshot snap = registry.snapshot();
    auto it = snap.histograms.find("work.latency_us");
    if (it == snap.histograms.end()) continue;
    std::uint64_t bucket_total = 0;
    for (const auto b : it->second.buckets) bucket_total += b;
    EXPECT_EQ(bucket_total, it->second.count);
    EXPECT_LE(it->second.count,
              static_cast<std::uint64_t>(kThreads) * kPerThread);
  }
  for (auto& t : threads) t.join();
  const MetricsSnapshot final_snap = registry.snapshot();
  EXPECT_EQ(final_snap.counters.at("work.calls"),
            static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(final_snap.gauges.at("work.level"), 0);
  EXPECT_EQ(final_snap.histograms.at("work.latency_us").count,
            static_cast<std::uint64_t>(kThreads) * kPerThread);
}

TEST(MetricsRegistry, HandlesAreStableAndShared) {
  MetricsRegistry registry;
  auto& a = registry.counter("x");
  auto& b = registry.counter("x");
  EXPECT_EQ(&a, &b);
  a.inc(3);
  EXPECT_EQ(registry.snapshot().counters.at("x"), 3u);
}

TEST(MetricsRegistry, CounterSumTotalsOneFamily) {
  MetricsRegistry registry;
  registry.counter("rpc.client.a:1.retries").inc(2);
  registry.counter("rpc.client.b:2.retries").inc(3);
  registry.counter("rpc.client.b:2.attempts").inc(7);  // other suffix
  registry.counter("rpc.clientele.retries").inc(100);  // other prefix
  EXPECT_EQ(registry.snapshot().counter_sum("rpc.client.", ".retries"), 5u);
  EXPECT_EQ(registry.snapshot().counter_sum("wal.", ".scrub.corrupt"), 0u);
}

TEST(Traced, CountsCallsAndErrorsOncePerCall) {
  MetricsRegistry metrics;
  int runs = 0;
  const rpc::Method method = telemetry::traced(
      nullptr, "svc", "op",
      [&runs](const rpc::Array& params, const rpc::CallContext&) -> Result<rpc::Value> {
        ++runs;
        if (!params.empty()) return invalid_argument_error("op takes no parameters");
        return rpc::Value(true);
      },
      &metrics);
  ASSERT_TRUE(method({}, {}).is_ok());
  ASSERT_TRUE(method({}, {}).is_ok());
  EXPECT_EQ(method({rpc::Value(1)}, {}).status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(runs, 3);
  EXPECT_EQ(metrics.counter("svc.op.calls").value(), 3u);
  EXPECT_EQ(metrics.counter("svc.op.errors").value(), 1u);
}

// ---------------------------------------------------------------------------
// Trace context plumbing
// ---------------------------------------------------------------------------

TEST(Trace, FormatParseRoundTrip) {
  TraceContext ctx;
  ctx.trace_id = 0x00c0ffee00c0ffeeULL;
  ctx.span_id = 0x1ULL;
  ctx.parent_span_id = 0xdeadbeefULL;
  const TraceContext parsed = telemetry::parse_trace(telemetry::format_trace(ctx));
  EXPECT_EQ(parsed.trace_id, ctx.trace_id);
  EXPECT_EQ(parsed.span_id, ctx.span_id);
  EXPECT_EQ(parsed.parent_span_id, ctx.parent_span_id);
}

TEST(Trace, ParseRejectsMalformedInput) {
  EXPECT_FALSE(telemetry::parse_trace("").valid());
  EXPECT_FALSE(telemetry::parse_trace("not-a-trace").valid());
  EXPECT_FALSE(telemetry::parse_trace("12;34").valid());
  EXPECT_FALSE(telemetry::parse_trace(";;").valid());
}

TEST(Trace, ScopedSpanChainsParentChildAndRestores) {
  Tracer tracer;
  EXPECT_FALSE(telemetry::current_trace().valid());
  TraceContext outer_ctx, inner_ctx;
  {
    ScopedSpan outer(&tracer, "svc-a", "outer", "client");
    outer_ctx = outer.context();
    EXPECT_TRUE(outer_ctx.valid());
    EXPECT_EQ(outer_ctx.parent_span_id, 0u);
    {
      ScopedSpan inner(&tracer, "svc-b", "inner", "internal");
      inner_ctx = inner.context();
      EXPECT_EQ(inner_ctx.trace_id, outer_ctx.trace_id);
      EXPECT_EQ(inner_ctx.parent_span_id, outer_ctx.span_id);
    }
    EXPECT_EQ(telemetry::current_trace().span_id, outer_ctx.span_id);
  }
  EXPECT_FALSE(telemetry::current_trace().valid());
  const auto spans = tracer.trace(outer_ctx.trace_id);
  ASSERT_EQ(spans.size(), 2u);  // inner finished first
  EXPECT_EQ(spans[0].name, "inner");
  EXPECT_EQ(spans[1].name, "outer");
}

TEST(Trace, RemoteParentAdoptedOverAmbient) {
  Tracer tracer;
  TraceContext remote;
  remote.trace_id = 42;
  remote.span_id = 7;
  ScopedSpan span(&tracer, "svc", "handler", "server", remote);
  EXPECT_EQ(span.context().trace_id, 42u);
  EXPECT_EQ(span.context().parent_span_id, 7u);
}

TEST(Trace, TracerBoundsRetainedSpans) {
  Tracer tracer(/*max_spans=*/4);
  for (int i = 0; i < 10; ++i) {
    ScopedSpan s(&tracer, "svc", "m", "internal");
  }
  EXPECT_EQ(tracer.span_count(), 4u);
  EXPECT_EQ(tracer.dropped(), 6u);
}

// ---------------------------------------------------------------------------
// Fig-7: a live-TCP steering command assembles into one multi-service trace
// ---------------------------------------------------------------------------

// The SteeringTest stack from steering_test.cpp, plus a Clarens host serving
// real TCP with telemetry armed end to end.
class TracedSteeringTest : public ::testing::Test {
 protected:
  TracedSteeringTest() : host_("gae-host", wall_, host_options()) {
    grid_.add_site("site-a").add_node("a0", 1.0, nullptr);
    grid_.add_site("site-b").add_node("b0", 1.0, nullptr);
    grid_.set_default_link({100e6, 0});
    exec_a_ = std::make_unique<exec::ExecutionService>(sim_, grid_, "site-a");
    exec_b_ = std::make_unique<exec::ExecutionService>(sim_, grid_, "site-b");
    estimate_db_ = std::make_shared<estimators::EstimateDatabase>();

    scheduler_ = std::make_unique<sphinx::SphinxScheduler>(sim_, grid_, &monitoring_,
                                                           estimate_db_);
    scheduler_->add_site("site-a", {exec_a_.get(), nullptr});
    scheduler_->add_site("site-b", {exec_b_.get(), nullptr});

    jms_ = std::make_unique<jobmon::JobMonitoringService>(sim_.clock(), &monitoring_,
                                                          estimate_db_);
    jms_->attach_site("site-a", exec_a_.get());
    jms_->attach_site("site-b", exec_b_.get());

    steering::SteeringService::Deps deps;
    deps.sim = &sim_;
    deps.scheduler = scheduler_.get();
    deps.jobmon = jms_.get();
    deps.services = {{"site-a", exec_a_.get()}, {"site-b", exec_b_.get()}};
    steering::SteeringOptions options;
    options.auto_steer = false;
    steering_ = std::make_unique<steering::SteeringService>(deps, options);

    steering::register_steering_methods(host_, *steering_, &tracer_, &metrics_);
    jobmon::register_jobmon_methods(host_, *jms_, &tracer_, &metrics_);
    telemetry::register_telemetry_methods(host_, metrics_, &tracer_);

    auto port = host_.serve(0);
    EXPECT_TRUE(port.is_ok()) << port.status();
    port_ = port.value();
  }

  clarens::HostOptions host_options() {
    clarens::HostOptions o;
    o.require_auth = false;
    o.metrics = &metrics_;
    o.tracer = &tracer_;
    return o;
  }

  void submit_and_run(const std::string& id, double work, SimDuration until) {
    exec::TaskSpec spec;
    spec.id = id;
    spec.job_id = "job-1";
    spec.owner = "alice";
    spec.work_seconds = work;
    sphinx::JobDescription job;
    job.id = "job-1";
    job.owner = "alice";
    job.tasks.push_back({std::move(spec), {}});
    ASSERT_TRUE(scheduler_->submit(job).is_ok());
    sim_.run_until(until);
  }

  rpc::ClientOptions traced_client_options() {
    rpc::ClientOptions o;
    o.metrics = &metrics_;
    o.tracer = &tracer_;
    o.trace_service = "cli";
    return o;
  }

  Tracer tracer_;
  MetricsRegistry metrics_;
  WallClock wall_;
  sim::Simulation sim_;
  sim::Grid grid_;
  monalisa::Repository monitoring_;
  std::unique_ptr<exec::ExecutionService> exec_a_, exec_b_;
  std::shared_ptr<estimators::EstimateDatabase> estimate_db_;
  std::unique_ptr<sphinx::SphinxScheduler> scheduler_;
  std::unique_ptr<jobmon::JobMonitoringService> jms_;
  std::unique_ptr<steering::SteeringService> steering_;
  clarens::ClarensHost host_;
  std::uint16_t port_ = 0;
};

TEST_F(TracedSteeringTest, SteeringCommandAssemblesOneMultiServiceTrace) {
  submit_and_run("t1", 500, from_seconds(5));

  rpc::RpcClient client({{"127.0.0.1", port_}}, rpc::Protocol::kXmlRpc,
                        traced_client_options());
  auto killed = client.call("steering.kill", {rpc::Value("t1")});
  ASSERT_TRUE(killed.is_ok()) << killed.status();

  // Exactly one trace id, with >= 3 spans across >= 3 distinct services:
  // the cli client hop, the gae-host server hop, and the steering service
  // span beneath it.
  std::set<std::uint64_t> trace_ids;
  for (const auto& span : tracer_.spans()) trace_ids.insert(span.context.trace_id);
  ASSERT_EQ(trace_ids.size(), 1u);
  const auto spans = tracer_.trace(*trace_ids.begin());
  ASSERT_GE(spans.size(), 3u);
  std::set<std::string> services;
  for (const auto& span : spans) services.insert(span.service);
  EXPECT_GE(services.size(), 3u);
  EXPECT_TRUE(services.count("cli"));
  EXPECT_TRUE(services.count("gae-host"));
  EXPECT_TRUE(services.count("steering"));

  // Parent-child links hold: each non-root span's parent is another span of
  // the same trace, so the tree assembles without dangling references.
  std::set<std::uint64_t> span_ids;
  for (const auto& span : spans) span_ids.insert(span.context.span_id);
  int roots = 0;
  for (const auto& span : spans) {
    if (span.context.parent_span_id == 0) {
      ++roots;
    } else {
      EXPECT_TRUE(span_ids.count(span.context.parent_span_id))
          << "dangling parent for span " << span.name;
    }
  }
  EXPECT_EQ(roots, 1);

  // The same assembled trace is readable over RPC.
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016llx",
                static_cast<unsigned long long>(*trace_ids.begin()));
  auto remote = client.call("telemetry.trace", {rpc::Value(std::string(hex))});
  ASSERT_TRUE(remote.is_ok()) << remote.status();
  EXPECT_GE(remote.value().as_array().size(), 3u);
}

TEST_F(TracedSteeringTest, SnapshotRpcReportsPerMethodPercentiles) {
  submit_and_run("t1", 500, from_seconds(5));
  rpc::RpcClient client({{"127.0.0.1", port_}}, rpc::Protocol::kJsonRpc,
                        traced_client_options());
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(client.call("jobmon.status", {rpc::Value("t1")}).is_ok());
  }
  auto snap = client.call("telemetry.snapshot");
  ASSERT_TRUE(snap.is_ok()) << snap.status();
  const auto& hists = snap.value().at("histograms");
  ASSERT_TRUE(hists.has("rpc.server.jobmon.status.latency_us"));
  const auto& lat = hists.at("rpc.server.jobmon.status.latency_us");
  EXPECT_GE(lat.get_int("count", 0), 20);
  const double p50 = lat.get_double("p50_us", -1);
  const double p95 = lat.get_double("p95_us", -1);
  const double p99 = lat.get_double("p99_us", -1);
  EXPECT_GT(p50, 0.0);
  EXPECT_GE(p95, p50);
  EXPECT_GE(p99, p95);
  const auto& counters = snap.value().at("counters");
  EXPECT_GE(counters.get_int("rpc.server.jobmon.status.calls", 0), 20);
  EXPECT_GE(counters.get_int("jobmon.status.calls", 0), 20);
  // The client side counted its attempts per endpoint.
  bool saw_client_attempts = false;
  for (const auto& [name, _] : counters.as_struct()) {
    if (name.rfind("rpc.client.", 0) == 0 &&
        name.find(".attempts") != std::string::npos) {
      saw_client_attempts = true;
    }
  }
  EXPECT_TRUE(saw_client_attempts);
}

// ---------------------------------------------------------------------------
// MonALISA bridge
// ---------------------------------------------------------------------------

TEST(MonalisaBridge, FlushPublishesCountersGaugesAndHistogramSummaries) {
  MetricsRegistry registry;
  registry.counter("steering.kill.calls").inc(4);
  registry.gauge("rpc.server.queue_depth").set(3);
  for (int i = 0; i < 100; ++i) {
    registry.histogram("rpc.server.steering.kill.latency_us").record(700);
  }
  monalisa::Repository repo;
  ManualClock clock;
  clock.advance_to(from_seconds(12));
  telemetry::MonalisaBridge bridge(registry, repo, "telemetry@gae-host", clock);
  bridge.flush();
  EXPECT_EQ(bridge.flushes(), 1u);

  auto calls = repo.latest("telemetry@gae-host", "steering.kill.calls");
  ASSERT_TRUE(calls.is_ok());
  EXPECT_DOUBLE_EQ(calls.value().value, 4.0);
  auto depth = repo.latest("telemetry@gae-host", "rpc.server.queue_depth");
  ASSERT_TRUE(depth.is_ok());
  EXPECT_DOUBLE_EQ(depth.value().value, 3.0);
  auto count =
      repo.latest("telemetry@gae-host", "rpc.server.steering.kill.latency_us.count");
  ASSERT_TRUE(count.is_ok());
  EXPECT_DOUBLE_EQ(count.value().value, 100.0);
  auto p95 =
      repo.latest("telemetry@gae-host", "rpc.server.steering.kill.latency_us.p95_us");
  ASSERT_TRUE(p95.is_ok());
  EXPECT_GE(p95.value().value, 512.0);
  EXPECT_LE(p95.value().value, 1024.0);
}

// ---------------------------------------------------------------------------
// Metrics survive a supervised restart
// ---------------------------------------------------------------------------

TEST(SupervisedTelemetry, CountersAccumulateAcrossSupervisedRestart) {
  MetricsRegistry metrics;
  WallClock wall;
  ManualClock clock;

  clarens::HostOptions options;
  options.require_auth = false;
  options.metrics = &metrics;
  auto host = std::make_unique<clarens::ClarensHost>("svc-host", wall, options);
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(host->call("system.echo", {rpc::Value(1)}).is_ok());
  }

  supervision::Supervisor supervisor(clock, {}, nullptr, &metrics);
  supervisor.manage({"svc-host", [&]() -> Status {
                       // The registry is process-level infrastructure: the
                       // resurrected host records into the same registry, so
                       // history spans incarnations.
                       host = std::make_unique<clarens::ClarensHost>("svc-host", wall,
                                                                     options);
                       return Status::ok();
                     }});
  host.reset();  // the "crash"
  supervisor.on_service_dead("svc-host");
  clock.advance_by(from_seconds(10));
  ASSERT_EQ(supervisor.tick(), 1u);

  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(host->call("system.echo", {rpc::Value(1)}).is_ok());
  }

  const MetricsSnapshot snap = metrics.snapshot();
  EXPECT_EQ(snap.counters.at("rpc.server.system.echo.calls"), 5u);
  EXPECT_EQ(snap.counters.at("supervision.deaths"), 1u);
  EXPECT_EQ(snap.counters.at("supervision.restart_attempts"), 1u);
  EXPECT_EQ(snap.counters.at("supervision.restarts_succeeded"), 1u);
  EXPECT_EQ(snap.histograms.at("rpc.server.system.echo.latency_us").count, 5u);
}

}  // namespace
}  // namespace gae
