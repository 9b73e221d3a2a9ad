// The three workload deployments: jobmon_poll, estimate_query, steer_rw.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <numeric>
#include <optional>
#include <set>
#include <stdexcept>
#include <utility>

#include "clarens/host.h"
#include "common/admission.h"
#include "common/clock.h"
#include "common/rng.h"
#include "common/wal.h"
#include "estimators/estimate_db.h"
#include "estimators/history.h"
#include "estimators/recorder.h"
#include "estimators/rpc_binding.h"
#include "estimators/runtime_estimator.h"
#include "estimators/service.h"
#include "estimators/transfer_estimator.h"
#include "exec/execution_service.h"
#include "ha/replication.h"
#include "ha/rpc_binding.h"
#include "jobmon/read_cache.h"
#include "jobmon/rpc_binding.h"
#include "jobmon/service.h"
#include "monalisa/repository.h"
#include "sim/engine.h"
#include "sim/grid.h"
#include "sim/load.h"
#include "sphinx/scheduler.h"
#include "steering/journal.h"
#include "steering/rpc_binding.h"
#include "steering/service.h"
#include "telemetry/metrics.h"
#include "workload/paragon_trace.h"
#include "workload/task_generator.h"
#include "world.h"

namespace gaebench {

using gae::StatusCode;
using gae::rpc::Array;
using gae::rpc::Struct;
using gae::rpc::Value;
namespace telemetry = gae::telemetry;

// -- Shared pieces -----------------------------------------------------------

void CheckTally::record(const Check& check) {
  switch (check.verdict) {
    case Verdict::kCorrect: correct_.fetch_add(1); break;
    case Verdict::kFlagged: flagged_.fetch_add(1); break;
    case Verdict::kWrong: {
      wrong_.fetch_add(1);
      std::lock_guard<std::mutex> lock(mutex_);
      if (first_wrong_.empty()) first_wrong_ = check.detail;
      break;
    }
  }
}

std::string CheckTally::first_wrong() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return first_wrong_;
}

void Client::remember(bool record, const std::string& method, const Array& params,
                      const Value& response) {
  constexpr std::size_t kKept = 64;
  if (record && exchanges_.size() < kKept) exchanges_.push_back({method, params, response});
}

namespace {

constexpr std::size_t kLoadClients = 4;  // closed-loop callers (= nproc)

/// Client knobs of dst::Cluster's workload clients, on the wall clock.
gae::rpc::ClientOptions client_options(telemetry::MetricsRegistry* metrics,
                                       telemetry::Tracer* tracer) {
  gae::rpc::ClientOptions options;
  options.default_call.deadline_ms = kDeadlineMs;
  options.default_call.retry =
      gae::RetryPolicy{/*max_attempts=*/2, /*initial_backoff_ms=*/10, /*backoff_multiplier=*/2.0,
                       /*max_backoff_ms=*/50, /*jitter_fraction=*/0.0, /*jitter_seed=*/11};
  options.metrics = metrics;
  options.tracer = tracer;
  return options;
}

std::unique_ptr<gae::rpc::RpcClient> dial(std::uint16_t port, gae::rpc::Protocol protocol,
                                          const gae::rpc::ClientOptions& options) {
  return std::make_unique<gae::rpc::RpcClient>(
      std::vector<gae::rpc::Endpoint>{{"127.0.0.1", port}}, protocol, options);
}

std::uint16_t serve_or_throw(gae::clarens::ClarensHost& host) {
  auto port = host.serve(0);
  if (!port.is_ok()) throw std::runtime_error("serve failed: " + port.status().to_string());
  return port.value();
}

/// Host knobs as dst::Cluster deploys its hosts, plus the telemetry the
/// benchmark arms. The concurrent workloads run auth-off, as dst::Cluster
/// does: AuthService::authenticate updates sessions without a lock.
gae::clarens::HostOptions host_options(bool require_auth, telemetry::MetricsRegistry* metrics,
                                       telemetry::Tracer* tracer,
                                       gae::AdmissionController* admission = nullptr) {
  gae::clarens::HostOptions options;
  options.require_auth = require_auth;
  options.metrics = metrics;
  options.tracer = tracer;
  options.admission = admission;
  return options;
}

/// The jobmon read cache as dst::Cluster deploys it (default TTLs), with
/// its counters on.
gae::jobmon::ReadCacheOptions cache_options(telemetry::MetricsRegistry* metrics) {
  gae::jobmon::ReadCacheOptions options;
  options.metrics = metrics;
  return options;
}

/// One operation timed inside a benchmark span (traced runs only), so the
/// client, server and internal spans of the request hang off it.
class OpSpan {
 public:
  OpSpan(telemetry::Tracer* tracer, const char* name) {
    if (tracer) span_.emplace(tracer, "bench", name, "internal");
  }
  void set_status(StatusCode code) {
    if (span_) span_->set_status(code);
  }

 private:
  std::optional<telemetry::ScopedSpan> span_;
};

/// Median wall time in µs of `fn` over `reps` calls, each inside a
/// benchmark span when traced.
template <typename Fn>
double time_direct(telemetry::Tracer* tracer, const char* name, std::size_t reps, Fn&& fn) {
  std::vector<double> samples;
  samples.reserve(reps);
  for (std::size_t i = 0; i < reps; ++i) {
    OpSpan span(tracer, name);
    const auto t0 = std::chrono::steady_clock::now();
    fn(i);
    const auto t1 = std::chrono::steady_clock::now();
    samples.push_back(std::chrono::duration<double, std::micro>(t1 - t0).count());
  }
  return median(std::move(samples));
}

/// Counter deltas over the window.
class CounterWindow {
 public:
  explicit CounterWindow(const telemetry::MetricsRegistry* metrics) : metrics_(metrics) {}
  void begin() { before_ = metrics_->snapshot(); }
  void end() { after_ = metrics_->snapshot(); }

  /// Delta of one counter.
  double delta(const std::string& name) const {
    return static_cast<double>(value(after_, name) - value(before_, name));
  }
  /// Delta summed over every counter with this prefix and suffix.
  double delta_matching(const std::string& prefix, const std::string& suffix) const {
    double total = 0.0;
    for (const auto& [name, v] : after_.counters) {
      if (name.rfind(prefix, 0) == 0 && name.size() >= suffix.size() &&
          name.compare(name.size() - suffix.size(), suffix.size(), suffix) == 0) {
        total += static_cast<double>(v - value(before_, name));
      }
    }
    return total;
  }
  /// Bucket-wise delta of one histogram, as a snapshot.
  telemetry::HistogramSnapshot histogram(const std::string& name) const {
    telemetry::HistogramSnapshot out;
    auto a = after_.histograms.find(name);
    if (a == after_.histograms.end()) return out;
    out = a->second;
    auto b = before_.histograms.find(name);
    if (b == before_.histograms.end()) return out;
    out.count -= b->second.count;
    out.sum -= b->second.sum;
    for (int i = 0; i < telemetry::HistogramSnapshot::kBuckets; ++i) {
      out.buckets[static_cast<std::size_t>(i)] -= b->second.buckets[static_cast<std::size_t>(i)];
    }
    return out;
  }

 private:
  static std::uint64_t value(const telemetry::MetricsSnapshot& s, const std::string& name) {
    auto it = s.counters.find(name);
    return it == s.counters.end() ? 0 : it->second;
  }

  const telemetry::MetricsRegistry* metrics_;
  telemetry::MetricsSnapshot before_;
  telemetry::MetricsSnapshot after_;
};

/// The RPC-layer metrics every workload reports from its own client calls.
void rpc_layer_metrics(const LayerInputs& in, const CounterWindow& clients,
                       const std::string& host_service, MetricMap& out) {
  const double reuses = clients.delta("rpc.pool.reuses");
  const double dials = clients.delta("rpc.pool.dials");
  out["rpc.pool.reuse_ratio"] = ratio(reuses, reuses + dials);
  out["rpc.client.retries_per_op"] =
      ratio(clients.delta_matching("rpc.client.", ".retries"), static_cast<double>(in.attempted));
  out["rpc.server.queue_depth.max"] = in.queue_depth_max;

  // Client span minus its server child(ren): codec, pool checkout, wire,
  // acceptor queue and HTTP framing. Only the workload's own calls count
  // (client spans whose parent is a benchmark span).
  std::vector<double> rpc_self, dispatch_self;
  std::map<std::uint64_t, const SpanRecord*> by_id;
  for (const auto& s : in.spans->spans()) by_id[s.span_id] = &s;
  for (const auto& s : in.spans->spans()) {
    auto parent = by_id.find(s.parent_id);
    if (parent == by_id.end()) continue;
    if (s.kind == "client" && parent->second->service == "bench") {
      rpc_self.push_back(static_cast<double>(self_time_us(s, in.spans->children(s.span_id))));
    } else if (s.kind == "server" && s.service == host_service &&
               parent->second->kind == "client" && by_id.count(parent->second->parent_id) &&
               by_id[parent->second->parent_id]->service == "bench") {
      // Server span minus handler span: auth, ACL, interceptors, metrics.
      dispatch_self.push_back(
          static_cast<double>(self_time_us(s, in.spans->children(s.span_id))));
    }
  }
  out["rpc.self_us.p50"] = percentile(rpc_self, 50.0);
  out["rpc.self_us.p99"] = percentile(rpc_self, 99.0);
  out["clarens.dispatch_self_us.p50"] = percentile(dispatch_self, 50.0);
}

/// Admission metrics over the world's controllers (one per host): clamps
/// and sheds add up, the final limit is their mean.
class AdmissionWindow {
 public:
  void begin(std::vector<const gae::AdmissionController*> controllers) {
    controllers_ = std::move(controllers);
    before_.clear();
    for (const auto* c : controllers_) before_.push_back(c->snapshot());
  }

  void layer_metrics(const LayerInputs& in, MetricMap& out) const {
    double clamps = 0.0, shed = 0.0, admitted = 0.0, limits = 0.0;
    for (std::size_t i = 0; i < controllers_.size(); ++i) {
      const auto after = controllers_[i]->snapshot();
      const auto& before = before_[i];
      clamps += static_cast<double>(after.clamps - before.clamps);
      shed += static_cast<double>(after.queue_shed - before.queue_shed);
      for (std::size_t t = 0; t < after.shed.size(); ++t) {
        shed += static_cast<double>(after.shed[t] - before.shed[t]);
      }
      admitted += static_cast<double>(after.admitted - before.admitted);
      limits += static_cast<double>(after.limit);
    }
    out["admission.clamps_per_s"] = ratio(clamps, in.seconds);
    out["admission.limit.final"] = ratio(limits, static_cast<double>(controllers_.size()));
    out["admission.shed_share"] = ratio(shed, admitted + shed);
    out["admission.brownout_share"] = in.brownout_share;
  }

 private:
  std::vector<const gae::AdmissionController*> controllers_;
  std::vector<gae::AdmissionController::Snapshot> before_;
};

/// The jobmon read-path metrics: read cache, brownout snapshot and the
/// internal jobmon.info span.
void jobmon_layer_metrics(const LayerInputs& in, const CounterWindow& server, MetricMap& out) {
  const double hits = server.delta("jobmon.cache.hits");
  const double misses = server.delta("jobmon.cache.misses");
  out["jobmon.cache.hit_ratio"] = ratio(hits, hits + misses);
  out["jobmon.cache.invalidations_per_op"] =
      ratio(server.delta("jobmon.cache.invalidations"), static_cast<double>(in.attempted));
  out["jobmon.snapshot_copies_per_s"] = ratio(server.delta("jobmon.brownout_cached"), in.seconds);
  const auto handler = in.spans->durations("internal", "jobmon", "info");
  out["jobmon.handler_us.p50"] = percentile(handler, 50.0);
  out["jobmon.handler_us.p99"] = percentile(handler, 99.0);
}

/// Zipf(s) sampler over ranks 0..n-1.
class Zipf {
 public:
  Zipf(std::size_t n, double s) : cdf_(n) {
    double total = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      total += 1.0 / std::pow(static_cast<double>(i + 1), s);
      cdf_[i] = total;
    }
    for (auto& c : cdf_) c /= total;
  }
  std::size_t draw(gae::Rng& rng) const {
    const double u = rng.uniform(0.0, 1.0);
    return static_cast<std::size_t>(std::lower_bound(cdf_.begin(), cdf_.end(), u) -
                                    cdf_.begin()) %
           cdf_.size();
  }

 private:
  std::vector<double> cdf_;
};

/// The execution grid of dst::Cluster: four sites, background load at CERN,
/// one execution service, runtime estimator and history recorder per site,
/// and the sphinx scheduler over them.
struct Grid {
  gae::sim::Simulation sim;
  gae::sim::Grid grid;
  gae::monalisa::Repository monitoring;
  std::map<std::string, std::unique_ptr<gae::exec::ExecutionService>> execs;
  std::map<std::string, std::shared_ptr<gae::estimators::RuntimeEstimator>> runtime_est;
  /// Per-site application populations behind the generated histories.
  std::map<std::string, gae::workload::ApplicationPopulation> populations;
  std::vector<std::unique_ptr<gae::estimators::SiteRuntimeRecorder>> recorders;
  std::shared_ptr<gae::estimators::EstimateDatabase> estimate_db =
      std::make_shared<gae::estimators::EstimateDatabase>();
  std::unique_ptr<gae::sphinx::SphinxScheduler> scheduler;

  /// `history_records` per site come from workload::generate_trace; 0 keeps
  /// dst::Cluster's five-record seed history.
  Grid(std::size_t history_records, gae::Rng& rng) {
    grid.add_site("cern").add_node("cern-0", 1.0, std::make_shared<gae::sim::ConstantLoad>(0.85));
    grid.site("cern").add_node("cern-1", 1.0, std::make_shared<gae::sim::ConstantLoad>(0.85));
    grid.add_site("caltech").add_node("ct-0", 1.0, nullptr);
    grid.add_site("nust").add_node("nu-0", 0.8, nullptr);
    grid.set_default_link({100e6, gae::from_millis(30)});

    for (const auto& name : grid.site_names()) {
      execs[name] = std::make_unique<gae::exec::ExecutionService>(sim, grid, name);
      auto history = std::make_shared<gae::estimators::TaskHistoryStore>();
      if (history_records > 0) {
        gae::Rng site_rng = rng.fork("history/" + name);
        const auto& population = populations[name] =
            gae::workload::ApplicationPopulation::make(site_rng, {});
        gae::workload::TraceOptions topts;
        topts.num_records = history_records;
        for (const auto& rec : gae::workload::generate_trace(population, site_rng, topts)) {
          history->add({gae::workload::record_attributes(rec), rec.runtime_seconds(),
                        rec.complete_time, rec.successful});
        }
      }
      runtime_est[name] = std::make_shared<gae::estimators::RuntimeEstimator>(history);
      recorders.push_back(std::make_unique<gae::estimators::SiteRuntimeRecorder>(
          *execs[name], runtime_est[name]));
    }
    scheduler = std::make_unique<gae::sphinx::SphinxScheduler>(sim, grid, &monitoring,
                                                               estimate_db);
    for (const auto& name : grid.site_names()) {
      scheduler->add_site(name, {execs[name].get(), runtime_est[name]});
    }
    if (history_records == 0) {
      for (auto& [name, est] : runtime_est) {
        (void)name;
        for (int i = 0; i < 5; ++i) est->record(task_attributes(), 20.0, 0);
      }
    }
  }

  ~Grid() {
    // Subscribers of the execution services go first.
    scheduler.reset();
    recorders.clear();
  }

  Grid(const Grid&) = delete;
  Grid& operator=(const Grid&) = delete;

  static std::map<std::string, std::string> task_attributes() {
    return {{"executable", "reco"}, {"login", "alice"}, {"queue", "q"}, {"nodes", "1"}};
  }

  /// Places `count` single-task jobs through sphinx, owned by alice and
  /// long enough that none finishes while the benchmark runs. Returns ids.
  std::vector<std::string> place_tasks(std::size_t count, gae::Rng& rng) {
    std::vector<std::string> ids;
    for (std::size_t i = 0; i < count; ++i) {
      gae::exec::TaskSpec spec;
      spec.id = "t" + std::to_string(i);
      spec.owner = "alice";
      spec.work_seconds = rng.uniform(1e6, 2e6);
      spec.attributes = task_attributes();
      gae::sphinx::JobDescription job;
      job.id = "job-" + spec.id;
      job.owner = "alice";
      job.tasks.push_back({spec, {}});
      auto plan = scheduler->submit(job);
      if (!plan.is_ok()) throw std::runtime_error("placement failed: " + plan.status().to_string());
      ids.push_back(spec.id);
    }
    // Let staging finish, short of the steering optimizer's first pass, so
    // the grid holds running, staging and queued tasks.
    sim.run_until(sim.now() + gae::from_seconds(5));
    return ids;
  }
};

// -- jobmon_poll --------------------------------------------------------------

class JobmonPollWorld final : public World {
 public:
  static constexpr std::size_t kTasks = 1000;
  static constexpr double kZipfS = 1.0;
  static constexpr std::size_t kKeysPerClient = 1u << 16;

  JobmonPollWorld(std::uint64_t seed, telemetry::Tracer* tracer)
      : tracer_(tracer),
        rng_(gae::Rng(seed).fork("jobmon_poll")),
        grid_(0, rng_),
        jms_(grid_.sim.clock(), &grid_.monitoring, grid_.estimate_db),
        admission_(wall_),
        cache_(cache_options(&metrics_)),
        host_("jobmon-a", wall_, host_options(false, &metrics_, tracer, &admission_)),
        client_counters_(&clients_metrics_),
        server_counters_(&metrics_) {
    for (const auto& name : grid_.grid.site_names()) jms_.attach_site(name, grid_.execs[name].get());
    task_ids_ = grid_.place_tasks(kTasks, rng_);
    gae::jobmon::register_jobmon_methods(host_, jms_, tracer, &metrics_, &admission_,
                                         /*staleness_ms=*/2000, &cache_);
    port_ = serve_or_throw(host_);

    // Seeded, skewed keys: Zipf ranks mapped through a seeded permutation.
    std::vector<std::size_t> perm(task_ids_.size());
    std::iota(perm.begin(), perm.end(), 0);
    std::shuffle(perm.begin(), perm.end(), rng_.engine());
    const Zipf zipf(task_ids_.size(), kZipfS);
    keys_.resize(kLoadClients);
    for (auto& keys : keys_) {
      keys.reserve(kKeysPerClient);
      for (std::size_t i = 0; i < kKeysPerClient; ++i) keys.push_back(perm[zipf.draw(rng_)]);
    }
  }

  ~JobmonPollWorld() override { host_.stop(); }

  std::size_t client_count() const override { return kLoadClients; }
  gae::rpc::Protocol protocol() const override { return gae::rpc::Protocol::kXmlRpc; }

  std::unique_ptr<Client> make_client(std::size_t index, bool record) override {
    return std::make_unique<PollClient>(*this, index, record);
  }

  std::int64_t queue_depth() const override { return queue_depth_gauge_->value(); }
  double brownout_fraction() const override { return admission_.browned_out() ? 1.0 : 0.0; }

  void begin_window() override {
    client_counters_.begin();
    server_counters_.begin();
    admission_window_.begin({&admission_});
  }

  void layer_metrics(const LayerInputs& in, telemetry::Tracer* tracer,
                     MetricMap& out) override {
    client_counters_.end();
    server_counters_.end();
    rpc_layer_metrics(in, client_counters_, host_.name(), out);
    admission_window_.layer_metrics(in, out);
    jobmon_layer_metrics(in, server_counters_, out);
    const auto& keys = keys_.front();
    out["jobmon.info_direct_us"] =
        time_direct(tracer, "direct.jobmon.info", 512, [&](std::size_t i) {
          auto r = jms_.info(task_ids_[keys[i % keys.size()]]);
          if (!r.is_ok()) throw std::runtime_error("direct jobmon.info failed");
        });
  }

 private:
  class PollClient final : public Client {
   public:
    PollClient(JobmonPollWorld& world, std::size_t index, bool record)
        : world_(world),
          keys_(world.keys_[index]),
          record_(record),
          next_(index * 7919),
          rpc_(dial(world.port_, gae::rpc::Protocol::kXmlRpc,
                    client_options(&world.clients_metrics_, world.tracer_))) {}

    StatusCode step() override {
      const std::string& id = world_.task_ids_[keys_[next_++ % keys_.size()]];
      OpSpan span(world_.tracer_, "jobmon.info");
      Array params{Value(id)};
      auto r = rpc_->call("jobmon.info", params);
      if (!r.is_ok()) {
        span.set_status(r.status().code());
        return r.status().code();
      }
      world_.tally_.record(check_jobmon_info(r.value(), id));
      remember(record_, "jobmon.info", params, r.value());
      return StatusCode::kOk;
    }

   private:
    JobmonPollWorld& world_;
    const std::vector<std::size_t>& keys_;
    bool record_;
    std::size_t next_;
    std::unique_ptr<gae::rpc::RpcClient> rpc_;
  };

  telemetry::Tracer* tracer_;
  gae::Rng rng_;
  gae::WallClock wall_;
  telemetry::MetricsRegistry metrics_;
  Grid grid_;
  gae::jobmon::JobMonitoringService jms_;
  gae::AdmissionController admission_;
  gae::jobmon::ReadCache cache_;
  gae::clarens::ClarensHost host_;
  telemetry::MetricsRegistry clients_metrics_;
  CounterWindow client_counters_;
  CounterWindow server_counters_;
  AdmissionWindow admission_window_;
  telemetry::Gauge* queue_depth_gauge_ = &metrics_.gauge("rpc.server.queue_depth");
  std::uint16_t port_ = 0;
  std::vector<std::string> task_ids_;
  std::vector<std::vector<std::size_t>> keys_;
};

// -- estimate_query -----------------------------------------------------------

class EstimateQueryWorld final : public World {
 public:
  static constexpr std::size_t kHistoryRecords = 4096;
  static constexpr std::size_t kQueries = 512;
  static constexpr std::size_t kQueuedTasksPerSite = 48;

  EstimateQueryWorld(std::uint64_t seed, telemetry::Tracer* tracer)
      : tracer_(tracer),
        rng_(gae::Rng(seed).fork("estimate_query")),
        grid_(kHistoryRecords, rng_),
        service_(grid_.estimate_db,
                 std::make_unique<gae::estimators::FileTransferEstimator>(grid_.grid),
                 gae::estimators::QueueTimeOptions{}),
        host_("estimator-1", wall_, host_options(false, &metrics_, tracer)),
        client_counters_(&clients_metrics_) {
    const auto sites = grid_.grid.site_names();
    for (const auto& name : sites) {
      service_.add_site(name, grid_.runtime_est[name], grid_.execs[name].get());
    }
    gae::estimators::register_estimator_methods(host_, service_, tracer, &metrics_);
    port_ = serve_or_throw(host_);

    // Queued work for queueTime: submitted straight to each site, with a
    // recorded estimate, and never advanced (the grid's clock stands still).
    std::map<std::string, std::vector<std::string>> queued;
    for (const auto& site : sites) {
      for (std::size_t i = 0; i < kQueuedTasksPerSite; ++i) {
        gae::exec::TaskSpec spec;
        spec.id = site + "-q" + std::to_string(i);
        spec.owner = "alice";
        spec.work_seconds = 1e6;
        spec.priority = static_cast<int>(rng_.uniform_int(0, 3));
        grid_.estimate_db->put(spec.id, rng_.uniform(60.0, 3600.0));
        if (!grid_.execs[site]->submit(spec).is_ok()) {
          throw std::runtime_error("queue task submit failed");
        }
        queued[site].push_back(spec.id);
      }
    }

    // Probe tasks from each site's own application population, drawn apart
    // from the history, with the in-process answer each must match.
    std::map<std::string, std::vector<std::map<std::string, std::string>>> probes;
    for (const auto& site : sites) {
      gae::Rng probe_rng = rng_.fork("probes/" + site);
      gae::workload::TraceOptions topts;
      topts.num_records = kQueries;
      for (const auto& rec :
           gae::workload::generate_trace(grid_.populations.at(site), probe_rng, topts)) {
        probes[site].push_back(gae::workload::record_attributes(rec));
      }
    }
    // One query scores one site for one task, as SphinxScheduler::score_site
    // does: a runtime estimate and a queue-wait estimate, one of each.
    while (queries_.size() < kQueries) {
      const std::string& site = rng_.pick(sites);
      Query q;
      q.site = site;
      q.attributes = rng_.pick(probes[site]);
      q.task_id = rng_.pick(queued[site]);
      auto runtime = service_.runtime(site, q.attributes);
      auto queue = service_.queue_time(site, q.task_id);
      if (!runtime.is_ok() || !queue.is_ok()) continue;  // only answerable queries
      q.expected_runtime = runtime.value().seconds;
      q.expected_queue = queue.value().seconds;
      q.expected_ahead = static_cast<std::int64_t>(queue.value().tasks_ahead);
      Struct attrs;
      for (const auto& [k, v] : q.attributes) attrs[k] = Value(v);
      q.runtime_params = Array{Value(site), Value(std::move(attrs))};
      q.queue_params = Array{Value(site), Value(q.task_id)};
      queries_.push_back(std::move(q));
    }
  }

  ~EstimateQueryWorld() override { host_.stop(); }

  std::size_t client_count() const override { return kLoadClients; }
  gae::rpc::Protocol protocol() const override { return gae::rpc::Protocol::kJsonRpc; }

  std::unique_ptr<Client> make_client(std::size_t index, bool record) override {
    return std::make_unique<QueryClient>(*this, index, record);
  }

  std::int64_t queue_depth() const override { return queue_depth_gauge_->value(); }

  void begin_window() override { client_counters_.begin(); }

  void layer_metrics(const LayerInputs& in, telemetry::Tracer* tracer,
                     MetricMap& out) override {
    client_counters_.end();
    rpc_layer_metrics(in, client_counters_, host_.name(), out);
    const auto handler = in.spans->durations("internal", "estimator", "runtime");
    out["estimator.handler_us.p50"] = percentile(handler, 50.0);
    out["estimator.handler_us.p99"] = percentile(handler, 99.0);
    out["estimator.degraded_share"] =
        ratio(static_cast<double>(tally_.flagged()), static_cast<double>(in.attempted));
    out["estimator.runtime_direct_us"] =
        time_direct(tracer, "direct.estimator.runtime", 256, [&](std::size_t i) {
          const Query& q = queries_[i % queries_.size()];
          if (!service_.runtime(q.site, q.attributes).is_ok()) {
            throw std::runtime_error("direct estimator.runtime failed");
          }
        });
    out["estimator.queue_time_direct_us"] =
        time_direct(tracer, "direct.estimator.queueTime", 256, [&](std::size_t i) {
          const Query& q = queries_[i % queries_.size()];
          if (!service_.queue_time(q.site, q.task_id).is_ok()) {
            throw std::runtime_error("direct estimator.queueTime failed");
          }
        });
  }

 private:
  struct Query {
    std::string site;
    std::map<std::string, std::string> attributes;  // of the task to estimate
    std::string task_id;                            // a task queued at the site
    Array runtime_params;
    Array queue_params;
    double expected_runtime = 0.0;
    double expected_queue = 0.0;
    std::int64_t expected_ahead = 0;
  };

  class QueryClient final : public Client {
   public:
    QueryClient(EstimateQueryWorld& world, std::size_t index, bool record)
        : world_(world),
          record_(record),
          next_(index * world.queries_.size() / kLoadClients),
          rpc_(dial(world.port_, gae::rpc::Protocol::kJsonRpc,
                    client_options(&world.clients_metrics_, world.tracer_))) {}

    /// One site score: estimator.runtime, then estimator.queueTime.
    StatusCode step() override {
      const Query& q = world_.queries_[next_++ % world_.queries_.size()];
      OpSpan span(world_.tracer_, "estimator.score");
      auto runtime = rpc_->call("estimator.runtime", q.runtime_params);
      if (!runtime.is_ok()) {
        span.set_status(runtime.status().code());
        return runtime.status().code();
      }
      world_.tally_.record(check_runtime_estimate(runtime.value(), q.expected_runtime));
      remember(record_, "estimator.runtime", q.runtime_params, runtime.value());
      auto queue = rpc_->call("estimator.queueTime", q.queue_params);
      if (!queue.is_ok()) {
        span.set_status(queue.status().code());
        return queue.status().code();
      }
      world_.tally_.record(check_queue_estimate(queue.value(), q.expected_queue, q.expected_ahead));
      remember(record_, "estimator.queueTime", q.queue_params, queue.value());
      return StatusCode::kOk;
    }

   private:
    EstimateQueryWorld& world_;
    bool record_;
    std::size_t next_;
    std::unique_ptr<gae::rpc::RpcClient> rpc_;
  };

  telemetry::Tracer* tracer_;
  gae::Rng rng_;
  gae::WallClock wall_;
  telemetry::MetricsRegistry metrics_;
  Grid grid_;
  gae::estimators::EstimatorService service_;
  gae::clarens::ClarensHost host_;
  telemetry::MetricsRegistry clients_metrics_;
  CounterWindow client_counters_;
  telemetry::Gauge* queue_depth_gauge_ = &metrics_.gauge("rpc.server.queue_depth");
  std::uint16_t port_ = 0;
  std::vector<Query> queries_;
};

// -- steer_rw -----------------------------------------------------------------

/// One steer_rw deployment: a host serving steering.* and jobmon.* to one
/// authenticated connection (SteeringService, ExecutionService and
/// JobMonitoringService hold no locks, so one connection is what a host
/// can take), its own grid, and an ha standby its jobmon Wal ships to.
class SteerShard {
 public:
  static constexpr std::size_t kTasks = 64;
  static constexpr std::size_t kRounds = 16;  // seeded task orders before the cycle repeats
  static constexpr const char* kUser = "alice";
  static constexpr const char* kSecret = "alice-secret";

  /// `metrics` is shared by the shards' primaries (counters add up),
  /// `standby_metrics` by their standbys.
  SteerShard(gae::Rng rng, telemetry::Tracer* tracer, telemetry::MetricsRegistry& metrics,
             telemetry::MetricsRegistry& standby_metrics)
      : tracer_(tracer),
        rng_(std::move(rng)),
        grid_(0, rng_),
        replica_b_("jobmon", &store_b_),
        host_b_("jobmon-b", wall_, host_options(false, &standby_metrics, tracer)),
        wal_j_(&store_j_),
        journal_(&wal_j_),
        admission_(wall_),
        cache_(cache_options(&metrics)),
        // Auth on: the shard's host serves one connection, so the session
        // map is never raced.
        host_("jobmon-a", wall_, host_options(true, &metrics, tracer, &admission_)) {
    // Standby: the ha.* apply plane on its own host.
    standbys_.add(&replica_b_);
    gae::ha::register_ha_methods(host_b_, standbys_);
    const std::uint16_t standby_port = serve_or_throw(host_b_);

    // Primary jobmon repository on a Wal shipped synchronously to the
    // standby over a second connection, as dst::Cluster wires jobmon-a.
    gae::rpc::ClientOptions ship_opts;
    ship_opts.tracer = tracer;
    ship_opts.default_call.retry =
        gae::RetryPolicy{/*max_attempts=*/2, /*initial_backoff_ms=*/20, /*backoff_multiplier=*/2.0,
                         /*max_backoff_ms=*/100, /*jitter_fraction=*/0.0, /*jitter_seed=*/7};
    ship_client_ = dial(standby_port, gae::rpc::Protocol::kXmlRpc, ship_opts);
    ship_transport_ =
        std::make_unique<gae::ha::RpcShipperTransport>(ship_client_.get(), /*deadline_ms=*/800);
    gae::ha::ShipperOptions shipper_options;
    shipper_options.mode = gae::ha::ReplicationMode::kSync;
    shipper_options.leader_host = "127.0.0.1";
    shipper_options.metrics = &metrics;
    shipper_ = std::make_unique<gae::ha::LogShipper>("jobmon", shipper_options);
    shipper_->add_standby(ship_transport_.get());
    shipper_->set_epoch(1);
    replicated_a_ = std::make_unique<gae::ha::ReplicatedWalStorage>(&store_a_, shipper_.get());
    wal_a_ = std::make_unique<gae::Wal>(replicated_a_.get());
    jms_ = std::make_unique<gae::jobmon::JobMonitoringService>(
        grid_.sim.clock(), &grid_.monitoring, grid_.estimate_db, wal_a_.get());
    for (const auto& name : grid_.grid.site_names()) {
      jms_->attach_site(name, grid_.execs[name].get());
    }

    // Steering with session checks against the host's auth, journaling to
    // a Wal-framed sink.
    gae::steering::SteeringService::Deps deps;
    deps.sim = &grid_.sim;
    deps.scheduler = grid_.scheduler.get();
    deps.jobmon = jms_.get();
    for (const auto& name : grid_.grid.site_names()) deps.services[name] = grid_.execs[name].get();
    deps.monitoring = &grid_.monitoring;
    deps.auth = &host_.auth();
    deps.journal = &journal_;
    gae::steering::SteeringOptions steer_opts;
    steer_opts.auto_steer = true;
    steering_ = std::make_unique<gae::steering::SteeringService>(deps, steer_opts);

    for (const auto& name : grid_.grid.site_names()) {
      auto* exec = grid_.execs[name].get();
      exec_subscriptions_.emplace_back(
          exec, exec->subscribe([this](const gae::exec::TaskEvent&) { transitions_.fetch_add(1); }));
    }

    task_ids_ = grid_.place_tasks(kTasks, rng_);

    if (!host_.auth().register_user(kUser, kSecret).is_ok()) {
      throw std::runtime_error("register_user failed");
    }
    host_.acl().allow(kUser, "steering.");
    host_.acl().allow(kUser, "jobmon.");
    gae::jobmon::register_jobmon_methods(host_, *jms_, tracer, &metrics, &admission_,
                                         /*staleness_ms=*/2000, &cache_);
    gae::steering::register_steering_methods(host_, *steering_, tracer, &metrics);
    port_ = serve_or_throw(host_);

    // Seeded command cycle: each round visits every task in a seeded order
    // with pause -> resume -> priority, so every task ends each visit
    // un-suspended and the cycle can repeat indefinitely.
    const std::string suspended = gae::exec::task_state_name(gae::exec::TaskState::kSuspended);
    for (std::size_t round = 0; round < kRounds; ++round) {
      std::vector<std::size_t> order(task_ids_.size());
      std::iota(order.begin(), order.end(), 0);
      std::shuffle(order.begin(), order.end(), rng_.engine());
      for (std::size_t t : order) {
        const std::string& id = task_ids_[t];
        commands_.push_back({"steering.pause", Array{Value(id)}, {id, suspended, "", -1}});
        commands_.push_back({"steering.resume", Array{Value(id)}, {id, "", suspended, -1}});
        const std::int64_t priority = rng_.uniform_int(1, 9);
        commands_.push_back(
            {"steering.priority", Array{Value(id), Value(priority)}, {id, "", "", priority}});
      }
    }
  }

  ~SteerShard() {
    host_.stop();
    host_b_.stop();
    for (auto& [exec, token] : exec_subscriptions_) exec->unsubscribe(token);
    steering_.reset();
    jms_.reset();
  }

  SteerShard(const SteerShard&) = delete;
  SteerShard& operator=(const SteerShard&) = delete;

  std::unique_ptr<Client> make_client(CheckTally& tally, telemetry::MetricsRegistry* metrics,
                                      bool record) {
    return std::make_unique<SteerClient>(*this, tally, metrics, record);
  }

  /// Checks every task's in-process state against the last pause/resume
  /// and the last priority the client sent for it. Tasks with a failed
  /// command are skipped: whether it took effect is unknown.
  void check_quiescent(CheckTally& tally) const {
    std::map<std::string, SteerExpectation> expect;
    const std::size_t n = commands_.size();
    for (std::size_t back = 0; back < std::min(sent_, n); ++back) {
      const SteerExpectation& e = commands_[(sent_ - 1 - back) % n].expect;
      SteerExpectation& x = expect.try_emplace(e.task_id, SteerExpectation{e.task_id, "", "", -1})
                                .first->second;
      const bool state_known = !x.status.empty() || !x.forbidden_status.empty();
      if (!state_known && (!e.status.empty() || !e.forbidden_status.empty())) {
        x.status = e.status;
        x.forbidden_status = e.forbidden_status;
      }
      if (x.priority < 0) x.priority = e.priority;
    }
    for (const auto& [id, e] : expect) {
      if (unsure_.count(id)) continue;
      auto report = jms_->info(id);
      if (!report.is_ok()) {
        tally.record({Verdict::kWrong, "in-process jobmon info(" + id + ") failed"});
        continue;
      }
      Struct state;
      state["task_id"] = Value(report.value().info.spec.id);
      state["status"] = Value(gae::exec::task_state_name(report.value().info.state));
      state["priority"] = Value(static_cast<std::int64_t>(report.value().info.spec.priority));
      tally.record(check_steer_read(Value(std::move(state)), e));
    }
  }

  const gae::AdmissionController& admission() const { return admission_; }
  std::uint64_t transitions() const { return transitions_.load(); }
  std::size_t wal_bytes() const { return store_a_.bytes().size() + store_j_.bytes().size(); }
  const std::vector<std::string>& task_ids() const { return task_ids_; }
  gae::jobmon::JobMonitoringService& jobmon() { return *jms_; }

 private:
  struct Command {
    const char* method;
    Array params;
    SteerExpectation expect;
  };

  /// The shard's one connection: each operation is a steering command
  /// followed by a jobmon.info on the same task that confirms it.
  class SteerClient final : public Client {
   public:
    SteerClient(SteerShard& shard, CheckTally& tally, telemetry::MetricsRegistry* metrics,
                bool record)
        : shard_(shard),
          tally_(tally),
          record_(record),
          rpc_(dial(shard.port_, gae::rpc::Protocol::kXmlRpc,
                    client_options(metrics, shard.tracer_))) {
      auto token = rpc_->call("system.login", {Value(kUser), Value(kSecret)});
      if (!token.is_ok()) throw std::runtime_error("login failed: " + token.status().to_string());
      rpc_->set_session_token(token.value().as_string());
      // Commands change state: a retry could apply one twice.
      command_call_ = client_options(nullptr, nullptr).default_call;
      command_call_.idempotent = false;
      command_call_.tier = gae::Criticality::kControl;
    }

    StatusCode step() override {
      const Command& c = shard_.commands_[shard_.sent_++ % shard_.commands_.size()];
      OpSpan span(shard_.tracer_, c.method);
      auto r = rpc_->call(c.method, c.params, command_call_);
      if (!r.is_ok()) {
        shard_.unsure_.insert(c.expect.task_id);
        span.set_status(r.status().code());
        return r.status().code();
      }
      if (!r.value().is_bool() || !r.value().as_bool()) {
        tally_.record({Verdict::kWrong, std::string(c.method) + " did not answer true"});
      }
      remember(record_, c.method, c.params, r.value());
      Array read_params{Value(c.expect.task_id)};
      auto read = rpc_->call("jobmon.info", read_params);
      if (!read.is_ok()) {
        span.set_status(read.status().code());
        return read.status().code();
      }
      tally_.record(check_steer_read(read.value(), c.expect));
      remember(record_, "jobmon.info", read_params, read.value());
      return StatusCode::kOk;
    }

   private:
    SteerShard& shard_;
    CheckTally& tally_;
    bool record_;
    gae::rpc::CallOptions command_call_;
    std::unique_ptr<gae::rpc::RpcClient> rpc_;
  };

  telemetry::Tracer* tracer_;
  gae::Rng rng_;
  gae::WallClock wall_;
  Grid grid_;

  gae::MemoryWalStorage store_b_;
  gae::ha::StandbyReplica replica_b_;
  gae::ha::StandbySet standbys_;
  gae::clarens::ClarensHost host_b_;

  gae::MemoryWalStorage store_a_;
  std::unique_ptr<gae::rpc::RpcClient> ship_client_;
  std::unique_ptr<gae::ha::RpcShipperTransport> ship_transport_;
  std::unique_ptr<gae::ha::LogShipper> shipper_;
  std::unique_ptr<gae::ha::ReplicatedWalStorage> replicated_a_;
  std::unique_ptr<gae::Wal> wal_a_;
  std::unique_ptr<gae::jobmon::JobMonitoringService> jms_;

  gae::MemoryWalStorage store_j_;
  gae::Wal wal_j_;
  gae::steering::WalJournalSink journal_;

  gae::AdmissionController admission_;
  gae::jobmon::ReadCache cache_;
  gae::clarens::ClarensHost host_;
  std::unique_ptr<gae::steering::SteeringService> steering_;

  std::vector<std::pair<gae::exec::ExecutionService*, int>> exec_subscriptions_;
  std::atomic<std::uint64_t> transitions_{0};

  std::uint16_t port_ = 0;
  std::vector<std::string> task_ids_;
  std::vector<Command> commands_;
  // Written by the shard's one client, read by check_quiescent() once the
  // client is idle.
  std::size_t sent_ = 0;             // commands sent so far
  std::set<std::string> unsure_;     // tasks with a failed command
};

/// steer_rw: four independent SteerShards, one closed-loop client each.
/// A single chain leaves three of four CPUs idle, and its figures then
/// swing with every idle-CPU wake-up; four shards keep the host's CPUs
/// busy while each host still serves exactly one connection.
class SteerRwWorld final : public World {
 public:
  static constexpr std::size_t kShards = kLoadClients;

  SteerRwWorld(std::uint64_t seed, telemetry::Tracer* tracer)
      : client_counters_(&clients_metrics_),
        server_counters_(&metrics_),
        standby_counters_(&standby_metrics_) {
    const gae::Rng root = gae::Rng(seed).fork("steer_rw");
    for (std::size_t i = 0; i < kShards; ++i) {
      shards_.push_back(std::make_unique<SteerShard>(root.fork("shard" + std::to_string(i)),
                                                     tracer, metrics_, standby_metrics_));
    }
  }

  std::size_t client_count() const override { return kShards; }
  gae::rpc::Protocol protocol() const override { return gae::rpc::Protocol::kXmlRpc; }

  std::unique_ptr<Client> make_client(std::size_t index, bool record) override {
    return shards_[index]->make_client(tally_, &clients_metrics_, record);
  }

  std::int64_t queue_depth() const override { return queue_depth_gauge_->value(); }
  void check_quiescent() override {
    for (const auto& shard : shards_) shard->check_quiescent(tally_);
  }
  double brownout_fraction() const override {
    double browned = 0.0;
    for (const auto& shard : shards_) browned += shard->admission().browned_out() ? 1.0 : 0.0;
    return browned / static_cast<double>(shards_.size());
  }

  void begin_window() override {
    client_counters_.begin();
    server_counters_.begin();
    standby_counters_.begin();
    std::vector<const gae::AdmissionController*> controllers;
    for (const auto& shard : shards_) controllers.push_back(&shard->admission());
    admission_window_.begin(std::move(controllers));
    transitions_before_ = transitions();
    wal_bytes_before_ = wal_bytes();
    stale_before_ = tally_.flagged();
  }

  void layer_metrics(const LayerInputs& in, telemetry::Tracer* tracer,
                     MetricMap& out) override {
    client_counters_.end();
    server_counters_.end();
    standby_counters_.end();
    const double commands = static_cast<double>(in.attempted);
    rpc_layer_metrics(in, client_counters_, "jobmon-a", out);
    admission_window_.layer_metrics(in, out);
    jobmon_layer_metrics(in, server_counters_, out);
    out["jobmon.stale_after_write_share"] =
        ratio(static_cast<double>(tally_.flagged() - stale_before_), commands);

    std::vector<double> steer_all;
    for (const char* kind : {"pause", "resume", "priority"}) {
      auto d = in.spans->durations("internal", "steering", kind);
      out[std::string("steering.") + kind + "_us.p50"] = percentile(d, 50.0);
      steer_all.insert(steer_all.end(), d.begin(), d.end());
    }
    out["steering.handler_us.p50"] = percentile(steer_all, 50.0);
    out["steering.handler_us.p99"] = percentile(steer_all, 99.0);

    out["exec.transitions_per_cmd"] =
        ratio(static_cast<double>(transitions() - transitions_before_), commands);
    const auto append = standby_counters_.histogram("rpc.server.ha.append.latency_us");
    out["ha.append_us.p50"] = append.percentile(50.0);
    out["ha.append_us.p99"] = append.percentile(99.0);
    out["ha.batches_per_cmd"] =
        ratio(server_counters_.delta("ha.jobmon.batches_shipped"), commands);
    out["wal.bytes_per_cmd"] =
        ratio(static_cast<double>(wal_bytes() - wal_bytes_before_), commands);

    SteerShard& shard = *shards_.front();
    out["jobmon.info_direct_us"] =
        time_direct(tracer, "direct.jobmon.info", 512, [&](std::size_t i) {
          if (!shard.jobmon().info(shard.task_ids()[i % shard.task_ids().size()]).is_ok()) {
            throw std::runtime_error("direct jobmon.info failed");
          }
        });
  }

 private:
  std::uint64_t transitions() const {
    std::uint64_t total = 0;
    for (const auto& shard : shards_) total += shard->transitions();
    return total;
  }
  std::size_t wal_bytes() const {
    std::size_t total = 0;
    for (const auto& shard : shards_) total += shard->wal_bytes();
    return total;
  }

  telemetry::MetricsRegistry metrics_;
  telemetry::MetricsRegistry standby_metrics_;
  telemetry::MetricsRegistry clients_metrics_;
  std::vector<std::unique_ptr<SteerShard>> shards_;
  CounterWindow client_counters_;
  CounterWindow server_counters_;
  CounterWindow standby_counters_;
  AdmissionWindow admission_window_;
  telemetry::Gauge* queue_depth_gauge_ = &metrics_.gauge("rpc.server.queue_depth");
  std::uint64_t transitions_before_ = 0;
  std::size_t wal_bytes_before_ = 0;
  std::uint64_t stale_before_ = 0;
};

}  // namespace

std::unique_ptr<World> make_world(const std::string& workload, std::uint64_t seed,
                                  telemetry::Tracer* tracer) {
  if (workload == "jobmon_poll") return std::make_unique<JobmonPollWorld>(seed, tracer);
  if (workload == "estimate_query") return std::make_unique<EstimateQueryWorld>(seed, tracer);
  if (workload == "steer_rw") return std::make_unique<SteerRwWorld>(seed, tracer);
  return nullptr;
}

}  // namespace gaebench
