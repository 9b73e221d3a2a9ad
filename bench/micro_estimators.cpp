// E8 micro-benchmarks: estimator core costs (similarity search, statistical
// estimate, the brownout fallback, history appends) as history grows, the
// queue-wait estimate over a site's queue, and what keeping that queue's
// positions current costs its writes.
#include <benchmark/benchmark.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "estimators/queue_time_estimator.h"
#include "estimators/runtime_estimator.h"
#include "exec/execution_service.h"
#include "sim/engine.h"
#include "sim/grid.h"
#include "workload/paragon_trace.h"
#include "workload/task_generator.h"

namespace {

using namespace gae;

/// A history of `n` records and 64 probe tasks from the same application
/// population but drawn apart from the history, as the scheduler's tasks are.
struct Fixture {
  std::shared_ptr<estimators::TaskHistoryStore> store;
  std::vector<std::map<std::string, std::string>> probes;
};

Fixture make_fixture(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  auto population = workload::ApplicationPopulation::make(rng, {});
  workload::TraceOptions topts;
  topts.num_records = n;
  Fixture f;
  f.store = std::make_shared<estimators::TaskHistoryStore>();
  for (const auto& rec : workload::generate_trace(population, rng, topts)) {
    f.store->add({workload::record_attributes(rec), rec.runtime_seconds(),
                  rec.complete_time, rec.successful});
  }
  Rng probe_rng = rng.fork("probes");
  topts.num_records = 64;
  for (const auto& rec : workload::generate_trace(population, probe_rng, topts)) {
    f.probes.push_back(workload::record_attributes(rec));
  }
  return f;
}

// Probe: the newest task already in the history.
void BM_Estimate(benchmark::State& state) {
  const Fixture f = make_fixture(static_cast<std::size_t>(state.range(0)), 7);
  estimators::RuntimeEstimator estimator(f.store);
  const auto& probe = f.store->entries().back().attributes;
  for (auto _ : state) {
    benchmark::DoNotOptimize(estimator.estimate(probe));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_Estimate)->Range(64, 8192)->Complexity(benchmark::oN);

// Probes drawn apart from the history, cycled.
void BM_EstimateDrawnApart(benchmark::State& state) {
  const Fixture f = make_fixture(static_cast<std::size_t>(state.range(0)), 7);
  estimators::RuntimeEstimator estimator(f.store);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(estimator.estimate(f.probes[i++ % f.probes.size()]));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_EstimateDrawnApart)->Range(64, 8192)->Complexity(benchmark::oN);

// The brownout fallback: the mean over every successful entry.
void BM_EstimateCheap(benchmark::State& state) {
  const Fixture f = make_fixture(static_cast<std::size_t>(state.range(0)), 7);
  estimators::RuntimeEstimator estimator(f.store);
  for (auto _ : state) {
    benchmark::DoNotOptimize(estimator.estimate_cheap());
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_EstimateCheap)->Range(64, 8192)->Complexity(benchmark::oN);

// Similarity search alone (drawn-apart probes, min_matches 3), reading the
// member lists of the groups an estimator registered with the store.
void BM_FindSimilar(benchmark::State& state) {
  const Fixture f = make_fixture(static_cast<std::size_t>(state.range(0)), 7);
  const estimators::RuntimeEstimator estimator(f.store);
  const estimators::SimilarityMatcher matcher;
  std::size_t i = 0;
  double matches = 0;
  for (auto _ : state) {
    const auto match = matcher.find_similar(*f.store, f.probes[i++ % f.probes.size()], 3);
    matches += static_cast<double>(match.entries.size());
    benchmark::DoNotOptimize(match);
  }
  state.counters["matches"] = benchmark::Counter(matches, benchmark::Counter::kAvgIterations);
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_FindSimilar)->Range(64, 8192)->Complexity(benchmark::oN);

void BM_Record(benchmark::State& state) {
  auto store = std::make_shared<estimators::TaskHistoryStore>(
      static_cast<std::size_t>(state.range(0)));
  estimators::RuntimeEstimator estimator(store);
  const std::map<std::string, std::string> attrs = {
      {"executable", "app1"}, {"login", "u"}, {"queue", "q"}, {"nodes", "8"}};
  for (auto _ : state) {
    estimator.record(attrs, 123.0, 0);
  }
}
BENCHMARK(BM_Record)->Arg(1024);

// One queue-wait estimate at a site holding N queued tasks of priorities
// 0-3, each with a recorded estimate; N = 48 is gaebench's estimate_query.
void BM_QueueTime(benchmark::State& state) {
  const auto kQueued = static_cast<int>(state.range(0));
  sim::Simulation sim;
  sim::Grid grid;
  grid.add_site("s").add_node("n0", 1.0, nullptr);
  exec::ExecutionService service(sim, grid, "s");
  auto db = std::make_shared<estimators::EstimateDatabase>();
  Rng rng(7);
  std::vector<std::string> ids;
  for (int i = 0; i < kQueued; ++i) {
    exec::TaskSpec spec;
    spec.id = "s-q" + std::to_string(i);
    spec.owner = "alice";
    spec.work_seconds = 1e6;
    spec.priority = static_cast<int>(rng.uniform_int(0, 3));
    db->put(spec.id, rng.uniform(60.0, 3600.0));
    if (!service.submit(spec).is_ok()) {
      state.SkipWithError("submit failed");
      return;
    }
    ids.push_back(spec.id);
  }
  const estimators::QueueTimeEstimator estimator(service, db);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(estimator.estimate(ids[i++ % ids.size()]));
  }
}
BENCHMARK(BM_QueueTime)->Arg(48)->Arg(1024);

// Submits N tasks of priorities 0-3 to a one-node site, then runs them all:
// every submit inserts into the queue and every dispatch takes its head, so
// this prices the queue's writes (position upkeep included).
void BM_SubmitAndDrain(benchmark::State& state) {
  const auto tasks = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Simulation sim;
    sim::Grid grid;
    grid.add_site("s").add_node("n0", 1.0, nullptr);
    exec::ExecutionService service(sim, grid, "s");
    Rng rng(7);
    for (int i = 0; i < tasks; ++i) {
      exec::TaskSpec spec;
      spec.id = "s-q" + std::to_string(i);
      spec.owner = "alice";
      spec.work_seconds = 10.0;
      spec.priority = static_cast<int>(rng.uniform_int(0, 3));
      if (!service.submit(spec).is_ok()) {
        state.SkipWithError("submit failed");
        return;
      }
    }
    sim.run();
    if (!service.queued_tasks().empty()) {
      state.SkipWithError("queue not drained");
      return;
    }
  }
  state.SetItemsProcessed(state.iterations() * tasks);
}
BENCHMARK(BM_SubmitAndDrain)->Arg(4096)->Unit(benchmark::kMillisecond);

void BM_TraceGeneration(benchmark::State& state) {
  for (auto _ : state) {
    Rng rng(11);
    auto population = workload::ApplicationPopulation::make(rng, {});
    workload::TraceOptions topts;
    topts.num_records = static_cast<std::size_t>(state.range(0));
    benchmark::DoNotOptimize(workload::generate_trace(population, rng, topts));
  }
}
BENCHMARK(BM_TraceGeneration)->Arg(100)->Arg(1000);

}  // namespace

BENCHMARK_MAIN();
