// E8 micro-benchmarks: estimator core costs (similarity search, statistical
// estimate, the brownout fallback, history appends) as history grows.
#include <benchmark/benchmark.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "estimators/runtime_estimator.h"
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

// Similarity search alone (drawn-apart probes, min_matches 3).
void BM_FindSimilar(benchmark::State& state) {
  const Fixture f = make_fixture(static_cast<std::size_t>(state.range(0)), 7);
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
