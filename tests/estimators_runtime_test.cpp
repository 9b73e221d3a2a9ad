#include "estimators/runtime_estimator.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <bit>
#include <cstdio>
#include <thread>

#include "common/rng.h"
#include "common/stats.h"
#include "common/wal.h"
#include "estimators/estimate_db.h"
#include "estimators/recorder.h"
#include "exec/execution_service.h"
#include "workload/paragon_trace.h"
#include "workload/task_generator.h"

namespace gae::estimators {
namespace {

std::map<std::string, std::string> attrs(const std::string& exe, const std::string& login,
                                         const std::string& queue, int nodes) {
  return {{"executable", exe},
          {"login", login},
          {"queue", queue},
          {"nodes", std::to_string(nodes)}};
}

TEST(TaskHistoryStore, AddAndCap) {
  TaskHistoryStore store(3);
  for (int i = 0; i < 5; ++i) {
    store.add({{}, static_cast<double>(i), 0, true});
  }
  ASSERT_EQ(store.size(), 3u);
  EXPECT_DOUBLE_EQ(store.entries().front().runtime_seconds, 2.0);  // oldest dropped
  store.clear();
  EXPECT_TRUE(store.empty());
}

TEST(SimilarityTemplate, MatchesOnNamedKeys) {
  SimilarityTemplate tmpl{{"executable", "login"}};
  EXPECT_TRUE(tmpl.matches(attrs("a", "u", "q1", 4), attrs("a", "u", "q2", 8)));
  EXPECT_FALSE(tmpl.matches(attrs("a", "u", "q", 4), attrs("a", "v", "q", 4)));
  EXPECT_EQ(tmpl.name(), "executable+login");
  EXPECT_EQ(SimilarityTemplate{}.name(), "(any)");
}

TEST(SimilarityTemplate, MissingAttributeNeverMatches) {
  SimilarityTemplate tmpl{{"executable"}};
  std::map<std::string, std::string> empty;
  EXPECT_FALSE(tmpl.matches(empty, attrs("a", "u", "q", 1)));
}

TEST(SimilarityMatcher, PrefersMostSpecificTemplate) {
  TaskHistoryStore store;
  // 3 entries matching exe+login, plus noise from other users.
  for (int i = 0; i < 3; ++i) store.add({attrs("a", "u", "q", 4), 100, 0, true});
  for (int i = 0; i < 10; ++i) store.add({attrs("a", "other", "q", 4), 500, 0, true});

  SimilarityMatcher matcher;
  auto match = matcher.find_similar(store, attrs("a", "u", "q", 4), 3);
  EXPECT_EQ(match.entries.size(), 3u);
  EXPECT_EQ(match.template_name, "executable+login+queue+nodes");
}

TEST(SimilarityMatcher, FallsBackWhenTooFewMatches) {
  TaskHistoryStore store;
  store.add({attrs("a", "u", "q", 4), 100, 0, true});  // only one exact match
  for (int i = 0; i < 5; ++i) store.add({attrs("a", "v", "q", 8), 200, 0, true});

  SimilarityMatcher matcher;
  auto match = matcher.find_similar(store, attrs("a", "u", "q", 4), 3);
  // Fell through to the "executable" template: all 6 entries share it.
  EXPECT_EQ(match.template_name, "executable");
  EXPECT_EQ(match.entries.size(), 6u);
}

TEST(SimilarityMatcher, UnsuccessfulEntriesExcluded) {
  TaskHistoryStore store;
  store.add({attrs("a", "u", "q", 4), 100, 0, true});
  store.add({attrs("a", "u", "q", 4), 5, 0, false});  // crashed run
  SimilarityMatcher matcher;
  auto match = matcher.find_similar(store, attrs("a", "u", "q", 4), 1);
  EXPECT_EQ(match.entries.size(), 1u);
  EXPECT_DOUBLE_EQ(match.entries[0]->runtime_seconds, 100.0);
}

// When no template reaches min_matches, the first of the templates that
// match the most entries wins.
TEST(SimilarityMatcher, BestEffortTieGoesToTheFirstTemplate) {
  auto store = std::make_shared<TaskHistoryStore>();
  for (int i = 0; i < 2; ++i) store->add({attrs("a", "u", "q", 4), 100.0 + i, 0, true});
  const SimilarityMatcher matcher({SimilarityTemplate{{"login"}}, SimilarityTemplate{{"queue"}}});
  EXPECT_EQ(matcher.find_similar(*store, attrs("a", "u", "q", 4), 5).template_name, "login");
  RuntimeEstimatorOptions opts;
  opts.min_matches = 5;
  const RuntimeEstimator estimator(store, matcher, opts);
  EXPECT_EQ(estimator.estimate(attrs("a", "u", "q", 4)).value().template_name, "login");
}

TEST(SimilarityMatcher, EmptyHistoryYieldsEmptyMatch) {
  TaskHistoryStore store;
  SimilarityMatcher matcher;
  EXPECT_TRUE(matcher.find_similar(store, attrs("a", "u", "q", 1), 1).entries.empty());
}

TEST(RuntimeEstimator, EmptyHistoryIsError) {
  RuntimeEstimator est(std::make_shared<TaskHistoryStore>());
  auto r = est.estimate(attrs("a", "u", "q", 1));
  ASSERT_FALSE(r.is_ok());
  EXPECT_EQ(r.status().code(), StatusCode::kFailedPrecondition);
}

TEST(RuntimeEstimator, MeanEstimate) {
  auto store = std::make_shared<TaskHistoryStore>();
  RuntimeEstimatorOptions opts;
  opts.kind = EstimatorKind::kMean;
  RuntimeEstimator est(store, SimilarityMatcher(), opts);
  est.record(attrs("a", "u", "q", 4), 90, 0);
  est.record(attrs("a", "u", "q", 4), 110, 0);
  est.record(attrs("a", "u", "q", 4), 100, 0);

  auto r = est.estimate(attrs("a", "u", "q", 4));
  ASSERT_TRUE(r.is_ok());
  EXPECT_DOUBLE_EQ(r.value().seconds, 100.0);
  EXPECT_EQ(r.value().samples, 3u);
  EXPECT_EQ(r.value().used, EstimatorKind::kMean);
  EXPECT_GT(r.value().stddev, 0.0);
}

TEST(RuntimeEstimator, LinearRegressionOnNodes) {
  auto store = std::make_shared<TaskHistoryStore>();
  RuntimeEstimatorOptions opts;
  opts.kind = EstimatorKind::kLinearRegression;
  RuntimeEstimator est(store, SimilarityMatcher(), opts);
  // Perfectly linear: runtime = 1000 - 50 * nodes.
  for (int nodes : {2, 4, 8, 16}) {
    est.record(attrs("a", "u", "q", nodes), 1000.0 - 50.0 * nodes, 0);
  }
  auto r = est.estimate(attrs("a", "u", "q", 12));
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(r.value().used, EstimatorKind::kLinearRegression);
  EXPECT_NEAR(r.value().seconds, 400.0, 1e-6);
}

TEST(RuntimeEstimator, RegressionRejectsNonPositivePrediction) {
  auto store = std::make_shared<TaskHistoryStore>();
  RuntimeEstimatorOptions opts;
  opts.kind = EstimatorKind::kLinearRegression;
  RuntimeEstimator est(store, SimilarityMatcher(), opts);
  for (int nodes : {2, 4, 8}) {
    est.record(attrs("a", "u", "q", nodes), 100.0 - 12.0 * nodes, 0);
  }
  // Extrapolating to 16 nodes would be negative: falls back to the mean.
  auto r = est.estimate(attrs("a", "u", "q", 16));
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(r.value().used, EstimatorKind::kMean);
  EXPECT_GT(r.value().seconds, 0.0);
}

TEST(RuntimeEstimator, HybridUsesRegressionOnlyWithGoodFit) {
  RuntimeEstimatorOptions opts;
  opts.kind = EstimatorKind::kHybrid;
  opts.min_r_squared = 0.5;

  {
    // Clean linear trend: hybrid takes the regression.
    RuntimeEstimator est(std::make_shared<TaskHistoryStore>(), SimilarityMatcher(), opts);
    for (int nodes : {1, 2, 3, 4, 5}) {
      est.record(attrs("a", "u", "q", nodes), 100.0 * nodes, 0);
    }
    auto r = est.estimate(attrs("a", "u", "q", 6));
    ASSERT_TRUE(r.is_ok());
    EXPECT_EQ(r.value().used, EstimatorKind::kLinearRegression);
    EXPECT_NEAR(r.value().seconds, 600.0, 1e-6);
  }
  {
    // No relation between nodes and runtime: hybrid stays with the mean.
    RuntimeEstimator est(std::make_shared<TaskHistoryStore>(), SimilarityMatcher(), opts);
    est.record(attrs("a", "u", "q", 1), 500, 0);
    est.record(attrs("a", "u", "q", 8), 480, 0);
    est.record(attrs("a", "u", "q", 2), 520, 0);
    est.record(attrs("a", "u", "q", 6), 510, 0);
    est.record(attrs("a", "u", "q", 3), 490, 0);
    auto r = est.estimate(attrs("a", "u", "q", 4));
    ASSERT_TRUE(r.is_ok());
    EXPECT_EQ(r.value().used, EstimatorKind::kMean);
    EXPECT_NEAR(r.value().seconds, 500.0, 1.0);
  }
}

TEST(RuntimeEstimator, NonNumericRegressionAttributeFallsBack) {
  RuntimeEstimatorOptions opts;
  opts.kind = EstimatorKind::kLinearRegression;
  RuntimeEstimator est(std::make_shared<TaskHistoryStore>(), SimilarityMatcher(), opts);
  std::map<std::string, std::string> a = {{"executable", "x"}, {"nodes", "many"}};
  est.record(a, 10, 0);
  est.record(a, 20, 0);
  est.record(a, 30, 0);
  auto r = est.estimate(a);
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(r.value().used, EstimatorKind::kMean);
  EXPECT_DOUBLE_EQ(r.value().seconds, 20.0);
}

// End-to-end accuracy on a synthetic Paragon trace: the fig. 5 regime.
TEST(RuntimeEstimator, TraceAccuracyInPaperRegime) {
  Rng rng(2005);
  workload::PopulationOptions popts;
  popts.num_applications = 12;
  popts.sigma_within = 0.16;
  auto pop = workload::ApplicationPopulation::make(rng, popts);
  workload::TraceOptions topts;
  topts.num_records = 120;
  topts.failure_rate = 0.0;
  const auto trace = workload::generate_trace(pop, rng, topts);

  auto store = std::make_shared<TaskHistoryStore>();
  RuntimeEstimatorOptions eopts;
  eopts.min_matches = 2;
  RuntimeEstimator est(store, SimilarityMatcher(), eopts);
  for (std::size_t i = 0; i < 100; ++i) {
    est.record(workload::record_attributes(trace[i]), trace[i].runtime_seconds(),
               trace[i].complete_time);
  }

  double total_abs_pct_error = 0;
  for (std::size_t i = 100; i < 120; ++i) {
    auto r = est.estimate(workload::record_attributes(trace[i]));
    ASSERT_TRUE(r.is_ok());
    const double actual = trace[i].runtime_seconds();
    total_abs_pct_error += std::abs(actual - r.value().seconds) / actual * 100.0;
  }
  const double mean_error = total_abs_pct_error / 20.0;
  // Paper reports 13.53%; accept the same order of magnitude.
  EXPECT_LT(mean_error, 40.0);
}

// -- The history index against a brute-force oracle --------------------------

// The linear scan that similarity search did before the store was indexed:
// every successful entry, tested with SimilarityTemplate::matches, oldest
// first, template by template.
SimilarityMatcher::Match scan_similar(const TaskHistoryStore& history,
                                      const std::vector<SimilarityTemplate>& templates,
                                      const std::map<std::string, std::string>& probe,
                                      std::size_t min_matches) {
  SimilarityMatcher::Match best;
  for (const auto& tmpl : templates) {
    std::vector<const HistoryEntry*> matched;
    for (const auto& entry : history.entries()) {
      if (entry.successful && tmpl.matches(probe, entry.attributes)) matched.push_back(&entry);
    }
    if (matched.size() >= min_matches) return {std::move(matched), tmpl.name()};
    if (matched.size() > best.entries.size()) best = {std::move(matched), tmpl.name()};
  }
  return best;
}

// Small vocabularies so that templates collide often; every key may be
// missing, and one run in five fails.
HistoryEntry random_entry(Rng& rng) {
  static const std::vector<std::pair<std::string, int>> kKeys = {
      {"executable", 6}, {"login", 4}, {"queue", 3}, {"partition", 2}};
  HistoryEntry entry;
  for (const auto& [key, values] : kKeys) {
    if (rng.bernoulli(0.85)) {
      entry.attributes[key] = key.substr(0, 1) + std::to_string(rng.uniform_int(0, values - 1));
    }
  }
  // Mostly numeric, so the hybrid estimator's regression on nodes runs too;
  // std::stod rejects "many" and reads only the 8 of "8x".
  if (rng.bernoulli(0.85)) {
    const double form = rng.uniform(0.0, 1.0);
    entry.attributes["nodes"] = form < 0.1    ? "many"
                                : form < 0.15 ? "8x"
                                              : std::to_string(1 << rng.uniform_int(0, 3));
  }
  entry.runtime_seconds = rng.uniform(10.0, 5000.0);
  entry.recorded_at = from_seconds(rng.uniform(0.0, 1e6));
  entry.successful = rng.bernoulli(0.8);
  return entry;
}

// History-like probes, plus values never recorded, an attribute no entry
// carries, and the empty task.
std::vector<std::map<std::string, std::string>> oracle_probes(Rng& rng) {
  std::vector<std::map<std::string, std::string>> probes;
  for (int i = 0; i < 60; ++i) probes.push_back(random_entry(rng).attributes);
  for (int i = 0; i < 10; ++i) {
    auto probe = random_entry(rng).attributes;
    probe["executable"] = "never-recorded";
    probes.push_back(probe);
    probe = random_entry(rng).attributes;
    probe["color"] = "blue";
    probes.push_back(probe);
  }
  probes.push_back({});
  return probes;
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

// The estimate as it was computed before the store kept group statistics:
// a walk over the matched entries, oldest first, parsing the regression
// attribute of each.
Result<RuntimeEstimate> scan_estimate(const SimilarityMatcher::Match& match,
                                      const std::map<std::string, std::string>& probe,
                                      const RuntimeEstimatorOptions& opts) {
  if (match.entries.empty()) return failed_precondition_error("no history");
  RunningStats stats;
  for (const HistoryEntry* e : match.entries) stats.add(e->runtime_seconds);
  RuntimeEstimate est;
  est.samples = stats.count();
  est.template_name = match.template_name;
  est.stddev = stats.stddev();
  est.seconds = stats.mean();
  est.used = EstimatorKind::kMean;
  const auto x = probe.find(opts.regression_attribute);
  if (opts.kind == EstimatorKind::kMean || x == probe.end() || stats.count() < 2) return est;
  double x_target = 0.0;
  try {
    x_target = std::stod(x->second);
  } catch (...) {
    return est;
  }
  LinearRegression reg;
  for (const HistoryEntry* e : match.entries) {
    const auto xe = e->attributes.find(opts.regression_attribute);
    if (xe == e->attributes.end()) continue;
    try {
      reg.add(std::stod(xe->second), e->runtime_seconds);
    } catch (...) {
    }
  }
  const LinearFit fit = reg.fit();
  if (fit.valid && (opts.kind == EstimatorKind::kLinearRegression ||
                    fit.r_squared >= opts.min_r_squared)) {
    const double predicted = fit.predict(x_target);
    if (predicted > 0 && std::isfinite(predicted)) {
      est.seconds = predicted;
      est.used = EstimatorKind::kLinearRegression;
    }
  }
  return est;
}

// `estimator`, over `history` and matching by `templates`, answers `probe`
// as the walk over the oracle's match set does, to the bit.
void expect_estimate_matches_scan(const RuntimeEstimator& estimator,
                                  const TaskHistoryStore& history,
                                  const std::vector<SimilarityTemplate>& templates,
                                  const std::map<std::string, std::string>& probe,
                                  const RuntimeEstimatorOptions& opts) {
  const auto a = estimator.estimate(probe);
  const auto b =
      scan_estimate(scan_similar(history, templates, probe, opts.min_matches), probe, opts);
  ASSERT_EQ(a.is_ok(), b.is_ok());
  if (!a.is_ok()) return;
  ASSERT_EQ(bits(a.value().seconds), bits(b.value().seconds));
  ASSERT_EQ(a.value().samples, b.value().samples);
  ASSERT_EQ(bits(a.value().stddev), bits(b.value().stddev));
  ASSERT_EQ(a.value().used, b.value().used);
  ASSERT_EQ(a.value().template_name, b.value().template_name);
}

// The brownout fallback equals the mean over every successful entry.
void expect_cheap_matches_scan(const RuntimeEstimator& estimator,
                               const TaskHistoryStore& history) {
  RunningStats all;
  for (const auto& entry : history.entries()) {
    if (entry.successful) all.add(entry.runtime_seconds);
  }
  const auto got = estimator.estimate_cheap();
  ASSERT_EQ(got.is_ok(), all.count() > 0);
  if (!got.is_ok()) return;
  ASSERT_EQ(bits(got.value().seconds), bits(all.mean()));
  ASSERT_EQ(bits(got.value().stddev), bits(all.stddev()));
  ASSERT_EQ(got.value().samples, all.count());
}

// Estimators built over one store before it is mutated, one per statistic
// and min_matches. Each answer must stay the oracle's whatever the store
// goes through.
class EarlyEstimators {
 public:
  explicit EarlyEstimators(std::shared_ptr<TaskHistoryStore> store) : store_(std::move(store)) {
    for (const auto kind :
         {EstimatorKind::kMean, EstimatorKind::kLinearRegression, EstimatorKind::kHybrid}) {
      for (const std::size_t min_matches : {1u, 3u, 40u}) {
        RuntimeEstimatorOptions opts;
        opts.kind = kind;
        opts.min_matches = min_matches;
        estimators_.emplace_back(opts, RuntimeEstimator(store_, SimilarityMatcher(), opts));
      }
    }
  }

  void expect_match_scan(std::uint64_t seed) const {
    SCOPED_TRACE("early estimators over " + std::to_string(store_->size()) + " entries");
    Rng rng(seed);
    for (const auto& probe : oracle_probes(rng)) {
      for (const auto& [opts, estimator] : estimators_) {
        ASSERT_NO_FATAL_FAILURE(expect_estimate_matches_scan(estimator, *store_,
                                                             default_templates(), probe, opts));
      }
    }
    ASSERT_NO_FATAL_FAILURE(expect_cheap_matches_scan(estimators_.front().second, *store_));
  }

 private:
  std::shared_ptr<TaskHistoryStore> store_;
  std::vector<std::pair<RuntimeEstimatorOptions, RuntimeEstimator>> estimators_;
};

// Every match and estimate `history` gives equals the oracle's.
void expect_index_matches_scan(const std::shared_ptr<TaskHistoryStore>& history,
                               std::uint64_t seed) {
  SCOPED_TRACE("store of " + std::to_string(history->size()) + " entries");
  Rng rng(seed);
  const std::vector<std::vector<SimilarityTemplate>> template_sets = {
      default_templates(), {SimilarityTemplate{}}, {SimilarityTemplate{{"color"}}}};
  for (const auto& probe : oracle_probes(rng)) {
    for (const auto& templates : template_sets) {
      const SimilarityMatcher matcher(templates);
      for (const std::size_t min_matches : {1u, 3u, 40u}) {
        const auto got = matcher.find_similar(*history, probe, min_matches);
        const auto want = scan_similar(*history, templates, probe, min_matches);
        ASSERT_EQ(got.entries, want.entries) << want.template_name;
        ASSERT_EQ(got.template_name, want.template_name);

        RuntimeEstimatorOptions opts;
        opts.min_matches = min_matches;
        ASSERT_NO_FATAL_FAILURE(expect_estimate_matches_scan(
            RuntimeEstimator(history, matcher, opts), *history, templates, probe, opts));
      }
    }
  }
}

void fill(TaskHistoryStore& store, Rng& rng, int n) {
  for (int i = 0; i < n; ++i) store.add(random_entry(rng));
}

TEST(HistoryIndex, MatchesBruteForceScanAcrossEveryMutator) {
  Rng rng(1405);

  auto unbounded = std::make_shared<TaskHistoryStore>();
  fill(*unbounded, rng, 600);
  ASSERT_NO_FATAL_FAILURE(expect_index_matches_scan(unbounded, 1));

  // max_entries trimming, wrapping the 50-entry window twelve times.
  auto trimmed = std::make_shared<TaskHistoryStore>(50);
  fill(*trimmed, rng, 600);
  ASSERT_EQ(trimmed->size(), 50u);
  ASSERT_NO_FATAL_FAILURE(expect_index_matches_scan(trimmed, 2));

  // A copy and a move are whole stores; the copy evolves on its own.
  auto copy = std::make_shared<TaskHistoryStore>(*trimmed);
  fill(*copy, rng, 75);
  ASSERT_NO_FATAL_FAILURE(expect_index_matches_scan(copy, 3));
  ASSERT_NO_FATAL_FAILURE(expect_index_matches_scan(trimmed, 4));
  auto moved = std::make_shared<TaskHistoryStore>(std::move(*copy));
  fill(*moved, rng, 30);
  ASSERT_NO_FATAL_FAILURE(expect_index_matches_scan(moved, 5));
  *trimmed = *unbounded;  // copy-assign across different max_entries
  ASSERT_NO_FATAL_FAILURE(expect_index_matches_scan(trimmed, 6));

  // clear() forgets everything; the store refills from empty.
  moved->clear();
  EXPECT_TRUE(moved->successful().empty());
  EXPECT_TRUE(SimilarityMatcher().find_similar(*moved, {}, 1).entries.empty());
  fill(*moved, rng, 120);
  ASSERT_NO_FATAL_FAILURE(expect_index_matches_scan(moved, 7));

  // load_history rebuilds through add(), trimming to 50 as it goes.
  const std::string path = ::testing::TempDir() + "/gae_history_index.csv";
  ASSERT_TRUE(save_history(*unbounded, path).is_ok());
  auto loaded = load_history(path, 50);
  std::remove(path.c_str());
  ASSERT_TRUE(loaded.is_ok()) << loaded.status();
  auto reloaded = std::make_shared<TaskHistoryStore>(std::move(loaded).value());
  ASSERT_EQ(reloaded->size(), 50u);
  ASSERT_NO_FATAL_FAILURE(expect_index_matches_scan(reloaded, 8));

  // WAL recovery (snapshot + tail) into a store that held other entries,
  // then more samples on top of the recovered state.
  MemoryWalStorage storage;
  Wal wal(&storage);
  TaskHistoryStore journaled(80);
  journaled.attach_wal(&wal);
  fill(journaled, rng, 200);
  ASSERT_TRUE(journaled.save_snapshot().is_ok());
  fill(journaled, rng, 150);
  auto revived = std::make_shared<TaskHistoryStore>(80);
  fill(*revived, rng, 40);
  revived->attach_wal(&wal);
  ASSERT_TRUE(revived->recover().is_ok());
  ASSERT_EQ(revived->export_state(), journaled.export_state());
  ASSERT_NO_FATAL_FAILURE(expect_index_matches_scan(revived, 9));
  fill(*revived, rng, 100);
  ASSERT_NO_FATAL_FAILURE(expect_index_matches_scan(revived, 10));

  // Estimators built before any of the mutations above, over one store
  // that goes through each of them in turn.
  auto store = std::make_shared<TaskHistoryStore>(60);
  const EarlyEstimators early(store);
  ASSERT_NO_FATAL_FAILURE(early.expect_match_scan(11));
  fill(*store, rng, 40);  // add
  ASSERT_NO_FATAL_FAILURE(early.expect_match_scan(12));
  fill(*store, rng, 250);  // trimming to 60
  ASSERT_EQ(store->size(), 60u);
  ASSERT_NO_FATAL_FAILURE(early.expect_match_scan(13));
  store->clear();
  ASSERT_NO_FATAL_FAILURE(early.expect_match_scan(14));
  fill(*store, rng, 90);
  ASSERT_NO_FATAL_FAILURE(early.expect_match_scan(15));
  *store = *unbounded;  // copy-assign: 600 entries, unbounded from now on
  ASSERT_NO_FATAL_FAILURE(early.expect_match_scan(16));
  fill(*store, rng, 30);
  ASSERT_NO_FATAL_FAILURE(early.expect_match_scan(17));
  store->attach_wal(&wal);  // recover() what the journal holds
  ASSERT_TRUE(store->recover().is_ok());
  TaskHistoryStore from_journal;
  from_journal.attach_wal(&wal);
  ASSERT_TRUE(from_journal.recover().is_ok());
  ASSERT_EQ(store->export_state(), from_journal.export_state());
  ASSERT_NO_FATAL_FAILURE(early.expect_match_scan(18));
  fill(*store, rng, 50);
  ASSERT_NO_FATAL_FAILURE(early.expect_match_scan(19));
  store->attach_wal(nullptr);
  ASSERT_TRUE(save_history(*unbounded, path).is_ok());
  auto reread = load_history(path, 50);
  std::remove(path.c_str());
  ASSERT_TRUE(reread.is_ok()) << reread.status();
  *store = std::move(reread).value();  // a store produced by load_history
  ASSERT_EQ(store->size(), 50u);
  ASSERT_NO_FATAL_FAILURE(early.expect_match_scan(20));
  fill(*store, rng, 70);
  ASSERT_NO_FATAL_FAILURE(early.expect_match_scan(21));
}

TEST(HistoryIndex, EstimatorsShareOneRegistrationPerTemplate) {
  Rng rng(77);
  auto store = std::make_shared<TaskHistoryStore>();
  fill(*store, rng, 200);
  const RuntimeEstimator first(store);
  const std::size_t registered = store->template_count();
  EXPECT_EQ(registered, default_templates().size());
  std::vector<RuntimeEstimator> more;
  for (int i = 0; i < 100; ++i) more.emplace_back(store);
  EXPECT_EQ(store->template_count(), registered);
  fill(*store, rng, 20);
  const auto probe = random_entry(rng).attributes;
  const auto want = first.estimate(probe);
  ASSERT_TRUE(want.is_ok());
  EXPECT_EQ(bits(more.back().estimate(probe).value().seconds), bits(want.value().seconds));
}

// The estimator host serves estimates from several worker threads over one
// store; the read path takes no lock, so it must not write anything.
TEST(RuntimeEstimator, ConcurrentEstimatesShareOneStore) {
  Rng rng(2005);
  const auto population = workload::ApplicationPopulation::make(rng, {});
  workload::TraceOptions topts;
  topts.num_records = 4096;
  auto store = std::make_shared<TaskHistoryStore>();
  for (const auto& rec : workload::generate_trace(population, rng, topts)) {
    store->add({workload::record_attributes(rec), rec.runtime_seconds(), rec.complete_time,
                rec.successful});
  }
  // Probes drawn apart from the history, as a scheduler's tasks are.
  Rng probe_rng = rng.fork("probes");
  topts.num_records = 128;
  std::vector<std::map<std::string, std::string>> probes;
  for (const auto& rec : workload::generate_trace(population, probe_rng, topts)) {
    probes.push_back(workload::record_attributes(rec));
  }

  const RuntimeEstimator estimator(store);
  std::vector<RuntimeEstimate> expected;
  for (const auto& probe : probes) expected.push_back(estimator.estimate(probe).value());

  std::atomic<int> mismatches{0};
  std::vector<std::thread> workers;
  for (std::size_t t = 0; t < 4; ++t) {
    workers.emplace_back([&, t] {
      for (std::size_t round = 0; round < 2; ++round) {
        for (std::size_t i = 0; i < probes.size(); ++i) {
          const std::size_t k = (i + t * probes.size() / 4) % probes.size();
          const auto got = estimator.estimate(probes[k]);
          if (!got.is_ok() || got.value().seconds != expected[k].seconds ||
              got.value().samples != expected[k].samples ||
              got.value().stddev != expected[k].stddev ||
              got.value().template_name != expected[k].template_name) {
            ++mismatches;
          }
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(mismatches.load(), 0);
}

TEST(SiteRuntimeRecorder, RecordsCompletionsIntoHistory) {
  sim::Simulation sim;
  sim::Grid grid;
  grid.add_site("s").add_node("n0", 1.0, nullptr);
  exec::ExecutionService service(sim, grid, "s");

  auto store = std::make_shared<TaskHistoryStore>();
  auto estimator = std::make_shared<RuntimeEstimator>(store);
  SiteRuntimeRecorder recorder(service, estimator);

  exec::TaskSpec spec;
  spec.id = "t1";
  spec.work_seconds = 42.0;
  spec.attributes = attrs("a", "u", "q", 1);
  ASSERT_TRUE(service.submit(spec).is_ok());
  sim.run();

  EXPECT_EQ(recorder.recorded(), 1u);
  ASSERT_EQ(store->size(), 1u);
  EXPECT_NEAR(store->entries()[0].runtime_seconds, 42.0, 1e-6);
  EXPECT_TRUE(store->entries()[0].successful);

  // A subsequent estimate for the same attributes hits this history.
  auto r = estimator->estimate(attrs("a", "u", "q", 1));
  ASSERT_TRUE(r.is_ok());
  EXPECT_NEAR(r.value().seconds, 42.0, 1e-6);
}

TEST(SiteRuntimeRecorder, FailedTasksRecordedUnsuccessful) {
  sim::Simulation sim;
  sim::Grid grid;
  grid.add_site("s").add_node("n0", 1.0, nullptr);
  exec::ExecutionService service(sim, grid, "s");
  auto store = std::make_shared<TaskHistoryStore>();
  SiteRuntimeRecorder recorder(service, std::make_shared<RuntimeEstimator>(store));

  exec::TaskSpec spec;
  spec.id = "t1";
  spec.work_seconds = 100.0;
  ASSERT_TRUE(service.submit(spec).is_ok());
  sim.run_until(from_seconds(10));
  service.inject_task_failure("t1", "oops");
  ASSERT_EQ(store->size(), 1u);
  EXPECT_FALSE(store->entries()[0].successful);
}

TEST(EstimateDatabase, PutGetErase) {
  EstimateDatabase db;
  EXPECT_FALSE(db.get("t1").is_ok());
  db.put("t1", 120.0);
  EXPECT_TRUE(db.has("t1"));
  EXPECT_DOUBLE_EQ(db.get("t1").value(), 120.0);
  db.put("t1", 150.0);  // overwrite
  EXPECT_DOUBLE_EQ(db.get("t1").value(), 150.0);
  db.erase("t1");
  EXPECT_FALSE(db.has("t1"));
  EXPECT_EQ(db.size(), 0u);
}

}  // namespace
}  // namespace gae::estimators
