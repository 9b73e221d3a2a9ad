// History-based runtime estimator (paper §6.1, fig. 4).
//
// To estimate a task's runtime: find similar past tasks (similarity
// templates), then compute a statistical estimate of their runtimes — the
// mean, a linear regression on the node count, or a hybrid that uses the
// regression only when it actually explains the variance.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "estimators/history.h"
#include "estimators/similarity.h"

namespace gae::estimators {

enum class EstimatorKind {
  kMean,              // mean runtime of similar tasks
  kLinearRegression,  // regression of runtime on the "nodes" attribute
  kHybrid,            // regression when r^2 is decent, else mean
};

const char* estimator_kind_name(EstimatorKind kind);

struct RuntimeEstimate {
  double seconds = 0.0;
  /// How many similar tasks contributed.
  std::size_t samples = 0;
  /// Which similarity template produced the match set.
  std::string template_name;
  /// Which statistic actually produced the number (hybrid resolves).
  EstimatorKind used = EstimatorKind::kMean;
  /// Sample standard deviation of similar runtimes (0 for n < 2).
  double stddev = 0.0;
};

struct RuntimeEstimatorOptions {
  EstimatorKind kind = EstimatorKind::kHybrid;
  /// Minimum similar tasks before trusting a template.
  std::size_t min_matches = 3;
  /// Hybrid: minimum r-squared for the regression to win.
  double min_r_squared = 0.5;
  /// Attribute regressed on for kLinearRegression (numeric-valued).
  std::string regression_attribute = "nodes";
};

class RuntimeEstimator {
 public:
  /// The estimator reads and appends to a site-local history store, and
  /// registers the matcher's templates with it.
  RuntimeEstimator(std::shared_ptr<TaskHistoryStore> history,
                   SimilarityMatcher matcher = SimilarityMatcher(),
                   RuntimeEstimatorOptions options = {});

  /// Predicted runtime for a task with these attributes: the statistics of
  /// the group find_similar would match, kept by the store, so one hash
  /// lookup per template tried. FAILED_PRECONDITION when the history is empty.
  Result<RuntimeEstimate> estimate(
      const std::map<std::string, std::string>& attributes) const;

  /// Degraded-mode estimate: the mean over every successful history entry,
  /// skipping similarity matching and regression entirely — what the service
  /// serves while browned out. O(1): the store keeps that mean as entries
  /// arrive. template_name is "*" and `used` is kMean. FAILED_PRECONDITION
  /// when no successful entries exist.
  Result<RuntimeEstimate> estimate_cheap() const;

  /// Records an observed runtime (decentralised history maintenance: the
  /// execution site calls this when a task completes).
  void record(const std::map<std::string, std::string>& attributes,
              double runtime_seconds, SimTime at, bool successful = true);

  const TaskHistoryStore& history() const { return *history_; }

 private:
  std::shared_ptr<TaskHistoryStore> history_;
  SimilarityMatcher matcher_;
  RuntimeEstimatorOptions options_;
  std::vector<TemplateId> template_ids_;  // matcher_.templates()[i] in history_
};

}  // namespace gae::estimators
