#include "estimators/runtime_estimator.h"

#include <cmath>

#include "common/stats.h"

namespace gae::estimators {

const char* estimator_kind_name(EstimatorKind kind) {
  switch (kind) {
    case EstimatorKind::kMean: return "mean";
    case EstimatorKind::kLinearRegression: return "linreg";
    case EstimatorKind::kHybrid: return "hybrid";
  }
  return "?";
}

RuntimeEstimator::RuntimeEstimator(std::shared_ptr<TaskHistoryStore> history,
                                   SimilarityMatcher matcher,
                                   RuntimeEstimatorOptions options)
    : history_(std::move(history)), matcher_(std::move(matcher)), options_(options) {
  if (!history_) history_ = std::make_shared<TaskHistoryStore>();
  for (const auto& tmpl : matcher_.templates()) {
    template_ids_.push_back(history_->register_template(tmpl.keys, options_.regression_attribute));
  }
}

Result<RuntimeEstimate> RuntimeEstimator::estimate(
    const std::map<std::string, std::string>& attributes) const {
  const auto match = matcher_.find_group(*history_, template_ids_, attributes,
                                         options_.min_matches);
  if (!match.group) {
    return failed_precondition_error("no task history available for estimation");
  }

  const RunningStats& stats = match.group->runtimes();
  RuntimeEstimate est;
  est.samples = stats.count();
  est.template_name = *match.template_name;
  est.stddev = stats.stddev();
  est.seconds = stats.mean();
  est.used = EstimatorKind::kMean;

  const bool want_regression = options_.kind == EstimatorKind::kLinearRegression ||
                               options_.kind == EstimatorKind::kHybrid;
  auto attr_it = attributes.find(options_.regression_attribute);
  if (want_regression && attr_it != attributes.end() && stats.count() >= 2) {
    double x_target = 0.0;
    try {
      x_target = std::stod(attr_it->second);
    } catch (...) {
      return est;  // attribute not numeric: the mean stands
    }
    const LinearFit fit = match.group->fit().fit();
    const bool take_fit =
        fit.valid && (options_.kind == EstimatorKind::kLinearRegression ||
                      fit.r_squared >= options_.min_r_squared);
    if (take_fit) {
      const double predicted = fit.predict(x_target);
      if (predicted > 0 && std::isfinite(predicted)) {
        est.seconds = predicted;
        est.used = EstimatorKind::kLinearRegression;
      }
    }
  }
  return est;
}

Result<RuntimeEstimate> RuntimeEstimator::estimate_cheap() const {
  const RunningStats& stats = history_->successful_runtimes();
  if (stats.count() == 0) {
    return failed_precondition_error("no task history available for estimation");
  }
  RuntimeEstimate est;
  est.samples = stats.count();
  est.template_name = "*";
  est.used = EstimatorKind::kMean;
  est.seconds = stats.mean();
  est.stddev = stats.stddev();
  return est;
}

void RuntimeEstimator::record(const std::map<std::string, std::string>& attributes,
                              double runtime_seconds, SimTime at, bool successful) {
  HistoryEntry entry;
  entry.attributes = attributes;
  entry.runtime_seconds = runtime_seconds;
  entry.recorded_at = at;
  entry.successful = successful;
  history_->add(std::move(entry));
}

}  // namespace gae::estimators
