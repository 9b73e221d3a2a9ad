// Similarity templates for history-based prediction.
//
// A template names the attributes two tasks must share to count as
// "similar" (Smith/Taylor/Foster-style greedy template search): templates
// are tried most-specific first, and the first one yielding enough matches
// defines the similar set.
#pragma once

#include <map>
#include <span>
#include <string>
#include <vector>

#include "estimators/history.h"

namespace gae::estimators {

/// One definition of "similar": these attribute keys must match exactly.
struct SimilarityTemplate {
  std::vector<std::string> keys;

  std::string name() const;  // "executable+login+queue" etc.; "(any)" if empty

  bool matches(const std::map<std::string, std::string>& a,
               const std::map<std::string, std::string>& b) const;
};

/// The default hierarchy, most specific first. The last, empty template
/// matches everything, so a non-empty history always yields an estimate.
std::vector<SimilarityTemplate> default_templates();

class SimilarityMatcher {
 public:
  explicit SimilarityMatcher(std::vector<SimilarityTemplate> templates = default_templates());

  struct Match {
    std::vector<const HistoryEntry*> entries;
    std::string template_name;
  };

  /// Entries similar to `attributes` under the most specific template that
  /// produces at least `min_matches` successful entries. Falls back towards
  /// less specific templates; returns an empty match only for empty history.
  /// A template registered with the store reads its group's member list; any
  /// other template scans the successful entries.
  Match find_similar(const TaskHistoryStore& history,
                     const std::map<std::string, std::string>& attributes,
                     std::size_t min_matches) const;

  /// The group whose members find_similar would return, read from the
  /// store's groups at one hash lookup per template tried. `ids[i]` is
  /// templates()[i] registered with `history`. `group` is null exactly when
  /// find_similar's match is empty.
  struct GroupMatch {
    const TaskHistoryStore::Group* group = nullptr;
    const std::string* template_name = nullptr;
  };
  GroupMatch find_group(const TaskHistoryStore& history, std::span<const TemplateId> ids,
                        const std::map<std::string, std::string>& attributes,
                        std::size_t min_matches) const;

  const std::vector<SimilarityTemplate>& templates() const { return templates_; }

 private:
  std::vector<SimilarityTemplate> templates_;
  std::vector<std::string> names_;  // templates_[i].name()
};

}  // namespace gae::estimators
