#include "estimators/similarity.h"

namespace gae::estimators {

std::string SimilarityTemplate::name() const {
  if (keys.empty()) return "(any)";
  std::string out;
  for (const auto& k : keys) {
    if (!out.empty()) out += "+";
    out += k;
  }
  return out;
}

bool SimilarityTemplate::matches(const std::map<std::string, std::string>& a,
                                 const std::map<std::string, std::string>& b) const {
  for (const auto& key : keys) {
    auto ia = a.find(key);
    auto ib = b.find(key);
    // A task missing one of the template's attributes cannot be matched by
    // that template.
    if (ia == a.end() || ib == b.end() || ia->second != ib->second) return false;
  }
  return true;
}

std::vector<SimilarityTemplate> default_templates() {
  // Node count stays in the hierarchy as long as possible: runtimes of the
  // same application scale strongly with the nodes it ran on, so mixing node
  // counts degrades an otherwise good match set.
  return {
      {{"executable", "login", "queue", "nodes"}},
      {{"executable", "login", "nodes"}},
      {{"executable", "nodes"}},
      {{"executable", "login", "queue"}},
      {{"executable", "login"}},
      {{"executable"}},
      {{"login", "queue"}},
      {{"login"}},
      {{"queue"}},
      {{}},
  };
}

SimilarityMatcher::SimilarityMatcher(std::vector<SimilarityTemplate> templates)
    : templates_(std::move(templates)) {
  if (templates_.empty()) templates_.push_back(SimilarityTemplate{});
  for (const auto& tmpl : templates_) names_.push_back(tmpl.name());
}

namespace {

/// Entries of `history` that share every `tmpl` key's value with
/// `attributes` (SimilarityTemplate::matches), oldest first.
std::vector<const HistoryEntry*> matching_entries(
    const TaskHistoryStore& history, const SimilarityTemplate& tmpl,
    const std::map<std::string, std::string>& attributes, std::string& key) {
  std::vector<const HistoryEntry*> matched;
  if (const auto id = history.find_template(tmpl.keys)) {
    if (const auto* group = history.group(*id, attributes, key)) {
      for (const HistorySeq seq : group->members()) matched.push_back(&history.at(seq));
    }
    return matched;
  }
  for (const HistorySeq seq : history.successful()) {
    const HistoryEntry& entry = history.at(seq);
    if (tmpl.matches(attributes, entry.attributes)) matched.push_back(&entry);
  }
  return matched;
}

}  // namespace

SimilarityMatcher::Match SimilarityMatcher::find_similar(
    const TaskHistoryStore& history, const std::map<std::string, std::string>& attributes,
    std::size_t min_matches) const {
  if (min_matches == 0) min_matches = 1;
  Match best;
  std::string key;
  for (std::size_t i = 0; i < templates_.size(); ++i) {
    std::vector<const HistoryEntry*> matched =
        matching_entries(history, templates_[i], attributes, key);
    if (matched.size() >= min_matches) {
      best.entries = std::move(matched);
      best.template_name = names_[i];
      return best;
    }
    // Remember the best-effort candidate in case nothing reaches min_matches.
    if (matched.size() > best.entries.size()) {
      best.entries = std::move(matched);
      best.template_name = names_[i];
    }
  }
  return best;
}

SimilarityMatcher::GroupMatch SimilarityMatcher::find_group(
    const TaskHistoryStore& history, std::span<const TemplateId> ids,
    const std::map<std::string, std::string>& attributes, std::size_t min_matches) const {
  if (min_matches == 0) min_matches = 1;
  GroupMatch best;
  std::string key;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const TaskHistoryStore::Group* group = history.group(ids[i], attributes, key);
    if (!group) continue;
    const std::size_t matched = group->runtimes().count();
    if (matched >= min_matches) return {group, &names_[i]};
    // The first template with the most matches is the best-effort candidate.
    if (!best.group || matched > best.group->runtimes().count()) best = {group, &names_[i]};
  }
  return best;
}

}  // namespace gae::estimators
