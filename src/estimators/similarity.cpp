#include "estimators/similarity.h"

#include <algorithm>
#include <span>

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
}

namespace {

/// Entries of `history` that share every `tmpl` key's value with
/// `attributes` (SimilarityTemplate::matches), oldest first: the posting
/// lists of those key/value pairs intersected, driven from the shortest.
std::vector<const HistoryEntry*> matching_entries(
    const TaskHistoryStore& history, const SimilarityTemplate& tmpl,
    const std::map<std::string, std::string>& attributes) {
  std::vector<std::span<const HistorySeq>> lists;
  lists.reserve(tmpl.keys.size());
  for (const auto& key : tmpl.keys) {
    const auto it = attributes.find(key);
    if (it == attributes.end()) return {};
    const auto list = history.postings(key, it->second);
    if (list.empty()) return {};
    lists.push_back(list);
  }
  if (lists.empty()) lists.push_back(history.successful());
  std::sort(lists.begin(), lists.end(),
            [](const auto& a, const auto& b) { return a.size() < b.size(); });

  std::vector<const HistoryEntry*> matched;
  for (const HistorySeq seq : lists.front()) {
    bool everywhere = true;
    for (std::size_t i = 1; i < lists.size() && everywhere; ++i) {
      // Candidates ascend, so each longer list is only ever searched forward.
      auto& list = lists[i];
      list = list.subspan(static_cast<std::size_t>(
          std::lower_bound(list.begin(), list.end(), seq) - list.begin()));
      everywhere = !list.empty() && list.front() == seq;
    }
    if (everywhere) matched.push_back(&history.at(seq));
  }
  return matched;
}

}  // namespace

SimilarityMatcher::Match SimilarityMatcher::find_similar(
    const TaskHistoryStore& history, const std::map<std::string, std::string>& attributes,
    std::size_t min_matches) const {
  if (min_matches == 0) min_matches = 1;
  Match best;
  for (const auto& tmpl : templates_) {
    std::vector<const HistoryEntry*> matched = matching_entries(history, tmpl, attributes);
    if (matched.size() >= min_matches) {
      best.entries = std::move(matched);
      best.template_name = tmpl.name();
      return best;
    }
    // Remember the best-effort candidate in case nothing reaches min_matches.
    if (matched.size() > best.entries.size()) {
      best.entries = std::move(matched);
      best.template_name = tmpl.name();
    }
  }
  return best;
}

}  // namespace gae::estimators
