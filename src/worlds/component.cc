#include "worlds/component.h"

#include "base/query_context.h"

namespace maybms::worlds {

const std::vector<Tuple>* Alternative::TuplesFor(
    const std::string& relation_lower) const {
  auto it = tuples.find(relation_lower);
  return it == tuples.end() ? nullptr : &it->second;
}

bool Component::ContributesTo(const std::string& relation_lower) const {
  for (const Alternative& alt : alternatives) {
    auto it = alt.tuples.find(relation_lower);
    if (it != alt.tuples.end() && !it->second.empty()) return true;
  }
  return false;
}

std::vector<std::string> Component::Relations() const {
  std::vector<std::string> names;
  for (const Alternative& alt : alternatives) {
    for (const auto& [rel, tuples] : alt.tuples) {
      if (tuples.empty()) continue;
      bool seen = false;
      for (const std::string& n : names) {
        if (n == rel) {
          seen = true;
          break;
        }
      }
      if (!seen) names.push_back(rel);
    }
  }
  return names;
}

Status Component::Normalize() {
  double total = 0;
  for (const Alternative& alt : alternatives) total += alt.probability;
  if (total <= 0) {
    return Status::EmptyWorldSet("component has zero probability mass");
  }
  for (Alternative& alt : alternatives) alt.probability /= total;
  return Status::OK();
}

Result<Component> MergeComponents(const std::vector<const Component*>& parts,
                                  size_t max_alternatives) {
  Component merged;
  if (parts.empty()) {
    merged.alternatives.push_back(Alternative{});  // the trivial choice
    return merged;
  }

  uint64_t total = 1;
  for (const Component* part : parts) {
    if (part->alternatives.empty()) {
      return Status::EmptyWorldSet("component with no alternatives");
    }
    total *= static_cast<uint64_t>(part->size());
    if (max_alternatives != 0 && total > max_alternatives) {
      return MergeCapExceeded(max_alternatives);
    }
  }

  merged.alternatives.reserve(static_cast<size_t>(total));
  std::vector<size_t> pick(parts.size(), 0);
  while (true) {
    MAYBMS_RETURN_NOT_OK(base::GovernPoll());
    Alternative combo;
    combo.probability = 1.0;
    for (size_t i = 0; i < parts.size(); ++i) {
      const Alternative& alt = parts[i]->alternatives[pick[i]];
      combo.probability *= alt.probability;
      for (const auto& [rel, tuples] : alt.tuples) {
        auto& dst = combo.tuples[rel];
        dst.insert(dst.end(), tuples.begin(), tuples.end());
      }
    }
    merged.alternatives.push_back(std::move(combo));

    size_t i = 0;
    for (; i < parts.size(); ++i) {
      if (++pick[i] < parts[i]->size()) break;
      pick[i] = 0;
    }
    if (i == parts.size()) break;
  }
  return merged;
}

Status MergeCapExceeded(size_t max_alternatives) {
  return Status::Unsupported(
      "component merge would exceed " + std::to_string(max_alternatives) +
      " alternatives; the query correlates too many components");
}

}  // namespace maybms::worlds
