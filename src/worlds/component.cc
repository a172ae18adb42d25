#include "worlds/component.h"

#include <limits>
#include <utility>

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

Product::Product(std::vector<const Component*> parts)
    : parts_(std::move(parts)) {
  for (const Component* part : parts_) AddPart(part->size());
}

void Product::AddPart(uint64_t radix) {
  constexpr uint64_t kMax = std::numeric_limits<uint64_t>::max();
  radices_.push_back(radix);
  // A part without choices empties the product, even a saturated one.
  if (radix == 0) saturated_ = false;
  saturated_ = saturated_ || (radix != 0 && size_ > kMax / radix);
  size_ = saturated_ ? kMax : size_ * radix;
}

std::vector<const Alternative*> Product::Chosen(uint64_t i) const {
  std::vector<const Alternative*> chosen;
  chosen.reserve(parts_.size());
  Decode(i, [&](size_t k, size_t d) {
    chosen.push_back(&parts_[k]->alternatives[d]);
  });
  return chosen;
}

double Product::Probability(uint64_t i) const {
  double probability = 1.0;
  Decode(i, [&](size_t k, size_t d) {
    probability *= parts_[k]->alternatives[d].probability;
  });
  return probability;
}

Alternative Product::Merged(uint64_t i) const {
  Alternative merged;
  for (const Alternative* alt : Chosen(i)) {
    merged.probability *= alt->probability;
    for (const auto& [rel, tuples] : alt->tuples) {
      auto& dst = merged.tuples[rel];
      dst.insert(dst.end(), tuples.begin(), tuples.end());
    }
  }
  return merged;
}

Result<Product> MergeProduct(std::vector<const Component*> parts,
                             size_t max_alternatives) {
  Product product(std::move(parts));
  if (product.size() == 0) {
    return Status::EmptyWorldSet("component with no alternatives");
  }
  if (product.Exceeds(max_alternatives == 0
                          ? std::numeric_limits<uint64_t>::max()
                          : max_alternatives)) {
    return MergeCapExceeded(max_alternatives);
  }
  return product;
}

Result<Component> MergeComponents(const std::vector<const Component*>& parts,
                                  size_t max_alternatives) {
  MAYBMS_ASSIGN_OR_RETURN(Product product,
                          MergeProduct(parts, max_alternatives));
  Component merged;
  merged.alternatives.reserve(product.size());
  for (uint64_t i = 0; i < product.size(); ++i) {
    MAYBMS_RETURN_NOT_OK(base::GovernPoll());
    merged.alternatives.push_back(product.Merged(i));
  }
  return merged;
}

Status MergeCapExceeded(size_t max_alternatives) {
  return Status::Unsupported(
      "component merge would exceed " + std::to_string(max_alternatives) +
      " alternatives; the query correlates too many components");
}

}  // namespace maybms::worlds
