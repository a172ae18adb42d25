#ifndef MAYBMS_WORLDS_COMPONENT_H_
#define MAYBMS_WORLDS_COMPONENT_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "base/result.h"
#include "types/tuple.h"

namespace maybms::worlds {

/// One local world of a component: a probability plus the tuples this
/// choice contributes to each relation (keys are lower-cased relation
/// names). Choosing one alternative from every component — independently —
/// yields one possible world; the world's relation instance is the certain
/// core plus the chosen alternatives' contributions.
struct Alternative {
  double probability = 1.0;
  std::map<std::string, std::vector<Tuple>> tuples;

  const std::vector<Tuple>* TuplesFor(const std::string& relation_lower) const;
};

/// An independent factor of a world-set decomposition (ICDT'07 WSDs,
/// restricted to tuple-level alternatives — which is all the demo paper's
/// operations ever create). Alternatives are mutually exclusive and their
/// probabilities sum to one.
struct Component {
  std::vector<Alternative> alternatives;

  size_t size() const { return alternatives.size(); }

  bool ContributesTo(const std::string& relation_lower) const;

  /// All relation names (lower-cased) any alternative contributes to.
  std::vector<std::string> Relations() const;

  /// Rescales alternative probabilities to sum to one. Returns an error if
  /// the total mass is zero.
  Status Normalize();
};

/// The combinations of independent parts — components, a decomposed
/// answer's factors, a repair's key groups — numbered in the one order
/// every walk over them uses: ordinal i picks digit d_k of part k, digit 0
/// least significant, so part 0 varies fastest.
class Product {
 public:
  Product() = default;
  /// The product of `parts`' alternatives; the parts must outlive it.
  explicit Product(std::vector<const Component*> parts);

  /// Appends a part of `radix` choices (a product not of components).
  void AddPart(uint64_t radix);

  /// The number of ordinals, saturating at uint64 max.
  uint64_t size() const { return size_; }
  /// True if there are more than `cap` ordinals, or than uint64 counts.
  bool Exceeds(uint64_t cap) const { return saturated_ || size_ > cap; }

  /// Calls visit(k, d_k) for every part k of ordinal `i`, part 0 first.
  template <typename Visit>
  void Decode(uint64_t i, Visit&& visit) const {
    for (size_t k = 0; k < radices_.size(); ++k) {
      visit(k, static_cast<size_t>(i % radices_[k]));
      i /= radices_[k];
    }
  }

  // Of a product of components: ordinal i's alternatives in part order,
  // its probability 1.0 × p_0 × p_1 × … in part order, and both flattened
  // into one alternative (each relation's chosen tuples in part order).
  std::vector<const Alternative*> Chosen(uint64_t i) const;
  double Probability(uint64_t i) const;
  Alternative Merged(uint64_t i) const;

 private:
  std::vector<const Component*> parts_;
  std::vector<uint64_t> radices_;
  uint64_t size_ = 1;
  bool saturated_ = false;
};

/// The product of `parts` checked as a merge into one component: an error
/// if a part has no alternatives or there are more than
/// `max_alternatives` ordinals (0 = no cap but uint64's).
Result<Product> MergeProduct(std::vector<const Component*> parts,
                             size_t max_alternatives);

/// MergeProduct(parts, max_alternatives) flattened into one component,
/// one alternative per ordinal. Polls governance once per alternative.
Result<Component> MergeComponents(const std::vector<const Component*>& parts,
                                  size_t max_alternatives);

/// The error of a merge — or of anything that stands in for one — that
/// would exceed `max_alternatives`.
Status MergeCapExceeded(size_t max_alternatives);

}  // namespace maybms::worlds

#endif  // MAYBMS_WORLDS_COMPONENT_H_
