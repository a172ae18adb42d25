#ifndef MAYBMS_WORLDS_COMPONENT_H_
#define MAYBMS_WORLDS_COMPONENT_H_

#include <cstddef>
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

/// Flattens the product of `parts` into a single component whose
/// alternatives are all combinations, with merged contributions and
/// product probabilities. The result size is the product of the part
/// sizes; `max_alternatives` guards against explosion (0 = unlimited).
/// A part without alternatives is an error. Polls governance once per
/// combination.
Result<Component> MergeComponents(const std::vector<const Component*>& parts,
                                  size_t max_alternatives);

/// The error of a merge — or of anything that stands in for one — that
/// would exceed `max_alternatives`.
Status MergeCapExceeded(size_t max_alternatives);

}  // namespace maybms::worlds

#endif  // MAYBMS_WORLDS_COMPONENT_H_
