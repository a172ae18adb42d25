#ifndef MAYBMS_WORLDS_DECOMPOSED_WORLD_SET_H_
#define MAYBMS_WORLDS_DECOMPOSED_WORLD_SET_H_

// World-set decompositions (the paper's core data structure): the
// world-set is a product of independent components over a certain core
// database.
//
// Ownership and invariants:
//  * `certain_` owns every relation's schema and its certain tuples;
//    components only ever hold per-alternative *extra* tuples keyed by
//    (lower-cased) relation name. The schema catalog therefore lives in
//    exactly one place, identical for every world — the invariant the
//    prepared-statement layer (engine/prepared.h) relies on when it
//    plans against `certain_` and executes against local worlds.
//  * Components are independent by construction: each alternative's
//    probabilities sum to 1 within its component, and world probability
//    is the product over components. Operations that would correlate
//    components (joins of uncertain relations, assert, group worlds by,
//    DML touching them) read the RELEVANT components' Product by ordinal
//    — never the full product, and merged only where stored (DML).
//  * Query plans are schema-only and never capture alternative contents;
//    per-world state (subquery materializations, hash indexes) lives in
//    per-execution caches (engine/planner.h).
//
// Trivalent logic / NULL keys follow the per-world executor everywhere:
// a local world is an ordinary database (certain core + chosen
// alternatives' tuples), so NULL semantics cannot diverge between the
// fast per-alternative path and full enumeration — the differential
// conformance suite enforces this against the explicit engine.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "worlds/component.h"
#include "worlds/world_set.h"

namespace maybms::worlds {

/// MayBMS-style world-set decomposition (WSD): the world-set is the
/// product of independent components over a certain core database.
///
///   worlds = { certain ⊎ a_1 ⊎ ... ⊎ a_m : a_i ∈ component_i }
///
/// `repair by key` over a certain relation creates one component per key
/// group; `choice of` creates a single component — so a repair with n key
/// groups of size g represents g^n worlds in O(n·g) space, the companion
/// ICDE'07 paper's "10^10^6 worlds" point.
///
/// Query processing avoids world enumeration wherever the paper's
/// operations allow. Three per-component sources answer without merging:
///  * selections/projections over one uncertain relation are pushed into
///    each alternative of the components it touches (the fast path);
///  * repair/choice over certain data builds one new component per
///    partition block (the clean product);
///  * possible/certain/conf of count/sum/min/max over one uncertain
///    relation fold partial aggregates one component at a time, merging
///    equal states (the aggregate fold).
/// All emit the same shape — certain rows plus independent factors, each
/// factor a list of (probability, answer) alternatives — and one combine
/// answers possible/certain/conf over it: a QuantifierCombiner per
/// factor, then the union with the certain rows (conf by the closed form
/// 1 − ∏_f (1 − p_f(t))). Only `assert`, `group worlds by`, and queries
/// that genuinely correlate components (joins of uncertain relations,
/// subqueries, other aggregate shapes) enumerate the *relevant*
/// sub-product by ordinal — never the full world-set, never a merged copy.
class DecomposedWorldSet : public WorldSet {
 public:
  /// `max_merge` caps the worlds of a correlated sub-product, and so the
  /// alternatives a merge may produce; 0 = unlimited. `threads` caps the
  /// shared thread pool's parallelism for per-alternative loops (0 =
  /// MAYBMS_THREADS / hardware); results and errors are byte-identical at
  /// every thread count (see base/thread_pool.h).
  static constexpr size_t kDefaultMaxMerge = 1 << 20;

  explicit DecomposedWorldSet(size_t max_merge = kDefaultMaxMerge,
                              size_t threads = 0);

  std::unique_ptr<WorldSet> Clone() const override;
  std::string EngineName() const override { return "decomposed"; }

  uint64_t NumWorlds() const override;
  double Log10NumWorlds() const override;
  std::vector<std::string> RelationNames() const override;
  bool HasRelation(const std::string& name) const override;
  Result<std::vector<World>> MaterializeWorlds(
      size_t max_worlds, bool* truncated = nullptr) const override;
  Result<std::vector<World>> TopKWorlds(size_t k) const override;
  Result<World> SampleWorld(base::SplitMix64* rng) const override;

  Status CreateBaseTable(const std::string& name,
                         const Table& prototype) override;
  Status DropRelation(const std::string& name) override;
  Status ApplyDml(const sql::Statement& stmt, const Catalog& catalog) override;

  Result<SelectEvaluation> EvaluateSelect(const sql::SelectStatement& stmt,
                                          size_t max_worlds) const override;
  Status MaterializeSelect(const std::string& name,
                           const sql::SelectStatement& stmt) override;

  Result<storage::DurableSnapshot> ToSnapshot() const override;
  Status FromSnapshot(const storage::DurableSnapshot& snapshot) override;

  /// Introspection for tests and benchmarks.
  const std::vector<Component>& components() const { return components_; }
  size_t num_components() const { return components_.size(); }

 private:
  /// What RunPipeline produced: the fold's answer, or a per-component
  /// source's factors (defined in the .cc).
  struct PipelineOutput;

  /// Runs `stmt` into `fold` (worlds/combiner.h), or — for a statement
  /// without assert / group worlds by whose answer decomposes (the
  /// single-relation fast path, repair/choice over certain data, the
  /// aggregate fold) — into independent factors, combining a quantifier
  /// per factor.
  Result<PipelineOutput> RunPipeline(const sql::SelectStatement& stmt,
                                     WorldFold* fold) const;

  /// Indices of components contributing to any of `relations` (lower-case).
  std::vector<size_t> RelevantComponents(
      const std::set<std::string>& relations) const;

  /// Builds the database of one local world: the certain core plus the
  /// contributions of the given alternatives, appended in order.
  Database BuildLocalDatabase(const std::vector<const Alternative*>& chosen)
      const;

  /// Pointers to the components at `indices`: the parts of their Product.
  std::vector<const Component*> Parts(const std::vector<size_t>& indices)
      const;

  Database certain_;
  std::vector<Component> components_;
  size_t max_merge_;
  size_t threads_;  // per-call parallelism cap; 0 = default
};

}  // namespace maybms::worlds

#endif  // MAYBMS_WORLDS_DECOMPOSED_WORLD_SET_H_
