#ifndef MAYBMS_WORLDS_COMBINER_H_
#define MAYBMS_WORLDS_COMBINER_H_

// Streaming world-combination for possible / certain / conf, and the one
// world fold both engines feed.
//
// The paper's world-set algebra only ever needs tuple-level accumulation:
// a tuple's confidence is the sum of the probabilities of the worlds whose
// answer contains it, a tuple is certain iff every world's answer contains
// it, possible iff some world's does. QuantifierCombiner exploits that: it
// is fed one world at a time and maintains a single hash map from answer
// tuple to accumulated state, so each per-world answer can be discarded
// the moment it has been fed. Total cost is O(total answer tuples)
// expected plus one O(D log D) sort of the D distinct output tuples at the
// end. (tests/set_combiners.h keeps the set-based reference the property
// suite compares it against.)
//
// Tuple identity follows the rules documented in world_set.h: tuples hash
// and compare under Value's total order (Tuple::Hash / Tuple::Compare),
// where NULL is a plain value (two NULL answer fields are identical for
// world-combination purposes) and numerics are type-tagged consistently
// (Integer(1) and Real(1.0) coincide). Output order is deterministic:
// rows are emitted sorted by the same total order.
//
// WorldFold owns everything after the per-world SQL core of an I-SQL
// SELECT — the assert filter, the group-worlds-by key, the combination —
// so the engines differ only in how they enumerate worlds
// (EnumerateWorlds in world_set.h, plus the decomposed engine's
// per-component sources).

#include <cstddef>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "base/result.h"
#include "engine/planner.h"
#include "engine/prepared.h"
#include "sql/ast.h"
#include "storage/catalog.h"
#include "storage/table.h"
#include "types/tuple.h"
#include "worlds/world_set.h"

namespace maybms::worlds {

/// Streaming accumulator for one possible/certain/conf combination.
///
/// Usage:
///   MAYBMS_ASSIGN_OR_RETURN(QuantifierCombiner c,
///                           QuantifierCombiner::Create(quantifier));
///   for (world : worlds) c.Feed(world.probability, result_of(world));
///   MAYBMS_ASSIGN_OR_RETURN(Table combined, c.Finish(total_probability));
///
/// Feed weights may be unnormalized (e.g. pre-assert probabilities or
/// Monte-Carlo sample counts); Finish(normalizer) divides accumulated
/// confidences by `normalizer`. Pass 1.0 when the fed weights already sum
/// to one. possible/certain ignore the weights entirely.
class QuantifierCombiner {
 public:
  /// Rejects WorldQuantifier::kNone.
  static Result<QuantifierCombiner> Create(sql::WorldQuantifier quantifier);

  QuantifierCombiner(QuantifierCombiner&&) = default;
  QuantifierCombiner& operator=(QuantifierCombiner&&) = default;

  /// Folds one world's answer into the accumulator. `table` may be
  /// destroyed immediately after the call. Duplicate rows within one
  /// world's answer count once (set semantics across worlds).
  void Feed(double probability, const Table& table);

  /// Number of worlds fed so far.
  size_t worlds_fed() const { return worlds_fed_; }

  /// Absorbs `other` (a combiner for the SAME quantifier) as if its
  /// worlds had been fed to this combiner immediately after this
  /// combiner's own worlds, in `other`'s feed order. This is the parallel
  /// merge: per-chunk combiners are merged in chunk-index order, which
  /// keeps every accumulation order — and therefore every output byte —
  /// independent of the thread count (see base/thread_pool.h).
  /// Consumes `other`.
  void Merge(QuantifierCombiner&& other);

  /// Emits the combined relation, sorted by tuple total order. Consumes
  /// the combiner. A conf combination with `normalizer` <= 0 (zero total
  /// surviving mass) is an error, never NaN confidences.
  Result<Table> Finish(double normalizer = 1.0);

 private:
  explicit QuantifierCombiner(sql::WorldQuantifier quantifier)
      : quantifier_(quantifier) {}

  struct Accum {
    double conf = 0;          // conf: accumulated probability mass
    size_t worlds_seen = 0;   // certain: worlds whose answer contains it
    size_t last_world = 0;    // 1-based ordinal of the last feeding world
  };

  sql::WorldQuantifier quantifier_;
  size_t worlds_fed_ = 0;
  std::unordered_map<Tuple, Accum, TupleHash> acc_;
  Schema value_schema_;        // first fed schema with > 0 columns
  bool saw_schema_ = false;    // any table fed (possible/certain schema)
  Schema first_schema_;        // schema of the very first fed table
  double nonempty_prob_ = 0;   // conf, 0-column answers: P(non-empty)
};

/// Streaming accumulator for `group worlds by`: one QuantifierCombiner
/// per distinct (canonicalized) group key, fed unnormalized world
/// probabilities; Finish() normalizes within each group and emits groups
/// in the deterministic total order of their canonical key rows.
class GroupedQuantifierCombiner {
 public:
  /// kNone is rejected at the first Feed, with the same error
  /// QuantifierCombiner::Create produces.
  explicit GroupedQuantifierCombiner(sql::WorldQuantifier quantifier);

  /// Folds one world: `answer` is the world's statement answer, `key` its
  /// canonical group key (CanonicalizeGroupKey of the grouping query's
  /// answer). `probability` may be unnormalized (e.g. pre-assert mass).
  Status Feed(double probability, const Table& answer, Table key);

  /// Absorbs `other` (same quantifier) as if its worlds had been fed
  /// right after this combiner's own, per group key — the grouped
  /// counterpart of QuantifierCombiner::Merge, with the same chunk-order
  /// determinism contract. Consumes `other`.
  Status Merge(GroupedQuantifierCombiner&& other);

  /// One GroupResult per distinct key: probability = group mass / total
  /// fed mass, relation combined under the quantifier with weights
  /// normalized within the group. Consumes the combiner.
  Result<std::vector<SelectEvaluation::GroupResult>> Finish();

 private:
  struct GroupAccum {
    double mass = 0;
    Table key_table;
    std::optional<QuantifierCombiner> combiner;
  };

  /// The accumulator of canonical `key`, created on first use.
  Result<GroupAccum*> Group(Table key);

  sql::WorldQuantifier quantifier_;
  double total_mass_ = 0;
  std::map<std::vector<Tuple>, GroupAccum> groups_;
};

/// One surviving world a WorldFold kept (see WorldFold::Keep).
struct FoldedWorld {
  size_t input = 0;          // the source's input world it derives from
  double probability = 0;    // renormalized over the assert survivors
  /// What the world stores under the result name: the statement's own
  /// answer, or — under a quantifier — the combined answer, or the
  /// world's group answer (one instance shared by the group).
  std::shared_ptr<Table> answer;
  /// With Keep::kWorlds: the input world's database plus `answer` under
  /// the result name — the derived world itself.
  Database db;
};

/// The fold of an I-SQL SELECT over its worlds: everything after the
/// per-world SQL core. Each world arrives as (probability, database,
/// answer); the fold
///  * evaluates `assert` and drops the world unless it holds,
///  * under `group worlds by`, runs the grouping query for the group key,
///  * combines the answer under possible/certain/conf (per group),
///  * and, when asked to, keeps each survivor for a materializing
///    pipeline (`create table … as`, plain listings).
///
/// Worlds arrive in batches, one ParallelFor each: Begin(n) before, Feed
/// from the loop body, End() after. State is per chunk and merged in chunk
/// order, so answers are byte-identical at every thread count. Fed
/// probabilities may be unnormalized: a quantifier divides by the
/// surviving mass after an assert, a group by its own mass.
///
/// The assert and grouping queries see the world's database; when they
/// name the statement's own answer (`__result`, or the `create table`
/// target) the fold evaluates them over a copy of the database that holds
/// the answer under that name. Apart from Keep::kWorlds, that is the only
/// case that copies a database.
class WorldFold {
 public:
  /// What the fold keeps of each surviving world for worlds(): nothing (a
  /// quantified SELECT), its answer (listings, the decomposed engine's
  /// derived components), or also its database (the explicit engine's
  /// derived worlds, built as the worlds are fed).
  enum class Keep { kNothing, kAnswers, kWorlds };

  /// Checks the statement's world operations (ValidateWorldOps, a plain
  /// grouping query, a quantifier for group worlds by). `stmt` must
  /// outlive the fold. `threads` is the ParallelFor thread cap of the
  /// feeding loops.
  static Result<WorldFold> Create(const sql::SelectStatement& stmt,
                                  std::string result_name, size_t threads,
                                  Keep keep);

  /// The fold of EvaluateSelect: keeps the answers of a plain SELECT's
  /// worlds for its listing, nothing when FoldsWorlds(stmt).
  static Result<WorldFold> ForSelect(const sql::SelectStatement& stmt,
                                     size_t threads) {
    return Create(stmt, "__result", threads,
                  FoldsWorlds(stmt) ? Keep::kNothing : Keep::kAnswers);
  }

  WorldFold(WorldFold&&) = default;
  WorldFold& operator=(WorldFold&&) = default;

  /// Starts a batch of `n` worlds, fed at indices [0, n).
  void Begin(size_t n);

  /// Folds world `index` of the batch, derived from input world `input`,
  /// from a ParallelFor body running as (`slot`, `chunk`).
  Status Feed(size_t input, size_t index, size_t slot, size_t chunk,
              double probability, const Database& db, Table answer);

  /// Ends the batch: merges its chunk state in chunk order.
  Status End();

  /// The quantifier answer (`combined`) or the world groups; an error
  /// when an assert eliminated every world. Consumes the accumulators.
  Result<SelectEvaluation> Finish();

  /// After Finish: the kept surviving worlds in feed order.
  std::vector<FoldedWorld>& worlds() { return kept_; }

  /// After Finish: moves the first `max_worlds` kept worlds' answers into
  /// `eval->per_world` (a plain SELECT's listing) and flags truncation.
  Status ListWorlds(size_t max_worlds, SelectEvaluation* eval);

 private:
  WorldFold(const sql::SelectStatement& stmt, std::string result_name)
      : stmt_(&stmt), result_name_(std::move(result_name)) {}

  struct Slot {
    engine::SubqueryPlanCache assert_plans;
    std::optional<engine::PreparedSelect> group_plan;
  };
  struct Chunk {
    std::optional<QuantifierCombiner> combiner;
    std::optional<GroupedQuantifierCombiner> grouped;
    double mass = 0;
    size_t survivors = 0;
  };
  struct Kept {
    FoldedWorld world;
    std::vector<Tuple> group_key;
  };

  const sql::SelectStatement* stmt_;
  std::string result_name_;
  bool reads_answer_ = false;  // assert/grouping query names result_name_
  Keep keep_ = Keep::kNothing;
  std::vector<Slot> slots_;
  std::vector<Chunk> chunks_;
  std::vector<std::optional<Kept>> batch_;
  std::optional<QuantifierCombiner> combiner_;
  std::optional<GroupedQuantifierCombiner> grouped_;
  double mass_ = 0;
  size_t survivors_ = 0;
  std::vector<FoldedWorld> kept_;
  std::vector<std::vector<Tuple>> kept_keys_;  // group keys, with grouping
};

}  // namespace maybms::worlds

#endif  // MAYBMS_WORLDS_COMBINER_H_
