#include "worlds/decomposed_world_set.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <optional>
#include <queue>
#include <random>
#include <span>
#include <unordered_set>
#include <utility>

#include "base/query_context.h"
#include "base/string_util.h"
#include "base/thread_pool.h"
#include "engine/dml.h"
#include "engine/expr_eval.h"
#include "engine/planner.h"
#include "engine/prepared.h"
#include "worlds/combiner.h"
#include "worlds/partition.h"

namespace maybms::worlds {

namespace {

bool ContainsSubquery(const sql::Expr& expr) {
  if (expr.kind == sql::ExprKind::kExists ||
      expr.kind == sql::ExprKind::kInSubquery ||
      expr.kind == sql::ExprKind::kScalarSubquery) {
    return true;
  }
  bool found = false;
  engine::ForEachChildExpr(expr, [&found](const sql::Expr& child) {
    if (!found) found = ContainsSubquery(child);
  });
  return found;
}

/// The rows of `rows` (over `schema`) that satisfy the statement's WHERE
/// clause. The per-component sources guarantee there are no subqueries,
/// so `db` is only a formality for the evaluation context; `where_plans`
/// shares what little subquery analysis there is across calls.
Result<std::vector<Tuple>> FilterRows(const sql::SelectStatement& core,
                                      const Database& db,
                                      const Schema& schema,
                                      const std::vector<Tuple>& rows,
                                      engine::SubqueryPlanCache* where_plans) {
  std::vector<Tuple> kept;
  kept.reserve(rows.size());
  engine::SubqueryCache subquery_cache(where_plans);
  for (const Tuple& row : rows) {
    if (core.where) {
      engine::EvalContext ctx{&db,     &schema, &row,
                              nullptr, nullptr, &subquery_cache};
      MAYBMS_ASSIGN_OR_RETURN(Trivalent keep,
                              engine::EvalPredicate(*core.where, ctx));
      if (keep != Trivalent::kTrue) continue;
    }
    kept.push_back(row);
  }
  return kept;
}

/// FilterRows, then the prepared select list.
Result<Table> FilterProjectRows(
    const sql::SelectStatement& core, const Database& db, const Schema& schema,
    const std::vector<Tuple>& rows, engine::PreparedProjection& projection,
    engine::SubqueryPlanCache* where_plans) {
  MAYBMS_ASSIGN_OR_RETURN(std::vector<Tuple> kept,
                          FilterRows(core, db, schema, rows, where_plans));
  return projection.Execute(db, kept);
}

/// One independent factor of a decomposed answer: the (probability,
/// answer) pairs of its mutually exclusive alternatives, and the existing
/// component it mirrors (the fast path) or none (a component a
/// repair/choice creates).
struct Factor {
  std::optional<size_t> component;
  std::vector<std::pair<double, Table>> alternatives;
};

/// The answer of a per-component source: certain rows plus independent
/// factors. Each world's answer is the certain rows plus one alternative's
/// answer from every factor.
struct DecomposedResult {
  Table certain;
  std::vector<Factor> factors;
};

/// A scan of one relation with a per-row WHERE: no joins (self-joins
/// correlate tuples), set operations, DISTINCT, grouping, ordering or
/// limit, and no subquery or aggregate in WHERE. The shape both
/// single-relation per-component sources need.
bool IsSingleRelationScan(const sql::SelectStatement& stmt,
                          const std::set<std::string>& referenced) {
  if (stmt.from.size() != 1 || referenced.size() != 1) return false;
  if (!stmt.joins.empty()) return false;
  if (stmt.union_next || stmt.distinct) return false;
  if (!stmt.group_by.empty() || stmt.having || !stmt.order_by.empty() ||
      stmt.limit.has_value()) {
    return false;
  }
  return !stmt.where || (!ContainsSubquery(*stmt.where) &&
                         !engine::ContainsAggregate(*stmt.where));
}

/// The fast path's select list: stars and per-row expressions.
bool IsPerRowSelectList(const sql::SelectStatement& stmt) {
  return std::all_of(
      stmt.items.begin(), stmt.items.end(), [](const sql::SelectItem& item) {
        return item.star || (!ContainsSubquery(*item.expr) &&
                             !engine::ContainsAggregate(*item.expr));
      });
}

/// The aggregate fold's select list: each item count(*), or a
/// non-DISTINCT count/sum/min/max of one per-row expression.
bool IsFoldableAggregateList(const sql::SelectStatement& stmt) {
  auto foldable = [](const sql::SelectItem& item) {
    if (item.star || item.expr->kind != sql::ExprKind::kFunctionCall) {
      return false;
    }
    const auto& call = static_cast<const sql::FunctionCallExpr&>(*item.expr);
    if (call.distinct) return false;
    if (call.star) return call.name == "count";
    if (call.name != "count" && call.name != "sum" && call.name != "min" &&
        call.name != "max") {
      return false;
    }
    return call.args.size() == 1 && !ContainsSubquery(*call.args[0]) &&
           !engine::ContainsAggregate(*call.args[0]);
  };
  return !stmt.items.empty() &&
         std::all_of(stmt.items.begin(), stmt.items.end(), foldable);
}

/// The aggregate fold's inputs from a list of rows: for each row the WHERE
/// keeps, one value per select item — the item's argument, or for
/// count(*) a non-NULL stand-in — flattened row-major.
Result<std::vector<Value>> AggregateInputs(
    const sql::SelectStatement& core, const Database& db, const Schema& schema,
    const std::vector<Tuple>& rows, engine::SubqueryPlanCache* where_plans) {
  MAYBMS_ASSIGN_OR_RETURN(std::vector<Tuple> kept,
                          FilterRows(core, db, schema, rows, where_plans));
  std::vector<Value> inputs;
  inputs.reserve(kept.size() * core.items.size());
  for (const Tuple& row : kept) {
    engine::EvalContext ctx{&db, &schema, &row, nullptr, nullptr, nullptr};
    for (const sql::SelectItem& item : core.items) {
      const auto& call = static_cast<const sql::FunctionCallExpr&>(*item.expr);
      if (call.star) {
        inputs.push_back(Value::Boolean(true));
        continue;
      }
      MAYBMS_ASSIGN_OR_RETURN(Value v, engine::EvalExpr(*call.args[0], ctx));
      inputs.push_back(std::move(v));
    }
  }
  return inputs;
}

/// Folds flattened AggregateInputs onto one accumulator per item, row by
/// row; NULLs are skipped.
Status Accumulate(const std::vector<Value>& inputs,
                  std::span<engine::AggregateAccumulator> accs) {
  for (size_t i = 0; i < inputs.size(); ++i) {
    if (inputs[i].is_null()) continue;
    MAYBMS_RETURN_NOT_OK(accs[i % accs.size()].Add(inputs[i]));
  }
  return Status::OK();
}

/// The aggregate fold's answer, or none: enumerate instead.
using Folded = std::optional<DecomposedResult>;

/// The aggregate fold: a quantified select list of count/sum/min/max over
/// one relation, folded one component at a time instead of enumerating
/// the relevant sub-product.
///
/// A state is the accumulators of the worlds' partial answers: the certain
/// rows, then each component's chosen alternative in index order — the
/// merged path's row order, so a real sum is bit-identical. Folding a
/// component combines every state with every alternative; states of equal
/// exact identity (AggregateAccumulator::SameState) merge, adding
/// their probabilities. The work is Σ states × alternatives instead of
/// Π alternatives, and the state count never exceeds the product, so the
/// merge cap (`max_merge`, 0 = none) only refuses what merging would.
///
/// Returns one factor of one-row answers, one per final state, in the
/// order of the first world (Product ordinal) reaching it — the order the
/// merged path feeds its combiner. Returns nullopt when a row or an
/// accumulator fails: the caller then enumerates, which reports the error
/// exactly as before.
Result<Folded> FoldAggregates(
    const sql::SelectStatement& stmt, const Database& certain,
    const std::vector<const Component*>& parts, size_t max_merge) {
  std::unique_ptr<sql::SelectStatement> core = StripWorldOps(stmt);
  const std::string rel = AsciiToLower(stmt.from[0].table_name);
  Result<const Table*> table = certain.GetRelation(rel);
  if (!table.ok()) return Folded();
  const Schema qualified =
      (*table)->schema().WithQualifier(stmt.from[0].effective_alias());
  Result<std::vector<engine::OutputItem>> items =
      engine::ResolveItems(*core, qualified);
  if (!items.ok()) return Folded();
  Schema schema =
      engine::InferOutputSchema(*items, qualified, certain, nullptr);

  // The states, flattened: state s holds the accumulators
  // [s·width, (s+1)·width) and the probability probs[s].
  const size_t width = core->items.size();
  std::vector<engine::AggregateAccumulator> accs;
  accs.reserve(width);
  for (const sql::SelectItem& item : core->items) {
    Result<engine::AggregateAccumulator> acc =
        engine::AggregateAccumulator::Create(
            static_cast<const sql::FunctionCallExpr&>(*item.expr).name);
    if (!acc.ok()) return Folded();
    accs.push_back(std::move(*acc));
  }
  std::vector<double> probs = {1.0};
  engine::SubqueryPlanCache where_plans;
  Result<std::vector<Value>> certain_inputs =
      AggregateInputs(*core, certain, qualified, (*table)->rows(),
                      &where_plans);
  if (!certain_inputs.ok() || !Accumulate(*certain_inputs, accs).ok()) {
    return Folded();
  }

  static const std::vector<Tuple> kNoRows;
  for (const Component* part : parts) {
    MAYBMS_RETURN_NOT_OK(base::GovernPoll());
    std::vector<std::vector<Value>> alt_inputs;
    alt_inputs.reserve(part->size());
    for (const Alternative& alt : part->alternatives) {
      const std::vector<Tuple>* rows = alt.TuplesFor(rel);
      Result<std::vector<Value>> inputs =
          AggregateInputs(*core, certain, qualified,
                          rows != nullptr ? *rows : kNoRows, &where_plans);
      if (!inputs.ok()) return Folded();
      alt_inputs.push_back(std::move(*inputs));
    }
    std::vector<engine::AggregateAccumulator> next_accs;
    std::vector<double> next_probs;
    auto state = [&next_accs, width](size_t s) {
      return std::span(next_accs).subspan(s * width, width);
    };
    auto hash = [&state](size_t s) {
      size_t h = 0;
      for (const engine::AggregateAccumulator& acc : state(s)) {
        h = h * 31 + acc.StateHash();
      }
      return h;
    };
    auto same = [&state](size_t a, size_t b) {
      return std::equal(state(a).begin(), state(a).end(), state(b).begin(),
                        [](const engine::AggregateAccumulator& x,
                           const engine::AggregateAccumulator& y) {
                          return x.SameState(y);
                        });
    };
    // Indices of next's states, by state.
    std::unordered_set<size_t, decltype(hash), decltype(same)> index(
        16, hash, same);
    // Alternatives outermost: a component's stride in Product order exceeds
    // every earlier ordinal, so states are created in first-world order.
    for (size_t a = 0; a < part->size(); ++a) {
      const double p = part->alternatives[a].probability;
      for (size_t s = 0; s < probs.size(); ++s) {
        const size_t candidate = next_probs.size();
        next_accs.insert(next_accs.end(), accs.begin() + s * width,
                         accs.begin() + (s + 1) * width);
        if (!Accumulate(alt_inputs[a], state(candidate)).ok()) {
          return Folded();
        }
        auto [it, inserted] = index.insert(candidate);
        if (!inserted) {
          next_probs[*it] += probs[s] * p;
          next_accs.erase(next_accs.end() - width, next_accs.end());
          continue;
        }
        if (max_merge != 0 && candidate >= max_merge) {
          return MergeCapExceeded(max_merge);
        }
        next_probs.push_back(probs[s] * p);
      }
    }
    MAYBMS_RETURN_NOT_OK(base::GovernChargeBytes(
        base::EstimateTableBytes(next_probs.size(), width)));
    accs = std::move(next_accs);
    probs = std::move(next_probs);
  }

  DecomposedResult result{Table(schema), {Factor{}}};
  std::vector<std::pair<double, Table>>& answers =
      result.factors[0].alternatives;
  answers.reserve(probs.size());
  for (size_t s = 0; s < probs.size(); ++s) {
    Tuple row;
    for (size_t i = 0; i < width; ++i) {
      Result<Value> v = accs[s * width + i].Finish();
      if (!v.ok()) return Folded();
      row.Append(std::move(*v));
    }
    Table answer(schema);
    answer.AppendUnchecked(std::move(row));
    answers.emplace_back(probs[s], std::move(answer));
  }
  // CombineFactors feeds a certain factor last to first; reversed, it
  // sees the merged path's world order.
  if (stmt.quantifier == sql::WorldQuantifier::kCertain) {
    std::reverse(answers.begin(), answers.end());
  }
  return Folded(std::move(result));
}

/// possible/certain/conf of a decomposed answer without enumerating
/// worlds: one QuantifierCombiner per factor over its alternatives, then
/// the union with the certain rows. A row's conf is 1 (certain) or
/// 1 − ∏_f (1 − p_f(row)) over the factors' conf answers, multiplied in
/// factor order. Of rows that coincide under Tuple::Compare (Integer 1,
/// Real 1.0) the union keeps the first: the certain rows', then the
/// factors' in order.
Result<Table> CombineFactors(sql::WorldQuantifier quantifier,
                             const DecomposedResult& dec) {
  const bool conf = quantifier == sql::WorldQuantifier::kConf;
  const size_t width = dec.certain.schema().num_columns();
  // (row, certain): the certain rows, then every factor's answer in
  // factor order. Under conf, column `width` holds the row's p_f (1 for
  // a certain row).
  std::vector<std::pair<Tuple, bool>> rows;
  for (Tuple row : dec.certain.rows()) {
    if (conf) row.Append(Value::Real(1.0));
    rows.emplace_back(std::move(row), true);
  }
  for (const Factor& factor : dec.factors) {
    MAYBMS_RETURN_NOT_OK(base::GovernPoll());
    // A factor whose alternatives all answer nothing adds no row.
    if (std::all_of(factor.alternatives.begin(), factor.alternatives.end(),
                    [](const auto& alt) { return alt.second.empty(); })) {
      continue;
    }
    MAYBMS_ASSIGN_OR_RETURN(QuantifierCombiner combiner,
                            QuantifierCombiner::Create(quantifier));
    if (quantifier == sql::WorldQuantifier::kCertain) {
      // Fed last to first: a certain row keeps the spelling of the last
      // alternative's first occurrence.
      for (auto it = factor.alternatives.rbegin();
           it != factor.alternatives.rend(); ++it) {
        combiner.Feed(it->first, it->second);
      }
    } else {
      for (const auto& [p, answer] : factor.alternatives) {
        combiner.Feed(p, answer);
      }
    }
    MAYBMS_ASSIGN_OR_RETURN(Table answer, combiner.Finish(1.0));
    for (Tuple& row : *answer.mutable_rows()) {
      rows.emplace_back(std::move(row), false);
    }
  }
  // A 0-column conf answer is one row, conf 0 when no world has a row.
  if (conf && width == 0 && rows.empty()) {
    rows.emplace_back(Tuple({Value::Real(0.0)}), false);
  }

  // Stable, so each run of equal rows starts with the row to keep and
  // lists the factors' p_f in factor order.
  auto less = [width](const std::pair<Tuple, bool>& a,
                      const std::pair<Tuple, bool>& b) {
    for (size_t i = 0; i < width; ++i) {
      int c = a.first.value(i).TotalOrderCompare(b.first.value(i));
      if (c != 0) return c < 0;
    }
    return false;
  };
  std::stable_sort(rows.begin(), rows.end(), less);
  Schema schema = dec.certain.schema();
  if (conf) schema.AddColumn(Column("conf", DataType::kReal));
  Table result(std::move(schema));
  for (size_t i = 0, j = 0; i < rows.size(); i = j) {
    double not_prob = 1.0;
    for (j = i; j < rows.size() && !less(rows[i], rows[j]); ++j) {
      if (conf) not_prob *= 1.0 - rows[j].first.value(width).AsReal();
    }
    Tuple& row = rows[i].first;
    if (conf && !rows[i].second) row.value(width) = Value::Real(1.0 - not_prob);
    result.AppendUnchecked(std::move(row));
  }
  return result;
}

/// A plain SELECT's per-world listing of a decomposed answer: the product
/// of its factors in Product order (no other component changes the
/// answer), capped at `max_worlds`.
Status ListFactorWorlds(const DecomposedResult& dec, size_t max_worlds,
                        SelectEvaluation* eval) {
  const std::vector<Factor>& factors = dec.factors;
  Product product;
  for (const Factor& f : factors) product.AddPart(f.alternatives.size());
  for (uint64_t i = 0; i < product.size(); ++i) {
    if (eval->per_world.size() >= max_worlds) {
      eval->truncated = true;
      break;
    }
    MAYBMS_RETURN_NOT_OK(base::GovernChargeWorlds(1));
    double prob = 1.0;
    Table world = dec.certain;
    product.Decode(i, [&](size_t f, size_t d) {
      const auto& [p, answer] = factors[f].alternatives[d];
      prob *= p;
      for (const Tuple& t : answer.rows()) world.AppendUnchecked(t);
    });
    eval->per_world.emplace_back(prob, std::move(world));
  }
  return Status::OK();
}

}  // namespace

struct DecomposedWorldSet::PipelineOutput {
  SelectEvaluation eval;                       // combined / groups
  std::optional<DecomposedResult> decomposed;  // per-component sources
  /// Else: the components whose Product the fold derived its worlds
  /// from, and whether there were none and no repair/choice.
  std::vector<size_t> replaced;
  bool certain = false;
};

DecomposedWorldSet::DecomposedWorldSet(size_t max_merge, size_t threads)
    : max_merge_(max_merge), threads_(threads) {}

std::unique_ptr<WorldSet> DecomposedWorldSet::Clone() const {
  return std::make_unique<DecomposedWorldSet>(*this);
}

uint64_t DecomposedWorldSet::NumWorlds() const {
  Product product;
  for (const Component& c : components_) product.AddPart(c.size());
  return product.size();
}

double DecomposedWorldSet::Log10NumWorlds() const {
  double log_total = 0;
  for (const Component& c : components_) {
    log_total += std::log10(static_cast<double>(c.size()));
  }
  return log_total;
}

std::vector<std::string> DecomposedWorldSet::RelationNames() const {
  return certain_.RelationNames();
}

bool DecomposedWorldSet::HasRelation(const std::string& name) const {
  return certain_.HasRelation(name);
}

Database DecomposedWorldSet::BuildLocalDatabase(
    const std::vector<const Alternative*>& chosen) const {
  // Copying the certain core is O(#relations) handle bumps; only the
  // relations this choice actually contributes to are cloned (by the
  // copy-on-write MutableRelation) — every untouched relation stays
  // shared with the core and every other local world.
  Database db = certain_;
  for (const Alternative* alt : chosen) {
    for (const auto& [rel, tuples] : alt->tuples) {
      auto table = db.MutableRelation(rel);
      if (!table.ok()) continue;  // relation dropped; stale contribution
      for (const Tuple& t : tuples) (*table)->AppendUnchecked(t);
    }
  }
  return db;
}

Result<std::vector<World>> DecomposedWorldSet::MaterializeWorlds(
    size_t max_worlds, bool* truncated) const {
  std::vector<World> worlds;
  if (truncated != nullptr) *truncated = false;
  std::vector<const Component*> parts;
  for (const Component& c : components_) parts.push_back(&c);
  const Product product(std::move(parts));
  for (uint64_t i = 0; i < product.size(); ++i) {
    if (worlds.size() >= max_worlds) {
      if (truncated != nullptr) *truncated = true;
      break;
    }
    // Each ordinal materializes one full world (a database copy): charge
    // it against the world budget, which also polls.
    MAYBMS_RETURN_NOT_OK(base::GovernChargeWorlds(1));
    worlds.emplace_back(BuildLocalDatabase(product.Chosen(i)),
                        product.Probability(i));
  }
  return worlds;
}

Result<std::vector<World>> DecomposedWorldSet::TopKWorlds(size_t k) const {
  // Best-first search over the product of per-component alternatives
  // sorted by decreasing probability: the most probable world picks rank
  // 0 everywhere; successors bump one rank. Never enumerates more than
  // O(k * n) states, independent of the total world count.
  const size_t n = components_.size();
  std::vector<std::vector<size_t>> sorted(n);  // rank -> alternative index
  for (size_t c = 0; c < n; ++c) {
    sorted[c].resize(components_[c].size());
    for (size_t j = 0; j < sorted[c].size(); ++j) sorted[c][j] = j;
    std::stable_sort(sorted[c].begin(), sorted[c].end(),
                     [&](size_t a, size_t b) {
                       return components_[c].alternatives[a].probability >
                              components_[c].alternatives[b].probability;
                     });
  }

  auto probability_of = [&](const std::vector<size_t>& ranks) {
    double p = 1.0;
    for (size_t c = 0; c < n; ++c) {
      p *= components_[c].alternatives[sorted[c][ranks[c]]].probability;
    }
    return p;
  };

  struct State {
    double probability;
    std::vector<size_t> ranks;
    bool operator<(const State& other) const {
      return probability < other.probability;  // max-heap
    }
  };
  std::priority_queue<State> frontier;
  std::set<std::vector<size_t>> seen;
  std::vector<size_t> initial(n, 0);
  frontier.push(State{probability_of(initial), initial});
  seen.insert(std::move(initial));

  std::vector<World> top;
  while (!frontier.empty() && top.size() < k) {
    MAYBMS_RETURN_NOT_OK(base::GovernChargeWorlds(1));
    State state = frontier.top();
    frontier.pop();
    std::vector<const Alternative*> chosen;
    chosen.reserve(n);
    for (size_t c = 0; c < n; ++c) {
      chosen.push_back(
          &components_[c].alternatives[sorted[c][state.ranks[c]]]);
    }
    top.emplace_back(BuildLocalDatabase(chosen), state.probability);

    for (size_t c = 0; c < n; ++c) {
      if (state.ranks[c] + 1 >= sorted[c].size()) continue;
      std::vector<size_t> next = state.ranks;
      ++next[c];
      if (seen.insert(next).second) {
        frontier.push(State{probability_of(next), std::move(next)});
      }
    }
  }
  return top;
}

Result<World> DecomposedWorldSet::SampleWorld(base::SplitMix64* rng) const {
  std::uniform_real_distribution<double> uniform(0.0, 1.0);
  std::vector<const Alternative*> chosen;
  chosen.reserve(components_.size());
  double probability = 1.0;
  for (const Component& component : components_) {
    MAYBMS_RETURN_NOT_OK(base::GovernPoll());
    if (component.alternatives.empty()) {
      return Status::EmptyWorldSet("component with no alternatives");
    }
    double u = uniform(*rng);
    double cumulative = 0;
    const Alternative* pick = &component.alternatives.back();
    for (const Alternative& alt : component.alternatives) {
      cumulative += alt.probability;
      if (u <= cumulative) {
        pick = &alt;
        break;
      }
    }
    probability *= pick->probability;
    chosen.push_back(pick);
  }
  return World(BuildLocalDatabase(chosen), probability);
}

Status DecomposedWorldSet::CreateBaseTable(const std::string& name,
                                           const Table& prototype) {
  if (certain_.HasRelation(name)) {
    return Status::AlreadyExists("relation already exists: " + name);
  }
  certain_.PutRelation(name, prototype);
  return Status::OK();
}

Status DecomposedWorldSet::DropRelation(const std::string& name) {
  // Poll BEFORE any mutation: erasing contributions from a prefix of the
  // components and then aborting would tear the set.
  MAYBMS_RETURN_NOT_OK(base::GovernPoll());
  MAYBMS_RETURN_NOT_OK(certain_.DropRelation(name));
  std::string lower = AsciiToLower(name);
  for (Component& c : components_) {
    for (Alternative& alt : c.alternatives) alt.tuples.erase(lower);
  }
  return Status::OK();
}

std::vector<size_t> DecomposedWorldSet::RelevantComponents(
    const std::set<std::string>& relations) const {
  std::vector<size_t> indices;
  for (size_t i = 0; i < components_.size(); ++i) {
    for (const std::string& rel : relations) {
      if (components_[i].ContributesTo(rel)) {
        indices.push_back(i);
        break;
      }
    }
  }
  return indices;
}

std::vector<const Component*> DecomposedWorldSet::Parts(
    const std::vector<size_t>& indices) const {
  std::vector<const Component*> parts;
  parts.reserve(indices.size());
  for (size_t i : indices) parts.push_back(&components_[i]);
  return parts;
}

Status DecomposedWorldSet::ApplyDml(const sql::Statement& stmt,
                                    const Catalog& catalog) {
  std::set<std::string> referenced;
  std::string target;
  switch (stmt.kind) {
    case sql::StatementKind::kInsert: {
      const auto& insert = static_cast<const sql::InsertStatement&>(stmt);
      target = insert.table_name;
      if (insert.query) CollectReferencedRelations(*insert.query, &referenced);
      for (const auto& row : insert.rows) {
        for (const auto& e : row) CollectReferencedRelations(*e, &referenced);
      }
      break;
    }
    case sql::StatementKind::kUpdate: {
      const auto& update = static_cast<const sql::UpdateStatement&>(stmt);
      target = update.table_name;
      if (update.where) CollectReferencedRelations(*update.where, &referenced);
      for (const auto& [col, e] : update.assignments) {
        CollectReferencedRelations(*e, &referenced);
      }
      break;
    }
    case sql::StatementKind::kDelete: {
      const auto& del = static_cast<const sql::DeleteStatement&>(stmt);
      target = del.table_name;
      if (del.where) CollectReferencedRelations(*del.where, &referenced);
      break;
    }
    default:
      return Status::InvalidArgument("not a DML statement");
  }
  referenced.insert(AsciiToLower(target));

  // The statement is planned once against the certain schemas (local
  // worlds share them) and executed per world.
  MAYBMS_ASSIGN_OR_RETURN(engine::PreparedDml plan,
                          engine::PreparedDml::Prepare(stmt, certain_,
                                                       &catalog));

  std::vector<size_t> relevant = RelevantComponents(referenced);
  if (relevant.empty()) {
    // All referenced relations are certain: apply once to the core.
    return plan.Execute(&certain_);
  }

  // General path: the update's effect may differ per world. Merge the
  // relevant components; apply the update in each local world; the target
  // relation becomes per-alternative content: the merged component carries
  // each world's full contents of it, and its certain part becomes empty.
  // Nothing is committed unless every world succeeds.
  MAYBMS_ASSIGN_OR_RETURN(Component merged,
                          MergeComponents(Parts(relevant), max_merge_));
  const std::string target_lower = AsciiToLower(target);
  base::ThreadPool& pool = base::ThreadPool::Shared();
  // A PreparedDml caches per-execution state, so each slot gets its own;
  // slot 0 adopts the plan prepared above (preparation errors already
  // surfaced there, exactly as in the sequential path).
  std::vector<std::optional<engine::PreparedDml>> plans(pool.Slots(threads_));
  plans[0].emplace(std::move(plan));
  MAYBMS_RETURN_NOT_OK(pool.ParallelFor(
      merged.size(), threads_, [&](size_t i, size_t slot, size_t) -> Status {
        if (!plans[slot].has_value()) {
          MAYBMS_ASSIGN_OR_RETURN(
              plans[slot], engine::PreparedDml::Prepare(stmt, certain_,
                                                        &catalog));
        }
        Alternative& alt = merged.alternatives[i];
        Database local = BuildLocalDatabase({&alt});
        // All-or-nothing per world.
        MAYBMS_RETURN_NOT_OK(plans[slot]->Execute(&local));
        MAYBMS_ASSIGN_OR_RETURN(const Table* updated,
                                local.GetRelation(target));
        alt.tuples[target_lower] = updated->rows();
        return Status::OK();
      }));
  // The target's contents moved into the merged component: swap an empty
  // instance into the core instead of cloning a (possibly shared) table
  // just to clear it.
  MAYBMS_ASSIGN_OR_RETURN(const Table* core_table,
                          certain_.GetRelation(target));
  certain_.PutRelation(target, Table(core_table->schema()));

  std::sort(relevant.rbegin(), relevant.rend());
  for (size_t i : relevant) {
    components_.erase(components_.begin() + static_cast<long>(i));
  }
  components_.push_back(std::move(merged));
  return Status::OK();
}

Result<DecomposedWorldSet::PipelineOutput> DecomposedWorldSet::RunPipeline(
    const sql::SelectStatement& stmt, WorldFold* fold) const {
  std::set<std::string> referenced;
  CollectReferencedRelations(stmt, &referenced);
  std::vector<size_t> relevant = RelevantComponents(referenced);
  const bool fans_out = stmt.repair.has_value() || stmt.choice.has_value();
  // assert and group worlds by correlate whole worlds: only the fold
  // answers them.
  const bool whole_worlds =
      stmt.assert_condition != nullptr || stmt.group_worlds_by != nullptr;

  PipelineOutput out;
  if (!whole_worlds && fans_out && relevant.empty()) {
    // Plan the repair/choice source pipeline and the projection once.
    std::unique_ptr<sql::SelectStatement> core = StripWorldOps(stmt);
    MAYBMS_ASSIGN_OR_RETURN(engine::PreparedFromWhere source_plan,
                            engine::PreparedFromWhere::Prepare(stmt, certain_));
    MAYBMS_ASSIGN_OR_RETURN(
        engine::PreparedProjection projection,
        engine::PreparedProjection::Prepare(*core, certain_,
                                            source_plan.output_schema()));
    // The clean product construction: repair creates one component per
    // key group, choice a single component. This is the O(n·g)
    // representation of g^n worlds.
    MAYBMS_ASSIGN_OR_RETURN(Table source, source_plan.Execute(certain_));
    std::vector<PartitionBlock> blocks;
    if (stmt.repair.has_value()) {
      MAYBMS_ASSIGN_OR_RETURN(blocks, RepairPartition(source, *stmt.repair));
    } else {
      MAYBMS_ASSIGN_OR_RETURN(blocks, ChoicePartition(source, *stmt.choice));
    }
    DecomposedResult result{Table(projection.output_schema()), {}};
    for (const PartitionBlock& block : blocks) {
      // Each block becomes one component whose alternatives are this
      // block's choices: charge them as the decomposition's unit of
      // world fan-out (the explicit engine charges the full product;
      // the decomposed representation IS the O(n·g) compression).
      MAYBMS_RETURN_NOT_OK(
          base::GovernChargeWorlds(block.choices.size()));
      Factor factor;
      for (const WeightedChoice& choice : block.choices) {
        std::vector<Tuple> chosen;
        chosen.reserve(choice.row_indices.size());
        for (size_t r : choice.row_indices) chosen.push_back(source.row(r));
        MAYBMS_ASSIGN_OR_RETURN(Table projected,
                                projection.Execute(certain_, chosen));
        MAYBMS_RETURN_NOT_OK(
            base::GovernChargeBytes(base::EstimateTableBytes(
                projected.num_rows(), projected.schema().num_columns())));
        factor.alternatives.emplace_back(choice.probability,
                                         std::move(projected));
      }
      result.factors.push_back(std::move(factor));
    }
    out.decomposed = std::move(result);
  } else if (!whole_worlds && !fans_out && !relevant.empty() &&
             IsSingleRelationScan(stmt, referenced) &&
             IsPerRowSelectList(stmt)) {
    // Fast path: push selection/projection into each alternative — no
    // component merging, component structure preserved.
    std::unique_ptr<sql::SelectStatement> core = StripWorldOps(stmt);
    const std::string rel = AsciiToLower(stmt.from[0].table_name);
    MAYBMS_ASSIGN_OR_RETURN(const Table* base, certain_.GetRelation(rel));
    Schema qualified =
        base->schema().WithQualifier(stmt.from[0].effective_alias());

    // One prepared projection + shared WHERE subquery plans serve the
    // certain rows and every alternative's contribution.
    MAYBMS_ASSIGN_OR_RETURN(
        engine::PreparedProjection projection,
        engine::PreparedProjection::Prepare(*core, certain_, qualified));
    engine::SubqueryPlanCache where_plans;

    DecomposedResult result;
    MAYBMS_ASSIGN_OR_RETURN(
        result.certain,
        FilterProjectRows(*core, certain_, qualified, base->rows(), projection,
                          &where_plans));
    for (size_t idx : relevant) {
      Factor factor{idx, {}};
      factor.alternatives.reserve(components_[idx].size());
      for (const Alternative& alt : components_[idx].alternatives) {
        MAYBMS_RETURN_NOT_OK(base::GovernPoll());
        const std::vector<Tuple>* rows = alt.TuplesFor(rel);
        Table projected;
        if (rows == nullptr) {
          projected = Table(projection.output_schema());
        } else {
          MAYBMS_ASSIGN_OR_RETURN(
              projected, FilterProjectRows(*core, certain_, qualified, *rows,
                                           projection, &where_plans));
          MAYBMS_RETURN_NOT_OK(
              base::GovernChargeBytes(base::EstimateTableBytes(
                  projected.num_rows(), projected.schema().num_columns())));
        }
        factor.alternatives.emplace_back(alt.probability,
                                         std::move(projected));
      }
      result.factors.push_back(std::move(factor));
    }
    out.decomposed = std::move(result);
  } else if (!whole_worlds && !fans_out && !relevant.empty() &&
             stmt.quantifier != sql::WorldQuantifier::kNone &&
             IsSingleRelationScan(stmt, referenced) &&
             IsFoldableAggregateList(stmt)) {
    MAYBMS_ASSIGN_OR_RETURN(
        out.decomposed,
        FoldAggregates(stmt, certain_, Parts(relevant), max_merge_));
  }
  if (out.decomposed.has_value()) {
    if (stmt.quantifier != sql::WorldQuantifier::kNone) {
      MAYBMS_ASSIGN_OR_RETURN(out.eval.combined,
                              CombineFactors(stmt.quantifier,
                                             *out.decomposed));
    }
    return out;
  }

  // Derive the worlds from the relevant product's ordinals: local world i
  // is the certain core plus ordinal i's alternatives, and the product
  // itself is never materialized. With no relevant component it is the
  // certain core alone, one world. The core is planned once per slot
  // against the shared schemas (local worlds only append rows).
  out.certain = !fans_out && relevant.empty();
  out.replaced = relevant;
  MAYBMS_ASSIGN_OR_RETURN(const Product source,
                          MergeProduct(Parts(relevant), max_merge_));
  InputWorlds inputs{
      source.size(),
      [this, &source](size_t i, Database* scratch) -> const Database& {
        *scratch = BuildLocalDatabase(source.Chosen(i));
        return *scratch;
      },
      [&source](size_t i) { return source.Probability(i); }};
  MAYBMS_RETURN_NOT_OK(EnumerateWorlds(
      inputs, stmt,
      max_merge_ == 0 ? std::numeric_limits<uint64_t>::max() : max_merge_,
      relevant.empty()
          ? MergeCapExceeded(max_merge_).message()
          : "repair/choice over an uncertain source exceeds the merge cap "
            "of " + std::to_string(max_merge_) + " alternatives",
      threads_, fold));
  MAYBMS_ASSIGN_OR_RETURN(out.eval, fold->Finish());
  return out;
}

Result<SelectEvaluation> DecomposedWorldSet::EvaluateSelect(
    const sql::SelectStatement& stmt, size_t max_worlds) const {
  MAYBMS_ASSIGN_OR_RETURN(WorldFold fold,
                          WorldFold::ForSelect(stmt, threads_));
  MAYBMS_ASSIGN_OR_RETURN(PipelineOutput out, RunPipeline(stmt, &fold));
  SelectEvaluation eval = std::move(out.eval);
  if (!out.decomposed.has_value()) {
    MAYBMS_RETURN_NOT_OK(fold.ListWorlds(max_worlds, &eval));
  } else if (!eval.combined.has_value()) {
    MAYBMS_RETURN_NOT_OK(
        ListFactorWorlds(*out.decomposed, max_worlds, &eval));
  }
  return eval;
}

Status DecomposedWorldSet::MaterializeSelect(const std::string& name,
                                             const sql::SelectStatement& stmt) {
  if (HasRelation(name)) {
    return Status::AlreadyExists("relation already exists: " + name);
  }
  MAYBMS_ASSIGN_OR_RETURN(WorldFold fold,
                          WorldFold::Create(stmt, name, threads_,
                                            WorldFold::Keep::kAnswers));
  MAYBMS_ASSIGN_OR_RETURN(PipelineOutput out, RunPipeline(stmt, &fold));
  const std::string lower = AsciiToLower(name);
  std::optional<Table>& combined = out.eval.combined;
  std::vector<FoldedWorld>& kept = fold.worlds();

  if (combined.has_value() && !stmt.assert_condition) {
    // The quantifier collapsed the answer to a certain relation and no
    // world was dropped: the decomposition keeps its structure.
    certain_.PutRelation(name, std::move(*combined));
    return Status::OK();
  }
  if (out.certain) {
    certain_.PutRelation(name, std::move(kept.front().answer));
    return Status::OK();
  }
  if (!out.decomposed.has_value()) {
    // The kept worlds replace the components they derive from, each
    // storing its answer (or, under a quantifier, nothing: the combined
    // answer is certain). All are built before any component changes:
    // the product points into components_.
    Component derived;
    derived.alternatives.reserve(kept.size());
    for (const Product source(Parts(out.replaced)); FoldedWorld& world : kept) {
      MAYBMS_RETURN_NOT_OK(base::GovernPoll());
      Alternative& alt =
          derived.alternatives.emplace_back(source.Merged(world.input));
      alt.probability = world.probability;
      if (!combined.has_value()) alt.tuples[lower] = world.answer->rows();
    }
    std::sort(out.replaced.rbegin(), out.replaced.rend());
    for (size_t i : out.replaced) {
      components_.erase(components_.begin() + static_cast<long>(i));
    }
    certain_.PutRelation(
        name, combined.has_value()
                  ? std::move(*combined)
                  : Table(kept.empty() ? Schema() : kept[0].answer->schema()));
    components_.push_back(std::move(derived));
    return Status::OK();
  }

  // Decomposed result: every factor's alternatives store their answers
  // under the new name, in the component the factor mirrors or in a new
  // one appended for it.
  DecomposedResult& dec = *out.decomposed;
  certain_.PutRelation(name, std::move(dec.certain));
  for (Factor& factor : dec.factors) {
    if (!factor.component.has_value()) {
      factor.component = components_.size();
      components_.emplace_back().alternatives.resize(
          factor.alternatives.size());
    }
    Component& comp = components_[*factor.component];
    for (size_t j = 0; j < factor.alternatives.size(); ++j) {
      auto& [probability, answer] = factor.alternatives[j];
      comp.alternatives[j].probability = probability;
      comp.alternatives[j].tuples[lower] = std::move(*answer.mutable_rows());
    }
  }
  return Status::OK();
}

Result<storage::DurableSnapshot> DecomposedWorldSet::ToSnapshot() const {
  storage::DurableSnapshot snapshot;
  snapshot.engine = EngineName();
  // The certain core is the only place relation instances (and schemas)
  // live; components carry schema-less per-alternative extra tuples.
  std::map<const Table*, size_t> index;
  for (const std::string& name : certain_.RelationNames()) {
    MAYBMS_ASSIGN_OR_RETURN(Database::TableHandle handle,
                            certain_.GetRelationHandle(name));
    auto [it, inserted] = index.emplace(handle.get(), snapshot.tables.size());
    if (inserted) snapshot.tables.push_back(std::move(handle));
    snapshot.certain.push_back({name, it->second});
  }
  snapshot.components.reserve(components_.size());
  for (const Component& component : components_) {
    MAYBMS_RETURN_NOT_OK(base::GovernPoll());
    storage::DurableSnapshot::ComponentRef component_ref;
    component_ref.alternatives.reserve(component.alternatives.size());
    for (const Alternative& alt : component.alternatives) {
      storage::DurableSnapshot::AlternativeRef alt_ref;
      alt_ref.probability = alt.probability;
      // std::map iteration: contributions in sorted-key order, restored
      // into the same sorted map — deterministic round trip.
      for (const auto& [relation, tuples] : alt.tuples) {
        alt_ref.contributions.emplace_back(relation, tuples);
      }
      component_ref.alternatives.push_back(std::move(alt_ref));
    }
    snapshot.components.push_back(std::move(component_ref));
  }
  return snapshot;
}

Status DecomposedWorldSet::FromSnapshot(
    const storage::DurableSnapshot& snapshot) {
  if (snapshot.engine != EngineName()) {
    return Status::InvalidArgument(
        "cannot restore a '" + snapshot.engine +
        "' snapshot into the decomposed engine");
  }
  Database certain;
  for (const auto& relation : snapshot.certain) {
    if (relation.table_index >= snapshot.tables.size()) {
      return Status::DataLoss(
          "decomposed snapshot restore: table index out of range");
    }
    certain.PutRelation(relation.name, snapshot.tables[relation.table_index]);
  }
  std::vector<Component> components;
  components.reserve(snapshot.components.size());
  for (const auto& component_ref : snapshot.components) {
    // Builds locals and swaps at the end — a poll abort here cannot tear
    // the live set. The post-commit reload runs shielded (see
    // isql::Session::PersistAndReload).
    MAYBMS_RETURN_NOT_OK(base::GovernPoll());
    if (component_ref.alternatives.empty()) {
      return Status::DataLoss(
          "decomposed snapshot restore: component with no alternatives");
    }
    Component component;
    component.alternatives.reserve(component_ref.alternatives.size());
    for (const auto& alt_ref : component_ref.alternatives) {
      Alternative alt;
      // Probabilities adopted verbatim — no Normalize() — so restored
      // world probabilities are bit-identical.
      alt.probability = alt_ref.probability;
      for (const auto& [relation, tuples] : alt_ref.contributions) {
        alt.tuples[relation] = tuples;
      }
      component.alternatives.push_back(std::move(alt));
    }
    components.push_back(std::move(component));
  }
  certain_ = std::move(certain);
  components_ = std::move(components);
  return Status::OK();
}

}  // namespace maybms::worlds
