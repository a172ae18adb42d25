#include "worlds/world_set.h"

#include <optional>
#include <utility>

#include "base/query_context.h"
#include "base/string_util.h"
#include "base/thread_pool.h"
#include "engine/executor.h"
#include "engine/expr_eval.h"
#include "engine/prepared.h"
#include "worlds/combiner.h"
#include "worlds/component.h"
#include "worlds/partition.h"

namespace maybms::worlds {

Status ValidateWorldOps(const sql::SelectStatement& stmt) {
  if ((stmt.repair.has_value() || stmt.choice.has_value()) &&
      stmt.union_next) {
    return Status::Unsupported(
        "repair by key / choice of cannot be combined with UNION");
  }
  if (stmt.repair.has_value() && stmt.choice.has_value()) {
    return Status::Unsupported(
        "repair by key and choice of cannot be combined in one statement");
  }
  if (stmt.union_next && engine::HasWorldOps(*stmt.union_next)) {
    return Status::Unsupported(
        "world-set operations are not allowed in UNION branches");
  }
  return Status::OK();
}

void CollectReferencedRelations(const sql::Expr& expr,
                                std::set<std::string>* out) {
  if (expr.kind == sql::ExprKind::kInSubquery) {
    CollectReferencedRelations(
        *static_cast<const sql::InSubqueryExpr&>(expr).subquery, out);
  } else if (expr.kind == sql::ExprKind::kExists) {
    CollectReferencedRelations(
        *static_cast<const sql::ExistsExpr&>(expr).subquery, out);
  } else if (expr.kind == sql::ExprKind::kScalarSubquery) {
    CollectReferencedRelations(
        *static_cast<const sql::ScalarSubqueryExpr&>(expr).subquery, out);
  }
  engine::ForEachChildExpr(expr, [out](const sql::Expr& child) {
    CollectReferencedRelations(child, out);
  });
}

void CollectReferencedRelations(const sql::SelectStatement& stmt,
                                std::set<std::string>* out) {
  for (const sql::TableRef& ref : stmt.from) {
    out->insert(AsciiToLower(ref.table_name));
  }
  for (const sql::JoinClause& join : stmt.joins) {
    out->insert(AsciiToLower(join.table.table_name));
    if (join.on) CollectReferencedRelations(*join.on, out);
  }
  for (const sql::SelectItem& item : stmt.items) {
    if (item.expr) CollectReferencedRelations(*item.expr, out);
  }
  if (stmt.where) CollectReferencedRelations(*stmt.where, out);
  for (const auto& g : stmt.group_by) CollectReferencedRelations(*g, out);
  if (stmt.having) CollectReferencedRelations(*stmt.having, out);
  for (const auto& o : stmt.order_by) CollectReferencedRelations(*o.expr, out);
  if (stmt.assert_condition) {
    CollectReferencedRelations(*stmt.assert_condition, out);
  }
  if (stmt.group_worlds_by) CollectReferencedRelations(*stmt.group_worlds_by, out);
  if (stmt.union_next) CollectReferencedRelations(*stmt.union_next, out);
}

std::unique_ptr<sql::SelectStatement> StripWorldOps(
    const sql::SelectStatement& stmt) {
  std::unique_ptr<sql::SelectStatement> core = stmt.Clone();
  core->quantifier = sql::WorldQuantifier::kNone;
  core->repair.reset();
  core->choice.reset();
  core->assert_condition.reset();
  core->group_worlds_by.reset();
  return core;
}

bool FoldsWorlds(const sql::SelectStatement& stmt) {
  return stmt.quantifier != sql::WorldQuantifier::kNone;
}

namespace {

/// Memory-budget charge for one per-world answer: every derived world pays
/// it exactly once, whoever consumes the answer.
Status ChargeAnswer(const Table& answer) {
  return base::GovernChargeBytes(base::EstimateTableBytes(
      answer.num_rows(), answer.schema().num_columns()));
}

}  // namespace

Status EnumerateWorlds(const InputWorlds& inputs,
                       const sql::SelectStatement& stmt, uint64_t cap,
                       const std::string& cap_error, size_t threads,
                       WorldFold* fold) {
  base::ThreadPool& pool = base::ThreadPool::Shared();
  std::unique_ptr<sql::SelectStatement> core = StripWorldOps(stmt);
  // Plans lazily build subquery-plan caches during Execute, so each thread
  // slot owns its own, prepared at the slot's first world. Preparation is
  // schema-only and every world shares one schema catalog, so a failing
  // preparation fails at world 0 first — the sequential error.
  if (!stmt.repair.has_value() && !stmt.choice.has_value()) {
    std::vector<std::optional<engine::PreparedSelect>> plans(
        pool.Slots(threads));
    fold->Begin(inputs.size);
    MAYBMS_RETURN_NOT_OK(pool.ParallelFor(
        inputs.size, threads,
        [&](size_t i, size_t slot, size_t chunk) -> Status {
          Database scratch;
          const Database& db = inputs.db(i, &scratch);
          if (!plans[slot].has_value()) {
            MAYBMS_ASSIGN_OR_RETURN(plans[slot],
                                    engine::PreparedSelect::Prepare(*core, db));
          }
          MAYBMS_ASSIGN_OR_RETURN(Table answer, plans[slot]->Execute(db));
          MAYBMS_RETURN_NOT_OK(ChargeAnswer(answer));
          return fold->Feed(i, i, slot, chunk, inputs.probability(i), db,
                            std::move(answer));
        }));
    return fold->End();
  }

  std::optional<engine::PreparedFromWhere> source_plan;
  std::vector<std::optional<engine::PreparedProjection>> projections(
      pool.Slots(threads));
  uint64_t produced = 0;
  for (size_t w = 0; w < inputs.size; ++w) {
    MAYBMS_RETURN_NOT_OK(base::GovernPoll());
    Database scratch;
    const Database& db = inputs.db(w, &scratch);
    if (!source_plan.has_value()) {
      MAYBMS_ASSIGN_OR_RETURN(source_plan,
                              engine::PreparedFromWhere::Prepare(stmt, db));
    }
    MAYBMS_ASSIGN_OR_RETURN(Table source, source_plan->Execute(db));
    std::vector<PartitionBlock> blocks;
    if (stmt.repair.has_value()) {
      MAYBMS_ASSIGN_OR_RETURN(blocks, RepairPartition(source, *stmt.repair));
    } else {
      MAYBMS_ASSIGN_OR_RETURN(blocks, ChoicePartition(source, *stmt.choice));
    }
    // Checked against the cap before any combination runs.
    Product fan;
    for (const PartitionBlock& b : blocks) fan.AddPart(b.choices.size());
    if (fan.Exceeds(cap - produced)) return Status::Unsupported(cap_error);
    const uint64_t combos = fan.size();
    produced += combos;
    // The fan-out is THE world-budget charge site: combos derived worlds
    // come into existence here whichever pipeline consumes them.
    MAYBMS_RETURN_NOT_OK(base::GovernChargeWorlds(combos));

    const double probability = inputs.probability(w);
    fold->Begin(combos);
    MAYBMS_RETURN_NOT_OK(pool.ParallelFor(
        combos, threads, [&](size_t c, size_t slot, size_t chunk) -> Status {
          if (!projections[slot].has_value()) {
            MAYBMS_ASSIGN_OR_RETURN(projections[slot],
                                    engine::PreparedProjection::Prepare(
                                        *core, db,
                                        source_plan->output_schema()));
          }
          // Combination c picks choice d of block b. An empty block list
          // (repair of an empty relation) yields exactly the single empty
          // choice c == 0.
          double prob = probability;
          std::vector<Tuple> chosen;
          fan.Decode(c, [&](size_t b, size_t d) {
            const WeightedChoice& choice = blocks[b].choices[d];
            prob *= choice.probability;
            for (size_t r : choice.row_indices) chosen.push_back(source.row(r));
          });
          MAYBMS_ASSIGN_OR_RETURN(Table answer,
                                  projections[slot]->Execute(db, chosen));
          MAYBMS_RETURN_NOT_OK(ChargeAnswer(answer));
          return fold->Feed(w, c, slot, chunk, prob, db, std::move(answer));
        }));
    MAYBMS_RETURN_NOT_OK(fold->End());
  }
  return Status::OK();
}

Table CanonicalizeGroupKey(const Table& table) { return table.SortedDistinct(); }

}  // namespace maybms::worlds
