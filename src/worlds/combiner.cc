#include "worlds/combiner.h"

#include <algorithm>
#include <set>
#include <utility>

#include "base/query_context.h"
#include "base/string_util.h"
#include "base/thread_pool.h"
#include "engine/executor.h"
#include "engine/expr_eval.h"
#include "types/value.h"

namespace maybms::worlds {

Result<QuantifierCombiner> QuantifierCombiner::Create(
    sql::WorldQuantifier quantifier) {
  switch (quantifier) {
    case sql::WorldQuantifier::kPossible:
    case sql::WorldQuantifier::kCertain:
    case sql::WorldQuantifier::kConf:
      return QuantifierCombiner(quantifier);
    case sql::WorldQuantifier::kNone:
      break;
  }
  return Status::InvalidArgument(
      "group worlds by requires possible, certain, or conf");
}

void QuantifierCombiner::Feed(double probability, const Table& table) {
  ++worlds_fed_;
  if (!saw_schema_) {
    first_schema_ = table.schema();
    saw_schema_ = true;
  }
  if (value_schema_.num_columns() == 0 && table.schema().num_columns() > 0) {
    value_schema_ = table.schema();
  }
  if (quantifier_ == sql::WorldQuantifier::kConf && !table.empty()) {
    nonempty_prob_ += probability;
  }
  for (const Tuple& row : table.rows()) {
    auto [it, inserted] = acc_.try_emplace(row);
    Accum& entry = it->second;
    if (!inserted && entry.last_world == worlds_fed_) continue;  // in-world dup
    entry.last_world = worlds_fed_;
    ++entry.worlds_seen;
    entry.conf += probability;
  }
}

void QuantifierCombiner::Merge(QuantifierCombiner&& other) {
  if (!saw_schema_ && other.saw_schema_) {
    first_schema_ = std::move(other.first_schema_);
    saw_schema_ = true;
  }
  if (value_schema_.num_columns() == 0 &&
      other.value_schema_.num_columns() > 0) {
    value_schema_ = std::move(other.value_schema_);
  }
  nonempty_prob_ += other.nonempty_prob_;
  // `other`'s worlds come after ours in the merged ordinal space, so its
  // 1-based last_world stamps shift by our pre-merge worlds_fed_. The
  // shifted stamp is always the newer one (> worlds_fed_ >= any existing
  // stamp), which keeps in-world dup detection correct for future Feeds.
  const size_t shift = worlds_fed_;
  for (auto& [row, entry] : other.acc_) {
    auto [it, inserted] = acc_.try_emplace(row);
    Accum& mine = it->second;
    mine.conf += entry.conf;
    mine.worlds_seen += entry.worlds_seen;
    mine.last_world = entry.last_world + shift;
  }
  worlds_fed_ += other.worlds_fed_;
}

Result<Table> QuantifierCombiner::Finish(double normalizer) {
  // Zero total surviving mass (assert killed every world, or every sample
  // weight was 0) has no well-defined conf distribution — fail cleanly
  // instead of emitting NaN confidences. possible/certain never divide.
  if (quantifier_ == sql::WorldQuantifier::kConf && !(normalizer > 0)) {
    return Status::EmptyWorldSet(
        "conf is undefined over zero total probability mass");
  }
  // Deterministic emission order: the tuple total order.
  std::vector<std::pair<const Tuple*, const Accum*>> ordered;
  ordered.reserve(acc_.size());
  for (const auto& [row, entry] : acc_) {
    if (quantifier_ == sql::WorldQuantifier::kCertain &&
        entry.worlds_seen != worlds_fed_) {
      continue;  // missed at least one world
    }
    ordered.emplace_back(&row, &entry);
  }
  std::sort(ordered.begin(), ordered.end(),
            [](const auto& a, const auto& b) { return *a.first < *b.first; });

  switch (quantifier_) {
    case sql::WorldQuantifier::kPossible:
    case sql::WorldQuantifier::kCertain: {
      if (!saw_schema_) return Table();  // no worlds fed
      Table out(first_schema_);
      for (const auto& e : ordered) out.AppendUnchecked(*e.first);
      return out;
    }
    case sql::WorldQuantifier::kConf: {
      // 0-column answers: confidence that the answer is non-empty.
      if (value_schema_.num_columns() == 0) {
        Schema schema;
        schema.AddColumn(Column("conf", DataType::kReal));
        Table out(std::move(schema));
        out.AppendUnchecked(Tuple({Value::Real(nonempty_prob_ / normalizer)}));
        return out;
      }
      Schema schema = value_schema_;
      schema.AddColumn(Column("conf", DataType::kReal));
      Table out(std::move(schema));
      for (const auto& e : ordered) {
        Tuple extended = *e.first;
        extended.Append(Value::Real(e.second->conf / normalizer));
        out.AppendUnchecked(std::move(extended));
      }
      return out;
    }
    case sql::WorldQuantifier::kNone:
      break;
  }
  return Status::InvalidArgument(
      "group worlds by requires possible, certain, or conf");
}

GroupedQuantifierCombiner::GroupedQuantifierCombiner(
    sql::WorldQuantifier quantifier)
    : quantifier_(quantifier) {}

Result<GroupedQuantifierCombiner::GroupAccum*>
GroupedQuantifierCombiner::Group(Table key) {
  auto it = groups_.find(key.rows());
  if (it == groups_.end()) {
    // Create the combiner BEFORE inserting the group entry: a kNone
    // quantifier must fail without leaving a combinerless GroupAccum
    // behind for Finish() to trip over.
    MAYBMS_ASSIGN_OR_RETURN(QuantifierCombiner combiner,
                            QuantifierCombiner::Create(quantifier_));
    GroupAccum fresh;
    fresh.combiner.emplace(std::move(combiner));
    std::vector<Tuple> rows = key.rows();
    fresh.key_table = std::move(key);
    it = groups_.emplace(std::move(rows), std::move(fresh)).first;
  }
  return &it->second;
}

Status GroupedQuantifierCombiner::Feed(double probability, const Table& answer,
                                       Table key) {
  MAYBMS_ASSIGN_OR_RETURN(GroupAccum * group, Group(std::move(key)));
  group->combiner->Feed(probability, answer);
  group->mass += probability;
  total_mass_ += probability;
  return Status::OK();
}

Status GroupedQuantifierCombiner::Merge(GroupedQuantifierCombiner&& other) {
  for (auto& [key, group] : other.groups_) {
    MAYBMS_ASSIGN_OR_RETURN(GroupAccum * mine,
                            Group(std::move(group.key_table)));
    mine->combiner->Merge(std::move(*group.combiner));
    mine->mass += group.mass;
  }
  total_mass_ += other.total_mass_;
  return Status::OK();
}

Result<std::vector<SelectEvaluation::GroupResult>>
GroupedQuantifierCombiner::Finish() {
  std::vector<SelectEvaluation::GroupResult> out;
  out.reserve(groups_.size());
  for (auto& [key, group] : groups_) {
    MAYBMS_ASSIGN_OR_RETURN(
        Table combined,
        group.combiner->Finish(group.mass > 0 ? group.mass : 1.0));
    out.push_back(SelectEvaluation::GroupResult{
        total_mass_ > 0 ? group.mass / total_mass_ : 0,
        std::move(group.key_table), std::move(combined)});
  }
  return out;
}

Result<WorldFold> WorldFold::Create(const sql::SelectStatement& stmt,
                                    std::string result_name, size_t threads,
                                    Keep keep) {
  MAYBMS_RETURN_NOT_OK(ValidateWorldOps(stmt));
  WorldFold fold(stmt, std::move(result_name));
  if (stmt.group_worlds_by && engine::HasWorldOps(*stmt.group_worlds_by)) {
    return Status::Unsupported(
        "the GROUP WORLDS BY query must be a plain SQL query");
  }
  if (stmt.group_worlds_by || stmt.quantifier != sql::WorldQuantifier::kNone) {
    // Also rejects group worlds by without a quantifier.
    MAYBMS_ASSIGN_OR_RETURN(QuantifierCombiner combiner,
                            QuantifierCombiner::Create(stmt.quantifier));
    if (stmt.group_worlds_by) {
      fold.grouped_.emplace(stmt.quantifier);
    } else {
      fold.combiner_.emplace(std::move(combiner));
    }
  }
  std::set<std::string> refs;
  if (stmt.assert_condition) {
    CollectReferencedRelations(*stmt.assert_condition, &refs);
  }
  if (stmt.group_worlds_by) {
    CollectReferencedRelations(*stmt.group_worlds_by, &refs);
  }
  fold.reads_answer_ = refs.count(AsciiToLower(fold.result_name_)) > 0;
  fold.keep_ = keep;
  fold.slots_.resize(base::ThreadPool::Shared().Slots(threads));
  return fold;
}

void WorldFold::Begin(size_t n) {
  chunks_.clear();
  chunks_.resize(base::ThreadPool::NumChunks(n));
  if (keep_ != Keep::kNothing) batch_.resize(n);
}

Status WorldFold::Feed(size_t input, size_t index, size_t slot, size_t chunk,
                       double probability, const Database& db, Table answer) {
  const sql::SelectStatement& stmt = *stmt_;
  // The answer outlives this call only when a database copy exposes it or
  // a kept world stores it; otherwise it dies here.
  const bool keeps = keep_ != Keep::kNothing;
  std::shared_ptr<Table> held;
  if (reads_answer_ ||
      (keeps && stmt.quantifier == sql::WorldQuantifier::kNone)) {
    held = std::make_shared<Table>(std::move(answer));
  }
  const Table& result = held ? *held : answer;
  std::optional<Database> exposed;
  if (reads_answer_) {
    exposed.emplace(db);
    exposed->PutRelation(result_name_, held);
  }
  const Database& world = exposed ? *exposed : db;

  Slot& scratch = slots_[slot];
  if (stmt.assert_condition) {
    engine::SubqueryCache cache(&scratch.assert_plans);
    engine::EvalContext ctx{&world, nullptr, nullptr, nullptr, nullptr,
                            &cache};
    MAYBMS_ASSIGN_OR_RETURN(Trivalent keep,
                            engine::EvalPredicate(*stmt.assert_condition, ctx));
    if (keep != Trivalent::kTrue) return Status::OK();
  }
  Chunk& acc = chunks_[chunk];
  acc.mass += probability;
  ++acc.survivors;
  std::vector<Tuple> group_key;
  if (stmt.group_worlds_by) {
    if (!scratch.group_plan.has_value()) {
      MAYBMS_ASSIGN_OR_RETURN(
          scratch.group_plan,
          engine::PreparedSelect::Prepare(*stmt.group_worlds_by, world));
    }
    MAYBMS_ASSIGN_OR_RETURN(Table key_answer,
                            scratch.group_plan->Execute(world));
    Table key = CanonicalizeGroupKey(key_answer);
    if (keeps) group_key = key.rows();
    if (!acc.grouped.has_value()) acc.grouped.emplace(stmt.quantifier);
    MAYBMS_RETURN_NOT_OK(acc.grouped->Feed(probability, result,
                                              std::move(key)));
  } else if (combiner_.has_value()) {
    if (!acc.combiner.has_value()) {
      MAYBMS_ASSIGN_OR_RETURN(acc.combiner,
                              QuantifierCombiner::Create(stmt.quantifier));
    }
    acc.combiner->Feed(probability, result);
  }
  if (keeps) {
    Kept kept{FoldedWorld{input, probability, std::move(held), Database()},
              std::move(group_key)};
    if (keep_ == Keep::kWorlds) {
      // Built here, as the worlds are fed — not in a later pass — so each
      // derived world's catalog is allocated next to its answer.
      if (exposed.has_value()) {
        kept.world.db = std::move(*exposed);
      } else {
        kept.world.db = db;
        if (kept.world.answer) {
          kept.world.db.PutRelation(result_name_, kept.world.answer);
        }
      }
    }
    batch_[index] = std::move(kept);
  }
  return Status::OK();
}

Status WorldFold::End() {
  for (Chunk& acc : chunks_) {
    if (acc.combiner.has_value()) combiner_->Merge(std::move(*acc.combiner));
    if (acc.grouped.has_value()) {
      MAYBMS_RETURN_NOT_OK(grouped_->Merge(std::move(*acc.grouped)));
    }
    mass_ += acc.mass;
    survivors_ += acc.survivors;
  }
  chunks_.clear();
  for (std::optional<Kept>& kept : batch_) {
    if (!kept.has_value()) continue;
    kept_.push_back(std::move(kept->world));
    if (stmt_->group_worlds_by) kept_keys_.push_back(std::move(kept->group_key));
  }
  batch_.clear();
  return Status::OK();
}

Result<SelectEvaluation> WorldFold::Finish() {
  const bool asserted = stmt_->assert_condition != nullptr;
  if (asserted && survivors_ == 0) {
    return Status::EmptyWorldSet("assert eliminated every world");
  }
  SelectEvaluation eval;
  if (grouped_.has_value()) {
    MAYBMS_ASSIGN_OR_RETURN(eval.groups, grouped_->Finish());
  } else if (combiner_.has_value()) {
    // Fed weights are pre-assert probabilities: renormalize over the
    // surviving mass (positive, since survivors have positive
    // probability).
    MAYBMS_ASSIGN_OR_RETURN(eval.combined,
                            combiner_->Finish(asserted ? mass_ : 1.0));
  }
  if (keep_ == Keep::kNothing) return eval;

  if (asserted) {
    // Renormalize the kept worlds, summing in feed order.
    double total = 0;
    for (const FoldedWorld& kept : kept_) total += kept.probability;
    // World probabilities are positive (see worlds/partition.cc), so
    // survivors imply total > 0; dividing by zero would poison every
    // downstream confidence with NaN.
    if (!(total > 0)) {
      return Status::EmptyWorldSet("assert leaves no probability mass");
    }
    for (FoldedWorld& kept : kept_) kept.probability /= total;
  }
  if (eval.combined.has_value() || !eval.groups.empty()) {
    // Each kept world stores the combined answer — one shared instance —
    // or its group's answer, shared by the group.
    auto combined = eval.combined.has_value()
                        ? std::make_shared<Table>(*eval.combined)
                        : nullptr;
    std::map<std::vector<Tuple>, std::shared_ptr<Table>> by_key;
    for (const SelectEvaluation::GroupResult& group : eval.groups) {
      by_key.emplace(group.key.rows(), std::make_shared<Table>(group.table));
    }
    for (size_t i = 0; i < kept_.size(); ++i) {
      FoldedWorld& kept = kept_[i];
      kept.answer = combined ? combined : by_key.at(kept_keys_[i]);
      if (keep_ == Keep::kWorlds) {
        kept.db.PutRelation(result_name_, kept.answer);
      }
    }
  }
  return eval;
}

Status WorldFold::ListWorlds(size_t max_worlds, SelectEvaluation* eval) {
  eval->truncated = kept_.size() > max_worlds;
  for (FoldedWorld& kept : kept_) {
    if (eval->per_world.size() == max_worlds) break;
    MAYBMS_RETURN_NOT_OK(base::GovernPoll());
    eval->per_world.emplace_back(kept.probability, std::move(*kept.answer));
  }
  return Status::OK();
}

}  // namespace maybms::worlds
