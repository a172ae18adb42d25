// White-box tests of the DecomposedWorldSet: component structure created
// by the I-SQL operations, the selection/projection fast path (no
// merging), and the compactness guarantees that are the point of WSDs.

#include "worlds/decomposed_world_set.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>
#include <vector>

#include "isql/session.h"
#include "sql/parser.h"
#include "tests/test_util.h"

namespace maybms::worlds {
namespace {

using isql::EngineMode;
using isql::QueryResult;
using isql::Session;
using isql::SessionOptions;
using maybms::testing::Exec;
using maybms::testing::ExecScript;

const DecomposedWorldSet& Wsd(const Session& session) {
  return static_cast<const DecomposedWorldSet&>(session.world_set());
}

SessionOptions DecomposedOptions() {
  SessionOptions options;
  options.engine = EngineMode::kDecomposed;
  options.max_display_worlds = 1 << 20;
  return options;
}

TEST(DecomposedWorldSetTest, RepairCreatesOneComponentPerKeyGroup) {
  Session session(DecomposedOptions());
  maybms::testing::LoadFigure1(session);
  Exec(session,
       "create table I as select A, B, C from R repair by key A weight D;");
  const DecomposedWorldSet& wsd = Wsd(session);
  EXPECT_EQ(wsd.num_components(), 3u);  // key groups a1, a2, a3
  EXPECT_EQ(wsd.NumWorlds(), 4u);       // 2 * 2 * 1
}

TEST(DecomposedWorldSetTest, ChoiceOfCreatesSingleComponent) {
  Session session(DecomposedOptions());
  maybms::testing::LoadFigure1(session);
  Exec(session, "create table P as select * from S choice of E;");
  const DecomposedWorldSet& wsd = Wsd(session);
  EXPECT_EQ(wsd.num_components(), 1u);
  EXPECT_EQ(wsd.NumWorlds(), 2u);
}

TEST(DecomposedWorldSetTest, SelectionFastPathPreservesComponents) {
  Session session(DecomposedOptions());
  maybms::testing::LoadFigure1(session);
  Exec(session,
       "create table I as select A, B, C from R repair by key A weight D;");
  ASSERT_EQ(Wsd(session).num_components(), 3u);
  // A selection over I decomposes per alternative: no merge, still three
  // components afterwards, worlds unchanged.
  Exec(session, "create table D as select A, B from I where B >= 15;");
  EXPECT_EQ(Wsd(session).num_components(), 3u);
  EXPECT_EQ(Wsd(session).NumWorlds(), 4u);
}

TEST(DecomposedWorldSetTest, AggregateQueryMergesOnlyRelevantComponents) {
  Session session(DecomposedOptions());
  maybms::testing::LoadFigure1(session);
  Exec(session,
       "create table I as select A, B, C from R repair by key A weight D;");
  Exec(session, "create table P as select * from S choice of E;");
  ASSERT_EQ(Wsd(session).num_components(), 4u);
  // sum(B) over I requires merging I's three components, but P's
  // component must remain untouched.
  Exec(session, "create table Sums as select sum(B) as S from I;");
  EXPECT_EQ(Wsd(session).num_components(), 2u)
      << "I's 3 components merged into 1; P's untouched";
  EXPECT_EQ(Wsd(session).NumWorlds(), 8u);  // 4 (merged) * 2 (P)
}

TEST(DecomposedWorldSetTest, QuantifierQueryLeavesStructureUnchanged) {
  Session session(DecomposedOptions());
  maybms::testing::LoadFigure1(session);
  Exec(session,
       "create table I as select A, B, C from R repair by key A weight D;");
  // possible/certain/conf produce certain answers: materializing them
  // must not merge anything.
  Exec(session, "create table PB as select possible B from I;");
  Exec(session, "create table CB as select certain B from I;");
  Exec(session, "create table KB as select conf, B from I;");
  EXPECT_EQ(Wsd(session).num_components(), 3u);
}

TEST(DecomposedWorldSetTest, ExponentialWorldsLinearSpace) {
  // The ICDE'07 headline: n key groups of g alternatives = g^n worlds in
  // O(n*g) components. 40 groups of 2 would be ~10^12 worlds.
  Session session(DecomposedOptions());
  Exec(session, "create table R (K integer, V integer);");
  std::string values;
  for (int k = 0; k < 40; ++k) {
    for (int v = 0; v < 2; ++v) {
      if (!values.empty()) values += ", ";
      values += "(" + std::to_string(k) + ", " + std::to_string(v) + ")";
    }
  }
  Exec(session, "insert into R values " + values + ";");
  Exec(session, "create table I as select * from R repair by key K;");

  const DecomposedWorldSet& wsd = Wsd(session);
  EXPECT_EQ(wsd.num_components(), 40u);
  EXPECT_NEAR(wsd.Log10NumWorlds(), 40 * std::log10(2.0), 1e-9);
  EXPECT_EQ(wsd.NumWorlds(), uint64_t{1} << 40);

  // Tuple-level confidence over 2^40 worlds via the closed form — instant.
  QueryResult conf = Exec(session, "select conf, K, V from I where K = 7;");
  ASSERT_EQ(conf.table().num_rows(), 2u);
  EXPECT_NEAR(conf.table().row(0).value(2).AsReal(), 0.5, 1e-12);
}

TEST(DecomposedWorldSetTest, NumWorldsSaturatesButLogDoesNot) {
  Session session(DecomposedOptions());
  Exec(session, "create table R (K integer, V integer);");
  std::string values;
  for (int k = 0; k < 300; ++k) {
    for (int v = 0; v < 2; ++v) {
      if (!values.empty()) values += ", ";
      values += "(" + std::to_string(k) + ", " + std::to_string(v) + ")";
    }
  }
  Exec(session, "insert into R values " + values + ";");
  Exec(session, "create table I as select * from R repair by key K;");
  const DecomposedWorldSet& wsd = Wsd(session);
  EXPECT_EQ(wsd.NumWorlds(), std::numeric_limits<uint64_t>::max());
  EXPECT_NEAR(wsd.Log10NumWorlds(), 300 * std::log10(2.0), 1e-6);
}

TEST(DecomposedWorldSetTest, MaterializeWorldsEnumeratesProduct) {
  Session session(DecomposedOptions());
  maybms::testing::LoadFigure1(session);
  Exec(session,
       "create table I as select A, B, C from R repair by key A weight D;");
  bool truncated = true;
  auto worlds = Wsd(session).MaterializeWorlds(100, &truncated);
  ASSERT_TRUE(worlds.ok());
  EXPECT_FALSE(truncated);
  ASSERT_EQ(worlds->size(), 4u);
  double total = 0;
  for (const World& w : *worlds) {
    total += w.probability;
    EXPECT_TRUE(w.db.HasRelation("I"));
    EXPECT_TRUE(w.db.HasRelation("R"));
    auto i = w.db.GetRelation("I");
    EXPECT_EQ((*i)->num_rows(), 3u);
  }
  EXPECT_NEAR(total, 1.0, 1e-12);

  auto capped = Wsd(session).MaterializeWorlds(2, &truncated);
  ASSERT_TRUE(capped.ok());
  EXPECT_TRUE(truncated);
  EXPECT_EQ(capped->size(), 2u);
}

TEST(DecomposedWorldSetTest, AssertMergesAndRenormalizes) {
  Session session(DecomposedOptions());
  maybms::testing::LoadFigure1(session);
  Exec(session,
       "create table I as select A, B, C from R repair by key A weight D;");
  Exec(session, "create table J as select * from I "
                "assert not exists(select * from I where C = 'c1');");
  // The three I components correlate under assert: merged into one.
  EXPECT_EQ(Wsd(session).num_components(), 1u);
  EXPECT_EQ(Wsd(session).NumWorlds(), 2u);
}

TEST(DecomposedWorldSetTest, DropRelationRemovesContributions) {
  Session session(DecomposedOptions());
  maybms::testing::LoadFigure1(session);
  Exec(session,
       "create table I as select A, B, C from R repair by key A;");
  Exec(session, "drop table I;");
  EXPECT_FALSE(Wsd(session).HasRelation("I"));
  for (const Component& c : Wsd(session).components()) {
    EXPECT_FALSE(c.ContributesTo("i"));
  }
}

TEST(DecomposedWorldSetTest, CloneIsIndependent) {
  Session session(DecomposedOptions());
  maybms::testing::LoadFigure1(session);
  Exec(session, "create table I as select A, B, C from R repair by key A;");
  auto clone = session.world_set().Clone();
  EXPECT_EQ(clone->NumWorlds(), 4u);
  MAYBMS_EXPECT_OK(clone->DropRelation("I"));
  EXPECT_TRUE(session.world_set().HasRelation("I"));
}

// ---------------------------------------------------------------------------
// Golden answers of the per-component sources: the single-relation fast
// path over an existing decomposition and the clean repair/choice product
// over certain data. Every value is rendered with its type tag and reals
// as hex floats, so possible/certain/conf are pinned byte for byte —
// including which spelling survives when Integer 1 and Real 1.0 coincide
// under Tuple::Compare — and so is the stored component structure.
// ---------------------------------------------------------------------------

std::string Hex(double d) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%a", d);
  return buf;
}

std::string RenderValue(const Value& v) {
  switch (v.type()) {
    case DataType::kNull:
      return "NULL";
    case DataType::kInteger:
      return "i" + std::to_string(v.AsInteger());
    case DataType::kReal:
      return "r" + Hex(v.AsReal());
    case DataType::kText:
      return "'" + v.AsText() + "'";
    case DataType::kBoolean:
      return v.AsBoolean() ? "true" : "false";
  }
  return "?";
}

std::string RenderRow(const Tuple& row) {
  std::string out = "(";
  for (size_t i = 0; i < row.size(); ++i) {
    out += (i == 0 ? "" : " ") + RenderValue(row.value(i));
  }
  return out + ")";
}

/// The column header, then one row per line.
std::string RenderTable(const Table& table) {
  std::string out = "[";
  for (const Column& c : table.schema().columns()) {
    out += " " + c.name + ":" + DataTypeToString(c.type);
  }
  out += " ]\n";
  for (const Tuple& row : table.rows()) out += RenderRow(row) + "\n";
  return out;
}

std::string RenderEvaluation(const SelectEvaluation& eval) {
  if (eval.combined.has_value()) return RenderTable(*eval.combined);
  std::string out;
  for (const auto& [p, table] : eval.per_world) {
    out += "world " + Hex(p) + " " + RenderTable(table);
  }
  return out + (eval.truncated ? "truncated\n" : "");
}

/// A session statement's full answer: the combined table, or each listed
/// world with its probability, then "truncated" when the listing hit the
/// display cap; under group worlds by, each group's probability, key and
/// answer.
std::string Answer(Session& session, const std::string& sql) {
  QueryResult result = Exec(session, sql);
  if (result.has_table()) return RenderTable(result.table());
  std::string out;
  for (const auto& [p, table] : result.worlds()) {
    out += "world " + Hex(p) + " " + RenderTable(table);
  }
  for (const auto& group : result.groups()) {
    out += "group " + Hex(group.probability) + " key " +
           RenderTable(group.key) + RenderTable(group.table);
  }
  return out + (result.truncated() ? "truncated\n" : "");
}

/// The stored decomposition, read through ToSnapshot: the certain core
/// (the source relation R aside), then every component's alternatives
/// with their probability and their contributions in key order, empty
/// contributions included.
std::string Structure(const DecomposedWorldSet& wsd) {
  auto snapshot = wsd.ToSnapshot();
  EXPECT_TRUE(snapshot.ok()) << snapshot.status().ToString();
  if (!snapshot.ok()) return "";
  std::string out;
  for (const auto& rel : snapshot->certain) {
    if (rel.name == "R") continue;
    out += rel.name + " " + RenderTable(*snapshot->tables[rel.table_index]);
  }
  for (size_t c = 0; c < snapshot->components.size(); ++c) {
    out += "component " + std::to_string(c) + "\n";
    for (const auto& alt : snapshot->components[c].alternatives) {
      out += "  alternative " + Hex(alt.probability) + "\n";
      for (const auto& [rel, tuples] : alt.contributions) {
        out += "    " + rel + ":";
        for (const Tuple& row : tuples) out += " " + RenderRow(row);
        out += "\n";
      }
    }
  }
  return out;
}

/// Key groups 1, 2, 4, 5 violate the key (weights 1:3, 1:1, 1:2:4, 1:2);
/// group 3 is a single tuple. V holds NULLs and inexact reals.
void LoadGoldenSource(Session& session) {
  ExecScript(session, R"sql(
    create table R (K integer, V real, W integer);
    insert into R values
      (1, 1, 1), (1, 2.5, 3),
      (2, null, 1), (2, 4, 1),
      (3, 1, 2),
      (4, 0.1, 1), (4, 0.2, 2), (4, 0.3, 4),
      (5, null, 1), (5, null, 2);
  )sql");
}

SessionOptions GoldenOptions() {
  SessionOptions options = DecomposedOptions();
  options.max_display_worlds = 5;
  return options;
}

// X below is Integer 1 where W = 1 and Real 1.0 elsewhere: the same tuple
// under Tuple::Compare, spelled differently per alternative.
constexpr char kX[] = "case when W = 1 then 1 else 1.0 end as X";

TEST(DecomposedGoldenTest, FastPathAnswers) {
  Session session(GoldenOptions());
  LoadGoldenSource(session);
  Exec(session,
       "create table I as select K, V, W from R repair by key K weight W;");
  const std::string x = kX;
  EXPECT_EQ(Answer(session, "select possible K, " + x +
                                " from I where V is null or V < 3;"),
            R"([ K:INTEGER X:REAL ]
(i1 i1)
(i2 i1)
(i3 r0x1p+0)
(i4 i1)
(i5 i1)
)");
  EXPECT_EQ(Answer(session,
                   "select certain " + x + " from I where K <> 2;"),
            R"([ X:REAL ]
(r0x1p+0)
)");
  EXPECT_EQ(Answer(session,
                   "select certain K, V from I where V is null or V > 3;"),
            R"([ K:INTEGER V:REAL ]
(i5 NULL)
)");
  EXPECT_EQ(Answer(session, "select conf, K, " + x +
                                " from I where V is null or V > 0.15;"),
            R"([ K:INTEGER X:REAL conf:REAL ]
(i1 i1 r0x1p+0)
(i2 i1 r0x1p+0)
(i3 r0x1p+0 r0x1p+0)
(i4 r0x1p+0 r0x1.b6db6db6db6dbp-1)
(i5 i1 r0x1p+0)
)");
  EXPECT_EQ(Answer(session, "select conf, V from I where V < 1;"),
            R"([ V:REAL conf:REAL ]
(r0x1.999999999999ap-4 r0x1.249249249249p-3)
(r0x1.999999999999ap-3 r0x1.2492492492492p-2)
(r0x1.3333333333333p-2 r0x1.2492492492492p-1)
)");
  EXPECT_EQ(Answer(session, "select conf from I where V > 2;"),
            R"([ conf:REAL ]
(r0x1.cp-1)
)");
  EXPECT_EQ(Answer(session, "select conf from I where V > 0.15 and V < 0.35;"),
            R"([ conf:REAL ]
(r0x1.b6db6db6db6dbp-1)
)");
  EXPECT_EQ(Answer(session, "select conf from I where V > 100;"),
            R"([ conf:REAL ]
(r0x0p+0)
)");
  EXPECT_EQ(Answer(session, "select K, V from I where V < 3;"),
            R"(world 0x1.8618618618618p-8 [ K:INTEGER V:REAL ]
(i1 r0x1p+0)
(i3 r0x1p+0)
(i4 r0x1.999999999999ap-4)
world 0x1.2492492492492p-6 [ K:INTEGER V:REAL ]
(i1 r0x1.4p+1)
(i3 r0x1p+0)
(i4 r0x1.999999999999ap-4)
world 0x1.8618618618618p-8 [ K:INTEGER V:REAL ]
(i1 r0x1p+0)
(i3 r0x1p+0)
(i4 r0x1.999999999999ap-4)
world 0x1.2492492492492p-6 [ K:INTEGER V:REAL ]
(i1 r0x1.4p+1)
(i3 r0x1p+0)
(i4 r0x1.999999999999ap-4)
world 0x1.8618618618618p-7 [ K:INTEGER V:REAL ]
(i1 r0x1p+0)
(i3 r0x1p+0)
(i4 r0x1.999999999999ap-3)
truncated
)");
  Exec(session, "create table D as select K, " + x + " from I where V < 3;");
  EXPECT_EQ(Structure(Wsd(session)),
            R"(D [ K:INTEGER X:REAL ]
I [ K:INTEGER V:REAL W:INTEGER ]
component 0
  alternative 0x1p-2
    d: (i1 i1)
    i: (i1 r0x1p+0 i1)
  alternative 0x1.8p-1
    d: (i1 r0x1p+0)
    i: (i1 r0x1.4p+1 i3)
component 1
  alternative 0x1p-1
    d:
    i: (i2 NULL i1)
  alternative 0x1p-1
    d:
    i: (i2 r0x1p+2 i1)
component 2
  alternative 0x1p+0
    d: (i3 r0x1p+0)
    i: (i3 r0x1p+0 i2)
component 3
  alternative 0x1.2492492492492p-3
    d: (i4 i1)
    i: (i4 r0x1.999999999999ap-4 i1)
  alternative 0x1.2492492492492p-2
    d: (i4 r0x1p+0)
    i: (i4 r0x1.999999999999ap-3 i2)
  alternative 0x1.2492492492492p-1
    d: (i4 r0x1p+0)
    i: (i4 r0x1.3333333333333p-2 i4)
component 4
  alternative 0x1.5555555555555p-2
    d:
    i: (i5 NULL i1)
  alternative 0x1.5555555555555p-1
    d:
    i: (i5 NULL i2)
)");
  EXPECT_EQ(Answer(session, "select possible X from D;"),
            R"([ X:REAL ]
(i1)
)");
}

TEST(DecomposedGoldenTest, RepairAndChoiceProductAnswers) {
  Session session(GoldenOptions());
  LoadGoldenSource(session);
  const std::string x = kX;
  const std::string repair = " repair by key K weight W;";
  EXPECT_EQ(Answer(session, "select possible K, " + x + " from R" + repair),
            R"([ K:INTEGER X:REAL ]
(i1 i1)
(i2 i1)
(i3 r0x1p+0)
(i4 i1)
(i5 i1)
)");
  EXPECT_EQ(Answer(session,
                   "select certain " + x + " from R where K <> 2" + repair),
            R"([ X:REAL ]
(r0x1p+0)
)");
  EXPECT_EQ(Answer(session, "select conf, K, V from R" + repair),
            R"([ K:INTEGER V:REAL conf:REAL ]
(i1 r0x1p+0 r0x1p-2)
(i1 r0x1.4p+1 r0x1.8p-1)
(i2 NULL r0x1p-1)
(i2 r0x1p+2 r0x1p-1)
(i3 r0x1p+0 r0x1p+0)
(i4 r0x1.999999999999ap-4 r0x1.249249249249p-3)
(i4 r0x1.999999999999ap-3 r0x1.2492492492492p-2)
(i4 r0x1.3333333333333p-2 r0x1.2492492492492p-1)
(i5 NULL r0x1p+0)
)");
  EXPECT_EQ(Answer(session, "select conf from R where V > 2" + repair),
            R"([ conf:REAL ]
(r0x1p+0)
)");
  EXPECT_EQ(Answer(session, "select conf, W from R choice of W;"),
            R"([ W:INTEGER conf:REAL ]
(i1 r0x1p-2)
(i2 r0x1p-2)
(i3 r0x1p-2)
(i4 r0x1p-2)
)");
  EXPECT_EQ(Answer(session, "select conf from R choice of W;"),
            R"([ conf:REAL ]
(r0x1p+0)
)");
  EXPECT_EQ(Answer(session, "select possible V from R where K = 2 or K = 5 "
                            "choice of W;"),
            R"([ V:REAL ]
(NULL)
(r0x1p+2)
)");
  EXPECT_EQ(Answer(session, "select certain V from R where K = 5 choice of W;"),
            R"([ V:REAL ]
(NULL)
)");
  EXPECT_EQ(Answer(session, "select K, V from R" + repair),
            R"(world 0x1.8618618618618p-8 [ K:INTEGER V:REAL ]
(i1 r0x1p+0)
(i2 NULL)
(i3 r0x1p+0)
(i4 r0x1.999999999999ap-4)
(i5 NULL)
world 0x1.2492492492492p-6 [ K:INTEGER V:REAL ]
(i1 r0x1.4p+1)
(i2 NULL)
(i3 r0x1p+0)
(i4 r0x1.999999999999ap-4)
(i5 NULL)
world 0x1.8618618618618p-8 [ K:INTEGER V:REAL ]
(i1 r0x1p+0)
(i2 r0x1p+2)
(i3 r0x1p+0)
(i4 r0x1.999999999999ap-4)
(i5 NULL)
world 0x1.2492492492492p-6 [ K:INTEGER V:REAL ]
(i1 r0x1.4p+1)
(i2 r0x1p+2)
(i3 r0x1p+0)
(i4 r0x1.999999999999ap-4)
(i5 NULL)
world 0x1.8618618618618p-7 [ K:INTEGER V:REAL ]
(i1 r0x1p+0)
(i2 NULL)
(i3 r0x1p+0)
(i4 r0x1.999999999999ap-3)
(i5 NULL)
truncated
)");
  Exec(session, "create table J as select K, " + x + " from R" + repair);
  Exec(session, "create table Q as select K, V from R choice of W;");
  EXPECT_EQ(Structure(Wsd(session)),
            R"(J [ K:INTEGER X:REAL ]
Q [ K:INTEGER V:REAL ]
component 0
  alternative 0x1p-2
    j: (i1 i1)
  alternative 0x1.8p-1
    j: (i1 r0x1p+0)
component 1
  alternative 0x1p-1
    j: (i2 i1)
  alternative 0x1p-1
    j: (i2 i1)
component 2
  alternative 0x1p+0
    j: (i3 r0x1p+0)
component 3
  alternative 0x1.2492492492492p-3
    j: (i4 i1)
  alternative 0x1.2492492492492p-2
    j: (i4 r0x1p+0)
  alternative 0x1.2492492492492p-1
    j: (i4 r0x1p+0)
component 4
  alternative 0x1.5555555555555p-2
    j: (i5 i1)
  alternative 0x1.5555555555555p-1
    j: (i5 r0x1p+0)
component 5
  alternative 0x1p-2
    q: (i1 r0x1p+0) (i2 NULL) (i2 r0x1p+2) (i4 r0x1.999999999999ap-4) (i5 NULL)
  alternative 0x1p-2
    q: (i3 r0x1p+0) (i4 r0x1.999999999999ap-3) (i5 NULL)
  alternative 0x1p-2
    q: (i1 r0x1.4p+1)
  alternative 0x1p-2
    q: (i4 r0x1.3333333333333p-2)
)");
}

// A decomposition no I-SQL statement builds today, restored from a
// snapshot: relation I has certain rows as well as component
// contributions, and one alternative carries no entry for I at all.
TEST(DecomposedGoldenTest, CertainRowsAndMissingContribution) {
  Session session(GoldenOptions());
  LoadGoldenSource(session);
  Exec(session,
       "create table I as select K, V, W from R repair by key K weight W;");
  auto snapshot = Wsd(session).ToSnapshot();
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
  for (const auto& rel : snapshot->certain) {
    if (rel.name != "I") continue;
    Table core(snapshot->tables[rel.table_index]->schema());
    core.AppendUnchecked(Tuple({Value::Integer(6), Value::Real(0.5),
                                Value::Integer(1)}));
    core.AppendUnchecked(Tuple({Value::Integer(1), Value::Real(1.0),
                                Value::Integer(3)}));
    snapshot->tables[rel.table_index] =
        std::make_shared<const Table>(std::move(core));
  }
  ASSERT_FALSE(snapshot->components.empty());
  snapshot->components[0].alternatives[0].contributions.clear();

  DecomposedWorldSet wsd;
  MAYBMS_ASSERT_OK(wsd.FromSnapshot(*snapshot));
  auto answer = [&wsd](const std::string& sql) -> std::string {
    auto parsed = sql::Parser::ParseStatement(sql);
    EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
    if (!parsed.ok()) return "";
    const auto& stmt = static_cast<const sql::SelectStatement&>(**parsed);
    auto eval = wsd.EvaluateSelect(stmt, /*max_worlds=*/5);
    EXPECT_TRUE(eval.ok()) << sql << ": " << eval.status().ToString();
    return eval.ok() ? RenderEvaluation(*eval) : "";
  };
  const std::string x = kX;
  EXPECT_EQ(answer("select possible K, " + x + " from I;"),
            R"([ K:INTEGER X:REAL ]
(i1 r0x1p+0)
(i2 i1)
(i3 r0x1p+0)
(i4 i1)
(i5 i1)
(i6 i1)
)");
  EXPECT_EQ(answer("select certain " + x + " from I;"),
            R"([ X:REAL ]
(i1)
)");
  EXPECT_EQ(answer("select conf, K, " + x + " from I;"),
            R"([ K:INTEGER X:REAL conf:REAL ]
(i1 r0x1p+0 r0x1p+0)
(i2 i1 r0x1p+0)
(i3 r0x1p+0 r0x1p+0)
(i4 i1 r0x1p+0)
(i5 i1 r0x1p+0)
(i6 i1 r0x1p+0)
)");
  EXPECT_EQ(answer("select conf from I where V < 1;"),
            R"([ conf:REAL ]
(r0x1p+0)
)");
  EXPECT_EQ(answer("select K, V from I where K < 3;"),
            R"(world 0x1.8618618618618p-8 [ K:INTEGER V:REAL ]
(i1 r0x1p+0)
(i2 NULL)
world 0x1.2492492492492p-6 [ K:INTEGER V:REAL ]
(i1 r0x1p+0)
(i1 r0x1.4p+1)
(i2 NULL)
world 0x1.8618618618618p-8 [ K:INTEGER V:REAL ]
(i1 r0x1p+0)
(i2 r0x1p+2)
world 0x1.2492492492492p-6 [ K:INTEGER V:REAL ]
(i1 r0x1p+0)
(i1 r0x1.4p+1)
(i2 r0x1p+2)
world 0x1.8618618618618p-7 [ K:INTEGER V:REAL ]
(i1 r0x1p+0)
(i2 NULL)
truncated
)");

  auto parsed = sql::Parser::ParseStatement(
      "select K, " + x + " from I where V is null or V < 3;");
  ASSERT_TRUE(parsed.ok());
  MAYBMS_ASSERT_OK(wsd.MaterializeSelect(
      "D", static_cast<const sql::SelectStatement&>(**parsed)));
  EXPECT_EQ(Structure(wsd),
            R"(D [ K:INTEGER X:REAL ]
(i6 i1)
(i1 r0x1p+0)
I [ K:INTEGER V:REAL W:INTEGER ]
(i6 r0x1p-1 i1)
(i1 r0x1p+0 i3)
component 0
  alternative 0x1p-2
    d:
  alternative 0x1.8p-1
    d: (i1 r0x1p+0)
    i: (i1 r0x1.4p+1 i3)
component 1
  alternative 0x1p-1
    d: (i2 i1)
    i: (i2 NULL i1)
  alternative 0x1p-1
    d:
    i: (i2 r0x1p+2 i1)
component 2
  alternative 0x1p+0
    d: (i3 r0x1p+0)
    i: (i3 r0x1p+0 i2)
component 3
  alternative 0x1.2492492492492p-3
    d: (i4 i1)
    i: (i4 r0x1.999999999999ap-4 i1)
  alternative 0x1.2492492492492p-2
    d: (i4 r0x1p+0)
    i: (i4 r0x1.999999999999ap-3 i2)
  alternative 0x1.2492492492492p-1
    d: (i4 r0x1p+0)
    i: (i4 r0x1.3333333333333p-2 i4)
component 4
  alternative 0x1.5555555555555p-2
    d: (i5 i1)
    i: (i5 NULL i1)
  alternative 0x1.5555555555555p-1
    d: (i5 r0x1p+0)
    i: (i5 NULL i2)
)");
}

/// Compares a rendered answer with `expected` line by line: exactly,
/// except that when the last column is conf, each row's conf value is
/// compared within 1e-12 (a conf sums world probabilities, and the sum
/// order is not part of the contract).
void ExpectAnswer(const std::string& actual, const std::string& expected,
                  const std::string& sql) {
  SCOPED_TRACE(sql + "\nactual:\n" + actual);
  auto lines = [](const std::string& text) {
    std::vector<std::string> out;
    size_t start = 0;
    for (size_t end; (end = text.find('\n', start)) != std::string::npos;
         start = end + 1) {
      out.push_back(text.substr(start, end - start));
    }
    if (start < text.size()) out.push_back(text.substr(start));
    return out;
  };
  const std::vector<std::string> got = lines(actual);
  const std::vector<std::string> want = lines(expected);
  ASSERT_EQ(got.size(), want.size());
  const bool conf = !want.empty() &&
                    want[0].find(" conf:REAL ]") != std::string::npos;
  for (size_t i = 0; i < want.size(); ++i) {
    const size_t cut = want[i].rfind(' ');
    if (!conf || i == 0 || cut == std::string::npos ||
        want[i].compare(cut, 3, " r0") != 0 ||
        got[i].size() < cut || got[i].compare(0, cut, want[i], 0, cut) != 0) {
      EXPECT_EQ(got[i], want[i]);
      continue;
    }
    // "(… r<hex>)": strtod reads the hex float and stops at ')'.
    const double want_conf = std::strtod(want[i].c_str() + cut + 2, nullptr);
    const double got_conf = std::strtod(got[i].c_str() + cut + 2, nullptr);
    EXPECT_EQ(got[i].compare(cut, 3, " r0"), 0) << got[i];
    EXPECT_NEAR(got_conf, want_conf, 1e-12) << got[i];
  }
}

// X below is Integer 1 where W = 1 and Real 1.0 elsewhere, as in kX.
constexpr char kXArg[] = "case when W = 1 then 1 else 1.0 end";

// possible/certain/conf of count(*), count(col), sum, min and max over a
// repaired relation, a chosen relation, a relation DML merged into one
// component, and a relation with certain rows as well as components.
// Values carry their type tags, so the spelling a world-set answer keeps
// when Integer and Real values coincide is pinned too.
TEST(DecomposedGoldenTest, AggregateAnswers) {
  Session session(GoldenOptions());
  LoadGoldenSource(session);
  ExecScript(session, R"sql(
    create table I as select K, V, W from R repair by key K weight W;
    create table C as select K, V, W from R choice of W;
    create table M as select K, V, W from R repair by key K weight W;
    update M set W = W + 1 where K = 4;
  )sql");
  ASSERT_EQ(Wsd(session).num_components(), 7u);  // I: 5, C: 1, M: 1
  const std::string x = kXArg;
  const std::vector<std::pair<std::string, std::string>> cases = {
      {"select possible count(*) from I where V is null or V < 3;",
       R"([ count:INTEGER ]
(i4)
(i5)
)"},
      {"select certain count(*) from I;",
       R"([ count:INTEGER ]
(i5)
)"},
      {"select conf, count(V) from I;",
       R"([ count:INTEGER conf:REAL ]
(i3 r0x1.fffffffffffffp-2)
(i4 r0x1.fffffffffffffp-2)
)"},
      {"select possible sum(V) from I where V > 2;",
       R"([ sum:REAL ]
(NULL)
(r0x1.4p+1)
(r0x1p+2)
(r0x1.ap+2)
)"},
      {"select conf, sum(V) from I where V > 2;",
       R"([ sum:REAL conf:REAL ]
(NULL r0x1p-3)
(r0x1.4p+1 r0x1.8p-2)
(r0x1p+2 r0x1p-3)
(r0x1.ap+2 r0x1.8p-2)
)"},
      {"select certain sum(V) from I where V > 100;",
       R"([ sum:REAL ]
(NULL)
)"},
      {"select conf, count(*) from I where V > 100;",
       R"([ count:INTEGER conf:REAL ]
(i0 r0x1.ffffffffffffep-1)
)"},
      {"select possible sum(W) from I;",
       R"([ sum:INTEGER ]
(i6)
(i7)
(i8)
(i9)
(i10)
(i11)
(i12)
)"},
      {"select conf, sum(V) from I where V < 1;",
       R"([ sum:REAL conf:REAL ]
(r0x1.999999999999ap-4 r0x1.2492492492492p-3)
(r0x1.999999999999ap-3 r0x1.2492492492492p-2)
(r0x1.3333333333333p-2 r0x1.2492492492492p-1)
)"},
      {"select possible min(V), max(V) from I;",
       R"([ min:REAL max:REAL ]
(r0x1.999999999999ap-4 r0x1p+0)
(r0x1.999999999999ap-4 r0x1.4p+1)
(r0x1.999999999999ap-4 r0x1p+2)
(r0x1.999999999999ap-3 r0x1p+0)
(r0x1.999999999999ap-3 r0x1.4p+1)
(r0x1.999999999999ap-3 r0x1p+2)
(r0x1.3333333333333p-2 r0x1p+0)
(r0x1.3333333333333p-2 r0x1.4p+1)
(r0x1.3333333333333p-2 r0x1p+2)
)"},
      {"select possible sum(" + x + ") from I where K <> 3;",
       R"([ sum:REAL ]
(i4)
)"},
      {"select certain sum(" + x + ") from I where K <> 3;",
       R"([ sum:REAL ]
(i4)
)"},
      {"select conf, sum(" + x + ") from I where K <> 3;",
       R"([ sum:REAL conf:REAL ]
(i4 r0x1.ffffffffffffep-1)
)"},
      {"select possible min(" + x + "), max(" + x + ") from I;",
       R"([ min:REAL max:REAL ]
(i1 i1)
)"},
      {"select certain min(" + x + ") as lo, max(" + x + ") as hi from I;",
       R"([ lo:REAL hi:REAL ]
(i1 i1)
)"},
      {"select conf, max(" + x + ") from I where K = 1 or K = 4;",
       R"([ max:REAL conf:REAL ]
(i1 r0x1.ffffffffffffep-1)
)"},
      {"select conf, min(case when W = 1 then 1.0 else 1 end) from I "
       "where K = 1 or K = 4;",
       R"([ min:REAL conf:REAL ]
(r0x1p+0 r0x1.ffffffffffffep-1)
)"},
      {"select conf, count(*), count(V), sum(V), min(V), max(W) from I "
       "where K <> 3;",
       R"([ count:INTEGER count:INTEGER sum:REAL min:REAL max:INTEGER conf:REAL ]
(i4 i2 r0x1.199999999999ap+0 r0x1.999999999999ap-4 i1 r0x1.8618618618618p-8)
(i4 i2 r0x1.199999999999ap+0 r0x1.999999999999ap-4 i2 r0x1.8618618618618p-7)
(i4 i2 r0x1.3333333333333p+0 r0x1.999999999999ap-3 i2 r0x1.2492492492492p-5)
(i4 i2 r0x1.4cccccccccccdp+0 r0x1.3333333333333p-2 i4 r0x1.2492492492492p-4)
(i4 i2 r0x1.4cccccccccccdp+1 r0x1.999999999999ap-4 i3 r0x1.b6db6db6db6dbp-5)
(i4 i2 r0x1.599999999999ap+1 r0x1.999999999999ap-3 i3 r0x1.b6db6db6db6dbp-4)
(i4 i2 r0x1.6666666666666p+1 r0x1.3333333333333p-2 i4 r0x1.b6db6db6db6dbp-3)
(i4 i3 r0x1.4666666666666p+2 r0x1.999999999999ap-4 i1 r0x1.8618618618618p-8)
(i4 i3 r0x1.4666666666666p+2 r0x1.999999999999ap-4 i2 r0x1.8618618618618p-7)
(i4 i3 r0x1.4cccccccccccdp+2 r0x1.999999999999ap-3 i2 r0x1.2492492492492p-5)
(i4 i3 r0x1.5333333333333p+2 r0x1.3333333333333p-2 i4 r0x1.2492492492492p-4)
(i4 i3 r0x1.a666666666666p+2 r0x1.999999999999ap-4 i3 r0x1.b6db6db6db6dbp-5)
(i4 i3 r0x1.acccccccccccdp+2 r0x1.999999999999ap-3 i3 r0x1.b6db6db6db6dbp-4)
(i4 i3 r0x1.b333333333333p+2 r0x1.3333333333333p-2 i4 r0x1.b6db6db6db6dbp-3)
)"},
      {"select possible count(*), sum(V), min(W) from C;",
       R"([ count:INTEGER sum:REAL min:INTEGER ]
(i1 r0x1.3333333333333p-2 i4)
(i1 r0x1.4p+1 i3)
(i3 r0x1.3333333333333p+0 i2)
(i5 r0x1.4666666666666p+2 i1)
)"},
      {"select certain count(V) from C where K = 5;",
       R"([ count:INTEGER ]
(i0)
)"},
      {"select conf, sum(W), max(V) from C;",
       R"([ sum:INTEGER max:REAL conf:REAL ]
(i3 r0x1.4p+1 r0x1p-2)
(i4 r0x1.3333333333333p-2 r0x1p-2)
(i5 r0x1p+2 r0x1p-2)
(i6 r0x1p+0 r0x1p-2)
)"},
      {"select possible sum(W), min(V) from M;",
       R"([ sum:INTEGER min:REAL ]
(i7 r0x1.999999999999ap-4)
(i8 r0x1.999999999999ap-4)
(i8 r0x1.999999999999ap-3)
(i9 r0x1.999999999999ap-4)
(i9 r0x1.999999999999ap-3)
(i10 r0x1.999999999999ap-4)
(i10 r0x1.999999999999ap-3)
(i10 r0x1.3333333333333p-2)
(i11 r0x1.999999999999ap-3)
(i11 r0x1.3333333333333p-2)
(i12 r0x1.3333333333333p-2)
(i13 r0x1.3333333333333p-2)
)"},
      {"select conf, sum(W) from M where K > 3;",
       R"([ sum:INTEGER conf:REAL ]
(i3 r0x1.8618618618618p-5)
(i4 r0x1.8618618618618p-3)
(i5 r0x1.8618618618618p-3)
(i6 r0x1.8618618618618p-3)
(i7 r0x1.8618618618618p-2)
)"},
  };
  for (const auto& [sql, expected] : cases) {
    ExpectAnswer(Answer(session, sql), expected, sql);
  }

  // Certain rows of I as well as component contributions, restored from
  // an edited snapshot (no I-SQL statement builds this today).
  auto snapshot = Wsd(session).ToSnapshot();
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
  for (const auto& rel : snapshot->certain) {
    if (rel.name != "I") continue;
    Table core(snapshot->tables[rel.table_index]->schema());
    core.AppendUnchecked(Tuple({Value::Integer(6), Value::Real(0.5),
                                Value::Integer(1)}));
    core.AppendUnchecked(Tuple({Value::Integer(7), Value::Null(),
                                Value::Integer(2)}));
    snapshot->tables[rel.table_index] =
        std::make_shared<const Table>(std::move(core));
  }
  DecomposedWorldSet wsd;
  MAYBMS_ASSERT_OK(wsd.FromSnapshot(*snapshot));
  auto answer = [&wsd](const std::string& sql) -> std::string {
    auto parsed = sql::Parser::ParseStatement(sql);
    EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
    if (!parsed.ok()) return "";
    const auto& stmt = static_cast<const sql::SelectStatement&>(**parsed);
    auto eval = wsd.EvaluateSelect(stmt, /*max_worlds=*/5);
    EXPECT_TRUE(eval.ok()) << sql << ": " << eval.status().ToString();
    return eval.ok() ? RenderEvaluation(*eval) : "";
  };
  const std::vector<std::pair<std::string, std::string>> core_cases = {
      {"select possible count(*), count(V) from I;",
       R"([ count:INTEGER count:INTEGER ]
(i7 i4)
(i7 i5)
)"},
      {"select certain min(" + x + ") from I;",
       R"([ min:REAL ]
(i1)
)"},
      {"select conf, sum(V), min(W) from I where V is null or V < 2;",
       R"([ sum:REAL min:INTEGER conf:REAL ]
(r0x1.999999999999ap+0 i1 r0x1.b6db6db6db6dbp-4)
(r0x1.b333333333333p+0 i1 r0x1.b6db6db6db6dbp-3)
(r0x1.ccccccccccccdp+0 i1 r0x1.b6db6db6db6dbp-2)
(r0x1.4cccccccccccdp+1 i1 r0x1.2492492492492p-5)
(r0x1.599999999999ap+1 i1 r0x1.2492492492492p-4)
(r0x1.6666666666666p+1 i1 r0x1.2492492492492p-3)
)"},
      {"select possible max(V) from I where K > 5;",
       R"([ max:REAL ]
(r0x1p-1)
)"},
  };
  for (const auto& [sql, expected] : core_cases) {
    ExpectAnswer(answer(sql), expected, sql);
  }
}


// Which spelling a combined answer keeps when worlds give equal values
// of different types follows world enumeration order, in which the
// first component's alternative varies fastest. Here the world choosing
// K = 1's second tuple reaches the sum 1 as an Integer before the world
// choosing K = 5's second tuple reaches it as a Real.
TEST(DecomposedGoldenTest, AggregateSpellingFollowsWorldOrder) {
  Session session(GoldenOptions());
  LoadGoldenSource(session);
  Exec(session,
       "create table I as select K, V, W from R repair by key K weight W;");
  const std::string sum =
      "sum(case when K = 5 and W = 2 then 1.0 when W = 1 then 0 else 1 end)";
  ExpectAnswer(
      Answer(session, "select possible " + sum + " from I where K = 1 or K = 5;"),
      R"([ sum:REAL ]
(i0)
(i1)
(r0x1p+1)
)",
      "possible");
  ExpectAnswer(
      Answer(session, "select conf, " + sum + " from I where K = 1 or K = 5;"),
      R"([ sum:REAL conf:REAL ]
(i0 r0x1.5555555555555p-4)
(i1 r0x1.aaaaaaaaaaaaap-2)
(r0x1p+1 r0x1p-1)
)",
      "conf");
}

// Golden answers and stored structure of the merged path: every statement
// that correlates components (assert, group worlds by, a join of two
// uncertain relations, an aggregate outside the aggregate fold, a
// repair over an uncertain source) and DML on an uncertain relation. I
// has two components (K = 1: 2 alternatives, K = 4: 3); C has one (3
// alternatives), so I and C together have 18 worlds.
void LoadMergedSource(Session& session) {
  LoadGoldenSource(session);
  ExecScript(session, R"sql(
    create table I as select K, V, W from R where K = 1 or K = 4
      repair by key K weight W;
    create table C as select W, V from R where K = 4 choice of W;
  )sql");
}

TEST(DecomposedGoldenTest, MergedPathAnswers) {
  const std::string assert_list =
      "select K, V from I assert exists (select * from C where W < 4);";
  const std::string assert_conf =
      "select conf, K, V from I "
      "assert not exists (select * from I where W = 4);";
  const std::string grouped =
      "select conf, K, V from I group worlds by (select W from I where K = 4);";
  const std::string join =
      "select conf, I.K, C.V from I, C where I.W = C.W;";
  const std::string average = "select conf, avg(V) from I;";
  const std::string repair = "select conf, K, W from I repair by key W;";
  {
    Session session(GoldenOptions());
    LoadMergedSource(session);
    EXPECT_EQ(Answer(session, assert_list),
              R"(world 0x1.2492492492493p-6 [ K:INTEGER V:REAL ]
(i1 r0x1p+0)
(i4 r0x1.999999999999ap-4)
world 0x1.b6db6db6db6ddp-5 [ K:INTEGER V:REAL ]
(i1 r0x1.4p+1)
(i4 r0x1.999999999999ap-4)
world 0x1.2492492492493p-5 [ K:INTEGER V:REAL ]
(i1 r0x1p+0)
(i4 r0x1.999999999999ap-3)
world 0x1.b6db6db6db6ddp-4 [ K:INTEGER V:REAL ]
(i1 r0x1.4p+1)
(i4 r0x1.999999999999ap-3)
world 0x1.2492492492493p-4 [ K:INTEGER V:REAL ]
(i1 r0x1p+0)
(i4 r0x1.3333333333333p-2)
truncated
)");
    EXPECT_EQ(Answer(session, assert_conf),
              R"([ K:INTEGER V:REAL conf:REAL ]
(i1 r0x1p+0 r0x1p-2)
(i1 r0x1.4p+1 r0x1.8p-1)
(i4 r0x1.999999999999ap-4 r0x1.5555555555555p-2)
(i4 r0x1.999999999999ap-3 r0x1.5555555555555p-1)
)");
    EXPECT_EQ(Answer(session, grouped),
              R"(group 0x1.2492492492492p-3 key [ W:INTEGER ]
(i1)
[ K:INTEGER V:REAL conf:REAL ]
(i1 r0x1p+0 r0x1p-2)
(i1 r0x1.4p+1 r0x1.8p-1)
(i4 r0x1.999999999999ap-4 r0x1p+0)
group 0x1.2492492492492p-2 key [ W:INTEGER ]
(i2)
[ K:INTEGER V:REAL conf:REAL ]
(i1 r0x1p+0 r0x1p-2)
(i1 r0x1.4p+1 r0x1.8p-1)
(i4 r0x1.999999999999ap-3 r0x1p+0)
group 0x1.2492492492492p-1 key [ W:INTEGER ]
(i4)
[ K:INTEGER V:REAL conf:REAL ]
(i1 r0x1p+0 r0x1p-2)
(i1 r0x1.4p+1 r0x1.8p-1)
(i4 r0x1.3333333333333p-2 r0x1p+0)
)");
    EXPECT_EQ(Answer(session, join),
              R"([ K:INTEGER V:REAL conf:REAL ]
(i1 r0x1.999999999999ap-4 r0x1.5555555555555p-4)
(i4 r0x1.999999999999ap-4 r0x1.8618618618618p-5)
(i4 r0x1.999999999999ap-3 r0x1.8618618618618p-4)
(i4 r0x1.3333333333333p-2 r0x1.8618618618618p-3)
)");
    EXPECT_EQ(Answer(session, average),
              R"([ avg:REAL conf:REAL ]
(r0x1.199999999999ap-1 r0x1.2492492492492p-5)
(r0x1.3333333333333p-1 r0x1.2492492492492p-4)
(r0x1.4cccccccccccdp-1 r0x1.2492492492492p-3)
(r0x1.4cccccccccccdp+0 r0x1.b6db6db6db6dbp-4)
(r0x1.599999999999ap+0 r0x1.b6db6db6db6dbp-3)
(r0x1.6666666666666p+0 r0x1.b6db6db6db6dbp-2)
)");
    EXPECT_EQ(Answer(session, "select avg(V) from I;"),
              R"(world 0x1.2492492492492p-5 [ avg:REAL ]
(r0x1.199999999999ap-1)
world 0x1.b6db6db6db6dbp-4 [ avg:REAL ]
(r0x1.4cccccccccccdp+0)
world 0x1.2492492492492p-4 [ avg:REAL ]
(r0x1.3333333333333p-1)
world 0x1.b6db6db6db6dbp-3 [ avg:REAL ]
(r0x1.599999999999ap+0)
world 0x1.2492492492492p-3 [ avg:REAL ]
(r0x1.4cccccccccccdp-1)
truncated
)");
    EXPECT_EQ(Answer(session, repair),
              R"([ K:INTEGER W:INTEGER conf:REAL ]
(i1 i1 r0x1.db6db6db6db6dp-3)
(i1 i3 r0x1.8p-1)
(i4 i1 r0x1p-3)
(i4 i2 r0x1.2492492492492p-2)
(i4 i4 r0x1.2492492492492p-1)
)");
  }
  // Each `create table … as` in a fresh session, so each structure shows
  // that statement's stored result alone.
  auto stored = [](const std::string& sql) {
    Session session(GoldenOptions());
    LoadMergedSource(session);
    Exec(session, "create table T as " + sql);
    return Structure(Wsd(session));
  };
  EXPECT_EQ(stored(assert_list),
            R"(C [ W:INTEGER V:REAL ]
I [ K:INTEGER V:REAL W:INTEGER ]
T [ K:INTEGER V:REAL ]
component 0
  alternative 0x1.2492492492493p-6
    c: (i1 r0x1.999999999999ap-4)
    i: (i1 r0x1p+0 i1) (i4 r0x1.999999999999ap-4 i1)
    t: (i1 r0x1p+0) (i4 r0x1.999999999999ap-4)
  alternative 0x1.b6db6db6db6ddp-5
    c: (i1 r0x1.999999999999ap-4)
    i: (i1 r0x1.4p+1 i3) (i4 r0x1.999999999999ap-4 i1)
    t: (i1 r0x1.4p+1) (i4 r0x1.999999999999ap-4)
  alternative 0x1.2492492492493p-5
    c: (i1 r0x1.999999999999ap-4)
    i: (i1 r0x1p+0 i1) (i4 r0x1.999999999999ap-3 i2)
    t: (i1 r0x1p+0) (i4 r0x1.999999999999ap-3)
  alternative 0x1.b6db6db6db6ddp-4
    c: (i1 r0x1.999999999999ap-4)
    i: (i1 r0x1.4p+1 i3) (i4 r0x1.999999999999ap-3 i2)
    t: (i1 r0x1.4p+1) (i4 r0x1.999999999999ap-3)
  alternative 0x1.2492492492493p-4
    c: (i1 r0x1.999999999999ap-4)
    i: (i1 r0x1p+0 i1) (i4 r0x1.3333333333333p-2 i4)
    t: (i1 r0x1p+0) (i4 r0x1.3333333333333p-2)
  alternative 0x1.b6db6db6db6ddp-3
    c: (i1 r0x1.999999999999ap-4)
    i: (i1 r0x1.4p+1 i3) (i4 r0x1.3333333333333p-2 i4)
    t: (i1 r0x1.4p+1) (i4 r0x1.3333333333333p-2)
  alternative 0x1.2492492492493p-6
    c: (i2 r0x1.999999999999ap-3)
    i: (i1 r0x1p+0 i1) (i4 r0x1.999999999999ap-4 i1)
    t: (i1 r0x1p+0) (i4 r0x1.999999999999ap-4)
  alternative 0x1.b6db6db6db6ddp-5
    c: (i2 r0x1.999999999999ap-3)
    i: (i1 r0x1.4p+1 i3) (i4 r0x1.999999999999ap-4 i1)
    t: (i1 r0x1.4p+1) (i4 r0x1.999999999999ap-4)
  alternative 0x1.2492492492493p-5
    c: (i2 r0x1.999999999999ap-3)
    i: (i1 r0x1p+0 i1) (i4 r0x1.999999999999ap-3 i2)
    t: (i1 r0x1p+0) (i4 r0x1.999999999999ap-3)
  alternative 0x1.b6db6db6db6ddp-4
    c: (i2 r0x1.999999999999ap-3)
    i: (i1 r0x1.4p+1 i3) (i4 r0x1.999999999999ap-3 i2)
    t: (i1 r0x1.4p+1) (i4 r0x1.999999999999ap-3)
  alternative 0x1.2492492492493p-4
    c: (i2 r0x1.999999999999ap-3)
    i: (i1 r0x1p+0 i1) (i4 r0x1.3333333333333p-2 i4)
    t: (i1 r0x1p+0) (i4 r0x1.3333333333333p-2)
  alternative 0x1.b6db6db6db6ddp-3
    c: (i2 r0x1.999999999999ap-3)
    i: (i1 r0x1.4p+1 i3) (i4 r0x1.3333333333333p-2 i4)
    t: (i1 r0x1.4p+1) (i4 r0x1.3333333333333p-2)
)");
  EXPECT_EQ(stored(assert_conf),
            R"(C [ W:INTEGER V:REAL ]
I [ K:INTEGER V:REAL W:INTEGER ]
T [ K:INTEGER V:REAL conf:REAL ]
(i1 r0x1p+0 r0x1p-2)
(i1 r0x1.4p+1 r0x1.8p-1)
(i4 r0x1.999999999999ap-4 r0x1.5555555555555p-2)
(i4 r0x1.999999999999ap-3 r0x1.5555555555555p-1)
component 0
  alternative 0x1.5555555555555p-2
    c: (i1 r0x1.999999999999ap-4)
  alternative 0x1.5555555555555p-2
    c: (i2 r0x1.999999999999ap-3)
  alternative 0x1.5555555555555p-2
    c: (i4 r0x1.3333333333333p-2)
component 1
  alternative 0x1.5555555555555p-4
    i: (i1 r0x1p+0 i1) (i4 r0x1.999999999999ap-4 i1)
  alternative 0x1p-2
    i: (i1 r0x1.4p+1 i3) (i4 r0x1.999999999999ap-4 i1)
  alternative 0x1.5555555555555p-3
    i: (i1 r0x1p+0 i1) (i4 r0x1.999999999999ap-3 i2)
  alternative 0x1p-1
    i: (i1 r0x1.4p+1 i3) (i4 r0x1.999999999999ap-3 i2)
)");
  EXPECT_EQ(stored(grouped),
            R"(C [ W:INTEGER V:REAL ]
I [ K:INTEGER V:REAL W:INTEGER ]
T [ K:INTEGER V:REAL conf:REAL ]
component 0
  alternative 0x1.5555555555555p-2
    c: (i1 r0x1.999999999999ap-4)
  alternative 0x1.5555555555555p-2
    c: (i2 r0x1.999999999999ap-3)
  alternative 0x1.5555555555555p-2
    c: (i4 r0x1.3333333333333p-2)
component 1
  alternative 0x1.2492492492492p-5
    i: (i1 r0x1p+0 i1) (i4 r0x1.999999999999ap-4 i1)
    t: (i1 r0x1p+0 r0x1p-2) (i1 r0x1.4p+1 r0x1.8p-1) (i4 r0x1.999999999999ap-4 r0x1p+0)
  alternative 0x1.b6db6db6db6dbp-4
    i: (i1 r0x1.4p+1 i3) (i4 r0x1.999999999999ap-4 i1)
    t: (i1 r0x1p+0 r0x1p-2) (i1 r0x1.4p+1 r0x1.8p-1) (i4 r0x1.999999999999ap-4 r0x1p+0)
  alternative 0x1.2492492492492p-4
    i: (i1 r0x1p+0 i1) (i4 r0x1.999999999999ap-3 i2)
    t: (i1 r0x1p+0 r0x1p-2) (i1 r0x1.4p+1 r0x1.8p-1) (i4 r0x1.999999999999ap-3 r0x1p+0)
  alternative 0x1.b6db6db6db6dbp-3
    i: (i1 r0x1.4p+1 i3) (i4 r0x1.999999999999ap-3 i2)
    t: (i1 r0x1p+0 r0x1p-2) (i1 r0x1.4p+1 r0x1.8p-1) (i4 r0x1.999999999999ap-3 r0x1p+0)
  alternative 0x1.2492492492492p-3
    i: (i1 r0x1p+0 i1) (i4 r0x1.3333333333333p-2 i4)
    t: (i1 r0x1p+0 r0x1p-2) (i1 r0x1.4p+1 r0x1.8p-1) (i4 r0x1.3333333333333p-2 r0x1p+0)
  alternative 0x1.b6db6db6db6dbp-2
    i: (i1 r0x1.4p+1 i3) (i4 r0x1.3333333333333p-2 i4)
    t: (i1 r0x1p+0 r0x1p-2) (i1 r0x1.4p+1 r0x1.8p-1) (i4 r0x1.3333333333333p-2 r0x1p+0)
)");
  EXPECT_EQ(stored(join),
            R"(C [ W:INTEGER V:REAL ]
I [ K:INTEGER V:REAL W:INTEGER ]
T [ K:INTEGER V:REAL conf:REAL ]
(i1 r0x1.999999999999ap-4 r0x1.5555555555555p-4)
(i4 r0x1.999999999999ap-4 r0x1.8618618618618p-5)
(i4 r0x1.999999999999ap-3 r0x1.8618618618618p-4)
(i4 r0x1.3333333333333p-2 r0x1.8618618618618p-3)
component 0
  alternative 0x1p-2
    i: (i1 r0x1p+0 i1)
  alternative 0x1.8p-1
    i: (i1 r0x1.4p+1 i3)
component 1
  alternative 0x1.2492492492492p-3
    i: (i4 r0x1.999999999999ap-4 i1)
  alternative 0x1.2492492492492p-2
    i: (i4 r0x1.999999999999ap-3 i2)
  alternative 0x1.2492492492492p-1
    i: (i4 r0x1.3333333333333p-2 i4)
component 2
  alternative 0x1.5555555555555p-2
    c: (i1 r0x1.999999999999ap-4)
  alternative 0x1.5555555555555p-2
    c: (i2 r0x1.999999999999ap-3)
  alternative 0x1.5555555555555p-2
    c: (i4 r0x1.3333333333333p-2)
)");
  EXPECT_EQ(stored("select avg(V) from I;"),
            R"(C [ W:INTEGER V:REAL ]
I [ K:INTEGER V:REAL W:INTEGER ]
T [ avg:REAL ]
component 0
  alternative 0x1.5555555555555p-2
    c: (i1 r0x1.999999999999ap-4)
  alternative 0x1.5555555555555p-2
    c: (i2 r0x1.999999999999ap-3)
  alternative 0x1.5555555555555p-2
    c: (i4 r0x1.3333333333333p-2)
component 1
  alternative 0x1.2492492492492p-5
    i: (i1 r0x1p+0 i1) (i4 r0x1.999999999999ap-4 i1)
    t: (r0x1.199999999999ap-1)
  alternative 0x1.b6db6db6db6dbp-4
    i: (i1 r0x1.4p+1 i3) (i4 r0x1.999999999999ap-4 i1)
    t: (r0x1.4cccccccccccdp+0)
  alternative 0x1.2492492492492p-4
    i: (i1 r0x1p+0 i1) (i4 r0x1.999999999999ap-3 i2)
    t: (r0x1.3333333333333p-1)
  alternative 0x1.b6db6db6db6dbp-3
    i: (i1 r0x1.4p+1 i3) (i4 r0x1.999999999999ap-3 i2)
    t: (r0x1.599999999999ap+0)
  alternative 0x1.2492492492492p-3
    i: (i1 r0x1p+0 i1) (i4 r0x1.3333333333333p-2 i4)
    t: (r0x1.4cccccccccccdp-1)
  alternative 0x1.b6db6db6db6dbp-2
    i: (i1 r0x1.4p+1 i3) (i4 r0x1.3333333333333p-2 i4)
    t: (r0x1.6666666666666p+0)
)");
  EXPECT_EQ(stored("select K, V from I repair by key W;"),
            R"(C [ W:INTEGER V:REAL ]
I [ K:INTEGER V:REAL W:INTEGER ]
T [ K:INTEGER V:REAL ]
component 0
  alternative 0x1.5555555555555p-2
    c: (i1 r0x1.999999999999ap-4)
  alternative 0x1.5555555555555p-2
    c: (i2 r0x1.999999999999ap-3)
  alternative 0x1.5555555555555p-2
    c: (i4 r0x1.3333333333333p-2)
component 1
  alternative 0x1.2492492492492p-6
    i: (i1 r0x1p+0 i1) (i4 r0x1.999999999999ap-4 i1)
    t: (i1 r0x1p+0)
  alternative 0x1.2492492492492p-6
    i: (i1 r0x1p+0 i1) (i4 r0x1.999999999999ap-4 i1)
    t: (i4 r0x1.999999999999ap-4)
  alternative 0x1.b6db6db6db6dbp-4
    i: (i1 r0x1.4p+1 i3) (i4 r0x1.999999999999ap-4 i1)
    t: (i4 r0x1.999999999999ap-4) (i1 r0x1.4p+1)
  alternative 0x1.2492492492492p-4
    i: (i1 r0x1p+0 i1) (i4 r0x1.999999999999ap-3 i2)
    t: (i1 r0x1p+0) (i4 r0x1.999999999999ap-3)
  alternative 0x1.b6db6db6db6dbp-3
    i: (i1 r0x1.4p+1 i3) (i4 r0x1.999999999999ap-3 i2)
    t: (i4 r0x1.999999999999ap-3) (i1 r0x1.4p+1)
  alternative 0x1.2492492492492p-3
    i: (i1 r0x1p+0 i1) (i4 r0x1.3333333333333p-2 i4)
    t: (i1 r0x1p+0) (i4 r0x1.3333333333333p-2)
  alternative 0x1.b6db6db6db6dbp-2
    i: (i1 r0x1.4p+1 i3) (i4 r0x1.3333333333333p-2 i4)
    t: (i1 r0x1.4p+1) (i4 r0x1.3333333333333p-2)
)");

  // MaterializeWorlds walks the product in the same order, component 0
  // fastest, below and above the world count.
  Session session(GoldenOptions());
  LoadMergedSource(session);
  auto worlds = [&session](size_t cap) {
    bool truncated = false;
    auto materialized = Wsd(session).MaterializeWorlds(cap, &truncated);
    EXPECT_TRUE(materialized.ok()) << materialized.status().ToString();
    if (!materialized.ok()) return std::string();
    std::string out;
    for (const World& world : *materialized) {
      out += "world " + Hex(world.probability);
      for (const char* rel : {"C", "I"}) {
        auto table = world.db.GetRelation(rel);
        EXPECT_TRUE(table.ok()) << table.status().ToString();
        if (!table.ok()) continue;
        out += std::string(" ") + rel + ":";
        for (const Tuple& row : (*table)->rows()) out += " " + RenderRow(row);
      }
      out += "\n";
    }
    return out + (truncated ? "truncated\n" : "");
  };
  EXPECT_EQ(worlds(4),
            R"(world 0x1.8618618618618p-7 C: (i1 r0x1.999999999999ap-4) I: (i1 r0x1p+0 i1) (i4 r0x1.999999999999ap-4 i1)
world 0x1.2492492492492p-5 C: (i1 r0x1.999999999999ap-4) I: (i1 r0x1.4p+1 i3) (i4 r0x1.999999999999ap-4 i1)
world 0x1.8618618618618p-6 C: (i1 r0x1.999999999999ap-4) I: (i1 r0x1p+0 i1) (i4 r0x1.999999999999ap-3 i2)
world 0x1.2492492492492p-4 C: (i1 r0x1.999999999999ap-4) I: (i1 r0x1.4p+1 i3) (i4 r0x1.999999999999ap-3 i2)
truncated
)");
  EXPECT_EQ(worlds(100),
            R"(world 0x1.8618618618618p-7 C: (i1 r0x1.999999999999ap-4) I: (i1 r0x1p+0 i1) (i4 r0x1.999999999999ap-4 i1)
world 0x1.2492492492492p-5 C: (i1 r0x1.999999999999ap-4) I: (i1 r0x1.4p+1 i3) (i4 r0x1.999999999999ap-4 i1)
world 0x1.8618618618618p-6 C: (i1 r0x1.999999999999ap-4) I: (i1 r0x1p+0 i1) (i4 r0x1.999999999999ap-3 i2)
world 0x1.2492492492492p-4 C: (i1 r0x1.999999999999ap-4) I: (i1 r0x1.4p+1 i3) (i4 r0x1.999999999999ap-3 i2)
world 0x1.8618618618618p-5 C: (i1 r0x1.999999999999ap-4) I: (i1 r0x1p+0 i1) (i4 r0x1.3333333333333p-2 i4)
world 0x1.2492492492492p-3 C: (i1 r0x1.999999999999ap-4) I: (i1 r0x1.4p+1 i3) (i4 r0x1.3333333333333p-2 i4)
world 0x1.8618618618618p-7 C: (i2 r0x1.999999999999ap-3) I: (i1 r0x1p+0 i1) (i4 r0x1.999999999999ap-4 i1)
world 0x1.2492492492492p-5 C: (i2 r0x1.999999999999ap-3) I: (i1 r0x1.4p+1 i3) (i4 r0x1.999999999999ap-4 i1)
world 0x1.8618618618618p-6 C: (i2 r0x1.999999999999ap-3) I: (i1 r0x1p+0 i1) (i4 r0x1.999999999999ap-3 i2)
world 0x1.2492492492492p-4 C: (i2 r0x1.999999999999ap-3) I: (i1 r0x1.4p+1 i3) (i4 r0x1.999999999999ap-3 i2)
world 0x1.8618618618618p-5 C: (i2 r0x1.999999999999ap-3) I: (i1 r0x1p+0 i1) (i4 r0x1.3333333333333p-2 i4)
world 0x1.2492492492492p-3 C: (i2 r0x1.999999999999ap-3) I: (i1 r0x1.4p+1 i3) (i4 r0x1.3333333333333p-2 i4)
world 0x1.8618618618618p-7 C: (i4 r0x1.3333333333333p-2) I: (i1 r0x1p+0 i1) (i4 r0x1.999999999999ap-4 i1)
world 0x1.2492492492492p-5 C: (i4 r0x1.3333333333333p-2) I: (i1 r0x1.4p+1 i3) (i4 r0x1.999999999999ap-4 i1)
world 0x1.8618618618618p-6 C: (i4 r0x1.3333333333333p-2) I: (i1 r0x1p+0 i1) (i4 r0x1.999999999999ap-3 i2)
world 0x1.2492492492492p-4 C: (i4 r0x1.3333333333333p-2) I: (i1 r0x1.4p+1 i3) (i4 r0x1.999999999999ap-3 i2)
world 0x1.8618618618618p-5 C: (i4 r0x1.3333333333333p-2) I: (i1 r0x1p+0 i1) (i4 r0x1.3333333333333p-2 i4)
world 0x1.2492492492492p-3 C: (i4 r0x1.3333333333333p-2) I: (i1 r0x1.4p+1 i3) (i4 r0x1.3333333333333p-2 i4)
)");

  Exec(session, "update I set V = V + 1 where K = 4;");
  EXPECT_EQ(Structure(Wsd(session)),
            R"(C [ W:INTEGER V:REAL ]
I [ K:INTEGER V:REAL W:INTEGER ]
component 0
  alternative 0x1.5555555555555p-2
    c: (i1 r0x1.999999999999ap-4)
  alternative 0x1.5555555555555p-2
    c: (i2 r0x1.999999999999ap-3)
  alternative 0x1.5555555555555p-2
    c: (i4 r0x1.3333333333333p-2)
component 1
  alternative 0x1.2492492492492p-5
    i: (i1 r0x1p+0 i1) (i4 r0x1.199999999999ap+0 i1)
  alternative 0x1.b6db6db6db6dbp-4
    i: (i1 r0x1.4p+1 i3) (i4 r0x1.199999999999ap+0 i1)
  alternative 0x1.2492492492492p-4
    i: (i1 r0x1p+0 i1) (i4 r0x1.3333333333333p+0 i2)
  alternative 0x1.b6db6db6db6dbp-3
    i: (i1 r0x1.4p+1 i3) (i4 r0x1.3333333333333p+0 i2)
  alternative 0x1.2492492492492p-3
    i: (i1 r0x1p+0 i1) (i4 r0x1.4cccccccccccdp+0 i4)
  alternative 0x1.b6db6db6db6dbp-2
    i: (i1 r0x1.4p+1 i3) (i4 r0x1.4cccccccccccdp+0 i4)
)");
}

}  // namespace
}  // namespace maybms::worlds
