// Session-level tests: statement routing, views (including views over
// derived world-sets), error handling, and session options.

#include "isql/session.h"

#include <cstdlib>

#include <gtest/gtest.h>

#include "tests/test_util.h"

namespace maybms::isql {
namespace {

using maybms::testing::EngineTest;
using maybms::testing::Exec;
using maybms::testing::ExecScript;
using maybms::testing::ExpectRows;
using maybms::testing::WorldDistribution;

class SessionTest : public EngineTest {};

TEST_P(SessionTest, DdlAndDmlMessages) {
  Session session((Options()));
  QueryResult r = Exec(session, "create table T (A text);");
  EXPECT_EQ(r.kind(), QueryResult::Kind::kMessage);
  r = Exec(session, "insert into T values ('x');");
  EXPECT_EQ(r.kind(), QueryResult::Kind::kMessage);
  r = Exec(session, "update T set A = 'y';");
  EXPECT_EQ(r.kind(), QueryResult::Kind::kMessage);
  r = Exec(session, "delete from T;");
  EXPECT_EQ(r.kind(), QueryResult::Kind::kMessage);
  r = Exec(session, "drop table T;");
  EXPECT_EQ(r.kind(), QueryResult::Kind::kMessage);
}

TEST_P(SessionTest, ParseErrorsSurface) {
  Session session((Options()));
  auto r = session.Execute("selec * from T;");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kParseError);
}

TEST_P(SessionTest, DuplicateTableIsError) {
  Session session((Options()));
  Exec(session, "create table T (A text);");
  auto r = session.Execute("create table T (B text);");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kAlreadyExists);
  r = session.Execute("create table T as select * from T;");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kAlreadyExists);
}

TEST_P(SessionTest, QueryUnknownRelationIsNotFound) {
  Session session((Options()));
  auto r = session.Execute("select * from Nope;");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST_P(SessionTest, ExecuteScriptReturnsAllResults) {
  Session session((Options()));
  auto results = session.ExecuteScript(
      "create table T (A integer); insert into T values (1), (2);"
      "select * from T;");
  ASSERT_TRUE(results.ok());
  ASSERT_EQ(results->size(), 3u);
  EXPECT_EQ((*results)[2].kind(), QueryResult::Kind::kWorlds);
}

TEST_P(SessionTest, ScriptStopsAtFirstError) {
  Session session((Options()));
  auto results = session.ExecuteScript(
      "create table T (A integer); select * from Missing; "
      "create table U (B integer);");
  ASSERT_FALSE(results.ok());
  // T was created before the failure; U was not.
  EXPECT_TRUE(session.world_set().HasRelation("T"));
  EXPECT_FALSE(session.world_set().HasRelation("U"));
}

TEST_P(SessionTest, PlainViewExpandsTransparently) {
  Session session((Options()));
  maybms::testing::LoadFigure1(session);
  Exec(session, "create view BigB as select A, B from R where B >= 15;");
  QueryResult r = Exec(session, "select A from BigB where A <> 'a3';");
  auto dist = WorldDistribution(r.worlds());
  ASSERT_EQ(dist.size(), 1u);
  EXPECT_EQ(dist.begin()->first, "(a1);(a2);");
  EXPECT_EQ(session.ViewNames(), std::vector<std::string>{"bigb"});
}

TEST_P(SessionTest, ViewOverViewResolvesRecursively) {
  Session session((Options()));
  maybms::testing::LoadFigure1(session);
  Exec(session, "create view V1 as select A, B from R;");
  Exec(session, "create view V2 as select A from V1 where B = 20;");
  QueryResult r = Exec(session, "select distinct A from V2;");
  auto dist = WorldDistribution(r.worlds());
  ASSERT_EQ(dist.size(), 1u);
  EXPECT_EQ(dist.begin()->first, "(a2);(a3);");
}

TEST_P(SessionTest, CyclicViewsDetected) {
  Session session((Options()));
  maybms::testing::LoadFigure1(session);
  Exec(session, "create view W1 as select * from W2;");
  Exec(session, "create view W2 as select * from W1;");
  auto r = session.Execute("select * from W1;");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST_P(SessionTest, WorldCreatingViewIsReevaluatedPerQuery) {
  Session session((Options()));
  maybms::testing::LoadFigure1(session);
  // A view with repair: each query over it sees the repaired world-set,
  // but the session's own world-set stays single-world.
  Exec(session,
       "create view Rep as select A, B, C from R repair by key A;");
  QueryResult r = Exec(session, "select possible B from Rep;");
  ASSERT_EQ(r.kind(), QueryResult::Kind::kTable);
  ExpectRows(r.table(), {"(10)", "(14)", "(15)", "(20)"});
  EXPECT_EQ(session.world_set().NumWorlds(), 1u);
}

TEST_P(SessionTest, CreateTableFromViewMakesDerivedWorldSetReal) {
  Session session((Options()));
  maybms::testing::LoadFigure1(session);
  Exec(session, "create view Rep as select A, B, C from R repair by key A;");
  Exec(session, "create table Mat as select * from Rep where B >= 15;");
  // The repair inside the view became real: four worlds now.
  QueryResult r = Exec(session, "select * from Mat;");
  EXPECT_EQ(WorldDistribution(r.worlds()).size(), 4u);
}

TEST_P(SessionTest, DropViewRemovesOnlyTheView) {
  Session session((Options()));
  maybms::testing::LoadFigure1(session);
  Exec(session, "create view V as select * from R;");
  Exec(session, "drop view V;");
  EXPECT_TRUE(session.ViewNames().empty());
  EXPECT_TRUE(session.world_set().HasRelation("R"));
  auto r = session.Execute("select * from V;");
  EXPECT_FALSE(r.ok());
}

TEST_P(SessionTest, ViewNameCollisions) {
  Session session((Options()));
  maybms::testing::LoadFigure1(session);
  Exec(session, "create view V as select * from R;");
  auto r = session.Execute("create table V (A text);");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kAlreadyExists);
  r = session.Execute("create view R as select * from S;");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kAlreadyExists);
}

TEST_P(SessionTest, MaxDisplayWorldsTruncates) {
  SessionOptions options = Options();
  options.max_display_worlds = 2;
  Session session(options);
  maybms::testing::LoadFigure1(session);
  Exec(session, "create table I as select A, B, C from R repair by key A;");
  QueryResult r = Exec(session, "select * from I;");
  EXPECT_EQ(r.worlds().size(), 2u);
  EXPECT_TRUE(r.truncated());
}

// Integer arithmetic never wraps: +, -, *, unary minus, abs and an
// integer sum fail with "integer overflow" when the exact result leaves
// int64, and x % -1 is 0 (INT64_MIN % -1 used to trap the process).
TEST_P(SessionTest, IntegerArithmeticIsChecked) {
  Session session((Options()));
  ExecScript(session, R"sql(
    create table T (A integer);
    insert into T values (9223372036854775807), (-9223372036854775807 - 1);
    create table R (K integer, V integer);
    insert into R values (1, 9223372036854775807), (2, 1), (2, -1);
    create table I as select * from R repair by key K;
  )sql");
  auto expect_overflow = [&session](const std::string& sql) {
    auto r = session.Execute(sql);
    ASSERT_FALSE(r.ok()) << sql;
    EXPECT_EQ(r.status().code(), StatusCode::kRuntimeError) << sql;
    EXPECT_EQ(r.status().message(), "integer overflow") << sql;
  };
  expect_overflow("select A + 1 from T;");
  expect_overflow("select A - 1 from T;");
  expect_overflow("select A * 3 from T;");
  expect_overflow("select -A from T;");
  expect_overflow("select abs(A) from T;");
  expect_overflow("select sum(V) from R where K = 1 or V = 1;");
  expect_overflow("select possible sum(V) from I;");
  expect_overflow("select conf, sum(V) from I;");

  auto expect_rows = [&session](const std::string& sql,
                                std::vector<std::string> rows) {
    QueryResult r = Exec(session, sql);
    auto table = r.RequireTable();
    ASSERT_TRUE(table.ok()) << sql << ": " << table.status().ToString();
    ExpectRows(**table, std::move(rows));
  };
  // (I has two worlds: `possible` makes each answer one table.)
  expect_rows("select possible (-9223372036854775807 - 1) % -1, A % -1, "
              "mod(A, -1) from T;",
              {"(0, 0, 0)"});
  // The integer sum is exact, so an intermediate overflow that the total
  // undoes is no error, whatever the row order.
  expect_rows("select possible sum(V) from R;", {"(9223372036854775807)"});
  expect_rows("select possible sum(A) from T;", {"(-1)"});
  expect_rows("select possible sum(V) from I where K = 2;", {"(-1)", "(1)"});
  // The session keeps serving after the errors.
  expect_rows("select certain count(*) from T;", {"(2)"});
}

// A REAL becomes an INTEGER only when it truncates into int64: cast,
// floor/ceil and substr's start and length fail with "integer overflow"
// on NaN, ±inf and out-of-range values instead of converting them with
// undefined behaviour, and substr's end never overflows.
TEST_P(SessionTest, RealToIntegerConversionsAreChecked) {
  Session session((Options()));
  ExecScript(session, R"sql(
    create table T (A real, S text);
    insert into T values (1e19, 'abc'), (-2.7, 'xyz');
  )sql");
  auto expect_overflow = [&session](const std::string& sql) {
    auto r = session.Execute(sql);
    ASSERT_FALSE(r.ok()) << sql;
    EXPECT_EQ(r.status().code(), StatusCode::kRuntimeError) << sql;
    EXPECT_EQ(r.status().message(), "integer overflow") << sql;
  };
  expect_overflow("select cast(A as integer) from T;");
  expect_overflow("select floor(A) from T;");
  expect_overflow("select ceil(A) from T;");
  expect_overflow("select cast(cast('nan' as real) as integer) from T;");
  expect_overflow("select floor(cast('inf' as real)) from T;");
  expect_overflow("select ceil(cast('-inf' as real)) from T;");
  expect_overflow("select cast(9223372036854775807.0 as integer) from T;");
  expect_overflow("select substr(S, 1e30) from T;");
  expect_overflow("select substr(S, cast('nan' as real)) from T;");
  expect_overflow("select substr(S, 1, -1e30) from T;");
  // A non-numeric length is a type error, like a non-numeric start.
  auto type_error = session.Execute("select substr(S, 1, 'x') from T;");
  ASSERT_FALSE(type_error.ok());
  EXPECT_EQ(type_error.status().code(), StatusCode::kTypeError);

  auto expect_rows = [&session](const std::string& sql,
                                std::vector<std::string> rows) {
    QueryResult r = Exec(session, sql);
    auto table = r.RequireTable();
    ASSERT_TRUE(table.ok()) << sql << ": " << table.status().ToString();
    ExpectRows(**table, std::move(rows));
  };
  // In range, a REAL still truncates toward zero; an INTEGER is exact.
  expect_rows("select possible cast(A as integer), floor(A), ceil(A) "
              "from T where A < 0;",
              {"(-2, -3, -2)"});
  expect_rows("select possible cast(-9223372036854775808.0 as integer), "
              "floor(9223372036854775807), "
              "ceil(-9223372036854775807 - 1) from T;",
              {"(-9223372036854775808, 9223372036854775807, "
               "-9223372036854775808)"});
  expect_rows("select possible substr(S, 9223372036854775807, "
              "9223372036854775807), "
              "substr(S, -9223372036854775807 - 1, 9223372036854775807), "
              "substr(S, 2.9, 1.9) from T;",
              {"(, , b)", "(, , y)"});
}

// A quantified aggregate whose row or accumulator fails reports the
// per-world executor's error on both engines: the decomposed engine's
// aggregate fold hands such a statement back to world enumeration.
TEST_P(SessionTest, QuantifiedAggregateErrorsAreThePerWorldErrors) {
  Session session((Options()));
  ExecScript(session, R"sql(
    create table R (K integer, V integer, G text);
    insert into R values (1, 1, 'a'), (1, 2, 'b'), (2, 0, 'c'), (2, 3, 'd');
    create table I as select * from R repair by key K;
  )sql");
  auto expect_error = [&session](const std::string& sql, StatusCode code,
                                 const std::string& message) {
    auto r = session.Execute(sql);
    ASSERT_FALSE(r.ok()) << sql;
    EXPECT_EQ(r.status().code(), code) << sql;
    EXPECT_EQ(r.status().message(), message) << sql;
  };
  expect_error("select possible sum(G) from I;", StatusCode::kTypeError,
               "sum over non-numeric values");
  expect_error("select certain count(*), max(V / 0) from I;",
               StatusCode::kRuntimeError, "division by zero");
  expect_error("select conf, min(G + 1) from I where K = 2;",
               StatusCode::kTypeError,
               "arithmetic on non-numeric types: TEXT + INTEGER");
  expect_error("select possible max(case when K = 1 then V else G end) "
               "from I;",
               StatusCode::kTypeError, "cannot order TEXT against INTEGER");
}

TEST_P(SessionTest, RequireTableHelper) {
  Session session((Options()));
  maybms::testing::LoadFigure1(session);
  QueryResult single = Exec(session, "select possible A from R;");
  auto table = single.RequireTable();
  ASSERT_TRUE(table.ok());
  EXPECT_EQ((*table)->num_rows(), 3u);

  QueryResult worlds = Exec(session, "select A from R;");
  EXPECT_TRUE(worlds.RequireTable().ok()) << "single world counts as table";
}

// ---------------------------------------------------------------------------
// World-fold paths: an assert or group-worlds-by query that reads the
// statement's own answer (`__result`, or the `create table` target),
// repair/choice feeding `group worlds by`, and assert + quantifier over a
// merged sub-product. Each case runs at threads {1, 4}.
// ---------------------------------------------------------------------------

// I is a 4-world repair (K=1 picks V 1|2, K=2 picks V 3|4); S is certain.
constexpr char kFoldFixture[] = R"sql(
  create table R (K integer, V integer);
  insert into R values (1,1),(1,2),(2,3),(2,4);
  create table I as select * from R repair by key K;
  create table S (A integer, B integer);
  insert into S values (1, 10), (1, 20), (2, 30);
)sql";

struct ExpectedGroup {
  double probability;
  std::vector<std::string> key;
  std::vector<std::string> rows;
};

class SessionFoldTest : public EngineTest {
 protected:
  /// Runs `body` against a fresh fixture session at threads 1 and 4.
  template <typename Body>
  void AtThreads(Body body) {
    for (size_t threads : {1u, 4u}) {
      SCOPED_TRACE("threads " + std::to_string(threads));
      SessionOptions options = Options();
      options.threads = threads;
      Session session(options);
      ExecScript(session, kFoldFixture);
      body(session);
    }
  }

  static void ExpectTable(Session& session, const std::string& sql,
                          const std::vector<std::string>& rows) {
    SCOPED_TRACE(sql);
    QueryResult r = Exec(session, sql);
    ASSERT_EQ(r.kind(), QueryResult::Kind::kTable);
    ExpectRows(r.table(), rows);
  }

  static void ExpectGroups(Session& session, const std::string& sql,
                           const std::vector<ExpectedGroup>& groups) {
    SCOPED_TRACE(sql);
    QueryResult r = Exec(session, sql);
    ASSERT_EQ(r.kind(), QueryResult::Kind::kGroups);
    ASSERT_EQ(r.groups().size(), groups.size());
    for (size_t i = 0; i < groups.size(); ++i) {
      EXPECT_DOUBLE_EQ(r.groups()[i].probability, groups[i].probability);
      ExpectRows(r.groups()[i].key, groups[i].key);
      ExpectRows(r.groups()[i].table, groups[i].rows);
    }
  }
};

TEST_P(SessionFoldTest, AssertReadsInternalResult) {
  AtThreads([](Session& session) {
    ExpectTable(session,
                "select possible K, V from R repair by key K "
                "assert exists (select * from __result where V = 2);",
                {"(1, 2)", "(2, 3)", "(2, 4)"});
    ExpectTable(session,
                "select conf, K, V from I "
                "assert exists (select * from __result where V = 2);",
                {"(1, 2, 1)", "(2, 3, 0.5)", "(2, 4, 0.5)"});
  });
}

TEST_P(SessionFoldTest, GroupWorldsByReadsInternalResult) {
  AtThreads([](Session& session) {
    ExpectGroups(session,
                 "select possible K, V from I "
                 "group worlds by (select V from __result where K = 1);",
                 {{0.5, {"(1)"}, {"(1, 1)", "(2, 3)", "(2, 4)"}},
                  {0.5, {"(2)"}, {"(1, 2)", "(2, 3)", "(2, 4)"}}});
  });
}

TEST_P(SessionFoldTest, RepairAndChoiceFeedGroupWorldsBy) {
  AtThreads([](Session& session) {
    const std::vector<std::string> conf = {"(1, 10, 0.5)", "(1, 20, 0.5)",
                                           "(2, 30, 1)"};
    ExpectGroups(session,
                 "select conf, A, B from S repair by key A "
                 "group worlds by (select V from I where K = 1);",
                 {{0.5, {"(1)"}, conf}, {0.5, {"(2)"}, conf}});
    ExpectGroups(session,
                 "select certain A, B from S repair by key A "
                 "group worlds by (select B from __result where A = 1);",
                 {{0.5, {"(10)"}, {"(1, 10)", "(2, 30)"}},
                  {0.5, {"(20)"}, {"(1, 20)", "(2, 30)"}}});
    ExpectGroups(session,
                 "select possible A, B from S choice of A "
                 "group worlds by (select A from __result);",
                 {{0.5, {"(1)"}, {"(1, 10)", "(1, 20)"}},
                  {0.5, {"(2)"}, {"(2, 30)"}}});
  });
}

TEST_P(SessionFoldTest, AssertWithQuantifierOverMergedSubProduct) {
  AtThreads([](Session& session) {
    ExpectTable(session,
                "select conf, sum(V) from I "
                "assert exists (select * from I where K = 1 and V = 2);",
                {"(5, 0.5)", "(6, 0.5)"});
    ExpectTable(session,
                "select conf, A, B from S repair by key A "
                "assert exists (select * from I where K = 2 and V = 4);",
                {"(1, 10, 0.5)", "(1, 20, 0.5)", "(2, 30, 1)"});
  });
}

TEST_P(SessionFoldTest, CreateTableAsReadsItsOwnTarget) {
  AtThreads([](Session& session) {
    Exec(session,
         "create table T as select K, V from I "
         "assert exists (select * from T where V = 2);");
    ExpectTable(session, "select conf, K, V from T;",
                {"(1, 2, 1)", "(2, 3, 0.5)", "(2, 4, 0.5)"});
    ExpectTable(session, "select conf, K, V from I;",
                {"(1, 2, 1)", "(2, 3, 0.5)", "(2, 4, 0.5)"});
  });
  AtThreads([](Session& session) {
    Exec(session,
         "create table G as select possible K, V from I "
         "group worlds by (select V from G where K = 1);");
    ExpectTable(session, "select conf, K, V from G;",
                {"(1, 1, 0.5)", "(1, 2, 0.5)", "(2, 3, 1)", "(2, 4, 1)"});
    Exec(session,
         "create table U as select certain A, B from S repair by key A "
         "group worlds by (select B from U where A = 1);");
    ExpectTable(session, "select conf, A, B from U;",
                {"(1, 10, 0.5)", "(1, 20, 0.5)", "(2, 30, 1)"});
  });
  AtThreads([](Session& session) {
    Exec(session,
         "create table P as select possible A, B from S repair by key A "
         "assert exists (select * from P where B = 20);");
    ExpectTable(session, "select conf, A, B from P;",
                {"(1, 20, 1)", "(2, 30, 1)"});
    Exec(session,
         "create table Q as select conf, A, B from S repair by key A "
         "assert exists (select * from Q where B = 10);");
    ExpectTable(session, "select possible * from Q;",
                {"(1, 10, 1)", "(2, 30, 1)"});
  });
}

MAYBMS_INSTANTIATE_ENGINES(SessionTest);
MAYBMS_INSTANTIATE_ENGINES(SessionFoldTest);

// Engine-cap behaviour is engine-specific.
TEST(SessionCapsTest, ExplicitEngineRefusesHugeWorldSets) {
  SessionOptions options;
  options.engine = EngineMode::kExplicit;
  options.max_explicit_worlds = 8;
  Session session(options);
  ExecScript(session, R"sql(
    create table R (K integer, V integer);
    insert into R values (1,1),(1,2),(2,1),(2,2),(3,1),(3,2),(4,1),(4,2);
  )sql");
  auto r = session.Execute("create table I as select * from R repair by key K;");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kUnsupported);
}

TEST(SessionCapsTest, DecomposedEngineHandlesTheSameInputEasily) {
  SessionOptions options;
  options.engine = EngineMode::kDecomposed;
  Session session(options);
  ExecScript(session, R"sql(
    create table R (K integer, V integer);
    insert into R values (1,1),(1,2),(2,1),(2,2),(3,1),(3,2),(4,1),(4,2);
  )sql");
  QueryResult r = Exec(session, "create table I as select * from R repair by key K;");
  EXPECT_EQ(r.kind(), QueryResult::Kind::kMessage);
  EXPECT_EQ(session.world_set().NumWorlds(), 16u);
}

TEST(SessionCapsTest, DecomposedMergeCapGuardsCorrelation) {
  SessionOptions options;
  options.engine = EngineMode::kDecomposed;
  options.max_merge = 8;
  Session session(options);
  ExecScript(session, R"sql(
    create table R (K integer, V integer);
    insert into R values (1,1),(1,2),(2,1),(2,2),(3,1),(3,2),(4,1),(4,2);
    create table I as select * from R repair by key K;
  )sql");
  // The self-join correlates all 4 components: 16 > max_merge.
  auto r = session.Execute("select possible a.V from I a, I b where a.K < b.K;");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kUnsupported);
}

TEST(SessionCapsTest, DecomposedAggregateFoldNeedsNoMerge) {
  SessionOptions options;
  options.engine = EngineMode::kDecomposed;
  options.max_merge = 8;
  Session session(options);
  ExecScript(session, R"sql(
    create table R (K integer, V integer);
    insert into R values (1,1),(1,2),(2,1),(2,2),(3,1),(3,2),(4,1),(4,2);
    create table I as select * from R repair by key K;
  )sql");
  // 16 worlds, but only 5 distinct sums: the fold never holds more than
  // 5 partial states, so the cap of 8 does not refuse it.
  QueryResult r = Exec(session, "select possible sum(V) from I;");
  ASSERT_EQ(r.kind(), QueryResult::Kind::kTable);
  ExpectRows(r.table(), {"(4)", "(5)", "(6)", "(7)", "(8)"});
  EXPECT_EQ(session.world_set().NumWorlds(), 16u);
}

TEST(SessionCapsTest, DecomposedAggregatesOverMillionsOfWorlds) {
  SessionOptions options;
  options.engine = EngineMode::kDecomposed;
  Session session(options);
  std::string insert = "insert into R values ";
  for (int k = 0; k < 24; ++k) {
    insert += (k == 0 ? "" : ", ") + std::string("(") + std::to_string(k) +
              ", 1), (" + std::to_string(k) + ", 2)";
  }
  ExecScript(session, "create table R (K integer, V integer);\n" + insert +
                          ";\ncreate table I as select * from R "
                          "repair by key K;");
  ASSERT_EQ(session.world_set().NumWorlds(), uint64_t{1} << 24);

  // 2^24 worlds exceed the default merge cap of 2^20; the fold does not
  // enumerate them.
  QueryResult possible = Exec(session, "select possible sum(V) from I;");
  ASSERT_EQ(possible.kind(), QueryResult::Kind::kTable);
  std::vector<std::string> sums;
  for (int s = 24; s <= 48; ++s) sums.push_back("(" + std::to_string(s) + ")");
  ExpectRows(possible.table(), sums);

  QueryResult certain = Exec(session, "select certain count(*) from I;");
  ASSERT_EQ(certain.kind(), QueryResult::Kind::kTable);
  ExpectRows(certain.table(), {"(24)"});
  QueryResult none = Exec(session, "select certain sum(V) from I;");
  ASSERT_EQ(none.kind(), QueryResult::Kind::kTable);
  EXPECT_EQ(none.table().num_rows(), 0u);

  // conf of a sum of 24 fair coin flips over {1, 2}: C(24, j) / 2^24.
  QueryResult conf =
      Exec(session, "select conf, sum(V), count(V) from I where K < 24;");
  ASSERT_EQ(conf.kind(), QueryResult::Kind::kTable);
  ASSERT_EQ(conf.table().num_rows(), 25u);
  double binomial = 1;
  for (size_t j = 0; j <= 24; ++j) {
    const Tuple& row = conf.table().row(j);
    EXPECT_EQ(row.value(0).AsInteger(), static_cast<int64_t>(24 + j));
    EXPECT_EQ(row.value(1).AsInteger(), 24);
    EXPECT_NEAR(row.value(2).AsReal(), binomial / (1 << 24), 1e-12);
    binomial = binomial * static_cast<double>(24 - j) /
               static_cast<double>(j + 1);
  }
}

TEST(SessionCapsTest, RepairChoiceCapErrorsNameTheirCap) {
  const char* kData = R"sql(
    create table R (K integer, V integer);
    insert into R values (1,1),(1,2),(2,1),(2,2),(3,1),(3,2),(4,1),(4,2);
  )sql";
  auto expect_error = [](Session& session, const std::string& sql,
                         const std::string& message) {
    auto r = session.Execute(sql);
    ASSERT_FALSE(r.ok()) << sql;
    EXPECT_EQ(r.status().code(), StatusCode::kUnsupported) << sql;
    EXPECT_NE(r.status().message().find(message), std::string::npos)
        << sql << "\n" << r.status().ToString();
  };
  SessionOptions explicit_options;
  explicit_options.engine = EngineMode::kExplicit;
  explicit_options.max_explicit_worlds = 8;
  Session explicit_session(explicit_options);
  ExecScript(explicit_session, kData);
  expect_error(explicit_session,
               "select possible K from R repair by key K;",
               "explicit world-set would exceed the configured cap of 8 "
               "worlds; use the decomposed engine");

  SessionOptions decomposed_options;
  decomposed_options.engine = EngineMode::kDecomposed;
  decomposed_options.max_merge = 8;
  Session decomposed_session(decomposed_options);
  ExecScript(decomposed_session, kData);
  // Repair over certain data, enumerated because assert correlates it.
  expect_error(decomposed_session,
               "select possible K from R repair by key K assert true;",
               "component merge would exceed 8 alternatives");
  // Repair over an uncertain source: 2 merged worlds x 16 repairs each.
  ExecScript(decomposed_session,
             "create table C as select K, V from R where K = 1 "
             "repair by key K;");
  expect_error(decomposed_session,
               "select possible K from R where exists "
               "(select * from C where V = 1) repair by key K;",
               "repair/choice over an uncertain source exceeds the merge cap "
               "of 8 alternatives");
}

// MAYBMS_POOL_PAGES must be validated like MAYBMS_THREADS
// (base/thread_pool.cc): a malformed value is a configuration error the
// user hears about, never a silent fallback to the default pool size.
class PoolPagesEnvTest : public ::testing::Test {
 protected:
  void TearDown() override {
    ::unsetenv("MAYBMS_POOL_PAGES");
    ::unsetenv("MAYBMS_STORAGE");
  }

  /// A paged session picking its pool size from the environment.
  static SessionOptions PagedFromEnv() {
    SessionOptions options;
    options.storage = StorageMode::kPaged;
    options.pool_pages = 0;  // resolve MAYBMS_POOL_PAGES
    return options;
  }
};

TEST_F(PoolPagesEnvTest, MalformedValuesAreInvalidArgument) {
  for (const char* bad : {"abc", "64k", "-1", "0", "", " 64", "64 ",
                          "0x40", "18446744073709551616"}) {
    ASSERT_EQ(::setenv("MAYBMS_POOL_PAGES", bad, 1), 0);
    Session session(PagedFromEnv());
    auto r = session.Execute("create table T (A integer);");
    ASSERT_FALSE(r.ok()) << "MAYBMS_POOL_PAGES=\"" << bad
                         << "\" was silently accepted";
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument) << bad;
    EXPECT_NE(r.status().message().find("MAYBMS_POOL_PAGES"),
              std::string::npos)
        << "error should name the variable: " << r.status().ToString();
    // The failure is sticky: every later statement reports it too.
    auto again = session.Execute("select 1;");
    EXPECT_FALSE(again.ok()) << bad;
  }
}

TEST_F(PoolPagesEnvTest, ValidValueSizesThePool) {
  ASSERT_EQ(::setenv("MAYBMS_POOL_PAGES", "16", 1), 0);
  Session session(PagedFromEnv());
  ExecScript(session, "create table T (A integer);"
                      "insert into T values (1);");
  ASSERT_NE(session.paged_store(), nullptr);
  EXPECT_EQ(session.paged_store()->pool()->pool_pages(), 16u);
}

TEST_F(PoolPagesEnvTest, ExplicitOptionIgnoresTheEnvironment) {
  ASSERT_EQ(::setenv("MAYBMS_POOL_PAGES", "garbage", 1), 0);
  SessionOptions options = PagedFromEnv();
  options.pool_pages = 32;
  Session session(options);
  ExecScript(session, "create table T (A integer);");
  ASSERT_NE(session.paged_store(), nullptr);
  EXPECT_EQ(session.paged_store()->pool()->pool_pages(), 32u);
}

}  // namespace
}  // namespace maybms::isql
