// Experiment E2.8/E2.9 (DESIGN.md): regenerates `possible sum(B)` =
// {44, 49, 50, 55} and `certain E ... choice of C` = {e1}, then measures
// possible/certain evaluation:
//  * the per-tuple case (selection over one uncertain relation), where
//    the decomposed engine uses per-component math without enumeration;
//  * the aggregate case, where the explicit engine enumerates every world
//    and the decomposed engine folds partial aggregates one component at
//    a time.

#include <benchmark/benchmark.h>

#include <string>

#include "bench/workloads.h"
#include "isql/session.h"

namespace maybms::bench {
namespace {

using isql::EngineMode;

void PrintExamples() {
  auto session = MakeSession(EngineMode::kDecomposed);
  MustExecute(*session, Fig1Script());
  MustExecute(*session,
              "create table I as select A, B, C from R "
              "repair by key A weight D;");
  PrintReproduction("Example 2.8: possible sums (paper: 44, 49, 50, 55)",
                    *session, "select possible sum(B) from I;");
  PrintReproduction("Example 2.9: certain E across choice-of C (paper: e1)",
                    *session, "select certain E from S choice of C;");
}

void BM_Quantifier(benchmark::State& state, EngineMode mode,
                   const std::string& query, int n_keys, int group_size) {
  auto session = MakeSession(mode);
  MustExecute(*session, KeyViolationScript(n_keys, group_size));
  MustExecute(*session,
              "create table I as select K, V from R repair by key K;");
  for (auto _ : state) {
    auto result = MustQuery(*session, query);
    benchmark::DoNotOptimize(result.kind());
  }
  state.counters["keys"] = n_keys;
}

void RegisterBenchmarks() {
  struct Variant {
    const char* name;
    const char* query;
  };
  const Variant kTupleLevel[] = {
      {"possible_tuple", "select possible K, V from I where V < 50;"},
      {"certain_tuple", "select certain K, V from I where V < 50;"},
  };
  const Variant kAggregate[] = {
      {"possible_sum", "select possible sum(V) from I;"},
      {"certain_count", "select certain count(*) from I;"},
  };

  for (EngineMode mode : {EngineMode::kExplicit, EngineMode::kDecomposed}) {
    std::string engine =
        mode == EngineMode::kExplicit ? "explicit" : "decomposed";
    // Tuple-level: decomposed never enumerates; push sizes far beyond the
    // explicit engine's reach only for decomposed. The explicit sizes
    // were raised once the streaming combiner (worlds/combiner.h) made
    // per-world combination linear in answer tuples.
    for (const auto& v : kTupleLevel) {
      std::vector<int> sizes = {4, 8, 16, 18};
      if (mode == EngineMode::kDecomposed) {
        sizes = {4, 8, 16, 100, 1000, 10000, 20000, 40000};
      }
      for (int n : sizes) {
        benchmark::RegisterBenchmark(
            (std::string(v.name) + "/" + engine + "/keys:" +
             std::to_string(n))
                .c_str(),
            [mode, v](benchmark::State& s) {
              BM_Quantifier(s, mode, v.query, static_cast<int>(s.range(0)),
                            2);
            })
            ->Args({n})
            ->Unit(benchmark::kMicrosecond);
      }
    }
    // Aggregates: the explicit engine enumerates all 2^keys worlds (keys:18
    // became reachable with the streaming combiner); the decomposed
    // engine's aggregate fold walks Σ states × alternatives — at most
    // 100·keys distinct partial sums of V < 100, one count — so it alone
    // runs far past the merge cap.
    for (const auto& v : kAggregate) {
      std::vector<int> sizes = {4, 8, 12, 16, 18};
      if (mode == EngineMode::kDecomposed) {
        sizes.insert(sizes.end(), {20, 24, 100, 1000});
      }
      for (int n : sizes) {
        benchmark::RegisterBenchmark(
            (std::string(v.name) + "/" + engine + "/keys:" +
             std::to_string(n))
                .c_str(),
            [mode, v](benchmark::State& s) {
              BM_Quantifier(s, mode, v.query, static_cast<int>(s.range(0)),
                            2);
            })
            ->Args({n})
            ->Unit(benchmark::kMicrosecond);
      }
    }
  }
}

}  // namespace
}  // namespace maybms::bench

int main(int argc, char** argv) {
  maybms::bench::PrintExamples();
  maybms::bench::RegisterBenchmarks();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
