// The analyst workloads: one in-process isql::Session, one client in a
// closed loop (each statement waits for the previous answer, as in
// isql_shell), running the workload's statement mix pass after pass.

#include <cstdio>
#include <memory>

#include "common.h"
#include "isql/formatter.h"

namespace e2ebench {
namespace {

namespace isql = maybms::isql;

struct Answer {
  bool ok;
  std::string text;
};

/// Session::Execute then FormatQueryResult: what a shell user waits for.
/// Their spans are children of `parent`.
Answer ExecuteAndFormat(isql::Session& session, const Statement& stmt,
                        int64_t parent, int64_t request, SpanLog* log) {
  maybms::Result<isql::QueryResult> result = [&] {
    ScopedSpan span(log, "isql.execute", stmt.cls, parent, request);
    return session.Execute(stmt.sql);
  }();
  if (!result.ok()) return {false, result.status().ToString()};
  ScopedSpan span(log, "isql.format", stmt.cls, parent, request);
  return {true, isql::FormatQueryResult(*result)};
}

std::unique_ptr<isql::Session> LoadSession(const Args& args,
                                           const std::string& setup) {
  auto session = std::make_unique<isql::Session>(BenchSessionOptions(
      ParseEngine(args.Get("engine", "decomposed")),
      isql::StorageMode::kMemory,
      static_cast<size_t>(args.GetInt("threads", 1))));
  auto loaded = session->ExecuteScript(setup);
  if (!loaded.ok()) {
    std::fprintf(stderr, "e2ebench: setup failed: %s\n",
                 loaded.status().ToString().c_str());
    std::exit(1);
  }
  return session;
}

std::string DigestMap(const std::vector<std::string>& digests) {
  Json json;
  for (size_t i = 0; i < digests.size(); ++i) {
    json.Str(std::to_string(i), digests[i]);
  }
  return json.Build();
}

}  // namespace

int RunAnalyst(const Args& args) {
  const std::string dir = args.Get("dir", ".");
  const std::string setup = ReadFile(dir + "/setup.sql");
  const std::vector<Statement> mix = ReadStatements(dir + "/mix.tsv");
  const double seconds = static_cast<double>(args.GetInt("seconds", 10));
  const bool trace = args.GetInt("trace", 0) != 0;

  // Set-up: load the data and build the world-set several times (at
  // least `setup-reps`, and for at least a second in all, so a cheap
  // set-up is still a steady median). The last session is measured.
  std::vector<double> setup_s;
  std::unique_ptr<isql::Session> session;
  const int64_t setup_start = NowNs();
  for (int64_t rep = 0; rep < args.GetInt("setup-reps", 3) ||
                        (NowNs() - setup_start < 1'000'000'000 && rep < 200);
       ++rep) {
    session.reset();
    int64_t start = NowNs();
    session = LoadSession(args, setup);
    setup_s.push_back(static_cast<double>(NowNs() - start) / 1e9);
  }

  SpanLog log(trace, 0);
  std::map<std::string, std::vector<double>> latency_ms;
  std::vector<std::string> digests(mix.size());
  int64_t attempted = 0, errors = 0, mismatches = 0, probe_failures = 0;
  int64_t passes = 0, request = 0;
  const int64_t start = NowNs();
  // Whole passes only: every class gets the same number of samples.
  while (passes == 0 ||
         static_cast<double>(NowNs() - start) / 1e9 < seconds) {
    for (size_t i = 0; i < mix.size(); ++i) {
      const Statement& stmt = mix[i];
      ++request;
      int64_t t0 = NowNs();
      Answer answer = [&] {
        ScopedSpan span(&log, "request", stmt.cls, -1, request);
        return ExecuteAndFormat(*session, stmt, span.id(), request, &log);
      }();
      latency_ms[stmt.cls].push_back(static_cast<double>(NowNs() - t0) / 1e6);
      ++attempted;
      if (!answer.ok) {
        ++errors;
        std::fprintf(stderr, "e2ebench: statement %zu failed: %s\n", i,
                     answer.text.c_str());
      }
      // The write class restores the data within each pass, so every
      // pass must give every statement the same answer.
      std::string digest = Digest(answer.text);
      if (passes == 0) {
        digests[i] = digest;
      } else if (digest != digests[i]) {
        ++mismatches;
      }
      if (trace && !ProbeLayers(*session, stmt, false, request, &log)) {
        ++probe_failures;
      }
    }
    ++passes;
  }
  const double elapsed_s = static_cast<double>(NowNs() - start) / 1e9;

  Json lat;
  for (const auto& [cls, values] : latency_ms) lat.NumList(cls, values);
  Json out;
  out.Str("engine", args.Get("engine", "decomposed"))
      .Int("threads", args.GetInt("threads", 1))
      .NumList("setup_s", setup_s)
      .Num("log10_worlds", session->world_set().Log10NumWorlds())
      .Int("passes", passes)
      .Num("elapsed_s", elapsed_s)
      .Num("rss_mb", PeakRssMb())
      .Int("attempted", attempted)
      .Int("errors", errors)
      .Int("mismatches", mismatches)
      .Int("probe_failures", probe_failures)
      .Raw("latency_ms", lat.Build())
      .Raw("digests", DigestMap(digests));
  out.WriteTo(args.Get("out", dir + "/analyst.json"));
  if (trace) WriteSpans(args.Get("spans", dir + "/spans.tsv"), {&log});
  return 0;
}

}  // namespace e2ebench
