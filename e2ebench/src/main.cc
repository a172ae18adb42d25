// e2ebench_runner: the compiled half of the end-to-end benchmark.
//
//   e2ebench_runner analyst --dir D --engine E --seconds S --trace 0|1 ...
//   e2ebench_runner wire-load --dir D --port P --out F
//   e2ebench_runner wire    --dir D --port P|--in-process 1 --seconds S ...
//
// run.py generates the workload files in D from the seed, runs these
// modes, and turns their result files into the benchmark's metrics.

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "common.h"
#include "engine/executor.h"
#include "isql/formatter.h"
#include "sql/parser.h"

namespace e2ebench {

int RunAnalyst(const Args& args);
int RunWireLoad(const Args& args);
int RunWire(const Args& args);

std::string Args::Get(const std::string& key,
                      const std::string& fallback) const {
  auto it = values.find(key);
  return it == values.end() ? fallback : it->second;
}

int64_t Args::GetInt(const std::string& key, int64_t fallback) const {
  auto it = values.find(key);
  return it == values.end() ? fallback : std::strtoll(it->second.c_str(), nullptr, 10);
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "e2ebench: cannot read %s\n", path.c_str());
    std::exit(2);
  }
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

std::vector<std::vector<std::string>> ReadTsv(const std::string& path) {
  std::vector<std::vector<std::string>> rows;
  std::istringstream in(ReadFile(path));
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::vector<std::string> fields;
    size_t start = 0;
    for (size_t tab; (tab = line.find('\t', start)) != std::string::npos;
         start = tab + 1) {
      fields.push_back(line.substr(start, tab - start));
    }
    fields.push_back(line.substr(start));
    rows.push_back(std::move(fields));
  }
  return rows;
}

std::vector<Statement> ReadStatements(const std::string& path) {
  std::vector<Statement> statements;
  for (auto& fields : ReadTsv(path)) {
    if (fields.size() != 2) {
      std::fprintf(stderr, "e2ebench: malformed line in %s\n", path.c_str());
      std::exit(2);
    }
    statements.push_back({fields[0], fields[1]});
  }
  return statements;
}

std::string Digest(const std::string& text) {
  uint64_t hash = 1469598103934665603ULL;
  for (unsigned char c : text) {
    hash ^= c;
    hash *= 1099511628211ULL;
  }
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016" PRIx64, hash);
  return hex;
}

double PeakRssMb() {
  std::istringstream in(ReadFile("/proc/self/status"));
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

maybms::isql::SessionOptions BenchSessionOptions(
    maybms::isql::EngineMode engine, maybms::isql::StorageMode storage,
    size_t threads) {
  maybms::isql::SessionOptions options;
  options.engine = engine;
  options.storage = storage;
  options.threads = threads;
  options.max_explicit_worlds = 1 << 22;
  options.max_merge = 1 << 22;
  return options;
}

maybms::isql::EngineMode ParseEngine(const std::string& name) {
  if (name == "explicit") return maybms::isql::EngineMode::kExplicit;
  if (name == "decomposed") return maybms::isql::EngineMode::kDecomposed;
  std::fprintf(stderr, "e2ebench: unknown engine '%s'\n", name.c_str());
  std::exit(2);
}

int64_t SpanLog::Open(const char* name, const std::string& cls,
                      int64_t parent, int64_t request) {
  if (!enabled_) return -1;
  int64_t id = id_base_ + static_cast<int64_t>(spans_.size());
  spans_.push_back({name, cls, id, parent, request, NowNs(), 0, -1});
  return id;
}

void SpanLog::Close(int64_t id, int64_t count) {
  if (id < 0) return;
  Span& span = spans_[static_cast<size_t>(id - id_base_)];
  span.end_ns = NowNs();
  span.count = count;
}

void WriteSpans(const std::string& path,
                const std::vector<const SpanLog*>& logs) {
  std::ofstream out(path);
  for (const SpanLog* log : logs) {
    for (const SpanLog::Span& s : log->spans()) {
      out << s.id << '\t' << s.parent << '\t' << s.request << '\t' << s.name
          << '\t' << s.cls << '\t' << s.start_ns << '\t' << s.end_ns << '\t'
          << s.count << '\n';
    }
  }
  if (!out) {
    std::fprintf(stderr, "e2ebench: cannot write %s\n", path.c_str());
    std::exit(2);
  }
}

bool ProbeLayers(maybms::isql::Session& session, const Statement& stmt,
                 bool with_execute, int64_t request, SpanLog* log) {
  namespace isql = maybms::isql;
  namespace sql = maybms::sql;
  const std::string& cls = stmt.cls;
  bool ok = true;
  if (with_execute) {
    maybms::Result<isql::QueryResult> result = [&] {
      ScopedSpan span(log, "isql.execute", cls, -1, request);
      return session.Execute(stmt.sql);
    }();
    if (!result.ok()) return false;
    ScopedSpan span(log, "isql.format", cls, -1, request);
    span.set_count(static_cast<int64_t>(isql::FormatQueryResult(*result).size()));
  }
  maybms::Result<sql::StatementPtr> parsed = [&] {
    ScopedSpan span(log, "sql.parse", cls, -1, request);
    return sql::Parser::ParseStatement(stmt.sql);
  }();
  if (!parsed.ok()) return false;
  const maybms::worlds::WorldSet& ws = session.world_set();
  if ((*parsed)->kind != sql::StatementKind::kSelect) {
    ScopedSpan span(log, "worlds.clone", cls, -1, request);
    return ws.Clone() != nullptr;
  }
  const auto& select = static_cast<const sql::SelectStatement&>(**parsed);
  {
    ScopedSpan span(log, "worlds.evaluate", cls, -1, request);
    ok = ws.EvaluateSelect(select, session.options().max_display_worlds).ok();
  }
  // The same SELECT under standard semantics in one world: the per-world
  // work the engines repeat for every world they enumerate.
  std::unique_ptr<sql::SelectStatement> core = select.Clone();
  core->quantifier = sql::WorldQuantifier::kNone;
  core->assert_condition = nullptr;
  core->group_worlds_by = nullptr;
  core->repair.reset();
  core->choice.reset();
  auto top = [&] {
    ScopedSpan span(log, "worlds.topk", cls, -1, request);
    return ws.TopKWorlds(1);
  }();
  if (!top.ok() || top->empty()) return false;
  ScopedSpan span(log, "engine.world_exec", cls, -1, request);
  maybms::Result<maybms::Table> rows =
      maybms::engine::ExecuteSelect(*core, (*top)[0].db);
  if (!rows.ok()) return false;
  span.set_count(static_cast<int64_t>(rows->num_rows()));
  return ok;
}

void Json::Key(const std::string& key) {
  if (!body_.empty()) body_ += ", ";
  body_ += JsonQuote(key) + ": ";
}

Json& Json::Num(const std::string& key, double value) {
  Key(key);
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  body_ += buf;
  return *this;
}

Json& Json::Int(const std::string& key, int64_t value) {
  Key(key);
  body_ += std::to_string(value);
  return *this;
}

Json& Json::Str(const std::string& key, const std::string& value) {
  Key(key);
  body_ += JsonQuote(value);
  return *this;
}

Json& Json::NumList(const std::string& key, const std::vector<double>& values) {
  Key(key);
  body_ += "[";
  char buf[64];
  for (size_t i = 0; i < values.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%s%.9g", i ? ", " : "", values[i]);
    body_ += buf;
  }
  body_ += "]";
  return *this;
}

Json& Json::Raw(const std::string& key, const std::string& json) {
  Key(key);
  body_ += json;
  return *this;
}

void Json::WriteTo(const std::string& path) const {
  std::ofstream out(path);
  out << Build() << '\n';
  if (!out) {
    std::fprintf(stderr, "e2ebench: cannot write %s\n", path.c_str());
    std::exit(2);
  }
}

std::string JsonQuote(const std::string& text) {
  std::string out = "\"";
  for (char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

}  // namespace e2ebench

int main(int argc, char** argv) {
  using e2ebench::Args;
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: %s analyst|wire-load|wire --key value ...\n",
                 argv[0]);
    return 2;
  }
  Args args;
  args.mode = argv[1];
  for (int i = 2; i + 1 < argc; i += 2) {
    std::string key = argv[i];
    if (key.rfind("--", 0) != 0) {
      std::fprintf(stderr, "e2ebench: expected --key, got '%s'\n", argv[i]);
      return 2;
    }
    args.values[key.substr(2)] = argv[i + 1];
  }
  if (args.mode == "analyst") return e2ebench::RunAnalyst(args);
  if (args.mode == "wire-load") return e2ebench::RunWireLoad(args);
  if (args.mode == "wire") return e2ebench::RunWire(args);
  std::fprintf(stderr, "e2ebench: unknown mode '%s'\n", argv[1]);
  return 2;
}
