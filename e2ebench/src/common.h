#ifndef E2EBENCH_COMMON_H_
#define E2EBENCH_COMMON_H_

// Shared plumbing of the end-to-end benchmark runner: the workload files
// run.py writes, the in-memory span log of the traced run, answer
// digests, and a small JSON writer for the result files.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "isql/session.h"

namespace e2ebench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Parsed command line: `--key value` pairs after the mode word.
struct Args {
  std::string mode;
  std::map<std::string, std::string> values;

  std::string Get(const std::string& key, const std::string& fallback) const;
  int64_t GetInt(const std::string& key, int64_t fallback) const;
};

/// One statement of a workload file: its class and its I-SQL text.
struct Statement {
  std::string cls;
  std::string sql;
};

/// Reads a whole file; exits the process with a message on failure.
std::string ReadFile(const std::string& path);

/// Splits a file into lines of tab-separated fields (empty lines dropped).
std::vector<std::vector<std::string>> ReadTsv(const std::string& path);

/// Reads `<class>\t<sql>` lines.
std::vector<Statement> ReadStatements(const std::string& path);

/// 64-bit FNV-1a of an answer text, as 16 hex digits.
std::string Digest(const std::string& text);

/// Peak resident set size of this process (VmHWM), MiB.
double PeakRssMb();

/// Session options every benchmark session shares: caps large enough
/// for the workloads' world counts, and the given engine/storage/threads.
maybms::isql::SessionOptions BenchSessionOptions(
    maybms::isql::EngineMode engine, maybms::isql::StorageMode storage,
    size_t threads);

maybms::isql::EngineMode ParseEngine(const std::string& name);

/// Spans of the traced run. Each thread owns one log; ids are unique
/// across logs because the thread index is folded into the high bits.
/// Spans stay in memory until WriteSpans() at exit.
class SpanLog {
 public:
  SpanLog(bool enabled, int thread_index)
      : enabled_(enabled), id_base_(static_cast<int64_t>(thread_index) << 40) {}

  /// Opens a span and returns its id (-1 when tracing is off).
  int64_t Open(const char* name, const std::string& cls, int64_t parent,
               int64_t request);
  /// Closes span `id`; `count` is an optional work count (rows, bytes).
  void Close(int64_t id, int64_t count = -1);

  struct Span {
    const char* name;
    std::string cls;
    int64_t id;
    int64_t parent;
    int64_t request;
    int64_t start_ns;
    int64_t end_ns;
    int64_t count;
  };
  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool enabled_;
  int64_t id_base_;
  std::vector<Span> spans_;
};

/// Closes its span when it goes out of scope.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, const std::string& cls,
             int64_t parent, int64_t request)
      : log_(log), id_(log->Open(name, cls, parent, request)) {}
  ~ScopedSpan() { log_->Close(id_, count_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int64_t id() const { return id_; }
  void set_count(int64_t count) { count_ = count; }

 private:
  SpanLog* log_;
  int64_t id_;
  int64_t count_ = -1;
};

/// Writes every span of every log as TSV:
/// id, parent, request, name, class, start_ns, end_ns, count.
void WriteSpans(const std::string& path, const std::vector<const SpanLog*>& logs);

/// Times the I-SQL layers of one statement through their public entry
/// points, each call under its own span: sql::Parser::ParseStatement,
/// WorldSet::EvaluateSelect, engine::ExecuteSelect on the most likely
/// world (its quantifier and world operations stripped), and for writes
/// WorldSet::Clone (the per-commit snapshot publish). With
/// `with_execute`, also Session::Execute and FormatQueryResult first.
/// Failures of the probe calls are returned as false.
bool ProbeLayers(maybms::isql::Session& session, const Statement& stmt,
                 bool with_execute, int64_t request, SpanLog* log);

/// Minimal JSON object writer (keys in insertion order).
class Json {
 public:
  Json& Num(const std::string& key, double value);
  Json& Int(const std::string& key, int64_t value);
  Json& Str(const std::string& key, const std::string& value);
  Json& NumList(const std::string& key, const std::vector<double>& values);
  Json& Raw(const std::string& key, const std::string& json);
  std::string Build() const { return "{" + body_ + "}"; }
  /// Writes Build() to `path`; exits the process on failure.
  void WriteTo(const std::string& path) const;

 private:
  void Key(const std::string& key);
  std::string body_;
};

std::string JsonQuote(const std::string& text);

}  // namespace e2ebench

#endif  // E2EBENCH_COMMON_H_
