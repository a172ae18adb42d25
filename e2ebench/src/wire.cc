// The wire workload: an open-loop load generator against maybms_server
// over loopback. Requests are due at the times the schedule file gives
// (a ladder of offered rates); each is timed from when it was due, so a
// stall also charges the requests queued behind it. Connection 0 carries
// every write in schedule order; the other connections share the reads.
//
// After the load, the final state read over the wire must equal a serial
// in-process replay of the same writes on a paged session.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <thread>

#include "common.h"
#include "isql/formatter.h"
#include "server/net.h"
#include "server/protocol.h"
#include "server/server.h"
#include "sql/parser.h"
#include "storage/store.h"
#include "worlds/decomposed_world_set.h"

namespace e2ebench {
namespace {

namespace isql = maybms::isql;
namespace server = maybms::server;
namespace storage = maybms::storage;

constexpr int kIoTimeoutMs = 60'000;

struct Request {
  int rung;
  int64_t due_ns;   // offset from the start of the load
  std::string tag;  // `class:kind` as the schedule gives it
  Statement stmt;   // class without the kind
  bool write;
};

struct Record {
  int64_t start_ns = 0;  // offsets from the start of the load
  int64_t end_ns = 0;
  int64_t backlog = 0;  // requests of this stream due but not yet sent
  bool ok = false;
  bool in_process = false;
};

server::Fd Connect(uint16_t port) {
  auto fd = server::ConnectTo("127.0.0.1", port);
  if (!fd.ok()) {
    std::fprintf(stderr, "e2ebench: connect: %s\n",
                 fd.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(fd).value();
}

/// One request over the wire; returns (ok, answer text).
std::pair<bool, std::string> Send(const server::Fd& fd, const std::string& sql) {
  auto reply = server::RoundTrip(fd, sql, kIoTimeoutMs);
  if (!reply.ok()) return {false, reply.status().ToString()};
  return {reply->first == maybms::StatusCode::kOk, reply->second};
}

/// Sends one stream of requests (all writes, or the reads shared by the
/// reader connections) on schedule. `next` hands out request indexes.
void RunStream(const std::vector<const Request*>& stream,
               std::atomic<size_t>* next, const server::Fd& fd,
               server::Server* in_process, int64_t t0, SpanLog* log,
               std::vector<Record>* records) {
  for (size_t i; (i = next->fetch_add(1)) < stream.size();) {
    const Request& req = *stream[i];
    std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
        std::chrono::nanoseconds(t0 + req.due_ns)));
    Record& rec = (*records)[i];
    rec.start_ns = NowNs() - t0;
    // Requests of this stream already due, minus those already taken.
    auto due_end = std::upper_bound(
        stream.begin(), stream.end(), rec.start_ns,
        [](int64_t t, const Request* r) { return t < r->due_ns; });
    rec.backlog = static_cast<int64_t>(due_end - stream.begin()) -
                  static_cast<int64_t>(i) - 1;
    const std::string kind = req.write ? "write" : "read";
    // The traced run alternates: odd requests call Server::Execute in
    // process, so wire cost = round trip minus in-process execute.
    rec.in_process = in_process != nullptr && (i % 2 == 1);
    std::pair<bool, std::string> reply;
    if (rec.in_process) {
      ScopedSpan span(log, "server.execute", kind, -1, static_cast<int64_t>(i));
      auto [code, text] = in_process->Execute(req.stmt.sql);
      reply = {code == maybms::StatusCode::kOk, std::move(text)};
    } else {
      ScopedSpan span(log, "server.roundtrip", kind, -1, static_cast<int64_t>(i));
      reply = Send(fd, req.stmt.sql);
    }
    rec.end_ns = NowNs() - t0;
    rec.ok = reply.first;
    if (!rec.ok) {
      std::fprintf(stderr, "e2ebench: request failed: %s -> %s\n",
                   req.stmt.sql.c_str(), reply.second.c_str());
    }
  }
}

std::vector<Request> ReadRequests(const std::string& path) {
  std::vector<Request> requests;
  for (auto& f : ReadTsv(path)) {
    if (f.size() != 4) {
      std::fprintf(stderr, "e2ebench: malformed line in %s\n", path.c_str());
      std::exit(2);
    }
    std::string cls = f[2].substr(0, f[2].find(':'));
    const bool write = cls == "write";
    requests.push_back({std::atoi(f[0].c_str()),
                        std::strtoll(f[1].c_str(), nullptr, 10) * 1000, f[2],
                        {std::move(cls), f[3]}, write});
  }
  return requests;
}

std::string StringList(const std::vector<std::string>& values) {
  std::string out = "[";
  for (size_t i = 0; i < values.size(); ++i) {
    out += (i ? ", " : "") + JsonQuote(values[i]);
  }
  return out + "]";
}

std::string RecordsJson(const std::vector<const Request*>& stream,
                        const std::vector<Record>& records) {
  std::string out = "[";
  char buf[160];
  for (size_t i = 0; i < stream.size(); ++i) {
    const Record& r = records[i];
    std::snprintf(buf, sizeof(buf),
                  "%s[%d, %s, %lld, %lld, %lld, %lld, %d, %d]", i ? ", " : "",
                  stream[i]->rung, JsonQuote(stream[i]->tag).c_str(),
                  static_cast<long long>(stream[i]->due_ns),
                  static_cast<long long>(r.start_ns),
                  static_cast<long long>(r.end_ns),
                  static_cast<long long>(r.backlog), r.ok ? 1 : 0,
                  r.in_process ? 1 : 0);
    out += buf;
  }
  return out + "]";
}

/// The paged persist path a session runs after each write, replayed
/// through the storage layer's public calls so each can be timed:
/// WorldSet::ToSnapshot, PagedStore::Commit, PagedStore::Load and
/// WorldSet::FromSnapshot, with buffer-pool and file-size deltas.
std::string TraceStorage(const std::string& setup,
                         const std::vector<const Request*>& writes,
                         const std::string& store_dir, size_t pool_pages,
                         SpanLog* log) {
  isql::Session base(BenchSessionOptions(isql::EngineMode::kDecomposed,
                                         isql::StorageMode::kMemory, 1));
  if (!base.ExecuteScript(setup).ok()) return "{}";
  maybms::worlds::DecomposedWorldSet ws(1 << 22, 1);
  auto initial = base.world_set().ToSnapshot();
  std::filesystem::create_directories(store_dir);
  const std::string path = store_dir + "/trace.db";
  std::filesystem::remove(path);
  auto store = storage::PagedStore::Open(path, pool_pages);
  if (!initial.ok() || !ws.FromSnapshot(*initial).ok() || !store.ok()) return "{}";
  std::vector<double> hits, misses, evictions, flushes, bytes;
  auto persist = [&](const std::string& cls, int64_t request) -> bool {
    auto snapshot = [&] {
      ScopedSpan span(log, "storage.to_snapshot", cls, -1, request);
      return ws.ToSnapshot();
    }();
    if (!snapshot.ok()) return false;
    {
      ScopedSpan span(log, "storage.commit", cls, -1, request);
      if (!(*store)->Commit(*snapshot).ok()) return false;
    }
    auto loaded = [&] {
      ScopedSpan span(log, "storage.load", cls, -1, request);
      return (*store)->Load();
    }();
    if (!loaded.ok()) return false;
    ScopedSpan span(log, "storage.from_snapshot", cls, -1, request);
    return ws.FromSnapshot(*loaded).ok();
  };
  if (!persist("setup", -1)) return "{}";
  for (size_t i = 0; i < writes.size(); ++i) {
    auto stmt = maybms::sql::Parser::ParseStatement(writes[i]->stmt.sql);
    if (!stmt.ok() || !ws.ApplyDml(**stmt, base.catalog()).ok()) return "{}";
    const auto before = (*store)->pool()->stats();
    const auto size_before = std::filesystem::file_size(path);
    if (!persist("write", static_cast<int64_t>(i))) return "{}";
    const auto after = (*store)->pool()->stats();
    hits.push_back(static_cast<double>(after.hits - before.hits));
    misses.push_back(static_cast<double>(after.misses - before.misses));
    evictions.push_back(static_cast<double>(after.evictions - before.evictions));
    flushes.push_back(static_cast<double>(after.flushes - before.flushes));
    bytes.push_back(static_cast<double>(std::filesystem::file_size(path)) -
                    static_cast<double>(size_before));
  }
  Json out;
  out.NumList("pool_hits", hits)
      .NumList("pool_misses", misses)
      .NumList("pool_evictions", evictions)
      .NumList("pool_flushes", flushes)
      .NumList("bytes_per_write", bytes)
      .Num("file_bytes", static_cast<double>(std::filesystem::file_size(path)));
  return out.Build();
}

}  // namespace

int RunWireLoad(const Args& args) {
  const std::string dir = args.Get("dir", ".");
  server::Fd fd = Connect(static_cast<uint16_t>(args.GetInt("port", 0)));
  auto [ok, text] = Send(fd, ReadFile(dir + "/setup.sql"));
  if (!ok) {
    std::fprintf(stderr, "e2ebench: wire setup failed: %s\n", text.c_str());
    return 1;
  }
  return 0;
}

int RunWire(const Args& args) {
  const std::string dir = args.Get("dir", ".");
  const bool trace = args.GetInt("trace", 0) != 0;
  const size_t conns = static_cast<size_t>(std::max<int64_t>(2, args.GetInt("conns", 4)));
  const size_t pool_pages = static_cast<size_t>(args.GetInt("pool-pages", 32));
  const std::string store_dir = args.Get("store-dir", dir + "/store");
  const std::string setup = ReadFile(dir + "/setup.sql");
  const std::vector<Request> requests = ReadRequests(dir + "/requests.tsv");
  const std::vector<Statement> checks = ReadStatements(dir + "/check.tsv");

  // The traced run serves from an in-process server so Server::Execute
  // can be timed beside the round trip; the measured run talks to the
  // maybms_server child run.py started.
  std::unique_ptr<server::Server> in_process;
  uint16_t port = static_cast<uint16_t>(args.GetInt("port", 0));
  if (trace) {
    server::ServerOptions options;
    options.session = BenchSessionOptions(isql::EngineMode::kDecomposed,
                                          isql::StorageMode::kPaged, 1);
    options.session.storage_dir = store_dir + "/server";
    options.session.pool_pages = pool_pages;
    std::filesystem::remove_all(options.session.storage_dir);
    std::filesystem::create_directories(options.session.storage_dir);
    auto started = server::Server::Start(options);
    if (!started.ok()) {
      std::fprintf(stderr, "e2ebench: server start: %s\n",
                   started.status().ToString().c_str());
      return 1;
    }
    in_process = std::move(started).value();
    port = in_process->port();
    if (in_process->Execute(setup).first != maybms::StatusCode::kOk) {
      std::fprintf(stderr, "e2ebench: in-process setup failed\n");
      return 1;
    }
  }

  std::vector<const Request*> writes, reads;
  for (const Request& r : requests) (r.write ? writes : reads).push_back(&r);
  std::vector<server::Fd> fds;
  for (size_t c = 0; c < conns; ++c) fds.push_back(Connect(port));

  std::vector<SpanLog> logs;
  for (size_t c = 0; c < conns; ++c) logs.emplace_back(trace, static_cast<int>(c + 1));
  std::vector<Record> write_records(writes.size()), read_records(reads.size());
  std::atomic<size_t> next_write{0}, next_read{0};
  const int64_t t0 = NowNs() + 20'000'000;  // 20 ms to start every thread
  {
    std::vector<std::thread> threads;
    threads.emplace_back(RunStream, std::cref(writes), &next_write,
                         std::cref(fds[0]), in_process.get(), t0, &logs[0],
                         &write_records);
    for (size_t c = 1; c < conns; ++c) {
      threads.emplace_back(RunStream, std::cref(reads), &next_read,
                           std::cref(fds[c]), in_process.get(), t0, &logs[c],
                           &read_records);
    }
    for (std::thread& t : threads) t.join();
  }

  // Final state over the wire vs. a serial in-process replay; run.py
  // compares the two digest lists.
  std::vector<std::string> wire_digests, replay_digests;
  int64_t check_failures = 0;
  for (const Statement& check : checks) {
    auto [ok, text] = Send(fds[0], check.sql);
    if (!ok) ++check_failures;
    wire_digests.push_back(Digest(text));
  }
  fds.clear();

  SpanLog replay_log(trace, 0);
  isql::SessionOptions replay_options = BenchSessionOptions(
      isql::EngineMode::kDecomposed, isql::StorageMode::kPaged, 1);
  replay_options.storage_dir = store_dir + "/replay";
  replay_options.pool_pages = pool_pages;
  std::filesystem::remove_all(replay_options.storage_dir);
  std::filesystem::create_directories(replay_options.storage_dir);
  int64_t replay_failures = 0, probe_failures = 0;
  double log10_worlds = 0;
  {
    isql::Session replay(replay_options);
    if (!replay.ExecuteScript(setup).ok()) ++replay_failures;
    for (size_t i = 0; i < writes.size(); ++i) {
      const Statement& w = writes[i]->stmt;
      bool ok = [&] {
        ScopedSpan span(&replay_log, "isql.execute", w.cls, -1, static_cast<int64_t>(i));
        return replay.Execute(w.sql).ok();
      }();
      if (!ok) ++replay_failures;
      if (trace && !ProbeLayers(replay, w, false, static_cast<int64_t>(i), &replay_log)) {
        ++probe_failures;
      }
    }
    for (const Statement& check : checks) {
      auto result = replay.Execute(check.sql);
      if (!result.ok()) ++check_failures;
      replay_digests.push_back(
          Digest(result.ok() ? isql::FormatQueryResult(*result) : ""));
    }
    log10_worlds = replay.world_set().Log10NumWorlds();
    if (trace) {
      // Per-class layer probes on the final state: the first reads of
      // each class in schedule order.
      std::map<std::string, int> probed;
      for (size_t i = 0; i < reads.size(); ++i) {
        const Statement& r = reads[i]->stmt;
        if (probed[r.cls]++ >= 20) continue;
        if (!ProbeLayers(replay, r, true, static_cast<int64_t>(i), &replay_log)) {
          ++probe_failures;
        }
      }
    }
  }

  Json out;
  out.Int("check_failures", check_failures)
      .Int("replay_failures", replay_failures)
      .Int("probe_failures", probe_failures)
      .Num("log10_worlds", log10_worlds)
      .Raw("wire_digests", StringList(wire_digests))
      .Raw("replay_digests", StringList(replay_digests))
      .Raw("writes", RecordsJson(writes, write_records))
      .Raw("reads", RecordsJson(reads, read_records));
  if (trace) {
    out.Int("statements_served", static_cast<int64_t>(in_process->statements_served()))
        .Int("refused", static_cast<int64_t>(in_process->connections_refused()))
        .Raw("storage", TraceStorage(setup, writes, store_dir + "/trace",
                                     pool_pages, &replay_log));
    in_process->Shutdown();
    std::vector<const SpanLog*> all{&replay_log};
    for (const SpanLog& log : logs) all.push_back(&log);
    WriteSpans(args.Get("spans", dir + "/spans.tsv"), all);
  }
  out.WriteTo(args.Get("out", dir + "/wire.json"));
  return 0;
}

}  // namespace e2ebench
