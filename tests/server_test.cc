// End-to-end tests for the I-SQL network server: wire framing, result
// parity with an embedded Session, deterministic backpressure, idle
// timeouts, protocol-violation handling, concurrent clients during
// writer commits, and the graceful SIGTERM-style drain.
//
// Every server binds 127.0.0.1:0 (an ephemeral port), so the suite runs
// in parallel with itself and needs no fixed ports.

#include "server/server.h"

#include <atomic>
#include <cstring>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "isql/formatter.h"
#include "isql/session.h"
#include "server/net.h"
#include "server/protocol.h"
#include "tests/test_util.h"

namespace maybms::server {
namespace {

using maybms::testing::EngineTest;

constexpr int kTimeoutMs = 10'000;

class ServerTest : public EngineTest {
 protected:
  ServerOptions BaseOptions() const {
    ServerOptions options;
    options.session.engine = GetParam();
    options.session.max_display_worlds = 4096;
    return options;
  }

  std::unique_ptr<Server> MustStart(ServerOptions options) {
    auto server = Server::Start(std::move(options));
    EXPECT_TRUE(server.ok()) << server.status().ToString();
    return server.ok() ? std::move(*server) : nullptr;
  }

  Fd MustConnect(const Server& server) {
    auto conn = ConnectTo("127.0.0.1", server.port());
    EXPECT_TRUE(conn.ok()) << conn.status().ToString();
    return conn.ok() ? std::move(*conn) : Fd();
  }
};

TEST_P(ServerTest, WireResultsMatchEmbeddedSession) {
  auto server = MustStart(BaseOptions());
  ASSERT_NE(server, nullptr);
  Fd conn = MustConnect(*server);
  ASSERT_TRUE(conn.valid());

  isql::SessionOptions embedded_options;
  embedded_options.engine = GetParam();
  embedded_options.max_display_worlds = 4096;
  isql::Session embedded(embedded_options);

  const std::vector<std::string> script = {
      "create table R (K integer, V integer);",
      "insert into R values (1, 1), (1, 2), (2, 1), (2, 2);",
      "create table I as select * from R repair by key K;",
      "select possible V from I;",
      "select K, V from I order by K, V;",
      "select possible sum(V) from I;",
  };
  for (const std::string& sql : script) {
    auto wire = RoundTrip(conn, sql, kTimeoutMs);
    ASSERT_TRUE(wire.ok()) << sql << "\n" << wire.status().ToString();
    ASSERT_EQ(wire->first, StatusCode::kOk) << sql << "\n" << wire->second;

    auto direct = embedded.Execute(sql);
    ASSERT_TRUE(direct.ok()) << sql;
    const std::string expected = isql::FormatQueryResult(*direct);
    EXPECT_EQ(wire->second, expected) << sql;
  }
  EXPECT_EQ(server->statements_served(), script.size());
}

TEST_P(ServerTest, ErrorReplyKeepsTheConnectionOpen) {
  auto server = MustStart(BaseOptions());
  ASSERT_NE(server, nullptr);
  Fd conn = MustConnect(*server);
  ASSERT_TRUE(conn.valid());

  auto bad = RoundTrip(conn, "selec nonsense;", kTimeoutMs);
  ASSERT_TRUE(bad.ok()) << bad.status().ToString();
  EXPECT_EQ(bad->first, StatusCode::kParseError);
  EXPECT_FALSE(bad->second.empty());

  // A statement error is a response, not a connection fault: the same
  // connection keeps serving.
  auto good = RoundTrip(conn, "select 1;", kTimeoutMs);
  ASSERT_TRUE(good.ok()) << good.status().ToString();
  EXPECT_EQ(good->first, StatusCode::kOk);
}

TEST_P(ServerTest, IntegerOverflowIsAStatementError) {
  auto server = MustStart(BaseOptions());
  ASSERT_NE(server, nullptr);
  Fd conn = MustConnect(*server);
  ASSERT_TRUE(conn.valid());

  // INT64_MIN % -1 used to raise SIGFPE and take the server down.
  auto rem = RoundTrip(conn, "select (-9223372036854775807 - 1) % -1;",
                       kTimeoutMs);
  ASSERT_TRUE(rem.ok()) << rem.status().ToString();
  EXPECT_EQ(rem->first, StatusCode::kOk) << rem->second;

  auto overflow = RoundTrip(conn, "select 9223372036854775807 + 1;",
                            kTimeoutMs);
  ASSERT_TRUE(overflow.ok()) << overflow.status().ToString();
  EXPECT_EQ(overflow->first, StatusCode::kRuntimeError);
  EXPECT_NE(overflow->second.find("integer overflow"), std::string::npos)
      << overflow->second;

  auto next = RoundTrip(conn, "select 1;", kTimeoutMs);
  ASSERT_TRUE(next.ok()) << next.status().ToString();
  EXPECT_EQ(next->first, StatusCode::kOk);
}

TEST_P(ServerTest, ScriptErrorsKeepEarlierStatementsApplied) {
  auto server = MustStart(BaseOptions());
  ASSERT_NE(server, nullptr);
  Fd conn = MustConnect(*server);
  ASSERT_TRUE(conn.valid());

  auto mixed = RoundTrip(
      conn, "create table T (A integer); insert into T values (1); boom;",
      kTimeoutMs);
  ASSERT_TRUE(mixed.ok()) << mixed.status().ToString();
  EXPECT_NE(mixed->first, StatusCode::kOk);

  // Parse errors fail the whole request before anything runs; statement
  // errors mid-script keep the prefix (Session::ExecuteScript semantics).
  // Either way the session must still be consistent and serving.
  auto check = RoundTrip(conn, "select 1;", kTimeoutMs);
  ASSERT_TRUE(check.ok()) << check.status().ToString();
  EXPECT_EQ(check->first, StatusCode::kOk);
}

TEST_P(ServerTest, ConnectionCapIsDeterministicBackpressure) {
  ServerOptions options = BaseOptions();
  options.max_connections = 1;
  auto server = MustStart(options);
  ASSERT_NE(server, nullptr);

  Fd first = MustConnect(*server);
  ASSERT_TRUE(first.valid());
  // Occupy the only slot for sure: a served statement proves the worker
  // picked the connection up.
  auto r = RoundTrip(first, "select 1;", kTimeoutMs);
  ASSERT_TRUE(r.ok()) << r.status().ToString();

  Fd second = MustConnect(*server);
  ASSERT_TRUE(second.valid());
  std::string payload;
  auto frame = ReadFrame(second, &payload, kTimeoutMs);
  ASSERT_TRUE(frame.ok()) << frame.status().ToString();
  ASSERT_EQ(*frame, FrameStatus::kFrame);
  StatusCode code;
  std::string text;
  MAYBMS_ASSERT_OK(DecodeResponse(payload, &code, &text));
  EXPECT_EQ(code, StatusCode::kResourceExhausted);
  EXPECT_EQ(text, Server::BusyMessage(1));

  // ... after which the refused connection is closed.
  frame = ReadFrame(second, &payload, kTimeoutMs);
  ASSERT_TRUE(frame.ok()) << frame.status().ToString();
  EXPECT_EQ(*frame, FrameStatus::kEof);
  EXPECT_EQ(server->connections_refused(), 1u);

  // Releasing the slot lets the next client in.
  first.Close();
  for (int attempt = 0;; ++attempt) {
    Fd third = MustConnect(*server);
    ASSERT_TRUE(third.valid());
    auto retry = RoundTrip(third, "select 1;", kTimeoutMs);
    ASSERT_TRUE(retry.ok()) << retry.status().ToString();
    if (retry->first == StatusCode::kOk) break;
    ASSERT_EQ(retry->first, StatusCode::kResourceExhausted);
    ASSERT_LT(attempt, 100) << "slot never freed after close";
  }
}

TEST_P(ServerTest, IdleConnectionsAreClosed) {
  ServerOptions options = BaseOptions();
  options.idle_timeout_ms = 50;
  auto server = MustStart(options);
  ASSERT_NE(server, nullptr);
  Fd conn = MustConnect(*server);
  ASSERT_TRUE(conn.valid());

  auto r = RoundTrip(conn, "select 1;", kTimeoutMs);
  ASSERT_TRUE(r.ok()) << r.status().ToString();

  // Sit idle past the timeout: the server closes the connection (a clean
  // EOF from the client's point of view).
  std::string payload;
  auto frame = ReadFrame(conn, &payload, kTimeoutMs);
  ASSERT_TRUE(frame.ok()) << frame.status().ToString();
  EXPECT_EQ(*frame, FrameStatus::kEof);
}

TEST_P(ServerTest, OversizedFramePrefixIsRejected) {
  auto server = MustStart(BaseOptions());
  ASSERT_NE(server, nullptr);
  Fd conn = MustConnect(*server);
  ASSERT_TRUE(conn.valid());

  // A length prefix past the cap must be refused before any allocation;
  // the reply is an error response, then the connection closes.
  const uint32_t huge = kMaxFrameBytes + 1;
  unsigned char header[4] = {
      static_cast<unsigned char>(huge & 0xff),
      static_cast<unsigned char>((huge >> 8) & 0xff),
      static_cast<unsigned char>((huge >> 16) & 0xff),
      static_cast<unsigned char>((huge >> 24) & 0xff),
  };
  MAYBMS_ASSERT_OK(WriteFull(conn, header, sizeof(header), kTimeoutMs));

  std::string payload;
  auto frame = ReadFrame(conn, &payload, kTimeoutMs);
  ASSERT_TRUE(frame.ok()) << frame.status().ToString();
  ASSERT_EQ(*frame, FrameStatus::kFrame);
  StatusCode code;
  std::string text;
  MAYBMS_ASSERT_OK(DecodeResponse(payload, &code, &text));
  EXPECT_EQ(code, StatusCode::kInvalidArgument);
  EXPECT_NE(text.find("cap"), std::string::npos) << text;

  frame = ReadFrame(conn, &payload, kTimeoutMs);
  ASSERT_TRUE(frame.ok()) << frame.status().ToString();
  EXPECT_EQ(*frame, FrameStatus::kEof);
}

TEST_P(ServerTest, ConcurrentClientsDuringWriterCommits) {
  constexpr int kClients = 3;
  constexpr int kCommits = 16;
  auto server = MustStart(BaseOptions());
  ASSERT_NE(server, nullptr);

  // Ground truth: the formatted probe result after each commit state,
  // computed on an identical embedded session.
  const std::string probe = "select possible K, V from T;";
  const std::string setup =
      "create table T (K integer, V integer); insert into T values (0, 0);";
  auto commit_sql = [](int i) {
    return "insert into T values (" + std::to_string(i) + ", " +
           std::to_string(2 * i) + ");";
  };
  std::set<std::string> expected;
  {
    isql::SessionOptions embedded_options;
    embedded_options.engine = GetParam();
    embedded_options.max_display_worlds = 4096;
    isql::Session embedded(embedded_options);
    maybms::testing::ExecScript(embedded, setup);
    expected.insert(
        isql::FormatQueryResult(maybms::testing::Exec(embedded, probe)));
    for (int i = 1; i <= kCommits; ++i) {
      maybms::testing::Exec(embedded, commit_sql(i));
      expected.insert(
          isql::FormatQueryResult(maybms::testing::Exec(embedded, probe)));
    }
  }

  auto seeded = server->Execute(setup);
  ASSERT_EQ(seeded.first, StatusCode::kOk) << seeded.second;

  std::atomic<bool> done{false};
  std::vector<std::string> client_errors(kClients);
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      auto conn = ConnectTo("127.0.0.1", server->port());
      if (!conn.ok()) {
        client_errors[c] = conn.status().ToString();
        return;
      }
      while (client_errors[c].empty()) {
        const bool final_pass = done.load(std::memory_order_acquire);
        auto reply = RoundTrip(*conn, probe, kTimeoutMs);
        if (!reply.ok()) {
          client_errors[c] = reply.status().ToString();
          break;
        }
        if (reply->first != StatusCode::kOk) {
          client_errors[c] = reply->second;
          break;
        }
        if (expected.count(reply->second) == 0) {
          client_errors[c] =
              "response matches no committed state (a torn read?):\n" +
              reply->second;
          break;
        }
        if (final_pass) break;
      }
    });
  }

  // The writer commits through the wire path too, on its own connection.
  Fd writer = MustConnect(*server);
  ASSERT_TRUE(writer.valid());
  for (int i = 1; i <= kCommits; ++i) {
    auto reply = RoundTrip(writer, commit_sql(i), kTimeoutMs);
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    ASSERT_EQ(reply->first, StatusCode::kOk) << reply->second;
  }
  done.store(true, std::memory_order_release);
  for (std::thread& client : clients) client.join();

  for (int c = 0; c < kClients; ++c) {
    EXPECT_TRUE(client_errors[c].empty())
        << "client " << c << ": " << client_errors[c];
  }
}

TEST_P(ServerTest, ShutdownDrainsCleanly) {
  auto server = MustStart(BaseOptions());
  ASSERT_NE(server, nullptr);
  auto seeded = server->Execute(
      "create table T (A integer); insert into T values (1);");
  ASSERT_EQ(seeded.first, StatusCode::kOk) << seeded.second;
  const uint16_t port = server->port();

  // Clients hammer the server while it shuts down; each request must end
  // in a complete response or a clean EOF — never a torn frame.
  constexpr int kClients = 3;
  std::vector<std::string> client_errors(kClients);
  std::atomic<bool> stop{false};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      auto conn = ConnectTo("127.0.0.1", port);
      if (!conn.ok()) return;  // raced the listener teardown: fine
      while (!stop.load(std::memory_order_acquire)) {
        auto reply = RoundTrip(*conn, "select possible A from T;", kTimeoutMs);
        if (!reply.ok()) {
          // The only acceptable failures are drain-shaped: EOF before a
          // reply or a reset from the closing socket.
          const std::string text = reply.status().ToString();
          if (text.find("before replying") == std::string::npos &&
              text.find("Connection reset") == std::string::npos &&
              text.find("Broken pipe") == std::string::npos) {
            client_errors[c] = text;
          }
          return;
        }
        if (reply->first == StatusCode::kResourceExhausted) return;
        if (reply->first != StatusCode::kOk) {
          client_errors[c] = reply->second;
          return;
        }
      }
    });
  }

  server->Shutdown();
  stop.store(true, std::memory_order_release);
  for (std::thread& client : clients) client.join();
  for (int c = 0; c < kClients; ++c) {
    EXPECT_TRUE(client_errors[c].empty())
        << "client " << c << ": " << client_errors[c];
  }

  // Shutdown is idempotent, and the listener is gone.
  server->Shutdown();
  auto late = ConnectTo("127.0.0.1", port);
  if (late.ok()) {
    // The kernel may still complete a handshake racing the close; the
    // connection must die without ever serving.
    auto reply = RoundTrip(*late, "select 1;", 1000);
    EXPECT_FALSE(reply.ok());
  }
}

TEST_P(ServerTest, InProcessExecuteMatchesWirePath) {
  auto server = MustStart(BaseOptions());
  ASSERT_NE(server, nullptr);
  auto create = server->Execute("create table T (A integer);");
  EXPECT_EQ(create.first, StatusCode::kOk) << create.second;
  auto insert = server->Execute("insert into T values (4);");
  EXPECT_EQ(insert.first, StatusCode::kOk) << insert.second;

  Fd conn = MustConnect(*server);
  ASSERT_TRUE(conn.valid());
  auto wire = RoundTrip(conn, "select possible A from T;", kTimeoutMs);
  ASSERT_TRUE(wire.ok()) << wire.status().ToString();
  auto local = server->Execute("select possible A from T;");
  EXPECT_EQ(wire->first, local.first);
  EXPECT_EQ(wire->second, local.second);
}

MAYBMS_INSTANTIATE_ENGINES(ServerTest);

}  // namespace
}  // namespace maybms::server
