// Tests for the epoll socket frontend (net/socket_server.h): partial-line
// reassembly, strict in-order pipelining, concurrent connections, the
// oversized-line guard, tenant QoS isolation under concurrent load,
// byte-for-byte parity between the socket path and direct
// CommandProcessor execution (the stdin path), and the faults a client
// can inject: closing mid-pipeline, half-closing, and never reading. An
// idle server must make no wakeups.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "graph/generators.h"
#include "net/command_processor.h"
#include "net/socket_server.h"
#include "service/graph_store.h"
#include "service/multi_graph_service.h"

namespace hkpr {
namespace {

bool StartsWith(const std::string& s, const std::string& prefix) {
  return s.rfind(prefix, 0) == 0;
}

/// Blocking loopback client speaking the line protocol.
class Client {
 public:
  /// `rcvbuf` > 0 shrinks the receive buffer before connecting, so a
  /// client that never reads stalls the server's writes early.
  explicit Client(uint16_t port, int rcvbuf = 0) {
    fd_ = socket(AF_INET, SOCK_STREAM, 0);
    const int one = 1;
    setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    if (rcvbuf > 0) {
      setsockopt(fd_, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof(rcvbuf));
    }
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    connected_ =
        connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0;
  }

  ~Client() {
    if (fd_ >= 0) close(fd_);
  }

  bool connected() const { return connected_; }

  void Send(const std::string& bytes) { ASSERT_TRUE(TrySend(bytes)); }

  /// Sends every byte; false once the server has dropped the connection.
  /// MSG_NOSIGNAL keeps that from raising SIGPIPE in the test process.
  bool TrySend(const std::string& bytes) {
    size_t sent = 0;
    while (sent < bytes.size()) {
      const ssize_t n = send(fd_, bytes.data() + sent, bytes.size() - sent,
                             MSG_NOSIGNAL);
      if (n <= 0) return false;
      sent += static_cast<size_t>(n);
    }
    return true;
  }

  /// Ends the sending direction; the server sees EOF after the bytes sent.
  void ShutdownWrite() { shutdown(fd_, SHUT_WR); }

  /// Bounds every later blocking read, so a connection the server never
  /// closes fails a test instead of hanging it.
  void SetReadTimeout(std::chrono::milliseconds timeout) {
    timeval tv{};
    tv.tv_sec = static_cast<time_t>(timeout.count() / 1000);
    tv.tv_usec = static_cast<suseconds_t>((timeout.count() % 1000) * 1000);
    setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  }

  /// Reads one '\n'-terminated line; "" on EOF.
  std::string ReadLine() {
    while (true) {
      const size_t newline = buf_.find('\n');
      if (newline != std::string::npos) {
        std::string line = buf_.substr(0, newline);
        buf_.erase(0, newline + 1);
        return line;
      }
      char chunk[8192];
      const ssize_t n = read(fd_, chunk, sizeof(chunk));
      if (n <= 0) return "";
      buf_.append(chunk, static_cast<size_t>(n));
    }
  }

  std::string Command(const std::string& line) {
    Send(line + "\n");
    return ReadLine();
  }

  /// Reads until EOF (or an error or read timeout), returning everything.
  std::string ReadAll() {
    std::string out = buf_;
    buf_.clear();
    char chunk[8192];
    ssize_t n;
    while ((n = read(fd_, chunk, sizeof(chunk))) > 0) {
      out.append(chunk, static_cast<size_t>(n));
    }
    saw_eof_ = n == 0;
    return out;
  }

  /// Whether the last ReadAll() ended at EOF: the server closed.
  bool saw_eof() const { return saw_eof_; }

 private:
  int fd_ = -1;
  bool connected_ = false;
  bool saw_eof_ = false;
  std::string buf_;
};

class SocketServerTest : public ::testing::Test {
 protected:
  void StartServer(SocketServerOptions net = SocketServerOptions()) {
    store_.Publish("default", PowerlawCluster(500, 4, 0.3, 7));
    params_.t = 5.0;
    params_.eps_r = 0.5;
    params_.delta = 1.0 / 500.0;
    params_.p_f = 1e-6;
    MultiGraphOptions options;
    options.worker_budget = 2;
    service_ = std::make_unique<MultiGraphService>(store_, params_, 7,
                                                   options);
    processor_ = std::make_unique<CommandProcessor>(store_, *service_,
                                                    tenants_, params_,
                                                    "default");
    net.port = 0;
    server_ = std::make_unique<SocketServer>(*processor_, net);
    ASSERT_TRUE(server_->Start()) << server_->error();
  }

  void TearDown() override {
    if (server_ != nullptr) server_->Stop();
  }

  GraphStore store_;
  ApproxParams params_;
  TenantRegistry tenants_;
  std::unique_ptr<MultiGraphService> service_;
  std::unique_ptr<CommandProcessor> processor_;
  std::unique_ptr<SocketServer> server_;
};

TEST_F(SocketServerTest, ServesQueriesOverTcp) {
  StartServer();
  Client client(server_->port());
  ASSERT_TRUE(client.connected());
  EXPECT_TRUE(StartsWith(client.Command("query 3"), "ok graph=default"));
  EXPECT_TRUE(StartsWith(client.Command("nonsense"), "err unknown command"));
  EXPECT_EQ(server_->connections_accepted(), 1u);
}

TEST_F(SocketServerTest, ReassemblesPartialLines) {
  StartServer();
  Client client(server_->port());
  ASSERT_TRUE(client.connected());
  // One command delivered in four separate writes, including a split in
  // the middle of a token and a CRLF terminator.
  client.Send("que");
  client.Send("ry ");
  client.Send("4");
  client.Send("\r\n");
  EXPECT_TRUE(StartsWith(client.ReadLine(), "ok graph=default"));
  // Two commands in one write plus a leftover partial that completes
  // later.
  client.Send("query 5\nquery 6\nquer");
  EXPECT_TRUE(StartsWith(client.ReadLine(), "ok graph=default"));
  EXPECT_TRUE(StartsWith(client.ReadLine(), "ok graph=default"));
  client.Send("y 7\n");
  EXPECT_TRUE(StartsWith(client.ReadLine(), "ok graph=default"));
}

TEST_F(SocketServerTest, PipelinedCommandsAnswerInOrder) {
  StartServer();
  Client client(server_->port());
  ASSERT_TRUE(client.connected());
  constexpr int kCount = 50;
  std::string burst;
  for (int i = 0; i < kCount; ++i) {
    burst += "query " + std::to_string(i % 20) + "\n";
  }
  client.Send(burst);  // all at once, no waiting — pipelined
  for (int i = 0; i < kCount; ++i) {
    const std::string line = client.ReadLine();
    // Responses must come back in submission order: the i-th line
    // carries the i-th command's seed.
    const std::string want = " seed=" + std::to_string(i % 20) + " ";
    EXPECT_NE(line.find(want), std::string::npos)
        << "response " << i << " out of order: " << line;
  }
}

TEST_F(SocketServerTest, ManyConcurrentConnections) {
  StartServer();
  constexpr int kClients = 8;
  constexpr int kQueriesEach = 25;
  std::atomic<int> ok_count{0};
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      Client client(server_->port());
      if (!client.connected()) return;
      for (int i = 0; i < kQueriesEach; ++i) {
        const std::string line =
            client.Command("query " + std::to_string((c * 37 + i) % 500));
        if (StartsWith(line, "ok ")) ok_count.fetch_add(1);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(ok_count.load(), kClients * kQueriesEach);
  EXPECT_EQ(server_->connections_accepted(),
            static_cast<uint64_t>(kClients));
}

TEST_F(SocketServerTest, OversizedLineGetsErrorAndClose) {
  SocketServerOptions net;
  net.max_line_bytes = 1024;
  StartServer(net);
  Client client(server_->port());
  ASSERT_TRUE(client.connected());
  // 4 KiB with no newline: the server must reject rather than buffer on.
  client.Send(std::string(4096, 'x'));
  const std::string out = client.ReadAll();  // runs to EOF: closed
  EXPECT_TRUE(StartsWith(out, "err line too long")) << out;
}

TEST_F(SocketServerTest, QuitClosesOnlyThatConnection) {
  StartServer();
  Client a(server_->port());
  Client b(server_->port());
  ASSERT_TRUE(a.connected());
  ASSERT_TRUE(b.connected());
  ASSERT_TRUE(StartsWith(b.Command("query 1"), "ok "));
  a.Send("quit\n");
  EXPECT_EQ(a.ReadAll(), "");  // quit answers nothing and closes
  // The other connection is unaffected.
  EXPECT_TRUE(StartsWith(b.Command("query 2"), "ok "));
}

TEST_F(SocketServerTest, SessionsTrackTheirOwnGraphAndTenant) {
  StartServer();
  Client a(server_->port());
  Client b(server_->port());
  ASSERT_TRUE(a.connected());
  ASSERT_TRUE(b.connected());
  EXPECT_TRUE(StartsWith(a.Command("tenant alice"), "ok tenant=alice"));
  // b's session still reports the default tenant.
  EXPECT_TRUE(StartsWith(b.Command("tenant"), "ok tenant=default"));
  EXPECT_TRUE(StartsWith(a.Command("tenant"), "ok tenant=alice"));
}

TEST_F(SocketServerTest, QosIsolationUnderConcurrentLoad) {
  StartServer();
  // "limited" may send 5 qps with a burst of 2; "default" is unlimited.
  {
    Client admin(server_->port());
    ASSERT_TRUE(admin.connected());
    ASSERT_TRUE(StartsWith(
        admin.Command("tenant set limited rate=5 burst=2 priority=high"),
        "ok "));
  }
  std::atomic<int> limited_ok{0}, limited_throttled{0}, limited_other{0};
  std::atomic<int> default_ok{0}, default_err{0};
  constexpr int kQueries = 60;
  std::thread limited_thread([&] {
    Client client(server_->port());
    if (!client.connected()) return;
    if (!StartsWith(client.Command("tenant limited"), "ok ")) return;
    for (int i = 0; i < kQueries; ++i) {
      const std::string line = client.Command("query " + std::to_string(i));
      if (StartsWith(line, "ok ")) {
        limited_ok.fetch_add(1);
      } else if (StartsWith(line, "err tenant-throttled tenant=limited")) {
        limited_throttled.fetch_add(1);
      } else {
        limited_other.fetch_add(1);
      }
    }
  });
  std::thread default_thread([&] {
    Client client(server_->port());
    if (!client.connected()) return;
    for (int i = 0; i < kQueries; ++i) {
      const std::string line = client.Command("query " + std::to_string(i));
      if (StartsWith(line, "ok ")) {
        default_err.fetch_add(0);
        default_ok.fetch_add(1);
      } else {
        default_err.fetch_add(1);
      }
    }
  });
  limited_thread.join();
  default_thread.join();
  // The limited tenant hits its rate limit with the distinct error...
  EXPECT_GT(limited_throttled.load(), 0);
  EXPECT_GT(limited_ok.load(), 0);  // ...but its burst tokens were served
  EXPECT_EQ(limited_other.load(), 0);
  // ...while the unthrottled tenant saw zero added rejections.
  EXPECT_EQ(default_ok.load(), kQueries);
  EXPECT_EQ(default_err.load(), 0);
  const TenantStatsSnapshot s = tenants_.StatsFor("limited");
  EXPECT_EQ(s.throttled,
            static_cast<uint64_t>(limited_throttled.load()));
}

TEST_F(SocketServerTest, SocketMatchesDirectExecutionByteForByte) {
  StartServer();
  // A deterministic command stream: introspection, session-state and
  // error responses whose bytes don't depend on timing or cache state
  // (query responses carry latency_ms, so successful queries can't be
  // byte-compared — the shapes they share are covered by the tests
  // above). None of these mutate shared service state, so replaying the
  // stream on both transports must produce identical bytes.
  const std::vector<std::string> stream = {
      "tenant alice",
      "graph list",
      "backend",
      "params default",
      "tenant list",
      "query",          // usage error — deterministic
      "query 3 t=",     // hardened parse error
      "query 3 t=1 t=2",
      "graph use nosuch",
      "bogus",
  };
  // Direct (stdin-path) execution first, to learn the expected bytes.
  std::string direct_bytes;
  {
    ClientSession session = processor_->NewSession();
    for (const std::string& cmd : stream) {
      direct_bytes += processor_->Execute(session, cmd).output;
    }
  }
  const size_t expected_lines = static_cast<size_t>(
      std::count(direct_bytes.begin(), direct_bytes.end(), '\n'));
  ASSERT_GE(expected_lines, stream.size());
  // Same stream over the socket, pipelined in one write.
  std::string socket_bytes;
  {
    Client client(server_->port());
    ASSERT_TRUE(client.connected());
    std::string all;
    for (const std::string& cmd : stream) all += cmd + "\n";
    client.Send(all);
    for (size_t i = 0; i < expected_lines; ++i) {
      socket_bytes += client.ReadLine() + "\n";
    }
  }
  EXPECT_EQ(socket_bytes, direct_bytes);
}

std::string Repeated(const std::string& line, int times) {
  std::string out;
  for (int i = 0; i < times; ++i) out += line + "\n";
  return out;
}

TEST_F(SocketServerTest, ClientClosingMidPipelineLeavesServerUp) {
  // A client that pipelines many commands and closes without reading makes
  // the server write replies to a closed peer. That write must fail with
  // EPIPE, not raise SIGPIPE: its default action would end this process.
  StartServer();
  std::string want;
  {
    Client probe(server_->port());
    ASSERT_TRUE(probe.connected());
    ASSERT_TRUE(StartsWith(probe.Command("topk 7 10"), "ok "));
    want = probe.Command("topk 7 10");  // a hit: byte-for-byte stable
    ASSERT_NE(want.find(" cache=hit"), std::string::npos) << want;
  }
  constexpr int kBusyClients = 3;
  constexpr int kBurst = 50;
  std::atomic<bool> done{false};
  std::atomic<int> answered{0}, wrong{0};
  std::vector<std::thread> busy;
  for (int c = 0; c < kBusyClients; ++c) {
    busy.emplace_back([&] {
      Client client(server_->port());
      client.SetReadTimeout(std::chrono::seconds(30));
      const std::string burst = Repeated("topk 7 10", kBurst);
      while (!done.load()) {
        if (!client.connected() || !client.TrySend(burst)) {
          wrong.fetch_add(1);
          return;
        }
        for (int i = 0; i < kBurst; ++i) {
          if (client.ReadLine() == want) {
            answered.fetch_add(1);
          } else {
            wrong.fetch_add(1);
          }
        }
      }
    });
  }
  // Start closing once every busy client has had a burst answered.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (answered.load() < kBusyClients * kBurst && wrong.load() == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const int answered_before = answered.load();
  const std::string flood = Repeated("topk 5 10", 3000);
  int closes = 0;
  for (; closes < 40; ++closes) {
    Client closer(server_->port());
    if (!closer.connected()) break;
    closer.TrySend(flood);  // the server may drop it part-way
  }  // each closer closes here, its replies unread
  // The busy clients keep going past the last close.
  while (answered.load() < answered_before + kBusyClients * kBurst &&
         wrong.load() == 0 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  done.store(true);
  for (std::thread& t : busy) t.join();
  EXPECT_EQ(closes, 40);
  EXPECT_EQ(wrong.load(), 0);
  EXPECT_GE(answered.load(), answered_before + kBusyClients * kBurst);
  Client after(server_->port());
  ASSERT_TRUE(after.connected());
  EXPECT_EQ(after.Command("topk 7 10"), want);
}

TEST_F(SocketServerTest, HalfClosedClientGetsEveryReplyThenEof) {
  // EOF with commands still queued: the server answers them all, then
  // closes. The close is due when the executor drains the pipeline.
  StartServer();
  for (int round = 0; round < 20; ++round) {
    Client client(server_->port());
    ASSERT_TRUE(client.connected());
    client.SetReadTimeout(std::chrono::seconds(20));
    client.Send(Repeated("topk 3 5", 10));
    client.ShutdownWrite();
    const std::string out = client.ReadAll();
    EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 10) << out;
    ASSERT_TRUE(client.saw_eof())
        << "round " << round << ": the server never closed";
  }
}

TEST_F(SocketServerTest, SlowReaderIsDroppedAtTheWriteLimit) {
  // A client that pipelines large replies and never reads fills its
  // receive buffer and the server's send buffer; the server then stops
  // reading it, buffers up to the write limit, and drops it. Another
  // connection is served correctly throughout.
  SocketServerOptions net;
  net.read_pause_bytes = 16 << 10;
  net.max_write_buffer_bytes = 64 << 10;
  StartServer(net);
  Client good(server_->port());
  ASSERT_TRUE(good.connected());
  ASSERT_TRUE(StartsWith(good.Command("topk 7 10"), "ok "));
  const std::string want = good.Command("topk 7 10");
  ASSERT_NE(want.find(" cache=hit"), std::string::npos) << want;

  Client slow(server_->port(), /*rcvbuf=*/4096);
  ASSERT_TRUE(slow.connected());
  // Each reply lists up to 500 nodes (several KB); a few thousand of them
  // are far more than the socket buffers and the write limit hold.
  std::string pipeline;
  for (int i = 0; i < 4000; ++i) {
    pipeline += "topk " + std::to_string(i % 8) + " 500\n";
  }
  slow.TrySend(pipeline);
  ASSERT_TRUE(StartsWith(good.Command("topk 3 10"), "ok "));
  EXPECT_EQ(good.Command("topk 7 10"), want);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (server_->connections_active() > 1 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(server_->connections_active(), 1u)
      << "the slow reader was not dropped";
  EXPECT_EQ(good.Command("topk 7 10"), want);
}

TEST_F(SocketServerTest, IdleServerDoesNotWake) {
  // Idle service workers park and the IO thread waits without a timeout,
  // so an idle server makes no wakeups. The count covers every thread of
  // this process, the test's own sleep included.
  StartServer();
  Client client(server_->port());
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(StartsWith(client.Command("topk 3 10"), "ok "));
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  rusage before{};
  rusage after{};
  getrusage(RUSAGE_SELF, &before);
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  getrusage(RUSAGE_SELF, &after);
  EXPECT_LT(after.ru_nvcsw - before.ru_nvcsw, 30)
      << "voluntary context switches in 300 ms of idling";
}

TEST_F(SocketServerTest, StopUnblocksOpenConnections) {
  StartServer();
  auto client = std::make_unique<Client>(server_->port());
  ASSERT_TRUE(client->connected());
  ASSERT_TRUE(StartsWith(client->Command("query 1"), "ok "));
  server_->Stop();
  EXPECT_EQ(client->ReadAll(), "");  // server closed the connection
  EXPECT_EQ(server_->connections_active(), 0u);
}

}  // namespace
}  // namespace hkpr
