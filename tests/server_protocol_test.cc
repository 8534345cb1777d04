// End-to-end tests of example_hkpr_server's line protocol, driven over a
// pipe pair: graph load/use/drop/list lifecycle, unknown-graph errors (a
// dropped current graph must err, never silently fall back), live backend
// switches (including "auto"), per-query plan tokens and the per-graph
// params command, and the --graphs=name=path,... startup flag.
//
// The server binary path is injected by CMake (HKPR_SERVER_BINARY); when
// examples are not built (e.g. the TSan CI job), the tests skip.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#ifdef HKPR_SERVER_BINARY

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace hkpr {
namespace {

/// Writes `contents` to a fresh temp file and returns its path.
std::string WriteTempFile(const std::string& tag, const std::string& contents) {
  std::string path = ::testing::TempDir() + "hkpr_server_test_" + tag +
                     "_XXXXXX";
  std::vector<char> buf(path.begin(), path.end());
  buf.push_back('\0');
  const int fd = mkstemp(buf.data());
  EXPECT_GE(fd, 0) << "mkstemp failed for " << path;
  EXPECT_EQ(write(fd, contents.data(), contents.size()),
            static_cast<ssize_t>(contents.size()));
  close(fd);
  return std::string(buf.data());
}

/// A server child process with its stdin/stdout connected over pipes.
class ServerProcess {
 public:
  bool Start(const std::vector<std::string>& extra_args) {
    int to_child[2];
    int from_child[2];
    if (pipe(to_child) != 0 || pipe(from_child) != 0) return false;
    pid_ = fork();
    if (pid_ < 0) return false;
    if (pid_ == 0) {
      dup2(to_child[0], STDIN_FILENO);
      dup2(from_child[1], STDOUT_FILENO);
      close(to_child[0]);
      close(to_child[1]);
      close(from_child[0]);
      close(from_child[1]);
      std::vector<std::string> args = {HKPR_SERVER_BINARY};
      args.insert(args.end(), extra_args.begin(), extra_args.end());
      std::vector<char*> argv;
      for (std::string& arg : args) argv.push_back(arg.data());
      argv.push_back(nullptr);
      execv(argv[0], argv.data());
      _exit(127);  // exec failed
    }
    close(to_child[0]);
    close(from_child[1]);
    in_fd_ = to_child[1];
    out_fd_ = from_child[0];
    return true;
  }

  ~ServerProcess() {
    if (in_fd_ >= 0) close(in_fd_);
    if (out_fd_ >= 0) close(out_fd_);
    if (pid_ > 0) {
      kill(pid_, SIGKILL);
      waitpid(pid_, nullptr, 0);
    }
  }

  /// Sends one command line and returns the single response line.
  std::string Command(const std::string& line) {
    const std::string with_newline = line + "\n";
    EXPECT_EQ(write(in_fd_, with_newline.data(), with_newline.size()),
              static_cast<ssize_t>(with_newline.size()));
    return ReadLine();
  }

  /// Reads one '\n'-terminated line, waiting up to 30s (generous for the
  /// synthetic-graph startup) — an unresponsive server fails instead of
  /// hanging the suite.
  std::string ReadLine() {
    while (true) {
      const size_t newline = buffer_.find('\n');
      if (newline != std::string::npos) {
        std::string line = buffer_.substr(0, newline);
        buffer_.erase(0, newline + 1);
        return line;
      }
      struct pollfd pfd = {out_fd_, POLLIN, 0};
      const int ready = poll(&pfd, 1, 30000);
      if (ready <= 0) {
        ADD_FAILURE() << "timed out waiting for server output";
        return "";
      }
      char chunk[4096];
      const ssize_t n = read(out_fd_, chunk, sizeof(chunk));
      if (n <= 0) {
        ADD_FAILURE() << "server closed its stdout unexpectedly";
        return "";
      }
      buffer_.append(chunk, static_cast<size_t>(n));
    }
  }

  /// Sends quit and reaps the child; returns its exit code (-1 on signal).
  int Quit() {
    const std::string quit = "quit\n";
    (void)!write(in_fd_, quit.data(), quit.size());
    close(in_fd_);
    in_fd_ = -1;
    int status = 0;
    waitpid(pid_, &status, 0);
    pid_ = -1;
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  }

 private:
  pid_t pid_ = -1;
  int in_fd_ = -1;
  int out_fd_ = -1;
  std::string buffer_;
};

bool StartsWith(const std::string& s, const std::string& prefix) {
  return s.rfind(prefix, 0) == 0;
}

bool Contains(const std::string& s, const std::string& needle) {
  return s.find(needle) != std::string::npos;
}

TEST(ServerProtocolTest, GraphLifecycleAndErrors) {
  ServerProcess server;
  ASSERT_TRUE(server.Start({"--nodes=500", "--workers=2", "--seed=7"}));
  const std::string banner = server.ReadLine();
  ASSERT_TRUE(StartsWith(banner, "ok hkpr_server")) << banner;
  EXPECT_TRUE(Contains(banner, "graphs=1(default)")) << banner;

  // The synthetic default graph serves immediately.
  std::string reply = server.Command("graph list");
  EXPECT_TRUE(StartsWith(reply, "ok graphs=1")) << reply;
  EXPECT_TRUE(Contains(reply, "default:v1")) << reply;
  EXPECT_TRUE(Contains(reply, ":current")) << reply;

  reply = server.Command("query 1");
  EXPECT_TRUE(StartsWith(reply, "ok graph=default version=1 seed=1"))
      << reply;

  // use of a name that was never loaded is an error.
  reply = server.Command("graph use nosuch");
  EXPECT_TRUE(StartsWith(reply, "err unknown graph \"nosuch\"")) << reply;

  // Load a second graph from disk, switch to it, query it.
  const std::string path =
      WriteTempFile("tri", "# a triangle plus a tail\n0 1\n1 2\n2 0\n0 3\n");
  reply = server.Command("graph load tri " + path);
  EXPECT_TRUE(StartsWith(reply, "ok graph=tri version=2 nodes=4 edges=4"))
      << reply;
  reply = server.Command("graph use tri");
  EXPECT_TRUE(StartsWith(reply, "ok graph=tri version=2")) << reply;
  reply = server.Command("query 0");
  EXPECT_TRUE(StartsWith(reply, "ok graph=tri version=2 seed=0")) << reply;
  reply = server.Command("query 99");  // out of range for the 4-node graph
  EXPECT_TRUE(StartsWith(reply, "err usage: query")) << reply;

  // Re-loading the same name hot-swaps: the version bumps.
  reply = server.Command("graph load tri " + path);
  EXPECT_TRUE(StartsWith(reply, "ok graph=tri version=3")) << reply;
  reply = server.Command("query 0");
  EXPECT_TRUE(StartsWith(reply, "ok graph=tri version=3")) << reply;
  // ... and the post-swap query was a cache miss by construction.
  EXPECT_TRUE(Contains(reply, "cache=miss")) << reply;

  // Dropping the *current* graph: later queries and `use` must err — the
  // server never silently falls back to another loaded graph.
  reply = server.Command("graph drop tri");
  EXPECT_TRUE(StartsWith(reply, "ok dropped=tri")) << reply;
  reply = server.Command("query 0");
  EXPECT_TRUE(StartsWith(reply, "err unknown graph \"tri\"")) << reply;
  reply = server.Command("graph use tri");
  EXPECT_TRUE(StartsWith(reply, "err unknown graph \"tri\"")) << reply;
  reply = server.Command("graph drop tri");
  EXPECT_TRUE(StartsWith(reply, "err unknown graph \"tri\"")) << reply;

  // Cumulative stats of the dropped graph stay reachable: 2 queries were
  // served across tri's two versions before the drop.
  reply = server.Command("stats tri");
  EXPECT_TRUE(StartsWith(reply, "ok scope=tri")) << reply;
  EXPECT_TRUE(Contains(reply, "submitted=2")) << reply;

  // Loading a graph while the current one is gone adopts it.
  reply = server.Command("graph load tri2 " + path);
  EXPECT_TRUE(StartsWith(reply, "ok graph=tri2 version=4")) << reply;
  reply = server.Command("query 0");
  EXPECT_TRUE(StartsWith(reply, "ok graph=tri2 version=4")) << reply;

  // Recovery: switch back to the surviving graph.
  reply = server.Command("graph use default");
  EXPECT_TRUE(StartsWith(reply, "ok graph=default")) << reply;
  reply = server.Command("query 2");
  EXPECT_TRUE(StartsWith(reply, "ok graph=default")) << reply;

  // stats: aggregate and per-graph scopes, plus unknown-graph scope err.
  reply = server.Command("stats");
  EXPECT_TRUE(StartsWith(reply, "ok scope=all")) << reply;
  reply = server.Command("stats default");
  EXPECT_TRUE(StartsWith(reply, "ok scope=default")) << reply;
  EXPECT_TRUE(Contains(reply, "submitted=")) << reply;
  reply = server.Command("stats nosuch");
  EXPECT_TRUE(StartsWith(reply, "err unknown graph")) << reply;

  reply = server.Command("bogus");
  EXPECT_TRUE(StartsWith(reply, "err unknown command")) << reply;

  EXPECT_EQ(server.Quit(), 0);
}

TEST(ServerProtocolTest, BackendSwitchThenQueryKeepsLoadedGraphs) {
  ServerProcess server;
  ASSERT_TRUE(server.Start({"--nodes=400", "--workers=2", "--seed=11"}));
  ASSERT_TRUE(StartsWith(server.ReadLine(), "ok hkpr_server"));

  const std::string path = WriteTempFile("sq", "0 1\n1 2\n2 3\n3 0\n");
  ASSERT_TRUE(StartsWith(server.Command("graph load square " + path), "ok"));

  // Switching backends is a live config update — no drain, no rebuild —
  // and the store is untouched: both graphs survive and serve on the new
  // default.
  std::string reply = server.Command("backend hk-relax");
  EXPECT_TRUE(StartsWith(reply, "ok backend=hk-relax graphs=2")) << reply;
  reply = server.Command("graph list");
  EXPECT_TRUE(StartsWith(reply, "ok graphs=2")) << reply;
  EXPECT_TRUE(Contains(reply, "default")) << reply;
  EXPECT_TRUE(Contains(reply, "square")) << reply;

  reply = server.Command("graph use square");
  ASSERT_TRUE(StartsWith(reply, "ok graph=square")) << reply;
  reply = server.Command("query 0");
  EXPECT_TRUE(StartsWith(reply, "ok graph=square")) << reply;
  // Query responses name the plan that actually ran.
  EXPECT_TRUE(Contains(reply, "backend=hk-relax")) << reply;

  reply = server.Command("backend bogus");
  EXPECT_TRUE(StartsWith(reply, "err unknown backend \"bogus\"")) << reply;
  reply = server.Command("backend");
  EXPECT_TRUE(StartsWith(reply, "ok backend=hk-relax available=auto,"))
      << reply;

  // "auto" is a valid default: every query routes, and the response shows
  // the router's concrete choice, never "auto" itself.
  reply = server.Command("backend auto");
  EXPECT_TRUE(StartsWith(reply, "ok backend=auto graphs=2")) << reply;
  reply = server.Command("query 1");
  EXPECT_TRUE(StartsWith(reply, "ok graph=square")) << reply;
  EXPECT_TRUE(Contains(reply, "backend=")) << reply;
  EXPECT_FALSE(Contains(reply, "backend=auto")) << reply;

  reply = server.Command("invalidate");
  EXPECT_TRUE(StartsWith(reply, "ok caches invalidated")) << reply;

  EXPECT_EQ(server.Quit(), 0);
}

TEST(ServerProtocolTest, EveryBackendAnswersOnAOneNodeGraph) {
  // An edge list holding only a self-loop loads as a one-node graph. Every
  // backend the server lists, and auto, must answer a query on it with the
  // exact HKPR: every walk from an isolated seed stops in place, so all of
  // the mass stays on the seed. None may abort.
  ServerProcess server;
  ASSERT_TRUE(server.Start({"--nodes=400", "--workers=2", "--seed=13"}));
  ASSERT_TRUE(StartsWith(server.ReadLine(), "ok hkpr_server"));

  const std::string path = WriteTempFile("one", "0 0\n");
  std::string reply = server.Command("graph load one " + path);
  ASSERT_TRUE(StartsWith(reply, "ok graph=one")) << reply;
  ASSERT_TRUE(Contains(reply, "nodes=1")) << reply;
  reply = server.Command("graph use one");
  ASSERT_TRUE(StartsWith(reply, "ok graph=one")) << reply;

  reply = server.Command("backend");
  const std::string key = "available=";
  const size_t at = reply.find(key);
  ASSERT_NE(at, std::string::npos) << reply;
  std::vector<std::string> names;
  size_t begin = at + key.size();
  while (begin <= reply.size()) {
    const size_t end = std::min(reply.find(',', begin), reply.size());
    names.push_back(reply.substr(begin, end - begin));
    begin = end + 1;
  }
  ASSERT_GE(names.size(), 2u) << reply;

  for (const std::string& name : names) {
    reply = server.Command("query 0 backend=" + name);
    EXPECT_TRUE(StartsWith(reply, "ok graph=one")) << name << ": " << reply;
    EXPECT_TRUE(Contains(reply, " nnz=1 sum=1.000000 "))
        << name << ": " << reply;
  }
  EXPECT_EQ(server.Quit(), 0);
}

TEST(ServerProtocolTest, GraphLoadOfUnservableIdAnswersErr) {
  // Id 4294967295 leaves no room for the node count: the load answers err
  // and the server keeps serving.
  ServerProcess server;
  ASSERT_TRUE(server.Start({"--nodes=400", "--workers=2", "--seed=17"}));
  ASSERT_TRUE(StartsWith(server.ReadLine(), "ok hkpr_server"));

  const std::string path = WriteTempFile("idmax", "4294967295 0\n");
  std::string reply = server.Command("graph load x " + path);
  EXPECT_TRUE(StartsWith(reply, "err cannot load")) << reply;
  EXPECT_TRUE(Contains(reply, "node id exceeds 32 bits at line 1")) << reply;
  reply = server.Command("graph list");
  EXPECT_TRUE(StartsWith(reply, "ok graphs=1")) << reply;
  EXPECT_FALSE(Contains(reply, "x:")) << reply;
  EXPECT_EQ(server.Quit(), 0);
}

TEST(ServerProtocolTest, HeatConstantPastTheServableCapAnswersErr) {
  // e^{-t} is subnormal from t ~ 708 and 0 from t ~ 746, where building the
  // heat kernel's table aborted the server. Servable t stops at 700.
  ServerProcess server;
  ASSERT_TRUE(server.Start({"--nodes=400", "--workers=2", "--seed=19"}));
  ASSERT_TRUE(StartsWith(server.ReadLine(), "ok hkpr_server"));

  std::string reply = server.Command("topk 5 10 t=800");
  EXPECT_TRUE(StartsWith(reply, "err")) << reply;
  reply = server.Command("topk 5 10 t=740");
  EXPECT_TRUE(StartsWith(reply, "err")) << reply;
  reply = server.Command("params default t=800");
  EXPECT_TRUE(StartsWith(reply, "err params out of range (t in (0,700]"))
      << reply;
  reply = server.Command("graph list");
  EXPECT_TRUE(StartsWith(reply, "ok graphs=1")) << reply;
  reply = server.Command("topk 5 10");
  EXPECT_TRUE(StartsWith(reply, "ok graph=default")) << reply;
  reply = server.Command("topk 5 10 t=700");
  EXPECT_TRUE(StartsWith(reply, "ok graph=default")) << reply;
  // 19.69 is one of the t whose kernel table never ended before; at 1e-17
  // e^{-t} rounds to 1 and hop 0 converts all of its residue.
  reply = server.Command("topk 5 10 t=19.69");
  EXPECT_TRUE(StartsWith(reply, "ok graph=default")) << reply;
  reply = server.Command("topk 5 10 t=1e-17");
  EXPECT_TRUE(StartsWith(reply, "ok graph=default")) << reply;
  EXPECT_EQ(server.Quit(), 0);
}

TEST(ServerProtocolTest, PerQueryPlanTokensAndParamsCommand) {
  ServerProcess server;
  ASSERT_TRUE(server.Start({"--nodes=500", "--workers=2", "--seed=13"}));
  ASSERT_TRUE(StartsWith(server.ReadLine(), "ok hkpr_server"));

  // Per-query overrides: the token pins this one query's backend; the
  // default (tea+) is untouched.
  std::string reply = server.Command("query 3 backend=hk-relax");
  EXPECT_TRUE(StartsWith(reply, "ok graph=default")) << reply;
  EXPECT_TRUE(Contains(reply, "backend=hk-relax")) << reply;
  reply = server.Command("query 3");
  EXPECT_TRUE(Contains(reply, "backend=tea+")) << reply;

  // Distinct plans never share cache entries: the same seed at another t
  // is a miss, repeating it is a hit.
  reply = server.Command("query 3 t=3.0");
  EXPECT_TRUE(Contains(reply, "cache=miss")) << reply;
  reply = server.Command("query 3 t=3.0");
  EXPECT_TRUE(Contains(reply, "cache=hit")) << reply;

  // topk takes the same tokens; backend=auto resolves to a concrete name.
  reply = server.Command("topk 5 3 backend=auto");
  EXPECT_TRUE(StartsWith(reply, "ok graph=default")) << reply;
  EXPECT_TRUE(Contains(reply, "backend=")) << reply;
  EXPECT_FALSE(Contains(reply, "backend=auto")) << reply;

  // Malformed tokens and unknown backends err without computing.
  reply = server.Command("query 3 bogus=1");
  EXPECT_TRUE(StartsWith(reply, "err unknown token")) << reply;
  reply = server.Command("query 3 backend=nope");
  EXPECT_TRUE(StartsWith(reply, "err unknown backend \"nope\"")) << reply;
  reply = server.Command("query 3 t=abc");
  EXPECT_TRUE(StartsWith(reply, "err malformed value")) << reply;

  // Per-graph defaults: set, observe on queries, show, clear.
  reply = server.Command("params default backend=hk-relax t=2.0");
  EXPECT_TRUE(StartsWith(reply, "ok graph=default backend=hk-relax t=2"))
      << reply;
  reply = server.Command("query 7");
  EXPECT_TRUE(Contains(reply, "backend=hk-relax")) << reply;
  reply = server.Command("params default");
  EXPECT_TRUE(StartsWith(reply, "ok graph=default backend=hk-relax t=2"))
      << reply;
  reply = server.Command("params default clear");
  EXPECT_TRUE(StartsWith(
      reply, "ok graph=default backend=default t=default")) << reply;
  reply = server.Command("query 7");
  EXPECT_TRUE(Contains(reply, "backend=tea+")) << reply;

  // Unknown graph / missing argument err.
  reply = server.Command("params nosuch t=1");
  EXPECT_TRUE(StartsWith(reply, "err unknown graph \"nosuch\"")) << reply;
  reply = server.Command("params");
  EXPECT_TRUE(StartsWith(reply, "err usage: params")) << reply;

  EXPECT_EQ(server.Quit(), 0);
}

TEST(ServerProtocolTest, StatsFieldsJsonShapeAndMetricsExposition) {
  ServerProcess server;
  ASSERT_TRUE(server.Start({"--nodes=500", "--workers=2", "--seed=17"}));
  ASSERT_TRUE(StartsWith(server.ReadLine(), "ok hkpr_server"));

  // Traffic that exercises hit, miss, and computed counters.
  ASSERT_TRUE(StartsWith(server.Command("query 1"), "ok"));
  ASSERT_TRUE(StartsWith(server.Command("query 1"), "ok"));
  ASSERT_TRUE(StartsWith(server.Command("query 5 backend=auto"), "ok"));

  // The stats line must carry *every* ServiceStatsSnapshot field — the
  // once-omitted stolen/invalid_plans/expired/cancelled included — plus
  // the per-stage tracing columns.
  std::string reply = server.Command("stats");
  EXPECT_TRUE(StartsWith(reply, "ok scope=all")) << reply;
  for (const char* field :
       {"submitted=", "completed=", "rejected=", "invalid_plans=",
        "cancelled=", "expired=", "cache_hits=", "cache_misses=",
        "coalesced=", "computed=", "stolen=", "queue=", "latency_count=",
        "unknown_graph=", "invalid_argument=", "p50_ms=", "p95_ms=",
        "p99_ms=", "queue_wait_mean_ms=", "queue_wait_p50_ms=",
        "queue_wait_p99_ms=", "cache_mean_ms=", "cache_p50_ms=",
        "cache_p99_ms=", "compute_mean_ms=", "compute_p50_ms=",
        "compute_p99_ms="}) {
    EXPECT_TRUE(Contains(reply, field)) << "missing " << field << ": "
                                        << reply;
  }
  EXPECT_TRUE(Contains(reply, "submitted=3")) << reply;
  EXPECT_TRUE(Contains(reply, "cache_hits=1")) << reply;

  // Per-graph scope carries the same full field set (minus the
  // aggregate-only unknown_graph/invalid_argument counters).
  reply = server.Command("stats default");
  EXPECT_TRUE(StartsWith(reply, "ok scope=default")) << reply;
  EXPECT_TRUE(Contains(reply, "stolen=")) << reply;
  EXPECT_TRUE(Contains(reply, "compute_p99_ms=")) << reply;

  // --json: one line, "ok " + a JSON object with the stage sub-objects.
  reply = server.Command("stats --json");
  ASSERT_TRUE(StartsWith(reply, "ok {")) << reply;
  EXPECT_EQ(reply.back(), '}') << reply;
  for (const char* needle :
       {"\"scope\":\"all\"", "\"submitted\":3", "\"stages\":",
        "\"queue_wait\":", "\"cache\":", "\"compute\":", "\"count\":",
        "\"mean_ms\":", "\"p99_ms\":", "\"traced_total_us\":"}) {
    EXPECT_TRUE(Contains(reply, needle)) << "missing " << needle << ": "
                                         << reply;
  }
  reply = server.Command("stats default --json");
  EXPECT_TRUE(StartsWith(reply, "ok {\"scope\":\"default\"")) << reply;
  reply = server.Command("stats nosuch --json");
  EXPECT_TRUE(StartsWith(reply, "err unknown graph")) << reply;

  // metrics: a Prometheus-style block of `name{dims} value` lines closed
  // by a summary "ok metrics ..." line.
  reply = server.Command("metrics");
  std::vector<std::string> lines;
  while (!StartsWith(reply, "ok ") && !StartsWith(reply, "err")) {
    lines.push_back(reply);
    reply = server.ReadLine();
  }
  EXPECT_TRUE(StartsWith(reply, "ok metrics graphs=1 lines=")) << reply;
  EXPECT_TRUE(Contains(reply, "lines=" + std::to_string(lines.size())))
      << reply << " vs " << lines.size() << " lines read";
  ASSERT_FALSE(lines.empty());

  bool saw_submitted = false, saw_backend_dim = false, saw_quantile = false,
       saw_stage = false, saw_tenant = false;
  double completed_total = -1.0, backend_completed_sum = 0.0;
  for (const std::string& line : lines) {
    // Every exposition line is `name{label="value",...} number`. Graph
    // scopes carry a graph label; the per-tenant rows a tenant label.
    const size_t brace = line.find('{');
    const size_t close = line.find("} ");
    ASSERT_NE(brace, std::string::npos) << line;
    ASSERT_NE(close, std::string::npos) << line;
    ASSERT_LT(brace, close) << line;
    if (StartsWith(line, "hkpr_tenant_")) {
      saw_tenant = true;
      EXPECT_TRUE(Contains(line, "tenant=\"default\"")) << line;
    } else {
      EXPECT_TRUE(Contains(line, "graph=\"default\"")) << line;
    }
    const std::string value = line.substr(close + 2);
    ASSERT_FALSE(value.empty()) << line;
    char* end = nullptr;
    (void)std::strtod(value.c_str(), &end);
    EXPECT_EQ(*end, '\0') << "non-numeric metric value: " << line;

    if (StartsWith(line, "hkpr_submitted_total{")) {
      saw_submitted = true;
      EXPECT_EQ(value, "3") << line;
    }
    if (StartsWith(line, "hkpr_completed_total{")) {
      completed_total = std::strtod(value.c_str(), nullptr);
    }
    if (StartsWith(line, "hkpr_backend_completed_total{")) {
      saw_backend_dim = true;
      EXPECT_TRUE(Contains(line, "backend=\"")) << line;
      backend_completed_sum += std::strtod(value.c_str(), nullptr);
    }
    if (Contains(line, "quantile=\"0.99\"")) saw_quantile = true;
    // The server keeps no routing event log, so it exports no rows for one.
    EXPECT_FALSE(StartsWith(line, "hkpr_routing_events")) << line;
    if (StartsWith(line, "hkpr_stage_latency_ms{")) {
      saw_stage = true;
      EXPECT_TRUE(Contains(line, "stage=\"")) << line;
    }
  }
  EXPECT_TRUE(saw_submitted);
  EXPECT_TRUE(saw_backend_dim);  // the (graph, backend) dimension rows
  // The rows come from the same snapshot as the scope's totals.
  EXPECT_EQ(completed_total, 3.0);
  EXPECT_EQ(backend_completed_sum, completed_total);
  EXPECT_TRUE(saw_quantile);
  EXPECT_TRUE(saw_stage);
  EXPECT_TRUE(saw_tenant);  // per-tenant rows for the default tenant

  EXPECT_EQ(server.Quit(), 0);
}

TEST(ServerProtocolTest, GraphsFlagLoadsNamedGraphsAtStartup) {
  const std::string path_a = WriteTempFile("a", "0 1\n1 2\n2 0\n");
  const std::string path_b = WriteTempFile("b", "0 1\n1 2\n2 3\n3 4\n");
  ServerProcess server;
  ASSERT_TRUE(server.Start(
      {"--graphs=tri=" + path_a + ",path=" + path_b, "--workers=2"}));
  const std::string banner = server.ReadLine();
  ASSERT_TRUE(StartsWith(banner, "ok hkpr_server")) << banner;
  EXPECT_TRUE(Contains(banner, "graphs=2(path,tri)")) << banner;
  EXPECT_TRUE(Contains(banner, "current=tri")) << banner;

  std::string reply = server.Command("query 0");
  EXPECT_TRUE(StartsWith(reply, "ok graph=tri")) << reply;
  reply = server.Command("graph use path");
  ASSERT_TRUE(StartsWith(reply, "ok graph=path")) << reply;
  reply = server.Command("query 4");
  EXPECT_TRUE(StartsWith(reply, "ok graph=path")) << reply;

  EXPECT_EQ(server.Quit(), 0);
}

/// Runs the server binary with `args`, stdin closed, and returns its exit
/// code (-1 on signal). For the flag-validation tests: a rejected flag
/// must exit non-zero before serving anything.
int RunServerExpectExit(const std::vector<std::string>& extra_args) {
  const pid_t pid = fork();
  if (pid < 0) return -1;
  if (pid == 0) {
    // No stdin: if the server wrongly accepts the flags it would just
    // see EOF and exit 0 — which the assertions below catch.
    const int devnull = open("/dev/null", O_RDWR);
    dup2(devnull, STDIN_FILENO);
    dup2(devnull, STDOUT_FILENO);
    dup2(devnull, STDERR_FILENO);
    std::vector<std::string> args = {HKPR_SERVER_BINARY};
    args.insert(args.end(), extra_args.begin(), extra_args.end());
    std::vector<char*> argv;
    for (std::string& arg : args) argv.push_back(arg.data());
    argv.push_back(nullptr);
    execv(argv[0], argv.data());
    _exit(127);
  }
  int status = 0;
  waitpid(pid, &status, 0);
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

TEST(ServerProtocolTest, NegativeNumericFlagsExitNonZero) {
  // Regression: --workers=-1 used to wrap through atoi to 4294967295
  // workers; now any signed value is a startup error.
  EXPECT_EQ(RunServerExpectExit({"--workers=-1"}), 1);
  EXPECT_EQ(RunServerExpectExit({"--nodes=-5"}), 1);
  EXPECT_EQ(RunServerExpectExit({"--cache=-1"}), 1);
}

TEST(ServerProtocolTest, GarbageNumericFlagsExitNonZero) {
  // Regression: --nodes=abc used to silently become 0 via atoi.
  EXPECT_EQ(RunServerExpectExit({"--nodes=abc"}), 1);
  EXPECT_EQ(RunServerExpectExit({"--nodes=12x", "--workers=2"}), 1);
  EXPECT_EQ(RunServerExpectExit({"--seed=1.5"}), 1);
  EXPECT_EQ(RunServerExpectExit({"--nodes=0"}), 1);
  EXPECT_EQ(RunServerExpectExit({"--listen=99999"}), 1);  // > 65535
}

TEST(ServerProtocolTest, UnknownFlagsAreRejectedNotIgnored) {
  // A typo like --worker=8 used to be silently ignored, serving with the
  // default worker budget instead of erroring.
  EXPECT_EQ(RunServerExpectExit({"--worker=8"}), 1);
  EXPECT_EQ(RunServerExpectExit({"--nodes=400", "--bogus"}), 1);
  // The server has no --router, --hedge or --no-trace flag: passing one
  // must fail loudly, not quietly serve with the defaults.
  EXPECT_EQ(RunServerExpectExit({"--router=rule"}), 1);
  EXPECT_EQ(RunServerExpectExit({"--hedge=off"}), 1);
  EXPECT_EQ(RunServerExpectExit({"--no-trace"}), 1);
  // Valid flags still start and exit 0 on stdin EOF.
  EXPECT_EQ(RunServerExpectExit({"--nodes=400", "--workers=2"}), 0);
}

/// Loopback client for the --listen frontend.
class TcpClient {
 public:
  explicit TcpClient(uint16_t port) {
    fd_ = socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    connected_ =
        connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0;
  }
  ~TcpClient() {
    if (fd_ >= 0) close(fd_);
  }
  bool connected() const { return connected_; }
  std::string Command(const std::string& line) {
    const std::string out = line + "\n";
    if (write(fd_, out.data(), out.size()) !=
        static_cast<ssize_t>(out.size())) {
      return "";
    }
    while (true) {
      const size_t newline = buf_.find('\n');
      if (newline != std::string::npos) {
        std::string reply = buf_.substr(0, newline);
        buf_.erase(0, newline + 1);
        return reply;
      }
      char chunk[4096];
      const ssize_t n = read(fd_, chunk, sizeof(chunk));
      if (n <= 0) return "";
      buf_.append(chunk, static_cast<size_t>(n));
    }
  }

 private:
  int fd_ = -1;
  bool connected_ = false;
  std::string buf_;
};

TEST(ServerProtocolTest, ListenFlagServesSameProtocolOverTcp) {
  ServerProcess server;
  ASSERT_TRUE(server.Start(
      {"--nodes=400", "--workers=2", "--seed=19", "--listen=0"}));
  const std::string banner = server.ReadLine();
  ASSERT_TRUE(StartsWith(banner, "ok hkpr_server")) << banner;
  const size_t at = banner.find(" listen=");
  ASSERT_NE(at, std::string::npos) << banner;
  const uint16_t port = static_cast<uint16_t>(
      std::strtoul(banner.c_str() + at + 8, nullptr, 10));
  ASSERT_GT(port, 0);

  TcpClient tcp(port);
  ASSERT_TRUE(tcp.connected());

  // stdin and socket answer the same deterministic commands with
  // identical bytes — the two transports share one dispatcher.
  for (const std::string& cmd :
       {std::string("graph list"), std::string("backend"),
        std::string("tenant"), std::string("query 9999"),
        std::string("query 1 t="), std::string("nonsense")}) {
    const std::string via_stdin = server.Command(cmd);
    const std::string via_tcp = tcp.Command(cmd);
    EXPECT_EQ(via_stdin, via_tcp) << "transport divergence on: " << cmd;
  }

  // Tenant state is per session: binding the socket session to a tenant
  // must not move the stdin session off the default.
  EXPECT_TRUE(StartsWith(tcp.Command("tenant socket-side"),
                         "ok tenant=socket-side"));
  EXPECT_EQ(server.Command("tenant"), "ok tenant=default");

  // Queries over TCP serve like stdin ones (bytes differ only in
  // latency_ms, so compare the prefix through the backend field).
  const std::string tcp_query = tcp.Command("query 7");
  EXPECT_TRUE(StartsWith(tcp_query, "ok graph=default")) << tcp_query;
  EXPECT_TRUE(Contains(tcp_query, "backend=")) << tcp_query;

  EXPECT_EQ(server.Quit(), 0);
}

}  // namespace
}  // namespace hkpr

#else  // !HKPR_SERVER_BINARY

namespace hkpr {
namespace {

TEST(ServerProtocolTest, SkippedWithoutServerBinary) {
  GTEST_SKIP() << "example_hkpr_server not built (HKPR_BUILD_EXAMPLES=OFF)";
}

}  // namespace
}  // namespace hkpr

#endif  // HKPR_SERVER_BINARY
