// Tests for the shared command dispatcher (net/command_processor.h) and
// the validated parsing helpers (common/parse.h) it is built on.
//
// The ParsePlanTokens cases are regression tests for the input-parsing
// bugs the hardening fixed: an empty value ("t=") used to fall through
// to a misleading "unknown token" error, duplicate keys ("t=1 t=2")
// silently last-won, and "backend=" was treated as a bare token. The
// parse.h cases pin the atoi/atoll replacement semantics: "-1" and "abc"
// are rejected instead of wrapping to 4294967295 / becoming 0.

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/parse.h"
#include "common/random.h"
#include "graph/generators.h"
#include "net/command_processor.h"
#include "service/graph_store.h"
#include "service/multi_graph_service.h"

namespace hkpr {
namespace {

bool Contains(const std::string& s, const std::string& needle) {
  return s.find(needle) != std::string::npos;
}

bool StartsWith(const std::string& s, const std::string& prefix) {
  return s.rfind(prefix, 0) == 0;
}

// ---------------------------------------------------------------------------
// common/parse.h

TEST(ParseUintTest, AcceptsPlainDigits) {
  EXPECT_EQ(ParseUint64("0"), 0u);
  EXPECT_EQ(ParseUint64("42"), 42u);
  EXPECT_EQ(ParseUint64("18446744073709551615"), UINT64_MAX);
  EXPECT_EQ(ParseUint32("4294967295"), UINT32_MAX);
}

TEST(ParseUintTest, RejectsSignsInsteadOfWrapping) {
  // std::atoi("-1") cast to uint32 silently produced 4294967295 — the
  // --workers=-1 bug. Signed input is now an error.
  EXPECT_FALSE(ParseUint64("-1").has_value());
  EXPECT_FALSE(ParseUint64("+1").has_value());
  EXPECT_FALSE(ParseUint32("-4").has_value());
}

TEST(ParseUintTest, RejectsGarbageInsteadOfZero) {
  // std::atoi("abc") silently produced 0 — the --nodes=abc bug.
  EXPECT_FALSE(ParseUint64("abc").has_value());
  EXPECT_FALSE(ParseUint64("12x").has_value());
  EXPECT_FALSE(ParseUint64("1.5").has_value());
  EXPECT_FALSE(ParseUint64("").has_value());
  EXPECT_FALSE(ParseUint64(" 7").has_value());
}

TEST(ParseUintTest, RejectsOverflow) {
  EXPECT_FALSE(ParseUint64("18446744073709551616").has_value());  // 2^64
  EXPECT_FALSE(ParseUint64("99999999999999999999999").has_value());
  EXPECT_FALSE(ParseUint32("4294967296").has_value());  // 2^32
  EXPECT_EQ(ParseUint64("65535", 65535), 65535u);
  EXPECT_FALSE(ParseUint64("65536", 65535).has_value());
}

TEST(ParseDoubleTest, AcceptsUsualFormsRejectsJunk) {
  EXPECT_DOUBLE_EQ(*ParseDouble("1.5"), 1.5);
  EXPECT_DOUBLE_EQ(*ParseDouble("-2"), -2.0);
  EXPECT_DOUBLE_EQ(*ParseDouble("1e-3"), 1e-3);
  EXPECT_FALSE(ParseDouble("").has_value());
  EXPECT_FALSE(ParseDouble("abc").has_value());
  EXPECT_FALSE(ParseDouble("1.5x").has_value());
  EXPECT_FALSE(ParseDouble("nan").has_value());
  EXPECT_FALSE(ParseDouble("inf").has_value());
}

// ---------------------------------------------------------------------------
// ParsePlanTokens hardening

std::string PlanError(const std::string& tokens, bool with_tenant = false) {
  std::istringstream in(tokens);
  PlanOverrides plan;
  std::string tenant;
  std::string error;
  const bool ok = ParsePlanTokens(in, &plan, with_tenant ? &tenant : nullptr,
                                  &error);
  EXPECT_FALSE(ok) << "\"" << tokens << "\" unexpectedly parsed";
  return error;
}

TEST(ParsePlanTokensTest, ValidTokensParse) {
  std::istringstream in("t=5 eps=0.5 delta=1e-4 backend=auto");
  PlanOverrides plan;
  std::string error;
  ASSERT_TRUE(ParsePlanTokens(in, &plan, nullptr, &error)) << error;
  EXPECT_DOUBLE_EQ(*plan.t, 5.0);
  EXPECT_DOUBLE_EQ(*plan.eps_r, 0.5);
  EXPECT_DOUBLE_EQ(*plan.delta, 1e-4);
  EXPECT_EQ(plan.backend, "auto");
}

TEST(ParsePlanTokensTest, EmptyValueIsItsOwnError) {
  // Regression: "t=" used to fall through to the generic "unknown token"
  // message, hiding what was actually wrong.
  EXPECT_TRUE(Contains(PlanError("t="), "empty value"));
  EXPECT_TRUE(Contains(PlanError("backend="), "empty value"));
  EXPECT_TRUE(Contains(PlanError("eps= t=1"), "empty value"));
}

TEST(ParsePlanTokensTest, DuplicateKeysAreRejected) {
  // Regression: "t=1 t=2" used to silently take the last value.
  const std::string error = PlanError("t=1 t=2");
  EXPECT_TRUE(Contains(error, "duplicate key")) << error;
  EXPECT_TRUE(Contains(error, "\"t\"")) << error;
  EXPECT_TRUE(Contains(PlanError("backend=tea+ backend=auto"),
                       "duplicate key"));
}

TEST(ParsePlanTokensTest, UnknownAndMalformedKeepTheirPrefixes) {
  // These exact prefixes are part of the protocol surface (asserted by
  // the server protocol tests).
  EXPECT_TRUE(StartsWith(PlanError("bogus=1"), "unknown token"));
  EXPECT_TRUE(StartsWith(PlanError("notakv"), "unknown token"));
  EXPECT_TRUE(StartsWith(PlanError("t=abc"), "malformed value"));
  EXPECT_TRUE(StartsWith(PlanError("backend=nosuch"), "unknown backend"));
}

TEST(ParsePlanTokensTest, TenantTokenOnlyWhereAllowed) {
  {
    std::istringstream in("tenant=alice t=2");
    PlanOverrides plan;
    std::string tenant = "default";
    std::string error;
    ASSERT_TRUE(ParsePlanTokens(in, &plan, &tenant, &error)) << error;
    EXPECT_EQ(tenant, "alice");
    EXPECT_DOUBLE_EQ(*plan.t, 2.0);
  }
  // The params command path passes no tenant slot: tenant= is unknown
  // there.
  EXPECT_TRUE(StartsWith(PlanError("tenant=alice"), "unknown token"));
  EXPECT_TRUE(Contains(PlanError("tenant=", /*with_tenant=*/true),
                       "empty value"));
  EXPECT_TRUE(Contains(PlanError("tenant=a tenant=b", /*with_tenant=*/true),
                       "duplicate key"));
}

// ---------------------------------------------------------------------------
// CommandProcessor end-to-end (in-process, no sockets)

class CommandProcessorTest : public ::testing::Test {
 protected:
  CommandProcessorTest() {
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
  }

  std::string Run(ClientSession& session, const std::string& line) {
    return processor_->Execute(session, line).output;
  }

  GraphStore store_;
  ApproxParams params_;
  TenantRegistry tenants_;
  std::unique_ptr<MultiGraphService> service_;
  std::unique_ptr<CommandProcessor> processor_;
};

TEST_F(CommandProcessorTest, QueryAndErrorsMatchProtocolShape) {
  ClientSession session = processor_->NewSession();
  EXPECT_TRUE(StartsWith(Run(session, "query 3"), "ok graph=default"));
  EXPECT_TRUE(StartsWith(Run(session, "query"), "err usage:"));
  EXPECT_TRUE(StartsWith(Run(session, "query 3 t="), "err empty value"));
  EXPECT_TRUE(StartsWith(Run(session, "query 3 t=1 t=2"),
                         "err duplicate key"));
  EXPECT_TRUE(StartsWith(Run(session, "wibble"), "err unknown command"));
  EXPECT_TRUE(StartsWith(Run(session, "router"), "err unknown command"));
  EXPECT_TRUE(Run(session, "").empty());
}

TEST_F(CommandProcessorTest, QuitSetsTheFlagWithoutOutput) {
  ClientSession session = processor_->NewSession();
  const CommandResult result = processor_->Execute(session, "quit");
  EXPECT_TRUE(result.quit);
  EXPECT_TRUE(result.output.empty());
  EXPECT_TRUE(processor_->Execute(session, "exit").quit);
}

TEST_F(CommandProcessorTest, SessionsAreIndependent) {
  ClientSession a = processor_->NewSession();
  ClientSession b = processor_->NewSession();
  EXPECT_TRUE(StartsWith(Run(a, "tenant alice"), "ok tenant=alice"));
  EXPECT_EQ(a.tenant, "alice");
  EXPECT_EQ(b.tenant, "default");
  EXPECT_TRUE(StartsWith(Run(b, "tenant"), "ok tenant=default"));
}

TEST_F(CommandProcessorTest, TenantSetValidatesAndLists) {
  ClientSession session = processor_->NewSession();
  EXPECT_TRUE(StartsWith(
      Run(session, "tenant set gold rate=100 burst=10 quota=8 priority=high"),
      "ok tenant=gold"));
  EXPECT_TRUE(StartsWith(Run(session, "tenant set bad rate=abc"),
                         "err malformed value"));
  EXPECT_TRUE(StartsWith(Run(session, "tenant set bad priority=urgent"),
                         "err malformed value"));
  EXPECT_TRUE(StartsWith(Run(session, "tenant set bad rate="),
                         "err empty value"));
  EXPECT_TRUE(StartsWith(Run(session, "tenant set bad wat=1"),
                         "err unknown token"));
  EXPECT_TRUE(StartsWith(Run(session, "tenant set"), "err usage:"));
  const std::string list = Run(session, "tenant list");
  EXPECT_TRUE(Contains(list, "tenant=gold priority=high rate_qps=100"));
  EXPECT_TRUE(Contains(list, "ok tenants="));
}

TEST_F(CommandProcessorTest, ThrottledTenantGetsDistinctError) {
  ClientSession session = processor_->NewSession();
  ASSERT_TRUE(StartsWith(
      Run(session, "tenant set limited rate=0.001 burst=1 priority=high"),
      "ok"));
  ASSERT_TRUE(StartsWith(Run(session, "tenant limited"), "ok"));
  // The single burst token admits one query; the next is throttled with
  // the tenant-specific error, not a generic rejection.
  EXPECT_TRUE(StartsWith(Run(session, "query 1"), "ok "));
  EXPECT_TRUE(StartsWith(Run(session, "query 2"),
                         "err tenant-throttled tenant=limited"));
  // Another session under the default tenant is unaffected.
  ClientSession other = processor_->NewSession();
  EXPECT_TRUE(StartsWith(Run(other, "query 3"), "ok "));
  const TenantStatsSnapshot s = tenants_.StatsFor("limited");
  EXPECT_EQ(s.admitted, 1u);
  EXPECT_EQ(s.throttled, 1u);
}

TEST_F(CommandProcessorTest, QuotaTenantGetsDistinctError) {
  ClientSession session = processor_->NewSession();
  ASSERT_TRUE(StartsWith(Run(session, "tenant set tiny quota=1"), "ok"));
  // The synchronous Execute path settles each query before returning, so
  // force the quota by marking one in flight directly.
  ASSERT_EQ(tenants_.Admit("tiny", 0, 1024), TenantAdmission::kAdmitted);
  EXPECT_TRUE(StartsWith(Run(session, "query 1 tenant=tiny"),
                         "err tenant-quota tenant=tiny"));
  tenants_.OnComplete("tiny", true, 0.001);
  EXPECT_TRUE(StartsWith(Run(session, "query 1 tenant=tiny"), "ok "));
}

TEST_F(CommandProcessorTest, PerLineTenantTokenOverridesSession) {
  ClientSession session = processor_->NewSession();
  ASSERT_TRUE(StartsWith(Run(session, "query 5 tenant=burst"), "ok "));
  EXPECT_EQ(tenants_.StatsFor("burst").admitted, 1u);
  EXPECT_EQ(session.tenant, "default");  // the token is per line only
  ASSERT_TRUE(StartsWith(Run(session, "query 6"), "ok "));
  EXPECT_EQ(tenants_.StatsFor("default").admitted, 1u);
}

TEST_F(CommandProcessorTest, MetricsIncludeTenantRows) {
  ClientSession session = processor_->NewSession();
  ASSERT_TRUE(StartsWith(Run(session, "query 2"), "ok "));
  const std::string metrics = Run(session, "metrics");
  EXPECT_TRUE(Contains(metrics, "hkpr_tenant_admitted_total{tenant=\"default\"} 1"));
  EXPECT_TRUE(Contains(metrics, "hkpr_tenant_completed_total{tenant=\"default\"} 1"));
  EXPECT_TRUE(Contains(metrics, "hkpr_tenant_latency_ms{tenant=\"default\",quantile=\"0.5\"}"));
  EXPECT_TRUE(Contains(metrics, "hkpr_submitted_total{graph=\"default\"} 1"));
  // The terminating protocol line's count covers the tenant rows too.
  EXPECT_TRUE(Contains(metrics, "ok metrics graphs=1 lines="));
}

TEST_F(CommandProcessorTest, GraphAndStatsCommandsStillWork) {
  ClientSession session = processor_->NewSession();
  EXPECT_TRUE(StartsWith(Run(session, "graph list"), "ok graphs=1"));
  EXPECT_TRUE(StartsWith(Run(session, "graph use nosuch"),
                         "err unknown graph"));
  EXPECT_TRUE(StartsWith(Run(session, "backend"), "ok backend="));
  EXPECT_TRUE(StartsWith(Run(session, "stats"), "ok scope=all"));
  EXPECT_TRUE(StartsWith(Run(session, "stats --json"), "ok {\"scope\":\"all\""));
  EXPECT_TRUE(StartsWith(Run(session, "invalidate"), "ok caches"));
  EXPECT_TRUE(StartsWith(Run(session, "params default"),
                         "ok graph=default backend=default"));
}

// ---------------------------------------------------------------------------
// Seeded mutation test of the graph lifecycle commands: random scripts of
// graph load|use|drop|list, query and topk with random plan tokens,
// params, backend, stats and invalidate over two small edge-list files.

std::string Pick(Rng& rng, const std::vector<std::string>& choices) {
  return choices[rng.UniformInt(choices.size())];
}

/// Zero to three plan tokens, keys possibly repeated, values possibly out
/// of range or malformed. delta stays at 1e-2 or above, so that a
/// Monte-Carlo query stays test-sized.
std::string PlanTokens(Rng& rng) {
  std::string out;
  const uint64_t count = rng.Bernoulli(0.5) ? 0 : 1 + rng.UniformInt(3);
  for (uint64_t i = 0; i < count; ++i) {
    switch (rng.UniformInt(4)) {
      case 0:
        out += " backend=" + Pick(rng, {"tea+", "tea", "monte-carlo", "push",
                                        "hk-relax", "cluster-hkpr", "auto",
                                        "nosuch", ""});
        break;
      case 1:
        out += " t=" + Pick(rng, {"1", "5", "12.5", "700", "701", "0", "x"});
        break;
      case 2:
        out += " eps=" + Pick(rng, {"0.1", "0.5", "0.9", "1", "-0.5"});
        break;
      default:
        out += " delta=" + Pick(rng, {"0.01", "0.05", "0.5", "2", "0", "-1"});
        break;
    }
  }
  return out;
}

/// One random command line. One line in eight then has one of its
/// space-separated words replaced by junk or removed.
std::string RandomLine(Rng& rng, const std::vector<std::string>& files) {
  const std::string name = Pick(rng, {"a", "b", "c"});
  const std::string seed =
      rng.UniformInt(8) == 0 ? Pick(rng, {"-1", "x", "99999999999"})
                             : std::to_string(rng.UniformInt(
                                   rng.Bernoulli(0.75) ? 12 : 40));
  std::string line;
  switch (rng.UniformInt(12)) {
    case 0:
    case 1:
      line = "graph load " + name + " " + Pick(rng, files);
      break;
    case 2:
      line = "graph use " + name;
      break;
    case 3:
      line = "graph drop " + name;
      break;
    case 4:
      line = "graph list";
      break;
    case 5:
    case 6:
    case 7:
      line = "query " + seed + PlanTokens(rng);
      break;
    case 8:
    case 9:
      line = "topk " + seed + " " +
             (rng.UniformInt(4) == 0 ? Pick(rng, {"0", "-2"})
                                     : Pick(rng, {"1", "5", "10"})) +
             PlanTokens(rng);
      break;
    case 10:
      line = rng.Bernoulli(0.5)
                 ? "params " + name + Pick(rng, {"", " clear"}) +
                       PlanTokens(rng)
                 : "backend" + Pick(rng, {"", " auto", " tea+", " push",
                                          " hk-relax", " nosuch"});
      break;
    default:
      line = Pick(rng, {"stats", "stats " + name, "stats --json",
                        "stats " + name + " --json", "invalidate"});
      break;
  }
  if (rng.UniformInt(8) != 0) return line;
  std::vector<std::string> words;
  std::istringstream in(line);
  for (std::string word; in >> word;) words.push_back(word);
  words[rng.UniformInt(words.size())] =
      Pick(rng, {"", "x", "=", "-7", "99999999999", "t=1e309", "graph"});
  std::string mutated;
  for (const std::string& word : words) mutated += word + " ";
  return mutated;
}

/// The value of `key=` in a reply (up to the next space), or "".
std::string Field(const std::string& reply, const std::string& key) {
  const size_t at = reply.find(" " + key + "=");
  if (at == std::string::npos) return "";
  const size_t begin = at + key.size() + 2;
  return reply.substr(begin, reply.find_first_of(" \n", begin) - begin);
}

TEST(CommandProcessorFuzzTest, LifecycleScriptsAnswerOneLineOnAHeldVersion) {
  const std::string path_a = ::testing::TempDir() + "/fuzz_lifecycle_a.txt";
  const std::string path_b = ::testing::TempDir() + "/fuzz_lifecycle_b.txt";
  {
    // A 30-node cycle with chords, and a 12-node graph with an isolated
    // node (11 has no edge; the file names it with a self-loop).
    std::ofstream a(path_a);
    for (int v = 0; v < 30; ++v) a << v << " " << (v + 1) % 30 << "\n";
    for (int v = 0; v < 30; v += 4) a << v << " " << (v * 7 + 3) % 30 << "\n";
    std::ofstream b(path_b);
    b << "# small\n0 1\n1 2\n2 0\n2 3\n3 4\n4 5\n5 6\n6 7\n7 8\n"
         "8 9\n9 10\n10 4\n11 11\n";
  }
  const std::vector<std::string> files = {path_a, path_b,
                                          path_a + ".missing"};

  GraphStore store;
  ApproxParams params;
  params.t = 5.0;
  params.eps_r = 0.5;
  params.delta = 1e-2;
  params.p_f = 1e-6;
  MultiGraphOptions options;
  options.worker_budget = 2;
  MultiGraphService service(store, params, 7, options);
  TenantRegistry tenants;
  CommandProcessor processor(store, service, tenants, params, "a");
  ClientSession session = processor.NewSession();

  // Every version a `graph load` reply reported, per graph name.
  std::map<std::string, std::set<uint64_t>> held;
  size_t loads = 0, ok_queries = 0, err_replies = 0;
  Rng rng(27);
  for (int i = 0; i < 1200; ++i) {
    const std::string line = RandomLine(rng, files);
    SCOPED_TRACE("line " + std::to_string(i) + ": " + line);
    const std::string reply = processor.Execute(session, line).output;
    if (line.find_first_not_of(' ') == std::string::npos) {
      ASSERT_TRUE(reply.empty()) << reply;  // a blank line gets no reply
      continue;
    }
    ASSERT_TRUE(StartsWith(reply, "ok") || StartsWith(reply, "err"))
        << reply;
    ASSERT_EQ(reply.find('\n'), reply.size() - 1) << reply;
    if (StartsWith(reply, "err")) {
      ++err_replies;
      continue;
    }
    const std::string graph = Field(reply, "graph");
    if (StartsWith(line, "graph load ")) {
      held[graph].insert(std::stoull(Field(reply, "version")));
      ++loads;
    } else if (StartsWith(line, "query ") || StartsWith(line, "topk ")) {
      const uint64_t version = std::stoull(Field(reply, "version"));
      ASSERT_TRUE(held[graph].count(version)) << reply;
      ASSERT_EQ(version, store.Get(graph).version) << reply;
      ++ok_queries;
    }
  }
  // Every kind of outcome is exercised: at seed 27, 119 loads, 165 ok
  // queries and 601 errors.
  EXPECT_GT(loads, 50u);
  EXPECT_GT(ok_queries, 100u);
  EXPECT_GT(err_replies, 200u);
}

}  // namespace
}  // namespace hkpr
