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
#include <sstream>
#include <string>

#include "common/parse.h"
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

}  // namespace
}  // namespace hkpr
