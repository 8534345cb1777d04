// The hkpr line-protocol command dispatcher, shared by every frontend.
//
// Historically the protocol loop lived inside examples/hkpr_server.cpp
// and wrote straight to stdout, which made it unusable from a socket
// server. CommandProcessor factors that dispatch into a library class:
// Execute() takes one protocol line plus the issuing session's state and
// returns the complete response text. The stdin loop and the socket
// connections (net/socket_server.h) call the *same* Execute(), so the two
// transports produce byte-identical responses for the same command
// stream — the parity the protocol tests assert.
//
// Session state (the `current` graph and the tenant id) is per caller: a
// ClientSession per socket connection, one for the stdin loop. Everything
// else (the GraphStore, MultiGraphService, TenantRegistry) is shared and
// thread-safe, so Execute() may be called concurrently from many
// sessions.
//
// Multi-tenant QoS: query/topk lines pass the TenantRegistry's admission
// gate (token-bucket rate limit, in-flight quota, priority shed — see
// net/tenant.h) *before* reaching the query service, and rejections
// surface as distinct protocol errors ("err tenant-throttled ...",
// "err tenant-quota ...", "err tenant-shed ...") so a throttled tenant
// can tell its own limit from global overload. Sessions bind to a tenant
// with the `tenant <id>` handshake or per line with a `tenant=` token;
// `tenant set` configures limits and `tenant list` exposes the
// per-tenant stats rows, which `metrics` also exports as
// hkpr_tenant_*{tenant="..."} samples.
//
// Protocol commands: query, topk, graph load/use/drop/list, backend,
// params, tenant, stats, metrics, invalidate, quit/exit — see
// examples/hkpr_server.cpp's usage comment for the full grammar.

#ifndef HKPR_NET_COMMAND_PROCESSOR_H_
#define HKPR_NET_COMMAND_PROCESSOR_H_

#include <sstream>
#include <string>
#include <string_view>

#include "hkpr/params.h"
#include "hkpr/router.h"
#include "net/tenant.h"
#include "service/graph_store.h"
#include "service/multi_graph_service.h"

namespace hkpr {

/// Per-connection protocol state. Each transport session owns one; the
/// processor never shares it across sessions.
struct ClientSession {
  /// The graph query/topk lines run against (graph use / graph load).
  std::string current_graph;
  /// The tenant the session's queries are accounted to (tenant <id>).
  std::string tenant = std::string(kDefaultTenant);
};

/// One executed command's outcome.
struct CommandResult {
  /// Complete response text; one or more '\n'-terminated lines (multi-
  /// line for the metrics and tenant list blocks). Empty for blank input
  /// lines.
  std::string output;
  /// True when the line was `quit`/`exit`: the transport should end the
  /// session (close the connection; the stdin loop returns).
  bool quit = false;
};

/// Parses the trailing key=value plan tokens of a query/params line
/// (backend=NAME|auto, t=V, eps=V, delta=V, and — when `tenant` is
/// non-null — tenant=ID) into `plan`. Returns false — and fills `error` —
/// on an unknown key, a token without '=', an empty value ("t="), a
/// duplicated key ("t=1 t=2"), a malformed number, or an unregistered
/// backend name. Exposed for the regression tests of exactly those edge
/// cases.
bool ParsePlanTokens(std::istringstream& in, PlanOverrides* plan,
                     std::string* tenant, std::string* error);

/// The shared dispatcher. Thread-safe: Execute() may run concurrently
/// for distinct sessions (a single session must be driven by one thread
/// at a time — transports serialize per connection).
class CommandProcessor {
 public:
  /// `store` and `service` (and `tenants`) must outlive the processor.
  /// `initial_graph` seeds NewSession()'s current graph; `params` is the
  /// service-wide parameter template (params validation).
  CommandProcessor(GraphStore& store, MultiGraphService& service,
                   TenantRegistry& tenants, const ApproxParams& params,
                   std::string initial_graph);

  CommandProcessor(const CommandProcessor&) = delete;
  CommandProcessor& operator=(const CommandProcessor&) = delete;

  /// A fresh session bound to the initial graph and the default tenant.
  ClientSession NewSession() const;

  /// Executes one protocol line and returns its response. Never throws;
  /// malformed input yields an "err ..." line.
  CommandResult Execute(ClientSession& session, const std::string& line);

  TenantRegistry& tenants() { return tenants_; }

 private:
  // One handler per command; each appends its '\n'-terminated response
  // lines to `out`.
  void ExecuteQuery(ClientSession& session, const std::string& command,
                    std::istringstream& in, std::string& out);
  void ExecuteGraph(ClientSession& session, std::istringstream& in,
                    std::string& out);
  void ExecuteBackend(std::istringstream& in, std::string& out);
  void ExecuteParams(std::istringstream& in, std::string& out);
  void ExecuteTenant(ClientSession& session, std::istringstream& in,
                     std::string& out);
  void ExecuteStats(std::istringstream& in, std::string& out);
  void ExecuteMetrics(std::string& out);

  /// The metrics block for one graph scope; returns the sample-line count.
  size_t AppendMetricsForScope(const std::string& scope, std::string& out);
  /// The per-tenant metrics rows; returns the sample-line count.
  size_t AppendTenantMetrics(std::string& out);

  GraphStore& store_;
  MultiGraphService& service_;
  TenantRegistry& tenants_;
  ApproxParams params_;
  std::string initial_graph_;
};

}  // namespace hkpr

#endif  // HKPR_NET_COMMAND_PROCESSOR_H_
