// A Clarens web-service host: the container the GAE services are deployed
// into. Bundles a method dispatcher with authentication, access control and
// the lookup/discovery registry, exposes the standard system.* methods, and
// can serve over real TCP (RpcServer) or be called in-process (simulation
// runs and unit tests use the in-process path; the fig-6 benchmark uses TCP).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "clarens/access_control.h"
#include "clarens/auth.h"
#include "clarens/registry.h"
#include "common/clock.h"
#include "common/status.h"
#include "rpc/server.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"

namespace gae::clarens {

struct HostOptions {
  /// When true, non-system methods require a valid session token and an ACL
  /// allow for the calling user.
  bool require_auth = true;
  AuthOptions auth;
  /// Lease policy for this host's lookup/discovery registry.
  RegistryOptions registry;
  std::size_t rpc_workers = 8;
  /// Telemetry sinks for every dispatch through this host (TCP and
  /// in-process alike): per-method metrics and one "server" span per call,
  /// stamped with the host name as the span's service. Either may be null;
  /// both must outlive the host.
  telemetry::MetricsRegistry* metrics = nullptr;
  telemetry::Tracer* tracer = nullptr;
  /// Adaptive admission control for the TCP transport (see
  /// rpc::ConnectionOptions::admission); service bindings may also consult it
  /// for brownout (degraded-mode) decisions. Null = static cap only. Must
  /// outlive the host.
  AdmissionController* admission = nullptr;
};

class ClarensHost {
 public:
  ClarensHost(std::string name, const Clock& clock, HostOptions options = {});
  ~ClarensHost();

  ClarensHost(const ClarensHost&) = delete;
  ClarensHost& operator=(const ClarensHost&) = delete;

  const std::string& name() const { return name_; }

  rpc::Dispatcher& dispatcher() { return *dispatcher_; }
  std::shared_ptr<rpc::Dispatcher> dispatcher_ptr() { return dispatcher_; }
  AuthService& auth() { return auth_; }
  AccessControl& acl() { return acl_; }
  ServiceRegistry& registry() { return registry_; }

  /// Resolves the caller of a request; UNAUTHENTICATED on bad tokens. When
  /// require_auth is off, anonymous callers resolve to "anonymous".
  Result<std::string> user_of(const rpc::CallContext& ctx);

  /// In-process call path (no sockets): what co-located services use.
  Result<rpc::Value> call(const std::string& method, const rpc::Array& params,
                          const std::string& session_token = "");

  /// Per-method call counts across both transports (system.stats exposes
  /// this; counted before authentication, so rejected calls count too).
  std::map<std::string, std::uint64_t> method_stats() const;

  /// Starts serving over TCP; returns the bound port.
  Result<std::uint16_t> serve(std::uint16_t port = 0);
  void stop();
  std::uint16_t port() const { return server_ ? server_->port() : 0; }

 private:
  void register_system_methods();

  std::string name_;
  const Clock& clock_;
  HostOptions options_;
  std::shared_ptr<rpc::Dispatcher> dispatcher_;
  mutable std::mutex stats_mutex_;  // server workers count concurrently
  std::map<std::string, std::uint64_t> stats_;
  AuthService auth_;
  AccessControl acl_;
  ServiceRegistry registry_;
  std::unique_ptr<rpc::RpcServer> server_;
};

}  // namespace gae::clarens
