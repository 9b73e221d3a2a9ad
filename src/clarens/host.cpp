#include "clarens/host.h"

namespace gae::clarens {

using rpc::Array;
using rpc::CallContext;
using rpc::Struct;
using rpc::Value;

ClarensHost::ClarensHost(std::string name, const Clock& clock, HostOptions options)
    : name_(std::move(name)),
      clock_(clock),
      options_(options),
      metrics_(options_.metrics),
      dispatcher_(std::make_shared<rpc::Dispatcher>()),
      auth_(clock, options.auth),
      registry_(name_, &clock, options.registry) {
  dispatcher_->set_telemetry(metrics_.get(), options_.tracer, name_);
  register_system_methods();

  // Authentication + ACL interceptor: runs before every dispatched method.
  dispatcher_->add_interceptor([this](const std::string& method, const CallContext& ctx) {
    // Login, introspection and read-only discovery work without a session
    // (Clarens exposed anonymous service lookup; registration stays gated).
    if (method == "system.login" || method == "system.listMethods" ||
        method == "system.echo" || method == "system.lookup" ||
        method == "system.discover" || method == "registry.lookup" ||
        method == "registry.discover") {
      return Status::ok();
    }
    if (!options_.require_auth) return Status::ok();
    auto user = auth_.authenticate(ctx.session_token);
    if (!user.is_ok()) return user.status();
    if (!acl_.check(user.value(), method)) {
      return permission_denied_error("user " + user.value() + " may not call " + method);
    }
    return Status::ok();
  });
}

ClarensHost::~ClarensHost() { stop(); }

Result<std::string> ClarensHost::user_of(const CallContext& ctx) {
  if (!options_.require_auth && ctx.session_token.empty()) {
    return std::string("anonymous");
  }
  return auth_.authenticate(ctx.session_token);
}

Result<Value> ClarensHost::call(const std::string& method, const Array& params,
                                const std::string& session_token) {
  CallContext ctx;
  ctx.session_token = session_token;
  ctx.protocol = "local";
  return dispatcher_->dispatch(method, params, ctx);
}



Result<std::uint16_t> ClarensHost::serve(std::uint16_t port) {
  if (server_) return failed_precondition_error("host already serving");
  rpc::ServerOptions opts;
  opts.port = port;
  opts.num_workers = options_.rpc_workers;
  opts.connection.metrics = metrics_.get();
  opts.connection.admission = options_.admission;
  server_ = std::make_unique<rpc::RpcServer>(dispatcher_, opts);
  auto bound = server_->start();
  if (!bound.is_ok()) {
    server_.reset();
    return bound.status();
  }
  return bound;
}

void ClarensHost::stop() {
  if (server_) {
    server_->stop();
    server_.reset();
  }
}

void ClarensHost::register_system_methods() {
  dispatcher_->register_method(
      "system.echo", [](const Array& params, const CallContext&) -> Result<Value> {
        return params.empty() ? Value() : params.front();
      });

  dispatcher_->register_method(
      "system.listMethods", [this](const Array&, const CallContext&) -> Result<Value> {
        Array names;
        for (const auto& n : dispatcher_->method_names()) names.push_back(Value(n));
        return Value(std::move(names));
      });

  dispatcher_->register_method(
      "system.login", [this](const Array& params, const CallContext&) -> Result<Value> {
        if (params.size() != 2) {
          return invalid_argument_error("system.login(user, secret)");
        }
        auto token = auth_.login(params[0].as_string(), params[1].as_string());
        if (!token.is_ok()) return token.status();
        return Value(std::move(token).value());
      });

  dispatcher_->register_method(
      "system.logout", [this](const Array&, const CallContext& ctx) -> Result<Value> {
        const Status s = auth_.logout(ctx.session_token);
        if (!s.is_ok()) return s;
        return Value(true);
      });

  dispatcher_->register_method(
      "system.lookup", [this](const Array& params, const CallContext&) -> Result<Value> {
        if (params.size() != 1) return invalid_argument_error("system.lookup(name)");
        auto info = registry_.lookup(params[0].as_string());
        if (!info.is_ok()) return info.status();
        Struct out;
        out["name"] = Value(info.value().name);
        out["host"] = Value(info.value().host);
        out["port"] = Value(static_cast<std::int64_t>(info.value().port));
        out["protocol"] = Value(info.value().protocol);
        return Value(std::move(out));
      });

  dispatcher_->register_method(
      "system.discover", [this](const Array& params, const CallContext&) -> Result<Value> {
        const std::string prefix = params.empty() ? "" : params[0].as_string();
        Array out;
        for (const auto& info : registry_.discover(prefix)) {
          Struct s;
          s["name"] = Value(info.name);
          s["host"] = Value(info.host);
          s["port"] = Value(static_cast<std::int64_t>(info.port));
          s["protocol"] = Value(info.protocol);
          out.emplace_back(std::move(s));
        }
        return Value(std::move(out));
      });

  // The transport-level batch (RpcClient::call_many's server half): one
  // wire exchange and one admission ticket per batch. Distinct from
  // system.multicall below, which is the XML-RPC compatibility extension
  // with its own fault-struct result shape.
  dispatcher_->enable_batch();

  // system.multicall([{methodName, params}, ...]) -> [[result] | fault-struct]
  // (the standard XML-RPC batching extension; sub-calls run under the
  // caller's session and each failure is isolated into a fault struct).
  dispatcher_->register_method(
      "system.multicall",
      [this](const Array& params, const CallContext& ctx) -> Result<Value> {
        if (params.size() != 1 || !params[0].is_array()) {
          return invalid_argument_error("system.multicall([calls])");
        }
        Array results;
        for (const auto& call : params[0].as_array()) {
          if (!call.is_struct() || !call.has("methodName")) {
            return invalid_argument_error(
                "multicall entries need {methodName, params}");
          }
          const std::string method = call.at("methodName").as_string();
          if (method == "system.multicall") {
            return invalid_argument_error("recursive multicall is not allowed");
          }
          Array sub_params;
          if (call.has("params")) sub_params = call.at("params").as_array();
          auto result = dispatcher_->dispatch(method, sub_params, ctx);
          if (result.is_ok()) {
            // Convention: a successful result is wrapped in a 1-element array.
            results.emplace_back(Array{std::move(result).value()});
          } else {
            Struct fault;
            fault["faultCode"] = Value(static_cast<std::int64_t>(
                rpc::status_to_fault_code(result.status().code())));
            fault["faultString"] = Value(result.status().message());
            results.emplace_back(std::move(fault));
          }
        }
        return Value(std::move(results));
      });

  dispatcher_->register_method(
      "system.stats", [this](const Array&, const CallContext&) -> Result<Value> {
        // Per-method dispatches that reached the interceptors (auth and ACL
        // rejections included; deadline-expired work was refused before
        // them), for methods called at least once.
        Struct out;
        for (const std::string& method : dispatcher_->method_names()) {
          const std::string prefix = "rpc.server." + method;
          const std::uint64_t calls = metrics_->counter(prefix + ".calls").value() -
                                      metrics_->counter(prefix + ".deadline_expired").value();
          if (calls > 0) out[method] = Value(static_cast<std::int64_t>(calls));
        }
        return Value(std::move(out));
      });

  dispatcher_->register_method(
      "system.register", [this](const Array& params, const CallContext&) -> Result<Value> {
        if (params.size() < 3) {
          return invalid_argument_error("system.register(name, host, port[, protocol])");
        }
        ServiceInfo info;
        info.name = params[0].as_string();
        info.host = params[1].as_string();
        info.port = static_cast<std::uint16_t>(params[2].as_int());
        info.protocol = params.size() > 3 ? params[3].as_string() : "xmlrpc";
        info.registered_at = clock_.now();
        registry_.register_service(std::move(info));
        return Value(true);
      });
}

}  // namespace gae::clarens
