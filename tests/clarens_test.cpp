#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "clarens/host.h"
#include "common/clock.h"
#include "rpc/client.h"

namespace gae::clarens {
namespace {

using rpc::Array;
using rpc::Value;

TEST(AuthService, RegisterLoginAuthenticate) {
  ManualClock clock;
  AuthService auth(clock);
  ASSERT_TRUE(auth.register_user("alice", "s3cret").is_ok());
  EXPECT_EQ(auth.register_user("alice", "x").code(), StatusCode::kAlreadyExists);

  auto token = auth.login("alice", "s3cret");
  ASSERT_TRUE(token.is_ok());
  auto user = auth.authenticate(token.value());
  ASSERT_TRUE(user.is_ok());
  EXPECT_EQ(user.value(), "alice");
}

TEST(AuthService, BadCredentialsRejected) {
  ManualClock clock;
  AuthService auth(clock);
  auth.register_user("alice", "pw");
  EXPECT_EQ(auth.login("alice", "wrong").status().code(), StatusCode::kUnauthenticated);
  EXPECT_EQ(auth.login("bob", "pw").status().code(), StatusCode::kUnauthenticated);
  EXPECT_EQ(auth.authenticate("bogus-token").status().code(),
            StatusCode::kUnauthenticated);
}

TEST(AuthService, SessionExpiry) {
  ManualClock clock;
  AuthOptions opts;
  opts.session_ttl_seconds = 100;
  AuthService auth(clock, opts);
  auth.register_user("alice", "pw");
  const std::string token = auth.login("alice", "pw").value();

  clock.advance_by(from_seconds(99));
  EXPECT_TRUE(auth.authenticate(token).is_ok());  // also slides expiry
  clock.advance_by(from_seconds(99));
  EXPECT_TRUE(auth.authenticate(token).is_ok());
  clock.advance_by(from_seconds(101));
  EXPECT_EQ(auth.authenticate(token).status().code(), StatusCode::kUnauthenticated);
}

TEST(AuthService, LogoutInvalidates) {
  ManualClock clock;
  AuthService auth(clock);
  auth.register_user("alice", "pw");
  const std::string token = auth.login("alice", "pw").value();
  EXPECT_EQ(auth.active_sessions(), 1u);
  ASSERT_TRUE(auth.logout(token).is_ok());
  EXPECT_FALSE(auth.authenticate(token).is_ok());
  EXPECT_EQ(auth.logout(token).code(), StatusCode::kNotFound);
  EXPECT_EQ(auth.active_sessions(), 0u);
}

// A host's RPC workers reach one AuthService from many threads at once
// (login, the auth interceptor's authenticate, logout, session counts).
TEST(AuthService, ConcurrentLoginAuthenticateLogout) {
  ManualClock clock;
  AuthOptions opts;
  opts.session_ttl_seconds = 100;
  AuthService auth(clock, opts);
  constexpr int kThreads = 4;
  constexpr int kRounds = 500;
  // Sessions that lapse before the workers start, so authenticate() and
  // active_sessions() erase expired entries while logins insert.
  std::vector<std::string> lapsed;
  for (int t = 0; t < kThreads; ++t) {
    const std::string user = "user" + std::to_string(t);
    ASSERT_TRUE(auth.register_user(user, "pw").is_ok());
    lapsed.push_back(auth.login(user, "pw").value());
  }
  clock.advance_by(from_seconds(200));

  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const std::string user = "user" + std::to_string(t);
      if (auth.authenticate(lapsed[t]).status().code() != StatusCode::kUnauthenticated) {
        ++failures;
      }
      for (int i = 0; i < kRounds; ++i) {
        auto token = auth.login(user, "pw");
        if (!token.is_ok()) {
          ++failures;
          continue;
        }
        auto who = auth.authenticate(token.value());
        if (!who.is_ok() || who.value() != user) ++failures;
        (void)auth.active_sessions();
        if (!auth.logout(token.value()).is_ok()) ++failures;
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(auth.active_sessions(), 0u);
}

TEST(AccessControl, DefaultDenyExceptSystem) {
  AccessControl acl;
  EXPECT_FALSE(acl.check("alice", "jobmon.info"));
  EXPECT_TRUE(acl.check("alice", "system.listMethods"));
}

TEST(AccessControl, WildcardAndSpecificRules) {
  AccessControl acl;
  acl.allow("*", "jobmon.");
  acl.allow("alice", "steering.");
  EXPECT_TRUE(acl.check("bob", "jobmon.info"));
  EXPECT_FALSE(acl.check("bob", "steering.kill"));
  EXPECT_TRUE(acl.check("alice", "steering.kill"));
}

TEST(AccessControl, LongestPrefixWins) {
  AccessControl acl;
  acl.allow("*", "steering.");
  acl.deny("*", "steering.kill");
  EXPECT_TRUE(acl.check("bob", "steering.info"));
  EXPECT_FALSE(acl.check("bob", "steering.kill"));
}

TEST(AccessControl, UserSpecificBeatsWildcardAtSameLength) {
  AccessControl acl;
  acl.deny("*", "steering.");
  acl.allow("admin", "steering.");
  EXPECT_FALSE(acl.check("bob", "steering.kill"));
  EXPECT_TRUE(acl.check("admin", "steering.kill"));
}

TEST(AccessControl, DenyBeatsAllowOnFullTie) {
  AccessControl acl;
  acl.allow("*", "x.");
  acl.deny("*", "x.");
  EXPECT_FALSE(acl.check("anyone", "x.y"));
}

TEST(ServiceRegistry, LocalRegisterLookup) {
  ServiceRegistry reg("host-a");
  reg.register_service({"jobmon@a", "host-a", 8080, "xmlrpc", {}, 0});
  auto info = reg.lookup("jobmon@a");
  ASSERT_TRUE(info.is_ok());
  EXPECT_EQ(info.value().port, 8080);
  EXPECT_FALSE(reg.lookup("missing").is_ok());
  ASSERT_TRUE(reg.deregister_service("jobmon@a").is_ok());
  EXPECT_FALSE(reg.lookup("jobmon@a").is_ok());
}

TEST(ServiceRegistry, PeerToPeerLookup) {
  ServiceRegistry a("a"), b("b"), c("c");
  a.add_peer(&b);
  b.add_peer(&c);
  c.register_service({"steering@c", "c", 9000, "xmlrpc", {}, 0});
  // Two-hop lookup through the peer chain.
  auto info = a.lookup("steering@c");
  ASSERT_TRUE(info.is_ok());
  EXPECT_EQ(info.value().host, "c");
}

TEST(ServiceRegistry, PeerCycleTerminates) {
  ServiceRegistry a("a"), b("b");
  a.add_peer(&b);
  b.add_peer(&a);
  EXPECT_FALSE(a.lookup("nowhere").is_ok());  // must not loop forever
  b.register_service({"svc", "b", 1, "xmlrpc", {}, 0});
  EXPECT_TRUE(a.lookup("svc").is_ok());
}

TEST(ServiceRegistry, DiscoverAcrossPeers) {
  ServiceRegistry a("a"), b("b");
  a.add_peer(&b);
  a.register_service({"jobmon@a", "a", 1, "xmlrpc", {}, 0});
  b.register_service({"jobmon@b", "b", 2, "xmlrpc", {}, 0});
  b.register_service({"steering@b", "b", 3, "xmlrpc", {}, 0});
  const auto found = a.discover("jobmon");
  EXPECT_EQ(found.size(), 2u);
  EXPECT_EQ(a.discover("").size(), 3u);
}

class ClarensHostTest : public ::testing::Test {
 protected:
  ClarensHostTest() : host_("test-host", clock_) {
    host_.auth().register_user("alice", "pw");
    host_.acl().allow("alice", "app.");
    host_.dispatcher().register_method(
        "app.whoami",
        [this](const rpc::Array&, const rpc::CallContext& ctx) -> Result<Value> {
          auto user = host_.user_of(ctx);
          if (!user.is_ok()) return user.status();
          return Value(user.value());
        });
  }

  ManualClock clock_;
  ClarensHost host_;
};

TEST_F(ClarensHostTest, LoginThenCallProtectedMethod) {
  auto token = host_.call("system.login", {Value("alice"), Value("pw")});
  ASSERT_TRUE(token.is_ok()) << token.status();
  auto who = host_.call("app.whoami", {}, token.value().as_string());
  ASSERT_TRUE(who.is_ok()) << who.status();
  EXPECT_EQ(who.value().as_string(), "alice");
}

TEST_F(ClarensHostTest, UnauthenticatedCallRejected) {
  auto r = host_.call("app.whoami", {});
  ASSERT_FALSE(r.is_ok());
  EXPECT_EQ(r.status().code(), StatusCode::kUnauthenticated);
}

TEST_F(ClarensHostTest, AclDeniesOtherUsers) {
  host_.auth().register_user("bob", "pw");
  const std::string token =
      host_.call("system.login", {Value("bob"), Value("pw")}).value().as_string();
  auto r = host_.call("app.whoami", {}, token);
  ASSERT_FALSE(r.is_ok());
  EXPECT_EQ(r.status().code(), StatusCode::kPermissionDenied);
}

TEST_F(ClarensHostTest, SystemMethodsOpenWithoutSession) {
  EXPECT_TRUE(host_.call("system.echo", {Value(5)}).is_ok());
  EXPECT_TRUE(host_.call("system.listMethods", {}).is_ok());
}

TEST_F(ClarensHostTest, ListMethodsIncludesRegistered) {
  auto r = host_.call("system.listMethods", {});
  ASSERT_TRUE(r.is_ok());
  bool found = false;
  for (const auto& name : r.value().as_array()) {
    if (name.as_string() == "app.whoami") found = true;
  }
  EXPECT_TRUE(found);
}

TEST_F(ClarensHostTest, RegisterAndLookupViaRpc) {
  const std::string token =
      host_.call("system.login", {Value("alice"), Value("pw")}).value().as_string();
  ASSERT_TRUE(host_.call("system.register",
                         {Value("est@here"), Value("127.0.0.1"), Value(4242)}, token)
                  .is_ok());
  auto info = host_.call("system.lookup", {Value("est@here")}, token);
  ASSERT_TRUE(info.is_ok()) << info.status();
  EXPECT_EQ(info.value().get_int("port", 0), 4242);
  auto missing = host_.call("system.lookup", {Value("nope")}, token);
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
}

TEST_F(ClarensHostTest, LogoutEndsSession) {
  const std::string token =
      host_.call("system.login", {Value("alice"), Value("pw")}).value().as_string();
  ASSERT_TRUE(host_.call("system.logout", {}, token).is_ok());
  EXPECT_EQ(host_.call("app.whoami", {}, token).status().code(),
            StatusCode::kUnauthenticated);
}

TEST_F(ClarensHostTest, MulticallBatchesAndIsolatesFaults) {
  const std::string token =
      host_.call("system.login", {Value("alice"), Value("pw")}).value().as_string();
  rpc::Struct ok_call;
  ok_call["methodName"] = Value("system.echo");
  ok_call["params"] = Value(rpc::Array{Value(41)});
  rpc::Struct bad_call;
  bad_call["methodName"] = Value("no.such.method");
  rpc::Struct authed_call;
  authed_call["methodName"] = Value("app.whoami");

  auto r = host_.call("system.multicall",
                      {Value(rpc::Array{Value(ok_call), Value(bad_call),
                                        Value(authed_call)})},
                      token);
  ASSERT_TRUE(r.is_ok()) << r.status();
  const auto& results = r.value().as_array();
  ASSERT_EQ(results.size(), 3u);
  // Success: 1-element array wrapping the value.
  ASSERT_TRUE(results[0].is_array());
  EXPECT_EQ(results[0].as_array()[0].as_int(), 41);
  // Failure: a fault struct, without killing the batch.
  ASSERT_TRUE(results[1].is_struct());
  EXPECT_GT(results[1].get_int("faultCode", 0), 0);
  // Sub-calls run under the caller's session.
  ASSERT_TRUE(results[2].is_array());
  EXPECT_EQ(results[2].as_array()[0].as_string(), "alice");
}

TEST_F(ClarensHostTest, MulticallValidation) {
  const std::string token =
      host_.call("system.login", {Value("alice"), Value("pw")}).value().as_string();
  EXPECT_EQ(host_.call("system.multicall", {Value(1)}, token).status().code(),
            StatusCode::kInvalidArgument);
  rpc::Struct recursive;
  recursive["methodName"] = Value("system.multicall");
  EXPECT_EQ(host_.call("system.multicall", {Value(rpc::Array{Value(recursive)})}, token)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

TEST_F(ClarensHostTest, MethodStatsCountCalls) {
  host_.call("system.echo", {Value(1)});
  host_.call("system.echo", {Value(2)});
  host_.call("app.whoami", {});  // rejected (unauthenticated) but still counted
  const auto stats = host_.method_stats();
  EXPECT_EQ(stats.at("system.echo"), 2u);
  EXPECT_EQ(stats.at("app.whoami"), 1u);

  const std::string token =
      host_.call("system.login", {Value("alice"), Value("pw")}).value().as_string();
  auto over_rpc = host_.call("system.stats", {}, token);
  ASSERT_TRUE(over_rpc.is_ok()) << over_rpc.status();
  EXPECT_EQ(over_rpc.value().get_int("system.echo", 0), 2);
}

TEST_F(ClarensHostTest, ServeOverTcp) {
  auto port = host_.serve(0);
  ASSERT_TRUE(port.is_ok()) << port.status();
  rpc::RpcClient client("127.0.0.1", port.value());
  auto token = client.call("system.login", {Value("alice"), Value("pw")});
  ASSERT_TRUE(token.is_ok()) << token.status();
  client.set_session_token(token.value().as_string());
  auto who = client.call("app.whoami");
  ASSERT_TRUE(who.is_ok()) << who.status();
  EXPECT_EQ(who.value().as_string(), "alice");
  host_.stop();
}

TEST(ClarensHostNoAuth, AnonymousAllowed) {
  ManualClock clock;
  HostOptions opts;
  opts.require_auth = false;
  ClarensHost host("open-host", clock, opts);
  host.dispatcher().register_method(
      "free.ping", [](const rpc::Array&, const rpc::CallContext&) -> Result<Value> {
        return Value("pong");
      });
  auto r = host.call("free.ping", {});
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(r.value().as_string(), "pong");
}

}  // namespace
}  // namespace gae::clarens
