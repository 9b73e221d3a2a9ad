// Connection-pool, multi-call batch, and read-cache coverage: the pool's
// checkout/checkin lifecycle (reuse, health eviction, overflow, reaping,
// concurrent callers against a dying peer), rpc.batch round trips on both
// the dispatcher and the wire, the sticky failover walk, the jobmon
// ReadCache TTL/invalidation contract, and cache drop on promotion.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <thread>
#include <vector>

#include "clarens/registry.h"
#include "common/clock.h"
#include "ha/failover.h"
#include "jobmon/read_cache.h"
#include "net/socket.h"
#include "rpc/client.h"
#include "rpc/pool.h"
#include "rpc/server.h"
#include "telemetry/metrics.h"

namespace gae::rpc {
namespace {

std::shared_ptr<Dispatcher> echo_dispatcher() {
  auto d = std::make_shared<Dispatcher>();
  d->register_method("echo", [](const Array& params, const CallContext&) -> Result<Value> {
    return params.empty() ? Value() : params.front();
  });
  return d;
}

/// A bare TCP peer that accepts connections and parks them (the sockets stay
/// open until the test drops them), so pool checkouts have a live endpoint.
class ParkingPeer {
 public:
  ParkingPeer() {
    auto l = net::TcpListener::bind(0);
    EXPECT_TRUE(l.is_ok());
    listener_ = std::move(l).value();
    port_ = listener_.port();
    accept_thread_ = std::thread([this] {
      for (;;) {
        auto s = listener_.accept();
        if (!s.is_ok()) return;
        {
          std::lock_guard<std::mutex> lock(mutex_);
          accepted_.push_back(std::move(s).value());
        }
        cv_.notify_all();
      }
    });
  }
  ~ParkingPeer() {
    listener_.close();
    if (accept_thread_.joinable()) accept_thread_.join();
  }

  std::uint16_t port() const { return port_; }

  std::size_t accepted_count() {
    std::lock_guard<std::mutex> lock(mutex_);
    return accepted_.size();
  }

  /// Blocks until the accept thread has registered `n` connections (a dial
  /// returning does not mean the acceptor has run yet).
  void wait_for_accepts(std::size_t n) {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait_for(lock, std::chrono::seconds(30), [&] { return accepted_.size() >= n; });
  }

  /// Closes every accepted socket (the peer "dies" from the pool's view).
  void close_all() {
    std::lock_guard<std::mutex> lock(mutex_);
    accepted_.clear();
  }

  /// Writes one byte on every accepted socket (desyncs parked connections).
  void spray_bytes() {
    std::lock_guard<std::mutex> lock(mutex_);
    for (auto& s : accepted_) (void)s.write_all("x");
  }

 private:
  net::TcpListener listener_;
  std::uint16_t port_ = 0;
  std::thread accept_thread_;
  std::mutex mutex_;
  std::condition_variable cv_;
  std::vector<net::TcpStream> accepted_;
};

/// Checks the parked connection out and back in until the pool's health
/// probe notices the damage `mutate` inflicted (a FIN or stray bytes reach
/// our side of a loopback socket asynchronously). Checkin parks without
/// probing, so the round trip is lossless until the eviction fires.
void probe_until_evicted(ConnectionPool& pool, std::uint16_t port) {
  const auto give_up = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (pool.metrics().counter("rpc.pool.health_evictions").value() == 0 &&
         std::chrono::steady_clock::now() < give_up) {
    auto probe = pool.checkout("127.0.0.1", port);
    ASSERT_TRUE(probe.is_ok());
    pool.checkin(std::move(probe).value());
    std::this_thread::yield();
  }
}

TEST(ConnectionPool, CheckinParksAndCheckoutReuses) {
  ParkingPeer peer;
  ConnectionPool pool;

  auto first = pool.checkout("127.0.0.1", peer.port());
  ASSERT_TRUE(first.is_ok()) << first.status();
  EXPECT_FALSE(first.value().reused);
  pool.checkin(std::move(first).value());
  EXPECT_EQ(pool.idle_count("127.0.0.1", peer.port()), 1u);

  auto second = pool.checkout("127.0.0.1", peer.port());
  ASSERT_TRUE(second.is_ok());
  EXPECT_TRUE(second.value().reused);
  EXPECT_EQ(pool.metrics().counter("rpc.pool.dials").value(), 1u);
  EXPECT_EQ(pool.metrics().counter("rpc.pool.reuses").value(), 1u);
  pool.discard(std::move(second).value());
  EXPECT_EQ(pool.metrics().counter("rpc.pool.discards").value(), 1u);
  EXPECT_EQ(pool.live_count("127.0.0.1", peer.port()), 0u);
}

TEST(ConnectionPool, EvictsPeerClosedConnectionAtCheckout) {
  ParkingPeer peer;
  ConnectionPool pool;

  auto conn = pool.checkout("127.0.0.1", peer.port());
  ASSERT_TRUE(conn.is_ok());
  pool.checkin(std::move(conn).value());

  // Peer dies while the connection is parked; probe until the FIN lands.
  peer.wait_for_accepts(1);
  peer.close_all();
  probe_until_evicted(pool, peer.port());

  EXPECT_EQ(pool.metrics().counter("rpc.pool.health_evictions").value(), 1u);  // dead socket never reused
  EXPECT_EQ(pool.metrics().counter("rpc.pool.dials").value(), 2u);
}

TEST(ConnectionPool, EvictsDesyncedConnectionAtCheckout) {
  ParkingPeer peer;
  ConnectionPool pool;

  auto conn = pool.checkout("127.0.0.1", peer.port());
  ASSERT_TRUE(conn.is_ok());
  pool.checkin(std::move(conn).value());

  // Unread bytes appear while parked (a desynced exchange): the connection
  // must not be handed to the next caller, who would read a stale response.
  peer.wait_for_accepts(1);
  peer.spray_bytes();
  probe_until_evicted(pool, peer.port());

  EXPECT_EQ(pool.metrics().counter("rpc.pool.health_evictions").value(), 1u);
}

TEST(ConnectionPool, OverflowDialsBeyondMaxSizeAndNeverParks) {
  ParkingPeer peer;
  PoolOptions options;
  options.max_size = 1;
  options.max_idle = 4;
  ConnectionPool pool(options);

  auto first = pool.checkout("127.0.0.1", peer.port());
  ASSERT_TRUE(first.is_ok());
  auto second = pool.checkout("127.0.0.1", peer.port());  // beyond max_size
  ASSERT_TRUE(second.is_ok());
  EXPECT_EQ(pool.metrics().counter("rpc.pool.overflow").value(), 1u);

  pool.checkin(std::move(second).value());  // overflow conn: closed, not parked
  pool.checkin(std::move(first).value());
  EXPECT_EQ(pool.idle_count("127.0.0.1", peer.port()), 1u);
}

TEST(ConnectionPool, ReapsIdleConnectionsPastTimeout) {
  ParkingPeer peer;
  ManualClock clock;
  PoolOptions options;
  options.idle_timeout_ms = 1000;
  options.clock = &clock;
  ConnectionPool pool(options);

  auto conn = pool.checkout("127.0.0.1", peer.port());
  ASSERT_TRUE(conn.is_ok());
  pool.checkin(std::move(conn).value());
  EXPECT_EQ(pool.idle_count("127.0.0.1", peer.port()), 1u);

  clock.advance_by(from_millis(2000));
  pool.reap_idle();
  EXPECT_EQ(pool.idle_count("127.0.0.1", peer.port()), 0u);
  EXPECT_EQ(pool.metrics().counter("rpc.pool.idle_reaped").value(), 1u);
}

TEST(ConnectionPool, ConcurrentCheckoutCheckinWithDyingPeer) {
  ParkingPeer peer;
  PoolOptions options;
  options.health_check = true;
  ConnectionPool pool(options);
  constexpr int kThreads = 8;
  constexpr int kIters = 40;

  std::atomic<int> dial_failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kIters; ++i) {
        auto conn = pool.checkout("127.0.0.1", peer.port());
        if (!conn.is_ok()) {
          dial_failures.fetch_add(1);
          continue;
        }
        // Alternate clean checkin and discard, as real callers would.
        if ((t + i) % 3 == 0) {
          pool.discard(std::move(conn).value());
        } else {
          pool.checkin(std::move(conn).value());
        }
      }
    });
  }
  // The peer keeps killing parked connections under the callers' feet for
  // the whole run — paced by the scheduler, not a fixed burst timetable.
  std::atomic<bool> workers_done{false};
  std::thread killer([&] {
    while (!workers_done.load()) {
      peer.close_all();
      std::this_thread::yield();
    }
  });
  for (auto& t : threads) t.join();
  workers_done.store(true);
  killer.join();

  // Accounting stayed consistent: nothing is still marked checked out.
  EXPECT_EQ(pool.live_count("127.0.0.1", peer.port()),
            pool.idle_count("127.0.0.1", peer.port()));
  telemetry::MetricsRegistry& metrics = pool.metrics();
  EXPECT_EQ(metrics.counter("rpc.pool.dials").value() + metrics.counter("rpc.pool.reuses").value(),
            static_cast<std::uint64_t>(kThreads * kIters - dial_failures.load()));
}

TEST(ConnectionPool, PoolsSharingOneRegistryAddUp) {
  ParkingPeer peer;
  telemetry::MetricsRegistry metrics;
  PoolOptions options;
  options.metrics = &metrics;
  ConnectionPool first(options);
  ConnectionPool second(options);
  for (ConnectionPool* pool : {&first, &second}) {
    auto conn = pool->checkout("127.0.0.1", peer.port());
    ASSERT_TRUE(conn.is_ok());
    pool->checkin(std::move(conn).value());
  }
  EXPECT_EQ(&first.metrics(), &metrics);
  EXPECT_EQ(metrics.counter("rpc.pool.dials").value(), 2u);
  EXPECT_EQ(metrics.gauge("rpc.pool.idle").value(), 2);
}

// ---------------------------------------------------------------------------
// Thread-safe client: pooled concurrent calls, sticky failover
// ---------------------------------------------------------------------------

TEST(RpcClientPooled, ConcurrentCallsShareTheClientSafely) {
  auto dispatcher = echo_dispatcher();
  RpcServer server(dispatcher, ServerOptions{0, 8});
  auto port = server.start();
  ASSERT_TRUE(port.is_ok());

  ClientOptions options;
  options.default_call.retry.max_attempts = 3;
  RpcClient client({{"127.0.0.1", port.value()}}, Protocol::kJsonRpc, options);

  constexpr int kThreads = 8;
  constexpr int kIters = 25;
  std::atomic<int> ok{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kIters; ++i) {
        auto r = client.call("echo", {Value(t * 1000 + i)});
        if (r.is_ok() && r.value().as_int() == t * 1000 + i) ok.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(ok.load(), kThreads * kIters);
  // Keep-alive reuse did the heavy lifting: far fewer dials than calls.
  EXPECT_GT(client.pool().metrics().counter("rpc.pool.reuses").value(), 0u);
  EXPECT_LT(client.pool().metrics().counter("rpc.pool.dials").value(),
            static_cast<std::uint64_t>(kThreads * kIters));
  server.stop();
}

TEST(RpcClientCounters, OwnedRegistryCountsWhenNoneIsGiven) {
  RpcServer server(echo_dispatcher(), ServerOptions{0, 2});
  auto port = server.start();
  ASSERT_TRUE(port.is_ok());
  RpcClient client({{"127.0.0.1", port.value()}}, Protocol::kJsonRpc, {});
  ASSERT_TRUE(client.call("echo", {Value(1)}).is_ok());
  ASSERT_TRUE(client.call("echo", {Value(2)}).is_ok());

  telemetry::MetricsRegistry& metrics = client.metrics();
  const std::string endpoint = "rpc.client.127.0.0.1:" + std::to_string(port.value());
  EXPECT_EQ(metrics.counter("rpc.client.calls").value(), 2u);
  EXPECT_EQ(metrics.counter("rpc.client.attempts").value(), 2u);
  EXPECT_EQ(metrics.counter(endpoint + ".attempts").value(), 2u);
  EXPECT_EQ(metrics.counter("rpc.client.failed_calls").value(), 0u);
  // The private pool counts into the client's registry.
  EXPECT_EQ(&client.pool().metrics(), &metrics);
  EXPECT_EQ(metrics.counter("rpc.pool.dials").value() +
                metrics.counter("rpc.pool.reuses").value(),
            2u);
  server.stop();
}

TEST(RpcClientCounters, ClientsSharingOneRegistryAddUp) {
  RpcServer server(echo_dispatcher(), ServerOptions{0, 2});
  auto port = server.start();
  ASSERT_TRUE(port.is_ok());
  telemetry::MetricsRegistry metrics;
  ClientOptions options;
  options.metrics = &metrics;
  RpcClient first({{"127.0.0.1", port.value()}}, Protocol::kJsonRpc, options);
  RpcClient second({{"127.0.0.1", port.value()}}, Protocol::kJsonRpc, options);
  ASSERT_TRUE(first.call("echo", {Value(1)}).is_ok());
  ASSERT_TRUE(second.call("echo", {Value(2)}).is_ok());
  ASSERT_TRUE(second.call("echo", {Value(3)}).is_ok());

  const std::string endpoint = "rpc.client.127.0.0.1:" + std::to_string(port.value());
  EXPECT_EQ(metrics.counter("rpc.client.calls").value(), 3u);
  EXPECT_EQ(metrics.counter(endpoint + ".attempts").value(), 3u);
  EXPECT_EQ(metrics.counter("rpc.pool.dials").value() +
                metrics.counter("rpc.pool.reuses").value(),
            3u);
  EXPECT_GE(metrics.counter("rpc.pool.dials").value(), 2u);  // one pool each
  server.stop();
}

TEST(RpcClientPooled, FailoverUnderConcurrentLoadWhenEndpointDies) {
  auto dispatcher = echo_dispatcher();
  auto doomed = std::make_unique<RpcServer>(echo_dispatcher(), ServerOptions{0, 4});
  auto doomed_port = doomed->start();
  ASSERT_TRUE(doomed_port.is_ok());
  RpcServer stable(dispatcher, ServerOptions{0, 4});
  auto stable_port = stable.start();
  ASSERT_TRUE(stable_port.is_ok());

  ClientOptions options;
  options.default_call.retry.max_attempts = 4;
  options.default_call.retry.initial_backoff_ms = 1;
  RpcClient client(
      {{"127.0.0.1", doomed_port.value()}, {"127.0.0.1", stable_port.value()}},
      Protocol::kJsonRpc, options);

  constexpr int kThreads = 6;
  constexpr int kIters = 20;
  std::atomic<int> ok{0};
  std::atomic<bool> killed{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kIters; ++i) {
        if (t == 0 && i == kIters / 2 && !killed.exchange(true)) {
          doomed->stop();  // the primary dies mid-burst
        }
        auto r = client.call("echo", {Value(i)});
        if (r.is_ok() && r.value().as_int() == i) ok.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  // Every call succeeded: dial failures against the dead endpoint fail over
  // within the same attempt, and interrupted exchanges retry.
  EXPECT_EQ(ok.load(), kThreads * kIters);
  EXPECT_GT(client.metrics().counter("rpc.client.failovers").value(), 0u);
  stable.stop();
}

TEST(RpcClientPooled, StickyWalkDoesNotReturnToRecoveredEarlierEndpoint) {
  // Endpoint 0 starts dead (nothing listening); endpoint 1 serves. After the
  // first call fails over, the walk must START at endpoint 1 — a recovered
  // endpoint 0 must not steal traffic back while 1 keeps succeeding.
  std::uint16_t dead_port = 0;
  {
    auto probe = net::TcpListener::bind(0);
    ASSERT_TRUE(probe.is_ok());
    dead_port = probe.value().port();
  }  // closed again: the port is (very likely) free and refuses connections

  auto dispatcher = echo_dispatcher();
  RpcServer stable(dispatcher, ServerOptions{0, 2});
  auto stable_port = stable.start();
  ASSERT_TRUE(stable_port.is_ok());

  RpcClient client({{"127.0.0.1", dead_port}, {"127.0.0.1", stable_port.value()}},
                   Protocol::kJsonRpc, {});
  ASSERT_TRUE(client.call("echo", {Value(1)}).is_ok());
  EXPECT_EQ(client.metrics().counter("rpc.client.failovers").value(), 1u);

  // Endpoint 0 comes back to life — and must stay idle.
  auto revived = net::TcpListener::bind(dead_port);
  if (!revived.is_ok()) GTEST_SKIP() << "port was reused by another process";
  std::atomic<int> revived_accepts{0};
  std::thread accept_thread([&] {
    for (;;) {
      auto s = revived.value().accept();
      if (!s.is_ok()) return;
      revived_accepts.fetch_add(1);
    }
  });

  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(client.call("echo", {Value(i)}).is_ok());
  }
  EXPECT_EQ(revived_accepts.load(), 0);  // sticky: the walk starts at endpoint 1

  revived.value().close();
  accept_thread.join();
  stable.stop();
}

// ---------------------------------------------------------------------------
// rpc.batch: dispatcher semantics and the wire round trip
// ---------------------------------------------------------------------------

Value batch_item(const std::string& method, Array params = {}) {
  Struct s;
  s["method"] = Value(method);
  s["params"] = Value(std::move(params));
  return Value(std::move(s));
}

TEST(RpcBatch, DispatcherRunsItemsAndIsolatesFailures) {
  Dispatcher d;
  d.register_method("echo", [](const Array& params, const CallContext&) -> Result<Value> {
    return params.empty() ? Value() : params.front();
  });
  d.register_method("tier", [](const Array&, const CallContext& ctx) -> Result<Value> {
    return Value(static_cast<std::int64_t>(ctx.tier));
  });
  d.enable_batch(4);

  CallContext ctx;
  ctx.tier = Criticality::kControl;
  Array items;
  items.push_back(batch_item("echo", {Value(42)}));
  items.push_back(batch_item("tier"));
  items.push_back(batch_item("rpc.batch"));  // nesting refused per item
  items.push_back(batch_item("no.such.method"));
  auto r = d.dispatch("rpc.batch", {Value(std::move(items))}, ctx);
  ASSERT_TRUE(r.is_ok()) << r.status();
  const Array& out = r.value().as_array();
  ASSERT_EQ(out.size(), 4u);

  EXPECT_TRUE(out[0].get_bool("ok", false));
  EXPECT_EQ(out[0].at("result").as_int(), 42);
  // Items inherit the envelope's context (the wire tier).
  EXPECT_TRUE(out[1].get_bool("ok", false));
  EXPECT_EQ(out[1].at("result").as_int(),
            static_cast<std::int64_t>(Criticality::kControl));
  EXPECT_FALSE(out[2].get_bool("ok", true));
  EXPECT_EQ(fault_code_to_status(static_cast<int>(out[2].get_int("code", 0))),
            StatusCode::kInvalidArgument);
  EXPECT_FALSE(out[3].get_bool("ok", true));
  EXPECT_EQ(fault_code_to_status(static_cast<int>(out[3].get_int("code", 0))),
            StatusCode::kNotFound);
}

TEST(RpcBatch, DispatcherRefusesOversizedBatch) {
  Dispatcher d;
  d.enable_batch(2);
  Array items;
  for (int i = 0; i < 3; ++i) items.push_back(batch_item("echo"));
  EXPECT_EQ(d.dispatch("rpc.batch", {Value(std::move(items))}, {}).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(d.dispatch("rpc.batch", {Value(7)}, {}).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(RpcBatch, CallManyRoundTripsOverTheWire) {
  auto dispatcher = echo_dispatcher();
  dispatcher->enable_batch();
  RpcServer server(dispatcher, ServerOptions{0, 4});
  auto port = server.start();
  ASSERT_TRUE(port.is_ok());
  RpcClient client({{"127.0.0.1", port.value()}}, Protocol::kJsonRpc, {});

  std::vector<BatchItem> items;
  items.push_back({"echo", {Value("a")}, Criticality::kBulk});
  items.push_back({"no.such.method", {}, Criticality::kStatus});
  items.push_back({"echo", {Value(7)}, Criticality::kControl});
  auto results = client.call_many(items);
  ASSERT_EQ(results.size(), 3u);
  ASSERT_TRUE(results[0].is_ok()) << results[0].status();
  EXPECT_EQ(results[0].value().as_string(), "a");
  EXPECT_EQ(results[1].status().code(), StatusCode::kNotFound);
  ASSERT_TRUE(results[2].is_ok());
  EXPECT_EQ(results[2].value().as_int(), 7);

  // One wire exchange carried all three items.
  EXPECT_EQ(client.metrics().counter("rpc.client.batches").value(), 1u);
  EXPECT_EQ(client.metrics().counter("rpc.client.batched_items").value(), 3u);
  EXPECT_EQ(client.metrics().counter("rpc.client.calls").value(), 1u);
  server.stop();
}

TEST(RpcBatch, CallManyFallsBackItemByItemForOldServers) {
  auto dispatcher = echo_dispatcher();  // no enable_batch: an "old" peer
  RpcServer server(dispatcher, ServerOptions{0, 4});
  auto port = server.start();
  ASSERT_TRUE(port.is_ok());
  RpcClient client({{"127.0.0.1", port.value()}}, Protocol::kJsonRpc, {});

  std::vector<BatchItem> items;
  items.push_back({"echo", {Value(1)}, Criticality::kStatus});
  items.push_back({"echo", {Value(2)}, Criticality::kStatus});
  auto results = client.call_many(items);
  ASSERT_EQ(results.size(), 2u);
  ASSERT_TRUE(results[0].is_ok()) << results[0].status();
  EXPECT_EQ(results[0].value().as_int(), 1);
  ASSERT_TRUE(results[1].is_ok());
  EXPECT_EQ(results[1].value().as_int(), 2);
  EXPECT_EQ(client.metrics().counter("rpc.client.batches").value(), 0u);  // served serially
  server.stop();
}

TEST(RpcBatch, SingleItemBatchDegradesToPlainCall) {
  auto dispatcher = echo_dispatcher();
  dispatcher->enable_batch();
  RpcServer server(dispatcher, ServerOptions{0, 2});
  auto port = server.start();
  ASSERT_TRUE(port.is_ok());
  RpcClient client({{"127.0.0.1", port.value()}}, Protocol::kJsonRpc, {});

  auto results = client.call_many({{"echo", {Value(5)}, Criticality::kStatus}});
  ASSERT_EQ(results.size(), 1u);
  ASSERT_TRUE(results[0].is_ok());
  EXPECT_EQ(results[0].value().as_int(), 5);
  EXPECT_EQ(client.metrics().counter("rpc.client.batches").value(), 0u);

  EXPECT_TRUE(client.call_many({}).empty());
  server.stop();
}

}  // namespace
}  // namespace gae::rpc

// ---------------------------------------------------------------------------
// jobmon ReadCache: TTL, invalidation, brownout acceptance, failover drop
// ---------------------------------------------------------------------------

namespace gae::jobmon {
namespace {

ReadCache make_cache(std::int64_t* now_us, int ttl_ms = 100, int brownout_ttl_ms = 1000,
                     telemetry::MetricsRegistry* metrics = nullptr) {
  ReadCacheOptions options;
  options.ttl_ms = ttl_ms;
  options.brownout_ttl_ms = brownout_ttl_ms;
  options.now_us = [now_us] { return *now_us; };
  options.metrics = metrics;
  return ReadCache(options);
}

std::uint64_t count(telemetry::MetricsRegistry& metrics, const std::string& name) {
  return metrics.counter(name).value();
}

TEST(ReadCache, HitUntilTtlThenMiss) {
  std::int64_t now = 0;
  telemetry::MetricsRegistry metrics;
  ReadCache cache = make_cache(&now, 100, 1000, &metrics);
  cache.put("info/t1", rpc::Value(1));
  ASSERT_TRUE(cache.get("info/t1").has_value());
  now += 99'000;
  ASSERT_TRUE(cache.get("info/t1").has_value());
  now += 2'000;  // past 100 ms
  EXPECT_FALSE(cache.get("info/t1").has_value());
  EXPECT_EQ(count(metrics, "jobmon.cache.hits"), 2u);
  EXPECT_EQ(count(metrics, "jobmon.cache.misses"), 1u);
  EXPECT_EQ(cache.size(), 0u);  // the expired entry was erased on the miss
}

TEST(ReadCache, BrownoutAcceptsOlderEntries) {
  std::int64_t now = 0;
  ReadCache cache = make_cache(&now, 100, 1000);
  cache.put("status/t1", rpc::Value("RUNNING"));
  now += 500'000;  // stale for normal serving, fine for brownout
  EXPECT_FALSE(cache.get("status/t1", /*brownout=*/false).has_value());
  // The normal-path miss erased the entry — repopulate as a handler would.
  cache.put("status/t1", rpc::Value("RUNNING"));
  now += 500'000;
  ASSERT_TRUE(cache.get("status/t1", /*brownout=*/true).has_value());
}

TEST(ReadCache, InvalidateTaskDropsDerivedKeysAndList) {
  std::int64_t now = 0;
  telemetry::MetricsRegistry metrics;
  ReadCache cache = make_cache(&now, 100, 1000, &metrics);
  cache.put(ReadCache::info_key("t1"), rpc::Value(1));
  cache.put(ReadCache::status_key("t1"), rpc::Value("RUNNING"));
  cache.put(ReadCache::info_key("t2"), rpc::Value(2));
  cache.put(ReadCache::kListKey, rpc::Value(rpc::Array{}));

  cache.invalidate_task("t1");
  EXPECT_FALSE(cache.get(ReadCache::info_key("t1")).has_value());
  EXPECT_FALSE(cache.get(ReadCache::status_key("t1")).has_value());
  EXPECT_FALSE(cache.get(ReadCache::kListKey).has_value());
  EXPECT_TRUE(cache.get(ReadCache::info_key("t2")).has_value());  // untouched
  EXPECT_EQ(count(metrics, "jobmon.cache.invalidations"), 3u);
}

TEST(ReadCache, InvalidateAllEmptiesEveryShard) {
  std::int64_t now = 0;
  telemetry::MetricsRegistry metrics;
  ReadCache cache = make_cache(&now, 100, 1000, &metrics);
  for (int i = 0; i < 64; ++i) {
    cache.put("info/task-" + std::to_string(i), rpc::Value(i));
  }
  EXPECT_EQ(cache.size(), 64u);
  cache.invalidate_all();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(count(metrics, "jobmon.cache.invalidations"), 64u);
}

TEST(ReadCache, FullShardStaysBoundedAndAcceptsNewEntries) {
  std::int64_t now = 0;
  ReadCacheOptions options;
  options.ttl_ms = 100;
  options.shards = 1;
  options.max_entries_per_shard = 8;
  options.now_us = [&now] { return now; };
  ReadCache cache(options);
  for (int i = 0; i < 50; ++i) {
    cache.put("k" + std::to_string(i), rpc::Value(i));
  }
  EXPECT_LE(cache.size(), 9u);  // bounded (cap + the entry just inserted)
  ASSERT_TRUE(cache.get("k49").has_value());  // the newest entry survived
}

TEST(ReadCachePromotion, PromoteStandbyDropsTheCache) {
  std::int64_t now = 0;
  ReadCache cache = make_cache(&now);
  cache.put(ReadCache::info_key("t1"), rpc::Value(1));

  ManualClock clock;
  clarens::RegistryOptions registry_options;
  registry_options.default_ttl = from_millis(500);
  clarens::ServiceRegistry registry("arbiter", &clock, registry_options);

  ha::PromotionOptions promotion;
  promotion.registry = &registry;
  promotion.service = "jobmon";
  promotion.self.name = "jobmon";
  promotion.self.host = "127.0.0.1";
  promotion.self.port = 9000;
  promotion.drop_caches = [&cache] { cache.invalidate_all(); };

  // Failure path: the lease is held elsewhere — the cache must survive.
  auto held = registry.acquire_primary("jobmon");
  ASSERT_TRUE(held.is_ok());
  EXPECT_FALSE(ha::promote_standby(promotion).is_ok());
  EXPECT_EQ(cache.size(), 1u);

  clock.advance_by(from_millis(501));  // the lease lapses; promotion wins
  auto won = ha::promote_standby(promotion);
  ASSERT_TRUE(won.is_ok()) << won.status();
  EXPECT_EQ(cache.size(), 0u);  // entries from the old epoch are gone
}

}  // namespace
}  // namespace gae::jobmon
