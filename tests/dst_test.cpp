// Deterministic simulation harness: transport-seam conformance (the same
// byte-stream contract over live TCP and the simulated network), cluster
// determinism (one seed, one bit-identical trace), whole-cluster failure
// schedules on virtual time, and a seed sweep over randomized kill +
// partition + bit-rot schedules.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "dst/cluster.h"
#include "dst/explore.h"
#include "dst/simnet.h"
#include "rpc/faulty_transport.h"
#include "rpc/transport.h"

namespace gae {
namespace {

using dst::Action;
using dst::Cluster;
using dst::ClusterOptions;
using dst::ExploreOptions;
using dst::SimNetwork;
using dst::SimStream;

// ---------------------------------------------------------------------------
// Transport conformance: one set of assertions, two transports, each bare
// and behind a FaultyTransport with an empty plan. Each environment provides
// a transport, an echo server (echoes every byte until the peer hangs up),
// and a port nobody listens on.

class TcpTransportEnv {
 public:
  TcpTransportEnv() {
    auto listener = transport().listen(0);
    EXPECT_TRUE(listener.is_ok()) << listener.status().message();
    listener_ = std::move(listener).value();
    echo_port_ = listener_->port();
    server_ = std::thread([this] {
      for (;;) {
        auto conn = listener_->accept();
        if (!conn.is_ok()) return;  // listener closed: test over
        char buf[256];
        for (;;) {
          auto n = conn.value()->read_some(buf, sizeof(buf));
          if (!n.is_ok() || n.value() == 0) break;
          if (!conn.value()->write_all(buf, n.value()).is_ok()) break;
        }
      }
    });

    // A bound-then-closed listener yields a port that refuses connections.
    auto dead = transport().listen(0);
    EXPECT_TRUE(dead.is_ok());
    dead_port_ = dead.value()->port();
  }

  ~TcpTransportEnv() {
    listener_->close();
    if (server_.joinable()) server_.join();
  }

  rpc::Transport& transport() { return rpc::tcp_transport(); }
  std::string echo_host() const { return "127.0.0.1"; }
  std::uint16_t echo_port() const { return echo_port_; }
  std::uint16_t dead_port() const { return dead_port_; }

 private:
  std::unique_ptr<rpc::Listener> listener_;
  std::uint16_t echo_port_ = 0;
  std::uint16_t dead_port_ = 0;
  std::thread server_;
};

class SimTransportEnv {
 public:
  SimTransportEnv() : net_(/*seed=*/7) {
    auto port = net_.listen_push("server", 0, [this](std::unique_ptr<SimStream> stream) {
      conns_.push_back(std::move(stream));
      SimStream* conn = conns_.back().get();
      conn->set_on_readable([conn] {
        char buf[256];
        while (conn->has_buffered()) {
          auto n = conn->read_some(buf, sizeof(buf));
          if (!n.is_ok() || n.value() == 0) return;
          if (!conn->write_all(buf, n.value()).is_ok()) return;
        }
      });
    });
    EXPECT_TRUE(port.is_ok()) << port.status().message();
    echo_port_ = port.value();
  }

  rpc::Transport& transport() { return net_.transport_for("client"); }
  std::string echo_host() const { return "server"; }
  std::uint16_t echo_port() const { return echo_port_; }
  std::uint16_t dead_port() const { return 9999; }

 private:
  SimNetwork net_;
  std::vector<std::unique_ptr<SimStream>> conns_;
  std::uint16_t echo_port_ = 0;
};

/// `Env` dialling through a FaultyTransport with an empty plan: the
/// decorator must not be visible.
template <typename Env>
class EmptyFaultPlan : public Env {
 public:
  rpc::Transport& transport() { return faulty_; }

 private:
  rpc::FaultyTransport faulty_{&Env::transport()};
};

template <typename Env>
class TransportConformance : public ::testing::Test {
 protected:
  Env env_;
};

using TransportEnvs = ::testing::Types<TcpTransportEnv, SimTransportEnv,
                                       EmptyFaultPlan<TcpTransportEnv>,
                                       EmptyFaultPlan<SimTransportEnv>>;
TYPED_TEST_SUITE(TransportConformance, TransportEnvs);

TYPED_TEST(TransportConformance, ConnectToDeadPortFails) {
  auto conn = this->env_.transport().connect(this->env_.echo_host(), this->env_.dead_port());
  EXPECT_FALSE(conn.is_ok());
}

TYPED_TEST(TransportConformance, EchoesBytesInOrder) {
  auto conn = this->env_.transport().connect(this->env_.echo_host(), this->env_.echo_port());
  ASSERT_TRUE(conn.is_ok()) << conn.status().message();
  const std::string payload = "the quick brown fox";
  ASSERT_TRUE(conn.value()->write_all(payload).is_ok());
  std::string back(payload.size(), '\0');
  ASSERT_TRUE(conn.value()->read_exact(back.data(), back.size()).is_ok());
  EXPECT_EQ(back, payload);
}

TYPED_TEST(TransportConformance, SecondRoundTripOnSameConnection) {
  auto conn = this->env_.transport().connect(this->env_.echo_host(), this->env_.echo_port());
  ASSERT_TRUE(conn.is_ok()) << conn.status().message();
  for (const std::string payload : {"first", "second, longer payload"}) {
    ASSERT_TRUE(conn.value()->write_all(payload).is_ok());
    std::string back(payload.size(), '\0');
    ASSERT_TRUE(conn.value()->read_exact(back.data(), back.size()).is_ok());
    EXPECT_EQ(back, payload);
  }
}

TYPED_TEST(TransportConformance, RecvTimeoutIsDeadlineExceeded) {
  auto conn = this->env_.transport().connect(this->env_.echo_host(), this->env_.echo_port());
  ASSERT_TRUE(conn.is_ok()) << conn.status().message();
  ASSERT_TRUE(conn.value()->set_recv_timeout_ms(30).is_ok());
  char buf[8];
  auto n = conn.value()->read_some(buf, sizeof(buf));
  ASSERT_FALSE(n.is_ok());
  EXPECT_EQ(n.status().code(), StatusCode::kDeadlineExceeded) << n.status().message();
}

TYPED_TEST(TransportConformance, CleanShutdownReadsAsEof) {
  auto conn = this->env_.transport().connect(this->env_.echo_host(), this->env_.echo_port());
  ASSERT_TRUE(conn.is_ok()) << conn.status().message();
  // Echo servers hang up after we half-close: drain the echo, then expect
  // EOF rather than an error.
  const std::string payload = "bye";
  ASSERT_TRUE(conn.value()->write_all(payload).is_ok());
  std::string back(payload.size(), '\0');
  ASSERT_TRUE(conn.value()->read_exact(back.data(), back.size()).is_ok());
  conn.value()->shutdown_both();
  char buf[8];
  auto n = conn.value()->read_some(buf, sizeof(buf));
  ASSERT_TRUE(n.is_ok()) << n.status().message();
  EXPECT_EQ(n.value(), 0u);
}

// ---------------------------------------------------------------------------
// Determinism: the same seed must produce the same cluster, byte for byte.

std::vector<std::string> traced_run(std::uint64_t seed) {
  ClusterOptions options;
  options.seed = seed;
  options.trace = true;
  Cluster cluster(options);
  Rng rng = Rng(seed).fork("schedule");
  for (int i = 0; i < 30; ++i) {
    if (rng.bernoulli(0.2)) cluster.apply(dst::draw_action(rng));
    cluster.tick();
  }
  return cluster.net().trace();
}

TEST(DstDeterminism, SameSeedSameEventTrace) {
  const auto first = traced_run(42);
  const auto second = traced_run(42);
  ASSERT_FALSE(first.empty());
  ASSERT_EQ(first.size(), second.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    ASSERT_EQ(first[i], second[i]) << "trace diverged at event " << i;
  }
}

TEST(DstDeterminism, DifferentSeedDifferentSchedule) {
  EXPECT_NE(traced_run(42), traced_run(43));
}

// ---------------------------------------------------------------------------
// Whole-cluster schedules on virtual time.

TEST(DstCluster, HealthyWorkloadAcksWritesAndServesReads) {
  ClusterOptions options;
  options.seed = 5;
  Cluster cluster(options);
  for (int i = 0; i < 60; ++i) cluster.tick();
  EXPECT_GT(cluster.tasks_submitted(), 0u);
  EXPECT_GT(cluster.writes_acked(), 0u);
  EXPECT_GT(cluster.reads_ok(), 0u);
  EXPECT_GT(cluster.estimates_ok(), 0u);
  EXPECT_FALSE(cluster.promoted());
  EXPECT_TRUE(cluster.violations().empty())
      << cluster.violations().front() << " (+" << cluster.violations().size() - 1 << " more)";
}

TEST(DstCluster, PrimaryKillFailsOverWithoutLosingAckedWrites) {
  ClusterOptions options;
  options.seed = 6;
  Cluster cluster(options);
  for (int i = 0; i < 12; ++i) cluster.tick();
  const std::uint64_t acked_before = cluster.writes_acked();
  EXPECT_GT(acked_before, 0u);
  cluster.apply({Action::Kind::kKillPrimary});
  for (int i = 0; i < 80 && !cluster.promoted(); ++i) cluster.tick();
  EXPECT_TRUE(cluster.promoted());
  for (int i = 0; i < 20; ++i) cluster.tick();
  EXPECT_TRUE(cluster.violations().empty())
      << cluster.violations().front() << " (+" << cluster.violations().size() - 1 << " more)";
}

TEST(DstCluster, ArbiterPartitionFencesLiveZombiePrimary) {
  ClusterOptions options;
  options.seed = 7;
  Cluster cluster(options);
  for (int i = 0; i < 10; ++i) cluster.tick();
  // The primary stays alive but can no longer heartbeat or renew: the
  // standby must take over, and the zombie's own shipping must fence it.
  cluster.apply({Action::Kind::kPartitionPrimaryArbiter});
  for (int i = 0; i < 80 && !cluster.promoted(); ++i) cluster.tick();
  EXPECT_TRUE(cluster.promoted());
  cluster.apply({Action::Kind::kHealAll});
  for (int i = 0; i < 20; ++i) cluster.tick();
  EXPECT_TRUE(cluster.violations().empty())
      << cluster.violations().front() << " (+" << cluster.violations().size() - 1 << " more)";
}

TEST(DstCluster, StandbyBitRotNeverLosesDataSilently) {
  ClusterOptions options;
  options.seed = 8;
  Cluster cluster(options);
  for (int i = 0; i < 15; ++i) cluster.tick();
  Action rot;
  rot.kind = Action::Kind::kRotStandbyWalByte;
  rot.offset = 64;
  cluster.apply(rot);
  cluster.apply({Action::Kind::kKillPrimary});
  for (int i = 0; i < 100; ++i) cluster.tick();
  // Either the rot landed somewhere harmless and the standby promoted with
  // full state, or recovery detected the damage — silent loss is the only
  // failure mode, and check_invariants records it.
  EXPECT_TRUE(cluster.violations().empty())
      << cluster.violations().front() << " (+" << cluster.violations().size() - 1 << " more)";
}

// ---------------------------------------------------------------------------
// Seed sweep: randomized kill + partition + bit-rot schedules.

TEST(DstSweep, ThousandSeedsOfChaosHoldEveryInvariant) {
  ExploreOptions options;
  options.ticks = 20;
  options.settle_ticks = 35;
  options.action_prob = 0.2;
  auto report = dst::explore(1, 1001, options);
  EXPECT_EQ(report.seeds_run, 1000u);
  EXPECT_GT(report.total_invariant_checks, 0u);
  EXPECT_GT(report.total_writes_acked, 0u);
  std::string failures;
  for (const auto& failure : report.failures) failures += dst::format_failure(failure);
  EXPECT_TRUE(report.failures.empty()) << failures;
}

}  // namespace
}  // namespace gae
