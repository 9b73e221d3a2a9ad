// The simulated network behind the rpc::Transport seam.
//
// One SimNetwork replaces every socket in the process: each node gets a
// SimTransport whose streams move bytes as events on the network's own
// sim::Simulation, whose clock is the virtual time every simulated node
// reads. All nondeterminism comes from one seeded Rng, so a schedule replays
// bit-identically from its seed.
//
// The fault model is TCP-honest:
//  - delivery within one connection direction is FIFO
//    (arrival = max(previous arrival, now + sampled latency)); the reorder
//    window only jitters *across* connections, the way real packet reorder
//    surfaces above a reliable stream;
//  - a dropped segment on a stream with no retransmission is a dead
//    connection, so drop_prob breaks the connection at delivery time instead
//    of silently losing bytes (silent loss would corrupt HTTP framing in a
//    way no real TCP stack exhibits);
//  - dup_prob redelivers a chunk, desyncing framing the way a confused
//    middlebox does — exercising the robustness path, not the happy path;
//  - a directed partition blackholes at delivery time (the reader times out
//    on virtual time) and refuses at connect time.
//
// Blocking semantics under virtual time: a read with no buffered bytes steps
// the engine, advancing the clock event-by-event, until data/EOF/break
// arrives or the stream's receive timeout expires (the clock jumps to the
// deadline and the read returns DEADLINE_EXCEEDED). A read that could never
// complete — no events left, no timeout — returns UNAVAILABLE instead of
// hanging, so a wedged schedule surfaces as an error, never a stuck process.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/clock.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/time_types.h"
#include "rpc/transport.h"
#include "sim/engine.h"

namespace gae::dst {

class SimNetwork;
class SimStream;
class SimListener;
class SimTransport;

/// Per-link fault/latency parameters (applied to every chunk sent).
struct LinkOptions {
  SimDuration base_latency_us = 200;
  /// Uniform extra latency in [0, jitter_us].
  SimDuration jitter_us = 300;
  /// Extra uniform jitter window: raises cross-connection reordering without
  /// violating per-connection FIFO.
  SimDuration reorder_window_us = 0;
  /// Probability a chunk is "lost": the connection breaks at delivery time.
  double drop_prob = 0.0;
  /// Probability a chunk is delivered twice (framing desync).
  double dup_prob = 0.0;
};

/// The seeded in-memory network. Single-threaded by construction: every
/// stream/listener it hands out must be used from the simulation thread.
class SimNetwork {
 public:
  explicit SimNetwork(std::uint64_t seed, SimTime start = 0);
  ~SimNetwork();

  SimNetwork(const SimNetwork&) = delete;
  SimNetwork& operator=(const SimNetwork&) = delete;

  SimTime now() const { return sim_.now(); }
  /// The network's virtual time: firing events, run_for() and expired
  /// receive timeouts move it, nothing else.
  const Clock& clock() const { return sim_.clock(); }

  /// The rpc::Transport a given node dials and listens through (lazily
  /// created; stable for the network's lifetime).
  rpc::Transport& transport_for(const std::string& node);

  LinkOptions& link() { return link_; }

  // -- Faults --------------------------------------------------------------

  /// Directed partition: chunks from -> to blackhole at delivery; connects
  /// from -> to are refused. Idempotent.
  void partition(const std::string& from, const std::string& to);
  void partition_both(const std::string& a, const std::string& b);
  void heal(const std::string& from, const std::string& to);
  void heal_both(const std::string& a, const std::string& b);
  void heal_all();
  bool partitioned(const std::string& from, const std::string& to) const;

  /// Breaks every connection touching `node` (peers see a reset after one
  /// link latency) and closes its listeners. Models a process kill.
  void kill_node(const std::string& node);

  // -- Time ----------------------------------------------------------------

  /// Fires every delivery due within dt, then lands the clock at now + dt.
  void run_for(SimDuration dt);

  // -- Server-push listening (SimHost) -------------------------------------

  /// Like listen(), but each arriving connection is handed to `cb` at its
  /// delivery instant instead of queueing for accept(). Returns the bound
  /// port (auto-assigned when 0).
  Result<std::uint16_t> listen_push(const std::string& node, std::uint16_t port,
                                    std::function<void(std::unique_ptr<SimStream>)> cb);
  void close_port(const std::string& node, std::uint16_t port);

  // -- Introspection -------------------------------------------------------

  /// When enabled, every network-visible event (connect, deliver, drop, dup,
  /// blackhole, break, eof) appends one line; same seed + same schedule =>
  /// byte-identical trace.
  void set_trace_enabled(bool on) { trace_enabled_ = on; }
  const std::vector<std::string>& trace() const { return trace_; }

 private:
  friend class SimStream;
  friend class SimListener;
  friend class SimTransport;

  /// One side of a connection. Owned by shared_ptr: the SimStream holds one
  /// reference, in-flight delivery closures hold others.
  struct Endpoint {
    std::uint64_t conn_id = 0;
    std::string node;       // the node this endpoint lives on
    std::string peer_node;  // where the other side lives
    std::string rbuf;       // delivered, not yet read
    bool eof = false;       // peer closed cleanly (FIN delivered)
    bool broken = false;    // connection reset
    bool closed = false;    // this side closed
    int recv_timeout_ms = 0;
    /// FIFO floor: no chunk addressed to this endpoint may arrive earlier
    /// than the previous one.
    SimTime arrival_floor = 0;
    std::weak_ptr<Endpoint> peer;
    /// SimHost data callback; fired at delivery when set.
    std::function<void()> on_readable;
    /// Guards re-entrant on_readable: while a handler for this connection is
    /// running, further deliveries just append to rbuf.
    bool in_handler = false;
  };

  struct PortState {
    std::string node;
    std::uint16_t port = 0;
    bool open = true;
    std::deque<std::shared_ptr<Endpoint>> pending;  // awaiting accept()
    std::function<void(std::unique_ptr<SimStream>)> on_connection;
  };

  // Transport entry points (called by SimStream / SimListener / SimTransport).
  Result<std::unique_ptr<rpc::Stream>> connect(const std::string& from_node,
                                               const std::string& host, std::uint16_t port);
  Result<std::unique_ptr<rpc::Listener>> listen(const std::string& node, std::uint16_t port);
  Result<std::unique_ptr<rpc::Stream>> accept(const std::shared_ptr<PortState>& ps);
  Status send(const std::shared_ptr<Endpoint>& from, const void* data, std::size_t len);
  Result<std::size_t> read_some(const std::shared_ptr<Endpoint>& ep, void* buf, std::size_t len);
  bool endpoint_healthy(const Endpoint& ep) const;
  void shutdown_endpoint(const std::shared_ptr<Endpoint>& ep);
  void close_endpoint(const std::shared_ptr<Endpoint>& ep);

  void deliver(const std::shared_ptr<Endpoint>& to, const std::string& chunk, bool is_dup);
  void deliver_fin(const std::shared_ptr<Endpoint>& to);
  void break_pair(const std::shared_ptr<Endpoint>& ep);
  void fire_readable(const std::shared_ptr<Endpoint>& ep);
  SimDuration sample_latency();
  void trace_line(const std::string& line);
  std::shared_ptr<PortState> find_port(const std::string& node, std::uint16_t port);

  sim::Simulation sim_;
  Rng rng_;
  LinkOptions link_;
  std::uint64_t next_conn_id_ = 1;
  std::uint16_t next_auto_port_ = 40'000;
  std::map<std::string, std::unique_ptr<SimTransport>> transports_;
  std::map<std::pair<std::string, std::uint16_t>, std::shared_ptr<PortState>> ports_;
  std::set<std::pair<std::string, std::string>> partitions_;
  std::vector<std::weak_ptr<Endpoint>> endpoints_;
  bool trace_enabled_ = false;
  std::vector<std::string> trace_;
};

/// rpc::Stream over a simulated connection endpoint.
class SimStream final : public rpc::Stream {
 public:
  SimStream(SimNetwork* net, std::shared_ptr<SimNetwork::Endpoint> ep)
      : net_(net), ep_(std::move(ep)) {}
  ~SimStream() override { close(); }

  bool valid() const override { return ep_ != nullptr && !ep_->closed; }
  Status write_all(const void* data, std::size_t len) override { return net_->send(ep_, data, len); }
  using rpc::Stream::write_all;
  Result<std::size_t> read_some(void* buf, std::size_t len) override {
    return net_->read_some(ep_, buf, len);
  }
  Status set_recv_timeout_ms(int ms) override {
    ep_->recv_timeout_ms = ms;
    return Status::ok();
  }
  bool healthy() const override { return net_->endpoint_healthy(*ep_); }
  void shutdown_both() override { net_->shutdown_endpoint(ep_); }
  void close() override {
    if (ep_) net_->close_endpoint(ep_);
  }

  /// Bytes delivered but not yet read (SimHost's keep-alive loop condition).
  bool has_buffered() const { return !ep_->rbuf.empty(); }
  bool peer_gone() const { return ep_->eof || ep_->broken || ep_->closed; }
  /// SimHost wiring: fired at each delivery to this endpoint.
  void set_on_readable(std::function<void()> fn) { ep_->on_readable = std::move(fn); }
  std::uint64_t conn_id() const { return ep_->conn_id; }

 private:
  SimNetwork* net_;
  std::shared_ptr<SimNetwork::Endpoint> ep_;
};

class SimListener final : public rpc::Listener {
 public:
  SimListener(SimNetwork* net, std::shared_ptr<SimNetwork::PortState> ps)
      : net_(net), ps_(std::move(ps)) {}
  ~SimListener() override { close(); }

  bool valid() const override { return ps_ != nullptr && ps_->open; }
  Result<std::unique_ptr<rpc::Stream>> accept() override { return net_->accept(ps_); }
  std::uint16_t port() const override { return ps_->port; }
  void close() override {
    if (ps_) net_->close_port(ps_->node, ps_->port);
  }

 private:
  SimNetwork* net_;
  std::shared_ptr<SimNetwork::PortState> ps_;
};

/// The rpc::Transport a single simulated node sees. Dials by node name
/// ("host" = node), listens on that node's ports.
class SimTransport final : public rpc::Transport {
 public:
  SimTransport(SimNetwork* net, std::string node) : net_(net), node_(std::move(node)) {}

  const std::string& node() const { return node_; }

  Result<std::unique_ptr<rpc::Stream>> connect(const std::string& host,
                                               std::uint16_t port) override {
    return net_->connect(node_, host, port);
  }
  Result<std::unique_ptr<rpc::Listener>> listen(std::uint16_t port) override {
    return net_->listen(node_, port);
  }

 private:
  SimNetwork* net_;
  std::string node_;
};

}  // namespace gae::dst
