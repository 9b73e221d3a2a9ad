#include "dst/simnet.h"

#include <algorithm>
#include <cstring>

namespace gae::dst {

namespace {

std::string fmt_bytes(std::size_t n) { return std::to_string(n) + "B"; }

}  // namespace

SimNetwork::SimNetwork(std::uint64_t seed, SimTime start) : sim_(start), rng_(seed) {}

SimNetwork::~SimNetwork() = default;

rpc::Transport& SimNetwork::transport_for(const std::string& node) {
  auto it = transports_.find(node);
  if (it == transports_.end()) {
    it = transports_.emplace(node, std::make_unique<SimTransport>(this, node)).first;
  }
  return *it->second;
}

void SimNetwork::partition(const std::string& from, const std::string& to) {
  if (partitions_.insert({from, to}).second) {
    trace_line("t=" + std::to_string(now()) + " partition " + from + "->" + to);
  }
}

void SimNetwork::partition_both(const std::string& a, const std::string& b) {
  partition(a, b);
  partition(b, a);
}

void SimNetwork::heal(const std::string& from, const std::string& to) {
  if (partitions_.erase({from, to}) > 0) {
    trace_line("t=" + std::to_string(now()) + " heal " + from + "->" + to);
  }
}

void SimNetwork::heal_both(const std::string& a, const std::string& b) {
  heal(a, b);
  heal(b, a);
}

void SimNetwork::heal_all() {
  if (!partitions_.empty()) {
    partitions_.clear();
    trace_line("t=" + std::to_string(now()) + " heal all");
  }
}

bool SimNetwork::partitioned(const std::string& from, const std::string& to) const {
  return partitions_.count({from, to}) > 0;
}

void SimNetwork::kill_node(const std::string& node) {
  trace_line("t=" + std::to_string(now()) + " kill " + node);
  // Close the node's listeners (pending, un-accepted connections break).
  for (auto& [key, ps] : ports_) {
    if (key.first != node || !ps->open) continue;
    ps->open = false;
    for (auto& pending : ps->pending) break_pair(pending);
    ps->pending.clear();
  }
  // Break every live connection touching the node. The local side dies now;
  // the remote side learns after one link latency (the RST has to travel).
  std::vector<std::weak_ptr<Endpoint>> kept;
  kept.reserve(endpoints_.size());
  for (auto& weak : endpoints_) {
    auto ep = weak.lock();
    if (!ep) continue;
    kept.push_back(weak);
    if (ep->node != node || ep->broken || ep->closed) continue;
    ep->broken = true;
    ep->rbuf.clear();
    if (auto peer = ep->peer.lock()) {
      SimTime at = std::max(peer->arrival_floor, now() + sample_latency());
      peer->arrival_floor = at;
      std::weak_ptr<Endpoint> weak_peer = peer;
      sim_.schedule_at(at, [this, weak_peer] {
        if (auto p = weak_peer.lock()) break_pair(p);
      });
    }
  }
  endpoints_ = std::move(kept);
}

void SimNetwork::run_for(SimDuration dt) { sim_.run_until(now() + dt); }

Result<std::uint16_t> SimNetwork::listen_push(const std::string& node, std::uint16_t port,
                                              std::function<void(std::unique_ptr<SimStream>)> cb) {
  if (port == 0) port = next_auto_port_++;
  auto key = std::make_pair(node, port);
  auto it = ports_.find(key);
  if (it != ports_.end() && it->second->open) {
    return invalid_argument_error("port already bound: " + node + ":" + std::to_string(port));
  }
  auto ps = std::make_shared<PortState>();
  ps->node = node;
  ps->port = port;
  ps->on_connection = std::move(cb);
  ports_[key] = ps;
  return port;
}

void SimNetwork::close_port(const std::string& node, std::uint16_t port) {
  auto it = ports_.find({node, port});
  if (it == ports_.end() || !it->second->open) return;
  it->second->open = false;
  for (auto& pending : it->second->pending) break_pair(pending);
  it->second->pending.clear();
  it->second->on_connection = nullptr;
}

// -- Transport entry points --------------------------------------------------

Result<std::unique_ptr<rpc::Stream>> SimNetwork::connect(const std::string& from_node,
                                                         const std::string& host,
                                                         std::uint16_t port) {
  auto ps = find_port(host, port);
  if (!ps) {
    return unavailable_error("connection refused: " + host + ":" + std::to_string(port));
  }
  // The handshake needs both directions; a directed partition either way
  // refuses the connect (the SYN or the SYN-ACK never lands).
  if (partitioned(from_node, host) || partitioned(host, from_node)) {
    return unavailable_error("connection refused (partitioned): " + from_node + "->" + host);
  }

  auto client = std::make_shared<Endpoint>();
  auto server = std::make_shared<Endpoint>();
  const std::uint64_t id = next_conn_id_++;
  client->conn_id = server->conn_id = id;
  client->node = from_node;
  client->peer_node = host;
  server->node = host;
  server->peer_node = from_node;
  client->peer = server;
  server->peer = client;
  endpoints_.push_back(client);
  endpoints_.push_back(server);

  // The connection reaches the listener after one link latency; data chunks
  // written meanwhile are floored behind it.
  const SimTime arrival = now() + sample_latency();
  server->arrival_floor = arrival;
  trace_line("t=" + std::to_string(now()) + " conn#" + std::to_string(id) + " connect " +
             from_node + "->" + host + ":" + std::to_string(port));
  std::weak_ptr<PortState> weak_ps = ps;
  sim_.schedule_at(arrival, [this, weak_ps, server, from_node, host] {
    auto port_state = weak_ps.lock();
    if (!port_state || !port_state->open || partitioned(from_node, host)) {
      break_pair(server);
      return;
    }
    trace_line("t=" + std::to_string(now()) + " conn#" + std::to_string(server->conn_id) +
               " accepted on " + host);
    if (port_state->on_connection) {
      port_state->on_connection(std::make_unique<SimStream>(this, server));
    } else {
      port_state->pending.push_back(server);
    }
  });
  return std::unique_ptr<rpc::Stream>(new SimStream(this, client));
}

Result<std::unique_ptr<rpc::Listener>> SimNetwork::listen(const std::string& node,
                                                          std::uint16_t port) {
  if (port == 0) port = next_auto_port_++;
  auto key = std::make_pair(node, port);
  auto it = ports_.find(key);
  if (it != ports_.end() && it->second->open) {
    return invalid_argument_error("port already bound: " + node + ":" + std::to_string(port));
  }
  auto ps = std::make_shared<PortState>();
  ps->node = node;
  ps->port = port;
  ports_[key] = ps;
  return std::unique_ptr<rpc::Listener>(new SimListener(this, ps));
}

Result<std::unique_ptr<rpc::Stream>> SimNetwork::accept(const std::shared_ptr<PortState>& ps) {
  for (;;) {
    if (!ps->open) return unavailable_error("listener closed");
    if (!ps->pending.empty()) {
      auto ep = ps->pending.front();
      ps->pending.pop_front();
      return std::unique_ptr<rpc::Stream>(new SimStream(this, ep));
    }
    if (!sim_.step()) {
      return unavailable_error("simulated accept would block forever (no pending connects)");
    }
  }
}

Status SimNetwork::send(const std::shared_ptr<Endpoint>& from, const void* data,
                        std::size_t len) {
  if (!from || from->closed) return unavailable_error("write on closed stream");
  if (from->broken) return unavailable_error("connection reset (sim)");
  auto to = from->peer.lock();
  if (!to) return unavailable_error("connection reset (sim)");
  if (len == 0) return Status::ok();

  std::string chunk(static_cast<const char*>(data), len);
  // Fixed draw order (latency, drop, dup) keeps the rng stream — and so the
  // whole schedule — identical whether or not a given fault fires.
  const SimDuration latency = sample_latency();
  const bool drop = rng_.bernoulli(link_.drop_prob);
  const bool dup = rng_.bernoulli(link_.dup_prob);
  const SimTime arrival = std::max(to->arrival_floor, now() + latency);
  to->arrival_floor = arrival;

  if (drop) {
    // A lost segment on a no-retransmit reliable stream kills the
    // connection at the instant the bytes should have landed.
    trace_line("t=" + std::to_string(now()) + " conn#" + std::to_string(from->conn_id) +
               " drop " + fmt_bytes(len) + " (breaks at t=" + std::to_string(arrival) + ")");
    sim_.schedule_at(arrival, [this, to] { break_pair(to); });
    return Status::ok();  // the writer cannot see the loss yet
  }

  trace_line("t=" + std::to_string(now()) + " conn#" + std::to_string(from->conn_id) + " send " +
             from->node + "->" + to->node + " " + fmt_bytes(len) + " arrives t=" +
             std::to_string(arrival));
  sim_.schedule_at(arrival, [this, to, chunk] { deliver(to, chunk, false); });
  if (dup) {
    const SimTime dup_at = std::max(to->arrival_floor, arrival + 1 + sample_latency());
    to->arrival_floor = dup_at;
    sim_.schedule_at(dup_at, [this, to, chunk] { deliver(to, chunk, true); });
  }
  return Status::ok();
}

Result<std::size_t> SimNetwork::read_some(const std::shared_ptr<Endpoint>& ep, void* buf,
                                          std::size_t len) {
  if (!ep || ep->closed) return unavailable_error("read on closed stream");
  const SimTime deadline =
      ep->recv_timeout_ms > 0 ? now() + static_cast<SimTime>(ep->recv_timeout_ms) * 1000 : -1;
  for (;;) {
    if (!ep->rbuf.empty()) {
      const std::size_t n = std::min(len, ep->rbuf.size());
      std::memcpy(buf, ep->rbuf.data(), n);
      ep->rbuf.erase(0, n);
      return n;
    }
    if (ep->broken) return unavailable_error("connection reset (sim)");
    if (ep->eof) return static_cast<std::size_t>(0);
    if (ep->closed) return unavailable_error("read on closed stream");
    if (deadline < 0) {
      if (!sim_.step()) {
        return unavailable_error(
            "simulated read would block forever (no pending deliveries, no recv timeout)");
      }
    } else if (!sim_.step_until(deadline)) {
      // Nothing can arrive before the receive timeout: virtual time jumps
      // straight to the deadline. This is where blocked reads "wait".
      sim_.run_until(deadline);
      return deadline_exceeded_error("simulated recv timeout");
    }
  }
}

bool SimNetwork::endpoint_healthy(const Endpoint& ep) const {
  // Mirrors the TCP MSG_PEEK probe: healthy = open, quiet, no unread bytes.
  return !ep.closed && !ep.broken && !ep.eof && ep.rbuf.empty();
}

void SimNetwork::shutdown_endpoint(const std::shared_ptr<Endpoint>& ep) {
  if (!ep || ep->closed || ep->broken) return;
  // Both directions go down: this side reads EOF immediately, the peer sees
  // EOF after one link latency.
  ep->eof = true;
  if (auto peer = ep->peer.lock()) {
    const SimTime at = std::max(peer->arrival_floor, now() + sample_latency());
    peer->arrival_floor = at;
    std::weak_ptr<Endpoint> weak_peer = peer;
    sim_.schedule_at(at, [this, weak_peer] {
      if (auto p = weak_peer.lock()) deliver_fin(p);
    });
  }
}

void SimNetwork::close_endpoint(const std::shared_ptr<Endpoint>& ep) {
  if (!ep || ep->closed) return;
  ep->closed = true;
  ep->on_readable = nullptr;
  ep->rbuf.clear();
  if (!ep->broken) {
    if (auto peer = ep->peer.lock()) {
      const SimTime at = std::max(peer->arrival_floor, now() + sample_latency());
      peer->arrival_floor = at;
      std::weak_ptr<Endpoint> weak_peer = peer;
      sim_.schedule_at(at, [this, weak_peer] {
        if (auto p = weak_peer.lock()) deliver_fin(p);
      });
    }
  }
}

// -- Internals ---------------------------------------------------------------

void SimNetwork::deliver(const std::shared_ptr<Endpoint>& to, const std::string& chunk,
                         bool is_dup) {
  if (to->closed || to->broken) return;
  if (partitioned(to->peer_node, to->node)) {
    trace_line("t=" + std::to_string(now()) + " conn#" + std::to_string(to->conn_id) +
               " blackhole " + fmt_bytes(chunk.size()) + " (" + to->peer_node + "->" + to->node +
               ")");
    return;
  }
  to->rbuf += chunk;
  trace_line("t=" + std::to_string(now()) + " conn#" + std::to_string(to->conn_id) +
             (is_dup ? " deliver-dup " : " deliver ") + fmt_bytes(chunk.size()) + " to " +
             to->node);
  fire_readable(to);
}

void SimNetwork::deliver_fin(const std::shared_ptr<Endpoint>& to) {
  if (to->closed || to->broken || to->eof) return;
  // A FIN travels in-band; a partition blackholes it too (the peer just
  // never learns, and times out).
  if (partitioned(to->peer_node, to->node)) return;
  to->eof = true;
  trace_line("t=" + std::to_string(now()) + " conn#" + std::to_string(to->conn_id) + " eof at " +
             to->node);
  fire_readable(to);
}

void SimNetwork::break_pair(const std::shared_ptr<Endpoint>& ep) {
  auto peer = ep->peer.lock();
  for (const auto& side : {ep, peer}) {
    if (!side || side->broken) continue;
    side->broken = true;
    side->rbuf.clear();
    trace_line("t=" + std::to_string(now()) + " conn#" + std::to_string(side->conn_id) +
               " reset at " + side->node);
    fire_readable(side);
  }
}

void SimNetwork::fire_readable(const std::shared_ptr<Endpoint>& ep) {
  if (!ep->on_readable || ep->in_handler) return;
  ep->in_handler = true;
  // The callback may close the stream (clearing on_readable) or pump further
  // events re-entrantly; the shared_ptr keeps the endpoint alive throughout.
  auto cb = ep->on_readable;
  cb();
  ep->in_handler = false;
}

SimDuration SimNetwork::sample_latency() {
  SimDuration lat = link_.base_latency_us;
  if (link_.jitter_us > 0) lat += rng_.uniform_int(0, link_.jitter_us);
  if (link_.reorder_window_us > 0) lat += rng_.uniform_int(0, link_.reorder_window_us);
  return lat;
}

void SimNetwork::trace_line(const std::string& line) {
  if (trace_enabled_) trace_.push_back(line);
}

std::shared_ptr<SimNetwork::PortState> SimNetwork::find_port(const std::string& node,
                                                             std::uint16_t port) {
  auto it = ports_.find({node, port});
  if (it == ports_.end() || !it->second->open) return nullptr;
  return it->second;
}

}  // namespace gae::dst
