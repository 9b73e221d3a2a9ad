// An event-driven RPC server for the simulated network: serves a
// rpc::Dispatcher over SimNetwork connections with no acceptor thread and no
// worker pool. Connections arrive by push (SimNetwork::listen_push) and each
// delivery runs rpc::RequestEngine::serve_one — the same loop RpcServer runs
// on its workers — synchronously while bytes are buffered, so the whole
// server is a set of callbacks on the simulation's single thread.
//
// Same loop as RpcServer: same framing, 400s, fault encoding, admission
// sheds, deadline charging and keep-alive reuse. What it drops is the
// concurrency model (fig-6 worker-pool queueing) — DST explores message
// interleavings, not thread interleavings.
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <string>

#include "common/status.h"
#include "dst/simnet.h"
#include "rpc/server.h"

namespace gae::dst {

class SimHost {
 public:
  /// `node` is the simulated host name peers dial; `port` 0 = auto-assigned
  /// by the network. The dispatcher must outlive the host.
  SimHost(SimNetwork& net, std::string node, std::shared_ptr<rpc::Dispatcher> dispatcher,
          std::uint16_t port, rpc::ConnectionOptions options = {});
  ~SimHost();

  SimHost(const SimHost&) = delete;
  SimHost& operator=(const SimHost&) = delete;

  /// Binds the port and starts taking connections.
  Status start();

  /// Closes the port and every live connection. Idempotent. A stopped host
  /// models a killed process (restart by constructing a new SimHost).
  void stop();

  const std::string& node() const { return node_; }
  std::uint16_t port() const { return port_; }
  bool running() const { return running_; }

 private:
  struct Conn {
    std::unique_ptr<SimStream> stream;
    rpc::ConnectionState state;
  };

  void on_connection(std::unique_ptr<SimStream> stream);
  void service_conn(Conn* conn);

  SimNetwork& net_;
  std::string node_;
  std::uint16_t port_;
  rpc::RequestEngine engine_;
  bool running_ = false;
  std::list<Conn> conns_;
};

}  // namespace gae::dst
