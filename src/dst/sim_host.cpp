#include "dst/sim_host.h"

#include <utility>

#include "rpc/deadline.h"

namespace gae::dst {

SimHost::SimHost(SimNetwork& net, std::string node, std::shared_ptr<rpc::Dispatcher> dispatcher,
                 std::uint16_t port, rpc::ConnectionOptions options)
    : net_(net), node_(std::move(node)), port_(port),
      engine_(std::move(dispatcher), options) {}

SimHost::~SimHost() { stop(); }

Status SimHost::start() {
  if (running_) return Status::ok();
  auto bound = net_.listen_push(node_, port_, [this](std::unique_ptr<SimStream> stream) {
    on_connection(std::move(stream));
  });
  if (!bound.is_ok()) return bound.status();
  port_ = bound.value();
  running_ = true;
  return Status::ok();
}

void SimHost::stop() {
  if (!running_) return;
  running_ = false;
  net_.close_port(node_, port_);
  conns_.clear();  // destroys streams -> closes endpoints
}

void SimHost::on_connection(std::unique_ptr<SimStream> stream) {
  if (!running_) return;
  engine_.open(*stream);
  conns_.push_back(Conn{std::move(stream), {rpc::steady_now_us()}});
  Conn* conn = &conns_.back();
  conn->stream->set_on_readable([this, conn] { service_conn(conn); });
}

void SimHost::service_conn(Conn* conn) {
  // SimNetwork does not re-enter this callback for a connection whose
  // handler is still running (it may pump the network mid-request); bytes
  // delivered meanwhile wait in the buffer for this loop.
  bool open = true;
  while (open && running_ && conn->stream->has_buffered()) {
    open = engine_.serve_one(*conn->stream, conn->state);
  }
  if (open && !conn->stream->peer_gone()) return;
  conns_.remove_if([conn](const Conn& c) { return &c == conn; });  // conn dangles from here
}

}  // namespace gae::dst
