#include "rpc/transport.h"

#include <sys/socket.h>

#include <cerrno>

namespace gae::rpc {

Status Stream::read_exact(void* buf, std::size_t len) {
  char* out = static_cast<char*>(buf);
  std::size_t got = 0;
  while (got < len) {
    auto r = read_some(out + got, len - got);
    if (!r.is_ok()) return r.status();
    if (r.value() == 0) return unavailable_error("connection closed mid-read");
    got += r.value();
  }
  return Status::ok();
}

bool TcpSocketStream::healthy() const {
  if (!stream_.valid()) return false;
  // The three states of a parked keep-alive connection: EAGAIN = quiet and
  // open (healthy), 0 = the peer closed it while parked, >0 = unread bytes
  // from a desynced exchange.
  char probe = 0;
  const ssize_t n = ::recv(stream_.fd(), &probe, 1, MSG_PEEK | MSG_DONTWAIT);
  if (n < 0) return errno == EAGAIN || errno == EWOULDBLOCK;
  return false;
}

Result<std::unique_ptr<Stream>> TcpListener::accept() {
  auto stream = listener_.accept();
  if (!stream.is_ok()) return stream.status();
  return std::unique_ptr<Stream>(new TcpSocketStream(std::move(stream).value()));
}

Result<std::unique_ptr<Stream>> TcpTransport::connect(const std::string& host,
                                                      std::uint16_t port) {
  auto stream = net::TcpStream::connect(host, port);
  if (!stream.is_ok()) return stream.status();
  return std::unique_ptr<Stream>(new TcpSocketStream(std::move(stream).value()));
}

Result<std::unique_ptr<Listener>> TcpTransport::listen(std::uint16_t port) {
  auto listener = net::TcpListener::bind(port);
  if (!listener.is_ok()) return listener.status();
  return std::unique_ptr<Listener>(new TcpListener(std::move(listener).value()));
}

Transport& tcp_transport() {
  static TcpTransport transport;
  return transport;
}

}  // namespace gae::rpc
