#include "net/socket.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

namespace gae::net {

namespace {

Status errno_status(const char* what) {
  return unavailable_error(std::string(what) + ": " + std::strerror(errno));
}

}  // namespace

TcpStream::~TcpStream() { close(); }

TcpStream::TcpStream(TcpStream&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)),
      recv_timeout_ms_(std::exchange(other.recv_timeout_ms_, -1)) {}

TcpStream& TcpStream::operator=(TcpStream&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = std::exchange(other.fd_, -1);
    recv_timeout_ms_ = std::exchange(other.recv_timeout_ms_, -1);
  }
  return *this;
}

Result<TcpStream> TcpStream::connect(const std::string& host, std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return errno_status("socket");

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  const std::string resolved = (host == "localhost") ? "127.0.0.1" : host;
  if (::inet_pton(AF_INET, resolved.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return invalid_argument_error("bad IPv4 address: " + host);
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    const Status s = errno_status("connect");
    ::close(fd);
    return s;
  }
  return TcpStream(fd);
}

Status TcpStream::write_all(const void* data, std::size_t len) {
  const char* p = static_cast<const char*>(data);
  while (len > 0) {
    const ssize_t n = ::send(fd_, p, len, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return errno_status("send");
    }
    p += n;
    len -= static_cast<std::size_t>(n);
  }
  return Status::ok();
}

Result<std::size_t> TcpStream::read_some(void* buf, std::size_t len) {
  for (;;) {
    const ssize_t n = ::recv(fd_, buf, len, 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        // SO_RCVTIMEO expired (set_recv_timeout_ms): a deadline, not a
        // dead peer — callers decide whether to retry or hang up.
        return deadline_exceeded_error("recv timed out");
      }
      return errno_status("recv");
    }
    return static_cast<std::size_t>(n);
  }
}

Status TcpStream::read_exact(void* buf, std::size_t len) {
  char* p = static_cast<char*>(buf);
  while (len > 0) {
    auto r = read_some(p, len);
    if (!r.is_ok()) return r.status();
    if (r.value() == 0) return unavailable_error("unexpected EOF");
    p += r.value();
    len -= r.value();
  }
  return Status::ok();
}

Status TcpStream::set_no_delay(bool on) {
  const int flag = on ? 1 : 0;
  if (::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &flag, sizeof(flag)) != 0) {
    return errno_status("setsockopt(TCP_NODELAY)");
  }
  return Status::ok();
}

Status TcpStream::set_recv_timeout_ms(int ms) {
  if (ms == recv_timeout_ms_) return Status::ok();
  timeval tv{};
  tv.tv_sec = ms / 1000;
  tv.tv_usec = (ms % 1000) * 1000;
  if (::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv)) != 0) {
    return errno_status("setsockopt(SO_RCVTIMEO)");
  }
  recv_timeout_ms_ = ms;
  return Status::ok();
}

void TcpStream::shutdown_write() {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_WR);
}

void TcpStream::shutdown_both() {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

void TcpStream::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  recv_timeout_ms_ = -1;
}

TcpListener::~TcpListener() { close(); }

TcpListener::TcpListener(TcpListener&& other) noexcept
    : fd_(other.fd_.exchange(-1)), port_(std::exchange(other.port_, 0)) {}

TcpListener& TcpListener::operator=(TcpListener&& other) noexcept {
  if (this != &other) {
    close();
    fd_.store(other.fd_.exchange(-1));
    port_ = std::exchange(other.port_, 0);
  }
  return *this;
}

Result<TcpListener> TcpListener::bind(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return errno_status("socket");

  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    const Status s = errno_status("bind");
    ::close(fd);
    return s;
  }
  if (::listen(fd, 128) != 0) {
    const Status s = errno_status("listen");
    ::close(fd);
    return s;
  }

  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) != 0) {
    const Status s = errno_status("getsockname");
    ::close(fd);
    return s;
  }

  TcpListener listener;
  listener.fd_ = fd;
  listener.port_ = ntohs(bound.sin_port);
  return listener;
}

Result<TcpStream> TcpListener::accept() {
  for (;;) {
    const int fd = ::accept(fd_.load(), nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return errno_status("accept");
    }
    return TcpStream(fd);
  }
}

void TcpListener::close() {
  const int fd = fd_.exchange(-1);
  if (fd >= 0) {
    // shutdown() unblocks accept() on Linux; close alone may not.
    ::shutdown(fd, SHUT_RDWR);
    ::close(fd);
  }
}

}  // namespace gae::net
