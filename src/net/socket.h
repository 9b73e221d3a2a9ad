// RAII TCP sockets (IPv4). The RPC layer runs over loopback in tests and
// benchmarks, so only the portable POSIX subset is wrapped.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>

#include "common/status.h"

namespace gae::net {

/// A connected TCP stream. Move-only; the descriptor closes on destruction.
class TcpStream {
 public:
  TcpStream() = default;
  explicit TcpStream(int fd) : fd_(fd) {}
  ~TcpStream();

  TcpStream(TcpStream&& other) noexcept;
  TcpStream& operator=(TcpStream&& other) noexcept;
  TcpStream(const TcpStream&) = delete;
  TcpStream& operator=(const TcpStream&) = delete;

  /// Connects to host:port. Host must be a dotted-quad or "localhost".
  static Result<TcpStream> connect(const std::string& host, std::uint16_t port);

  bool valid() const { return fd_ >= 0; }
  int fd() const { return fd_; }

  /// Writes the whole buffer; UNAVAILABLE on peer reset.
  Status write_all(const void* data, std::size_t len);
  Status write_all(const std::string& data) { return write_all(data.data(), data.size()); }

  /// Reads up to len bytes; 0 return means orderly EOF.
  Result<std::size_t> read_some(void* buf, std::size_t len);

  /// Reads exactly len bytes; UNAVAILABLE on premature EOF.
  Status read_exact(void* buf, std::size_t len);

  /// Disables Nagle (small request/response RPC traffic).
  Status set_no_delay(bool on);

  /// Receive timeout; 0 disables. A value equal to the last one set costs
  /// no system call.
  Status set_recv_timeout_ms(int ms);

  /// Shuts down the write side (signals EOF to the peer).
  void shutdown_write();

  /// Shuts down both directions; unblocks a thread sitting in recv on this
  /// socket without closing the descriptor.
  void shutdown_both();

  void close();

 private:
  int fd_ = -1;
  int recv_timeout_ms_ = -1;  // last value set here; -1 = never set
};

/// A listening TCP socket bound to 127.0.0.1.
class TcpListener {
 public:
  TcpListener() = default;
  ~TcpListener();

  TcpListener(TcpListener&& other) noexcept;
  TcpListener& operator=(TcpListener&& other) noexcept;
  TcpListener(const TcpListener&) = delete;
  TcpListener& operator=(const TcpListener&) = delete;

  /// Binds to 127.0.0.1:port; port 0 picks an ephemeral port.
  static Result<TcpListener> bind(std::uint16_t port);

  /// Blocks for the next connection. UNAVAILABLE once closed.
  Result<TcpStream> accept();

  /// The actually bound port (useful after binding port 0).
  std::uint16_t port() const { return port_; }

  bool valid() const { return fd_.load() >= 0; }

  /// Unblocks pending accept() calls; they return UNAVAILABLE.
  void close();

 private:
  /// Atomic: a server's stop() closes the listener while its acceptor
  /// thread sits in accept().
  std::atomic<int> fd_{-1};
  std::uint16_t port_ = 0;
};

}  // namespace gae::net
