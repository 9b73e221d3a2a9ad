// The transport seam: every byte the RPC layer moves crosses one of these
// interfaces. The live path is TcpTransport (loopback TCP, exactly the
// sockets net/socket.h always provided); the deterministic-simulation
// harness (src/dst) substitutes an in-memory SimTransport so the whole
// cluster — client pools, keep-alive framing, servers — runs single-threaded
// on a virtual clock with seeded latency, drops, duplicates and partitions.
//
// The seam is intentionally byte-stream shaped (connect/accept/read/write/
// close), not message shaped: HTTP framing, keep-alive reuse and the pool's
// health probe all behave identically over both transports, so a bug found
// under simulation is a bug on the wire. FaultyTransport
// (rpc/faulty_transport.h) decorates either one with scheduled faults.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

#include "common/status.h"
#include "net/socket.h"

namespace gae::rpc {

/// A connected byte stream (one side of a connection).
class Stream {
 public:
  virtual ~Stream() = default;

  virtual bool valid() const = 0;

  /// Writes the whole buffer; UNAVAILABLE on a broken connection.
  virtual Status write_all(const void* data, std::size_t len) = 0;
  Status write_all(const std::string& data) { return write_all(data.data(), data.size()); }

  /// Reads up to len bytes; 0 return means orderly EOF; DEADLINE_EXCEEDED
  /// when the receive timeout expires first.
  virtual Result<std::size_t> read_some(void* buf, std::size_t len) = 0;

  /// Reads exactly len bytes; UNAVAILABLE on premature EOF.
  virtual Status read_exact(void* buf, std::size_t len);

  /// Receive timeout; 0 disables.
  virtual Status set_recv_timeout_ms(int ms) = 0;

  /// Disables Nagle on transports that have one; a no-op elsewhere.
  virtual Status set_no_delay(bool on) {
    (void)on;
    return Status::ok();
  }

  /// True when a parked keep-alive connection is still usable: the peer has
  /// not closed it and no unread bytes are pending (unread bytes mean a
  /// desynced exchange). The pool's checkout health probe.
  virtual bool healthy() const = 0;

  /// Shuts down both directions; unblocks a thread sitting in a read on
  /// this stream without destroying it (the server's stop() path).
  virtual void shutdown_both() = 0;

  virtual void close() = 0;
};

/// A listening endpoint.
class Listener {
 public:
  virtual ~Listener() = default;

  virtual bool valid() const = 0;

  /// Blocks for the next connection. UNAVAILABLE once closed.
  virtual Result<std::unique_ptr<Stream>> accept() = 0;

  /// The actually bound port (useful after binding port 0).
  virtual std::uint16_t port() const = 0;

  /// Unblocks pending accept() calls; they return UNAVAILABLE.
  virtual void close() = 0;
};

/// Factory for both ends of a connection. Implementations must be safe to
/// share between threads (TcpTransport is stateless; SimTransport is
/// single-threaded by construction).
class Transport {
 public:
  virtual ~Transport() = default;

  virtual Result<std::unique_ptr<Stream>> connect(const std::string& host,
                                                  std::uint16_t port) = 0;

  virtual Result<std::unique_ptr<Listener>> listen(std::uint16_t port) = 0;
};

/// Stream over an owned TCP socket (what TcpTransport hands out).
class TcpSocketStream final : public Stream {
 public:
  explicit TcpSocketStream(net::TcpStream stream) : stream_(std::move(stream)) {}

  bool valid() const override { return stream_.valid(); }
  Status write_all(const void* data, std::size_t len) override {
    return stream_.write_all(data, len);
  }
  using Stream::write_all;
  Result<std::size_t> read_some(void* buf, std::size_t len) override {
    return stream_.read_some(buf, len);
  }
  Status read_exact(void* buf, std::size_t len) override {
    return stream_.read_exact(buf, len);
  }
  Status set_recv_timeout_ms(int ms) override { return stream_.set_recv_timeout_ms(ms); }
  Status set_no_delay(bool on) override { return stream_.set_no_delay(on); }
  /// A non-blocking one-byte peek distinguishes quiet-and-open (healthy)
  /// from closed-while-parked and unread-bytes-pending (both evicted).
  bool healthy() const override;
  void shutdown_both() override { stream_.shutdown_both(); }
  void close() override { stream_.close(); }

 private:
  net::TcpStream stream_;
};

class TcpListener final : public Listener {
 public:
  explicit TcpListener(net::TcpListener listener) : listener_(std::move(listener)) {}

  bool valid() const override { return listener_.valid(); }
  Result<std::unique_ptr<Stream>> accept() override;
  std::uint16_t port() const override { return listener_.port(); }
  void close() override { listener_.close(); }

 private:
  net::TcpListener listener_;
};

/// The live loopback-TCP transport. Stateless.
class TcpTransport final : public Transport {
 public:
  Result<std::unique_ptr<Stream>> connect(const std::string& host,
                                          std::uint16_t port) override;
  Result<std::unique_ptr<Listener>> listen(std::uint16_t port) override;
};

/// The process-wide TcpTransport instance (what a null Transport* in
/// PoolOptions / ClientOptions / ServerOptions resolves to).
Transport& tcp_transport();

}  // namespace gae::rpc
