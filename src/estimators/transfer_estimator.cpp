#include "estimators/transfer_estimator.h"

#include <algorithm>
#include <chrono>
#include <thread>
#include <vector>

#include "net/socket.h"

namespace gae::estimators {

FileTransferEstimator::FileTransferEstimator(const sim::Grid& grid,
                                             TransferEstimatorOptions options)
    : grid_(grid), options_(options), rng_(options.noise_seed) {}

Result<TransferEstimate> FileTransferEstimator::estimate(const std::string& src,
                                                         const std::string& dst,
                                                         std::uint64_t bytes, SimTime now) {
  if (!grid_.has_site(src)) return not_found_error("unknown site: " + src);
  if (!grid_.has_site(dst)) return not_found_error("unknown site: " + dst);

  TransferEstimate out;
  if (src == dst) {
    out.bandwidth_bytes_per_sec = 0.0;
    out.seconds = 0.0;
    return out;
  }

  const double bandwidth = [&] {
    const std::lock_guard<std::mutex> lock(mutex_);
    auto [it, fresh] = cache_.try_emplace(std::make_pair(src, dst));
    Probe& probe = it->second;
    if (fresh || now - probe.at > from_seconds(options_.probe_ttl_seconds)) {
      // "Run iperf": sample the true link bandwidth with measurement noise.
      double measured = grid_.link(src, dst).bandwidth_bytes_per_sec;
      if (options_.probe_noise > 0) {
        measured *= std::max(0.05, rng_.normal(1.0, options_.probe_noise));
      }
      probe = Probe{measured, now};
    }
    return probe.bandwidth;
  }();
  if (bandwidth <= 0) return failed_precondition_error("no bandwidth " + src + "->" + dst);
  out.bandwidth_bytes_per_sec = bandwidth;
  out.seconds = static_cast<double>(bytes) / bandwidth +
                to_seconds(grid_.link(src, dst).latency);
  return out;
}

Result<double> FileTransferEstimator::cached_bandwidth(const std::string& src,
                                                       const std::string& dst) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  auto it = cache_.find({src, dst});
  if (it == cache_.end()) return not_found_error("no probe for " + src + "->" + dst);
  return it->second.bandwidth;
}

Result<double> measure_loopback_bandwidth(std::uint64_t bytes) {
  auto listener = net::TcpListener::bind(0);
  if (!listener.is_ok()) return listener.status();

  const std::uint64_t total = std::max<std::uint64_t>(bytes, 1 << 16);
  Status sink_status = Status::ok();
  std::thread sink([&listener, total, &sink_status] {
    auto conn = listener.value().accept();
    if (!conn.is_ok()) {
      sink_status = conn.status();
      return;
    }
    std::vector<char> buf(1 << 16);
    std::uint64_t seen = 0;
    while (seen < total) {
      auto r = conn.value().read_some(buf.data(), buf.size());
      if (!r.is_ok() || r.value() == 0) break;
      seen += r.value();
    }
  });

  auto client = net::TcpStream::connect("127.0.0.1", listener.value().port());
  if (!client.is_ok()) {
    listener.value().close();
    sink.join();
    return client.status();
  }

  const std::vector<char> payload(1 << 16, 'x');
  const auto start = std::chrono::steady_clock::now();
  std::uint64_t sent = 0;
  while (sent < total) {
    const std::size_t chunk =
        static_cast<std::size_t>(std::min<std::uint64_t>(payload.size(), total - sent));
    const Status s = client.value().write_all(payload.data(), chunk);
    if (!s.is_ok()) {
      sink.join();
      return s;
    }
    sent += chunk;
  }
  client.value().shutdown_write();
  sink.join();
  const auto elapsed = std::chrono::steady_clock::now() - start;
  const double seconds =
      std::chrono::duration_cast<std::chrono::duration<double>>(elapsed).count();
  if (!sink_status.is_ok()) return sink_status;
  if (seconds <= 0) return internal_error("bandwidth probe finished in zero time");
  return static_cast<double>(sent) / seconds;
}

}  // namespace gae::estimators
