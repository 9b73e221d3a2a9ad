// Deterministic transport-fault injection for chaos tests and benches.
//
// FaultyTransport decorates any rpc::Transport — the live TCP transport or a
// simulated node's — and misbehaves on schedule: refuse the connection, cut
// it after N written bytes, answer with garbage, or swallow the response
// after delivering the request. Which fault hits which connection is decided
// by a scripted plan first and a seeded RNG after, so a failing chaos run
// replays bit-for-bit from its seed — the same schedule discipline as
// storage::FaultyWalStorage, its disk-side twin.
//
// A slow link is not a fault kind here: latency is the network model's job
// (dst::SimNetwork's LinkOptions), where it costs virtual time, not wall time.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "rpc/transport.h"

namespace gae::rpc {

enum class FaultKind {
  kNone = 0,
  /// connect() fails UNAVAILABLE without dialling.
  kRefuseConnect,
  /// Writes forward only the first `after_bytes` bytes, then the connection
  /// is cut both ways (mid-request connection loss).
  kDropAfterBytes,
  /// The request never reaches the server; reads return garbage bytes, then
  /// EOF (framing corruption).
  kGarbage,
  /// The request is delivered, but the first read swallows the server's
  /// answer and cuts the connection — the dangerous case for non-idempotent
  /// retries: the server executed the call, the client cannot know.
  kDropResponse,
};

const char* fault_kind_name(FaultKind kind);

struct FaultSpec {
  FaultKind kind = FaultKind::kNone;
  std::size_t after_bytes = 0;  // kDropAfterBytes
};

/// Which connections misbehave. connect() i (0-based, in call order) takes
/// script[i] while the script lasts; afterwards each connect draws a fault
/// with probability `fault_rate` from `random_kinds`, seeded.
struct FaultPlan {
  std::vector<FaultSpec> script;
  double fault_rate = 0.0;
  std::uint64_t seed = 1;
  std::vector<FaultKind> random_kinds = {FaultKind::kRefuseConnect, FaultKind::kDropResponse,
                                         FaultKind::kGarbage};
};

/// Thread-safe: faults are drawn under one mutex, so concurrent connects
/// each take the next slot of the schedule. listen() is forwarded untouched.
class FaultyTransport final : public Transport {
 public:
  /// `inner` must outlive this transport and every stream it hands out.
  explicit FaultyTransport(Transport* inner, FaultPlan plan = {});

  Result<std::unique_ptr<Stream>> connect(const std::string& host,
                                          std::uint16_t port) override;
  Result<std::unique_ptr<Listener>> listen(std::uint16_t port) override {
    return inner_->listen(port);
  }

  std::uint64_t faults_injected() const;
  /// Faults injected per kind (by name), for assertions and bench reports.
  std::map<std::string, std::uint64_t> fault_counts() const;

 private:
  /// Draws the fault for the current connect; advances the schedule.
  FaultSpec next_fault_locked();
  void count_fault(FaultKind kind);

  Transport* inner_;
  FaultPlan plan_;
  mutable std::mutex mutex_;
  Rng rng_;
  std::uint64_t connect_index_ = 0;
  std::uint64_t faults_ = 0;
  std::map<std::string, std::uint64_t> fault_counts_;
};

}  // namespace gae::rpc
