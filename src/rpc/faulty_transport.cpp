#include "rpc/faulty_transport.h"

#include <algorithm>
#include <cstring>

namespace gae::rpc {

namespace {

/// Deliberately not HTTP: the client's response parser must choke on it.
constexpr char kGarbageBytes[] = "\x01\x02\x7f GARBAGE \xff\xfe not-http \x00\x03";
constexpr std::size_t kGarbageSize = sizeof(kGarbageBytes) - 1;

/// The stream a connect through FaultyTransport hands out: every call goes to
/// the dialled stream except where its one fault changes the behaviour.
class FaultyStream final : public Stream {
 public:
  FaultyStream(std::unique_ptr<Stream> inner, FaultSpec fault)
      : inner_(std::move(inner)), fault_(fault) {}

  bool valid() const override { return inner_->valid(); }

  Status write_all(const void* data, std::size_t len) override {
    switch (fault_.kind) {
      case FaultKind::kGarbage:
        return Status::ok();  // swallowed: the server never sees the request
      case FaultKind::kDropAfterBytes: {
        if (cut_) return unavailable_error("connection cut (injected)");
        const std::size_t n = std::min(len, fault_.after_bytes - written_);
        if (n > 0) {
          const Status s = inner_->write_all(data, n);
          if (!s.is_ok()) return s;
          written_ += n;
        }
        if (written_ < fault_.after_bytes) return Status::ok();
        cut_ = true;
        inner_->shutdown_both();
        return unavailable_error("connection cut after " + std::to_string(written_) +
                                 " bytes (injected)");
      }
      default:
        return inner_->write_all(data, len);
    }
  }
  using Stream::write_all;

  Result<std::size_t> read_some(void* buf, std::size_t len) override {
    switch (fault_.kind) {
      case FaultKind::kGarbage: {
        const std::size_t n = std::min(len, kGarbageSize - garbage_read_);
        std::memcpy(buf, kGarbageBytes + garbage_read_, n);
        garbage_read_ += n;
        return n;  // 0 once the garbage is spent: EOF
      }
      case FaultKind::kDropResponse:
        if (!swallowed_) {
          // Any answer byte means the server executed the call; throw the
          // answer away and cut the line.
          swallowed_ = true;
          auto answer = inner_->read_some(buf, len);
          inner_->shutdown_both();
          if (!answer.is_ok()) return answer;
        }
        return std::size_t{0};
      default:
        return inner_->read_some(buf, len);
    }
  }

  Status set_recv_timeout_ms(int ms) override { return inner_->set_recv_timeout_ms(ms); }
  Status set_no_delay(bool on) override { return inner_->set_no_delay(on); }
  bool healthy() const override { return inner_->healthy(); }
  void shutdown_both() override { inner_->shutdown_both(); }
  void close() override { inner_->close(); }

 private:
  std::unique_ptr<Stream> inner_;
  FaultSpec fault_;
  std::size_t written_ = 0;       // kDropAfterBytes: bytes forwarded
  bool cut_ = false;              // kDropAfterBytes: budget spent, line cut
  std::size_t garbage_read_ = 0;  // kGarbage: garbage bytes handed out
  bool swallowed_ = false;        // kDropResponse: answer thrown away
};

}  // namespace

const char* fault_kind_name(FaultKind kind) {
  switch (kind) {
    case FaultKind::kNone: return "none";
    case FaultKind::kRefuseConnect: return "refuse-connect";
    case FaultKind::kDropAfterBytes: return "drop-after-bytes";
    case FaultKind::kGarbage: return "garbage";
    case FaultKind::kDropResponse: return "drop-response";
  }
  return "?";
}

FaultyTransport::FaultyTransport(Transport* inner, FaultPlan plan)
    : inner_(inner), plan_(std::move(plan)), rng_(plan_.seed) {}

FaultSpec FaultyTransport::next_fault_locked() {
  const std::uint64_t index = connect_index_++;
  if (index < plan_.script.size()) return plan_.script[index];
  if (plan_.fault_rate > 0.0 && !plan_.random_kinds.empty() &&
      rng_.bernoulli(plan_.fault_rate)) {
    FaultSpec spec;
    spec.kind = plan_.random_kinds[static_cast<std::size_t>(rng_.uniform_int(
        0, static_cast<std::int64_t>(plan_.random_kinds.size()) - 1))];
    spec.after_bytes = static_cast<std::size_t>(rng_.uniform_int(0, 64));
    return spec;
  }
  return FaultSpec{};
}

void FaultyTransport::count_fault(FaultKind kind) {
  std::lock_guard<std::mutex> lock(mutex_);
  ++faults_;
  ++fault_counts_[fault_kind_name(kind)];
}

Result<std::unique_ptr<Stream>> FaultyTransport::connect(const std::string& host,
                                                         std::uint16_t port) {
  FaultSpec fault;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    fault = next_fault_locked();
  }
  if (fault.kind == FaultKind::kRefuseConnect) {
    count_fault(fault.kind);
    return unavailable_error("connection refused (injected): " + host + ":" +
                             std::to_string(port));
  }
  // Dialled outside the lock: a slow connect must not hold up the others.
  auto inner = inner_->connect(host, port);
  if (!inner.is_ok()) return inner.status();
  if (fault.kind != FaultKind::kNone) count_fault(fault.kind);
  return std::unique_ptr<Stream>(new FaultyStream(std::move(inner).value(), fault));
}

std::uint64_t FaultyTransport::faults_injected() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return faults_;
}

std::map<std::string, std::uint64_t> FaultyTransport::fault_counts() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return fault_counts_;
}

}  // namespace gae::rpc
