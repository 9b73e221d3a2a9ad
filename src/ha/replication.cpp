#include "ha/replication.h"

#include "common/log.h"

namespace gae::ha {

namespace {
constexpr char kHexDigits[] = "0123456789abcdef";
}  // namespace

std::string hex_encode(const std::string& bytes) {
  std::string out;
  out.reserve(bytes.size() * 2);
  for (unsigned char c : bytes) {
    out.push_back(kHexDigits[c >> 4]);
    out.push_back(kHexDigits[c & 0xF]);
  }
  return out;
}

Result<std::string> hex_decode(const std::string& hex) {
  if (hex.size() % 2 != 0) return invalid_argument_error("odd-length hex string");
  auto nibble = [](char c) -> int {
    if (c >= '0' && c <= '9') return c - '0';
    if (c >= 'a' && c <= 'f') return c - 'a' + 10;
    if (c >= 'A' && c <= 'F') return c - 'A' + 10;
    return -1;
  };
  std::string out;
  out.reserve(hex.size() / 2);
  for (std::size_t i = 0; i < hex.size(); i += 2) {
    const int hi = nibble(hex[i]);
    const int lo = nibble(hex[i + 1]);
    if (hi < 0 || lo < 0) return invalid_argument_error("non-hex character in hex string");
    out.push_back(static_cast<char>((hi << 4) | lo));
  }
  return out;
}

// --- StandbyReplica --------------------------------------------------------

StandbyReplica::StandbyReplica(std::string stream, WalStorage* storage,
                               telemetry::MetricsRegistry* metrics)
    : stream_(std::move(stream)), storage_(storage) {
  if (metrics) {
    rejections_counter_ = &metrics->counter("ha." + stream_ + ".stale_epoch_rejections");
    next_seq_gauge_ = &metrics->gauge("ha." + stream_ + ".standby_next_seq");
  }
}

Result<ReplicaAck> StandbyReplica::apply_append(const AppendBatch& batch) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (batch.epoch < epoch_) {
    ++stale_epoch_rejections_;
    if (rejections_counter_) rejections_counter_->inc();
    std::string msg = "stale epoch " + std::to_string(batch.epoch) + " < " +
                      std::to_string(epoch_) + " for stream " + stream_;
    if (!leader_hint_.empty()) msg += " leader=" + leader_hint_;
    return not_primary_error(msg);
  }
  if (crc32(batch.bytes) != batch.crc) {
    return invalid_argument_error("batch crc mismatch for stream " + stream_);
  }
  const WalReadResult decoded = Wal::decode(batch.bytes);
  if (decoded.torn_tail || decoded.corrupt ||
      decoded.records.size() != batch.records) {
    return invalid_argument_error("malformed batch frames for stream " + stream_);
  }
  if (batch.base_seq > next_seq_) {
    return failed_precondition_error(
        "replication gap for stream " + stream_ + ": batch starts at " +
        std::to_string(batch.base_seq) + ", standby expects " +
        std::to_string(next_seq_));
  }
  // The epoch is accepted — a strictly newer one deposes whatever primary
  // this standby followed before.
  if (batch.epoch > epoch_) epoch_ = batch.epoch;
  if (!batch.leader_host.empty()) {
    leader_hint_ = batch.leader_host + ":" + std::to_string(batch.leader_port);
  }

  const std::uint64_t end_seq = batch.base_seq + batch.records;
  if (end_seq > next_seq_) {
    // Skip the already-applied prefix (retries and shipper re-sends overlap
    // harmlessly), append only the genuinely new frames.
    const std::size_t skip = static_cast<std::size_t>(next_seq_ - batch.base_seq);
    std::string to_append;
    if (skip == 0) {
      to_append = batch.bytes;
    } else {
      for (std::size_t i = skip; i < decoded.records.size(); ++i) {
        to_append += Wal::encode_frame(decoded.records[i].type,
                                       decoded.records[i].payload);
      }
    }
    const Status appended = storage_->append(to_append);
    if (!appended.is_ok()) return appended;
    const Status synced = storage_->sync();
    if (!synced.is_ok()) return synced;
    next_seq_ = end_seq;
    if (next_seq_gauge_) next_seq_gauge_->set(static_cast<std::int64_t>(next_seq_));
  }
  return ReplicaAck{epoch_, next_seq_};
}

Result<ReplicaAck> StandbyReplica::install_snapshot(const SnapshotInstall& snap) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (snap.epoch < epoch_) {
    ++stale_epoch_rejections_;
    if (rejections_counter_) rejections_counter_->inc();
    std::string msg = "stale epoch " + std::to_string(snap.epoch) + " < " +
                      std::to_string(epoch_) + " for stream " + stream_;
    if (!leader_hint_.empty()) msg += " leader=" + leader_hint_;
    return not_primary_error(msg);
  }
  if (crc32(snap.bytes) != snap.crc) {
    return invalid_argument_error("snapshot crc mismatch for stream " + stream_);
  }
  const WalReadResult decoded = Wal::decode(snap.bytes);
  if (decoded.torn_tail || decoded.corrupt) {
    return invalid_argument_error("malformed snapshot frames for stream " + stream_);
  }
  if (snap.epoch > epoch_) epoch_ = snap.epoch;
  if (!snap.leader_host.empty()) {
    leader_hint_ = snap.leader_host + ":" + std::to_string(snap.leader_port);
  }
  const Status replaced = storage_->replace(snap.bytes);
  if (!replaced.is_ok()) return replaced;
  next_seq_ = snap.next_seq;
  if (next_seq_gauge_) next_seq_gauge_->set(static_cast<std::int64_t>(next_seq_));
  return ReplicaAck{epoch_, next_seq_};
}

ReplicaAck StandbyReplica::status() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return ReplicaAck{epoch_, next_seq_};
}

Result<SnapshotInstall> StandbyReplica::export_log() const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto bytes = storage_->read_all();
  if (!bytes.is_ok()) {
    return Status(bytes.status().code(),
                  "standby log unreadable for stream " + stream_ + ": " +
                      bytes.status().message());
  }
  // A rotten donor must not heal anyone: verify framing before exporting.
  const WalReadResult decoded = Wal::decode(bytes.value());
  if (decoded.corrupt || decoded.torn_tail) {
    return failed_precondition_error(
        "standby log for stream " + stream_ + " fails verification (" +
        std::to_string(bytes.value().size() - decoded.valid_bytes) +
        " damaged bytes)");
  }
  SnapshotInstall snap;
  snap.stream = stream_;
  snap.epoch = epoch_;
  snap.next_seq = next_seq_;
  snap.bytes = std::move(bytes).value();
  snap.crc = crc32(snap.bytes);
  return snap;
}

Status StandbyReplica::promote(std::uint64_t new_epoch) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (new_epoch <= epoch_) {
    return failed_precondition_error(
        "promotion epoch " + std::to_string(new_epoch) +
        " does not advance past " + std::to_string(epoch_));
  }
  epoch_ = new_epoch;
  leader_hint_.clear();  // this replica is the leader now
  GAE_LOG_INFO << "ha: standby for '" << stream_ << "' promoted at epoch "
               << new_epoch << " (next_seq " << next_seq_ << ")";
  return Status::ok();
}

std::uint64_t StandbyReplica::epoch() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return epoch_;
}

std::uint64_t StandbyReplica::next_seq() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return next_seq_;
}

std::string StandbyReplica::leader_hint() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return leader_hint_;
}

std::uint64_t StandbyReplica::stale_epoch_rejections() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stale_epoch_rejections_;
}

// --- LogShipper ------------------------------------------------------------

LogShipper::LogShipper(std::string stream, ShipperOptions options)
    : stream_(std::move(stream)), options_(std::move(options)) {
  if (options_.metrics) {
    lag_gauge_ = &options_.metrics->gauge("ha." + stream_ + ".replication_lag");
    epoch_gauge_ = &options_.metrics->gauge("ha." + stream_ + ".epoch");
    batches_counter_ = &options_.metrics->counter("ha." + stream_ + ".batches_shipped");
    failures_counter_ = &options_.metrics->counter("ha." + stream_ + ".ship_failures");
  }
}

void LogShipper::add_standby(ShipperTransport* transport) {
  std::lock_guard<std::mutex> lock(mutex_);
  standbys_.push_back(Standby{transport, 0});
}

std::size_t LogShipper::standby_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return standbys_.size();
}

void LogShipper::set_epoch(std::uint64_t epoch) {
  std::lock_guard<std::mutex> lock(mutex_);
  epoch_ = epoch;
  deposed_ = false;  // a freshly granted epoch is a legitimate new reign
  if (epoch_gauge_) epoch_gauge_->set(static_cast<std::int64_t>(epoch));
}

std::uint64_t LogShipper::epoch() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return epoch_;
}

void LogShipper::set_resync_source(std::function<Result<std::string>()> source) {
  std::lock_guard<std::mutex> lock(mutex_);
  resync_source_ = std::move(source);
}

std::uint64_t LogShipper::min_acked_locked() const {
  std::uint64_t min_acked = next_seq_;
  for (const Standby& s : standbys_) {
    if (s.acked_seq < min_acked) min_acked = s.acked_seq;
  }
  return min_acked;
}

void LogShipper::update_lag_locked() {
  if (lag_gauge_) {
    lag_gauge_->set(static_cast<std::int64_t>(next_seq_ - min_acked_locked()));
  }
}

Status LogShipper::resync_locked(Standby& standby) {
  if (!resync_source_) {
    return failed_precondition_error("standby gap and no resync source for stream " +
                                     stream_);
  }
  auto full = resync_source_();
  if (!full.is_ok()) return full.status();
  SnapshotInstall snap;
  snap.stream = stream_;
  snap.epoch = epoch_;
  snap.next_seq = next_seq_;
  snap.bytes = std::move(full).value();
  snap.crc = crc32(snap.bytes);
  snap.leader_host = options_.leader_host;
  snap.leader_port = options_.leader_port;
  auto ack = standby.transport->snapshot(snap);
  if (!ack.is_ok()) return ack.status();
  standby.acked_seq = ack.value().next_seq;
  standby.missed_snapshot = false;
  ++stats_.snapshots_shipped;
  ++stats_.resyncs;
  return Status::ok();
}

Status LogShipper::ship_to_locked(Standby& standby) {
  if (standby.acked_seq >= next_seq_) return Status::ok();
  // Frames the standby needs that have already been trimmed (it joined or
  // fell behind past the retention window), or a snapshot it missed, force a
  // full resync.
  if (standby.acked_seq < frames_base_seq_ || standby.missed_snapshot) {
    return resync_locked(standby);
  }

  AppendBatch batch;
  batch.stream = stream_;
  batch.epoch = epoch_;
  batch.base_seq = standby.acked_seq;
  batch.records = next_seq_ - standby.acked_seq;
  const std::size_t first = static_cast<std::size_t>(standby.acked_seq - frames_base_seq_);
  for (std::size_t i = first; i < frames_.size(); ++i) batch.bytes += frames_[i];
  batch.crc = crc32(batch.bytes);
  batch.leader_host = options_.leader_host;
  batch.leader_port = options_.leader_port;

  auto ack = standby.transport->append(batch);
  if (!ack.is_ok()) {
    // A gap means this standby's log diverged from our frame window (e.g.
    // it restarted empty); heal it with a full-log install.
    if (ack.status().code() == StatusCode::kFailedPrecondition) {
      return resync_locked(standby);
    }
    return ack.status();
  }
  standby.acked_seq = ack.value().next_seq;
  ++stats_.batches_shipped;
  stats_.records_shipped += batch.records;
  if (batches_counter_) batches_counter_->inc();
  return Status::ok();
}

Status LogShipper::flush_locked() {
  Status result = Status::ok();
  for (Standby& standby : standbys_) {
    const Status s = ship_to_locked(standby);
    if (!s.is_ok()) {
      ++stats_.ship_failures;
      if (failures_counter_) failures_counter_->inc();
      if (s.code() == StatusCode::kNotPrimary) {
        deposed_ = true;
        GAE_LOG_WARN << "ha: shipper for '" << stream_
                     << "' deposed (standby reports newer epoch): " << s.message();
      }
      // NOT_PRIMARY outranks transport noise: the primary must stop.
      if (result.is_ok() || s.code() == StatusCode::kNotPrimary) result = s;
    }
  }
  const std::uint64_t min_acked = min_acked_locked();
  while (!frames_.empty() && frames_base_seq_ < min_acked) {
    buffered_bytes_ -= frames_.front().size();
    frames_.pop_front();
    ++frames_base_seq_;
  }
  return result;
}

Status LogShipper::ship_append(const std::string& frame_bytes) {
  std::function<void()> fire;
  Status result = Status::ok();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (deposed_) {
      return not_primary_error("deposed primary must not write stream " + stream_);
    }
    frames_.push_back(frame_bytes);
    buffered_bytes_ += frame_bytes.size();
    ++next_seq_;
    const bool flush_now = options_.mode == ReplicationMode::kSync ||
                           frames_.size() >= options_.batch_max_records ||
                           buffered_bytes_ >= options_.batch_max_bytes;
    if (flush_now) {
      result = flush_locked();
      if (deposed_ && on_deposed_) fire = on_deposed_;
    }
    update_lag_locked();
  }
  if (fire) fire();
  if (options_.mode == ReplicationMode::kSync) return result;
  // Async: buffered failures are retried at the next flush; only a deposal
  // must surface immediately so the old primary stops acknowledging.
  return result.code() == StatusCode::kNotPrimary ? result : Status::ok();
}

Status LogShipper::ship_replace(const std::string& log_bytes) {
  std::function<void()> fire;
  Status result = Status::ok();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (deposed_) {
      return not_primary_error("deposed primary must not write stream " + stream_);
    }
    // The snapshot subsumes every buffered frame.
    frames_.clear();
    buffered_bytes_ = 0;
    frames_base_seq_ = next_seq_;

    SnapshotInstall snap;
    snap.stream = stream_;
    snap.epoch = epoch_;
    snap.next_seq = next_seq_;
    snap.bytes = log_bytes;
    snap.crc = crc32(log_bytes);
    snap.leader_host = options_.leader_host;
    snap.leader_port = options_.leader_port;

    for (Standby& standby : standbys_) {
      auto ack = standby.transport->snapshot(snap);
      if (ack.is_ok()) {
        standby.acked_seq = ack.value().next_seq;
        standby.missed_snapshot = false;
        ++stats_.snapshots_shipped;
        continue;
      }
      standby.missed_snapshot = true;
      ++stats_.ship_failures;
      if (failures_counter_) failures_counter_->inc();
      if (ack.status().code() == StatusCode::kNotPrimary) deposed_ = true;
      if (result.is_ok() || ack.status().code() == StatusCode::kNotPrimary) {
        result = ack.status();
      }
    }
    if (deposed_ && on_deposed_) fire = on_deposed_;
    update_lag_locked();
  }
  if (fire) fire();
  return result;
}

Status LogShipper::flush() {
  std::function<void()> fire;
  Status result;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    result = flush_locked();
    if (deposed_ && on_deposed_) fire = on_deposed_;
    update_lag_locked();
  }
  if (fire) fire();
  return result;
}

bool LogShipper::deposed() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return deposed_;
}

void LogShipper::set_on_deposed(std::function<void()> fn) {
  std::lock_guard<std::mutex> lock(mutex_);
  on_deposed_ = std::move(fn);
}

std::uint64_t LogShipper::next_seq() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return next_seq_;
}

std::uint64_t LogShipper::acked_seq() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return min_acked_locked();
}

ShipperStats LogShipper::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

// --- ReplicatedWalStorage --------------------------------------------------

ReplicatedWalStorage::ReplicatedWalStorage(WalStorage* inner, LogShipper* shipper)
    : inner_(inner), shipper_(shipper) {
  shipper_->set_resync_source([inner] { return inner->read_all(); });
}

Status ReplicatedWalStorage::append(const std::string& bytes) {
  // Local durability first (the resync source must already contain this
  // frame if a gap-healing snapshot is triggered by the shipment below).
  const Status local = inner_->append(bytes);
  if (!local.is_ok()) return local;
  return shipper_->ship_append(bytes);
}

Status ReplicatedWalStorage::replace(const std::string& bytes) {
  const Status local = inner_->replace(bytes);
  if (!local.is_ok()) return local;
  return shipper_->ship_replace(bytes);
}

}  // namespace gae::ha
