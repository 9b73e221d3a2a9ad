// Hot-standby replication for WAL-backed services (paper §4, Backup &
// Recovery, extended from crash-restart to failover).
//
// A primary streams the exact bytes its common::Wal writes — one framed
// record per storage append — to one or more standbys, which apply them to
// their own WalStorage. Because the unit of shipment is the Wal frame, any
// service whose durability already goes through a Wal adopts replication by
// wrapping its storage in ReplicatedWalStorage; the service itself does not
// change. The adopters are all plain Wals: jobmon's DBManager, the estimator
// stores, and steering's recovery journal (a WalJournalSink over the Wal,
// decoded on a promoted standby by steering::journal_lines_from_wal).
//
// Consistency model: every batch is stamped with the primary's *epoch*, the
// fencing token granted by ServiceRegistry::acquire_primary. A standby
// rejects batches from any epoch older than the newest it has seen with
// NOT_PRIMARY, so a deposed primary that is alive but partitioned cannot
// corrupt state it no longer owns. In kSync mode ship_append() does not
// return until every standby has the record on its own storage — an
// acknowledged client write survives the loss of the primary. kAsync
// buffers and ships in batches, trading the tail of unshipped records for
// lower write latency.
//
// Batches carry an end-to-end CRC over the shipped bytes, checked by the
// standby *in addition to* the per-frame Wal CRCs, so a corrupting
// transport (or the hex codec the XML-RPC binding uses) cannot smuggle a
// damaged frame into a standby log.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/wal.h"
#include "telemetry/metrics.h"

namespace gae::ha {

/// Sync: an acknowledged write is durable on every standby before the
/// primary's append returns. Async: writes are buffered and shipped in
/// batches; a primary crash loses the unshipped tail.
enum class ReplicationMode { kSync, kAsync };

/// Lower-case hex codec: XML-RPC escapes only <>& so raw WAL bytes cannot
/// ride a string parameter; hex can.
std::string hex_encode(const std::string& bytes);
Result<std::string> hex_decode(const std::string& hex);

/// A standby's reply to append/snapshot/status: where it stands.
struct ReplicaAck {
  std::uint64_t epoch = 0;     // newest epoch the standby has seen
  std::uint64_t next_seq = 0;  // next record sequence it expects
};

/// One shipment: `records` consecutive Wal frames starting at `base_seq`,
/// concatenated into `bytes`, CRC'd end-to-end, stamped with the shipping
/// primary's epoch and address (the address becomes the standby's leader
/// hint for fenced-off callers).
struct AppendBatch {
  std::string stream;
  std::uint64_t epoch = 0;
  std::uint64_t base_seq = 0;
  std::uint64_t records = 0;
  std::string bytes;
  std::uint32_t crc = 0;
  std::string leader_host;
  std::uint16_t leader_port = 0;
};

/// Full-log resync: replaces the standby's storage wholesale. Shipped when
/// the primary snapshots (Wal::write_snapshot) and when a standby reports a
/// sequence gap it cannot fill from batches alone.
struct SnapshotInstall {
  std::string stream;
  std::uint64_t epoch = 0;
  std::uint64_t next_seq = 0;  // sequence state after installing `bytes`
  std::string bytes;
  std::uint32_t crc = 0;
  std::string leader_host;
  std::uint16_t leader_port = 0;
};

/// How shipped batches reach a standby — direct pointer for tests and the
/// failover bench, RPC for deployments (rpc_binding.h).
class ShipperTransport {
 public:
  virtual ~ShipperTransport() = default;
  virtual Result<ReplicaAck> append(const AppendBatch& batch) = 0;
  virtual Result<ReplicaAck> snapshot(const SnapshotInstall& snap) = 0;
  virtual Result<ReplicaAck> status(const std::string& stream) = 0;
  /// Pulls the standby's full log back — gap-resync in reverse, used by the
  /// self-healing repair path (storage/repair.h) when the *primary's* disk
  /// is the casualty. Defaulted so existing transports keep compiling;
  /// transports that can serve repair override it.
  virtual Result<SnapshotInstall> fetch(const std::string& stream) {
    return failed_precondition_error("transport cannot serve fetch: " + stream);
  }
};

/// The receiving half: applies shipped batches to its own WalStorage.
/// Thread-safe — RPC worker threads apply concurrently with a promotion.
class StandbyReplica {
 public:
  StandbyReplica(std::string stream, WalStorage* storage,
                 telemetry::MetricsRegistry* metrics = nullptr);

  const std::string& stream() const { return stream_; }

  /// Applies one batch. NOT_PRIMARY (with a leader hint) for stale epochs;
  /// INVALID_ARGUMENT for CRC or framing damage; FAILED_PRECONDITION for a
  /// sequence gap (the shipper answers with a snapshot). Batches that
  /// overlap already-applied sequences are idempotent — the applied prefix
  /// is skipped, never re-appended.
  Result<ReplicaAck> apply_append(const AppendBatch& batch);

  /// Replaces the standby log wholesale (primary snapshotted, or resync
  /// after a gap). Same epoch/CRC discipline as apply_append.
  Result<ReplicaAck> install_snapshot(const SnapshotInstall& snap);

  ReplicaAck status() const;

  /// Exports the standby's full log as a verified image (CRC stamped, epoch
  /// and next_seq filled in) — the donor side of primary repair. The caller
  /// re-verifies the CRC and per-frame framing before installing.
  Result<SnapshotInstall> export_log() const;

  /// Fences every epoch below `new_epoch`: called on promotion, after the
  /// standby replayed its log into live service state. FAILED_PRECONDITION
  /// unless the epoch strictly advances.
  Status promote(std::uint64_t new_epoch);

  std::uint64_t epoch() const;
  std::uint64_t next_seq() const;
  /// "host:port" of the primary whose batches this standby last accepted.
  std::string leader_hint() const;
  /// Batches rejected for carrying an epoch older than the newest seen.
  std::uint64_t stale_epoch_rejections() const;

 private:
  std::string stream_;
  WalStorage* storage_;
  mutable std::mutex mutex_;
  std::uint64_t epoch_ = 0;
  std::uint64_t next_seq_ = 0;
  std::string leader_hint_;
  std::uint64_t stale_epoch_rejections_ = 0;
  telemetry::Counter* rejections_counter_ = nullptr;
  telemetry::Gauge* next_seq_gauge_ = nullptr;
};

struct ShipperOptions {
  ReplicationMode mode = ReplicationMode::kSync;
  /// Async flush thresholds: a buffered batch ships once either is reached
  /// (or flush() is called). Sync mode ships every append immediately.
  std::size_t batch_max_records = 64;
  std::size_t batch_max_bytes = 64 * 1024;
  /// Stamped on every batch; becomes the standby's leader hint.
  std::string leader_host;
  std::uint16_t leader_port = 0;
  /// Keeps ha.<stream>.{replication_lag,epoch} gauges and shipment counters
  /// current. Must outlive the shipper.
  telemetry::MetricsRegistry* metrics = nullptr;
};

struct ShipperStats {
  std::uint64_t batches_shipped = 0;
  std::uint64_t records_shipped = 0;
  std::uint64_t snapshots_shipped = 0;
  std::uint64_t ship_failures = 0;
  /// Gap responses answered with a full-log resync.
  std::uint64_t resyncs = 0;
};

/// The sending half: assigns each appended frame a sequence number, batches
/// per mode, and ships to every standby, retaining frames until all
/// standbys acknowledge them. Thread-safe.
class LogShipper {
 public:
  explicit LogShipper(std::string stream, ShipperOptions options = {});

  const std::string& stream() const { return stream_; }

  void add_standby(ShipperTransport* transport);
  std::size_t standby_count() const;

  /// Fencing token stamped on every shipment (from acquire_primary).
  void set_epoch(std::uint64_t epoch);
  std::uint64_t epoch() const;

  /// Full-log source for gap resyncs (ReplicatedWalStorage wires this to
  /// its inner storage). Without one, a gap is a permanent ship failure.
  void set_resync_source(std::function<Result<std::string>()> source);

  /// Ships one Wal frame (`frame_bytes` must be exactly one encoded frame).
  /// Sync mode: returns only once every standby has it durably, and any
  /// standby's refusal fails the append — the caller must not acknowledge
  /// the write. Async: buffers and returns OK (failures surface in stats
  /// and on flush), except NOT_PRIMARY which always surfaces: a deposed
  /// primary must stop immediately, not at the next batch boundary.
  Status ship_append(const std::string& frame_bytes);

  /// Ships a full-log replacement (the primary snapshotted). Drops any
  /// buffered frames — the snapshot subsumes them.
  Status ship_replace(const std::string& log_bytes);

  /// Ships everything buffered (async mode's durability point).
  Status flush();

  /// True once any standby refused a shipment as NOT_PRIMARY: a newer
  /// epoch exists and this primary must stop writing.
  bool deposed() const;
  /// Runs (outside the shipper lock) when deposed flips true.
  void set_on_deposed(std::function<void()> fn);

  std::uint64_t next_seq() const;
  /// Lowest sequence every standby has acknowledged.
  std::uint64_t acked_seq() const;
  ShipperStats stats() const;

 private:
  struct Standby {
    ShipperTransport* transport = nullptr;
    std::uint64_t acked_seq = 0;
    /// A snapshot install failed: the standby's log no longer shares the
    /// primary's base, so its next shipment is a full-log resync.
    bool missed_snapshot = false;
  };

  /// Ships pending frames to every lagging standby. Lock held.
  Status flush_locked();
  Status ship_to_locked(Standby& standby);
  Status resync_locked(Standby& standby);
  std::uint64_t min_acked_locked() const;
  void update_lag_locked();
  void note_deposed_locked(std::function<void()>& fire);

  std::string stream_;
  ShipperOptions options_;
  mutable std::mutex mutex_;
  std::vector<Standby> standbys_;
  /// Frames not yet acknowledged by every standby; frames_[0] has sequence
  /// frames_base_seq_.
  std::deque<std::string> frames_;
  std::uint64_t frames_base_seq_ = 0;
  std::uint64_t next_seq_ = 0;
  std::size_t buffered_bytes_ = 0;
  std::uint64_t epoch_ = 0;
  bool deposed_ = false;
  std::function<void()> on_deposed_;
  std::function<Result<std::string>()> resync_source_;
  ShipperStats stats_;
  telemetry::Gauge* lag_gauge_ = nullptr;
  telemetry::Gauge* epoch_gauge_ = nullptr;
  telemetry::Counter* batches_counter_ = nullptr;
  telemetry::Counter* failures_counter_ = nullptr;
};

/// Test/bench transport: delivers straight into a StandbyReplica.
class LocalShipperTransport final : public ShipperTransport {
 public:
  explicit LocalShipperTransport(StandbyReplica* replica) : replica_(replica) {}

  Result<ReplicaAck> append(const AppendBatch& batch) override {
    return replica_->apply_append(batch);
  }
  Result<ReplicaAck> snapshot(const SnapshotInstall& snap) override {
    return replica_->install_snapshot(snap);
  }
  Result<ReplicaAck> status(const std::string&) override {
    return replica_->status();
  }
  Result<SnapshotInstall> fetch(const std::string&) override {
    return replica_->export_log();
  }

 private:
  StandbyReplica* replica_;
};

/// Drop-in WalStorage that replicates every append/replace through a
/// LogShipper. Wrap a service's real storage in one of these and the
/// service replicates without knowing it:
///
///   MemoryWalStorage inner;
///   LogShipper shipper("jobmon", {...});
///   ReplicatedWalStorage replicated(&inner, &shipper);
///   Wal wal(&replicated);            // hand to DBManager as usual
///
/// In sync mode a failed shipment fails the append, so the service never
/// acknowledges a write the standby does not hold.
class ReplicatedWalStorage final : public WalStorage {
 public:
  /// Wires `shipper`'s resync source to `inner` (a standby that reports a
  /// gap is healed with inner's full contents).
  ReplicatedWalStorage(WalStorage* inner, LogShipper* shipper);

  Status append(const std::string& bytes) override;
  Result<std::string> read_all() const override { return inner_->read_all(); }
  Status replace(const std::string& bytes) override;
  Status sync() override { return inner_->sync(); }
  bool writable() const override { return inner_->writable(); }
  void make_writable() override { inner_->make_writable(); }

 private:
  WalStorage* inner_;
  LogShipper* shipper_;
};

}  // namespace gae::ha
