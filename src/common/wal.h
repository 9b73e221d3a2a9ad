// Reusable write-ahead log: the crash-consistency primitive behind the
// Backup & Recovery component (paper §4) generalised for any service state.
//
// A Wal frames opaque payloads as length + CRC32 records over a pluggable
// byte store: memory for tests/simulation, a file for a real deployment,
// ha::ReplicatedWalStorage to ship every frame to a hot standby. It is the
// one durability path of jobmon, the estimator stores and steering's
// recovery journal. Reads are torn-tail tolerant: an incomplete final frame
// (the normal crash artifact) is dropped silently, while a CRC mismatch
// mid-log stops replay at the corruption point and keeps the valid prefix.
// write_snapshot() atomically replaces the log with one snapshot record —
// periodic snapshot + log truncation in one step — and replay folds from
// the last snapshot forward.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"

namespace gae {

/// CRC-32 (IEEE 802.3, polynomial 0xEDB88320), the framing checksum.
std::uint32_t crc32(const void* data, std::size_t size);
inline std::uint32_t crc32(const std::string& s) { return crc32(s.data(), s.size()); }

/// Byte-level storage a Wal frames records into. Implementations must make
/// append() durable enough for their deployment and replace() atomic (a
/// crash during replace leaves either the old or the new contents).
class WalStorage {
 public:
  virtual ~WalStorage() = default;

  virtual Status append(const std::string& bytes) = 0;
  virtual Result<std::string> read_all() const = 0;
  /// Atomically replaces the whole log (snapshot + truncation). A crash at
  /// any instant during replace() must leave either the complete old
  /// contents or the complete new contents — never a torn mix; replay of a
  /// torn snapshot would silently drop the entire history behind it.
  /// Because it rewrites the whole medium, a successful replace() clears any
  /// read-only latch (see writable()) — it is the repair path.
  virtual Status replace(const std::string& bytes) = 0;
  /// Flushes buffered writes to stable storage (fsync-equivalent). No-op for
  /// storages with nothing to flush.
  virtual Status sync() { return Status::ok(); }

  /// False once the storage has latched itself read-only after a write
  /// fault (short write, failed flush/fsync). Following fsyncgate
  /// semantics, a failed fsync leaves the on-media tail unknowable, so
  /// appends are refused until replace() rewrites the log wholesale (or
  /// make_writable() is called after out-of-band repair).
  virtual bool writable() const { return true; }
  /// Clears the read-only latch. Only legitimate after the contents have
  /// been re-established out of band; prefer replace(), which does both.
  virtual void make_writable() {}
};

/// In-memory storage for tests and simulation runs.
class MemoryWalStorage final : public WalStorage {
 public:
  Status append(const std::string& bytes) override;
  Result<std::string> read_all() const override;
  Status replace(const std::string& bytes) override;

  const std::string& bytes() const { return bytes_; }
  std::string& mutable_bytes() { return bytes_; }  // tests corrupt this

 private:
  std::string bytes_;
};

/// File-backed storage; appends are flushed so a crash loses at most the
/// record being written, and replace() writes a temp file, fsyncs it, and
/// rename()s it over the log — a crash anywhere in that sequence leaves the
/// complete old log (rename never ran) or the complete new one (rename is
/// atomic), closing the snapshot-then-truncate crash window. read_all()
/// streams through a fixed buffer, so records larger than the buffer still
/// round-trip.
///
/// A short write (ENOSPC mid-frame) or failed flush/fsync latches the
/// storage read-only: the tail on media is torn or unknowable, and blindly
/// appending past it would bury the damage mid-log where recovery drops
/// everything after it. A successful replace() re-establishes the whole
/// file and clears the latch.
class FileWalStorage final : public WalStorage {
 public:
  explicit FileWalStorage(std::string path) : path_(std::move(path)) {}

  Status append(const std::string& bytes) override;
  Result<std::string> read_all() const override;
  Status replace(const std::string& bytes) override;
  Status sync() override;
  bool writable() const override { return writable_.load(std::memory_order_acquire); }
  void make_writable() override { writable_.store(true, std::memory_order_release); }

  const std::string& path() const { return path_; }

 private:
  std::string path_;
  std::atomic<bool> writable_{true};
};

/// One decoded frame.
struct WalRecord {
  enum class Type : std::uint8_t { kRecord = 0, kSnapshot = 1 };
  Type type = Type::kRecord;
  std::string payload;
};

/// Result of decoding a log: the valid prefix plus how the tail ended.
struct WalReadResult {
  std::vector<WalRecord> records;
  /// Incomplete final frame dropped (normal after a crash mid-append).
  bool torn_tail = false;
  /// CRC mismatch stopped replay early (everything before it is kept).
  bool corrupt = false;
  /// Bytes consumed by the valid prefix.
  std::size_t valid_bytes = 0;

  /// Index of the first record replay should fold from: just after the last
  /// snapshot, or 0 when the log holds none. The snapshot itself (when
  /// present) is records[snapshot_index()].
  std::size_t replay_start() const;
  /// Index of the last snapshot record, or npos when there is none.
  std::size_t snapshot_index() const;

  static constexpr std::size_t npos = static_cast<std::size_t>(-1);
};

/// What recovery dropped, so callers can report damage instead of silently
/// keeping the valid prefix (storage::StoreHealth::note_recover publishes
/// these as wal.<stream>.recover.* metrics).
struct RecoverStats {
  /// Frames in the valid prefix replay folds over.
  std::size_t frames_kept = 0;
  /// Damaged frames detected. Decoding stops at the first CRC mismatch, so
  /// this is 0 or 1; anything behind the damage is unframeable and counts
  /// toward bytes_truncated instead.
  std::size_t corrupt_frames = 0;
  /// Bytes past the valid prefix that replay dropped (torn tail and/or
  /// everything from the first corrupt frame on).
  std::size_t bytes_truncated = 0;
  /// Incomplete final frame dropped (the normal crash artifact).
  bool torn_tail = false;
  /// A CRC mismatch stopped replay early.
  bool corrupt = false;

  bool clean() const { return !torn_tail && !corrupt; }
};

/// Append-only log of framed records over a WalStorage.
class Wal {
 public:
  explicit Wal(WalStorage* storage) : storage_(storage) {}

  /// Appends one framed record. INTERNAL/UNAVAILABLE on storage failure.
  Status append(const std::string& payload);

  /// Replaces the log with a single snapshot record (truncates history).
  Status write_snapshot(const std::string& payload);

  /// Decodes the whole log, torn-tail tolerant (see WalReadResult).
  Result<WalReadResult> read() const;

  /// read() plus an accounting of what was dropped: fills `stats` (when
  /// non-null) with the kept/truncated breakdown so recovery paths can
  /// surface damage instead of swallowing it. Also seeds
  /// bytes_since_snapshot() and snapshot_bytes() from the valid prefix.
  Result<WalReadResult> recover(RecoverStats* stats);

  /// Frames a record the way append() does (exposed for tests).
  static std::string encode_frame(WalRecord::Type type, const std::string& payload);
  /// Decodes a byte string of frames (pure; read() uses this).
  static WalReadResult decode(const std::string& bytes);

  std::uint64_t appends() const { return appends_; }
  std::uint64_t snapshots() const { return snapshots_; }
  /// Framed bytes appended since the last snapshot (since the log began
  /// when it has none) — the tail a compaction would fold away.
  std::uint64_t bytes_since_snapshot() const { return bytes_since_snapshot_; }
  /// Framed size of the last snapshot, 0 when there is none.
  std::uint64_t snapshot_bytes() const { return snapshot_bytes_; }

 private:
  WalStorage* storage_;
  std::uint64_t appends_ = 0;
  std::uint64_t snapshots_ = 0;
  std::uint64_t bytes_since_snapshot_ = 0;
  std::uint64_t snapshot_bytes_ = 0;
};

}  // namespace gae
