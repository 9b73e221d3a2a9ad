// Deterministic storage-fault injection for chaos tests and benches: the
// disk-side twin of rpc::FaultyTransport (rpc/faulty_transport.h).
//
// FaultyWalStorage decorates any WalStorage and misbehaves on schedule:
// tear an append short (crash/ENOSPC mid-frame), fail the durability flush
// (fsyncgate), refuse a read, rot a byte at rest, or fail a replace. Which
// fault hits which operation is decided by a scripted plan first and a
// seeded RNG after, so a failing chaos run replays bit-for-bit from its
// seed — the same schedule discipline as FaultyTransport, which decorates
// the rpc::Transport seam the same way.
//
// Latch semantics mirror FileWalStorage: any fault that leaves the media
// tail torn or unknowable (torn append, ENOSPC, failed fsync) latches the
// storage read-only; appends are refused until replace() rewrites the log
// wholesale (the repair path) or make_writable() is called.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "common/wal.h"

namespace gae::storage {

enum class StorageFaultKind {
  kNone = 0,
  /// Append lands only a prefix of the frame on media, then errors and
  /// latches — the torn-tail crash artifact, made injectable.
  kTornAppend,
  /// Device full mid-frame: prefix lands, RESOURCE_EXHAUSTED, latches.
  kEnospc,
  /// The flush that would make the write durable fails. The bytes are on
  /// media (page cache made it) but durability is unknowable: latches.
  kFsyncFail,
  /// read_all() fails UNAVAILABLE once (transient medium error).
  kReadError,
  /// The byte at `offset` reads back flipped from now on (at-rest rot;
  /// survives until replace() rewrites the media).
  kBitRot,
  /// replace() fails UNAVAILABLE; inner contents untouched.
  kReplaceFail,
};

const char* storage_fault_kind_name(StorageFaultKind kind);

struct StorageFaultSpec {
  StorageFaultKind kind = StorageFaultKind::kNone;
  /// kTornAppend/kEnospc: bytes of the append that land (0 = half the frame).
  std::size_t after_bytes = 0;
  /// kBitRot: absolute byte offset into the log (taken mod its size).
  std::size_t offset = 0;
  /// kBitRot: which bits flip.
  std::uint8_t xor_mask = 0x01;
};

/// Which operations misbehave. Operation i (0-based, counted across
/// append/replace/sync/read_all in call order) takes script[i] while the
/// script lasts; afterwards each operation draws a fault with probability
/// `fault_rate` from `random_kinds`, seeded. A drawn fault that does not
/// apply to the operation at hand (e.g. kReadError on an append) is a no-op,
/// which keeps schedules deterministic without per-op-kind bookkeeping.
struct StorageFaultPlan {
  std::vector<StorageFaultSpec> script;
  double fault_rate = 0.0;
  std::uint64_t seed = 1;
  std::vector<StorageFaultKind> random_kinds = {StorageFaultKind::kTornAppend,
                                                StorageFaultKind::kFsyncFail,
                                                StorageFaultKind::kBitRot};
};

class FaultyWalStorage final : public WalStorage {
 public:
  explicit FaultyWalStorage(WalStorage* inner, StorageFaultPlan plan = {});

  Status append(const std::string& bytes) override;
  Result<std::string> read_all() const override;
  Status replace(const std::string& bytes) override;
  Status sync() override;
  bool writable() const override;
  void make_writable() override;

  /// Direct at-rest corruption (tests and the scrub bench use this to place
  /// damage precisely): byte at `offset` (mod log size) reads back XOR'd
  /// with `mask` until replace() rewrites the media.
  void rot_byte(std::size_t offset, std::uint8_t mask = 0x01);
  /// Drops all injected rot (as if the medium were rewritten).
  void clear_rot();
  /// Forces the read-only latch (as if an earlier fsync had failed).
  void force_latch();

  std::uint64_t ops_seen() const;
  std::uint64_t faults_injected() const;
  /// Faults actually applied, per kind name — assertions and bench reports.
  std::map<std::string, std::uint64_t> fault_counts() const;

 private:
  /// Draws the fault for the current operation; advances the schedule.
  StorageFaultSpec next_fault_locked() const;
  void count_fault_locked(StorageFaultKind kind) const;
  Result<std::string> read_inner_locked() const;

  WalStorage* inner_;
  StorageFaultPlan plan_;
  mutable std::mutex mutex_;
  mutable Rng rng_;
  mutable std::uint64_t op_index_ = 0;
  bool latched_ = false;
  /// offset -> xor mask applied on every read (at-rest rot).
  mutable std::map<std::size_t, std::uint8_t> rot_;
  mutable std::uint64_t faults_ = 0;
  mutable std::map<std::string, std::uint64_t> fault_counts_;
};

}  // namespace gae::storage
