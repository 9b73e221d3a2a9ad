#include "common/wal.h"

#include <array>
#include <cstdio>
#include <cstring>

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <unistd.h>
#define GAE_WAL_HAVE_FSYNC 1
#endif

namespace gae {

namespace {

std::array<std::uint32_t, 256> make_crc_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    table[i] = c;
  }
  return table;
}

// Frame layout: [u32 payload length][u32 crc of type+payload][u8 type][payload],
// all integers little-endian so logs are portable across hosts.
constexpr std::size_t kHeaderBytes = 4 + 4 + 1;

void put_u32(std::string& out, std::uint32_t v) {
  out.push_back(static_cast<char>(v & 0xFF));
  out.push_back(static_cast<char>((v >> 8) & 0xFF));
  out.push_back(static_cast<char>((v >> 16) & 0xFF));
  out.push_back(static_cast<char>((v >> 24) & 0xFF));
}

std::uint32_t get_u32(const std::string& in, std::size_t at) {
  return static_cast<std::uint32_t>(static_cast<unsigned char>(in[at])) |
         static_cast<std::uint32_t>(static_cast<unsigned char>(in[at + 1])) << 8 |
         static_cast<std::uint32_t>(static_cast<unsigned char>(in[at + 2])) << 16 |
         static_cast<std::uint32_t>(static_cast<unsigned char>(in[at + 3])) << 24;
}

// The checksum covers type + payload so a flipped type byte also fails CRC.
std::uint32_t frame_crc(WalRecord::Type type, const std::string& payload) {
  std::string buf;
  buf.reserve(payload.size() + 1);
  buf.push_back(static_cast<char>(type));
  buf += payload;
  return crc32(buf);
}

// True when any well-formed frame (fitting length, known type, matching
// CRC) starts at or after `from`. A genuine torn tail is the suffix of one
// partial append — random payload bytes that validate as a frame with
// probability ~2^-32 — so a hit here means an earlier length prefix is
// lying, not that the file ended mid-write.
bool contains_valid_frame(const std::string& bytes, std::size_t from) {
  for (std::size_t at = from; at + kHeaderBytes <= bytes.size(); ++at) {
    const std::uint32_t len = get_u32(bytes, at);
    if (bytes.size() - at - kHeaderBytes < len) continue;
    const auto type_byte = static_cast<unsigned char>(bytes[at + 8]);
    if (type_byte > static_cast<unsigned char>(WalRecord::Type::kSnapshot)) continue;
    if (crc32(bytes.data() + at + 8, len + 1) == get_u32(bytes, at + 4)) return true;
  }
  return false;
}

}  // namespace

std::uint32_t crc32(const void* data, std::size_t size) {
  static const std::array<std::uint32_t, 256> table = make_crc_table();
  std::uint32_t c = 0xFFFFFFFFu;
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) c = table[(c ^ p[i]) & 0xFF] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

Status MemoryWalStorage::append(const std::string& bytes) {
  bytes_ += bytes;
  return Status::ok();
}

Result<std::string> MemoryWalStorage::read_all() const { return bytes_; }

Status MemoryWalStorage::replace(const std::string& bytes) {
  bytes_ = bytes;
  return Status::ok();
}

Status FileWalStorage::append(const std::string& bytes) {
  if (!writable()) {
    return failed_precondition_error("wal storage latched read-only: " + path_);
  }
  std::FILE* f = std::fopen(path_.c_str(), "ab");
  if (!f) return unavailable_error("cannot open wal for append: " + path_);
  const std::size_t n = std::fwrite(bytes.data(), 1, bytes.size(), f);
  const bool flushed = std::fflush(f) == 0;
  const bool closed = std::fclose(f) == 0;
  if (n != bytes.size()) {
    // ENOSPC (or an I/O error) mid-frame: a torn tail is on media. Latch
    // read-only so the next append cannot bury the tear mid-log, where
    // recovery would drop everything behind it.
    writable_.store(false, std::memory_order_release);
    return resource_exhausted_error("short wal append (storage latched): wrote " +
                                    std::to_string(n) + " of " +
                                    std::to_string(bytes.size()) + " bytes: " + path_);
  }
  if (!flushed || !closed) {
    // fsyncgate: after a failed flush the kernel may have dropped the dirty
    // pages; what is on media is unknowable, so stop writing past it.
    writable_.store(false, std::memory_order_release);
    return internal_error("wal append flush failed (storage latched): " + path_);
  }
  return Status::ok();
}

Result<std::string> FileWalStorage::read_all() const {
  std::FILE* f = std::fopen(path_.c_str(), "rb");
  if (!f) return std::string();  // no log yet: an empty history, not an error
  std::string out;
  char buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) out.append(buf, n);
  std::fclose(f);
  return out;
}

namespace {

/// Flushes a stdio stream to stable storage where the platform allows.
Status flush_to_disk(std::FILE* f, const std::string& path) {
  if (std::fflush(f) != 0) return internal_error("wal flush failed: " + path);
#ifdef GAE_WAL_HAVE_FSYNC
  if (::fsync(::fileno(f)) != 0) return internal_error("wal fsync failed: " + path);
#endif
  return Status::ok();
}

/// Best-effort fsync of the directory holding `path`, so the rename that
/// published a new log survives power loss too. Failure is not fatal — some
/// filesystems refuse directory fsync — but the data-file fsync above
/// already bounds the damage to "old log still present".
void sync_parent_dir(const std::string& path) {
#ifdef GAE_WAL_HAVE_FSYNC
  const std::size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos ? "." : path.substr(0, slash);
  const int fd = ::open(dir.c_str(), O_RDONLY);
  if (fd >= 0) {
    ::fsync(fd);
    ::close(fd);
  }
#else
  (void)path;
#endif
}

}  // namespace

Status FileWalStorage::sync() {
  // Appends go through short-lived fopen("ab") handles that are flushed and
  // closed per call; syncing re-opens the log and fsyncs its contents.
#ifdef GAE_WAL_HAVE_FSYNC
  const int fd = ::open(path_.c_str(), O_RDONLY);
  if (fd < 0) return Status::ok();  // no log yet: nothing to sync
  const int rc = ::fsync(fd);
  ::close(fd);
  if (rc != 0) {
    // A failed fsync is not transient: the kernel may already have thrown
    // away the dirty pages it could not write. Latch (fsyncgate).
    writable_.store(false, std::memory_order_release);
    return internal_error("wal fsync failed (storage latched): " + path_);
  }
#endif
  return Status::ok();
}

Status FileWalStorage::replace(const std::string& bytes) {
  // Snapshot + truncation must be atomic: write the new log to a temp file,
  // force it to stable storage, then rename() over the old log. A crash
  // before the rename leaves the old log intact (the stale .tmp is simply
  // overwritten by the next replace); a crash after it leaves the complete
  // new log — the fsync ordered the data before the publish.
  const std::string tmp = path_ + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (!f) return unavailable_error("cannot open wal tmp: " + tmp);
  const std::size_t n = std::fwrite(bytes.data(), 1, bytes.size(), f);
  if (n != bytes.size()) {
    std::fclose(f);
    return internal_error("short wal tmp write: " + tmp);
  }
  const Status flushed = flush_to_disk(f, tmp);
  const bool closed = std::fclose(f) == 0;
  if (!flushed.is_ok()) return flushed;
  if (!closed) return internal_error("wal tmp close failed: " + tmp);
  if (std::rename(tmp.c_str(), path_.c_str()) != 0) {
    return internal_error("wal rename failed: " + tmp + " -> " + path_);
  }
  sync_parent_dir(path_);
  // The whole file was rewritten and published atomically: whatever torn or
  // unsyncable tail latched the storage is gone, so writes may resume.
  writable_.store(true, std::memory_order_release);
  return Status::ok();
}

std::size_t WalReadResult::snapshot_index() const {
  for (std::size_t i = records.size(); i-- > 0;) {
    if (records[i].type == WalRecord::Type::kSnapshot) return i;
  }
  return npos;
}

std::size_t WalReadResult::replay_start() const {
  const std::size_t snap = snapshot_index();
  return snap == npos ? 0 : snap;
}

std::string Wal::encode_frame(WalRecord::Type type, const std::string& payload) {
  std::string frame;
  frame.reserve(kHeaderBytes + payload.size());
  put_u32(frame, static_cast<std::uint32_t>(payload.size()));
  put_u32(frame, frame_crc(type, payload));
  frame.push_back(static_cast<char>(type));
  frame += payload;
  return frame;
}

WalReadResult Wal::decode(const std::string& bytes) {
  WalReadResult result;
  std::size_t at = 0;
  while (at < bytes.size()) {
    if (bytes.size() - at < kHeaderBytes) {
      result.torn_tail = true;
      break;
    }
    const std::uint32_t len = get_u32(bytes, at);
    const std::uint32_t crc = get_u32(bytes, at + 4);
    if (bytes.size() - at - kHeaderBytes < len) {
      // An incomplete final frame is the normal crash artifact — but only
      // when nothing decodable follows it. A corrupted length prefix lands
      // here too (the inflated length runs past end-of-log), and calling
      // that a torn tail would silently drop every intact frame behind the
      // damage without quarantining the store. If the "torn" region still
      // contains a well-formed frame, the length field is lying: that is
      // corruption, and recovery must say so.
      if (contains_valid_frame(bytes, at + 1)) {
        result.corrupt = true;
      } else {
        result.torn_tail = true;
      }
      break;
    }
    // Type byte and payload are contiguous on the wire; checksum both.
    if (crc32(bytes.data() + at + 8, len + 1) != crc) {
      result.corrupt = true;
      break;
    }
    const auto type_byte = static_cast<unsigned char>(bytes[at + 8]);
    if (type_byte > static_cast<unsigned char>(WalRecord::Type::kSnapshot)) {
      result.corrupt = true;  // unknown type: written by a future version
      break;
    }
    WalRecord rec;
    rec.type = static_cast<WalRecord::Type>(type_byte);
    rec.payload = bytes.substr(at + kHeaderBytes, len);
    at += kHeaderBytes + len;
    result.valid_bytes = at;
    result.records.push_back(std::move(rec));
  }
  return result;
}

Status Wal::append(const std::string& payload) {
  if (!storage_) return failed_precondition_error("wal has no storage");
  const std::string frame = encode_frame(WalRecord::Type::kRecord, payload);
  const Status s = storage_->append(frame);
  if (s.is_ok()) {
    ++appends_;
    bytes_since_snapshot_ += frame.size();
  }
  return s;
}

Status Wal::write_snapshot(const std::string& payload) {
  if (!storage_) return failed_precondition_error("wal has no storage");
  const std::string frame = encode_frame(WalRecord::Type::kSnapshot, payload);
  const Status s = storage_->replace(frame);
  if (s.is_ok()) {
    ++snapshots_;
    snapshot_bytes_ = frame.size();
    bytes_since_snapshot_ = 0;
  }
  return s;
}

Result<WalReadResult> Wal::read() const {
  if (!storage_) return failed_precondition_error("wal has no storage");
  auto bytes = storage_->read_all();
  if (!bytes.is_ok()) return bytes.status();
  return decode(bytes.value());
}

Result<WalReadResult> Wal::recover(RecoverStats* stats) {
  if (!storage_) return failed_precondition_error("wal has no storage");
  auto bytes = storage_->read_all();
  if (!bytes.is_ok()) return bytes.status();
  WalReadResult result = decode(bytes.value());
  const std::size_t snap = result.snapshot_index();
  snapshot_bytes_ = 0;
  bytes_since_snapshot_ = 0;
  for (std::size_t i = 0; i < result.records.size(); ++i) {
    const std::uint64_t frame = kHeaderBytes + result.records[i].payload.size();
    if (i == snap) snapshot_bytes_ = frame;
    if (snap == WalReadResult::npos || i > snap) bytes_since_snapshot_ += frame;
  }
  if (stats) {
    stats->frames_kept = result.records.size();
    stats->corrupt_frames = result.corrupt ? 1 : 0;
    stats->bytes_truncated = bytes.value().size() - result.valid_bytes;
    stats->torn_tail = result.torn_tail;
    stats->corrupt = result.corrupt;
  }
  return result;
}

}  // namespace gae
