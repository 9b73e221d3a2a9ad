// Write-ahead log edge cases and crash-consistent service state.
//
// The WAL half of the robustness layer: framing round-trips, torn tails,
// mid-log corruption, snapshot+truncate, and the recover() paths of the
// three adopters (jobmon DBManager, estimator database, task history).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>

#include "common/kvcodec.h"
#include "common/wal.h"
#include "estimators/estimate_db.h"
#include "estimators/history.h"
#include "jobmon/db_manager.h"
#include "monalisa/repository.h"

namespace gae {
namespace {

// ---------------------------------------------------------------------------
// CRC + kv codec
// ---------------------------------------------------------------------------

TEST(Crc32, MatchesKnownVectors) {
  // The classic IEEE 802.3 check value.
  EXPECT_EQ(crc32(std::string("123456789")), 0xCBF43926u);
  EXPECT_EQ(crc32(std::string("")), 0x00000000u);
  // Sensitive to every byte.
  EXPECT_NE(crc32(std::string("a")), crc32(std::string("b")));
}

TEST(KvCodec, RoundTripsAwkwardCharacters) {
  std::map<std::string, std::string> fields = {
      {"plain", "value"},
      {"spaces and = signs", "100% weird\nnewline\rcarriage"},
      {"empty", ""},
      {"tab\tkey", "vertical\vtab\fform feed"},
  };
  auto decoded = kv::decode(kv::encode(fields));
  ASSERT_TRUE(decoded.is_ok()) << decoded.status();
  EXPECT_EQ(decoded.value(), fields);
}

TEST(KvCodec, RejectsMalformedLine) {
  EXPECT_FALSE(kv::decode("no-equals-sign").is_ok());
  EXPECT_FALSE(kv::decode("bad%zzescape=1").is_ok());
}

// ---------------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------------

TEST(Wal, EmptyLogReadsAsEmpty) {
  MemoryWalStorage storage;
  Wal wal(&storage);
  auto read = wal.read();
  ASSERT_TRUE(read.is_ok()) << read.status();
  EXPECT_TRUE(read.value().records.empty());
  EXPECT_FALSE(read.value().torn_tail);
  EXPECT_FALSE(read.value().corrupt);
  EXPECT_EQ(read.value().replay_start(), 0u);
  EXPECT_EQ(read.value().snapshot_index(), WalReadResult::npos);
}

TEST(Wal, MissingFileReadsAsEmpty) {
  FileWalStorage storage(::testing::TempDir() + "gae_wal_never_written.wal");
  Wal wal(&storage);
  auto read = wal.read();
  ASSERT_TRUE(read.is_ok()) << read.status();
  EXPECT_TRUE(read.value().records.empty());
}

TEST(Wal, AppendsRoundTripInOrder) {
  MemoryWalStorage storage;
  Wal wal(&storage);
  const std::string binary("three\nwith\0binary", 17);  // embedded NUL
  ASSERT_TRUE(wal.append("one").is_ok());
  ASSERT_TRUE(wal.append("").is_ok());  // empty payloads are legal
  ASSERT_TRUE(wal.append(binary).is_ok());
  auto read = wal.read();
  ASSERT_TRUE(read.is_ok());
  ASSERT_EQ(read.value().records.size(), 3u);
  EXPECT_EQ(read.value().records[0].payload, "one");
  EXPECT_EQ(read.value().records[1].payload, "");
  EXPECT_EQ(read.value().records[2].payload, binary);
  EXPECT_EQ(read.value().valid_bytes, storage.bytes().size());
  EXPECT_EQ(wal.appends(), 3u);
}

TEST(Wal, SnapshotTruncatesAndReplayStartsAfterIt) {
  MemoryWalStorage storage;
  Wal wal(&storage);
  ASSERT_TRUE(wal.append("old-1").is_ok());
  ASSERT_TRUE(wal.append("old-2").is_ok());
  ASSERT_TRUE(wal.write_snapshot("state-at-2").is_ok());
  ASSERT_TRUE(wal.append("tail-1").is_ok());

  auto read = wal.read();
  ASSERT_TRUE(read.is_ok());
  const WalReadResult& log = read.value();
  ASSERT_EQ(log.records.size(), 2u);  // history truncated
  EXPECT_EQ(log.records[0].type, WalRecord::Type::kSnapshot);
  EXPECT_EQ(log.records[0].payload, "state-at-2");
  EXPECT_EQ(log.snapshot_index(), 0u);
  EXPECT_EQ(log.replay_start(), 0u);  // fold starts at the snapshot
  EXPECT_EQ(log.records[1].payload, "tail-1");
}

TEST(Wal, SnapshotWithEmptyTail) {
  MemoryWalStorage storage;
  Wal wal(&storage);
  ASSERT_TRUE(wal.append("x").is_ok());
  ASSERT_TRUE(wal.write_snapshot("snap").is_ok());

  auto read = wal.read();
  ASSERT_TRUE(read.is_ok());
  const WalReadResult& log = read.value();
  ASSERT_EQ(log.records.size(), 1u);
  EXPECT_EQ(log.snapshot_index(), 0u);
  EXPECT_EQ(log.replay_start(), 0u);
  EXPECT_FALSE(log.torn_tail);
  EXPECT_FALSE(log.corrupt);
}

TEST(Wal, TornTailIsDroppedSilently) {
  MemoryWalStorage storage;
  Wal wal(&storage);
  ASSERT_TRUE(wal.append("kept").is_ok());
  const std::size_t intact = storage.bytes().size();
  ASSERT_TRUE(wal.append("torn-away").is_ok());

  // Crash mid-append: every truncation point inside the second frame must
  // yield the same one-record prefix with torn_tail set.
  const std::string full = storage.bytes();
  for (std::size_t cut = intact + 1; cut < full.size(); ++cut) {
    WalReadResult log = Wal::decode(full.substr(0, cut));
    ASSERT_EQ(log.records.size(), 1u) << "cut at " << cut;
    EXPECT_EQ(log.records[0].payload, "kept");
    EXPECT_TRUE(log.torn_tail) << "cut at " << cut;
    EXPECT_FALSE(log.corrupt) << "cut at " << cut;
    EXPECT_EQ(log.valid_bytes, intact);
  }
}

TEST(Wal, CorruptMiddleRecordStopsReplayAndKeepsPrefix) {
  MemoryWalStorage storage;
  Wal wal(&storage);
  ASSERT_TRUE(wal.append("first").is_ok());
  const std::size_t first_end = storage.bytes().size();
  ASSERT_TRUE(wal.append("second").is_ok());
  ASSERT_TRUE(wal.append("third").is_ok());

  // Flip one payload byte inside the middle record (header is 9 bytes).
  storage.mutable_bytes()[first_end + 9] ^= 0x40;

  WalReadResult log = Wal::decode(storage.bytes());
  ASSERT_EQ(log.records.size(), 1u);
  EXPECT_EQ(log.records[0].payload, "first");
  EXPECT_TRUE(log.corrupt);
  EXPECT_FALSE(log.torn_tail);
  EXPECT_EQ(log.valid_bytes, first_end);
}

TEST(Wal, CorruptLengthFieldDoesNotOverread) {
  MemoryWalStorage storage;
  Wal wal(&storage);
  ASSERT_TRUE(wal.append("only").is_ok());
  // An absurd length in the header must read as a torn tail (frame extends
  // past the log), never as an out-of-bounds access.
  storage.mutable_bytes()[0] = static_cast<char>(0xFF);
  storage.mutable_bytes()[1] = static_cast<char>(0xFF);
  WalReadResult log = Wal::decode(storage.bytes());
  EXPECT_TRUE(log.records.empty());
  EXPECT_TRUE(log.torn_tail);
}

TEST(Wal, CorruptLengthPrefixMidLogIsCorruptionNotTornTail) {
  // Found by the DST seed sweep (dst_sweep --seed 546): bit rot in a
  // frame's length prefix inflates the length past end-of-log, which used
  // to read as a benign torn tail — recovery silently dropped every intact
  // frame behind the damage and the store was never quarantined, so a
  // promoted standby served a truncated view of acknowledged writes. Valid
  // frames after the lying length prefix prove it is corruption: a genuine
  // torn tail is the suffix of one partial append, with nothing decodable
  // behind it.
  MemoryWalStorage storage;
  Wal wal(&storage);
  ASSERT_TRUE(wal.append("first").is_ok());
  const std::size_t first_end = storage.bytes().size();
  ASSERT_TRUE(wal.append("second").is_ok());
  ASSERT_TRUE(wal.append("third").is_ok());

  // Flip a high bit in the second frame's length field.
  storage.mutable_bytes()[first_end + 2] ^= 0x40;

  WalReadResult log = Wal::decode(storage.bytes());
  ASSERT_EQ(log.records.size(), 1u);
  EXPECT_EQ(log.records[0].payload, "first");
  EXPECT_TRUE(log.corrupt);
  EXPECT_FALSE(log.torn_tail);
  EXPECT_EQ(log.valid_bytes, first_end);
}

TEST(Wal, FileStorageRoundTripsRecordLargerThanReadBuffer) {
  const std::string path = ::testing::TempDir() + "gae_wal_large_record.wal";
  std::remove(path.c_str());
  FileWalStorage storage(path);
  Wal wal(&storage);

  // read_all() streams through a 4096-byte buffer; this record spans many
  // buffer refills and must still round-trip bit-exactly.
  std::string big(100'000, '\0');
  for (std::size_t i = 0; i < big.size(); ++i) big[i] = static_cast<char>(i % 251);
  ASSERT_TRUE(wal.append("small-before").is_ok());
  ASSERT_TRUE(wal.append(big).is_ok());
  ASSERT_TRUE(wal.append("small-after").is_ok());

  auto read = wal.read();
  ASSERT_TRUE(read.is_ok()) << read.status();
  ASSERT_EQ(read.value().records.size(), 3u);
  EXPECT_EQ(read.value().records[1].payload, big);
  EXPECT_EQ(read.value().records[2].payload, "small-after");
  std::remove(path.c_str());
}

TEST(Wal, FileStorageReplaceIsEffective) {
  const std::string path = ::testing::TempDir() + "gae_wal_replace.wal";
  std::remove(path.c_str());
  FileWalStorage storage(path);
  Wal wal(&storage);
  ASSERT_TRUE(wal.append("before").is_ok());
  ASSERT_TRUE(wal.write_snapshot("snap").is_ok());
  auto read = wal.read();
  ASSERT_TRUE(read.is_ok());
  ASSERT_EQ(read.value().records.size(), 1u);
  EXPECT_EQ(read.value().records[0].payload, "snap");
  std::remove(path.c_str());
}

TEST(Wal, TornSnapshotFrameKeepsPriorRecords) {
  // A snapshot that tears mid-frame (possible only with a non-atomic replace)
  // must degrade to the pre-snapshot log prefix, never to an empty or corrupt
  // store. decode() treats the partial snapshot frame as a torn tail.
  MemoryWalStorage storage;
  Wal wal(&storage);
  ASSERT_TRUE(wal.append("rec-1").is_ok());
  ASSERT_TRUE(wal.append("rec-2").is_ok());
  const std::string pre_snapshot = storage.bytes();
  const std::string snap_frame =
      Wal::encode_frame(WalRecord::Type::kSnapshot, "folded-state");

  for (std::size_t cut = 1; cut < snap_frame.size(); ++cut) {
    WalReadResult log = Wal::decode(pre_snapshot + snap_frame.substr(0, cut));
    ASSERT_EQ(log.records.size(), 2u) << "cut at " << cut;
    EXPECT_EQ(log.records[1].payload, "rec-2");
    EXPECT_TRUE(log.torn_tail) << "cut at " << cut;
    EXPECT_EQ(log.replay_start(), 0u);  // fold replays the surviving prefix
  }
}

TEST(Wal, FileStorageReplaceSurvivesStaleTmpFromCrashedSnapshot) {
  // Crash window of save_snapshot(): the writer died after producing the
  // .tmp but before the rename. The live log must read back untouched, and
  // the next replace must succeed over the stale .tmp.
  const std::string path = ::testing::TempDir() + "gae_wal_torn_snap.wal";
  std::remove(path.c_str());
  std::remove((path + ".tmp").c_str());
  FileWalStorage storage(path);
  Wal wal(&storage);
  ASSERT_TRUE(wal.append("pre-crash-1").is_ok());
  ASSERT_TRUE(wal.append("pre-crash-2").is_ok());

  // Simulated crash artifact: a half-written snapshot frame in the tmp file.
  const std::string half =
      Wal::encode_frame(WalRecord::Type::kSnapshot, "half-written");
  std::FILE* tmp = std::fopen((path + ".tmp").c_str(), "wb");
  ASSERT_NE(tmp, nullptr);
  std::fwrite(half.data(), 1, half.size() / 2, tmp);
  std::fclose(tmp);

  // Recovery ignores the tmp entirely: the real log is intact.
  auto read = wal.read();
  ASSERT_TRUE(read.is_ok());
  ASSERT_EQ(read.value().records.size(), 2u);
  EXPECT_EQ(read.value().records[0].payload, "pre-crash-1");
  EXPECT_FALSE(read.value().torn_tail);

  // The next snapshot overwrites the stale tmp and lands atomically.
  ASSERT_TRUE(wal.write_snapshot("clean-state").is_ok());
  read = wal.read();
  ASSERT_TRUE(read.is_ok());
  ASSERT_EQ(read.value().records.size(), 1u);
  EXPECT_EQ(read.value().records[0].type, WalRecord::Type::kSnapshot);
  EXPECT_EQ(read.value().records[0].payload, "clean-state");
  std::remove(path.c_str());
  std::remove((path + ".tmp").c_str());
}

// ---------------------------------------------------------------------------
// DBManager crash-consistency
// ---------------------------------------------------------------------------

exec::TaskInfo make_info(const std::string& id, exec::TaskState state, double cpu) {
  exec::TaskInfo info;
  info.spec.id = id;
  info.spec.job_id = "job-1";
  info.spec.owner = "alice";
  info.spec.executable = "primes";
  info.spec.priority = 3;
  info.spec.input_files = {"a.root", "b;weird:name.root"};
  info.spec.attributes = {{"queue", "q=1"}, {"nodes", "2"}};
  info.spec.output_bytes = 42;
  info.spec.checkpointable = true;
  info.state = state;
  info.submit_time = from_seconds(1);
  info.start_time = from_seconds(2);
  info.cpu_seconds_used = cpu;
  info.progress = cpu / 100.0;
  info.queue_position = -1;
  info.node = "a0";
  info.input_bytes_transferred = 7;
  info.detail = "detail with spaces = and %";
  return info;
}

TEST(JobRecordCodec, RoundTripsEveryField) {
  jobmon::JobRecord rec;
  rec.info = make_info("t 1", exec::TaskState::kRunning, 12.5);
  rec.site = "site-a";
  rec.updated_at = from_seconds(30);

  auto decoded = jobmon::decode_job_record(jobmon::encode_job_record("t 1", rec));
  ASSERT_TRUE(decoded.is_ok()) << decoded.status();
  EXPECT_EQ(decoded.value().first, "t 1");
  const jobmon::JobRecord& out = decoded.value().second;
  EXPECT_EQ(out.site, "site-a");
  EXPECT_EQ(out.updated_at, from_seconds(30));
  EXPECT_EQ(out.info.spec.input_files, rec.info.spec.input_files);
  EXPECT_EQ(out.info.spec.attributes, rec.info.spec.attributes);
  EXPECT_EQ(out.info.detail, rec.info.detail);
  // The canonical line is stable: re-encoding reproduces it byte-for-byte.
  EXPECT_EQ(jobmon::encode_job_record("t 1", out),
            jobmon::encode_job_record("t 1", rec));
}

TEST(DBManagerWal, RecoverRebuildsSnapshotPlusTail) {
  MemoryWalStorage storage;
  Wal wal(&storage);
  jobmon::DBManager db(nullptr, &wal);
  db.update("t1", make_info("t1", exec::TaskState::kRunning, 10), "site-a",
            from_seconds(10));
  db.update("t2", make_info("t2", exec::TaskState::kQueued, 0), "site-b",
            from_seconds(11));
  ASSERT_TRUE(db.save_snapshot().is_ok());
  db.update("t1", make_info("t1", exec::TaskState::kCompleted, 100), "site-a",
            from_seconds(50));
  db.update("t3", make_info("t3", exec::TaskState::kStaging, 0), "site-b",
            from_seconds(51));
  const std::string pre_crash = db.export_state();

  // A fresh instance over the same log recovers the exact pre-crash bytes.
  jobmon::DBManager revived(nullptr, &wal);
  ASSERT_TRUE(revived.recover().is_ok());
  EXPECT_EQ(revived.export_state(), pre_crash);
  EXPECT_EQ(revived.size(), 3u);
  EXPECT_EQ(revived.get("t1").value().info.state, exec::TaskState::kCompleted);

  // recover(); recover() is a fixed point.
  ASSERT_TRUE(revived.recover().is_ok());
  EXPECT_EQ(revived.export_state(), pre_crash);
}

TEST(DBManagerWal, CompactionBoundsTheLog) {
  MemoryWalStorage storage;
  Wal wal(&storage);
  jobmon::DBManager db(nullptr, &wal);
  std::size_t largest = 0;
  for (int i = 0; i < 10'000; ++i) {
    const std::string id = "t" + std::to_string(i % 64);
    db.update(id, make_info(id, exec::TaskState::kRunning, i % 100), "site-a",
              from_seconds(i));
    largest = std::max(largest, storage.bytes().size());
  }
  // The log holds one snapshot plus a tail of at most kCompactRatio ×
  // max(snapshot, floor), and the tail's last frame may overshoot by one.
  const std::uint64_t bound =
      wal.snapshot_bytes() +
      jobmon::DBManager::kCompactRatio *
          std::max(wal.snapshot_bytes(), jobmon::DBManager::kCompactMinSnapshotBytes);
  EXPECT_GT(wal.snapshots(), 10u);
  EXPECT_LE(largest, bound + 1024);
  EXPECT_EQ(db.size(), 64u);
}

TEST(DBManagerWal, RecoverAfterCompactionIsByteIdentical) {
  MemoryWalStorage storage;
  Wal wal(&storage);
  jobmon::DBManager db(nullptr, &wal);
  int i = 0;
  for (; wal.snapshots() < 2 || wal.bytes_since_snapshot() == 0; ++i) {
    const std::string id = "t" + std::to_string(i % 64);
    db.update(id, make_info(id, exec::TaskState::kRunning, i % 100), "site-a",
              from_seconds(i));
  }
  Wal reopened(&storage);
  jobmon::DBManager revived(nullptr, &reopened);
  ASSERT_TRUE(revived.recover().is_ok());
  EXPECT_EQ(revived.export_state(), db.export_state());
  // recover() seeds the compaction counters from the log it read.
  EXPECT_EQ(reopened.snapshot_bytes(), wal.snapshot_bytes());
  EXPECT_EQ(reopened.bytes_since_snapshot(), wal.bytes_since_snapshot());
}

TEST(WalCounters, TrackTheTailSinceTheLastSnapshot) {
  MemoryWalStorage storage;
  Wal wal(&storage);
  ASSERT_TRUE(wal.append("a").is_ok());
  ASSERT_TRUE(wal.append("bcd").is_ok());
  EXPECT_EQ(wal.bytes_since_snapshot(), storage.bytes().size());
  EXPECT_EQ(wal.snapshot_bytes(), 0u);
  ASSERT_TRUE(wal.write_snapshot("snapshot").is_ok());
  EXPECT_EQ(wal.snapshot_bytes(), storage.bytes().size());
  EXPECT_EQ(wal.bytes_since_snapshot(), 0u);
  ASSERT_TRUE(wal.append("e").is_ok());
  const std::uint64_t tail = storage.bytes().size() - wal.snapshot_bytes();
  EXPECT_EQ(wal.bytes_since_snapshot(), tail);

  Wal reopened(&storage);
  ASSERT_TRUE(reopened.recover(nullptr).is_ok());
  EXPECT_EQ(reopened.snapshot_bytes(), wal.snapshot_bytes());
  EXPECT_EQ(reopened.bytes_since_snapshot(), tail);
}

TEST(DBManagerWal, RecoverToleratesTornTailAndKeepsPrefixOnCorruption) {
  MemoryWalStorage storage;
  Wal wal(&storage);
  jobmon::DBManager db(nullptr, &wal);
  db.update("t1", make_info("t1", exec::TaskState::kRunning, 1), "site-a",
            from_seconds(1));
  const std::string after_t1 = db.export_state();
  const std::size_t t1_bytes = storage.bytes().size();
  db.update("t2", make_info("t2", exec::TaskState::kRunning, 2), "site-a",
            from_seconds(2));

  // Torn tail: the t2 append was cut mid-write.
  std::string full = storage.bytes();
  storage.mutable_bytes() = full.substr(0, full.size() - 3);
  jobmon::DBManager torn(nullptr, &wal);
  ASSERT_TRUE(torn.recover().is_ok());
  EXPECT_EQ(torn.export_state(), after_t1);

  // Corruption inside t2's frame: replay stops there, t1 survives.
  storage.mutable_bytes() = full;
  storage.mutable_bytes()[t1_bytes + 9] ^= 0x01;
  jobmon::DBManager corrupted(nullptr, &wal);
  ASSERT_TRUE(corrupted.recover().is_ok());
  EXPECT_EQ(corrupted.export_state(), after_t1);
}

TEST(DBManagerWal, RecoverFromEmptyLogYieldsEmptyRepository) {
  MemoryWalStorage storage;
  Wal wal(&storage);
  jobmon::DBManager db(nullptr, &wal);
  db.update("stale", make_info("stale", exec::TaskState::kRunning, 1), "site-a",
            from_seconds(1));
  // recover() replaces in-memory state entirely — an empty log means an
  // empty repository, not a merge.
  storage.mutable_bytes().clear();
  ASSERT_TRUE(db.recover().is_ok());
  EXPECT_EQ(db.size(), 0u);
}

// ---------------------------------------------------------------------------
// EstimateDatabase + TaskHistoryStore crash-consistency
// ---------------------------------------------------------------------------

TEST(EstimateDbWal, RecoverReplaysPutsAndErases) {
  MemoryWalStorage storage;
  Wal wal(&storage);
  estimators::EstimateDatabase db(&wal);
  db.put("t1", 100.5);
  db.put("t2", 200.25);
  ASSERT_TRUE(db.save_snapshot().is_ok());
  db.put("t3", 1e-9);
  db.erase("t2");
  db.put("t1", 101.0);  // overwrite after snapshot
  const std::string pre_crash = db.export_state();

  estimators::EstimateDatabase revived(&wal);
  ASSERT_TRUE(revived.recover().is_ok());
  EXPECT_EQ(revived.export_state(), pre_crash);
  EXPECT_FALSE(revived.has("t2"));
  EXPECT_DOUBLE_EQ(revived.get("t1").value(), 101.0);
  EXPECT_DOUBLE_EQ(revived.get("t3").value(), 1e-9);

  ASSERT_TRUE(revived.recover().is_ok());  // idempotent
  EXPECT_EQ(revived.export_state(), pre_crash);
}

TEST(HistoryWal, RecoverReappliesTrimming) {
  MemoryWalStorage storage;
  Wal wal(&storage);
  estimators::TaskHistoryStore store(/*max_entries=*/3);
  store.attach_wal(&wal);
  for (int i = 0; i < 5; ++i) {
    estimators::HistoryEntry e;
    e.runtime_seconds = 100.0 + i;
    e.recorded_at = from_seconds(i);
    e.attributes = {{"executable", "primes"}, {"n", std::to_string(i)}};
    store.add(std::move(e));
  }
  ASSERT_EQ(store.size(), 3u);  // trimmed live
  const std::string pre_crash = store.export_state();

  estimators::TaskHistoryStore revived(/*max_entries=*/3);
  revived.attach_wal(&wal);
  ASSERT_TRUE(revived.recover().is_ok());
  EXPECT_EQ(revived.export_state(), pre_crash);
  EXPECT_DOUBLE_EQ(revived.entries().front().runtime_seconds, 102.0);

  // Snapshot compacts; a second recovery still lands on the same bytes.
  ASSERT_TRUE(revived.save_snapshot().is_ok());
  ASSERT_TRUE(revived.recover().is_ok());
  EXPECT_EQ(revived.export_state(), pre_crash);
}

TEST(HistoryWal, SnapshotThenTailRecovers) {
  MemoryWalStorage storage;
  Wal wal(&storage);
  estimators::TaskHistoryStore store;
  store.attach_wal(&wal);
  estimators::HistoryEntry e;
  e.runtime_seconds = 283.0;
  store.add(e);
  ASSERT_TRUE(store.save_snapshot().is_ok());
  e.runtime_seconds = 290.0;
  store.add(e);

  estimators::TaskHistoryStore revived;
  revived.attach_wal(&wal);
  ASSERT_TRUE(revived.recover().is_ok());
  ASSERT_EQ(revived.size(), 2u);
  EXPECT_DOUBLE_EQ(revived.entries()[1].runtime_seconds, 290.0);
  EXPECT_EQ(revived.export_state(), store.export_state());
}

}  // namespace
}  // namespace gae
