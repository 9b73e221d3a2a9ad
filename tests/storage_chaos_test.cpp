// Storage-fault resilience under chaos: seeded disk-fault injection
// (torn/short appends, fsync failures, ENOSPC, bit rot), background
// integrity scrubbing, degraded-mode gating, and self-healing repair from a
// hot standby. The headline invariants: the scrubber detects every injected
// corruption, a damaged store quarantines instead of serving poisoned
// reads, repair restores byte-equality with the standby, and no
// acknowledged write is ever lost.
#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "clarens/host.h"
#include "common/clock.h"
#include "common/rng.h"
#include "common/wal.h"
#include "estimators/estimate_db.h"
#include "ha/replication.h"
#include "ha/rpc_binding.h"
#include "jobmon/db_manager.h"
#include "rpc/client.h"
#include "steering/journal.h"
#include "storage/faulty_storage.h"
#include "storage/health.h"
#include "storage/repair.h"
#include "storage/scrubber.h"
#include "supervision/supervisor.h"
#include "telemetry/metrics.h"

namespace gae {
namespace {

using ha::LocalShipperTransport;
using ha::LogShipper;
using ha::ReplicatedWalStorage;
using ha::StandbyReplica;
using storage::FaultyWalStorage;
using storage::Scrubber;
using storage::ScrubVerdict;
using storage::StorageFaultKind;
using storage::StorageFaultPlan;
using storage::StorageFaultSpec;
using storage::StoreHealth;
using storage::StoreState;

exec::TaskInfo make_task(const std::string& id, double progress) {
  exec::TaskInfo info;
  info.spec.id = id;
  info.spec.owner = "alice";
  info.spec.work_seconds = 100.0;
  info.state = exec::TaskState::kRunning;
  info.progress = progress;
  info.cpu_seconds_used = progress * 100.0;
  return info;
}

StorageFaultSpec fault(StorageFaultKind kind) {
  StorageFaultSpec spec;
  spec.kind = kind;
  return spec;
}

// --- FaultyWalStorage ------------------------------------------------------

TEST(FaultyStorage, TornAppendLatchesAndLeavesTornTail) {
  MemoryWalStorage inner;
  StorageFaultPlan plan;
  plan.script = {fault(StorageFaultKind::kNone), fault(StorageFaultKind::kTornAppend)};
  FaultyWalStorage faulty(&inner, plan);
  Wal wal(&faulty);

  ASSERT_TRUE(wal.append("alpha").is_ok());
  const Status torn = wal.append("beta");
  EXPECT_EQ(torn.code(), StatusCode::kInternal);
  EXPECT_FALSE(faulty.writable());

  // Appends are refused while latched — blindly writing past a torn tail
  // would bury the damage mid-log.
  EXPECT_EQ(wal.append("gamma").code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(wal.appends(), 1u);

  // The torn half-frame is visible to decode as the usual crash artifact.
  auto read = wal.read();
  ASSERT_TRUE(read.is_ok());
  EXPECT_TRUE(read.value().torn_tail);
  ASSERT_EQ(read.value().records.size(), 1u);
  EXPECT_EQ(read.value().records[0].payload, "alpha");

  // replace() rewrites the media wholesale and clears the latch.
  ASSERT_TRUE(wal.write_snapshot("state").is_ok());
  EXPECT_TRUE(faulty.writable());
  EXPECT_TRUE(wal.append("delta").is_ok());
}

TEST(FaultyStorage, EnospcSurfacesResourceExhausted) {
  MemoryWalStorage inner;
  StorageFaultPlan plan;
  plan.script = {fault(StorageFaultKind::kEnospc)};
  FaultyWalStorage faulty(&inner, plan);
  Wal wal(&faulty);

  EXPECT_EQ(wal.append("payload").code(), StatusCode::kResourceExhausted);
  EXPECT_FALSE(faulty.writable());
  EXPECT_EQ(faulty.fault_counts()["enospc"], 1u);
}

TEST(FaultyStorage, FsyncFailureLatchesEvenThoughBytesLanded) {
  MemoryWalStorage inner;
  StorageFaultPlan plan;
  plan.script = {fault(StorageFaultKind::kFsyncFail)};
  FaultyWalStorage faulty(&inner, plan);
  Wal wal(&faulty);

  // fsyncgate: the frame reached the page cache, but the flush that would
  // make it durable failed — the on-media tail is unknowable.
  EXPECT_EQ(wal.append("maybe-durable").code(), StatusCode::kInternal);
  EXPECT_FALSE(faulty.writable());
  EXPECT_EQ(wal.append("after").code(), StatusCode::kFailedPrecondition);
}

TEST(FaultyStorage, BitRotCorruptsReadsUntilReplace) {
  MemoryWalStorage inner;
  FaultyWalStorage faulty(&inner, {});
  Wal wal(&faulty);
  ASSERT_TRUE(wal.append("stable payload").is_ok());

  auto clean = wal.read();
  ASSERT_TRUE(clean.is_ok());
  EXPECT_FALSE(clean.value().corrupt);

  faulty.rot_byte(12);  // lands inside the frame
  auto rotten = wal.read();
  ASSERT_TRUE(rotten.is_ok());
  EXPECT_TRUE(rotten.value().corrupt || rotten.value().torn_tail);
  EXPECT_TRUE(rotten.value().records.empty());

  // The inner media is untouched — rot is applied at read time, as at-rest
  // damage would be.
  EXPECT_FALSE(Wal::decode(inner.bytes()).corrupt);

  ASSERT_TRUE(faulty.replace(inner.bytes()).is_ok());
  auto healed = wal.read();
  ASSERT_TRUE(healed.is_ok());
  EXPECT_FALSE(healed.value().corrupt);
  ASSERT_EQ(healed.value().records.size(), 1u);
}

TEST(FaultyStorage, SeededScheduleReplaysDeterministically) {
  // Trace every op's outcome (status code + observed log size), not just
  // aggregate fault counts — two seeds can collide on totals while the
  // schedules differ op by op.
  auto run = [](std::uint64_t seed) {
    MemoryWalStorage inner;
    StorageFaultPlan plan;
    plan.fault_rate = 0.3;
    plan.seed = seed;
    FaultyWalStorage faulty(&inner, plan);
    std::string trace;
    for (int i = 0; i < 50; ++i) {
      const Status s = faulty.append("frame-" + std::to_string(i));
      trace += std::to_string(static_cast<int>(s.code())) + ":";
      if (!faulty.writable()) (void)faulty.replace("");
      auto bytes = faulty.read_all();
      trace += bytes.is_ok() ? std::to_string(bytes.value().size()) : "err";
      trace += ";";
    }
    EXPECT_GT(faulty.faults_injected(), 0u);  // the schedule actually fired
    return trace;
  };
  EXPECT_EQ(run(42), run(42));
  EXPECT_NE(run(42), run(1043));  // and depends on the seed
}

// --- FileWalStorage short-write handling -----------------------------------

TEST(FileWal, FullDeviceLatchesStorageReadOnly) {
  // /dev/full fails every flush with ENOSPC; skip where absent.
  std::FILE* probe = std::fopen("/dev/full", "ab");
  if (!probe) GTEST_SKIP() << "/dev/full not available";
  std::fclose(probe);

  FileWalStorage storage("/dev/full");
  EXPECT_TRUE(storage.writable());
  const Status s = storage.append(std::string(4096, 'x'));
  EXPECT_FALSE(s.is_ok());
  EXPECT_FALSE(storage.writable());
  EXPECT_EQ(storage.append("more").code(), StatusCode::kFailedPrecondition);
  storage.make_writable();  // out-of-band release for cleanliness
}

TEST(FileWal, ReplaceClearsLatchAfterShortWrite) {
  const std::string path = ::testing::TempDir() + "/gae_storage_chaos_wal.log";
  std::remove(path.c_str());
  FileWalStorage storage(path);
  Wal wal(&storage);
  ASSERT_TRUE(wal.append("one").is_ok());

  // Simulate a latched write path (the injectable twin of a short write).
  storage.make_writable();  // no-op, already writable
  FaultyWalStorage faulty(&storage, {});
  faulty.force_latch();
  EXPECT_FALSE(faulty.writable());

  Wal through(&faulty);
  ASSERT_TRUE(through.write_snapshot("compacted").is_ok());
  EXPECT_TRUE(faulty.writable());
  EXPECT_TRUE(storage.writable());
  std::remove(path.c_str());
}

// --- RecoverStats ----------------------------------------------------------

TEST(RecoverStats, TornTailIsCountedButNotQuarantined) {
  MemoryWalStorage store;
  Wal wal(&store);
  ASSERT_TRUE(wal.append("first").is_ok());
  ASSERT_TRUE(wal.append("second").is_ok());
  const std::size_t full = store.bytes().size();
  store.mutable_bytes().resize(full - 3);  // tear the final frame

  telemetry::MetricsRegistry metrics;
  StoreHealth health("jobmon", &metrics);
  RecoverStats stats;
  auto read = wal.recover(&stats);
  ASSERT_TRUE(read.is_ok());
  EXPECT_TRUE(stats.torn_tail);
  EXPECT_FALSE(stats.corrupt);
  EXPECT_EQ(stats.frames_kept, 1u);
  EXPECT_EQ(stats.corrupt_frames, 0u);
  EXPECT_GT(stats.bytes_truncated, 0u);

  health.note_recover(stats);
  EXPECT_EQ(health.state(), StoreState::kHealthy);  // normal crash artifact
  EXPECT_EQ(metrics.counter("wal.jobmon.recover.bytes_truncated").value(),
            stats.bytes_truncated);
}

TEST(RecoverStats, MidLogCorruptionQuarantinesThroughHealth) {
  MemoryWalStorage store;
  Wal wal(&store);
  ASSERT_TRUE(wal.append("first").is_ok());
  ASSERT_TRUE(wal.append("second").is_ok());
  store.mutable_bytes()[store.bytes().size() - 2] ^= 0x10;  // rot frame 2

  telemetry::MetricsRegistry metrics;
  StoreHealth health("jobmon", &metrics);
  RecoverStats stats;
  auto read = wal.recover(&stats);
  ASSERT_TRUE(read.is_ok());
  EXPECT_TRUE(stats.corrupt);
  EXPECT_EQ(stats.frames_kept, 1u);
  EXPECT_EQ(stats.corrupt_frames, 1u);
  EXPECT_FALSE(stats.clean());

  health.note_recover(stats);
  EXPECT_EQ(health.state(), StoreState::kQuarantined);
  EXPECT_EQ(metrics.counter("wal.jobmon.recover.corrupt_frames").value(), 1u);
}

// --- StoreHealth -----------------------------------------------------------

TEST(StoreHealth, QuarantineOutranksReadOnlyAndFiresCallback) {
  telemetry::MetricsRegistry metrics;
  StoreHealth health("est", &metrics);
  std::vector<StoreState> seen;
  health.set_on_change([&seen](StoreState s) { seen.push_back(s); });

  EXPECT_TRUE(health.writable());
  health.mark_read_only("fsync failed");
  EXPECT_FALSE(health.writable());
  EXPECT_TRUE(health.readable());

  health.quarantine("scrub found corruption");
  EXPECT_FALSE(health.readable());
  health.mark_read_only("late latch");  // lesser state must not demote
  EXPECT_EQ(health.state(), StoreState::kQuarantined);

  health.mark_healthy();
  EXPECT_TRUE(health.writable());
  ASSERT_EQ(seen.size(), 3u);
  EXPECT_EQ(seen[0], StoreState::kReadOnly);
  EXPECT_EQ(seen[1], StoreState::kQuarantined);
  EXPECT_EQ(seen[2], StoreState::kHealthy);
  EXPECT_EQ(health.quarantines(), 1u);
  EXPECT_EQ(metrics.gauge("storage.est.state").value(), 0);
}

// --- Scrubber --------------------------------------------------------------

TEST(Scrubber, DetectsRotQuarantinesAndRefusesPoisonedReads) {
  ManualClock clock;
  telemetry::MetricsRegistry metrics;
  MemoryWalStorage inner;
  FaultyWalStorage faulty(&inner, {});
  Wal wal(&faulty);
  StoreHealth health("jobmon", &metrics);
  jobmon::DBManager db(nullptr, &wal);
  db.attach_health(&health);

  for (int i = 0; i < 5; ++i) {
    const std::string id = "t" + std::to_string(i);
    db.update(id, make_task(id, 0.2 * i), "site-a", from_seconds(i));
  }
  ASSERT_TRUE(db.get("t3").is_ok());

  storage::ScrubberOptions options;
  options.metrics = &metrics;
  Scrubber scrubber(clock, options);
  scrubber.add_target({"jobmon", &faulty, &health});

  auto clean = scrubber.scrub("jobmon");
  ASSERT_TRUE(clean.is_ok());
  EXPECT_EQ(clean.value().verdict, ScrubVerdict::kClean);
  EXPECT_EQ(clean.value().frames, 5u);
  EXPECT_EQ(health.state(), StoreState::kHealthy);

  faulty.rot_byte(inner.bytes().size() / 2);
  auto rotten = scrubber.scrub("jobmon");
  ASSERT_TRUE(rotten.is_ok());
  EXPECT_NE(rotten.value().verdict, ScrubVerdict::kClean);
  EXPECT_EQ(health.state(), StoreState::kQuarantined);

  // A quarantined store refuses reads instead of serving a poisoned view.
  EXPECT_EQ(db.get("t3").status().code(), StatusCode::kUnavailable);
  // And drops mutations (nothing may fork memory from a rotten log).
  db.update("t9", make_task("t9", 0.9), "site-a", from_seconds(99));
  EXPECT_EQ(wal.appends(), 5u);

  EXPECT_GE(metrics.counter("wal.jobmon.scrub.corrupt").value(), 1u);
  EXPECT_GE(metrics.counter("wal.jobmon.scrub.frames").value(), 5u);
}

TEST(Scrubber, TickHonoursCadenceAndByteBudget) {
  ManualClock clock;
  MemoryWalStorage store_a, store_b;
  Wal wal_a(&store_a), wal_b(&store_b);
  ASSERT_TRUE(wal_a.append(std::string(600, 'a')).is_ok());
  ASSERT_TRUE(wal_b.append(std::string(600, 'b')).is_ok());

  storage::ScrubberOptions options;
  options.interval = from_seconds(5);
  options.max_bytes_per_tick = 256;  // one log exhausts the budget
  telemetry::MetricsRegistry metrics;
  options.metrics = &metrics;
  Scrubber scrubber(clock, options);
  scrubber.add_target({"a", &store_a, nullptr});
  scrubber.add_target({"b", &store_b, nullptr});

  EXPECT_EQ(scrubber.tick(), 1u);  // budget stops after the first
  EXPECT_EQ(scrubber.tick(), 1u);  // the other is still due
  EXPECT_EQ(scrubber.tick(), 0u);  // neither is due again yet
  clock.advance_by(from_seconds(6));
  EXPECT_EQ(scrubber.tick(), 1u);  // oldest-first rotation resumes
  const telemetry::MetricsSnapshot snap = metrics.snapshot();
  EXPECT_EQ(snap.counter_sum("wal.", ".scrub.runs"), 3u);
  EXPECT_EQ(snap.counter_sum("wal.", ".scrub.corrupt"), 0u);
}

// --- Degraded-mode gating in the estimator stores --------------------------

TEST(EstimateDatabase, DegradedModeDropsWritesAndRefusesQuarantinedReads) {
  MemoryWalStorage store;
  Wal wal(&store);
  StoreHealth health("est");
  estimators::EstimateDatabase db(&wal);
  db.attach_health(&health);

  db.put("t1", 120.0);
  ASSERT_TRUE(db.get("t1").is_ok());

  health.mark_read_only("latched");
  db.put("t2", 60.0);                      // dropped
  db.erase("t1");                          // dropped
  EXPECT_TRUE(db.get("t1").is_ok());       // reads still fine
  EXPECT_FALSE(db.has("t2"));
  EXPECT_EQ(wal.appends(), 1u);

  health.quarantine("scrub");
  EXPECT_EQ(db.get("t1").status().code(), StatusCode::kUnavailable);

  health.mark_healthy();
  db.put("t2", 60.0);
  EXPECT_TRUE(db.get("t2").is_ok());
}

// --- Supervisor crash-loop quarantine --------------------------------------

TEST(Supervisor, CrashLoopQuarantinesUntilExplicitRelease) {
  ManualClock clock;
  telemetry::MetricsRegistry metrics;
  supervision::SupervisorOptions options;
  options.restart_backoff.initial_backoff_ms = 100;
  options.restart_backoff.backoff_multiplier = 1.0;
  options.crash_loop_restarts = 3;
  options.crash_loop_window = from_seconds(60);
  supervision::Supervisor supervisor(clock, options, nullptr, &metrics);

  int restarts = 0;
  supervisor.manage({"flappy", [&restarts]() {
                       ++restarts;
                       return Status::ok();
                     }});

  // Each restart "succeeds" but the service dies again: a crash loop.
  for (int i = 0; i < 3; ++i) {
    supervisor.on_service_dead("flappy");
    clock.advance_by(from_millis(200));
    EXPECT_EQ(supervisor.tick(), 1u);
  }
  EXPECT_EQ(restarts, 3);

  // The fourth death inside the window trips the breaker at tick time.
  supervisor.on_service_dead("flappy");
  clock.advance_by(from_millis(200));
  EXPECT_EQ(supervisor.tick(), 0u);
  EXPECT_TRUE(supervisor.quarantined("flappy"));
  EXPECT_EQ(restarts, 3);  // the parked recipe did not run
  EXPECT_EQ(metrics.counter("supervision.quarantined").value(), 1u);
  EXPECT_EQ(metrics.counter("supervision.flappy.quarantined").value(), 1u);

  // Death verdicts are ignored while parked.
  supervisor.on_service_dead("flappy");
  EXPECT_FALSE(supervisor.restart_pending("flappy"));

  // release() is the only way back.
  EXPECT_EQ(supervisor.release("missing").code(), StatusCode::kNotFound);
  ASSERT_TRUE(supervisor.release("flappy").is_ok());
  EXPECT_FALSE(supervisor.quarantined("flappy"));
  supervisor.on_service_dead("flappy");
  clock.advance_by(from_millis(200));
  EXPECT_EQ(supervisor.tick(), 1u);
  EXPECT_EQ(restarts, 4);
}

// --- Repair from standby ---------------------------------------------------

struct JobmonPair {
  ManualClock clock;
  telemetry::MetricsRegistry metrics;
  MemoryWalStorage primary_media;
  FaultyWalStorage faulty{&primary_media, {}};
  MemoryWalStorage standby_media;
  StandbyReplica replica{"jobmon", &standby_media};
  LocalShipperTransport transport{&replica};
  LogShipper shipper{"jobmon", {}};
  ReplicatedWalStorage replicated{&faulty, &shipper};
  Wal wal{&replicated};
  StoreHealth health{"jobmon", &metrics};
  jobmon::DBManager db{nullptr, &wal};

  JobmonPair() {
    shipper.add_standby(&transport);
    shipper.set_epoch(1);
    db.attach_health(&health);
  }

  void write(int count, int base = 0) {
    for (int i = 0; i < count; ++i) {
      const std::string id = "t" + std::to_string(base + i);
      db.update(id, make_task(id, 0.1 * (i % 10)), "site-a",
                from_seconds(base + i));
    }
  }
};

TEST(Repair, RestoresByteEqualityFromStandby) {
  JobmonPair rig;
  rig.write(10);
  ASSERT_EQ(rig.standby_media.bytes(), rig.primary_media.bytes());

  // Rot the primary's media and let the scrubber find it.
  storage::ScrubberOptions scrub_options;
  scrub_options.metrics = &rig.metrics;
  Scrubber scrubber(rig.clock, scrub_options);
  scrubber.add_target({"jobmon", &rig.faulty, &rig.health});
  rig.faulty.rot_byte(40, 0x20);
  ASSERT_NE(scrubber.scrub("jobmon").value().verdict, ScrubVerdict::kClean);
  ASSERT_EQ(rig.health.state(), StoreState::kQuarantined);

  storage::RepairOptions repair;
  repair.stream = "jobmon";
  repair.storage = &rig.faulty;
  repair.source = &rig.transport;
  repair.health = &rig.health;
  repair.scrubber = &scrubber;
  repair.replay = [&rig]() { return rig.db.recover(); };
  repair.metrics = &rig.metrics;
  repair.clock = &rig.clock;

  auto report = storage::repair_from_standby(repair);
  ASSERT_TRUE(report.is_ok()) << report.status();
  EXPECT_EQ(report.value().frames, 10u);
  EXPECT_EQ(rig.primary_media.bytes(), rig.standby_media.bytes());
  EXPECT_EQ(rig.health.state(), StoreState::kHealthy);
  EXPECT_TRUE(rig.faulty.writable());

  // The repaired store serves reads and accepts writes again.
  EXPECT_TRUE(rig.db.get("t3").is_ok());
  rig.write(1, 10);
  EXPECT_TRUE(rig.db.get("t10").is_ok());
  EXPECT_EQ(rig.metrics.counter("wal.jobmon.scrub.repaired").value(), 1u);
  EXPECT_EQ(rig.metrics.counter("storage.jobmon.repairs").value(), 1u);
}

TEST(Repair, RefusesDamagedDonorImage) {
  JobmonPair rig;
  rig.write(5);
  // Damage the *standby*: export verification must refuse to donate.
  rig.standby_media.mutable_bytes()[10] ^= 0x40;

  storage::RepairOptions repair;
  repair.stream = "jobmon";
  repair.storage = &rig.faulty;
  repair.source = &rig.transport;
  auto report = storage::repair_from_standby(repair);
  EXPECT_FALSE(report.is_ok());
  // The local log was not touched by the failed repair.
  EXPECT_EQ(Wal::decode(rig.primary_media.bytes()).records.size(), 5u);
}

// Flaky transport: fetch fails N times before delegating — repair must ride
// the supervisor's backoff until the standby is reachable.
class FlakyTransport final : public ha::ShipperTransport {
 public:
  FlakyTransport(ha::ShipperTransport* inner, int failures)
      : inner_(inner), failures_(failures) {}

  Result<ha::ReplicaAck> append(const ha::AppendBatch& b) override {
    return inner_->append(b);
  }
  Result<ha::ReplicaAck> snapshot(const ha::SnapshotInstall& s) override {
    return inner_->snapshot(s);
  }
  Result<ha::ReplicaAck> status(const std::string& s) override {
    return inner_->status(s);
  }
  Result<ha::SnapshotInstall> fetch(const std::string& stream) override {
    if (failures_ > 0) {
      --failures_;
      return unavailable_error("standby unreachable");
    }
    return inner_->fetch(stream);
  }

 private:
  ha::ShipperTransport* inner_;
  int failures_;
};

TEST(Repair, RecipeArmedOnQuarantineRetriesUntilStandbyReachable) {
  JobmonPair rig;
  rig.write(8);

  storage::ScrubberOptions scrub_options;
  Scrubber scrubber(rig.clock, scrub_options);
  scrubber.add_target({"jobmon", &rig.faulty, &rig.health});

  FlakyTransport flaky(&rig.transport, /*failures=*/2);
  storage::RepairOptions repair;
  repair.stream = "jobmon";
  repair.storage = &rig.faulty;
  repair.source = &flaky;
  repair.health = &rig.health;
  repair.scrubber = &scrubber;
  repair.replay = [&rig]() { return rig.db.recover(); };
  repair.clock = &rig.clock;

  supervision::SupervisorOptions sup_options;
  sup_options.restart_backoff.initial_backoff_ms = 500;
  sup_options.restart_backoff.backoff_multiplier = 2.0;
  supervision::Supervisor supervisor(rig.clock, sup_options, nullptr, &rig.metrics);
  supervisor.manage(storage::make_repair_recipe("jobmon-repair", repair));
  storage::arm_repair_on_quarantine(rig.health, supervisor, "jobmon-repair");

  // Corruption found -> quarantine -> repair scheduled automatically.
  rig.faulty.rot_byte(25);
  ASSERT_NE(scrubber.scrub("jobmon").value().verdict, ScrubVerdict::kClean);
  EXPECT_TRUE(supervisor.restart_pending("jobmon-repair"));

  // Two attempts fail against the unreachable standby; the third lands.
  std::size_t repaired = 0;
  for (int i = 0; i < 12 && repaired == 0; ++i) {
    rig.clock.advance_by(from_millis(600));
    repaired = supervisor.tick();
  }
  EXPECT_EQ(repaired, 1u);
  EXPECT_EQ(rig.health.state(), StoreState::kHealthy);
  EXPECT_EQ(rig.primary_media.bytes(), rig.standby_media.bytes());
  EXPECT_GE(rig.metrics.counter("supervision.restarts_failed").value(), 2u);
}

// --- Byte-flip property sweep ----------------------------------------------

// Every single-byte flip over a small WAL (snapshot + record frames) must be
// detected: decode never crashes, never yields a record that was not in the
// golden log, and the scrub verdict is never clean. Repair then restores
// byte-equality with the standby oracle.
TEST(ByteFlipProperty, EveryFlipDetectedRepairRestoresOracle) {
  // Golden log: 2 records, a snapshot, 2 more records — both frame types.
  MemoryWalStorage golden_store;
  Wal golden_wal(&golden_store);
  jobmon::DBManager golden_db(nullptr, &golden_wal);
  golden_db.update("t0", make_task("t0", 0.1), "site-a", from_seconds(0));
  golden_db.update("t1", make_task("t1", 0.2), "site-a", from_seconds(1));
  ASSERT_TRUE(golden_db.save_snapshot().is_ok());
  golden_db.update("t2", make_task("t2", 0.3), "site-b", from_seconds(2));
  golden_db.update("t3", make_task("t3", 0.4), "site-b", from_seconds(3));
  const std::string golden = golden_store.bytes();
  const WalReadResult golden_decoded = Wal::decode(golden);
  ASSERT_FALSE(golden_decoded.corrupt);
  ASSERT_EQ(golden_decoded.records.size(), 3u);  // snapshot + 2 records

  ManualClock clock;
  for (std::size_t pos = 0; pos < golden.size(); ++pos) {
    std::string flipped = golden;
    flipped[pos] ^= 0x01;

    // Decode never crashes and never fabricates a frame: every surviving
    // record is byte-identical to a golden record (CRC32 catches any
    // single-bit error inside a frame).
    const WalReadResult decoded = Wal::decode(flipped);
    EXPECT_TRUE(decoded.corrupt || decoded.torn_tail)
        << "flip at " << pos << " went undetected";
    ASSERT_LE(decoded.records.size(), golden_decoded.records.size());
    for (std::size_t i = 0; i < decoded.records.size(); ++i) {
      EXPECT_EQ(decoded.records[i].payload, golden_decoded.records[i].payload)
          << "poisoned payload surfaced for flip at " << pos;
    }

    // The scrubber sees the same damage and quarantines.
    MemoryWalStorage damaged;
    ASSERT_TRUE(damaged.replace(flipped).is_ok());
    StoreHealth health("flip");
    Scrubber scrubber(clock, {});
    scrubber.add_target({"flip", &damaged, &health});
    auto report = scrubber.scrub("flip");
    ASSERT_TRUE(report.is_ok());
    EXPECT_NE(report.value().verdict, ScrubVerdict::kClean);
    EXPECT_EQ(health.state(), StoreState::kQuarantined);

    // Repair from a standby holding the golden log restores byte-equality.
    StandbyReplica oracle("flip", &golden_store);
    LocalShipperTransport donor(&oracle);
    storage::RepairOptions repair;
    repair.stream = "flip";
    repair.storage = &damaged;
    repair.source = &donor;
    repair.health = &health;
    auto fixed = storage::repair_from_standby(repair);
    ASSERT_TRUE(fixed.is_ok()) << "flip at " << pos << ": " << fixed.status();
    EXPECT_EQ(damaged.bytes(), golden);
    EXPECT_EQ(health.state(), StoreState::kHealthy);
  }
}

// --- End-to-end seeded chaos -----------------------------------------------

// A live jobmon primary with one sync standby, under a seeded schedule of
// torn writes, fsync failures and bit rot. The scrubber detects every
// injected corruption, the store quarantines instead of serving poisoned
// reads, repair-from-standby (armed on quarantine, driven by the
// supervisor) restores byte-equal state, and no acknowledged write is lost.
TEST(StorageChaos, SeededFaultScheduleLosesNoAckedWrite) {
  const std::uint64_t kSeed = 20260808;
  JobmonPair rig;

  storage::ScrubberOptions scrub_options;
  scrub_options.interval = from_seconds(1);
  scrub_options.metrics = &rig.metrics;
  Scrubber scrubber(rig.clock, scrub_options);
  scrubber.add_target({"jobmon", &rig.faulty, &rig.health});

  storage::RepairOptions repair;
  repair.stream = "jobmon";
  repair.storage = &rig.faulty;
  repair.source = &rig.transport;
  repair.health = &rig.health;
  repair.scrubber = &scrubber;
  repair.replay = [&rig]() { return rig.db.recover(); };
  repair.metrics = &rig.metrics;
  repair.clock = &rig.clock;

  supervision::SupervisorOptions sup_options;
  sup_options.restart_backoff.initial_backoff_ms = 200;
  supervision::Supervisor supervisor(rig.clock, sup_options);
  supervisor.manage(storage::make_repair_recipe("jobmon-repair", repair));
  storage::arm_repair_on_quarantine(rig.health, supervisor, "jobmon-repair");

  // Oracle: the last acknowledged state per task. An update is acked iff
  // its WAL append succeeded (Wal::appends() advances only on success; in
  // sync replication success implies the standby holds the frame).
  std::map<std::string, jobmon::JobRecord> acked;
  Rng chaos(kSeed);
  std::uint64_t injected_rots = 0;

  for (int step = 0; step < 400; ++step) {
    // Scripted disk mischief, seeded: rot a byte at rest every so often,
    // latch the write path through an injected fault occasionally.
    if (chaos.bernoulli(0.04) && !rig.primary_media.bytes().empty()) {
      rig.faulty.rot_byte(static_cast<std::size_t>(chaos.uniform_int(
          0, static_cast<std::int64_t>(rig.primary_media.bytes().size()) - 1)));
      ++injected_rots;
    }
    if (chaos.bernoulli(0.03)) rig.faulty.force_latch();

    const std::string id = "t" + std::to_string(step % 25);
    const exec::TaskInfo info = make_task(id, 0.01 * (step % 100));
    const std::uint64_t before = rig.wal.appends();
    rig.db.update(id, info, "site-a", from_seconds(step));
    if (rig.wal.appends() > before) {
      jobmon::JobRecord rec;
      rec.info = info;
      rec.site = "site-a";
      rec.updated_at = from_seconds(step);
      acked[id] = rec;
    }

    // A latched-but-not-quarantined store still needs healing: surface the
    // latch through health so the repair recipe covers it too.
    if (!rig.faulty.writable() && rig.health.state() == StoreState::kHealthy) {
      rig.health.mark_read_only("storage latched");
      rig.health.quarantine("latched media needs standby resync");
    }

    // Control plane: scrub cadence + supervised repair, on virtual time.
    rig.clock.advance_by(from_millis(300));
    scrubber.tick();
    supervisor.tick();
  }

  // Drain: let any in-flight repair land.
  for (int i = 0; i < 20 && rig.health.state() != StoreState::kHealthy; ++i) {
    rig.clock.advance_by(from_millis(500));
    scrubber.tick();
    supervisor.tick();
  }
  ASSERT_EQ(rig.health.state(), StoreState::kHealthy);
  EXPECT_GT(injected_rots, 0u);
  EXPECT_GE(rig.metrics.counter("wal.jobmon.scrub.corrupt").value(), 1u);
  EXPECT_GE(rig.metrics.counter("storage.jobmon.repairs").value(), 1u);

  // Byte-equality with the standby after the dust settles.
  EXPECT_EQ(rig.primary_media.bytes(), rig.standby_media.bytes());

  // Zero acked writes lost: replay the primary's log into a fresh store and
  // compare against the oracle. (The standby can hold a superset of acked
  // frames — an append that tore locally after shipping never acked — but
  // every *acked* update must be present with its exact final value.)
  Wal verify_wal(&rig.primary_media);
  jobmon::DBManager verify(nullptr, &verify_wal);
  ASSERT_TRUE(verify.recover().is_ok());
  for (const auto& [id, rec] : acked) {
    auto got = verify.get(id);
    ASSERT_TRUE(got.is_ok()) << "acked write lost for " << id;
    EXPECT_EQ(jobmon::encode_job_record(id, got.value()),
              jobmon::encode_job_record(id, rec))
        << "acked write diverged for " << id;
  }
}

// --- Live TCP repair over ha.fetch -----------------------------------------

TEST(StorageChaos, RepairPullsImageFromStandbyOverLiveTcp) {
  WallClock wall;

  // Standby host serves ha.* (including ha.fetch) over real TCP.
  MemoryWalStorage standby_media;
  StandbyReplica replica("jobmon", &standby_media);
  ha::StandbySet standbys;
  standbys.add(&replica);
  clarens::HostOptions host_options;
  host_options.require_auth = false;
  clarens::ClarensHost standby_host("standby", wall, host_options);
  ha::register_ha_methods(standby_host, standbys);
  auto port = standby_host.serve(0);
  ASSERT_TRUE(port.is_ok());

  rpc::RpcClient client("127.0.0.1", port.value());
  ha::RpcShipperTransport transport(&client, /*deadline_ms=*/5000);

  // Primary replicates over the wire, then its disk rots.
  MemoryWalStorage primary_media;
  FaultyWalStorage faulty(&primary_media, {});
  LogShipper shipper("jobmon", {});
  shipper.add_standby(&transport);
  shipper.set_epoch(1);
  ReplicatedWalStorage replicated(&faulty, &shipper);
  Wal wal(&replicated);
  jobmon::DBManager db(nullptr, &wal);
  StoreHealth health("jobmon");
  db.attach_health(&health);
  for (int i = 0; i < 12; ++i) {
    const std::string id = "t" + std::to_string(i);
    db.update(id, make_task(id, 0.05 * i), "site-a", from_seconds(i));
  }
  ASSERT_EQ(standby_media.bytes(), primary_media.bytes());

  faulty.rot_byte(primary_media.bytes().size() / 3, 0x08);
  ManualClock clock;
  Scrubber scrubber(clock, {});
  scrubber.add_target({"jobmon", &faulty, &health});
  ASSERT_NE(scrubber.scrub("jobmon").value().verdict, ScrubVerdict::kClean);
  ASSERT_EQ(health.state(), StoreState::kQuarantined);

  // Repair pulls the verified image back over ha.fetch (hex + CRC on the
  // wire) and swaps it in.
  storage::RepairOptions repair;
  repair.stream = "jobmon";
  repair.storage = &faulty;
  repair.source = &transport;
  repair.health = &health;
  repair.replay = [&db]() { return db.recover(); };
  auto report = storage::repair_from_standby(repair);
  ASSERT_TRUE(report.is_ok()) << report.status();
  EXPECT_EQ(report.value().frames, 12u);
  EXPECT_EQ(primary_media.bytes(), standby_media.bytes());
  EXPECT_EQ(health.state(), StoreState::kHealthy);
  EXPECT_TRUE(db.get("t7").is_ok());

  standby_host.stop();
}

// --- Steering journal over a Wal -------------------------------------------

TEST(WalJournalSink, RoundTripsLinesAndDropsTornTail) {
  MemoryWalStorage store;
  Wal wal(&store);
  steering::WalJournalSink sink(&wal);

  steering::JournalRecord watch;
  watch.kind = "watch";
  watch.fields["task"] = "t1";
  steering::JournalRecord place;
  place.kind = "place";
  place.fields["task"] = "t1";
  place.fields["site"] = "site-a";
  ASSERT_TRUE(sink.append(watch.to_line()).is_ok());
  ASSERT_TRUE(sink.append(place.to_line()).is_ok());

  auto lines = steering::journal_lines_from_wal(wal);
  ASSERT_TRUE(lines.is_ok());
  ASSERT_EQ(lines.value().size(), 2u);
  EXPECT_EQ(lines.value()[0], watch.to_line());
  auto parsed = steering::parse_journal(lines.value());
  ASSERT_TRUE(parsed.is_ok());
  EXPECT_EQ(parsed.value()[1].field("site"), "site-a");

  // Snapshot compaction folds into the line stream transparently.
  ASSERT_TRUE(wal.write_snapshot(watch.to_line() + "\n" + place.to_line() + "\n")
                  .is_ok());
  steering::JournalRecord done;
  done.kind = "done";
  done.fields["task"] = "t1";
  ASSERT_TRUE(sink.append(done.to_line()).is_ok());
  auto folded = steering::journal_lines_from_wal(wal);
  ASSERT_TRUE(folded.is_ok());
  ASSERT_EQ(folded.value().size(), 3u);
  EXPECT_EQ(folded.value()[2], done.to_line());

  // A torn final frame (crash artifact) is dropped, CRC framing intact.
  store.mutable_bytes().resize(store.bytes().size() - 2);
  auto torn = steering::journal_lines_from_wal(wal);
  ASSERT_TRUE(torn.is_ok());
  EXPECT_EQ(torn.value().size(), 2u);

  // A CRC mismatch mid-log keeps the valid prefix: flip one payload byte of
  // the second of three frames, and only the first line survives.
  MemoryWalStorage damaged_store;
  Wal damaged(&damaged_store);
  steering::WalJournalSink damaged_sink(&damaged);
  ASSERT_TRUE(damaged_sink.append(watch.to_line()).is_ok());
  ASSERT_TRUE(damaged_sink.append(place.to_line()).is_ok());
  ASSERT_TRUE(damaged_sink.append(done.to_line()).is_ok());
  const std::size_t second_frame_end =
      Wal::encode_frame(WalRecord::Type::kRecord, watch.to_line()).size() +
      Wal::encode_frame(WalRecord::Type::kRecord, place.to_line()).size();
  damaged_store.mutable_bytes()[second_frame_end - 1] ^= 0x01;
  ASSERT_TRUE(damaged.read().value().corrupt);
  auto prefix = steering::journal_lines_from_wal(damaged);
  ASSERT_TRUE(prefix.is_ok()) << prefix.status();
  EXPECT_EQ(prefix.value(), std::vector<std::string>{watch.to_line()});
}

}  // namespace
}  // namespace gae
