// Hot-standby failover under chaos: a primary ships its WAL to a standby
// (in-process and over live TCP), the primary is killed mid-workload, the
// failure detector + supervisor promote the standby through the registry's
// primary lease, and the recovered state is byte-equal to an oracle that
// mirrored every acknowledged write. The revived old primary is fenced:
// its stale epoch is rejected and its lease renewal fails.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "clarens/host.h"
#include "clarens/registry.h"
#include "common/clock.h"
#include "common/wal.h"
#include "estimators/estimate_db.h"
#include "ha/failover.h"
#include "ha/replication.h"
#include "ha/rpc_binding.h"
#include "jobmon/db_manager.h"
#include "rpc/client.h"
#include "steering/journal.h"
#include "supervision/failure_detector.h"
#include "supervision/supervisor.h"
#include "telemetry/metrics.h"

namespace gae {
namespace {

using ha::AppendBatch;
using ha::LocalShipperTransport;
using ha::LogShipper;
using ha::ReplicatedWalStorage;
using ha::ReplicationMode;
using ha::ShipperOptions;
using ha::StandbyReplica;

/// Shipper options counting into `metrics`, so a test reads one shipper's
/// ha.<stream>.* counters.
ShipperOptions counted_into(telemetry::MetricsRegistry& metrics) {
  ShipperOptions options;
  options.metrics = &metrics;
  return options;
}

std::uint64_t count(telemetry::MetricsRegistry& metrics, const std::string& name) {
  return metrics.counter(name).value();
}

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

TEST(HexCodec, RoundTripsArbitraryBytes) {
  std::string bytes;
  for (int i = 0; i < 256; ++i) bytes.push_back(static_cast<char>(i));
  auto decoded = ha::hex_decode(ha::hex_encode(bytes));
  ASSERT_TRUE(decoded.is_ok());
  EXPECT_EQ(decoded.value(), bytes);
  EXPECT_FALSE(ha::hex_decode("abc").is_ok());   // odd length
  EXPECT_FALSE(ha::hex_decode("zz").is_ok());    // non-hex
}

TEST(Replication, SyncShippingKeepsStandbyByteEqual) {
  MemoryWalStorage primary_store, standby_store;
  StandbyReplica replica("jobmon", &standby_store);
  LocalShipperTransport transport(&replica);
  LogShipper shipper("jobmon", {});
  shipper.add_standby(&transport);
  shipper.set_epoch(1);
  ReplicatedWalStorage replicated(&primary_store, &shipper);
  Wal wal(&replicated);
  jobmon::DBManager primary(nullptr, &wal);

  for (int i = 0; i < 20; ++i) {
    const std::string id = "t" + std::to_string(i);
    primary.update(id, make_task(id, 0.1 * (i % 10)), "site-a", from_seconds(i));
  }
  // Sync mode: every acknowledged append is already on the standby.
  EXPECT_EQ(shipper.acked_seq(), shipper.next_seq());
  EXPECT_EQ(standby_store.bytes(), primary_store.bytes());

  // Promote: replay the standby log into a fresh DBManager.
  Wal standby_wal(&standby_store);
  jobmon::DBManager promoted(nullptr, &standby_wal);
  ASSERT_TRUE(promoted.recover().is_ok());
  EXPECT_EQ(promoted.export_state(), primary.export_state());
}

TEST(Replication, SnapshotCompactionShipsToStandby) {
  MemoryWalStorage primary_store, standby_store;
  StandbyReplica replica("jobmon", &standby_store);
  LocalShipperTransport transport(&replica);
  telemetry::MetricsRegistry metrics;
  LogShipper shipper("jobmon", counted_into(metrics));
  shipper.add_standby(&transport);
  shipper.set_epoch(1);
  ReplicatedWalStorage replicated(&primary_store, &shipper);
  Wal wal(&replicated);
  jobmon::DBManager primary(nullptr, &wal);

  for (int i = 0; i < 10; ++i) {
    const std::string id = "t" + std::to_string(i);
    primary.update(id, make_task(id, 0.5), "site-a", from_seconds(i));
  }
  ASSERT_TRUE(primary.save_snapshot().is_ok());
  // Post-snapshot writes ride the normal append path again.
  primary.update("t10", make_task("t10", 0.9), "site-a", from_seconds(11));

  EXPECT_EQ(standby_store.bytes(), primary_store.bytes());
  Wal standby_wal(&standby_store);
  jobmon::DBManager promoted(nullptr, &standby_wal);
  ASSERT_TRUE(promoted.recover().is_ok());
  EXPECT_EQ(promoted.export_state(), primary.export_state());
  EXPECT_GE(count(metrics, "ha.jobmon.snapshots_shipped"), 1u);
}

TEST(Replication, AutomaticCompactionKeepsStandbyByteEqual) {
  MemoryWalStorage primary_store, standby_store;
  StandbyReplica replica("jobmon", &standby_store);
  LocalShipperTransport transport(&replica);
  telemetry::MetricsRegistry metrics;
  LogShipper shipper("jobmon", counted_into(metrics));
  shipper.add_standby(&transport);
  shipper.set_epoch(1);
  ReplicatedWalStorage replicated(&primary_store, &shipper);
  Wal wal(&replicated);
  jobmon::DBManager primary(nullptr, &wal);

  std::uint64_t compactions_seen = 0;
  for (int i = 0; i < 3000; ++i) {
    const std::string id = "t" + std::to_string(i % 64);
    primary.update(id, make_task(id, 0.001 * i), "site-a", from_seconds(i));
    if (wal.snapshots() != compactions_seen) {
      compactions_seen = wal.snapshots();
      ASSERT_EQ(standby_store.bytes(), primary_store.bytes()) << "after update " << i;
    }
  }
  EXPECT_GE(compactions_seen, 2u);
  EXPECT_EQ(count(metrics, "ha.jobmon.snapshots_shipped"), compactions_seen);
  EXPECT_EQ(standby_store.bytes(), primary_store.bytes());
}

/// Delivers to a replica, but refuses snapshot installs while `down`.
class SnapshotDroppingTransport final : public ha::ShipperTransport {
 public:
  explicit SnapshotDroppingTransport(StandbyReplica* replica) : local_(replica) {}

  Result<ha::ReplicaAck> append(const AppendBatch& batch) override {
    return local_.append(batch);
  }
  Result<ha::ReplicaAck> snapshot(const ha::SnapshotInstall& snap) override {
    if (down) return unavailable_error("standby unreachable");
    return local_.snapshot(snap);
  }
  Result<ha::ReplicaAck> status(const std::string& stream) override {
    return local_.status(stream);
  }

  bool down = false;

 private:
  LocalShipperTransport local_;
};

TEST(Replication, StandbyThatMissedACompactionResyncs) {
  MemoryWalStorage primary_store, standby_store;
  StandbyReplica replica("jobmon", &standby_store);
  SnapshotDroppingTransport transport(&replica);
  telemetry::MetricsRegistry metrics;
  LogShipper shipper("jobmon", counted_into(metrics));
  shipper.add_standby(&transport);
  shipper.set_epoch(1);
  ReplicatedWalStorage replicated(&primary_store, &shipper);
  Wal wal(&replicated);
  jobmon::DBManager primary(nullptr, &wal);

  // The first compaction happens while the standby cannot take it.
  transport.down = true;
  int i = 0;
  for (; primary_store.bytes().size() >= standby_store.bytes().size(); ++i) {
    ASSERT_LT(i, 10'000) << "no compaction happened";
    const std::string id = "t" + std::to_string(i % 64);
    primary.update(id, make_task(id, 0.001 * i), "site-a", from_seconds(i));
  }
  EXPECT_EQ(wal.snapshots(), 0u) << "the failed ship fails the compaction";
  EXPECT_GE(count(metrics, "ha.jobmon.ship_failures"), 1u);

  // Back up: the next append finds the gap and installs the full log.
  transport.down = false;
  primary.update("t0", make_task("t0", 0.5), "site-a", from_seconds(i));
  EXPECT_EQ(standby_store.bytes(), primary_store.bytes());
  EXPECT_GE(count(metrics, "ha.jobmon.resyncs"), 1u);
  Wal standby_wal(&standby_store);
  jobmon::DBManager promoted(nullptr, &standby_wal);
  ASSERT_TRUE(promoted.recover().is_ok());
  EXPECT_EQ(promoted.export_state(), primary.export_state());
}

TEST(Replication, AsyncModeBuffersUntilFlush) {
  MemoryWalStorage primary_store, standby_store;
  StandbyReplica replica("est", &standby_store);
  LocalShipperTransport transport(&replica);
  telemetry::MetricsRegistry metrics;
  ShipperOptions options;
  options.mode = ReplicationMode::kAsync;
  options.batch_max_records = 100;  // far above what the test writes
  options.metrics = &metrics;
  LogShipper shipper("est", options);
  shipper.add_standby(&transport);
  shipper.set_epoch(1);
  ReplicatedWalStorage replicated(&primary_store, &shipper);
  Wal wal(&replicated);
  estimators::EstimateDatabase primary(&wal);

  for (int i = 0; i < 5; ++i) primary.put("t" + std::to_string(i), 10.0 * i);
  // Nothing shipped yet: the tail is the async loss window.
  EXPECT_EQ(replica.next_seq(), 0u);
  EXPECT_EQ(shipper.acked_seq(), 0u);

  ASSERT_TRUE(shipper.flush().is_ok());
  EXPECT_EQ(replica.next_seq(), 5u);
  EXPECT_EQ(standby_store.bytes(), primary_store.bytes());
  EXPECT_EQ(count(metrics, "ha.est.batches_shipped"), 1u);  // one batch, five records
  EXPECT_EQ(count(metrics, "ha.est.records_shipped"), 5u);
}

TEST(Replication, AsyncBatchThresholdTriggersShipment) {
  MemoryWalStorage primary_store, standby_store;
  StandbyReplica replica("est", &standby_store);
  LocalShipperTransport transport(&replica);
  ShipperOptions options;
  options.mode = ReplicationMode::kAsync;
  options.batch_max_records = 3;
  LogShipper shipper("est", options);
  shipper.add_standby(&transport);
  shipper.set_epoch(1);

  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(shipper.ship_append(Wal::encode_frame(WalRecord::Type::kRecord,
                                                      "r" + std::to_string(i)))
                    .is_ok());
  }
  EXPECT_EQ(replica.next_seq(), 0u);  // below threshold: still buffered
  ASSERT_TRUE(
      shipper.ship_append(Wal::encode_frame(WalRecord::Type::kRecord, "r2")).is_ok());
  EXPECT_EQ(replica.next_seq(), 3u);  // threshold reached: batch shipped
}

TEST(Replication, LateJoiningStandbyHealsViaSnapshotResync) {
  MemoryWalStorage primary_store, standby_store;
  telemetry::MetricsRegistry metrics;
  LogShipper shipper("jobmon", counted_into(metrics));
  shipper.set_epoch(1);
  ReplicatedWalStorage replicated(&primary_store, &shipper);
  Wal wal(&replicated);
  // Writes with no standby attached: frames are trimmed as soon as acked
  // (vacuously, by nobody), so a later joiner cannot be served from the
  // frame window and must be healed with a full-log install.
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(wal.append("early-" + std::to_string(i)).is_ok());
  }

  StandbyReplica replica("jobmon", &standby_store);
  LocalShipperTransport transport(&replica);
  shipper.add_standby(&transport);
  ASSERT_TRUE(wal.append("late").is_ok());

  EXPECT_EQ(standby_store.bytes(), primary_store.bytes());
  EXPECT_EQ(replica.next_seq(), 5u);
  EXPECT_GE(count(metrics, "ha.jobmon.resyncs"), 1u);
}

TEST(Replication, DuplicateAndOverlappingBatchesAreIdempotent) {
  MemoryWalStorage standby_store;
  StandbyReplica replica("s", &standby_store);

  const std::string f0 = Wal::encode_frame(WalRecord::Type::kRecord, "a");
  const std::string f1 = Wal::encode_frame(WalRecord::Type::kRecord, "b");
  const std::string f2 = Wal::encode_frame(WalRecord::Type::kRecord, "c");

  AppendBatch first;
  first.stream = "s";
  first.epoch = 1;
  first.base_seq = 0;
  first.records = 2;
  first.bytes = f0 + f1;
  first.crc = crc32(first.bytes);
  ASSERT_TRUE(replica.apply_append(first).is_ok());

  // Exact duplicate: no-op, same ack.
  auto dup = replica.apply_append(first);
  ASSERT_TRUE(dup.is_ok());
  EXPECT_EQ(dup.value().next_seq, 2u);

  // Overlap: frames [0..3) where [0..2) are already applied.
  AppendBatch overlap;
  overlap.stream = "s";
  overlap.epoch = 1;
  overlap.base_seq = 0;
  overlap.records = 3;
  overlap.bytes = f0 + f1 + f2;
  overlap.crc = crc32(overlap.bytes);
  auto ack = replica.apply_append(overlap);
  ASSERT_TRUE(ack.is_ok());
  EXPECT_EQ(ack.value().next_seq, 3u);
  EXPECT_EQ(standby_store.bytes(), f0 + f1 + f2);  // nothing doubled
}

TEST(Replication, CorruptBatchAndGapAreRejected) {
  MemoryWalStorage standby_store;
  StandbyReplica replica("s", &standby_store);

  AppendBatch batch;
  batch.stream = "s";
  batch.epoch = 1;
  batch.base_seq = 0;
  batch.records = 1;
  batch.bytes = Wal::encode_frame(WalRecord::Type::kRecord, "payload");
  batch.crc = crc32(batch.bytes);

  AppendBatch damaged = batch;
  damaged.bytes[damaged.bytes.size() - 1] ^= 0x01;
  EXPECT_EQ(replica.apply_append(damaged).status().code(),
            StatusCode::kInvalidArgument);

  AppendBatch wrong_crc = batch;
  wrong_crc.crc ^= 0xDEADBEEF;
  EXPECT_EQ(replica.apply_append(wrong_crc).status().code(),
            StatusCode::kInvalidArgument);

  AppendBatch gap = batch;
  gap.base_seq = 7;
  EXPECT_EQ(replica.apply_append(gap).status().code(),
            StatusCode::kFailedPrecondition);

  EXPECT_TRUE(standby_store.bytes().empty());  // nothing damaged got in
  EXPECT_TRUE(replica.apply_append(batch).is_ok());  // clean batch still lands
}

TEST(Replication, StaleEpochIsFencedWithLeaderHint) {
  MemoryWalStorage standby_store;
  StandbyReplica replica("jobmon", &standby_store);

  AppendBatch newer;
  newer.stream = "jobmon";
  newer.epoch = 2;
  newer.base_seq = 0;
  newer.records = 1;
  newer.bytes = Wal::encode_frame(WalRecord::Type::kRecord, "new-reign");
  newer.crc = crc32(newer.bytes);
  newer.leader_host = "10.0.0.2";
  newer.leader_port = 8443;
  ASSERT_TRUE(replica.apply_append(newer).is_ok());

  AppendBatch stale;
  stale.stream = "jobmon";
  stale.epoch = 1;
  stale.base_seq = 1;
  stale.records = 1;
  stale.bytes = Wal::encode_frame(WalRecord::Type::kRecord, "zombie");
  stale.crc = crc32(stale.bytes);
  const auto rejected = replica.apply_append(stale);
  EXPECT_EQ(rejected.status().code(), StatusCode::kNotPrimary);
  EXPECT_NE(rejected.status().message().find("leader=10.0.0.2:8443"),
            std::string::npos);
  EXPECT_EQ(replica.stale_epoch_rejections(), 1u);
  EXPECT_EQ(standby_store.bytes(), newer.bytes);  // zombie write kept out
}

TEST(Replication, DeposedShipperStopsAcceptingWrites) {
  MemoryWalStorage standby_store;
  StandbyReplica replica("s", &standby_store);
  LocalShipperTransport transport(&replica);
  LogShipper shipper("s", {});
  shipper.add_standby(&transport);
  shipper.set_epoch(1);

  bool deposed_fired = false;
  shipper.set_on_deposed([&] { deposed_fired = true; });

  ASSERT_TRUE(
      shipper.ship_append(Wal::encode_frame(WalRecord::Type::kRecord, "ok")).is_ok());
  ASSERT_TRUE(replica.promote(2).is_ok());  // a new primary took over

  const Status fenced =
      shipper.ship_append(Wal::encode_frame(WalRecord::Type::kRecord, "zombie"));
  EXPECT_EQ(fenced.code(), StatusCode::kNotPrimary);
  EXPECT_TRUE(shipper.deposed());
  EXPECT_TRUE(deposed_fired);
  // Every later write is refused locally, before even reaching a standby.
  EXPECT_EQ(shipper.ship_append(Wal::encode_frame(WalRecord::Type::kRecord, "again"))
                .code(),
            StatusCode::kNotPrimary);
}

TEST(Replication, ReplicationLagGaugeTracksUnackedTail) {
  telemetry::MetricsRegistry metrics;
  MemoryWalStorage standby_store;
  StandbyReplica replica("est", &standby_store);
  LocalShipperTransport transport(&replica);
  ShipperOptions options;
  options.mode = ReplicationMode::kAsync;
  options.batch_max_records = 100;
  options.metrics = &metrics;
  LogShipper shipper("est", options);
  shipper.add_standby(&transport);
  shipper.set_epoch(3);

  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(shipper.ship_append(Wal::encode_frame(WalRecord::Type::kRecord, "x"))
                    .is_ok());
  }
  auto snap = metrics.snapshot();
  EXPECT_EQ(snap.gauges.at("ha.est.replication_lag"), 4);
  EXPECT_EQ(snap.gauges.at("ha.est.epoch"), 3);

  ASSERT_TRUE(shipper.flush().is_ok());
  snap = metrics.snapshot();
  EXPECT_EQ(snap.gauges.at("ha.est.replication_lag"), 0);
}

TEST(Replication, SteeringJournalLinesSurviveFailover) {
  // The steering journal replicates the way jobmon does: a plain Wal over
  // ReplicatedWalStorage, so the primary's own storage is the resync source.
  MemoryWalStorage primary_store;
  MemoryWalStorage standby_store;
  StandbyReplica replica("steering", &standby_store);
  LocalShipperTransport transport(&replica);
  telemetry::MetricsRegistry metrics;
  LogShipper shipper("steering", counted_into(metrics));
  shipper.add_standby(&transport);
  shipper.set_epoch(1);
  ReplicatedWalStorage replicated(&primary_store, &shipper);
  Wal primary_wal(&replicated);
  steering::WalJournalSink journal(&primary_wal);

  // What a promoted standby replays: the lines decoded from its own log.
  const auto lines_of = [](WalStorage* storage) {
    Wal wal(storage);
    auto lines = steering::journal_lines_from_wal(wal);
    EXPECT_TRUE(lines.is_ok()) << lines.status();
    return lines.value_or({});
  };

  std::vector<std::string> lines = {
      "v1 watch task=t1 site=site-a",
      "v1 place task=t1 site=site-a node=n0",
      "v1 move task=t1 from=site-a to=site-b",
  };
  for (const auto& line : lines) ASSERT_TRUE(journal.append(line).is_ok());

  // The primary's own log saw every line...
  EXPECT_EQ(lines_of(&primary_store), lines);
  // ...and the standby log decodes back to the identical sequence.
  EXPECT_EQ(lines_of(&standby_store), lines);
  // The recovered lines parse as journal records (what restore_from_journal
  // folds over on the promoted standby).
  auto parsed = steering::parse_journal(lines_of(&standby_store));
  ASSERT_TRUE(parsed.is_ok());
  EXPECT_EQ(parsed.value().size(), lines.size());

  // Compaction: one snapshot replaces the history on both sides, and a line
  // appended after it ships as an ordinary frame behind the snapshot.
  std::string folded;
  for (const auto& line : lines) folded += line + "\n";
  ASSERT_TRUE(primary_wal.write_snapshot(folded).is_ok());
  lines.push_back("v1 done task=t1");
  ASSERT_TRUE(journal.append(lines.back()).is_ok());
  EXPECT_EQ(standby_store.bytes(), primary_store.bytes());
  EXPECT_EQ(Wal::decode(standby_store.bytes()).records.size(), 2u);  // snapshot + 1
  EXPECT_EQ(lines_of(&standby_store), lines);

  // A standby that joins after the compaction has no frames to catch up
  // from; the shipper resyncs it from the primary's storage, snapshot
  // included.
  MemoryWalStorage late_store;
  StandbyReplica late_replica("steering", &late_store);
  LocalShipperTransport late_transport(&late_replica);
  shipper.add_standby(&late_transport);
  lines.push_back("v1 watch task=t2 site=site-b");
  ASSERT_TRUE(journal.append(lines.back()).is_ok());
  EXPECT_EQ(count(metrics, "ha.steering.resyncs"), 1u);
  EXPECT_EQ(late_store.bytes(), primary_store.bytes());
  EXPECT_EQ(lines_of(&late_store), lines);
  EXPECT_EQ(lines_of(&standby_store), lines);
}

// The flagship: kill the jobmon primary mid-workload with replication over
// live TCP, and drive detector -> supervisor -> promotion on a virtual
// clock. The promoted standby must hold every acknowledged write (oracle
// byte-equality) within 2x the detector's death TTL, and the revived old
// primary must be fenced.
TEST(FailoverChaos, JobmonPrimaryKilledMidWorkloadOverLiveTcp) {
  WallClock wall;
  telemetry::MetricsRegistry metrics;

  // Standby host: serves ha.* over real TCP.
  MemoryWalStorage standby_store;
  StandbyReplica replica("jobmon", &standby_store);
  ha::StandbySet standbys;
  standbys.add(&replica);
  clarens::HostOptions standby_options;
  standby_options.require_auth = false;
  clarens::ClarensHost standby_host("standby", wall, standby_options);
  ha::register_ha_methods(standby_host, standbys);
  auto standby_port = standby_host.serve(0);
  ASSERT_TRUE(standby_port.is_ok());

  // Arbiter registry + supervision plane run on a virtual clock so the
  // failover timeline is deterministic.
  ManualClock arbiter_clock;
  const SimDuration beat = from_millis(150);
  const SimDuration death_ttl = 3 * beat;  // dead_after_missed * interval
  clarens::RegistryOptions registry_options;
  registry_options.default_ttl = death_ttl;
  clarens::ServiceRegistry registry("arbiter", &arbiter_clock, registry_options);

  // Primary: DBManager whose WAL replicates synchronously over TCP.
  auto primary_lease = registry.acquire_primary("jobmon", death_ttl);
  ASSERT_TRUE(primary_lease.is_ok());
  EXPECT_EQ(primary_lease.value().epoch, 1u);

  rpc::RpcClient ship_client("127.0.0.1", standby_port.value());
  ha::RpcShipperTransport transport(&ship_client, /*deadline_ms=*/5000);
  ShipperOptions ship_options;
  ship_options.mode = ReplicationMode::kSync;
  ship_options.leader_host = "127.0.0.1";
  ship_options.leader_port = 7001;  // the primary's (nominal) service port
  ship_options.metrics = &metrics;
  LogShipper shipper("jobmon", ship_options);
  shipper.add_standby(&transport);
  shipper.set_epoch(primary_lease.value().epoch);

  MemoryWalStorage primary_store;
  ReplicatedWalStorage replicated(&primary_store, &shipper);
  Wal primary_wal(&replicated);
  jobmon::DBManager primary(nullptr, &primary_wal);
  jobmon::DBManager oracle(nullptr, nullptr);  // mirrors acknowledged writes

  supervision::FailureDetectorOptions detector_options;
  detector_options.heartbeat_interval = beat;
  detector_options.suspect_after_missed = 1;
  detector_options.dead_after_missed = 3;
  supervision::FailureDetector detector(arbiter_clock, detector_options);
  detector.watch("jobmon-primary");

  supervision::SupervisorOptions supervisor_options;
  supervisor_options.restart_backoff =
      RetryPolicy{/*max_attempts=*/20, /*initial_backoff_ms=*/25,
                  /*backoff_multiplier=*/1.5, /*max_backoff_ms=*/100,
                  /*jitter_fraction=*/0.0, /*jitter_seed=*/1};
  supervision::Supervisor supervisor(arbiter_clock, supervisor_options);
  supervisor.attach(detector);

  // The promotion recipe the supervisor runs when the primary dies.
  Wal standby_wal(&standby_store);
  jobmon::DBManager standby_db(nullptr, &standby_wal);
  auto role = std::make_shared<ha::PrimaryRole>();
  ha::PromotionOptions promotion;
  promotion.registry = &registry;
  promotion.service = "jobmon";
  promotion.self.name = "jobmon";
  promotion.self.host = "127.0.0.1";
  promotion.self.port = standby_port.value();
  promotion.lease_ttl = death_ttl;
  promotion.replica = &replica;
  promotion.replay = [&] { return standby_db.recover(); };
  promotion.role = role;
  promotion.metrics = &metrics;
  promotion.clock = &arbiter_clock;
  bool promoted = false;
  supervisor.manage(ha::make_promotion_recipe("jobmon-primary", promotion,
                                              [&](const ha::Promotion&) {
                                                promoted = true;
                                              }));

  // Workload: 25 acknowledged updates, heartbeating as it goes.
  for (int i = 0; i < 25; ++i) {
    const std::string id = "t" + std::to_string(i);
    const auto info = make_task(id, 0.04 * i);
    primary.update(id, info, "site-a", from_seconds(i));
    oracle.update(id, info, "site-a", from_seconds(i));
    detector.heartbeat("jobmon-primary");
    arbiter_clock.advance_by(from_millis(40));
    ASSERT_TRUE(registry.renew_primary("jobmon", primary_lease.value().lease_id).is_ok());
  }
  ASSERT_EQ(shipper.acked_seq(), shipper.next_seq());  // sync: all durable

  // CRASH: the primary stops mid-workload (no more beats, no renewals).
  const SimTime crash_at = arbiter_clock.now();
  const SimDuration budget = 2 * death_ttl;  // promotion must land in this

  SimTime promoted_at = 0;
  while (arbiter_clock.now() - crash_at < budget) {
    arbiter_clock.advance_by(from_millis(25));
    detector.check();
    supervisor.tick();
    registry.sweep();
    if (promoted) {
      promoted_at = arbiter_clock.now();
      break;
    }
  }
  ASSERT_TRUE(promoted) << "standby not promoted within 2x detector TTL";
  EXPECT_LE(promoted_at - crash_at, budget);

  // Zero acknowledged writes lost: recovered state byte-equal to the oracle.
  EXPECT_EQ(standby_db.export_state(), oracle.export_state());
  EXPECT_EQ(standby_db.size(), 25u);
  EXPECT_EQ(registry.primary_epoch("jobmon"), 2u);
  EXPECT_TRUE(role->is_primary());
  EXPECT_EQ(role->epoch(), 2u);

  // Clients re-resolve to the standby's address.
  auto resolved = registry.lookup("jobmon");
  ASSERT_TRUE(resolved.is_ok());
  EXPECT_EQ(resolved.value().port, standby_port.value());

  // The revived old primary is fenced on every path:
  // 1. its replicated writes are rejected with NOT_PRIMARY...
  const std::size_t standby_bytes_before = standby_store.bytes().size();
  const Status zombie_write = shipper.ship_append(
      Wal::encode_frame(WalRecord::Type::kRecord, "zombie-after-failover"));
  EXPECT_EQ(zombie_write.code(), StatusCode::kNotPrimary);
  EXPECT_TRUE(shipper.deposed());
  EXPECT_GE(replica.stale_epoch_rejections(), 1u);
  EXPECT_EQ(standby_store.bytes().size(), standby_bytes_before);  // unchanged
  // 2. ...and its lease heartbeat fails (the lease moved on).
  EXPECT_FALSE(registry.renew_primary("jobmon", primary_lease.value().lease_id).is_ok());

  // Promotion telemetry landed.
  auto snap = metrics.snapshot();
  EXPECT_EQ(snap.histograms.at("ha.promotion_ms").count, 1u);
  EXPECT_EQ(snap.gauges.at("ha.jobmon.epoch"), 2);

  standby_host.stop();
}

// Estimator store failover over live TCP, including a mid-workload WAL
// compaction (snapshot shipment) and erases.
TEST(FailoverChaos, EstimatorStoreFailsOverByteEqual) {
  WallClock wall;
  MemoryWalStorage standby_store;
  StandbyReplica replica("estimates", &standby_store);
  ha::StandbySet standbys;
  standbys.add(&replica);
  clarens::HostOptions host_options;
  host_options.require_auth = false;
  clarens::ClarensHost standby_host("standby", wall, host_options);
  ha::register_ha_methods(standby_host, standbys);
  auto port = standby_host.serve(0);
  ASSERT_TRUE(port.is_ok());

  rpc::RpcClient ship_client("127.0.0.1", port.value());
  ha::RpcShipperTransport transport(&ship_client, 5000);
  LogShipper shipper("estimates", {});
  shipper.add_standby(&transport);
  shipper.set_epoch(1);

  MemoryWalStorage primary_store;
  ReplicatedWalStorage replicated(&primary_store, &shipper);
  Wal wal(&replicated);
  estimators::EstimateDatabase primary(&wal);
  estimators::EstimateDatabase oracle;

  for (int i = 0; i < 30; ++i) {
    const std::string id = "t" + std::to_string(i);
    primary.put(id, 3.5 * i);
    oracle.put(id, 3.5 * i);
    if (i == 15) {
      ASSERT_TRUE(primary.save_snapshot().is_ok());  // ships a snapshot
    }
    if (i % 7 == 0 && i > 0) {
      primary.erase("t" + std::to_string(i - 1));
      oracle.erase("t" + std::to_string(i - 1));
    }
  }

  // CRASH + promote: replay the standby's log.
  Wal standby_wal(&standby_store);
  estimators::EstimateDatabase promoted(&standby_wal);
  ASSERT_TRUE(promoted.recover().is_ok());
  EXPECT_EQ(promoted.export_state(), oracle.export_state());
  ASSERT_TRUE(replica.promote(2).is_ok());

  // The old primary's next put is refused end-to-end over TCP.
  const Status fenced =
      shipper.ship_append(Wal::encode_frame(WalRecord::Type::kRecord, "put zombie 1"));
  EXPECT_EQ(fenced.code(), StatusCode::kNotPrimary);

  standby_host.stop();
}

// A client holding the old primary's address follows the NOT_PRIMARY
// leader hint to the new primary without charging the breaker.
TEST(FailoverChaos, ClientFollowsNotPrimaryLeaderHintOverTcp) {
  WallClock wall;

  clarens::HostOptions open_host;
  open_host.require_auth = false;

  // New primary: answers kv.put.
  clarens::ClarensHost new_primary("new-primary", wall, open_host);
  auto new_role = std::make_shared<ha::PrimaryRole>();
  new_role->make_primary(2);
  ha::install_fencing(new_primary.dispatcher(), new_role, {"kv.put", "kv.del"});
  new_primary.dispatcher().register_method(
      "kv.put", [](const rpc::Array&, const rpc::CallContext&) -> Result<rpc::Value> {
        return rpc::Value(std::string("stored-by-new-primary"));
      });
  auto new_port = new_primary.serve(0);
  ASSERT_TRUE(new_port.is_ok());

  // Deposed old primary: same method, fenced, hinting at the new one.
  clarens::ClarensHost old_primary("old-primary", wall, open_host);
  auto old_role = std::make_shared<ha::PrimaryRole>();
  old_role->depose(ha::format_leader_hint("127.0.0.1", new_port.value()));
  ha::install_fencing(old_primary.dispatcher(), old_role, {"kv.put", "kv.del"});
  old_primary.dispatcher().register_method(
      "kv.put", [](const rpc::Array&, const rpc::CallContext&) -> Result<rpc::Value> {
        return rpc::Value(std::string("stored-by-old-primary"));
      });
  auto old_port = old_primary.serve(0);
  ASSERT_TRUE(old_port.is_ok());

  // Client still pointing at the old primary first.
  rpc::RpcClient client({{"127.0.0.1", old_port.value()},
                         {"127.0.0.1", new_port.value()}},
                        rpc::Protocol::kXmlRpc, {});
  auto result = client.call("kv.put", {rpc::Value("k"), rpc::Value("v")});
  ASSERT_TRUE(result.is_ok()) << result.status();
  EXPECT_EQ(result.value().as_string(), "stored-by-new-primary");
  EXPECT_EQ(client.metrics().counter("rpc.client.not_primary_redirects").value(), 1u);
  EXPECT_EQ(client.metrics().counter("rpc.client.failed_calls").value(), 0u);
  // The fault came from a healthy replica: no breaker was charged.
  for (std::size_t i = 0; i < client.endpoint_count(); ++i) {
    EXPECT_EQ(client.breaker_state(i), CircuitBreaker::State::kClosed);
  }

  // Read-only methods are not fenced on a standby.
  old_primary.dispatcher().register_method(
      "kv.get", [](const rpc::Array&, const rpc::CallContext&) -> Result<rpc::Value> {
        return rpc::Value(std::string("stale-but-served"));
      });
  rpc::RpcClient reader("127.0.0.1", old_port.value());
  auto read = reader.call("kv.get", {rpc::Value("k")});
  ASSERT_TRUE(read.is_ok());
  EXPECT_EQ(read.value().as_string(), "stale-but-served");

  // A fenced call with no hint surfaces NOT_PRIMARY to the caller.
  old_role->depose("");
  rpc::RpcClient hintless("127.0.0.1", old_port.value());
  EXPECT_EQ(hintless.call("kv.put", {rpc::Value("k")}).status().code(),
            StatusCode::kNotPrimary);

  old_primary.stop();
  new_primary.stop();
}

TEST(FailoverChaos, PromotionWaitsOutTheOldPrimaryLease) {
  ManualClock clock;
  clarens::RegistryOptions options;
  options.default_ttl = from_millis(500);
  clarens::ServiceRegistry registry("arbiter", &clock, options);

  auto old_lease = registry.acquire_primary("svc");
  ASSERT_TRUE(old_lease.is_ok());
  EXPECT_EQ(old_lease.value().epoch, 1u);

  // While the old lease is live, promotion is refused — that refusal IS the
  // fencing window.
  ha::PromotionOptions promotion;
  promotion.registry = &registry;
  promotion.service = "svc";
  promotion.self.name = "svc";
  promotion.self.host = "127.0.0.1";
  promotion.self.port = 9000;
  EXPECT_EQ(ha::promote_standby(promotion).status().code(),
            StatusCode::kAlreadyExists);

  clock.advance_by(from_millis(501));  // the old lease lapses
  auto won = ha::promote_standby(promotion);
  ASSERT_TRUE(won.is_ok());
  EXPECT_EQ(won.value().lease.epoch, 2u);
  // Epochs stay monotonic across arbitrary churn.
  ASSERT_TRUE(registry.release_primary("svc", won.value().lease.lease_id).is_ok());
  auto third = registry.acquire_primary("svc");
  ASSERT_TRUE(third.is_ok());
  EXPECT_EQ(third.value().epoch, 3u);
}

}  // namespace
}  // namespace gae
