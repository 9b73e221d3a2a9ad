// Integrity ablation: recovery outcome and repair latency across seeded
// disk-fault schedules against a jobmon primary with one sync standby.
//
// Each trial drives a workload over a FaultyWalStorage that rots bytes at
// rest and latches the write path (torn appends / failed fsyncs) on a
// seeded schedule. The scrubber runs every step; a quarantine triggers
// repair-from-standby. Reported:
//   - detection: injected corruptions vs scrub detections (must be 1:1 —
//     CRC framing catches every single-byte flip)
//   - repair latency: wall-clock p50/p99 of repair_from_standby, split by
//     what triggered it (bit rot vs write-path latch)
//   - acked-write loss: updates acknowledged to the caller that the
//     post-chaos recovered store does NOT hold. Must be 0 in every trial.
#include <chrono>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "bench_json.h"
#include "common/clock.h"
#include "common/rng.h"
#include "common/wal.h"
#include "exec/job.h"
#include "ha/replication.h"
#include "jobmon/db_manager.h"
#include "storage/faulty_storage.h"
#include "storage/health.h"
#include "storage/repair.h"
#include "storage/scrubber.h"
#include "supervision/supervisor.h"
#include "telemetry/metrics.h"

using namespace gae;

namespace {

constexpr int kTrials = 20;
constexpr int kSteps = 300;

struct TrialResult {
  std::uint64_t injected = 0;   // corruptions + latches injected
  std::uint64_t detected = 0;   // scrub quarantines + latch surfacings
  std::uint64_t repairs = 0;
  int acked = 0;
  int lost = 0;
};

exec::TaskInfo make_task(const std::string& id, double progress) {
  exec::TaskInfo info;
  info.spec.id = id;
  info.spec.owner = "bench";
  info.spec.work_seconds = 50.0;
  info.state = exec::TaskState::kRunning;
  info.progress = progress;
  return info;
}

double wall_us(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - start)
      .count();
}

TrialResult run_trial(int seed, double rot_rate, double latch_rate,
                      std::vector<double>& rot_repair_us,
                      std::vector<double>& latch_repair_us) {
  TrialResult result;
  ManualClock clock;

  MemoryWalStorage primary_media, standby_media;
  storage::FaultyWalStorage faulty(&primary_media, {});
  ha::StandbyReplica replica("jobmon", &standby_media);
  ha::LocalShipperTransport transport(&replica);
  ha::LogShipper shipper("jobmon", {});
  shipper.add_standby(&transport);
  shipper.set_epoch(1);
  ha::ReplicatedWalStorage replicated(&faulty, &shipper);
  Wal wal(&replicated);
  storage::StoreHealth health("jobmon");
  jobmon::DBManager db(nullptr, &wal);
  db.attach_health(&health);

  telemetry::MetricsRegistry metrics;
  const telemetry::Counter& corruptions = metrics.counter("wal.jobmon.scrub.corrupt");
  storage::ScrubberOptions scrub_options;
  scrub_options.interval = 0;  // scrub whenever ticked
  scrub_options.metrics = &metrics;
  storage::Scrubber scrubber(clock, scrub_options);
  scrubber.add_target({"jobmon", &faulty, &health});

  storage::RepairOptions repair;
  repair.stream = "jobmon";
  repair.storage = &faulty;
  repair.source = &transport;
  repair.health = &health;
  repair.scrubber = &scrubber;
  repair.replay = [&db]() { return db.recover(); };

  Rng chaos(static_cast<std::uint64_t>(seed) * 7919 + 17);
  std::map<std::string, std::string> acked;  // task -> encoded record
  bool pending_rot = false;   // what the next repair is attributed to
  bool pending_latch = false;

  for (int step = 0; step < kSteps; ++step) {
    // Inject at most one fault per step, and only into a healthy store, so
    // every injection maps to exactly one detection (1:1 accounting).
    const bool healthy =
        faulty.writable() && health.state() == storage::StoreState::kHealthy;
    if (healthy && chaos.bernoulli(rot_rate) && !primary_media.bytes().empty()) {
      faulty.rot_byte(static_cast<std::size_t>(chaos.uniform_int(
          0, static_cast<std::int64_t>(primary_media.bytes().size()) - 1)));
      ++result.injected;
      pending_rot = true;
    } else if (healthy && chaos.bernoulli(latch_rate)) {
      faulty.force_latch();
      ++result.injected;
      pending_latch = true;
    }

    const std::string id = "t" + std::to_string(step % 20);
    const exec::TaskInfo info = make_task(id, 0.01 * (step % 100));
    const std::uint64_t before = wal.appends();
    db.update(id, info, "site-a", from_seconds(step));
    if (wal.appends() > before) {
      jobmon::JobRecord rec;
      rec.info = info;
      rec.site = "site-a";
      rec.updated_at = from_seconds(step);
      ++result.acked;
      acked[id] = jobmon::encode_job_record(id, rec);
    }

    // Detection: the scrubber finds at-rest rot; the health surface picks
    // up a latched write path the same step it bites (a failed append may
    // already have marked it read-only — escalate to quarantine either way).
    if (!faulty.writable() &&
        health.state() != storage::StoreState::kQuarantined) {
      health.mark_read_only("storage latched");
      health.quarantine("latched media needs standby resync");
      ++result.detected;
    }
    const auto before_scrub = corruptions.value();
    clock.advance_by(from_millis(100));
    scrubber.tick();
    result.detected += corruptions.value() - before_scrub;

    if (health.state() == storage::StoreState::kQuarantined) {
      const auto start = std::chrono::steady_clock::now();
      auto fixed = storage::repair_from_standby(repair);
      const double us = wall_us(start);
      if (fixed.is_ok()) {
        ++result.repairs;
        // Attribute to the dominant trigger this window (rot wins ties —
        // it is what the scrubber actually detected).
        (pending_rot ? rot_repair_us : latch_repair_us).push_back(us);
        pending_rot = pending_latch = false;
      }
    }
  }

  // Final heal + loss accounting.
  if (health.state() != storage::StoreState::kHealthy) {
    (void)storage::repair_from_standby(repair);
  }
  Wal verify_wal(&primary_media);
  jobmon::DBManager verify(nullptr, &verify_wal);
  if (!verify.recover().is_ok()) {
    result.lost = result.acked;
    return result;
  }
  for (const auto& [id, encoded] : acked) {
    auto got = verify.get(id);
    if (!got.is_ok() || jobmon::encode_job_record(id, got.value()) != encoded) {
      ++result.lost;
    }
  }
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<double> rot_repair_us, latch_repair_us;
  TrialResult total;
  int trials_with_loss = 0;

  for (int seed = 1; seed <= kTrials; ++seed) {
    const TrialResult r =
        run_trial(seed, /*rot_rate=*/0.05, /*latch_rate=*/0.03, rot_repair_us,
                  latch_repair_us);
    total.injected += r.injected;
    total.detected += r.detected;
    total.repairs += r.repairs;
    total.acked += r.acked;
    total.lost += r.lost;
    if (r.lost > 0) ++trials_with_loss;
  }

  std::printf("abl_integrity: %d seeded fault schedules, %d steps each\n",
              kTrials, kSteps);
  std::printf("  faults injected:   %llu\n",
              static_cast<unsigned long long>(total.injected));
  std::printf("  faults detected:   %llu\n",
              static_cast<unsigned long long>(total.detected));
  std::printf("  repairs completed: %llu\n",
              static_cast<unsigned long long>(total.repairs));
  std::printf("  acked writes:      %d (lost: %d, trials with loss: %d)\n",
              total.acked, total.lost, trials_with_loss);

  const auto rot = bench::summarize("repair_after_bit_rot", rot_repair_us);
  const auto latch = bench::summarize("repair_after_latch", latch_repair_us);
  std::printf("  repair latency (bit rot): p50 %.1fus p99 %.1fus over %zu\n",
              rot.p50_us, rot.p99_us, rot.iterations);
  std::printf("  repair latency (latch):   p50 %.1fus p99 %.1fus over %zu\n",
              latch.p50_us, latch.p99_us, latch.iterations);

  const std::string json = bench::bench_json_path(argc, argv);
  if (!json.empty()) {
    std::vector<std::string> extra;
    extra.push_back("\"trials\": " + std::to_string(kTrials));
    extra.push_back("\"faults_injected\": " + std::to_string(total.injected));
    extra.push_back("\"faults_detected\": " + std::to_string(total.detected));
    extra.push_back("\"repairs\": " + std::to_string(total.repairs));
    extra.push_back("\"acked_writes\": " + std::to_string(total.acked));
    extra.push_back("\"acked_writes_lost\": " + std::to_string(total.lost));
    extra.push_back("\"trials_with_loss\": " + std::to_string(trials_with_loss));
    if (!bench::write_bench_json(json, "abl_integrity", {rot, latch}, extra)) {
      std::fprintf(stderr, "failed to write %s\n", json.c_str());
      return 1;
    }
    std::printf("  wrote %s\n", json.c_str());
  }
  return total.lost == 0 ? 0 : 1;
}
