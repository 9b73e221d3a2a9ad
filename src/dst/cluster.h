// dst::Cluster — the whole GAE service fabric in one deterministic process.
//
// One seeded SimNetwork carries every RPC (monitoring reads, steering
// commands, estimator queries, WAL shipping) between simulated nodes:
//
//   jobmon-a      primary Job Monitoring Service: Clarens host + read cache
//                 + admission, DBManager over a WAL that replicates
//                 synchronously to jobmon-b through the simulated network.
//   jobmon-b      hot standby: ha.* apply plane + a cold JMS promoted by the
//                 supervision plane when jobmon-a dies.
//   estimator-1   Estimator Service (runtime/queue/transfer estimates).
//   steering-1    Steering Service driving the sphinx scheduler.
//   client-1      workload: submissions, monitoring reads, steering ops.
//   arbiter       (implicit) registry + failure detector + supervisor; a
//                 partition from "arbiter" suppresses heartbeats/renewals.
//
// The master clock is the network's: SimNetwork runs on a sim::Simulation
// and every node reads its clock, which only the network's events move. The
// execution grid keeps its own sim::Simulation, caught up to the network's
// time after each network advance, so task progress, the collector and the
// RPC plane interleave on one timeline. Per-node SkewClock wrappers let a
// schedule skew an individual host's view of time without touching the
// master.
//
// Between ticks the cluster checks the invariant set from the issue:
//   I1 no acked-write loss: every update acknowledged while the primary's
//      store was healthy must be present (same-or-later progress, same
//      terminal state) on whichever node currently serves as primary;
//   I2 no two primaries in one fencing epoch;
//   I3 registry primary-lease epochs never decrease;
//   I4 the jobmon read cache never serves a state older than the service's
//      current truth (transitions invalidate synchronously);
//   I5 admission control never deadlocks: zero tickets in flight at every
//      tick boundary, limit never collapses to zero.
//
// Violations are recorded (not thrown) so a sweep can report the seed and
// its full action trace, then replay it bit-identically.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "clarens/host.h"
#include "clarens/registry.h"
#include "common/admission.h"
#include "common/clock.h"
#include "common/rng.h"
#include "common/wal.h"
#include "dst/sim_host.h"
#include "dst/simnet.h"
#include "estimators/estimate_db.h"
#include "estimators/recorder.h"
#include "estimators/runtime_estimator.h"
#include "estimators/service.h"
#include "exec/execution_service.h"
#include "ha/failover.h"
#include "ha/replication.h"
#include "ha/rpc_binding.h"
#include "jobmon/db_manager.h"
#include "jobmon/read_cache.h"
#include "jobmon/service.h"
#include "monalisa/repository.h"
#include "rpc/client.h"
#include "sim/engine.h"
#include "sim/grid.h"
#include "sphinx/scheduler.h"
#include "steering/service.h"
#include "storage/faulty_storage.h"
#include "storage/health.h"
#include "supervision/failure_detector.h"
#include "supervision/supervisor.h"
#include "telemetry/metrics.h"

namespace gae::dst {

/// A per-node clock: the master clock plus an adjustable offset, so a
/// schedule can skew one host's sense of "now" (lease math, cache TTLs)
/// without forking the timeline.
class SkewClock final : public Clock {
 public:
  explicit SkewClock(const Clock& base) : base_(base) {}
  SimTime now() const override { return base_.now() + offset_; }
  void set_offset(SimDuration offset) { offset_ = offset; }
  SimDuration offset() const { return offset_; }

 private:
  const Clock& base_;
  SimDuration offset_ = 0;
};

/// One scripted fault, applied at a tick boundary.
struct Action {
  enum class Kind {
    kNone,
    kKillPrimary,              // kill jobmon-a (process death; stays dead until restart)
    kRestartPrimary,           // revive jobmon-a (possibly as a fenced zombie)
    kPartitionPrimaryStandby,  // jobmon-a <-/-> jobmon-b
    kPartitionPrimaryArbiter,  // heartbeats/renewals stop arriving
    kPartitionClientPrimary,   // client-1 <-/-> current primary
    kHealAll,                  // heal every partition (killed nodes stay dark)
    kSkewPrimaryClock,         // add amount_us to jobmon-a's clock offset
    kRotStandbyWalByte,        // at-rest bit rot in jobmon-b's log
  };
  Kind kind = Kind::kNone;
  SimDuration amount_us = 0;  // kSkewPrimaryClock
  std::size_t offset = 0;     // kRotStandbyWalByte

  std::string describe() const;
};

struct ClusterOptions {
  std::uint64_t seed = 1;
  LinkOptions link;
  /// Record the network event trace (determinism tests compare it).
  bool trace = false;
  /// Virtual time per tick().
  SimDuration tick = from_millis(50);
  int submits_per_tick = 1;
  int reads_per_tick = 2;
};

class Cluster {
 public:
  explicit Cluster(ClusterOptions options);
  ~Cluster();

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  /// Applies one scripted action at the current instant.
  void apply(const Action& action);

  /// One simulation step: workload (submits, reads, steering), network +
  /// grid advance, supervision plane, invariant checks.
  void tick();

  /// All invariant violations recorded so far (empty = healthy run).
  const std::vector<std::string>& violations() const { return violations_; }
  /// Chronological action log ("t=<us> <action>") for failure replay.
  const std::vector<std::string>& action_log() const { return action_log_; }

  SimNetwork& net() { return net_; }
  SimTime now() const { return net_.now(); }

  bool promoted() const { return promoted_; }
  bool primary_killed() const { return primary_killed_; }
  std::uint64_t reads_ok() const { return reads_ok_; }
  std::uint64_t reads_err() const { return reads_err_; }
  std::uint64_t steer_ops() const { return steer_ops_; }
  std::uint64_t estimates_ok() const { return estimates_ok_; }
  std::uint64_t writes_acked() const { return writes_acked_; }
  std::uint64_t invariant_checks() const { return invariant_checks_; }
  std::size_t tasks_submitted() const { return task_ids_.size(); }

 private:
  static constexpr std::uint16_t kJobmonPort = 7100;
  static constexpr std::uint16_t kEstimatorPort = 7300;
  static constexpr std::uint16_t kSteeringPort = 7200;

  std::string primary_node() const { return promoted_ ? "jobmon-b" : "jobmon-a"; }
  jobmon::JobMonitoringService* primary_jms() { return promoted_ ? jms_b_.get() : jms_a_.get(); }
  clarens::ClarensHost& primary_host() { return promoted_ ? host_b_ : host_a_; }

  void build_grid();
  void build_jobmon_pair();
  void build_satellite_services();
  void build_clients();
  void on_acked_update(jobmon::JobMonitoringService* jms, storage::StoreHealth* health,
                       const std::string& task_id);
  void on_promoted();

  void maybe_submit();
  void do_reads();
  void maybe_steer();
  void heartbeat_and_renew();
  void advance(SimDuration dt);
  void check_invariants();
  void violation(const std::string& invariant, const std::string& detail);
  void apply_kill_partitions();

  ClusterOptions options_;
  SimNetwork net_;
  Rng rng_;
  telemetry::MetricsRegistry metrics_;

  SkewClock clock_a_;
  SkewClock clock_b_;
  SkewClock clock_est_;
  SkewClock clock_steer_;

  // Execution grid (virtual world the services monitor/steer).
  sim::Simulation sim_;
  sim::Grid grid_;
  monalisa::Repository monitoring_;
  std::map<std::string, std::unique_ptr<exec::ExecutionService>> execs_;
  std::map<std::string, std::shared_ptr<estimators::RuntimeEstimator>> runtime_est_;
  std::vector<std::unique_ptr<estimators::SiteRuntimeRecorder>> recorders_;
  std::shared_ptr<estimators::EstimateDatabase> estimate_db_;
  std::unique_ptr<sphinx::SphinxScheduler> scheduler_;

  // Arbiter plane (registry + supervision, master clock).
  clarens::ServiceRegistry registry_;
  supervision::FailureDetector detector_;
  supervision::Supervisor supervisor_;

  // jobmon-b standby storage + apply plane.
  MemoryWalStorage store_b_inner_;
  storage::FaultyWalStorage store_b_;
  storage::StoreHealth health_b_;
  ha::StandbyReplica replica_b_;
  ha::StandbySet standbys_;

  // jobmon-a primary replication chain.
  MemoryWalStorage store_a_inner_;
  storage::FaultyWalStorage store_a_;
  storage::StoreHealth health_a_;
  std::unique_ptr<rpc::RpcClient> ship_client_;
  std::unique_ptr<ha::RpcShipperTransport> ship_transport_;
  std::unique_ptr<ha::LogShipper> shipper_;
  std::unique_ptr<ha::ReplicatedWalStorage> replicated_a_;
  std::unique_ptr<Wal> wal_a_;
  std::unique_ptr<Wal> wal_b_;
  std::unique_ptr<jobmon::JobMonitoringService> jms_a_;
  std::unique_ptr<jobmon::JobMonitoringService> jms_b_;
  std::shared_ptr<ha::PrimaryRole> role_a_;
  std::shared_ptr<ha::PrimaryRole> role_b_;
  clarens::PrimaryLease lease_a_;
  clarens::PrimaryLease lease_b_;

  // Hosts + per-host serving infrastructure.
  AdmissionController admission_a_;
  AdmissionController admission_b_;
  jobmon::ReadCache cache_a_;
  jobmon::ReadCache cache_b_;
  clarens::ClarensHost host_a_;
  clarens::ClarensHost host_b_;
  clarens::ClarensHost host_est_;
  clarens::ClarensHost host_steer_;
  std::unique_ptr<estimators::EstimatorService> estimator_svc_;
  std::unique_ptr<steering::SteeringService> steering_svc_;
  std::unique_ptr<SimHost> shost_a_;
  std::unique_ptr<SimHost> shost_b_;
  std::unique_ptr<SimHost> shost_est_;
  std::unique_ptr<SimHost> shost_steer_;

  // Workload clients (node client-1).
  std::unique_ptr<rpc::RpcClient> jobmon_client_;
  std::unique_ptr<rpc::RpcClient> steering_client_;
  std::unique_ptr<rpc::RpcClient> estimator_client_;

  // Oracle + invariant state.
  jobmon::DBManager oracle_;
  std::uint64_t last_epoch_seen_ = 0;
  std::vector<std::string> violations_;
  std::vector<std::string> action_log_;
  std::vector<std::string> task_ids_;
  int next_task_ = 0;
  bool primary_killed_ = false;
  bool promoted_ = false;
  std::uint64_t reads_ok_ = 0;
  std::uint64_t reads_err_ = 0;
  std::uint64_t steer_ops_ = 0;
  std::uint64_t estimates_ok_ = 0;
  std::uint64_t writes_acked_ = 0;
  std::uint64_t invariant_checks_ = 0;
};

}  // namespace gae::dst
