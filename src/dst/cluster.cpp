#include "dst/cluster.h"

#include <utility>

#include "estimators/history.h"
#include "estimators/rpc_binding.h"
#include "estimators/transfer_estimator.h"
#include "exec/job.h"
#include "jobmon/rpc_binding.h"
#include "rpc/deadline.h"
#include "sim/load.h"
#include "steering/rpc_binding.h"

namespace gae::dst {

namespace {

// Detector cadence: generous relative to the tick so a partitioned client
// read (which burns virtual time inside one tick) does not starve a live
// primary of heartbeats and trigger spurious failovers.
constexpr int kDeadAfterMissed = 30;

clarens::HostOptions open_host() {
  clarens::HostOptions options;
  options.require_auth = false;
  return options;
}

clarens::RegistryOptions registry_options(SimDuration ttl) {
  clarens::RegistryOptions options;
  options.default_ttl = ttl;
  return options;
}

supervision::FailureDetectorOptions detector_options(SimDuration tick) {
  supervision::FailureDetectorOptions options;
  options.heartbeat_interval = tick;
  options.suspect_after_missed = kDeadAfterMissed / 2;
  options.dead_after_missed = kDeadAfterMissed;
  return options;
}

supervision::SupervisorOptions supervisor_options() {
  supervision::SupervisorOptions options;
  options.restart_backoff = RetryPolicy{/*max_attempts=*/1000, /*initial_backoff_ms=*/25,
                                        /*backoff_multiplier=*/1.5, /*max_backoff_ms=*/200,
                                        /*jitter_fraction=*/0.0, /*jitter_seed=*/1};
  return options;
}

const std::vector<std::string>& other_nodes() {
  static const std::vector<std::string> nodes = {"jobmon-b", "estimator-1", "steering-1",
                                                 "client-1", "arbiter"};
  return nodes;
}

}  // namespace

std::string Action::describe() const {
  switch (kind) {
    case Kind::kNone: return "none";
    case Kind::kKillPrimary: return "kill jobmon-a";
    case Kind::kRestartPrimary: return "restart jobmon-a";
    case Kind::kPartitionPrimaryStandby: return "partition jobmon-a <-> jobmon-b";
    case Kind::kPartitionPrimaryArbiter: return "partition jobmon-a <-> arbiter";
    case Kind::kPartitionClientPrimary: return "partition client-1 <-> primary";
    case Kind::kHealAll: return "heal all partitions";
    case Kind::kSkewPrimaryClock:
      return "skew jobmon-a clock by " + std::to_string(amount_us) + "us";
    case Kind::kRotStandbyWalByte:
      return "bit-rot standby wal byte " + std::to_string(offset);
  }
  return "unknown";
}

Cluster::Cluster(ClusterOptions options)
    : options_(options),
      net_(options.seed, /*start=*/1'000'000),
      rng_(Rng(options.seed).fork("cluster")),
      clock_a_(net_.clock()),
      clock_b_(net_.clock()),
      clock_est_(net_.clock()),
      clock_steer_(net_.clock()),
      registry_("arbiter", &net_.clock(), registry_options(kDeadAfterMissed * options.tick)),
      detector_(net_.clock(), detector_options(options.tick)),
      supervisor_(net_.clock(), supervisor_options()),
      store_b_(&store_b_inner_),
      health_b_("jobmon-b", &metrics_),
      replica_b_("jobmon", &store_b_),
      store_a_(&store_a_inner_),
      health_a_("jobmon-a", &metrics_),
      role_a_(std::make_shared<ha::PrimaryRole>()),
      role_b_(std::make_shared<ha::PrimaryRole>()),
      admission_a_(net_.clock()),
      admission_b_(net_.clock()),
      host_a_("jobmon-a", clock_a_, open_host()),
      host_b_("jobmon-b", clock_b_, open_host()),
      host_est_("estimator-1", clock_est_, open_host()),
      host_steer_("steering-1", clock_steer_, open_host()),
      oracle_(nullptr, nullptr) {
  net_.link() = options_.link;
  net_.set_trace_enabled(options_.trace);
  // All deadline math (client budgets, cache TTLs, admission CoDel) runs on
  // virtual time for the cluster's lifetime.
  rpc::set_steady_clock_override(&net_.clock());

  build_grid();
  build_jobmon_pair();
  build_satellite_services();
  build_clients();
}

Cluster::~Cluster() {
  // Tear hosts down before the network/dispatchers they reference.
  shost_a_.reset();
  shost_b_.reset();
  shost_est_.reset();
  shost_steer_.reset();
  rpc::set_steady_clock_override(nullptr);
}

void Cluster::build_grid() {
  grid_.add_site("cern").add_node("cern-0", 1.0, std::make_shared<sim::ConstantLoad>(0.85));
  grid_.site("cern").add_node("cern-1", 1.0, std::make_shared<sim::ConstantLoad>(0.85));
  grid_.add_site("caltech").add_node("ct-0", 1.0, nullptr);
  grid_.add_site("nust").add_node("nu-0", 0.8, nullptr);
  grid_.set_default_link({100e6, from_millis(30)});

  for (const auto& name : grid_.site_names()) {
    execs_[name] = std::make_unique<exec::ExecutionService>(sim_, grid_, name);
    runtime_est_[name] = std::make_shared<estimators::RuntimeEstimator>(
        std::make_shared<estimators::TaskHistoryStore>());
    recorders_.push_back(
        std::make_unique<estimators::SiteRuntimeRecorder>(*execs_[name], runtime_est_[name]));
  }
  estimate_db_ = std::make_shared<estimators::EstimateDatabase>();
  scheduler_ = std::make_unique<sphinx::SphinxScheduler>(sim_, grid_, &monitoring_, estimate_db_);
  for (const auto& name : grid_.site_names()) {
    scheduler_->add_site(name, {execs_[name].get(), runtime_est_[name]});
  }

  // Seed runtime history so the estimator plane has something to say.
  const std::map<std::string, std::string> attrs = {
      {"executable", "reco"}, {"login", "alice"}, {"queue", "q"}, {"nodes", "1"}};
  for (auto& [name, est] : runtime_est_) {
    (void)name;
    for (int i = 0; i < 5; ++i) est->record(attrs, 20.0, 0);
  }
}

void Cluster::build_jobmon_pair() {
  // Primary lease + roles.
  const SimDuration ttl = kDeadAfterMissed * options_.tick;
  auto lease = registry_.acquire_primary("jobmon", ttl);
  lease_a_ = lease.value();
  role_a_->make_primary(lease_a_.epoch);

  // a -> b sync WAL shipping over the simulated network.
  rpc::ClientOptions ship_opts;
  ship_opts.clock = &net_.clock();
  ship_opts.transport = &net_.transport_for("jobmon-a");
  ship_opts.sleep_ms = [this](int ms) { net_.run_for(static_cast<SimDuration>(ms) * 1000); };
  ship_opts.default_call.retry =
      RetryPolicy{/*max_attempts=*/2, /*initial_backoff_ms=*/20, /*backoff_multiplier=*/2.0,
                  /*max_backoff_ms=*/100, /*jitter_fraction=*/0.0, /*jitter_seed=*/7};
  ship_client_ = std::make_unique<rpc::RpcClient>(
      std::vector<rpc::Endpoint>{{"jobmon-b", kJobmonPort}}, rpc::Protocol::kXmlRpc, ship_opts);
  ship_transport_ = std::make_unique<ha::RpcShipperTransport>(ship_client_.get(),
                                                              /*deadline_ms=*/800);
  ha::ShipperOptions shipper_options;
  shipper_options.mode = ha::ReplicationMode::kSync;
  shipper_options.leader_host = "jobmon-a";
  shipper_options.leader_port = kJobmonPort;
  shipper_options.metrics = &metrics_;
  shipper_ = std::make_unique<ha::LogShipper>("jobmon", shipper_options);
  shipper_->add_standby(ship_transport_.get());
  shipper_->set_epoch(lease_a_.epoch);
  shipper_->set_on_deposed(
      [this] { role_a_->depose(ha::format_leader_hint("jobmon-b", kJobmonPort)); });

  replicated_a_ = std::make_unique<ha::ReplicatedWalStorage>(&store_a_, shipper_.get());
  wal_a_ = std::make_unique<Wal>(replicated_a_.get());
  jms_a_ = std::make_unique<jobmon::JobMonitoringService>(clock_a_, &monitoring_, estimate_db_,
                                                          wal_a_.get());
  jms_a_->mutable_db().attach_health(&health_a_);
  for (const auto& name : grid_.site_names()) jms_a_->attach_site(name, execs_[name].get());
  jms_a_->add_update_listener([this](const std::string& task_id, exec::TaskState) {
    on_acked_update(jms_a_.get(), &health_a_, task_id);
  });

  // Standby: ha.* apply plane plus a cold JMS over the replica's log.
  standbys_.add(&replica_b_);
  ha::register_ha_methods(host_b_, standbys_);
  wal_b_ = std::make_unique<Wal>(&store_b_);
  jms_b_ = std::make_unique<jobmon::JobMonitoringService>(clock_b_, &monitoring_, estimate_db_,
                                                          wal_b_.get());
  jms_b_->mutable_db().attach_health(&health_b_);
  jms_b_->add_update_listener([this](const std::string& task_id, exec::TaskState) {
    if (promoted_) on_acked_update(jms_b_.get(), &health_b_, task_id);
  });

  jobmon::register_jobmon_methods(host_a_, *jms_a_, nullptr, &metrics_, &admission_a_,
                                  /*staleness_ms=*/2000, &cache_a_);
  jobmon::register_jobmon_methods(host_b_, *jms_b_, nullptr, &metrics_, &admission_b_,
                                  /*staleness_ms=*/2000, &cache_b_);

  // Supervision: detector watches the primary's beats; a dead verdict runs
  // the promotion recipe until the standby wins the lease.
  detector_.watch("jobmon-primary");
  detector_.heartbeat("jobmon-primary");
  supervisor_.attach(detector_);
  ha::PromotionOptions promotion;
  promotion.registry = &registry_;
  promotion.service = "jobmon";
  promotion.self.name = "jobmon";
  promotion.self.host = "jobmon-b";
  promotion.self.port = kJobmonPort;
  promotion.lease_ttl = ttl;
  promotion.replica = &replica_b_;
  promotion.replay = [this] { return jms_b_->mutable_db().recover(); };
  promotion.role = role_b_;
  promotion.drop_caches = [this] { cache_b_.invalidate_all(); };
  promotion.metrics = &metrics_;
  promotion.clock = &net_.clock();
  supervisor_.manage(ha::make_promotion_recipe(
      "jobmon-primary", promotion, [this](const ha::Promotion& p) {
        lease_b_ = p.lease;
        on_promoted();
      }));

  rpc::ConnectionOptions host_opts;
  host_opts.recv_timeout_ms = 1000;
  host_opts.admission = &admission_a_;
  shost_a_ = std::make_unique<SimHost>(net_, "jobmon-a", host_a_.dispatcher_ptr(), kJobmonPort,
                                       host_opts);
  host_opts.admission = &admission_b_;
  shost_b_ = std::make_unique<SimHost>(net_, "jobmon-b", host_b_.dispatcher_ptr(), kJobmonPort,
                                       host_opts);
  shost_a_->start();
  shost_b_->start();
}

void Cluster::build_satellite_services() {
  estimator_svc_ = std::make_unique<estimators::EstimatorService>(
      estimate_db_, std::make_unique<estimators::FileTransferEstimator>(grid_),
      estimators::QueueTimeOptions{});
  for (const auto& name : grid_.site_names()) {
    estimator_svc_->add_site(name, runtime_est_[name], execs_[name].get());
  }
  estimators::register_estimator_methods(host_est_, *estimator_svc_, nullptr, &metrics_);

  steering::SteeringService::Deps deps;
  deps.sim = &sim_;
  deps.scheduler = scheduler_.get();
  deps.jobmon = jms_a_.get();
  for (const auto& name : grid_.site_names()) deps.services[name] = execs_[name].get();
  deps.monitoring = &monitoring_;
  steering::SteeringOptions steer_opts;
  steer_opts.auto_steer = true;
  steering_svc_ = std::make_unique<steering::SteeringService>(deps, steer_opts);
  steering::register_steering_methods(host_steer_, *steering_svc_, nullptr, &metrics_);

  rpc::ConnectionOptions host_opts;
  host_opts.recv_timeout_ms = 1000;
  shost_est_ = std::make_unique<SimHost>(net_, "estimator-1", host_est_.dispatcher_ptr(),
                                         kEstimatorPort, host_opts);
  shost_steer_ = std::make_unique<SimHost>(net_, "steering-1", host_steer_.dispatcher_ptr(),
                                           kSteeringPort, host_opts);
  shost_est_->start();
  shost_steer_->start();
}

void Cluster::build_clients() {
  rpc::ClientOptions client_opts;
  client_opts.clock = &net_.clock();
  client_opts.transport = &net_.transport_for("client-1");
  client_opts.sleep_ms = [this](int ms) { net_.run_for(static_cast<SimDuration>(ms) * 1000); };
  client_opts.default_call.deadline_ms = 400;
  client_opts.default_call.retry =
      RetryPolicy{/*max_attempts=*/2, /*initial_backoff_ms=*/10, /*backoff_multiplier=*/2.0,
                  /*max_backoff_ms=*/50, /*jitter_fraction=*/0.0, /*jitter_seed=*/11};

  jobmon_client_ = std::make_unique<rpc::RpcClient>(
      std::vector<rpc::Endpoint>{{"jobmon-a", kJobmonPort}, {"jobmon-b", kJobmonPort}},
      rpc::Protocol::kXmlRpc, client_opts);
  steering_client_ = std::make_unique<rpc::RpcClient>(
      std::vector<rpc::Endpoint>{{"steering-1", kSteeringPort}}, rpc::Protocol::kJsonRpc,
      client_opts);
  estimator_client_ = std::make_unique<rpc::RpcClient>(
      std::vector<rpc::Endpoint>{{"estimator-1", kEstimatorPort}}, rpc::Protocol::kXmlRpc,
      client_opts);
}

void Cluster::on_acked_update(jobmon::JobMonitoringService* jms, storage::StoreHealth* health,
                              const std::string& task_id) {
  // A write counts as acknowledged only if the store is still healthy after
  // it: a failed append or a failed sync ship latches the store read-only
  // before control returns here, so un-replicated writes never enter the
  // oracle.
  if (!health->writable()) return;
  auto rec = jms->db().get(task_id);
  if (!rec.is_ok()) return;
  oracle_.update(task_id, rec.value().info, rec.value().site, net_.now());
  ++writes_acked_;
}

void Cluster::on_promoted() {
  promoted_ = true;
  // The promoted standby starts collecting live task state itself.
  for (const auto& name : grid_.site_names()) jms_b_->attach_site(name, execs_[name].get());
}

void Cluster::apply_kill_partitions() {
  for (const auto& peer : other_nodes()) net_.partition_both("jobmon-a", peer);
}

void Cluster::apply(const Action& action) {
  action_log_.push_back("t=" + std::to_string(now()) + " " + action.describe());
  switch (action.kind) {
    case Action::Kind::kNone:
      break;
    case Action::Kind::kKillPrimary:
      if (primary_killed_) break;
      primary_killed_ = true;
      shost_a_->stop();
      net_.kill_node("jobmon-a");
      // A dead process neither ships nor heartbeats: partition it from
      // everything until a restart.
      apply_kill_partitions();
      break;
    case Action::Kind::kRestartPrimary: {
      if (!primary_killed_) break;
      primary_killed_ = false;
      for (const auto& peer : other_nodes()) net_.heal_both("jobmon-a", peer);
      // A clean restart replays the local log (dropping memory-only state);
      // a latched store skips replay and stays degraded, as on real media.
      if (health_a_.writable()) (void)jms_a_->mutable_db().recover();
      rpc::ConnectionOptions host_opts;
      host_opts.recv_timeout_ms = 1000;
      host_opts.admission = &admission_a_;
      shost_a_ = std::make_unique<SimHost>(net_, "jobmon-a", host_a_.dispatcher_ptr(),
                                           kJobmonPort, host_opts);
      shost_a_->start();
      break;
    }
    case Action::Kind::kPartitionPrimaryStandby:
      net_.partition_both("jobmon-a", "jobmon-b");
      break;
    case Action::Kind::kPartitionPrimaryArbiter:
      net_.partition_both("jobmon-a", "arbiter");
      break;
    case Action::Kind::kPartitionClientPrimary:
      net_.partition_both("client-1", primary_node());
      break;
    case Action::Kind::kHealAll:
      net_.heal_all();
      if (primary_killed_) apply_kill_partitions();
      break;
    case Action::Kind::kSkewPrimaryClock:
      clock_a_.set_offset(clock_a_.offset() + action.amount_us);
      break;
    case Action::Kind::kRotStandbyWalByte:
      store_b_.rot_byte(action.offset);
      break;
  }
}

void Cluster::maybe_submit() {
  exec::TaskSpec spec;
  spec.id = "t" + std::to_string(next_task_++);
  spec.owner = "alice";
  spec.work_seconds = rng_.uniform(0.5, 20.0);
  spec.attributes = {
      {"executable", "reco"}, {"login", "alice"}, {"queue", "q"}, {"nodes", "1"}};
  sphinx::JobDescription job;
  job.id = "job-" + spec.id;
  job.owner = "alice";
  job.tasks.push_back({spec, {}});
  if (scheduler_->submit(job).is_ok()) task_ids_.push_back(spec.id);
}

void Cluster::do_reads() {
  if (task_ids_.empty()) return;
  for (int i = 0; i < options_.reads_per_tick; ++i) {
    const std::string& id = rng_.pick(task_ids_);
    // The networked read exercises client failover/redirect/retry; its
    // answer may be legitimately stale (served by a fenced-but-alive
    // replica), so it feeds counters, not invariants.
    auto over_wire = jobmon_client_->call("jobmon.status", {rpc::Value(id)});
    if (over_wire.is_ok()) {
      ++reads_ok_;
    } else {
      ++reads_err_;
    }

    // I4 (cache staleness) is a property of one host's cache layer: at a
    // single instant, the dispatcher path (cache-wrapped binding) must
    // agree with the service's own answer — every job-state transition
    // invalidates synchronously, so a cached value older than the current
    // state is a bug, not a staleness allowance.
    if (primary_killed_ && !promoted_) continue;
    ++invariant_checks_;
    auto cached = primary_host().call("jobmon.status", {rpc::Value(id)});
    auto direct = primary_jms()->status(id);
    if (cached.is_ok() && direct.is_ok() && cached.value().as_string() != direct.value()) {
      violation("jobmon-cache-staleness", "task " + id + ": cache path says '" +
                                              cached.value().as_string() +
                                              "' but service truth is '" + direct.value() + "'");
    }
  }
  auto estimate = estimator_client_->call("estimator.sites", {});
  if (estimate.is_ok()) ++estimates_ok_;
}

void Cluster::maybe_steer() {
  if (task_ids_.empty() || !rng_.bernoulli(0.3)) return;
  const std::string& id = rng_.pick(task_ids_);
  const char* op = rng_.bernoulli(0.5) ? "steering.pause" : "steering.resume";
  // Steering a task that already finished (or was never watched) fails
  // NOT_FOUND; the workload only cares that the command plane stays up.
  if (steering_client_->call(op, {rpc::Value(id)}).is_ok()) ++steer_ops_;
}

void Cluster::heartbeat_and_renew() {
  if (!primary_killed_ && !net_.partitioned("jobmon-a", "arbiter")) {
    detector_.heartbeat("jobmon-primary");
    (void)registry_.renew_primary("jobmon", lease_a_.lease_id);  // fails once deposed
  }
  if (promoted_ && !net_.partitioned("jobmon-b", "arbiter")) {
    (void)registry_.renew_primary("jobmon", lease_b_.lease_id);
  }
}

void Cluster::advance(SimDuration dt) {
  net_.run_for(dt);
  // Catch the execution grid's discrete-event world up to the network's.
  sim_.run_until(net_.now());
}

void Cluster::tick() {
  maybe_submit();
  do_reads();
  maybe_steer();
  advance(options_.tick / 2);
  heartbeat_and_renew();
  detector_.check();
  supervisor_.tick();
  registry_.sweep();
  advance(options_.tick - options_.tick / 2);
  check_invariants();
}

void Cluster::violation(const std::string& invariant, const std::string& detail) {
  violations_.push_back("t=" + std::to_string(now()) + " [" + invariant + "] " + detail);
}

void Cluster::check_invariants() {
  ++invariant_checks_;

  // I1: no *silent* acked-write loss. Every record the oracle acknowledged
  // must be present on the node currently serving as primary, at the same
  // or a later point of the task's life. Loss is tolerated only when the
  // storage layer detected damage and said so (latched read-only or
  // quarantined) — injected bit rot may legitimately destroy data, but it
  // must never do so while the store still claims to serve a trustworthy
  // view. A read-only store still answers reads, so it is still checked; a
  // quarantined one refuses them, which is detection, not silence.
  storage::StoreHealth* primary_health = promoted_ ? &health_b_ : &health_a_;
  if (!(primary_killed_ && !promoted_) && primary_health->readable()) {
    jobmon::JobMonitoringService* jms = primary_jms();
    for (const auto& orec : oracle_.all()) {
      const std::string& id = orec.info.spec.id;
      auto cur = jms->db().get(id);
      if (!cur.is_ok()) {
        violation("acked-write-loss", "acked task " + id + " missing from " + primary_node() +
                                          ": " + cur.status().message());
        continue;
      }
      const auto& cinfo = cur.value().info;
      if (exec::is_terminal(orec.info.state)) {
        if (cinfo.state != orec.info.state) {
          violation("acked-write-loss",
                    "task " + id + " acked terminal state " +
                        exec::task_state_name(orec.info.state) + " but " + primary_node() +
                        " has " + exec::task_state_name(cinfo.state));
        }
      } else if (cinfo.progress + 1e-9 < orec.info.progress) {
        violation("acked-write-loss",
                  "task " + id + " acked progress " + std::to_string(orec.info.progress) +
                      " but " + primary_node() + " regressed to " +
                      std::to_string(cinfo.progress));
      }
    }
  }

  // I2: at most one primary per fencing epoch.
  if (role_a_->is_primary() && role_b_->is_primary() && role_a_->epoch() == role_b_->epoch()) {
    violation("two-primaries",
              "jobmon-a and jobmon-b both primary in epoch " + std::to_string(role_a_->epoch()));
  }

  // I3: registry lease epochs are monotonic.
  const std::uint64_t epoch = registry_.primary_epoch("jobmon");
  if (epoch < last_epoch_seen_) {
    violation("lease-monotonicity", "primary epoch went backwards: " +
                                        std::to_string(last_epoch_seen_) + " -> " +
                                        std::to_string(epoch));
  }
  last_epoch_seen_ = epoch;

  // I5: admission control cannot deadlock — all tickets returned at every
  // tick boundary (the workload is synchronous), and the AIMD limit never
  // collapses to zero.
  for (auto* admission : {&admission_a_, &admission_b_}) {
    if (admission->in_flight() != 0) {
      violation("admission-deadlock",
                "tickets still held at tick boundary: " + std::to_string(admission->in_flight()));
    }
    if (admission->limit() == 0) {
      violation("admission-deadlock", "admission limit collapsed to zero");
    }
  }
}

}  // namespace gae::dst
