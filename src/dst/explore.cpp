#include "dst/explore.h"

namespace gae::dst {

Action draw_action(Rng& rng) {
  Action action;
  const std::int64_t roll = rng.uniform_int(0, 99);
  if (roll < 20) {
    action.kind = Action::Kind::kKillPrimary;
  } else if (roll < 35) {
    action.kind = Action::Kind::kRestartPrimary;
  } else if (roll < 50) {
    action.kind = Action::Kind::kPartitionPrimaryStandby;
  } else if (roll < 60) {
    action.kind = Action::Kind::kPartitionPrimaryArbiter;
  } else if (roll < 70) {
    action.kind = Action::Kind::kPartitionClientPrimary;
  } else if (roll < 85) {
    action.kind = Action::Kind::kHealAll;
  } else if (roll < 95) {
    action.kind = Action::Kind::kSkewPrimaryClock;
    action.amount_us = rng.uniform_int(-100'000, 100'000);
  } else {
    action.kind = Action::Kind::kRotStandbyWalByte;
    action.offset = static_cast<std::size_t>(rng.uniform_int(0, 2000));
  }
  return action;
}

SeedResult run_seed(std::uint64_t seed, const ExploreOptions& options) {
  ClusterOptions cluster_options = options.cluster;
  cluster_options.seed = seed;
  Cluster cluster(cluster_options);

  // The schedule RNG is independent of the cluster's internal RNGs, so
  // changing the action distribution never perturbs network jitter for
  // unrelated seeds.
  Rng rng = Rng(seed).fork("schedule");
  for (int i = 0; i < options.ticks; ++i) {
    if (rng.bernoulli(options.action_prob)) cluster.apply(draw_action(rng));
    cluster.tick();
  }
  // Settle: heal everything and give a pending failover time to win the
  // lease, so the final checks interrogate whichever node ended up primary.
  cluster.apply({Action::Kind::kHealAll});
  for (int i = 0; i < options.settle_ticks; ++i) cluster.tick();

  SeedResult result;
  result.seed = seed;
  result.violations = cluster.violations();
  result.actions = cluster.action_log();
  result.ok = result.violations.empty();
  result.invariant_checks = cluster.invariant_checks();
  result.writes_acked = cluster.writes_acked();
  result.reads_ok = cluster.reads_ok();
  result.reads_err = cluster.reads_err();
  result.promoted = cluster.promoted();
  result.trace = cluster.net().trace();
  return result;
}

ExploreReport explore(std::uint64_t begin, std::uint64_t end,
                      const ExploreOptions& options) {
  ExploreReport report;
  for (std::uint64_t seed = begin; seed < end; ++seed) {
    SeedResult result = run_seed(seed, options);
    ++report.seeds_run;
    report.total_invariant_checks += result.invariant_checks;
    report.total_writes_acked += result.writes_acked;
    if (!result.ok) report.failures.push_back(std::move(result));
  }
  return report;
}

std::string format_failure(const SeedResult& result) {
  std::string out = "seed " + std::to_string(result.seed) + ": " +
                    std::to_string(result.violations.size()) + " violation(s)\n";
  out += "  schedule:\n";
  for (const auto& action : result.actions) out += "    " + action + "\n";
  out += "  violations:\n";
  for (const auto& violation : result.violations) out += "    " + violation + "\n";
  out += "  replay: dst_sweep --seed " + std::to_string(result.seed) + "\n";
  return out;
}

}  // namespace gae::dst
