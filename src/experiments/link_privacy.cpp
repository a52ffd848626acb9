#include "experiments/link_privacy.hpp"

#include <algorithm>
#include <utility>

#include "common/check.hpp"
#include "common/stats.hpp"
#include "experiments/scenario.hpp"
#include "runner/sweep.hpp"

namespace ppo::experiments {
namespace {

using inference::AttackMetrics;
using inference::ObserverPlan;

OverlayScenario privacy_scenario(const FigureScale& scale,
                                 const LinkPrivacySpec& spec,
                                 double lifetime, std::uint64_t seed_salt) {
  OverlayScenario scenario;
  scenario.churn.alpha = spec.alpha;
  scenario.window = scale.window;
  scenario.seed = scale.seed ^ seed_salt;
  scenario.params.pseudonym_lifetime = lifetime;
  scenario.shards = scale.shards;
  return scenario;
}

void arm_defenses(OverlayScenario& scenario, const LinkPrivacySpec& spec) {
  scenario.params.validate_received = true;
  scenario.params.peer_rate_limit = spec.peer_rate_limit;
  scenario.params.peer_rate_window = spec.peer_rate_window;
}

/// Full inference pipeline over one run's log: entity formation, then
/// every registered attack scored against the ground truth.
struct ArmResult {
  std::vector<AttackMetrics> per_attack;  // all_attacks() order
  std::vector<std::uint64_t> fingerprints;
  double observations = 0.0;
  double entities = 0.0;
  std::uint64_t log_fingerprint = 0;
};

ArmResult evaluate_log(const std::vector<inference::ObservationRecord>& log,
                       const graph::Graph& trust,
                       const inference::AttackOptions& options) {
  ArmResult out;
  out.observations = static_cast<double>(log.size());
  out.log_fingerprint = inference::log_fingerprint(log);
  const auto entities = inference::link_pseudonym_lifetimes(log, options);
  out.entities = static_cast<double>(entities.num_entities);
  const auto truth =
      inference::entity_truth_map(entities, log, trust.num_nodes());
  for (const auto& attack : inference::all_attacks()) {
    const auto candidates = attack.run(entities, log, options);
    const auto ranked =
        inference::map_to_node_edges(candidates, truth, trust.num_nodes());
    out.per_attack.push_back(inference::score_edges(ranked, trust));
    out.fingerprints.push_back(inference::edges_fingerprint(ranked));
  }
  return out;
}

}  // namespace

LinkPrivacyFigure link_privacy_sweep(Workbench& bench,
                                     const FigureScale& scale,
                                     const LinkPrivacySpec& spec) {
  const graph::Graph& trust = bench.trust_graph(0.5);

  LinkPrivacyFigure fig;
  fig.lifetimes = spec.lifetimes;
  fig.coverages = spec.coverages;
  for (const auto& attack : inference::all_attacks())
    fig.attacks.push_back(attack.name);
  fig.true_edges = trust.num_edges();

  const std::size_t arms = spec.defended_arm ? 2 : 1;
  const std::size_t replicas = std::max<std::size_t>(1, scale.replicas);
  fig.replicas = replicas;

  runner::SweepOptions opt;
  opt.jobs = scale.jobs;
  opt.root_seed = scale.seed;
  opt.progress = scale.progress;
  opt.label = "link-privacy-sweep";

  const std::size_t points = spec.lifetimes.size() * spec.coverages.size();
  auto grid = runner::run_grid(
      points * replicas, opt, [&](const runner::CellInfo& cell) {
        const std::size_t point = cell.index / replicas;
        const double lifetime = spec.lifetimes[point / spec.coverages.size()];
        const double coverage = spec.coverages[point % spec.coverages.size()];

        OverlayScenario scenario =
            privacy_scenario(scale, spec, lifetime, 1337 + cell.index);
        ObserverPlan plan;
        plan.coverage = coverage;
        plan.seed = scenario.seed ^ 0x0B5E0000;
        scenario.observer = plan;

        std::vector<ArmResult> out;
        out.reserve(arms);
        const auto open = run_overlay(trust, scenario);
        out.push_back(
            evaluate_log(open.observations, trust, spec.attack_options));
        if (spec.defended_arm) {
          OverlayScenario defended = scenario;
          arm_defenses(defended, spec);
          const auto run = run_overlay(trust, defended);
          out.push_back(
              evaluate_log(run.observations, trust, spec.attack_options));
        }
        return out;
      });

  for (std::size_t point = 0; point < points; ++point) {
    const double lifetime = spec.lifetimes[point / spec.coverages.size()];
    const double coverage = spec.coverages[point % spec.coverages.size()];
    for (std::size_t arm = 0; arm < arms; ++arm) {
      for (std::size_t k = 0; k < fig.attacks.size(); ++k) {
        RunningStats precision, recall, auc, observations, entities;
        for (std::size_t r = 0; r < replicas; ++r) {
          const auto& values = grid.cells[point * replicas + r];
          PPO_CHECK(values.size() == arms);
          const ArmResult& result = values[arm];
          PPO_CHECK(result.per_attack.size() == fig.attacks.size());
          precision.add(result.per_attack[k].precision);
          recall.add(result.per_attack[k].recall);
          auc.add(result.per_attack[k].auc);
          observations.add(result.observations);
          entities.add(result.entities);
        }
        LinkPrivacyCell out;
        out.lifetime = lifetime;
        out.coverage = coverage;
        out.attack = fig.attacks[k];
        out.defended = arm == 1;
        out.precision = precision.mean();
        out.recall = recall.mean();
        out.auc = auc.mean();
        out.precision_ci = ci95_half_width(precision);
        out.recall_ci = ci95_half_width(recall);
        out.auc_ci = ci95_half_width(auc);
        out.observations = observations.mean();
        out.entities = entities.mean();
        fig.cells.push_back(std::move(out));
      }
    }
  }

  // Zero-coverage cross-check: a zero-coverage plan skips observer
  // construction, so the run must be bit-identical to a plan-free run
  // and record nothing.
  {
    const OverlayScenario plain =
        privacy_scenario(scale, spec, spec.lifetimes.front(), 1337);
    OverlayScenario wrapped = plain;
    wrapped.observer = ObserverPlan{};  // coverage 0 -> enabled() false
    const auto bare = run_overlay(trust, plain);
    const auto with_plan = run_overlay(trust, wrapped);
    fig.zero_observer_identical = runs_identical(bare, with_plan) &&
                                  with_plan.observations.empty();
  }

  // Inference K-invariance: at a representative cell (longest
  // lifetime, highest coverage — the densest log), the merged
  // observation log and every attack's ranked output must fingerprint
  // identically for every sharded backend K.
  if (!spec.kinvariance_shards.empty()) {
    OverlayScenario scenario = privacy_scenario(
        scale, spec, spec.lifetimes.back(), 1337 + points * replicas);
    ObserverPlan plan;
    plan.coverage = spec.coverages.back();
    plan.seed = scenario.seed ^ 0x0B5E0000;
    scenario.observer = plan;
    for (const std::size_t shards : spec.kinvariance_shards) {
      scenario.shards = shards;
      const auto run = run_overlay(trust, scenario);
      const ArmResult result =
          evaluate_log(run.observations, trust, spec.attack_options);
      ShardFingerprint fp;
      fp.shards = shards;
      fp.log = result.log_fingerprint;
      fp.attacks = result.fingerprints;
      fig.shard_fingerprints.push_back(std::move(fp));
    }
    fig.kinvariant = std::all_of(
        fig.shard_fingerprints.begin(), fig.shard_fingerprints.end(),
        [&](const ShardFingerprint& fp) {
          return fp.log == fig.shard_fingerprints.front().log &&
                 fp.attacks == fig.shard_fingerprints.front().attacks;
        });
  }

  fig.telemetry = std::move(grid.telemetry);
  return fig;
}

}  // namespace ppo::experiments
