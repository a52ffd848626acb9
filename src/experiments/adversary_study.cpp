#include "experiments/adversary_study.hpp"

#include <algorithm>
#include <string>
#include <utility>

#include "common/check.hpp"
#include "common/stats.hpp"

namespace ppo::experiments {

adversary::AdversaryPlan make_attack_plan(const std::string& attack,
                                          double fraction,
                                          std::uint64_t seed) {
  adversary::AdversaryPlan plan;
  plan.seed = seed;
  if (attack == "pollute") {
    plan.polluter_fraction = fraction;
  } else if (attack == "eclipse") {
    plan.eclipser_fraction = fraction;
  } else if (attack == "drop") {
    plan.dropper_fraction = fraction;
  } else if (attack == "replay") {
    plan.replayer_fraction = fraction;
  } else if (attack == "mixed") {
    plan.polluter_fraction = fraction / 4.0;
    plan.eclipser_fraction = fraction / 4.0;
    plan.dropper_fraction = fraction / 4.0;
    plan.replayer_fraction = fraction / 4.0;
  } else {
    PPO_CHECK_MSG(false, "unknown attack name");
  }
  plan.validate();
  return plan;
}

namespace {

OverlayScenario study_scenario(const FigureScale& scale, double alpha,
                               std::uint64_t seed_salt) {
  OverlayScenario scenario;
  scenario.churn.alpha = alpha;
  scenario.window = scale.window;
  scenario.seed = scale.seed ^ seed_salt;
  scenario.params.pseudonym_lifetime = 3.0 * scenario.churn.mean_offline;
  scenario.shards = scale.shards;
  return scenario;
}

void arm_defenses(OverlayScenario& scenario, const AdversarySpec& spec) {
  scenario.params.validate_received = true;
  scenario.params.peer_rate_limit = spec.peer_rate_limit;
  scenario.params.peer_rate_window = spec.peer_rate_window;
  scenario.params.sampler_min_dwell = spec.sampler_min_dwell;
}

}  // namespace

AdversaryFigure adversary_resilience_sweep(Workbench& bench,
                                           const FigureScale& scale,
                                           const AdversarySpec& spec) {
  const graph::Graph& trust = bench.trust_graph(0.5);

  std::vector<std::string> names;
  for (const std::string& attack : spec.attacks) {
    names.push_back(attack + "-open");
    names.push_back(attack + "-defended");
  }

  struct CellEntry {
    double conn = 0.0;
    double completion = 0.0;
    metrics::ProtocolHealth health;
  };

  runner::SweepOptions opt;
  opt.jobs = scale.jobs;
  opt.root_seed = scale.seed;
  opt.progress = scale.progress;
  opt.label = "adversary-resilience-sweep";

  const std::size_t replicas = std::max<std::size_t>(1, scale.replicas);
  auto grid = runner::run_grid(
      spec.fractions.size() * replicas, opt,
      [&](const runner::CellInfo& cell) {
        const double fraction = spec.fractions[cell.index / replicas];
        std::vector<CellEntry> values;
        values.reserve(names.size());
        const OverlayScenario base =
            study_scenario(scale, spec.alpha, 911 + cell.index);

        for (std::size_t k = 0; k < spec.attacks.size(); ++k) {
          OverlayScenario attacked = base;
          attacked.adversary = make_attack_plan(
              spec.attacks[k], fraction, base.seed ^ (0xAD0000 + k));
          attacked.params.shuffle_timeout = spec.shuffle_timeout;
          attacked.params.shuffle_max_retries = spec.max_retries;

          // Completion is measured over the HONEST nodes' exchanges:
          // the global rate also counts the attackers' own exchanges,
          // which the defenses deliberately starve.
          const auto open = run_overlay(trust, attacked);
          values.push_back(CellEntry{open.stats.frac_disconnected.mean(),
                                     open.health.honest_completion_rate(),
                                     open.health});

          arm_defenses(attacked, spec);
          const auto defended = run_overlay(trust, attacked);
          values.push_back(
              CellEntry{defended.stats.frac_disconnected.mean(),
                        defended.health.honest_completion_rate(),
                        defended.health});
        }
        return values;
      });

  AdversaryFigure fig;
  fig.fractions = spec.fractions;
  fig.replicas = replicas;
  fig.health.resize(names.size());
  for (std::size_t j = 0; j < names.size(); ++j) {
    Series conn{names[j], {}}, comp{names[j], {}};
    Series conn_ci{names[j], {}}, comp_ci{names[j], {}};
    for (std::size_t a = 0; a < spec.fractions.size(); ++a) {
      RunningStats sc, sp;
      for (std::size_t r = 0; r < replicas; ++r) {
        const auto& values = grid.cells[a * replicas + r];
        PPO_CHECK(values.size() == names.size());
        sc.add(values[j].conn);
        sp.add(values[j].completion);
        if (spec.fractions[a] > 0.0) fig.health[j].merge(values[j].health);
      }
      conn.values.push_back(sc.mean());
      comp.values.push_back(sp.mean());
      conn_ci.values.push_back(ci95_half_width(sc));
      comp_ci.values.push_back(ci95_half_width(sp));
    }
    fig.connectivity.push_back(std::move(conn));
    fig.completion.push_back(std::move(comp));
    fig.connectivity_ci.push_back(std::move(conn_ci));
    fig.completion_ci.push_back(std::move(comp_ci));
  }

  // Zero-adversary cross-check: a plan with every fraction at zero must
  // leave the trajectory bit-identical to a run with no plan at all.
  {
    const OverlayScenario plain = study_scenario(scale, spec.alpha, 911);
    OverlayScenario wrapped = plain;
    wrapped.adversary =
        make_attack_plan(spec.attacks.empty() ? "mixed" : spec.attacks[0],
                         0.0, plain.seed ^ 0xAD0000);
    fig.zero_adversary_identical =
        runs_identical(run_overlay(trust, plain), run_overlay(trust, wrapped));
  }

  fig.telemetry = std::move(grid.telemetry);
  return fig;
}

}  // namespace ppo::experiments
