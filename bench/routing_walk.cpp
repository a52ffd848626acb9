// Routing-layer study (§I names "an additional routing layer" as a
// dissemination option): random-walk unicast to a pseudonym over the
// maintained overlay vs over trusted links only, across TTLs.
//
// Measured insight: success is dominated by HOLDER density — the
// target pseudonym sits in ~S_avg other nodes' link lists, and any
// holder completes delivery. That density is an overlay property, so
// even a walk restricted to trusted links profits from it; walking
// overlay links adds a modest further edge (better mixing). Without
// the overlay there would be no holders at all: the walk would need
// to hit the single owner.
//
// --ttls T1,T2,...  walk TTLs                      (default 2,4,8,16,32)
// --trials T        walks per (links, ttl) combo   (default 200)
// --warmup W        overlay warmup in periods      (default 300)
// --replicas R      independently seeded overlays  (default 1)
// --jobs N runs the replica cells in parallel (bit-identical output
// for any N); --json <path> writes the machine-readable report.
#include <iostream>

#include "bench_common.hpp"
#include "churn/churn_model.hpp"
#include "common/stats.hpp"
#include "overlay/sharded_service.hpp"
#include "routing/random_walk.hpp"

int main(int argc, char** argv) {
  using namespace ppo;
  const Cli cli(argc, argv);
  bench::apply_logging(cli);
  experiments::Workbench bench(bench::workbench_options(cli));
  bench::print_header("Routing layer",
                      "random-walk unicast to pseudonyms, alpha = 0.75",
                      bench);

  const graph::Graph& trust = bench.trust_graph(0.5);
  const auto trials = static_cast<std::size_t>(cli.get_int("trials", 200));
  const double warmup = cli.get_double("warmup", 300.0);
  std::vector<std::size_t> ttls{2, 4, 8, 16, 32};
  if (cli.has("ttls")) {
    ttls.clear();
    for (const double t : bench::parse_double_list(cli.get_string("ttls", "")))
      ttls.push_back(static_cast<std::size_t>(t));
  }

  const auto scale = bench::figure_scale(cli);
  runner::SweepOptions opt;
  opt.jobs = scale.jobs;
  opt.root_seed = scale.seed;
  opt.progress = scale.progress;
  opt.label = "routing-walk";

  // One cell per replica: each grows its own independently seeded
  // overlay and evaluates every (links, ttl) combination on it.
  struct ComboOut {
    double success = 0.0;
    double mean_hops = 0.0;
    std::uint64_t hops_count = 0;  // delivered walks (hops samples)
    double mean_msgs = 0.0;
  };
  const std::size_t replicas =
      std::max<std::size_t>(1, static_cast<std::size_t>(
                                   cli.get_int("replicas", 1)));
  bench::TraceSession trace(cli);
  trace.warn_if_parallel(scale.jobs == 0 ? runner::default_jobs() : scale.jobs);
  const bench::WallTimer timer;
  auto grid = runner::run_grid(
      replicas, opt, [&](const runner::CellInfo& cell) {
        const auto model =
            churn::ExponentialChurn::from_availability(0.75, 30.0);
        sim::ShardedSimulator sim(
            overlay::simulator_options({}, trust.num_nodes()));
        overlay::ShardedOverlayService service(sim, trust, model, {},
                                               derive_seed(cell.seed, 7));
        service.start();
        sim.run_until(warmup);

        std::vector<ComboOut> combos;
        Rng rng(derive_seed(cell.seed, 11));
        for (const bool trusted_only : {false, true}) {
          for (const std::size_t ttl : ttls) {
            ComboOut out;
            std::size_t delivered = 0;
            RunningStats hops, msgs;
            Rng pick(derive_seed(cell.seed, 13));
            for (std::size_t t = 0; t < trials; ++t) {
              graph::NodeId source, target;
              do {
                source = static_cast<graph::NodeId>(
                    pick.uniform_u64(trust.num_nodes()));
              } while (!service.is_online(source));
              do {
                target = static_cast<graph::NodeId>(
                    pick.uniform_u64(trust.num_nodes()));
              } while (target == source || !service.is_online(target) ||
                       !service.node(target).own_pseudonym());
              routing::WalkOptions options;
              options.ttl = ttl;
              options.trusted_links_only = trusted_only;
              const auto result = routing::route_to_pseudonym(
                  service, source,
                  service.node(target).own_pseudonym()->value, options, rng);
              delivered += result.delivered;
              if (result.delivered)
                hops.add(static_cast<double>(result.hops));
              msgs.add(static_cast<double>(result.messages));
            }
            out.success = static_cast<double>(delivered) /
                          static_cast<double>(trials);
            out.mean_hops = hops.count() ? hops.mean() : 0.0;
            out.hops_count = hops.count();
            out.mean_msgs = msgs.mean();
            combos.push_back(out);
          }
        }
        return combos;
      });
  const double wall = timer.seconds();
  trace.finish("routing_walk");

  // Replica-averaged table + series, combos in (links, ttl) order.
  std::vector<Series> success, hops_series, msgs_series;
  TextTable table({"links", "ttl", "success", "mean hops", "mean msgs"});
  std::size_t combo = 0;
  for (const bool trusted_only : {false, true}) {
    const char* name = trusted_only ? "trusted-only" : "overlay";
    Series s{name, {}}, h{name, {}}, m{name, {}};
    for (const std::size_t ttl : ttls) {
      RunningStats sr, mr;
      RunningStats hr;  // per-replica mean hops over delivered walks
      std::uint64_t hops_n = 0;
      for (std::size_t r = 0; r < replicas; ++r) {
        const auto& c = grid.cells[r][combo];
        sr.add(c.success);
        mr.add(c.mean_msgs);
        if (c.hops_count > 0) {
          hr.add(c.mean_hops);
          hops_n += c.hops_count;
        }
      }
      s.values.push_back(sr.mean());
      h.values.push_back(hr.count() ? hr.mean() : 0.0);
      m.values.push_back(mr.mean());
      table.add_row({name, std::to_string(ttl),
                     TextTable::num(sr.mean(), 3),
                     hops_n ? TextTable::num(hr.mean(), 1) : "-",
                     TextTable::num(mr.mean(), 1)});
      ++combo;
    }
    success.push_back(std::move(s));
    hops_series.push_back(std::move(h));
    msgs_series.push_back(std::move(m));
  }
  table.print(std::cout);

  runner::Json fig = runner::Json::object();
  {
    std::vector<double> axis;
    for (const std::size_t ttl : ttls)
      axis.push_back(static_cast<double>(ttl));
    fig["ttls"] = runner::Json::array_of(axis);
  }
  const auto series_block = [](const std::vector<Series>& list) {
    runner::Json block = runner::Json::array();
    for (const auto& series : list)
      block.push_back(experiments::to_json(series));
    return block;
  };
  fig["success"] = series_block(success);
  fig["hops"] = series_block(hops_series);
  fig["messages"] = series_block(msgs_series);
  fig["replicas"] = static_cast<std::uint64_t>(replicas);
  fig["telemetry"] = experiments::to_json(grid.telemetry);
  bench::write_json_report(cli, "routing_walk", bench, scale, std::move(fig),
                           wall);
  return 0;
}
