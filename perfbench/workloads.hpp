// The benchmark's three workloads. Each one generates its inputs from
// the workload seed, builds its system through the layers' public
// entry points, times a fixed simulated horizon, checks its outputs
// and returns every number the driver reports.
//
//   fig3_paper       experiments::availability_sweep on a Workbench
//                    (Table I parameters, serial default backend)
//   crawl_k4         holme_kim(10^5) + ShardedOverlayService at K = 4
//   hostile_service  2*10^4 nodes at K = 1 with loss, a defended mixed
//                    adversary, an observer, the live registry and
//                    periodic snapshots with a resume
//
// See DESIGN.md beside this file for why each exists.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "checks.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  /// Run length: each workload's simulated horizon is this many
  /// seconds times a fixed periods-per-second rate (DESIGN.md), so the
  /// work done depends on the argument, never on the host's speed.
  double seconds = 20.0;
  /// Benchmark spans on and ShardedSimulator::Options::profile set.
  bool trace = false;
  /// Tiny sizes for the self-tests.
  bool toy = false;
  /// Shard count override for the self-tests (0 = the workload's K).
  std::size_t shards = 0;
  /// Directory for hostile_service snapshots; created if missing.
  std::string work_dir = "perfbench-work";
  /// Span dump written at exit when tracing (empty = none).
  std::string spans_path;
};

struct Result {
  std::string workload;
  std::vector<double> setup_seconds;  // one per repeated build
  double wall_s = 0.0;                // measured phase
  double cpu_s = 0.0;                 // user + sys over the measured phase
  double peak_rss_mb = 0.0;
  std::uint64_t messages_sent = 0;    // simulated, summed over overlay runs
  std::vector<double> slice_seconds;  // per slice (fig3: per alpha point)
  double disconnected_frac = 0.0;
  std::vector<double> disconnected_series;  // one per measured slice
  double exchange_fail_frac = 0.0;
  /// Identity of the simulated outputs (trace on/off must agree) and
  /// of the generated inputs (same seed, same inputs).
  std::uint64_t output_fingerprint = 0;
  std::uint64_t input_fingerprint = 0;
  std::uint64_t attempted = 0;  // slices (fig3: sweep cells)
  std::uint64_t failed = 0;     // all of them once any check fails
  std::vector<CheckResult> checks;
  /// Per-layer numbers, named as in BENCHMARK.json's per_layer list.
  std::map<std::string, double> layer;

  bool all_checks_ok() const {
    for (const CheckResult& c : checks)
      if (!c.ok) return false;
    return true;
  }
};

/// Throws std::invalid_argument for an unknown workload name.
Result run_workload(const Options& options);

/// The crawl_k4 construction advanced to `horizon` in one run_until
/// call, as bench/scale_single_run does: the self-tests' sanity anchor.
struct SingleRun {
  std::uint64_t events = 0;
  std::uint64_t fingerprint = 0;
};
SingleRun crawl_single_run(std::uint64_t seed, std::size_t nodes,
                           double horizon, std::size_t shards);

/// Names accepted by run_workload.
const std::vector<std::string>& workload_names();

}  // namespace perfbench
