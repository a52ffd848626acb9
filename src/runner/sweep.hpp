// Parallel sweep engine: maps a parameter grid onto thread-pool tasks
// with per-cell deterministic seeding, so a sweep's numeric output is
// bit-identical whether it runs on 1 thread or 64.
//
// Determinism contract:
//   - every cell receives `cell_seed(root_seed, index)` (SplitMix64 of
//     the root seed jumped by the cell index), independent of execution
//     order and of the number of workers;
//   - each cell writes only its own result slot;
//   - aggregation (run_replicated's RunningStats merge, exception
//     selection) happens after the barrier, in cell-index order.
// Wall-clock telemetry (total + per-cell seconds, completion progress)
// is collected on the side and never feeds back into results.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

#include "common/stats.hpp"
#include "runner/thread_pool.hpp"

namespace ppo::runner {

/// Deterministic per-cell seed: SplitMix64 output of the root seed
/// advanced by (index + 1) golden-ratio increments. Cheap, stateless,
/// and well-decorrelated between neighbouring cells and roots.
std::uint64_t cell_seed(std::uint64_t root_seed, std::uint64_t cell_index);

struct SweepOptions {
  /// Worker threads; 0 = default_jobs() (hardware concurrency).
  std::size_t jobs = 0;
  /// Root seed the per-cell seeds are derived from.
  std::uint64_t root_seed = 1;
  /// When set, prints "label: k/N tasks done, elapsed, ETA" lines to
  /// `progress_stream` (default std::cerr) as pool tasks complete. A
  /// task is one run_indexed index: a cell for run_grid, one
  /// simulation run in the alpha sweeps.
  bool progress = false;
  std::ostream* progress_stream = nullptr;
  std::string label = "sweep";
};

/// What a cell callback learns about its position in the sweep.
struct CellInfo {
  std::size_t index = 0;  // 0-based cell index
  std::size_t count = 0;  // total number of cells
  std::uint64_t seed = 0; // cell_seed(root_seed, index)
};

/// Wall-clock accounting for one sweep.
struct SweepTelemetry {
  std::size_t cells = 0;
  std::size_t jobs = 1;               // workers actually used
  double wall_seconds = 0.0;          // whole sweep, including barrier
  std::vector<double> cell_seconds;   // per cell, indexed by cell
};

/// Core executor: runs `fn` once per cell on a private pool and blocks
/// until all cells finished. The first exception (lowest cell index)
/// is rethrown after the barrier. This is the non-template engine the
/// typed wrappers below build on.
SweepTelemetry run_indexed(std::size_t cells, const SweepOptions& options,
                           const std::function<void(const CellInfo&)>& fn);

template <typename Result>
struct GridResult {
  std::vector<Result> cells;  // one entry per cell, in grid order
  SweepTelemetry telemetry;
};

/// Runs `fn(CellInfo) -> Result` over `cells` independent cells and
/// returns the results in index order.
template <typename Fn>
auto run_grid(std::size_t cells, const SweepOptions& options, Fn&& fn)
    -> GridResult<decltype(fn(std::declval<const CellInfo&>()))> {
  using Result = decltype(fn(std::declval<const CellInfo&>()));
  GridResult<Result> out;
  out.cells.resize(cells);
  out.telemetry = run_indexed(
      cells, options,
      [&](const CellInfo& cell) { out.cells[cell.index] = fn(cell); });
  return out;
}

/// Grid over an explicit parameter axis: `fn(param, CellInfo)`.
template <typename Param, typename Fn>
auto run_grid(const std::vector<Param>& grid, const SweepOptions& options,
              Fn&& fn)
    -> GridResult<decltype(fn(std::declval<const Param&>(),
                              std::declval<const CellInfo&>()))> {
  return run_grid(grid.size(), options, [&](const CellInfo& cell) {
    return fn(grid[cell.index], cell);
  });
}

struct ReplicatedResult {
  RunningStats stats;  // merged across replicas in index order
  SweepTelemetry telemetry;
};

/// Runs `fn(CellInfo) -> double` for `replicas` independently seeded
/// replicas and merges the samples into one RunningStats. The merge
/// happens post-barrier in replica order, so the aggregate is
/// independent of scheduling.
ReplicatedResult run_replicated(
    std::size_t replicas, const SweepOptions& options,
    const std::function<double(const CellInfo&)>& fn);

}  // namespace ppo::runner
