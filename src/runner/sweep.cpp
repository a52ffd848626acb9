#include "runner/sweep.hpp"

#include <chrono>
#include <exception>
#include <iostream>
#include <mutex>
#include <sstream>

#include "common/rng.hpp"

namespace ppo::runner {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

}  // namespace

std::uint64_t cell_seed(std::uint64_t root_seed, std::uint64_t cell_index) {
  // Jump the SplitMix64 stream of `root_seed` to position index + 1;
  // one output step then decorrelates neighbouring cells.
  std::uint64_t state =
      root_seed + (cell_index + 1) * 0x9E3779B97F4A7C15ULL;
  return splitmix64(state);
}

SweepTelemetry run_indexed(std::size_t cells, const SweepOptions& options,
                           const std::function<void(const CellInfo&)>& fn) {
  SweepTelemetry telemetry;
  telemetry.cells = cells;
  telemetry.jobs = options.jobs == 0 ? default_jobs() : options.jobs;
  telemetry.cell_seconds.assign(cells, 0.0);
  if (cells == 0) return telemetry;

  const auto start = Clock::now();
  std::vector<std::exception_ptr> errors(cells);
  std::mutex progress_mu;
  std::size_t done = 0;

  {
    ThreadPool pool(telemetry.jobs);
    for (std::size_t i = 0; i < cells; ++i) {
      pool.submit([&, i] {
        CellInfo cell;
        cell.index = i;
        cell.count = cells;
        cell.seed = cell_seed(options.root_seed, i);
        const auto cell_start = Clock::now();
        try {
          fn(cell);
        } catch (...) {
          errors[i] = std::current_exception();
        }
        telemetry.cell_seconds[i] = seconds_since(cell_start);
        std::lock_guard<std::mutex> lock(progress_mu);
        ++done;
        if (options.progress) {
          const double elapsed = seconds_since(start);
          const double eta =
              elapsed / static_cast<double>(done) *
              static_cast<double>(cells - done);
          std::ostringstream line;
          line << options.label << ": " << done << "/" << cells
               << " tasks done, elapsed "
               << static_cast<long>(elapsed * 10.0) / 10.0 << "s, ETA "
               << static_cast<long>(eta * 10.0) / 10.0 << "s (task " << i
               << ": " << static_cast<long>(telemetry.cell_seconds[i] * 10.0) /
                              10.0
               << "s)\n";
          std::ostream* os =
              options.progress_stream ? options.progress_stream : &std::cerr;
          (*os) << line.str() << std::flush;
        }
      });
    }
    pool.drain();
  }

  telemetry.wall_seconds = seconds_since(start);
  // Deterministic propagation: the lowest-index failure wins no matter
  // which worker hit an exception first.
  for (std::size_t i = 0; i < cells; ++i)
    if (errors[i]) std::rethrow_exception(errors[i]);
  return telemetry;
}

ReplicatedResult run_replicated(
    std::size_t replicas, const SweepOptions& options,
    const std::function<double(const CellInfo&)>& fn) {
  ReplicatedResult out;
  auto grid = run_grid(replicas, options, fn);
  for (const double sample : grid.cells) out.stats.add(sample);
  out.telemetry = std::move(grid.telemetry);
  return out;
}

}  // namespace ppo::runner
