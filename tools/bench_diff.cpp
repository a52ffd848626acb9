// Compares two BENCH_*.json reports (the figure benches' --json
// output) and flags wall-clock regressions.
//
//   bench_diff <baseline.json> <candidate.json> [--threshold 0.20]
//              [--strict-counters]
//
// Rolling-history mode takes ONE report plus `--history <file>`: the
// file is a JSONL ledger of compact per-commit snapshots ({commit,
// artefact, schema_version, wall_seconds, peak_rss_bytes,
// cell_seconds, warm_start}). Reports produced with --warm-start-dir
// carry a `warm_start` block (runs forked from warmup snapshots vs
// cold, and the wall seconds each side cost); ledger rows keep it, so
// the history window can report the measured warm-start speedup of a
// forked sweep against the fastest cold run on record.
// The candidate is compared against the fastest of
// the last N entries (`--last N`, default 10) for the same artefact —
// the fastest, so a slow baseline commit cannot mask a real
// regression — and its peak RSS against the leanest of the same
// window. `--append`
// records the candidate at the end of the ledger afterwards (tag it
// with `--commit <sha>`), keeping a per-commit trend CI can grow one
// run at a time:
//
//   bench_diff BENCH_fig3.json --history fig3.history.jsonl --last 10 --append --commit "$GITHUB_SHA"
//
// Compares the envelope's total `wall_seconds`, the `peak_rss_bytes`
// memory footprint (when both reports carry one), when both reports
// carry sweep telemetry, the per-cell seconds, and, for multi-run
// reports (scale_single_run), each shard count's wall time and peak
// RSS. Counters are read from one kind of block: the envelope's
// `metrics` registry block and, in multi-run reports, each
// `runs[K].metrics` block — advisory by default, since counter drift
// usually means the workload changed, not that it regressed.
// `--strict-counters` turns any counter difference into a failure,
// which is how CI pins exact determinism of a fixed seed. A timing
// (wall or cell seconds) regresses only when it grows by more than the
// threshold AND by more than a fixed floor of seconds
// (kTimingFloorSeconds): a 0.07 s cell moves by tens of percent between
// runs of identical work. Exit code:
// 0 = within threshold (or candidate faster), 1 = regression beyond
// threshold, 2 = usage or parse error — including a `--threshold` that
// is not a number >= 0, a `--last` that is not an integer >= 1, and a
// report field of the wrong type.
// Reports from different artefacts or schema versions diff with a
// warning — the numbers may not be comparable.
//
// Intended for CI: run the reduced-scale bench, then diff against the
// committed baseline (e.g. BENCH_fig3.json) so >20% slowdowns surface
// in the job log before they land.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "runner/json.hpp"

namespace {

using ppo::runner::Json;

Json load(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::cerr << "bench_diff: cannot read " << path << "\n";
    std::exit(2);
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  try {
    return Json::parse(buf.str());
  } catch (const std::exception& e) {
    std::cerr << "bench_diff: " << path << ": " << e.what() << "\n";
    std::exit(2);
  }
}

double ratio_change(double baseline, double candidate) {
  if (baseline <= 0.0) return 0.0;
  return (candidate - baseline) / baseline;
}

/// Seconds a timing must grow by, on top of the relative threshold,
/// to count as a regression: below it, identical work moves by noise.
/// Evidence: 12 back-to-back runs of CI's reduced fig3 recipe
/// (--nodes=220 --warmup=80 --measure=20 --alphas=0.25,0.5,0.75
/// --jobs 0) of one build on a 4-core host. Per-cell seconds ranged
/// 0.058–0.100 (α = 0.25), 0.212–0.379 (α = 0.5) and 0.400–0.494
/// (α = 0.75), wall 0.220–0.275: the widest spread, 0.168 s, rounded
/// up.
constexpr double kTimingFloorSeconds = 0.2;

/// A timing regresses when it grows by more than `threshold` of the
/// baseline AND by more than kTimingFloorSeconds.
bool timing_regressed(double baseline, double candidate, double threshold) {
  return ratio_change(baseline, candidate) > threshold &&
         candidate - baseline > kTimingFloorSeconds;
}

std::string percent(double change) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%+.1f%%", 100.0 * change);
  return buf;
}

/// Pulls the per-cell telemetry seconds out of a report, if present
/// (the figure payload lives under "figure", telemetry under
/// "figure.telemetry").
std::vector<double> cell_seconds(const Json& doc) {
  std::vector<double> out;
  if (!doc.contains("figure")) return out;
  const Json& fig = doc.at("figure");
  if (!fig.is_object() || !fig.contains("telemetry")) return out;
  const Json& telemetry = fig.at("telemetry");
  if (!telemetry.is_object() || !telemetry.contains("cell_seconds")) return out;
  const Json& cells = telemetry.at("cell_seconds");
  for (std::size_t i = 0; i < cells.size(); ++i)
    out.push_back(cells.at(i).as_double());
  return out;
}

std::string field_or(const Json& doc, const char* key,
                     const std::string& fallback) {
  if (doc.contains(key) && doc.at(key).is_string())
    return doc.at(key).as_string();
  return fallback;
}

/// The named object member, or an empty object when absent.
const Json& object_or_empty(const Json& doc, const char* key) {
  static const Json kEmpty = Json::object();
  if (doc.contains(key) && doc.at(key).is_object()) return doc.at(key);
  return kEmpty;
}

/// Prints `what: b -> c` when both are numbers and differ. Returns
/// whether it printed.
bool report_change(const std::string& what, const Json& bval,
                   const Json& cval, const char* note) {
  if (!bval.is_number() || !cval.is_number()) return false;
  const double b = bval.as_double();
  const double c = cval.as_double();
  if (b == c) return false;
  std::cout << "  " << what << ": " << b << " -> " << c;
  if (b > 0.0) std::cout << " (" << percent(ratio_change(b, c)) << ")";
  std::cout << note << "\n";
  return true;
}

/// Diffs one section of two `metrics` registry blocks. Scalar cells
/// ("counters", "gauges") compare directly; "streaming" cells compare
/// field by field, where `count` is a counter and the quantiles are
/// advisory (they move with machine load and bucket resolution).
/// Returns the number of differing, missing or new counter-like
/// entries; callers ignore it for gauges, which are derived values.
std::size_t diff_section(const Json& base, const Json& cand,
                         const char* section, const std::string& label) {
  const Json& b = object_or_empty(base, section);
  const Json& c = object_or_empty(cand, section);
  const std::string prefix = label + "." + section + " ";
  std::size_t changed = 0;
  for (const auto& [key, bval] : b.members()) {
    if (!c.contains(key)) {
      std::cout << "  " << prefix << key << ": missing from candidate\n";
      ++changed;
      continue;
    }
    const Json& cval = c.at(key);
    if (!bval.is_object() || !cval.is_object()) {
      changed += report_change(prefix + key, bval, cval, "");
      continue;
    }
    for (const auto& [field, bfield] : bval.members()) {
      if (!cval.contains(field)) continue;
      const bool is_count = field == "count";
      if (report_change(prefix + key + "." + field, bfield, cval.at(field),
                        is_count ? "" : " [quantile: advisory]"))
        changed += is_count;
    }
  }
  for (const auto& [key, cval] : c.members()) {
    (void)cval;
    if (!b.contains(key)) {
      std::cout << "  " << prefix << key << ": new in candidate\n";
      ++changed;
    }
  }
  return changed;
}

/// Diffs the `metrics` blocks of two report objects (the envelope, or
/// one `runs[K]` entry). Returns the counter differences.
std::size_t diff_metrics(const Json& base, const Json& cand,
                         const std::string& label) {
  const Json& bm = object_or_empty(base, "metrics");
  const Json& cm = object_or_empty(cand, "metrics");
  std::size_t changed = diff_section(bm, cm, "counters", label);
  diff_section(bm, cm, "gauges", label);  // derived values: advisory only
  changed += diff_section(bm, cm, "streaming", label);
  return changed;
}

/// The candidate's streaming quantile summaries in ledger form:
/// family -> {count, p50, p95, p99, p999}. Rows carry them so a
/// history window can show latency drift next to wall time.
Json quantiles_of(const Json& doc) {
  Json out = Json::object();
  const Json& streaming =
      object_or_empty(object_or_empty(doc, "metrics"), "streaming");
  for (const auto& [key, cell] : streaming.members()) {
    if (!cell.is_object()) continue;
    Json row = Json::object();
    for (const char* field : {"count", "p50", "p95", "p99", "p999"})
      if (cell.contains(field) && cell.at(field).is_number())
        row[field] = cell.at(field).as_double();
    out[key] = std::move(row);
  }
  return out;
}

/// Flag-value errors exit 2 naming the flag, like every usage error.
[[noreturn]] void bad_flag_value(const char* flag, const std::string& text,
                                 const char* expected) {
  std::cerr << "bench_diff: " << flag << " needs " << expected << ", got '"
            << text << "'\n";
  std::exit(2);
}

/// --threshold: a finite number >= 0 (a fraction, 0.20 = 20%).
double parse_threshold(const std::string& text) {
  std::size_t used = 0;
  double value = -1.0;
  try {
    value = std::stod(text, &used);
  } catch (const std::exception&) {
    used = 0;
  }
  if (used == 0 || used != text.size() || !std::isfinite(value) ||
      value < 0.0)
    bad_flag_value("--threshold", text, "a number >= 0");
  return value;
}

/// --last: an integer >= 1 (digits only, so no sign or fraction).
std::size_t parse_last(const std::string& text) {
  const bool digits =
      !text.empty() && std::all_of(text.begin(), text.end(), [](char c) {
        return c >= '0' && c <= '9';
      });
  unsigned long long value = 0;
  try {
    if (digits) value = std::stoull(text);
  } catch (const std::exception&) {
    value = 0;  // out of range
  }
  if (value < 1) bad_flag_value("--last", text, "an integer >= 1");
  return static_cast<std::size_t>(value);
}

/// Numeric field access tolerant of absence (returns 0.0).
double number_or_zero(const Json& doc, const char* key) {
  if (doc.contains(key) && doc.at(key).is_number())
    return doc.at(key).as_double();
  return 0.0;
}

/// Per-configuration rows of a multi-run report (scale_single_run's
/// `runs`, one per shard count), keyed by shard count. A `shards` that
/// is not an integer >= 1 makes the report malformed (exit 2).
std::map<std::uint64_t, const Json*> runs_by_shards(const Json& doc) {
  std::map<std::uint64_t, const Json*> out;
  if (!doc.contains("runs") || !doc.at("runs").is_array()) return out;
  const Json& runs = doc.at("runs");
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const Json& run = runs.at(i);
    if (!run.is_object() || !run.contains("shards")) continue;
    const Json& shards = run.at("shards");
    const double k = shards.is_number() ? shards.as_double() : 0.0;
    if (!(k >= 1.0) || k != std::floor(k))
      throw std::runtime_error("runs[" + std::to_string(i) +
                               "].shards must be an integer >= 1, got " +
                               shards.dump());
    out.emplace(shards.as_uint(), &run);
  }
  return out;
}

/// Compact per-commit snapshot of a report for the history ledger.
Json snapshot_of(const Json& doc, const std::string& commit) {
  Json snap = Json::object();
  snap["commit"] = commit;
  snap["artefact"] = field_or(doc, "artefact", "?");
  if (doc.contains("schema_version"))
    snap["schema_version"] = doc.at("schema_version").as_int();
  snap["wall_seconds"] = doc.contains("wall_seconds")
                             ? doc.at("wall_seconds").as_double()
                             : 0.0;
  if (doc.contains("peak_rss_bytes"))
    snap["peak_rss_bytes"] = doc.at("peak_rss_bytes").as_double();
  snap["cell_seconds"] = Json::array_of(cell_seconds(doc));
  // Warm-start accounting rides along verbatim so the history window
  // can compute forked-vs-cold speedup across commits.
  if (doc.contains("warm_start") && doc.at("warm_start").is_object()) {
    Json warm = Json::object();
    for (const char* field :
         {"warm_runs", "cold_runs", "warm_seconds", "cold_seconds"})
      warm[field] = number_or_zero(doc.at("warm_start"), field);
    snap["warm_start"] = std::move(warm);
  }
  Json quantiles = quantiles_of(doc);
  if (!quantiles.members().empty()) snap["quantiles"] = std::move(quantiles);
  return snap;
}

/// Warm-start runs recorded in a report/ledger entry (0 when the run
/// was cold or predates warm-start accounting).
double warm_runs_of(const Json& doc) {
  if (!doc.contains("warm_start") || !doc.at("warm_start").is_object())
    return 0.0;
  return number_or_zero(doc.at("warm_start"), "warm_runs");
}

std::vector<Json> load_history(const std::string& path) {
  std::vector<Json> entries;
  std::ifstream in(path);
  if (!in) return entries;  // no ledger yet: empty history is fine
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty()) continue;
    try {
      entries.push_back(Json::parse(line));
    } catch (const std::exception& e) {
      std::cerr << "bench_diff: " << path << ":" << lineno << ": " << e.what()
                << "\n";
      std::exit(2);
    }
  }
  return entries;
}

/// Rolling-history mode: candidate vs the fastest of the last N
/// same-artefact ledger entries, optional append. Returns the exit
/// code.
int run_history_mode(const Json& candidate, const std::string& history_path,
                     std::size_t last_n, bool append,
                     const std::string& commit, double threshold) {
  const std::string artefact = field_or(candidate, "artefact", "?");
  const double cand_wall = candidate.contains("wall_seconds")
                               ? candidate.at("wall_seconds").as_double()
                               : 0.0;

  std::vector<Json> entries = load_history(history_path);
  std::vector<const Json*> window;
  for (const Json& entry : entries) {
    if (field_or(entry, "artefact", "?") != artefact) continue;
    window.push_back(&entry);
  }
  if (window.size() > last_n)
    window.erase(window.begin(),
                 window.begin() + static_cast<std::ptrdiff_t>(
                                      window.size() - last_n));

  bool regression = false;
  std::cout << artefact << ": candidate wall_seconds " << cand_wall << ", "
            << window.size() << " history entr"
            << (window.size() == 1 ? "y" : "ies") << " (last " << last_n
            << ")\n";
  const Json* best = nullptr;
  for (const Json* entry : window) {
    const double wall = entry->contains("wall_seconds")
                            ? entry->at("wall_seconds").as_double()
                            : 0.0;
    std::cout << "  " << field_or(*entry, "commit", "(untagged)") << ": "
              << wall << " s (" << percent(ratio_change(wall, cand_wall))
              << " vs candidate)";
    if (warm_runs_of(*entry) > 0.0)
      std::cout << " [warm-start: "
                << static_cast<std::uint64_t>(warm_runs_of(*entry))
                << " forked runs]";
    std::cout << "\n";
    if (wall <= 0.0) continue;
    if (best == nullptr || wall < best->at("wall_seconds").as_double())
      best = entry;
  }
  if (best != nullptr) {
    const double best_wall = best->at("wall_seconds").as_double();
    const double change = ratio_change(best_wall, cand_wall);
    std::cout << "  fastest of window: "
              << field_or(*best, "commit", "(untagged)") << " at " << best_wall
              << " s; candidate " << percent(change) << "\n";
    if (timing_regressed(best_wall, cand_wall, threshold)) {
      std::cout << "  REGRESSION: wall time up more than "
                << percent(threshold) << " and " << kTimingFloorSeconds
                << " s vs fastest recent run\n";
      if (warm_runs_of(*best) > 0.0 && warm_runs_of(candidate) <= 0.0)
        std::cout << "  note: fastest window entry was warm-started; a cold "
                     "candidate pays the full warmup\n";
      regression = true;
    }
  } else {
    std::cout << "  (no comparable history — nothing to diff against)\n";
  }

  // Warm-start speedup, advisory: a candidate whose sweep forked its
  // cells from warmup snapshots, measured against the fastest fully
  // cold run in the window. The wall-time gate above is unaffected.
  const double cand_warm_runs = warm_runs_of(candidate);
  if (cand_warm_runs > 0.0 && cand_wall > 0.0) {
    const Json& ws = candidate.at("warm_start");
    std::cout << "  warm-start: "
              << static_cast<std::uint64_t>(cand_warm_runs) << " forked + "
              << static_cast<std::uint64_t>(number_or_zero(ws, "cold_runs"))
              << " cold runs, restore wall "
              << number_or_zero(ws, "warm_seconds") << " s\n";
    const Json* cold = nullptr;
    for (const Json* entry : window) {
      if (warm_runs_of(*entry) > 0.0) continue;
      const double wall = number_or_zero(*entry, "wall_seconds");
      if (wall <= 0.0) continue;
      if (cold == nullptr || wall < number_or_zero(*cold, "wall_seconds"))
        cold = entry;
    }
    if (cold != nullptr) {
      const double cold_wall = number_or_zero(*cold, "wall_seconds");
      std::cout << "  warm-start speedup vs fastest cold run ("
                << field_or(*cold, "commit", "(untagged)") << " at "
                << cold_wall << " s): " << cold_wall / cand_wall << "x\n";
    } else {
      std::cout << "  (no cold history entry to measure warm-start speedup "
                   "against)\n";
    }
  }

  // Latency-quantile drift vs the fastest window entry, advisory:
  // wall-clock quantiles move with machine load, so they inform, not
  // gate.
  if (best != nullptr && best->contains("quantiles") &&
      best->at("quantiles").is_object()) {
    const Json cand_q = quantiles_of(candidate);
    for (const auto& [family, brow] : best->at("quantiles").members()) {
      if (!cand_q.contains(family) || !brow.is_object()) continue;
      const Json& crow = cand_q.at(family);
      for (const char* field : {"p50", "p95", "p99", "p999"}) {
        if (!brow.contains(field) || !crow.contains(field)) continue;
        const double b = brow.at(field).as_double();
        const double c = crow.at(field).as_double();
        if (b == c) continue;
        std::cout << "  quantile " << family << "." << field << ": " << b
                  << " -> " << c << " (" << percent(ratio_change(b, c))
                  << ", advisory)\n";
      }
    }
  }

  // Memory trend: candidate peak RSS vs the leanest recent run.
  const double cand_rss = number_or_zero(candidate, "peak_rss_bytes");
  if (cand_rss > 0.0) {
    const Json* leanest = nullptr;
    for (const Json* entry : window) {
      const double rss = number_or_zero(*entry, "peak_rss_bytes");
      if (rss <= 0.0) continue;
      if (leanest == nullptr ||
          rss < number_or_zero(*leanest, "peak_rss_bytes"))
        leanest = entry;
    }
    if (leanest != nullptr) {
      const double best_rss = number_or_zero(*leanest, "peak_rss_bytes");
      const double change = ratio_change(best_rss, cand_rss);
      std::cout << "  leanest of window: "
                << field_or(*leanest, "commit", "(untagged)") << " at "
                << best_rss << " peak RSS bytes; candidate " << cand_rss
                << " (" << percent(change) << ")\n";
      if (change > threshold) {
        std::cout << "  REGRESSION: peak RSS up more than "
                  << percent(threshold) << " vs leanest recent run\n";
        regression = true;
      }
    }
  }

  if (append) {
    std::ofstream out(history_path, std::ios::app);
    if (!out) {
      std::cerr << "bench_diff: cannot append to " << history_path << "\n";
      return 2;
    }
    out << snapshot_of(candidate, commit).dump() << "\n";
    if (!out) {
      std::cerr << "bench_diff: write to " << history_path << " failed\n";
      return 2;
    }
    std::cout << "  appended snapshot"
              << (commit.empty() ? "" : " for commit " + commit) << " to "
              << history_path << "\n";
  }

  std::cout << (regression ? "RESULT: regression beyond threshold\n"
                           : "RESULT: within threshold\n");
  return regression ? 1 : 0;
}

int run(int argc, char** argv) {
  std::vector<std::string> paths;
  double threshold = 0.20;
  bool strict_counters = false;
  std::string history_path;
  std::size_t last_n = 10;
  bool append = false;
  std::string commit;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value_of = [&](const char* flag) -> std::string {
      if (i + 1 >= argc) {
        std::cerr << "bench_diff: " << flag << " needs a value\n";
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--threshold") {
      threshold = parse_threshold(value_of("--threshold"));
    } else if (arg.rfind("--threshold=", 0) == 0) {
      threshold = parse_threshold(arg.substr(12));
    } else if (arg == "--strict-counters") {
      strict_counters = true;
    } else if (arg == "--history") {
      history_path = value_of("--history");
    } else if (arg == "--last") {
      last_n = parse_last(value_of("--last"));
    } else if (arg == "--append") {
      append = true;
    } else if (arg == "--commit") {
      commit = value_of("--commit");
    } else {
      paths.push_back(arg);
    }
  }
  if (!history_path.empty()) {
    if (paths.size() != 1) {
      std::cerr << "usage: bench_diff <candidate.json> --history <file>"
                   " [--last N] [--append] [--commit SHA]"
                   " [--threshold 0.20]\n";
      return 2;
    }
    return run_history_mode(load(paths[0]), history_path, last_n, append,
                            commit, threshold);
  }
  if (paths.size() != 2) {
    std::cerr << "usage: bench_diff <baseline.json> <candidate.json>"
                 " [--threshold 0.20] [--strict-counters]\n"
                 "       bench_diff <candidate.json> --history <file>"
                 " [--last N] [--append] [--commit SHA]\n";
    return 2;
  }

  const Json baseline = load(paths[0]);
  const Json candidate = load(paths[1]);

  const std::string base_artefact = field_or(baseline, "artefact", "?");
  const std::string cand_artefact = field_or(candidate, "artefact", "?");
  if (base_artefact != cand_artefact)
    std::cerr << "bench_diff: WARNING: comparing different artefacts ('"
              << base_artefact << "' vs '" << cand_artefact << "')\n";
  if (baseline.contains("schema_version") &&
      candidate.contains("schema_version") &&
      baseline.at("schema_version").as_int() !=
          candidate.at("schema_version").as_int())
    std::cerr << "bench_diff: WARNING: schema versions differ ("
              << baseline.at("schema_version").as_int() << " vs "
              << candidate.at("schema_version").as_int() << ")\n";

  bool regression = false;

  const double base_wall = baseline.contains("wall_seconds")
                               ? baseline.at("wall_seconds").as_double()
                               : 0.0;
  const double cand_wall = candidate.contains("wall_seconds")
                               ? candidate.at("wall_seconds").as_double()
                               : 0.0;
  const double wall_change = ratio_change(base_wall, cand_wall);
  std::cout << base_artefact << ":";
  if (baseline.contains("wall_seconds") || candidate.contains("wall_seconds"))
    std::cout << " wall_seconds " << base_wall << " -> " << cand_wall << " ("
              << percent(wall_change) << ")";
  std::cout << "\n";
  if (timing_regressed(base_wall, cand_wall, threshold)) {
    std::cout << "  REGRESSION: total wall time up more than "
              << percent(threshold) << " and " << kTimingFloorSeconds
              << " s\n";
    regression = true;
  }

  const double base_rss = number_or_zero(baseline, "peak_rss_bytes");
  const double cand_rss = number_or_zero(candidate, "peak_rss_bytes");
  if (base_rss > 0.0 && cand_rss > 0.0) {
    const double rss_change = ratio_change(base_rss, cand_rss);
    std::cout << "  peak_rss_bytes " << base_rss << " -> " << cand_rss << " ("
              << percent(rss_change) << ")\n";
    if (rss_change > threshold) {
      std::cout << "  REGRESSION: peak RSS up more than " << percent(threshold)
                << "\n";
      regression = true;
    }
  }

  const std::vector<double> base_cells = cell_seconds(baseline);
  const std::vector<double> cand_cells = cell_seconds(candidate);
  if (!base_cells.empty() && base_cells.size() == cand_cells.size()) {
    for (std::size_t i = 0; i < base_cells.size(); ++i) {
      const double change = ratio_change(base_cells[i], cand_cells[i]);
      if (timing_regressed(base_cells[i], cand_cells[i], threshold)) {
        std::cout << "  REGRESSION: cell " << i << " " << base_cells[i]
                  << " s -> " << cand_cells[i] << " s ("
                  << percent(change) << ")\n";
        regression = true;
      }
    }
  } else if (base_cells.size() != cand_cells.size()) {
    std::cout << "  (cell telemetry not comparable: " << base_cells.size()
              << " vs " << cand_cells.size() << " cells)\n";
  }

  // Counters: the envelope's `metrics` block, then each run's. Multi-
  // run reports carry no envelope wall time: diff each shard count's
  // wall time and peak RSS instead.
  std::size_t counter_changes = diff_metrics(baseline, candidate, "metrics");
  const auto base_runs = runs_by_shards(baseline);
  const auto cand_runs = runs_by_shards(candidate);
  for (const auto& [shards, base_run] : base_runs) {
    const auto it = cand_runs.find(shards);
    if (it == cand_runs.end()) continue;
    for (const char* field : {"wall_seconds", "peak_rss_bytes"}) {
      const double b = number_or_zero(*base_run, field);
      const double c = number_or_zero(*it->second, field);
      if (b <= 0.0 || c <= 0.0) continue;
      const double change = ratio_change(b, c);
      std::cout << "  K=" << shards << " " << field << " " << b << " -> " << c
                << " (" << percent(change) << ")\n";
      const bool timing = std::string(field) == "wall_seconds";
      if (timing ? timing_regressed(b, c, threshold) : change > threshold) {
        std::cout << "  REGRESSION: K=" << shards << " " << field
                  << " up more than " << percent(threshold) << "\n";
        regression = true;
      }
    }
    counter_changes += diff_metrics(
        *base_run, *it->second,
        "runs[K=" + std::to_string(shards) + "].metrics");
  }

  if (counter_changes > 0) {
    std::cout << "  " << counter_changes
              << " counter difference(s) — workload changed"
              << (strict_counters ? "" : " (advisory; --strict-counters to fail)")
              << "\n";
    if (strict_counters) regression = true;
  }

  std::cout << (regression ? "RESULT: regression beyond threshold\n"
                           : "RESULT: within threshold\n");
  return regression ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  // A report that parses as JSON but holds a wrong-typed field (say a
  // string `wall_seconds`) makes a Json accessor throw: that is a
  // parse error of the input, exit 2, not an abort.
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "bench_diff: malformed report: " << e.what() << "\n";
    return 2;
  }
}
