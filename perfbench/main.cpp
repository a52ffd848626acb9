// One workload run in its own process (so peak RSS belongs to that
// configuration alone). Prints one JSON object with every raw number
// the driver (run.py) needs, then exits 0 when every output check
// passed, 1 when one failed, 2 on a usage error, 3 on an exception.
//
//   perfbench --workload crawl_k4 --seed 7 --seconds 30 [--trace]
//             [--toy] [--work-dir DIR] [--spans FILE]
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "runner/json.hpp"
#include "workloads.hpp"

namespace {

ppo::runner::Json to_json(const perfbench::Result& r) {
  using ppo::runner::Json;
  // Fingerprints are hex strings: JSON numbers lose 64-bit integers.
  const auto hex = [](std::uint64_t v) {
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016" PRIx64, v);
    return std::string(buf);
  };
  Json j = Json::object();
  j["workload"] = r.workload;
  j["setup_seconds"] = Json::array_of(r.setup_seconds);
  j["slice_seconds"] = Json::array_of(r.slice_seconds);
  j["wall_s"] = r.wall_s;
  j["cpu_s"] = r.cpu_s;
  j["peak_rss_mb"] = r.peak_rss_mb;
  j["disconnected_frac"] = r.disconnected_frac;
  j["exchange_fail_frac"] = r.exchange_fail_frac;
  j["messages_sent"] = r.messages_sent;
  j["attempted"] = r.attempted;
  j["failed"] = r.failed;
  j["output_fingerprint"] = hex(r.output_fingerprint);
  j["input_fingerprint"] = hex(r.input_fingerprint);
  Json checks = Json::array();
  for (const auto& c : r.checks) {
    Json check = Json::object();
    check["name"] = c.name;
    check["ok"] = c.ok;
    check["detail"] = c.detail;
    checks.push_back(std::move(check));
  }
  j["checks"] = std::move(checks);
  Json layer = Json::object();
  for (const auto& [name, value] : r.layer) layer[name] = value;
  j["layer"] = std::move(layer);
  return j;
}

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S [--trace] [--toy] [--work-dir DIR] "
               "[--spans FILE]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opt;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--trace") {
      opt.trace = true;
    } else if (arg == "--toy") {
      opt.toy = true;
    } else {
      const char* v = value();
      if (v == nullptr) return usage(("missing value for " + arg).c_str());
      char* end = nullptr;
      if (arg == "--workload") {
        opt.workload = v;
        have_workload = true;
      } else if (arg == "--seed") {
        opt.seed = std::strtoull(v, &end, 10);
      } else if (arg == "--seconds") {
        opt.seconds = std::strtod(v, &end);
        if (!(opt.seconds > 0.0)) return usage("--seconds must be > 0");
      } else if (arg == "--work-dir") {
        opt.work_dir = v;
      } else if (arg == "--spans") {
        opt.spans_path = v;
      } else {
        return usage(("unknown argument " + arg).c_str());
      }
      if (end != nullptr && *end != '\0')
        return usage(("malformed number for " + arg).c_str());
    }
  }
  if (!have_workload) return usage("--workload is required");

  try {
    const perfbench::Result r = perfbench::run_workload(opt);
    std::printf("%s\n", to_json(r).dump().c_str());
    std::fflush(stdout);
    for (const auto& c : r.checks)
      if (!c.ok)
        std::fprintf(stderr, "perfbench: check %s failed: %s\n",
                     c.name.c_str(), c.detail.c_str());
    return r.all_checks_ok() ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 3;
  }
}
