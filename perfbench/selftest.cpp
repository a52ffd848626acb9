// Self-tests of the benchmark program: every output check rejects a
// hand-built input that violates it, the crawl_k4 construction gives
// one trajectory at K = 1 and K = 4 and reproduces scale_single_run's
// anchor, and the workload seed alone fixes each workload's inputs.
// Workloads run at toy size; the anchor runs 10^5 nodes for 20 periods.
//
//   perfbench_selftest [--work-dir DIR]    exit 0 = all passed
#include <cstdio>
#include <filesystem>
#include <string>

#include "checks.hpp"
#include "workloads.hpp"

namespace {

using perfbench::Options;
using perfbench::Result;

int g_failures = 0;

void expect(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++g_failures;
}

ppo::metrics::ProtocolHealth consistent_health() {
  ppo::metrics::ProtocolHealth h;
  h.requests_sent = 100;
  h.request_retries = 10;
  h.exchanges_completed = 70;
  h.exchanges_aborted = 20;
  h.messages_sent = 300;
  h.messages_delivered = 250;
  h.messages_dropped = 40;
  h.honest_requests_sent = 90;
  h.honest_request_retries = 9;
  h.honest_exchanges_completed = 60;
  return h;
}

void test_health_check() {
  using perfbench::check_health;
  expect(check_health(consistent_health()).ok,
         "health: consistent counters pass");
  auto h = consistent_health();
  h.exchanges_aborted = 31;
  expect(!check_health(h).ok, "health: completed + aborted > requests fails");
  h = consistent_health();
  h.messages_dropped = 51;
  expect(!check_health(h).ok, "health: delivered + dropped > sent fails");
  h = consistent_health();
  h.honest_requests_sent = 101;
  expect(!check_health(h).ok, "health: honest requests > requests fails");
  h = consistent_health();
  h.honest_request_retries = 11;
  expect(!check_health(h).ok, "health: honest retries > retries fails");
  h = consistent_health();
  h.honest_exchanges_completed = 71;
  expect(!check_health(h).ok, "health: honest completed > completed fails");
}

void test_other_checks() {
  using namespace perfbench;
  expect(check_disconnected_recompute(0.125, 0.125).ok,
         "recompute: equal fractions pass");
  expect(!check_disconnected_recompute(0.125, 0.1250000000000001).ok,
         "recompute: fractions one ulp apart fail");

  const std::vector<double> alphas = {0.25, 1.0};
  const std::vector<double> trust = {0.30, 0.0};
  expect(check_overlay_not_above_trust("t", alphas, trust, {0.10, 0.0}).ok,
         "ordering: overlay below or at trust passes");
  expect(!check_overlay_not_above_trust("t", alphas, trust, {0.10, 0.01}).ok,
         "ordering: overlay above trust at one alpha fails");
  expect(!check_overlay_not_above_trust("t", alphas, trust, {0.10}).ok,
         "ordering: series shorter than the alpha axis fails");

  expect(check_resume_fingerprint(0xABCDu, 0xABCDu).ok,
         "resume: equal fingerprints pass");
  expect(!check_resume_fingerprint(0xABCDu, 0xABCEu).ok,
         "resume: different fingerprints fail");
}

Result toy_run(const std::string& workload, std::uint64_t seed,
               std::size_t shards, const std::string& work_dir) {
  Options o;
  o.workload = workload;
  o.seed = seed;
  o.toy = true;
  o.shards = shards;
  o.work_dir = work_dir;
  return perfbench::run_workload(o);
}

void test_crawl_k_invariance(const std::string& work_dir) {
  const Result k1 = toy_run("crawl_k4", 5, 1, work_dir);
  const Result k4 = toy_run("crawl_k4", 5, 4, work_dir);
  expect(k1.all_checks_ok() && k4.all_checks_ok(),
         "crawl_k4: checks pass at K=1 and K=4");
  expect(k1.output_fingerprint == k4.output_fingerprint,
         "crawl_k4: K=1 and K=4 give the same trajectory fingerprint");
  expect(k1.layer.at("sim.events") == k4.layer.at("sim.events"),
         "crawl_k4: K=1 and K=4 execute the same number of events");
}

void test_crawl_anchor() {
  // scale_single_run --nodes=100000 --horizon=20 --shard-list=1 at seed
  // 42 executes 3,687,491 events and ends on fingerprint
  // 5982336394533a31; the fingerprint is the same at every K.
  const auto run = perfbench::crawl_single_run(42, 100'000, 20.0, 4);
  expect(run.events == 3'687'491u,
         "crawl_k4: construction matches scale_single_run's event count");
  expect(run.fingerprint == 0x5982336394533a31u,
         "crawl_k4: construction matches scale_single_run's fingerprint");
}

void test_seed_controls_inputs(const std::string& work_dir) {
  for (const std::string& w : perfbench::workload_names()) {
    const Result a = toy_run(w, 5, 0, work_dir);
    const Result b = toy_run(w, 5, 0, work_dir);
    const Result c = toy_run(w, 6, 0, work_dir);
    expect(a.all_checks_ok() && b.all_checks_ok() && c.all_checks_ok(),
           w + ": checks pass at toy size");
    expect(a.input_fingerprint == b.input_fingerprint,
           w + ": the same seed reproduces the inputs");
    expect(a.output_fingerprint == b.output_fingerprint,
           w + ": the same seed reproduces the outputs");
    if (w == "fig3_paper") {
      // The graphs are a fixed dataset; what the seed draws (churn,
      // protocol draws, the ER reference) is drawn inside the sweep, so
      // only the outputs show it.
      expect(a.input_fingerprint == c.input_fingerprint,
             w + ": the graphs do not depend on the seed");
      expect(a.output_fingerprint != c.output_fingerprint,
             w + ": another seed changes the sweep's draws");
    } else {
      expect(a.input_fingerprint != c.input_fingerprint,
             w + ": another seed changes the inputs");
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::string work_dir = "perfbench-selftest-work";
  if (argc == 3 && std::string(argv[1]) == "--work-dir") work_dir = argv[2];
  test_health_check();
  test_other_checks();
  test_crawl_k_invariance(work_dir);
  test_crawl_anchor();
  test_seed_controls_inputs(work_dir);
  std::filesystem::remove_all(work_dir);
  std::printf("%d failure(s)\n", g_failures);
  return g_failures == 0 ? 0 : 1;
}
