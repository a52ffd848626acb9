// The queue section of a snapshot (DESIGN.md §13): a pending event is
// a plain record, so the event queue itself is what a checkpoint
// writes. Three layers:
//
//  1. CheckpointQueue    — the section's layout, and one refusal per
//                          way a section can be malformed (handler
//                          list, handler, kind, target, time, seq,
//                          payload, order).
//  2. CheckpointResume   — two-stage fault plans (jitter, reorder,
//                          duplication) survive a restore at K = 1, at
//                          K = 4 and from K = 4 to K = 2; the snapshot
//                          bytes do not depend on K; warm start forks
//                          a jittered cell.
//  3. CheckpointMutation — seeded bit flips, byte overwrites and
//                          truncations confined to the queue section
//                          either fail closed or restore and run.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <filesystem>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "ckpt/io.hpp"
#include "churn/churn_model.hpp"
#include "common/check.hpp"
#include "experiments/adversary_study.hpp"
#include "experiments/scenario.hpp"
#include "graph/generators.hpp"
#include "overlay/sharded_service.hpp"
#include "sim/sharded_simulator.hpp"
#include "telemetry/service_mode.hpp"

namespace {

using namespace ppo;

// ---------------------------------------------------------------------
// CheckpointQueue
// ---------------------------------------------------------------------

constexpr std::uint32_t kQueueTag = 0x51554555u;  // 'QUEU'
constexpr std::uint32_t kProbeTag = 0x50524F42u;  // 'PROB'

/// Accepts kind 0 with at most one payload byte; runs nothing.
struct Probe final : sim::EventHandler {
  explicit Probe(sim::ShardedSimulator& sim) : id(sim.add_handler(*this)) {}
  void fire(const sim::Event&) override {}
  std::uint32_t handler_tag() const override { return kProbeTag; }
  bool accepts(const sim::Event& event) const override {
    return event.kind == 0 && event.payload.size() <= 1;
  }
  sim::HandlerId id;
};

/// A queue section by hand, in the layout save_events writes: the tag,
/// the handler tags, then each event's key, target, handler, kind,
/// arguments and payload.
std::string section(const std::vector<std::uint32_t>& tags,
                    const std::vector<sim::Event>& events) {
  ckpt::Writer w;
  w.tag(kQueueTag);
  w.size(tags.size());
  for (const std::uint32_t tag : tags) w.u32(tag);
  w.size(events.size());
  for (const sim::Event& e : events) {
    w.f64(e.time);
    w.u32(e.origin);
    w.u64(e.seq);
    w.u32(e.target);
    w.u32(e.handler);
    w.u8(e.kind);
    w.u64(e.a);
    w.u64(e.b);
    w.bytes(e.payload);
  }
  return w.take();
}

/// Four actors restored at t = 5: actor counters at 3, external at 3.
struct Restored {
  sim::ShardedSimulator sim{{.num_actors = 4}};
  Probe probe{sim};
  Restored() { sim.restore_state(5.0, 0, {3, 3, 3, 3}, 3); }

  void restore(const std::string& bytes) {
    ckpt::Reader r(bytes);
    sim.load_events(r);
  }
};

/// A pending event the restored simulator accepts.
sim::Event valid_event() {
  return sim::Event{.time = 5.0, .origin = 2, .seq = 2, .target = 3,
                    .handler = 0, .kind = 0, .a = 7, .b = 8,
                    .payload = {9}};
}

TEST(CheckpointQueue, SaveEventsWritesTheDocumentedLayout) {
  sim::ShardedSimulator sim({.shards = 2, .num_actors = 4});
  const Probe probe(sim);
  sim.schedule_at_for(3, 2.0, probe.id, 0, 1, 2, {5});
  sim.schedule_at_for(1, 1.0, probe.id, 0, 3, 4);
  ckpt::Writer w;
  sim.save_events(w);
  // Canonical order, whatever shard each event sits on.
  const std::vector<sim::Event> expected{
      {.time = 1.0, .origin = sim::kExternalActor, .seq = 1, .target = 1,
       .a = 3, .b = 4},
      {.time = 2.0, .origin = sim::kExternalActor, .seq = 0, .target = 3,
       .a = 1, .b = 2, .payload = {5}}};
  EXPECT_EQ(w.buffer(), section({kProbeTag}, expected));

  Restored restored;
  restored.sim.restore_state(0.0, 0, {0, 0, 0, 0}, 2);
  restored.restore(w.buffer());
  EXPECT_EQ(restored.sim.pending(), 2u);
}

TEST(CheckpointQueue, AcceptsAValidSection) {
  Restored restored;
  restored.restore(section({kProbeTag}, {valid_event()}));
  EXPECT_EQ(restored.sim.pending(), 1u);
}

TEST(CheckpointQueue, RefusesAHandlerListThatDiffers) {
  Restored restored;
  EXPECT_THROW(restored.restore(section({0xDEADu}, {})), ckpt::ParseError);
  EXPECT_THROW(restored.restore(section({kProbeTag, kProbeTag}, {})),
               ckpt::ParseError);
  EXPECT_THROW(restored.restore(section({}, {})), ckpt::ParseError);
}

TEST(CheckpointQueue, RefusesAnUnknownHandler) {
  sim::Event e = valid_event();
  e.handler = 1;
  Restored restored;
  EXPECT_THROW(restored.restore(section({kProbeTag}, {e})), ckpt::ParseError);
}

TEST(CheckpointQueue, RefusesAnUnknownKind) {
  sim::Event e = valid_event();
  e.kind = 1;
  Restored restored;
  EXPECT_THROW(restored.restore(section({kProbeTag}, {e})), ckpt::ParseError);
}

TEST(CheckpointQueue, RefusesATargetOutOfRange) {
  sim::Event e = valid_event();
  e.target = 4;
  Restored restored;
  EXPECT_THROW(restored.restore(section({kProbeTag}, {e})), ckpt::ParseError);
}

TEST(CheckpointQueue, RefusesATimeNotFiniteOrBeforeTheCheckpoint) {
  for (const double t : {std::numeric_limits<double>::quiet_NaN(),
                         std::numeric_limits<double>::infinity(), 4.999}) {
    sim::Event e = valid_event();
    e.time = t;
    Restored restored;
    EXPECT_THROW(restored.restore(section({kProbeTag}, {e})),
                 ckpt::ParseError)
        << "time " << t;
  }
}

TEST(CheckpointQueue, RefusesASeqNotBelowItsOriginsCounter) {
  for (const auto& [origin, seq] :
       std::vector<std::pair<sim::ActorId, std::uint64_t>>{
           {2, 3}, {sim::kExternalActor, 3}, {9, 0}}) {
    sim::Event e = valid_event();
    e.origin = origin;
    e.seq = seq;
    Restored restored;
    EXPECT_THROW(restored.restore(section({kProbeTag}, {e})),
                 ckpt::ParseError)
        << "origin " << origin << " seq " << seq;
  }
}

TEST(CheckpointQueue, RefusesAPayloadItsHandlerCannotDecode) {
  sim::Event e = valid_event();
  e.payload = {1, 2};
  Restored restored;
  EXPECT_THROW(restored.restore(section({kProbeTag}, {e})), ckpt::ParseError);
}

TEST(CheckpointQueue, RefusesEventsOutOfCanonicalOrder) {
  sim::Event later = valid_event();
  later.time = 6.0;
  Restored restored;
  EXPECT_THROW(restored.restore(section({kProbeTag}, {later, valid_event()})),
               ckpt::ParseError);
  Restored twice;
  EXPECT_THROW(twice.restore(section({kProbeTag}, {valid_event(),
                                                   valid_event()})),
               ckpt::ParseError);
}

// ---------------------------------------------------------------------
// CheckpointResume — two-stage fault plans
// ---------------------------------------------------------------------

constexpr std::uint64_t kSeed = 7;

/// Loss, jitter, reorder and duplication, the defended mixed adversary
/// and an observer: every arm carries live state, and delayed copies
/// are in flight at any instant.
overlay::OverlayServiceOptions two_stage_options() {
  overlay::OverlayServiceOptions options;
  options.params.cache_size = 50;
  options.params.shuffle_length = 10;
  options.params.target_links = 20;
  const experiments::AdversarySpec defaults;
  options.params.validate_received = true;
  options.params.peer_rate_limit = defaults.peer_rate_limit;
  options.params.peer_rate_window = defaults.peer_rate_window;
  options.params.sampler_min_dwell = defaults.sampler_min_dwell;
  options.params.shuffle_timeout = defaults.shuffle_timeout;
  options.params.shuffle_max_retries = defaults.max_retries;
  fault::FaultPlan faults;
  faults.drop_probability = 0.05;
  faults.jitter_max = 0.3;
  faults.reorder_probability = 0.1;
  faults.reorder_min_delay = 0.2;
  faults.reorder_max_delay = 0.6;
  faults.duplicate_probability = 0.05;
  faults.seed = kSeed;
  options.link_faults = faults;
  options.adversary = experiments::make_attack_plan("mixed", 0.1, kSeed);
  inference::ObserverPlan observer;
  observer.coverage = 0.3;
  observer.seed = kSeed ^ 0x0B5E;
  options.observer = observer;
  return options;
}

struct Workload {
  graph::Graph trust;
  churn::ExponentialChurn model =
      churn::ExponentialChurn::from_availability(0.6, 30.0);
  overlay::OverlayServiceOptions options = two_stage_options();

  explicit Workload(std::size_t nodes) {
    Rng graph_rng(kSeed ^ 0x6EA4);
    trust = graph::holme_kim(nodes, 5, 0.3, graph_rng);
  }
};

/// What a run leaves behind: the trajectory fingerprint, the event
/// count and every health counter.
struct Outcome {
  std::uint64_t fingerprint = 0;
  std::uint64_t events = 0;
  metrics::ProtocolHealth health;
  bool operator==(const Outcome&) const = default;
};

/// One simulator and service over a workload, driven in one-period
/// slices (a resumed run must slice like the original).
struct Live {
  sim::ShardedSimulator sim;
  overlay::ShardedOverlayService service;

  Live(const Workload& w, std::size_t shards)
      : sim(overlay::simulator_options(w.options, w.trust.num_nodes(),
                                       shards)),
        service(sim, w.trust, w.model, w.options, kSeed) {}

  void run_to(double end) {
    while (sim.now() < end) sim.run_until(sim.now() + 1.0);
  }
  std::string save() const {
    ckpt::Writer w;
    service.save_checkpoint(w);
    return w.take();
  }
  void restore(const std::string& bytes) {
    ckpt::Reader r(bytes);
    service.restore_from_checkpoint(r);
  }
  Outcome outcome() {
    Outcome o;
    o.health = service.protocol_health();
    o.fingerprint =
        telemetry::trajectory_fingerprint(service.overlay_edges(), o.health);
    o.events = sim.events_executed();
    return o;
  }
};

/// Saves at t = 5 at `save_shards`, restores into a fresh service at
/// `resume_shards` and runs to t = 10: the same outcome as the straight
/// run.
void check_two_stage_resume(std::size_t save_shards,
                            std::size_t resume_shards) {
  const Workload w(300);
  Live straight(w, resume_shards);
  straight.service.start();
  straight.run_to(10.0);
  const Outcome reference = straight.outcome();
  ASSERT_GT(reference.health.messages_sent, 0u);

  Live first(w, save_shards);
  first.service.start();
  first.run_to(5.0);
  const std::string snapshot = first.save();

  Live second(w, resume_shards);
  second.restore(snapshot);
  EXPECT_EQ(second.sim.now(), 5.0);
  second.run_to(10.0);
  const Outcome resumed = second.outcome();
  EXPECT_EQ(resumed.fingerprint, reference.fingerprint);
  EXPECT_EQ(resumed.events, reference.events);
  EXPECT_EQ(resumed.health, reference.health);
  const auto* faulty = second.service.fault_transport();
  ASSERT_NE(faulty, nullptr);
  EXPECT_GT(faulty->counters().delayed, 0u);
  EXPECT_GT(faulty->counters().duplicates, 0u);
}

TEST(CheckpointResume, TwoStageFaultsK1BitIdentical) {
  check_two_stage_resume(1, 1);
}

TEST(CheckpointResume, TwoStageFaultsK4BitIdentical) {
  check_two_stage_resume(4, 4);
}

TEST(CheckpointResume, TwoStageFaultsCrossShardCountK4ToK2) {
  check_two_stage_resume(4, 2);
}

TEST(CheckpointResume, SnapshotBytesAreShardCountInvariant) {
  const Workload w(300);
  std::vector<std::string> snapshots;
  for (const std::size_t shards : {1u, 2u, 4u}) {
    Live live(w, shards);
    live.service.start();
    live.run_to(5.0);
    snapshots.push_back(live.save());
  }
  EXPECT_EQ(snapshots[1], snapshots[0]);
  EXPECT_EQ(snapshots[2], snapshots[0]);
}

TEST(CheckpointResume, WarmStartForksAJitteredCell) {
  Rng graph_rng(11);
  const graph::Graph trust = graph::holme_kim(200, 4, 0.3, graph_rng);
  experiments::OverlayScenario scenario;
  scenario.params.cache_size = 30;
  scenario.params.shuffle_length = 8;
  scenario.params.target_links = 12;
  scenario.churn.alpha = 0.5;
  scenario.window = {.warmup = 20.0, .measure = 10.0, .sample_every = 5.0,
                     .apl_sources = 8};
  scenario.seed = 5;
  fault::FaultPlan faults;
  faults.jitter_max = 0.3;
  faults.reorder_probability = 0.1;
  faults.reorder_min_delay = 0.2;
  faults.reorder_max_delay = 0.6;
  scenario.faults = faults;

  const experiments::OverlayRunResult cold =
      experiments::run_overlay(trust, scenario);
  const std::string dir = testing::TempDir() + "/ckpt_warm_jitter";
  std::filesystem::remove_all(dir);
  scenario.warm_start_dir = dir;
  const experiments::OverlayRunResult seeded =
      experiments::run_overlay(trust, scenario);
  const experiments::OverlayRunResult forked =
      experiments::run_overlay(trust, scenario);
  EXPECT_FALSE(seeded.warm_started);
  EXPECT_TRUE(forked.warm_started);
  EXPECT_TRUE(experiments::runs_identical(cold, seeded));
  EXPECT_TRUE(experiments::runs_identical(cold, forked));
  EXPECT_GT(cold.health.messages_sent, 0u);
}

// ---------------------------------------------------------------------
// CheckpointMutation — the queue section fails closed
// ---------------------------------------------------------------------

TEST(CheckpointMutation, QueueSection) {
  const Workload w(100);
  std::string snapshot;
  {
    Live live(w, 1);
    live.service.start();
    live.run_to(5.0);
    snapshot = live.save();
  }
  const std::string tag("UEUQ", 4);  // kQueueTag, little-endian
  const std::size_t begin = snapshot.find(tag);
  ASSERT_NE(begin, std::string::npos);
  {  // The located tag is the real one: intact it restores, broken not.
    Live intact(w, 1);
    intact.restore(snapshot);
    std::string broken = snapshot;
    broken[begin] ^= 0x01;
    Live refused(w, 1);
    EXPECT_THROW(refused.restore(broken), ckpt::ParseError);
  }

  Rng rng(0x5EED);
  constexpr int kMutations = 600;
  int detected = 0, ran = 0;
  for (int i = 0; i < kMutations; ++i) {
    std::string mutated = snapshot;
    const std::size_t span = snapshot.size() - begin;
    const std::size_t at =
        begin + static_cast<std::size_t>(rng.uniform_u64(span));
    switch (i % 3) {
      case 0:  // bit flip
        mutated[at] = static_cast<char>(
            mutated[at] ^ (1 << static_cast<int>(rng.uniform_u64(8))));
        break;
      case 1:  // byte overwrite
        mutated[at] = static_cast<char>(rng.uniform_u64(256));
        break;
      default:  // truncation
        mutated.resize(at);
        break;
    }
    Live live(w, 1);
    try {
      live.restore(mutated);
      live.sim.run_until(live.sim.now() + 1.0);
      ++ran;
    } catch (const ckpt::ParseError&) {
      ++detected;
    } catch (const CheckError&) {
      ++detected;  // a protocol invariant caught it
    }
  }
  EXPECT_EQ(detected + ran, kMutations);
  EXPECT_GT(detected, 0);
  EXPECT_GT(ran, 0);
}

}  // namespace
