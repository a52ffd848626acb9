#include "fault/fault_plan.hpp"

#include "common/check.hpp"

namespace ppo::fault {

bool FaultPlan::enabled() const {
  return drop_probability > 0.0 || duplicate_probability > 0.0 ||
         jitter_max > 0.0 || reorder_probability > 0.0 ||
         !link_outages.empty() || !partitions.empty() ||
         !link_drop_overrides.empty() || gilbert_elliott.enabled() ||
         diurnal.enabled();
}

void FaultPlan::validate() const {
  PPO_CHECK_MSG(per_link_streams,
                "fate streams are per link: per_link_streams must be true");
  PPO_CHECK_MSG(drop_probability >= 0.0 && drop_probability <= 1.0,
                "drop_probability must be in [0,1]");
  PPO_CHECK_MSG(duplicate_probability >= 0.0 && duplicate_probability <= 1.0,
                "duplicate_probability must be in [0,1]");
  PPO_CHECK_MSG(reorder_probability >= 0.0 && reorder_probability <= 1.0,
                "reorder_probability must be in [0,1]");
  PPO_CHECK_MSG(jitter_min >= 0.0 && jitter_max >= jitter_min,
                "invalid jitter window");
  PPO_CHECK_MSG(
      reorder_min_delay >= 0.0 && reorder_max_delay >= reorder_min_delay,
      "invalid reorder delay window");
  for (const Window& w : link_outages)
    PPO_CHECK_MSG(w.end >= w.start, "inverted outage window");
  for (const Partition& p : partitions) {
    PPO_CHECK_MSG(p.window.end >= p.window.start,
                  "inverted partition window");
    PPO_CHECK_MSG(!p.group.empty(), "partition group must be non-empty");
  }
  for (const LinkDropOverride& o : link_drop_overrides) {
    PPO_CHECK_MSG(o.drop_prob >= 0.0 && o.drop_prob <= 1.0,
                  "link drop override must be in [0,1]");
    PPO_CHECK_MSG(o.from != o.to, "link override needs two distinct ends");
  }
  for (const NodeCrashSpec& c : node_crashes) {
    PPO_CHECK_MSG(c.at >= 0.0, "crash time must be non-negative");
    PPO_CHECK_MSG(c.revive_at < 0.0 || c.revive_at > c.at,
                  "revival must come after the crash");
  }
  const GilbertElliottProfile& ge = gilbert_elliott;
  PPO_CHECK_MSG(ge.p_good_to_bad >= 0.0 && ge.p_good_to_bad <= 1.0,
                "p_good_to_bad must be in [0,1]");
  PPO_CHECK_MSG(ge.p_bad_to_good >= 0.0 && ge.p_bad_to_good <= 1.0,
                "p_bad_to_good must be in [0,1]");
  PPO_CHECK_MSG(ge.good_drop >= 0.0 && ge.good_drop <= 1.0,
                "good_drop must be in [0,1]");
  PPO_CHECK_MSG(ge.bad_drop >= 0.0 && ge.bad_drop <= 1.0,
                "bad_drop must be in [0,1]");
  PPO_CHECK_MSG(ge.horizon >= 0.0, "GE horizon must be non-negative");
  if (ge.enabled())
    PPO_CHECK_MSG(ge.step > 0.0, "GE step must be positive");
  PPO_CHECK_MSG(diurnal.amplitude >= 0.0 && diurnal.amplitude <= 1.0,
                "diurnal amplitude must be in [0,1]");
  if (diurnal.enabled())
    PPO_CHECK_MSG(diurnal.period > 0.0, "diurnal period must be positive");
}

bool FaultPlan::outage_at(double t) const {
  for (const Window& w : link_outages)
    if (w.contains(t)) return true;
  return false;
}

}  // namespace ppo::fault
