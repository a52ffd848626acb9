// Output checks run on every benchmark run. Each takes plain values so
// the self-test can feed it a hand-built input that violates it.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "metrics/protocol_health.hpp"

namespace perfbench {

struct CheckResult {
  std::string name;
  bool ok = true;
  std::string detail;  // what was compared, filled on failure
};

/// Conservation over the health counters: completed + aborted <=
/// requests; delivered + dropped <= sent; every honest counter <= its
/// global counterpart.
CheckResult check_health(const ppo::metrics::ProtocolHealth& h);

/// The streaming disconnected fraction must equal the one recomputed
/// from a materialized overlay snapshot (both are exact counts over
/// the same edge set, so equality is exact).
CheckResult check_disconnected_recompute(double streaming, double recomputed);

/// Figure 3 ordering: at every alpha the overlay's disconnected
/// fraction is at or below its trust graph's.
CheckResult check_overlay_not_above_trust(const std::string& label,
                                          const std::vector<double>& alphas,
                                          const std::vector<double>& trust,
                                          const std::vector<double>& overlay);

/// A resumed snapshot must reproduce the live service's trajectory
/// fingerprint at the snapshot time.
CheckResult check_resume_fingerprint(std::uint64_t live,
                                     std::uint64_t resumed);

}  // namespace perfbench
