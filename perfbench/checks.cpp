#include "checks.hpp"

#include <sstream>

namespace perfbench {

namespace {

/// Records the first violated `lhs <= rhs` relation in `out`.
void require_le(CheckResult& out, const char* what, std::uint64_t lhs,
                std::uint64_t rhs) {
  if (!out.ok || lhs <= rhs) return;
  std::ostringstream os;
  os << what << ": " << lhs << " > " << rhs;
  out.ok = false;
  out.detail = os.str();
}

}  // namespace

CheckResult check_health(const ppo::metrics::ProtocolHealth& h) {
  CheckResult out{"health_conservation", true, {}};
  require_le(out, "completed + aborted <= requests",
             h.exchanges_completed + h.exchanges_aborted, h.requests_sent);
  require_le(out, "delivered + dropped <= sent",
             h.messages_delivered + h.messages_dropped, h.messages_sent);
  require_le(out, "honest requests <= requests", h.honest_requests_sent,
             h.requests_sent);
  require_le(out, "honest retries <= retries", h.honest_request_retries,
             h.request_retries);
  require_le(out, "honest completed <= completed",
             h.honest_exchanges_completed, h.exchanges_completed);
  return out;
}

CheckResult check_disconnected_recompute(double streaming, double recomputed) {
  CheckResult out{"disconnected_recompute", streaming == recomputed, {}};
  if (!out.ok) {
    std::ostringstream os;
    os.precision(17);
    os << "streaming " << streaming << " != snapshot " << recomputed;
    out.detail = os.str();
  }
  return out;
}

CheckResult check_overlay_not_above_trust(const std::string& label,
                                          const std::vector<double>& alphas,
                                          const std::vector<double>& trust,
                                          const std::vector<double>& overlay) {
  CheckResult out{"overlay_not_above_trust_" + label, true, {}};
  if (trust.size() != alphas.size() || overlay.size() != alphas.size()) {
    out.ok = false;
    out.detail = "series length differs from the alpha axis";
    return out;
  }
  for (std::size_t i = 0; i < alphas.size(); ++i) {
    if (overlay[i] <= trust[i]) continue;
    std::ostringstream os;
    os << "alpha " << alphas[i] << ": overlay " << overlay[i] << " > trust "
       << trust[i];
    out.ok = false;
    out.detail = os.str();
    break;
  }
  return out;
}

CheckResult check_resume_fingerprint(std::uint64_t live,
                                     std::uint64_t resumed) {
  CheckResult out{"resume_fingerprint", live == resumed, {}};
  if (!out.ok) {
    std::ostringstream os;
    os << std::hex << "live " << live << " != resumed " << resumed;
    out.detail = os.str();
  }
  return out;
}

}  // namespace perfbench
