#include "metrics/protocol_health.hpp"

#include <limits>

namespace ppo::metrics {

namespace {
std::uint64_t saturating_add(std::uint64_t a, std::uint64_t b) {
  const std::uint64_t max = std::numeric_limits<std::uint64_t>::max();
  return a > max - b ? max : a + b;
}
}  // namespace

double ProtocolHealth::completion_rate() const {
  // Retries can exceed requests in a merge of partial snapshots (a
  // retry counted in one window, its original request in another);
  // clamp instead of wrapping to a huge denominator.
  const std::uint64_t initiated =
      requests_sent >= request_retries ? requests_sent - request_retries : 0;
  if (initiated == 0) return 0.0;
  return static_cast<double>(exchanges_completed) /
         static_cast<double>(initiated);
}

double ProtocolHealth::honest_completion_rate() const {
  const std::uint64_t initiated =
      honest_requests_sent >= honest_request_retries
          ? honest_requests_sent - honest_request_retries
          : 0;
  if (initiated == 0) return 0.0;
  return static_cast<double>(honest_exchanges_completed) /
         static_cast<double>(initiated);
}

double ProtocolHealth::delivery_rate() const {
  if (messages_sent == 0) return 0.0;
  return static_cast<double>(messages_delivered) /
         static_cast<double>(messages_sent);
}

ProtocolHealth& ProtocolHealth::merge(const ProtocolHealth& other) {
  for (const HealthField& field : kHealthFields)
    this->*field.member =
        saturating_add(this->*field.member, other.*field.member);
  return *this;
}

}  // namespace ppo::metrics
