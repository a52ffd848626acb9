// Protocol-level degradation accounting (fault-tolerance extension):
// aggregates the per-node shuffle counters and the transport's
// sent/delivered tallies into one health record that every figure's
// JSON report can carry.
//
// kHealthFields names every field once — its registry name and its
// kind. Merging, registry projection and equality all loop over that
// table, so a new field is one struct member plus one table row (the
// static_assert below refuses a member without a row).
#pragma once

#include <cstdint>
#include <iterator>

namespace ppo::metrics {

struct ProtocolHealth {
  // Overlay-protocol counters (summed over nodes).
  std::uint64_t requests_sent = 0;   // retransmissions included
  std::uint64_t responses_sent = 0;
  std::uint64_t exchanges_completed = 0;
  std::uint64_t request_timeouts = 0;
  std::uint64_t request_retries = 0;
  std::uint64_t exchanges_aborted = 0;
  std::uint64_t stale_responses = 0;

  // Transport-level accounting.
  std::uint64_t messages_sent = 0;
  std::uint64_t messages_delivered = 0;
  std::uint64_t messages_dropped = 0;

  // Byzantine-adversary accounting (§III-E extension). Defense side:
  // what the protocol's countermeasures caught.
  std::uint64_t forged_rejected = 0;       // dropped by merge validation
  std::uint64_t requests_rate_limited = 0; // dropped by per-peer limiter
  std::uint64_t displacements_damped = 0;  // sampler slot-churn damping
  // Attack side: what the adversary engine injected (0 without one).
  std::uint64_t forged_injected = 0;
  std::uint64_t replays_injected = 0;
  std::uint64_t eclipse_records_injected = 0;
  std::uint64_t responses_suppressed = 0;
  /// Honest sampler slots resolving to an attacker at snapshot time.
  std::uint64_t slots_eclipsed = 0;
  /// The same shuffle counters restricted to HONEST nodes. Equal to
  /// the global counters without an adversary; under attack they are
  /// the fair basis for comparing defenses (the global rate also
  /// counts the attackers' own deliberately-starved exchanges).
  std::uint64_t honest_requests_sent = 0;
  std::uint64_t honest_request_retries = 0;
  std::uint64_t honest_exchanges_completed = 0;

  /// Fraction of initiated exchanges that saw their response.
  /// Retransmissions of the same exchange are not double-counted in
  /// the denominator.
  double completion_rate() const;

  /// completion_rate() over the honest subset.
  double honest_completion_rate() const;

  /// Fraction of accepted sends the transport actually delivered.
  double delivery_rate() const;

  /// Field-wise sum, saturating at the uint64 maximum instead of
  /// wrapping (replicated sweeps merge many runs).
  ProtocolHealth& merge(const ProtocolHealth& other);

  bool operator==(const ProtocolHealth&) const = default;
};

/// How a field evolves over a run. A total only grows and is exported
/// as a registry counter; a level is a snapshot count that can fall
/// and is exported as a gauge.
enum class HealthKind { kTotal, kLevel };

struct HealthField {
  std::uint64_t ProtocolHealth::*member;
  const char* name;  // registry name: protocol_/transport_/defense_/attack_
  HealthKind kind = HealthKind::kTotal;
};

inline constexpr HealthField kHealthFields[] = {
    {&ProtocolHealth::requests_sent, "protocol_requests_sent"},
    {&ProtocolHealth::responses_sent, "protocol_responses_sent"},
    {&ProtocolHealth::exchanges_completed, "protocol_exchanges_completed"},
    {&ProtocolHealth::request_timeouts, "protocol_request_timeouts"},
    {&ProtocolHealth::request_retries, "protocol_request_retries"},
    {&ProtocolHealth::exchanges_aborted, "protocol_exchanges_aborted"},
    {&ProtocolHealth::stale_responses, "protocol_stale_responses"},
    {&ProtocolHealth::messages_sent, "transport_messages_sent"},
    {&ProtocolHealth::messages_delivered, "transport_messages_delivered"},
    {&ProtocolHealth::messages_dropped, "transport_messages_dropped"},
    {&ProtocolHealth::forged_rejected, "defense_forged_rejected"},
    {&ProtocolHealth::requests_rate_limited, "defense_requests_rate_limited"},
    {&ProtocolHealth::displacements_damped, "defense_displacements_damped"},
    {&ProtocolHealth::forged_injected, "attack_forged_injected"},
    {&ProtocolHealth::replays_injected, "attack_replays_injected"},
    {&ProtocolHealth::eclipse_records_injected,
     "attack_eclipse_records_injected"},
    {&ProtocolHealth::responses_suppressed, "attack_responses_suppressed"},
    {&ProtocolHealth::slots_eclipsed, "attack_slots_eclipsed",
     HealthKind::kLevel},
    {&ProtocolHealth::honest_requests_sent, "protocol_honest_requests_sent"},
    {&ProtocolHealth::honest_request_retries,
     "protocol_honest_request_retries"},
    {&ProtocolHealth::honest_exchanges_completed,
     "protocol_honest_exchanges_completed"},
};

static_assert(std::size(kHealthFields) * sizeof(std::uint64_t) ==
                  sizeof(ProtocolHealth),
              "every ProtocolHealth field needs a kHealthFields row");

}  // namespace ppo::metrics
