// Snapshot-free overlay edge enumeration for the measurement loop.
//
// The old path rebuilt a full adjacency-list `Graph` every sample:
// one allocation per node, one hash-probed `add_edge` per trust edge,
// and one registry resolution per live sampled pseudonym per node —
// even though between consecutive samples most nodes' links have not
// changed at all. This view keeps a memoized resolved-target slice
// per node and re-derives it only when it can have changed:
//
//  * the node's sampler reports a new mutation_epoch() (some slot was
//    written: fill, displacement, expiry refresh, vacation), or
//  * `now` has crossed the slice's validity horizon
//        valid_until = min(sampler earliest live expiry,
//                          min registry expiry of resolved values),
//    the earliest instant at which a live value can silently die or a
//    registration can lapse without any slot write.
//
// A value that FAILS to resolve (gossiped but expired at the
// registry, or forged and never registered) makes the slice
// non-cacheable (valid_until = now): an adversary may re-register an
// aimed value at any moment, turning the failure into a success with
// no sampler write, so failed resolutions must be retried every
// sample. Successful resolutions are stable until their expiry — a
// live value cannot be re-registered to a different owner, and every
// registration path stamps `now + lifetime`, so re-registration only
// ever extends an expiry (see PseudonymService::lookup_with_expiry).
//
// The produced edge set — trust edges plus an edge {u, owner(P)} for
// every live sampled pseudonym P of u — is exactly what
// overlay_snapshot() builds, normalized to u < v, sorted and
// deduplicated, ready for CsrGraph::assign_from_edges.
//
// Sorting is a counting sort on the lower endpoint: one pass counts
// each pair under its lower endpoint (refreshing stale slices on the
// way), a prefix sum turns the counts into bucket bounds, a second
// pass scatters the pairs into their buckets, and only the small
// per-node buckets are sorted and deduplicated, compacting in place.
// Linear in the pair count P, against O(P log P) for sorting all P
// pairs at once, in the same memory plus one bound per node.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <span>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "graph/csr.hpp"
#include "overlay/sampler.hpp"

namespace ppo::overlay {

class OverlayEdgeView {
 public:
  /// Enumerates the current overlay edges. `sampler_of(v)` must yield
  /// `const SlotSampler&` for node v; `resolve(value)` must yield
  /// `std::optional<std::pair<NodeId, sim::Time>>` — the owner and
  /// registry expiry of a live value (the omniscient metric view, not
  /// the availability-gated protocol path). The returned span is
  /// valid until the next collect() call.
  template <typename SamplerFn, typename ResolveFn>
  std::span<const std::pair<graph::NodeId, graph::NodeId>> collect(
      graph::GraphView trust, sim::Time now, SamplerFn&& sampler_of,
      ResolveFn&& resolve) {
    const std::size_t n = trust.num_nodes();
    // First call: size each node's target slice to its sampler — slot
    // counts never change after node construction, so the capacity is
    // final.
    while (state_.size() < n) {
      const graph::NodeId v = static_cast<graph::NodeId>(state_.size());
      NodeState st;
      st.offset = targets_.size();
      st.cap = static_cast<std::uint32_t>(sampler_of(v).slot_count());
      targets_.resize(targets_.size() + st.cap);
      state_.push_back(st);
    }

    // Pass 1: refresh stale slices; count each pair under its lower
    // endpoint (bucket_[lo] holds the count, then an inclusive prefix).
    bucket_.assign(n + 1, 0);
    for (graph::NodeId u = 0; u < n; ++u) {
      for (const graph::NodeId v : trust.neighbors(u))
        if (u < v) ++bucket_[u];

      NodeState& st = state_[u];
      const SlotSampler& sampler = sampler_of(u);
      if (st.epoch != sampler.mutation_epoch() || !(now < st.valid_until)) {
        scratch_.clear();
        sampler.live_values_into(now, scratch_);
        double valid_until = sampler.earliest_live_expiry(now);
        st.len = 0;
        for (const PseudonymValue value : scratch_) {
          const auto owner = resolve(value);
          if (!owner) {
            valid_until = now;  // non-cacheable: retry next sample
            continue;
          }
          valid_until = std::min(valid_until, owner->second);
          // Distinct live values <= slots, so len can never reach cap.
          if (owner->first != u) targets_[st.offset + st.len++] = owner->first;
        }
        st.epoch = sampler.mutation_epoch();
        st.valid_until = valid_until;
        ++slices_recomputed_;
      } else {
        ++slices_reused_;
      }
      for (std::uint32_t i = 0; i < st.len; ++i)
        ++bucket_[std::min(u, targets_[st.offset + i])];
    }
    std::size_t pairs = 0;
    for (graph::NodeId u = 0; u < n; ++u) {
      pairs += bucket_[u];
      bucket_[u] = static_cast<std::uint32_t>(pairs);
    }
    PPO_CHECK_MSG(pairs <= std::numeric_limits<std::uint32_t>::max(),
                  "overlay edge enumeration exceeds 2^32 pairs");
    bucket_[n] = static_cast<std::uint32_t>(pairs);

    // Pass 2: scatter the pairs, filling each bucket from its end;
    // afterwards bucket u spans [bucket_[u], bucket_[u + 1]).
    edges_.resize(pairs);
    for (graph::NodeId u = 0; u < n; ++u) {
      for (const graph::NodeId v : trust.neighbors(u))
        if (u < v) edges_[--bucket_[u]] = {u, v};
      const NodeState& st = state_[u];
      for (std::uint32_t i = 0; i < st.len; ++i) {
        const graph::NodeId t = targets_[st.offset + i];
        const graph::NodeId lo = std::min(u, t);
        edges_[--bucket_[lo]] = {lo, std::max(u, t)};
      }
    }

    // Pass 3: sort each bucket and compact it, deduplicated, towards
    // the front — the order a global sort and unique would produce.
    std::size_t out = 0;
    for (graph::NodeId u = 0; u < n; ++u) {
      const auto first = edges_.begin() + bucket_[u];
      const auto last = edges_.begin() + bucket_[u + 1];
      std::sort(first, last);
      for (auto it = first; it != last; ++it)
        if (it == first || it->second != (it - 1)->second) edges_[out++] = *it;
    }
    edges_.resize(out);
    return {edges_.data(), edges_.size()};
  }

  /// Memoization effectiveness counters (telemetry).
  std::uint64_t slices_reused() const { return slices_reused_; }
  std::uint64_t slices_recomputed() const { return slices_recomputed_; }

  /// Heap bytes held by the view (capacity) — feeds the bytes-per-node
  /// telemetry of the crawl-scale reports.
  std::size_t memory_bytes() const {
    return state_.capacity() * sizeof(NodeState) +
           targets_.capacity() * sizeof(graph::NodeId) +
           edges_.capacity() * sizeof(edges_[0]) +
           scratch_.capacity() * sizeof(PseudonymValue) +
           bucket_.capacity() * sizeof(std::uint32_t);
  }

 private:
  static constexpr std::uint64_t kNeverCached = ~std::uint64_t{0};

  struct NodeState {
    std::uint64_t epoch = kNeverCached;
    double valid_until = -std::numeric_limits<double>::infinity();
    std::uint64_t offset = 0;  // into targets_
    std::uint32_t len = 0;
    std::uint32_t cap = 0;
  };

  std::vector<NodeState> state_;
  /// Pooled per-node resolved-target slices (fixed capacity = the
  /// node's slot count; distinct live values never exceed slots).
  std::vector<graph::NodeId> targets_;
  std::vector<std::pair<graph::NodeId, graph::NodeId>> edges_;
  std::vector<PseudonymValue> scratch_;
  /// Counting-sort scratch: per-lower-endpoint bucket bounds (n + 1).
  std::vector<std::uint32_t> bucket_;
  std::uint64_t slices_reused_ = 0;
  std::uint64_t slices_recomputed_ = 0;
};

}  // namespace ppo::overlay
