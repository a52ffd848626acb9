#include "inference/attacks.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <set>

#include "common/check.hpp"

namespace ppo::inference {
namespace {

/// Union-find over dense pseudonym indices, path-halving.
class UnionFind {
 public:
  explicit UnionFind(std::size_t n) : parent_(n) {
    for (std::size_t i = 0; i < n; ++i) parent_[i] = i;
  }

  std::size_t find(std::size_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }

  void unite(std::size_t a, std::size_t b) {
    a = find(a);
    b = find(b);
    if (a != b) parent_[std::max(a, b)] = std::min(a, b);
  }

 private:
  std::vector<std::size_t> parent_;
};

double jaccard(const std::vector<PseudonymValue>& a,
               const std::vector<PseudonymValue>& b) {
  if (a.empty() || b.empty()) return 0.0;
  std::size_t inter = 0;
  auto ia = a.begin();
  auto ib = b.begin();
  while (ia != a.end() && ib != b.end()) {
    if (*ia < *ib) {
      ++ia;
    } else if (*ib < *ia) {
      ++ib;
    } else {
      ++inter;
      ++ia;
      ++ib;
    }
  }
  return double(inter) / double(a.size() + b.size() - inter);
}

/// Sorts candidates into the canonical (score desc, u, v) order.
void canonical_sort(std::vector<ScoredEdge>& edges) {
  std::sort(edges.begin(), edges.end(),
            [](const ScoredEdge& a, const ScoredEdge& b) {
              if (a.score != b.score) return a.score > b.score;
              if (a.u != b.u) return a.u < b.u;
              return a.v < b.v;
            });
}

/// Accumulates pair -> score maps into the canonical edge list.
std::vector<ScoredEdge> to_edges(
    const std::map<std::pair<std::uint32_t, std::uint32_t>, double>& scores) {
  std::vector<ScoredEdge> out;
  out.reserve(scores.size());
  for (const auto& [pair, score] : scores)
    out.push_back({pair.first, pair.second, score});
  canonical_sort(out);
  return out;
}

/// Entity pair key in canonical u < v order; nullopt for self-pairs.
std::optional<std::pair<std::uint32_t, std::uint32_t>> entity_pair(
    std::uint32_t a, std::uint32_t b) {
  if (a == b) return std::nullopt;
  return std::make_pair(std::min(a, b), std::max(a, b));
}

}  // namespace

std::uint32_t EntityMap::entity_of(PseudonymValue value) const {
  const auto it = std::lower_bound(
      profiles.begin(), profiles.end(), value,
      [](const PseudonymProfile& p, PseudonymValue v) { return p.value < v; });
  if (it == profiles.end() || it->value != value) return num_entities;
  return it->entity;
}

EntityMap link_pseudonym_lifetimes(const std::vector<ObservationRecord>& log,
                                   const AttackOptions& options) {
  EntityMap out;

  // Profile every pseudonym that appears on either side of an
  // exchange. flat std::map keeps value order deterministic.
  std::map<PseudonymValue, PseudonymProfile> by_value;
  const auto touch = [&](PseudonymValue value, double time, double expiry,
                         PseudonymValue peer) {
    if (value == 0) return;  // endpoint had no live pseudonym
    auto [it, inserted] = by_value.try_emplace(value);
    PseudonymProfile& p = it->second;
    if (inserted) {
      p.value = value;
      p.first_seen = time;
    }
    p.first_seen = std::min(p.first_seen, time);
    p.last_seen = std::max(p.last_seen, time);
    p.expiry = std::max(p.expiry, expiry);
    ++p.exchanges;
    if (peer != 0) p.peers.push_back(peer);
  };
  for (const ObservationRecord& rec : log) {
    touch(rec.src_pseudo, rec.time, rec.src_expiry, rec.dst_pseudo);
    touch(rec.dst_pseudo, rec.time, rec.dst_expiry, rec.src_pseudo);
  }

  out.profiles.reserve(by_value.size());
  for (auto& [value, profile] : by_value) {
    std::sort(profile.peers.begin(), profile.peers.end());
    profile.peers.erase(
        std::unique(profile.peers.begin(), profile.peers.end()),
        profile.peers.end());
    out.profiles.push_back(std::move(profile));
  }

  // Successor matching: node X's pseudonym expires at t and X mints a
  // replacement immediately, so a successor's first sighting falls in
  // (last_seen, expiry + window]. Score candidates by peer-set overlap
  // plus a bonus for first appearing close to the predecessor's
  // expiry; greedily accept the best per predecessor. Deterministic:
  // profiles are value-sorted and ties break towards the smaller
  // candidate value.
  const std::size_t n = out.profiles.size();
  UnionFind uf(n);
  std::vector<std::size_t> by_first_seen(n);
  for (std::size_t i = 0; i < n; ++i) by_first_seen[i] = i;
  std::sort(by_first_seen.begin(), by_first_seen.end(),
            [&](std::size_t a, std::size_t b) {
              const PseudonymProfile& pa = out.profiles[a];
              const PseudonymProfile& pb = out.profiles[b];
              if (pa.first_seen != pb.first_seen)
                return pa.first_seen < pb.first_seen;
              return pa.value < pb.value;
            });
  for (std::size_t i = 0; i < n; ++i) {
    const PseudonymProfile& pred = out.profiles[i];
    const double lo = pred.last_seen;
    const double hi = pred.expiry + options.link_window;
    if (!(lo < hi)) continue;
    double best_score = 0.0;
    std::size_t best = n;
    for (const std::size_t j : by_first_seen) {
      const PseudonymProfile& cand = out.profiles[j];
      if (cand.first_seen <= lo) continue;
      if (cand.first_seen > hi) break;
      if (j == i) continue;
      const double gap = std::abs(cand.first_seen - pred.expiry);
      const double timing =
          std::max(0.0, 1.0 - gap / std::max(options.link_window, 1e-9));
      const double score = jaccard(pred.peers, cand.peers) + timing;
      if (score > best_score ||
          (score == best_score && best != n &&
           cand.value < out.profiles[best].value)) {
        best_score = score;
        best = j;
      }
    }
    if (best != n && best_score >= options.link_min_score) uf.unite(i, best);
  }

  // Dense entity ids in order of the smallest member pseudonym.
  std::map<std::size_t, std::uint32_t> root_to_entity;
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t root = uf.find(i);
    const auto [it, inserted] =
        root_to_entity.try_emplace(root, out.num_entities);
    if (inserted) ++out.num_entities;
    out.profiles[i].entity = it->second;
  }
  return out;
}

std::vector<ScoredEdge> lifetime_linking_attack(
    const EntityMap& entities, const std::vector<ObservationRecord>& log,
    const AttackOptions& options) {
  (void)options;
  std::map<std::pair<std::uint32_t, std::uint32_t>, double> scores;
  for (const ObservationRecord& rec : log) {
    if (rec.src_pseudo == 0 || rec.dst_pseudo == 0) continue;
    const auto pair = entity_pair(entities.entity_of(rec.src_pseudo),
                                  entities.entity_of(rec.dst_pseudo));
    if (pair) scores[*pair] += 1.0;
  }
  return to_edges(scores);
}

std::vector<ScoredEdge> common_neighbor_attack(
    const EntityMap& entities, const std::vector<ObservationRecord>& log,
    const AttackOptions& options) {
  (void)options;
  // Entity adjacency from direct exchanges.
  std::map<std::uint32_t, std::set<std::uint32_t>> neighbors;
  for (const ObservationRecord& rec : log) {
    if (rec.src_pseudo == 0 || rec.dst_pseudo == 0) continue;
    const std::uint32_t a = entities.entity_of(rec.src_pseudo);
    const std::uint32_t b = entities.entity_of(rec.dst_pseudo);
    if (a == b) continue;
    neighbors[a].insert(b);
    neighbors[b].insert(a);
  }
  // Score every pair sharing at least one neighbour: enumerate the
  // 2-hop paths through each hub. Cosine normalisation keeps
  // high-degree hubs from dominating.
  std::map<std::pair<std::uint32_t, std::uint32_t>, double> common;
  for (const auto& [hub, peers] : neighbors) {
    (void)hub;
    for (auto it = peers.begin(); it != peers.end(); ++it)
      for (auto jt = std::next(it); jt != peers.end(); ++jt)
        common[{*it, *jt}] += 1.0;
  }
  std::map<std::pair<std::uint32_t, std::uint32_t>, double> scores;
  for (const auto& [pair, count] : common) {
    const double du = double(neighbors[pair.first].size());
    const double dv = double(neighbors[pair.second].size());
    scores[pair] = count / std::sqrt(du * dv);
  }
  return to_edges(scores);
}

std::vector<ScoredEdge> timing_correlation_attack(
    const EntityMap& entities, const std::vector<ObservationRecord>& log,
    const AttackOptions& options) {
  const double bucket = std::max(options.timing_bucket, 1e-9);
  std::map<std::pair<std::uint32_t, std::uint32_t>, std::set<std::int64_t>>
      buckets;
  for (const ObservationRecord& rec : log) {
    if (rec.src_pseudo == 0 || rec.dst_pseudo == 0) continue;
    const auto pair = entity_pair(entities.entity_of(rec.src_pseudo),
                                  entities.entity_of(rec.dst_pseudo));
    if (pair)
      buckets[*pair].insert(static_cast<std::int64_t>(rec.time / bucket));
  }
  std::map<std::pair<std::uint32_t, std::uint32_t>, double> scores;
  for (const auto& [pair, hits] : buckets)
    scores[pair] = double(hits.size());
  return to_edges(scores);
}

const std::vector<NamedAttack>& all_attacks() {
  static const std::vector<NamedAttack> kAttacks = {
      {"lifetime_linking", &lifetime_linking_attack},
      {"common_neighbor", &common_neighbor_attack},
      {"timing_correlation", &timing_correlation_attack},
  };
  return kAttacks;
}

}  // namespace ppo::inference
