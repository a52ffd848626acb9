// Randomized backing-store equivalence: every graph algorithm ported
// to GraphView must answer identically on the adjacency-list Graph,
// the immutable CsrGraph, and the incremental CsrBuilder built from
// the same edge set — and the streaming union-find connectivity must
// match the batch component decomposition on live overlay edge lists
// across churn.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "churn/churn_model.hpp"
#include "common/rng.hpp"
#include "graph/articulation.hpp"
#include "graph/clustering.hpp"
#include "graph/components.hpp"
#include "graph/csr.hpp"
#include "graph/degree.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "graph/paths.hpp"
#include "graph/sampling.hpp"
#include "graph/spectral.hpp"
#include "metrics/streaming_connectivity.hpp"
#include "overlay/sharded_service.hpp"
#include "sim/sharded_simulator.hpp"

namespace ppo::graph {
namespace {

/// Random simple undirected edge list (possibly disconnected — the
/// interesting case for components/masks).
std::vector<std::pair<NodeId, NodeId>> random_edges(std::size_t n,
                                                    std::size_t target,
                                                    Rng& rng) {
  CsrBuilder dedup(n);
  std::vector<std::pair<NodeId, NodeId>> edges;
  std::size_t attempts = 0;
  while (edges.size() < target && attempts < 20 * target) {
    ++attempts;
    const NodeId u = static_cast<NodeId>(rng.uniform_u64(n));
    const NodeId v = static_cast<NodeId>(rng.uniform_u64(n));
    if (dedup.add_edge(u, v)) edges.emplace_back(u, v);
  }
  return edges;
}

/// The three backings under test, built from one edge list.
struct Backings {
  Graph adjacency;  // finalized adjacency lists (sorted, not CSR)
  CsrGraph csr;
  CsrBuilder builder;

  explicit Backings(std::size_t n,
                    const std::vector<std::pair<NodeId, NodeId>>& edges)
      : adjacency(n), builder(n) {
    for (const auto& [u, v] : edges) {
      EXPECT_TRUE(adjacency.add_edge(u, v)) << u << "-" << v;
      EXPECT_TRUE(builder.add_edge(u, v));
    }
    adjacency.finalize();
    EXPECT_EQ(adjacency.csr(), nullptr);  // genuinely the adjacency path
    csr.assign_from_edges(n, edges);
  }
};

NodeMask random_mask(std::size_t n, double keep, Rng& rng) {
  NodeMask mask(n, false);
  for (NodeId v = 0; v < n; ++v) mask.set(v, rng.uniform_double() < keep);
  return mask;
}

std::string edge_list_text(GraphView g) {
  std::ostringstream os;
  write_edge_list(os, g);
  return os.str();
}

std::vector<std::string> sorted_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream is(text);
  for (std::string line; std::getline(is, line);) lines.push_back(line);
  std::sort(lines.begin(), lines.end());
  return lines;
}

TEST(CsrEquivalence, AllPortedAlgorithmsAgreeAcrossBackings) {
  for (const std::uint64_t seed : {1u, 7u, 42u}) {
    Rng rng(seed);
    const std::size_t n = 60 + rng.uniform_u64(40);
    const auto edges = random_edges(n, 3 * n / 2, rng);
    Backings b(n, edges);
    const GraphView views[] = {b.adjacency, b.csr, b.builder};
    const GraphView& ref = views[0];
    const NodeMask mask = random_mask(n, 0.7, rng);

    const auto ref_comps = connected_components(ref, mask);
    const auto ref_points = articulation_points(ref);
    const auto ref_hist = degree_histogram(ref, mask).bins();
    const auto ref_edge_lines = sorted_lines(edge_list_text(ref));

    for (const GraphView& view : views) {
      EXPECT_EQ(view.num_nodes(), n);
      EXPECT_EQ(view.num_edges(), edges.size());
      EXPECT_DOUBLE_EQ(view.average_degree(), ref.average_degree());

      // components.hpp
      const auto comps = connected_components(view, mask);
      EXPECT_EQ(comps.component_of, ref_comps.component_of);
      EXPECT_EQ(comps.largest_size(), ref_comps.largest_size());
      EXPECT_DOUBLE_EQ(fraction_disconnected(view, mask),
                       fraction_disconnected(ref, mask));
      EXPECT_EQ(is_connected(view), is_connected(ref));

      // degree.hpp
      EXPECT_EQ(degree_histogram(view, mask).bins(), ref_hist);
      for (NodeId v = 0; v < n; v += 7)
        EXPECT_EQ(masked_degree(view, v, mask), masked_degree(ref, v, mask));

      // paths.hpp — the sampling RNG is re-seeded per backing, so
      // identical draws must give identical doubles.
      EXPECT_EQ(bfs_distances(view, 0, mask), bfs_distances(ref, 0, mask));
      Rng apl_a(seed ^ 0xA91), apl_b(seed ^ 0xA91);
      EXPECT_DOUBLE_EQ(average_path_length(view, apl_a, mask, 16),
                       average_path_length(ref, apl_b, mask, 16));
      Rng dia_a(seed ^ 0xD1A), dia_b(seed ^ 0xD1A);
      EXPECT_EQ(diameter_estimate(view, dia_a, mask, 8),
                diameter_estimate(ref, dia_b, mask, 8));

      // articulation.hpp
      EXPECT_EQ(articulation_points(view), ref_points);
      EXPECT_DOUBLE_EQ(cut_vertex_fraction(view), cut_vertex_fraction(ref));

      // clustering.hpp (needs a fast edge probe on every backing)
      ASSERT_TRUE(view.has_fast_edge_probe());
      EXPECT_DOUBLE_EQ(average_clustering(view), average_clustering(ref));
      EXPECT_DOUBLE_EQ(transitivity(view), transitivity(ref));
      for (NodeId v = 0; v < n; v += 11)
        EXPECT_DOUBLE_EQ(local_clustering(view, v), local_clustering(ref, v));

      // spectral.hpp — power iteration sums neighbor contributions
      // in slice order; the builder's insertion-ordered slices land
      // within fp tolerance of the sorted backings, not bit-equal.
      Rng spec_a(seed ^ 0x5EC), spec_b(seed ^ 0x5EC);
      EXPECT_NEAR(spectral_gap(view, spec_a, 60),
                  spectral_gap(ref, spec_b, 60), 1e-9);

      // io.hpp — line order follows slice order; the edge SET must
      // match exactly across all backings.
      EXPECT_EQ(sorted_lines(edge_list_text(view)), ref_edge_lines);

      // has_edge on the probed backings
      for (const auto& [u, v] : edges) {
        EXPECT_TRUE(view.has_edge(u, v));
        EXPECT_TRUE(view.has_edge(v, u));
      }
    }

    // sampling.hpp — invitation sampling draws neighbors BY INDEX, so
    // identical seeds give identical samples only on backings with the
    // same neighbor order: the finalized adjacency Graph and CsrGraph
    // both sort; the builder keeps insertion order by contract and is
    // compared through its sorted build().
    InvitationSampleOptions opts;
    opts.target_size = n / 3;
    Rng samp_a(seed ^ 0x5A3), samp_b(seed ^ 0x5A3), samp_c(seed ^ 0x5A3);
    const Graph sample_adj = invitation_sample(b.adjacency, opts, samp_a);
    const Graph sample_csr = invitation_sample(b.csr, opts, samp_b);
    const CsrGraph built = b.builder.build();
    const Graph sample_built = invitation_sample(built, opts, samp_c);
    EXPECT_EQ(sample_adj.edges(), sample_csr.edges());
    EXPECT_EQ(sample_adj.edges(), sample_built.edges());
  }
}

/// Unsorted CSR slices (the measurement scratch path) must agree with
/// the sorted build on everything that does not probe membership.
TEST(CsrEquivalence, UnsortedAssignMatchesSortedForIterationMetrics) {
  Rng rng(99);
  const std::size_t n = 80;
  const auto edges = random_edges(n, 2 * n, rng);
  CsrGraph sorted, unsorted;
  sorted.assign_from_edges(n, edges, /*sort_neighbors=*/true);
  unsorted.assign_from_edges(n, edges, /*sort_neighbors=*/false);
  EXPECT_TRUE(sorted.sorted_neighbors());
  EXPECT_FALSE(unsorted.sorted_neighbors());
  const NodeMask mask = random_mask(n, 0.6, rng);
  EXPECT_EQ(connected_components(sorted, mask).component_of,
            connected_components(unsorted, mask).component_of);
  EXPECT_EQ(degree_histogram(sorted, mask).bins(),
            degree_histogram(unsorted, mask).bins());
  Rng apl_a(3), apl_b(3);
  EXPECT_DOUBLE_EQ(average_path_length(sorted, apl_a, mask, 12),
                   average_path_length(unsorted, apl_b, mask, 12));
}

/// Streaming union-find == batch component decomposition, sampled
/// across a churning overlay run (the Figure 8 measurement path).
TEST(CsrEquivalence, StreamingConnectivityMatchesBatchAcrossChurn) {
  Rng grng(5 ^ 0x50C1A1);
  const Graph trust = barabasi_albert(64, 2, grng);
  const churn::ExponentialChurn model =
      churn::ExponentialChurn::from_availability(0.5, 30.0);
  overlay::OverlayServiceOptions options;
  options.params.cache_size = 30;
  options.params.shuffle_length = 6;
  options.params.target_links = 8;
  options.params.pseudonym_lifetime = 60.0;
  sim::ShardedSimulator sim(
      overlay::simulator_options(options, trust.num_nodes()));
  overlay::ShardedOverlayService service(sim, trust, model, options, 5);
  service.start();

  metrics::StreamingConnectivity streaming;
  CsrGraph scratch;
  for (double t = 5.0; t <= 60.0; t += 5.0) {
    sim.run_until(t);
    const auto edges = service.overlay_edges();
    const double from_stream = streaming.fraction_disconnected(
        trust.num_nodes(), edges, service.online_mask());
    scratch.assign_from_edges(trust.num_nodes(), edges,
                              /*sort_neighbors=*/false);
    const double from_batch =
        fraction_disconnected(scratch, service.online_mask());
    EXPECT_DOUBLE_EQ(from_stream, from_batch) << "t=" << t;
  }
}

/// The memoized edge view must equal the from-scratch snapshot at
/// every sample, including after expiries and slot churn invalidate
/// cached slices.
TEST(CsrEquivalence, OverlayEdgeViewMatchesSnapshotAcrossChurn) {
  Rng grng(11 ^ 0x50C1A1);
  const Graph trust = barabasi_albert(48, 2, grng);
  const churn::ExponentialChurn model =
      churn::ExponentialChurn::from_availability(0.6, 20.0);
  overlay::OverlayServiceOptions options;
  options.params.cache_size = 24;
  options.params.shuffle_length = 5;
  options.params.target_links = 8;
  options.params.pseudonym_lifetime = 15.0;  // short TTL: expiry paths
  sim::ShardedSimulator sim(
      overlay::simulator_options(options, trust.num_nodes()));
  overlay::ShardedOverlayService service(sim, trust, model, options, 11);
  service.start();

  for (double t = 3.0; t <= 45.0; t += 3.0) {
    sim.run_until(t);
    const auto edges = service.overlay_edges();
    const std::vector<std::pair<NodeId, NodeId>> from_view(edges.begin(),
                                                           edges.end());
    // overlay_snapshot() resolves every link against the registry
    // and rebuilds from scratch — the ground truth the view memoizes.
    const auto from_snapshot = service.overlay_snapshot().edges();
    EXPECT_EQ(from_view, from_snapshot) << "t=" << t;
  }
  EXPECT_GT(service.edge_view().slices_reused(), 0u);
}

/// The same contract on the sharded service at K = 4, whose edge view
/// resolves through the barrier-published pseudonym tables.
TEST(CsrEquivalence, ShardedOverlayEdgeViewMatchesSnapshotAcrossChurn) {
  Rng grng(13 ^ 0x50C1A1);
  const Graph trust = barabasi_albert(96, 2, grng);
  const churn::ExponentialChurn model =
      churn::ExponentialChurn::from_availability(0.6, 20.0);
  overlay::OverlayServiceOptions options;
  options.params.cache_size = 24;
  options.params.shuffle_length = 5;
  options.params.target_links = 8;
  options.params.pseudonym_lifetime = 15.0;  // short TTL: expiry paths
  sim::ShardedSimulator sim(
      overlay::simulator_options(options, trust.num_nodes(), 4));
  overlay::ShardedOverlayService service(sim, trust, model, options, 13);
  service.start();

  for (double t = 3.0; t <= 45.0; t += 3.0) {
    sim.run_until(t);
    const auto edges = service.overlay_edges();
    const std::vector<std::pair<NodeId, NodeId>> from_view(edges.begin(),
                                                           edges.end());
    EXPECT_EQ(from_view, service.overlay_snapshot().edges()) << "t=" << t;
  }
  EXPECT_GT(service.edge_view().slices_reused(), 0u);
  EXPECT_GT(service.edge_view().slices_recomputed(), 0u);
}

}  // namespace
}  // namespace ppo::graph
