// Undirected simple graph used for trust graphs, overlay snapshots and
// reference random graphs. Nodes are dense ids [0, n). Parallel edges
// and self loops are rejected at insertion.
//
// Two backing stores share this API:
//
//  * adjacency lists (one vector per node) — the mutable builder
//    representation;
//  * an immutable shared `CsrGraph` (see csr.hpp) — what the
//    generators emit at crawl scale. Copying a CSR-backed Graph is
//    O(1) (the CSR is shared); the first mutating call thaws it into
//    adjacency lists for that instance only.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

namespace ppo::graph {

using NodeId = std::uint32_t;

class CsrGraph;

/// Marks a subset of nodes (e.g. the currently online ones). Empty
/// mask means "all nodes included".
class NodeMask {
 public:
  NodeMask() = default;
  explicit NodeMask(std::size_t n, bool initially_included = true)
      : included_(n, initially_included ? 1 : 0) {}

  bool empty() const { return included_.empty(); }
  std::size_t size() const { return included_.size(); }

  bool contains(NodeId v) const {
    return included_.empty() || included_[v] != 0;
  }
  void set(NodeId v, bool included) { included_[v] = included ? 1 : 0; }

  /// Number of included nodes, assuming the mask covers `n` nodes.
  std::size_t count(std::size_t n) const;

 private:
  std::vector<char> included_;
};

/// Builder-phase contract: while a graph is UNfinalized, adjacency
/// lists keep insertion order and `add_edge` membership costs O(deg)
/// (generators that pick random neighbors by index rely on the
/// insertion order). `finalize()` sorts the lists; from then on
/// `has_edge` is O(log deg) and `add_edge` inserts in sorted position,
/// so incremental edits (membership changes on a running overlay) keep
/// the graph finalized instead of degrading every later probe back to
/// a linear scan.
class Graph {
 public:
  Graph();
  explicit Graph(std::size_t n);
  Graph(const Graph&);
  Graph(Graph&&) noexcept;
  Graph& operator=(const Graph&);
  Graph& operator=(Graph&&) noexcept;
  ~Graph();

  /// Wraps an immutable CSR (shared, not copied) behind this API.
  /// The result reports `finalized()`.
  static Graph from_csr(CsrGraph csr);
  static Graph from_csr(std::shared_ptr<const CsrGraph> csr);

  /// The CSR backing store, or nullptr when adjacency-backed.
  const CsrGraph* csr() const { return csr_.get(); }

  std::size_t num_nodes() const;
  std::size_t num_edges() const { return num_edges_; }

  /// Appends `count` fresh isolated nodes; returns the first new id.
  /// Thaws a CSR backing.
  NodeId add_nodes(std::size_t count);

  /// Adds undirected edge {u, v}. Returns false (and does nothing) if
  /// the edge already exists or u == v. Membership is O(deg) while
  /// unfinalized, O(log deg) once finalized (sorted insert — the
  /// graph stays finalized). Thaws a CSR backing.
  bool add_edge(NodeId u, NodeId v);

  /// Removes undirected edge {u, v}. Returns false if absent. A
  /// finalized graph stays finalized (erase preserves order). Thaws a
  /// CSR backing.
  bool remove_edge(NodeId u, NodeId v);

  /// True if {u, v} is an edge. O(log deg) when finalized or
  /// CSR-backed; linear scan otherwise.
  bool has_edge(NodeId u, NodeId v) const;

  std::size_t degree(NodeId v) const;
  std::span<const NodeId> neighbors(NodeId v) const;

  double average_degree() const;

  /// Sorts adjacency lists; enables binary-search `has_edge`. No-op
  /// on a CSR backing (already sorted).
  void finalize();
  bool finalized() const { return csr_ != nullptr || finalized_; }

  /// All edges as (u, v) with u < v.
  std::vector<std::pair<NodeId, NodeId>> edges() const;

  /// Induced subgraph over `nodes` (order defines new ids). The i-th
  /// entry of `nodes` becomes node i of the result, which is
  /// CSR-backed and finalized.
  Graph induced_subgraph(const std::vector<NodeId>& nodes) const;

 private:
  /// Materializes adjacency lists from the CSR backing so a mutating
  /// call can proceed; drops the CSR reference.
  void thaw();

  std::vector<std::vector<NodeId>> adj_;
  std::shared_ptr<const CsrGraph> csr_;
  std::size_t num_edges_ = 0;
  bool finalized_ = false;
};

}  // namespace ppo::graph
