// Node and edge vocabulary of the heterogeneous graph, and the read
// interface every sampler consumes (ROADMAP: delta-aware ROI sampling). The
// ROI sampler, relevance scorer, and trainer all read through GraphView, so
// the same sampling code runs over
//   - the immutable HeteroGraph (graph/hetero_graph.h), which implements the
//     interface itself with zero-copy spans into its CSR segments, and
//   - the streaming delta overlay (streaming::DynamicGraphView, epoch-pinned
//     snapshots that merge base CSR ranges with per-node delta suffixes).
// A training run attached to the ingest pipeline therefore scores neighbors
// over base+delta without waiting for Compact().
//
// Neighbor iteration hands out a NeighborBlock of parallel spans. The CSR
// points the spans straight into its arrays; dynamic views resolve the
// merged (coalesced) block into caller-provided scratch, so the hot static
// path stays allocation-free and the delta path pays one merge. The spans
// are valid until the next Neighbors() call on the same scratch or any
// mutation of the underlying view.
#ifndef ZOOMER_GRAPH_GRAPH_VIEW_H_
#define ZOOMER_GRAPH_GRAPH_VIEW_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/random.h"

namespace zoomer {
namespace graph {

using NodeId = int64_t;

enum class NodeType : uint8_t { kUser = 0, kQuery = 1, kItem = 2 };
inline constexpr int kNumNodeTypes = 3;

enum class RelationKind : uint8_t {
  kClick = 0,       // user-query, query-item interaction edges
  kSession = 1,     // adjacent clicked items within one session
  kSimilarity = 2,  // minHash Jaccard content similarity
};
inline constexpr int kNumRelationKinds = 3;

const char* NodeTypeName(NodeType t);
const char* RelationKindName(RelationKind k);

/// One outgoing edge as seen from a node's neighbor block.
struct NeighborEntry {
  NodeId neighbor;
  float weight;
  RelationKind kind;
};

/// Resolved neighbor block of one node: parallel (id, weight, kind) ranges.
struct NeighborBlock {
  std::span<const NodeId> ids;
  std::span<const float> weights;
  std::span<const RelationKind> kinds;

  int64_t size() const { return static_cast<int64_t>(ids.size()); }
  bool empty() const { return ids.empty(); }
};

/// Caller-owned buffers a view may resolve a merged neighbor block into.
/// Reuse one scratch across calls to amortize allocation.
struct NeighborScratch {
  std::vector<NodeId> ids;
  std::vector<float> weights;
  std::vector<RelationKind> kinds;
};

/// Read interface shared by the static CSR and the streaming delta overlay.
class GraphView {
 public:
  virtual ~GraphView() = default;

  virtual int64_t num_nodes() const = 0;
  virtual int content_dim() const = 0;
  virtual NodeType node_type(NodeId id) const = 0;

  /// Dense content vector (content_dim floats) used by relevance scoring.
  virtual const float* content(NodeId id) const = 0;

  /// Categorical feature-slot ids embedded by the models.
  virtual std::span<const int64_t> slots(NodeId id) const = 0;

  /// Half-edge count visible through this view. Dynamic views count delta
  /// entries with parallel-edge semantics, so this is an upper bound on
  /// Neighbors().size() (which coalesces duplicates by (neighbor, kind)).
  virtual int64_t degree(NodeId id) const = 0;

  /// Merged neighbor block of `id`; may resolve into `scratch`.
  virtual NeighborBlock Neighbors(NodeId id, NeighborScratch* scratch) const = 0;

  /// Neighbors of `id` whose endpoint is of type `t` — the grouping
  /// edge-level attention consumes (it only compares neighbors of one
  /// type). The CSR hands out its contiguous typed sub-range zero-copy; the dynamic view merges the typed base range with only the
  /// matching delta entries (no full-neighborhood merge). The default
  /// filters Neighbors() into `scratch`, correct for any view.
  virtual NeighborBlock NeighborsOfType(NodeId id, NodeType t,
                                        NeighborScratch* scratch) const;

  /// One weighted neighbor draw (alias table on the static path, two-level
  /// base+delta resampling on the dynamic path). -1 for isolated nodes.
  virtual NodeId SampleNeighbor(NodeId id, Rng* rng) const = 0;

  /// Batched weighted draws: k draws (with replacement) per node, written
  /// row-major into `out` (resized to nodes.size()*k; isolated nodes leave
  /// -1 rows). Every implementation consumes the Rng draw-for-draw exactly
  /// like k SampleNeighbor calls per node in order, so the default loop and
  /// the batched overrides are bit-identical under a fixed seed. The CSR
  /// prefetches rows and alias tables one node ahead and draws through
  /// AliasTable::SampleBatch; the dynamic snapshot pins the epoch once per
  /// batch and draws clean rows through the CSR's loop.
  virtual void SampleManyNeighbors(std::span<const NodeId> nodes, int k,
                                   Rng* rng, std::vector<NodeId>* out) const;

  /// Up to k distinct weighted draws with bounded (4k) retries. The default
  /// loops SampleNeighbor; dynamic views override to batch the draws under
  /// one lock acquisition.
  virtual std::vector<NodeId> SampleDistinctNeighbors(NodeId id, int k,
                                                      Rng* rng) const;

  /// Epoch of the freshest edit visible through this view (0 = static).
  virtual uint64_t epoch() const { return 0; }
};

}  // namespace graph
}  // namespace zoomer

#endif  // ZOOMER_GRAPH_GRAPH_VIEW_H_
