// Heterogeneous user-query-item retrieval graph (paper Sec. II).
//
// Nodes carry (a) a dense content vector used for relevance scoring (eq. 5)
// and similarity edges, and (b) categorical feature-slot ids embedded by the
// models (paper Table I: User = {ID, gender, membership}, Query = {category,
// terms}, Item = {ID, category, terms, brand, shop}).
//
// Edges carry a relation kind: interaction (click), session (adjacent clicks
// in a session), or similarity (minHash Jaccard, weighted). Storage is CSR
// with each node's neighbor block sorted by (neighbor type, kind, id) so
// typed sub-ranges — needed by edge-level attention, which only compares
// neighbors of the same type — are contiguous. Every node also carries an
// alias table over its (weighted) neighbor block for O(1) sampling.
//
// The CSR is node-partitioned: the id space is cut into fixed-span
// contiguous row ranges ("segments"), each an immutable CsrSegment with its
// own generation, located by `id >> span_shift`. HeteroGraphBuilder emits
// one segment spanning every row; the streaming subsystem repartitions that
// into finer segments (HeteroGraph(src, span, generation)) so that
//  - a fold that absorbs the delta overlay of a few hot segments rebuilds
//    only those CsrSegments; every untouched segment is *shared* (by
//    shared_ptr) between the old and new graph (Successor). Snapshots pin
//    the whole graph, so zero-copy spans handed out for untouched segments
//    stay valid across any number of incremental folds — the
//    persistent-data-structure property the GraphView/snapshot contracts
//    rely on;
//  - caches (maintenance::HotNodeOverlayCache) stamp entries with the
//    generation of the one segment that backs a node, so an incremental
//    fold invalidates only the folded ranges instead of flushing the whole
//    cache.
// Neighbor ids are global: an edge folded into segment A may reference a
// row of segment B (or an overlay-born node not yet folded at all); readers
// resolve the endpoint independently, exactly as the delta overlay does.
#ifndef ZOOMER_GRAPH_HETERO_GRAPH_H_
#define ZOOMER_GRAPH_HETERO_GRAPH_H_

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/random.h"
#include "common/status.h"
#include "graph/alias_table.h"
#include "graph/graph_view.h"

namespace zoomer {
namespace graph {

class CsrSegment;

// Checkpoint serializers (persist layer, implemented in graph_io.cc); they
// need raw-array access so a loaded segment is byte-identical to the saved
// one — re-sorting or re-deriving anything on load would break the
// bit-identical recovery contract.
Status SaveCsrSegment(const CsrSegment& seg, const std::string& path);
StatusOr<std::shared_ptr<const CsrSegment>> LoadCsrSegment(
    const std::string& path);

/// One immutable row range [first_node, first_node + num_rows) of the
/// graph's CSR. Self-contained (owns its arrays): rebuilding a segment
/// never touches its neighbors, and sharing one between two graph epochs
/// is a shared_ptr copy.
class CsrSegment {
 public:
  NodeId first_node() const { return first_node_; }
  int64_t num_rows() const { return static_cast<int64_t>(types_.size()); }
  /// Monotonic rebuild stamp: bumped every time a fold replaces this row
  /// range. Caches key their per-node entries on it.
  uint64_t generation() const { return generation_; }
  /// Epoch this segment's rows last folded through (0 = the offline
  /// partition, never folded). Overlay entries of these rows with epoch <=
  /// folded_epoch and a neighbor born at or below it are already absorbed
  /// into the rows — the per-segment replay floor crash recovery filters
  /// WAL half-edges against.
  uint64_t folded_epoch() const { return folded_epoch_; }
  int content_dim() const { return content_dim_; }
  int64_t num_half_edges() const { return static_cast<int64_t>(nbr_id_.size()); }
  int64_t num_rows_of_type(NodeType t) const {
    return type_counts_[static_cast<int>(t)];
  }

  // Row accessors take the segment-local row index in [0, num_rows()).
  NodeType row_type(int64_t r) const { return types_[r]; }
  const float* row_content(int64_t r) const {
    return contents_.data() + r * content_dim_;
  }
  std::span<const int64_t> row_slots(int64_t r) const {
    return {slot_ids_.data() + slot_offsets_[r],
            static_cast<size_t>(slot_offsets_[r + 1] - slot_offsets_[r])};
  }
  int64_t row_degree(int64_t r) const { return offsets_[r + 1] - offsets_[r]; }
  std::span<const NodeId> row_neighbor_ids(int64_t r) const {
    return {nbr_id_.data() + offsets_[r], static_cast<size_t>(row_degree(r))};
  }
  std::span<const float> row_neighbor_weights(int64_t r) const {
    return {nbr_weight_.data() + offsets_[r],
            static_cast<size_t>(row_degree(r))};
  }
  std::span<const RelationKind> row_neighbor_kinds(int64_t r) const {
    return {nbr_kind_.data() + offsets_[r],
            static_cast<size_t>(row_degree(r))};
  }
  /// [begin, end) for type `t`, relative to the *row's* neighbor block
  /// (i.e. indexes into row_neighbor_ids(r)).
  std::pair<int64_t, int64_t> row_typed_range(int64_t r, NodeType t) const {
    const int64_t base = r * (kNumNodeTypes + 1);
    return {type_offsets_[base + static_cast<int>(t)] - offsets_[r],
            type_offsets_[base + static_cast<int>(t) + 1] - offsets_[r]};
  }
  const AliasTable& row_alias(int64_t r) const { return alias_[r]; }

  size_t MemoryBytes() const;

 private:
  friend class CsrSegmentBuilder;
  friend class HeteroGraphBuilder;
  friend Status SaveCsrSegment(const CsrSegment& seg, const std::string& path);
  friend StatusOr<std::shared_ptr<const CsrSegment>> LoadCsrSegment(
      const std::string& path);

  NodeId first_node_ = 0;
  uint64_t generation_ = 0;
  uint64_t folded_epoch_ = 0;
  int content_dim_ = 0;
  std::vector<NodeType> types_;
  std::array<int64_t, kNumNodeTypes> type_counts_ = {0, 0, 0};
  std::vector<float> contents_;        // num_rows * content_dim
  std::vector<int64_t> slot_ids_;
  std::vector<int64_t> slot_offsets_;  // num_rows + 1
  std::vector<int64_t> offsets_;       // num_rows + 1, segment-local
  std::vector<NodeId> nbr_id_;         // global neighbor ids
  std::vector<float> nbr_weight_;
  std::vector<RelationKind> nbr_kind_;
  std::vector<int64_t> type_offsets_;  // per row: kNumNodeTypes+1 local offsets
  std::vector<AliasTable> alias_;
};

/// Row-at-a-time builder for one CsrSegment. Rows must be added in id
/// order; each row's neighbor block is sorted by (neighbor type, kind, id)
/// — the exact order HeteroGraphBuilder::Build produces — using the
/// caller's global type resolver (neighbors may live in other segments or
/// in the streaming overlay).
class CsrSegmentBuilder {
 public:
  using TypeResolver = std::function<NodeType(NodeId)>;

  /// `folded_epoch` stamps the segment with the epoch its rows fold
  /// through (0 for the offline partition) — see
  /// CsrSegment::folded_epoch().
  CsrSegmentBuilder(NodeId first_node, int64_t expected_rows, int content_dim,
                    uint64_t generation, TypeResolver type_of,
                    uint64_t folded_epoch = 0);

  /// Appends the next row. `neighbors` need not be sorted; duplicates by
  /// (neighbor, kind) must already be coalesced by the caller.
  void AddRow(NodeType type, std::span<const float> content,
              std::span<const int64_t> slots,
              std::vector<NeighborEntry> neighbors);

  /// Fast path for a row copied verbatim from an existing segment: the
  /// neighbor block is already sorted/typed, and the alias table is reused
  /// instead of rebuilt.
  void CopyRow(const CsrSegment& src, int64_t src_row);

  std::shared_ptr<const CsrSegment> Build();

 private:
  CsrSegment seg_;
  TypeResolver type_of_;
};

/// Immutable heterogeneous graph: contiguous CsrSegments of
/// `segment_span()` rows (a power of two; the last segment may be partial).
/// Construct via HeteroGraphBuilder (one segment) or repartition an
/// existing graph. The graph is its own GraphView: spans point straight
/// into the owning segments.
class HeteroGraph final : public GraphView {
 public:
  /// The empty graph (0 nodes).
  HeteroGraph() = default;

  /// Repartitions `src` into segments of `span` rows (a power of two), all
  /// stamped `generation`. Rows are copied verbatim, alias tables included,
  /// so every read and draw is bit-identical to `src`.
  HeteroGraph(const HeteroGraph& src, int64_t span, uint64_t generation = 1);

  /// Successor sharing this graph's segments except those in `replaced`
  /// (indexed by segment number; entries beyond the current segment count
  /// append new coverage, which must stay contiguous). This is how
  /// incremental compaction publishes a fold.
  std::shared_ptr<const HeteroGraph> Successor(
      const std::vector<std::pair<int64_t,
                                  std::shared_ptr<const CsrSegment>>>&
          replaced) const;

  /// Reassembles a graph from already-built segments (checkpoint
  /// recovery). Validates span (power of two), contiguity (segment i
  /// starts at i * span, all but the last span full rows), and a
  /// consistent content_dim across segments.
  static StatusOr<std::shared_ptr<const HeteroGraph>> FromSegments(
      int64_t span,
      std::vector<std::shared_ptr<const CsrSegment>> segments);

  int64_t segment_span() const { return span_; }
  int span_shift() const { return span_shift_; }
  int64_t num_segments() const {
    return static_cast<int64_t>(segments_.size());
  }
  int64_t segment_of(NodeId id) const { return id >> span_shift_; }
  const CsrSegment& segment(int64_t s) const { return *segments_[s]; }
  std::shared_ptr<const CsrSegment> segment_ptr(int64_t s) const {
    return segments_[s];
  }
  /// Generation of the segment backing `id` (0 for ids beyond coverage —
  /// i.e. overlay-born nodes not yet folded).
  uint64_t generation_of(NodeId id) const {
    const int64_t s = segment_of(id);
    return (id >= 0 && s < num_segments()) ? segments_[s]->generation() : 0;
  }
  uint64_t segment_generation(int64_t s) const {
    return segments_[s]->generation();
  }

  int64_t num_edges() const { return num_half_edges_; }  // directed half-edges
  int64_t num_nodes_of_type(NodeType t) const {
    return type_counts_[static_cast<int>(t)];
  }

  // ---- GraphView (global node ids) -----------------------------------------
  int64_t num_nodes() const override { return num_nodes_; }
  int content_dim() const override { return content_dim_; }
  NodeType node_type(NodeId id) const override {
    const auto [seg, r] = Locate(id);
    return seg->row_type(r);
  }
  /// Dense content vector (content_dim floats).
  const float* content(NodeId id) const override {
    const auto [seg, r] = Locate(id);
    return seg->row_content(r);
  }
  /// Categorical feature-slot ids of a node.
  std::span<const int64_t> slots(NodeId id) const override {
    const auto [seg, r] = Locate(id);
    return seg->row_slots(r);
  }
  int64_t degree(NodeId id) const override {
    const auto [seg, r] = Locate(id);
    return seg->row_degree(r);
  }
  NeighborBlock Neighbors(NodeId id, NeighborScratch*) const override {
    const auto [seg, r] = Locate(id);
    return {seg->row_neighbor_ids(r), seg->row_neighbor_weights(r),
            seg->row_neighbor_kinds(r)};
  }
  /// Neighbors of `id` whose endpoint is of type `t`: the contiguous typed
  /// sub-range of its block, zero-copy.
  NeighborBlock NeighborsOfType(NodeId id, NodeType t) const {
    const auto [seg, r] = Locate(id);
    const auto [b, e] = seg->row_typed_range(r, t);
    const auto off = static_cast<size_t>(b);
    const auto len = static_cast<size_t>(e - b);
    return {seg->row_neighbor_ids(r).subspan(off, len),
            seg->row_neighbor_weights(r).subspan(off, len),
            seg->row_neighbor_kinds(r).subspan(off, len)};
  }
  NeighborBlock NeighborsOfType(NodeId id, NodeType t,
                                NeighborScratch*) const override {
    return NeighborsOfType(id, t);
  }
  /// O(1) weighted neighbor draw via the per-node alias table. Returns -1
  /// for isolated nodes.
  NodeId SampleNeighbor(NodeId id, Rng* rng) const override {
    const auto [seg, r] = Locate(id);
    if (seg->row_degree(r) == 0) return -1;
    const size_t k = seg->row_alias(r).Sample(rng);
    return seg->row_neighbor_ids(r)[k];
  }
  /// Batched weighted draws: k draws per node, row-major into `out` (-1
  /// rows for isolated nodes). Bit-identical to k SampleNeighbor calls per
  /// node in order; locates each node once, prefetches the next node's row
  /// and alias table one node ahead, and draws through
  /// AliasTable::SampleBatch.
  void SampleManyNeighbors(std::span<const NodeId> nodes, int k, Rng* rng,
                           std::vector<NodeId>* out) const override;

  /// Full neighbor block of a node, sorted by (neighbor type, kind, id).
  std::span<const NodeId> neighbor_ids(NodeId id) const {
    const auto [seg, r] = Locate(id);
    return seg->row_neighbor_ids(r);
  }
  std::span<const float> neighbor_weights(NodeId id) const {
    const auto [seg, r] = Locate(id);
    return seg->row_neighbor_weights(r);
  }
  std::span<const RelationKind> neighbor_kinds(NodeId id) const {
    const auto [seg, r] = Locate(id);
    return seg->row_neighbor_kinds(r);
  }

  /// Approximate resident bytes of the segments and alias tables.
  size_t MemoryBytes() const;
  std::string DebugString() const;

 private:
  friend class HeteroGraphBuilder;

  /// Segment s starts at row s * span (Successor and FromSegments enforce
  /// it), so the segment-local row is the id's low bits — no load of the
  /// segment's first_node. Segment 0, all of a built graph, is read through
  /// first_: one dependent load fewer than segments_[0]. The bounds check
  /// guards every read; its failure path is out of line so that every
  /// accessor inlines this.
  std::pair<const CsrSegment*, int64_t> Locate(NodeId id) const {
    if (static_cast<uint64_t>(id) >= static_cast<uint64_t>(num_nodes_))
        [[unlikely]] {
      OutOfRange(id);
    }
    const int64_t s = id >> span_shift_;
    return {s == 0 ? first_ : segments_[s].get(), id & (span_ - 1)};
  }
  [[noreturn]] void OutOfRange(NodeId id) const;

  void SetSpan(int64_t span);
  void RecomputeTotals();

  int64_t span_ = 1;
  int span_shift_ = 0;
  int content_dim_ = 0;
  int64_t num_nodes_ = 0;
  int64_t num_half_edges_ = 0;
  std::array<int64_t, kNumNodeTypes> type_counts_ = {0, 0, 0};
  std::vector<std::shared_ptr<const CsrSegment>> segments_;
  const CsrSegment* first_ = nullptr;  // segments_[0].get()
};

/// Mutable builder. Nodes first, then edges, then Build().
class HeteroGraphBuilder {
 public:
  explicit HeteroGraphBuilder(int content_dim) : content_dim_(content_dim) {}

  /// Adds a node and returns its id. content must have content_dim entries.
  NodeId AddNode(NodeType type, std::vector<float> content,
                 std::vector<int64_t> slots);

  /// Adds an undirected edge (stored as two half-edges). Self-loops,
  /// invalid ids, and negative or non-finite weights are rejected.
  Status AddEdge(NodeId a, NodeId b, RelationKind kind, float weight = 1.0f);

  int64_t num_nodes() const { return static_cast<int64_t>(types_.size()); }
  int64_t num_edges_added() const { return static_cast<int64_t>(edges_.size()); }

  /// Finalizes into an immutable one-segment HeteroGraph (span: the next
  /// power of two >= num_nodes(), generation 1). The builder is left empty.
  HeteroGraph Build();

 private:
  struct Edge {
    NodeId a, b;
    RelationKind kind;
    float weight;
  };

  int content_dim_;
  std::vector<NodeType> types_;
  std::vector<float> contents_;
  std::vector<int64_t> slot_ids_;
  std::vector<int64_t> slot_offsets_{0};
  std::vector<Edge> edges_;
};

}  // namespace graph
}  // namespace zoomer

#endif  // ZOOMER_GRAPH_HETERO_GRAPH_H_
