// GraphView adapter over the streaming delta overlay: the bridge that lets
// the ROI sampler (and through it the trainer) score freshly ingested edges
// without waiting for Compact(). The view holds one epoch-pinned Snapshot;
// all reads within a ROI expansion therefore observe a consistent graph.
// Refresh() re-pins to the latest watermark epoch — the trainer calls it at
// minibatch boundaries when the ingest pipeline signals new batches (see
// streaming/training_freshness.h).
//
// Thread-safety: concurrent reads are safe (Snapshot reads are), but
// Refresh() must not race reads on the same view — it is meant for a
// single-consumer loop such as the trainer. Give each reader thread its own
// view; they are cheap (one shared_ptr + one epoch).
// TTL/decay windows: a view constructed with an explicit DecaySpec pins its
// snapshots to that window instead of the graph default, so two views over
// one DynamicHeteroGraph can serve a 1-hour and a 1-day behavior horizon
// from the same stream. Snapshot reads on delta-heavy nodes transparently
// consult the attached maintenance::HotNodeOverlayCache (pre-merged lists +
// alias tables), so the view needs no cache plumbing of its own.
#ifndef ZOOMER_STREAMING_DYNAMIC_GRAPH_VIEW_H_
#define ZOOMER_STREAMING_DYNAMIC_GRAPH_VIEW_H_

#include <optional>
#include <span>
#include <vector>

#include "graph/graph_view.h"
#include "streaming/dynamic_hetero_graph.h"
#include "streaming/edge_decay.h"

namespace zoomer {
namespace streaming {

class DynamicGraphView final : public graph::GraphView {
 public:
  /// `graph` must outlive the view. Pins to the current watermark epoch
  /// under the graph-default decay window.
  explicit DynamicGraphView(const DynamicHeteroGraph* graph)
      : graph_(graph), snapshot_(graph->MakeSnapshot()) {}

  /// Same, but every snapshot this view pins applies `window` instead of
  /// the graph-default spec (per-view freshness horizon). The graph must
  /// already have a LogicalClock installed (SetClock or ConfigureDecay —
  /// a TtlDecayPolicy does the latter); an active window without a clock
  /// is a hard error, not a silent no-op.
  DynamicGraphView(const DynamicHeteroGraph* graph, const DecaySpec& window)
      : graph_(graph), window_(window), snapshot_(graph->MakeSnapshot(window)) {}

  /// Re-pins to the latest watermark epoch (and re-reads the logical clock
  /// for decay); returns the epoch now visible.
  uint64_t Refresh() {
    snapshot_ = window_.has_value() ? graph_->MakeSnapshot(*window_)
                                    : graph_->MakeSnapshot();
    return snapshot_.epoch();
  }

  const DynamicHeteroGraph::Snapshot& snapshot() const { return snapshot_; }

  /// Epoch-pinned id-space: base nodes plus overlay nodes born at or below
  /// the pinned epoch — a node ingested mid-epoch appears here only after
  /// the next Refresh() that covers its birth epoch. The pinned base's
  /// untouched segments are shared across incremental folds, so the
  /// zero-copy spans below stay valid for this view's lifetime.
  int64_t num_nodes() const override { return snapshot_.num_nodes(); }
  int content_dim() const override { return snapshot_.base().content_dim(); }
  // Node features are immutable once ingested; the snapshot resolves base
  // ids zero-copy and overlay ids through the append-only node records.
  graph::NodeType node_type(graph::NodeId id) const override {
    return snapshot_.node_type(id);
  }
  const float* content(graph::NodeId id) const override {
    return snapshot_.content(id);
  }
  std::span<const int64_t> slots(graph::NodeId id) const override {
    return snapshot_.slots(id);
  }
  int64_t degree(graph::NodeId id) const override {
    return snapshot_.Degree(id);
  }
  graph::NeighborBlock Neighbors(graph::NodeId id,
                                 graph::NeighborScratch* scratch) const override;
  graph::NeighborBlock NeighborsOfType(
      graph::NodeId id, graph::NodeType t,
      graph::NeighborScratch* scratch) const override;
  graph::NodeId SampleNeighbor(graph::NodeId id, Rng* rng) const override {
    return snapshot_.SampleNeighbor(id, rng);
  }
  void SampleManyNeighbors(std::span<const graph::NodeId> nodes, int k,
                           Rng* rng,
                           std::vector<graph::NodeId>* out) const override {
    snapshot_.SampleManyNeighbors(nodes, k, rng, out);
  }
  std::vector<graph::NodeId> SampleDistinctNeighbors(graph::NodeId id, int k,
                                                     Rng* rng) const override {
    return snapshot_.SampleDistinctNeighbors(id, k, rng);
  }
  uint64_t epoch() const override { return snapshot_.epoch(); }

 private:
  const DynamicHeteroGraph* graph_;
  std::optional<DecaySpec> window_;  // per-view override of the graph spec
  DynamicHeteroGraph::Snapshot snapshot_;
};

}  // namespace streaming
}  // namespace zoomer

#endif  // ZOOMER_STREAMING_DYNAMIC_GRAPH_VIEW_H_
