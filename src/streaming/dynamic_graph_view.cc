#include "streaming/dynamic_graph_view.h"

namespace zoomer {
namespace streaming {

graph::NeighborBlock DynamicGraphView::Neighbors(
    graph::NodeId id, graph::NeighborScratch* scratch) const {
  // Untouched base nodes (the vast majority between compactions) stay on
  // the zero-copy CSR path, matching the static view's cost exactly. An
  // overlay-born id must resolve through the snapshot even when it has no
  // deltas yet (the base arrays do not cover it).
  if (snapshot_.InBase(id) && !snapshot_.MaybeHasDelta(id)) {
    return snapshot_.base().Neighbors(id, scratch);
  }
  snapshot_.Neighbors(id, &scratch->ids, &scratch->weights, &scratch->kinds);
  return {scratch->ids, scratch->weights, scratch->kinds};
}

graph::NeighborBlock DynamicGraphView::NeighborsOfType(
    graph::NodeId id, graph::NodeType t,
    graph::NeighborScratch* scratch) const {
  if (snapshot_.InBase(id) && !snapshot_.MaybeHasDelta(id)) {
    return snapshot_.base().NeighborsOfType(id, t);
  }
  snapshot_.NeighborsOfType(id, t, &scratch->ids, &scratch->weights,
                            &scratch->kinds);
  return {scratch->ids, scratch->weights, scratch->kinds};
}

}  // namespace streaming
}  // namespace zoomer
