#include "graph/graph_view.h"

#include <algorithm>

namespace zoomer {
namespace graph {

const char* NodeTypeName(NodeType t) {
  switch (t) {
    case NodeType::kUser: return "user";
    case NodeType::kQuery: return "query";
    case NodeType::kItem: return "item";
  }
  return "?";
}

const char* RelationKindName(RelationKind k) {
  switch (k) {
    case RelationKind::kClick: return "click";
    case RelationKind::kSession: return "session";
    case RelationKind::kSimilarity: return "similarity";
  }
  return "?";
}

NeighborBlock GraphView::NeighborsOfType(NodeId id, NodeType t,
                                         NeighborScratch* scratch) const {
  const NeighborBlock all = Neighbors(id, scratch);
  // The merged block may already live in the scratch vectors, so filter
  // into fresh locals before overwriting them.
  std::vector<NodeId> ids;
  std::vector<float> weights;
  std::vector<RelationKind> kinds;
  for (int64_t i = 0; i < all.size(); ++i) {
    if (node_type(all.ids[i]) != t) continue;
    ids.push_back(all.ids[i]);
    weights.push_back(all.weights[i]);
    kinds.push_back(all.kinds[i]);
  }
  scratch->ids = std::move(ids);
  scratch->weights = std::move(weights);
  scratch->kinds = std::move(kinds);
  return {scratch->ids, scratch->weights, scratch->kinds};
}

void GraphView::SampleManyNeighbors(std::span<const NodeId> nodes, int k,
                                    Rng* rng,
                                    std::vector<NodeId>* out) const {
  const size_t kk = static_cast<size_t>(std::max(k, 0));
  out->assign(nodes.size() * kk, NodeId{-1});
  if (k <= 0) return;
  size_t w = 0;
  for (const NodeId id : nodes) {
    for (size_t j = 0; j < kk; ++j) (*out)[w++] = SampleNeighbor(id, rng);
  }
}

std::vector<NodeId> GraphView::SampleDistinctNeighbors(NodeId id, int k,
                                                       Rng* rng) const {
  std::vector<NodeId> seen;
  if (k <= 0) return seen;
  const int max_attempts = k * 4;
  for (int a = 0; a < max_attempts && static_cast<int>(seen.size()) < k; ++a) {
    const NodeId nb = SampleNeighbor(id, rng);
    if (nb < 0) break;
    if (std::find(seen.begin(), seen.end(), nb) == seen.end()) {
      seen.push_back(nb);
    }
  }
  return seen;
}

}  // namespace graph
}  // namespace zoomer
