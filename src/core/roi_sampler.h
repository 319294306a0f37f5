// Focal-biased graph sampling for ROI construction (paper Sec. V-C).
//
// For each recommendation request, Zoomer assigns the {user, query} pair as
// focal points, sums their content features into a focal vector Fc, scores
// every neighbor of the ego node with the relevance function (eq. 5), and
// keeps the top-k per hop. The result is the Region-of-Interest subgraph fed
// into the multi-level attention networks. Uniform sampling (GraphSage
// style) is available for baselines/ablations via SamplerKind::kUniform.
//
// Sampling runs over the graph::GraphView interface, so the same code serves
// the HeteroGraph (which is its own view) and the streaming delta overlay: a
// trainer attached to the ingest pipeline scores freshly arrived edges
// without waiting for a compaction.
#ifndef ZOOMER_CORE_ROI_SAMPLER_H_
#define ZOOMER_CORE_ROI_SAMPLER_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/random.h"
#include "core/relevance.h"
#include "graph/graph_view.h"

namespace zoomer {
namespace core {

enum class SamplerKind {
  kFocalTopK,    // paper: top-k by focal relevance
  kUniform,      // uniform without replacement
  kWeightedEdge, // alias-table draw by edge weight (interaction frequency)
  kRandomWalk,   // PinSage-style: top-k by visit count of short random walks
};

/// One node of the sampled ROI tree.
struct RoiNode {
  graph::NodeId id = -1;
  int depth = 0;        // 0 = ego
  int parent = -1;      // index into RoiSubgraph::nodes (-1 for ego)
  float edge_weight = 1.0f;  // weight of the edge to the parent
  graph::RelationKind kind = graph::RelationKind::kClick;
  double relevance = 0.0;    // focal-relevance score used for selection
};

/// Tree-shaped sampled neighborhood rooted at the ego node. Children of node
/// i are the contiguous range [children_begin[i], children_end[i]).
struct RoiSubgraph {
  std::vector<RoiNode> nodes;           // breadth-first order, nodes[0] = ego
  std::vector<int> children_begin;
  std::vector<int> children_end;

  int size() const { return static_cast<int>(nodes.size()); }
  graph::NodeId ego() const { return nodes.empty() ? -1 : nodes[0].id; }
};

struct RoiSamplerOptions {
  int k = 10;          // neighbors kept per node per hop
  int num_hops = 2;    // paper: 2-hop for Taobao graphs, 1-hop for MovieLens
  int max_nodes = 4096;  // hard budget guard
  SamplerKind kind = SamplerKind::kFocalTopK;
  RelevanceKind relevance = RelevanceKind::kTanimoto;
  /// Exclude the immediate parent from a node's sampled children to avoid
  /// trivially bouncing back along the same edge.
  bool exclude_parent = true;
  /// Per-hop shrink factor on k: the ROI narrows as it deepens (paper
  /// Fig. 5 stage 1 shows a tighter 2-hop expansion). 1.0 = constant k.
  double hop_k_decay = 1.0;
  /// kRandomWalk parameters (PinSage: short walks, visit-count importance).
  int walk_count = 32;
  int walk_length = 3;
};

/// Focal-biased (and baseline) neighborhood sampler.
class RoiSampler {
 public:
  explicit RoiSampler(RoiSamplerOptions options);

  /// Computes the focal vector Fc = sum of focal-node content vectors
  /// (paper Sec. V-B: focal points are the {user, query} pair).
  std::vector<float> FocalVector(const graph::GraphView& g,
                                 const std::vector<graph::NodeId>& focal) const;

  /// Samples the ROI subgraph rooted at `ego` under focal vector `fc`.
  /// Implemented as a batch of one, so single- and batched-ego sampling are
  /// bit-identical by construction.
  RoiSubgraph Sample(const graph::GraphView& g, graph::NodeId ego,
                     const std::vector<float>& fc, Rng* rng) const;

  /// Frontier-at-once batch expansion: all egos share the focal vector fc
  /// (the serving case — both the user and query egos of one request score
  /// against the same Fc). Hop h of every ego expands in one pass reusing
  /// one NeighborScratch, one per-batch relevance memo (ScoreNode is pure
  /// in (fc, node), so cross-ego repeats are scored once), and — when g is
  /// a dynamic view — the one snapshot the view pinned, instead of
  /// re-resolving per ego. Draw order interleaves egos per hop; with one
  /// ego it degenerates to the classic order, and for deterministic kinds
  /// (kFocalTopK) the per-ego result is identical at any batch size.
  /// Records sampler.batch_size / sampler.batch_latency_us histograms.
  std::vector<RoiSubgraph> SampleBatch(const graph::GraphView& g,
                                       std::span<const graph::NodeId> egos,
                                       const std::vector<float>& fc,
                                       Rng* rng) const;

  /// Scores a single neighbor against the focal vector (exposed for tests
  /// and the interpretability experiment).
  double Relevance(const graph::GraphView& g, const std::vector<float>& fc,
                   graph::NodeId candidate) const;

  const RoiSamplerOptions& options() const { return options_; }

 private:
  /// Per-thread buffers reused across SampleBatch calls: neighbor
  /// scratch, the relevance memo and the child-selection vectors.
  struct Scratch;

  /// Selects up to k(hop) children of `node`, excluding `parent`. The
  /// neighbor block is resolved through `scratch`; kFocalTopK relevance
  /// lookups go through its batch-shared memo.
  void SelectChildren(const graph::GraphView& g, graph::NodeId node,
                      graph::NodeId parent, const std::vector<float>& fc,
                      int hop, Rng* rng, Scratch* scratch,
                      std::vector<RoiNode>* out) const;

  RoiSamplerOptions options_;
  std::unique_ptr<RelevanceScorer> scorer_;
};

}  // namespace core
}  // namespace zoomer

#endif  // ZOOMER_CORE_ROI_SAMPLER_H_
