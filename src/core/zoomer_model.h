// The Zoomer model (paper Sec. V): focal-vector construction, ROI-based
// multi-level attention networks, and the twin-tower CTR scorer.
//
// Pipeline per request {u, q, i} (Fig. 5):
//   1. focal points = {u, q}; focal vector = sum of space-mapped focal
//      embeddings (Sec. V-A);
//   2. ROI subgraphs for the ego user and ego query are sampled with the
//      focal-biased sampler (Sec. V-C);
//   3. multi-level attention aggregates the ROIs bottom-up (Sec. V-D), one
//      level of the ROI trees at a time over all of a request's egos:
//        - feature projection  (eq. 6-7): per-slot latent vectors reweighed
//          by softmax(H·C/sqrt(d)) against the focal vector. The distinct
//          ROI nodes of one type share one slot gather, one segmented focal
//          pool (a segment per node) and one space-mapping Affine;
//        - edge reweighing     (eq. 8-9): within-type neighbor softmax over
//          LeakyReLU(a' [Z_i || Z_j || Z_c]). For each depth, deepest
//          first, one gather per node type picks the children of all the
//          depth's parents, and segmented score, softmax and weighted-sum
//          ops attend within each (parent, type) group;
//        - semantic combination (eq. 10-11): per-type embeddings combined
//          with cosine weights against the parent's feature-level
//          embedding, segmented per parent, then one hop-combine Affine
//          over the depth's parents.
//      Each value equals the per-node recursion's bit for bit; the shared
//      parameters' gradient sums add their terms in another order;
//   4. the user-query tower merges the two ego embeddings; the item tower is
//      a base (non-Zoomer) embedding model (Sec. V-B: only the user-query
//      side runs Zoomer online); pCTR = scale * cos(uq, item).
//
// Each attention level can be disabled independently to realize the Fig. 8
// ablation variants (GCN / Zoomer-FE / -FS / -ES).
#ifndef ZOOMER_CORE_ZOOMER_MODEL_H_
#define ZOOMER_CORE_ZOOMER_MODEL_H_

#include <array>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/random.h"
#include "core/model_interface.h"
#include "core/roi_sampler.h"
#include "data/dataset.h"
#include "graph/hetero_graph.h"
#include "tensor/nn.h"
#include "tensor/tensor.h"

namespace zoomer {
namespace core {

struct ZoomerConfig {
  int hidden_dim = 16;
  RoiSamplerOptions sampler;
  /// Ablation switches (Fig. 8): full Zoomer has all three on.
  bool use_feature_projection = true;  // off => Zoomer-ES variant
  bool use_edge_attention = true;      // off => Zoomer-FS variant
  bool use_semantic_attention = true;  // off => Zoomer-FE variant
  float leaky_slope = 0.2f;
  float logit_scale_init = 5.0f;
  uint64_t seed = 1;

  /// Convenience constructors for the ablation variants.
  static ZoomerConfig Full() { return {}; }
  static ZoomerConfig Gcn() {
    ZoomerConfig c;
    c.use_feature_projection = false;
    c.use_edge_attention = false;
    c.use_semantic_attention = false;
    return c;
  }
  std::string VariantName() const;
};

/// Per-(type, slot) embedding tables with vocabularies derived from the graph.
class SlotEmbeddings {
 public:
  SlotEmbeddings() = default;
  SlotEmbeddings(const graph::HeteroGraph& g, int dim, Rng* rng);

  /// (num_slots(node) x dim) matrix of the node's feature latent vectors,
  /// resolved through any GraphView (static CSR or streaming overlay).
  tensor::Tensor Lookup(const graph::GraphView& g, graph::NodeId node) const;

  /// The Lookup matrices of `nodes`, all of type `type`, stacked in order
  /// as one node: (|nodes| * num_slots(type) x dim).
  tensor::Tensor LookupMany(const graph::GraphView& g, graph::NodeType type,
                            std::span<const graph::NodeId> nodes) const;
  int num_slots(graph::NodeType type) const {
    return static_cast<int>(tables_[static_cast<int>(type)].size());
  }

  std::vector<tensor::Tensor> Parameters() const;
  int dim() const { return dim_; }

 private:
  int dim_ = 0;
  // tables_[type][slot]: (vocab x dim) trainable embedding tables
  std::array<std::vector<tensor::Tensor>, graph::kNumNodeTypes> tables_;
};

/// Edge-attention weight attached to one ROI child (for interpretability).
struct EdgeAttentionRecord {
  graph::NodeId neighbor = -1;
  graph::NodeType type = graph::NodeType::kItem;
  float weight = 0.0f;
};

class ZoomerModel : public ScoringModel {
 public:
  ZoomerModel(const graph::HeteroGraph* g, const ZoomerConfig& config);

  /// Space-mapped sum of the focal-point embeddings (1 x d), Sec. V-A.
  tensor::Tensor FocalVector(graph::NodeId user, graph::NodeId query) const;

  /// Zoomer embedding of the ego node under the given focal vector: samples
  /// the ROI and runs multi-level attention bottom-up. (1 x d).
  tensor::Tensor EgoEmbedding(graph::NodeId ego, graph::NodeId user,
                              graph::NodeId query, Rng* rng) const;

  /// User-query tower output (1 x d).
  tensor::Tensor UserQueryEmbedding(graph::NodeId user, graph::NodeId query,
                                    Rng* rng) const;

  std::string name() const override { return config_.VariantName(); }
  int embedding_dim() const override { return config_.hidden_dim; }

  /// Base item-tower output (1 x d); no Zoomer on the item side (Sec. V-B).
  tensor::Tensor ItemEmbedding(graph::NodeId item) const;

  /// CTR logit for one example (1 x 1): scale * cos(uq, item).
  tensor::Tensor ScoreLogit(const data::Example& ex, Rng* rng) override;

  /// Detached float embeddings for retrieval-style evaluation/serving.
  std::vector<float> UserQueryEmbeddingInference(graph::NodeId user,
                                                 graph::NodeId query,
                                                 Rng* rng) override;
  std::vector<float> ItemEmbeddingInference(graph::NodeId item) override;
  float logit_scale() const { return logit_scale_.item(); }

  /// Edge-level attention weights over the 1-hop ROI children of `ego`
  /// under focal {user, query}: the coupling coefficients of Fig. 13. They
  /// are the weights the ego's aggregation applies to its children's
  /// aggregated embeddings (uniform 1/k per type when edge attention is
  /// off), grouped by type in child order.
  std::vector<EdgeAttentionRecord> ExplainEdgeWeights(graph::NodeId ego,
                                                      graph::NodeId user,
                                                      graph::NodeId query,
                                                      Rng* rng) const;

  std::vector<tensor::Tensor> Parameters() const override;
  const ZoomerConfig& config() const { return config_; }
  const RoiSampler& sampler() const { return sampler_; }
  const graph::HeteroGraph& graph() const { return *graph_; }

  /// Routes all sampling and feature lookups through `view` — attach a
  /// streaming::DynamicGraphView so training-time ROI construction scores
  /// base+delta neighborhoods without waiting for Compact(). The view must
  /// describe the same node space as the construction graph and outlive the
  /// model; nullptr restores the construction graph.
  void AttachGraphView(const graph::GraphView* view) {
    view_ = view != nullptr ? view : graph_;
  }
  const graph::GraphView& view() const { return *view_; }

 private:
  /// Feature-level embeddings (eq. 6-7) plus the type's space mapping of
  /// `nodes`, all of type `type`: row i belongs to nodes[i]. Without a
  /// focal vector, or with feature projection off, each node's slot
  /// latents are mean-pooled.
  tensor::Tensor FeatureLevel(graph::NodeType type,
                              std::span<const graph::NodeId> nodes,
                              const tensor::Tensor& focal) const;

  /// Multi-level attention (eq. 6-11) over the ROIs, one depth level of
  /// all of them at a time, deepest first; returns each ego's (1 x d)
  /// embedding. If `root_weights` is set, appends the weight applied to
  /// each child of rois[0]'s ego, grouped by type in child order.
  std::vector<tensor::Tensor> AggregateRois(
      std::span<const RoiSubgraph> rois, const tensor::Tensor& focal,
      std::vector<EdgeAttentionRecord>* root_weights) const;

  const graph::HeteroGraph* graph_;
  const graph::GraphView* view_;        // active view (never null)
  ZoomerConfig config_;
  RoiSampler sampler_;
  mutable Rng init_rng_;

  SlotEmbeddings slots_;
  std::array<tensor::Linear, graph::kNumNodeTypes> type_map_;  // space mapping
  std::vector<tensor::Linear> hop_combine_;  // [z_self || H_agg] -> d, per hop
  tensor::Tensor edge_attn_a_;               // (3d x 1) attention vector
  tensor::Linear uq_tower_;                  // [h_u || h_q] -> d
  tensor::Linear item_tower_;                // base item model
  tensor::Tensor logit_scale_;               // learnable temperature
};

}  // namespace core
}  // namespace zoomer

#endif  // ZOOMER_CORE_ZOOMER_MODEL_H_
