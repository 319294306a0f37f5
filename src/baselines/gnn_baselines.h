// Static (non-focal) GNN baselines built from one configurable backbone:
//
//   GraphSAGE  = uniform neighbor sampling + mean aggregation
//   GCN        = uniform sampling + mean aggregation (transductive flavour;
//                identical backbone, kept as a distinct registry name)
//   GAT        = uniform sampling + pairwise attention (eq. 3 of the paper's
//                preliminaries; weights fixed across requests)
//   HAN        = node-level (GAT) attention + learned semantic-level
//                attention over neighbor types
//   PinSage    = random-walk visit-count sampling + importance-weighted
//                aggregation
//
// The key contrast with Zoomer: none of these condition sampling or
// attention on the request's focal interest, so every request sees the same
// static neighborhood weighting (paper Fig. 1).
#ifndef ZOOMER_BASELINES_GNN_BASELINES_H_
#define ZOOMER_BASELINES_GNN_BASELINES_H_

#include <array>
#include <string>
#include <vector>

#include "core/model_interface.h"
#include "core/roi_sampler.h"
#include "core/zoomer_model.h"  // SlotEmbeddings
#include "tensor/nn.h"

namespace zoomer {
namespace baselines {

enum class Aggregator {
  kMean,        // GraphSAGE / GCN
  kGat,         // GAT / HAN node level
  kImportance,  // PinSage: visit-count weighted
};

struct GnnBaselineConfig {
  std::string name = "GraphSage";
  int hidden_dim = 16;
  core::RoiSamplerOptions sampler;
  Aggregator aggregator = Aggregator::kMean;
  /// HAN: learned semantic attention across neighbor-type embeddings;
  /// otherwise types are mean-combined.
  bool han_semantic = false;
  float leaky_slope = 0.2f;
  float logit_scale_init = 5.0f;
  uint64_t seed = 1;

  static GnnBaselineConfig GraphSage(int hidden_dim, int k, uint64_t seed);
  static GnnBaselineConfig Gcn(int hidden_dim, int k, uint64_t seed);
  static GnnBaselineConfig Gat(int hidden_dim, int k, uint64_t seed);
  static GnnBaselineConfig Han(int hidden_dim, int k, uint64_t seed);
  static GnnBaselineConfig PinSage(int hidden_dim, int k, uint64_t seed);
};

class GnnBaselineModel : public core::ScoringModel {
 public:
  GnnBaselineModel(const graph::HeteroGraph* g,
                   const GnnBaselineConfig& config);

  /// Routes sampling and feature lookups through `view` — attach a
  /// streaming::DynamicGraphView so the baselines, like ZoomerModel, train
  /// and score over base+delta neighborhoods without waiting for Compact().
  /// The view must describe the same node space as the construction graph
  /// and outlive the model; nullptr restores the construction graph.
  void AttachGraphView(const graph::GraphView* view) {
    view_ = view != nullptr ? view : graph_;
  }
  const graph::GraphView& view() const { return *view_; }

  std::string name() const override { return config_.name; }
  int embedding_dim() const override { return config_.hidden_dim; }

  tensor::Tensor ScoreLogit(const data::Example& ex, Rng* rng) override;
  std::vector<tensor::Tensor> Parameters() const override;
  std::vector<float> UserQueryEmbeddingInference(graph::NodeId user,
                                                 graph::NodeId query,
                                                 Rng* rng) override;
  std::vector<float> ItemEmbeddingInference(graph::NodeId item) override;

  tensor::Tensor UserQueryEmbedding(graph::NodeId user, graph::NodeId query,
                                    Rng* rng);
  tensor::Tensor ItemEmbedding(graph::NodeId item);
  const GnnBaselineConfig& config() const { return config_; }

 private:
  tensor::Tensor NodeEmbedding(graph::NodeId node) const;
  tensor::Tensor AggregateNode(const core::RoiSubgraph& roi, int index) const;
  tensor::Tensor EgoEmbedding(graph::NodeId ego, Rng* rng) const;

  const graph::HeteroGraph* graph_;
  const graph::GraphView* view_;   // active view (never null)
  GnnBaselineConfig config_;
  core::RoiSampler sampler_;
  mutable Rng init_rng_;

  core::SlotEmbeddings slots_;
  std::array<tensor::Linear, graph::kNumNodeTypes> type_map_;
  std::vector<tensor::Linear> hop_combine_;
  tensor::Tensor gat_a_;          // (2d x 1) pairwise attention vector
  tensor::Linear semantic_proj_;  // HAN semantic attention
  tensor::Tensor semantic_q_;     // (d x 1)
  tensor::Linear uq_tower_;
  tensor::Linear item_tower_;
  tensor::Tensor logit_scale_;
};

}  // namespace baselines
}  // namespace zoomer

#endif  // ZOOMER_BASELINES_GNN_BASELINES_H_
