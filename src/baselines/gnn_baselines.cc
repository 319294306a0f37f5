#include "baselines/gnn_baselines.h"

#include <cmath>

#include "common/logging.h"

namespace zoomer {
namespace baselines {

using core::RoiSubgraph;
using graph::kNumNodeTypes;
using graph::NodeId;
using tensor::Tensor;

GnnBaselineConfig GnnBaselineConfig::GraphSage(int hidden_dim, int k,
                                               uint64_t seed) {
  GnnBaselineConfig c;
  c.name = "GraphSage";
  c.hidden_dim = hidden_dim;
  c.sampler.k = k;
  c.sampler.kind = core::SamplerKind::kUniform;
  c.aggregator = Aggregator::kMean;
  c.seed = seed;
  return c;
}

GnnBaselineConfig GnnBaselineConfig::Gcn(int hidden_dim, int k,
                                         uint64_t seed) {
  GnnBaselineConfig c = GraphSage(hidden_dim, k, seed);
  c.name = "GCN";
  return c;
}

GnnBaselineConfig GnnBaselineConfig::Gat(int hidden_dim, int k,
                                         uint64_t seed) {
  GnnBaselineConfig c = GraphSage(hidden_dim, k, seed);
  c.name = "GAT";
  c.aggregator = Aggregator::kGat;
  return c;
}

GnnBaselineConfig GnnBaselineConfig::Han(int hidden_dim, int k,
                                         uint64_t seed) {
  GnnBaselineConfig c = GraphSage(hidden_dim, k, seed);
  c.name = "HAN";
  c.aggregator = Aggregator::kGat;
  c.han_semantic = true;
  return c;
}

GnnBaselineConfig GnnBaselineConfig::PinSage(int hidden_dim, int k,
                                             uint64_t seed) {
  GnnBaselineConfig c = GraphSage(hidden_dim, k, seed);
  c.name = "PinSage";
  c.sampler.kind = core::SamplerKind::kRandomWalk;
  c.aggregator = Aggregator::kImportance;
  return c;
}

GnnBaselineModel::GnnBaselineModel(const graph::HeteroGraph* g,
                                   const GnnBaselineConfig& config)
    : graph_(g),
      view_(g),
      config_(config),
      sampler_(config.sampler),
      init_rng_(config.seed) {
  ZCHECK(g != nullptr);
  const int d = config_.hidden_dim;
  slots_ = core::SlotEmbeddings(*g, d, &init_rng_);
  for (int t = 0; t < kNumNodeTypes; ++t) {
    type_map_[t] = tensor::Linear(d, d, &init_rng_);
  }
  for (int h = 0; h < config_.sampler.num_hops; ++h) {
    hop_combine_.emplace_back(2 * d, d, &init_rng_);
  }
  gat_a_ = Tensor::Xavier(2 * d, 1, &init_rng_, /*requires_grad=*/true);
  semantic_proj_ = tensor::Linear(d, d, &init_rng_);
  semantic_q_ = Tensor::Xavier(d, 1, &init_rng_, /*requires_grad=*/true);
  uq_tower_ = tensor::Linear(2 * d, d, &init_rng_);
  item_tower_ = tensor::Linear(d, d, &init_rng_);
  logit_scale_ =
      Tensor::Full(1, 1, config_.logit_scale_init, /*requires_grad=*/true);
}

Tensor GnnBaselineModel::NodeEmbedding(NodeId node) const {
  Tensor z = MeanRows(slots_.Lookup(*view_, node));
  const int t = static_cast<int>(view_->node_type(node));
  return Tanh(type_map_[t].Forward(z));
}

Tensor GnnBaselineModel::AggregateNode(const RoiSubgraph& roi,
                                       int index) const {
  const core::RoiNode& node = roi.nodes[index];
  Tensor z_self = NodeEmbedding(node.id);
  const int cb = roi.children_begin[index];
  const int ce = roi.children_end[index];
  if (cb >= ce) return z_self;

  std::array<std::vector<Tensor>, kNumNodeTypes> by_type;
  std::array<std::vector<float>, kNumNodeTypes> importance;
  for (int c = cb; c < ce; ++c) {
    const int t = static_cast<int>(view_->node_type(roi.nodes[c].id));
    by_type[t].push_back(AggregateNode(roi, c));
    importance[t].push_back(
        static_cast<float>(std::max(roi.nodes[c].relevance, 1e-3)));
  }

  std::vector<Tensor> type_embeddings;
  for (int t = 0; t < kNumNodeTypes; ++t) {
    if (by_type[t].empty()) continue;
    Tensor z_children = StackRows(by_type[t]);
    const int64_t k = z_children.rows();
    Tensor e_t;
    switch (config_.aggregator) {
      case Aggregator::kMean:
        e_t = MeanRows(z_children);
        break;
      case Aggregator::kGat: {
        // Static pairwise attention (paper eq. 3): no focal conditioning.
        const Tensor parts[] = {z_self, z_children};  // z_self tiled k times
        Tensor scores =
            LeakyRelu(ConcatMatVec(parts, gat_a_), config_.leaky_slope);
        Tensor alpha = SoftmaxColumn(scores);
        e_t = WeightedSumRows(alpha, z_children);
        break;
      }
      case Aggregator::kImportance: {
        // PinSage importance pooling: normalized visit counts.
        float total = 0.0f;
        for (float w : importance[t]) total += w;
        std::vector<float> w(importance[t]);
        for (auto& x : w) x /= total;
        Tensor weights =
            Tensor::FromVector(w, k, 1);  // constant, non-trainable
        e_t = WeightedSumRows(weights, z_children);
        break;
      }
    }
    type_embeddings.push_back(e_t);
  }

  Tensor h_agg;
  if (type_embeddings.empty()) {
    h_agg = Tensor::Zeros(1, config_.hidden_dim);
  } else if (config_.han_semantic && type_embeddings.size() > 1) {
    // HAN semantic-level attention: w_t = q' tanh(W e_t + b), softmaxed.
    std::vector<Tensor> scores;
    for (const auto& e_t : type_embeddings) {
      scores.push_back(MatMul(Tanh(semantic_proj_.Forward(e_t)), semantic_q_));
    }
    Tensor beta = SoftmaxColumn(StackRows(scores));  // (T x 1)
    for (size_t i = 0; i < type_embeddings.size(); ++i) {
      Tensor w = Rows(beta, {static_cast<int64_t>(i)});  // (1 x 1)
      Tensor weighted = Mul(type_embeddings[i], w);
      h_agg = h_agg.defined() ? Add(h_agg, weighted) : weighted;
    }
  } else {
    for (const auto& e_t : type_embeddings) {
      h_agg = h_agg.defined() ? Add(h_agg, e_t) : e_t;
    }
    h_agg = Scale(h_agg, 1.0f / static_cast<float>(type_embeddings.size()));
  }

  const int hop = std::min<int>(node.depth,
                                static_cast<int>(hop_combine_.size()) - 1);
  return Tanh(hop_combine_[hop].Forward(ConcatCols(z_self, h_agg)));
}

Tensor GnnBaselineModel::EgoEmbedding(NodeId ego, Rng* rng) const {
  // Static samplers ignore the focal vector except for bookkeeping; the ego
  // content stands in so the RoiSampler API stays uniform. Sampling runs
  // through the active view, so an attached dynamic view lets every
  // baseline score freshly ingested edges.
  std::vector<float> fc(view_->content(ego),
                        view_->content(ego) + view_->content_dim());
  RoiSubgraph roi = sampler_.Sample(*view_, ego, fc, rng);
  return AggregateNode(roi, 0);
}

Tensor GnnBaselineModel::UserQueryEmbedding(NodeId user, NodeId query,
                                            Rng* rng) {
  Tensor hu = EgoEmbedding(user, rng);
  Tensor hq = EgoEmbedding(query, rng);
  return Tanh(uq_tower_.Forward(ConcatCols(hu, hq)));
}

Tensor GnnBaselineModel::ItemEmbedding(NodeId item) {
  return Tanh(item_tower_.Forward(NodeEmbedding(item)));
}

Tensor GnnBaselineModel::ScoreLogit(const data::Example& ex, Rng* rng) {
  Tensor uq = UserQueryEmbedding(ex.user, ex.query, rng);
  Tensor it = ItemEmbedding(ex.item);
  return Mul(RowwiseCosine(uq, it), logit_scale_);
}

std::vector<float> GnnBaselineModel::UserQueryEmbeddingInference(NodeId user,
                                                                 NodeId query,
                                                                 Rng* rng) {
  Tensor uq = UserQueryEmbedding(user, query, rng);
  return {uq.data(), uq.data() + uq.size()};
}

std::vector<float> GnnBaselineModel::ItemEmbeddingInference(NodeId item) {
  Tensor it = ItemEmbedding(item);
  return {it.data(), it.data() + it.size()};
}

std::vector<Tensor> GnnBaselineModel::Parameters() const {
  std::vector<Tensor> out = slots_.Parameters();
  for (const auto& l : type_map_) {
    auto p = l.Parameters();
    out.insert(out.end(), p.begin(), p.end());
  }
  for (const auto& l : hop_combine_) {
    auto p = l.Parameters();
    out.insert(out.end(), p.begin(), p.end());
  }
  out.push_back(gat_a_);
  auto ps = semantic_proj_.Parameters();
  out.insert(out.end(), ps.begin(), ps.end());
  out.push_back(semantic_q_);
  auto pu = uq_tower_.Parameters();
  out.insert(out.end(), pu.begin(), pu.end());
  auto pi = item_tower_.Parameters();
  out.insert(out.end(), pi.begin(), pi.end());
  out.push_back(logit_scale_);
  return out;
}

}  // namespace baselines
}  // namespace zoomer
