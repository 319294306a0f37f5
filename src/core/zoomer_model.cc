#include "core/zoomer_model.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

namespace zoomer {
namespace core {

using graph::HeteroGraph;
using graph::kNumNodeTypes;
using graph::NodeId;
using graph::NodeType;
using tensor::Tensor;

std::string ZoomerConfig::VariantName() const {
  if (!use_feature_projection && !use_edge_attention && !use_semantic_attention)
    return "GCN";
  if (!use_semantic_attention) return "Zoomer-FE";
  if (!use_edge_attention) return "Zoomer-FS";
  if (!use_feature_projection) return "Zoomer-ES";
  return "Zoomer";
}

SlotEmbeddings::SlotEmbeddings(const HeteroGraph& g, int dim, Rng* rng)
    : dim_(dim) {
  // Derive per-(type, slot) vocabulary sizes from the graph.
  std::array<std::vector<int64_t>, kNumNodeTypes> vocab;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    const int t = static_cast<int>(g.node_type(v));
    auto s = g.slots(v);
    if (vocab[t].size() < s.size()) vocab[t].resize(s.size(), 0);
    for (size_t i = 0; i < s.size(); ++i) {
      ZCHECK_GE(s[i], 0) << "negative slot id";
      vocab[t][i] = std::max(vocab[t][i], s[i] + 1);
    }
  }
  for (int t = 0; t < kNumNodeTypes; ++t) {
    for (int64_t v : vocab[t]) {
      tables_[t].push_back(tensor::Embedding(v, dim, rng).table());
    }
  }
}

Tensor SlotEmbeddings::Lookup(const graph::GraphView& g, NodeId node) const {
  const int t = static_cast<int>(g.node_type(node));
  auto s = g.slots(node);
  ZCHECK_EQ(s.size(), tables_[t].size());
  return GatherRows(tables_[t], s);
}

std::vector<Tensor> SlotEmbeddings::Parameters() const {
  std::vector<Tensor> out;
  for (const auto& per_type : tables_) {
    out.insert(out.end(), per_type.begin(), per_type.end());
  }
  return out;
}

ZoomerModel::ZoomerModel(const HeteroGraph* g, const ZoomerConfig& config)
    : graph_(g),
      base_view_(g),
      view_(&base_view_),
      config_(config),
      sampler_(config.sampler),
      init_rng_(config.seed) {
  ZCHECK(g != nullptr);
  const int d = config_.hidden_dim;
  slots_ = SlotEmbeddings(*g, d, &init_rng_);
  for (int t = 0; t < kNumNodeTypes; ++t) {
    type_map_[t] = tensor::Linear(d, d, &init_rng_);
  }
  hop_combine_.reserve(config_.sampler.num_hops);
  for (int h = 0; h < config_.sampler.num_hops; ++h) {
    hop_combine_.emplace_back(2 * d, d, &init_rng_);
  }
  edge_attn_a_ = Tensor::Xavier(3 * d, 1, &init_rng_, /*requires_grad=*/true);
  uq_tower_ = tensor::Linear(2 * d, d, &init_rng_);
  item_tower_ = tensor::Linear(d, d, &init_rng_);
  logit_scale_ =
      Tensor::Full(1, 1, config_.logit_scale_init, /*requires_grad=*/true);
}

Tensor ZoomerModel::FeatureLevelEmbedding(NodeId node,
                                          const Tensor& focal) const {
  const Tensor h = slots_.Lookup(*view_, node);  // (n_slots x d)
  Tensor z;
  if (config_.use_feature_projection && focal.defined()) {
    // eq. 6-7: Wc = softmax(H·C / sqrt(d)); Z = H ⊙ Wc; pooled to (1 x d).
    const float inv_sqrt_d =
        1.0f / std::sqrt(static_cast<float>(config_.hidden_dim));
    Tensor scores = ScaledRowDots(h, focal, inv_sqrt_d);  // (n x 1)
    Tensor alpha = SoftmaxColumn(scores);
    z = ColSum(Mul(h, alpha));  // focal-weighted sum of slot latents
  } else {
    z = MeanRows(h);
  }
  const int t = static_cast<int>(view_->node_type(node));
  return Tanh(type_map_[t].Forward(z));
}

Tensor ZoomerModel::FocalVector(NodeId user, NodeId query) const {
  // Sec. V-A: retrieve focal embeddings, space-map per type, then sum.
  // (Feature projection cannot apply here — the focal vector is its input —
  // so the raw mean of slot latents is used.)
  Tensor zu = MeanRows(slots_.Lookup(*view_, user));
  Tensor zq = MeanRows(slots_.Lookup(*view_, query));
  const int tu = static_cast<int>(NodeType::kUser);
  const int tq = static_cast<int>(NodeType::kQuery);
  return Tanh(Add(type_map_[tu].Forward(zu), type_map_[tq].Forward(zq)));
}

Tensor ZoomerModel::EdgeAttentionWeights(const Tensor& ego_z,
                                         const Tensor& child_z,
                                         const Tensor& focal) const {
  // eq. 8: softmax_k LeakyReLU(a' [Z_i || Z_k || Z_c]) within one type group.
  const Tensor parts[] = {ego_z, child_z, focal};  // ego, focal tiled k times
  Tensor scores =
      LeakyRelu(ConcatMatVec(parts, edge_attn_a_), config_.leaky_slope);
  return SoftmaxColumn(scores);  // (k x 1)
}

Tensor ZoomerModel::AggregateNode(
    const RoiSubgraph& roi, int index, const Tensor& focal,
    std::vector<EdgeAttentionRecord>* edge_weights) const {
  const RoiNode& node = roi.nodes[index];
  Tensor z_self = FeatureLevelEmbedding(node.id, focal);
  const int cb = roi.children_begin[index];
  const int ce = roi.children_end[index];
  if (cb >= ce) return z_self;  // leaf: feature-level embedding only

  // Recurse into children, grouped by node type (eq. 9 aggregates within
  // type; eq. 10-11 combines across types).
  std::array<std::vector<Tensor>, kNumNodeTypes> by_type;
  std::array<std::vector<NodeId>, kNumNodeTypes> ids_by_type;
  for (int c = cb; c < ce; ++c) {
    const NodeId child = roi.nodes[c].id;
    const int t = static_cast<int>(view_->node_type(child));
    by_type[t].push_back(AggregateNode(roi, c, focal, nullptr));
    if (edge_weights != nullptr) ids_by_type[t].push_back(child);
  }

  std::vector<Tensor> type_embeddings;
  for (int t = 0; t < kNumNodeTypes; ++t) {
    if (by_type[t].empty()) continue;
    Tensor z_children = StackRows(by_type[t]);  // (k_t x d)
    Tensor e_t;
    Tensor alpha;
    if (config_.use_edge_attention) {
      alpha = EdgeAttentionWeights(z_self, z_children, focal);
      e_t = WeightedSumRows(alpha, z_children);  // (1 x d)
    } else {
      e_t = MeanRows(z_children);  // mean pooling (GCN / Zoomer-FS)
    }
    if (edge_weights != nullptr) {
      const int64_t k = z_children.rows();
      for (int64_t i = 0; i < k; ++i) {
        edge_weights->push_back(
            {ids_by_type[t][i], static_cast<NodeType>(t),
             alpha.defined() ? alpha.at(i, 0)
                             : 1.0f / static_cast<float>(k)});
      }
    }
    type_embeddings.push_back(e_t);
  }

  Tensor h_agg;
  if (type_embeddings.empty()) {
    h_agg = Tensor::Zeros(1, config_.hidden_dim);
  } else if (config_.use_semantic_attention) {
    // eq. 10-11: t_k = cos(C_i, E_ik); H_i = sum_k E_ik * t_k. The cosine
    // weights are softmax-normalized across types so they stay positive and
    // sum to one (raw signed cosines at initialization randomly cancel the
    // aggregate and stall optimization).
    std::vector<Tensor> cosines;
    for (const auto& e_t : type_embeddings) {
      cosines.push_back(RowwiseCosine(z_self, e_t));  // (1 x 1)
    }
    Tensor weights =
        SoftmaxColumn(Scale(StackRows(cosines), 2.0f));  // (T x 1)
    for (size_t i = 0; i < type_embeddings.size(); ++i) {
      Tensor w = Rows(weights, {static_cast<int64_t>(i)});
      Tensor weighted = Mul(type_embeddings[i], w);
      h_agg = h_agg.defined() ? Add(h_agg, weighted) : weighted;
    }
  } else {
    // mean pooling across types (Zoomer-FE / GCN)
    for (const auto& e_t : type_embeddings) {
      h_agg = h_agg.defined() ? Add(h_agg, e_t) : e_t;
    }
    h_agg = Scale(h_agg, 1.0f / static_cast<float>(type_embeddings.size()));
  }

  // GraphSage-style combine of self and aggregated neighborhood (one Linear
  // per hop depth) with a residual connection to the aggregate so neighbor
  // embedding signal reaches the towers undiluted.
  const int hop = std::min<int>(node.depth,
                                static_cast<int>(hop_combine_.size()) - 1);
  Tensor mixed = Tanh(hop_combine_[hop].Forward(ConcatCols(z_self, h_agg)));
  return Add(mixed, h_agg);
}

Tensor ZoomerModel::EgoEmbedding(NodeId ego, NodeId user, NodeId query,
                                 Rng* rng) const {
  std::vector<float> fc =
      sampler_.FocalVector(*view_, {user, query});  // content space (eq. 5)
  RoiSubgraph roi = sampler_.Sample(*view_, ego, fc, rng);
  Tensor focal = FocalVector(user, query);  // latent space (Sec. V-A)
  return AggregateNode(roi, 0, focal, nullptr);
}

Tensor ZoomerModel::UserQueryEmbedding(NodeId user, NodeId query,
                                       Rng* rng) const {
  // Both egos share one focal vector, so their ROIs expand as one batch:
  // one snapshot pin, one scratch, and a shared relevance memo (minibatch
  // assembly in the trainer funnels through here per example).
  const std::vector<float> fc = sampler_.FocalVector(*view_, {user, query});
  const NodeId egos[2] = {user, query};
  std::vector<RoiSubgraph> rois = sampler_.SampleBatch(*view_, egos, fc, rng);
  Tensor focal = FocalVector(user, query);  // latent space (Sec. V-A)
  Tensor hu = AggregateNode(rois[0], 0, focal, nullptr);
  Tensor hq = AggregateNode(rois[1], 0, focal, nullptr);
  return Tanh(uq_tower_.Forward(ConcatCols(hu, hq)));
}

Tensor ZoomerModel::ItemEmbedding(NodeId item) const {
  ZCHECK_EQ(static_cast<int>(view_->node_type(item)),
            static_cast<int>(NodeType::kItem));
  Tensor z = FeatureLevelEmbedding(item, Tensor());  // base model: no focal
  return Tanh(item_tower_.Forward(z));
}

Tensor ZoomerModel::ScoreLogit(const data::Example& ex, Rng* rng) {
  Tensor uq = UserQueryEmbedding(ex.user, ex.query, rng);
  Tensor it = ItemEmbedding(ex.item);
  return Mul(RowwiseCosine(uq, it), logit_scale_);
}

std::vector<float> ZoomerModel::UserQueryEmbeddingInference(NodeId user,
                                                            NodeId query,
                                                            Rng* rng) {
  Tensor uq = UserQueryEmbedding(user, query, rng);
  return {uq.data(), uq.data() + uq.size()};
}

std::vector<float> ZoomerModel::ItemEmbeddingInference(NodeId item) {
  Tensor it = ItemEmbedding(item);
  return {it.data(), it.data() + it.size()};
}

std::vector<EdgeAttentionRecord> ZoomerModel::ExplainEdgeWeights(
    NodeId ego, NodeId user, NodeId query, Rng* rng) const {
  std::vector<float> fc = sampler_.FocalVector(*view_, {user, query});
  RoiSubgraph roi = sampler_.Sample(*view_, ego, fc, rng);
  Tensor focal = FocalVector(user, query);
  std::vector<EdgeAttentionRecord> records;
  AggregateNode(roi, 0, focal, &records);
  return records;
}

std::vector<Tensor> ZoomerModel::Parameters() const {
  std::vector<Tensor> out = slots_.Parameters();
  for (const auto& l : type_map_) {
    auto p = l.Parameters();
    out.insert(out.end(), p.begin(), p.end());
  }
  for (const auto& l : hop_combine_) {
    auto p = l.Parameters();
    out.insert(out.end(), p.begin(), p.end());
  }
  out.push_back(edge_attn_a_);
  auto pu = uq_tower_.Parameters();
  out.insert(out.end(), pu.begin(), pu.end());
  auto pi = item_tower_.Parameters();
  out.insert(out.end(), pi.begin(), pi.end());
  out.push_back(logit_scale_);
  return out;
}

}  // namespace core
}  // namespace zoomer
