#include "baselines/session_baselines.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

namespace zoomer {
namespace baselines {

using graph::kNumNodeTypes;
using graph::NodeId;
using graph::NodeType;
using tensor::Tensor;

SessionBaselineModel::SessionBaselineModel(const graph::HeteroGraph* g,
                                           const SessionBaselineConfig& config)
    : graph_(g), config_(config), init_rng_(config.seed) {
  const int d = config_.hidden_dim;
  slots_ = core::SlotEmbeddings(*g, d, &init_rng_);
  for (int t = 0; t < kNumNodeTypes; ++t) {
    type_map_[t] = tensor::Linear(d, d, &init_rng_);
  }
  attn_w1_ = tensor::Linear(d, d, &init_rng_);
  attn_w2_ = tensor::Linear(d, d, &init_rng_);
  attn_v_ = Tensor::Xavier(d, 1, &init_rng_, /*requires_grad=*/true);
  pos_embed_ = Tensor::Randn(config_.max_history, d, &init_rng_, 0.05f,
                             /*requires_grad=*/true);
  for (int c = 0; c < config_.num_components; ++c) {
    components_.emplace_back(d, d, &init_rng_);
  }
  gate_proj_ = tensor::Linear(d, d, &init_rng_);
  gate_q_ = Tensor::Xavier(d, 1, &init_rng_, /*requires_grad=*/true);
  uq_tower_ = tensor::Linear(2 * d, d, &init_rng_);
  item_tower_ = tensor::Linear(d, d, &init_rng_);
  global_merge_ = tensor::Linear(2 * d, d, &init_rng_);
  logit_scale_ =
      Tensor::Full(1, 1, config_.logit_scale_init, /*requires_grad=*/true);
}

std::string SessionBaselineModel::name() const {
  switch (config_.kind) {
    case SessionModelKind::kStamp: return "STAMP";
    case SessionModelKind::kGceGnn: return "GCE-GNN";
    case SessionModelKind::kFgnn: return "FGNN";
    case SessionModelKind::kMccf: return "MCCF";
  }
  return "?";
}

void SessionBaselineModel::OnEpochBegin(const data::RetrievalDataset& ds,
                                        Rng* /*rng*/) {
  if (!history_.empty()) return;
  for (const auto& rec : ds.log) {
    auto& h = history_[rec.user];
    for (NodeId item : rec.clicks) {
      if (static_cast<int>(h.size()) < config_.max_history) h.push_back(item);
    }
  }
}

Tensor SessionBaselineModel::NodeEmbedding(NodeId node) const {
  Tensor z = MeanRows(slots_.Lookup(*graph_, node));
  const int t = static_cast<int>(graph_->node_type(node));
  return Tanh(type_map_[t].Forward(z));
}

Tensor SessionBaselineModel::HistoryMatrix(NodeId user) const {
  auto it = history_.find(user);
  if (it == history_.end() || it->second.empty()) return Tensor();
  std::vector<Tensor> rows;
  rows.reserve(it->second.size());
  for (NodeId item : it->second) rows.push_back(NodeEmbedding(item));
  return StackRows(rows);
}

Tensor SessionBaselineModel::StampReadout(const Tensor& history,
                                          const Tensor& query) const {
  // a_i = v' sigmoid(W1 e_i + W2 (x_t + m_s + q)); m_a = sum a_i e_i.
  const int64_t n = history.rows();
  Tensor m_s = MeanRows(history);
  Tensor x_t = Rows(history, {n - 1});  // most recent click
  Tensor key = Add(Add(x_t, m_s), query);
  Tensor scores = MatMul(
      Sigmoid(Add(attn_w1_.Forward(history),
                  TileRows(attn_w2_.Forward(key), n))),
      attn_v_);
  Tensor alpha = SoftmaxColumn(scores);
  Tensor m_a = WeightedSumRows(alpha, history);
  // Memory-priority merge: attended memory + last click.
  return Add(m_a, x_t);
}

Tensor SessionBaselineModel::GceGnnReadout(const Tensor& history,
                                           const Tensor& query) const {
  // Session-local attention keyed purely by the current query.
  const int64_t n = history.rows();
  Tensor scores = MatMul(
      Tanh(Add(attn_w1_.Forward(history),
               TileRows(attn_w2_.Forward(query), n))),
      attn_v_);
  Tensor alpha = SoftmaxColumn(scores);
  return WeightedSumRows(alpha, history);
}

Tensor SessionBaselineModel::FgnnReadout(const Tensor& history,
                                         const Tensor& /*query*/) const {
  // Learned positional factors: score_i = v' tanh(W1 e_i + P_i).
  const int64_t n = history.rows();
  std::vector<int64_t> pos(n);
  for (int64_t i = 0; i < n; ++i) {
    pos[i] = std::min<int64_t>(i, pos_embed_.rows() - 1);
  }
  Tensor p = Rows(pos_embed_, pos);
  Tensor scores =
      MatMul(Tanh(Add(attn_w1_.Forward(history), p)), attn_v_);
  Tensor alpha = SoftmaxColumn(scores);
  return WeightedSumRows(alpha, history);
}

Tensor SessionBaselineModel::MccfReadout(const Tensor& history,
                                         const Tensor& /*query*/) const {
  // M motivation components; component-level gating over component readouts.
  std::vector<Tensor> comp_vecs, gate_scores;
  for (const auto& comp : components_) {
    Tensor proj = Tanh(comp.Forward(history));  // (n x d)
    Tensor vec = MeanRows(proj);                // (1 x d)
    comp_vecs.push_back(vec);
    gate_scores.push_back(MatMul(Tanh(gate_proj_.Forward(vec)), gate_q_));
  }
  Tensor beta = SoftmaxColumn(StackRows(gate_scores));  // (M x 1)
  Tensor out;
  for (size_t c = 0; c < comp_vecs.size(); ++c) {
    Tensor w = Rows(beta, {static_cast<int64_t>(c)});
    Tensor weighted = Mul(comp_vecs[c], w);
    out = out.defined() ? Add(out, weighted) : weighted;
  }
  return out;
}

Tensor SessionBaselineModel::UserQueryTower(NodeId user, NodeId query) const {
  Tensor q = NodeEmbedding(query);
  Tensor history = HistoryMatrix(user);
  Tensor rep;
  if (!history.defined()) {
    rep = NodeEmbedding(user);  // cold user fallback
  } else {
    switch (config_.kind) {
      case SessionModelKind::kStamp: rep = StampReadout(history, q); break;
      case SessionModelKind::kGceGnn: rep = GceGnnReadout(history, q); break;
      case SessionModelKind::kFgnn: rep = FgnnReadout(history, q); break;
      case SessionModelKind::kMccf: rep = MccfReadout(history, q); break;
    }
  }
  return Tanh(uq_tower_.Forward(ConcatCols(rep, q)));
}

Tensor SessionBaselineModel::ItemTower(NodeId item) const {
  Tensor self = NodeEmbedding(item);
  if (config_.kind == SessionModelKind::kGceGnn) {
    // Global-context enhancement: merge the mean of the item's item-type
    // neighbors (session/similarity edges) into the item representation.
    const auto nbrs = graph_->NeighborsOfType(item, NodeType::kItem).ids;
    if (!nbrs.empty()) {
      std::vector<Tensor> rows;
      const size_t take = std::min<size_t>(
          nbrs.size(), static_cast<size_t>(config_.global_neighbors));
      for (size_t i = 0; i < take; ++i) rows.push_back(NodeEmbedding(nbrs[i]));
      Tensor global = MeanRows(StackRows(rows));
      return Tanh(global_merge_.Forward(ConcatCols(self, global)));
    }
  }
  return Tanh(item_tower_.Forward(self));
}

Tensor SessionBaselineModel::ScoreLogit(const data::Example& ex, Rng* /*rng*/) {
  Tensor uq = UserQueryTower(ex.user, ex.query);
  Tensor it = ItemTower(ex.item);
  return Mul(RowwiseCosine(uq, it), logit_scale_);
}

std::vector<float> SessionBaselineModel::UserQueryEmbeddingInference(
    NodeId user, NodeId query, Rng* /*rng*/) {
  Tensor uq = UserQueryTower(user, query);
  return {uq.data(), uq.data() + uq.size()};
}

std::vector<float> SessionBaselineModel::ItemEmbeddingInference(NodeId item) {
  Tensor it = ItemTower(item);
  return {it.data(), it.data() + it.size()};
}

std::vector<Tensor> SessionBaselineModel::Parameters() const {
  std::vector<Tensor> out = slots_.Parameters();
  for (const auto& l : type_map_) {
    auto p = l.Parameters();
    out.insert(out.end(), p.begin(), p.end());
  }
  for (const auto* lin : {&attn_w1_, &attn_w2_, &gate_proj_, &uq_tower_,
                          &item_tower_, &global_merge_}) {
    auto p = lin->Parameters();
    out.insert(out.end(), p.begin(), p.end());
  }
  for (const auto& comp : components_) {
    auto p = comp.Parameters();
    out.insert(out.end(), p.begin(), p.end());
  }
  out.push_back(attn_v_);
  out.push_back(pos_embed_);
  out.push_back(gate_q_);
  out.push_back(logit_scale_);
  return out;
}

}  // namespace baselines
}  // namespace zoomer
