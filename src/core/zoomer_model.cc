#include "core/zoomer_model.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "common/stamped_table.h"

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
  return LookupMany(g, g.node_type(node), {&node, 1});
}

Tensor SlotEmbeddings::LookupMany(const graph::GraphView& g, NodeType type,
                                  std::span<const NodeId> nodes) const {
  const auto& tables = tables_[static_cast<int>(type)];
  const size_t slots = tables.size();
  std::vector<int> table_of;
  std::vector<int64_t> ids;
  table_of.reserve(nodes.size() * slots);
  ids.reserve(nodes.size() * slots);
  for (NodeId node : nodes) {
    ZCHECK(g.node_type(node) == type);
    auto s = g.slots(node);
    ZCHECK_EQ(s.size(), slots);
    for (size_t i = 0; i < slots; ++i) {
      table_of.push_back(static_cast<int>(i));
      ids.push_back(s[i]);
    }
  }
  return GatherRows(tables, table_of, ids);
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
      view_(g),
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

Tensor ZoomerModel::FeatureLevel(NodeType type, std::span<const NodeId> nodes,
                                 const Tensor& focal) const {
  const Tensor h = slots_.LookupMany(*view_, type, nodes);  // n_slots per node
  const int64_t slots = slots_.num_slots(type);
  std::vector<int64_t> offsets(nodes.size() + 1);
  for (size_t i = 0; i < offsets.size(); ++i) {
    offsets[i] = static_cast<int64_t>(i) * slots;
  }
  Tensor z;
  if (config_.use_feature_projection && focal.defined()) {
    // eq. 6-7: Wc = softmax(H·C / sqrt(d)); Z = H ⊙ Wc; pooled to one row
    // per node (the focal-weighted sum of its slot latents).
    const float inv_sqrt_d =
        1.0f / std::sqrt(static_cast<float>(config_.hidden_dim));
    z = SegmentFocalPool(h, focal, offsets, inv_sqrt_d);
  } else {
    z = SegmentMean(h, offsets);
  }
  return Tanh(type_map_[static_cast<int>(type)].Forward(z));
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

std::vector<Tensor> ZoomerModel::AggregateRois(
    std::span<const RoiSubgraph> rois, const Tensor& focal,
    std::vector<EdgeAttentionRecord>* root_weights) const {
  // The ROIs as one forest, ROI after ROI. A node's current embedding is
  // row `row` of sources[src]: its feature-level row until its own depth
  // level is aggregated, its row of that level's output after.
  struct ForestNode {
    NodeId id;
    int type;
    int depth;
    int children_begin, children_end;  // forest indices
    int self_src, src;
    int64_t self_row, row;
  };
  std::vector<ForestNode> nodes;
  std::vector<int> roots;
  // A node's feature-level embedding depends only on the node and the focal
  // vector, so each distinct node of the forest gets one row of its type.
  std::array<std::vector<NodeId>, kNumNodeTypes> ids_of_type;
  thread_local StampedTable<int64_t> row_of_node;
  row_of_node.Begin(static_cast<size_t>(view_->num_nodes()));
  int max_depth = 0;
  for (const RoiSubgraph& roi : rois) {
    const int base = static_cast<int>(nodes.size());
    roots.push_back(base);
    for (int i = 0; i < roi.size(); ++i) {
      const NodeId id = roi.nodes[i].id;
      const int t = static_cast<int>(view_->node_type(id));
      const int64_t* known = row_of_node.Find(static_cast<size_t>(id));
      const int64_t row =
          known != nullptr
              ? *known
              : row_of_node.Set(static_cast<size_t>(id),
                                static_cast<int64_t>(ids_of_type[t].size()));
      if (known == nullptr) ids_of_type[t].push_back(id);
      max_depth = std::max(max_depth, roi.nodes[i].depth);
      nodes.push_back({id, t, roi.nodes[i].depth,
                       base + roi.children_begin[i], base + roi.children_end[i],
                       -1, -1, row, row});
    }
  }

  // Feature level: one pass per node type over all of the forest's nodes.
  std::vector<Tensor> sources;
  int src_of_type[kNumNodeTypes] = {-1, -1, -1};
  for (int t = 0; t < kNumNodeTypes; ++t) {
    if (ids_of_type[t].empty()) continue;
    src_of_type[t] = static_cast<int>(sources.size());
    sources.push_back(
        FeatureLevel(static_cast<NodeType>(t), ids_of_type[t], focal));
  }
  for (ForestNode& n : nodes) n.self_src = n.src = src_of_type[n.type];
  const size_t num_feature_sources = sources.size();

  // Aggregation, deepest parents first: each depth level aggregates all of
  // its parents at once, so a parent's children are final before it reads
  // them.
  std::vector<int> parents;
  std::vector<int> table_of;
  std::vector<int64_t> rows;
  for (int level = max_depth - 1; level >= 0; --level) {
    parents.clear();
    for (int v = 0; v < static_cast<int>(nodes.size()); ++v) {
      if (nodes[v].depth == level &&
          nodes[v].children_begin < nodes[v].children_end) {
        parents.push_back(v);
      }
    }
    if (parents.empty()) continue;
    const int64_t np = static_cast<int64_t>(parents.size());
    table_of.clear();
    rows.clear();
    for (int p : parents) {
      table_of.push_back(nodes[p].self_src);
      rows.push_back(nodes[p].self_row);
    }
    const Tensor z_self = GatherRows(
        std::span(sources).first(num_feature_sources), table_of, rows);

    // Edge level (eq. 8-9) within type: per type, segment p holds parent
    // p's children of that type in child order (empty if it has none).
    std::array<Tensor, kNumNodeTypes> by_type;  // (np x d) per type
    std::array<std::vector<int64_t>, kNumNodeTypes> offsets;
    for (int t = 0; t < kNumNodeTypes; ++t) {
      std::vector<int64_t>& off = offsets[t];
      off.assign(1, 0);
      table_of.clear();
      rows.clear();
      for (int p : parents) {
        for (int c = nodes[p].children_begin; c < nodes[p].children_end; ++c) {
          if (nodes[c].type != t) continue;
          table_of.push_back(nodes[c].src);
          rows.push_back(nodes[c].row);
        }
        off.push_back(static_cast<int64_t>(rows.size()));
      }
      if (rows.empty()) continue;
      const Tensor children = GatherRows(sources, table_of, rows);
      Tensor alpha;
      if (config_.use_edge_attention) {
        // softmax_k LeakyReLU(a' [Z_i || Z_k || Z_c]) per (parent, type).
        Tensor scores = LeakyRelu(
            SegmentConcatMatVec(z_self, children, focal, edge_attn_a_, off),
            config_.leaky_slope);
        alpha = SegmentSoftmax(scores, off);
        by_type[t] = SegmentWeightedSum(alpha, children, off);
      } else {
        by_type[t] = SegmentMean(children, off);  // GCN / Zoomer-FS
      }
      if (root_weights != nullptr && level == 0 && parents[0] == 0) {
        // rois[0]'s ego is forest node 0, so its segment is the first.
        const int64_t k = off[1];
        int64_t i = 0;
        for (int c = nodes[0].children_begin; c < nodes[0].children_end; ++c) {
          if (nodes[c].type != t) continue;
          root_weights->push_back(
              {nodes[c].id, static_cast<NodeType>(t),
               alpha.defined() ? alpha.at(i, 0)
                               : 1.0f / static_cast<float>(k)});
          ++i;
        }
      }
    }

    // Semantic level (eq. 10-11): one segment per parent over the types
    // its children have, in type order.
    std::vector<Tensor> type_tables;
    int table_of_type[kNumNodeTypes] = {-1, -1, -1};
    for (int t = 0; t < kNumNodeTypes; ++t) {
      if (!by_type[t].defined()) continue;
      table_of_type[t] = static_cast<int>(type_tables.size());
      type_tables.push_back(by_type[t]);
    }
    table_of.clear();
    rows.clear();
    std::vector<int64_t> pair_offsets(1, 0);
    for (int64_t p = 0; p < np; ++p) {
      for (int t = 0; t < kNumNodeTypes; ++t) {
        if (table_of_type[t] < 0 || offsets[t][p] == offsets[t][p + 1]) {
          continue;
        }
        table_of.push_back(table_of_type[t]);
        rows.push_back(p);
      }
      pair_offsets.push_back(static_cast<int64_t>(rows.size()));
    }
    const Tensor e = GatherRows(type_tables, table_of, rows);
    Tensor h_agg;
    if (config_.use_semantic_attention) {
      // t_k = cos(C_i, E_ik); H_i = sum_k E_ik * t_k. The cosine weights are
      // softmax-normalized across types so they stay positive and sum to
      // one (raw signed cosines at initialization randomly cancel the
      // aggregate and stall optimization).
      Tensor cosines = RowwiseCosine(Rows(z_self, rows), e);
      Tensor weights = SegmentSoftmax(Scale(cosines, 2.0f), pair_offsets);
      h_agg = SegmentSum(Mul(e, weights), pair_offsets);
    } else {
      // mean pooling across types (Zoomer-FE / GCN)
      std::vector<float> inv_types(static_cast<size_t>(np));
      for (int64_t p = 0; p < np; ++p) {
        inv_types[p] =
            1.0f / static_cast<float>(pair_offsets[p + 1] - pair_offsets[p]);
      }
      h_agg = Mul(SegmentSum(e, pair_offsets),
                  Tensor::FromVector(inv_types, np, 1));
    }

    // GraphSage-style combine of self and aggregated neighborhood (one
    // Linear per hop depth) with a residual connection to the aggregate so
    // neighbor embedding signal reaches the towers undiluted.
    const int hop =
        std::min<int>(level, static_cast<int>(hop_combine_.size()) - 1);
    Tensor mixed = Tanh(hop_combine_[hop].Forward(ConcatCols(z_self, h_agg)));
    const int src = static_cast<int>(sources.size());
    sources.push_back(Add(mixed, h_agg));
    for (int64_t p = 0; p < np; ++p) {
      nodes[parents[p]].src = src;
      nodes[parents[p]].row = p;
    }
  }

  std::vector<Tensor> egos;
  for (int r : roots) {
    const Tensor& t = sources[nodes[r].src];
    egos.push_back(t.rows() == 1 ? t : Rows(t, {nodes[r].row}));
  }
  return egos;
}

Tensor ZoomerModel::EgoEmbedding(NodeId ego, NodeId user, NodeId query,
                                 Rng* rng) const {
  std::vector<float> fc =
      sampler_.FocalVector(*view_, {user, query});  // content space (eq. 5)
  RoiSubgraph roi = sampler_.Sample(*view_, ego, fc, rng);
  Tensor focal = FocalVector(user, query);  // latent space (Sec. V-A)
  return AggregateRois({&roi, 1}, focal, nullptr)[0];
}

Tensor ZoomerModel::UserQueryEmbedding(NodeId user, NodeId query,
                                       Rng* rng) const {
  // Both egos share one focal vector, so their ROIs expand as one batch:
  // one snapshot pin, one scratch, and a shared relevance memo (minibatch
  // assembly in the trainer funnels through here per example), and they
  // aggregate as one forest.
  const std::vector<float> fc = sampler_.FocalVector(*view_, {user, query});
  const NodeId egos[2] = {user, query};
  std::vector<RoiSubgraph> rois = sampler_.SampleBatch(*view_, egos, fc, rng);
  Tensor focal = FocalVector(user, query);  // latent space (Sec. V-A)
  std::vector<Tensor> h = AggregateRois(rois, focal, nullptr);
  return Tanh(uq_tower_.Forward(ConcatCols(h[0], h[1])));
}

Tensor ZoomerModel::ItemEmbedding(NodeId item) const {
  ZCHECK_EQ(static_cast<int>(view_->node_type(item)),
            static_cast<int>(NodeType::kItem));
  // Base model: no focal vector.
  Tensor z = FeatureLevel(NodeType::kItem, {&item, 1}, Tensor());
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
  AggregateRois({&roi, 1}, focal, &records);
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
