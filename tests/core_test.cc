// Tests for the Zoomer core: relevance scorers, focal-biased ROI sampling,
// multi-level attention invariants, and end-to-end learning behaviour.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include "core/relevance.h"
#include "core/roi_sampler.h"
#include "core/trainer.h"
#include "core/zoomer_model.h"
#include "data/taobao_generator.h"
#include "streaming/dynamic_graph_view.h"
#include "streaming/dynamic_hetero_graph.h"
#include "streaming/graph_delta_log.h"

namespace zoomer {
namespace core {
namespace {

using graph::HeteroGraph;
using graph::HeteroGraphBuilder;
using graph::NodeId;
using graph::NodeType;
using graph::RelationKind;

// --- Relevance scorers --------------------------------------------------------

TEST(RelevanceTest, TanimotoMatchesEq5) {
  // e = Fc.Fj / (|Fc|^2 + |Fj|^2 - Fc.Fj)
  const float fc[] = {1.0f, 0.0f};
  const float fj[] = {0.5f, 0.5f};
  TanimotoScorer scorer;
  const double dot = 0.5, na = 1.0, nb = 0.5;
  EXPECT_NEAR(scorer.Score(fc, fj, 2), dot / (na + nb - dot), 1e-9);
}

TEST(RelevanceTest, TanimotoIdenticalVectorsIsOne) {
  const float v[] = {0.3f, -0.7f, 0.2f};
  TanimotoScorer scorer;
  EXPECT_NEAR(scorer.Score(v, v, 3), 1.0, 1e-6);
}

TEST(RelevanceTest, CosineRange) {
  const float a[] = {1.0f, 0.0f};
  const float b[] = {-1.0f, 0.0f};
  const float c[] = {0.0f, 1.0f};
  CosineScorer scorer;
  EXPECT_NEAR(scorer.Score(a, a, 2), 1.0, 1e-6);
  EXPECT_NEAR(scorer.Score(a, b, 2), -1.0, 1e-6);
  EXPECT_NEAR(scorer.Score(a, c, 2), 0.0, 1e-6);
}

TEST(RelevanceTest, ZeroVectorSafe) {
  const float z[] = {0.0f, 0.0f};
  const float a[] = {1.0f, 1.0f};
  EXPECT_EQ(TanimotoScorer().Score(z, z, 2), 0.0);
  EXPECT_EQ(CosineScorer().Score(z, a, 2), 0.0);
}

TEST(RelevanceTest, FactoryProducesAllKinds) {
  EXPECT_EQ(MakeRelevanceScorer(RelevanceKind::kTanimoto)->name(), "tanimoto");
  EXPECT_EQ(MakeRelevanceScorer(RelevanceKind::kCosine)->name(), "cosine");
  EXPECT_EQ(MakeRelevanceScorer(RelevanceKind::kDot)->name(), "dot");
}

// --- ROI sampler ----------------------------------------------------------------

// Star graph: ego user 0 with item neighbors of two content clusters.
HeteroGraph MakeStarGraph(int n_relevant, int n_irrelevant) {
  HeteroGraphBuilder b(2);
  b.AddNode(NodeType::kUser, {1.0f, 0.0f}, {0});
  b.AddNode(NodeType::kQuery, {1.0f, 0.0f}, {0, 0});
  for (int i = 0; i < n_relevant; ++i) {
    // aligned with focal direction (1,0)
    NodeId id = b.AddNode(NodeType::kItem, {0.9f, 0.1f}, {i, 0, 0, 0, 0});
    EXPECT_TRUE(b.AddEdge(0, id, RelationKind::kClick).ok());
  }
  for (int i = 0; i < n_irrelevant; ++i) {
    // orthogonal to focal
    NodeId id = b.AddNode(NodeType::kItem, {0.0f, 1.0f},
                          {n_relevant + i, 0, 0, 0, 0});
    EXPECT_TRUE(b.AddEdge(0, id, RelationKind::kClick).ok());
  }
  EXPECT_TRUE(b.AddEdge(0, 1, RelationKind::kClick).ok());
  return b.Build();
}

TEST(RoiSamplerTest, FocalTopKSelectsRelevantNeighbors) {
  HeteroGraph g = MakeStarGraph(6, 6);
  RoiSamplerOptions opt;
  opt.k = 6;
  opt.num_hops = 1;
  RoiSampler sampler(opt);
  Rng rng(1);
  auto fc = sampler.FocalVector(g, {0, 1});
  RoiSubgraph roi = sampler.Sample(g, 0, fc, &rng);
  ASSERT_EQ(roi.size(), 7);  // ego + 6
  // All selected children must be from the relevant cluster or the query
  // (content aligned with (1,0)).
  for (int i = 1; i < roi.size(); ++i) {
    const float* c = g.content(roi.nodes[i].id);
    EXPECT_GT(c[0], 0.5f) << "sampled an irrelevant neighbor";
  }
}

TEST(RoiSamplerTest, RepartitionedGraphSamplesTheSameRoi) {
  // The built graph is one segment; the streaming base repartitions it.
  // Sampling through either must be bit-identical for the deterministic
  // focal-top-k kind (same scores, same tiebreaks, same rng consumption).
  HeteroGraph g = MakeStarGraph(6, 6);
  const HeteroGraph parts(g, /*span=*/2);
  RoiSamplerOptions opt;
  opt.k = 4;
  opt.num_hops = 1;
  RoiSampler sampler(opt);
  auto fc_built = sampler.FocalVector(g, {0, 1});
  auto fc_parts = sampler.FocalVector(parts, {0, 1});
  EXPECT_EQ(fc_built, fc_parts);
  Rng r1(3), r2(3);
  RoiSubgraph a = sampler.Sample(g, 0, fc_built, &r1);
  RoiSubgraph b = sampler.Sample(parts, 0, fc_parts, &r2);
  ASSERT_EQ(a.size(), b.size());
  for (int i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.nodes[i].id, b.nodes[i].id);
    EXPECT_EQ(a.nodes[i].depth, b.nodes[i].depth);
    EXPECT_EQ(a.nodes[i].parent, b.nodes[i].parent);
  }
}

TEST(RoiSamplerTest, SampleBatchMatchesPerEgoSample) {
  // The frontier-at-once batch (all egos hop h before hop h+1, shared
  // scratch + relevance memo) must produce exactly the per-ego trees for
  // the deterministic focal-top-k kind, including repeated egos.
  HeteroGraph g = MakeStarGraph(6, 6);
  RoiSamplerOptions opt;
  opt.k = 4;
  opt.num_hops = 2;
  RoiSampler sampler(opt);
  auto fc = sampler.FocalVector(g, {0, 1});
  const std::vector<graph::NodeId> egos = {0, 1, 0, 3};
  Rng batched(5);
  std::vector<RoiSubgraph> rois =
      sampler.SampleBatch(g, {egos.data(), egos.size()}, fc, &batched);
  ASSERT_EQ(rois.size(), egos.size());
  for (size_t e = 0; e < egos.size(); ++e) {
    Rng single(5);
    RoiSubgraph want = sampler.Sample(g, egos[e], fc, &single);
    ASSERT_EQ(rois[e].size(), want.size()) << "ego " << egos[e];
    for (int i = 0; i < want.size(); ++i) {
      EXPECT_EQ(rois[e].nodes[i].id, want.nodes[i].id);
      EXPECT_EQ(rois[e].nodes[i].depth, want.nodes[i].depth);
      EXPECT_EQ(rois[e].nodes[i].parent, want.nodes[i].parent);
    }
  }
}

TEST(RoiSamplerTest, RelevanceScoresDecreaseInSelectionOrder) {
  HeteroGraph g = MakeStarGraph(8, 8);
  RoiSamplerOptions opt;
  opt.k = 5;
  opt.num_hops = 1;
  RoiSampler sampler(opt);
  Rng rng(2);
  auto fc = sampler.FocalVector(g, {0, 1});
  RoiSubgraph roi = sampler.Sample(g, 0, fc, &rng);
  for (int i = 2; i < roi.size(); ++i) {
    EXPECT_GE(roi.nodes[i - 1].relevance, roi.nodes[i].relevance);
  }
}

TEST(RoiSamplerTest, TreeStructureAndDepths) {
  data::TaobaoGeneratorOptions dopt;
  dopt.num_users = 50;
  dopt.num_queries = 30;
  dopt.num_items = 100;
  dopt.num_sessions = 400;
  dopt.num_categories = 4;
  dopt.content_dim = 8;
  auto ds = GenerateTaobaoDataset(dopt);
  RoiSamplerOptions opt;
  opt.k = 4;
  opt.num_hops = 2;
  RoiSampler sampler(opt);
  Rng rng(3);
  auto fc = sampler.FocalVector(ds.graph, {0, 60});
  RoiSubgraph roi = sampler.Sample(ds.graph, 0, fc, &rng);
  ASSERT_GT(roi.size(), 1);
  EXPECT_EQ(roi.nodes[0].depth, 0);
  EXPECT_EQ(roi.nodes[0].parent, -1);
  for (int i = 1; i < roi.size(); ++i) {
    const auto& n = roi.nodes[i];
    EXPECT_GE(n.parent, 0);
    EXPECT_LT(n.parent, i);  // parents precede children (BFS order)
    EXPECT_EQ(n.depth, roi.nodes[n.parent].depth + 1);
    EXPECT_LE(n.depth, 2);
  }
  // children ranges consistent
  for (int p = 0; p < roi.size(); ++p) {
    for (int c = roi.children_begin[p]; c < roi.children_end[p]; ++c) {
      EXPECT_EQ(roi.nodes[c].parent, p);
    }
  }
}

TEST(RoiSamplerTest, RespectsKAndMaxNodes) {
  HeteroGraph g = MakeStarGraph(20, 20);
  RoiSamplerOptions opt;
  opt.k = 3;
  opt.num_hops = 1;
  RoiSampler sampler(opt);
  Rng rng(4);
  auto fc = sampler.FocalVector(g, {0, 1});
  EXPECT_EQ(sampler.Sample(g, 0, fc, &rng).size(), 4);

  opt.k = 100;
  opt.max_nodes = 10;
  RoiSampler capped(opt);
  EXPECT_LE(capped.Sample(g, 0, fc, &rng).size(), 10);
}

TEST(RoiSamplerTest, ExcludeParentPreventsBacktracking) {
  // Path graph: u0 -- q1 -- i2; sampling from q1 at hop 2 must not return u0.
  HeteroGraphBuilder b(2);
  b.AddNode(NodeType::kUser, {1.0f, 0.0f}, {0});
  b.AddNode(NodeType::kQuery, {1.0f, 0.0f}, {0, 0});
  b.AddNode(NodeType::kItem, {1.0f, 0.0f}, {0, 0, 0, 0, 0});
  ASSERT_TRUE(b.AddEdge(0, 1, RelationKind::kClick).ok());
  ASSERT_TRUE(b.AddEdge(1, 2, RelationKind::kClick).ok());
  HeteroGraph g = b.Build();
  RoiSamplerOptions opt;
  opt.k = 5;
  opt.num_hops = 2;
  RoiSampler sampler(opt);
  Rng rng(5);
  auto fc = sampler.FocalVector(g, {0, 1});
  RoiSubgraph roi = sampler.Sample(g, 0, fc, &rng);
  // hop1 = {q1}; hop2 children of q1 must be {i2}, not back to u0.
  for (int i = 1; i < roi.size(); ++i) {
    if (roi.nodes[i].depth == 2) {
      EXPECT_NE(roi.nodes[i].id, 0);
    }
  }
}

TEST(RoiSamplerTest, FocalSamplingIsDeterministic) {
  HeteroGraph g = MakeStarGraph(10, 10);
  RoiSamplerOptions opt;
  opt.k = 5;
  opt.num_hops = 1;
  RoiSampler sampler(opt);
  Rng r1(6), r2(7);  // different rngs: top-k selection must not depend on rng
  auto fc = sampler.FocalVector(g, {0, 1});
  auto roi1 = sampler.Sample(g, 0, fc, &r1);
  auto roi2 = sampler.Sample(g, 0, fc, &r2);
  ASSERT_EQ(roi1.size(), roi2.size());
  for (int i = 0; i < roi1.size(); ++i) {
    EXPECT_EQ(roi1.nodes[i].id, roi2.nodes[i].id);
  }
}

TEST(RoiSamplerTest, RelevanceMemoCoversNodesMintedAfterEarlierCalls) {
  // The relevance memo is a per-thread array over node ids that a call
  // sizes to its view. Sample over a dynamic view, mint nodes past that
  // view's size, and sample again: the minted neighbors are scored and
  // ranked like the base ones, and nothing carries over between calls.
  HeteroGraph g = MakeStarGraph(4, 4);
  streaming::GraphDeltaLog log(1);
  streaming::DynamicHeteroGraph dyn(&g);
  RoiSamplerOptions opt;
  opt.k = 30;
  opt.num_hops = 2;
  RoiSampler sampler(opt);
  Rng rng(12);
  const auto fc = sampler.FocalVector(g, {0, 1});
  {
    streaming::DynamicGraphView before(&dyn);
    EXPECT_EQ(sampler.Sample(before, 0, fc, &rng).size(), g.num_nodes());
  }
  constexpr int kMinted = 40;
  std::vector<streaming::NodeEvent> nodes;
  std::vector<streaming::EdgeEvent> edges;
  for (int i = 0; i < kMinted; ++i) {
    streaming::NodeEvent ev;
    ev.type = NodeType::kItem;
    // The later-minted ones point closer to the focal direction (1, 0).
    ev.content = {1.0f, 1.0f - static_cast<float>(i) / kMinted};
    ev.slots = {0, 0, 0, 0, 0};
    nodes.push_back(ev);
    edges.push_back({0, -1 - i, RelationKind::kClick, 1.0f, 0});
  }
  streaming::DeltaBatch batch;
  auto epoch = log.AppendWithNodes(
      0, &nodes, &edges,
      [&dyn](const std::vector<streaming::NodeEvent>& evs, uint64_t e) {
        return dyn.AllocateNodeIds(evs, e);
      },
      [&dyn](uint64_t e) { dyn.NoteEpochIssued(e); });
  ASSERT_TRUE(epoch.ok());
  batch.epoch = epoch.value();
  batch.node_events = std::move(nodes);
  batch.events = std::move(edges);
  ASSERT_TRUE(dyn.ApplyBatch(batch).ok());

  streaming::DynamicGraphView after(&dyn);
  ASSERT_EQ(after.num_nodes(), g.num_nodes() + kMinted);
  const RoiSubgraph roi = sampler.Sample(after, 0, fc, &rng);
  ASSERT_EQ(roi.size(), 1 + opt.k);  // the ego's 49 neighbors, cut to k
  std::vector<NodeId> minted;  // in ROI order: most relevant first
  for (int i = 1; i < roi.size(); ++i) {
    EXPECT_EQ(roi.nodes[i].relevance,
              sampler.Relevance(after, fc, roi.nodes[i].id));
    if (i > 1) {
      EXPECT_GE(roi.nodes[i - 1].relevance, roi.nodes[i].relevance);
    }
    if (roi.nodes[i].id >= g.num_nodes()) minted.push_back(roi.nodes[i].id);
  }
  ASSERT_GE(minted.size(), 20u);
  for (size_t i = 0; i < minted.size(); ++i) {
    EXPECT_EQ(minted[i], g.num_nodes() + kMinted - 1 - static_cast<int>(i));
  }
}

TEST(RoiSamplerTest, UniformSamplerDistinctChildren) {
  HeteroGraph g = MakeStarGraph(15, 15);
  RoiSamplerOptions opt;
  opt.k = 10;
  opt.num_hops = 1;
  opt.kind = SamplerKind::kUniform;
  RoiSampler sampler(opt);
  Rng rng(8);
  auto fc = sampler.FocalVector(g, {0, 1});
  RoiSubgraph roi = sampler.Sample(g, 0, fc, &rng);
  std::set<NodeId> ids;
  for (int i = 1; i < roi.size(); ++i) ids.insert(roi.nodes[i].id);
  EXPECT_EQ(static_cast<int>(ids.size()), roi.size() - 1);
}

TEST(RoiSamplerTest, WeightedEdgeSamplerRuns) {
  HeteroGraph g = MakeStarGraph(10, 10);
  RoiSamplerOptions opt;
  opt.k = 5;
  opt.num_hops = 1;
  opt.kind = SamplerKind::kWeightedEdge;
  RoiSampler sampler(opt);
  Rng rng(9);
  auto fc = sampler.FocalVector(g, {0, 1});
  RoiSubgraph roi = sampler.Sample(g, 0, fc, &rng);
  EXPECT_GT(roi.size(), 1);
  EXPECT_LE(roi.size(), 6);
}

TEST(RoiSamplerTest, FocalVectorSumsContents) {
  HeteroGraph g = MakeStarGraph(2, 2);
  RoiSampler sampler({});
  auto fc = sampler.FocalVector(g, {0, 1});
  EXPECT_FLOAT_EQ(fc[0], 2.0f);  // (1,0) + (1,0)
  EXPECT_FLOAT_EQ(fc[1], 0.0f);
}

// --- Model -----------------------------------------------------------------------

data::RetrievalDataset TinyDataset() {
  data::TaobaoGeneratorOptions opt;
  opt.num_users = 60;
  opt.num_queries = 40;
  opt.num_items = 120;
  opt.num_sessions = 500;
  opt.num_categories = 6;
  opt.content_dim = 12;
  opt.seed = 11;
  return GenerateTaobaoDataset(opt);
}

ZoomerConfig TinyConfig() {
  ZoomerConfig cfg;
  cfg.hidden_dim = 8;
  cfg.sampler.k = 4;
  cfg.sampler.num_hops = 2;
  cfg.seed = 2;
  return cfg;
}

TEST(ZoomerModelTest, VariantNames) {
  EXPECT_EQ(ZoomerConfig::Full().VariantName(), "Zoomer");
  EXPECT_EQ(ZoomerConfig::Gcn().VariantName(), "GCN");
  ZoomerConfig fe;
  fe.use_semantic_attention = false;
  EXPECT_EQ(fe.VariantName(), "Zoomer-FE");
  ZoomerConfig fs;
  fs.use_edge_attention = false;
  EXPECT_EQ(fs.VariantName(), "Zoomer-FS");
  ZoomerConfig es;
  es.use_feature_projection = false;
  EXPECT_EQ(es.VariantName(), "Zoomer-ES");
}

TEST(ZoomerModelTest, EmbeddingShapes) {
  auto ds = TinyDataset();
  ZoomerModel model(&ds.graph, TinyConfig());
  Rng rng(3);
  auto ex = ds.train.front();
  auto uq = model.UserQueryEmbedding(ex.user, ex.query, &rng);
  EXPECT_EQ(uq.rows(), 1);
  EXPECT_EQ(uq.cols(), 8);
  auto it = model.ItemEmbedding(ex.item);
  EXPECT_EQ(it.rows(), 1);
  EXPECT_EQ(it.cols(), 8);
  auto logit = model.ScoreLogit(ex, &rng);
  EXPECT_EQ(logit.size(), 1);
  EXPECT_FALSE(std::isnan(logit.item()));
}

TEST(ZoomerModelTest, LogitBoundedByScale) {
  auto ds = TinyDataset();
  ZoomerModel model(&ds.graph, TinyConfig());
  Rng rng(4);
  for (int i = 0; i < 10; ++i) {
    const float logit = model.ScoreLogit(ds.train[i], &rng).item();
    EXPECT_LE(std::abs(logit), model.logit_scale() + 1e-4f);
  }
}

TEST(ZoomerModelTest, AllVariantsForwardCleanly) {
  auto ds = TinyDataset();
  for (auto cfg_fn : {&ZoomerConfig::Full, &ZoomerConfig::Gcn}) {
    ZoomerConfig cfg = cfg_fn();
    cfg.hidden_dim = 8;
    cfg.sampler.k = 3;
    ZoomerModel model(&ds.graph, cfg);
    Rng rng(5);
    EXPECT_FALSE(std::isnan(model.ScoreLogit(ds.train[0], &rng).item()));
  }
  for (int disable = 0; disable < 3; ++disable) {
    ZoomerConfig cfg = TinyConfig();
    if (disable == 0) cfg.use_feature_projection = false;
    if (disable == 1) cfg.use_edge_attention = false;
    if (disable == 2) cfg.use_semantic_attention = false;
    ZoomerModel model(&ds.graph, cfg);
    Rng rng(6);
    EXPECT_FALSE(std::isnan(model.ScoreLogit(ds.train[1], &rng).item()));
  }
}

TEST(ZoomerModelTest, ExplainEdgeWeightsNormalizedPerType) {
  auto ds = TinyDataset();
  ZoomerModel model(&ds.graph, TinyConfig());
  Rng rng(7);
  const auto& ex = ds.train.front();
  auto records = model.ExplainEdgeWeights(ex.query, ex.user, ex.query, &rng);
  ASSERT_FALSE(records.empty());
  // Weights of each type group sum to 1.
  double sums[graph::kNumNodeTypes] = {0, 0, 0};
  int counts[graph::kNumNodeTypes] = {0, 0, 0};
  for (const auto& r : records) {
    sums[static_cast<int>(r.type)] += r.weight;
    counts[static_cast<int>(r.type)] += 1;
    EXPECT_GE(r.weight, 0.0f);
    EXPECT_LE(r.weight, 1.0f);
  }
  for (int t = 0; t < graph::kNumNodeTypes; ++t) {
    if (counts[t] > 0) {
      EXPECT_NEAR(sums[t], 1.0, 1e-4);
    }
  }
}

TEST(ZoomerModelTest, ExplainEdgeWeightsAreTheAppliedWeightsOverRootChildren) {
  // In a 2-hop ROI the root attends over its children's aggregated
  // embeddings. The records come from that aggregation pass: they cover
  // exactly the root's sampled children, each type group sums to 1, and
  // with edge attention off they are the uniform mean-pooling weights.
  auto ds = TinyDataset();
  ZoomerConfig cfg = TinyConfig();
  ASSERT_EQ(cfg.sampler.num_hops, 2);
  for (bool edge_attention : {true, false}) {
    cfg.use_edge_attention = edge_attention;
    ZoomerModel model(&ds.graph, cfg);
    int second_hop_rois = 0;
    for (uint64_t e = 0; e < 20; ++e) {
      const auto& ex = ds.train[e];
      Rng rng(70 + e);
      Rng replay = rng;
      const auto records =
          model.ExplainEdgeWeights(ex.query, ex.user, ex.query, &rng);
      const auto fc =
          model.sampler().FocalVector(model.graph(), {ex.user, ex.query});
      const RoiSubgraph roi =
          model.sampler().Sample(model.graph(), ex.query, fc, &replay);
      std::multiset<NodeId> children, recorded;
      bool second_hop = false;
      for (int c = roi.children_begin[0]; c < roi.children_end[0]; ++c) {
        children.insert(roi.nodes[c].id);
        second_hop |= roi.children_begin[c] < roi.children_end[c];
      }
      second_hop_rois += second_hop ? 1 : 0;
      double sums[graph::kNumNodeTypes] = {0, 0, 0};
      int counts[graph::kNumNodeTypes] = {0, 0, 0};
      for (const auto& r : records) {
        recorded.insert(r.neighbor);
        EXPECT_EQ(r.type, model.graph().node_type(r.neighbor));
        sums[static_cast<int>(r.type)] += r.weight;
        counts[static_cast<int>(r.type)] += 1;
      }
      EXPECT_EQ(recorded, children) << "example " << e;
      for (int t = 0; t < graph::kNumNodeTypes; ++t) {
        if (counts[t] > 0) {
          EXPECT_NEAR(sums[t], 1.0, 1e-5);
        }
      }
      if (!edge_attention) {
        for (const auto& r : records) {
          EXPECT_EQ(r.weight,
                    1.0f / static_cast<float>(counts[static_cast<int>(r.type)]));
        }
      }
    }
    EXPECT_GT(second_hop_rois, 0) << "no sampled ROI reached the second hop";
  }
}

// --- Level-batched attention vs the per-node recursion ----------------------

using tensor::Tensor;

// The per-node recursion that the model's level-batched pass replaces,
// built from public ops over the model's own parameters: each ROI node runs
// its own feature-level chain (slot gather, focal score, softmax, pool,
// Affine, Tanh), and each parent its own edge and semantic attention.
class RecursiveReference {
 public:
  explicit RecursiveReference(const ZoomerModel& model)
      : model_(model), cfg_(model.config()), g_(model.graph()) {
    const std::vector<Tensor> p = model.Parameters();
    size_t i = 0;
    for (int t = 0; t < graph::kNumNodeTypes; ++t) {
      size_t slots = 0;
      for (NodeId v = 0; v < g_.num_nodes(); ++v) {
        if (static_cast<int>(g_.node_type(v)) == t) {
          slots = g_.slots(v).size();
          break;
        }
      }
      for (size_t s = 0; s < slots; ++s) tables_[t].push_back(p[i++]);
    }
    for (int t = 0; t < graph::kNumNodeTypes; ++t) {
      type_w_[t] = p[i++];
      type_b_[t] = p[i++];
    }
    for (int h = 0; h < cfg_.sampler.num_hops; ++h) {
      hop_w_.push_back(p[i++]);
      hop_b_.push_back(p[i++]);
    }
    a_ = p[i++];
    uq_w_ = p[i++];
    uq_b_ = p[i++];
    item_w_ = p[i++];
    item_b_ = p[i++];
    scale_ = p[i++];
    EXPECT_EQ(i, p.size());
  }

  Tensor Focal(NodeId user, NodeId query) const {
    const int tu = static_cast<int>(NodeType::kUser);
    const int tq = static_cast<int>(NodeType::kQuery);
    return Tanh(Add(Affine(MeanRows(Slots(user)), type_w_[tu], type_b_[tu]),
                    Affine(MeanRows(Slots(query)), type_w_[tq], type_b_[tq])));
  }

  Tensor FeatureLevel(NodeId node, const Tensor& focal) const {
    const Tensor h = Slots(node);
    Tensor z;
    if (cfg_.use_feature_projection && focal.defined()) {
      const float inv_sqrt_d =
          1.0f / std::sqrt(static_cast<float>(cfg_.hidden_dim));
      Tensor alpha = SoftmaxColumn(ScaledRowDots(h, focal, inv_sqrt_d));
      z = ColSum(Mul(h, alpha));
    } else {
      z = MeanRows(h);
    }
    const int t = static_cast<int>(g_.node_type(node));
    return Tanh(Affine(z, type_w_[t], type_b_[t]));
  }

  Tensor Aggregate(const RoiSubgraph& roi, int index, const Tensor& focal,
                   std::vector<EdgeAttentionRecord>* records) const {
    Tensor z_self = FeatureLevel(roi.nodes[index].id, focal);
    const int cb = roi.children_begin[index];
    const int ce = roi.children_end[index];
    if (cb >= ce) return z_self;
    std::array<std::vector<Tensor>, graph::kNumNodeTypes> by_type;
    std::array<std::vector<NodeId>, graph::kNumNodeTypes> ids_by_type;
    for (int c = cb; c < ce; ++c) {
      const int t = static_cast<int>(g_.node_type(roi.nodes[c].id));
      by_type[t].push_back(Aggregate(roi, c, focal, nullptr));
      ids_by_type[t].push_back(roi.nodes[c].id);
    }
    std::vector<Tensor> type_embeddings;
    for (int t = 0; t < graph::kNumNodeTypes; ++t) {
      if (by_type[t].empty()) continue;
      Tensor z_children = StackRows(by_type[t]);
      Tensor e_t, alpha;
      if (cfg_.use_edge_attention) {
        const Tensor parts[] = {z_self, z_children, focal};
        alpha = SoftmaxColumn(
            LeakyRelu(ConcatMatVec(parts, a_), cfg_.leaky_slope));
        e_t = WeightedSumRows(alpha, z_children);
      } else {
        e_t = MeanRows(z_children);
      }
      if (records != nullptr) {
        const int64_t k = z_children.rows();
        for (int64_t i = 0; i < k; ++i) {
          records->push_back({ids_by_type[t][i], static_cast<NodeType>(t),
                              alpha.defined() ? alpha.at(i, 0)
                                              : 1.0f / static_cast<float>(k)});
        }
      }
      type_embeddings.push_back(e_t);
    }
    Tensor h_agg;
    if (cfg_.use_semantic_attention) {
      std::vector<Tensor> cosines;
      for (const auto& e_t : type_embeddings) {
        cosines.push_back(RowwiseCosine(z_self, e_t));
      }
      Tensor weights = SoftmaxColumn(Scale(StackRows(cosines), 2.0f));
      for (size_t i = 0; i < type_embeddings.size(); ++i) {
        Tensor weighted =
            Mul(type_embeddings[i], Rows(weights, {static_cast<int64_t>(i)}));
        h_agg = h_agg.defined() ? Add(h_agg, weighted) : weighted;
      }
    } else {
      for (const auto& e_t : type_embeddings) {
        h_agg = h_agg.defined() ? Add(h_agg, e_t) : e_t;
      }
      h_agg = Scale(h_agg, 1.0f / static_cast<float>(type_embeddings.size()));
    }
    const int hop = std::min<int>(roi.nodes[index].depth,
                                  static_cast<int>(hop_w_.size()) - 1);
    Tensor mixed =
        Tanh(Affine(ConcatCols(z_self, h_agg), hop_w_[hop], hop_b_[hop]));
    return Add(mixed, h_agg);
  }

  Tensor UserQuery(NodeId user, NodeId query, Rng* rng) const {
    const RoiSampler& sampler = model_.sampler();
    const auto fc = sampler.FocalVector(g_, {user, query});
    const NodeId egos[2] = {user, query};
    const auto rois = sampler.SampleBatch(g_, egos, fc, rng);
    const Tensor focal = Focal(user, query);
    return Tanh(Affine(ConcatCols(Aggregate(rois[0], 0, focal, nullptr),
                                  Aggregate(rois[1], 0, focal, nullptr)),
                       uq_w_, uq_b_));
  }

  Tensor Item(NodeId item) const {
    return Tanh(Affine(FeatureLevel(item, Tensor()), item_w_, item_b_));
  }

  Tensor ScoreLogit(const data::Example& ex, Rng* rng) const {
    return Mul(RowwiseCosine(UserQuery(ex.user, ex.query, rng), Item(ex.item)),
               scale_);
  }

  Tensor Ego(NodeId ego, NodeId user, NodeId query, Rng* rng,
             std::vector<EdgeAttentionRecord>* records) const {
    const auto fc = model_.sampler().FocalVector(g_, {user, query});
    const RoiSubgraph roi = model_.sampler().Sample(g_, ego, fc, rng);
    return Aggregate(roi, 0, Focal(user, query), records);
  }

 private:
  Tensor Slots(NodeId node) const {
    const int t = static_cast<int>(g_.node_type(node));
    std::vector<Tensor> rows;
    const auto s = g_.slots(node);
    for (size_t i = 0; i < s.size(); ++i) {
      rows.push_back(Rows(tables_[t][i], {s[i]}));
    }
    return StackRows(rows);
  }

  const ZoomerModel& model_;
  ZoomerConfig cfg_;
  const HeteroGraph& g_;
  std::array<std::vector<Tensor>, graph::kNumNodeTypes> tables_;
  std::array<Tensor, graph::kNumNodeTypes> type_w_, type_b_;
  std::vector<Tensor> hop_w_, hop_b_;
  Tensor a_, uq_w_, uq_b_, item_w_, item_b_, scale_;
};

std::vector<uint32_t> Bits(const Tensor& t) {
  std::vector<uint32_t> bits(static_cast<size_t>(t.size()));
  std::memcpy(bits.data(), t.data(), bits.size() * sizeof(uint32_t));
  return bits;
}

// The five Fig. 8 variants on the tiny config, plus the full model with a
// node budget that cuts ROIs short (leaves above the last hop, parents with
// children of one type only).
std::vector<ZoomerConfig> AllVariantConfigs() {
  std::vector<ZoomerConfig> configs;
  for (int v = 0; v < 6; ++v) {
    ZoomerConfig cfg = v == 4 ? ZoomerConfig::Gcn() : TinyConfig();
    cfg.hidden_dim = 8;
    cfg.sampler.k = 4;
    cfg.sampler.num_hops = 2;
    cfg.seed = 2 + v;
    if (v == 1) cfg.use_semantic_attention = false;  // Zoomer-FE
    if (v == 2) cfg.use_edge_attention = false;      // Zoomer-FS
    if (v == 3) cfg.use_feature_projection = false;  // Zoomer-ES
    if (v == 5) cfg.sampler.max_nodes = 7;
    configs.push_back(cfg);
  }
  return configs;
}

TEST(ZoomerModelTest, BatchedForwardEqualsPerNodeRecursionBitForBit) {
  auto ds = TinyDataset();
  for (const ZoomerConfig& cfg : AllVariantConfigs()) {
    ZoomerModel model(&ds.graph, cfg);
    RecursiveReference ref(model);
    for (uint64_t e = 0; e < 24; ++e) {
      SCOPED_TRACE(cfg.VariantName() + " max_nodes " +
                   std::to_string(cfg.sampler.max_nodes) + " example " +
                   std::to_string(e));
      const auto& ex = ds.train[e];
      Rng r1(100 + e), r2(100 + e);
      EXPECT_EQ(Bits(model.ScoreLogit(ex, &r1)), Bits(ref.ScoreLogit(ex, &r2)));
      EXPECT_EQ(Bits(model.UserQueryEmbedding(ex.user, ex.query, &r1)),
                Bits(ref.UserQuery(ex.user, ex.query, &r2)));
      for (NodeId ego : {ex.user, ex.query, ex.item}) {
        std::vector<EdgeAttentionRecord> want;
        EXPECT_EQ(Bits(model.EgoEmbedding(ego, ex.user, ex.query, &r1)),
                  Bits(ref.Ego(ego, ex.user, ex.query, &r2, &want)));
        const auto got = model.ExplainEdgeWeights(ego, ex.user, ex.query, &r1);
        ref.Ego(ego, ex.user, ex.query, &r2, nullptr);
        ASSERT_EQ(got.size(), want.size());
        for (size_t i = 0; i < got.size(); ++i) {
          EXPECT_EQ(got[i].neighbor, want[i].neighbor);
          EXPECT_EQ(got[i].type, want[i].type);
          EXPECT_EQ(got[i].weight, want[i].weight);
        }
      }
    }
  }
}

TEST(ZoomerModelTest, ScoreLogitGradientsMatchFiniteDifferences) {
  // Central differences of the logit for sampled entries of every
  // parameter (the slot tables, type maps, hop combines, edge attention
  // vector, towers and scale) in each variant: the entry with the largest
  // analytic gradient and two random ones.
  auto ds = TinyDataset();
  for (ZoomerConfig cfg : AllVariantConfigs()) {
    if (cfg.sampler.max_nodes != ZoomerConfig().sampler.max_nodes) continue;
    cfg.hidden_dim = 4;
    cfg.sampler.k = 3;
    ZoomerModel model(&ds.graph, cfg);
    std::vector<Tensor> params = model.Parameters();
    // Scaled away from initialization, where the towers' outputs are short
    // (the logit is steep) and attention is near uniform (its gradients
    // sit in float noise).
    for (Tensor& p : params) {
      for (int64_t i = 0; i < p.size(); ++i) p.data()[i] *= 3.0f;
    }
    Rng pick(31);
    for (int e = 0; e < 3; ++e) {
      const auto& ex = ds.train[e];
      auto logit = [&] {
        Rng rng(5);
        return model.ScoreLogit(ex, &rng);
      };
      for (Tensor& p : params) p.ZeroGrad();
      logit().Backward();
      int checked_nonzero = 0;
      for (size_t pi = 0; pi < params.size(); ++pi) {
        Tensor& p = params[pi];
        int64_t largest = 0;
        for (int64_t i = 1; i < p.size(); ++i) {
          if (std::abs(p.grad_data()[i]) > std::abs(p.grad_data()[largest])) {
            largest = i;
          }
        }
        const int64_t entries[] = {largest,
                                   static_cast<int64_t>(pick.Uniform(p.size())),
                                   static_cast<int64_t>(pick.Uniform(p.size()))};
        for (int64_t i : entries) {
          const float analytic = p.grad_data()[i];
          const float orig = p.data()[i];
          // The logit is steep along some parameters (gradients up to
          // ~50) and flat along others (~1e-1 for the edge attention
          // vector): no one step keeps every difference quotient both in
          // its linear range and out of float noise. The entry passes if
          // the quotient agrees with the analytic value at one of a range
          // of steps; a wrong gradient agrees at none.
          float best = std::numeric_limits<float>::infinity();
          float best_numeric = 0.0f;
          for (float h : {1e-4f, 3e-4f, 1e-3f, 3e-3f, 1e-2f, 3e-2f}) {
            p.data()[i] = orig + h;
            const float fp = logit().item();
            p.data()[i] = orig - h;
            const float fm = logit().item();
            p.data()[i] = orig;
            const float numeric = (fp - fm) / (2.0f * h);
            const float error =
                std::abs(analytic - numeric) /
                std::max({std::abs(numeric), std::abs(analytic), 1e-3f});
            if (error < best) {
              best = error;
              best_numeric = numeric;
            }
          }
          EXPECT_LE(best, 2e-2f)
              << cfg.VariantName() << " example " << e << " parameter " << pi
              << " (" << p.ShapeString() << ") entry " << i << ": analytic "
              << analytic << ", numeric " << best_numeric;
          checked_nonzero += analytic != 0.0f ? 1 : 0;
        }
      }
      EXPECT_GT(checked_nonzero, static_cast<int>(params.size()))
          << cfg.VariantName() << ": most sampled gradients are zero";
    }
  }
}

TEST(ZoomerModelTest, DifferentFocalsGiveDifferentEmbeddings) {
  // The core ROI claim: one ego node, multiple focal-dependent embeddings.
  auto ds = TinyDataset();
  ZoomerModel model(&ds.graph, TinyConfig());
  Rng rng(8);
  // Find a query that appears with two different users.
  graph::NodeId q = ds.train.front().query;
  graph::NodeId u1 = ds.train.front().user, u2 = -1;
  for (const auto& ex : ds.train) {
    if (ex.query == q && ex.user != u1) {
      u2 = ex.user;
      break;
    }
  }
  ASSERT_NE(u2, -1);
  auto e1 = model.EgoEmbedding(q, u1, q, &rng);
  auto e2 = model.EgoEmbedding(q, u2, q, &rng);
  float diff = 0.0f;
  for (int64_t i = 0; i < e1.cols(); ++i) {
    diff += std::abs(e1.at(0, i) - e2.at(0, i));
  }
  EXPECT_GT(diff, 1e-4f);
}

TEST(ZoomerTrainerTest, TrainingImprovesAucAboveChance) {
  auto ds = TinyDataset();
  ZoomerModel model(&ds.graph, TinyConfig());
  TrainOptions topt;
  topt.epochs = 5;
  topt.batch_size = 64;
  topt.learning_rate = 0.01f;
  topt.max_examples_per_epoch = 1500;
  ZoomerTrainer trainer(&model, topt);
  auto result = trainer.Train(ds);
  EXPECT_EQ(result.epochs.size(), 5u);
  EXPECT_GT(result.examples_seen, 0);
  auto eval = trainer.Evaluate(ds, 800);
  EXPECT_GT(eval.auc, 0.60) << "Zoomer failed to learn planted structure";
  EXPECT_GE(eval.mae, 0.0);
  EXPECT_GE(eval.rmse, eval.mae);
}

TEST(ZoomerTrainerTest, TrainIsBitDeterministic) {
  // Two runs from the same seed record, backpropagate and free the same
  // graphs (the second on reused pooled blocks) and must agree bit for bit.
  auto ds = TinyDataset();
  auto run = [&ds](std::vector<uint32_t>* bits) {
    ZoomerModel model(&ds.graph, TinyConfig());
    TrainOptions topt;
    topt.epochs = 2;
    topt.batch_size = 32;
    topt.max_examples_per_epoch = 300;
    ZoomerTrainer trainer(&model, topt);
    trainer.Train(ds);
    for (const auto& t : model.Parameters()) {
      for (int64_t i = 0; i < t.size(); ++i) {
        uint32_t u;
        std::memcpy(&u, t.data() + i, sizeof(u));
        bits->push_back(u);
      }
    }
    return trainer.Evaluate(ds, 300).auc;
  };
  std::vector<uint32_t> first, second;
  const double auc_first = run(&first);
  const double auc_second = run(&second);
  ASSERT_FALSE(first.empty());
  EXPECT_EQ(first, second);
  EXPECT_EQ(auc_first, auc_second);
}

TEST(ZoomerTrainerTest, LossDecreasesOverEpochs) {
  auto ds = TinyDataset();
  ZoomerModel model(&ds.graph, TinyConfig());
  TrainOptions topt;
  topt.epochs = 3;
  topt.batch_size = 64;
  topt.max_examples_per_epoch = 800;
  ZoomerTrainer trainer(&model, topt);
  auto result = trainer.Train(ds);
  EXPECT_LT(result.epochs.back().mean_loss, result.epochs.front().mean_loss);
}

TEST(ZoomerTrainerTest, HitRateMonotoneInK) {
  auto ds = TinyDataset();
  ZoomerModel model(&ds.graph, TinyConfig());
  TrainOptions topt;
  topt.epochs = 1;
  topt.max_examples_per_epoch = 600;
  ZoomerTrainer trainer(&model, topt);
  trainer.Train(ds);
  EvalResult eval;
  trainer.EvaluateHitRate(ds, &eval, /*max_positives=*/60);
  EXPECT_LE(eval.hitrate_at[0], eval.hitrate_at[1]);
  EXPECT_LE(eval.hitrate_at[1], eval.hitrate_at[2]);
  EXPECT_GT(eval.hitrate_at[2], 0.0);  // pool of 120 items, K=300 covers all
}

TEST(ZoomerTrainerTest, TrainUntilAucStops) {
  auto ds = TinyDataset();
  ZoomerModel model(&ds.graph, TinyConfig());
  TrainOptions topt;
  topt.max_examples_per_epoch = 600;
  ZoomerTrainer trainer(&model, topt);
  const double secs = trainer.TrainUntilAuc(ds, /*target_auc=*/0.55,
                                            /*max_epochs=*/4);
  EXPECT_GT(secs, 0.0);
}

}  // namespace
}  // namespace core
}  // namespace zoomer
