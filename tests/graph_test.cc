// Tests for the graph substrate: alias tables, MinHash/LSH, heterogeneous
// CSR storage, and log-to-graph construction rules from paper Sec. II.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <set>
#include <vector>

#include "common/random.h"
#include "graph/alias_table.h"
#include "graph/graph_builder.h"
#include "graph/graph_view.h"
#include "graph/hetero_graph.h"
#include "graph/minhash.h"
#include "graph/session_log.h"

namespace zoomer {
namespace graph {
namespace {

// --- AliasTable --------------------------------------------------------------

class AliasTableDistributionTest
    : public ::testing::TestWithParam<std::vector<double>> {};

TEST_P(AliasTableDistributionTest, EmpiricalMatchesWeights) {
  const auto weights = GetParam();
  AliasTable table(weights);
  Rng rng(101);
  const int n = 200000;
  std::vector<int> counts(weights.size(), 0);
  for (int i = 0; i < n; ++i) ++counts[table.Sample(&rng)];
  double total = 0.0;
  for (double w : weights) total += w;
  for (size_t i = 0; i < weights.size(); ++i) {
    const double expected = weights[i] / total;
    const double observed = counts[i] / double(n);
    EXPECT_NEAR(observed, expected, 0.01)
        << "bucket " << i << " of " << weights.size();
  }
}

INSTANTIATE_TEST_SUITE_P(
    WeightVectors, AliasTableDistributionTest,
    ::testing::Values(std::vector<double>{1.0},
                      std::vector<double>{1.0, 1.0},
                      std::vector<double>{1.0, 2.0, 3.0, 4.0},
                      std::vector<double>{0.0, 1.0, 0.0, 3.0},
                      std::vector<double>{10.0, 0.1, 0.1, 0.1, 0.1},
                      std::vector<double>{5.0, 5.0, 5.0, 5.0, 5.0, 5.0, 5.0,
                                          5.0}));

TEST(AliasTableTest, ZeroWeightNeverSampled) {
  AliasTable table(std::vector<double>{0.0, 1.0, 0.0});
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(table.Sample(&rng), 1u);
}

TEST(AliasTableTest, AllZeroFallsBackToUniform) {
  AliasTable table(std::vector<double>{0.0, 0.0, 0.0, 0.0});
  Rng rng(5);
  std::set<size_t> seen;
  for (int i = 0; i < 200; ++i) seen.insert(table.Sample(&rng));
  EXPECT_EQ(seen.size(), 4u);
}

TEST(AliasTableTest, EmptyTableProperties) {
  AliasTable table;
  EXPECT_TRUE(table.empty());
  EXPECT_EQ(table.size(), 0u);
}

TEST(AliasTableTest, SampleBatchMatchesRepeatedSampleBitIdentical) {
  // The batched (SIMD) resolve must consume the RNG exactly like repeated
  // single draws and land on the same buckets — batch sizes straddle the
  // internal chunk width to cover full-chunk, partial-tail, and sub-chunk
  // paths.
  AliasTable table(std::vector<double>{1.0, 2.0, 0.0, 3.5, 0.25, 7.0, 1.0});
  for (const size_t batch : {1u, 5u, 63u, 64u, 65u, 200u}) {
    Rng single(915 + batch), batched(915 + batch);
    std::vector<uint32_t> want(batch);
    for (size_t i = 0; i < batch; ++i) {
      want[i] = static_cast<uint32_t>(table.Sample(&single));
    }
    std::vector<uint32_t> got(batch);
    table.SampleBatch(&batched, {got.data(), got.size()});
    EXPECT_EQ(got, want) << "batch " << batch;
    // Both paths drained the same number of words.
    EXPECT_EQ(single.NextUint64(), batched.NextUint64());
  }
}

TEST(AliasTableTest, SampleBatchEmpiricalMatchesWeights) {
  const std::vector<double> weights = {1.0, 2.0, 3.0, 4.0};
  AliasTable table(weights);
  Rng rng(131);
  const int n = 200000;
  std::vector<uint32_t> out(n);
  table.SampleBatch(&rng, {out.data(), out.size()});
  std::vector<int> counts(weights.size(), 0);
  for (uint32_t v : out) ++counts[v];
  for (size_t i = 0; i < weights.size(); ++i) {
    EXPECT_NEAR(counts[i] / double(n), weights[i] / 10.0, 0.01);
  }
}

// --- MinHash ------------------------------------------------------------------

class MinHashAccuracyTest : public ::testing::TestWithParam<double> {};

TEST_P(MinHashAccuracyTest, EstimateTracksExactJaccard) {
  const double overlap = GetParam();
  Rng rng(7);
  // Build two sets with controlled overlap out of a 200-token universe.
  const int set_size = 100;
  std::vector<uint64_t> a, b;
  const int shared = static_cast<int>(overlap * set_size);
  for (int i = 0; i < shared; ++i) {
    a.push_back(i);
    b.push_back(i);
  }
  for (int i = shared; i < set_size; ++i) {
    a.push_back(1000 + i);
    b.push_back(2000 + i);
  }
  MinHasher hasher(256);
  const double exact = MinHasher::ExactJaccard(a, b);
  const double est =
      MinHasher::EstimateJaccard(hasher.Signature(a), hasher.Signature(b));
  EXPECT_NEAR(est, exact, 0.08) << "overlap " << overlap;
}

INSTANTIATE_TEST_SUITE_P(OverlapLevels, MinHashAccuracyTest,
                         ::testing::Values(0.0, 0.2, 0.5, 0.8, 1.0));

TEST(MinHashTest, IdenticalSetsHaveSimilarityOne) {
  MinHasher hasher(64);
  std::vector<uint64_t> s = {1, 5, 9, 42};
  EXPECT_DOUBLE_EQ(
      MinHasher::EstimateJaccard(hasher.Signature(s), hasher.Signature(s)),
      1.0);
}

TEST(MinHashTest, ExactJaccardEdgeCases) {
  EXPECT_DOUBLE_EQ(MinHasher::ExactJaccard({}, {}), 0.0);
  EXPECT_DOUBLE_EQ(MinHasher::ExactJaccard({1}, {}), 0.0);
  EXPECT_DOUBLE_EQ(MinHasher::ExactJaccard({1, 2}, {1, 2}), 1.0);
  EXPECT_DOUBLE_EQ(MinHasher::ExactJaccard({1, 2}, {2, 3}), 1.0 / 3.0);
}

TEST(MinHashLshTest, SimilarSetsBecomeCandidates) {
  MinHasher hasher(32);
  MinHashLsh lsh(8, 4);
  std::vector<uint64_t> a = {1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<uint64_t> b = {1, 2, 3, 4, 5, 6, 7, 9};  // high overlap
  std::vector<uint64_t> c = {100, 200, 300, 400, 500, 600, 700, 800};
  lsh.Insert(0, hasher.Signature(a));
  lsh.Insert(1, hasher.Signature(b));
  lsh.Insert(2, hasher.Signature(c));
  auto pairs = lsh.CandidatePairs();
  const bool has_ab =
      std::find(pairs.begin(), pairs.end(), std::make_pair(int64_t{0}, int64_t{1})) !=
      pairs.end();
  EXPECT_TRUE(has_ab);
  const bool has_ac =
      std::find(pairs.begin(), pairs.end(), std::make_pair(int64_t{0}, int64_t{2})) !=
      pairs.end();
  EXPECT_FALSE(has_ac);
}

// --- HeteroGraph ---------------------------------------------------------------

HeteroGraph MakeTriangleGraph() {
  // user0 -- query1 -- item2, plus user0 -- item2.
  HeteroGraphBuilder b(2);
  b.AddNode(NodeType::kUser, {1.0f, 0.0f}, {0});
  b.AddNode(NodeType::kQuery, {0.0f, 1.0f}, {1, 2});
  b.AddNode(NodeType::kItem, {0.5f, 0.5f}, {3, 4, 5});
  EXPECT_TRUE(b.AddEdge(0, 1, RelationKind::kClick, 2.0f).ok());
  EXPECT_TRUE(b.AddEdge(1, 2, RelationKind::kClick, 1.0f).ok());
  EXPECT_TRUE(b.AddEdge(0, 2, RelationKind::kSession, 3.0f).ok());
  return b.Build();
}

TEST(HeteroGraphTest, BasicCounts) {
  HeteroGraph g = MakeTriangleGraph();
  EXPECT_EQ(g.num_nodes(), 3);
  EXPECT_EQ(g.num_edges(), 6);  // 3 undirected edges = 6 half-edges
  EXPECT_EQ(g.num_nodes_of_type(NodeType::kUser), 1);
  EXPECT_EQ(g.num_nodes_of_type(NodeType::kQuery), 1);
  EXPECT_EQ(g.num_nodes_of_type(NodeType::kItem), 1);
  EXPECT_EQ(g.content_dim(), 2);
}

TEST(HeteroGraphTest, NodeAccessors) {
  HeteroGraph g = MakeTriangleGraph();
  EXPECT_EQ(g.node_type(0), NodeType::kUser);
  EXPECT_EQ(g.node_type(2), NodeType::kItem);
  EXPECT_FLOAT_EQ(g.content(1)[1], 1.0f);
  EXPECT_EQ(g.slots(2).size(), 3u);
  EXPECT_EQ(g.slots(2)[0], 3);
}

TEST(HeteroGraphTest, NeighborBlocksSortedByType) {
  HeteroGraph g = MakeTriangleGraph();
  EXPECT_EQ(g.degree(0), 2);
  auto ids = g.neighbor_ids(0);
  // Neighbors of user0: query1 (type 1), item2 (type 2) in type order.
  EXPECT_EQ(ids[0], 1);
  EXPECT_EQ(ids[1], 2);
  auto q_nbrs = g.NeighborsOfType(0, NodeType::kQuery);
  ASSERT_EQ(q_nbrs.size(), 1);
  EXPECT_EQ(q_nbrs.ids[0], 1);
  EXPECT_TRUE(g.NeighborsOfType(0, NodeType::kUser).empty());
}

TEST(HeteroGraphTest, EdgeWeightsAndKindsPreserved) {
  HeteroGraph g = MakeTriangleGraph();
  auto w = g.neighbor_weights(0);
  auto k = g.neighbor_kinds(0);
  EXPECT_FLOAT_EQ(w[0], 2.0f);  // edge to query1
  EXPECT_EQ(k[0], RelationKind::kClick);
  EXPECT_FLOAT_EQ(w[1], 3.0f);  // edge to item2
  EXPECT_EQ(k[1], RelationKind::kSession);
}

TEST(HeteroGraphTest, WeightedSamplingFollowsAliasTable) {
  HeteroGraph g = MakeTriangleGraph();
  Rng rng(11);
  int to_query = 0, to_item = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    NodeId nb = g.SampleNeighbor(0, &rng);
    (nb == 1 ? to_query : to_item) += 1;
  }
  // weights 2:3
  EXPECT_NEAR(to_query / double(n), 0.4, 0.02);
  EXPECT_NEAR(to_item / double(n), 0.6, 0.02);
}

TEST(HeteroGraphTest, SampleNeighborIsolatedNodeReturnsMinusOne) {
  HeteroGraphBuilder b(1);
  b.AddNode(NodeType::kUser, {0.0f}, {});
  HeteroGraph g = b.Build();
  Rng rng(1);
  EXPECT_EQ(g.SampleNeighbor(0, &rng), -1);
}

TEST(HeteroGraphBuilderTest, RejectsBadEdges) {
  HeteroGraphBuilder b(1);
  b.AddNode(NodeType::kUser, {0.0f}, {});
  b.AddNode(NodeType::kItem, {0.0f}, {});
  EXPECT_FALSE(b.AddEdge(0, 0, RelationKind::kClick).ok());   // self loop
  EXPECT_FALSE(b.AddEdge(0, 5, RelationKind::kClick).ok());   // out of range
  EXPECT_FALSE(b.AddEdge(-1, 1, RelationKind::kClick).ok());  // negative
  EXPECT_FALSE(b.AddEdge(0, 1, RelationKind::kClick, -2.0f).ok());  // neg w
  // Non-finite weights: NaN would abort the alias build, +inf would make
  // every other neighbor of the node undrawable.
  constexpr float kInf = std::numeric_limits<float>::infinity();
  EXPECT_FALSE(b.AddEdge(0, 1, RelationKind::kClick, std::nanf("")).ok());
  EXPECT_FALSE(b.AddEdge(0, 1, RelationKind::kClick, kInf).ok());
  EXPECT_FALSE(b.AddEdge(0, 1, RelationKind::kClick, -kInf).ok());
  EXPECT_EQ(b.num_edges_added(), 0);
  EXPECT_TRUE(b.AddEdge(0, 1, RelationKind::kClick, 1.0f).ok());
}

TEST(HeteroGraphTest, MemoryBytesPositiveAndDebugString) {
  HeteroGraph g = MakeTriangleGraph();
  EXPECT_GT(g.MemoryBytes(), 0u);
  EXPECT_NE(g.DebugString().find("nodes=3"), std::string::npos);
}

TEST(HeteroGraphTest, BuilderEmitsOneSegmentAtTheNextPowerOfTwo) {
  HeteroGraph g = MakeTriangleGraph();
  EXPECT_EQ(g.num_segments(), 1);
  EXPECT_EQ(g.segment_span(), 4);
  EXPECT_EQ(g.segment(0).first_node(), 0);
  EXPECT_EQ(g.segment(0).num_rows(), 3);
  EXPECT_EQ(g.generation_of(2), 1u);
  EXPECT_EQ(g.generation_of(4), 0u);  // beyond the last segment

  const HeteroGraph empty = HeteroGraphBuilder(2).Build();
  EXPECT_EQ(empty.num_nodes(), 0);
  EXPECT_EQ(empty.num_edges(), 0);
  EXPECT_EQ(empty.num_segments(), 0);
  EXPECT_EQ(empty.content_dim(), 2);
}

// --- Graph construction from logs ---------------------------------------------

std::vector<NodeSpec> MakeLogNodes() {
  std::vector<NodeSpec> nodes;
  // 2 users, 2 queries, 3 items. content_dim 2.
  for (int i = 0; i < 2; ++i) {
    nodes.push_back({NodeType::kUser, {1.0f, 0.0f}, {i}, {}});
  }
  for (int i = 0; i < 2; ++i) {
    nodes.push_back(
        {NodeType::kQuery, {0.0f, 1.0f}, {i}, {1ull, 2ull, 3ull, 100ull + static_cast<uint64_t>(i)}});
  }
  for (int i = 0; i < 3; ++i) {
    nodes.push_back(
        {NodeType::kItem, {0.5f, 0.5f}, {i}, {1ull, 2ull, 3ull, 200ull + static_cast<uint64_t>(i)}});
  }
  return nodes;
}

bool HasEdge(const HeteroGraph& g, NodeId a, NodeId b, RelationKind kind) {
  auto ids = g.neighbor_ids(a);
  auto kinds = g.neighbor_kinds(a);
  for (size_t i = 0; i < ids.size(); ++i) {
    if (ids[i] == b && kinds[i] == kind) return true;
  }
  return false;
}

TEST(GraphBuilderTest, InteractionAndSessionEdgesFollowPaperRules) {
  auto nodes = MakeLogNodes();
  SessionLog log;
  // user0 searched query2 (node id 2), clicked items 4,5 (node ids 4,5).
  log.push_back({0, 2, {4, 5}, 10});
  GraphBuildOptions opt;
  opt.add_similarity_edges = false;
  auto result = BuildGraphFromLogs(nodes, log, opt);
  ASSERT_TRUE(result.ok());
  const HeteroGraph& g = result.value();
  EXPECT_TRUE(HasEdge(g, 0, 2, RelationKind::kClick));  // user-query
  EXPECT_TRUE(HasEdge(g, 4, 2, RelationKind::kClick));  // item-query
  EXPECT_TRUE(HasEdge(g, 5, 2, RelationKind::kClick));
  EXPECT_TRUE(HasEdge(g, 0, 4, RelationKind::kClick));  // user-item
  EXPECT_TRUE(HasEdge(g, 4, 5, RelationKind::kSession));  // adjacent clicks
}

TEST(GraphBuilderTest, DuplicateInteractionsCoalesceIntoWeight) {
  auto nodes = MakeLogNodes();
  SessionLog log;
  log.push_back({0, 2, {4}, 1});
  log.push_back({0, 2, {4}, 2});
  log.push_back({0, 2, {4}, 3});
  GraphBuildOptions opt;
  opt.add_similarity_edges = false;
  auto result = BuildGraphFromLogs(nodes, log, opt);
  ASSERT_TRUE(result.ok());
  const HeteroGraph& g = result.value();
  auto ids = g.neighbor_ids(0);
  auto w = g.neighbor_weights(0);
  bool found = false;
  for (size_t i = 0; i < ids.size(); ++i) {
    if (ids[i] == 2) {
      EXPECT_FLOAT_EQ(w[i], 3.0f);  // 3 repeated user-query interactions
      found = true;
    }
  }
  EXPECT_TRUE(found);

  // Without coalescing the duplicates collapse to one edge of the first
  // weight.
  opt.coalesce_duplicate_edges = false;
  auto single = BuildGraphFromLogs(nodes, log, opt);
  ASSERT_TRUE(single.ok());
  EXPECT_EQ(single.value().num_edges(), g.num_edges());
  const auto single_ids = single.value().neighbor_ids(0);
  const auto single_w = single.value().neighbor_weights(0);
  for (size_t i = 0; i < single_ids.size(); ++i) {
    if (single_ids[i] == 2) {
      EXPECT_FLOAT_EQ(single_w[i], 1.0f);
    }
  }
}

TEST(GraphBuilderTest, SimilarityEdgesConnectOverlappingTokenSets) {
  auto nodes = MakeLogNodes();
  SessionLog log;
  log.push_back({0, 2, {4}, 1});
  GraphBuildOptions opt;
  opt.add_similarity_edges = true;
  opt.similarity_threshold = 0.2;
  auto result = BuildGraphFromLogs(nodes, log, opt);
  ASSERT_TRUE(result.ok());
  const HeteroGraph& g = result.value();
  // Queries/items share tokens {1,2,3}; expect at least one similarity edge.
  int64_t sim_edges = 0;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    auto kinds = g.neighbor_kinds(v);
    for (auto k : kinds) {
      if (k == RelationKind::kSimilarity) ++sim_edges;
    }
  }
  EXPECT_GT(sim_edges, 0);
  // Users never receive similarity edges.
  for (NodeId u = 0; u < 2; ++u) {
    for (auto k : g.neighbor_kinds(u)) {
      EXPECT_NE(k, RelationKind::kSimilarity);
    }
  }
}

TEST(GraphBuilderTest, TimeWindowFiltersLateSessions) {
  auto nodes = MakeLogNodes();
  SessionLog log;
  log.push_back({0, 2, {4}, 100});
  log.push_back({1, 3, {5}, 5000});
  GraphBuildOptions opt;
  opt.add_similarity_edges = false;
  opt.time_window_seconds = 1000;
  auto result = BuildGraphFromLogs(nodes, log, opt);
  ASSERT_TRUE(result.ok());
  const HeteroGraph& g = result.value();
  EXPECT_TRUE(HasEdge(g, 0, 2, RelationKind::kClick));
  EXPECT_FALSE(HasEdge(g, 1, 3, RelationKind::kClick));  // outside window
}

TEST(GraphBuilderTest, RejectsInvalidLogs) {
  auto nodes = MakeLogNodes();
  SessionLog log;
  log.push_back({0, 99, {4}, 1});  // unknown query id
  GraphBuildOptions opt;
  EXPECT_FALSE(BuildGraphFromLogs(nodes, log, opt).ok());
  SessionLog log2;
  log2.push_back({0, 2, {99}, 1});  // unknown item id
  EXPECT_FALSE(BuildGraphFromLogs(nodes, log2, opt).ok());
  EXPECT_FALSE(BuildGraphFromLogs({}, {}, opt).ok());  // empty nodes
}

// --- Segments (repartitioning, the incremental-compaction base) ------------

/// A graph wide enough to span several 4-row segments, with deterministic
/// structure: users 0..3, queries 4..7, items 8..15, edges wired so every
/// row has a non-trivial typed block; `isolated` more items follow with no
/// edges.
HeteroGraph MakeWideGraph(int isolated = 0) {
  HeteroGraphBuilder b(2);
  for (int i = 0; i < 4; ++i) {
    b.AddNode(NodeType::kUser, {1.0f * i, 0.0f}, {i});
  }
  for (int i = 0; i < 4; ++i) {
    b.AddNode(NodeType::kQuery, {0.0f, 1.0f * i}, {10 + i, 20 + i});
  }
  for (int i = 0; i < 8 + isolated; ++i) {
    b.AddNode(NodeType::kItem, {0.5f, 0.5f * i}, {30 + i});
  }
  for (NodeId u = 0; u < 4; ++u) {
    EXPECT_TRUE(b.AddEdge(u, 4 + u, RelationKind::kClick, 1.0f + u).ok());
  }
  for (NodeId q = 4; q < 8; ++q) {
    for (NodeId it = 8; it < 16; it += 2) {
      EXPECT_TRUE(
          b.AddEdge(q, it, RelationKind::kClick, 0.5f * (it - 7)).ok());
    }
  }
  EXPECT_TRUE(b.AddEdge(8, 10, RelationKind::kSession, 2.0f).ok());
  return b.Build();
}

void ExpectSameBlock(const NeighborBlock& a, const NeighborBlock& b) {
  ASSERT_EQ(a.size(), b.size());
  for (int64_t i = 0; i < b.size(); ++i) {
    EXPECT_EQ(a.ids[i], b.ids[i]);
    EXPECT_EQ(a.weights[i], b.weights[i]);
    EXPECT_EQ(a.kinds[i], b.kinds[i]);
  }
}

/// Every accessor, typed block and draw sequence of `part` equals `src`'s.
void ExpectSameGraph(const HeteroGraph& part, const HeteroGraph& src) {
  EXPECT_EQ(part.num_nodes(), src.num_nodes());
  EXPECT_EQ(part.num_edges(), src.num_edges());
  EXPECT_EQ(part.content_dim(), src.content_dim());
  for (int t = 0; t < kNumNodeTypes; ++t) {
    EXPECT_EQ(part.num_nodes_of_type(static_cast<NodeType>(t)),
              src.num_nodes_of_type(static_cast<NodeType>(t)));
  }
  NeighborScratch s1, s2;
  for (NodeId v = 0; v < src.num_nodes(); ++v) {
    EXPECT_EQ(part.node_type(v), src.node_type(v));
    EXPECT_EQ(part.degree(v), src.degree(v));
    for (int d = 0; d < src.content_dim(); ++d) {
      EXPECT_EQ(part.content(v)[d], src.content(v)[d]);
    }
    ASSERT_EQ(part.slots(v).size(), src.slots(v).size());
    for (size_t i = 0; i < src.slots(v).size(); ++i) {
      EXPECT_EQ(part.slots(v)[i], src.slots(v)[i]);
    }
    ExpectSameBlock(part.Neighbors(v, &s1), src.Neighbors(v, &s2));
    ExpectSameBlock({part.neighbor_ids(v), part.neighbor_weights(v),
                     part.neighbor_kinds(v)},
                    src.Neighbors(v, &s2));
    for (int t = 0; t < kNumNodeTypes; ++t) {
      const auto type = static_cast<NodeType>(t);
      // The typed block is the matching slice of the row's parallel spans.
      const NeighborBlock typed = part.NeighborsOfType(v, type);
      ExpectSameBlock(typed, src.NeighborsOfType(v, type));
      ExpectSameBlock(part.NeighborsOfType(v, type, &s1), typed);
      for (int64_t i = 0; i < typed.size(); ++i) {
        EXPECT_EQ(part.node_type(typed.ids[i]), type);
      }
    }
  }
  // Identical alias layouts + identical seeds => identical draws, batched
  // or one at a time, and the batch consumes the Rng like the loop.
  std::vector<NodeId> nodes;
  for (NodeId v = 0; v < src.num_nodes(); ++v) nodes.push_back(v);
  for (NodeId v = src.num_nodes() - 1; v >= 0; v -= 3) nodes.push_back(v);
  const int k = 7;
  Rng rp(41), rs(41), looped(41);
  std::vector<NodeId> got, want;
  part.SampleManyNeighbors({nodes.data(), nodes.size()}, k, &rp, &got);
  src.SampleManyNeighbors({nodes.data(), nodes.size()}, k, &rs, &want);
  EXPECT_EQ(got, want);
  ASSERT_EQ(got.size(), nodes.size() * k);
  for (size_t i = 0; i < nodes.size(); ++i) {
    for (int j = 0; j < k; ++j) {
      EXPECT_EQ(got[i * k + j], part.SampleNeighbor(nodes[i], &looped))
          << "node " << nodes[i] << " draw " << j;
    }
  }
  const uint64_t next = rp.NextUint64();
  EXPECT_EQ(next, looped.NextUint64());
  EXPECT_EQ(next, rs.NextUint64());
}

TEST(SegmentedCsrTest, PartitionMatchesSourceRowForRow) {
  // The wide graph, the same with an isolated tail node, and the empty
  // graph; each repartitioned at spans 1, 64, n and 2n.
  for (const int isolated : {0, 1, -1}) {
    const HeteroGraph g =
        isolated >= 0 ? MakeWideGraph(isolated) : HeteroGraphBuilder(2).Build();
    const int64_t n = g.num_nodes();
    int64_t pow2 = 1;
    while (pow2 < n) pow2 <<= 1;
    for (const int64_t span : {int64_t{1}, int64_t{64}, pow2, 2 * pow2}) {
      SCOPED_TRACE(::testing::Message() << "n=" << n << " span=" << span);
      const HeteroGraph part(g, span, /*generation=*/3);
      EXPECT_EQ(part.segment_span(), span);
      EXPECT_EQ(part.num_segments(), (n + span - 1) / span);
      for (int64_t s = 0; s < part.num_segments(); ++s) {
        EXPECT_EQ(part.segment(s).first_node(), s * span);
        EXPECT_EQ(part.segment_generation(s), 3u);
      }
      ExpectSameGraph(part, g);
    }
  }
}

TEST(SegmentedCsrTest, SamplingMatchesEdgeWeights) {
  HeteroGraph g = MakeWideGraph();
  const HeteroGraph seg(g, 4);
  // Query 4's weighted item distribution through the segment alias tables
  // must match the exact weights.
  const NodeId q = 4;
  std::map<NodeId, double> want;
  double total = 0.0;
  for (size_t i = 0; i < g.neighbor_ids(q).size(); ++i) {
    want[g.neighbor_ids(q)[i]] += g.neighbor_weights(q)[i];
    total += g.neighbor_weights(q)[i];
  }
  Rng rng(23);
  std::map<NodeId, int> got;
  const int n = 60000;
  for (int i = 0; i < n; ++i) ++got[seg.SampleNeighbor(q, &rng)];
  for (const auto& [nb, w] : want) {
    EXPECT_NEAR(got[nb] / static_cast<double>(n), w / total, 0.02);
  }
}

TEST(SegmentedCsrTest, SuccessorSharesUntouchedSegments) {
  HeteroGraph g = MakeWideGraph();
  auto base = std::make_shared<const HeteroGraph>(g, 4, /*generation=*/1);
  // Rebuild segment 1 (rows 4..7) with one extra edge on row 4.
  CsrSegmentBuilder builder(4, 4, g.content_dim(), /*generation=*/2,
                            [&g](NodeId id) { return g.node_type(id); });
  for (NodeId r = 4; r < 8; ++r) {
    std::vector<NeighborEntry> nbrs;
    auto ids = g.neighbor_ids(r);
    for (size_t i = 0; i < ids.size(); ++i) {
      nbrs.push_back({ids[i], g.neighbor_weights(r)[i],
                      g.neighbor_kinds(r)[i]});
    }
    if (r == 4) nbrs.push_back({15, 9.0f, RelationKind::kSimilarity});
    builder.AddRow(g.node_type(r), {g.content(r), 2u}, g.slots(r),
                   std::move(nbrs));
  }
  auto next = base->Successor({{1, builder.Build()}});

  // Untouched segments are the same objects (zero-copy sharing), the
  // rebuilt one is new with its own generation.
  EXPECT_EQ(next->segment_ptr(0), base->segment_ptr(0));
  EXPECT_EQ(next->segment_ptr(2), base->segment_ptr(2));
  EXPECT_EQ(next->segment_ptr(3), base->segment_ptr(3));
  EXPECT_NE(next->segment_ptr(1), base->segment_ptr(1));
  EXPECT_EQ(next->generation_of(0), 1u);
  EXPECT_EQ(next->generation_of(5), 2u);
  EXPECT_EQ(base->generation_of(5), 1u);
  // Beyond coverage: the never-folded sentinel.
  EXPECT_EQ(next->generation_of(16), 0u);

  // The new edge exists only through the successor; old spans still valid.
  EXPECT_EQ(next->degree(4), base->degree(4) + 1);
  EXPECT_EQ(base->num_edges() + 1, next->num_edges());
  auto old_span = base->neighbor_ids(4);
  EXPECT_EQ(old_span.size(), static_cast<size_t>(base->degree(4)));
}

// --- Batched sampling (SampleManyNeighbors) ----------------------------------

TEST(SampleManyNeighborsTest, IsolatedNodesYieldMinusOneRows) {
  HeteroGraphBuilder b(1);
  b.AddNode(NodeType::kUser, {0.0f}, {});  // isolated
  b.AddNode(NodeType::kItem, {0.0f}, {});
  b.AddNode(NodeType::kItem, {0.0f}, {});
  EXPECT_TRUE(b.AddEdge(1, 2, RelationKind::kClick).ok());
  const HeteroGraph g = b.Build();
  const GraphView& view = g;
  // Isolated nodes consume no RNG on either path, so rows after them still
  // line up with the loop.
  std::vector<NodeId> nodes = {0, 1, 0, 2};
  Rng batched(5), looped(5);
  std::vector<NodeId> got;
  view.SampleManyNeighbors({nodes.data(), nodes.size()}, 3, &batched, &got);
  ASSERT_EQ(got.size(), 12u);
  for (size_t i = 0; i < nodes.size(); ++i) {
    for (int j = 0; j < 3; ++j) {
      EXPECT_EQ(got[i * 3 + j], view.SampleNeighbor(nodes[i], &looped));
    }
  }
  for (int j = 0; j < 3; ++j) {
    EXPECT_EQ(got[j], -1);      // row for node 0
    EXPECT_EQ(got[6 + j], -1);  // second row for node 0
  }
}

TEST(SampleManyNeighborsTest, KZeroAndEmptyBatchAreEmpty) {
  const HeteroGraph g = MakeTriangleGraph();
  const GraphView& view = g;
  Rng rng(1);
  std::vector<NodeId> out = {99};
  view.SampleManyNeighbors({}, 4, &rng, &out);
  EXPECT_TRUE(out.empty());
  std::vector<NodeId> nodes = {0, 1};
  view.SampleManyNeighbors({nodes.data(), nodes.size()}, 0, &rng, &out);
  EXPECT_TRUE(out.empty());
}

}  // namespace
}  // namespace graph
}  // namespace zoomer
