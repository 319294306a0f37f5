// Cross-module integration tests: log -> graph -> save/load -> distributed
// engine -> Zoomer training -> embedding export -> ANN serving, exercising
// the full production pipeline of paper Sec. VI in one process.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <set>
#include <string>

#include "core/trainer.h"
#include "core/zoomer_model.h"
#include "data/taobao_generator.h"
#include "engine/distributed_graph_engine.h"
#include "graph/graph_io.h"
#include "serving/online_server.h"

namespace zoomer {
namespace {

data::RetrievalDataset SmallDataset() {
  data::TaobaoGeneratorOptions opt;
  opt.num_users = 80;
  opt.num_queries = 50;
  opt.num_items = 160;
  opt.num_sessions = 500;
  opt.num_categories = 6;
  opt.content_dim = 12;
  opt.seed = 71;
  return data::GenerateTaobaoDataset(opt);
}

TEST(GraphIoTest, SaveLoadRoundTripPreservesStructure) {
  auto ds = SmallDataset();
  const std::string path = "/tmp/zoomer_graph_roundtrip.bin";
  ASSERT_TRUE(graph::SaveGraph(ds.graph, path).ok());
  auto loaded = graph::LoadGraph(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const auto& g = loaded.value();
  EXPECT_EQ(g.num_nodes(), ds.graph.num_nodes());
  EXPECT_EQ(g.num_edges(), ds.graph.num_edges());
  EXPECT_EQ(g.content_dim(), ds.graph.content_dim());
  for (graph::NodeId v = 0; v < g.num_nodes(); v += 17) {
    EXPECT_EQ(g.node_type(v), ds.graph.node_type(v));
    EXPECT_EQ(g.degree(v), ds.graph.degree(v));
    auto s1 = g.slots(v);
    auto s2 = ds.graph.slots(v);
    ASSERT_EQ(s1.size(), s2.size());
    for (size_t i = 0; i < s1.size(); ++i) EXPECT_EQ(s1[i], s2[i]);
    for (int d = 0; d < g.content_dim(); ++d) {
      EXPECT_FLOAT_EQ(g.content(v)[d], ds.graph.content(v)[d]);
    }
    // Neighbor sets (order may differ only within equal sort keys).
    std::multiset<graph::NodeId> n1(g.neighbor_ids(v).begin(),
                                    g.neighbor_ids(v).end());
    std::multiset<graph::NodeId> n2(ds.graph.neighbor_ids(v).begin(),
                                    ds.graph.neighbor_ids(v).end());
    EXPECT_EQ(n1, n2);
  }
  std::remove(path.c_str());
}

TEST(GraphIoTest, LoadRejectsMissingAndCorruptFiles) {
  EXPECT_FALSE(graph::LoadGraph("/tmp/zoomer_no_such_file.bin").ok());
  const std::string path = "/tmp/zoomer_corrupt.bin";
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  const char junk[] = "definitely not a graph";
  std::fwrite(junk, 1, sizeof(junk), f);
  std::fclose(f);
  auto result = graph::LoadGraph(path);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);

  // A well-formed file whose one edge weight is NaN: a Status, not an
  // abort in the alias build.
  graph::HeteroGraphBuilder b(1);
  b.AddNode(graph::NodeType::kUser, {0.0f}, {});
  b.AddNode(graph::NodeType::kItem, {0.0f}, {});
  const float marker = 1234.5f;
  ASSERT_TRUE(b.AddEdge(0, 1, graph::RelationKind::kClick, marker).ok());
  ASSERT_TRUE(graph::SaveGraph(b.Build(), path).ok());
  std::string bytes;
  {
    std::ifstream in(path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in), {});
  }
  const std::string needle(reinterpret_cast<const char*>(&marker),
                           sizeof(marker));
  const size_t at = bytes.find(needle);
  ASSERT_NE(at, std::string::npos);
  const float nan = std::nanf("");
  bytes.replace(at, sizeof(nan),
                std::string(reinterpret_cast<const char*>(&nan), sizeof(nan)));
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  result = graph::LoadGraph(path);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST(IntegrationTest, TrainOnLoadedGraphMatchesOriginal) {
  auto ds = SmallDataset();
  const std::string path = "/tmp/zoomer_graph_train.bin";
  ASSERT_TRUE(graph::SaveGraph(ds.graph, path).ok());
  auto loaded = graph::LoadGraph(path);
  ASSERT_TRUE(loaded.ok());
  std::remove(path.c_str());

  core::ZoomerConfig cfg;
  cfg.hidden_dim = 8;
  cfg.sampler.k = 4;
  cfg.seed = 2;
  core::ZoomerModel m1(&ds.graph, cfg);
  core::ZoomerModel m2(&loaded.value(), cfg);
  Rng r1(5), r2(5);
  // Identical graphs + identical seeds => identical logits.
  for (int i = 0; i < 5; ++i) {
    EXPECT_FLOAT_EQ(m1.ScoreLogit(ds.train[i], &r1).item(),
                    m2.ScoreLogit(ds.train[i], &r2).item());
  }
}

TEST(IntegrationTest, FullPipelineLogToServing) {
  // 1. Workload + graph (data/, graph/).
  auto ds = SmallDataset();

  // 2. Distributed engine serves samples over the same graph (engine/).
  engine::EngineOptions eopt;
  eopt.num_shards = 2;
  eopt.replication_factor = 1;
  engine::DistributedGraphEngine eng(&ds.graph, eopt);
  engine::SampleRequest sreq;
  sreq.node = ds.train[0].user;
  sreq.k = 5;
  auto sresp = eng.Sample(sreq);
  ASSERT_TRUE(sresp.ok());

  // 3. Offline training (core/).
  core::ZoomerConfig cfg;
  cfg.hidden_dim = 8;
  cfg.sampler.k = 4;
  core::ZoomerModel model(&ds.graph, cfg);
  core::TrainOptions topt;
  topt.epochs = 1;
  topt.max_examples_per_epoch = 500;
  core::ZoomerTrainer trainer(&model, topt);
  auto result = trainer.Train(ds);
  EXPECT_GT(result.examples_seen, 0);

  // 4. Embedding export + online serving (serving/).
  Rng rng(3);
  const int d = cfg.hidden_dim;
  std::vector<float> node_emb(ds.graph.num_nodes() * d, 0.0f);
  for (graph::NodeId v = 0; v < ds.graph.num_nodes(); ++v) {
    std::vector<float> e;
    if (ds.graph.node_type(v) == graph::NodeType::kItem) {
      e = model.ItemEmbeddingInference(v);
    } else {
      auto t = model.EgoEmbedding(v, v, v, &rng);
      e.assign(t.data(), t.data() + d);
    }
    std::copy(e.begin(), e.end(), node_emb.begin() + v * d);
  }
  std::vector<float> item_emb(ds.all_items.size() * d);
  for (size_t i = 0; i < ds.all_items.size(); ++i) {
    std::copy(node_emb.begin() + ds.all_items[i] * d,
              node_emb.begin() + (ds.all_items[i] + 1) * d,
              item_emb.begin() + static_cast<int64_t>(i) * d);
  }
  serving::OnlineServerOptions sopt;
  sopt.embedding_dim = d;
  sopt.top_n = 10;
  serving::OnlineServer server(&ds.graph, sopt, std::move(node_emb),
                               ds.all_items, item_emb);
  server.WarmCache({ds.test[0].user, ds.test[0].query});
  auto resp = server.Handle({ds.test[0].user, ds.test[0].query});
  ASSERT_EQ(resp.items.size(), 10u);
  for (const auto& item : resp.items) {
    EXPECT_EQ(ds.graph.node_type(item.id), graph::NodeType::kItem);
  }
}

}  // namespace
}  // namespace zoomer
