// Reproduces Fig. 13 (model interpretability): heatmaps of edge-level
// coupling coefficients. (a) a fixed user with varying focal queries over
// their historical items; (b) a fixed query ("handbag"-like) with varying
// focal users over its item neighbors. Rendered as ASCII heatmaps.
#include <algorithm>
#include <cstdio>
#include <map>
#include <vector>

#include "bench/bench_util.h"
#include "core/zoomer_model.h"

namespace zoomer {
namespace bench {
namespace {

const char* Shade(float v, float lo, float hi) {
  static const char* kShades[] = {"  .", " ..", " +.", " ++", " #+", " ##"};
  if (hi <= lo) return kShades[0];
  const float t = (v - lo) / (hi - lo);
  const int idx = std::min(5, std::max(0, static_cast<int>(t * 6.0f)));
  return kShades[idx];
}

void PrintHeatmap(const std::vector<std::vector<float>>& w,
                  const std::vector<std::string>& row_labels) {
  float lo = 1e9f, hi = -1e9f;
  for (const auto& row : w) {
    for (float v : row) {
      lo = std::min(lo, v);
      hi = std::max(hi, v);
    }
  }
  for (size_t r = 0; r < w.size(); ++r) {
    std::printf("%-10s |", row_labels[r].c_str());
    for (float v : w[r]) std::printf("%s", Shade(v, lo, hi));
    std::printf(" |");
    for (float v : w[r]) std::printf(" %.2f", v);
    std::printf("\n");
  }
  std::printf("(range %.3f .. %.3f; '#' = high coupling)\n", lo, hi);
}

}  // namespace
}  // namespace bench
}  // namespace zoomer

int main() {
  using namespace zoomer;
  using namespace zoomer::bench;
  std::printf("Fig. 13: coupling-coefficient heatmaps (edge-level weights)\n");

  auto ds = data::GenerateTaobaoDataset(ScaleOptions(GraphScale::kMillion, 13));

  // Briefly train Zoomer so attention weights are meaningful.
  baselines::ModelParams params;
  params.hidden_dim = 16;
  params.sample_k = 10;
  params.seed = 5;
  core::ZoomerConfig cfg;
  cfg.hidden_dim = params.hidden_dim;
  cfg.sampler.k = params.sample_k;
  cfg.seed = params.seed;
  core::ZoomerModel model(&ds.graph, cfg);
  core::TrainOptions topt;
  topt.epochs = 1;
  topt.learning_rate = 0.01f;
  topt.max_examples_per_epoch = 2500;
  core::ZoomerTrainer trainer(&model, topt);
  trainer.Train(ds);
  Rng rng(31);

  // (a) fixed user, varying focal query: pick a user with >= 8 item
  // neighbors and 5 queries of different categories.
  graph::NodeId user = -1;
  for (graph::NodeId v = 0; v < ds.graph.num_nodes(); ++v) {
    if (ds.graph.node_type(v) == graph::NodeType::kUser &&
        ds.graph.NeighborsOfType(v, graph::NodeType::kItem).size() >= 8) {
      user = v;
      break;
    }
  }
  if (user < 0) {
    std::printf("no sufficiently active user found\n");
    return 1;
  }
  auto items_span = ds.graph.NeighborsOfType(user, graph::NodeType::kItem).ids;
  std::vector<graph::NodeId> items(items_span.begin(),
                                   items_span.begin() + 8);
  std::vector<graph::NodeId> queries;
  for (graph::NodeId v = 0; v < ds.graph.num_nodes() && queries.size() < 5;
       ++v) {
    if (ds.graph.node_type(v) == graph::NodeType::kQuery &&
        (queries.empty() || ds.category[v] != ds.category[queries.back()])) {
      queries.push_back(v);
    }
  }

  std::printf("\n(a) fixed user u%lld: rows = focal queries, cols = 8 of the\n"
              "    user's historical items; cells = edge-level weight\n\n",
              static_cast<long long>(user));
  std::vector<std::vector<float>> wa;
  std::vector<std::string> labels_a;
  for (auto q : queries) {
    auto records = model.ExplainEdgeWeights(user, user, q, &rng);
    std::map<graph::NodeId, float> by_id;
    for (const auto& r : records) by_id[r.neighbor] = r.weight;
    std::vector<float> row;
    for (auto item : items) {
      row.push_back(by_id.count(item) ? by_id[item] : 0.0f);
    }
    wa.push_back(row);
    labels_a.push_back("q" + std::to_string(q) + "/c" +
                       std::to_string(ds.category[q]));
  }
  PrintHeatmap(wa, labels_a);

  // (b) fixed query, varying focal user.
  graph::NodeId query = -1;
  for (graph::NodeId v = 0; v < ds.graph.num_nodes(); ++v) {
    if (ds.graph.node_type(v) == graph::NodeType::kQuery &&
        ds.graph.NeighborsOfType(v, graph::NodeType::kItem).size() >= 9) {
      query = v;
      break;
    }
  }
  if (query < 0) {
    std::printf("no sufficiently connected query found\n");
    return 1;
  }
  auto qitems_span =
      ds.graph.NeighborsOfType(query, graph::NodeType::kItem).ids;
  std::vector<graph::NodeId> qitems(qitems_span.begin(),
                                    qitems_span.begin() + 9);
  std::printf("\n(b) fixed query q%lld: rows = focal users, cols = 9 item\n"
              "    neighbors of the query\n\n",
              static_cast<long long>(query));
  std::vector<std::vector<float>> wb;
  std::vector<std::string> labels_b;
  for (int u = 0; u < 8; ++u) {
    const graph::NodeId uid = static_cast<graph::NodeId>(
        rng.Uniform(ds.graph.num_nodes_of_type(graph::NodeType::kUser)));
    auto records = model.ExplainEdgeWeights(query, uid, query, &rng);
    std::map<graph::NodeId, float> by_id;
    for (const auto& r : records) by_id[r.neighbor] = r.weight;
    std::vector<float> row;
    for (auto item : qitems) {
      row.push_back(by_id.count(item) ? by_id[item] : 0.0f);
    }
    wb.push_back(row);
    labels_b.push_back("u" + std::to_string(uid));
  }
  PrintHeatmap(wb, labels_b);

  std::printf("\n(paper Fig. 13: weights shift as focal points change --\n"
              " the same ego node gets multiple focal-dependent\n"
              " representations)\n");
  return 0;
}
