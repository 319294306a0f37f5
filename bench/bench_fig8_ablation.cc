// Reproduces Fig. 8 (ablation study): test AUC of GCN, Zoomer-FE (semantic
// combination off), Zoomer-FS (edge reweighing off), Zoomer-ES (feature
// projection off), and full Zoomer across the three Taobao graph scales.
//
// Flags: --smoke trains every variant for one short epoch on the
// million-scale graph only, so each attention path trains end to end in a
// minute; the program exits non-zero if any variant's AUC is not a number.
#include <cmath>
#include <cstdio>
#include <cstring>
#include <vector>

#include "bench/bench_util.h"

int main(int argc, char** argv) {
  using namespace zoomer;
  using namespace zoomer::bench;
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else {
      std::fprintf(stderr, "usage: %s [--smoke]\n", argv[0]);
      return 2;
    }
  }
  std::printf("Fig. 8: ablation study of the multi-level attention levels%s\n",
              smoke ? " (smoke)" : "");

  RunConfig cfg;
  cfg.params.hidden_dim = 16;
  cfg.params.sample_k = 10;
  cfg.params.num_hops = 2;
  cfg.params.seed = 5;
  cfg.train.epochs = smoke ? 1 : 4;
  cfg.train.batch_size = 128;
  cfg.train.learning_rate = 0.01f;
  cfg.train.max_examples_per_epoch = smoke ? 512 : 4000;
  cfg.eval_examples = smoke ? 300 : 1500;

  const char* variants[] = {"GCN", "Zoomer-FE", "Zoomer-FS", "Zoomer-ES",
                            "Zoomer"};
  std::vector<GraphScale> scales = {GraphScale::kMillion};
  if (!smoke) {
    scales.push_back(GraphScale::kHundredMillion);
    scales.push_back(GraphScale::kBillion);
  }
  std::printf("\n%-24s", "Graph scale");
  for (const char* v : variants) std::printf(" %10s", v);
  std::printf("\n");
  PrintRule(80);
  int not_a_number = 0;
  for (auto scale : scales) {
    auto ds = data::GenerateTaobaoDataset(ScaleOptions(scale, 2022));
    std::printf("%-24s", ScaleName(scale));
    for (const char* v : variants) {
      auto r = TrainAndEval(v, ds, cfg);
      std::printf(" %10.3f", r.auc);
      not_a_number += std::isnan(r.auc) ? 1 : 0;
    }
    std::printf("\n");
    std::fflush(stdout);
  }
  std::printf(
      "\n(paper Fig. 8: every attention level adds AUC over GCN; removing\n"
      " semantic combination (-FE) hurts most; -ES gains the most from its\n"
      " remaining parts; larger graphs score lower under a fixed budget)\n");
  if (not_a_number > 0) {
    std::fprintf(stderr, "%d variant(s) scored a NaN AUC\n", not_a_number);
    return 1;
  }
  return 0;
}
