#include "core/roi_sampler.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <numeric>

#include "common/logging.h"
#include "common/stamped_table.h"
#include "obs/metrics.h"

namespace zoomer {
namespace core {

using graph::GraphView;
using graph::NeighborBlock;
using graph::NeighborScratch;
using graph::NodeId;

// Per-thread buffers of SampleBatch, reused from call to call.
struct RoiSampler::Scratch {
  StampedTable<double> relevance;  // by node id, one generation per call
  NeighborScratch neighbors;
  std::vector<std::pair<double, int64_t>> scored;  // SelectChildren
  std::vector<RoiNode> children;                   // one frontier node's

  /// Relevance of `candidate` to fc, scored at most once per call
  /// (ScoreNode is pure in (fc, node)).
  double Score(const RelevanceScorer& scorer, const GraphView& g,
               const std::vector<float>& fc, NodeId candidate) {
    const size_t v = static_cast<size_t>(candidate);
    if (const double* s = relevance.Find(v)) return *s;
    return relevance.Set(v, scorer.ScoreNode(g, fc, candidate));
  }
};

RoiSampler::RoiSampler(RoiSamplerOptions options)
    : options_(options), scorer_(MakeRelevanceScorer(options.relevance)) {
  ZCHECK_GT(options_.k, 0);
  ZCHECK_GE(options_.num_hops, 1);
}

std::vector<float> RoiSampler::FocalVector(
    const GraphView& g, const std::vector<NodeId>& focal) const {
  ZCHECK(!focal.empty());
  std::vector<float> fc(g.content_dim(), 0.0f);
  for (NodeId f : focal) {
    const float* c = g.content(f);
    for (int d = 0; d < g.content_dim(); ++d) fc[d] += c[d];
  }
  return fc;
}

double RoiSampler::Relevance(const GraphView& g, const std::vector<float>& fc,
                             NodeId candidate) const {
  return scorer_->ScoreNode(g, fc, candidate);
}

void RoiSampler::SelectChildren(const GraphView& g, NodeId node,
                                NodeId parent, const std::vector<float>& fc,
                                int hop, Rng* rng, Scratch* scratch,
                                std::vector<RoiNode>* out) const {
  const int k_at_hop = std::max(
      1, static_cast<int>(options_.k *
                          std::pow(options_.hop_k_decay, hop - 1)));
  const NeighborBlock nb = g.Neighbors(node, &scratch->neighbors);
  const int64_t deg = nb.size();
  if (deg == 0) return;

  auto emit = [&](int64_t pos, double relevance) {
    RoiNode child;
    child.id = nb.ids[pos];
    child.edge_weight = nb.weights[pos];
    child.kind = nb.kinds[pos];
    child.relevance = relevance;
    out->push_back(child);
  };

  switch (options_.kind) {
    case SamplerKind::kFocalTopK: {
      // Score every neighbor against the focal vector (paper eq. 5) and keep
      // the top-k. partial_sort keeps this O(deg log k).
      auto& scored = scratch->scored;
      scored.clear();
      for (int64_t p = 0; p < deg; ++p) {
        if (options_.exclude_parent && nb.ids[p] == parent) continue;
        scored.emplace_back(scratch->Score(*scorer_, g, fc, nb.ids[p]), p);
      }
      const int take = std::min<int>(k_at_hop, scored.size());
      std::partial_sort(scored.begin(), scored.begin() + take, scored.end(),
                        [](const auto& a, const auto& b) {
                          if (a.first != b.first) return a.first > b.first;
                          return a.second < b.second;  // deterministic tiebreak
                        });
      for (int i = 0; i < take; ++i) emit(scored[i].second, scored[i].first);
      break;
    }
    case SamplerKind::kUniform: {
      // Uniform without replacement over positions.
      std::vector<int64_t> pos(deg);
      std::iota(pos.begin(), pos.end(), int64_t{0});
      rng->Shuffle(&pos);
      int taken = 0;
      for (int64_t p : pos) {
        if (taken >= k_at_hop) break;
        if (options_.exclude_parent && nb.ids[p] == parent) continue;
        emit(p, 0.0);
        ++taken;
      }
      break;
    }
    case SamplerKind::kRandomWalk: {
      // PinSage-style importance sampling: run short random walks from the
      // node (weighted draws through the view) and keep the k most-visited
      // direct neighbors, with visit counts as importance scores.
      std::vector<int> visits(deg, 0);
      for (int w = 0; w < options_.walk_count; ++w) {
        NodeId cur = node;
        for (int step = 0; step < options_.walk_length; ++step) {
          const NodeId nxt = g.SampleNeighbor(cur, rng);
          if (nxt < 0) break;
          if (cur == node) {
            // Count which direct neighbor this walk left through.
            for (int64_t p = 0; p < deg; ++p) {
              if (nb.ids[p] == nxt) {
                ++visits[p];
                break;
              }
            }
          }
          cur = nxt;
        }
      }
      auto& scored = scratch->scored;
      scored.clear();
      for (int64_t p = 0; p < deg; ++p) {
        if (options_.exclude_parent && nb.ids[p] == parent) continue;
        if (visits[p] == 0) continue;
        scored.emplace_back(static_cast<double>(visits[p]), p);
      }
      const int take = std::min<int>(k_at_hop, scored.size());
      std::partial_sort(scored.begin(), scored.begin() + take, scored.end(),
                        [](const auto& a, const auto& b) {
                          if (a.first != b.first) return a.first > b.first;
                          return a.second < b.second;
                        });
      for (int i = 0; i < take; ++i) emit(scored[i].second, scored[i].first);
      break;
    }
    case SamplerKind::kWeightedEdge: {
      // Distinct weighted draws (with bounded retries), batched through the
      // view so the dynamic path resolves its overlay lock once. One extra
      // draw absorbs a possible parent hit.
      const int want = k_at_hop + (options_.exclude_parent ? 1 : 0);
      int taken = 0;
      for (NodeId drawn : g.SampleDistinctNeighbors(node, want, rng)) {
        if (taken >= k_at_hop) break;
        if (options_.exclude_parent && drawn == parent) continue;
        // Locate position for weight/kind metadata (first match).
        int64_t p = -1;
        for (int64_t q = 0; q < deg; ++q) {
          if (nb.ids[q] == drawn) {
            p = q;
            break;
          }
        }
        if (p < 0) continue;
        emit(p, nb.weights[p]);
        ++taken;
      }
      break;
    }
  }
}

RoiSubgraph RoiSampler::Sample(const GraphView& g, NodeId ego,
                               const std::vector<float>& fc, Rng* rng) const {
  return std::move(SampleBatch(g, {&ego, 1}, fc, rng)[0]);
}

std::vector<RoiSubgraph> RoiSampler::SampleBatch(
    const GraphView& g, std::span<const NodeId> egos,
    const std::vector<float>& fc, Rng* rng) const {
  static obs::Histogram* batch_size_hist =
      obs::MetricsRegistry::Global()->GetHistogram("sampler.batch_size");
  static obs::Histogram* batch_latency_hist =
      obs::MetricsRegistry::Global()->GetHistogram("sampler.batch_latency_us");
  const auto t0 = std::chrono::steady_clock::now();

  ZCHECK_EQ(static_cast<int>(fc.size()), g.content_dim());
  std::vector<RoiSubgraph> rois(egos.size());
  // Shared across the batch: one scratch, one relevance memo (all egos
  // score against the same fc), and — when g is a dynamic view — the one
  // snapshot the view pinned, held for the whole expansion.
  thread_local Scratch scratch;
  // Sized to the view on every call: a dynamic view grows as nodes are
  // minted.
  scratch.relevance.Begin(static_cast<size_t>(g.num_nodes()));
  std::vector<RoiNode>& children = scratch.children;
  std::vector<size_t> frontier_begin(egos.size(), 0);
  for (size_t e = 0; e < egos.size(); ++e) {
    const NodeId ego = egos[e];
    ZCHECK(ego >= 0 && ego < g.num_nodes());
    RoiNode root;
    root.id = ego;
    root.depth = 0;
    root.parent = -1;
    root.relevance = scratch.Score(*scorer_, g, fc, ego);
    rois[e].nodes.push_back(root);
  }

  // Breadth-first, frontier-at-once: hop h of every ego expands before any
  // ego moves to hop h+1, so all hop-h children score in one pass.
  for (int hop = 1; hop <= options_.num_hops; ++hop) {
    for (size_t e = 0; e < egos.size(); ++e) {
      RoiSubgraph& roi = rois[e];
      const size_t frontier_end = roi.nodes.size();
      for (size_t fi = frontier_begin[e]; fi < frontier_end; ++fi) {
        if (roi.size() >= options_.max_nodes) break;
        children.clear();
        const NodeId parent_of_node =
            roi.nodes[fi].parent >= 0 ? roi.nodes[roi.nodes[fi].parent].id
                                      : -1;
        SelectChildren(g, roi.nodes[fi].id, parent_of_node, fc, hop, rng,
                       &scratch, &children);
        for (auto& c : children) {
          if (roi.size() >= options_.max_nodes) break;
          c.depth = hop;
          c.parent = static_cast<int>(fi);
          roi.nodes.push_back(c);
        }
      }
      frontier_begin[e] = frontier_end;
    }
  }

  // Child ranges: nodes are in BFS order and children of one parent are
  // contiguous by construction.
  for (RoiSubgraph& roi : rois) {
    roi.children_begin.assign(roi.size(), 0);
    roi.children_end.assign(roi.size(), 0);
    for (int i = 1; i < roi.size(); ++i) {
      const int p = roi.nodes[i].parent;
      if (roi.children_end[p] == 0) roi.children_begin[p] = i;
      roi.children_end[p] = i + 1;
    }
  }

  batch_size_hist->Record(static_cast<int64_t>(egos.size()));
  batch_latency_hist->Record(std::chrono::duration_cast<std::chrono::microseconds>(
                                 std::chrono::steady_clock::now() - t0)
                                 .count());
  return rois;
}

}  // namespace core
}  // namespace zoomer
