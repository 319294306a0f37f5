#include "graph/graph_builder.h"

#include <algorithm>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "common/logging.h"

namespace zoomer {
namespace graph {

namespace {

// Key identifying one undirected edge of one kind.
struct EdgeKey {
  NodeId a, b;
  RelationKind kind;
  bool operator<(const EdgeKey& o) const {
    return std::tie(a, b, kind) < std::tie(o.a, o.b, o.kind);
  }
};

}  // namespace

StatusOr<HeteroGraph> BuildGraphFromLogs(const std::vector<NodeSpec>& nodes,
                                         const SessionLog& log,
                                         const GraphBuildOptions& options) {
  if (nodes.empty()) {
    return Status::InvalidArgument("node list is empty");
  }
  const int content_dim = static_cast<int>(nodes[0].content.size());
  for (const auto& n : nodes) {
    if (static_cast<int>(n.content.size()) != content_dim) {
      return Status::InvalidArgument("inconsistent content dims");
    }
  }

  HeteroGraphBuilder builder(content_dim);
  for (const auto& n : nodes) {
    builder.AddNode(n.type, n.content, n.slots);
  }

  // Interaction, session and similarity edges in arrival order; one sort at
  // the end groups each key's duplicates.
  struct PendingEdge {
    EdgeKey key;
    float w;
  };
  std::vector<PendingEdge> pending;
  auto add = [&](NodeId a, NodeId b, RelationKind kind, float w) {
    if (a == b) return;
    if (a > b) std::swap(a, b);
    pending.push_back({{a, b, kind}, w});
  };

  const auto n_total = static_cast<NodeId>(nodes.size());
  for (const auto& s : log) {
    if (options.time_window_seconds > 0 &&
        s.timestamp >= options.time_window_seconds) {
      continue;
    }
    if (s.user < 0 || s.user >= n_total || s.query < 0 || s.query >= n_total) {
      return Status::InvalidArgument("log references unknown node id");
    }
    // user -- searched query
    add(s.user, s.query, RelationKind::kClick, 1.0f);
    for (size_t i = 0; i < s.clicks.size(); ++i) {
      const NodeId c = s.clicks[i];
      if (c < 0 || c >= n_total) {
        return Status::InvalidArgument("log references unknown clicked item");
      }
      // clicked item -- query
      add(c, s.query, RelationKind::kClick, 1.0f);
      // user -- clicked item (interaction feedback)
      add(s.user, c, RelationKind::kClick, 1.0f);
      // adjacent clicks in the same session
      if (i + 1 < s.clicks.size() && s.clicks[i + 1] != c) {
        add(c, s.clicks[i + 1], RelationKind::kSession, 1.0f);
      }
    }
  }

  // Similarity edges between queries and items via MinHash + LSH.
  if (options.add_similarity_edges) {
    MinHasher hasher(options.lsh_bands * options.lsh_rows);
    MinHashLsh lsh(options.lsh_bands, options.lsh_rows);
    std::unordered_map<int64_t, std::vector<uint64_t>> sigs;
    for (NodeId id = 0; id < n_total; ++id) {
      const auto& n = nodes[id];
      if (n.type == NodeType::kUser || n.tokens.empty()) continue;
      auto sig = hasher.Signature(n.tokens);
      lsh.Insert(id, sig);
      sigs.emplace(id, std::move(sig));
    }
    std::vector<int> sim_degree(n_total, 0);
    for (const auto& [a, b] : lsh.CandidatePairs()) {
      if (sim_degree[a] >= options.max_similarity_degree ||
          sim_degree[b] >= options.max_similarity_degree) {
        continue;
      }
      const double jac = MinHasher::EstimateJaccard(sigs.at(a), sigs.at(b));
      if (jac < options.similarity_threshold) continue;
      add(a, b, RelationKind::kSimilarity, static_cast<float>(jac));
      ++sim_degree[a];
      ++sim_degree[b];
    }
  }

  // Key order, equal keys in arrival order: a coalesced weight sums in the
  // order its edges arrived, and without coalescing the first one wins.
  std::stable_sort(pending.begin(), pending.end(),
                   [](const PendingEdge& x, const PendingEdge& y) {
                     return x.key < y.key;
                   });
  for (size_t i = 0; i < pending.size();) {
    const EdgeKey& key = pending[i].key;
    float w = options.coalesce_duplicate_edges ? 0.0f : pending[i].w;
    size_t j = i;
    for (; j < pending.size() && !(key < pending[j].key); ++j) {
      if (options.coalesce_duplicate_edges) w += pending[j].w;
    }
    Status st = builder.AddEdge(key.a, key.b, key.kind, w);
    if (!st.ok()) return st;
    i = j;
  }
  return builder.Build();
}

}  // namespace graph
}  // namespace zoomer
