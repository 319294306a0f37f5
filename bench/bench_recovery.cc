// Durability / crash-recovery benchmark for the persist layer
// (src/persist/): checkpointed segmented base + WAL replay. Reports
//   1. recovery time vs graph size: ingest, fold, checkpoint, keep
//      ingesting a WAL tail, then RecoverFrom a cold directory — at three
//      graph scales,
//   2. recovery time vs checkpoint staleness: the same graph recovered
//      under WAL tails of growing length (staleness is what replay pays
//      for),
//   3. incremental checkpoint cost: bytes written by a full checkpoint vs
//      one after dirtying 1/8 of the segments (acceptance: <= ~25% of the
//      full checkpoint's bytes), and
//   4. a correctness gate CI trips on: after every recovery the focal
//      top-k ROI and a fixed-seed weighted-draw sequence must be
//      bit-identical to the pre-"crash" graph (topk_identical = 1), with
//      obs.persist.* (checkpoint latency/bytes, WAL fsync latency,
//      recovery_replay_epochs) flattened into the artifact.
//
// Flags: --smoke shrinks every workload for a CI smoke run; --json PATH
// writes the headline metrics as a flat JSON object (BENCH_recovery.json
// in CI).
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench/metric_sink.h"
#include "common/random.h"
#include "common/timer.h"
#include "core/roi_sampler.h"
#include "data/taobao_generator.h"
#include "obs/exporter.h"
#include "obs/metrics.h"
#include "persist/checkpoint.h"
#include "persist/wal.h"
#include "streaming/dynamic_graph_view.h"
#include "streaming/dynamic_hetero_graph.h"
#include "streaming/graph_delta_log.h"

namespace zoomer {
namespace bench {
namespace {

namespace fs = std::filesystem;

using graph::NodeId;
using graph::NodeType;
using graph::RelationKind;
using streaming::DeltaBatch;
using streaming::DynamicHeteroGraph;
using streaming::DynamicHeteroGraphOptions;
using streaming::EdgeEvent;
using streaming::GraphDeltaLog;
using streaming::NodeEvent;

constexpr int kShards = 2;

struct BenchConfig {
  bool smoke = false;          // tiny iteration counts for the CI smoke run
  std::string json_path;       // "" = no JSON artifact
};

/// Smallest power-of-two span giving the graph at least ~16 segments.
int64_t PickSpan(int64_t num_nodes) {
  int64_t span = 1;
  while (span * 32 < num_nodes) span <<= 1;
  return span;
}

/// Deterministic serving fingerprint: fixed-seed weighted draws plus
/// focal-top-k ROIs for a few (user, query) pairs.
std::vector<int64_t> FingerprintOf(const DynamicHeteroGraph& g,
                                   const std::vector<NodeId>& users,
                                   const std::vector<NodeId>& queries) {
  std::vector<int64_t> fp;
  auto snap = g.MakeSnapshot();
  Rng rng(123);
  const int64_t n = g.num_nodes_allocated();
  for (NodeId id = 0; id < n; id += 7) {
    fp.push_back(snap.Degree(id));
    if (snap.Degree(id) > 0) {
      for (int i = 0; i < 4; ++i) fp.push_back(snap.SampleNeighbor(id, &rng));
    }
  }
  core::RoiSamplerOptions opts;
  opts.k = 6;
  opts.num_hops = 2;
  core::RoiSampler sampler(opts);
  streaming::DynamicGraphView view(&g);
  for (size_t i = 0; i < users.size() && i < queries.size() && i < 8; ++i) {
    Rng roi_rng(1000 + i);
    const auto fc = sampler.FocalVector(view, {users[i], queries[i]});
    const auto roi = sampler.Sample(view, queries[i], fc, &roi_rng);
    for (const auto& node : roi.nodes) fp.push_back(node.id);
  }
  return fp;
}

std::vector<NodeId> NodesOfType(const graph::HeteroGraph& g, NodeType t,
                                size_t limit) {
  std::vector<NodeId> all;
  for (NodeId v = 0; v < g.num_nodes() && all.size() < limit; ++v) {
    if (g.node_type(v) == t && g.degree(v) > 0) all.push_back(v);
  }
  return all;
}

/// Appends one edge batch through the log (observer tees it to the WAL)
/// and applies it to the graph, endpoints drawn from [0, max_node).
void IngestEdgeBatch(GraphDeltaLog* log, DynamicHeteroGraph* graph,
                     NodeId max_node, int edges_per_batch, Rng* rng) {
  std::vector<EdgeEvent> events;
  events.reserve(edges_per_batch);
  for (int i = 0; i < edges_per_batch; ++i) {
    const NodeId u = static_cast<NodeId>(rng->Uniform(max_node));
    NodeId v = static_cast<NodeId>(rng->Uniform(max_node));
    if (v == u) v = (v + 1) % max_node;
    events.push_back({u, v, RelationKind::kClick,
                      0.5f + static_cast<float>(rng->UniformFloat()), 0});
  }
  DeltaBatch batch;
  batch.events = events;
  batch.epoch =
      log->Append(static_cast<int>(rng->Uniform(kShards)), std::move(events),
                  [graph](uint64_t e) { graph->NoteEpochIssued(e); });
  const auto st = graph->ApplyBatch(batch);
  if (!st.ok()) {
    std::fprintf(stderr, "ingest failed: %s\n", st.ToString().c_str());
    std::abort();
  }
}

void MintNode(GraphDeltaLog* log, DynamicHeteroGraph* graph, NodeId query,
              int content_dim, Rng* rng) {
  NodeEvent ev;
  ev.type = NodeType::kItem;
  ev.content.resize(content_dim);
  for (auto& x : ev.content) x = static_cast<float>(rng->UniformFloat());
  ev.slots = {3};
  std::vector<NodeEvent> nodes = {ev};
  std::vector<EdgeEvent> edges = {{query, -1, RelationKind::kClick, 1.0f, 0}};
  auto epoch = log->AppendWithNodes(
      0, &nodes, &edges,
      [graph](const std::vector<NodeEvent>& evs, uint64_t e) {
        return graph->AllocateNodeIds(evs, e);
      },
      [graph](uint64_t e) { graph->NoteEpochIssued(e); });
  DeltaBatch batch;
  batch.epoch = epoch.value();
  batch.node_events = std::move(nodes);
  batch.events = std::move(edges);
  const auto st = graph->ApplyBatch(batch);
  if (!st.ok()) {
    std::fprintf(stderr, "mint failed: %s\n", st.ToString().c_str());
    std::abort();
  }
}

struct CaseResult {
  double recovery_ms = 0.0;
  uint64_t replayed_epochs = 0;
  bool identical = false;
  int64_t num_nodes = 0;
};

/// One full ingest -> fold -> checkpoint -> tail -> recover cycle in a
/// fresh directory. `tail_epochs` is the checkpoint staleness knob.
CaseResult RunRecoveryCase(const std::string& dir, int num_items,
                           int pre_epochs, int tail_epochs, uint64_t seed) {
  fs::remove_all(dir);
  data::TaobaoGeneratorOptions opt;
  opt.num_users = num_items / 2;
  opt.num_queries = num_items / 2;
  opt.num_items = num_items;
  opt.num_sessions = num_items * 4;
  opt.num_categories = 12;
  opt.content_dim = 16;
  opt.seed = seed;
  auto ds = data::GenerateTaobaoDataset(opt);

  DynamicHeteroGraphOptions gopts;
  gopts.segment_span = PickSpan(ds.graph.num_nodes());
  DynamicHeteroGraph dyn(&ds.graph, gopts);
  GraphDeltaLog log(kShards);
  persist::DeltaLogPersister persister(&log, dir);
  if (!persister.Start(0).ok()) std::abort();

  Rng rng(seed + 1);
  const NodeId base_nodes = static_cast<NodeId>(ds.graph.num_nodes());
  for (int i = 0; i < pre_epochs; ++i) {
    IngestEdgeBatch(&log, &dyn, base_nodes, 4, &rng);
    if (i % 64 == 63) MintNode(&log, &dyn, 1, opt.content_dim, &rng);
  }
  if (!dyn.Compact().ok()) std::abort();

  persist::CheckpointWriterOptions copts;
  copts.wal_shards = kShards;
  persist::CheckpointWriter writer(&dyn, dir, copts);
  auto stats = writer.Write();
  if (!stats.ok()) std::abort();
  if (!persister.OnCheckpoint(stats.value().checkpoint_epoch).ok()) {
    std::abort();
  }
  for (int i = 0; i < tail_epochs; ++i) {
    IngestEdgeBatch(&log, &dyn, base_nodes, 4, &rng);
  }

  auto users = NodesOfType(ds.graph, NodeType::kUser, 8);
  auto queries = NodesOfType(ds.graph, NodeType::kQuery, 8);
  const auto before = FingerprintOf(dyn, users, queries);

  CaseResult result;
  result.num_nodes = dyn.num_nodes_allocated();
  WallTimer timer;
  persist::RecoverOptions ropts;
  ropts.graph_options = gopts;
  auto recovered = persist::RecoverFrom(dir, ropts);
  result.recovery_ms = timer.ElapsedMicros() / 1000.0;
  if (!recovered.ok()) {
    std::fprintf(stderr, "recovery failed: %s\n",
                 recovered.status().ToString().c_str());
    std::abort();
  }
  result.replayed_epochs = recovered.value().replayed_epochs;
  result.identical =
      before == FingerprintOf(*recovered.value().graph, users, queries);
  fs::remove_all(dir);
  return result;
}

int Run(const BenchConfig& cfg) {
  std::printf("=== Recovery benchmark%s ===\n", cfg.smoke ? " (smoke)" : "");
  MetricSink sink("recovery");
  const std::string root =
      (fs::temp_directory_path() / "zoomer_bench_recovery").string();
  bool all_identical = true;

  // ---- 1. Recovery time vs graph size -----------------------------------
  const std::vector<std::pair<const char*, int>> sizes =
      cfg.smoke ? std::vector<std::pair<const char*, int>>{{"small", 300},
                                                           {"medium", 600}}
                : std::vector<std::pair<const char*, int>>{{"small", 600},
                                                           {"medium", 1500},
                                                           {"large", 3000}};
  const int pre = cfg.smoke ? 256 : 2048;
  const int tail = cfg.smoke ? 128 : 1024;
  for (const auto& [name, items] : sizes) {
    const auto r = RunRecoveryCase(root, items, pre, tail, 42);
    std::printf("[size %-6s] %lld nodes: recovery %.2f ms, %llu epochs "
                "replayed, topk %s\n",
                name, static_cast<long long>(r.num_nodes), r.recovery_ms,
                static_cast<unsigned long long>(r.replayed_epochs),
                r.identical ? "identical" : "DIVERGED");
    sink.Record(std::string("recovery_ms_") + name, r.recovery_ms);
    sink.Record(std::string("replayed_epochs_") + name,
                static_cast<double>(r.replayed_epochs));
    all_identical = all_identical && r.identical;
  }

  // ---- 2. Recovery time vs checkpoint staleness --------------------------
  const int stale_items = cfg.smoke ? 300 : 1000;
  for (const int stale_tail : {0, tail / 2, tail * 2}) {
    const auto r = RunRecoveryCase(root, stale_items, pre, stale_tail, 7);
    std::printf("[staleness %4d] recovery %.2f ms (%llu epochs replayed), "
                "topk %s\n",
                stale_tail, r.recovery_ms,
                static_cast<unsigned long long>(r.replayed_epochs),
                r.identical ? "identical" : "DIVERGED");
    sink.Record("recovery_ms_tail_" + std::to_string(stale_tail),
                r.recovery_ms);
    all_identical = all_identical && r.identical;
  }

  // ---- 3. Incremental checkpoint bytes: 1/8 of segments dirty ------------
  {
    fs::remove_all(root);
    data::TaobaoGeneratorOptions opt;
    opt.num_users = cfg.smoke ? 200 : 800;
    opt.num_queries = cfg.smoke ? 200 : 800;
    opt.num_items = cfg.smoke ? 400 : 1600;
    opt.num_sessions = cfg.smoke ? 1600 : 6400;
    opt.content_dim = 16;
    opt.seed = 9;
    auto ds = data::GenerateTaobaoDataset(opt);
    DynamicHeteroGraphOptions gopts;
    gopts.segment_span = PickSpan(ds.graph.num_nodes());
    DynamicHeteroGraph dyn(&ds.graph, gopts);
    GraphDeltaLog log(kShards);
    Rng rng(31);

    persist::CheckpointWriterOptions copts;
    copts.wal_shards = kShards;
    persist::CheckpointWriter writer(&dyn, root, copts);
    auto full = writer.Write();
    if (!full.ok()) std::abort();

    // Dirty only the first 1/8 of the segments (both edge endpoints inside
    // their id range), fold exactly those, and re-checkpoint.
    const int64_t num_segments =
        (dyn.base()->num_nodes() + gopts.segment_span - 1) /
        gopts.segment_span;
    const int64_t dirty_segments = std::max<int64_t>(1, num_segments / 8);
    const NodeId dirty_range =
        static_cast<NodeId>(dirty_segments * gopts.segment_span);
    const int touches = cfg.smoke ? 64 : 512;
    for (int i = 0; i < touches; ++i) {
      IngestEdgeBatch(&log, &dyn, dirty_range, 4, &rng);
    }
    std::vector<int64_t> selected;
    for (int64_t s = 0; s < dirty_segments; ++s) selected.push_back(s);
    if (!dyn.CompactSegments(selected).ok()) std::abort();
    auto incr = writer.Write();
    if (!incr.ok()) std::abort();

    const double ratio = static_cast<double>(incr.value().bytes_written) /
                         static_cast<double>(full.value().bytes_written);
    std::printf("[incremental] full checkpoint %lld bytes (%lld segments), "
                "1/8-dirty checkpoint %lld bytes (%lld written, %lld "
                "reused): ratio %.3f\n",
                static_cast<long long>(full.value().bytes_written),
                static_cast<long long>(full.value().segments_written),
                static_cast<long long>(incr.value().bytes_written),
                static_cast<long long>(incr.value().segments_written),
                static_cast<long long>(incr.value().segments_reused),
                ratio);
    sink.Record("ckpt_full_bytes", static_cast<double>(full.value().bytes_written));
    sink.Record("ckpt_incr_bytes", static_cast<double>(incr.value().bytes_written));
    sink.Record("incr_ckpt_bytes_ratio", ratio);
    fs::remove_all(root);
  }

  sink.Record("topk_identical", all_identical ? 1.0 : 0.0);
  std::printf("[gate] topk_identical = %d\n", all_identical ? 1 : 0);

  // Full registry snapshot (persist.checkpoint_latency_us, wal fsync
  // latency, recovery_replay_epochs, ...) under "obs." keys.
  obs::MetricsExporter::Flatten(
      obs::MetricsRegistry::Global()->Snapshot(),
      [&sink](const std::string& key, double value) {
        sink.Record("obs." + key, value);
      });

  if (!cfg.json_path.empty()) {
    if (!sink.WriteJson(cfg.json_path, cfg.smoke)) {
      std::printf("failed to write %s\n", cfg.json_path.c_str());
      return 1;
    }
    std::printf("\nmetrics written to %s\n", cfg.json_path.c_str());
  }
  return all_identical ? 0 : 1;
}

}  // namespace
}  // namespace bench
}  // namespace zoomer

int main(int argc, char** argv) {
  zoomer::bench::BenchConfig cfg;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      cfg.smoke = true;
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      cfg.json_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--smoke] [--json PATH]\n", argv[0]);
      return 2;
    }
  }
  return zoomer::bench::Run(cfg);
}
