#include "serving/neighbor_cache.h"

#include <algorithm>
#include <chrono>
#include <thread>

#include "common/timer.h"
#include "streaming/dynamic_hetero_graph.h"

namespace zoomer {
namespace serving {

using graph::NodeId;

NeighborCache::NeighborCache(const graph::HeteroGraph* g,
                             NeighborCacheOptions options)
    : graph_(g),
      options_(options),
      registry_(options.registry != nullptr ? options.registry
                                            : obs::MetricsRegistry::Global()),
      refresher_(std::make_unique<ThreadPool>(options.refresh_threads)) {
  fill_latency_us_ =
      registry_->GetHistogram("serving.neighbor_cache.fill_latency_us");
  auto counter = [this](const std::string& name, const obs::Counter* c) {
    registry_->RegisterCounter(name, c);
    registered_.emplace_back(name, c);
  };
  counter("serving.neighbor_cache.hits", &hits_);
  counter("serving.neighbor_cache.misses", &misses_);
  counter("serving.neighbor_cache.invalidations", &invalidations_);
  counter("serving.neighbor_cache.scheduled_fills", &scheduled_fills_);
  counter("serving.neighbor_cache.completed_fills", &completed_fills_);
}

NeighborCache::~NeighborCache() {
  // Join in-flight fills (they bump the counters below) before the registry
  // stops seeing the views and the members die. Shutdown() rather than
  // reset(): a fill that re-runs itself reads `refresher_` from its worker
  // thread, so the unique_ptr must not be mutated until workers are joined.
  refresher_->Shutdown();
  for (const auto& [name, ptr] : registered_) {
    registry_->Unregister(name, ptr);
  }
}

void NeighborCache::AttachDynamicGraph(
    const streaming::DynamicHeteroGraph* dynamic) {
  dynamic_.store(dynamic, std::memory_order_release);
}

namespace {

std::vector<NodeId> KeepTopK(std::vector<std::pair<float, NodeId>>* scored,
                             size_t k) {
  const size_t keep = std::min(k, scored->size());
  std::partial_sort(scored->begin(), scored->begin() + keep, scored->end(),
                    std::greater<>());
  std::vector<NodeId> out;
  out.reserve(keep);
  for (size_t i = 0; i < keep; ++i) out.push_back((*scored)[i].second);
  return out;
}

/// Merged base + delta top-k off an already-pinned snapshot: freshly
/// ingested clicks compete for the top-k on accumulated weight like any
/// offline edge. A fill can race a node's birth (an update hook fires
/// before this snapshot's watermark covers the birth epoch): store an
/// empty entry — the hook that makes the node visible also invalidates it,
/// triggering a re-fill.
std::vector<NodeId> TopKFromSnapshot(
    const streaming::DynamicHeteroGraph::Snapshot& snap, NodeId node,
    size_t k) {
  if (node < 0 || node >= snap.num_nodes()) return {};
  std::vector<graph::NeighborEntry> merged;
  snap.Neighbors(node, &merged);
  std::vector<std::pair<float, NodeId>> scored;
  scored.reserve(merged.size());
  for (const auto& e : merged) scored.emplace_back(e.weight, e.neighbor);
  return KeepTopK(&scored, k);
}

}  // namespace

std::vector<NodeId> NeighborCache::ComputeTopK(NodeId node) const {
  // Highest-weight neighbors (interaction frequency) up to k.
  const streaming::DynamicHeteroGraph* dynamic =
      dynamic_.load(std::memory_order_acquire);
  if (dynamic != nullptr) {
    const auto snap = dynamic->MakeSnapshot();
    return TopKFromSnapshot(snap, node, static_cast<size_t>(options_.k));
  }
  // Static path: ids past the offline CSR cannot have neighbors.
  if (node < 0 || node >= graph_->num_nodes()) return {};
  auto ids = graph_->neighbor_ids(node);
  auto weights = graph_->neighbor_weights(node);
  std::vector<std::pair<float, NodeId>> scored;
  scored.reserve(ids.size());
  for (size_t i = 0; i < ids.size(); ++i) {
    scored.emplace_back(weights[i], ids[i]);
  }
  return KeepTopK(&scored, static_cast<size_t>(options_.k));
}

bool NeighborCache::Get(NodeId node, std::vector<NodeId>* out) {
  out->clear();
  return GetMany({&node, 1}, out) == 1;
}

int NeighborCache::GetMany(std::span<const NodeId> nodes,
                           std::vector<NodeId>* out) {
  int found = 0;
  std::vector<NodeId> to_fill;  // allocates only on a miss with no fill
  {
    std::shared_lock<std::shared_mutex> lock(mu_);
    for (NodeId node : nodes) {
      auto it = cache_.find(node);
      if (it != cache_.end()) {
        out->insert(out->end(), it->second.begin(), it->second.end());
        ++found;
        continue;
      }
      // Checked under the shared lock so a miss burst on a cold node does
      // not serialize every reader behind ScheduleFill's writer lock.
      if (!pending_fills_.count(node)) to_fill.push_back(node);
    }
  }
  if (found > 0) hits_.Add(found);
  const int missed = static_cast<int>(nodes.size()) - found;
  if (missed > 0) misses_.Add(missed);
  for (NodeId node : to_fill) ScheduleFill(node);
  return found;
}

void NeighborCache::ScheduleFill(NodeId node) {
  {
    std::unique_lock<std::shared_mutex> lock(mu_);
    // Concurrent misses on one node coalesce into a single background fill.
    if (!pending_fills_.try_emplace(node, false).second) return;
  }
  SubmitFill(node);
}

void NeighborCache::SubmitFill(NodeId node) {
  scheduled_fills_.Add(1);
  refresher_->Submit([this, node] { FillTask(node); });
}

void NeighborCache::FillTask(NodeId node) {
  if (options_.refresh_delay_micros > 0) {
    std::this_thread::sleep_for(
        std::chrono::microseconds(options_.refresh_delay_micros));
  }
  WallTimer fill_timer;
  auto topk = ComputeTopK(node);
  fill_latency_us_->Record(static_cast<int64_t>(fill_timer.ElapsedMicros()));
  bool rerun = false;
  {
    std::unique_lock<std::shared_mutex> lock(mu_);
    cache_[node] = std::move(topk);
    auto it = pending_fills_.find(node);
    if (it != pending_fills_.end()) {
      if (it->second) {
        // An Invalidate landed while this fill was computing: the stored
        // top-k may predate the graph update, so run once more.
        it->second = false;
        rerun = true;
      } else {
        pending_fills_.erase(it);
      }
    }
  }
  completed_fills_.Add(1);
  if (rerun) SubmitFill(node);
}

void NeighborCache::Warm(NodeId node) {
  auto topk = ComputeTopK(node);
  {
    std::unique_lock<std::shared_mutex> lock(mu_);
    cache_[node] = std::move(topk);
  }
  completed_fills_.Add(1);
}

void NeighborCache::WarmAll(const std::vector<NodeId>& nodes) {
  // Warm lists repeat nodes (one entry per session, say): fill each once.
  std::vector<NodeId> distinct = nodes;
  std::sort(distinct.begin(), distinct.end());
  distinct.erase(std::unique(distinct.begin(), distinct.end()),
                 distinct.end());
  const streaming::DynamicHeteroGraph* dynamic =
      dynamic_.load(std::memory_order_acquire);
  if (dynamic == nullptr) {
    for (NodeId n : distinct) Warm(n);
    return;
  }
  // One epoch pin for the whole warm list: per-node MakeSnapshot() is an
  // atomic fence plus watermark walk, which dominates bulk pre-warming of
  // large candidate sets.
  const auto snap = dynamic->MakeSnapshot();
  for (NodeId n : distinct) {
    auto topk = TopKFromSnapshot(snap, n, static_cast<size_t>(options_.k));
    {
      std::unique_lock<std::shared_mutex> lock(mu_);
      cache_[n] = std::move(topk);
    }
    completed_fills_.Add(1);
  }
}

void NeighborCache::Invalidate(NodeId node) {
  bool was_cached, fill_in_flight = false;
  {
    std::unique_lock<std::shared_mutex> lock(mu_);
    was_cached = cache_.erase(node) > 0;
    auto it = pending_fills_.find(node);
    if (it != pending_fills_.end()) {
      // A fill is computing right now and may have read the pre-update
      // graph; mark it dirty so it re-runs after it lands.
      it->second = true;
      fill_in_flight = true;
    }
  }
  if (!was_cached && !fill_in_flight) return;
  invalidations_.Add(1);
  // Asynchronous re-fill keeps the refresh off the request path, matching
  // the paper's fully asynchronous cache updating.
  if (!fill_in_flight) ScheduleFill(node);
}

void NeighborCache::InvalidateRange(NodeId begin, NodeId end) {
  if (begin >= end) return;
  std::vector<NodeId> to_fill;
  int64_t affected = 0;
  {
    std::unique_lock<std::shared_mutex> lock(mu_);
    // Same mid-compute window as Invalidate(): an in-flight fill for a row
    // in the range may have read the pre-fold graph — mark it dirty so it
    // re-runs instead of landing a stale top-k.
    int64_t pending_only = 0;
    for (auto& [node, dirty] : pending_fills_) {
      if (node < begin || node >= end) continue;
      dirty = true;
      if (!cache_.count(node)) ++pending_only;
    }
    for (auto it = cache_.begin(); it != cache_.end();) {
      if (it->first < begin || it->first >= end) {
        ++it;
        continue;
      }
      if (!pending_fills_.count(it->first)) to_fill.push_back(it->first);
      ++affected;
      it = cache_.erase(it);
    }
    affected += pending_only;
  }
  if (affected == 0) return;
  invalidations_.Add(affected);
  for (NodeId n : to_fill) ScheduleFill(n);
}

void NeighborCache::InvalidateAll() {
  std::vector<NodeId> to_fill;
  int64_t affected;
  {
    std::unique_lock<std::shared_mutex> lock(mu_);
    // Same mid-compute window as Invalidate(): mark every in-flight fill
    // dirty so it re-runs instead of landing a pre-update top-k.
    int64_t pending_only = 0;
    for (auto& [node, dirty] : pending_fills_) {
      dirty = true;
      if (!cache_.count(node)) ++pending_only;
    }
    to_fill.reserve(cache_.size());
    for (const auto& [node, topk] : cache_) {
      if (!pending_fills_.count(node)) to_fill.push_back(node);
    }
    affected = static_cast<int64_t>(cache_.size()) + pending_only;
    cache_.clear();
  }
  invalidations_.Add(affected);
  for (NodeId n : to_fill) ScheduleFill(n);
}

size_t NeighborCache::size() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return cache_.size();
}

NeighborCacheStats NeighborCache::Stats() const {
  NeighborCacheStats stats;
  stats.hits = hits_.Value();
  stats.misses = misses_.Value();
  stats.invalidations = invalidations_.Value();
  stats.scheduled_fills = scheduled_fills_.Value();
  stats.completed_fills = completed_fills_.Value();
  stats.entries = size();
  return stats;
}

}  // namespace serving
}  // namespace zoomer
