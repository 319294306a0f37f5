#include "engine/distributed_graph_engine.h"

#include <algorithm>
#include <chrono>
#include <thread>

#include "common/logging.h"
#include "graph/graph_view.h"
#include "obs/metrics.h"
#include "streaming/dynamic_hetero_graph.h"
#include "streaming/graph_delta_log.h"

namespace zoomer {
namespace engine {

using graph::NodeId;

namespace {

/// Distinct weighted draws via the alias table (constant-time per draw);
/// the shared GraphView helper provides the bounded-retry dedup the
/// production engine's draw-with-dedup uses. The static path (the shard's
/// graph) and the streaming path (a snapshot's pinned base) share it.
SampleResponse SampleFromCsr(const graph::HeteroGraph& g,
                             const SampleRequest& req) {
  SampleResponse resp;
  if (g.degree(req.node) == 0) return resp;
  Rng rng(req.rng_seed);
  const std::vector<NodeId> seen =
      g.SampleDistinctNeighbors(req.node, req.k, &rng);
  graph::NeighborScratch scratch;
  const graph::NeighborBlock block = g.Neighbors(req.node, &scratch);
  for (NodeId nb : seen) {
    resp.neighbors.push_back(nb);
    float w = 0.0f;
    for (int64_t p = 0; p < block.size(); ++p) {
      if (block.ids[p] == nb) {
        w = block.weights[p];
        break;
      }
    }
    resp.weights.push_back(w);
  }
  return resp;
}

/// Projects a delta batch onto one shard's replica view. Edge events are
/// kept when either endpoint hashes to the shard (ApplyBatch stores a
/// half-edge under both endpoints; the replica only ever serves nodes it
/// owns, so foreign-endpoint half-edges are inert). Node events are kept
/// unconditionally: they are the id-space record, and replica graphs extend
/// their id-space strictly in order — dropping a foreign mint would leave an
/// allocation gap that rejects every later batch.
streaming::DeltaBatch FilterBatchForShard(const streaming::DeltaBatch& b,
                                          int shard, int num_shards) {
  streaming::DeltaBatch out;
  out.epoch = b.epoch;
  out.node_events = b.node_events;
  for (const streaming::EdgeEvent& ev : b.events) {
    if (GraphShard::NodeShard(ev.src, num_shards) == shard ||
        GraphShard::NodeShard(ev.dst, num_shards) == shard) {
      out.events.push_back(ev);
    }
  }
  return out;
}

}  // namespace

GraphShard::GraphShard(const graph::HeteroGraph* g, int shard_id,
                       int num_shards)
    : graph_(g), shard_id_(shard_id), num_shards_(num_shards) {
  ZCHECK(g != nullptr);
  for (NodeId v = 0; v < g->num_nodes(); ++v) {
    if (Owns(v)) owned_.push_back(v);
  }
}

StatusOr<SampleResponse> GraphShard::Sample(const SampleRequest& req) const {
  return SampleFrom(req, dynamic_.load(std::memory_order_acquire));
}

namespace {

/// Streaming-path draw off an already-pinned epoch snapshot: freshly
/// ingested edges (and nodes born online) are sampleable shard-side. The
/// snapshot's base is also the compaction-current CSR, so untouched nodes
/// stay on the cheap alias path without materializing a merged list.
/// Factored out of SampleFrom so SampleManyFrom serves a whole batch under
/// one snapshot pin.
StatusOr<SampleResponse> SampleFromSnapshot(
    const streaming::DynamicHeteroGraph::Snapshot& snap,
    const SampleRequest& req) {
  if (req.node >= snap.num_nodes()) {
    return Status::InvalidArgument("node id out of range");
  }
  if (snap.DeltaDegree(req.node) == 0) {
    if (!snap.InBase(req.node)) return SampleResponse{};  // isolated
    return SampleFromCsr(snap.base(), req);
  }
  std::vector<graph::NeighborEntry> merged;
  snap.Neighbors(req.node, &merged);
  SampleResponse resp;
  Rng rng(req.rng_seed);
  for (NodeId nb : snap.SampleDistinctNeighbors(req.node, req.k, &rng)) {
    resp.neighbors.push_back(nb);
    float w = 0.0f;
    for (const auto& entry : merged) {
      if (entry.neighbor == nb) {
        w = entry.weight;
        break;
      }
    }
    resp.weights.push_back(w);
  }
  return resp;
}

}  // namespace

StatusOr<SampleResponse> GraphShard::SampleFrom(
    const SampleRequest& req,
    const streaming::DynamicHeteroGraph* view) const {
  if (req.node < 0) {
    return Status::InvalidArgument("node id out of range");
  }
  if (!Owns(req.node)) {
    return Status::FailedPrecondition("node not owned by this shard");
  }
  if (view != nullptr) {
    auto snap = view->MakeSnapshot();
    return SampleFromSnapshot(snap, req);
  }
  if (req.node >= graph_->num_nodes()) {
    return Status::InvalidArgument("node id out of range");
  }
  return SampleFromCsr(*graph_, req);
}

std::vector<StatusOr<SampleResponse>> GraphShard::SampleMany(
    std::span<const SampleRequest> reqs) const {
  return SampleManyFrom(reqs, dynamic_.load(std::memory_order_acquire));
}

std::vector<StatusOr<SampleResponse>> GraphShard::SampleManyFrom(
    std::span<const SampleRequest> reqs,
    const streaming::DynamicHeteroGraph* view) const {
  std::vector<StatusOr<SampleResponse>> out;
  out.reserve(reqs.size());
  if (view == nullptr) {
    for (const SampleRequest& req : reqs) out.push_back(SampleFrom(req, nullptr));
    return out;
  }
  // One epoch snapshot (base pin + hot-cache reader pin) for the batch.
  const auto snap = view->MakeSnapshot();
  for (const SampleRequest& req : reqs) {
    if (req.node < 0) {
      out.push_back(Status::InvalidArgument("node id out of range"));
    } else if (!Owns(req.node)) {
      out.push_back(Status::FailedPrecondition("node not owned by this shard"));
    } else {
      out.push_back(SampleFromSnapshot(snap, req));
    }
  }
  return out;
}

size_t GraphShard::MemoryBytes() const {
  // Ownership list plus this shard's slice of the CSR arrays.
  size_t bytes = owned_.size() * sizeof(NodeId);
  for (NodeId v : owned_) {
    bytes += static_cast<size_t>(graph_->degree(v)) *
             (sizeof(NodeId) + sizeof(float) + 1);
  }
  return bytes;
}

DistributedGraphEngine::DistributedGraphEngine(const graph::HeteroGraph* g,
                                               EngineOptions options)
    : graph_(g), options_(options) {
  ZCHECK_GT(options_.num_shards, 0);
  ZCHECK_GT(options_.replication_factor, 0);
  registry_ = options_.registry != nullptr ? options_.registry
                                           : obs::MetricsRegistry::Global();
  sample_requests_ = registry_->GetCounter("engine.sample_requests");
  update_events_ = registry_->GetCounter("engine.update_events");
  sample_latency_us_ = registry_->GetHistogram("engine.sample_latency_us");
  request_latency_us_ = registry_->GetHistogram("engine.request_latency_us");
  sample_batch_size_ = registry_->GetHistogram("engine.sample_batch_size");
  auto track = [this](const std::string& name, const void* view) {
    registered_.emplace_back(name, view);
  };
  registry_->RegisterCounter("engine.stale_fallback_reads",
                             &stale_fallback_reads_);
  track("engine.stale_fallback_reads", &stale_fallback_reads_);
  registry_->RegisterCounter("engine.killed_inflight_failures",
                             &killed_inflight_failures_);
  track("engine.killed_inflight_failures", &killed_inflight_failures_);
  registry_->RegisterGauge("engine.dead_replicas", &dead_replicas_gauge_,
                           obs::GaugeAgg::kSum);
  track("engine.dead_replicas", &dead_replicas_gauge_);

  shard_update_events_ =
      std::make_unique<PaddedCounter[]>(options_.num_shards);
  for (int s = 0; s < options_.num_shards; ++s) {
    for (int r = 0; r < options_.replication_factor; ++r) {
      auto rep = std::make_unique<Replica>();
      rep->shard = std::make_unique<GraphShard>(g, s, options_.num_shards);
      rep->worker = std::make_unique<ThreadPool>(1);
      rep->shard_id = s;
      rep->replica_id = r;
      const std::string suffix =
          ".shard" + std::to_string(s) + ".r" + std::to_string(r);
      // Each gauge exports under its per-replica name and the aggregate:
      // worst-replica lag is the honest fleet lag (max), per-replica queue
      // depths partition the engine's total backlog (sum).
      registry_->RegisterGauge("engine.replica_watermark_lag" + suffix,
                               &rep->lag_gauge);
      track("engine.replica_watermark_lag" + suffix, &rep->lag_gauge);
      registry_->RegisterGauge("engine.replica_watermark_lag",
                               &rep->lag_gauge);
      track("engine.replica_watermark_lag", &rep->lag_gauge);
      registry_->RegisterGauge("engine.queue_depth" + suffix,
                               &rep->queue_gauge);
      track("engine.queue_depth" + suffix, &rep->queue_gauge);
      registry_->RegisterGauge("engine.queue_depth", &rep->queue_gauge,
                               obs::GaugeAgg::kSum);
      track("engine.queue_depth", &rep->queue_gauge);
      replicas_.push_back(std::move(rep));
    }
  }
}

DistributedGraphEngine::~DistributedGraphEngine() {
  shutdown_.store(true, std::memory_order_release);
  for (auto& bus : buses_) {
    {
      std::lock_guard<std::mutex> lock(bus->mu);
    }
    bus->cv.notify_all();
  }
  for (auto& rep : replicas_) {
    if (rep->applier.joinable()) rep->applier.join();
    if (log_ != nullptr && rep->log_consumer >= 0) {
      log_->UnregisterConsumer(rep->log_consumer);
    }
  }
  for (const auto& [name, view] : registered_) {
    registry_->Unregister(name, view);
  }
  // replicas_ destruction drains each worker pool (ThreadPool dtor joins
  // after in-flight samples finish) before freeing the shard and dyn view.
}

void DistributedGraphEngine::AttachDynamicGraph(
    const streaming::DynamicHeteroGraph* dynamic) {
  ZCHECK(buses_.empty())
      << "AttachDynamicGraph is the legacy shared-graph mode; the engine is "
         "already in replica-group (ConnectUpdateFanout) mode";
  for (auto& rep : replicas_) rep->shard->AttachDynamicGraph(dynamic);
}

void DistributedGraphEngine::ConnectUpdateFanout(
    streaming::GraphDeltaLog* log,
    const streaming::DynamicHeteroGraph* primary) {
  ZCHECK(log != nullptr && primary != nullptr);
  ZCHECK(buses_.empty()) << "ConnectUpdateFanout must be called once";
  log_ = log;
  primary_.store(primary, std::memory_order_release);
  buses_.reserve(options_.num_shards);
  for (int s = 0; s < options_.num_shards; ++s) {
    buses_.push_back(std::make_unique<ShardBus>());
  }
  for (auto& rep : replicas_) {
    // Every replica builds its own delta view over the shared immutable
    // base and replays the log independently; its registered consumer
    // cursor pins the log tail it has not applied yet (survives kills).
    rep->dyn = std::make_unique<streaming::DynamicHeteroGraph>(graph_);
    rep->shard->AttachDynamicGraph(rep->dyn.get());
    rep->log_consumer = log_->RegisterConsumer(0);
    Replica* raw = rep.get();
    rep->applier = std::thread([this, raw] { ApplierLoop(raw); });
  }
}

void DistributedGraphEngine::RecordShardUpdate(int shard, int64_t num_events) {
  if (shard < 0 || shard >= options_.num_shards) return;
  shard_update_events_[shard].v.fetch_add(num_events,
                                          std::memory_order_relaxed);
  update_events_->Add(num_events);
}

void DistributedGraphEngine::PublishDelta(int shard, uint64_t epoch,
                                          bool all_shards) {
  if (buses_.empty()) return;  // fanout not connected (legacy mode)
  auto notify = [this, epoch](int s) {
    ShardBus* bus = buses_[s].get();
    {
      std::lock_guard<std::mutex> lock(bus->mu);
      bus->published = std::max(bus->published, epoch);
    }
    bus->cv.notify_all();
  };
  if (all_shards) {
    for (int s = 0; s < options_.num_shards; ++s) notify(s);
  } else if (shard >= 0 && shard < options_.num_shards) {
    notify(shard);
  }
}

void DistributedGraphEngine::RefreshReplicaGauges(Replica* rep) const {
  const streaming::DynamicHeteroGraph* primary =
      primary_.load(std::memory_order_acquire);
  if (primary != nullptr) {
    const uint64_t pw = primary->watermark_epoch();
    const uint64_t w = rep->watermark.load(std::memory_order_acquire);
    rep->lag_gauge.Set(pw > w ? static_cast<double>(pw - w) : 0.0);
  }
  rep->queue_gauge.Set(
      static_cast<double>(rep->inflight.load(std::memory_order_relaxed)));
}

void DistributedGraphEngine::SetDeadGauge() {
  dead_replicas_gauge_.Set(
      static_cast<double>(dead_replicas_.load(std::memory_order_relaxed)));
}

void DistributedGraphEngine::ApplierLoop(Replica* rep) {
  ShardBus* bus = buses_[rep->shard_id].get();
  uint64_t cursor = rep->watermark.load(std::memory_order_relaxed);
  while (!shutdown_.load(std::memory_order_acquire)) {
    {
      std::unique_lock<std::mutex> lock(bus->mu);
      // The timeout doubles as a poll: cross-shard edge batches (dst owned
      // here, src routed elsewhere) and revival only move the *primary*
      // watermark / alive flag, not necessarily this bus.
      bus->cv.wait_for(lock, std::chrono::microseconds(500), [&] {
        return shutdown_.load(std::memory_order_acquire) ||
               (rep->alive.load(std::memory_order_acquire) &&
                bus->published > cursor);
      });
    }
    if (shutdown_.load(std::memory_order_acquire)) break;
    // Keep the lag gauge honest even while dead — a killed replica's lag
    // grows with the primary until ReviveReplica's replay drains it.
    RefreshReplicaGauges(rep);
    if (!rep->alive.load(std::memory_order_acquire)) continue;
    const streaming::DynamicHeteroGraph* primary =
        primary_.load(std::memory_order_acquire);
    // Bound the replay read by the primary's watermark: a watermark-covered
    // epoch is guaranteed fully appended AND applied to the primary, so
    // ReadSince cannot miss a batch that lands in its shard vector late.
    const uint64_t target = primary->watermark_epoch();
    if (target <= cursor) continue;
    const std::vector<streaming::DeltaBatch> batches =
        log_->ReadSince(cursor, target);
    for (const streaming::DeltaBatch& b : batches) {
      if (!rep->alive.load(std::memory_order_acquire)) break;  // killed
      const streaming::DeltaBatch filtered =
          FilterBatchForShard(b, rep->shard_id, options_.num_shards);
      if (!filtered.node_events.empty() || !filtered.events.empty()) {
        const Status st = rep->dyn->ApplyBatch(filtered);
        if (!st.ok()) {
          ZLOG(ERROR) << "replica shard" << rep->shard_id << ".r"
                      << rep->replica_id << " failed to apply epoch "
                      << b.epoch << ": " << st.message();
        }
      }
      cursor = b.epoch;
      rep->watermark.store(cursor, std::memory_order_release);
    }
    if (rep->alive.load(std::memory_order_acquire)) {
      // The full round applied: advance over epoch holes (capacity-rejected
      // mints burn an epoch without a batch) up to the read bound.
      cursor = std::max(cursor, target);
      rep->watermark.store(cursor, std::memory_order_release);
    }
    log_->AdvanceConsumer(rep->log_consumer, cursor);
    RefreshReplicaGauges(rep);
  }
}

void DistributedGraphEngine::KillReplica(int shard, int r) {
  ZCHECK(shard >= 0 && shard < options_.num_shards);
  ZCHECK(r >= 0 && r < options_.replication_factor);
  Replica* rep = replica(shard, r);
  if (rep->alive.exchange(false, std::memory_order_acq_rel)) {
    dead_replicas_.fetch_add(1, std::memory_order_acq_rel);
    SetDeadGauge();
    if (!buses_.empty()) buses_[shard]->cv.notify_all();
    ZLOG(INFO) << "killed replica shard" << shard << ".r" << r;
  }
}

void DistributedGraphEngine::ReviveReplica(int shard, int r) {
  ZCHECK(shard >= 0 && shard < options_.num_shards);
  ZCHECK(r >= 0 && r < options_.replication_factor);
  Replica* rep = replica(shard, r);
  if (!rep->alive.exchange(true, std::memory_order_acq_rel)) {
    dead_replicas_.fetch_sub(1, std::memory_order_acq_rel);
    SetDeadGauge();
    if (!buses_.empty()) buses_[shard]->cv.notify_all();
    ZLOG(INFO) << "revived replica shard" << shard << ".r" << r
               << " (replaying from epoch "
               << rep->watermark.load(std::memory_order_acquire) << ")";
  }
}

bool DistributedGraphEngine::IsReplicaAlive(int shard, int r) const {
  return replica(shard, r)->alive.load(std::memory_order_acquire);
}

uint64_t DistributedGraphEngine::ReplicaWatermark(int shard, int r) const {
  return replica(shard, r)->watermark.load(std::memory_order_acquire);
}

bool DistributedGraphEngine::AwaitReplicaCatchUp(int shard, int r,
                                                 int64_t timeout_micros) const {
  const Replica* rep = replica(shard, r);
  const int64_t deadline = obs::MonotonicMicros() + timeout_micros;
  while (true) {
    const streaming::DynamicHeteroGraph* primary =
        primary_.load(std::memory_order_acquire);
    const uint64_t pw = primary != nullptr ? primary->watermark_epoch() : 0;
    if (rep->watermark.load(std::memory_order_acquire) >= pw) return true;
    if (obs::MonotonicMicros() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
}

DistributedGraphEngine::RoutedTarget DistributedGraphEngine::RouteToReplica(
    int shard, uint64_t min_epoch) {
  const int rf = options_.replication_factor;
  const bool fanout = !buses_.empty();
  const streaming::DynamicHeteroGraph* primary =
      primary_.load(std::memory_order_acquire);

  // Freshness floor: the caller's read-your-writes epoch, raised by the
  // engine-wide staleness bound when configured (a replica trailing the
  // primary by more than the bound never serves).
  uint64_t floor = min_epoch;
  if (fanout && options_.freshness_bound_epochs > 0 && primary != nullptr) {
    const uint64_t pw = primary->watermark_epoch();
    if (pw > options_.freshness_bound_epochs) {
      floor = std::max(floor, pw - options_.freshness_bound_epochs);
    }
  }

  auto pick = [&](bool check_floor) -> Replica* {
    Replica* best = nullptr;
    int64_t best_load = 0;
    for (int r = 0; r < rf; ++r) {
      Replica* rep = replica(shard, r);
      if (!rep->alive.load(std::memory_order_acquire)) continue;
      if (check_floor && fanout && floor > 0 &&
          rep->watermark.load(std::memory_order_acquire) < floor) {
        continue;
      }
      const int64_t load = rep->inflight.load(std::memory_order_relaxed);
      if (best == nullptr || load < best_load) {
        best = rep;
        best_load = load;
      }
    }
    return best;
  };

  RoutedTarget target;
  target.rep = pick(/*check_floor=*/true);
  if (target.rep == nullptr) {
    // No alive replica satisfies the floor right now: wait a bounded
    // interval for an applier to catch up, then degrade gracefully.
    const int64_t deadline =
        obs::MonotonicMicros() + options_.freshness_wait_micros;
    while (target.rep == nullptr && obs::MonotonicMicros() < deadline) {
      std::this_thread::sleep_for(std::chrono::microseconds(20));
      target.rep = pick(/*check_floor=*/true);
    }
    if (target.rep == nullptr) {
      target.rep = pick(/*check_floor=*/false);
      if (target.rep != nullptr && fanout && floor > 0 && primary != nullptr) {
        // Serve off the primary graph through this replica's worker: the
        // primary's watermark covers every applied epoch, so the floor is
        // met deterministically — at the price of reading the shared view
        // (counted; watch engine.stale_fallback_reads stay near zero).
        target.use_primary = true;
        stale_fallback_reads_.Add(1);
      }
    }
  }
  return target;
}

std::future<StatusOr<SampleResponse>> DistributedGraphEngine::SampleAsync(
    const SampleRequest& req) {
  const int shard = GraphShard::NodeShard(req.node, options_.num_shards);
  const streaming::DynamicHeteroGraph* primary =
      primary_.load(std::memory_order_acquire);
  const RoutedTarget target = RouteToReplica(shard, req.min_epoch);
  Replica* rep = target.rep;
  const bool use_primary = target.use_primary;
  if (rep == nullptr) {
    // The whole replica group is dead — fail fast instead of queueing on a
    // worker that cannot serve.
    std::promise<StatusOr<SampleResponse>> broken;
    broken.set_value(
        Status::Unavailable("all replicas of the owning shard are dead"));
    return broken.get_future();
  }

  rep->requests.fetch_add(1, std::memory_order_relaxed);
  rep->inflight.fetch_add(1, std::memory_order_relaxed);
  rep->queue_gauge.Set(
      static_cast<double>(rep->inflight.load(std::memory_order_relaxed)));
  sample_requests_->Add(1);
  const int rpc_micros = options_.simulated_rpc_micros;
  const int64_t submit_us = obs::MonotonicMicros();
  obs::Histogram* service_hist = sample_latency_us_;
  obs::Histogram* request_hist = request_latency_us_;
  obs::Counter* killed = &killed_inflight_failures_;
  return rep->worker->Submit([rep, req, rpc_micros, use_primary, primary,
                              submit_us, service_hist, request_hist, killed] {
    // The simulated network+serialization delay runs on the worker thread
    // *before* the service-time window opens: it contributes queueing
    // pressure (load), while engine.sample_latency_us stays a pure
    // service-time reading and engine.request_latency_us captures the
    // client-observed total (queue + rpc + service).
    if (rpc_micros > 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(rpc_micros));
    }
    StatusOr<SampleResponse> result = [&]() -> StatusOr<SampleResponse> {
      if (!rep->alive.load(std::memory_order_acquire)) {
        // Killed after routing but before service — the detection window.
        killed->Add(1);
        return Status::Unavailable("replica killed while request in flight");
      }
      const int64_t start_us = obs::MonotonicMicros();
      auto r = use_primary ? rep->shard->SampleFrom(req, primary)
                           : rep->shard->Sample(req);
      service_hist->Record(obs::MonotonicMicros() - start_us);
      return r;
    }();
    request_hist->Record(obs::MonotonicMicros() - submit_us);
    rep->inflight.fetch_sub(1, std::memory_order_relaxed);
    rep->queue_gauge.Set(
        static_cast<double>(rep->inflight.load(std::memory_order_relaxed)));
    return result;
  });
}

StatusOr<SampleResponse> DistributedGraphEngine::Sample(
    const SampleRequest& req) {
  return SampleAsync(req).get();
}

std::vector<StatusOr<SampleResponse>> DistributedGraphEngine::SampleMany(
    std::span<const SampleRequest> reqs) {
  std::vector<StatusOr<SampleResponse>> out(
      reqs.size(),
      StatusOr<SampleResponse>(Status::Unavailable("request not routed")));
  if (reqs.empty()) return out;

  // Group request indices by owning shard (order preserved within a group).
  std::vector<std::vector<size_t>> groups(options_.num_shards);
  for (size_t i = 0; i < reqs.size(); ++i) {
    groups[GraphShard::NodeShard(reqs[i].node, options_.num_shards)]
        .push_back(i);
  }

  const streaming::DynamicHeteroGraph* primary =
      primary_.load(std::memory_order_acquire);
  std::vector<std::future<void>> pending;
  for (int s = 0; s < options_.num_shards; ++s) {
    const std::vector<size_t>& idx = groups[s];
    if (idx.empty()) continue;
    // One routing decision per shard-group; the floor is the strictest
    // read-your-writes epoch in the group.
    uint64_t floor = 0;
    for (size_t i : idx) floor = std::max(floor, reqs[i].min_epoch);
    const RoutedTarget target = RouteToReplica(s, floor);
    Replica* rep = target.rep;
    if (rep == nullptr) {
      for (size_t i : idx) {
        out[i] = Status::Unavailable("all replicas of the owning shard are dead");
      }
      continue;
    }
    const int64_t n = static_cast<int64_t>(idx.size());
    rep->requests.fetch_add(n, std::memory_order_relaxed);
    rep->inflight.fetch_add(n, std::memory_order_relaxed);
    rep->queue_gauge.Set(
        static_cast<double>(rep->inflight.load(std::memory_order_relaxed)));
    sample_requests_->Add(n);
    sample_batch_size_->Record(n);
    auto batch = std::make_shared<std::vector<SampleRequest>>();
    batch->reserve(idx.size());
    for (size_t i : idx) batch->push_back(reqs[i]);
    const bool use_primary = target.use_primary;
    const int rpc_micros = options_.simulated_rpc_micros;
    const int64_t submit_us = obs::MonotonicMicros();
    obs::Histogram* service_hist = sample_latency_us_;
    obs::Histogram* request_hist = request_latency_us_;
    obs::Counter* killed = &killed_inflight_failures_;
    // Writes land on disjoint out[] slots per group, and every future is
    // drained below before out is read — so the workers may scatter their
    // group's results directly.
    pending.push_back(rep->worker->Submit([rep, batch, idx, rpc_micros,
                                           use_primary, primary, submit_us,
                                           service_hist, request_hist, killed,
                                           &out] {
      if (rpc_micros > 0) {
        std::this_thread::sleep_for(std::chrono::microseconds(rpc_micros));
      }
      if (!rep->alive.load(std::memory_order_acquire)) {
        killed->Add(static_cast<int64_t>(idx.size()));
        for (size_t i : idx) {
          out[i] = Status::Unavailable("replica killed while request in flight");
        }
      } else {
        const int64_t start_us = obs::MonotonicMicros();
        auto results = use_primary
                           ? rep->shard->SampleManyFrom(*batch, primary)
                           : rep->shard->SampleMany(*batch);
        service_hist->Record(obs::MonotonicMicros() - start_us);
        for (size_t j = 0; j < idx.size(); ++j) {
          out[idx[j]] = std::move(results[j]);
        }
      }
      request_hist->Record(obs::MonotonicMicros() - submit_us);
      rep->inflight.fetch_sub(static_cast<int64_t>(idx.size()),
                              std::memory_order_relaxed);
      rep->queue_gauge.Set(
          static_cast<double>(rep->inflight.load(std::memory_order_relaxed)));
    }));
  }
  for (auto& f : pending) f.get();
  return out;
}

EngineStats DistributedGraphEngine::Stats() const {
  EngineStats stats;
  for (const auto& rep : replicas_) {
    const int64_t requests = rep->requests.load(std::memory_order_relaxed);
    stats.requests_per_replica.push_back(requests);
    stats.total_requests += requests;
    ReplicaStatus rs;
    rs.shard = rep->shard_id;
    rs.replica = rep->replica_id;
    rs.alive = rep->alive.load(std::memory_order_acquire);
    rs.watermark = rep->watermark.load(std::memory_order_acquire);
    rs.requests = requests;
    stats.replicas.push_back(rs);
  }
  if (!replicas_.empty()) {
    stats.storage_bytes_per_shard = replicas_[0]->shard->MemoryBytes();
  }
  for (int s = 0; s < options_.num_shards; ++s) {
    const int64_t events =
        shard_update_events_[s].v.load(std::memory_order_relaxed);
    stats.update_events_per_shard.push_back(events);
    stats.total_update_events += events;
  }
  stats.dead_replicas = dead_replicas_.load(std::memory_order_relaxed);
  const streaming::DynamicHeteroGraph* primary =
      primary_.load(std::memory_order_acquire);
  stats.primary_watermark =
      primary != nullptr ? primary->watermark_epoch() : 0;
  stats.stale_fallback_reads = stale_fallback_reads_.Value();
  stats.killed_inflight_failures = killed_inflight_failures_.Value();
  return stats;
}

}  // namespace engine
}  // namespace zoomer
