#include "streaming/ingest_pipeline.h"

#include <algorithm>
#include <chrono>
#include <string>

#include "common/logging.h"
#include "common/timer.h"
#include "engine/distributed_graph_engine.h"
#include "obs/trace.h"

namespace zoomer {
namespace streaming {

using graph::NodeId;

std::vector<EdgeEvent> SessionToEvents(const graph::SessionRecord& session) {
  std::vector<EdgeEvent> events;
  if (session.user >= 0 && session.query >= 0) {
    events.push_back({session.user, session.query,
                      graph::RelationKind::kClick, 1.0f, session.timestamp});
  }
  for (size_t i = 0; i < session.clicks.size(); ++i) {
    if (session.query >= 0 && session.clicks[i] >= 0) {
      events.push_back({session.query, session.clicks[i],
                        graph::RelationKind::kClick, 1.0f,
                        session.timestamp});
    }
    if (i + 1 < session.clicks.size() &&
        session.clicks[i] != session.clicks[i + 1]) {
      events.push_back({session.clicks[i], session.clicks[i + 1],
                        graph::RelationKind::kSession, 1.0f,
                        session.timestamp});
    }
  }
  return events;
}

IngestPipeline::IngestPipeline(GraphDeltaLog* log, DynamicHeteroGraph* graph,
                               IngestOptions options,
                               engine::DistributedGraphEngine* engine)
    : log_(log),
      graph_(graph),
      options_(options),
      engine_(engine),
      registry_(options.registry != nullptr ? options.registry
                                            : obs::MetricsRegistry::Global()) {
  ZCHECK(log_ != nullptr);
  ZCHECK(graph_ != nullptr);
  ZCHECK_GT(options_.num_shards, 0);
  ZCHECK_GT(options_.batch_size, 0);
  ZCHECK_EQ(options_.num_shards, log_->num_shards())
      << "pipeline and delta log must agree on sharding";
  for (int s = 0; s < options_.num_shards; ++s) {
    queues_.push_back(std::make_unique<BoundedQueue<QueuedEvent>>(
        static_cast<size_t>(options_.queue_capacity)));
    rejected_unknown_node_.push_back(
        std::make_unique<std::atomic<int64_t>>(0));
    rejected_capacity_.push_back(std::make_unique<std::atomic<int64_t>>(0));
    freshness_lag_.push_back(std::make_unique<obs::Gauge>());
  }
  batch_latency_us_ =
      registry_->GetHistogram("streaming.ingest_batch_latency_us");
  node_mint_latency_us_ =
      registry_->GetHistogram("streaming.node_mint_latency_us");
  RegisterMetrics();
  // Compaction quiescence: Compact() parks this pipeline at a batch
  // boundary instead of relying on a caller-managed Flush().
  graph_->AttachParticipant(this);
}

void IngestPipeline::RegisterMetrics() {
  auto counter = [this](const std::string& name, const obs::Counter* c) {
    registry_->RegisterCounter(name, c);
    registered_.emplace_back(name, c);
  };
  counter("streaming.sessions", &sessions_);
  counter("streaming.events_offered", &events_offered_);
  counter("streaming.events_applied", &events_applied_);
  counter("streaming.events_dropped", &events_dropped_);
  counter("streaming.dropped_self_loop", &dropped_self_loop_);
  counter("streaming.batches", &batches_);
  counter("streaming.nodes_ingested", &nodes_ingested_);
  counter("streaming.rejected_unknown_node", &rejected_unknown_node_total_);
  counter("streaming.rejected_capacity", &rejected_capacity_total_);
  registry_->RegisterGauge("streaming.freshness_lag_us", &freshness_lag_max_);
  registered_.emplace_back("streaming.freshness_lag_us", &freshness_lag_max_);
  for (int s = 0; s < options_.num_shards; ++s) {
    const std::string name =
        "streaming.freshness_lag_us.shard" + std::to_string(s);
    registry_->RegisterGauge(name, freshness_lag_[s].get());
    registered_.emplace_back(name, freshness_lag_[s].get());
  }
}

IngestPipeline::~IngestPipeline() {
  Stop();
  // Only after the consumers are joined: a registered view must outlive its
  // last writer, and the registry must stop seeing it before it dies.
  for (const auto& [name, ptr] : registered_) {
    registry_->Unregister(name, ptr);
  }
}

void IngestPipeline::AddUpdateListener(UpdateListener listener) {
  std::lock_guard<std::mutex> lock(lifecycle_mu_);
  ZCHECK(!started_) << "listeners must be registered before Start()";
  listeners_.push_back(std::move(listener));
}

void IngestPipeline::Start() {
  std::lock_guard<std::mutex> lock(lifecycle_mu_);
  if (started_) return;
  started_ = true;
  for (int s = 0; s < options_.num_shards; ++s) {
    consumers_.emplace_back([this, s] { ConsumerLoop(s); });
  }
}

bool IngestPipeline::Offer(const graph::SessionRecord& session) {
  ZCHECK(started_) << "call Start() before offering sessions";
  sessions_.Add(1);
  bool accepted_all = true;
  for (EdgeEvent& ev : SessionToEvents(session)) {
    // Validate against the *ingested* id-space (base + applied streamed
    // nodes) — a completed OfferNewNode's id is referencable immediately,
    // while an id still mid-mint on another thread is a counted drop here
    // rather than an ApplyBatch failure on the consumer.
    const bool src_known = graph_->IsNodeIngested(ev.src);
    const bool dst_known = graph_->IsNodeIngested(ev.dst);
    if (!src_known || !dst_known) {
      // Live logs reference entities never ingested; dropping is the
      // production behaviour, not an error — but an unobservable drop hides
      // every cold-start miss, so count it on the shard that would have
      // owned the batch.
      const graph::NodeId anchor = src_known ? ev.src : (dst_known ? ev.dst : 0);
      rejected_unknown_node_[engine::GraphShard::NodeShard(
                                 anchor, options_.num_shards)]
          ->fetch_add(1, std::memory_order_acq_rel);
      rejected_unknown_node_total_.Add(1);
      events_dropped_.Add(1);
      ZLOG_EVERY_N(WARNING, 1024)
          << "ingest: dropping edge event with unknown endpoint ("
          << ev.src << " -> " << ev.dst << "); total unknown-node drops: "
          << rejected_unknown_node_total_.Value();
      continue;
    }
    if (ev.src == ev.dst) {
      dropped_self_loop_.Add(1);
      events_dropped_.Add(1);
      ZLOG_EVERY_N(DEBUG, 4096)
          << "ingest: dropping self-loop on node " << ev.src
          << "; total self-loop drops: " << dropped_self_loop_.Value();
      continue;
    }
    const int shard =
        engine::GraphShard::NodeShard(ev.src, options_.num_shards);
    events_offered_.Add(1);
    if (!queues_[shard]->Push({std::move(ev), obs::MonotonicMicros()})) {
      events_offered_.Add(-1);
      accepted_all = false;  // queue closed (Stop raced the producer)
      ZLOG_EVERY_N(WARNING, 1024)
          << "ingest: event rejected after Stop() (queue closed)";
    }
  }
  return accepted_all;
}

StatusOr<graph::NodeId> IngestPipeline::OfferNewNode(
    NodeEvent event, std::vector<EdgeEvent> edges) {
  ZCHECK(started_) << "call Start() before offering nodes";
  WallTimer mint_timer;
  // Validate everything up front: once AppendWithNodes allocates the id,
  // the batch must apply (a rejected apply would strand an allocated,
  // never-applied record and freeze node visibility behind it).
  if (static_cast<int>(event.content.size()) !=
      graph_->base()->content_dim()) {
    return Status::InvalidArgument("node event content dim mismatch");
  }
  if (event.id >= 0) {
    return Status::InvalidArgument("leave NodeEvent::id unassigned");
  }
  for (const EdgeEvent& ev : edges) {
    for (const graph::NodeId endpoint : {ev.src, ev.dst}) {
      // Applied ids only (not merely allocated): ApplyBatch below must not
      // be able to fail after the id is burned.
      if (endpoint < -1 ||
          (endpoint >= 0 && !graph_->IsNodeIngested(endpoint))) {
        return Status::OutOfRange(
            "edge endpoint must be an ingested id or the -1 placeholder");
      }
    }
    if (ev.src == ev.dst) {
      return Status::InvalidArgument("self-loops are not allowed");
    }
    if (!(ev.weight >= 0.0f) || ev.weight > 1e30f) {
      return Status::InvalidArgument(
          "edge weight must be finite and non-negative");
    }
  }
  const int shard = static_cast<int>(node_shard_rr_.fetch_add(
                        1, std::memory_order_acq_rel)) %
                    options_.num_shards;
  std::vector<NodeEvent> nodes;
  nodes.push_back(std::move(event));
  // Producer-side apply honors the same quiescence gate as the shard
  // consumers: a concurrent Compact() parks node ingestion at a batch
  // boundary too.
  {
    std::unique_lock<std::mutex> lock(quiesce_mu_);
    quiesce_cv_.wait(lock, [this] { return quiesce_requests_ == 0; });
    ++active_applies_;
  }
  DeltaBatch batch;
  // The typed allocator enforces DynamicHeteroGraphOptions::
  // max_nodes_per_type inside the log's epoch section — a capacity
  // rejection happens before any id is burned or event recorded.
  StatusOr<uint64_t> epoch = log_->AppendWithNodes(
      shard, &nodes, &edges,
      [this](const std::vector<NodeEvent>& evs, uint64_t e) {
        return graph_->AllocateNodeIds(evs, e);
      },
      [this](uint64_t e) { graph_->NoteEpochIssued(e); });
  if (!epoch.ok()) {
    {
      std::lock_guard<std::mutex> lock(quiesce_mu_);
      --active_applies_;
      if (active_applies_ == 0) quiesce_cv_.notify_all();
    }
    rejected_capacity_[shard]->fetch_add(1, std::memory_order_acq_rel);
    rejected_capacity_total_.Add(1);
    ZLOG_EVERY_N(WARNING, 256)
        << "ingest: node mint rejected (per-type capacity): "
        << epoch.status().ToString();
    return epoch.status();
  }
  batch.epoch = epoch.value();
  const graph::NodeId id = nodes[0].id;
  batch.node_events = std::move(nodes);
  batch.events = std::move(edges);  // placeholders resolved by the log
  Status st = graph_->ApplyBatch(batch);
  {
    std::lock_guard<std::mutex> lock(quiesce_mu_);
    --active_applies_;
    if (active_applies_ == 0) quiesce_cv_.notify_all();
  }
  ZCHECK(st.ok()) << st.ToString();  // everything was validated above

  std::vector<NodeId> touched;
  touched.push_back(id);
  for (const EdgeEvent& ev : batch.events) {
    touched.push_back(ev.src);
    touched.push_back(ev.dst);
  }
  std::sort(touched.begin(), touched.end());
  touched.erase(std::unique(touched.begin(), touched.end()), touched.end());
  for (const UpdateListener& listener : listeners_) {
    listener(batch.epoch, touched);
  }

  if (engine_ != nullptr) {
    engine_->RecordShardUpdate(shard,
                               static_cast<int64_t>(batch.events.size()));
    // Node mints grow the global id-space: every shard's replicas must
    // replay them (gap-free id allocation), so publish to all buses.
    engine_->PublishDelta(shard, batch.epoch, /*all_shards=*/true);
  }
  batches_.Add(1);
  nodes_ingested_.Add(1);
  // Offered and applied move together (the apply was synchronous), so
  // Flush()'s applied >= offered invariant holds at every instant.
  events_applied_.Add(static_cast<int64_t>(batch.events.size()));
  events_offered_.Add(static_cast<int64_t>(batch.events.size()));
  node_mint_latency_us_->Record(
      static_cast<int64_t>(mint_timer.ElapsedMicros()));
  return id;
}

void IngestPipeline::OfferLog(const graph::SessionLog& log) {
  for (const auto& session : log) Offer(session);
}

void IngestPipeline::ConsumerLoop(int shard) {
  BoundedQueue<QueuedEvent>& queue = *queues_[shard];
  std::vector<EdgeEvent> batch;
  batch.reserve(options_.batch_size);
  QueuedEvent qe;
  // Blocking pop for the first event, then opportunistically drain up to
  // batch_size: batches grow under load (throughput) and stay small when
  // traffic is light (update-visibility latency).
  while (queue.Pop(&qe)) {
    // FIFO per shard: the first popped event is the batch's oldest, which
    // is what freshness lag measures.
    const int64_t oldest_offer_us = qe.offer_us;
    batch.push_back(std::move(qe.ev));
    while (static_cast<int>(batch.size()) < options_.batch_size &&
           queue.TryPop(&qe)) {
      batch.push_back(std::move(qe.ev));
    }
    // Quiescence gate: a compaction in progress holds consumers here, with
    // the collected batch intact (it has no epoch yet), until EndQuiesce.
    {
      std::unique_lock<std::mutex> lock(quiesce_mu_);
      quiesce_cv_.wait(lock, [this] { return quiesce_requests_ == 0; });
      ++active_applies_;
    }
    CutBatch(shard, std::move(batch), oldest_offer_us);
    {
      std::lock_guard<std::mutex> lock(quiesce_mu_);
      --active_applies_;
      if (active_applies_ == 0) quiesce_cv_.notify_all();
    }
    batch.clear();
    batch.reserve(options_.batch_size);
  }
}

void IngestPipeline::BeginQuiesce() {
  std::unique_lock<std::mutex> lock(quiesce_mu_);
  ++quiesce_requests_;
  quiesce_cv_.wait(lock, [this] { return active_applies_ == 0; });
}

void IngestPipeline::EndQuiesce() {
  std::lock_guard<std::mutex> lock(quiesce_mu_);
  --quiesce_requests_;
  quiesce_cv_.notify_all();
}

void IngestPipeline::CutBatch(int shard, std::vector<EdgeEvent> events,
                              int64_t oldest_offer_us) {
  obs::TraceSpan span("ingest_batch");
  const int64_t n = static_cast<int64_t>(events.size());
  span.set_attr(n);
  DeltaBatch batch;
  batch.events = std::move(events);
  // Cross-shard watermark: the epoch is marked pending on our graph
  // atomically with its issuance, before any later epoch can be assigned —
  // so snapshots never pin past this still-unapplied batch.
  batch.epoch = log_->Append(shard, batch.events,  // log keeps a copy
                             [this](uint64_t epoch) {
                               graph_->NoteEpochIssued(epoch);
                             });
  Status st = graph_->ApplyBatch(batch);
  ZCHECK(st.ok()) << st.ToString();  // events were validated at Offer

  std::vector<NodeId> touched;
  touched.reserve(batch.events.size() * 2);
  for (const EdgeEvent& ev : batch.events) {
    touched.push_back(ev.src);
    touched.push_back(ev.dst);
  }
  std::sort(touched.begin(), touched.end());
  touched.erase(std::unique(touched.begin(), touched.end()), touched.end());
  for (const UpdateListener& listener : listeners_) {
    listener(batch.epoch, touched);
  }

  if (engine_ != nullptr) {
    engine_->RecordShardUpdate(shard, n);
    // Wake the owning shard's replica appliers (cross-shard dst endpoints
    // are covered by the appliers' poll interval).
    engine_->PublishDelta(shard, batch.epoch);
  }
  batches_.Add(1);

  // Freshness telemetry: end-to-end age of the batch's oldest event at
  // apply completion. A queue found empty after the apply means the shard
  // is caught up: its lag gauge reads 0 until the next backlog builds.
  const int64_t lag_us = obs::MonotonicMicros() - oldest_offer_us;
  batch_latency_us_->Record(lag_us);
  const bool caught_up = queues_[shard]->size() == 0;
  // The gauges and the applied count move together under freshness_mu_:
  // two consumers cannot interleave their read of the maximum with its
  // store, and Flush(), which reads the counts under the same lock, sees
  // the gauges of every batch it waited for.
  std::lock_guard<std::mutex> lock(freshness_mu_);
  freshness_lag_[shard]->Set(caught_up ? 0.0 : static_cast<double>(lag_us));
  double max_lag = 0.0;
  for (const auto& gauge : freshness_lag_) {
    max_lag = std::max(max_lag, gauge->Value());
  }
  freshness_lag_max_.Set(max_lag);
  events_applied_.Add(n);
}

void IngestPipeline::Flush() {
  for (;;) {
    {
      std::lock_guard<std::mutex> lock(freshness_mu_);
      if (events_applied_.Value() >= events_offered_.Value()) return;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
}

void IngestPipeline::Stop() {
  std::lock_guard<std::mutex> lock(lifecycle_mu_);
  if (started_ && !stopped_) {
    stopped_ = true;
    // Closing lets consumers drain what is queued, then exit.
    for (auto& q : queues_) q->Close();
    for (auto& t : consumers_) {
      if (t.joinable()) t.join();
    }
  }
  // Only after the consumers are gone: while they drain, a concurrent
  // Compact() must still be able to quiesce this pipeline.
  graph_->DetachParticipant(this);
}

IngestStats IngestPipeline::Stats() const {
  IngestStats stats;
  stats.sessions = sessions_.Value();
  stats.events = events_offered_.Value();
  stats.events_applied = events_applied_.Value();
  stats.batches = batches_.Value();
  stats.nodes_ingested = nodes_ingested_.Value();
  stats.last_epoch = log_->last_epoch();
  stats.rejected_unknown_node.reserve(rejected_unknown_node_.size());
  for (const auto& counter : rejected_unknown_node_) {
    stats.rejected_unknown_node.push_back(
        counter->load(std::memory_order_acquire));
  }
  stats.rejected_capacity.reserve(rejected_capacity_.size());
  for (const auto& counter : rejected_capacity_) {
    stats.rejected_capacity.push_back(
        counter->load(std::memory_order_acquire));
  }
  return stats;
}

}  // namespace streaming
}  // namespace zoomer
