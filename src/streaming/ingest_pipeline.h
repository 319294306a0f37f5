// Streaming ingestion pipeline (paper Sec. VI "Graph generator", moved
// online): turns live search sessions — the same SessionRecord stream the
// offline generator parses from behavior logs — into edge-event delta
// batches, routes each batch to the graph shard that owns its primary
// endpoint (the same hash partitioning the distributed graph engine uses),
// appends it to the GraphDeltaLog for an epoch, applies it to the
// DynamicHeteroGraph, and fires update hooks so serving-layer caches can
// invalidate the touched nodes.
//
// One consumer thread per shard drains a bounded queue, so batches for one
// shard apply in epoch order (FIFO) while shards proceed in parallel —
// mirroring the per-shard ownership of the distributed engine.
#ifndef ZOOMER_STREAMING_INGEST_PIPELINE_H_
#define ZOOMER_STREAMING_INGEST_PIPELINE_H_

#include <atomic>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/status.h"
#include "common/threadpool.h"
#include "graph/session_log.h"
#include "obs/metrics.h"
#include "streaming/dynamic_hetero_graph.h"
#include "streaming/graph_delta_log.h"

namespace zoomer {
namespace engine {
class DistributedGraphEngine;
}  // namespace engine

namespace streaming {

struct IngestOptions {
  /// Shard count for routing; match EngineOptions::num_shards when an
  /// engine is attached so updates land on the owning shard.
  int num_shards = 4;
  /// Events buffered per shard before a delta batch is cut. Smaller batches
  /// lower update-visibility latency; larger ones raise throughput.
  int batch_size = 64;
  /// Bounded per-shard queue capacity (events); Offer blocks when full.
  int queue_capacity = 4096;
  /// Metrics registry the pipeline registers its instruments with (names
  /// under "streaming."). Null means the process-global registry; inject a
  /// private one in tests that assert on metric values.
  obs::MetricsRegistry* registry = nullptr;
};

struct IngestStats {
  int64_t sessions = 0;        // sessions offered
  int64_t events = 0;          // edge events emitted
  int64_t events_applied = 0;  // edge events applied to the dynamic graph
  int64_t batches = 0;         // delta batches cut
  int64_t nodes_ingested = 0;  // brand-new nodes applied (id-space growth)
  uint64_t last_epoch = 0;
  /// Edge events dropped because an endpoint was outside the allocated
  /// id-space, per shard (routed by the in-range endpoint). These are the
  /// cold-start misses: entities the graph has never ingested. Formerly a
  /// silent drop; events_dropped() aggregates them plus self-loop drops.
  std::vector<int64_t> rejected_unknown_node;
  /// OfferNewNode calls rejected by the graph's per-type capacity limit
  /// (DynamicHeteroGraphOptions::max_nodes_per_type), per shard — the
  /// mirror of rejected_unknown_node for id-space growth.
  std::vector<int64_t> rejected_capacity;
};

/// Converts sessions to edge events exactly as the offline graph builder
/// wires them: click edges user-query and query-item, session edges between
/// adjacently clicked items. Exposed for tests and replay tooling.
std::vector<EdgeEvent> SessionToEvents(const graph::SessionRecord& session);

class IngestPipeline : public CompactionParticipant {
 public:
  /// Hook invoked after a batch is applied, with the batch's delta-log
  /// epoch and the distinct nodes it touched. Runs on the shard consumer
  /// thread — keep it cheap (e.g. schedule cache invalidations). The epoch
  /// is what a session stamps into engine::SampleRequest::min_epoch (or
  /// serving::OnlineServer::SessionToken) for read-your-writes routing.
  using UpdateListener =
      std::function<void(uint64_t epoch, const std::vector<graph::NodeId>&)>;

  /// `log` and `graph` must outlive the pipeline. `engine` is optional; when
  /// present, per-shard update counts are reported into its stats.
  /// Construction wires the streaming correctness plumbing: this pipeline
  /// attaches to the graph as a CompactionParticipant (Compact() quiesces
  /// it at a batch boundary, detached on Stop()), and every batch it cuts
  /// marks its epoch pending on the graph atomically with issuance so
  /// snapshots pin to the cross-shard watermark. Pipelines sharing one log
  /// — even over different graphs — do not interfere: each marks only the
  /// epochs it will itself apply.
  IngestPipeline(GraphDeltaLog* log, DynamicHeteroGraph* graph,
                 IngestOptions options,
                 engine::DistributedGraphEngine* engine = nullptr);
  ~IngestPipeline();

  /// Must be called before Start().
  void AddUpdateListener(UpdateListener listener);

  void Start();

  /// Converts the session to events and enqueues them onto their owning
  /// shards. Blocks while queues are full; returns false after Stop().
  /// Events with out-of-range endpoints are dropped (counted per shard in
  /// Stats().rejected_unknown_node) — live logs routinely reference
  /// entities the graph has never ingested.
  bool Offer(const graph::SessionRecord& session);
  void OfferLog(const graph::SessionLog& log);

  /// Synchronously ingests a brand-new node (a cold-start item, a
  /// first-session user or query), growing the id-space online: appends one
  /// node(+edge) batch to the delta log — the graph allocates the id under
  /// the log's epoch lock — and applies it before returning, so the
  /// returned id is immediately valid for subsequent Offer() traffic and
  /// already visible to fresh snapshots. `edges` land in the same batch
  /// (one visibility instant) and may reference the new node with the -1
  /// placeholder endpoint. Runs under the same quiescence gate as the shard
  /// consumers, so a concurrent Compact() parks this too. Leave event.id
  /// unassigned (-1). Returns OutOfRange — counted per shard in
  /// Stats().rejected_capacity — when the graph's per-type capacity limit
  /// (DynamicHeteroGraphOptions::max_nodes_per_type) is exhausted; no id
  /// is burned in that case.
  StatusOr<graph::NodeId> OfferNewNode(NodeEvent event,
                                       std::vector<EdgeEvent> edges = {});

  /// Blocks until every offered event has been applied and listeners fired.
  void Flush();

  /// Flushes, closes the queues, and joins the consumers. Idempotent.
  void Stop();

  /// CompactionParticipant: parks shard consumers at a batch boundary (no
  /// batch mid-apply, none starting) until EndQuiesce. Queued events simply
  /// wait — they carry no epoch yet, so the compaction cannot split or drop
  /// them. Called by DynamicHeteroGraph::Compact(); also usable directly.
  void BeginQuiesce() override;
  void EndQuiesce() override;

  IngestStats Stats() const;
  int64_t events_dropped() const { return events_dropped_.Value(); }

 private:
  /// Queue element: the event plus its Offer() timestamp, so the consumer
  /// can report end-to-end batch latency and the per-shard freshness lag
  /// (age of the oldest event a batch applied).
  struct QueuedEvent {
    EdgeEvent ev;
    int64_t offer_us = 0;  // obs::MonotonicMicros() at enqueue
  };

  void ConsumerLoop(int shard);
  void CutBatch(int shard, std::vector<EdgeEvent> events,
                int64_t oldest_offer_us);
  void RegisterMetrics();

  GraphDeltaLog* log_;
  DynamicHeteroGraph* graph_;
  IngestOptions options_;
  engine::DistributedGraphEngine* engine_;
  obs::MetricsRegistry* registry_;  // resolved (never null)

  std::vector<UpdateListener> listeners_;
  std::vector<std::unique_ptr<BoundedQueue<QueuedEvent>>> queues_;
  std::vector<std::thread> consumers_;
  std::atomic<bool> started_{false};
  bool stopped_ = false;  // guarded by lifecycle_mu_
  std::mutex lifecycle_mu_;

  // Compaction quiescence handshake state.
  std::mutex quiesce_mu_;
  std::condition_variable quiesce_cv_;
  int quiesce_requests_ = 0;  // active BeginQuiesce holds
  int active_applies_ = 0;    // consumers currently inside CutBatch

  // Registry-backed instruments (registered under "streaming." names; the
  // members keep Stats() an exact per-pipeline view).
  obs::Counter sessions_;
  obs::Counter events_offered_;
  obs::Counter events_applied_;
  obs::Counter events_dropped_;
  obs::Counter dropped_self_loop_;
  obs::Counter batches_;
  obs::Counter nodes_ingested_;
  obs::Counter rejected_unknown_node_total_;
  obs::Counter rejected_capacity_total_;
  /// Per-shard freshness lag gauge: age (µs) of the oldest event the
  /// shard's most recent batch applied, 0 when its queue was empty after
  /// that apply.
  std::vector<std::unique_ptr<obs::Gauge>> freshness_lag_;
  /// Max over shards, refreshed at every apply (the scrape-friendly
  /// aggregate "streaming.freshness_lag_us").
  obs::Gauge freshness_lag_max_;
  /// Held by consumers while they set the freshness gauges and count the
  /// batch applied, and by Flush() while it compares the counts. Gauge
  /// readers never take it.
  std::mutex freshness_mu_;
  /// Registry-owned shared histograms (hot-path latencies).
  obs::Histogram* batch_latency_us_;     // offer -> applied, per batch
  obs::Histogram* node_mint_latency_us_; // OfferNewNode end-to-end
  /// (name, instrument) pairs to Unregister on destruction.
  std::vector<std::pair<std::string, const void*>> registered_;

  /// Round-robin shard for node batches (no prior traffic to co-locate
  /// with; the owning shard of the id is unknown until allocation).
  std::atomic<uint32_t> node_shard_rr_{0};
  /// Per-shard count of edge events dropped for an unknown endpoint.
  std::vector<std::unique_ptr<std::atomic<int64_t>>> rejected_unknown_node_;
  /// Per-shard count of node mints rejected by per-type capacity.
  std::vector<std::unique_ptr<std::atomic<int64_t>>> rejected_capacity_;
};

}  // namespace streaming
}  // namespace zoomer

#endif  // ZOOMER_STREAMING_INGEST_PIPELINE_H_
