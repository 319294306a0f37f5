#include "serving/online_server.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <mutex>
#include <thread>

#include "common/logging.h"
#include "engine/distributed_graph_engine.h"
#include "maintenance/maintenance_scheduler.h"
#include "obs/exporter.h"
#include "obs/metrics.h"

namespace zoomer {
namespace serving {

using graph::NodeId;

namespace {
/// A server-level registry override flows down into the cache and ANN
/// options unless they picked their own.
OnlineServerOptions PropagateRegistry(OnlineServerOptions options) {
  if (options.registry != nullptr) {
    if (options.cache.registry == nullptr) {
      options.cache.registry = options.registry;
    }
    if (options.ann.registry == nullptr) {
      options.ann.registry = options.registry;
    }
  }
  return options;
}
}  // namespace

OnlineServer::OnlineServer(const graph::HeteroGraph* g,
                           OnlineServerOptions options,
                           std::vector<float> node_embeddings,
                           const std::vector<NodeId>& item_ids,
                           const std::vector<float>& item_embeddings)
    : graph_(g),
      options_(PropagateRegistry(std::move(options))),
      registry_(options_.registry != nullptr ? options_.registry
                                             : obs::MetricsRegistry::Global()),
      node_emb_(std::move(node_embeddings)),
      cache_(std::make_unique<NeighborCache>(g, options_.cache)),
      index_(options_.ann) {
  requests_ = registry_->GetCounter("serving.requests");
  ryw_requests_ =
      registry_->GetCounter("serving.read_your_writes_requests");
  node_ingests_ = registry_->GetCounter("serving.node_ingest");
  request_latency_us_ = registry_->GetHistogram("serving.request_latency_us");
  embed_latency_us_ = registry_->GetHistogram("serving.embed_latency_us");
  cache_hit_ratio_ = registry_->GetGauge("serving.neighbor_cache.hit_ratio");
  cache_entries_ = registry_->GetGauge("serving.neighbor_cache.entries");
  ZCHECK_EQ(static_cast<int64_t>(node_emb_.size()),
            g->num_nodes() * options_.embedding_dim);
  Status st = index_.Build(item_embeddings,
                           static_cast<int64_t>(item_ids.size()),
                           options_.embedding_dim,
                           std::vector<int64_t>(item_ids.begin(),
                                                item_ids.end()));
  ZCHECK(st.ok()) << st.ToString();
}

void OnlineServer::WarmCache(const std::vector<NodeId>& nodes) {
  cache_->WarmAll(nodes);
}

void OnlineServer::AttachDynamicGraph(
    const streaming::DynamicHeteroGraph* dynamic) {
  cache_->AttachDynamicGraph(dynamic);
}

void OnlineServer::AttachEngine(engine::DistributedGraphEngine* engine) {
  engine_ = engine;
}

Status OnlineServer::IngestNode(NodeId id, std::vector<float> embedding,
                                bool is_item) {
  if (static_cast<int>(embedding.size()) != options_.embedding_dim) {
    return Status::InvalidArgument("embedding dim mismatch");
  }
  if (id < graph_->num_nodes()) {
    return Status::InvalidArgument(
        "id belongs to the offline export, not a streamed node");
  }
  // Duplicates are rejected, not overwritten: concurrent EmbedRequest
  // threads hold raw pointers into registered rows outside the lock
  // (NodeEmbedding's never-erased contract), and a second ANN insert would
  // leave a stale retrievable row under the same id. Claiming the row
  // first also dedupes two racing registrations of one id.
  const float* row = nullptr;
  {
    std::unique_lock<std::shared_mutex> lock(overlay_emb_mu_);
    auto [it, inserted] = overlay_emb_.try_emplace(id, std::move(embedding));
    if (!inserted) {
      return Status::InvalidArgument("node embedding already registered");
    }
    row = it->second.data();  // heap buffer: stable across rehashes
  }
  node_ingests_->Add(1);
  if (is_item) return index_.Insert(row, id);
  return Status::OK();
}

const float* OnlineServer::NodeEmbedding(NodeId id) const {
  if (id >= 0 && id < graph_->num_nodes()) {
    return node_emb_.data() + id * options_.embedding_dim;
  }
  std::shared_lock<std::shared_mutex> lock(overlay_emb_mu_);
  auto it = overlay_emb_.find(id);
  return it == overlay_emb_.end() ? nullptr : it->second.data();
}

void OnlineServer::OnGraphUpdate(const std::vector<NodeId>& nodes) {
  // Invalidate is a no-op for nodes never cached (e.g. items, which the
  // serving path does not cache), so touched-node lists pass through as-is.
  for (NodeId n : nodes) cache_->Invalidate(n);
}

void OnlineServer::OnGraphUpdate(uint64_t epoch,
                                 const std::vector<NodeId>& nodes) {
  // Monotone CAS: listeners fire from several shard consumer threads and
  // epochs may arrive out of order across shards.
  uint64_t seen = last_update_epoch_.load(std::memory_order_relaxed);
  while (epoch > seen && !last_update_epoch_.compare_exchange_weak(
                             seen, epoch, std::memory_order_acq_rel)) {
  }
  OnGraphUpdate(nodes);
}

void OnlineServer::AttachMaintenance(
    maintenance::MaintenanceScheduler* scheduler) {
  ZCHECK(scheduler != nullptr);
  scheduler->AddListener(
      [this](const std::string&, const maintenance::MaintenanceReport& report) {
        OnGraphUpdate(report.touched);
        // Incremental folds report the row ranges they rebuilt; refresh
        // only those segments' cached top-k (a TTL window may have aged
        // edges out at fold time) instead of flushing the whole cache.
        for (const auto& [begin, end] : report.folded_ranges) {
          cache_->InvalidateRange(begin, end);
        }
      });
}

namespace {

/// Per-thread working memory of Handle and EmbedRequest, reused across
/// requests so a request allocates only its response.
struct RequestScratch {
  std::vector<float> uq;              // the request embedding
  std::vector<float> focal;
  std::vector<NodeId> nbr_ids;        // both egos' neighbors, in order
  std::vector<const float*> nbr_emb;  // their embedding rows
  std::vector<float> prod;            // DotRows' products
  std::vector<float> scores;
};

RequestScratch& ThreadScratch() {
  static thread_local RequestScratch scratch;
  return scratch;
}

/// scores[i] = the sum over j, in order, of rows[i][j] * focal[j] for n
/// rows of d floats, each product rounded to float before it is added. The
/// products go through `prod` (n * d floats), so no compiler fuses a
/// multiply into the sum: an FMA would round differently, and whether one
/// is used would depend on how the loop was vectorized. The sums run four
/// rows per step on independent accumulators, since one chain of d adds is
/// latency-bound.
void DotRows(const float* const* rows, size_t n, const float* focal, int d,
             float* prod, float* scores) {
  for (size_t i = 0; i < n; ++i) {
    const float* e = rows[i];
    float* p = prod + i * d;
    for (int j = 0; j < d; ++j) p[j] = e[j] * focal[j];
  }
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const float* p0 = prod + i * d;
    const float* p1 = p0 + d;
    const float* p2 = p1 + d;
    const float* p3 = p2 + d;
    float a0 = 0.0f, a1 = 0.0f, a2 = 0.0f, a3 = 0.0f;
    for (int j = 0; j < d; ++j) {
      a0 += p0[j];
      a1 += p1[j];
      a2 += p2[j];
      a3 += p3[j];
    }
    scores[i] = a0;
    scores[i + 1] = a1;
    scores[i + 2] = a2;
    scores[i + 3] = a3;
  }
  for (; i < n; ++i) {
    const float* p = prod + i * d;
    float a = 0.0f;
    for (int j = 0; j < d; ++j) a += p[j];
    scores[i] = a;
  }
}

}  // namespace

void OnlineServer::EmbedRequest(const ServingRequest& req,
                                uint64_t min_epoch, float* out) {
  const int d = options_.embedding_dim;
  RequestScratch& s = ThreadScratch();
  // Focal vector = user + query embeddings. Ego nodes born after the
  // export but never registered contribute zero instead of reading off the
  // end of the embedding table.
  s.focal.assign(d, 0.0f);
  float* focal = s.focal.data();
  const NodeId egos[2] = {req.user, req.query};
  for (NodeId ego : egos) {
    if (const float* e = NodeEmbedding(ego)) {
      for (int j = 0; j < d; ++j) focal[j] += e[j];
    }
  }

  // Both egos' neighbors, user's first. Read-your-writes path: a cached
  // entry may predate the session's write, so fetch through the engine —
  // its freshness-aware router only uses replicas whose watermark covers
  // min_epoch. Both egos go out as ONE batched SampleMany (one routing
  // decision and one snapshot pin per shard-group); an ego whose read
  // fails degrades to its cached view. The cache path reads both entries
  // under one lock hold; a miss contributes no neighbors.
  s.nbr_ids.clear();
  if (min_epoch > 0 && engine_ != nullptr) {
    engine::SampleRequest sreqs[2];
    for (int e = 0; e < 2; ++e) {
      sreqs[e].node = egos[e];
      sreqs[e].k = options_.cache.k;
      sreqs[e].rng_seed = options_.seed ^ static_cast<uint64_t>(egos[e]);
      sreqs[e].min_epoch = min_epoch;
    }
    auto sresps = engine_->SampleMany(sreqs);
    for (int e = 0; e < 2; ++e) {
      if (sresps[e].ok()) {
        const auto& nbrs = sresps[e].value().neighbors;
        s.nbr_ids.insert(s.nbr_ids.end(), nbrs.begin(), nbrs.end());
      } else {
        cache_->GetMany({&egos[e], 1}, &s.nbr_ids);
      }
    }
  } else if (options_.use_neighbor_cache) {
    cache_->GetMany(egos, &s.nbr_ids);
  } else {
    // Cache bypass: compute top-k on the request path, leaving the cache
    // and its counters untouched.
    for (NodeId ego : egos) {
      const std::vector<NodeId> topk = cache_->ComputeTopK(ego);
      s.nbr_ids.insert(s.nbr_ids.end(), topk.begin(), topk.end());
    }
  }

  // Aggregate the neighbors with edge-level attention (scores =
  // dot(neighbor, focal); softmax; weighted sum). Neighbors without a
  // registered embedding (a streamed node whose IngestNode has not landed)
  // are excluded from the softmax rather than scored as garbage.
  s.nbr_emb.clear();
  for (NodeId nb : s.nbr_ids) {
    if (const float* e = NodeEmbedding(nb)) {
      __builtin_prefetch(e);  // the attention pass reads every row
      __builtin_prefetch(e + d - 1);  // which may straddle two lines
      s.nbr_emb.push_back(e);
    }
  }
  const size_t n = s.nbr_emb.size();
  if (n == 0) {
    std::copy(focal, focal + d, out);
    return;
  }
  s.scores.resize(n);
  float* scores = s.scores.data();
  if (options_.use_edge_attention) {
    s.prod.resize(n * d);
    DotRows(s.nbr_emb.data(), n, focal, d, s.prod.data(), scores);
  } else {
    std::fill(scores, scores + n, 0.0f);  // mean aggregation
  }
  float max_score = -1e30f;
  for (size_t i = 0; i < n; ++i) max_score = std::max(max_score, scores[i]);
  float z = 0.0f;
  for (size_t i = 0; i < n; ++i) {
    scores[i] = std::exp(scores[i] - max_score);
    z += scores[i];
  }
  std::fill(out, out + d, 0.0f);
  for (size_t i = 0; i < n; ++i) {
    const float w = scores[i] / z;
    const float* en = s.nbr_emb[i];
    for (int j = 0; j < d; ++j) out[j] += w * en[j];
  }
  // Residual merge with the focal vector.
  for (int j = 0; j < d; ++j) out[j] = std::tanh(out[j] + 0.5f * focal[j]);
}

ServingResponse OnlineServer::Handle(const ServingRequest& req) {
  return Handle(req, SessionToken{});
}

ServingResponse OnlineServer::Handle(const ServingRequest& req,
                                     const SessionToken& token) {
  WallTimer timer;
  ServingResponse resp;
  std::vector<float>& uq = ThreadScratch().uq;
  uq.resize(options_.embedding_dim);
  if (token.last_write_epoch > 0) ryw_requests_->Add(1);
  EmbedRequest(req, token.last_write_epoch, uq.data());
  const int64_t embed_us = static_cast<int64_t>(timer.ElapsedMicros());
  embed_latency_us_->Record(embed_us);
  resp.items = index_.Search(uq.data(), options_.top_n);
  resp.latency_ms = timer.ElapsedMillis();
  requests_->Add(1);
  request_latency_us_->Record(static_cast<int64_t>(resp.latency_ms * 1e3));
  return resp;
}

void OnlineServer::RefreshDerivedGauges() const {
  const NeighborCacheStats cs = cache_->Stats();
  const double looked_up = static_cast<double>(cs.hits + cs.misses);
  cache_hit_ratio_->Set(looked_up > 0.0
                            ? static_cast<double>(cs.hits) / looked_up
                            : 0.0);
  cache_entries_->Set(static_cast<double>(cs.entries));
}

std::string OnlineServer::DumpMetrics() const {
  RefreshDerivedGauges();
  return obs::MetricsExporter(registry_).JsonLine();
}

std::string OnlineServer::DumpMetricsPrometheus() const {
  RefreshDerivedGauges();
  return obs::MetricsExporter(registry_).PrometheusText();
}

LoadResult RunLoad(OnlineServer* server,
                   const std::vector<ServingRequest>& request_pool,
                   double qps, double duration_seconds, int client_threads,
                   uint64_t seed, int server_threads) {
  ZCHECK(!request_pool.empty());
  LoadResult result;
  result.offered_qps = qps;
  // Hot path: one lock-free histogram record per response, replacing the
  // former mutex-guarded LatencyStats::Add (which also re-sorted per
  // percentile query). Recorded in nanoseconds so sub-microsecond handlers
  // still resolve; bucket-midpoint percentiles are within ~3.1%.
  obs::Histogram latency_ns;
  std::atomic<int64_t> total{0};

  // Open loop: client threads offer requests at the configured rate into a
  // fixed server-side handler pool; response time = queueing + service, so
  // the latency curve bends as offered load approaches pool capacity.
  ThreadPool handlers(server_threads);
  const double per_thread_qps = qps / client_threads;
  const double gap_seconds = 1.0 / per_thread_qps;
  std::vector<std::thread> clients;
  WallTimer wall;
  for (int c = 0; c < client_threads; ++c) {
    clients.emplace_back([&, c] {
      Rng rng(seed + static_cast<uint64_t>(c) * 1000);
      WallTimer thread_timer;
      int64_t sent = 0;
      while (thread_timer.ElapsedSeconds() < duration_seconds) {
        const double next_send = static_cast<double>(sent) * gap_seconds;
        const double now = thread_timer.ElapsedSeconds();
        if (now < next_send) {
          std::this_thread::sleep_for(
              std::chrono::duration<double>(next_send - now));
        }
        const auto& req = request_pool[rng.Uniform(request_pool.size())];
        auto offered_at = std::chrono::steady_clock::now();
        handlers.Submit([&, req, offered_at] {
          server->Handle(req);
          const double ms =
              std::chrono::duration<double, std::milli>(
                  std::chrono::steady_clock::now() - offered_at)
                  .count();
          total.fetch_add(1, std::memory_order_relaxed);
          latency_ns.Record(static_cast<int64_t>(ms * 1e6));
        });
        ++sent;
      }
    });
  }
  for (auto& t : clients) t.join();
  handlers.Shutdown();  // drain queued requests
  const double elapsed = wall.ElapsedSeconds();
  result.requests = total.load();
  result.achieved_qps = result.requests / elapsed;
  const obs::HistogramSnapshot snap = latency_ns.Snapshot();
  result.mean_ms = snap.Mean() / 1e6;  // exact (sum/count)
  result.p50_ms = static_cast<double>(snap.Percentile(50)) / 1e6;
  result.p99_ms = static_cast<double>(snap.Percentile(99)) / 1e6;
  return result;
}

}  // namespace serving
}  // namespace zoomer
