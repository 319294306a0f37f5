// Streaming freshness benchmark: quantifies the new online ingestion path
// (src/streaming/) against the static-CSR serving baseline. Reports
//   1. ingest throughput (edge events/s through the sharded pipeline),
//   2. read-path overhead of the dynamic delta overlay vs. the static CSR —
//      weighted sampling on untouched and delta-carrying nodes, and the
//      neighbor-cache hit path (acceptance: < 2x on cached reads),
//   3. update-visibility latency: time from offering a live session until
//      the clicked item appears in the (invalidated, asynchronously
//      re-filled) neighbor cache of its query,
//   4. an end-to-end OnlineServer check that an ingested click surfaces in
//      Handle() results,
//   5. training freshness: a Zoomer trainer attached to the ingest pipeline
//      through the dynamic GraphView — view re-pins per minibatch, and ROI
//      coverage of freshly arrived edges vs the stale static CSR,
//   6. compaction cost: folding deltas back into the CSR and truncating the
//      delta log,
//   7. maintenance: delta-heavy sampling with/without the hot-node overlay
//      cache (acceptance: cached within 2x of static-CSR sampling, vs ~6x
//      uncached), and overlay growth over a live ingest with the janitor's
//      scheduled compaction on vs off, and
//   8. cold-start node ingestion: brand-new item nodes minted online
//      through OfferNewNode (id-space growth), their arrival rate, and
//      ROI-sampler reachability through the grown dynamic view, and
//   9. incremental compaction: the segmented base's fold pause at dirty
//      fractions 1/8..1 of the segments over identical uniformly-dirty
//      workloads (acceptance: folding <= 1/8 of the segments costs <= ~25%
//      of a full Compact()), and
//  10. observability: the log-scale Histogram's record cost (acceptance:
//      <= ~50 ns/record), a served load whose latency percentiles come from
//      the registry-backed histogram, and the full registry snapshot
//      flattened into this artifact under "obs." keys.
//
// Flags: --smoke shrinks every workload for a CI smoke run; --json PATH
// writes the headline metrics as a flat JSON object so the workflow can
// archive a BENCH_*.json artifact per commit and the perf trajectory
// accumulates.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench/metric_sink.h"
#include "common/random.h"
#include "common/timer.h"
#include "core/roi_sampler.h"
#include "core/trainer.h"
#include "core/zoomer_model.h"
#include "data/session_stream.h"
#include "data/taobao_generator.h"
#include "maintenance/compaction_policy.h"
#include "maintenance/hot_node_cache.h"
#include "maintenance/maintenance_scheduler.h"
#include "obs/exporter.h"
#include "obs/metrics.h"
#include "serving/neighbor_cache.h"
#include "serving/online_server.h"
#include "streaming/dynamic_graph_view.h"
#include "streaming/dynamic_hetero_graph.h"
#include "streaming/graph_delta_log.h"
#include "streaming/ingest_pipeline.h"
#include "streaming/training_freshness.h"

namespace zoomer {
namespace bench {
namespace {

using graph::NodeId;
using graph::NodeType;

constexpr int kShards = 4;

std::vector<NodeId> NodesOfTypeWithEdges(const graph::HeteroGraph& g,
                                         NodeType t, size_t limit,
                                         Rng* rng) {
  std::vector<NodeId> all;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (g.node_type(v) == t && g.degree(v) > 0) all.push_back(v);
  }
  rng->Shuffle(&all);
  if (all.size() > limit) all.resize(limit);
  return all;
}

/// Alias draws straight off a CSR: the offline one-segment graph or the
/// dynamic graph's repartitioned base.
double TimeStaticSampling(const graph::HeteroGraph& g,
                          const std::vector<NodeId>& nodes, int draws,
                          uint64_t seed) {
  Rng rng(seed);
  WallTimer timer;
  int64_t sink = 0;
  for (int i = 0; i < draws; ++i) {
    sink += g.SampleNeighbor(nodes[i % nodes.size()], &rng);
  }
  const double micros = timer.ElapsedMicros();
  if (sink == 42) std::printf(" ");  // defeat dead-code elimination
  return micros / draws;
}

double TimeDynamicSampling(const streaming::DynamicHeteroGraph& dyn,
                           const std::vector<NodeId>& nodes, int draws,
                           uint64_t seed) {
  Rng rng(seed);
  auto snap = dyn.MakeSnapshot();
  WallTimer timer;
  int64_t sink = 0;
  for (int i = 0; i < draws; ++i) {
    sink += snap.SampleNeighbor(nodes[i % nodes.size()], &rng);
  }
  const double micros = timer.ElapsedMicros();
  if (sink == 42) std::printf(" ");
  return micros / draws;
}

double TimeCacheHits(serving::NeighborCache* cache,
                     const std::vector<NodeId>& nodes, int reads) {
  cache->WarmAll(nodes);
  std::vector<NodeId> out;
  WallTimer timer;
  for (int i = 0; i < reads; ++i) {
    cache->Get(nodes[i % nodes.size()], &out);
  }
  return timer.ElapsedMicros() / reads;
}

struct BenchConfig {
  bool smoke = false;          // tiny iteration counts for the CI smoke run
  std::string json_path;       // "" = no JSON artifact
};

}  // namespace

int Run(const BenchConfig& cfg) {
  std::printf("=== Streaming freshness benchmark%s ===\n",
              cfg.smoke ? " (smoke)" : "");
  MetricSink sink("streaming_freshness");
  data::TaobaoGeneratorOptions opt;
  opt.num_users = cfg.smoke ? 300 : 1500;
  opt.num_queries = cfg.smoke ? 200 : 800;
  opt.num_items = cfg.smoke ? 600 : 3000;
  opt.num_sessions = cfg.smoke ? 2400 : 12000;
  opt.num_categories = 16;
  opt.content_dim = 16;
  opt.seed = 42;
  auto ds = data::GenerateTaobaoDataset(opt);
  std::printf("base graph: %s\n", ds.graph.DebugString().c_str());

  Rng rng(7);
  auto users = NodesOfTypeWithEdges(ds.graph, NodeType::kUser, 400, &rng);
  auto queries = NodesOfTypeWithEdges(ds.graph, NodeType::kQuery, 400, &rng);

  // ---- 1. Ingest throughput -----------------------------------------------
  streaming::GraphDeltaLog log(kShards);
  streaming::DynamicHeteroGraph dyn(&ds.graph);
  streaming::IngestOptions iopt;
  iopt.num_shards = kShards;
  streaming::IngestPipeline pipeline(&log, &dyn, iopt);
  pipeline.Start();

  data::LiveSessionOptions lopt;
  lopt.num_sessions = cfg.smoke ? 800 : 8000;
  lopt.start_timestamp = opt.time_horizon_seconds + 1;
  lopt.seed = 77;
  auto live = data::SynthesizeLiveSessions(ds, lopt);

  // Overhead measured on untouched nodes before any delta exists.
  const int kDraws = cfg.smoke ? 20000 : 200000;
  const double static_clean =
      TimeStaticSampling(ds.graph, queries, kDraws, 11);
  const double dyn_clean = TimeDynamicSampling(dyn, queries, kDraws, 11);

  WallTimer ingest_timer;
  pipeline.OfferLog(live);
  pipeline.Flush();
  const double ingest_seconds = ingest_timer.ElapsedSeconds();
  auto istats = pipeline.Stats();
  std::printf(
      "\n[ingest] %lld sessions -> %lld events in %lld batches over %d "
      "shards: %.0f events/s (%.0f sessions/s)\n",
      static_cast<long long>(istats.sessions),
      static_cast<long long>(istats.events_applied),
      static_cast<long long>(istats.batches), kShards,
      istats.events_applied / ingest_seconds,
      istats.sessions / ingest_seconds);
  sink.Record("ingest_events_per_sec", istats.events_applied / ingest_seconds);
  sink.Record("ingest_sessions_per_sec", istats.sessions / ingest_seconds);
  std::printf("[ingest] delta overlay: %lld half-edges on %lld nodes "
              "(%.1f KiB), log %.1f KiB, epoch %llu\n",
              static_cast<long long>(dyn.num_delta_entries()),
              static_cast<long long>(dyn.num_delta_nodes()),
              dyn.OverlayMemoryBytes() / 1024.0, log.MemoryBytes() / 1024.0,
              static_cast<unsigned long long>(dyn.epoch()));

  // ---- 2. Read-path overhead ----------------------------------------------
  std::vector<NodeId> delta_queries;
  {
    auto snap = dyn.MakeSnapshot();
    for (NodeId q : queries) {
      if (snap.HasDelta(q)) delta_queries.push_back(q);
    }
  }
  if (delta_queries.empty()) delta_queries = queries;
  const double static_delta =
      TimeStaticSampling(ds.graph, delta_queries, kDraws, 13);
  const double dyn_delta =
      TimeDynamicSampling(dyn, delta_queries, kDraws, 13);

  serving::NeighborCacheOptions copt;
  serving::NeighborCache static_cache(&ds.graph, copt);
  serving::NeighborCache dynamic_cache(&ds.graph, copt);
  dynamic_cache.AttachDynamicGraph(&dyn);
  const int kReads = cfg.smoke ? 20000 : 200000;
  const double hit_static = TimeCacheHits(&static_cache, queries, kReads);
  const double hit_dynamic = TimeCacheHits(&dynamic_cache, queries, kReads);
  sink.Record("sample_untouched_ratio", dyn_clean / static_clean);
  sink.Record("sample_delta_ratio", dyn_delta / static_delta);
  sink.Record("cache_hit_ratio_vs_static", hit_dynamic / hit_static);

  std::printf("\n[read-path overhead vs static CSR, per-op micros]\n");
  std::printf("  %-34s %10s %10s %8s\n", "path", "static", "dynamic", "ratio");
  std::printf("  %-34s %10.4f %10.4f %7.2fx\n",
              "weighted sample, untouched nodes", static_clean, dyn_clean,
              dyn_clean / static_clean);
  std::printf("  %-34s %10.4f %10.4f %7.2fx\n",
              "weighted sample, delta nodes", static_delta, dyn_delta,
              dyn_delta / static_delta);
  std::printf("  %-34s %10.4f %10.4f %7.2fx  %s\n",
              "neighbor-cache hit", hit_static, hit_dynamic,
              hit_dynamic / hit_static,
              hit_dynamic / hit_static < 2.0 ? "(< 2x OK)" : "(>= 2x!)");

  // ---- 2b. Batched sampling over the delta overlay ------------------------
  // SampleManyNeighbors pins the epoch snapshot once and amortizes the
  // per-node shard lock + visible-prefix resolution over all k draws; the
  // single-draw loop pays them per draw. Same Rng schedule, bit-identical
  // outputs (checked below).
  {
    const int kBatchK = 16;
    const int batch_rounds = cfg.smoke ? 50 : 500;
    auto snap = dyn.MakeSnapshot();
    Rng r_single(29), r_batched(29);
    std::vector<NodeId> batched_out;
    WallTimer t_single;
    for (int r = 0; r < batch_rounds; ++r) {
      int64_t s = 0;
      for (NodeId q : delta_queries) {
        for (int j = 0; j < kBatchK; ++j) s += snap.SampleNeighbor(q, &r_single);
      }
      if (s == 42) std::printf(" ");
    }
    const double single_us = t_single.ElapsedMicros();
    WallTimer t_batched;
    for (int r = 0; r < batch_rounds; ++r) {
      snap.SampleManyNeighbors({delta_queries.data(), delta_queries.size()},
                               kBatchK, &r_batched, &batched_out);
    }
    const double batched_us = t_batched.ElapsedMicros();
    // Parity spot-check on a fresh pair of streams.
    Rng p1(31), p2(31);
    std::vector<NodeId> pb;
    snap.SampleManyNeighbors({delta_queries.data(), delta_queries.size()},
                             kBatchK, &p2, &pb);
    bool batch_parity = true;
    for (size_t i = 0; i < delta_queries.size(); ++i) {
      for (int j = 0; j < kBatchK; ++j) {
        batch_parity &=
            pb[i * kBatchK + j] == snap.SampleNeighbor(delta_queries[i], &p1);
      }
    }
    const double total_draws =
        static_cast<double>(batch_rounds) * delta_queries.size() * kBatchK;
    std::printf("\n[batched sampling, %zu delta nodes x %d draws]\n",
                delta_queries.size(), kBatchK);
    std::printf("  %-34s %10.4f us/draw\n", "per-draw SampleNeighbor",
                single_us / total_draws);
    std::printf("  %-34s %10.4f us/draw  %6.2fx  (parity %s)\n",
                "SampleManyNeighbors", batched_us / total_draws,
                single_us / batched_us, batch_parity ? "OK" : "MISMATCH");
    sink.Record("dyn_batched_vs_single_speedup", single_us / batched_us);
    sink.Record("dyn_batched_parity", batch_parity ? 1.0 : 0.0);
  }

  // ---- 3. Update-visibility latency ---------------------------------------
  serving::NeighborCacheOptions vopt;
  vopt.k = 30;
  serving::NeighborCache cache(&ds.graph, vopt);
  cache.AttachDynamicGraph(&dyn);
  // The visibility pipeline shares the delta log so epochs stay globally
  // monotonic across pipelines feeding one dynamic view.
  streaming::IngestPipeline vpipe(&log, &dyn, iopt);
  vpipe.AddUpdateListener([&cache](uint64_t, const std::vector<NodeId>& nodes) {
    for (NodeId n : nodes) cache.Invalidate(n);
  });
  vpipe.Start();
  cache.WarmAll(queries);

  LatencyStats visibility;
  int timeouts = 0;
  const int kRounds = cfg.smoke ? 10 : 60;
  for (int r = 0; r < kRounds; ++r) {
    const NodeId user = users[rng.Uniform(users.size())];
    const NodeId query = queries[rng.Uniform(queries.size())];
    const NodeId item = ds.all_items[rng.Uniform(ds.all_items.size())];
    graph::SessionRecord session;
    session.user = user;
    session.query = query;
    // Three clicks accumulate weight 3 so the fresh edge competes into the
    // top-k against the offline neighborhood.
    session.clicks = {item, item, item};
    WallTimer timer;
    vpipe.Offer(session);
    bool seen = false;
    std::vector<NodeId> out;
    while (timer.ElapsedMillis() < 1000.0) {
      if (cache.Get(query, &out) &&
          std::find(out.begin(), out.end(), item) != out.end()) {
        seen = true;
        break;
      }
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
    if (seen) {
      visibility.Add(timer.ElapsedMillis());
    } else {
      ++timeouts;  // heavy query: weight 3 did not crack its top-30
    }
  }
  std::printf("\n[update visibility] offer -> cached@query: mean %.2f ms, "
              "p50 %.2f ms, p99 %.2f ms (%zu/%d visible, %d top-k misses)\n",
              visibility.Mean(), visibility.Percentile(50),
              visibility.Percentile(99), visibility.count(), kRounds,
              timeouts);
  sink.Record("visibility_p50_ms", visibility.Percentile(50));
  sink.Record("visibility_p99_ms", visibility.Percentile(99));
  vpipe.Stop();

  // ---- 4. End-to-end OnlineServer freshness -------------------------------
  {
    const int dim = 16;
    serving::OnlineServerOptions sopt;
    sopt.embedding_dim = dim;
    sopt.top_n = 10;
    Rng erng(55);
    std::vector<float> node_emb(ds.graph.num_nodes() * dim);
    for (auto& x : node_emb) x = static_cast<float>(erng.Normal()) * 0.3f;
    std::vector<float> item_emb(ds.all_items.size() * dim);
    for (size_t i = 0; i < ds.all_items.size(); ++i) {
      std::copy(node_emb.begin() + ds.all_items[i] * dim,
                node_emb.begin() + (ds.all_items[i] + 1) * dim,
                item_emb.begin() + static_cast<int64_t>(i) * dim);
    }
    serving::OnlineServer server(&ds.graph, sopt, std::move(node_emb),
                                 ds.all_items, item_emb);
    server.AttachDynamicGraph(&dyn);
    streaming::IngestPipeline spipe(&log, &dyn, iopt);
    spipe.AddUpdateListener(
        [&server](uint64_t epoch, const std::vector<NodeId>& nodes) {
          server.OnGraphUpdate(epoch, nodes);
        });
    spipe.Start();
    const NodeId user = users[0], query = queries[0];
    server.WarmCache({user, query});
    auto before = server.Handle({user, query});
    graph::SessionRecord session;
    session.user = user;
    session.query = query;
    session.clicks = {ds.all_items[3], ds.all_items[3], ds.all_items[3]};
    spipe.Offer(session);
    spipe.Flush();
    std::this_thread::sleep_for(std::chrono::milliseconds(50));  // re-fill
    auto after = server.Handle({user, query});
    std::printf("\n[end-to-end] Handle latency before/after ingest: "
                "%.3f / %.3f ms; cache invalidations: %lld\n",
                before.latency_ms, after.latency_ms,
                static_cast<long long>(server.cache().Stats().invalidations));
    spipe.Stop();
  }

  // ---- 5. Training freshness ----------------------------------------------
  {
    core::ZoomerConfig mcfg;
    mcfg.hidden_dim = 8;
    mcfg.sampler.k = 4;
    mcfg.sampler.num_hops = 1;
    core::ZoomerModel model(&ds.graph, mcfg);
    core::TrainOptions topt;
    topt.epochs = 1;
    topt.batch_size = 32;
    topt.max_examples_per_epoch = cfg.smoke ? 64 : 256;
    core::ZoomerTrainer trainer(&model, topt);
    streaming::DynamicGraphView view(&dyn);
    streaming::IngestPipeline tpipe(&log, &dyn, iopt);
    streaming::AttachTrainingFreshness(&model, &trainer, &view, &tpipe);
    tpipe.Start();

    std::atomic<bool> done{false};
    std::thread feeder([&] {
      data::LiveSessionOptions flopt;
      flopt.num_sessions = cfg.smoke ? 300 : 2000;
      flopt.start_timestamp = opt.time_horizon_seconds + 2;
      flopt.seed = 99;
      auto fresh = data::SynthesizeLiveSessions(ds, flopt);
      size_t i = 0;
      while (!done.load() && i < fresh.size()) tpipe.Offer(fresh[i++]);
    });
    auto tres = trainer.Train(ds);
    done.store(true);
    feeder.join();
    tpipe.Flush();
    std::printf(
        "\n[training freshness] 1 epoch (%lld examples) in %.2f s, "
        "loss %.4f; view re-pinned %lld times, final graph epoch %llu\n",
        static_cast<long long>(tres.examples_seen), tres.total_seconds,
        tres.epochs.empty() ? 0.0 : tres.epochs.back().mean_loss,
        static_cast<long long>(tres.graph_refreshes),
        static_cast<unsigned long long>(tres.graph_epoch));

    // ROI coverage of fresh edges: fraction of delta-touched queries whose
    // focal-top-k ROI (through the refreshed view) contains a neighbor the
    // static CSR has never seen. The static trainer scores 0 by definition.
    view.Refresh();
    core::RoiSampler roi_sampler(mcfg.sampler);
    Rng crng(123);
    int covered = 0, considered = 0;
    for (NodeId q : queries) {
      if (considered >= 100) break;
      if (!view.snapshot().HasDelta(q)) continue;
      ++considered;
      auto fc = roi_sampler.FocalVector(view, {users[0], q});
      auto roi = roi_sampler.Sample(view, q, fc, &crng);
      auto base_ids = ds.graph.neighbor_ids(q);
      bool has_fresh = false;
      for (const auto& n : roi.nodes) {
        if (n.depth != 1) continue;
        has_fresh |= std::find(base_ids.begin(), base_ids.end(), n.id) ==
                     base_ids.end();
      }
      covered += has_fresh;
    }
    std::printf(
        "[training freshness] ROI fresh-edge coverage: %d/%d delta-touched "
        "queries sample a neighbor absent from the offline CSR (static "
        "sampler: 0)\n",
        covered, considered);
    tpipe.Stop();
  }

  // ---- 6. Compaction -------------------------------------------------------
  const int64_t pre_entries = dyn.num_delta_entries();
  WallTimer compact_timer;
  auto folded = dyn.Compact();
  const double compact_ms = compact_timer.ElapsedMillis();
  if (!folded.ok()) {
    std::printf("compact failed: %s\n", folded.status().ToString().c_str());
    return 1;
  }
  log.Truncate(folded.value());
  const double dyn_after_compact =
      TimeDynamicSampling(dyn, delta_queries, kDraws, 13);
  std::printf("\n[compact] folded %lld half-edges through epoch %llu in "
              "%.1f ms; new base: %s\n",
              static_cast<long long>(pre_entries),
              static_cast<unsigned long long>(folded.value()), compact_ms,
              dyn.base()->DebugString().c_str());
  std::printf("[compact] delta-node sample cost after compaction: %.4f "
              "micros/op (%.2fx static)\n",
              dyn_after_compact, dyn_after_compact / static_delta);
  sink.Record("compact_ms", compact_ms);

  // ---- 7. Maintenance: hot-node cache + scheduled compaction ---------------
  {
    // 7a. Concentrate a heavy delta burst on a few query nodes so their
    // overlays hold hundreds of entries — the regime where the dynamic read
    // path ran ~6x static, now reclaimed by the materialized merge + alias
    // table of the hot-node overlay cache.
    std::vector<NodeId> hot(queries.begin(),
                            queries.begin() + std::min<size_t>(
                                                  cfg.smoke ? 16 : 64,
                                                  queries.size()));
    Rng hrng(211);
    const int deltas_per_hot_node = cfg.smoke ? 128 : 512;
    std::vector<streaming::EdgeEvent> burst;
    for (NodeId q : hot) {
      for (int i = 0; i < deltas_per_hot_node; ++i) {
        burst.push_back({q,
                         ds.all_items[hrng.Uniform(ds.all_items.size())],
                         graph::RelationKind::kClick, 1.0f, 0});
      }
      streaming::DeltaBatch batch;
      batch.events = std::move(burst);
      batch.epoch = log.Append(0, batch.events);
      auto st = dyn.ApplyBatch(batch);
      if (!st.ok()) {
        std::printf("burst apply failed: %s\n", st.ToString().c_str());
        return 1;
      }
      burst.clear();
    }

    const double static_hot =
        TimeStaticSampling(*dyn.base(), hot, kDraws, 19);
    const double hot_uncached = TimeDynamicSampling(dyn, hot, kDraws, 19);

    maintenance::HotNodeCacheOptions hopt;
    hopt.min_delta_entries = 64;
    maintenance::HotNodeOverlayCache hot_cache(ds.graph.num_nodes(), hopt);
    maintenance::HotNodeRefreshPolicy refresh(&dyn, &hot_cache);
    WallTimer refresh_timer;
    auto refreshed = refresh.RunOnce();
    const double refresh_ms = refresh_timer.ElapsedMillis();
    if (!refreshed.ok()) {
      std::printf("hot-node refresh failed: %s\n",
                  refreshed.status().ToString().c_str());
      return 1;
    }
    const double hot_cached = TimeDynamicSampling(dyn, hot, kDraws, 19);

    auto cstats = hot_cache.Stats();
    sink.Record("hot_uncached_ratio", hot_uncached / static_hot);
    sink.Record("hot_cached_ratio", hot_cached / static_hot);
    std::printf("\n[maintenance] delta-heavy sampling, %zu nodes x ~%d "
                "deltas (per-op micros)\n",
                hot.size(), deltas_per_hot_node);
    std::printf("  %-34s %10.4f\n", "static CSR", static_hot);
    std::printf("  %-34s %10.4f %7.2fx\n", "dynamic, no hot-node cache",
                hot_uncached, hot_uncached / static_hot);
    std::printf("  %-34s %10.4f %7.2fx  %s\n", "dynamic, hot-node cache",
                hot_cached, hot_cached / static_hot,
                hot_cached / static_hot < 2.0 ? "(< 2x OK)" : "(>= 2x!)");
    std::printf("  cache: %zu entries materialized in %.1f ms, %lld hits / "
                "%lld misses\n",
                cstats.entries, refresh_ms,
                static_cast<long long>(cstats.hits),
                static_cast<long long>(cstats.misses));

    // 7b. Overlay footprint over a live ingest with the janitor's scheduled
    // compaction on vs off: the same session stream, one run left to grow
    // and one compacted in the background whenever the overlay crosses the
    // entry threshold.
    auto timed_ingest = [&](bool janitor) {
      struct Result {
        size_t peak_bytes = 0;
        size_t final_bytes = 0;
        int64_t compactions = 0;
      } result;
      streaming::GraphDeltaLog jlog(kShards);
      streaming::DynamicHeteroGraph jdyn(&ds.graph);
      streaming::IngestPipeline jpipe(&jlog, &jdyn, iopt);
      maintenance::MaintenanceScheduler scheduler;
      if (janitor) {
        maintenance::CompactionPolicyOptions jopt;
        jopt.max_delta_entries = 10000;
        maintenance::PolicySchedule cadence;
        cadence.period_ms = 5;
        scheduler.AddPolicy(
            std::make_unique<maintenance::CompactionPolicy>(
                &jdyn, &jlog, nullptr, jopt),
            cadence);
        scheduler.Start();
      }
      jpipe.Start();
      data::LiveSessionOptions jlopt;
      jlopt.num_sessions = cfg.smoke ? 600 : 6000;
      jlopt.start_timestamp = opt.time_horizon_seconds + 3;
      jlopt.seed = 311;
      auto sessions = data::SynthesizeLiveSessions(ds, jlopt);
      size_t offered = 0;
      for (const auto& session : sessions) {
        jpipe.Offer(session);
        if (++offered % 200 == 0) {
          result.peak_bytes =
              std::max(result.peak_bytes, jdyn.OverlayMemoryBytes());
          // Pace the offered stream so the run spans several janitor
          // periods (and the timer thread gets scheduled on small hosts);
          // both runs pace identically, so footprints stay comparable.
          std::this_thread::sleep_for(std::chrono::milliseconds(2));
        }
      }
      jpipe.Flush();
      result.peak_bytes =
          std::max(result.peak_bytes, jdyn.OverlayMemoryBytes());
      if (janitor) {
        // Let the janitor observe the drained overlay once more before the
        // scheduler stops (the steady state of a long-running server).
        std::this_thread::sleep_for(std::chrono::milliseconds(30));
      }
      scheduler.Stop();
      result.final_bytes = jdyn.OverlayMemoryBytes();
      if (janitor) result.compactions = scheduler.Stats()[0].actions;
      jpipe.Stop();
      return result;
    };
    auto grown = timed_ingest(/*janitor=*/false);
    auto swept = timed_ingest(/*janitor=*/true);
    sink.Record("overlay_peak_kib_janitor_off", grown.peak_bytes / 1024.0);
    sink.Record("overlay_peak_kib_janitor_on", swept.peak_bytes / 1024.0);
    std::printf("\n[maintenance] overlay bytes over the live-session sweep "
                "(scheduled compaction off vs on)\n");
    std::printf("  %-26s peak %8.1f KiB  final %8.1f KiB\n", "janitor off",
                grown.peak_bytes / 1024.0, grown.final_bytes / 1024.0);
    std::printf("  %-26s peak %8.1f KiB  final %8.1f KiB  "
                "(%lld background compactions)\n",
                "janitor on", swept.peak_bytes / 1024.0,
                swept.final_bytes / 1024.0,
                static_cast<long long>(swept.compactions));
  }

  // ---- 8. Cold-start node ingestion (id-space growth) ----------------------
  {
    data::ColdStartOptions aopt;
    aopt.num_new_items = cfg.smoke ? 50 : 500;
    aopt.start_timestamp = opt.time_horizon_seconds + 4;
    aopt.seed = 401;
    auto arrivals = data::SynthesizeColdStartArrivals(ds, aopt);
    const int64_t nodes_before = dyn.MakeSnapshot().num_nodes();
    WallTimer mint_timer;
    std::vector<NodeId> minted;
    minted.reserve(arrivals.size());
    for (auto& arrival : arrivals) {
      auto id = pipeline.OfferNewNode(std::move(arrival.item),
                                      std::move(arrival.edges));
      if (!id.ok()) {
        std::printf("cold-start offer failed: %s\n",
                    id.status().ToString().c_str());
        return 1;
      }
      minted.push_back(id.value());
    }
    const double mint_seconds = mint_timer.ElapsedSeconds();
    auto snap = dyn.MakeSnapshot();

    // Reachability: every minted item resolves through the grown view and
    // its introducing edges expand into a non-trivial ROI.
    streaming::DynamicGraphView grown_view(&dyn);
    core::RoiSamplerOptions ropt;
    ropt.k = 4;
    ropt.num_hops = 2;
    core::RoiSampler roi(ropt);
    Rng nrng(77);
    int reachable = 0;
    for (NodeId id : minted) {
      auto fc = roi.FocalVector(grown_view, {users[0], id});
      reachable += roi.Sample(grown_view, id, fc, &nrng).size() > 1;
    }
    std::printf(
        "\n[node ingest] %zu cold-start items minted in %.3f s (%.0f "
        "nodes/s); id-space %lld -> %lld; %d/%zu reachable via 2-hop ROI\n",
        minted.size(), mint_seconds, minted.size() / mint_seconds,
        static_cast<long long>(nodes_before),
        static_cast<long long>(snap.num_nodes()), reachable, minted.size());
    sink.Record("node_ingest_per_sec", minted.size() / mint_seconds);
    sink.Record("node_ingest_roi_reachable_frac",
                reachable / static_cast<double>(minted.size()));

    // The fold appends them into the next base generation renumber-free.
    WallTimer fold_timer;
    auto refolded = dyn.Compact();
    if (!refolded.ok()) {
      std::printf("post-mint compact failed: %s\n",
                  refolded.status().ToString().c_str());
      return 1;
    }
    log.Truncate(refolded.value());
    std::printf("[node ingest] fold with %zu overlay nodes: %.1f ms; new "
                "base: %s\n",
                minted.size(), fold_timer.ElapsedMillis(),
                dyn.base()->DebugString().c_str());
    sink.Record("node_ingest_fold_ms", fold_timer.ElapsedMillis());
  }

  // ---- 9. Incremental compaction: fold pause vs dirty fraction -------------
  {
    // Identical uniformly-dirty workloads, folded at different dirty
    // fractions: every segment receives the same count of segment-local
    // delta edges, then one run folds all segments (the old full Compact
    // pause) and the others fold only the first 1/2, 1/4, 1/8 of them.
    // Acceptance (ROADMAP/ISSUE): folding <= 1/8 of the segments costs
    // <= ~25% of the full fold on this workload.
    const int edges_per_segment = cfg.smoke ? 64 : 512;
    auto prepare = [&](streaming::GraphDeltaLog* dlog) {
      auto d = std::make_unique<streaming::DynamicHeteroGraph>(&ds.graph);
      const int64_t span = d->segment_span();
      const int64_t nsegs = d->base()->num_segments();
      Rng brng(907);
      for (int64_t s = 0; s < nsegs; ++s) {
        const NodeId lo = static_cast<NodeId>(s * span);
        const NodeId hi =
            std::min<NodeId>(lo + span, ds.graph.num_nodes());
        if (hi - lo < 2) continue;
        std::vector<streaming::EdgeEvent> events;
        events.reserve(edges_per_segment);
        for (int i = 0; i < edges_per_segment; ++i) {
          const NodeId a = lo + static_cast<NodeId>(brng.Uniform(hi - lo));
          NodeId b = lo + static_cast<NodeId>(brng.Uniform(hi - lo));
          if (a == b) b = a == lo ? a + 1 : lo;
          events.push_back({a, b, graph::RelationKind::kClick, 1.0f, 0});
        }
        streaming::DeltaBatch batch;
        batch.events = std::move(events);
        batch.epoch = dlog->Append(0, batch.events);
        auto st = d->ApplyBatch(batch);
        if (!st.ok()) {
          std::printf("incremental-bench apply failed: %s\n",
                      st.ToString().c_str());
          std::abort();
        }
      }
      return d;
    };

    struct FoldPoint {
      double frac;
      int64_t segments;
      double ms;
    };
    std::vector<FoldPoint> points;
    const std::vector<double> fracs = {1.0, 0.5, 0.25, 0.125};
    for (double frac : fracs) {
      streaming::GraphDeltaLog dlog(1);
      auto d = prepare(&dlog);
      const int64_t nsegs = d->base()->num_segments();
      const int64_t k = std::max<int64_t>(
          1, static_cast<int64_t>(nsegs * frac + 0.5));
      std::vector<int64_t> selection;
      for (int64_t s = 0; s < k; ++s) selection.push_back(s);
      WallTimer fold_timer;
      auto folded = frac >= 1.0 ? d->Compact()
                                : d->CompactSegments(std::move(selection));
      const double ms = fold_timer.ElapsedMillis();
      if (!folded.ok()) {
        std::printf("incremental fold failed: %s\n",
                    folded.status().ToString().c_str());
        return 1;
      }
      dlog.Truncate(d->SafeTruncateEpoch());
      points.push_back({frac, k, ms});
    }
    const double full_ms = points[0].ms;
    const double eighth_ratio = points.back().ms / full_ms;
    std::printf("\n[incremental compaction] fold pause vs dirty fraction "
                "(%lld segments x %d delta edges each)\n",
                static_cast<long long>(
                    points[0].segments),
                edges_per_segment);
    for (const FoldPoint& p : points) {
      std::printf("  fold %5.1f%% (%3lld segs) %10.2f ms  %5.1f%% of full%s\n",
                  p.frac * 100.0, static_cast<long long>(p.segments), p.ms,
                  100.0 * p.ms / full_ms,
                  p.frac <= 0.125
                      ? (p.ms / full_ms <= 0.25 ? "  (<= 25% OK)"
                                                : "  (> 25%!)")
                      : "");
    }
    sink.Record("segmented_full_fold_ms", full_ms);
    sink.Record("incr_fold_eighth_ms", points.back().ms);
    sink.Record("incr_fold_eighth_vs_full_ratio", eighth_ratio);
    sink.Record("incr_fold_quarter_vs_full_ratio", points[2].ms / full_ms);
    sink.Record("incr_fold_half_vs_full_ratio", points[1].ms / full_ms);
  }

  // ---- 10. Observability ---------------------------------------------------
  {
    // 10a. Record cost of the log-scale histogram (the instrument every hot
    // path now carries). Pre-generated values so the measured loop is just
    // Record(); acceptance: <= ~50 ns/record.
    const int kRecords = cfg.smoke ? (1 << 20) : (1 << 22);
    std::vector<int64_t> values(static_cast<size_t>(kRecords));
    Rng orng(515);
    for (auto& v : values) v = static_cast<int64_t>(orng.Uniform(1 << 20));
    obs::Histogram scratch;
    WallTimer record_timer;
    for (int64_t v : values) scratch.Record(v);
    const double record_ns =
        record_timer.ElapsedMicros() * 1000.0 / kRecords;
    const auto scratch_snap = scratch.Snapshot();
    std::printf("\n[obs] histogram record: %.1f ns/op over %d records "
                "(p50 %lld, p99 %lld; midpoint error <= ~3.1%%)%s\n",
                record_ns, kRecords,
                static_cast<long long>(scratch_snap.Percentile(50)),
                static_cast<long long>(scratch_snap.Percentile(99)),
                record_ns <= 50.0 ? "  (<= 50 ns OK)" : "  (> 50 ns!)");
    sink.Record("obs.histogram_record_ns", record_ns);

    // 10b. Serving percentiles from the registry-backed instruments: a short
    // open-loop load against an OnlineServer, then a DumpMetrics scrape.
    const int dim = 16;
    serving::OnlineServerOptions sopt;
    sopt.embedding_dim = dim;
    sopt.top_n = 10;
    Rng erng(56);
    std::vector<float> node_emb(ds.graph.num_nodes() * dim);
    for (auto& x : node_emb) x = static_cast<float>(erng.Normal()) * 0.3f;
    std::vector<float> item_emb(ds.all_items.size() * dim);
    for (size_t i = 0; i < ds.all_items.size(); ++i) {
      std::copy(node_emb.begin() + ds.all_items[i] * dim,
                node_emb.begin() + (ds.all_items[i] + 1) * dim,
                item_emb.begin() + static_cast<int64_t>(i) * dim);
    }
    serving::OnlineServer server(&ds.graph, sopt, std::move(node_emb),
                                 ds.all_items, item_emb);
    std::vector<serving::ServingRequest> pool;
    for (size_t i = 0; i < users.size() && i < queries.size(); ++i) {
      pool.push_back({users[i], queries[i]});
      server.WarmCache({users[i], queries[i]});
    }
    const double load_qps = cfg.smoke ? 500.0 : 2000.0;
    const double load_seconds = cfg.smoke ? 0.5 : 2.0;
    auto load = serving::RunLoad(&server, pool, load_qps, load_seconds,
                                 /*client_threads=*/2, /*seed=*/61);
    std::printf("[obs] served %lld requests at %.0f qps: p50 %.3f ms, "
                "p99 %.3f ms (registry-backed histogram)\n",
                static_cast<long long>(load.requests), load.achieved_qps,
                load.p50_ms, load.p99_ms);
    sink.Record("serving_p50_ms", load.p50_ms);
    sink.Record("serving_p99_ms", load.p99_ms);
    const std::string dump = server.DumpMetrics();
    std::printf("[obs] DumpMetrics: %zu bytes of JSON\n", dump.size());

    // 10c. Full registry snapshot into the artifact: every instrument the
    // run above touched (per-shard freshness lag, fold pauses, cache
    // counters, serving percentiles, ...) lands under "obs." keys, so the
    // CI trajectory carries the whole registry per commit.
    obs::MetricsExporter::Flatten(
        obs::MetricsRegistry::Global()->Snapshot(),
        [&sink](const std::string& key, double value) {
          sink.Record("obs." + key, value);
        });
  }

  pipeline.Stop();
  if (!cfg.json_path.empty()) {
    if (!sink.WriteJson(cfg.json_path, cfg.smoke)) {
      std::printf("failed to write %s\n", cfg.json_path.c_str());
      return 1;
    }
    std::printf("\nmetrics written to %s\n", cfg.json_path.c_str());
  }
  return 0;
}

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
