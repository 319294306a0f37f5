// Micro-benchmarks for the kernels the system design leans on (Sec. VI and
// DESIGN.md ablation list), now a plain main() program in the same style as
// the experiment benches. Reports
//   1. RNG draw cost: raw xoshiro word, the Lemire bounded draw vs the old
//      modulo reduction, and the 24-bit float draw,
//   2. alias-table draws: single Sample() vs the batched (auto-vectorized /
//      AVX2) SampleBatch() across table sizes, with a bit-identical parity
//      check between the two paths,
//   3. the headline batched-sampling number: SampleManyNeighbors() vs a
//      per-draw virtual SampleNeighbor() loop over the same node/draw
//      schedule at serving concurrency (8 threads), reported as
//      batched_vs_single_speedup (acceptance: >= 4x full run, >= 2x smoke
//      gate in CI),
//   4. ROI sampling: per-kind single-ego cost plus the frontier-at-once
//      RoiSampler::SampleBatch speedup over per-ego calls (this also feeds
//      the sampler.batch_* histograms that land in the obs. flatten),
//   5. the ported legacy kernels: MinHash signatures, relevance scorers,
//      attention forward/backward, PS pull/push, 3-stage pipeline overlap,
//      and
//   6. the full metrics-registry snapshot flattened under "obs." keys
//      (sampler.batch_size presence is CI-gated).
//
// Flags: --smoke shrinks every workload for a CI smoke run; --json PATH
// writes the headline metrics as a flat JSON object (BENCH_*.json artifact).
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "bench/metric_sink.h"
#include "common/random.h"
#include "common/timer.h"
#include "core/roi_sampler.h"
#include "core/zoomer_model.h"
#include "graph/alias_table.h"
#include "graph/graph_view.h"
#include "graph/minhash.h"
#include "obs/exporter.h"
#include "obs/metrics.h"
#include "ps/parameter_server.h"
#include "streaming/dynamic_graph_view.h"
#include "streaming/dynamic_hetero_graph.h"
#include "streaming/graph_delta_log.h"
#include "tensor/tensor.h"

namespace zoomer {
namespace bench {
namespace {

using graph::NodeId;

struct BenchConfig {
  bool smoke = false;     // tiny iteration counts for the CI smoke run
  std::string json_path;  // "" = no JSON artifact
};

int64_t g_sink = 0;  // defeat dead-code elimination across sections

}  // namespace

int Run(const BenchConfig& cfg) {
  std::printf("=== Micro-kernel benchmark%s ===\n", cfg.smoke ? " (smoke)" : "");
  MetricSink sink("micro_kernels");
  const auto& ds_opt = ScaleOptions(GraphScale::kMillion, 3);
  auto ds = data::GenerateTaobaoDataset(ds_opt);
  std::printf("graph: %s\n", ds.graph.DebugString().c_str());

  // ---- 1. RNG ---------------------------------------------------------------
  {
    const int n = cfg.smoke ? (1 << 20) : (1 << 23);
    Rng rng(1);
    WallTimer t0;
    for (int i = 0; i < n; ++i) g_sink += static_cast<int64_t>(rng.NextUint64());
    const double next_ns = t0.ElapsedMicros() * 1000.0 / n;
    WallTimer t1;
    for (int i = 0; i < n; ++i) {
      g_sink += static_cast<int64_t>(rng.Uniform(1000003));
    }
    const double lemire_ns = t1.ElapsedMicros() * 1000.0 / n;
    // The old reduction for reference: a 64-bit divide per draw plus the
    // modulo bias the multiply-shift path eliminated.
    WallTimer t2;
    for (int i = 0; i < n; ++i) {
      g_sink += static_cast<int64_t>(rng.NextUint64() % 1000003u);
    }
    const double modulo_ns = t2.ElapsedMicros() * 1000.0 / n;
    WallTimer t3;
    for (int i = 0; i < n; ++i) {
      g_sink += static_cast<int64_t>(rng.UniformFloat() * 4.0f);
    }
    const double float_ns = t3.ElapsedMicros() * 1000.0 / n;
    std::printf("\n[rng] per-draw ns over %d draws\n", n);
    std::printf("  %-34s %8.2f\n", "NextUint64 (xoshiro256**)", next_ns);
    std::printf("  %-34s %8.2f\n", "Uniform(n) multiply-shift", lemire_ns);
    std::printf("  %-34s %8.2f  (%.2fx of multiply-shift)\n",
                "NextUint64 %% n (old reduction)", modulo_ns,
                modulo_ns / lemire_ns);
    std::printf("  %-34s %8.2f\n", "UniformFloat (24-bit)", float_ns);
    sink.Record("rng_next_ns", next_ns);
    sink.Record("rng_uniform_ns", lemire_ns);
    sink.Record("rng_modulo_ns", modulo_ns);
    sink.Record("rng_uniform_float_ns", float_ns);
  }

  // ---- 2. Alias table: single vs batched draws ------------------------------
  {
    std::printf("\n[alias] per-draw ns, single Sample() vs SampleBatch()\n");
    std::printf("  %-12s %10s %10s %9s\n", "table size", "single", "batched",
                "speedup");
    for (const int size : {64, 1024, 65536}) {
      Rng wrng(2);
      std::vector<double> weights(size);
      for (auto& w : weights) w = wrng.UniformDouble() + 0.01;
      graph::AliasTable table(weights);
      const int draws = cfg.smoke ? (1 << 19) : (1 << 22);
      Rng r1(3), r2(3);
      WallTimer ts;
      for (int i = 0; i < draws; ++i) {
        g_sink += static_cast<int64_t>(table.Sample(&r1));
      }
      const double single_ns = ts.ElapsedMicros() * 1000.0 / draws;
      std::vector<uint32_t> out(4096);
      WallTimer tb;
      for (int done = 0; done < draws; done += static_cast<int>(out.size())) {
        table.SampleBatch(&r2, {out.data(), out.size()});
        g_sink += out[0];
      }
      const double batch_ns_direct = tb.ElapsedMicros() * 1000.0 / draws;
      std::printf("  %-12d %10.2f %10.2f %8.2fx\n", size, single_ns,
                  batch_ns_direct, single_ns / batch_ns_direct);
      if (size == 1024) {
        sink.Record("alias_single_ns_1024", single_ns);
        sink.Record("alias_batch_ns_1024", batch_ns_direct);
        sink.Record("alias_batch_speedup_1024", single_ns / batch_ns_direct);
      }
      if (size == 65536) {
        sink.Record("alias_batch_speedup_65536",
                    single_ns / batch_ns_direct);
      }
    }
    // Parity: both paths must consume the RNG identically and land on the
    // same buckets (the CI gate also asserts this).
    graph::AliasTable table(std::vector<double>{1.0, 2.0, 0.5, 3.0, 0.25});
    Rng rs(11), rb(11);
    std::vector<uint32_t> got(1000);
    table.SampleBatch(&rb, {got.data(), got.size()});
    bool parity = true;
    for (uint32_t v : got) parity &= v < 5;
    for (size_t i = 0; i < got.size(); ++i) {
      parity &= got[i] == static_cast<uint32_t>(table.Sample(&rs));
    }
    parity &= rs.NextUint64() == rb.NextUint64();
    std::printf("  parity single==batched over 1000 draws: %s\n",
                parity ? "OK" : "MISMATCH");
    sink.Record("batched_single_parity", parity ? 1.0 : 0.0);
  }

  // ---- 3. Headline: batched vs single draws at serving concurrency ---------
  // Reproduces the serving hot path before/after this change over the
  // streaming graph. The single baseline is what OnlineServer::Handle paid
  // per request pre-batching: pin an epoch snapshot, then one virtual-ish
  // SampleNeighbor call per draw. The batched path is the current routing:
  // pin ONCE per 256-ego batch and push the whole frontier through
  // SampleManyNeighbors (prefetched rows, AliasTable::SampleBatch). Both run
  // the identical node/draw schedule on 8 threads.
  {
    streaming::DynamicHeteroGraph dyn(&ds.graph);
    Rng nrng(5);
    std::vector<NodeId> nodes;
    for (NodeId v = 0; v < ds.graph.num_nodes(); ++v) {
      if (ds.graph.degree(v) > 0) nodes.push_back(v);
    }
    nrng.Shuffle(&nodes);
    if (nodes.size() > 256) nodes.resize(256);
    // Fresh behavior on every served node: 4 delta edges each, so draws go
    // through the overlay (shard lock + visible-prefix resolution) — the
    // path the paper's freshness story serves from. Single-draw pays that
    // per draw; the batch amortizes it per node.
    {
      streaming::GraphDeltaLog log(1);
      std::vector<streaming::EdgeEvent> events;
      for (size_t r = 0; r < nodes.size(); ++r) {
        for (size_t e = 0; e < 4; ++e) {
          streaming::EdgeEvent ev;
          ev.src = nodes[r];
          ev.dst = nodes[(r + e + 1) % nodes.size()];  // distinct ids, no loop
          ev.weight = 1.0f + 0.25f * static_cast<float>(e);
          events.push_back(ev);
        }
      }
      streaming::DeltaBatch batch;
      batch.events = std::move(events);
      batch.epoch = log.Append(0, batch.events,
                               [&dyn](uint64_t e) { dyn.NoteEpochIssued(e); });
      ZCHECK(dyn.ApplyBatch(batch).ok());
    }
    const int k = 16;
    const int kThreads = 8;
    const int rounds = cfg.smoke ? 40 : 400;
    const double total_draws =
        static_cast<double>(kThreads) * rounds * nodes.size() * k;

    auto run_single = [&](int tid) {
      Rng rng(100 + tid);
      int64_t local = 0;
      for (int r = 0; r < rounds; ++r) {
        for (NodeId node : nodes) {
          // Per-request view construction (snapshot pin) + per-draw virtual
          // dispatch — the exact pre-batching serving shape.
          streaming::DynamicGraphView view(&dyn);
          const graph::GraphView& g = view;
          for (int j = 0; j < k; ++j) {
            local += g.SampleNeighbor(node, &rng);
          }
        }
      }
      g_sink += local;
    };
    auto run_batched = [&](int tid) {
      Rng rng(100 + tid);
      std::vector<NodeId> out;
      int64_t local = 0;
      for (int r = 0; r < rounds; ++r) {
        streaming::DynamicGraphView view(&dyn);  // one pin per batch
        const graph::GraphView& g = view;
        g.SampleManyNeighbors({nodes.data(), nodes.size()}, k, &rng, &out);
        local += out[0];
      }
      g_sink += local;
    };
    auto timed = [&](auto fn) {
      std::vector<std::thread> threads;
      threads.reserve(kThreads);
      WallTimer t;
      for (int i = 0; i < kThreads; ++i) threads.emplace_back(fn, i);
      for (auto& th : threads) th.join();
      return t.ElapsedSeconds();
    };
    const double single_s = timed(run_single);
    const double batched_s = timed(run_batched);
    const double single_qps = total_draws / single_s;
    const double batched_qps = total_draws / batched_s;
    const double speedup = single_s / batched_s;

    // Parity on this schedule: one snapshot, same seed, draw for draw.
    auto snap = dyn.MakeSnapshot();
    Rng pr1(100), pr2(100);
    std::vector<NodeId> batch_out;
    snap.SampleManyNeighbors({nodes.data(), nodes.size()}, k, &pr2,
                             &batch_out);
    bool parity = true;
    for (size_t i = 0; i < nodes.size(); ++i) {
      for (int j = 0; j < k; ++j) {
        parity &= batch_out[i * k + j] == snap.SampleNeighbor(nodes[i], &pr1);
      }
    }

    // Secondary: the same schedule on the immutable CSR (no snapshot or
    // lock traffic on either side — isolates prefetch + SampleBatch).
    const graph::GraphView& view = ds.graph;
    auto static_single = [&](int tid) {
      Rng rng(100 + tid);
      int64_t local = 0;
      for (int r = 0; r < rounds; ++r) {
        for (NodeId node : nodes) {
          for (int j = 0; j < k; ++j) local += view.SampleNeighbor(node, &rng);
        }
      }
      g_sink += local;
    };
    auto static_batched = [&](int tid) {
      Rng rng(100 + tid);
      std::vector<NodeId> out;
      int64_t local = 0;
      for (int r = 0; r < rounds; ++r) {
        view.SampleManyNeighbors({nodes.data(), nodes.size()}, k, &rng, &out);
        local += out[0];
      }
      g_sink += local;
    };
    const double sstatic_s = timed(static_single);
    const double bstatic_s = timed(static_batched);

    std::printf(
        "\n[batched sampling] %zu nodes x %d draws x %d rounds x %d threads\n",
        nodes.size(), k, rounds, kThreads);
    std::printf("  %-40s %10.2f Mdraws/s\n",
                "serving: pin + per-draw SampleNeighbor", single_qps / 1e6);
    std::printf("  %-40s %10.2f Mdraws/s\n",
                "serving: pin-once + SampleManyNeighbors", batched_qps / 1e6);
    std::printf("  %-40s %9.2fx  %s  (parity %s)\n", "batched vs single",
                speedup, speedup >= (cfg.smoke ? 2.0 : 4.0) ? "(OK)" : "(LOW!)",
                parity ? "OK" : "MISMATCH");
    std::printf("  %-40s %9.2fx\n", "static CSR batched vs single",
                sstatic_s / bstatic_s);
    if (std::thread::hardware_concurrency() < static_cast<unsigned>(kThreads)) {
      std::printf(
          "  note: %u hardware threads hosting %d workers — the single "
          "path's per-draw lock/atomic contention (what batching removes) "
          "is understated on this machine.\n",
          std::thread::hardware_concurrency(), kThreads);
    }
    sink.Record("single_draws_per_sec", single_qps);
    sink.Record("batched_draws_per_sec", batched_qps);
    sink.Record("batched_vs_single_speedup", speedup);
    sink.Record("batched_many_parity", parity ? 1.0 : 0.0);
    sink.Record("static_batched_vs_single_speedup", sstatic_s / bstatic_s);
  }

  // ---- 4. ROI sampling: per-kind cost + frontier-at-once batch --------------
  {
    core::RoiSamplerOptions opt;
    opt.k = 10;
    opt.num_hops = 2;
    const char* kNames[] = {"focal-topk", "uniform", "weighted", "random-walk"};
    std::printf("\n[roi] single-ego Sample() per-op micros\n");
    const int iters = cfg.smoke ? 200 : 2000;
    Rng rng(4);
    for (int kind = 0; kind < 4; ++kind) {
      opt.kind = static_cast<core::SamplerKind>(kind);
      core::RoiSampler sampler(opt);
      auto fc = sampler.FocalVector(ds.graph,
                                    {ds.train[0].user, ds.train[0].query});
      WallTimer t;
      for (int i = 0; i < iters; ++i) {
        g_sink += sampler.Sample(ds.graph, ds.train[0].user, fc, &rng).size();
      }
      const double us = t.ElapsedMicros() / iters;
      std::printf("  %-34s %10.2f\n", kNames[kind], us);
      sink.Record(std::string("roi_sample_us_") + kNames[kind], us);
    }

    // Frontier-at-once batch vs per-ego loop (focal-top-k, the serving
    // default): shared scratch + shared relevance memo across egos. Also
    // populates the sampler.batch_size / sampler.batch_latency_us
    // histograms the obs flatten below carries into the artifact.
    opt.kind = core::SamplerKind::kFocalTopK;
    core::RoiSampler sampler(opt);
    auto fc = sampler.FocalVector(ds.graph,
                                  {ds.train[0].user, ds.train[0].query});
    std::vector<NodeId> egos;
    for (const auto& ex : ds.train) {
      egos.push_back(ex.user);
      if (egos.size() >= 64) break;
    }
    const int broounds = cfg.smoke ? 20 : 200;
    WallTimer tl;
    for (int r = 0; r < broounds; ++r) {
      for (NodeId ego : egos) {
        g_sink += sampler.Sample(ds.graph, ego, fc, &rng).size();
      }
    }
    const double loop_us = tl.ElapsedMicros() / (broounds * egos.size());
    WallTimer tb;
    for (int r = 0; r < broounds; ++r) {
      auto rois =
          sampler.SampleBatch(ds.graph, {egos.data(), egos.size()}, fc, &rng);
      g_sink += rois[0].size();
    }
    const double batch_us = tb.ElapsedMicros() / (broounds * egos.size());
    std::printf("  %-34s %10.2f -> %8.2f per ego  %6.2fx\n",
                "SampleBatch, 64 egos (focal-topk)", loop_us, batch_us,
                loop_us / batch_us);
    sink.Record("roi_batch_us_per_ego", batch_us);
    sink.Record("roi_batch_speedup", loop_us / batch_us);
  }

  // ---- 5. Ported legacy kernels ---------------------------------------------
  {
    // MinHash signature.
    graph::MinHasher hasher(32);
    Rng rng(6);
    std::vector<uint64_t> set(64);
    for (auto& t : set) t = rng.NextUint64();
    const int iters = cfg.smoke ? 2000 : 20000;
    WallTimer tm;
    for (int i = 0; i < iters; ++i) g_sink += hasher.Signature(set)[0];
    const double minhash_us = tm.ElapsedMicros() / iters;
    sink.Record("minhash_signature_us_64", minhash_us);

    // Relevance scorers.
    std::vector<float> a(64), b(64);
    for (auto& x : a) x = rng.UniformFloat();
    for (auto& x : b) x = rng.UniformFloat();
    std::printf("\n[kernels] minhash sig(64 tokens) %.2f us\n", minhash_us);
    for (int kind = 0; kind < 3; ++kind) {
      auto scorer =
          core::MakeRelevanceScorer(static_cast<core::RelevanceKind>(kind));
      const int n = cfg.smoke ? (1 << 18) : (1 << 21);
      WallTimer t;
      float acc = 0.0f;
      for (int i = 0; i < n; ++i) acc += scorer->Score(a.data(), b.data(), 64);
      g_sink += static_cast<int64_t>(acc);
      const double ns = t.ElapsedMicros() * 1000.0 / n;
      std::printf("[kernels] relevance %-10s dim64: %.2f ns\n",
                  scorer->name().c_str(), ns);
      sink.Record("relevance_" + scorer->name() + "_ns", ns);
    }

    // Attention forward/backward through the model.
    core::ZoomerConfig mcfg;
    mcfg.hidden_dim = 16;
    mcfg.sampler.k = 10;
    core::ZoomerModel model(&ds.graph, mcfg);
    const int steps = cfg.smoke ? 20 : 200;
    WallTimer tz;
    for (int i = 0; i < steps; ++i) {
      auto loss = FocalBceWithLogits(
          model.ScoreLogit(ds.train[i % ds.train.size()], &rng),
          tensor::Tensor::Scalar(1.0f));
      loss.Backward();
    }
    const double fwdbwd_ms = tz.ElapsedMillis() / steps;
    std::printf("[kernels] zoomer forward+backward (k=10): %.2f ms\n",
                fwdbwd_ms);
    sink.Record("zoomer_fwdbwd_ms", fwdbwd_ms);

    // MatMul.
    auto ta = tensor::Tensor::Randn(128, 128, &rng, 1.0f);
    auto tb2 = tensor::Tensor::Randn(128, 128, &rng, 1.0f);
    const int mm = cfg.smoke ? 10 : 100;
    WallTimer tmm;
    for (int i = 0; i < mm; ++i) g_sink += MatMul(ta, tb2).size();
    const double matmul_ms = tmm.ElapsedMillis() / mm;
    std::printf("[kernels] matmul 128x128: %.2f ms\n", matmul_ms);
    sink.Record("matmul_128_ms", matmul_ms);

    // PS pull/push.
    ps::ParameterServerOptions popt;
    popt.num_shards = 4;
    popt.table.dim = 16;
    ps::ParameterServer server(popt);
    std::vector<float> buf;
    const int ops = cfg.smoke ? 500 : 5000;
    WallTimer tp;
    for (int i = 0; i < ops; ++i) {
      std::vector<ps::Key> keys;
      for (int j = 0; j < 32; ++j) {
        keys.push_back(static_cast<ps::Key>(rng.Uniform(10000)));
      }
      server.Pull(keys, &buf);
      server.PushAsync(keys, std::vector<float>(keys.size() * 16, 0.01f));
    }
    server.Flush();
    const double ps_us = tp.ElapsedMicros() / ops;
    std::printf("[kernels] ps pull+push (32 keys, dim 16): %.2f us\n", ps_us);
    sink.Record("ps_pullpush_us", ps_us);

    // 3-stage pipeline overlap.
    auto stage = [](int64_t) {
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    };
    ps::AsyncPipeline pipeline(stage, stage, stage);
    WallTimer tseq;
    pipeline.Run(20, /*overlap=*/false);
    const double seq_ms = tseq.ElapsedMillis();
    WallTimer tov;
    pipeline.Run(20, /*overlap=*/true);
    const double ov_ms = tov.ElapsedMillis();
    std::printf("[kernels] 3-stage pipeline 20 items: %.1f ms sequential, "
                "%.1f ms overlapped (%.2fx)\n",
                seq_ms, ov_ms, seq_ms / ov_ms);
    sink.Record("pipeline_overlap_speedup", seq_ms / ov_ms);
  }

  // ---- 6. Registry flatten --------------------------------------------------
  obs::MetricsExporter::Flatten(
      obs::MetricsRegistry::Global()->Snapshot(),
      [&sink](const std::string& key, double value) {
        sink.Record("obs." + key, value);
      });

  if (g_sink == 42) std::printf(" ");
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
