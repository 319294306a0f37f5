// The repository's benchmark program. One process runs one workload:
//
//   serve_static  open-loop retrieval over the static graph plus the
//                 handlers' saturated capacity (cache warmed,
//                 AnnIndex::Search dominant; every write-path and training
//                 module idle)
//   serve_ingest  the same request stream while live sessions flow through
//                 IngestPipeline -> DynamicHeteroGraph -> replica-group
//                 engine, with a WAL (group commit) and a janitor running
//                 incremental compaction and checkpoints; ~30% of requests
//                 carry a read-your-writes SessionToken
//   train_roi     single-threaded ZoomerTrainer::Train of "Zoomer" (2-hop
//                 ROI, k = 10) over fixed-size epochs, then scoring a
//                 seeded test subset
//
// Untraced runs (--trace 0) print the end-to-end metrics; traced runs
// (--trace 1) print per-layer metrics computed from bench-side spans around
// public calls, registry deltas and the modules' own Stats(). The last line
// of stdout is one JSON object {correct, attempted, failed, metrics}.
// Lines starting with "ENV " and "REF " carry the environment record and
// the run's deterministic values (see run.py). README.md documents the
// workloads, metrics and checks.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include <sys/mman.h>
#include <sys/prctl.h>

#include "baselines/registry.h"
#include "bench_util.h"
#include "common/random.h"
#include "core/trainer.h"
#include "core/zoomer_model.h"
#include "data/session_stream.h"
#include "data/taobao_generator.h"
#include "engine/distributed_graph_engine.h"
#include "eval/metrics.h"
#include "maintenance/checkpoint_policy.h"
#include "maintenance/compaction_policy.h"
#include "maintenance/maintenance_scheduler.h"
#include "obs/metrics.h"
#include "persist/checkpoint.h"
#include "persist/wal.h"
#include "serving/online_server.h"
#include "streaming/dynamic_hetero_graph.h"
#include "streaming/graph_delta_log.h"
#include "streaming/ingest_pipeline.h"
#include "tensor/optimizer.h"
#include "tensor/tensor.h"
#include "tracer.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using zoomer::Rng;
using zoomer::graph::NodeId;

// ------------------------------------------------------------ settings ---

// Serving: 4x the billion-scale stand-in of the per-figure benches.
constexpr int kServeScale = 4;
constexpr int kEmbeddingDim = 32;
constexpr int kTopN = 100;             // HitRate@100
constexpr int kHandlerThreads = 2;     // + 1 generator (+ 1 ingest feeder)
// Offered rates of the fixed-rate phase: a fifth to a third of each
// workload's raw capacity on the 4-vCPU machine the benchmark was sized on
// while the host is in its slow phase (serve_static 13k-15k/s,
// serve_ingest 6k-10k/s; README.md), so no queue builds in either phase.
constexpr double kStaticFixedQps = 3000;
constexpr double kIngestFixedQps = 2000;
constexpr double kRywShare = 0.3;        // requests carrying a SessionToken
// Live sessions offered per second on serve_ingest. README.md records the
// probes behind it: at 5,000/s the write path left the two handlers too
// little of the 4 vCPUs, and latency and capacity swung with the host.
constexpr double kIngestSessionsPerSec = 1000;
constexpr int kShards = 2;
constexpr int kReplication = 2;
constexpr int kServeSetups = 5;
constexpr int kCycles = 15;          // fixed-rate + capacity slices per run
constexpr int kWindowsPerSlice = 2;  // latency percentiles: window medians
constexpr int kRecallSample = 256;

// Training: the million-scale stand-in, paper-default ROI.
constexpr int kTrainExamples = 512;     // per epoch
constexpr int kEvalExamples = 3000;
constexpr int kCrossCheckExamples = 200;
constexpr int kTrainBatch = 128;
constexpr int kTrainSetups = 5;
// Host-speed reference for train_roi's timings: the calibration kernel's
// duration on the 4-vCPU virtual machine the benchmark was sized on, in
// its fast state (see README.md).
constexpr double kCalibrationRefUs = 400.0;
constexpr size_t kCalibrationBlock = 50;
// Host-speed reference for the serving timings: the retrieval-shaped
// kernel's mean duration when the handlers interleave it with their
// requests in the capacity slices, on the same machine in its fast state.
constexpr double kRetrievalRefUs = 60.0;
constexpr int kKernelEvery = 10;  // capacity: requests per kernel timing

// The graphs, the serving embeddings and the training trajectory (model
// initialization and example order) come from fixed seeds, so every run
// measures the same work: the cost of a training step depends on the
// trained weights' values, and a per-seed trajectory moved it by 30%.
// --seed drives the inputs around them: the request order, the live
// sessions and the scored test subset.
constexpr uint64_t kServeGraphSeed = 2022;
constexpr uint64_t kTrainGraphSeed = 2023;
constexpr uint64_t kTrainModelSeed = 7;

// ------------------------------------------------------------- helpers ---

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = p / 100.0 * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  if (std::isinf(v[hi])) return frac > 0 ? v[hi] : v[lo];
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double Median(std::vector<double> v) { return Percentile(std::move(v), 50); }

double Seconds(int64_t ns) { return static_cast<double>(ns) / 1e9; }

/// Asks the kernel to wake the calling thread within ~1 us of a timed sleep
/// (the default 50 us timer slack would smear a fixed-rate schedule).
void PreciseSleeps() { prctl(PR_SET_TIMERSLACK, 1000UL, 0, 0, 0); }

/// Sleeps until the steady-clock instant `due_ns`, then spins off the last
/// few microseconds.
void SleepUntil(int64_t due_ns) {
  for (;;) {
    const int64_t now = NowNs();
    if (now >= due_ns) return;
    if (due_ns - now > 20'000) {
      std::this_thread::sleep_for(
          std::chrono::nanoseconds(due_ns - now - 10'000));
    }
  }
}

/// A fixed compute kernel of the benchmark's own (small dense products and
/// tanh over a 16 KiB table that stays in cache), timed on the calling
/// thread; its duration tracks how fast the host runs that thread at the
/// moment.
double CalibrationUs() {
  constexpr uint32_t kWords = 1 << 12;
  thread_local std::vector<float> buf = [] {
    std::vector<float> b(kWords);
    for (uint32_t i = 0; i < kWords; ++i) b[i] = 1e-3f * (i % 97);
    return b;
  }();
  static std::atomic<float> sink{0};
  for (uint32_t i = 0; i < kWords; i += 16) sink.store(buf[i]);  // warm
  const int64_t t0 = NowNs();
  float acc = 0;
  uint32_t idx = 1;
  for (int r = 0; r < 1500; ++r) {
    for (int i = 0; i < 16; ++i) {
      float dot = 0;
      for (int j = 0; j < 16; ++j) {
        dot += buf[i * 16 + j] * buf[(idx + 4099 * j) & (kWords - 1)];
      }
      acc += std::tanh(dot);
      idx = idx * 1664525u + 1013904223u;
    }
  }
  sink.store(acc, std::memory_order_relaxed);
  return static_cast<double>(NowNs() - t0) / 1e3;
}

/// A fixed retrieval-shaped kernel of the benchmark's own: the scan and
/// top-k selection an inverted-list search does (scalar 32-dim dot products
/// over 8 lists of 200 rows of a 12,800-row table, then a
/// partial sort to the top 100), over a table and queries of its own.
/// Timed on the calling thread. Interleaved with Handle calls on the same
/// thread it slows down with the host as Handle does (a 60 s probe on the
/// sizing machine, table on 4 KiB pages: Handle 64-158 us while this kernel
/// took 113-374 us; their ratio over 3 s blocks stayed within 9% of its
/// median).
double RetrievalKernelUs() {
  constexpr int kD = 32, kRows = 12800, kLists = 64, kProbe = 8, kTop = 100;
  // The 1.6 MB table sits in one 2 MB transparent huge page where the
  // kernel grants one, so its cache placement is the same in every
  // process: on 4 KiB pages the kernel's mean time over a serve_ingest run
  // spread by 14% between quartiles of ten runs, unrelated to Handle's
  // speed; on the huge page by 3% to 6% over ten.
  static const float* table = [] {
    constexpr size_t kPage = size_t{2} << 20;
    static_assert(size_t{kRows} * kD * sizeof(float) <= kPage);
    auto* t = static_cast<float*>(std::aligned_alloc(kPage, kPage));
    madvise(t, kPage, MADV_HUGEPAGE);
    Rng r(99);
    for (int i = 0; i < kRows * kD; ++i) t[i] = static_cast<float>(r.Normal());
    return t;
  }();
  static const std::vector<uint32_t> rows = [] {
    std::vector<uint32_t> v(kRows);
    for (int i = 0; i < kRows; ++i) v[i] = static_cast<uint32_t>(i);
    Rng r(98);
    r.Shuffle(&v);
    return v;
  }();
  struct Hit {
    uint32_t row;
    float score;
  };
  thread_local Rng rng(97);
  thread_local std::vector<Hit> hits;
  static std::atomic<float> sink{0};
  float q[kD];
  for (float& x : q) x = static_cast<float>(rng.Normal());
  const int64_t t0 = NowNs();
  hits.clear();
  for (int p = 0; p < kProbe; ++p) {
    const uint64_t list = rng.Uniform(kLists);
    for (uint64_t k = list * (kRows / kLists); k < (list + 1) * (kRows / kLists);
         ++k) {
      const float* v = table + static_cast<size_t>(rows[k]) * kD;
      float dot = 0.0f;
      for (int d = 0; d < kD; ++d) dot += q[d] * v[d];
      hits.push_back({rows[k], dot});
    }
  }
  std::partial_sort(hits.begin(), hits.begin() + kTop, hits.end(),
                    [](const Hit& a, const Hit& b) { return a.score > b.score; });
  sink.store(hits[0].score, std::memory_order_relaxed);
  return static_cast<double>(NowNs() - t0) / 1e3;
}

void Log(const char* fmt, ...) __attribute__((format(printf, 1, 2)));
void Log(const char* fmt, ...) {
  va_list ap;
  va_start(ap, fmt);
  std::fputs("# ", stdout);
  std::vfprintf(stdout, fmt, ap);
  std::fputc('\n', stdout);
  std::fflush(stdout);
  va_end(ap);
}

/// Run outcome: metrics in emission order plus the counted checks.
class Report {
 public:
  void Metric(const std::string& name, double value, const char* unit) {
    metrics_.push_back({name, value, unit});
  }
  /// A correctness check: counted as attempted; a failure marks the run
  /// failed without aborting it.
  void Check(bool ok, const std::string& what) {
    ++attempted_;
    if (!ok) {
      ++failed_;
      correct_ = false;
      Log("CHECK FAILED: %s", what.c_str());
    }
  }
  /// Operations (requests, sessions, examples) and how many failed.
  void Operations(int64_t attempted, int64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
    if (failed > 0) Log("%lld of %lld operations failed",
                        static_cast<long long>(failed),
                        static_cast<long long>(attempted));
  }
  void Ref(const std::string& key, double value) {
    refs_.emplace_back(key, value);
  }

  void Print() const {
    if (!refs_.empty()) {
      std::string line = "REF {";
      for (size_t i = 0; i < refs_.size(); ++i) {
        char buf[128];
        std::snprintf(buf, sizeof(buf), "%s\"%s\": %.17g", i ? ", " : "",
                      refs_[i].first.c_str(), refs_[i].second);
        line += buf;
      }
      std::printf("%s}\n", line.c_str());
    }
    std::string out = "{\"correct\": ";
    out += correct_ ? "true" : "false";
    char buf[256];
    std::snprintf(buf, sizeof(buf), ", \"attempted\": %lld, \"failed\": %lld",
                  static_cast<long long>(std::max<int64_t>(attempted_, 1)),
                  static_cast<long long>(failed_));
    out += buf;
    out += ", \"metrics\": {";
    for (size_t i = 0; i < metrics_.size(); ++i) {
      const double v = std::isfinite(metrics_[i].value) ? metrics_[i].value
                                                        : 1e300;
      std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, "
                    "\"unit\": \"%s\"}", i ? ", " : "",
                    metrics_[i].name.c_str(), v, metrics_[i].unit);
      out += buf;
    }
    out += "}}";
    std::printf("%s\n", out.c_str());
    std::fflush(stdout);
  }

 private:
  struct Entry {
    std::string name;
    double value;
    const char* unit;
  };
  std::vector<Entry> metrics_;
  std::vector<std::pair<std::string, double>> refs_;
  bool correct_ = true;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
};

/// Every per-layer metric with its unit, in output order. Traced runs
/// report each one; a module the workload leaves idle reports 0.
const std::vector<std::pair<const char*, const char*>>& LayerMetricUnits() {
  static const std::vector<std::pair<const char*, const char*>> units = {
      {"serving.latency_p90_ms", "ms"},
      {"serving.latency_p99_ms", "ms"},
      {"loadgen.late_p99_ms", "ms"},
      {"loadgen.sent", "count"},
      {"loadgen.failed", "count"},
      {"serving.queue_wait_us", "us"},
      {"serving.handle_us", "us"},
      {"serving.ann.search_us", "us"},
      {"serving.ann.recall", "ratio"},
      {"serving.embed_self_us", "us"},
      {"serving.cache.hit_ratio", "ratio"},
      {"serving.cache.fills", "count"},
      {"engine.calls", "count"},
      {"engine.sample_many_us", "us"},
      {"engine.stale_fallback_ratio", "ratio"},
      {"engine.replica_lag_max_epochs", "epochs"},
      {"streaming.offers", "count"},
      {"streaming.offer_us", "us"},
      {"streaming.batch_events", "events"},
      {"streaming.events_applied", "count"},
      {"streaming.events_dropped", "count"},
      {"streaming.overlay_bytes_peak", "bytes"},
      {"streaming.visible_p50_ms", "ms"},
      {"streaming.visible_p99_ms", "ms"},
      {"maintenance.passes", "count"},
      {"maintenance.compaction.pass_ms", "ms"},
      {"maintenance.compaction.acted_ratio", "ratio"},
      {"maintenance.checkpoint.pass_ms", "ms"},
      {"maintenance.checkpoint.acted_ratio", "ratio"},
      {"persist.wal_appends", "count"},
      {"persist.wal_fsync_us_p99", "us"},
      {"persist.checkpoint_bytes", "bytes"},
      {"core.calls", "count"},
      {"core.roi_sample_us", "us"},
      {"core.roi_nodes", "nodes"},
      {"core.forward_self_us", "us"},
      {"tensor.calls", "count"},
      {"tensor.backward_us", "us"},
      {"tensor.adam_step_us", "us"},
      {"setup.generate_s", "s"},
      {"setup.ann_build_s", "s"},
      {"setup.cache_warm_s", "s"},
      {"trace.overhead_pct", "pct"},
      {"trace.spans", "count"},
  };
  return units;
}

void EmitLayerMetrics(const std::map<std::string, double>& values,
                      Report* rep) {
  size_t known = 0;
  for (const auto& [name, unit] : LayerMetricUnits()) {
    auto it = values.find(name);
    known += it != values.end();
    rep->Metric(name, it == values.end() ? 0.0 : it->second, unit);
  }
  rep->Check(known == values.size(), "every measured layer metric is listed");
}

void PrintEnvironment(const std::string& workload, uint64_t seed,
                      double seconds, bool trace) {
#ifdef __AVX2__
  const bool avx2 = true;
#else
  const bool avx2 = false;
#endif
  std::printf(
      "ENV {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %.3f, "
      "\"trace\": %d, \"hardware_concurrency\": %u, \"avx2\": %s, "
      "\"compiler\": \"%s %s\", \"build_type\": \"%s\", "
      "\"zoomer_native_arch\": %s}\n",
      workload.c_str(), static_cast<unsigned long long>(seed), seconds,
      trace ? 1 : 0, std::thread::hardware_concurrency(),
      avx2 ? "true" : "false",
#if defined(__clang__)
      "clang",
#elif defined(__GNUC__)
      "gcc",
#else
      "unknown",
#endif
      __VERSION__, PERFBENCH_BUILD_TYPE,
      PERFBENCH_NATIVE_ARCH ? "true" : "false");
  std::fflush(stdout);
}

/// Registry histogram/counter deltas between two snapshots.
struct HistDelta {
  int64_t count = 0;
  int64_t sum = 0;
  double MeanOr0() const {
    return count > 0 ? static_cast<double>(sum) / count : 0.0;
  }
};

HistDelta HistogramDelta(const zoomer::obs::RegistrySnapshot& before,
                         const zoomer::obs::RegistrySnapshot& after,
                         const std::string& name) {
  HistDelta d;
  const auto* a = after.Find(name);
  if (a == nullptr) return d;
  d.count = a->hist.count();
  d.sum = a->hist.sum();
  if (const auto* b = before.Find(name)) {
    d.count -= b->hist.count();
    d.sum -= b->hist.sum();
  }
  return d;
}

double CounterValue(const zoomer::obs::RegistrySnapshot& snap,
                    const std::string& name) {
  const auto* p = snap.Find(name);
  return p == nullptr ? 0.0 : p->value;
}

/// Bucketed p99 of the histogram recorded between two snapshots.
int64_t HistogramP99Delta(const zoomer::obs::RegistrySnapshot& before,
                          const zoomer::obs::RegistrySnapshot& after,
                          const std::string& name) {
  const auto* a = after.Find(name);
  if (a == nullptr || a->hist.count() == 0) return 0;
  const auto* b = before.Find(name);
  const auto& ac = a->hist.bucket_counts();
  std::vector<int64_t> diff(ac.begin(), ac.end());
  int64_t total = 0;
  for (size_t i = 0; i < diff.size(); ++i) {
    if (b != nullptr && i < b->hist.bucket_counts().size()) {
      diff[i] -= b->hist.bucket_counts()[i];
    }
    total += diff[i];
  }
  if (total <= 0) return 0;
  const int64_t target = static_cast<int64_t>(std::ceil(0.99 * total));
  int64_t seen = 0;
  for (size_t i = 0; i < diff.size(); ++i) {
    seen += diff[i];
    if (seen >= target) {
      return zoomer::obs::Histogram::BucketMidpoint(static_cast<int>(i));
    }
  }
  return 0;
}

/// Counters and histograms named under one of `prefixes` that moved
/// between two snapshots of the same registry.
std::vector<std::string> MovedMetrics(
    const zoomer::obs::RegistrySnapshot& before,
    const zoomer::obs::RegistrySnapshot& after,
    const std::vector<std::string>& prefixes) {
  std::vector<std::string> moved;
  for (const auto& p : after.points) {
    if (p.kind == zoomer::obs::MetricKind::kGauge) continue;
    if (std::none_of(prefixes.begin(), prefixes.end(),
                     [&](const std::string& x) {
                       return p.name.compare(0, x.size(), x) == 0;
                     })) {
      continue;
    }
    const auto* b = before.Find(p.name);
    const bool changed =
        p.kind == zoomer::obs::MetricKind::kHistogram
            ? p.hist.count() != (b != nullptr ? b->hist.count() : 0)
            : p.value != (b != nullptr ? b->value : 0.0);
    if (changed) moved.push_back(p.name);
  }
  return moved;
}

/// A bypass prediction: the modules under `prefixes` record nothing in
/// either registry over the measured phase.
void CheckIdle(const std::string& what,
               const std::vector<std::string>& prefixes,
               const zoomer::obs::RegistrySnapshot& own0,
               const zoomer::obs::RegistrySnapshot& own1,
               const zoomer::obs::RegistrySnapshot& global0,
               const zoomer::obs::RegistrySnapshot& global1, Report* rep) {
  std::string moved;
  for (const auto& name : MovedMetrics(own0, own1, prefixes)) {
    moved += " " + name;
  }
  for (const auto& name : MovedMetrics(global0, global1, prefixes)) {
    moved += " " + name + " (global)";
  }
  rep->Check(moved.empty(), what + " records nothing; moved:" + moved);
}

// ------------------------------------------------------- serving setup ---

/// The billion-scale stand-in of the per-figure benches with kServeScale
/// times the users, queries, items and sessions.
zoomer::data::TaobaoGeneratorOptions ServeDatasetOptions() {
  auto opt = zoomer::bench::ScaleOptions(zoomer::bench::GraphScale::kBillion,
                                         kServeGraphSeed);
  opt.num_users *= kServeScale;
  opt.num_queries *= kServeScale;
  opt.num_items *= kServeScale;
  opt.num_sessions *= kServeScale;
  return opt;
}

/// Times every RunOnce of the policy it wraps (a bench-side decorator: the
/// scheduler sees an ordinary policy).
struct PassStats {
  struct Totals {
    int64_t passes = 0;
    int64_t acted = 0;
    int64_t errors = 0;
    double total_ms = 0.0;
  };
  Totals Read() {
    std::lock_guard<std::mutex> lock(mu);
    return totals;
  }
  std::mutex mu;
  Totals totals;  // guarded by mu
};

class TimedPolicy final : public zoomer::maintenance::MaintenancePolicy {
 public:
  TimedPolicy(std::unique_ptr<zoomer::maintenance::MaintenancePolicy> inner,
              const char* span_name, PassStats* stats)
      : inner_(std::move(inner)), span_name_(span_name), stats_(stats) {}
  const char* name() const override { return inner_->name(); }
  zoomer::StatusOr<zoomer::maintenance::MaintenanceReport> RunOnce()
      override {
    Span span(span_name_);
    const int64_t t0 = NowNs();
    auto report = inner_->RunOnce();
    const double ms = static_cast<double>(NowNs() - t0) / 1e6;
    std::lock_guard<std::mutex> lock(stats_->mu);
    ++stats_->totals.passes;
    stats_->totals.total_ms += ms;
    if (!report.ok()) {
      ++stats_->totals.errors;
    } else if (report.value().acted) {
      ++stats_->totals.acted;
    }
    return report;
  }

 private:
  std::unique_ptr<zoomer::maintenance::MaintenancePolicy> inner_;
  const char* span_name_;
  PassStats* stats_;
};

/// Offer -> update-listener latency of live sessions. A session is a probe
/// when no earlier probe of its user is pending; its user -> query event is
/// the only event carrying the user node, and it lands on the user's shard
/// in FIFO order, so the first listener call that touches the user after
/// the Offer is the batch that carries the probe.
class FreshnessProbe {
 public:
  void OnOffer(NodeId user, int64_t offer_ns) {
    std::lock_guard<std::mutex> lock(mu_);
    if (!active_) return;
    pending_.try_emplace(user, offer_ns);
  }
  void OnUpdate(const std::vector<NodeId>& touched) {
    const int64_t now = NowNs();
    std::lock_guard<std::mutex> lock(mu_);
    if (pending_.empty()) return;
    for (NodeId n : touched) {
      auto it = pending_.find(n);
      if (it == pending_.end()) continue;
      visible_ms_.push_back(static_cast<double>(now - it->second) / 1e6);
      pending_.erase(it);
    }
  }
  void Start() {
    std::lock_guard<std::mutex> lock(mu_);
    active_ = true;
    pending_.clear();
    visible_ms_.clear();
  }
  /// Stops probing; returns the latencies seen and how many probes were
  /// still pending.
  std::vector<double> Stop(int64_t* pending) {
    std::lock_guard<std::mutex> lock(mu_);
    active_ = false;
    *pending = static_cast<int64_t>(pending_.size());
    pending_.clear();
    return std::move(visible_ms_);
  }

 private:
  std::mutex mu_;
  bool active_ = false;
  std::unordered_map<NodeId, int64_t> pending_;
  std::vector<double> visible_ms_;
};

/// The primary's applied epoch over time, recorded by the update listener,
/// so a read-your-writes request carries the newest epoch applied at its
/// due time, whatever the queue delay before a handler takes it.
class EpochHistory {
 public:
  void OnUpdate(uint64_t epoch) {
    const int64_t now = NowNs();
    std::lock_guard<std::mutex> lock(mu_);
    if (!points_.empty() && points_.back().second >= epoch) return;
    points_.emplace_back(now, epoch);
  }
  /// Highest epoch applied at or before `t_ns` (0 = none yet).
  uint64_t EpochAt(int64_t t_ns) const {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = std::upper_bound(
        points_.begin(), points_.end(), t_ns,
        [](int64_t t, const std::pair<int64_t, uint64_t>& p) {
          return t < p.first;
        });
    return it == points_.begin() ? 0 : std::prev(it)->second;
  }

 private:
  mutable std::mutex mu_;
  std::vector<std::pair<int64_t, uint64_t>> points_;
};

struct SetupTimes {
  double generate_s = 0, ann_build_s = 0, cache_warm_s = 0, wiring_s = 0;
  double Total() const {
    return generate_s + ann_build_s + cache_warm_s + wiring_s;
  }
};

/// One serving deployment. Members are declared in dependency order, so
/// destruction (reverse order) stops the janitor and pipeline before the
/// engine, server, log and graphs they use.
struct ServeSystem {
  zoomer::data::RetrievalDataset ds;
  zoomer::obs::MetricsRegistry reg;
  std::vector<zoomer::serving::ServingRequest> pool;
  std::vector<NodeId> pool_item;
  std::vector<uint8_t> pool_positive;
  std::vector<float> node_emb;  // copy kept for the ANN recall sample

  // serve_ingest only.
  std::string wal_dir;
  std::unique_ptr<zoomer::streaming::DynamicHeteroGraph> primary;
  std::unique_ptr<zoomer::streaming::GraphDeltaLog> log;
  std::unique_ptr<zoomer::engine::DistributedGraphEngine> engine;
  std::unique_ptr<zoomer::serving::OnlineServer> server;
  std::unique_ptr<zoomer::persist::DeltaLogPersister> persister;
  std::unique_ptr<zoomer::persist::CheckpointWriter> writer;
  std::unique_ptr<zoomer::streaming::IngestPipeline> pipe;
  FreshnessProbe freshness;
  EpochHistory epochs;
  PassStats compaction_stats;
  PassStats checkpoint_stats;
  std::unique_ptr<zoomer::maintenance::MaintenanceScheduler> janitor;

  ~ServeSystem() {
    if (janitor) janitor->Stop();
    if (pipe) pipe->Stop();
    if (persister) persister->Stop();
    janitor.reset();
    pipe.reset();
    writer.reset();
    persister.reset();
    server.reset();
    engine.reset();
    log.reset();
    primary.reset();
    if (!wal_dir.empty()) {
      std::error_code ec;
      fs::remove_all(wal_dir, ec);
    }
  }
};

std::unique_ptr<ServeSystem> BuildServeSystem(uint64_t seed, bool ingest,
                                              const std::string& scratch,
                                              int setup_index,
                                              SetupTimes* times) {
  auto sys = std::make_unique<ServeSystem>();
  int64_t t0 = NowNs();
  sys->ds =
      zoomer::data::GenerateTaobaoDataset(ServeDatasetOptions());
  const auto& g = sys->ds.graph;
  times->generate_s = Seconds(NowNs() - t0);

  // Trained-model export stand-in: content vectors plus seeded noise.
  t0 = NowNs();
  const int d = kEmbeddingDim;
  Rng rng(kServeGraphSeed * 7919 + 55);
  sys->node_emb.assign(static_cast<size_t>(g.num_nodes()) * d, 0.0f);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    const float* c = g.content(v);
    for (int j = 0; j < d && j < g.content_dim(); ++j) {
      sys->node_emb[v * d + j] =
          c[j] + 0.1f * static_cast<float>(rng.Normal());
    }
  }
  std::vector<float> item_emb(sys->ds.all_items.size() * d);
  for (size_t i = 0; i < sys->ds.all_items.size(); ++i) {
    std::copy(sys->node_emb.begin() + sys->ds.all_items[i] * d,
              sys->node_emb.begin() + (sys->ds.all_items[i] + 1) * d,
              item_emb.begin() + static_cast<int64_t>(i) * d);
  }
  zoomer::serving::OnlineServerOptions sopt;
  sopt.embedding_dim = d;
  sopt.top_n = kTopN;
  sopt.cache.k = 30;
  sopt.ann.nlist = 64;
  sopt.ann.nprobe = 8;
  sopt.seed = seed + 23;
  sopt.registry = &sys->reg;
  sys->server = std::make_unique<zoomer::serving::OnlineServer>(
      &g, sopt, sys->node_emb, sys->ds.all_items, item_emb);
  times->ann_build_s = Seconds(NowNs() - t0);

  // Request pool: every (user, query) pair of the test split.
  for (const auto& ex : sys->ds.test) {
    sys->pool.push_back({ex.user, ex.query});
    sys->pool_item.push_back(ex.item);
    sys->pool_positive.push_back(ex.label > 0.5f ? 1 : 0);
  }

  t0 = NowNs();
  std::vector<NodeId> warm;
  for (const auto& r : sys->pool) {
    warm.push_back(r.user);
    warm.push_back(r.query);
  }
  sys->server->WarmCache(warm);
  times->cache_warm_s = Seconds(NowNs() - t0);

  if (ingest) {
    t0 = NowNs();
    sys->wal_dir =
        (fs::path(scratch) / ("wal-" + std::to_string(setup_index))).string();
    std::error_code ec;
    fs::remove_all(sys->wal_dir, ec);
    fs::create_directories(sys->wal_dir);

    zoomer::streaming::DynamicHeteroGraphOptions gopts;
    gopts.registry = &sys->reg;
    sys->primary =
        std::make_unique<zoomer::streaming::DynamicHeteroGraph>(&g, gopts);
    sys->log = std::make_unique<zoomer::streaming::GraphDeltaLog>(kShards);
    zoomer::engine::EngineOptions eopt;
    eopt.num_shards = kShards;
    eopt.replication_factor = kReplication;
    eopt.registry = &sys->reg;
    sys->engine =
        std::make_unique<zoomer::engine::DistributedGraphEngine>(&g, eopt);
    sys->engine->ConnectUpdateFanout(sys->log.get(), sys->primary.get());

    zoomer::persist::DeltaLogPersisterOptions popt;
    popt.fsync_every_batches = 8;  // group commit
    popt.registry = &sys->reg;
    sys->persister = std::make_unique<zoomer::persist::DeltaLogPersister>(
        sys->log.get(), sys->wal_dir, popt);
    const zoomer::Status st = sys->persister->Start(0);
    if (!st.ok()) {
      std::fprintf(stderr, "WAL start failed: %s\n", st.ToString().c_str());
      std::exit(3);
    }
    zoomer::persist::CheckpointWriterOptions copt;
    copt.registry = &sys->reg;
    copt.wal_shards = kShards;
    sys->writer = std::make_unique<zoomer::persist::CheckpointWriter>(
        sys->primary.get(), sys->wal_dir, copt);

    zoomer::streaming::IngestOptions iopt;
    iopt.num_shards = kShards;
    iopt.batch_size = 64;
    iopt.registry = &sys->reg;
    sys->pipe = std::make_unique<zoomer::streaming::IngestPipeline>(
        sys->log.get(), sys->primary.get(), iopt, sys->engine.get());

    auto* server = sys->server.get();
    auto* probe = &sys->freshness;
    auto* history = &sys->epochs;
    sys->pipe->AddUpdateListener([server, probe, history](
                                     uint64_t epoch,
                                     const std::vector<NodeId>& nodes) {
      server->OnGraphUpdate(epoch, nodes);
      history->OnUpdate(epoch);
      probe->OnUpdate(nodes);
    });
    server->AttachDynamicGraph(sys->primary.get());
    server->AttachEngine(sys->engine.get());

    zoomer::maintenance::MaintenanceSchedulerOptions mopt;
    mopt.registry = &sys->reg;
    mopt.seed = seed + 97;
    sys->janitor =
        std::make_unique<zoomer::maintenance::MaintenanceScheduler>(mopt);
    zoomer::maintenance::CompactionPolicyOptions cpo;
    cpo.max_delta_entries = 200000;  // full-fold safety net
    cpo.segment_entry_budget = 4000;  // incremental folds
    zoomer::maintenance::PolicySchedule compaction_every;
    compaction_every.period_ms = 100;
    sys->janitor->AddPolicy(
        std::make_unique<TimedPolicy>(
            std::make_unique<zoomer::maintenance::CompactionPolicy>(
                sys->primary.get(), sys->log.get(), nullptr, cpo),
            "maintenance.compaction", &sys->compaction_stats),
        compaction_every);
    zoomer::maintenance::PolicySchedule checkpoint_every;
    checkpoint_every.period_ms = 2000;
    sys->janitor->AddPolicy(
        std::make_unique<TimedPolicy>(
            std::make_unique<zoomer::maintenance::CheckpointPolicy>(
                sys->primary.get(), sys->writer.get(), sys->persister.get()),
            "maintenance.checkpoint", &sys->checkpoint_stats),
        checkpoint_every);
    server->AttachMaintenance(sys->janitor.get());
    sys->pipe->Start();
    sys->janitor->Start();
    times->wiring_s = Seconds(NowNs() - t0);
  }
  return sys;
}

// ------------------------------------------------------- load generator ---

/// Request `i` of a run: a seeded permutation of the pool, cycled, so every
/// pooled request is sent equally often. Returns the pool index.
class RequestOrder {
 public:
  RequestOrder(size_t pool, uint64_t seed) : perm_(pool) {
    for (size_t i = 0; i < pool; ++i) perm_[i] = static_cast<uint32_t>(i);
    Rng rng(seed);
    rng.Shuffle(&perm_);
  }
  size_t operator[](int64_t i) const {
    return perm_[static_cast<size_t>(i) % perm_.size()];
  }

 private:
  std::vector<uint32_t> perm_;
};

/// Serves request `i` and reports whether the pooled item was retrieved.
/// A fixed share of requests comes from sessions whose write was
/// acknowledged just before the request was due: each carries the newest
/// epoch the primary had applied at its due time, so its reads route
/// through the replica-group engine under that freshness floor (the token
/// is a no-op on the static graph, which has no writes).
struct Served {
  bool ok = false;
  bool hit = false;
};
Served ServeOne(ServeSystem* sys, size_t pool_index, int64_t i,
                int64_t due_ns) {
  zoomer::serving::SessionToken token;
  if (static_cast<double>(i % 10) < kRywShare * 10) {
    token.Observe(sys->epochs.EpochAt(due_ns));
  }
  zoomer::serving::ServingResponse resp;
  {
    Span span("serving.handle", i);
    resp = sys->server->Handle(sys->pool[pool_index], token);
  }
  Served out;
  out.ok = !resp.items.empty();
  const NodeId item = sys->pool_item[pool_index];
  for (const auto& r : resp.items) {
    if (r.id == item) {
      out.hit = true;
      break;
    }
  }
  return out;
}

struct LoadResult {
  int64_t sent = 0;
  int64_t failed = 0;       // empty responses or never served (overload)
  bool overloaded = false;  // backlog grew past the abort threshold
  std::vector<double> latency_ms;  // per request, due -> done; failed = inf
  std::vector<double> late_ms;     // generator: due -> enqueued
  std::vector<double> window_p50_ms;
  std::vector<double> window_p90_ms;
  std::vector<double> window_p99_ms;
  int64_t completed = 0;
  double queue_wait_us_sum = 0;  // due -> handler start
  double handle_us_sum = 0;      // Handle() service time
  int64_t positives = 0;
  int64_t hits = 0;
  int64_t expected_hits = 0;  // from the single-threaded pre-pass

  double HandleUsMean() const {
    return completed > 0 ? handle_us_sum / completed : 0.0;
  }
  /// Appends another slice of the same schedule.
  void Merge(const LoadResult& o) {
    sent += o.sent;
    failed += o.failed;
    overloaded = overloaded || o.overloaded;
    latency_ms.insert(latency_ms.end(), o.latency_ms.begin(),
                      o.latency_ms.end());
    late_ms.insert(late_ms.end(), o.late_ms.begin(), o.late_ms.end());
    for (auto [dst, src] : {std::pair{&window_p50_ms, &o.window_p50_ms},
                            std::pair{&window_p90_ms, &o.window_p90_ms},
                            std::pair{&window_p99_ms, &o.window_p99_ms}}) {
      dst->insert(dst->end(), src->begin(), src->end());
    }
    completed += o.completed;
    queue_wait_us_sum += o.queue_wait_us_sum;
    handle_us_sum += o.handle_us_sum;
    positives += o.positives;
    hits += o.hits;
    expected_hits += o.expected_hits;
  }
};

/// Open loop at a fixed rate: one generator thread releases request i at
/// due_i = t0 + i / rate; kHandlerThreads handlers serve them in order.
/// Latency is measured from due_i, so a stall also charges the requests
/// queued behind it. Percentiles are also taken per window of `windows`
/// equal slices of the schedule, so one stall of the shared host moves
/// one window, not the run's median.
LoadResult RunOpenLoop(ServeSystem* sys, double qps, double seconds,
                       uint64_t seed, int windows,
                       const std::vector<uint8_t>* prepass) {
  LoadResult res;
  const int64_t n = std::max<int64_t>(1, static_cast<int64_t>(qps * seconds));
  const double gap_ns = 1e9 / qps;
  const RequestOrder order(sys->pool.size(), seed);
  std::vector<int64_t> start_ns(n, -1), end_ns(n, -1);
  std::vector<uint8_t> ok(n, 0), hit(n, 0);
  res.late_ms.assign(n, 0.0);

  // Request i is released when `released` passes i; a handler claims it
  // by advancing `claimed`. Generator and handlers poll (yielding to any
  // other runnable thread) instead of blocking, so no request waits for a
  // halted virtual CPU to be woken.
  std::atomic<int64_t> released{0}, claimed{0};
  std::atomic<bool> closed{false};
  std::atomic<bool> abort{false};
  const int64_t t0 = NowNs() + 5'000'000;
  auto due = [&](int64_t i) {
    return t0 + static_cast<int64_t>(static_cast<double>(i) * gap_ns);
  };

  std::thread generator([&] {
    int64_t i = 0;
    for (; i < n && !abort.load(std::memory_order_relaxed); ++i) {
      const int64_t d = due(i);
      while (NowNs() < d) std::this_thread::yield();
      res.late_ms[i] = static_cast<double>(NowNs() - d) / 1e6;
      released.store(i + 1, std::memory_order_release);
    }
    res.sent = i;
    closed.store(true, std::memory_order_release);
  });
  std::vector<std::thread> handlers;
  for (int h = 0; h < kHandlerThreads; ++h) {
    handlers.emplace_back([&] {
      for (;;) {
        const bool done = closed.load(std::memory_order_acquire);
        int64_t i = claimed.load(std::memory_order_relaxed);
        if (i >= released.load(std::memory_order_acquire)) {
          if (done) return;
          std::this_thread::yield();
          continue;
        }
        if (!claimed.compare_exchange_weak(i, i + 1)) continue;
        const int64_t d = due(i);
        const int64_t start = NowNs();
        // A backlog of a second means the rate is not sustainable: stop
        // offering; what was never sent counts as failed.
        if (start - d > 1'000'000'000) abort.store(true);
        RecordInterval("loadgen.queue_wait", d, start, i);
        const Served r = ServeOne(sys, order[i], i, d);
        start_ns[i] = start;
        end_ns[i] = NowNs();
        ok[i] = r.ok;
        hit[i] = r.hit;
      }
    });
  }
  generator.join();
  for (auto& t : handlers) t.join();

  res.latency_ms.reserve(n);
  for (int64_t i = 0; i < n; ++i) {
    if (end_ns[i] < 0 || !ok[i]) {
      ++res.failed;
      res.latency_ms.push_back(std::numeric_limits<double>::infinity());
      continue;
    }
    ++res.completed;
    res.latency_ms.push_back(static_cast<double>(end_ns[i] - due(i)) / 1e6);
    res.queue_wait_us_sum += static_cast<double>(start_ns[i] - due(i)) / 1e3;
    res.handle_us_sum += static_cast<double>(end_ns[i] - start_ns[i]) / 1e3;
    const size_t p = order[i];
    if (sys->pool_positive[p]) {
      ++res.positives;
      res.hits += hit[i];
      if (prepass != nullptr) res.expected_hits += (*prepass)[p];
    }
  }
  res.late_ms.resize(res.sent);
  res.overloaded = abort.load();
  const int64_t per_window = std::max<int64_t>(1, n / windows);
  for (int64_t w = 0; w + per_window <= n; w += per_window) {
    std::vector<double> slice(res.latency_ms.begin() + w,
                              res.latency_ms.begin() + w + per_window);
    res.window_p50_ms.push_back(Percentile(slice, 50));
    res.window_p90_ms.push_back(Percentile(slice, 90));
    res.window_p99_ms.push_back(Percentile(std::move(slice), 99));
  }
  return res;
}

/// Serving capacity: the handler threads serve back to back (closed loop)
/// for `seconds`. Past this rate an open-loop backlog grows without bound.
/// Each handler also times the retrieval-shaped kernel before every
/// kKernelEvery-th request, on its own thread, so the kernel sees the same
/// virtual CPU at the same moments as the requests it is set against.
struct Capacity {
  double raw = 0;     // completions per second of handler time
  double scaled = 0;  // the same at the reference host speed
  double kernel_us = 0;  // mean kernel time over all handlers
  int64_t failed = 0;
  int64_t positives = 0;
  int64_t hits = 0;
  int64_t expected_hits = 0;  // from the single-threaded pre-pass
};
Capacity RunSaturated(ServeSystem* sys, double seconds, uint64_t seed,
                      const std::vector<uint8_t>* prepass) {
  struct Handler {
    int64_t served = 0, failed = 0, handle_ns = 0, kernels = 0;
    int64_t positives = 0, hits = 0, expected_hits = 0;
    double kernel_us = 0;
  };
  const RequestOrder order(sys->pool.size(), seed);
  const int64_t end = NowNs() + static_cast<int64_t>(seconds * 1e9);
  std::atomic<int64_t> next{0};
  std::vector<Handler> per(kHandlerThreads);
  std::vector<std::thread> handlers;
  for (int h = 0; h < kHandlerThreads; ++h) {
    handlers.emplace_back([&, h] {
      Handler& me = per[h];
      while (NowNs() < end) {
        if (me.served % kKernelEvery == 0) {
          me.kernel_us += RetrievalKernelUs();
          ++me.kernels;
        }
        const int64_t i = next.fetch_add(1);
        const int64_t t0 = NowNs();
        const Served r = ServeOne(sys, order[i], i, t0);
        me.handle_ns += NowNs() - t0;
        ++me.served;
        if (!r.ok) ++me.failed;
        if (sys->pool_positive[order[i]]) {
          ++me.positives;
          me.hits += r.hit;
          if (prepass != nullptr) me.expected_hits += (*prepass)[order[i]];
        }
      }
    });
  }
  for (auto& t : handlers) t.join();
  Capacity c;
  double kernel_us = 0;
  int64_t kernels = 0;
  for (const Handler& me : per) {
    kernel_us += me.kernel_us;
    kernels += me.kernels;
    if (me.handle_ns == 0) continue;
    const double rate = me.served / Seconds(me.handle_ns);
    c.raw += rate;
    c.scaled += rate * (me.kernel_us / me.kernels) / kRetrievalRefUs;
    c.failed += me.failed;
    c.positives += me.positives;
    c.hits += me.hits;
    c.expected_hits += me.expected_hits;
  }
  c.kernel_us = kernels > 0 ? kernel_us / kernels : kRetrievalRefUs;
  return c;
}

/// Hit bit of every pooled request, served one at a time.
std::vector<uint8_t> HitPrepass(ServeSystem* sys) {
  std::vector<uint8_t> bits(sys->pool.size(), 0);
  for (size_t i = 0; i < sys->pool.size(); ++i) {
    if (!sys->pool_positive[i]) continue;
    const auto resp = sys->server->Handle(sys->pool[i]);
    for (const auto& r : resp.items) {
      if (r.id == sys->pool_item[i]) {
        bits[i] = 1;
        break;
      }
    }
  }
  return bits;
}

/// ANN recall@top_n of Search against SearchExact on a fixed sample of
/// request focal vectors (user + query embeddings).
double AnnRecall(ServeSystem* sys) {
  const auto& index = sys->server->index();
  const int d = kEmbeddingDim;
  int64_t found = 0, total = 0;
  const size_t n = std::min<size_t>(kRecallSample, sys->pool.size());
  std::vector<float> q(d);
  for (size_t i = 0; i < n; ++i) {
    const auto& r = sys->pool[i];
    for (int j = 0; j < d; ++j) {
      q[j] = sys->node_emb[r.user * d + j] + sys->node_emb[r.query * d + j];
    }
    const auto approx = index.Search(q.data(), kTopN);
    const auto exact = index.SearchExact(q.data(), kTopN);
    std::vector<int64_t> ids;
    for (const auto& a : approx) ids.push_back(a.id);
    std::sort(ids.begin(), ids.end());
    for (const auto& e : exact) {
      found += std::binary_search(ids.begin(), ids.end(), e.id) ? 1 : 0;
    }
    total += static_cast<int64_t>(exact.size());
  }
  return total > 0 ? static_cast<double>(found) / total : 0.0;
}

/// Offers live sessions at a fixed rate from one thread while running.
/// Also samples overlay bytes and replica lag every 50 ms.
class IngestFeeder {
 public:
  IngestFeeder(ServeSystem* sys, uint64_t seed, double seconds_hint)
      : sys_(sys) {
    zoomer::data::LiveSessionOptions lopt;
    lopt.num_sessions = static_cast<int>(
        std::min(200000.0, kIngestSessionsPerSec * (seconds_hint + 4)));
    lopt.seed = seed * 13 + 5;
    lopt.start_timestamp = 86400 + 10;
    sessions_ = zoomer::data::SynthesizeLiveSessions(sys->ds, lopt);
    for (const auto& s : sessions_) {
      events_per_session_.push_back(
          static_cast<int64_t>(zoomer::streaming::SessionToEvents(s).size()));
    }
  }
  ~IngestFeeder() { Stop(); }

  void Start() {
    running_.store(true);
    thread_ = std::thread([this] { Loop(); });
  }
  void Stop() {
    if (!running_.exchange(false)) return;
    thread_.join();
  }

  int64_t offered() const { return offered_.load(); }
  int64_t events_offered() const { return events_.load(); }
  int64_t failed_offers() const { return failed_.load(); }
  double offer_us_total() const { return offer_ns_.load() / 1e3; }
  size_t overlay_bytes_peak() const { return overlay_peak_.load(); }
  uint64_t lag_max() const { return lag_max_.load(); }

 private:
  void Loop() {
    const double gap_ns = 1e9 / kIngestSessionsPerSec;
    PreciseSleeps();
    const int64_t t0 = NowNs();
    int64_t next_sample = t0;
    for (int64_t i = 0; running_.load(std::memory_order_relaxed); ++i) {
      const int64_t due =
          t0 + static_cast<int64_t>(static_cast<double>(i) * gap_ns);
      SleepUntil(due);
      const size_t k = static_cast<size_t>(i) % sessions_.size();
      const auto& s = sessions_[k];
      const int64_t begin = NowNs();
      sys_->freshness.OnOffer(s.user, begin);
      bool ok;
      {
        Span span("streaming.offer", i);
        ok = sys_->pipe->Offer(s);
      }
      offer_ns_.fetch_add(NowNs() - begin, std::memory_order_relaxed);
      offered_.fetch_add(1, std::memory_order_relaxed);
      events_.fetch_add(events_per_session_[k], std::memory_order_relaxed);
      if (!ok) failed_.fetch_add(1, std::memory_order_relaxed);
      const int64_t now = NowNs();
      if (now >= next_sample) {
        next_sample = now + 50'000'000;
        overlay_peak_.store(std::max(overlay_peak_.load(),
                                     sys_->primary->OverlayMemoryBytes()));
        const auto st = sys_->engine->Stats();
        for (const auto& r : st.replicas) {
          if (st.primary_watermark > r.watermark) {
            lag_max_.store(std::max(lag_max_.load(),
                                    st.primary_watermark - r.watermark));
          }
        }
      }
    }
  }

  ServeSystem* sys_;
  zoomer::graph::SessionLog sessions_;
  std::vector<int64_t> events_per_session_;
  std::atomic<bool> running_{false};
  std::thread thread_;
  // Written by the feeder thread only; read by the main thread.
  std::atomic<int64_t> offered_{0};
  std::atomic<int64_t> events_{0};
  std::atomic<int64_t> failed_{0};
  std::atomic<int64_t> offer_ns_{0};
  std::atomic<size_t> overlay_peak_{0};
  std::atomic<uint64_t> lag_max_{0};
};

// ------------------------------------------------------ serve workloads ---

int RunServe(bool ingest, uint64_t seed, double seconds, bool trace,
             const std::string& scratch, Report* rep) {
  // Set up several times and report the median; keep the last deployment.
  std::unique_ptr<ServeSystem> sys;
  std::vector<double> totals, gen, ann, warm;
  for (int s = 0; s < kServeSetups; ++s) {
    sys.reset();
    SetupTimes t;
    sys = BuildServeSystem(seed, ingest, scratch, s, &t);
    totals.push_back(t.Total());
    gen.push_back(t.generate_s);
    ann.push_back(t.ann_build_s);
    warm.push_back(t.cache_warm_s);
    Log("setup %d: %.3f s (generate %.3f, ann %.3f, warm %.3f, wiring %.3f)",
        s, t.Total(), t.generate_s, t.ann_build_s, t.cache_warm_s,
        t.wiring_s);
  }

  // Deterministic reference, served one at a time before any write.
  const std::vector<uint8_t> prepass = HitPrepass(sys.get());
  const double recall = AnnRecall(sys.get());
  int64_t prepass_pos = 0, prepass_hits = 0;
  for (size_t i = 0; i < prepass.size(); ++i) {
    prepass_pos += sys->pool_positive[i];
    prepass_hits += prepass[i];
  }
  const double prepass_rate =
      prepass_pos ? static_cast<double>(prepass_hits) / prepass_pos : 0.0;
  Log("graph: %lld nodes, %zu items; pool %zu requests, %lld positives; "
      "HitRate@%d %.6f; ANN recall@%d %.4f",
      static_cast<long long>(sys->ds.graph.num_nodes()),
      sys->ds.all_items.size(), sys->pool.size(),
      static_cast<long long>(prepass_pos), kTopN, prepass_rate, kTopN,
      recall);
  // Neither depends on --seed: the graph, the export and the ANN index
  // are fixed, and the pre-pass runs before any write.
  rep->Ref("serve.prepass_hits", static_cast<double>(prepass_hits));
  rep->Ref("serve.ann_recall", recall);
  rep->Check(recall > 0.5, "ANN recall@" + std::to_string(kTopN) +
                               " above 0.5 on the fixed sample");

  const double qps = ingest ? kIngestFixedQps : kStaticFixedQps;
  std::unique_ptr<IngestFeeder> feeder;
  if (ingest) {
    feeder = std::make_unique<IngestFeeder>(sys.get(), seed, seconds);
    feeder->Start();
  }
  RunOpenLoop(sys.get(), qps, std::clamp(0.04 * seconds, 0.2, 1.0),
              seed + 1, 1, nullptr);  // warm-up, not measured

  // Module counters at the start of the measured phase.
  const auto ingest0 =
      ingest ? sys->pipe->Stats() : zoomer::streaming::IngestStats{};
  const int64_t dropped0 = ingest ? sys->pipe->events_dropped() : 0;
  const int64_t offers0 = ingest ? feeder->offered() : 0;
  const double offer_us0 = ingest ? feeder->offer_us_total() : 0;
  const auto engine0 =
      ingest ? sys->engine->Stats() : zoomer::engine::EngineStats{};
  const auto cache0 = sys->server->cache().Stats();
  const PassStats::Totals comp0 = sys->compaction_stats.Read();
  const PassStats::Totals ckpt0 = sys->checkpoint_stats.Read();
  const auto global0 = zoomer::obs::MetricsRegistry::Global()->Snapshot();

  // The measured phase alternates, kCycles times, a slice of the fixed-rate
  // open loop with a slice of saturated capacity, so both sample the host
  // over the whole run. Traced runs alternate an untraced and a traced
  // fixed-rate slice instead; their difference is the tracing overhead.
  // Capacity is scaled to the reference host speed by the kernel timings
  // its own handlers interleave (RunSaturated); a fixed-rate slice's
  // latency by the mean kernel time of the capacity slices just before and
  // just after it, and set-up time by that of all capacity slices.
  const double slice_s = (trace ? 0.4 : 0.55) * seconds / kCycles;
  const double capacity_s = 0.3 * seconds / kCycles;
  const auto snap0 = sys->reg.Snapshot();
  if (ingest) sys->freshness.Start();
  Tracer::Get().Clear();
  LoadResult run, untraced;
  std::vector<std::vector<double>> slice_p50_ms;
  std::vector<double> capacity, raw_capacity, kernel_us;
  Capacity cap_total;  // failures and hits over the capacity slices
  for (int c = 0; c < kCycles; ++c) {
    if (trace) {
      untraced.Merge(RunOpenLoop(sys.get(), qps, slice_s,
                                 seed * 1000 + 2 * c, kWindowsPerSlice,
                                 nullptr));
    }
    Tracer::Get().Enable(trace);
    const LoadResult slice =
        RunOpenLoop(sys.get(), qps, slice_s, seed * 1000 + 2 * c + 1,
                    kWindowsPerSlice, ingest ? nullptr : &prepass);
    Tracer::Get().Enable(false);
    run.Merge(slice);
    if (!trace) {
      slice_p50_ms.push_back(slice.window_p50_ms);
      const Capacity cap =
          RunSaturated(sys.get(), capacity_s, seed * 1000 + 500 + c,
                       ingest ? nullptr : &prepass);
      raw_capacity.push_back(cap.raw);
      capacity.push_back(cap.scaled);
      kernel_us.push_back(cap.kernel_us);
      cap_total.failed += cap.failed;
      cap_total.positives += cap.positives;
      cap_total.hits += cap.hits;
      cap_total.expected_hits += cap.expected_hits;
    }
  }
  const auto snap1 = sys->reg.Snapshot();
  const auto global1 = zoomer::obs::MetricsRegistry::Global()->Snapshot();
  const auto cache1 = sys->server->cache().Stats();
  int64_t pending_probes = 0;
  std::vector<double> visible_ms;
  if (ingest) visible_ms = sys->freshness.Stop(&pending_probes);

  // Bypass predictions, read from the registries the modules fill. The
  // tensor module has no metrics of its own; no serving code path calls it.
  if (ingest) {
    CheckIdle("serve_ingest: the ROI sampler (core)", {"sampler."}, snap0,
              snap1, global0, global1, rep);
  } else {
    CheckIdle("serve_static: engine, streaming, maintenance, persist and "
              "the ROI sampler (core)",
              {"engine.", "streaming.", "maintenance.", "persist.",
               "sampler."},
              snap0, snap1, global0, global1, rep);
  }

  // Drain and check the write path.
  zoomer::streaming::IngestStats ingest1;
  int64_t dropped1 = 0;
  if (ingest) {
    feeder->Stop();
    sys->pipe->Flush();
    bool caught_up = true;
    for (int s = 0; s < kShards; ++s) {
      for (int r = 0; r < kReplication; ++r) {
        caught_up =
            sys->engine->AwaitReplicaCatchUp(s, r, 20'000'000) && caught_up;
      }
    }
    const auto st = sys->engine->Stats();
    uint64_t max_lag = 0;
    for (const auto& r : st.replicas) {
      max_lag = std::max(max_lag, st.primary_watermark - r.watermark);
    }
    rep->Check(caught_up && max_lag == 0,
               "every replica drains to lag 0 after Flush (max lag " +
                   std::to_string(max_lag) + ")");
    ingest1 = sys->pipe->Stats();
    dropped1 = sys->pipe->events_dropped();
    rep->Check(feeder->events_offered() == ingest1.events + dropped1,
               "ingest conservation at Offer: feeder events " +
                   std::to_string(feeder->events_offered()) + " == queued " +
                   std::to_string(ingest1.events) + " + dropped " +
                   std::to_string(dropped1));
    rep->Check(ingest1.events_applied == ingest1.events,
               "ingest conservation after Flush: applied " +
                   std::to_string(ingest1.events_applied) + " == queued " +
                   std::to_string(ingest1.events));
    rep->Operations(feeder->offered(), feeder->failed_offers());
    const int64_t pass_errors = sys->compaction_stats.Read().errors +
                                sys->checkpoint_stats.Read().errors;
    rep->Check(pass_errors == 0, "janitor passes return OK (" +
                                     std::to_string(pass_errors) +
                                     " errors)");
    rep->Check(!visible_ms.empty(), "freshness probes observed");
    // No policy span may close while Tracer::Collect copies the buffers.
    sys->janitor->Stop();
    Log("ingest: %lld sessions, %lld events applied; visible p50 %.4f ms "
        "p99 %.4f ms over %zu probes (%lld pending at stop)",
        static_cast<long long>(feeder->offered()),
        static_cast<long long>(ingest1.events_applied),
        Percentile(visible_ms, 50), Percentile(visible_ms, 99),
        visible_ms.size(), static_cast<long long>(pending_probes));
  }

  const double hit_rate =
      run.positives ? static_cast<double>(run.hits) / run.positives : 0.0;
  Log("fixed rate %.0f/s, %d slices of %.2f s: %zu requests; window "
      "medians p50 %.4f ms, p90 %.4f ms, p99 %.4f ms (whole run p99 %.4f "
      "ms); failed %lld; generator late p99 %.4f ms; HitRate %.6f over %lld "
      "positives",
      qps, kCycles, slice_s, run.latency_ms.size(),
      Median(run.window_p50_ms), Median(run.window_p90_ms),
      Median(run.window_p99_ms), Percentile(run.latency_ms, 99),
      static_cast<long long>(run.failed), Percentile(run.late_ms, 99),
      hit_rate, static_cast<long long>(run.positives));
  rep->Operations(static_cast<int64_t>(run.latency_ms.size()), run.failed);
  rep->Check(!run.overloaded, "the fixed rate builds no backlog");
  if (!ingest) {
    rep->Check(run.hits == run.expected_hits,
               "HitRate under concurrent load equals the single-threaded "
               "pre-pass (" + std::to_string(run.hits) + " vs " +
                   std::to_string(run.expected_hits) + " hits)");
  }

  if (!trace) {
    auto list = [](const std::vector<double>& v) {
      std::string w;
      for (double x : v) w += std::to_string(std::lround(x)) + " ";
      return w;
    };
    std::vector<double> scaled_p50_ms;
    for (size_t c = 0; c < slice_p50_ms.size(); ++c) {
      const double k =
          c == 0 ? kernel_us[0] : 0.5 * (kernel_us[c - 1] + kernel_us[c]);
      for (double ms : slice_p50_ms[c]) {
        scaled_p50_ms.push_back(ms * kRetrievalRefUs / k);
      }
    }
    double kernel_sum = 0;
    for (double k : kernel_us) kernel_sum += k;
    const double setup_scale =
        kRetrievalRefUs * static_cast<double>(kernel_us.size()) / kernel_sum;
    Log("capacity %.1f requests/s, %.1f at the reference speed (raw per "
        "slice: %s); kernel per capacity slice %s us; latency p50 %.4f ms, "
        "set-up %.4f s at the reference speed",
        Median(raw_capacity), Median(capacity), list(raw_capacity).c_str(),
        list(kernel_us).c_str(), Median(scaled_p50_ms),
        Median(totals) * setup_scale);
    rep->Operations(0, cap_total.failed);
    rep->Check(Median(raw_capacity) > qps,
               "capacity exceeds the fixed offered rate");
    if (!ingest) {
      rep->Check(cap_total.hits == cap_total.expected_hits,
                 "HitRate of the capacity slices equals the pre-pass (" +
                     std::to_string(cap_total.hits) + " vs " +
                     std::to_string(cap_total.expected_hits) + " hits)");
    }
    rep->Metric("setup_s", Median(totals) * setup_scale, "s");
    rep->Metric("latency_p50_ms", Median(scaled_p50_ms), "ms");
    rep->Metric("throughput_per_s", Median(capacity), "1/s");
    // The static graph's HitRate is the pre-pass (a pure function of the
    // graph and the export); under ingest it is what the fixed-rate and
    // capacity slices saw.
    const double ingest_hit_rate =
        static_cast<double>(run.hits + cap_total.hits) /
        std::max<int64_t>(1, run.positives + cap_total.positives);
    rep->Metric("quality", ingest ? ingest_hit_rate : prepass_rate, "ratio");
    return 0;
  }

  // ---- per-layer metrics from the traced phase ----
  std::map<std::string, double> layer;
  const auto spans = Tracer::Get().Collect();
  const auto agg = Aggregate(spans);
  auto span_mean = [&](const char* name) {
    auto it = agg.find(name);
    return it == agg.end() ? 0.0 : it->second.MeanSelfUs();
  };
  const auto ann_d =
      HistogramDelta(snap0, snap1, "serving.ann_search_latency_us");
  const auto eng_d = HistogramDelta(snap0, snap1, "engine.request_latency_us");
  const auto sampler_d = HistogramDelta(global0, global1, "sampler.batch_size");

  const double handle_us = span_mean("serving.handle");
  layer["serving.latency_p90_ms"] = Median(untraced.window_p90_ms);
  layer["serving.latency_p99_ms"] = Median(untraced.window_p99_ms);
  layer["loadgen.late_p99_ms"] = Percentile(run.late_ms, 99);
  layer["loadgen.sent"] = static_cast<double>(run.sent);
  layer["loadgen.failed"] = static_cast<double>(run.failed);
  layer["serving.queue_wait_us"] = span_mean("loadgen.queue_wait");
  layer["serving.handle_us"] = handle_us;
  layer["serving.ann.search_us"] = ann_d.MeanOr0();
  layer["serving.ann.recall"] = recall;
  layer["serving.embed_self_us"] = std::max(0.0, handle_us - ann_d.MeanOr0());
  const double hits = static_cast<double>(cache1.hits - cache0.hits);
  const double lookups = hits + static_cast<double>(cache1.misses -
                                                    cache0.misses);
  layer["serving.cache.hit_ratio"] = lookups > 0 ? hits / lookups : 0.0;
  layer["serving.cache.fills"] = static_cast<double>(cache1.completed_fills -
                                  cache0.completed_fills);

  int64_t engine_calls = 0;
  double stale_ratio = 0;
  if (ingest) {
    const auto engine1 = sys->engine->Stats();
    engine_calls = engine1.total_requests - engine0.total_requests;
    if (engine_calls > 0) {
      stale_ratio = static_cast<double>(engine1.stale_fallback_reads -
                                        engine0.stale_fallback_reads) /
                    engine_calls;
    }
  }
  layer["engine.calls"] = static_cast<double>(engine_calls);
  layer["engine.sample_many_us"] = eng_d.MeanOr0();
  layer["engine.stale_fallback_ratio"] = stale_ratio;
  layer["engine.replica_lag_max_epochs"] = ingest ? static_cast<double>(feeder->lag_max()) : 0.0;

  const int64_t offers = ingest ? feeder->offered() - offers0 : 0;
  const double offer_us =
      offers > 0 ? (feeder->offer_us_total() - offer_us0) / offers : 0.0;
  const int64_t applied = ingest1.events_applied - ingest0.events_applied;
  const int64_t batches = ingest1.batches - ingest0.batches;
  layer["streaming.offers"] = static_cast<double>(offers);
  layer["streaming.offer_us"] = offer_us;
  layer["streaming.batch_events"] = batches > 0 ? static_cast<double>(applied) / batches : 0.0;
  layer["streaming.events_applied"] = static_cast<double>(applied);
  layer["streaming.events_dropped"] = static_cast<double>(dropped1 - dropped0);
  layer["streaming.overlay_bytes_peak"] = ingest ? static_cast<double>(feeder->overlay_bytes_peak()) : 0;
  layer["streaming.visible_p50_ms"] = Percentile(visible_ms, 50);
  layer["streaming.visible_p99_ms"] = Percentile(visible_ms, 99);

  const PassStats::Totals comp1 = sys->compaction_stats.Read();
  const PassStats::Totals ckpt1 = sys->checkpoint_stats.Read();
  auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
  const double comp_passes = static_cast<double>(comp1.passes - comp0.passes);
  const double ckpt_passes = static_cast<double>(ckpt1.passes - ckpt0.passes);
  layer["maintenance.passes"] = comp_passes + ckpt_passes;
  layer["maintenance.compaction.pass_ms"] = ratio(comp1.total_ms - comp0.total_ms, comp_passes);
  layer["maintenance.compaction.acted_ratio"] = ratio(static_cast<double>(comp1.acted - comp0.acted),
                    comp_passes);
  layer["maintenance.checkpoint.pass_ms"] = ratio(ckpt1.total_ms - ckpt0.total_ms, ckpt_passes);
  layer["maintenance.checkpoint.acted_ratio"] = ratio(static_cast<double>(ckpt1.acted - ckpt0.acted),
                    ckpt_passes);

  const auto snap_end = sys->reg.Snapshot();
  const double wal_appends = CounterValue(snap_end, "persist.wal_appends") -
                             CounterValue(snap0, "persist.wal_appends");
  layer["persist.wal_appends"] = wal_appends;
  layer["persist.wal_fsync_us_p99"] = static_cast<double>(HistogramP99Delta(
                  snap0, snap_end, "persist.wal_fsync_latency_us"));
  layer["persist.checkpoint_bytes"] = static_cast<double>(
                  HistogramDelta(snap0, snap_end, "persist.checkpoint_bytes")
                      .sum);

  layer["core.calls"] = static_cast<double>(sampler_d.count);
  layer["setup.generate_s"] = Median(gen);
  layer["setup.ann_build_s"] = Median(ann);
  layer["setup.cache_warm_s"] = Median(warm);
  layer["trace.overhead_pct"] = untraced.HandleUsMean() > 0
                  ? (run.HandleUsMean() - untraced.HandleUsMean()) /
                        untraced.HandleUsMean() * 100.0
                  : 0.0;
  layer["trace.spans"] = static_cast<double>(spans.size());

  EmitLayerMetrics(layer, rep);
  return 0;
}

// ---------------------------------------------------------- train_roi ---

zoomer::baselines::ModelParams TrainModelParams() {
  zoomer::baselines::ModelParams p;
  p.hidden_dim = 16;
  p.sample_k = 10;  // paper default k
  p.num_hops = 2;   // 2-hop ROI on Taobao graphs
  p.seed = kTrainModelSeed;
  return p;
}

zoomer::core::TrainOptions TrainOpts() {
  zoomer::core::TrainOptions t;
  t.epochs = 1;
  t.batch_size = kTrainBatch;
  t.learning_rate = 0.01f;
  t.max_examples_per_epoch = kTrainExamples;
  t.seed = kTrainModelSeed + 1234;
  return t;
}

/// The scored test examples: a seeded sample of the test split.
std::vector<zoomer::data::Example> ScoredSubset(
    const zoomer::data::RetrievalDataset& ds, uint64_t seed, size_t n) {
  std::vector<zoomer::data::Example> out = ds.test;
  Rng rng(seed * 7 + 3);
  rng.Shuffle(&out);
  out.resize(std::min(n, out.size()));
  return out;
}

/// Scores `examples` the way ZoomerTrainer::Evaluate does and returns
/// their AUC. Times each ScoreLogit call into `raw_ms` (if given) and, in
/// `scaled_ms`, scaled to the reference host speed by the calibration
/// kernel timed before and after each block of kCalibrationBlock calls.
double ScoreExamples(zoomer::core::ScoringModel* model,
                     const std::vector<zoomer::data::Example>& examples,
                     uint64_t eval_seed, std::vector<double>* scaled_ms,
                     std::vector<double>* raw_ms = nullptr) {
  Rng rng(eval_seed);
  std::vector<float> scores, labels;
  std::vector<double> block;
  double cal_before = CalibrationUs();
  for (size_t i = 0; i < examples.size(); ++i) {
    const auto& ex = examples[i];
    const int64_t t0 = NowNs();
    const float logit = model->ScoreLogit(ex, &rng).item();
    block.push_back(static_cast<double>(NowNs() - t0) / 1e6);
    scores.push_back(1.0f / (1.0f + std::exp(-logit)));
    labels.push_back(ex.label);
    if (block.size() == kCalibrationBlock || i + 1 == examples.size()) {
      const double cal_after = CalibrationUs();
      const double scale = kCalibrationRefUs / (0.5 * (cal_before + cal_after));
      for (double ms : block) {
        scaled_ms->push_back(ms * scale);
        if (raw_ms != nullptr) raw_ms->push_back(ms);
      }
      block.clear();
      cal_before = cal_after;
    }
  }
  return zoomer::eval::Auc(scores, labels);
}

/// The trainer's epoch loop driven through public calls, with spans around
/// ROI sampling, the forward pass, backward and the optimizer step. Uses
/// the same RNG stream, loss and Adam settings as ZoomerTrainer::Train, so
/// the trained parameters are the same as Train's.
double TracedTrainingPass(zoomer::core::ScoringModel* model,
                          const zoomer::data::RetrievalDataset& ds,
                          const zoomer::core::TrainOptions& opts,
                          double* roi_nodes_mean) {
  auto* zm = dynamic_cast<zoomer::core::ZoomerModel*>(model);
  zoomer::tensor::Adam adam(model->Parameters(), opts.learning_rate, 0.9f,
                            0.999f, 1e-8f, opts.weight_decay);
  Rng rng(opts.seed);
  Rng probe_rng(opts.seed ^ 0x5eedULL);
  std::vector<zoomer::data::Example> examples = ds.train;
  model->OnEpochBegin(ds, &rng);
  rng.Shuffle(&examples);
  if (static_cast<int>(examples.size()) > opts.max_examples_per_epoch) {
    examples.resize(opts.max_examples_per_epoch);
  }
  const int64_t t0 = NowNs();
  adam.ZeroGrad();
  int in_batch = 0;
  double nodes = 0;
  int64_t request = 0;
  for (const auto& ex : examples) {
    Span step("train.example", request++);
    if (zm != nullptr) {
      // The same ROI the forward pass samples (kFocalTopK is
      // deterministic), drawn from a separate RNG so Train's stream is
      // untouched.
      Span s("core.roi_sample");
      const auto& view = zm->view();
      const auto fc = zm->sampler().FocalVector(view, {ex.user, ex.query});
      const NodeId egos[2] = {ex.user, ex.query};
      const auto rois = zm->sampler().SampleBatch(view, egos, fc, &probe_rng);
      for (const auto& r : rois) nodes += static_cast<double>(r.nodes.size());
    }
    zoomer::tensor::Tensor logit;
    {
      Span s("core.score_logit");
      logit = model->ScoreLogit(ex, &rng);
    }
    zoomer::tensor::Tensor label = zoomer::tensor::Tensor::Scalar(ex.label);
    zoomer::tensor::Tensor loss =
        opts.use_focal_loss
            ? zoomer::tensor::FocalBceWithLogits(logit, label,
                                                 opts.focal_gamma)
            : zoomer::tensor::BceWithLogits(logit, label);
    {
      Span s("tensor.backward");
      zoomer::tensor::Scale(loss, 1.0f / static_cast<float>(opts.batch_size))
          .Backward();
    }
    if (++in_batch >= opts.batch_size) {
      Span s("tensor.adam_step");
      adam.Step();
      adam.ZeroGrad();
      in_batch = 0;
    }
  }
  if (in_batch > 0) {
    Span s("tensor.adam_step");
    adam.Step();
  }
  *roi_nodes_mean = examples.empty() ? 0 : nodes / examples.size();
  return Seconds(NowNs() - t0);
}

int RunTrain(uint64_t seed, double seconds, bool trace, Report* rep) {
  std::vector<double> setups, gen;
  std::unique_ptr<zoomer::data::RetrievalDataset> ds;
  for (int s = 0; s < kTrainSetups; ++s) {
    const double cal_before = CalibrationUs();
    const int64_t t0 = NowNs();
    auto d = std::make_unique<zoomer::data::RetrievalDataset>(
        zoomer::data::GenerateTaobaoDataset(zoomer::bench::ScaleOptions(
            zoomer::bench::GraphScale::kMillion, kTrainGraphSeed)));
    const int64_t t1 = NowNs();
    auto model =
        zoomer::baselines::MakeModel("Zoomer", &d->graph, TrainModelParams());
    const int64_t t2 = NowNs();
    const double scale =
        kCalibrationRefUs / (0.5 * (cal_before + CalibrationUs()));
    setups.push_back(Seconds(t2 - t0) * scale);
    gen.push_back(Seconds(t1 - t0) * scale);
    ds = std::move(d);
  }
  Log("train set-up median %.4f s; %lld nodes, %zu train / %zu test "
      "examples",
      Median(setups), static_cast<long long>(ds->graph.num_nodes()),
      ds->train.size(), ds->test.size());
  const auto global0 = zoomer::obs::MetricsRegistry::Global()->Snapshot();
  // Bypass prediction: no serving-side module records anything.
  auto check_serving_idle = [&] {
    CheckIdle("train_roi: engine, streaming, maintenance, persist and serving",
              {"engine.", "streaming.", "maintenance.", "persist.", "serving."},
              {}, {}, global0,
              zoomer::obs::MetricsRegistry::Global()->Snapshot(), rep);
  };

  if (!trace) {
    // One Train call of several fixed-size epochs (the count scales with
    // the run length); throughput counts the epochs after the first.
    auto opts = TrainOpts();
    opts.epochs =
        std::clamp(static_cast<int>(std::lround(seconds / 3.0)), 2, 12);
    auto model = zoomer::baselines::MakeModel("Zoomer", &ds->graph,
                                              TrainModelParams());
    zoomer::core::ZoomerTrainer trainer(model.get(), opts);
    // The trainer calls its graph-refresh hook on the training thread at
    // every epoch start and minibatch boundary; this hook refreshes nothing
    // (it only re-arms itself) and times the calibration kernel there.
    std::vector<std::pair<int64_t, double>> marks;  // (ns, calibration us)
    trainer.SetGraphRefreshHook([&] {
      const int64_t t = NowNs();
      marks.emplace_back(t, CalibrationUs());
      trainer.NotifyGraphUpdate();
      return uint64_t{0};
    });
    trainer.NotifyGraphUpdate();
    const auto tr = trainer.Train(*ds);
    // Epoch 0 warms up: count from the first mark of epoch 1.
    const size_t first = 1 + static_cast<size_t>(
        (opts.max_examples_per_epoch + opts.batch_size - 1) / opts.batch_size);
    double raw_s = 0, scaled_s = 0;
    for (size_t i = first; i + 1 < marks.size(); ++i) {
      const double dt = Seconds(marks[i + 1].first - marks[i].first) -
                        marks[i].second / 1e6;
      raw_s += dt;
      scaled_s += dt * kCalibrationRefUs /
                  (0.5 * (marks[i].second + marks[i + 1].second));
    }
    const double examples =
        static_cast<double>((opts.epochs - 1) * opts.max_examples_per_epoch);
    std::string rates;  // raw examples/s per epoch, for the log
    double prev = 0;
    for (const auto& e : tr.epochs) {
      rates += std::to_string(std::lround(opts.max_examples_per_epoch /
                                          (e.seconds - prev))) + " ";
      prev = e.seconds;
    }
    std::vector<double> lat_ms, raw_lat_ms, unused;
    const double auc =
        ScoreExamples(model.get(), ScoredSubset(*ds, seed, kEvalExamples),
                      opts.seed + 17, &lat_ms, &raw_lat_ms);
    // Evaluate scores the first test examples in order with this RNG seed.
    const std::vector<zoomer::data::Example> head(
        ds->test.begin(), ds->test.begin() + kCrossCheckExamples);
    const double eval_auc = trainer.Evaluate(*ds, kCrossCheckExamples).auc;
    rep->Check(eval_auc ==
                   ScoreExamples(model.get(), head, opts.seed + 17, &unused),
               "bench scoring matches ZoomerTrainer::Evaluate");
    rep->Operations(tr.examples_seen + static_cast<int64_t>(lat_ms.size()), 0);
    // Evaluate's AUC depends only on the epoch count (the trajectory and
    // its test examples are fixed); the scored subset's AUC on the seed.
    const std::string epochs = ".epochs" + std::to_string(opts.epochs);
    rep->Ref("train.evaluate_auc" + epochs, eval_auc);
    rep->Ref("train.auc.seed" + std::to_string(seed) + epochs, auc);
    check_serving_idle();
    Log("%lld examples in %.3f s (examples/s per epoch: %s); after epoch 0 "
        "%.1f examples/s, %.1f at the reference speed; AUC %.6f over %zu "
        "test examples; scoring p50 %.4f ms (%.4f at the reference speed), "
        "p99 %.4f ms", static_cast<long long>(tr.examples_seen),
        tr.total_seconds, rates.c_str(), examples / raw_s,
        examples / scaled_s, auc, lat_ms.size(), Percentile(raw_lat_ms, 50),
        Percentile(lat_ms, 50), Percentile(raw_lat_ms, 99));
    rep->Metric("setup_s", Median(setups), "s");
    rep->Metric("latency_p50_ms", Percentile(lat_ms, 50), "ms");
    rep->Metric("throughput_per_s", examples / scaled_s, "1/s");
    rep->Metric("quality", auc, "ratio");
    return 0;
  }

  // Traced run: Train once (reference AUC), then the bench-driven pass
  // with the tracer off and on.
  const auto opts = TrainOpts();
  const auto scored = ScoredSubset(*ds, seed, kCrossCheckExamples);
  std::vector<double> unused;
  auto ref_model = zoomer::baselines::MakeModel("Zoomer", &ds->graph,
                                                TrainModelParams());
  zoomer::core::ZoomerTrainer trainer(ref_model.get(), opts);
  trainer.Train(*ds);
  rep->Ref("train.evaluate_auc.epochs" + std::to_string(opts.epochs),
           trainer.Evaluate(*ds, kCrossCheckExamples).auc);
  const double train_auc =
      ScoreExamples(ref_model.get(), scored, opts.seed + 17, &unused);

  double nodes_off = 0, nodes_on = 0;
  auto model_off = zoomer::baselines::MakeModel("Zoomer", &ds->graph,
                                                TrainModelParams());
  const double t_off = TracedTrainingPass(model_off.get(), *ds, opts,
                                          &nodes_off);
  const double auc_off =
      ScoreExamples(model_off.get(), scored, opts.seed + 17, &unused);
  auto model_on = zoomer::baselines::MakeModel("Zoomer", &ds->graph,
                                               TrainModelParams());
  Tracer::Get().Clear();
  Tracer::Get().Enable(true);
  const double t_on = TracedTrainingPass(model_on.get(), *ds, opts,
                                         &nodes_on);
  Tracer::Get().Enable(false);
  const double auc_on =
      ScoreExamples(model_on.get(), scored, opts.seed + 17, &unused);
  Log("bench pass: %.3f s untraced, %.3f s traced; AUC Train %.6f, "
      "pass %.6f / %.6f", t_off, t_on, train_auc, auc_off, auc_on);
  rep->Check(auc_off == train_auc && auc_on == train_auc,
             "bench-driven training pass reproduces ZoomerTrainer::Train");
  rep->Operations(2 * kTrainExamples, 0);

  const auto spans = Tracer::Get().Collect();
  const auto agg = Aggregate(spans);
  auto stat = [&](const char* name) {
    auto it = agg.find(name);
    return it == agg.end() ? SpanStats{} : it->second;
  };
  const auto global1 = zoomer::obs::MetricsRegistry::Global()->Snapshot();
  const auto sampler_d =
      HistogramDelta(global0, global1, "sampler.batch_size");

  std::map<std::string, double> layer;
  const SpanStats roi = stat("core.roi_sample");
  const SpanStats fwd = stat("core.score_logit");
  const SpanStats bwd = stat("tensor.backward");
  const SpanStats adam = stat("tensor.adam_step");
  layer["core.calls"] = static_cast<double>(sampler_d.count);
  layer["core.roi_sample_us"] = roi.MeanUs();
  layer["core.roi_nodes"] = nodes_on;
  layer["core.forward_self_us"] = std::max(0.0, fwd.MeanUs() - roi.MeanUs());
  layer["tensor.calls"] = static_cast<double>(bwd.count + adam.count);
  layer["tensor.backward_us"] = bwd.MeanUs();
  layer["tensor.adam_step_us"] = adam.MeanUs();
  layer["setup.generate_s"] = Median(gen);
  layer["trace.overhead_pct"] = (t_on - t_off) / t_off * 100.0;
  layer["trace.spans"] = static_cast<double>(spans.size());
  EmitLayerMetrics(layer, rep);
  Log("train.example self time %.2f us (loss + glue outside the child spans)",
      stat("train.example").MeanSelfUs());
  rep->Check(sampler_d.count > 0, "train_roi: ROI sampler calls observed");
  check_serving_idle();
  return 0;
}

int Usage() {
  std::fprintf(stderr,
               "usage: zoomer_perfbench --workload "
               "serve_static|serve_ingest|train_roi --seed N --seconds S "
               "--trace 0|1 --scratch DIR [--spans PATH]\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  std::string workload, scratch, spans_path;
  uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* v = argv[i + 1];
    if (flag == "--workload") workload = v;
    else if (flag == "--seed") { seed = std::strtoull(v, nullptr, 10); have_seed = true; }
    else if (flag == "--seconds") seconds = std::atof(v);
    else if (flag == "--trace") trace = std::atoi(v);
    else if (flag == "--scratch") scratch = v;
    else if (flag == "--spans") spans_path = v;
    else return Usage();
  }
  if (argc % 2 != 1 || !have_seed || seconds <= 0 || (trace != 0 && trace != 1) ||
      scratch.empty()) {
    return Usage();
  }
  PrintEnvironment(workload, seed, seconds, trace == 1);
  Report rep;
  int rc;
  if (workload == "serve_static") {
    rc = RunServe(false, seed, seconds, trace == 1, scratch, &rep);
  } else if (workload == "serve_ingest") {
    rc = RunServe(true, seed, seconds, trace == 1, scratch, &rep);
  } else if (workload == "train_roi") {
    rc = RunTrain(seed, seconds, trace == 1, &rep);
  } else {
    return Usage();
  }
  if (rc != 0) return rc;
  if (trace == 1 && !spans_path.empty()) {
    if (!WriteSpans(spans_path, Tracer::Get().Collect())) {
      rep.Check(false, "writing spans to " + spans_path);
    }
  }
  rep.Print();
  return 0;
}
