// Tests for the background graph-maintenance subsystem: the janitor
// scheduler (dispatch, background ticking, error isolation), threshold- and
// age-triggered scheduled compaction, deterministic TTL expiry and
// exponential weight decay on a manual logical clock (including per-view
// 1-hour vs 1-day windows over one stream), the hot-node overlay cache
// (distribution parity, apply/compact/expiry invalidation, decay as_of
// staleness), janitor-triggered Compact() racing mid-ingest appends and
// pinned snapshots, and serving-layer NeighborCache coordination through
// OnlineServer::AttachMaintenance.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <thread>

#include "baselines/gnn_baselines.h"
#include "common/clock.h"
#include "common/random.h"
#include "data/session_stream.h"
#include "data/taobao_generator.h"
#include "maintenance/compaction_policy.h"
#include "maintenance/hot_node_cache.h"
#include "maintenance/maintenance_scheduler.h"
#include "maintenance/metrics_export_policy.h"
#include "maintenance/ttl_decay_policy.h"
#include "obs/metrics.h"
#include "serving/neighbor_cache.h"
#include "serving/online_server.h"
#include "streaming/dynamic_graph_view.h"
#include "streaming/dynamic_hetero_graph.h"
#include "streaming/edge_decay.h"
#include "streaming/graph_delta_log.h"
#include "streaming/ingest_pipeline.h"

namespace zoomer {
namespace maintenance {
namespace {

using graph::HeteroGraph;
using graph::HeteroGraphBuilder;
using graph::NodeId;
using graph::NodeType;
using graph::RelationKind;
using streaming::DecaySpec;
using streaming::DeltaBatch;
using streaming::DynamicGraphView;
using streaming::DynamicHeteroGraph;
using streaming::EdgeEvent;
using streaming::GraphDeltaLog;

constexpr int kDim = 4;

/// user 0, query 1, items 2..2+num_items-1; a single user-query click edge
/// plus optional weighted query-item edges (same fixture as streaming_test).
HeteroGraph MakeTinyGraph(int num_items,
                          const std::vector<float>& query_item_weights = {}) {
  HeteroGraphBuilder b(kDim);
  b.AddNode(NodeType::kUser, std::vector<float>(kDim, 0.1f), {0});
  b.AddNode(NodeType::kQuery, std::vector<float>(kDim, 0.2f), {1});
  for (int i = 0; i < num_items; ++i) {
    b.AddNode(NodeType::kItem, std::vector<float>(kDim, 0.3f), {2});
  }
  EXPECT_TRUE(b.AddEdge(0, 1, RelationKind::kClick, 1.0f).ok());
  for (size_t i = 0; i < query_item_weights.size(); ++i) {
    EXPECT_TRUE(b.AddEdge(1, 2 + static_cast<NodeId>(i), RelationKind::kClick,
                          query_item_weights[i])
                    .ok());
  }
  return b.Build();
}

/// Heap-allocated graph: ThreadSanitizer identifies mutexes by address and
/// libstdc++'s std::mutex is trivially destructible (its pthread handle is
/// never destroy()-ed), so stack graphs in consecutive tests can alias
/// mutex addresses and trip false lock-order cycles. Freed heap memory has
/// its TSan metadata cleared, so heap graphs cannot alias.
std::unique_ptr<DynamicHeteroGraph> MakeDynamic(const HeteroGraph* g) {
  return std::make_unique<DynamicHeteroGraph>(g);
}

DeltaBatch MakeBatch(GraphDeltaLog* log, int shard,
                     std::vector<EdgeEvent> events,
                     DynamicHeteroGraph* track = nullptr) {
  DeltaBatch batch;
  batch.events = std::move(events);
  batch.epoch =
      track == nullptr
          ? log->Append(shard, batch.events)
          : log->Append(shard, batch.events,
                        [track](uint64_t e) { track->NoteEpochIssued(e); });
  return batch;
}

std::map<NodeId, double> SampleFrequencies(
    const DynamicHeteroGraph::Snapshot& snap, NodeId node, int draws,
    uint64_t seed) {
  Rng rng(seed);
  std::map<NodeId, double> freq;
  for (int i = 0; i < draws; ++i) {
    freq[snap.SampleNeighbor(node, &rng)] += 1.0 / draws;
  }
  return freq;
}

// --- MaintenanceScheduler ---------------------------------------------------

class CountingPolicy final : public MaintenancePolicy {
 public:
  CountingPolicy(const char* name, bool acts, bool fails = false)
      : name_(name), acts_(acts), fails_(fails) {}

  const char* name() const override { return name_; }
  StatusOr<MaintenanceReport> RunOnce() override {
    runs.fetch_add(1);
    if (fails_) return Status::Internal("deliberate test failure");
    MaintenanceReport report;
    report.acted = acts_;
    report.touched = {7};
    return report;
  }

  std::atomic<int> runs{0};

 private:
  const char* name_;
  bool acts_;
  bool fails_;
};

TEST(MaintenanceSchedulerTest, RunOnceForTestDispatchesByName) {
  MaintenanceScheduler scheduler;
  auto a = std::make_unique<CountingPolicy>("a", /*acts=*/true);
  auto b = std::make_unique<CountingPolicy>("b", /*acts=*/false);
  CountingPolicy* a_raw = a.get();
  CountingPolicy* b_raw = b.get();
  scheduler.AddPolicy(std::move(a), {});
  scheduler.AddPolicy(std::move(b), {});

  int listener_fires = 0;
  std::string last_policy;
  scheduler.AddListener([&](const std::string& name,
                            const MaintenanceReport& report) {
    ++listener_fires;
    last_policy = name;
    EXPECT_TRUE(report.acted);
  });

  auto r = scheduler.RunOnceForTest("a");
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.value().acted);
  EXPECT_EQ(a_raw->runs.load(), 1);
  EXPECT_EQ(b_raw->runs.load(), 0);
  EXPECT_EQ(listener_fires, 1);  // acted => listener fired
  EXPECT_EQ(last_policy, "a");

  ASSERT_TRUE(scheduler.RunOnceForTest("b").ok());
  EXPECT_EQ(b_raw->runs.load(), 1);
  EXPECT_EQ(listener_fires, 1);  // no action => no fan-out

  EXPECT_FALSE(scheduler.RunOnceForTest("nope").ok());

  auto stats = scheduler.Stats();
  ASSERT_EQ(stats.size(), 2u);
  EXPECT_EQ(stats[0].name, "a");
  EXPECT_EQ(stats[0].runs, 1);
  EXPECT_EQ(stats[0].actions, 1);
  EXPECT_EQ(stats[1].actions, 0);
}

TEST(MaintenanceSchedulerTest, JanitorTicksPoliciesInBackground) {
  MaintenanceScheduler scheduler;
  auto p = std::make_unique<CountingPolicy>("ticker", /*acts=*/false);
  CountingPolicy* raw = p.get();
  PolicySchedule schedule;
  schedule.period_ms = 2;
  schedule.jitter_frac = 0.5;
  scheduler.AddPolicy(std::move(p), schedule);
  scheduler.Start();
  for (int i = 0; i < 2000 && raw->runs.load() < 3; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  scheduler.Stop();
  EXPECT_GE(raw->runs.load(), 3);
  EXPECT_GE(scheduler.Stats()[0].runs, 3);
}

TEST(MaintenanceSchedulerTest, ErrorsAreCountedAndDoNotStopTicking) {
  MaintenanceScheduler scheduler;
  auto p = std::make_unique<CountingPolicy>("flaky", /*acts=*/false,
                                            /*fails=*/true);
  CountingPolicy* raw = p.get();
  PolicySchedule schedule;
  schedule.period_ms = 2;
  scheduler.AddPolicy(std::move(p), schedule);
  scheduler.Start();
  for (int i = 0; i < 2000 && raw->runs.load() < 2; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  scheduler.Stop();
  auto stats = scheduler.Stats();
  EXPECT_GE(stats[0].errors, 2);
  EXPECT_EQ(stats[0].actions, 0);
  EXPECT_NE(stats[0].last_error.find("deliberate"), std::string::npos);
}

TEST(MaintenanceSchedulerTest, PassesRecordLatencyAndErrorTelemetry) {
  // Private registry so the assertions see only this scheduler's passes.
  obs::MetricsRegistry reg;
  MaintenanceSchedulerOptions sopt;
  sopt.registry = &reg;
  MaintenanceScheduler scheduler(sopt);
  scheduler.AddPolicy(std::make_unique<CountingPolicy>("ok", /*acts=*/true),
                      {});
  scheduler.AddPolicy(std::make_unique<CountingPolicy>("bad", /*acts=*/false,
                                                       /*fails=*/true),
                      {});
  ASSERT_TRUE(scheduler.RunOnceForTest("ok").ok());
  ASSERT_TRUE(scheduler.RunOnceForTest("ok").ok());
  EXPECT_FALSE(scheduler.RunOnceForTest("bad").ok());

  const obs::RegistrySnapshot snap = reg.Snapshot();
  const obs::MetricPoint* ok_lat = snap.Find("maintenance.pass_latency_us.ok");
  ASSERT_NE(ok_lat, nullptr);
  EXPECT_EQ(ok_lat->hist.count(), 2);
  const obs::MetricPoint* bad_lat =
      snap.Find("maintenance.pass_latency_us.bad");
  ASSERT_NE(bad_lat, nullptr);
  EXPECT_EQ(bad_lat->hist.count(), 1);
  const obs::MetricPoint* errors = snap.Find("maintenance.pass_errors");
  ASSERT_NE(errors, nullptr);
  EXPECT_EQ(errors->value, 1.0);
}

// --- MetricsExportPolicy ----------------------------------------------------

TEST(MetricsExportPolicyTest, ScheduledExportEmitsRegistrySnapshots) {
  obs::MetricsRegistry reg;
  reg.GetCounter("export.probe")->Add(13);
  std::vector<std::string> lines;
  MetricsExportPolicyOptions eopt;
  eopt.registry = &reg;
  eopt.sink = [&lines](const std::string& line) { lines.push_back(line); };

  MaintenanceSchedulerOptions sopt;
  sopt.registry = &reg;
  MaintenanceScheduler scheduler(sopt);
  scheduler.AddPolicy(std::make_unique<MetricsExportPolicy>(eopt), {});
  auto report = scheduler.RunOnceForTest("metrics_export");
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report.value().acted);
  EXPECT_NE(report.value().detail.find("exported"), std::string::npos);
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_NE(lines[0].find("\"ts_monotonic_us\":"), std::string::npos);
  EXPECT_NE(lines[0].find("\"export.probe\":13"), std::string::npos);
  // The scheduler's own pass telemetry shows up in the next export.
  ASSERT_TRUE(scheduler.RunOnceForTest("metrics_export").ok());
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_NE(lines[1].find("maintenance.pass_latency_us.metrics_export"),
            std::string::npos);
}

// --- CompactionPolicy -------------------------------------------------------

TEST(CompactionPolicyTest, EntryThresholdTriggersCompactAndTruncate) {
  HeteroGraph g = MakeTinyGraph(8);
  GraphDeltaLog log(1);
  auto dyn_owner = MakeDynamic(&g);
  DynamicHeteroGraph& dyn = *dyn_owner;
  CompactionPolicyOptions opt;
  opt.max_delta_entries = 4;  // 2 events = 4 half-edges
  CompactionPolicy policy(&dyn, &log, /*clock=*/nullptr, opt);

  // Below threshold: the policy inspects and stands down.
  ASSERT_TRUE(
      dyn.ApplyBatch(
             MakeBatch(&log, 0, {{1, 2, RelationKind::kClick, 1.0f, 0}}))
          .ok());
  auto r = policy.RunOnce();
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r.value().acted);
  EXPECT_GT(dyn.num_delta_entries(), 0);

  // Crossing it folds the overlay and truncates the log.
  ASSERT_TRUE(
      dyn.ApplyBatch(
             MakeBatch(&log, 0, {{1, 3, RelationKind::kClick, 2.0f, 0}}))
          .ok());
  const uint64_t gen_before = dyn.base_generation();
  r = policy.RunOnce();
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.value().acted);
  EXPECT_TRUE(r.value().graph_rebuilt);
  EXPECT_EQ(policy.compactions(), 1);
  EXPECT_EQ(dyn.num_delta_entries(), 0);
  EXPECT_EQ(log.Stats().total_events, 0);
  EXPECT_EQ(dyn.base_generation(), gen_before + 1);
  EXPECT_EQ(dyn.base()->degree(1), 3);  // user + items 2, 3 folded in
}

TEST(CompactionPolicyTest, AgeThresholdFiresOnLogicalClock) {
  HeteroGraph g = MakeTinyGraph(4);
  GraphDeltaLog log(1);
  auto dyn_owner = MakeDynamic(&g);
  DynamicHeteroGraph& dyn = *dyn_owner;
  ManualClock clock(1000);
  CompactionPolicyOptions opt;
  opt.max_delta_entries = 0;  // entry-count trigger off
  opt.max_delta_age_seconds = 60;
  CompactionPolicy policy(&dyn, &log, &clock, opt);

  ASSERT_TRUE(
      dyn.ApplyBatch(
             MakeBatch(&log, 0, {{1, 2, RelationKind::kClick, 1.0f, 1000}}))
          .ok());
  auto r = policy.RunOnce();  // marks deltas pending at t=1000
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r.value().acted);

  clock.AdvanceSeconds(59);
  ASSERT_TRUE(policy.RunOnce().ok());
  EXPECT_EQ(policy.compactions(), 0);

  clock.AdvanceSeconds(1);  // pending for exactly 60s now
  r = policy.RunOnce();
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.value().acted);
  EXPECT_EQ(dyn.num_delta_entries(), 0);
}

// --- TTL / decay on the manual logical clock --------------------------------

TEST(TtlDecayTest, EdgesPastTtlAreExcludedDeterministically) {
  // Base: query 1 -> user 0 (w=1), item 2 (w=1). Deltas: item 3 at t=0,
  // item 4 at t=100. With ttl=50 and the clock at 120, item 3 (age 120) is
  // out and item 4 (age 20) is in — bit-for-bit reproducible, no sleeps.
  HeteroGraph g = MakeTinyGraph(4, {1.0f});
  GraphDeltaLog log(1);
  auto dyn_owner = MakeDynamic(&g);
  DynamicHeteroGraph& dyn = *dyn_owner;
  ManualClock clock(120);
  MaintenanceScheduler scheduler;
  scheduler.AddPolicy(std::make_unique<TtlDecayPolicy>(
                          &dyn, &clock, DecaySpec::Window(50, 0.0)),
                      {});

  ASSERT_TRUE(
      dyn.ApplyBatch(MakeBatch(&log, 0,
                               {{1, 3, RelationKind::kClick, 5.0f, 0},
                                {1, 4, RelationKind::kClick, 2.0f, 100}}))
          .ok());

  auto snap = dyn.MakeSnapshot();
  EXPECT_TRUE(snap.decay_active());
  EXPECT_EQ(snap.as_of_seconds(), 120);
  EXPECT_EQ(snap.DeltaDegree(1), 1);  // item 3 aged out
  EXPECT_EQ(snap.Degree(1), 3);
  EXPECT_NEAR(snap.TotalWeight(1), 4.0, 1e-9);  // 1 + 1 + 2 (no 5)

  std::vector<graph::NeighborEntry> merged;
  snap.Neighbors(1, &merged);
  ASSERT_EQ(merged.size(), 3u);
  for (const auto& e : merged) EXPECT_NE(e.neighbor, 3);

  Rng rng(17);
  for (int i = 0; i < 5000; ++i) {
    EXPECT_NE(snap.SampleNeighbor(1, &rng), 3);
  }

  // The physical entries are still there until the janitor sweeps; the
  // exclusion above is purely the read-time window.
  EXPECT_EQ(dyn.num_delta_entries(), 4);
  auto r = scheduler.RunOnceForTest("ttl_decay");
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.value().acted);
  ASSERT_EQ(r.value().touched.size(), 2u);  // both endpoints of (1, 3)
  EXPECT_EQ(dyn.num_delta_entries(), 2);    // (1, 4) halves survive

  // Sweeping changed nothing a decay-aware reader can observe.
  auto after = dyn.MakeSnapshot();
  EXPECT_EQ(after.Degree(1), 3);
  EXPECT_NEAR(after.TotalWeight(1), 4.0, 1e-9);

  // Once everything ages out, reads drop to the pure base path.
  clock.SetSeconds(1000);
  ASSERT_TRUE(scheduler.RunOnceForTest("ttl_decay").ok());
  EXPECT_EQ(dyn.num_delta_entries(), 0);
  auto empty = dyn.MakeSnapshot();
  EXPECT_FALSE(empty.HasDelta(1));
  EXPECT_EQ(empty.Degree(1), 2);  // base user + item 2
}

TEST(TtlDecayTest, DecayedWeightsAlterSampledDistribution) {
  // Base: query 1 -> user 0 (w=1), item 2 (w=1); delta item 3 (w=4, t=0).
  // At age = one half-life the delta contributes weight 2, so the exact
  // distribution is {0: 1/4, 2: 1/4, 3: 2/4} — versus {1/6, 1/6, 4/6} raw.
  HeteroGraph g = MakeTinyGraph(4, {1.0f});
  GraphDeltaLog log(1);
  auto dyn_owner = MakeDynamic(&g);
  DynamicHeteroGraph& dyn = *dyn_owner;
  ManualClock clock(100);
  TtlDecayPolicy policy(&dyn, &clock, DecaySpec::Window(0, 100.0));

  ASSERT_TRUE(
      dyn.ApplyBatch(
             MakeBatch(&log, 0, {{1, 3, RelationKind::kClick, 4.0f, 0}}))
          .ok());
  auto snap = dyn.MakeSnapshot();
  EXPECT_NEAR(snap.TotalWeight(1), 4.0, 1e-6);  // 1 + 1 + 4/2

  auto freq = SampleFrequencies(snap, 1, 60000, 23);
  EXPECT_NEAR(freq[0], 0.25, 0.015);
  EXPECT_NEAR(freq[2], 0.25, 0.015);
  EXPECT_NEAR(freq[3], 0.50, 0.015);

  // One more half-life: the same edge now counts 1 of 3.
  clock.AdvanceSeconds(100);
  auto older = dyn.MakeSnapshot();
  EXPECT_NEAR(older.TotalWeight(1), 3.0, 1e-6);
  auto freq2 = SampleFrequencies(older, 1, 60000, 29);
  EXPECT_NEAR(freq2[3], 1.0 / 3.0, 0.015);

  // The merged neighbor list reports the decayed weight too.
  std::vector<graph::NeighborEntry> merged;
  older.Neighbors(1, &merged);
  for (const auto& e : merged) {
    if (e.neighbor == 3) {
      EXPECT_NEAR(e.weight, 1.0f, 1e-5f);
    }
  }
}

TEST(TtlDecayTest, PerViewWindowsServeTwoHorizonsFromOneStream) {
  HeteroGraph g = MakeTinyGraph(4);
  GraphDeltaLog log(1);
  auto dyn_owner = MakeDynamic(&g);
  DynamicHeteroGraph& dyn = *dyn_owner;
  ManualClock clock(24 * 3600);
  // Install only the clock; each view brings its own window.
  dyn.SetClock(&clock);

  // A click from half an hour ago and one from twenty hours ago.
  ASSERT_TRUE(dyn.ApplyBatch(
                     MakeBatch(&log, 0,
                               {{1, 2, RelationKind::kClick, 1.0f,
                                 24 * 3600 - 1800},
                                {1, 3, RelationKind::kClick, 1.0f,
                                 4 * 3600}}))
                  .ok());

  DynamicGraphView hour_view(&dyn, DecaySpec::Window(3600, 0.0));
  DynamicGraphView day_view(&dyn, DecaySpec::Window(24 * 3600, 0.0));
  EXPECT_EQ(hour_view.degree(1), 2);  // base user edge + the recent click
  EXPECT_EQ(day_view.degree(1), 3);   // both clicks

  graph::NeighborScratch scratch;
  auto hour_block = hour_view.Neighbors(1, &scratch);
  for (int64_t i = 0; i < hour_block.size(); ++i) {
    EXPECT_NE(hour_block.ids[i], 3);
  }
  graph::NeighborScratch day_scratch;
  auto day_block = day_view.Neighbors(1, &day_scratch);
  bool sees_old = false;
  for (int64_t i = 0; i < day_block.size(); ++i) {
    sees_old |= day_block.ids[i] == 3;
  }
  EXPECT_TRUE(sees_old);

  // Refresh re-reads the clock: one more hour retires the newer click from
  // the 1-hour view while the 1-day view keeps both.
  clock.AdvanceSeconds(3600);
  hour_view.Refresh();
  day_view.Refresh();
  EXPECT_EQ(hour_view.degree(1), 1);
  EXPECT_EQ(day_view.degree(1), 3);
}

TEST(TtlDecayTest, CompactDropsExpiredEntriesInsteadOfResurrecting) {
  // An entry past its TTL is invisible to every decay-aware reader; a
  // compaction racing the GC sweep must not fold it into the (never
  // windowed) base CSR at full weight. Surviving entries fold at raw
  // weight — graduation into the offline aggregate.
  HeteroGraph g = MakeTinyGraph(4);
  GraphDeltaLog log(1);
  auto dyn_owner = MakeDynamic(&g);
  DynamicHeteroGraph& dyn = *dyn_owner;
  ManualClock clock(120);
  TtlDecayPolicy policy(&dyn, &clock, DecaySpec::Window(50, 100.0));

  ASSERT_TRUE(
      dyn.ApplyBatch(MakeBatch(&log, 0,
                               {{1, 3, RelationKind::kClick, 5.0f, 0},
                                {1, 4, RelationKind::kClick, 2.0f, 100}}))
          .ok());
  // Compact WITHOUT a prior expiry sweep: (1, 3) is expired (age 120) and
  // must vanish; (1, 4) is alive (age 20, decayed for readers) and must
  // fold at its raw weight 2.
  ASSERT_TRUE(dyn.Compact().ok());
  auto base = dyn.base();
  EXPECT_EQ(base->degree(1), 2);  // user edge + item 4 only
  auto ids = base->neighbor_ids(1);
  auto weights = base->neighbor_weights(1);
  for (size_t i = 0; i < ids.size(); ++i) {
    EXPECT_NE(ids[i], 3);
    if (ids[i] == 4) {
      EXPECT_FLOAT_EQ(weights[i], 2.0f);
    }
  }
}

// --- HotNodeOverlayCache ----------------------------------------------------

TEST(HotNodeCacheTest, MaterializedSamplingMatchesExactWeights) {
  // Base: query 1 -> user 0 (w=1), item 2 (w=1), item 3 (w=3). Deltas: +4
  // on item 4 and +2 on item 3 => exact distribution {0: 1/11, 2: 1/11,
  // 3: 5/11, 4: 4/11}, identical to streaming_test's uncached expectation.
  HeteroGraph g = MakeTinyGraph(4, {1.0f, 3.0f});
  GraphDeltaLog log(1);
  auto dyn_owner = MakeDynamic(&g);
  DynamicHeteroGraph& dyn = *dyn_owner;
  HotNodeCacheOptions copt;
  copt.min_delta_entries = 2;
  HotNodeOverlayCache cache(g.num_nodes(), copt);
  HotNodeRefreshPolicy policy(&dyn, &cache);  // attaches the cache

  ASSERT_TRUE(
      dyn.ApplyBatch(MakeBatch(&log, 0,
                               {{1, 4, RelationKind::kClick, 4.0f, 0},
                                {1, 3, RelationKind::kClick, 2.0f, 0}}))
          .ok());
  auto r = policy.RunOnce();
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.value().acted);
  EXPECT_EQ(cache.size(), 1u);  // node 1 crossed the threshold

  auto snap = dyn.MakeSnapshot();
  auto freq = SampleFrequencies(snap, 1, 60000, 31);
  EXPECT_NEAR(freq[0], 1.0 / 11, 0.01);
  EXPECT_NEAR(freq[2], 1.0 / 11, 0.01);
  EXPECT_NEAR(freq[3], 5.0 / 11, 0.015);
  EXPECT_NEAR(freq[4], 4.0 / 11, 0.015);
  EXPECT_GT(cache.Stats().hits, 0);

  // Batched distinct draws ride the alias table too.
  Rng rng(5);
  auto distinct = snap.SampleDistinctNeighbors(1, 10, &rng);
  EXPECT_GE(distinct.size(), 3u);
  for (NodeId nb : distinct) {
    EXPECT_TRUE(nb == 0 || nb == 2 || nb == 3 || nb == 4);
  }

  // Neighbors through the cache equals the uncached merge.
  std::vector<graph::NeighborEntry> cached_merge;
  snap.Neighbors(1, &cached_merge);
  cache.Clear();
  std::vector<graph::NeighborEntry> slow_merge;
  dyn.MakeSnapshot().Neighbors(1, &slow_merge);
  ASSERT_EQ(cached_merge.size(), slow_merge.size());
  for (size_t i = 0; i < slow_merge.size(); ++i) {
    EXPECT_EQ(cached_merge[i].neighbor, slow_merge[i].neighbor);
    EXPECT_FLOAT_EQ(cached_merge[i].weight, slow_merge[i].weight);
  }
}

TEST(HotNodeCacheTest, ApplyInvalidatesAndFreshEdgesStayVisible) {
  HeteroGraph g = MakeTinyGraph(6, {1.0f});
  GraphDeltaLog log(1);
  auto dyn_owner = MakeDynamic(&g);
  DynamicHeteroGraph& dyn = *dyn_owner;
  HotNodeCacheOptions copt;
  copt.min_delta_entries = 1;
  HotNodeOverlayCache cache(g.num_nodes(), copt);
  HotNodeRefreshPolicy policy(&dyn, &cache);

  ASSERT_TRUE(
      dyn.ApplyBatch(
             MakeBatch(&log, 0, {{1, 3, RelationKind::kClick, 1.0f, 0}}))
          .ok());
  ASSERT_TRUE(policy.RunOnce().ok());
  ASSERT_GE(cache.size(), 1u);

  // A new batch on the cached node must not serve the stale merge: the
  // apply eagerly evicts, and the version check would reject it anyway.
  ASSERT_TRUE(
      dyn.ApplyBatch(
             MakeBatch(&log, 0, {{1, 5, RelationKind::kClick, 100.0f, 0}}))
          .ok());
  auto snap = dyn.MakeSnapshot();
  Rng rng(3);
  int hits5 = 0;
  for (int i = 0; i < 2000; ++i) hits5 += snap.SampleNeighbor(1, &rng) == 5;
  EXPECT_GT(hits5, 1500);  // 100/103 of the mass — never the stale list
  EXPECT_GT(cache.Stats().invalidations, 0);

  // Compaction clears everything.
  ASSERT_TRUE(policy.RunOnce().ok());
  ASSERT_GE(cache.size(), 1u);
  ASSERT_TRUE(dyn.Compact().ok());
  EXPECT_EQ(cache.size(), 0u);
}

TEST(HotNodeCacheTest, DecayedEntriesExpireWithTheClock) {
  HeteroGraph g = MakeTinyGraph(4, {1.0f});
  GraphDeltaLog log(1);
  auto dyn_owner = MakeDynamic(&g);
  DynamicHeteroGraph& dyn = *dyn_owner;
  ManualClock clock(100);
  TtlDecayPolicy decay(&dyn, &clock, DecaySpec::Window(0, 100.0));
  HotNodeCacheOptions copt;
  copt.min_delta_entries = 1;
  copt.decay_staleness_tolerance_seconds = 0;
  HotNodeOverlayCache cache(g.num_nodes(), copt);
  HotNodeRefreshPolicy policy(&dyn, &cache);

  ASSERT_TRUE(
      dyn.ApplyBatch(
             MakeBatch(&log, 0, {{1, 3, RelationKind::kClick, 4.0f, 0}}))
          .ok());
  ASSERT_TRUE(policy.RunOnce().ok());

  // Same as_of: entry serves, with decayed total (1 + 1 + 2).
  auto snap = dyn.MakeSnapshot();
  std::vector<graph::NeighborEntry> merged;
  snap.Neighbors(1, &merged);
  EXPECT_GT(cache.Stats().hits, 0);
  for (const auto& e : merged) {
    if (e.neighbor == 3) {
      EXPECT_NEAR(e.weight, 2.0f, 1e-5f);
    }
  }

  // Clock moved: decayed weights drifted, the stale as_of must not serve.
  clock.AdvanceSeconds(100);
  const int64_t hits_before = cache.Stats().hits;
  auto later = dyn.MakeSnapshot();
  later.Neighbors(1, &merged);
  EXPECT_EQ(cache.Stats().hits, hits_before);
  for (const auto& e : merged) {
    if (e.neighbor == 3) {
      EXPECT_NEAR(e.weight, 1.0f, 1e-5f);
    }
  }

  // The next refresh re-materializes at the new as_of and serves again.
  ASSERT_TRUE(policy.RunOnce().ok());
  auto freshest = dyn.MakeSnapshot();
  freshest.Neighbors(1, &merged);
  EXPECT_GT(cache.Stats().hits, hits_before);

  // A per-view window with a different horizon must not be handed the
  // graph-default merge: same as_of, different spec => miss + correct
  // (raw-weight) resolution through the slow path.
  const int64_t hits_after_refresh = cache.Stats().hits;
  auto wide = dyn.MakeSnapshot(DecaySpec::Window(0, 100000.0));
  wide.Neighbors(1, &merged);
  EXPECT_EQ(cache.Stats().hits, hits_after_refresh);
  for (const auto& e : merged) {
    // Half-life 100000s at age 200 is ~full weight, far from the 1.0 the
    // graph-default (half-life 100) merge carries.
    if (e.neighbor == 3) {
      EXPECT_GT(e.weight, 3.9f);
    }
  }
}

// --- Janitor-triggered Compact() racing mid-ingest --------------------------

TEST(JanitorRaceTest, ScheduledCompactionRacesIngestAndPinnedSnapshots) {
  // Extends PR 2's quiescence test: compaction is now fired by the
  // maintenance scheduler on a tight jittered period (with the hot-node
  // refresh policy churning the cache alongside) while sessions stream in
  // and reader threads hold pinned snapshots. Every applied half-edge must
  // be conserved across however many folds land mid-ingest.
  HeteroGraph g = MakeTinyGraph(40);
  double base_total = 0.0;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    for (float w : g.neighbor_weights(v)) base_total += w;
  }
  GraphDeltaLog log(4);
  auto dyn_owner = MakeDynamic(&g);
  DynamicHeteroGraph& dyn = *dyn_owner;
  streaming::IngestOptions iopt;
  iopt.num_shards = 4;
  iopt.batch_size = 8;
  streaming::IngestPipeline pipeline(&log, &dyn, iopt);
  pipeline.Start();

  HotNodeCacheOptions copt;
  copt.min_delta_entries = 2;
  HotNodeOverlayCache cache(g.num_nodes(), copt);

  MaintenanceScheduler scheduler;
  CompactionPolicyOptions popt;
  popt.max_delta_entries = 1;  // every janitor tick compacts
  PolicySchedule fast;
  fast.period_ms = 2;
  scheduler.AddPolicy(
      std::make_unique<CompactionPolicy>(&dyn, &log, nullptr, popt), fast);
  scheduler.AddPolicy(std::make_unique<HotNodeRefreshPolicy>(&dyn, &cache),
                      fast);
  scheduler.Start();

  // Readers pin snapshots and sample while folds land. A pinned snapshot
  // may lose delta visibility to a compaction (documented short-lease
  // contract) but must never return an invalid neighbor or crash.
  std::atomic<bool> stop_readers{false};
  std::vector<std::thread> readers;
  for (int t = 0; t < 2; ++t) {
    readers.emplace_back([&, t] {
      Rng rng(100 + t);
      while (!stop_readers.load()) {
        auto snap = dyn.MakeSnapshot();
        for (int i = 0; i < 50; ++i) {
          const NodeId nb = snap.SampleNeighbor(1, &rng);
          ASSERT_GE(nb, 0);
          ASSERT_LT(nb, g.num_nodes());
          std::vector<graph::NeighborEntry> merged;
          snap.Neighbors(1, &merged);
          ASSERT_GE(merged.size(), 1u);
        }
      }
    });
  }

  Rng rng(3);
  for (int i = 0; i < 400; ++i) {
    graph::SessionRecord session;
    session.user = 0;
    session.query = 1;
    session.clicks = {2 + static_cast<NodeId>(rng.Uniform(40)),
                      2 + static_cast<NodeId>(rng.Uniform(40))};
    ASSERT_TRUE(pipeline.Offer(session));
  }
  pipeline.Flush();
  stop_readers.store(true);
  for (auto& r : readers) r.join();
  scheduler.Stop();

  auto stats = pipeline.Stats();
  EXPECT_EQ(stats.events_applied, stats.events);
  EXPECT_EQ(pipeline.events_dropped(), 0);
  auto sched_stats = scheduler.Stats();
  EXPECT_GT(sched_stats[0].actions, 0) << "no compaction ever fired";

  // Mass conservation across scheduled folds: every applied event added
  // weight 1 to each endpoint, in the rebuilt CSR or a delta overlay.
  auto snap = dyn.MakeSnapshot();
  double total = 0.0;
  for (NodeId v = 0; v < g.num_nodes(); ++v) total += snap.TotalWeight(v);
  EXPECT_NEAR(total, base_total + 2.0 * stats.events_applied, 0.5);

  auto folded = dyn.Compact();
  ASSERT_TRUE(folded.ok());
  log.Truncate(folded.value());
  EXPECT_EQ(dyn.num_delta_entries(), 0);
  pipeline.Stop();
}

TEST(JanitorRaceTest, NodeIngestRacesScheduledCompaction) {
  // Id-space growth under the janitor: the producer keeps minting
  // brand-new item nodes (with their introducing edges) through the
  // pipeline while the scheduler compacts on a tight period and reader
  // threads hold pinned snapshots. Every minted node must survive however
  // many folds land — appended into a rebuilt base or still in the overlay
  // — and no reader may ever observe an id beyond its pin.
  HeteroGraph g = MakeTinyGraph(10);
  GraphDeltaLog log(2);
  auto dyn_owner = MakeDynamic(&g);
  DynamicHeteroGraph& dyn = *dyn_owner;
  streaming::IngestOptions iopt;
  iopt.num_shards = 2;
  iopt.batch_size = 4;
  streaming::IngestPipeline pipeline(&log, &dyn, iopt);
  pipeline.Start();

  MaintenanceScheduler scheduler;
  CompactionPolicyOptions popt;
  popt.max_delta_entries = 1;  // every janitor tick compacts
  PolicySchedule fast;
  fast.period_ms = 2;
  scheduler.AddPolicy(
      std::make_unique<CompactionPolicy>(&dyn, &log, nullptr, popt), fast);
  scheduler.Start();

  std::atomic<bool> stop_readers{false};
  std::vector<std::thread> readers;
  for (int t = 0; t < 2; ++t) {
    readers.emplace_back([&, t] {
      Rng rng(50 + t);
      while (!stop_readers.load()) {
        auto snap = dyn.MakeSnapshot();
        const int64_t pinned = snap.num_nodes();
        for (int i = 0; i < 50; ++i) {
          const NodeId nb = snap.SampleNeighbor(1, &rng);
          ASSERT_GE(nb, 0);
          ASSERT_LT(nb, pinned);
        }
        ASSERT_EQ(snap.num_nodes(), pinned);  // a pin never grows
      }
    });
  }

  const int kMints = 120;
  std::vector<NodeId> minted;
  Rng rng(9);
  for (int i = 0; i < kMints; ++i) {
    streaming::NodeEvent ev;
    ev.type = NodeType::kItem;
    ev.content = std::vector<float>(kDim, 0.2f + 0.5f * rng.UniformFloat());
    ev.slots = {3};
    auto id = pipeline.OfferNewNode(
        std::move(ev), {{1, -1, RelationKind::kClick, 1.0f, 0}});
    ASSERT_TRUE(id.ok()) << id.status().ToString();
    minted.push_back(id.value());
    graph::SessionRecord session;
    session.user = 0;
    session.query = 1;
    session.clicks = {id.value()};
    ASSERT_TRUE(pipeline.Offer(session));
  }
  pipeline.Flush();
  stop_readers.store(true);
  for (auto& r : readers) r.join();
  scheduler.Stop();

  // Conservation: every minted id resolves with its type, and the weight
  // mass of its introducing click plus one session click survives wherever
  // the folds left it (a fold coalesces the two same-kind clicks into one
  // edge, so half-edge counts may shrink — mass never does).
  auto snap = dyn.MakeSnapshot();
  EXPECT_EQ(snap.num_nodes(), g.num_nodes() + kMints);
  for (NodeId id : minted) {
    EXPECT_EQ(snap.node_type(id), NodeType::kItem);
    EXPECT_GE(snap.Degree(id), 1);
    EXPECT_GE(snap.TotalWeight(id), 2.0 - 1e-6);
  }
  EXPECT_GT(scheduler.Stats()[0].actions, 0) << "no compaction ever fired";
  auto folded = dyn.Compact();
  ASSERT_TRUE(folded.ok());
  log.Truncate(folded.value());
  EXPECT_EQ(dyn.base()->num_nodes(), g.num_nodes() + kMints);
  EXPECT_EQ(dyn.num_delta_entries(), 0);
  pipeline.Stop();
}

// --- Typed neighbor ranges (GraphView::NeighborsOfType) ---------------------

TEST(NeighborsOfTypeTest, DynamicViewMergesTypedRangeWithoutFullMerge) {
  // Base: query 1 -> user 0 (w=1), items 2, 3 (w=1 each). Deltas: a new
  // item edge (1, 4), a weight increment on the existing (1, 2), and a
  // user-query increment on (0, 1).
  HeteroGraph g = MakeTinyGraph(4, {1.0f, 1.0f});
  GraphDeltaLog log(1);
  auto dyn_owner = MakeDynamic(&g);
  DynamicHeteroGraph& dyn = *dyn_owner;
  ASSERT_TRUE(
      dyn.ApplyBatch(MakeBatch(&log, 0,
                               {{1, 4, RelationKind::kClick, 2.0f, 0},
                                {1, 2, RelationKind::kClick, 3.0f, 0},
                                {0, 1, RelationKind::kClick, 5.0f, 0}}))
          .ok());
  DynamicGraphView view(&dyn);

  graph::NeighborScratch scratch;
  auto items = view.NeighborsOfType(1, NodeType::kItem, &scratch);
  ASSERT_EQ(items.size(), 3);  // base 2, 3 + fresh 4
  std::map<NodeId, float> by_id;
  for (int64_t i = 0; i < items.size(); ++i) {
    EXPECT_EQ(g.node_type(items.ids[i]), NodeType::kItem);
    by_id[items.ids[i]] = items.weights[i];
  }
  EXPECT_FLOAT_EQ(by_id[2], 4.0f);  // 1 base + 3 delta, coalesced
  EXPECT_FLOAT_EQ(by_id[3], 1.0f);
  EXPECT_FLOAT_EQ(by_id[4], 2.0f);

  graph::NeighborScratch user_scratch;
  auto users = view.NeighborsOfType(1, NodeType::kUser, &user_scratch);
  ASSERT_EQ(users.size(), 1);
  EXPECT_EQ(users.ids[0], 0);
  EXPECT_FLOAT_EQ(users.weights[0], 6.0f);  // 1 base + 5 delta

  // The typed union must equal the full merge filtered by type.
  graph::NeighborScratch full_scratch;
  auto full = view.Neighbors(1, &full_scratch);
  EXPECT_EQ(full.size(), items.size() + users.size());

  // Untouched node: the static view's zero-copy sub-span semantics.
  graph::NeighborScratch s2;
  auto untouched = view.NeighborsOfType(3, NodeType::kQuery, &s2);
  const graph::GraphView& csr = g;
  graph::NeighborScratch s3;
  auto expect = csr.NeighborsOfType(3, NodeType::kQuery, &s3);
  ASSERT_EQ(untouched.size(), expect.size());
  for (int64_t i = 0; i < expect.size(); ++i) {
    EXPECT_EQ(untouched.ids[i], expect.ids[i]);
  }
  EXPECT_EQ(expect.ids.data(),
            g.NeighborsOfType(3, NodeType::kQuery).ids.data());
}

// --- GNN baselines through GraphView ----------------------------------------

TEST(BaselineGraphViewTest, GnnBaselineScoresFreshEdgesThroughDynamicView) {
  // Distinct per-item slots so neighbor identity changes the aggregation.
  HeteroGraphBuilder b(kDim);
  b.AddNode(NodeType::kUser, std::vector<float>(kDim, 0.1f), {0});
  b.AddNode(NodeType::kQuery, std::vector<float>(kDim, 0.2f), {1});
  for (int i = 0; i < 6; ++i) {
    b.AddNode(NodeType::kItem, std::vector<float>(kDim, 0.3f), {2 + i});
  }
  ASSERT_TRUE(b.AddEdge(0, 1, RelationKind::kClick, 1.0f).ok());
  ASSERT_TRUE(b.AddEdge(1, 2, RelationKind::kClick, 1.0f).ok());
  ASSERT_TRUE(b.AddEdge(1, 3, RelationKind::kClick, 1.0f).ok());
  HeteroGraph g = b.Build();

  GraphDeltaLog log(1);
  auto dyn_owner = MakeDynamic(&g);
  DynamicHeteroGraph& dyn = *dyn_owner;
  ASSERT_TRUE(
      dyn.ApplyBatch(
             MakeBatch(&log, 0, {{1, 7, RelationKind::kClick, 4.0f, 0}}))
          .ok());
  DynamicGraphView view(&dyn);

  auto cfg = baselines::GnnBaselineConfig::GraphSage(/*hidden_dim=*/8,
                                                     /*k=*/8, /*seed=*/3);
  cfg.sampler.num_hops = 1;
  baselines::GnnBaselineModel model(&g, cfg);

  // k >= degree makes uniform sampling exhaustive, so the embedding is a
  // deterministic function of the visible neighborhood.
  Rng r1(11);
  auto uq_static = model.UserQueryEmbeddingInference(0, 1, &r1);
  model.AttachGraphView(&view);
  EXPECT_EQ(&model.view(), &view);
  Rng r2(11);
  auto uq_fresh = model.UserQueryEmbeddingInference(0, 1, &r2);
  // The freshly ingested (1, 7) click enters the query ROI, so the scores
  // must move — the static baselines were blind to streamed edges before.
  bool moved = false;
  for (size_t i = 0; i < uq_static.size(); ++i) {
    moved |= std::abs(uq_static[i] - uq_fresh[i]) > 1e-6f;
  }
  EXPECT_TRUE(moved);

  // Detaching restores the construction-graph view bit-for-bit.
  model.AttachGraphView(nullptr);
  Rng r3(11);
  auto uq_back = model.UserQueryEmbeddingInference(0, 1, &r3);
  ASSERT_EQ(uq_back.size(), uq_static.size());
  for (size_t i = 0; i < uq_back.size(); ++i) {
    EXPECT_FLOAT_EQ(uq_back[i], uq_static[i]);
  }
}

// --- Serving-layer coordination ---------------------------------------------

TEST(ServingMaintenanceTest, TtlSweepInvalidatesNeighborCacheViaScheduler) {
  // An ingested click surfaces in the serving NeighborCache; once it ages
  // past TTL, the janitor sweep's touched-node report must flow through
  // OnlineServer::AttachMaintenance into an invalidation + windowed re-fill.
  const int dim = 8;
  const int num_items = 6;
  HeteroGraph g = MakeTinyGraph(num_items);
  std::vector<float> node_emb(g.num_nodes() * dim, 0.0f);
  std::vector<NodeId> item_ids;
  std::vector<float> item_emb(num_items * dim, 0.0f);
  for (int i = 0; i < num_items; ++i) {
    item_ids.push_back(2 + i);
    item_emb[static_cast<int64_t>(i) * dim + i] = 1.0f;
  }
  serving::OnlineServerOptions sopt;
  sopt.embedding_dim = dim;
  sopt.top_n = 3;
  serving::OnlineServer server(&g, sopt, node_emb, item_ids, item_emb);

  GraphDeltaLog log(2);
  auto dyn_owner = MakeDynamic(&g);
  DynamicHeteroGraph& dyn = *dyn_owner;
  server.AttachDynamicGraph(&dyn);
  ManualClock clock(1000);
  MaintenanceScheduler scheduler;
  scheduler.AddPolicy(std::make_unique<TtlDecayPolicy>(
                          &dyn, &clock, DecaySpec::Window(500, 0.0)),
                      {});
  server.AttachMaintenance(&scheduler);

  streaming::IngestOptions iopt;
  iopt.num_shards = 2;
  streaming::IngestPipeline pipeline(&log, &dyn, iopt);
  pipeline.AddUpdateListener([&](uint64_t epoch, const std::vector<NodeId>& nodes) {
    server.OnGraphUpdate(epoch, nodes);
  });
  pipeline.Start();

  const NodeId fresh_item = 2 + 3;
  graph::SessionRecord session;
  session.user = 0;
  session.query = 1;
  session.clicks = {fresh_item};
  session.timestamp = 1000;
  server.WarmCache({0, 1});
  ASSERT_TRUE(pipeline.Offer(session));
  pipeline.Flush();

  auto query_has_item = [&] {
    std::vector<NodeId> out;
    // Warm-path read: the cache was invalidated by the hooks, so poll for
    // the async re-fill to land.
    for (int i = 0; i < 2000; ++i) {
      if (server.cache().Get(1, &out)) {
        return std::find(out.begin(), out.end(), fresh_item) != out.end();
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return false;
  };
  EXPECT_TRUE(query_has_item());

  // Age the click past its TTL and sweep: the report's touched nodes reach
  // the server's NeighborCache, and the re-fill excludes the expired edge.
  clock.AdvanceSeconds(600);
  auto r = scheduler.RunOnceForTest("ttl_decay");
  ASSERT_TRUE(r.ok());
  ASSERT_TRUE(r.value().acted);
  bool gone = false;
  for (int i = 0; i < 2000 && !gone; ++i) {
    std::vector<NodeId> out;
    if (server.cache().Get(1, &out)) {
      gone = std::find(out.begin(), out.end(), fresh_item) == out.end();
    }
    if (!gone) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(gone);
  pipeline.Stop();
}

// --- Incremental compaction policy (per-segment, adaptive hotness) ----------

/// 16-node graph (user 0, query 1, items 2..15) partitioned into four
/// 4-row segments.
std::unique_ptr<DynamicHeteroGraph> MakeSegmented(const HeteroGraph* g) {
  streaming::DynamicHeteroGraphOptions opt;
  opt.segment_span = 4;
  return std::make_unique<DynamicHeteroGraph>(g, opt);
}

TEST(IncrementalCompactionPolicyTest, FoldsOnlySegmentsOverBudget) {
  HeteroGraph g = MakeTinyGraph(14);
  GraphDeltaLog log(1);
  auto dyn_owner = MakeSegmented(&g);
  DynamicHeteroGraph& dyn = *dyn_owner;
  CompactionPolicyOptions opt;
  opt.max_delta_entries = 1 << 20;  // global safety net far away
  opt.segment_entry_budget = 6;
  opt.read_hot_boost = 1.0;  // pure entry budget (adaptation off)
  CompactionPolicy policy(&dyn, &log, /*clock=*/nullptr, opt);
  // A (non-expiring) TTL window makes the policy report folded_ranges —
  // without one, folds preserve distributions and report nothing.
  ManualClock clock;
  clock.SetSeconds(100);
  dyn.ConfigureDecay(DecaySpec::Window(1 << 30, 0.0), &clock);

  // Segment 2 (rows 8..11) runs hot: 4 same-segment edges = 8 half-edges
  // there. Segment 0 stays just warm: 1 edge = 2 half-edges.
  for (NodeId it = 8; it < 12; ++it) {
    ASSERT_TRUE(
        dyn.ApplyBatch(MakeBatch(
                           &log, 0,
                           {{it, it == 11 ? NodeId{8} : it + 1,
                             RelationKind::kSession, 1.0f, 0}}))
            .ok());
  }
  ASSERT_TRUE(
      dyn.ApplyBatch(
             MakeBatch(&log, 0, {{1, 2, RelationKind::kClick, 1.0f, 0}}))
          .ok());

  auto base_before = dyn.base();
  auto r = policy.RunOnce();
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.value().acted);
  EXPECT_EQ(policy.incremental_compactions(), 1);
  ASSERT_EQ(r.value().folded_ranges.size(), 1u);
  EXPECT_EQ(r.value().folded_ranges[0].first, 8);
  EXPECT_EQ(r.value().folded_ranges[0].second, 12);

  // Only segment 2 was rebuilt; segment 0's overlay survived untouched and
  // the other segments are shared pointers.
  auto base_after = dyn.base();
  EXPECT_NE(base_after->segment_ptr(2), base_before->segment_ptr(2));
  EXPECT_EQ(base_after->segment_ptr(0), base_before->segment_ptr(0));
  EXPECT_EQ(base_after->segment_ptr(1), base_before->segment_ptr(1));
  EXPECT_EQ(base_after->segment_ptr(3), base_before->segment_ptr(3));
  EXPECT_EQ(dyn.num_delta_entries(), 2);  // the warm segment-0 edge
  EXPECT_EQ(base_after->degree(8), 2);    // session ring folded in
  // The log keeps everything the warm overlay still pends on.
  EXPECT_GT(log.Stats().total_batches, 0);
  auto pressures = dyn.SegmentPressures();
  EXPECT_EQ(pressures[2].delta_entries, 0);
  EXPECT_EQ(pressures[0].delta_entries, 2);
  EXPECT_GT(pressures[2].folded_epoch, 0u);
}

TEST(IncrementalCompactionPolicyTest, ReadHotSegmentsFoldSooner) {
  HeteroGraph g = MakeTinyGraph(14);
  GraphDeltaLog log(1);
  auto dyn_owner = MakeSegmented(&g);
  DynamicHeteroGraph& dyn = *dyn_owner;
  CompactionPolicyOptions opt;
  opt.max_delta_entries = 1 << 20;
  // Neither segment reaches the static budget (each holds 4 half-edges);
  // with two dirty segments the fleet-average normalization lets a
  // read-hot one fold at just over half the budget.
  opt.segment_entry_budget = 7;
  opt.read_hot_boost = 4.0;
  CompactionPolicy policy(&dyn, &log, nullptr, opt);
  ManualClock clock;
  clock.SetSeconds(100);
  dyn.ConfigureDecay(DecaySpec::Window(1 << 30, 0.0), &clock);

  // Equal delta mass (4 half-edges each) in segments 2 and 3.
  ASSERT_TRUE(dyn.ApplyBatch(MakeBatch(&log, 0,
                                       {{8, 9, RelationKind::kSession, 1.f, 0},
                                        {10, 11, RelationKind::kSession, 1.f,
                                         0}}))
                  .ok());
  ASSERT_TRUE(dyn.ApplyBatch(MakeBatch(&log, 0,
                                       {{12, 13, RelationKind::kSession, 1.f,
                                         0},
                                        {14, 15, RelationKind::kSession, 1.f,
                                         0}}))
                  .ok());
  // First pass baselines the read counters (nothing folds yet).
  auto r = policy.RunOnce();
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r.value().acted);

  // Hammer overlay reads on segment 2 only.
  auto snap = dyn.MakeSnapshot();
  Rng rng(3);
  for (int i = 0; i < 512; ++i) {
    snap.SampleNeighbor(8 + (i % 4), &rng);
  }
  r = policy.RunOnce();
  ASSERT_TRUE(r.ok());
  ASSERT_TRUE(r.value().acted) << "read-hot segment should fold below budget";
  ASSERT_EQ(r.value().folded_ranges.size(), 1u);
  EXPECT_EQ(r.value().folded_ranges[0].first, 8);   // segment 2, not 3
  auto pressures = dyn.SegmentPressures();
  EXPECT_EQ(pressures[2].delta_entries, 0);
  EXPECT_EQ(pressures[3].delta_entries, 4);
}

TEST(HotNodeCacheTest, ReadHammeredSegmentsAdmitAtLowerDeltaThreshold) {
  // Admission is read-rate aware, not delta-count alone: nodes 8 (segment
  // 2) and 12 (segment 3) carry identical delta mass below the fleet
  // default floor, but only the segment whose overlay readers hammer it
  // earns materialization at the reduced floor.
  HeteroGraph g = MakeTinyGraph(14);
  GraphDeltaLog log(1);
  auto dyn_owner = MakeSegmented(&g);
  DynamicHeteroGraph& dyn = *dyn_owner;
  HotNodeCacheOptions copt;
  copt.min_delta_entries = 4;   // fleet default
  copt.read_admit_boost = 4.0;  // read-hot floor can drop to 1
  HotNodeOverlayCache cache(g.num_nodes(), copt);
  HotNodeRefreshPolicy policy(&dyn, &cache);

  // Two delta half-edges on node 8 and two on node 12 — both below 4.
  ASSERT_TRUE(dyn.ApplyBatch(MakeBatch(&log, 0,
                                       {{8, 9, RelationKind::kSession, 1.f, 0},
                                        {8, 10, RelationKind::kSession, 1.f,
                                         0}}))
                  .ok());
  ASSERT_TRUE(dyn.ApplyBatch(MakeBatch(&log, 0,
                                       {{12, 13, RelationKind::kSession, 1.f,
                                         0},
                                        {12, 14, RelationKind::kSession, 1.f,
                                         0}}))
                  .ok());
  // First pass baselines the read counters; no floor is boosted and no
  // node crosses the default threshold.
  auto r = policy.RunOnce();
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r.value().acted);
  EXPECT_EQ(cache.size(), 0u);

  // Hammer overlay reads on segment 2 only.
  {
    auto snap = dyn.MakeSnapshot();
    Rng rng(3);
    for (int i = 0; i < 512; ++i) {
      snap.SampleNeighbor(8 + (i % 3), &rng);
    }
  }
  r = policy.RunOnce();
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.value().acted) << "read-hot segment should admit below floor";
  EXPECT_GE(obs::MetricsRegistry::Global()
                ->GetGauge("maintenance.hot_cache.read_boosted_segments")
                ->Value(),
            1.0);
  auto snap = dyn.MakeSnapshot();
  const DecaySpec no_decay;
  EXPECT_TRUE(cache.IsFresh(8, dyn.node_epoch(8), snap.segment_generation(8),
                            /*decay_active=*/false, /*as_of_seconds=*/0,
                            no_decay));
  EXPECT_FALSE(cache.IsFresh(12, dyn.node_epoch(12),
                             snap.segment_generation(12),
                             /*decay_active=*/false, /*as_of_seconds=*/0,
                             no_decay));
}

TEST(IncrementalCompactionPolicyTest, GlobalThresholdStillForcesFullFold) {
  HeteroGraph g = MakeTinyGraph(14);
  GraphDeltaLog log(1);
  auto dyn_owner = MakeSegmented(&g);
  DynamicHeteroGraph& dyn = *dyn_owner;
  CompactionPolicyOptions opt;
  opt.max_delta_entries = 4;      // the legacy safety net
  opt.segment_entry_budget = 100;  // incremental alone would never trigger
  CompactionPolicy policy(&dyn, &log, nullptr, opt);

  ASSERT_TRUE(dyn.ApplyBatch(MakeBatch(&log, 0,
                                       {{1, 2, RelationKind::kClick, 1.f, 0},
                                        {8, 9, RelationKind::kSession, 1.f,
                                         0}}))
                  .ok());
  auto r = policy.RunOnce();
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.value().acted);
  EXPECT_EQ(policy.compactions(), 1);
  EXPECT_EQ(policy.incremental_compactions(), 0);
  EXPECT_EQ(dyn.num_delta_entries(), 0);
  EXPECT_EQ(log.Stats().total_events, 0);  // SafeTruncateEpoch == watermark
  // No TTL window => the fold preserved every distribution and reported no
  // ranges — serving caches see zero invalidation (no refill storm).
  EXPECT_TRUE(r.value().folded_ranges.empty());
}

TEST(TtlDecayTest, SweepTruncatesFullyExpiredLogBatches) {
  HeteroGraph g = MakeTinyGraph(4);
  GraphDeltaLog log(1);
  auto dyn_owner = MakeDynamic(&g);
  DynamicHeteroGraph& dyn = *dyn_owner;
  ManualClock clock;
  clock.SetSeconds(1000);
  DecaySpec spec = DecaySpec::Window(/*ttl_seconds=*/100, 0.0);
  TtlDecayPolicy policy(&dyn, &clock, spec, &log);

  // One aged batch, one fresh; both applied (watermark covers them).
  ASSERT_TRUE(dyn.ApplyBatch(MakeBatch(&log, 0,
                                       {{1, 2, RelationKind::kClick, 1.f,
                                         /*timestamp=*/850}},
                                       &dyn))
                  .ok());
  ASSERT_TRUE(dyn.ApplyBatch(MakeBatch(&log, 0,
                                       {{1, 3, RelationKind::kClick, 1.f,
                                         /*timestamp=*/990}},
                                       &dyn))
                  .ok());
  auto r = policy.RunOnce();
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.value().acted);
  // The overlay sweep dropped the aged entries AND the log dropped the
  // batch that carried them — a quiet stream no longer pins it until the
  // next fold.
  EXPECT_EQ(policy.log_batches_truncated(), 1);
  EXPECT_EQ(log.Stats().total_batches, 1);
  EXPECT_EQ(dyn.num_delta_entries(), 2);  // the fresh edge's two halves
}

}  // namespace
}  // namespace maintenance
}  // namespace zoomer
