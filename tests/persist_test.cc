// Tests for the durability layer: WAL encode/decode with torn-tail and
// corruption handling, incremental checkpointing on the segment seam,
// crash-restart recovery with bit-identical serving state (weighted draws
// and focal ROI sampling), clean failure Statuses on every corrupted
// artifact, and the janitor CheckpointPolicy cadence.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "common/random.h"
#include "core/roi_sampler.h"
#include "graph/graph_io.h"
#include "maintenance/checkpoint_policy.h"
#include "persist/checkpoint.h"
#include "persist/wal.h"
#include "streaming/dynamic_graph_view.h"
#include "streaming/dynamic_hetero_graph.h"
#include "streaming/graph_delta_log.h"

namespace zoomer {
namespace persist {
namespace {

namespace fs = std::filesystem;

using graph::HeteroGraph;
using graph::HeteroGraphBuilder;
using graph::NodeId;
using graph::NodeType;
using graph::RelationKind;
using streaming::DeltaBatch;
using streaming::DynamicHeteroGraph;
using streaming::DynamicHeteroGraphOptions;
using streaming::EdgeEvent;
using streaming::GraphDeltaLog;
using streaming::NodeEvent;

constexpr int kDim = 4;

/// Fresh scratch directory per test, removed on destruction.
struct TempDir {
  explicit TempDir(const std::string& tag) {
    path = (fs::path(::testing::TempDir()) / ("persist_" + tag)).string();
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~TempDir() { fs::remove_all(path); }
  std::string path;
};

/// user 0, query 1, items 2..2+num_items-1 with tie-free random content;
/// weighted base query-item edges on the first half of the items.
HeteroGraph MakeContentGraph(int num_items, uint64_t seed) {
  Rng rng(seed);
  HeteroGraphBuilder b(kDim);
  auto content = [&rng] {
    std::vector<float> c(kDim);
    for (auto& x : c) x = 0.05f + rng.UniformFloat();
    return c;
  };
  b.AddNode(NodeType::kUser, content(), {0});
  b.AddNode(NodeType::kQuery, content(), {1});
  for (int i = 0; i < num_items; ++i) {
    b.AddNode(NodeType::kItem, content(), {2});
  }
  EXPECT_TRUE(b.AddEdge(0, 1, RelationKind::kClick, 1.0f).ok());
  for (int i = 0; i < num_items / 2; ++i) {
    EXPECT_TRUE(b.AddEdge(1, 2 + static_cast<NodeId>(i), RelationKind::kClick,
                          0.5f + 3.0f * rng.UniformFloat())
                    .ok());
  }
  return b.Build();
}

DeltaBatch MakeBatch(GraphDeltaLog* log, int shard,
                     std::vector<EdgeEvent> events, DynamicHeteroGraph* track) {
  DeltaBatch batch;
  batch.events = std::move(events);
  batch.epoch = log->Append(shard, batch.events,
                            [track](uint64_t e) { track->NoteEpochIssued(e); });
  return batch;
}

NodeEvent MakeItemEvent(float fill, int64_t timestamp = 0) {
  NodeEvent ev;
  ev.type = NodeType::kItem;
  ev.content = std::vector<float>(kDim, fill);
  ev.slots = {7, 8};
  ev.timestamp = timestamp;
  return ev;
}

DeltaBatch MakeNodeBatch(GraphDeltaLog* log, int shard,
                         DynamicHeteroGraph* graph,
                         std::vector<NodeEvent> nodes,
                         std::vector<EdgeEvent> edges = {}) {
  DeltaBatch batch;
  auto epoch = log->AppendWithNodes(
      shard, &nodes, &edges,
      [graph](const std::vector<NodeEvent>& evs, uint64_t e) {
        return graph->AllocateNodeIds(evs, e);
      },
      [graph](uint64_t e) { graph->NoteEpochIssued(e); });
  EXPECT_TRUE(epoch.ok()) << epoch.status().ToString();
  batch.epoch = epoch.value();
  batch.node_events = std::move(nodes);
  batch.events = std::move(edges);
  return batch;
}

/// Deterministic serving fingerprint: per-node degree/total-weight plus a
/// fixed-seed weighted-draw sequence and a fixed-seed focal-top-k ROI.
struct Fingerprint {
  std::vector<std::pair<int, double>> rows;  // (degree, total weight)
  std::vector<NodeId> draws;
  std::vector<NodeId> roi;

  bool operator==(const Fingerprint& o) const {
    return rows == o.rows && draws == o.draws && roi == o.roi;
  }
};

Fingerprint FingerprintOf(const DynamicHeteroGraph& g) {
  Fingerprint fp;
  auto snap = g.MakeSnapshot();
  const int64_t n = g.num_nodes_allocated();
  Rng rng(123);
  for (NodeId id = 0; id < n; ++id) {
    fp.rows.push_back({snap.Degree(id), snap.TotalWeight(id)});
    if (snap.Degree(id) > 0) {
      for (int i = 0; i < 16; ++i) fp.draws.push_back(snap.SampleNeighbor(id, &rng));
    }
  }
  core::RoiSamplerOptions opts;
  opts.k = 4;
  opts.num_hops = 2;
  core::RoiSampler sampler(opts);
  streaming::DynamicGraphView view(&g);
  Rng roi_rng(77);
  const auto fc = sampler.FocalVector(view, {0, 1});
  const auto roi = sampler.Sample(view, 1, fc, &roi_rng);
  for (const auto& node : roi.nodes) fp.roi.push_back(node.id);
  return fp;
}

void FlipByteAt(const std::string& path, int64_t offset_from_end) {
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(f.good());
  f.seekg(0, std::ios::end);
  const int64_t size = f.tellg();
  ASSERT_GT(size, offset_from_end);
  f.seekp(size - offset_from_end);
  char c = 0;
  f.seekg(size - offset_from_end);
  f.read(&c, 1);
  c ^= 0x5A;
  f.seekp(size - offset_from_end);
  f.write(&c, 1);
}

// --- WAL ------------------------------------------------------------------

TEST(WalTest, RoundTripPreservesBatches) {
  TempDir dir("wal_roundtrip");
  const std::string path = (fs::path(dir.path) / WalFileName(1)).string();
  auto writer = WalWriter::Open(path);
  ASSERT_TRUE(writer.ok());

  DeltaBatch edges;
  edges.epoch = 3;
  edges.events = {{1, 2, RelationKind::kClick, 1.5f, 42},
                  {2, 1, RelationKind::kSession, 0.5f, 43}};
  DeltaBatch nodes;
  nodes.epoch = 4;
  nodes.node_events = {MakeItemEvent(0.6f, 99)};
  nodes.node_events[0].id = 17;
  nodes.events = {{1, 17, RelationKind::kClick, 2.0f, 99}};
  ASSERT_TRUE(writer.value()->Append(0, edges).ok());
  ASSERT_TRUE(writer.value()->Append(1, nodes).ok());
  EXPECT_EQ(writer.value()->max_epoch(), 4u);
  ASSERT_TRUE(writer.value()->Close().ok());

  auto read = ReadWal(path);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(read.value().torn_tail_records, 0);
  ASSERT_EQ(read.value().records.size(), 2u);
  const auto& r0 = read.value().records[0];
  EXPECT_EQ(r0.shard, 0);
  EXPECT_EQ(r0.batch.epoch, 3u);
  ASSERT_EQ(r0.batch.events.size(), 2u);
  EXPECT_EQ(r0.batch.events[0].src, 1);
  EXPECT_EQ(r0.batch.events[0].dst, 2);
  EXPECT_EQ(r0.batch.events[0].weight, 1.5f);
  EXPECT_EQ(r0.batch.events[1].kind, RelationKind::kSession);
  const auto& r1 = read.value().records[1];
  EXPECT_EQ(r1.shard, 1);
  ASSERT_EQ(r1.batch.node_events.size(), 1u);
  EXPECT_EQ(r1.batch.node_events[0].id, 17);
  EXPECT_EQ(r1.batch.node_events[0].timestamp, 99);
  EXPECT_EQ(r1.batch.node_events[0].content, std::vector<float>(kDim, 0.6f));
  EXPECT_EQ(r1.batch.node_events[0].slots, (std::vector<int64_t>{7, 8}));
}

TEST(WalTest, TornFinalRecordDroppedNotFatal) {
  TempDir dir("wal_torn");
  const std::string path = (fs::path(dir.path) / WalFileName(1)).string();
  auto writer = WalWriter::Open(path);
  ASSERT_TRUE(writer.ok());
  DeltaBatch b1, b2;
  b1.epoch = 1;
  b1.events = {{0, 1, RelationKind::kClick, 1.0f, 0}};
  b2.epoch = 2;
  b2.events = {{1, 0, RelationKind::kClick, 2.0f, 0}};
  ASSERT_TRUE(writer.value()->Append(0, b1).ok());
  ASSERT_TRUE(writer.value()->Append(0, b2).ok());
  ASSERT_TRUE(writer.value()->Close().ok());

  // Simulate a crash mid-write of the final record.
  const auto full = fs::file_size(path);
  fs::resize_file(path, full - 5);
  auto read = ReadWal(path);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(read.value().torn_tail_records, 1);
  ASSERT_EQ(read.value().records.size(), 1u);
  EXPECT_EQ(read.value().records[0].batch.epoch, 1u);
}

TEST(WalTest, CorruptPayloadIsAnError) {
  TempDir dir("wal_corrupt");
  const std::string path = (fs::path(dir.path) / WalFileName(1)).string();
  auto writer = WalWriter::Open(path);
  ASSERT_TRUE(writer.ok());
  DeltaBatch b1;
  b1.epoch = 1;
  b1.events = {{0, 1, RelationKind::kClick, 1.0f, 0}};
  ASSERT_TRUE(writer.value()->Append(0, b1).ok());
  ASSERT_TRUE(writer.value()->Close().ok());

  FlipByteAt(path, 3);  // inside the payload -> CRC mismatch
  auto read = ReadWal(path);
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kInvalidArgument);

  EXPECT_EQ(ReadWal((fs::path(dir.path) / "nope.log").string()).status().code(),
            StatusCode::kNotFound);
}

TEST(WalTest, FileNameRoundTrip) {
  const std::string name = WalFileName(42);
  uint64_t start = 0;
  ASSERT_TRUE(ParseWalFileName(name, &start));
  EXPECT_EQ(start, 42u);
  EXPECT_FALSE(ParseWalFileName("wal-abc.log", &start));
  EXPECT_FALSE(ParseWalFileName("seg-000001-g2.ckpt", &start));
}

// --- Checkpoint + recovery round trip -------------------------------------

TEST(RecoveryTest, CrashRestartIsBitIdentical) {
  TempDir dir("roundtrip");
  HeteroGraph g = MakeContentGraph(30, 7);  // 32 nodes
  DynamicHeteroGraphOptions opts;
  opts.segment_span = 8;
  DynamicHeteroGraph dyn(&g, opts);
  GraphDeltaLog log(2);
  DeltaLogPersister persister(&log, dir.path);
  ASSERT_TRUE(persister.Start(0).ok());

  // Pre-checkpoint ingest: edge deltas across segments plus two minted
  // nodes (one with an inbound edge placeholder).
  ASSERT_TRUE(dyn.ApplyBatch(MakeBatch(&log, 0,
                                       {{1, 20, RelationKind::kClick, 2.0f, 1},
                                        {1, 25, RelationKind::kClick, 1.0f, 1}},
                                       &dyn))
                  .ok());
  ASSERT_TRUE(
      dyn.ApplyBatch(MakeNodeBatch(&log, 1, &dyn, {MakeItemEvent(0.7f, 5)},
                                   {{1, -1, RelationKind::kClick, 3.0f, 5}}))
          .ok());
  ASSERT_TRUE(dyn.ApplyBatch(MakeBatch(&log, 0,
                                       {{0, 9, RelationKind::kSession, 1.0f, 6},
                                        {2, 3, RelationKind::kClick, 0.5f, 6}},
                                       &dyn))
                  .ok());
  // Partial fold: segment 0 absorbs its deltas, the rest stay pending in
  // the overlay — checkpoint recovery must replay them (and must NOT
  // double-apply what segment 0 already folded).
  ASSERT_TRUE(dyn.CompactSegments({0}).ok());

  CheckpointWriterOptions copts;
  copts.wal_shards = 2;
  CheckpointWriter writer(&dyn, dir.path, copts);
  auto stats = writer.Write();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  ASSERT_TRUE(persister.OnCheckpoint(stats.value().checkpoint_epoch).ok());

  // Post-checkpoint ingest: survives only in the WAL tail.
  ASSERT_TRUE(
      dyn.ApplyBatch(MakeNodeBatch(&log, 0, &dyn, {MakeItemEvent(0.9f, 8)},
                                   {{0, -1, RelationKind::kSession, 1.5f, 8}}))
          .ok());
  ASSERT_TRUE(dyn.ApplyBatch(MakeBatch(&log, 1,
                                       {{1, 28, RelationKind::kClick, 4.0f, 9}},
                                       &dyn))
                  .ok());

  const Fingerprint before = FingerprintOf(dyn);
  const uint64_t epoch_before = dyn.epoch();

  // "Crash": recover purely from disk, nothing carried over in memory.
  RecoverOptions ropts;
  ropts.graph_options = opts;
  auto recovered = RecoverFrom(dir.path, ropts);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(recovered.value().checkpoint_epoch,
            stats.value().checkpoint_epoch);
  EXPECT_GE(recovered.value().replayed_epochs, 2u);
  EXPECT_EQ(recovered.value().torn_wal_records, 0);

  DynamicHeteroGraph& rec = *recovered.value().graph;
  EXPECT_EQ(rec.epoch(), epoch_before);
  EXPECT_EQ(rec.num_nodes_allocated(), dyn.num_nodes_allocated());
  const Fingerprint after = FingerprintOf(rec);
  EXPECT_TRUE(before == after)
      << "recovered serving state diverged from the pre-crash graph";

  // The restored in-memory log must hand back the tail with original
  // epochs, so a revived replica (or the next persister) can resume.
  EXPECT_EQ(recovered.value().log->last_epoch(), log.last_epoch());
}

TEST(RecoveryTest, RecoveredGraphKeepsServing) {
  TempDir dir("reingest");
  HeteroGraph g = MakeContentGraph(14, 3);
  DynamicHeteroGraphOptions opts;
  opts.segment_span = 8;
  DynamicHeteroGraph dyn(&g, opts);
  GraphDeltaLog log(2);
  DeltaLogPersister persister(&log, dir.path);
  ASSERT_TRUE(persister.Start(0).ok());
  ASSERT_TRUE(dyn.ApplyBatch(MakeBatch(&log, 0,
                                       {{1, 10, RelationKind::kClick, 2.0f, 1}},
                                       &dyn))
                  .ok());
  CheckpointWriterOptions copts;
  copts.wal_shards = 2;
  CheckpointWriter writer(&dyn, dir.path, copts);
  auto stats = writer.Write();
  ASSERT_TRUE(stats.ok());
  ASSERT_TRUE(persister.OnCheckpoint(stats.value().checkpoint_epoch).ok());
  ASSERT_TRUE(persister.Stop().ok());

  auto recovered = RecoverFrom(dir.path, {opts, nullptr});
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  DynamicHeteroGraph& rec = *recovered.value().graph;
  GraphDeltaLog& rlog = *recovered.value().log;

  // Resume durability on the recovered pair and keep ingesting: new epochs
  // continue past the pre-crash sequence, a second checkpoint is
  // incremental over the first, and a second recovery still matches.
  DeltaLogPersister persister2(&rlog, dir.path);
  ASSERT_TRUE(persister2.Start(recovered.value().checkpoint_epoch).ok());
  const uint64_t pre = rlog.last_epoch();
  ASSERT_TRUE(
      rec.ApplyBatch(MakeNodeBatch(&rlog, 1, &rec, {MakeItemEvent(0.8f, 9)},
                                   {{1, -1, RelationKind::kClick, 1.0f, 9}}))
          .ok());
  EXPECT_GT(rlog.last_epoch(), pre);
  CheckpointWriter writer2(&rec, dir.path, copts);
  auto stats2 = writer2.Write();
  ASSERT_TRUE(stats2.ok()) << stats2.status().ToString();
  EXPECT_GT(stats2.value().segments_reused, 0);
  ASSERT_TRUE(persister2.OnCheckpoint(stats2.value().checkpoint_epoch).ok());

  const Fingerprint before = FingerprintOf(rec);
  auto again = RecoverFrom(dir.path, {opts, nullptr});
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_TRUE(before == FingerprintOf(*again.value().graph));
}

TEST(CheckpointTest, IncrementalWriteReusesCleanSegments) {
  TempDir dir("incremental");
  HeteroGraph g = MakeContentGraph(62, 11);  // 64 nodes = 8 segments of 8
  DynamicHeteroGraphOptions opts;
  opts.segment_span = 8;
  DynamicHeteroGraph dyn(&g, opts);
  GraphDeltaLog log(1);
  ASSERT_TRUE(dyn.ApplyBatch(MakeBatch(&log, 0,
                                       {{1, 2, RelationKind::kClick, 1.0f, 1}},
                                       &dyn))
                  .ok());
  ASSERT_TRUE(dyn.Compact().ok());  // every segment at generation 2

  CheckpointWriter writer(&dyn, dir.path, {nullptr, 1});
  auto full = writer.Write();
  ASSERT_TRUE(full.ok()) << full.status().ToString();
  EXPECT_EQ(full.value().segments_written, 8);
  EXPECT_EQ(full.value().segments_reused, 0);

  // Touch one segment (node 2 lives in segment 0) and fold only it.
  ASSERT_TRUE(dyn.ApplyBatch(MakeBatch(&log, 0,
                                       {{2, 3, RelationKind::kClick, 1.0f, 2}},
                                       &dyn))
                  .ok());
  ASSERT_TRUE(dyn.CompactSegments({0}).ok());
  auto incr = writer.Write();
  ASSERT_TRUE(incr.ok()) << incr.status().ToString();
  EXPECT_EQ(incr.value().segments_written, 1);
  EXPECT_EQ(incr.value().segments_reused, 7);
  // The dirty eighth re-serializes; everything else is re-referenced. The
  // byte gate the CI bench enforces (<= 25%) holds with slack here.
  EXPECT_LT(incr.value().bytes_written, full.value().bytes_written / 2);

  // A fresh writer over the same directory adopts the manifest and stays
  // incremental across a process restart.
  CheckpointWriter writer2(&dyn, dir.path, {nullptr, 1});
  EXPECT_EQ(writer2.last_checkpoint_epoch(), incr.value().checkpoint_epoch);
  auto again = writer2.Write();
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again.value().segments_written, 0);
  EXPECT_EQ(again.value().segments_reused, 8);
}

// --- Corruption handling --------------------------------------------------

/// Writes a minimal valid checkpoint directory and returns its stats.
CheckpointStats WriteSmallCheckpoint(const std::string& dir,
                                     DynamicHeteroGraphOptions opts) {
  HeteroGraph g = MakeContentGraph(10, 5);
  DynamicHeteroGraph dyn(&g, opts);
  GraphDeltaLog log(2);
  DeltaLogPersister persister(&log, dir);
  EXPECT_TRUE(persister.Start(0).ok());
  EXPECT_TRUE(dyn.ApplyBatch(MakeBatch(&log, 0,
                                       {{1, 5, RelationKind::kClick, 1.0f, 1}},
                                       &dyn))
                  .ok());
  CheckpointWriter writer(&dyn, dir, {nullptr, 2});
  auto stats = writer.Write();
  EXPECT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_TRUE(dyn.ApplyBatch(MakeBatch(&log, 1,
                                       {{0, 6, RelationKind::kClick, 1.0f, 2}},
                                       &dyn))
                  .ok());
  return stats.value();
}

TEST(RecoveryTest, MissingManifestIsNotFound) {
  TempDir dir("no_manifest");
  auto st = RecoverFrom(dir.path, {});
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.status().code(), StatusCode::kNotFound);
}

TEST(RecoveryTest, CorruptManifestFailsCleanly) {
  DynamicHeteroGraphOptions opts;
  opts.segment_span = 8;
  TempDir dir("bad_manifest");
  WriteSmallCheckpoint(dir.path, opts);
  FlipByteAt((fs::path(dir.path) / "MANIFEST").string(), 6);
  auto st = RecoverFrom(dir.path, {opts, nullptr});
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.status().code(), StatusCode::kInvalidArgument);
}

TEST(RecoveryTest, TruncatedManifestFailsCleanly) {
  DynamicHeteroGraphOptions opts;
  opts.segment_span = 8;
  TempDir dir("short_manifest");
  WriteSmallCheckpoint(dir.path, opts);
  const std::string manifest = (fs::path(dir.path) / "MANIFEST").string();
  fs::resize_file(manifest, fs::file_size(manifest) - 9);
  auto st = RecoverFrom(dir.path, {opts, nullptr});
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.status().code(), StatusCode::kInvalidArgument);
}

TEST(RecoveryTest, CorruptSegmentFailsCleanly) {
  DynamicHeteroGraphOptions opts;
  opts.segment_span = 8;
  TempDir dir("bad_segment");
  WriteSmallCheckpoint(dir.path, opts);
  for (const auto& entry : fs::directory_iterator(dir.path)) {
    if (entry.path().filename().string().rfind("seg-", 0) == 0) {
      FlipByteAt(entry.path().string(), 7);
      break;
    }
  }
  auto st = RecoverFrom(dir.path, {opts, nullptr});
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.status().code(), StatusCode::kInvalidArgument);
}

TEST(RecoveryTest, NonFiniteSegmentWeightFailsToLoad) {
  // A segment whose payload checksums fine but carries a +inf weight: the
  // alias table would send every draw of the row to that one edge.
  TempDir dir("inf_weight");
  for (const float w : {2.0f, std::numeric_limits<float>::infinity()}) {
    graph::CsrSegmentBuilder builder(
        0, 2, kDim, /*generation=*/1,
        [](NodeId id) { return id == 0 ? NodeType::kUser : NodeType::kItem; });
    const std::vector<float> c(kDim, 0.5f);
    builder.AddRow(NodeType::kUser, c, {}, {{1, w, RelationKind::kClick}});
    builder.AddRow(NodeType::kItem, c, {}, {{0, 1.0f, RelationKind::kClick}});
    const std::string path = dir.path + "/seg.bin";
    ASSERT_TRUE(graph::SaveCsrSegment(*builder.Build(), path).ok());
    auto loaded = graph::LoadCsrSegment(path);
    if (std::isfinite(w)) {
      EXPECT_TRUE(loaded.ok()) << loaded.status().ToString();
    } else {
      ASSERT_FALSE(loaded.ok());
      EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
    }
  }
}

TEST(RecoveryTest, MissingSegmentFailsCleanly) {
  DynamicHeteroGraphOptions opts;
  opts.segment_span = 8;
  TempDir dir("gone_segment");
  WriteSmallCheckpoint(dir.path, opts);
  for (const auto& entry : fs::directory_iterator(dir.path)) {
    if (entry.path().filename().string().rfind("seg-", 0) == 0) {
      fs::remove(entry.path());
      break;
    }
  }
  auto st = RecoverFrom(dir.path, {opts, nullptr});
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.status().code(), StatusCode::kNotFound);
}

TEST(RecoveryTest, TornRecordInSealedWalFileIsCorruption) {
  DynamicHeteroGraphOptions opts;
  opts.segment_span = 8;
  TempDir dir("sealed_torn");
  const CheckpointStats stats = WriteSmallCheckpoint(dir.path, opts);

  // Hand-craft two WAL files past the checkpoint, then tear a record in
  // the FIRST (sealed) one: that is corruption, not a crash artifact.
  const uint64_t c = stats.checkpoint_epoch;
  for (int i = 0; i < 2; ++i) {
    const std::string path =
        (fs::path(dir.path) / WalFileName(c + 1 + 10 * i)).string();
    auto writer = WalWriter::Open(path);
    ASSERT_TRUE(writer.ok());
    DeltaBatch b;
    b.epoch = c + 1 + 10 * i;
    b.events = {{0, 1, RelationKind::kClick, 1.0f, 0}};
    ASSERT_TRUE(writer.value()->Append(0, b).ok());
    ASSERT_TRUE(writer.value()->Close().ok());
  }
  const std::string sealed =
      (fs::path(dir.path) / WalFileName(c + 1)).string();
  fs::resize_file(sealed, fs::file_size(sealed) - 3);

  auto st = RecoverFrom(dir.path, {opts, nullptr});
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.status().code(), StatusCode::kInvalidArgument);
}

TEST(RecoveryTest, TornTailOfNewestWalFileIsDropped) {
  DynamicHeteroGraphOptions opts;
  opts.segment_span = 8;
  TempDir dir("tail_torn");
  const CheckpointStats stats = WriteSmallCheckpoint(dir.path, opts);

  // Tear the very last WAL record (the post-checkpoint batch the helper
  // appended): recovery drops it and reports, rather than failing.
  std::string newest;
  for (const auto& entry : fs::directory_iterator(dir.path)) {
    uint64_t start = 0;
    if (ParseWalFileName(entry.path().filename().string(), &start)) {
      if (newest.empty() || entry.path().string() > newest) {
        newest = entry.path().string();
      }
    }
  }
  ASSERT_FALSE(newest.empty());
  fs::resize_file(newest, fs::file_size(newest) - 2);

  auto recovered = RecoverFrom(dir.path, {opts, nullptr});
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(recovered.value().torn_wal_records, 1);
  // The helper's first batch (epoch 1, sealed file) replays; the torn
  // second one is dropped as never-acknowledged.
  EXPECT_EQ(recovered.value().replayed_epochs, 1u);
  EXPECT_EQ(recovered.value().graph->epoch(), stats.checkpoint_epoch + 1);
}

// --- Janitor policy -------------------------------------------------------

TEST(CheckpointPolicyTest, ActsOnlyWhenEpochsAdvance) {
  TempDir dir("policy");
  HeteroGraph g = MakeContentGraph(10, 9);
  DynamicHeteroGraphOptions opts;
  opts.segment_span = 8;
  DynamicHeteroGraph dyn(&g, opts);
  GraphDeltaLog log(2);
  DeltaLogPersister persister(&log, dir.path);
  ASSERT_TRUE(persister.Start(0).ok());
  CheckpointWriter writer(&dyn, dir.path, {nullptr, 2});
  maintenance::CheckpointPolicy policy(&dyn, &writer, &persister, {});

  // Nothing ingested and folded yet: epoch 0 is already durable (the
  // trivial empty checkpoint), so the first pass is a no-op.
  auto r0 = policy.RunOnce();
  ASSERT_TRUE(r0.ok());
  EXPECT_FALSE(r0.value().acted);

  ASSERT_TRUE(dyn.ApplyBatch(MakeBatch(&log, 0,
                                       {{1, 4, RelationKind::kClick, 1.0f, 1}},
                                       &dyn))
                  .ok());
  // Pending overlay entries pin SafeTruncateEpoch at 0; a fold (the
  // compaction policy's job in a real janitor) is what advances the
  // durable-coverable epoch and arms the checkpoint trigger.
  ASSERT_TRUE(dyn.Compact().ok());
  auto r1 = policy.RunOnce();
  ASSERT_TRUE(r1.ok());
  EXPECT_TRUE(r1.value().acted);
  EXPECT_EQ(policy.checkpoints(), 1);
  EXPECT_EQ(writer.last_checkpoint_epoch(), dyn.SafeTruncateEpoch());

  // No new epochs since: the next pass skips.
  auto r2 = policy.RunOnce();
  ASSERT_TRUE(r2.ok());
  EXPECT_FALSE(r2.value().acted);

  // Recovery from the policy-written checkpoint works end to end.
  auto recovered = RecoverFrom(dir.path, {opts, nullptr});
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_TRUE(FingerprintOf(dyn) == FingerprintOf(*recovered.value().graph));
}

}  // namespace
}  // namespace persist
}  // namespace zoomer
