// Checkpointing and crash recovery on the segment seam (ROADMAP
// durability item). A checkpoint is a directory of per-segment CSR files
// plus a manifest:
//
//   seg-<s>-g<generation>.ckpt   one immutable CsrSegment (graph_io format)
//   MANIFEST                     epoch, segment table, node-mint record
//   wal-<start>.log              delta-log tail (written by DeltaLogPersister)
//
// Incrementality rides the segment generations: a segment file is content-
// addressed by (index, generation), so a checkpoint after an incremental
// fold rewrites only the segments whose generation advanced and re-
// references the rest — the same sharing trick HeteroGraph::Successor
// plays in memory, replayed on disk.
//
// The invariant the manifest pins: its checkpoint epoch C is
// SafeTruncateEpoch() *captured before the base* — every overlay entry
// (folded or still pending) with epoch <= C is inside the recorded
// segments, and everything above C is in the WAL tail. Recovery is
// therefore load + replay-through-the-normal-apply-path, with per-segment
// replay floors (CsrSegment::folded_epoch) filtering the half-edges a
// segment had already absorbed.
#ifndef ZOOMER_PERSIST_CHECKPOINT_H_
#define ZOOMER_PERSIST_CHECKPOINT_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "obs/metrics.h"
#include "persist/wal.h"
#include "streaming/dynamic_hetero_graph.h"
#include "streaming/graph_delta_log.h"

namespace zoomer {
namespace persist {

struct CheckpointStats {
  uint64_t checkpoint_epoch = 0;
  uint64_t base_generation = 0;
  int64_t segments_written = 0;
  int64_t segments_reused = 0;
  int64_t bytes_written = 0;  // segment files + manifest actually written
  int64_t bytes_reused = 0;   // size of segment files re-referenced
  int64_t manifest_bytes = 0;
  int64_t latency_us = 0;
};

struct CheckpointWriterOptions {
  obs::MetricsRegistry* registry = nullptr;  // null = Global()
  /// Number of WAL shards recorded in the manifest (recovery recreates the
  /// GraphDeltaLog with this sharding). Keep equal to the live log's.
  int wal_shards = 4;
};

/// Writes incremental checkpoints of a DynamicHeteroGraph. Safe to run from
/// a janitor thread concurrent with ingest: the epoch is captured before
/// the base (see file comment) and node records are snapshotted through the
/// applied-flag acquire protocol. One writer per directory.
class CheckpointWriter {
 public:
  CheckpointWriter(streaming::DynamicHeteroGraph* graph, std::string dir,
                   CheckpointWriterOptions options = {});

  /// Writes one checkpoint; returns its stats. On any error the previous
  /// MANIFEST is left intact (the new one lands via tmp-file + rename), so
  /// the directory always holds a recoverable checkpoint if it ever held
  /// one.
  StatusOr<CheckpointStats> Write();

  /// Epoch of the newest durable checkpoint written by this writer (or
  /// adopted from a pre-existing MANIFEST in the directory); 0 if none.
  uint64_t last_checkpoint_epoch() const;

 private:
  streaming::DynamicHeteroGraph* graph_;
  const std::string dir_;
  const CheckpointWriterOptions options_;

  obs::Counter* checkpoints_ = nullptr;
  obs::Counter* checkpoint_failures_ = nullptr;
  obs::Counter* segments_written_ = nullptr;
  obs::Counter* segments_reused_ = nullptr;
  obs::Histogram* checkpoint_latency_us_ = nullptr;
  obs::Histogram* checkpoint_bytes_ = nullptr;
  obs::Gauge* last_epoch_gauge_ = nullptr;

  /// Lazily adopts the directory's existing MANIFEST (mutable: it is a
  /// cache of on-disk state, fetched on first use even from the const
  /// last_checkpoint_epoch() accessor).
  void AdoptPreviousLocked() const;

  mutable std::mutex mu_;
  mutable bool loaded_prev_ = false;            // guarded by mu_
  mutable uint64_t last_checkpoint_epoch_ = 0;  // guarded by mu_
  /// Segment files the current MANIFEST references: index ->
  /// (generation, file name, file bytes). Seeds reuse and GC.
  mutable std::map<int64_t, std::tuple<uint64_t, std::string, int64_t>>
      prev_segments_;                           // guarded by mu_
};

struct RecoverOptions {
  streaming::DynamicHeteroGraphOptions graph_options;
  obs::MetricsRegistry* registry = nullptr;  // null = Global()
};

/// Everything RecoverFrom rebuilds. The graph reads exactly as the
/// pre-crash graph did at its last applied epoch; the log holds the
/// restored WAL tail (original epochs) so replica revival and truncation
/// cursors keep working, and a DeltaLogPersister::Start on it resumes
/// durability where the crash left off.
struct RecoveredState {
  std::unique_ptr<streaming::DynamicHeteroGraph> graph;
  std::unique_ptr<streaming::GraphDeltaLog> log;
  uint64_t checkpoint_epoch = 0;
  uint64_t replayed_epochs = 0;      // WAL batches re-applied past C
  int64_t replayed_edge_events = 0;
  int64_t replayed_node_events = 0;
  int torn_wal_records = 0;          // torn final record dropped (0 or 1)
};

/// Loads the newest checkpoint in `dir` and replays the WAL tail through
/// the normal apply path. Fails with a clear Status — never a crash, never
/// a silently short graph — on a missing manifest (NotFound), a corrupted
/// or truncated manifest/segment/WAL file (InvalidArgument), or a torn WAL
/// record that is not the final one.
StatusOr<RecoveredState> RecoverFrom(const std::string& dir,
                                     const RecoverOptions& options = {});

}  // namespace persist
}  // namespace zoomer

#endif  // ZOOMER_PERSIST_CHECKPOINT_H_
