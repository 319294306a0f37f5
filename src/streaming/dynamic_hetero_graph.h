// Dynamic read view over the immutable CSR (paper Sec. VI-VII.E, extended to
// the deployment's continuous-ingestion setting): the offline-built
// HeteroGraph stays untouched while streaming edge events accumulate in
// per-node delta overlays. Readers take epoch-stamped snapshots, so the
// serving-path samplers and aggregators observe a consistent graph while the
// ingestion pipeline keeps applying batches.
//
// Storage layout (incremental compaction): the base is the offline graph
// repartitioned into fixed-span contiguous row ranges (graph::CsrSegment),
// each independently rebuildable and stamped with its own generation.
// CompactSegments(dirty_set) folds the delta overlays of only the selected
// segments into fresh CsrSegments and publishes a successor HeteroGraph
// that *shares* every untouched segment, so
//   - the fold pause scales with the dirty fraction, not the graph size,
//   - snapshots pinned before the fold keep reading their old segments
//     (zero-copy spans stay valid — persistent-data-structure sharing), and
//   - hot-node cache entries and serving caches of untouched segments stay
//     valid (entries are stamped with per-segment generations).
// Compact() is now simply "fold all segments"; per-segment folds return the
// fold epoch, but log truncation must use SafeTruncateEpoch() — the largest
// epoch no longer needed by any still-pending overlay entry.
//
// Concurrency design:
//  - Nodes with no deltas (the vast majority at any instant) are read
//    entirely lock-free: a per-node atomic epoch of 0 routes the read to the
//    base CSR without touching any overlay structure.
//  - Overlays live in a fixed set of lock shards (shared_mutex each);
//    appliers take one shard exclusively per touched node, readers take it
//    shared only when the node actually has deltas.
//  - Weighted sampling over base+delta uses two-level alias-resampling:
//    first choose base vs. overlay proportional to their total weights, then
//    draw within the base via its O(1) alias table or within the overlay via
//    an inverse-CDF search over the (small) delta prefix-sum array.
//  - Snapshot isolation: overlay entries are epoch-stamped and kept in epoch
//    order; a snapshot at epoch E only surfaces entries with epoch <= E.
//    Snapshots pin to the *watermark* epoch — the largest epoch below every
//    issued-but-unapplied batch — so cross-shard apply skew can no longer
//    surface a lower-epoch batch to a newer snapshot (epoch issuance is
//    reported through GraphDeltaLog::Append's on_issue callback ->
//    NoteEpochIssued; without tracking the watermark equals the max applied
//    epoch).
//  - CompactSegments/Compact fold applied deltas into rebuilt segments and
//    clear the folded overlays. Attached ingest pipelines are quiesced with
//    a handshake (CompactionParticipant) so a mid-ingest fold cannot split
//    or drop queued-but-unapplied deltas; snapshots taken before a fold
//    keep their (pinned) old base but lose delta visibility for folded
//    nodes, so treat snapshots as short read leases.
//  - TTL/decay windows (ConfigureDecay, or a per-view override passed to
//    MakeSnapshot): delta entries carry their event timestamp; with an
//    active DecaySpec a snapshot captures as_of from the injectable
//    LogicalClock and every read excludes entries past their per-kind TTL
//    and weighs the rest by exponential decay. Base-CSR edges — the offline
//    aggregate — are never windowed. maintenance::TtlDecayPolicy installs
//    the spec and garbage-collects expired entries (ExpireDeltas).
//  - Hot-node overlay cache (AttachHotNodeCache): snapshot reads on
//    delta-heavy nodes first consult maintenance::HotNodeOverlayCache for a
//    pre-merged neighbor list + alias table (O(1) draws instead of the
//    two-level resample); entries are invalidated here on ApplyBatch and
//    expiry, and per folded segment range on CompactSegments (untouched
//    segments keep their entries); entries are version-checked on every
//    lookup against the node's overlay version and its *segment's*
//    generation.
//  - Id-space growth (open universe): NodeEvents append brand-new nodes
//    past the base CSR without copying it. Ids are allocated monotonically
//    in birth epoch (GraphDeltaLog::AppendWithNodes calls AllocateNodeIds
//    under the epoch-issuance lock), records live in chunked append-only
//    storage whose slots never relocate (readers keep raw pointers across
//    growth), and a snapshot's num_nodes() is the longest applied prefix of
//    overlay nodes born at or below its pinned epoch — so a node born
//    mid-epoch is absent from older pinned snapshots and present in newer
//    ones, and samplers never surface an id >= the snapshot's num_nodes().
//    Folding the frontier appends the applied overlay-node prefix to the
//    segmented base renumber-free; folded records are retained so snapshots
//    pinned to the old base keep reading them. Per-type capacity limits
//    (DynamicHeteroGraphOptions::max_nodes_per_type) bound growth on the
//    typed allocation path used by the pipeline; exhaustion is a clean
//    OutOfRange before any id is burned.
//  - Node-TTL groundwork (cold_node_ttl_seconds): an overlay-born node that
//    never accumulated more than cold_node_max_degree half-edges over its
//    lifetime, whose visible entries have all aged out by the time its
//    segment folds, folds to an isolated zero-content stub row — the base
//    never inherits its payload or edges. The overlay record itself is
//    retained (lock-free pinned readers may still hold pointers into it);
//    freeing it too needs snapshot pin tracking and stays future work.
#ifndef ZOOMER_STREAMING_DYNAMIC_HETERO_GRAPH_H_
#define ZOOMER_STREAMING_DYNAMIC_HETERO_GRAPH_H_

#include <array>
#include <atomic>
#include <memory>
#include <mutex>
#include <set>
#include <shared_mutex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/clock.h"
#include "common/random.h"
#include "common/status.h"
#include "graph/hetero_graph.h"
#include "streaming/edge_decay.h"
#include "streaming/graph_delta_log.h"

namespace zoomer {

namespace maintenance {
class HotNodeOverlayCache;
struct HotNodeCacheEntry;
}  // namespace maintenance

namespace obs {
class Histogram;
class MetricsRegistry;
}  // namespace obs

namespace streaming {

/// A delta applier (the ingest pipeline) that Compact()/CompactSegments()
/// can park at a batch boundary. BeginQuiesce blocks until no batch is
/// mid-apply and prevents new applies until EndQuiesce.
class CompactionParticipant {
 public:
  virtual ~CompactionParticipant() = default;
  virtual void BeginQuiesce() = 0;
  virtual void EndQuiesce() = 0;
};

struct DynamicHeteroGraphOptions {
  /// Rows per base-CSR segment (power of two; fixed for the graph's
  /// lifetime, id-space growth extends coverage in the same span). 0 =
  /// auto: the base partitions into ~16 segments, clamped to >= 64 rows.
  int64_t segment_span = 0;
  /// Per-type cap on the total id-space (base + overlay), enforced by the
  /// typed AllocateNodeIds overload the ingest pipeline routes through.
  /// 0 = unbounded.
  std::array<int64_t, graph::kNumNodeTypes> max_nodes_per_type = {0, 0, 0};
  /// Node-TTL groundwork: an overlay-born node older than this (against the
  /// installed LogicalClock) that never accumulated more than
  /// cold_node_max_degree overlay half-edges in its lifetime, and whose
  /// entries have all expired by fold time, folds as an isolated
  /// zero-content stub row — the base stops carrying its payload and
  /// edges forward (the overlay record stays for pinned readers).
  /// 0 disables.
  int64_t cold_node_ttl_seconds = 0;
  int64_t cold_node_max_degree = 0;
  /// Metrics registry for fold telemetry ("maintenance.fold_pause_us",
  /// "maintenance.fold_segments"). Null means the process-global registry.
  obs::MetricsRegistry* registry = nullptr;
};

/// Per-segment overlay pressure, the signal the incremental
/// maintenance::CompactionPolicy selects dirty segments from.
struct SegmentPressure {
  int64_t segment = 0;
  graph::NodeId first_node = 0;
  /// Rows the current base covers in this segment (0 for a pure-frontier
  /// segment whose overlay-born rows have never folded).
  int64_t covered_rows = 0;
  /// Overlay half-edges pending fold for rows of this segment.
  int64_t delta_entries = 0;
  /// Applied overlay-born nodes in this segment's range awaiting their
  /// first fold.
  int64_t pending_nodes = 0;
  /// Cumulative *locked* overlay reads: snapshot reads of this segment's
  /// rows that paid the shard-lock merge. Hot-node-cache hits run at
  /// ~static cost and are deliberately not counted — they exert no fold
  /// pressure.
  int64_t reads = 0;
  /// Cumulative overlay appends to rows of this segment.
  int64_t writes = 0;
  /// Generation of the backing CsrSegment (0 before first fold of a
  /// frontier segment).
  uint64_t generation = 0;
  /// Epoch this segment last folded through (0 = never).
  uint64_t folded_epoch = 0;
};

class DynamicHeteroGraph {
 private:
  struct DeltaEntry;
  struct NodeOverlay;

 public:
  /// Repartitions `base` into segment_span-row segments (rows and alias
  /// tables copied verbatim, so every read and draw matches `base` bit for
  /// bit). `base` is not referenced afterwards.
  explicit DynamicHeteroGraph(const graph::HeteroGraph* base,
                              DynamicHeteroGraphOptions options = {});
  explicit DynamicHeteroGraph(std::shared_ptr<const graph::HeteroGraph> base,
                              DynamicHeteroGraphOptions options = {});
  ~DynamicHeteroGraph();

  // ---- crash recovery (persist::RecoverFrom) ------------------------------

  /// One overlay-born node as a checkpoint captured it. An unapplied record
  /// carries only its birth epoch — its payload travels in the WAL batch
  /// that minted it (guaranteed past the checkpoint epoch, since an
  /// unapplied batch holds the watermark, and with it SafeTruncateEpoch,
  /// below itself).
  struct RestoredNodeRecord {
    graph::NodeId id = -1;
    uint64_t birth_epoch = 0;
    bool applied = false;
    graph::NodeType type = graph::NodeType::kItem;
    int64_t timestamp = 0;
    std::vector<float> content;
    std::vector<int64_t> slots;
  };

  /// Everything a checkpoint must carry to rebuild this graph:
  /// the segmented base (each segment stamped with the epoch it folded
  /// through — the per-segment replay floor), the checkpoint epoch C
  /// (= SafeTruncateEpoch at capture: every overlay entry pending then has
  /// epoch > C, so base + WAL tail (> C) is the complete state), and the
  /// node-mint record — birth epochs of overlay-born ids the base already
  /// covers (so a replayed WAL half-edge can tell "neighbor was foldable at
  /// my segment's fold" from "neighbor was carried"), plus full records of
  /// ids past base coverage.
  struct RecoveryImage {
    std::shared_ptr<const graph::HeteroGraph> base;
    /// SafeTruncateEpoch at capture; the recovered graph starts with
    /// epoch() == watermark_epoch() == this, and replay resumes above it.
    uint64_t checkpoint_epoch = 0;
    /// base_generation() at capture (>= every segment's generation).
    uint64_t base_generation = 1;
    /// First overlay-born id ever (the *genesis* base size — after folds,
    /// base coverage exceeds it; ids below were offline-born).
    int64_t mint_origin = 0;
    /// Birth epochs of ids [mint_origin, base->num_nodes()), ascending.
    std::vector<uint64_t> folded_birth_epochs;
    /// Records of ids >= base->num_nodes(), contiguous ascending.
    std::vector<RestoredNodeRecord> overlay_records;
  };

  /// Rebuilds a graph from a checkpoint image. The result reads exactly as
  /// a snapshot at the checkpoint epoch did pre-crash; replaying the WAL
  /// tail (NoteEpochIssued + ApplyBatch per batch, in epoch order — the
  /// normal apply path) then reproduces the pre-crash graph bit-for-bit:
  /// replayed half-edges already absorbed by a segment's fold are filtered
  /// against that segment's replay floor, while entries that had been
  /// carried over (neighbor born above the floor) re-enter the overlay.
  static StatusOr<std::unique_ptr<DynamicHeteroGraph>> Recover(
      const RecoveryImage& image, DynamicHeteroGraphOptions options = {});

  /// First overlay-born id ever minted across this graph's whole restart
  /// lineage (== overlay_origin() for a graph built from an offline
  /// HeteroGraph; <= overlay_origin() after recovery, whose base may
  /// already cover folded mints).
  int64_t mint_origin() const { return mint_origin_; }

  /// Birth epoch of a minted id (0 for offline-born ids below
  /// mint_origin()). Defined for every id below num_nodes_allocated();
  /// this is the lookup replay filtering and checkpoint capture share.
  uint64_t MintBirthEpoch(graph::NodeId id) const;

  /// Point-in-time copy of an overlay record for checkpointing, `id` in
  /// [overlay_origin(), num_nodes_allocated()). Safe concurrent with
  /// ingest: an unapplied record yields only its birth epoch (its payload
  /// is still being written and is recoverable from the WAL instead).
  RestoredNodeRecord SnapshotNodeRecord(graph::NodeId id) const;

  const DynamicHeteroGraphOptions& options() const { return options_; }

  /// Epoch of the newest applied batch (0 before any delta).
  uint64_t epoch() const {
    return max_applied_epoch_.load(std::memory_order_acquire);
  }

  /// Watermark epoch: the largest E such that no issued epoch <= E is still
  /// unapplied. Snapshot() pins here, so out-of-order cross-shard applies
  /// never mutate a live snapshot retroactively. Equals epoch() when no
  /// epochs are pending (or when issuance is not being tracked). Lock-free
  /// read — the pending-set bookkeeping republishes it on every change —
  /// so per-request MakeSnapshot() calls do not serialize across shards.
  uint64_t watermark_epoch() const {
    return watermark_epoch_.load(std::memory_order_acquire);
  }

  /// Marks an epoch as issued-but-not-yet-applied. Pass as Append's
  /// on_issue callback — log.Append(shard, events, [&g](uint64_t e) {
  ///   g.NoteEpochIssued(e); }) — for every batch this graph will apply;
  /// the ingest pipeline does this for you. The matching ApplyBatch clears
  /// the pending mark.
  void NoteEpochIssued(uint64_t epoch);

  /// Allocates `count` contiguous node ids born at `epoch`, growing the
  /// id-space past the base CSR; returns the first id. Birth epochs must be
  /// non-decreasing across calls. This legacy overload carries no type
  /// information, so per-type capacity limits cannot be enforced here (the
  /// types are counted when the records apply); production traffic goes
  /// through the typed overload below. The ids become visible to snapshots
  /// only once their NodeEvents apply.
  graph::NodeId AllocateNodeIds(int count, uint64_t epoch);

  /// Typed allocation: one id per event, enforcing
  /// options().max_nodes_per_type before any id is burned (OutOfRange on
  /// exhaustion — the clean rejection point, since a rejected *apply* after
  /// allocation would strand an unapplied record and freeze node visibility
  /// behind it). Pass this as GraphDeltaLog::AppendWithNodes's allocator
  /// (which invokes it under the epoch-issuance lock) rather than calling
  /// it directly, unless single-threaded (tests).
  StatusOr<graph::NodeId> AllocateNodeIds(const std::vector<NodeEvent>& nodes,
                                          uint64_t epoch);

  /// Upper bound of the allocated id-space: base nodes plus every overlay
  /// id handed out so far (some may still be awaiting their NodeEvent's
  /// apply). Edge events are validated against this bound.
  int64_t num_nodes_allocated() const {
    return overlay_origin_ +
           overlay_allocated_.load(std::memory_order_acquire);
  }

  /// Nodes of type `t` in the id-space: base rows plus overlay allocations
  /// (typed allocations count immediately, untyped ones once applied).
  /// The quantity max_nodes_per_type caps.
  int64_t num_nodes_of_type(graph::NodeType t) const {
    return base_type_counts_[static_cast<int>(t)] +
           overlay_type_counts_[static_cast<int>(t)].load(
               std::memory_order_acquire);
  }

  /// True iff edge events may reference `id`: a base id, or an overlay id
  /// whose NodeEvent has applied (monotone — once true, always true). The
  /// ingest pipeline gates Offer() traffic on this instead of the raw
  /// allocation bound, so an id mid-mint (allocated in AppendWithNodes but
  /// not yet applied) is a counted drop rather than a downstream
  /// ApplyBatch failure.
  bool IsNodeIngested(graph::NodeId id) const {
    if (id < 0 || id >= num_nodes_allocated()) return false;
    if (id < overlay_origin_) return true;
    return overlay_record(id).applied.load(std::memory_order_acquire);
  }

  /// First overlay id (the base CSR's num_nodes() at construction); stable
  /// across folds — folded overlay nodes keep their ids.
  int64_t overlay_origin() const { return overlay_origin_; }

  /// Overlay nodes applied and visible at `epoch` (the contiguous applied
  /// prefix with birth epoch <= epoch).
  int64_t VisibleOverlayNodes(uint64_t epoch) const;

  /// Registers/removes an applier for the fold quiescence handshake.
  /// The participant must stay valid until detached (the ingest pipeline
  /// attaches on construction and detaches on Stop()).
  void AttachParticipant(CompactionParticipant* participant);
  void DetachParticipant(CompactionParticipant* participant);

  /// Installs the graph-default TTL/decay window, evaluated against `clock`
  /// at snapshot creation. Snapshots taken afterwards resolve decay-aware
  /// reads; an inactive spec (all zeros) restores raw reads (and may pass a
  /// clock only, enabling per-view windows without a graph default).
  /// Usually called through maintenance::TtlDecayPolicy. An active spec
  /// requires a clock — windows against event time are meaningless without
  /// a time source.
  void ConfigureDecay(const DecaySpec& spec, const LogicalClock* clock);
  DecaySpec decay_spec() const;

  /// Installs only the time source (keeps the current spec). Required
  /// before any *per-view* window (MakeSnapshot(DecaySpec) /
  /// DynamicGraphView's window constructor) when no TtlDecayPolicy has
  /// configured the graph, and before cold-node TTL folds can trigger.
  void SetClock(const LogicalClock* clock);

  /// Attaches the hot-node overlay cache consulted by snapshot reads on
  /// delta-carrying nodes (nullptr detaches). The cache must outlive this
  /// graph or be detached first; maintenance::HotNodeRefreshPolicy attaches
  /// on construction, keeps entries fresh, and detaches on destruction.
  void AttachHotNodeCache(maintenance::HotNodeOverlayCache* cache);

  /// Detaches `cache` iff it is still the attached one (so a policy tearing
  /// down never un-attaches a replacement installed after it). Snapshots
  /// taken while it was attached keep their pin — the cache must outlive
  /// those regardless.
  void DetachHotNodeCache(maintenance::HotNodeOverlayCache* cache);

  /// Monotonic generation of the base, bumped by every fold (full or
  /// incremental). Newly (re)built segments are stamped with the
  /// post-fold value, so segment generations are mutually consistent; use
  /// Snapshot::segment_generation for per-node cache stamping.
  uint64_t base_generation() const {
    return base_generation_.load(std::memory_order_acquire);
  }

  /// (base, generation) captured in one base_mu_ critical section — folds
  /// bump the generation inside the same exclusive section that swaps the
  /// base, so a capture can never pair an old base with a new generation.
  /// Used by snapshots and by the persist layer's CheckpointWriter.
  std::pair<std::shared_ptr<const graph::HeteroGraph>, uint64_t>
  CapturedBase() const;

  /// The node's overlay version: epoch of its newest delta entry (0 = no
  /// overlay). Used by the hot-node cache consistency protocol. `node` must
  /// be below num_nodes_allocated().
  uint64_t node_epoch(graph::NodeId node) const {
    return node_epoch_slot(node).load(std::memory_order_acquire);
  }

  /// Nodes whose overlay holds at least `min_entries` delta half-edges —
  /// the hot set the refresh policy materializes.
  std::vector<graph::NodeId> DeltaNodes(int64_t min_entries) const;

  /// As above with a per-segment admission floor: a node qualifies when its
  /// overlay holds at least min_entries_for_segment(segment index) entries.
  /// Lets the hot-node refresh policy admit nodes of read-hammered segments
  /// (SegStat reads) at a lower delta threshold than the fleet default.
  std::vector<graph::NodeId> DeltaNodes(
      const std::function<int64_t(int64_t)>& min_entries_for_segment) const;

  /// Physically removes delta entries past their TTL under the installed
  /// DecaySpec at `now_seconds` (no-op without TTLs). Decay-aware readers
  /// already excluded them, so live snapshots observe no change; raw
  /// (spec-less) snapshots lose the expired entries — same short-read-lease
  /// contract as the folds. Returns the nodes that lost entries and
  /// invalidates their hot-node cache entries (expiry is the one overlay
  /// mutation that does not bump the node's overlay version).
  std::vector<graph::NodeId> ExpireDeltas(int64_t now_seconds);

  /// Applies one delta batch: every event becomes two half-edges in the
  /// endpoints' overlays, stamped with the batch epoch. Validates the whole
  /// batch before applying any of it.
  Status ApplyBatch(const DeltaBatch& batch);

  /// Consistent read view pinned to the current base and epoch. When a
  /// DecaySpec is active (graph-default or per-snapshot override), every
  /// accessor below resolves the *windowed* overlay: delta entries past
  /// their TTL at as_of are invisible and the rest carry decayed weights.
  class Snapshot {
   public:
    const graph::HeteroGraph& base() const { return *base_; }
    uint64_t epoch() const { return epoch_; }
    uint64_t base_generation() const { return base_generation_; }
    /// Generation of the segment backing `node` in this snapshot's pinned
    /// base (0 for overlay nodes beyond base coverage). The stamp the
    /// hot-node cache keys entry validity on — an incremental fold bumps
    /// only the folded segments' generations, so entries of untouched
    /// segments keep serving across it.
    uint64_t segment_generation(graph::NodeId node) const {
      return base_->generation_of(node);
    }
    bool decay_active() const { return decay_active_; }
    /// Clock reading decay was evaluated at (0 when inactive or clockless).
    int64_t as_of_seconds() const { return as_of_; }
    /// The window this snapshot resolves reads under (inactive when none).
    const DecaySpec& decay_window() const { return decay_; }

    /// Stable id-space of this snapshot: base nodes plus the overlay nodes
    /// born at or below the pinned epoch. Every accessor below (and every
    /// id they surface) stays inside [0, num_nodes()).
    int64_t num_nodes() const { return num_nodes_; }

    /// True for ids the pinned base covers; overlay ids above resolve
    /// through the append-only node records instead.
    bool InBase(graph::NodeId node) const {
      return node < base_->num_nodes();
    }

    /// Node lookups spanning base + overlay. Content/slot storage is
    /// append-only and never relocates, so the returned pointers/spans stay
    /// valid for the lifetime of the owning DynamicHeteroGraph (not merely
    /// this snapshot). A cold-node-TTL stub fold does not violate this:
    /// the record payload is retained; only the folded base row is zeroed.
    graph::NodeType node_type(graph::NodeId node) const;
    const float* content(graph::NodeId node) const;
    std::span<const int64_t> slots(graph::NodeId node) const;

    /// True if the node carries any delta visible at this epoch.
    bool HasDelta(graph::NodeId node) const;
    /// Lock-free conservative check: false means the node definitely has no
    /// delta (readers may then use the base CSR arrays directly); true means
    /// it might. Used by GraphView adapters to keep untouched nodes on the
    /// zero-copy path.
    bool MaybeHasDelta(graph::NodeId node) const {
      return owner_->node_epoch_slot(node).load(std::memory_order_acquire) !=
             0;
    }
    /// Half-edge count: base degree + visible delta entries (parallel-edge
    /// semantics, matching how repeated events accumulate weight).
    int64_t Degree(graph::NodeId node) const;
    int64_t DeltaDegree(graph::NodeId node) const;
    double TotalWeight(graph::NodeId node) const;

    /// Merged neighbor list, coalescing delta entries into matching base
    /// edges by (neighbor, kind) and summing weights.
    void Neighbors(graph::NodeId node,
                   std::vector<graph::NeighborEntry>* out) const;

    /// Overlay-aware neighbor iteration for the sampler (epoch-pinned):
    /// the same merge as Neighbors() resolved into parallel arrays — base
    /// CSR range first, then the coalesced delta suffix — matching the
    /// (ids, weights, kinds) layout GraphView::Neighbors hands out.
    void Neighbors(graph::NodeId node, std::vector<graph::NodeId>* ids,
                   std::vector<float>* weights,
                   std::vector<graph::RelationKind>* kinds) const;

    /// Typed sub-view of the merge: base CSR typed range (contiguous by
    /// construction) plus only the visible delta entries whose neighbor is
    /// of type `t` — no full-neighborhood merge. Feeds edge-attention
    /// grouping, which only compares neighbors of one type.
    void NeighborsOfType(graph::NodeId node, graph::NodeType t,
                         std::vector<graph::NodeId>* ids,
                         std::vector<float>* weights,
                         std::vector<graph::RelationKind>* kinds) const;

    /// One weighted draw over base + visible delta. Returns -1 for nodes
    /// with no edges at this epoch.
    graph::NodeId SampleNeighbor(graph::NodeId node, Rng* rng) const;

    /// Batched weighted draws: k draws per node, row-major into `out` (-1
    /// rows for isolated nodes). Bit-identical to k SampleNeighbor calls
    /// per node in order, but the snapshot stays pinned for the whole
    /// batch, each node costs one epoch-slot load + at most one lock-shard
    /// acquisition + one visible-prefix resolution for all its k draws,
    /// the next node's epoch slot is prefetched one node ahead, and hot /
    /// base rows draw through AliasTable::SampleBatch.
    void SampleManyNeighbors(std::span<const graph::NodeId> nodes, int k,
                             Rng* rng, std::vector<graph::NodeId>* out) const;

    /// Up to k distinct weighted draws with bounded retries (4k attempts),
    /// acquiring the node's lock shard once for the whole batch — use this
    /// on the serving path instead of k calls to SampleNeighbor.
    std::vector<graph::NodeId> SampleDistinctNeighbors(graph::NodeId node,
                                                       int k,
                                                       Rng* rng) const;

   private:
    friend class DynamicHeteroGraph;
    Snapshot(const DynamicHeteroGraph* owner,
             std::shared_ptr<const graph::HeteroGraph> base,
             uint64_t base_generation, uint64_t epoch, DecaySpec decay,
             int64_t as_of);

    /// Decayed weight of a visible entry, or < 0 when expired at as_of_.
    float EntryWeight(const DeltaEntry& entry) const;

    /// Validated hot-cache entry for `node` (nullptr on miss or no cache) —
    /// the single place the consistency-protocol arguments are assembled.
    /// `overlay_version` is the node_epoch the caller already loaded.
    const maintenance::HotNodeCacheEntry* HotEntry(
        graph::NodeId node, uint64_t overlay_version) const;

    /// Invokes fn(entry, decayed_weight) for every entry of the visible
    /// prefix that survives the TTL window. Caller holds the lock shard.
    template <typename Fn>
    void ForEachVisibleDelta(const DeltaEntry* entries, size_t prefix,
                             Fn&& fn) const;

    /// Shared coalescing core behind the Neighbors overloads: folds the
    /// visible (windowed) delta prefix into a merged list of `merged_size`
    /// base entries via callbacks (keep(entry) filters, key_at(i) ->
    /// coalescing key of merged entry i, append(entry, w), add_weight(i,
    /// w)). Linear probing for tiny deltas, hash-indexed once a node runs
    /// hot.
    template <typename Keep, typename KeyAt, typename Append,
              typename AddWeight>
    void CoalesceVisibleDeltas(const NodeOverlay& ov, size_t merged_size,
                               Keep keep, KeyAt key_at, Append append,
                               AddWeight add_weight) const;

    /// Two-level base+delta draw over a resolved overlay whose visible
    /// prefix is non-empty. Caller must hold the node's lock shard
    /// (shared). Returns -1 only when nothing is drawable.
    graph::NodeId SampleOverlayLocked(graph::NodeId node,
                                      const NodeOverlay& ov, size_t prefix,
                                      Rng* rng) const;

    /// kk overlay draws into dst, bit-identical to kk SampleOverlayLocked
    /// calls in order, with the per-draw invariants hoisted: one segment
    /// locate + alias-row resolution, one weight-mass computation, and (on
    /// the windowed path) one visible-prefix scan serve every draw of the
    /// node. Same locking contract as SampleOverlayLocked.
    void SampleOverlayBatchLocked(graph::NodeId node, const NodeOverlay& ov,
                                  size_t prefix, size_t kk, Rng* rng,
                                  graph::NodeId* dst) const;

    const DynamicHeteroGraph* owner_;
    std::shared_ptr<const graph::HeteroGraph> base_;
    uint64_t epoch_;
    uint64_t base_generation_;
    int64_t num_nodes_;  // pinned id-space (base + visible overlay nodes)
    maintenance::HotNodeOverlayCache* hot_cache_;  // may be null
    /// Reader pin: keeps cache entries this snapshot may be pointing at
    /// from being reclaimed (copies of the snapshot share it).
    std::shared_ptr<void> hot_pin_;
    DecaySpec decay_;
    bool decay_active_;
    int64_t as_of_;
  };

  /// Snapshot under the graph-default decay window (none if unconfigured).
  Snapshot MakeSnapshot() const;
  /// Snapshot under an explicit window — how two views serve a 1-hour and
  /// a 1-day horizon from the same stream. An active window requires an
  /// installed clock (SetClock / ConfigureDecay): without one the window
  /// could never expire or decay anything, so that misconfiguration is a
  /// hard error rather than a silent no-op.
  Snapshot MakeSnapshot(const DecaySpec& window) const;

  /// Folds every applied delta into the segmented base (duplicate (a, b,
  /// kind) edges coalesced by weight, matching the offline builder's
  /// semantics), clears the folded overlays, and returns the epoch folded
  /// through. Implemented as "fold all segments" — see CompactSegments for
  /// the contract (quiescence, TTL interaction, renumber-free frontier
  /// growth, carried-over entries).
  StatusOr<uint64_t> Compact();

  /// Incremental fold: rebuilds only the selected segments (by index; out
  /// of range or duplicate entries are ignored), folding their rows'
  /// applied deltas and swapping one successor base that shares every
  /// untouched segment. Selecting any frontier segment folds the whole
  /// applied overlay-node prefix (coverage stays contiguous). Attached
  /// participants are quiesced exactly as for Compact(); appliers not
  /// registered as participants must not run concurrently. Under an
  /// installed TTL window, entries already expired at fold time are
  /// dropped (never resurrected as base edges); surviving entries fold at
  /// full raw weight. Delta entries touching a not-yet-foldable node
  /// (allocated but unapplied, or born above the fold epoch) are carried
  /// over into the rebuilt overlay rather than dropped. Returns the fold
  /// epoch; for log truncation use SafeTruncateEpoch(), since unselected
  /// segments may still hold entries of older epochs.
  StatusOr<uint64_t> CompactSegments(std::vector<int64_t> segments);

  /// Largest epoch E such that no overlay entry with epoch <= E is still
  /// pending fold anywhere (every such entry has been folded into a
  /// segment or physically expired) and no issued batch at or below E is
  /// unapplied. GraphDeltaLog::Truncate(SafeTruncateEpoch()) is therefore
  /// always safe, even between incremental folds of different segments.
  uint64_t SafeTruncateEpoch() const;

  /// Current segmented base (changes only at folds; snapshots pin their
  /// own).
  std::shared_ptr<const graph::HeteroGraph> base() const;

  /// Rows per segment and current segment count covering the *allocated*
  /// id-space (>= base coverage once ids grow past it).
  int64_t segment_span() const { return segment_span_; }
  int64_t num_segments_allocated() const {
    const int64_t n = num_nodes_allocated();
    return n == 0 ? 0 : ((n - 1) >> segment_shift_) + 1;
  }
  int64_t segment_of(graph::NodeId node) const {
    return node >> segment_shift_;
  }

  /// Per-segment overlay pressure over the allocated id-space — the
  /// incremental CompactionPolicy's selection signal (delta counts plus
  /// observed read/write rates).
  std::vector<SegmentPressure> SegmentPressures() const;

  /// Overlay-born nodes the cold-node TTL folded as zero-content stub rows
  /// (the base stopped carrying their payload and edges forward).
  int64_t expired_cold_nodes() const {
    return expired_cold_nodes_.load(std::memory_order_acquire);
  }

  int64_t num_delta_entries() const {
    return total_entries_.load(std::memory_order_acquire);
  }
  int64_t num_delta_nodes() const;
  size_t OverlayMemoryBytes() const;

 private:
  /// Recovery constructor; `image` must already be validated (Recover()).
  DynamicHeteroGraph(const RecoveryImage& image,
                     DynamicHeteroGraphOptions options);

  struct DeltaEntry {
    graph::NeighborEntry e;
    uint64_t epoch;
    int64_t timestamp;  // event time (seconds) for TTL/decay windows
  };

  /// One streamed node. `birth_epoch` is written at allocation (under
  /// alloc_mu_, published through overlay_allocated_); the payload fields
  /// are written once at apply and published through `applied` plus the
  /// watermark, after which the record is immutable — readers therefore
  /// hold pointers into content/slots without locks — which is also why a
  /// cold-node-TTL stub fold leaves the payload untouched (freeing it
  /// would race those readers; it waits for snapshot pin tracking).
  struct OverlayNodeRecord {
    uint64_t birth_epoch = 0;
    std::atomic<bool> applied{false};
    /// Type was claimed at (typed) allocation and already counted against
    /// the per-type capacity; apply must not re-count it.
    bool type_claimed = false;
    graph::NodeType type = graph::NodeType::kItem;
    int64_t timestamp = 0;
    /// Lifetime overlay half-edges ever appended to this node (never
    /// decremented by expiry or folds) — the "accumulated traffic" signal
    /// the cold-node TTL checks. Written under the node's lock shard.
    int64_t lifetime_entries = 0;
    std::vector<float> content;
    std::vector<int64_t> slots;
  };

  /// Per-node overlay: epoch-ordered delta entries plus cumulative weights
  /// for inverse-CDF sampling, and the cached base weight mass for the
  /// base-vs-delta coin flip.
  struct NodeOverlay {
    std::vector<DeltaEntry> entries;
    std::vector<double> weight_prefix;  // weight_prefix[i] = sum entries[0..i]
    double base_total_weight = 0.0;
  };

  static constexpr int kNumLockShards = 16;
  struct LockShard {
    mutable std::shared_mutex mu;
    std::unordered_map<graph::NodeId, NodeOverlay> overlays;
  };

  static int ShardFor(graph::NodeId node) {
    // Fold the product's high half down before the modulo: kNumLockShards
    // is a power of two, so the raw low bits alias strided id ranges onto
    // one lock shard (serializing every overlay op on a single mutex).
    uint64_t h = static_cast<uint64_t>(node) * 2654435761ull;
    h ^= h >> 32;
    return static_cast<int>(h % kNumLockShards);
  }

  void AppendHalfEdge(const graph::HeteroGraph& base, graph::NodeId node,
                      graph::NeighborEntry entry, uint64_t epoch,
                      int64_t timestamp);

  // ---- chunked, append-only per-id storage ---------------------------------
  // Slots never relocate once a chunk exists, so lock-free readers keep raw
  // references across id-space growth; chunks are allocated on demand under
  // alloc_mu_ (node records, indexed by id - overlay_origin_) or grow_mu_
  // (epoch slots and per-segment stats, indexed by id / segment). This is
  // exactly the indexing that used to run off the end of the fixed
  // base-sized arrays — the ASan CI job guards it now.
  static constexpr int kNodeChunkBits = 12;
  static constexpr int64_t kNodeChunkSize = int64_t{1} << kNodeChunkBits;
  static constexpr int64_t kNodeChunkMask = kNodeChunkSize - 1;
  static constexpr size_t kMaxNodeChunks = size_t{1} << 14;  // 64M ids

  struct EpochChunk {
    std::array<std::atomic<uint64_t>, kNodeChunkSize> slots{};
  };
  struct RecordChunk {
    std::array<OverlayNodeRecord, kNodeChunkSize> records{};
  };

  /// Per-segment counters. Reads/writes are relaxed rate signals; entries
  /// is kept exact under the shard locks that mutate overlays.
  struct SegStat {
    std::atomic<int64_t> entries{0};
    std::atomic<int64_t> reads{0};
    std::atomic<int64_t> writes{0};
    std::atomic<uint64_t> folded_epoch{0};
  };
  static constexpr int kSegChunkBits = 8;
  static constexpr int64_t kSegChunkSize = int64_t{1} << kSegChunkBits;
  static constexpr int64_t kSegChunkMask = kSegChunkSize - 1;
  /// Enough chunks for the smallest span (64 rows) over the full 64M-id
  /// space.
  static constexpr size_t kMaxSegChunks = size_t{1} << 12;
  struct SegStatChunk {
    std::array<SegStat, kSegChunkSize> stats{};
  };

  /// Atomic epoch slot for any id below num_nodes_allocated().
  std::atomic<uint64_t>& node_epoch_slot(graph::NodeId id) const {
    EpochChunk* chunk =
        epoch_chunks_[static_cast<size_t>(id >> kNodeChunkBits)].load(
            std::memory_order_acquire);
    return chunk->slots[static_cast<size_t>(id & kNodeChunkMask)];
  }

  /// Record of overlay id `id` (>= overlay_origin_, < num_nodes_allocated).
  OverlayNodeRecord& overlay_record(graph::NodeId id) const {
    const int64_t idx = id - overlay_origin_;
    RecordChunk* chunk =
        record_chunks_[static_cast<size_t>(idx >> kNodeChunkBits)].load(
            std::memory_order_acquire);
    return chunk->records[static_cast<size_t>(idx & kNodeChunkMask)];
  }

  /// Stats of segment `s` (must be covered by EnsureEpochSlots growth).
  SegStat& seg_stat(int64_t s) const {
    SegStatChunk* chunk =
        seg_chunks_[static_cast<size_t>(s >> kSegChunkBits)].load(
            std::memory_order_acquire);
    return chunk->stats[static_cast<size_t>(s & kSegChunkMask)];
  }

  /// Counts an overlay-path read against the node's segment (relaxed; the
  /// adaptive compaction policy differences these between passes).
  void NoteSegmentRead(graph::NodeId node) const {
    seg_stat(segment_of(node)).reads.fetch_add(1, std::memory_order_relaxed);
  }

  /// Allocates epoch-slot and segment-stat chunks covering ids [0, n).
  /// Thread-safe.
  void EnsureEpochSlots(int64_t n);

  /// Verifies (or, for replay onto a fresh graph, allocates) the records of
  /// a batch's node events; called from ApplyBatch's validation pass.
  Status RegisterNodeEvents(const DeltaBatch& batch);

  /// Shared allocation tail of the AllocateNodeIds overloads and
  /// RegisterNodeEvents: grows the record/epoch-slot chunks to cover
  /// `new_end` overlay records, all born at `epoch`, and publishes the new
  /// bound. Caller holds alloc_mu_.
  Status GrowAllocationLocked(int64_t new_end, uint64_t epoch);

  /// Advances the contiguous applied-record prefix. Takes alloc_mu_.
  void AdvanceAppliedNodePrefix();

  /// Visible-prefix length of a node's overlay at `at_epoch` (entries are
  /// epoch-ordered). Caller must hold the node's lock shard.
  static size_t VisiblePrefix(const NodeOverlay& ov, uint64_t at_epoch);

  /// Current segmented base: swapped only at folds, read (copied) once per
  /// snapshot or batch — never per draw. Shared-mode acquisitions do not
  /// serialize readers against each other, and unlike
  /// std::atomic<shared_ptr>'s internal spinlock the protocol is visible to
  /// ThreadSanitizer, which the CI race job relies on.
  mutable std::shared_mutex base_mu_;
  std::shared_ptr<const graph::HeteroGraph> base_;  // guarded by base_mu_

  /// Shared body of the MakeSnapshot overloads: resolves the effective
  /// window (override, or the graph default when null) and clock in one
  /// decay_mu_ section, then captures (base, generation) and the watermark.
  Snapshot SnapshotUnder(const DecaySpec* override_window) const;

  DynamicHeteroGraphOptions options_;
  int content_dim_ = 0;
  /// Rows per segment (power of two) and its log2; fixed at construction.
  int64_t segment_span_ = 0;
  int segment_shift_ = 0;
  /// Base-CSR node counts per type at construction (immutable; overlay
  /// growth is tracked separately so capacity checks are O(1)).
  std::array<int64_t, graph::kNumNodeTypes> base_type_counts_ = {0, 0, 0};
  /// Overlay allocations per type (typed path counts at allocation under
  /// alloc_mu_; the legacy untyped path counts at apply).
  mutable std::array<std::atomic<int64_t>, graph::kNumNodeTypes>
      overlay_type_counts_ = {};
  /// All-zero content row (content_dim floats): the payload of cold-node
  /// stub rows in rebuilt segments, and the defensive fallback for empty
  /// record payloads.
  std::vector<float> zero_content_;

  /// First overlay id; fixed at construction (base ids are [0, origin)).
  const int64_t overlay_origin_;
  /// First overlay-born id across the restart lineage (== overlay_origin_
  /// unless recovered); see mint_origin().
  const int64_t mint_origin_;
  /// Birth epochs of folded mints [mint_origin_, overlay_origin_), restored
  /// from the checkpoint manifest. Immutable after construction.
  std::vector<uint64_t> folded_birth_epochs_;
  /// Per-segment replay floors of the recovered base (empty for a fresh
  /// graph — the filter is inert). A replayed half-edge (u -> v, epoch e)
  /// with e <= floor(seg(u)) was folded into u's row iff v was foldable at
  /// that fold, i.e. MintBirthEpoch(v) <= floor — otherwise it was carried
  /// over and must re-enter the overlay. Post-recovery traffic always
  /// carries epochs above every floor (floors <= the last pre-crash epoch,
  /// which the restored log's sequence resumes past), so the filter never
  /// touches live ingest. Immutable after construction.
  std::vector<uint64_t> replay_floors_;

  /// True iff the recovery replay filter decided half-edge (node -> nbr,
  /// epoch) is already folded into node's base row.
  bool ReplayFolded(graph::NodeId node, graph::NodeId nbr,
                    uint64_t epoch) const {
    if (replay_floors_.empty()) return false;
    const int64_t s = segment_of(node);
    if (s >= static_cast<int64_t>(replay_floors_.size())) return false;
    const uint64_t floor = replay_floors_[static_cast<size_t>(s)];
    return epoch <= floor && MintBirthEpoch(nbr) <= floor;
  }

  /// Per-id overlay versions (0 = no overlay), covering base + overlay ids.
  std::unique_ptr<std::atomic<EpochChunk*>[]> epoch_chunks_;
  /// Overlay node records, indexed by id - overlay_origin_. Append-only;
  /// retained across folds so old-base snapshots keep resolving folded
  /// ids (bounded by the number of nodes ever streamed).
  std::unique_ptr<std::atomic<RecordChunk*>[]> record_chunks_;
  /// Per-segment pressure counters, indexed by segment number.
  std::unique_ptr<std::atomic<SegStatChunk*>[]> seg_chunks_;
  /// Records with birth_epoch written (publishes the binary-search bound).
  std::atomic<int64_t> overlay_allocated_{0};
  /// Length of the contiguous prefix of applied records; with the monotone
  /// birth epochs this makes snapshot num_nodes() a pure prefix count.
  std::atomic<int64_t> applied_node_prefix_{0};
  /// Serializes allocation, record-chunk growth, and prefix advancement.
  mutable std::mutex alloc_mu_;
  /// Serializes epoch-slot/segment-stat chunk growth (taken inside
  /// alloc_mu_ sections and at construction; never nested the other way).
  std::mutex grow_mu_;

  std::array<LockShard, kNumLockShards> lock_shards_;
  std::atomic<uint64_t> max_applied_epoch_{0};
  std::atomic<int64_t> total_entries_{0};
  std::atomic<uint64_t> base_generation_{0};  // bumped by every fold
  std::atomic<int64_t> expired_cold_nodes_{0};
  uint64_t compacted_through_epoch_ = 0;  // guarded by compact_mu_
  std::mutex compact_mu_;
  /// Fold telemetry (registry-owned; resolved once at construction).
  obs::Histogram* fold_pause_us_ = nullptr;
  obs::Histogram* fold_segments_ = nullptr;

  /// Graph-default TTL/decay window; copied into every snapshot.
  mutable std::shared_mutex decay_mu_;
  DecaySpec decay_spec_;                          // guarded by decay_mu_
  const LogicalClock* clock_ = nullptr;           // guarded by decay_mu_

  std::atomic<maintenance::HotNodeOverlayCache*> hot_cache_{nullptr};

  /// Recomputes and CAS-max-publishes watermark_epoch_ from the pending
  /// set. Caller must hold epoch_mu_.
  void PublishWatermarkLocked();

  /// Issued-but-unapplied epochs; min(pending) - 1 bounds the watermark.
  mutable std::mutex epoch_mu_;
  std::set<uint64_t> pending_epochs_;  // guarded by epoch_mu_
  std::atomic<uint64_t> watermark_epoch_{0};

  mutable std::mutex participants_mu_;
  std::vector<CompactionParticipant*> participants_;  // guarded above
};

}  // namespace streaming
}  // namespace zoomer

#endif  // ZOOMER_STREAMING_DYNAMIC_HETERO_GRAPH_H_
