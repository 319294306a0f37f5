#include "streaming/dynamic_hetero_graph.h"

#include <algorithm>
#include <string>

#include "common/logging.h"
#include "common/timer.h"
#include "graph/graph_view.h"
#include "maintenance/hot_node_cache.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace zoomer {
namespace streaming {

using graph::HeteroGraph;
using graph::NeighborEntry;
using graph::NodeId;

DynamicHeteroGraph::DynamicHeteroGraph(const HeteroGraph* base,
                                       DynamicHeteroGraphOptions options)
    : DynamicHeteroGraph(
          std::shared_ptr<const HeteroGraph>(base, [](const HeteroGraph*) {}),
          options) {}

DynamicHeteroGraph::DynamicHeteroGraph(
    std::shared_ptr<const HeteroGraph> base,
    DynamicHeteroGraphOptions options)
    : options_(options),
      overlay_origin_(base != nullptr ? base->num_nodes() : 0),
      mint_origin_(base != nullptr ? base->num_nodes() : 0),
      epoch_chunks_(new std::atomic<EpochChunk*>[kMaxNodeChunks]()),
      record_chunks_(new std::atomic<RecordChunk*>[kMaxNodeChunks]()),
      seg_chunks_(new std::atomic<SegStatChunk*>[kMaxSegChunks]()) {
  ZCHECK(base != nullptr);
  {
    obs::MetricsRegistry* reg = options_.registry != nullptr
                                    ? options_.registry
                                    : obs::MetricsRegistry::Global();
    fold_pause_us_ = reg->GetHistogram("maintenance.fold_pause_us");
    fold_segments_ = reg->GetHistogram("maintenance.fold_segments");
  }
  content_dim_ = base->content_dim();
  zero_content_.assign(static_cast<size_t>(content_dim_), 0.0f);
  int64_t span = options_.segment_span;
  if (span == 0) {
    // Auto: ~16 segments over the base, never finer than 64 rows — small
    // graphs degenerate to one segment (incremental == full fold there).
    const int64_t target = std::max<int64_t>(64, overlay_origin_ / 16);
    span = 64;
    while (span < target) span <<= 1;
  }
  ZCHECK(span > 0 && (span & (span - 1)) == 0)
      << "segment_span must be a power of two";
  segment_span_ = span;
  segment_shift_ = 0;
  while ((int64_t{1} << segment_shift_) < span) ++segment_shift_;
  for (int t = 0; t < graph::kNumNodeTypes; ++t) {
    base_type_counts_[t] =
        base->num_nodes_of_type(static_cast<graph::NodeType>(t));
  }
  EnsureEpochSlots(overlay_origin_);
  // Generation 1 for the initial partition: 0 stays the "beyond coverage"
  // sentinel generation_of() hands out for never-folded overlay ids.
  base_ = std::make_shared<const HeteroGraph>(*base, span, /*generation=*/1);
  base_generation_.store(1, std::memory_order_release);
}

StatusOr<std::unique_ptr<DynamicHeteroGraph>> DynamicHeteroGraph::Recover(
    const RecoveryImage& image, DynamicHeteroGraphOptions options) {
  if (image.base == nullptr) {
    return Status::InvalidArgument("recovery image has no base");
  }
  const int64_t coverage = image.base->num_nodes();
  if (options.segment_span != 0 &&
      options.segment_span != image.base->segment_span()) {
    return Status::InvalidArgument(
        "options.segment_span disagrees with the checkpointed base");
  }
  if (image.base_generation == 0) {
    return Status::InvalidArgument("base generation must be >= 1");
  }
  for (int64_t s = 0; s < image.base->num_segments(); ++s) {
    if (image.base->segment_generation(s) > image.base_generation) {
      return Status::InvalidArgument(
          "a segment's generation exceeds the recorded base generation");
    }
  }
  if (image.mint_origin < 0 || image.mint_origin > coverage) {
    return Status::InvalidArgument("mint origin outside the base id-space");
  }
  if (static_cast<int64_t>(image.folded_birth_epochs.size()) !=
      coverage - image.mint_origin) {
    return Status::InvalidArgument(
        "folded birth table does not span [mint_origin, base coverage)");
  }
  uint64_t last_birth = 0;
  for (uint64_t b : image.folded_birth_epochs) {
    if (b == 0 || b < last_birth) {
      return Status::InvalidArgument(
          "folded birth epochs must be positive and monotone in id");
    }
    last_birth = b;
  }
  NodeId expect = coverage;
  for (const RestoredNodeRecord& r : image.overlay_records) {
    if (r.id != expect++) {
      return Status::InvalidArgument(
          "overlay records must be contiguous from base coverage");
    }
    if (r.birth_epoch == 0 || r.birth_epoch < last_birth) {
      return Status::InvalidArgument(
          "overlay record birth epochs must be positive and monotone in id");
    }
    last_birth = r.birth_epoch;
    if (r.applied) {
      if (static_cast<int>(r.content.size()) != image.base->content_dim()) {
        return Status::InvalidArgument("restored record content dim mismatch");
      }
      if (static_cast<int>(r.type) < 0 ||
          static_cast<int>(r.type) >= graph::kNumNodeTypes) {
        return Status::InvalidArgument("restored record type out of range");
      }
    } else if (r.birth_epoch <= image.checkpoint_epoch) {
      // An unapplied batch holds the watermark — and SafeTruncateEpoch —
      // below its epoch, so an unapplied record born at or below the
      // checkpoint epoch can only come from a corrupt manifest.
      return Status::InvalidArgument(
          "an unapplied record cannot be born at or below the checkpoint "
          "epoch");
    }
  }
  return std::unique_ptr<DynamicHeteroGraph>(
      new DynamicHeteroGraph(image, options));
}

DynamicHeteroGraph::DynamicHeteroGraph(const RecoveryImage& image,
                                       DynamicHeteroGraphOptions options)
    : options_(options),
      overlay_origin_(image.base->num_nodes()),
      mint_origin_(image.mint_origin),
      epoch_chunks_(new std::atomic<EpochChunk*>[kMaxNodeChunks]()),
      record_chunks_(new std::atomic<RecordChunk*>[kMaxNodeChunks]()),
      seg_chunks_(new std::atomic<SegStatChunk*>[kMaxSegChunks]()) {
  {
    obs::MetricsRegistry* reg = options_.registry != nullptr
                                    ? options_.registry
                                    : obs::MetricsRegistry::Global();
    fold_pause_us_ = reg->GetHistogram("maintenance.fold_pause_us");
    fold_segments_ = reg->GetHistogram("maintenance.fold_segments");
  }
  content_dim_ = image.base->content_dim();
  zero_content_.assign(static_cast<size_t>(content_dim_), 0.0f);
  segment_span_ = image.base->segment_span();
  segment_shift_ = image.base->span_shift();
  folded_birth_epochs_ = image.folded_birth_epochs;
  for (int t = 0; t < graph::kNumNodeTypes; ++t) {
    base_type_counts_[t] =
        image.base->num_nodes_of_type(static_cast<graph::NodeType>(t));
  }
  EnsureEpochSlots(overlay_origin_);
  base_ = image.base;
  base_generation_.store(image.base_generation, std::memory_order_release);
  // Per-segment replay floors, mirrored into the pressure stats so the
  // janitor's staleness view survives the restart.
  replay_floors_.reserve(static_cast<size_t>(image.base->num_segments()));
  for (int64_t s = 0; s < image.base->num_segments(); ++s) {
    const uint64_t floor = image.base->segment(s).folded_epoch();
    replay_floors_.push_back(floor);
    seg_stat(s).folded_epoch.store(floor, std::memory_order_release);
  }
  // Restore the overlay records past base coverage. Applied records carry
  // their payloads (their WAL batches replay as no-ops); unapplied records
  // reserve their id + birth epoch and take their payload from replay.
  {
    std::lock_guard<std::mutex> lock(alloc_mu_);
    for (const RestoredNodeRecord& r : image.overlay_records) {
      const int64_t idx = r.id - overlay_origin_;
      Status st = GrowAllocationLocked(idx + 1, r.birth_epoch);
      ZCHECK(st.ok()) << st.ToString();  // Recover() validated monotonicity
      if (!r.applied) continue;
      OverlayNodeRecord& rec = overlay_record(r.id);
      rec.type = r.type;
      rec.type_claimed = true;
      rec.timestamp = r.timestamp;
      rec.content = r.content;
      rec.slots = r.slots;
      overlay_type_counts_[static_cast<int>(r.type)].fetch_add(
          1, std::memory_order_relaxed);
      rec.applied.store(true, std::memory_order_release);
    }
  }
  AdvanceAppliedNodePrefix();
  // The recovered graph reads exactly as a snapshot at the checkpoint epoch
  // did pre-crash: restored records born above it stay invisible until
  // replay re-applies their batches and the watermark passes their births.
  max_applied_epoch_.store(image.checkpoint_epoch, std::memory_order_release);
  watermark_epoch_.store(image.checkpoint_epoch, std::memory_order_release);
  compacted_through_epoch_ = image.checkpoint_epoch;
}

uint64_t DynamicHeteroGraph::MintBirthEpoch(NodeId id) const {
  if (id < mint_origin_) return 0;  // offline-born: predates every epoch
  if (id < overlay_origin_) {
    return folded_birth_epochs_[static_cast<size_t>(id - mint_origin_)];
  }
  ZCHECK(id < num_nodes_allocated());
  return overlay_record(id).birth_epoch;
}

DynamicHeteroGraph::RestoredNodeRecord DynamicHeteroGraph::SnapshotNodeRecord(
    NodeId id) const {
  ZCHECK(id >= overlay_origin_ && id < num_nodes_allocated());
  const OverlayNodeRecord& rec = overlay_record(id);
  RestoredNodeRecord out;
  out.id = id;
  out.birth_epoch = rec.birth_epoch;  // immutable once published
  if (rec.applied.load(std::memory_order_acquire)) {
    // The payload is immutable once `applied` is set (release/acquire pair
    // with ApplyBatch), so this copy is race-free under live ingest. An
    // unapplied payload may be mid-write — its WAL batch is the durable
    // source instead.
    out.applied = true;
    out.type = rec.type;
    out.timestamp = rec.timestamp;
    out.content = rec.content;
    out.slots = rec.slots;
  }
  return out;
}

DynamicHeteroGraph::~DynamicHeteroGraph() {
  for (size_t c = 0; c < kMaxNodeChunks; ++c) {
    delete epoch_chunks_[c].load(std::memory_order_acquire);
    delete record_chunks_[c].load(std::memory_order_acquire);
  }
  for (size_t c = 0; c < kMaxSegChunks; ++c) {
    delete seg_chunks_[c].load(std::memory_order_acquire);
  }
}

void DynamicHeteroGraph::EnsureEpochSlots(int64_t n) {
  if (n <= 0) return;
  const size_t need = static_cast<size_t>((n - 1) >> kNodeChunkBits) + 1;
  ZCHECK(need <= kMaxNodeChunks) << "id-space exceeds the chunk capacity";
  const int64_t nsegs = ((n - 1) >> segment_shift_) + 1;
  const size_t seg_need = static_cast<size_t>((nsegs - 1) >> kSegChunkBits) + 1;
  ZCHECK(seg_need <= kMaxSegChunks)
      << "segment count exceeds the chunk capacity";
  std::lock_guard<std::mutex> lock(grow_mu_);
  for (size_t c = 0; c < need; ++c) {
    if (epoch_chunks_[c].load(std::memory_order_relaxed) == nullptr) {
      epoch_chunks_[c].store(new EpochChunk(), std::memory_order_release);
    }
  }
  for (size_t c = 0; c < seg_need; ++c) {
    if (seg_chunks_[c].load(std::memory_order_relaxed) == nullptr) {
      seg_chunks_[c].store(new SegStatChunk(), std::memory_order_release);
    }
  }
}

Status DynamicHeteroGraph::GrowAllocationLocked(int64_t new_end,
                                                uint64_t epoch) {
  const int64_t before = overlay_allocated_.load(std::memory_order_relaxed);
  if (new_end <= before) return Status::OK();
  if (before > 0 &&
      overlay_record(overlay_origin_ + before - 1).birth_epoch > epoch) {
    return Status::InvalidArgument(
        "birth epochs must be monotone in id (allocate under the log's "
        "epoch lock)");
  }
  const size_t need =
      static_cast<size_t>((new_end - 1) >> kNodeChunkBits) + 1;
  if (need > kMaxNodeChunks) {
    return Status::OutOfRange("id-space exceeds the chunk capacity");
  }
  for (size_t c = 0; c < need; ++c) {
    if (record_chunks_[c].load(std::memory_order_relaxed) == nullptr) {
      record_chunks_[c].store(new RecordChunk(), std::memory_order_release);
    }
  }
  EnsureEpochSlots(overlay_origin_ + new_end);
  for (int64_t i = before; i < new_end; ++i) {
    overlay_record(overlay_origin_ + i).birth_epoch = epoch;
  }
  overlay_allocated_.store(new_end, std::memory_order_release);
  return Status::OK();
}

NodeId DynamicHeteroGraph::AllocateNodeIds(int count, uint64_t epoch) {
  ZCHECK_GT(count, 0);
  ZCHECK_GT(epoch, 0u) << "node ids are born at a log epoch";
  std::lock_guard<std::mutex> lock(alloc_mu_);
  const int64_t start = overlay_allocated_.load(std::memory_order_relaxed);
  Status st = GrowAllocationLocked(start + count, epoch);
  ZCHECK(st.ok()) << st.ToString();
  return overlay_origin_ + start;
}

StatusOr<NodeId> DynamicHeteroGraph::AllocateNodeIds(
    const std::vector<NodeEvent>& nodes, uint64_t epoch) {
  if (nodes.empty()) {
    return Status::InvalidArgument("typed allocation needs node events");
  }
  if (epoch == 0) {
    return Status::InvalidArgument("node ids are born at a log epoch");
  }
  std::array<int64_t, graph::kNumNodeTypes> add = {0, 0, 0};
  for (const NodeEvent& nv : nodes) ++add[static_cast<int>(nv.type)];
  std::lock_guard<std::mutex> lock(alloc_mu_);
  // Capacity first, allocation second: exhaustion must reject before any id
  // is burned — a stranded allocated-but-unapplied record would freeze the
  // applied prefix (and every later node's visibility) behind it.
  for (int t = 0; t < graph::kNumNodeTypes; ++t) {
    const int64_t cap = options_.max_nodes_per_type[t];
    if (cap > 0 &&
        base_type_counts_[t] +
                overlay_type_counts_[t].load(std::memory_order_relaxed) +
                add[t] >
            cap) {
      return Status::OutOfRange(
          std::string("node capacity exhausted for type ") +
          graph::NodeTypeName(static_cast<graph::NodeType>(t)));
    }
  }
  const int64_t start = overlay_allocated_.load(std::memory_order_relaxed);
  Status st = GrowAllocationLocked(start + static_cast<int64_t>(nodes.size()),
                                   epoch);
  if (!st.ok()) return st;
  for (size_t i = 0; i < nodes.size(); ++i) {
    OverlayNodeRecord& rec =
        overlay_record(overlay_origin_ + start + static_cast<int64_t>(i));
    rec.type = nodes[i].type;
    rec.type_claimed = true;
  }
  for (int t = 0; t < graph::kNumNodeTypes; ++t) {
    if (add[t] != 0) {
      overlay_type_counts_[t].fetch_add(add[t], std::memory_order_acq_rel);
    }
  }
  return overlay_origin_ + start;
}

int64_t DynamicHeteroGraph::VisibleOverlayNodes(uint64_t epoch) const {
  // Binary search over the monotone birth epochs, clamped to the applied
  // prefix: an allocated-but-unapplied record (its batch is still pending,
  // or was rejected) must never become readable.
  int64_t lo = 0;
  int64_t hi = std::min(overlay_allocated_.load(std::memory_order_acquire),
                        applied_node_prefix_.load(std::memory_order_acquire));
  while (lo < hi) {
    const int64_t mid = lo + (hi - lo) / 2;
    if (overlay_record(overlay_origin_ + mid).birth_epoch <= epoch) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

void DynamicHeteroGraph::AdvanceAppliedNodePrefix() {
  std::lock_guard<std::mutex> lock(alloc_mu_);
  const int64_t allocated =
      overlay_allocated_.load(std::memory_order_acquire);
  int64_t prefix = applied_node_prefix_.load(std::memory_order_relaxed);
  while (prefix < allocated &&
         overlay_record(overlay_origin_ + prefix)
             .applied.load(std::memory_order_acquire)) {
    ++prefix;
  }
  applied_node_prefix_.store(prefix, std::memory_order_release);
}

std::shared_ptr<const HeteroGraph> DynamicHeteroGraph::base() const {
  std::shared_lock<std::shared_mutex> lock(base_mu_);
  return base_;
}

std::pair<std::shared_ptr<const HeteroGraph>, uint64_t>
DynamicHeteroGraph::CapturedBase() const {
  std::shared_lock<std::shared_mutex> lock(base_mu_);
  return {base_, base_generation_.load(std::memory_order_acquire)};
}

void DynamicHeteroGraph::ConfigureDecay(const DecaySpec& spec,
                                        const LogicalClock* clock) {
  ZCHECK(!spec.active() || clock != nullptr)
      << "an active TTL/decay window needs a LogicalClock";
  std::unique_lock<std::shared_mutex> lock(decay_mu_);
  decay_spec_ = spec;
  clock_ = clock;
}

void DynamicHeteroGraph::SetClock(const LogicalClock* clock) {
  std::unique_lock<std::shared_mutex> lock(decay_mu_);
  clock_ = clock;
}

DecaySpec DynamicHeteroGraph::decay_spec() const {
  std::shared_lock<std::shared_mutex> lock(decay_mu_);
  return decay_spec_;
}

void DynamicHeteroGraph::AttachHotNodeCache(
    maintenance::HotNodeOverlayCache* cache) {
  hot_cache_.store(cache, std::memory_order_release);
}

void DynamicHeteroGraph::DetachHotNodeCache(
    maintenance::HotNodeOverlayCache* cache) {
  maintenance::HotNodeOverlayCache* expected = cache;
  hot_cache_.compare_exchange_strong(expected, nullptr,
                                     std::memory_order_acq_rel);
}

DynamicHeteroGraph::Snapshot::Snapshot(
    const DynamicHeteroGraph* owner,
    std::shared_ptr<const HeteroGraph> base, uint64_t base_generation,
    uint64_t epoch, DecaySpec decay, int64_t as_of)
    : owner_(owner),
      base_(std::move(base)),
      epoch_(epoch),
      base_generation_(base_generation),
      // The pinned id-space. After a fold the new base may already cover
      // overlay nodes this epoch cannot "see" through birth epochs
      // (folding goes by applied state, not snapshot visibility), so the
      // base size is the floor.
      num_nodes_(std::max(base_->num_nodes(),
                          owner->overlay_origin_ +
                              owner->VisibleOverlayNodes(epoch))),
      hot_cache_(owner->hot_cache_.load(std::memory_order_acquire)),
      hot_pin_(hot_cache_ != nullptr ? hot_cache_->PinReaders() : nullptr),
      decay_(decay),
      decay_active_(decay.active()),
      as_of_(as_of) {}

graph::NodeType DynamicHeteroGraph::Snapshot::node_type(NodeId node) const {
  ZCHECK(node >= 0 && node < num_nodes_);
  if (node < base_->num_nodes()) return base_->node_type(node);
  return owner_->overlay_record(node).type;
}

const float* DynamicHeteroGraph::Snapshot::content(NodeId node) const {
  ZCHECK(node >= 0 && node < num_nodes_);
  if (node < base_->num_nodes()) return base_->content(node);
  const OverlayNodeRecord& rec = owner_->overlay_record(node);
  // Defensive zero fallback (payloads are never freed while the graph
  // lives, but an empty vector's data() may be null).
  if (rec.content.empty()) return owner_->zero_content_.data();
  return rec.content.data();
}

std::span<const int64_t> DynamicHeteroGraph::Snapshot::slots(
    NodeId node) const {
  ZCHECK(node >= 0 && node < num_nodes_);
  if (node < base_->num_nodes()) return base_->slots(node);
  const OverlayNodeRecord& rec = owner_->overlay_record(node);
  return {rec.slots.data(), rec.slots.size()};
}

DynamicHeteroGraph::Snapshot DynamicHeteroGraph::SnapshotUnder(
    const DecaySpec* override_window) const {
  DecaySpec spec;
  const LogicalClock* clock = nullptr;
  {
    std::shared_lock<std::shared_mutex> lock(decay_mu_);
    spec = override_window != nullptr ? *override_window : decay_spec_;
    clock = clock_;
  }
  // ConfigureDecay enforces this for the graph default; per-view windows
  // land here, where a missing clock would otherwise silently disable the
  // whole window (age 0 - timestamp never expires anything).
  ZCHECK(!spec.active() || clock != nullptr)
      << "an active TTL/decay window needs a LogicalClock "
         "(SetClock/ConfigureDecay)";
  const int64_t as_of = spec.active() ? clock->NowSeconds() : 0;
  auto [base, generation] = CapturedBase();
  return Snapshot(this, std::move(base), generation, watermark_epoch(), spec,
                  as_of);
}

DynamicHeteroGraph::Snapshot DynamicHeteroGraph::MakeSnapshot() const {
  return SnapshotUnder(nullptr);
}

DynamicHeteroGraph::Snapshot DynamicHeteroGraph::MakeSnapshot(
    const DecaySpec& window) const {
  return SnapshotUnder(&window);
}

void DynamicHeteroGraph::PublishWatermarkLocked() {
  // Issued epochs are strictly increasing, so min(pending) only grows as
  // batches land and the candidate is monotone; the CAS-max keeps the
  // published watermark from ever moving backwards regardless.
  const uint64_t candidate =
      pending_epochs_.empty()
          ? max_applied_epoch_.load(std::memory_order_acquire)
          : *pending_epochs_.begin() - 1;
  uint64_t cur = watermark_epoch_.load(std::memory_order_relaxed);
  while (cur < candidate && !watermark_epoch_.compare_exchange_weak(
                                cur, candidate, std::memory_order_acq_rel)) {
  }
}

void DynamicHeteroGraph::NoteEpochIssued(uint64_t epoch) {
  if (epoch == 0) return;
  std::lock_guard<std::mutex> lock(epoch_mu_);
  pending_epochs_.insert(epoch);
  PublishWatermarkLocked();
}

void DynamicHeteroGraph::AttachParticipant(CompactionParticipant* participant) {
  if (participant == nullptr) return;
  std::lock_guard<std::mutex> lock(participants_mu_);
  for (CompactionParticipant* p : participants_) {
    if (p == participant) return;
  }
  participants_.push_back(participant);
}

void DynamicHeteroGraph::DetachParticipant(CompactionParticipant* participant) {
  std::lock_guard<std::mutex> lock(participants_mu_);
  participants_.erase(
      std::remove(participants_.begin(), participants_.end(), participant),
      participants_.end());
}

size_t DynamicHeteroGraph::VisiblePrefix(const NodeOverlay& ov,
                                         uint64_t at_epoch) {
  auto it = std::upper_bound(
      ov.entries.begin(), ov.entries.end(), at_epoch,
      [](uint64_t e, const DeltaEntry& d) { return e < d.epoch; });
  return static_cast<size_t>(it - ov.entries.begin());
}

Status DynamicHeteroGraph::ApplyBatch(const DeltaBatch& batch) {
  // A rejected batch will never apply: retire its pending-epoch mark on
  // every failure path, or the watermark would freeze below it forever.
  auto reject = [this, &batch](Status st) {
    std::lock_guard<std::mutex> lock(epoch_mu_);
    pending_epochs_.erase(batch.epoch);
    PublishWatermarkLocked();
    return st;
  };
  if (batch.epoch == 0) {
    return reject(Status::InvalidArgument("delta batch has no epoch"));
  }
  auto base = this->base();
  // Validate the whole batch — edges included — before RegisterNodeEvents
  // commits any allocation: a batch rejected after allocating would leave a
  // permanently-unapplied record that blocks the applied-node prefix (and
  // with it every later node's visibility).
  const int64_t n = num_nodes_allocated();
  auto in_batch_node = [&batch](NodeId id) {
    for (const NodeEvent& nv : batch.node_events) {
      if (nv.id == id) return true;
    }
    return false;
  };
  for (const EdgeEvent& ev : batch.events) {
    for (const NodeId endpoint : {ev.src, ev.dst}) {
      if (endpoint >= 0 && endpoint < overlay_origin_) continue;
      // Overlay endpoints must be introduced by this very batch, or already
      // applied at or below this batch's epoch — otherwise a snapshot could
      // surface an edge to an id beyond its pinned num_nodes().
      if (in_batch_node(endpoint)) continue;
      if (endpoint < 0 || endpoint >= n) {
        return reject(Status::OutOfRange("edge event endpoint out of range"));
      }
      const OverlayNodeRecord& rec = overlay_record(endpoint);
      if (rec.birth_epoch > batch.epoch) {
        return reject(Status::InvalidArgument(
            "edge references a node born at a later epoch"));
      }
      if (!rec.applied.load(std::memory_order_acquire)) {
        return reject(Status::InvalidArgument(
            "edge references a never-ingested node id"));
      }
    }
    if (ev.src == ev.dst) {
      return reject(Status::InvalidArgument("self-loops are not allowed"));
    }
    if (!(ev.weight >= 0.0f) || ev.weight > 1e30f) {
      // Rejects negatives, NaN (all comparisons false) and infinities,
      // which would poison the overlay prefix sums.
      return reject(
          Status::InvalidArgument("edge weight must be finite and non-negative"));
    }
  }
  // Register (or, for replay onto a fresh graph, allocate) the batch's node
  // records; validates before mutating, so a rejection leaves no trace.
  if (!batch.node_events.empty()) {
    Status st = RegisterNodeEvents(batch);
    if (!st.ok()) return reject(st);
  }
  // Apply node events before edge events, so a mixed batch introduces a
  // node and its first edges at one visibility instant (the batch epoch).
  bool applied_nodes = false;
  for (const NodeEvent& nv : batch.node_events) {
    if (nv.id < overlay_origin_) continue;  // replayed mint already folded
    OverlayNodeRecord& rec = overlay_record(nv.id);
    if (rec.applied.load(std::memory_order_acquire)) continue;  // replay
    // Per-type accounting: a typed allocation already counted its claim;
    // the legacy untyped path counts here, at apply. A (misused) claim
    // mismatch moves the count rather than double-counting.
    if (!rec.type_claimed) {
      overlay_type_counts_[static_cast<int>(nv.type)].fetch_add(
          1, std::memory_order_acq_rel);
    } else if (rec.type != nv.type) {
      overlay_type_counts_[static_cast<int>(rec.type)].fetch_sub(
          1, std::memory_order_acq_rel);
      overlay_type_counts_[static_cast<int>(nv.type)].fetch_add(
          1, std::memory_order_acq_rel);
    }
    rec.type = nv.type;
    rec.timestamp = nv.timestamp;
    rec.content = nv.content;
    rec.slots = nv.slots;
    rec.applied.store(true, std::memory_order_release);
    applied_nodes = true;
  }
  if (applied_nodes) AdvanceAppliedNodePrefix();
  for (const EdgeEvent& ev : batch.events) {
    // Recovery replay: a half-edge a checkpointed segment already folded
    // must not re-enter the overlay (the next fold would double-count it);
    // the two directions decide independently — seg(src) may have folded
    // this epoch while seg(dst) had not. Inert outside replay (empty
    // floors, and live epochs always exceed every floor).
    if (!ReplayFolded(ev.src, ev.dst, batch.epoch)) {
      AppendHalfEdge(*base, ev.src, {ev.dst, ev.weight, ev.kind}, batch.epoch,
                     ev.timestamp);
    }
    if (!ReplayFolded(ev.dst, ev.src, batch.epoch)) {
      AppendHalfEdge(*base, ev.dst, {ev.src, ev.weight, ev.kind}, batch.epoch,
                     ev.timestamp);
    }
  }
  // Hot-node entries for the touched endpoints are stale now (their overlay
  // version moved); the lookup version check already rejects them, eager
  // invalidation just returns the memory before the next refresh pass.
  if (auto* cache = hot_cache_.load(std::memory_order_acquire)) {
    for (const EdgeEvent& ev : batch.events) {
      cache->Invalidate(ev.src);
      cache->Invalidate(ev.dst);
    }
  }
  // Publish the epoch only after every entry is in place, so snapshots taken
  // at this epoch see the whole batch.
  uint64_t cur = max_applied_epoch_.load(std::memory_order_relaxed);
  while (cur < batch.epoch &&
         !max_applied_epoch_.compare_exchange_weak(
             cur, batch.epoch, std::memory_order_acq_rel)) {
  }
  {
    // Retire the pending mark last: the watermark may only advance past this
    // epoch once its entries are fully visible.
    std::lock_guard<std::mutex> lock(epoch_mu_);
    pending_epochs_.erase(batch.epoch);
    PublishWatermarkLocked();
  }
  return Status::OK();
}

Status DynamicHeteroGraph::RegisterNodeEvents(const DeltaBatch& batch) {
  std::lock_guard<std::mutex> lock(alloc_mu_);
  const int64_t before = overlay_allocated_.load(std::memory_order_relaxed);
  int64_t allocated = before;
  // Pure validation first — ApplyBatch's whole-batch-or-nothing contract.
  for (const NodeEvent& nv : batch.node_events) {
    if (nv.id < overlay_origin_) {
      // A WAL-replayed mint the recovered base already covers (the node
      // folded before the crash): nothing to register, and the apply loop
      // skips it too. Everything else below the origin is a caller bug.
      if (!replay_floors_.empty() && nv.id >= mint_origin_ &&
          MintBirthEpoch(nv.id) == batch.epoch) {
        continue;
      }
      return Status::InvalidArgument("node event id inside the base id-space");
    }
    if (static_cast<int>(nv.content.size()) != content_dim_) {
      return Status::InvalidArgument("node event content dim mismatch");
    }
    const int64_t idx = nv.id - overlay_origin_;
    if (idx < allocated) {
      // Pre-allocated (the pipeline path) or a replayed duplicate: the id
      // must have been born at this batch's epoch, or visibility and
      // adjacency would disagree about when the node appeared.
      if (idx < before && overlay_record(nv.id).birth_epoch != batch.epoch) {
        return Status::InvalidArgument(
            "node event epoch does not match the id's birth epoch");
      }
    } else if (idx == allocated) {
      // Replay / direct-apply path onto a graph that never allocated this
      // id: extend the id-space in order.
      ++allocated;
    } else {
      return Status::InvalidArgument("node event id leaves an allocation gap");
    }
  }
  return GrowAllocationLocked(allocated, batch.epoch);
}

void DynamicHeteroGraph::AppendHalfEdge(const HeteroGraph& base, NodeId node,
                                        NeighborEntry entry, uint64_t epoch,
                                        int64_t timestamp) {
  LockShard& sh = lock_shards_[ShardFor(node)];
  {
    std::unique_lock<std::shared_mutex> lock(sh.mu);
    auto [it, inserted] = sh.overlays.try_emplace(node);
    NodeOverlay& ov = it->second;
    if (inserted) {
      // One O(degree) pass caches the base weight mass for the two-level
      // base-vs-delta sampling coin. Overlay-born nodes beyond base
      // coverage have no base edges.
      double total = 0.0;
      if (node < base.num_nodes()) {
        for (float w : base.neighbor_weights(node)) total += w;
      }
      ov.base_total_weight = total;
    }
    // Entries stay epoch-ordered; batches almost always arrive in epoch
    // order, so this is an append with a rare short sorted insert.
    size_t pos = ov.entries.size();
    while (pos > 0 && ov.entries[pos - 1].epoch > epoch) --pos;
    ov.entries.insert(ov.entries.begin() + pos,
                      DeltaEntry{entry, epoch, timestamp});
    ov.weight_prefix.resize(ov.entries.size());
    for (size_t i = pos; i < ov.entries.size(); ++i) {
      ov.weight_prefix[i] = (i == 0 ? 0.0 : ov.weight_prefix[i - 1]) +
                            static_cast<double>(ov.entries[i].e.weight);
    }
    // Lifetime traffic of an overlay-born node — the cold-node TTL signal.
    if (node >= overlay_origin_) ++overlay_record(node).lifetime_entries;
  }
  total_entries_.fetch_add(1, std::memory_order_acq_rel);
  SegStat& ss = seg_stat(segment_of(node));
  ss.entries.fetch_add(1, std::memory_order_relaxed);
  ss.writes.fetch_add(1, std::memory_order_relaxed);
  std::atomic<uint64_t>& slot = node_epoch_slot(node);
  uint64_t cur = slot.load(std::memory_order_relaxed);
  while (cur < epoch &&
         !slot.compare_exchange_weak(cur, epoch,
                                     std::memory_order_acq_rel)) {
  }
}

const maintenance::HotNodeCacheEntry* DynamicHeteroGraph::Snapshot::HotEntry(
    NodeId node, uint64_t overlay_version) const {
  if (hot_cache_ == nullptr || overlay_version == 0) return nullptr;
  // Entries are stamped with the generation of the one segment backing the
  // node, so an incremental fold elsewhere leaves this lookup valid.
  return hot_cache_->Find(node, epoch_, overlay_version,
                          base_->generation_of(node), decay_active_, as_of_,
                          decay_);
}

float DynamicHeteroGraph::Snapshot::EntryWeight(const DeltaEntry& d) const {
  if (!decay_active_) return d.e.weight;
  const int64_t age = as_of_ - d.timestamp;
  if (decay_.Expired(d.e.kind, age)) return -1.0f;
  return decay_.DecayedWeight(d.e.kind, d.e.weight, age);
}

template <typename Fn>
void DynamicHeteroGraph::Snapshot::ForEachVisibleDelta(
    const DeltaEntry* entries, size_t prefix, Fn&& fn) const {
  for (size_t i = 0; i < prefix; ++i) {
    const float w = EntryWeight(entries[i]);
    if (w < 0.0f) continue;  // past TTL at as_of
    fn(entries[i], w);
  }
}

bool DynamicHeteroGraph::Snapshot::HasDelta(NodeId node) const {
  return DeltaDegree(node) > 0;
}

int64_t DynamicHeteroGraph::Snapshot::DeltaDegree(NodeId node) const {
  ZCHECK(node >= 0 && node < num_nodes_);
  if (owner_->node_epoch_slot(node).load(std::memory_order_acquire) == 0) {
    return 0;
  }
  const LockShard& sh = owner_->lock_shards_[ShardFor(node)];
  std::shared_lock<std::shared_mutex> lock(sh.mu);
  auto it = sh.overlays.find(node);
  if (it == sh.overlays.end()) return 0;
  const size_t prefix = VisiblePrefix(it->second, epoch_);
  if (!decay_active_) return static_cast<int64_t>(prefix);
  int64_t alive = 0;
  ForEachVisibleDelta(it->second.entries.data(), prefix,
                      [&alive](const DeltaEntry&, float) { ++alive; });
  return alive;
}

int64_t DynamicHeteroGraph::Snapshot::Degree(NodeId node) const {
  const int64_t base_degree = InBase(node) ? base_->degree(node) : 0;
  return base_degree + DeltaDegree(node);
}

double DynamicHeteroGraph::Snapshot::TotalWeight(NodeId node) const {
  ZCHECK(node >= 0 && node < num_nodes_);
  if (owner_->node_epoch_slot(node).load(std::memory_order_acquire) == 0) {
    double total = 0.0;
    if (InBase(node)) {
      for (float w : base_->neighbor_weights(node)) total += w;
    }
    return total;
  }
  const LockShard& sh = owner_->lock_shards_[ShardFor(node)];
  std::shared_lock<std::shared_mutex> lock(sh.mu);
  auto it = sh.overlays.find(node);
  double total = 0.0;
  if (it != sh.overlays.end()) {
    const NodeOverlay& ov = it->second;
    total = ov.base_total_weight;
    const size_t prefix = VisiblePrefix(ov, epoch_);
    if (!decay_active_) {
      if (prefix > 0) total += ov.weight_prefix[prefix - 1];
      return total;
    }
    ForEachVisibleDelta(
        ov.entries.data(), prefix,
        [&total](const DeltaEntry&, float w) { total += w; });
    return total;
  }
  if (InBase(node)) {
    for (float w : base_->neighbor_weights(node)) total += w;
  }
  return total;
}

namespace {

/// Coalescing key shared by the merged-neighbor representations and the
/// segment fold.
int64_t EntryKey(NodeId neighbor, graph::RelationKind kind) {
  return static_cast<int64_t>(neighbor) * graph::kNumRelationKinds +
         static_cast<int>(kind);
}

}  // namespace

template <typename Keep, typename KeyAt, typename Append, typename AddWeight>
void DynamicHeteroGraph::Snapshot::CoalesceVisibleDeltas(
    const NodeOverlay& ov, size_t merged_size, Keep keep, KeyAt key_at,
    Append append, AddWeight add_weight) const {
  const size_t prefix = VisiblePrefix(ov, epoch_);
  size_t n = merged_size;
  if (prefix < 16) {
    // Tiny deltas: linear coalescing, no extra allocation.
    ForEachVisibleDelta(
        ov.entries.data(), prefix, [&](const DeltaEntry& d, float w) {
          if (!keep(d.e)) return;
          const int64_t k = EntryKey(d.e.neighbor, d.e.kind);
          size_t match = n;
          for (size_t j = 0; j < n; ++j) {
            if (key_at(j) == k) {
              match = j;
              break;
            }
          }
          if (match < n) {
            add_weight(match, w);
          } else {
            append(d.e, w);
            ++n;
          }
        });
    return;
  }
  // Hot nodes accumulate thousands of deltas between compactions; index the
  // merged list by (neighbor, kind) so the merge stays linear.
  std::unordered_map<int64_t, size_t> index;
  index.reserve(n + prefix);
  for (size_t j = 0; j < n; ++j) index.emplace(key_at(j), j);
  ForEachVisibleDelta(
      ov.entries.data(), prefix, [&](const DeltaEntry& d, float w) {
        if (!keep(d.e)) return;
        auto [it, inserted] =
            index.try_emplace(EntryKey(d.e.neighbor, d.e.kind), n);
        if (inserted) {
          append(d.e, w);
          ++n;
        } else {
          add_weight(it->second, w);
        }
      });
}

void DynamicHeteroGraph::Snapshot::Neighbors(
    NodeId node, std::vector<NeighborEntry>* out) const {
  ZCHECK(node >= 0 && node < num_nodes_);
  out->clear();
  const uint64_t node_epoch =
      owner_->node_epoch_slot(node).load(std::memory_order_acquire);
  if (const auto* entry = HotEntry(node, node_epoch)) {
    out->reserve(entry->ids.size());
    for (size_t i = 0; i < entry->ids.size(); ++i) {
      out->push_back({entry->ids[i], entry->weights[i], entry->kinds[i]});
    }
    return;
  }
  if (InBase(node)) {
    auto ids = base_->neighbor_ids(node);
    auto weights = base_->neighbor_weights(node);
    auto kinds = base_->neighbor_kinds(node);
    out->reserve(ids.size());
    for (size_t i = 0; i < ids.size(); ++i) {
      out->push_back({ids[i], weights[i], kinds[i]});
    }
  }
  if (node_epoch == 0) return;
  owner_->NoteSegmentRead(node);
  const LockShard& sh = owner_->lock_shards_[ShardFor(node)];
  std::shared_lock<std::shared_mutex> lock(sh.mu);
  auto it = sh.overlays.find(node);
  if (it == sh.overlays.end()) return;
  CoalesceVisibleDeltas(
      it->second, out->size(), [](const NeighborEntry&) { return true; },
      [out](size_t j) {
        return EntryKey((*out)[j].neighbor, (*out)[j].kind);
      },
      [out](const NeighborEntry& e, float w) {
        out->push_back({e.neighbor, w, e.kind});
      },
      [out](size_t j, float w) { (*out)[j].weight += w; });
}

void DynamicHeteroGraph::Snapshot::Neighbors(
    NodeId node, std::vector<NodeId>* ids, std::vector<float>* weights,
    std::vector<graph::RelationKind>* kinds) const {
  ZCHECK(node >= 0 && node < num_nodes_);
  const uint64_t node_epoch =
      owner_->node_epoch_slot(node).load(std::memory_order_acquire);
  if (const auto* entry = HotEntry(node, node_epoch)) {
    ids->assign(entry->ids.begin(), entry->ids.end());
    weights->assign(entry->weights.begin(), entry->weights.end());
    kinds->assign(entry->kinds.begin(), entry->kinds.end());
    return;
  }
  if (InBase(node)) {
    auto base_ids = base_->neighbor_ids(node);
    auto base_weights = base_->neighbor_weights(node);
    auto base_kinds = base_->neighbor_kinds(node);
    ids->assign(base_ids.begin(), base_ids.end());
    weights->assign(base_weights.begin(), base_weights.end());
    kinds->assign(base_kinds.begin(), base_kinds.end());
  } else {
    ids->clear();
    weights->clear();
    kinds->clear();
  }
  if (node_epoch == 0) return;
  owner_->NoteSegmentRead(node);
  const LockShard& sh = owner_->lock_shards_[ShardFor(node)];
  std::shared_lock<std::shared_mutex> lock(sh.mu);
  auto it = sh.overlays.find(node);
  if (it == sh.overlays.end()) return;
  CoalesceVisibleDeltas(
      it->second, ids->size(), [](const NeighborEntry&) { return true; },
      [&](size_t j) { return EntryKey((*ids)[j], (*kinds)[j]); },
      [&](const NeighborEntry& e, float w) {
        ids->push_back(e.neighbor);
        weights->push_back(w);
        kinds->push_back(e.kind);
      },
      [&](size_t j, float w) { (*weights)[j] += w; });
}

void DynamicHeteroGraph::Snapshot::NeighborsOfType(
    NodeId node, graph::NodeType t, std::vector<NodeId>* ids,
    std::vector<float>* weights, std::vector<graph::RelationKind>* kinds) const {
  ZCHECK(node >= 0 && node < num_nodes_);
  if (InBase(node)) {
    // Base neighbor blocks are sorted by (neighbor type, kind), so the typed
    // sub-range is contiguous — copy it without touching the other types.
    const graph::NeighborBlock typed = base_->NeighborsOfType(node, t);
    ids->assign(typed.ids.begin(), typed.ids.end());
    weights->assign(typed.weights.begin(), typed.weights.end());
    kinds->assign(typed.kinds.begin(), typed.kinds.end());
  } else {
    ids->clear();
    weights->clear();
    kinds->clear();
  }
  if (owner_->node_epoch_slot(node).load(std::memory_order_acquire) == 0) {
    return;
  }
  owner_->NoteSegmentRead(node);
  const LockShard& sh = owner_->lock_shards_[ShardFor(node)];
  std::shared_lock<std::shared_mutex> lock(sh.mu);
  auto it = sh.overlays.find(node);
  if (it == sh.overlays.end()) return;
  // Only delta entries whose neighbor is of type t take part in the merge —
  // no full-neighborhood resolution. node_type spans base + overlay, since
  // a delta edge may point at a node born after the offline build.
  CoalesceVisibleDeltas(
      it->second, ids->size(),
      [this, t](const NeighborEntry& entry) {
        return node_type(entry.neighbor) == t;
      },
      [&](size_t j) { return EntryKey((*ids)[j], (*kinds)[j]); },
      [&](const NeighborEntry& entry, float w) {
        ids->push_back(entry.neighbor);
        weights->push_back(w);
        kinds->push_back(entry.kind);
      },
      [&](size_t j, float w) { (*weights)[j] += w; });
}

NodeId DynamicHeteroGraph::Snapshot::SampleOverlayLocked(NodeId node,
                                                         const NodeOverlay& ov,
                                                         size_t prefix,
                                                         Rng* rng) const {
  const HeteroGraph& base = *base_;
  // Overlay-born nodes beyond base coverage have no base block; their
  // base_total_weight is 0 so the weighted coin below never lands on the
  // base side either.
  const int64_t base_degree = InBase(node) ? base.degree(node) : 0;
  if (!decay_active_) {
    const double delta_w = ov.weight_prefix[prefix - 1];
    const double base_w = ov.base_total_weight;
    const double total = base_w + delta_w;
    if (total <= 0.0) {
      // Degenerate all-zero weights: uniform over base + delta positions,
      // matching AliasTable's degenerate behaviour.
      const uint64_t n = static_cast<uint64_t>(base_degree) + prefix;
      if (n == 0) return -1;
      const uint64_t idx = rng->Uniform(n);
      if (idx < static_cast<uint64_t>(base_degree)) {
        return base.neighbor_ids(node)[idx];
      }
      return ov.entries[idx - base_degree].e.neighbor;
    }
    // Two-level alias-resampling: base-vs-delta coin by weight mass, then an
    // O(1) alias draw in the base or an inverse-CDF draw in the delta prefix.
    const double r = rng->UniformDouble() * total;
    if (r < base_w) return base.SampleNeighbor(node, rng);
    const double target = r - base_w;
    auto pos = std::upper_bound(ov.weight_prefix.begin(),
                                ov.weight_prefix.begin() + prefix, target);
    if (pos == ov.weight_prefix.begin() + prefix) --pos;  // fp guard
    return ov.entries[pos - ov.weight_prefix.begin()].e.neighbor;
  }
  // Windowed sampling: the raw prefix sums do not reflect TTL exclusion or
  // decayed mass, so resolve the live entries on the fly (two passes, no
  // allocation). Hot nodes dodge this cost through the overlay cache.
  double delta_w = 0.0;
  int64_t alive = 0;
  ForEachVisibleDelta(ov.entries.data(), prefix,
                      [&](const DeltaEntry&, float w) {
                        delta_w += w;
                        ++alive;
                      });
  if (alive == 0) {
    return base_degree > 0 ? base.SampleNeighbor(node, rng) : -1;
  }
  const double base_w = ov.base_total_weight;
  const double total = base_w + delta_w;
  if (total <= 0.0) {
    const uint64_t n = static_cast<uint64_t>(base_degree) +
                       static_cast<uint64_t>(alive);
    const uint64_t idx = rng->Uniform(n);
    if (idx < static_cast<uint64_t>(base_degree)) {
      return base.neighbor_ids(node)[idx];
    }
    int64_t skip = static_cast<int64_t>(idx) - base_degree;
    NodeId picked = -1;
    ForEachVisibleDelta(ov.entries.data(), prefix,
                        [&](const DeltaEntry& d, float) {
                          if (skip-- == 0) picked = d.e.neighbor;
                        });
    return picked;
  }
  const double r = rng->UniformDouble() * total;
  if (r < base_w) return base.SampleNeighbor(node, rng);
  const double target = r - base_w;
  double cum = 0.0;
  NodeId picked = -1;
  for (size_t i = 0; i < prefix && picked < 0; ++i) {
    const float w = EntryWeight(ov.entries[i]);
    if (w < 0.0f) continue;
    cum += w;
    if (cum > target) picked = ov.entries[i].e.neighbor;
  }
  if (picked >= 0) return picked;
  // fp guard: land on the last live entry.
  for (size_t i = prefix; i-- > 0;) {
    if (EntryWeight(ov.entries[i]) >= 0.0f) return ov.entries[i].e.neighbor;
  }
  return -1;
}

void DynamicHeteroGraph::Snapshot::SampleOverlayBatchLocked(
    NodeId node, const NodeOverlay& ov, size_t prefix, size_t kk, Rng* rng,
    NodeId* dst) const {
  const HeteroGraph& base = *base_;
  const int64_t base_degree = InBase(node) ? base.degree(node) : 0;
  // Resolve the base row once: segment locate, alias table, id span. Every
  // draw below consumes the Rng exactly like one SampleOverlayLocked call,
  // so batched and single draws stay bit-identical under a fixed seed.
  const graph::AliasTable* base_alias = nullptr;
  std::span<const NodeId> base_ids;
  if (base_degree > 0) {
    const auto& seg = base.segment(base.segment_of(node));
    const int64_t r = node - seg.first_node();
    base_alias = &seg.row_alias(r);
    base_ids = seg.row_neighbor_ids(r);
  }
  if (!decay_active_) {
    const double delta_w = ov.weight_prefix[prefix - 1];
    const double base_w = ov.base_total_weight;
    const double total = base_w + delta_w;
    if (total <= 0.0) {
      // Degenerate all-zero weights: uniform over base + delta positions.
      const uint64_t n = static_cast<uint64_t>(base_degree) + prefix;
      if (n == 0) return;  // rows stay -1
      for (size_t j = 0; j < kk; ++j) {
        const uint64_t idx = rng->Uniform(n);
        dst[j] = idx < static_cast<uint64_t>(base_degree)
                     ? base_ids[idx]
                     : ov.entries[idx - base_degree].e.neighbor;
      }
      return;
    }
    const auto pb = ov.weight_prefix.begin();
    for (size_t j = 0; j < kk; ++j) {
      const double r = rng->UniformDouble() * total;
      if (r < base_w) {
        dst[j] = base_ids[base_alias->SampleUnchecked(rng)];
        continue;
      }
      const double target = r - base_w;
      auto pos = std::upper_bound(pb, pb + prefix, target);
      if (pos == pb + prefix) --pos;  // fp guard
      dst[j] = ov.entries[pos - pb].e.neighbor;
    }
    return;
  }
  // Windowed path: resolve the live entries once into a cumulative-weight
  // list; each draw then binary-searches where the single draw re-scans.
  // Outcomes match the scan exactly: first live entry whose cumulative
  // weight exceeds the target, last live entry as the fp guard.
  std::vector<std::pair<double, NodeId>> live;  // (cumulative weight, nbr)
  double delta_w = 0.0;
  ForEachVisibleDelta(ov.entries.data(), prefix,
                      [&](const DeltaEntry& d, float w) {
                        delta_w += w;
                        live.emplace_back(delta_w, d.e.neighbor);
                      });
  if (live.empty()) {
    if (base_degree == 0) return;  // nothing drawable: rows stay -1
    for (size_t j = 0; j < kk; ++j) {
      dst[j] = base_ids[base_alias->SampleUnchecked(rng)];
    }
    return;
  }
  const double base_w = ov.base_total_weight;
  const double total = base_w + delta_w;
  if (total <= 0.0) {
    const uint64_t n = static_cast<uint64_t>(base_degree) + live.size();
    for (size_t j = 0; j < kk; ++j) {
      const uint64_t idx = rng->Uniform(n);
      dst[j] = idx < static_cast<uint64_t>(base_degree)
                   ? base_ids[idx]
                   : live[idx - base_degree].second;
    }
    return;
  }
  for (size_t j = 0; j < kk; ++j) {
    const double r = rng->UniformDouble() * total;
    if (r < base_w) {
      dst[j] = base_ids[base_alias->SampleUnchecked(rng)];
      continue;
    }
    const double target = r - base_w;
    auto pos = std::upper_bound(
        live.begin(), live.end(), target,
        [](double t, const std::pair<double, NodeId>& p) {
          return t < p.first;
        });
    dst[j] = pos == live.end() ? live.back().second : pos->second;
  }
}

NodeId DynamicHeteroGraph::Snapshot::SampleNeighbor(NodeId node,
                                                    Rng* rng) const {
  ZCHECK(node >= 0 && node < num_nodes_);
  // Lock-free fast path: untouched nodes sample straight off the base CSR
  // (overlay-born nodes without deltas are isolated at this epoch).
  const uint64_t node_epoch =
      owner_->node_epoch_slot(node).load(std::memory_order_acquire);
  if (node_epoch == 0) {
    return InBase(node) ? base_->SampleNeighbor(node, rng) : -1;
  }
  if (const auto* entry = HotEntry(node, node_epoch)) {
    if (entry->ids.empty()) return -1;
    return entry->ids[entry->alias.Sample(rng)];
  }
  // Locked overlay read: feed the adaptive hotness signal (one relaxed add
  // on the already-slow merge path — hot-cache hits above run at ~static
  // cost and are deliberately not counted as fold pressure).
  owner_->NoteSegmentRead(node);
  const LockShard& sh = owner_->lock_shards_[ShardFor(node)];
  std::shared_lock<std::shared_mutex> lock(sh.mu);
  auto it = sh.overlays.find(node);
  if (it == sh.overlays.end()) {
    return InBase(node) ? base_->SampleNeighbor(node, rng) : -1;
  }
  const NodeOverlay& ov = it->second;
  const size_t prefix = VisiblePrefix(ov, epoch_);
  if (prefix == 0) {
    return InBase(node) ? base_->SampleNeighbor(node, rng) : -1;
  }
  return SampleOverlayLocked(node, ov, prefix, rng);
}

void DynamicHeteroGraph::Snapshot::SampleManyNeighbors(
    std::span<const NodeId> nodes, int k, Rng* rng,
    std::vector<NodeId>* out) const {
  const size_t kk = static_cast<size_t>(std::max(k, 0));
  out->assign(nodes.size() * kk, NodeId{-1});
  if (k <= 0) return;
  // Pass 1 (no RNG): resolve every node's epoch slot and mark which lock
  // shards the batch touches, prefetching the slots ahead of their use.
  // Visibility is epoch-gated (VisiblePrefix caps at the pinned epoch), so
  // reading the slots before taking the shard locks observes the same draws
  // the per-node locking order would.
  std::vector<uint64_t> node_epochs(nodes.size());
  bool shard_needed[kNumLockShards] = {};
  for (size_t r = 0; r < nodes.size(); ++r) {
    const NodeId node = nodes[r];
    ZCHECK(node >= 0 && node < num_nodes_);
    if (r + 1 < nodes.size()) {
      __builtin_prefetch(&owner_->node_epoch_slot(nodes[r + 1]), /*rw=*/0,
                         /*locality=*/1);
    }
    node_epochs[r] =
        owner_->node_epoch_slot(node).load(std::memory_order_acquire);
    if (node_epochs[r] != 0) shard_needed[ShardFor(node)] = true;
  }
  // One shared acquisition per touched shard for the whole batch (ascending
  // index, so concurrent batches cannot deadlock) instead of one lock
  // round-trip per delta node. Writers (ApplyBatch / fold invalidation)
  // take unique locks on single shards and simply wait the batch out.
  std::array<std::shared_lock<std::shared_mutex>, kNumLockShards> locks;
  for (int s = 0; s < kNumLockShards; ++s) {
    if (shard_needed[s]) {
      locks[s] = std::shared_lock<std::shared_mutex>(
          owner_->lock_shards_[s].mu);
    }
  }
  // Pass 2: draw in node order (the Rng consumption order the single-draw
  // path defines).
  std::vector<NodeId> row;      // scratch for base-row batched draws
  std::vector<uint32_t> pos(kk);
  for (size_t r = 0; r < nodes.size(); ++r) {
    const NodeId node = nodes[r];
    NodeId* dst = out->data() + r * kk;
    auto draw_from_base = [&] {
      if (!InBase(node)) return;
      base_->SampleManyNeighbors({&node, 1}, k, rng, &row);
      std::copy(row.begin(), row.end(), dst);
    };
    const uint64_t node_epoch = node_epochs[r];
    if (node_epoch == 0) {
      draw_from_base();
      continue;
    }
    if (const auto* entry = HotEntry(node, node_epoch)) {
      if (entry->ids.empty()) continue;
      entry->alias.SampleBatch(rng, {pos.data(), kk});
      for (size_t j = 0; j < kk; ++j) dst[j] = entry->ids[pos[j]];
      continue;
    }
    owner_->NoteSegmentRead(node);
    const LockShard& sh = owner_->lock_shards_[ShardFor(node)];
    auto it = sh.overlays.find(node);
    const size_t prefix =
        it == sh.overlays.end() ? 0 : VisiblePrefix(it->second, epoch_);
    if (prefix == 0) {
      draw_from_base();
      continue;
    }
    // One visible-prefix resolution and one base-row locate for all k draws
    // of this node.
    SampleOverlayBatchLocked(node, it->second, prefix, kk, rng, dst);
  }
}

std::vector<NodeId> DynamicHeteroGraph::Snapshot::SampleDistinctNeighbors(
    NodeId node, int k, Rng* rng) const {
  ZCHECK(node >= 0 && node < num_nodes_);
  std::vector<NodeId> seen;
  if (k <= 0) return seen;
  const int max_attempts = k * 4;
  auto draw_from_base = [&] {
    // Shared bounded-retry dedup draw over the base alias tables; nothing
    // to draw for an overlay-born node with no visible deltas.
    if (!InBase(node)) return;
    seen = base_->SampleDistinctNeighbors(node, k, rng);
  };
  const uint64_t node_epoch =
      owner_->node_epoch_slot(node).load(std::memory_order_acquire);
  if (node_epoch == 0) {
    draw_from_base();
    return seen;
  }
  if (const auto* entry = HotEntry(node, node_epoch)) {
    // Batched O(1) alias draws over the materialized merge.
    if (entry->ids.empty()) return seen;
    for (int a = 0; a < max_attempts && static_cast<int>(seen.size()) < k;
         ++a) {
      const NodeId nb = entry->ids[entry->alias.Sample(rng)];
      if (std::find(seen.begin(), seen.end(), nb) == seen.end()) {
        seen.push_back(nb);
      }
    }
    return seen;
  }
  owner_->NoteSegmentRead(node);
  const LockShard& sh = owner_->lock_shards_[ShardFor(node)];
  std::shared_lock<std::shared_mutex> lock(sh.mu);
  auto it = sh.overlays.find(node);
  const size_t prefix =
      it == sh.overlays.end() ? 0 : VisiblePrefix(it->second, epoch_);
  if (prefix == 0) {
    lock.unlock();
    draw_from_base();
    return seen;
  }
  // One lock acquisition and one visible-prefix resolution for the whole
  // batch of draws.
  for (int a = 0; a < max_attempts && static_cast<int>(seen.size()) < k;
       ++a) {
    const NodeId nb = SampleOverlayLocked(node, it->second, prefix, rng);
    if (nb < 0) break;
    if (std::find(seen.begin(), seen.end(), nb) == seen.end()) {
      seen.push_back(nb);
    }
  }
  return seen;
}

std::vector<NodeId> DynamicHeteroGraph::DeltaNodes(int64_t min_entries) const {
  std::vector<NodeId> out;
  for (const auto& sh : lock_shards_) {
    std::shared_lock<std::shared_mutex> lock(sh.mu);
    for (const auto& [node, ov] : sh.overlays) {
      if (static_cast<int64_t>(ov.entries.size()) >= min_entries) {
        out.push_back(node);
      }
    }
  }
  return out;
}

std::vector<NodeId> DynamicHeteroGraph::DeltaNodes(
    const std::function<int64_t(int64_t)>& min_entries_for_segment) const {
  std::vector<NodeId> out;
  for (const auto& sh : lock_shards_) {
    std::shared_lock<std::shared_mutex> lock(sh.mu);
    for (const auto& [node, ov] : sh.overlays) {
      if (static_cast<int64_t>(ov.entries.size()) >=
          min_entries_for_segment(segment_of(node))) {
        out.push_back(node);
      }
    }
  }
  return out;
}

std::vector<NodeId> DynamicHeteroGraph::ExpireDeltas(int64_t now_seconds) {
  const DecaySpec spec = decay_spec();
  std::vector<NodeId> touched;
  if (!spec.has_ttl()) return touched;

  for (auto& sh : lock_shards_) {
    std::unique_lock<std::shared_mutex> lock(sh.mu);
    int64_t removed_in_shard = 0;
    for (auto it = sh.overlays.begin(); it != sh.overlays.end();) {
      NodeOverlay& ov = it->second;
      // std::remove_if is stable, so surviving entries stay epoch-ordered.
      auto new_end = std::remove_if(
          ov.entries.begin(), ov.entries.end(), [&](const DeltaEntry& d) {
            return spec.Expired(d.e.kind, now_seconds - d.timestamp);
          });
      const int64_t removed =
          static_cast<int64_t>(ov.entries.end() - new_end);
      if (removed == 0) {
        ++it;
        continue;
      }
      const NodeId node = it->first;
      ov.entries.erase(new_end, ov.entries.end());
      removed_in_shard += removed;
      seg_stat(segment_of(node))
          .entries.fetch_sub(removed, std::memory_order_relaxed);
      touched.push_back(node);
      if (ov.entries.empty()) {
        // Readers that already saw a non-zero node_epoch take the shard
        // lock, find no overlay, and fall back to the base — same path as
        // after a fold.
        node_epoch_slot(node).store(0, std::memory_order_release);
        it = sh.overlays.erase(it);
        continue;
      }
      ov.weight_prefix.resize(ov.entries.size());
      double cum = 0.0;
      for (size_t i = 0; i < ov.entries.size(); ++i) {
        cum += static_cast<double>(ov.entries[i].e.weight);
        ov.weight_prefix[i] = cum;
      }
      // The overlay version tracks the newest surviving entry (epoch order
      // makes that the back). A concurrent append's CAS-max simply re-raises
      // it.
      node_epoch_slot(node).store(ov.entries.back().epoch,
                                  std::memory_order_release);
      ++it;
    }
    // Subtract while still holding this shard's lock: a concurrent fold
    // (multi-threaded janitor) adjusts total_entries_ under *all* shard
    // locks, so a sweep-wide deferred subtraction could double-count
    // entries the fold already discarded and drive the counter negative
    // for good.
    total_entries_.fetch_sub(removed_in_shard, std::memory_order_acq_rel);
  }
  // Expiry rewrites overlays without bumping their versions, so the hot
  // cache cannot catch it by version check alone — invalidate eagerly.
  if (auto* cache = hot_cache_.load(std::memory_order_acquire)) {
    for (NodeId node : touched) cache->Invalidate(node);
  }
  return touched;
}

namespace {

/// Parks every attached applier at a batch boundary for the duration of a
/// fold; EndQuiesce runs on every exit path (including errors).
class QuiesceGuard {
 public:
  explicit QuiesceGuard(const std::vector<CompactionParticipant*>& participants)
      : participants_(participants) {
    for (CompactionParticipant* p : participants_) p->BeginQuiesce();
  }
  ~QuiesceGuard() {
    for (CompactionParticipant* p : participants_) p->EndQuiesce();
  }
  QuiesceGuard(const QuiesceGuard&) = delete;
  QuiesceGuard& operator=(const QuiesceGuard&) = delete;

 private:
  const std::vector<CompactionParticipant*>& participants_;
};

}  // namespace

StatusOr<uint64_t> DynamicHeteroGraph::Compact() {
  // "Fold all segments": every covered segment plus the whole frontier.
  const int64_t end =
      std::max(base()->num_nodes(), num_nodes_allocated());
  std::vector<int64_t> all;
  for (int64_t s = 0; s * segment_span_ < end; ++s) all.push_back(s);
  return CompactSegments(std::move(all));
}

StatusOr<uint64_t> DynamicHeteroGraph::CompactSegments(
    std::vector<int64_t> segments) {
  // Fold-pause telemetry covers the whole pause as ingest experiences it:
  // quiesce handshake + exclusive shard hold + rebuild. The span's attr is
  // the folded segment count, recorded when the selection is final.
  obs::TraceSpan fold_span("compact_segments");
  WallTimer fold_timer;
  struct PauseRecorder {
    obs::Histogram* pause;
    obs::Histogram* seg_count;
    obs::TraceSpan* span;
    WallTimer* timer;
    const std::vector<int64_t>* segments;
    ~PauseRecorder() {
      const int64_t n = static_cast<int64_t>(segments->size());
      span->set_attr(n);
      seg_count->Record(n);
      pause->Record(static_cast<int64_t>(timer->ElapsedMicros()));
    }
  } pause_recorder{fold_pause_us_, fold_segments_, &fold_span, &fold_timer,
                   &segments};
  std::lock_guard<std::mutex> compact_lock(compact_mu_);
  // Quiescence handshake: park attached pipelines at a batch boundary so no
  // delta batch is mid-apply (and none starts) while the fold runs. Events
  // still queued have no epoch yet; they apply onto the new base afterwards.
  // participants_mu_ stays held through the fold so a participant cannot
  // detach (and die) between BeginQuiesce and EndQuiesce.
  std::lock_guard<std::mutex> participants_lock(participants_mu_);
  QuiesceGuard quiesce(participants_);

  // TTL interaction (resolved before the shard locks — decay_mu_ never
  // nests inside them): entries already past their TTL are invisible to
  // every decay-aware reader and pending garbage collection — folding them
  // would permanently resurrect them as (never-windowed) base edges.
  // Entries still inside their window fold at full raw weight: compaction
  // is how a streamed edge graduates into the un-windowed offline
  // aggregate.
  DecaySpec spec;
  const LogicalClock* clock = nullptr;
  {
    std::shared_lock<std::shared_mutex> decay_lock(decay_mu_);
    spec = decay_spec_;
    clock = clock_;
  }
  const bool drop_expired = spec.has_ttl() && clock != nullptr;
  const bool expire_cold =
      options_.cold_node_ttl_seconds > 0 && clock != nullptr;
  const int64_t now = clock != nullptr ? clock->NowSeconds() : 0;

  // Exclusive hold on every lock shard: no reader or (contract-violating)
  // applier can observe the rebuild half-done. The pause is bounded by the
  // *selected* segments' work, which is the whole point.
  std::vector<std::unique_lock<std::shared_mutex>> locks;
  locks.reserve(kNumLockShards);
  for (auto& sh : lock_shards_) locks.emplace_back(sh.mu);

  // Fold through the *watermark*, not max_applied: an out-of-order shard
  // may be parked on an unapplied batch below max_applied, whose entries
  // would land after this fold yet sit at or below a max_applied floor —
  // crash recovery's replay filter would then drop them as "already
  // folded". At the watermark the floor is exact: every batch at or below
  // it is fully applied, so its entries are in the overlays right now (or
  // folded/expired earlier) and the rebuilt rows absorb all of them.
  // Entries above the watermark are carried over and fold later.
  const uint64_t fold_epoch = watermark_epoch();
  auto old_base = this->base();
  const int64_t covered = old_base->num_nodes();
  // Overlay nodes fold renumber-free: the contiguous applied prefix with
  // birth epoch <= fold_epoch may be appended to the base in id order.
  // Records beyond it (allocated but unapplied, or born above the fold
  // epoch — possible with out-of-order cross-shard appliers) stay overlay
  // nodes, and any delta entry touching them is carried over instead of
  // folded, since a base row cannot reference ids no snapshot may surface.
  const int64_t fold_bound = overlay_origin_ + VisibleOverlayNodes(fold_epoch);
  ZCHECK_GE(fold_bound, covered);
  const int64_t span = segment_span_;

  // Normalize the selection: sort, dedup, clamp to the foldable id-space;
  // any frontier selection folds the whole applied prefix so coverage
  // stays contiguous.
  std::sort(segments.begin(), segments.end());
  segments.erase(std::unique(segments.begin(), segments.end()),
                 segments.end());
  int64_t target_end = covered;
  {
    std::vector<int64_t> kept;
    bool wants_frontier = false;
    for (int64_t s : segments) {
      if (s < 0) continue;
      const int64_t lo = s * span;
      if (lo >= std::max(covered, fold_bound)) continue;
      if ((s + 1) * span > covered && fold_bound > covered) {
        wants_frontier = true;
      }
      kept.push_back(s);
    }
    segments = std::move(kept);
    if (wants_frontier) {
      target_end = fold_bound;
      const int64_t first = covered > 0 ? (covered - 1) >> segment_shift_ : 0;
      const int64_t last = (fold_bound - 1) >> segment_shift_;
      for (int64_t s = first; s <= last; ++s) segments.push_back(s);
      std::sort(segments.begin(), segments.end());
      segments.erase(std::unique(segments.begin(), segments.end()),
                     segments.end());
    }
  }
  auto selected = [&segments](int64_t s) {
    return std::binary_search(segments.begin(), segments.end(), s);
  };

  // Index the overlays of foldable rows in the selection (pointers stay
  // valid through the fold phase; the cleanup phase below re-walks the
  // shards).
  std::unordered_map<NodeId, const NodeOverlay*> dirty;
  for (const auto& sh : lock_shards_) {
    for (const auto& [node, ov] : sh.overlays) {
      if (node < target_end && selected(node >> segment_shift_)) {
        dirty.emplace(node, &ov);
      }
    }
  }
  if (dirty.empty() && target_end == covered) {
    // Nothing to fold in this selection: keep the base — and its pointer
    // identity — untouched.
    for (int64_t s : segments) {
      seg_stat(s).folded_epoch.store(fold_epoch, std::memory_order_release);
    }
    compacted_through_epoch_ = fold_epoch;
    return fold_epoch;
  }

  const uint64_t next_gen =
      base_generation_.load(std::memory_order_acquire) + 1;
  // Global type resolver spanning the old base and applied overlay records
  // (a folded row may reference a neighbor in any segment or still in the
  // overlay).
  auto type_of = [&](NodeId id) -> graph::NodeType {
    if (id < covered) return old_base->node_type(id);
    return overlay_record(id).type;
  };

  int64_t cold_expired = 0;
  std::vector<std::pair<int64_t, std::shared_ptr<const graph::CsrSegment>>>
      rebuilt;
  rebuilt.reserve(segments.size());
  for (int64_t s : segments) {
    const NodeId lo = static_cast<NodeId>(s * span);
    const NodeId hi =
        static_cast<NodeId>(std::min<int64_t>((s + 1) * span, target_end));
    if (lo >= hi) continue;
    const graph::CsrSegment* old_seg =
        s < old_base->num_segments() ? &old_base->segment(s) : nullptr;
    graph::CsrSegmentBuilder builder(lo, hi - lo, content_dim_, next_gen,
                                     type_of, fold_epoch);
    for (NodeId r = lo; r < hi; ++r) {
      const bool in_old = old_seg != nullptr && r < covered;
      auto dit = dirty.find(r);
      const NodeOverlay* ov = dit != dirty.end() ? dit->second : nullptr;
      const size_t prefix = ov != nullptr ? VisiblePrefix(*ov, fold_epoch) : 0;
      if (in_old && prefix == 0) {
        // Untouched row: verbatim copy, alias table reused — the common
        // case even inside a dirty segment.
        builder.CopyRow(*old_seg, r - old_seg->first_node());
        continue;
      }
      // Merge the base row (if any) with the foldable delta entries,
      // coalescing by (neighbor, kind). Weights accumulate in double and
      // round to float once, and entries merge in epoch order — the same
      // deterministic arithmetic whether this row folds in one full pass
      // or across a chain of incremental folds of integer-weight events.
      std::vector<NeighborEntry> merged;
      std::vector<double> weight_acc;
      if (in_old) {
        const int64_t lr = r - old_seg->first_node();
        const auto ids = old_seg->row_neighbor_ids(lr);
        const auto weights = old_seg->row_neighbor_weights(lr);
        const auto kinds = old_seg->row_neighbor_kinds(lr);
        merged.reserve(ids.size() + prefix);
        weight_acc.reserve(ids.size() + prefix);
        for (size_t i = 0; i < ids.size(); ++i) {
          merged.push_back({ids[i], 0.0f, kinds[i]});
          weight_acc.push_back(static_cast<double>(weights[i]));
        }
      }
      if (ov != nullptr) {
        std::unordered_map<int64_t, size_t> index;
        index.reserve(merged.size() + prefix);
        for (size_t j = 0; j < merged.size(); ++j) {
          index.emplace(EntryKey(merged[j].neighbor, merged[j].kind), j);
        }
        for (size_t i = 0; i < prefix; ++i) {
          const DeltaEntry& d = ov->entries[i];
          if (drop_expired && spec.Expired(d.e.kind, now - d.timestamp)) {
            continue;  // dropped, not resurrected as a base edge
          }
          if (d.e.neighbor >= fold_bound) continue;  // carried over
          auto [pos, inserted] = index.try_emplace(
              EntryKey(d.e.neighbor, d.e.kind), merged.size());
          if (inserted) {
            merged.push_back({d.e.neighbor, 0.0f, d.e.kind});
            weight_acc.push_back(static_cast<double>(d.e.weight));
          } else {
            weight_acc[pos->second] += static_cast<double>(d.e.weight);
          }
        }
      }
      for (size_t j = 0; j < merged.size(); ++j) {
        merged[j].weight = static_cast<float>(weight_acc[j]);
      }
      if (in_old) {
        const int64_t lr = r - old_seg->first_node();
        builder.AddRow(old_seg->row_type(lr),
                       {old_seg->row_content(lr),
                        static_cast<size_t>(content_dim_)},
                       old_seg->row_slots(lr), std::move(merged));
        continue;
      }
      // Frontier row: the overlay record is the payload source.
      OverlayNodeRecord& rec = overlay_record(r);
      // Node-TTL groundwork: a cold-start node that never accumulated
      // more than cold_node_max_degree half-edges in its lifetime, aged
      // past the node TTL, and with nothing foldable or carried over,
      // folds as an isolated stub and its record payload is reclaimed.
      bool carried = false;
      if (ov != nullptr) {
        for (size_t i = 0; i < ov->entries.size() && !carried; ++i) {
          const DeltaEntry& d = ov->entries[i];
          if (drop_expired && spec.Expired(d.e.kind, now - d.timestamp)) {
            continue;
          }
          carried |= i >= prefix || d.e.neighbor >= fold_bound;
        }
      }
      const bool cold =
          expire_cold && merged.empty() && !carried &&
          rec.lifetime_entries <= options_.cold_node_max_degree &&
          now - rec.timestamp >= options_.cold_node_ttl_seconds;
      if (cold) {
        // Stub row: the base never inherits the payload or any edges, so
        // the reclaimed storage is everything the fold would otherwise
        // carry forward. The record itself stays intact — snapshots pinned
        // to pre-fold bases read it lock-free, so freeing it here would be
        // a use-after-free; full record reclamation needs snapshot pin
        // tracking (future work).
        builder.AddRow(rec.type,
                       {zero_content_.data(), zero_content_.size()},
                       std::span<const int64_t>{}, {});
        ++cold_expired;
        continue;
      }
      builder.AddRow(rec.type,
                     {rec.content.data(), rec.content.size()},
                     {rec.slots.data(), rec.slots.size()}, std::move(merged));
    }
    rebuilt.emplace_back(s, builder.Build());
  }
  auto new_base = old_base->Successor(rebuilt);

  {
    // The generation bump shares the exclusive section with the base swap,
    // so CapturedBase() always hands snapshots a consistent (base,
    // generation) pair — an old-base snapshot can never pair with rebuilt
    // segments' generations and validate hot-cache entries built over
    // them.
    std::unique_lock<std::shared_mutex> base_lock(base_mu_);
    base_ = new_base;
    base_generation_.store(next_gen, std::memory_order_release);
  }

  // Clear the folded overlays; carry over what the fold could not absorb
  // (entries past the fold epoch or touching a not-yet-foldable node),
  // rebuilt against the new base. Overlays of unselected segments are not
  // touched — their base rows are shared with the old HeteroGraph.
  int64_t removed_total = 0;
  std::unordered_map<int64_t, int64_t> retained_per_seg;
  for (int64_t s : segments) retained_per_seg.emplace(s, 0);
  for (auto& sh : lock_shards_) {
    for (auto it = sh.overlays.begin(); it != sh.overlays.end();) {
      const NodeId node = it->first;
      const int64_t s = node >> segment_shift_;
      if (!selected(s)) {
        ++it;
        continue;
      }
      NodeOverlay& ov = it->second;
      // Same fold decision as above: entries of rows beyond target_end were
      // not folded (prefix 0); expired entries drop everywhere.
      const size_t prefix =
          node < target_end ? VisiblePrefix(ov, fold_epoch) : 0;
      NodeOverlay next;
      for (size_t i = 0; i < ov.entries.size(); ++i) {
        const DeltaEntry& d = ov.entries[i];
        if (drop_expired && spec.Expired(d.e.kind, now - d.timestamp)) {
          continue;
        }
        if (i < prefix && d.e.neighbor < fold_bound) continue;  // folded
        next.entries.push_back(d);  // filtering keeps the epoch order
      }
      removed_total +=
          static_cast<int64_t>(ov.entries.size() - next.entries.size());
      if (next.entries.empty()) {
        node_epoch_slot(node).store(0, std::memory_order_release);
        it = sh.overlays.erase(it);
        continue;
      }
      retained_per_seg[s] += static_cast<int64_t>(next.entries.size());
      double cum = 0.0;
      next.weight_prefix.reserve(next.entries.size());
      for (const DeltaEntry& d : next.entries) {
        cum += static_cast<double>(d.e.weight);
        next.weight_prefix.push_back(cum);
      }
      if (node < new_base->num_nodes()) {
        double total = 0.0;
        for (float w : new_base->neighbor_weights(node)) total += w;
        next.base_total_weight = total;
      }
      node_epoch_slot(node).store(next.entries.back().epoch,
                                  std::memory_order_release);
      it->second = std::move(next);
      ++it;
    }
  }
  total_entries_.fetch_sub(removed_total, std::memory_order_acq_rel);
  expired_cold_nodes_.fetch_add(cold_expired, std::memory_order_acq_rel);
  for (int64_t s : segments) {
    seg_stat(s).entries.store(retained_per_seg[s], std::memory_order_release);
    seg_stat(s).folded_epoch.store(fold_epoch, std::memory_order_release);
  }
  // Per-segment cache invalidation replaces the old whole-cache flush:
  // snapshots pinned to old *folded* segments stop matching entries
  // (segment-generation mismatch), entries over untouched segments keep
  // serving.
  if (auto* cache = hot_cache_.load(std::memory_order_acquire)) {
    for (int64_t s : segments) {
      cache->InvalidateRange(
          static_cast<NodeId>(s * span),
          static_cast<NodeId>(std::min<int64_t>((s + 1) * span, target_end)));
    }
  }
  compacted_through_epoch_ = fold_epoch;
  return fold_epoch;
}

uint64_t DynamicHeteroGraph::SafeTruncateEpoch() const {
  // Every epoch <= the result is fully accounted for: its entries were
  // folded into some segment, physically expired, or — if still pending in
  // an overlay — hold the minimum below. Unapplied issued batches bound it
  // through the watermark.
  uint64_t safe = watermark_epoch();
  for (const auto& sh : lock_shards_) {
    std::shared_lock<std::shared_mutex> lock(sh.mu);
    for (const auto& [node, ov] : sh.overlays) {
      if (ov.entries.empty()) continue;
      const uint64_t oldest = ov.entries.front().epoch;  // epoch-ordered
      if (oldest > 0 && oldest - 1 < safe) safe = oldest - 1;
    }
  }
  return safe;
}

std::vector<SegmentPressure> DynamicHeteroGraph::SegmentPressures() const {
  auto base = this->base();
  const int64_t covered = base->num_nodes();
  const int64_t applied_bound =
      overlay_origin_ + applied_node_prefix_.load(std::memory_order_acquire);
  const int64_t nsegs = num_segments_allocated();
  std::vector<SegmentPressure> out;
  out.reserve(static_cast<size_t>(nsegs));
  for (int64_t s = 0; s < nsegs; ++s) {
    SegmentPressure p;
    p.segment = s;
    p.first_node = static_cast<NodeId>(s * segment_span_);
    const int64_t end = (s + 1) * segment_span_;
    p.covered_rows =
        std::clamp<int64_t>(covered - p.first_node, 0, segment_span_);
    p.pending_nodes = std::clamp<int64_t>(
        std::min(applied_bound, end) - std::max<int64_t>(covered,
                                                         p.first_node),
        0, segment_span_);
    const SegStat& ss = seg_stat(s);
    p.delta_entries = ss.entries.load(std::memory_order_relaxed);
    p.reads = ss.reads.load(std::memory_order_relaxed);
    p.writes = ss.writes.load(std::memory_order_relaxed);
    p.folded_epoch = ss.folded_epoch.load(std::memory_order_relaxed);
    p.generation = base->generation_of(p.first_node);
    out.push_back(p);
  }
  return out;
}

int64_t DynamicHeteroGraph::num_delta_nodes() const {
  int64_t n = 0;
  for (const auto& sh : lock_shards_) {
    std::shared_lock<std::shared_mutex> lock(sh.mu);
    n += static_cast<int64_t>(sh.overlays.size());
  }
  return n;
}

size_t DynamicHeteroGraph::OverlayMemoryBytes() const {
  size_t bytes = 0;
  for (const auto& sh : lock_shards_) {
    std::shared_lock<std::shared_mutex> lock(sh.mu);
    for (const auto& [node, ov] : sh.overlays) {
      bytes += sizeof(node) + sizeof(NodeOverlay) +
               ov.entries.size() * sizeof(DeltaEntry) +
               ov.weight_prefix.size() * sizeof(double);
    }
  }
  return bytes;
}

}  // namespace streaming
}  // namespace zoomer
