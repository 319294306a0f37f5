#include "graph/hetero_graph.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <numeric>
#include <sstream>

namespace zoomer {
namespace graph {

size_t CsrSegment::MemoryBytes() const {
  size_t bytes = 0;
  bytes += types_.size() * sizeof(NodeType);
  bytes += contents_.size() * sizeof(float);
  bytes += slot_ids_.size() * sizeof(int64_t);
  bytes += slot_offsets_.size() * sizeof(int64_t);
  bytes += offsets_.size() * sizeof(int64_t);
  bytes += nbr_id_.size() * sizeof(NodeId);
  bytes += nbr_weight_.size() * sizeof(float);
  bytes += nbr_kind_.size() * sizeof(RelationKind);
  bytes += type_offsets_.size() * sizeof(int64_t);
  for (const auto& a : alias_) bytes += a.MemoryBytes();
  return bytes;
}

CsrSegmentBuilder::CsrSegmentBuilder(NodeId first_node, int64_t expected_rows,
                                     int content_dim, uint64_t generation,
                                     TypeResolver type_of,
                                     uint64_t folded_epoch)
    : type_of_(std::move(type_of)) {
  seg_.first_node_ = first_node;
  seg_.generation_ = generation;
  seg_.folded_epoch_ = folded_epoch;
  seg_.content_dim_ = content_dim;
  seg_.types_.reserve(expected_rows);
  seg_.contents_.reserve(expected_rows * content_dim);
  seg_.slot_offsets_.push_back(0);
  seg_.offsets_.push_back(0);
}

void CsrSegmentBuilder::AddRow(NodeType type, std::span<const float> content,
                               std::span<const int64_t> slots,
                               std::vector<NeighborEntry> neighbors) {
  ZCHECK_EQ(static_cast<int>(content.size()), seg_.content_dim_)
      << "row content dim mismatch";
  seg_.types_.push_back(type);
  ++seg_.type_counts_[static_cast<int>(type)];
  seg_.contents_.insert(seg_.contents_.end(), content.begin(), content.end());
  seg_.slot_ids_.insert(seg_.slot_ids_.end(), slots.begin(), slots.end());
  seg_.slot_offsets_.push_back(static_cast<int64_t>(seg_.slot_ids_.size()));

  // The block order contract shared with HeteroGraphBuilder::Build: sort by
  // (neighbor type, kind, neighbor id). The key is unique per coalesced
  // entry, so the order — and with it typed sub-ranges, alias layout, and
  // every downstream draw sequence — is deterministic regardless of how the
  // row was assembled (offline build, full fold, or a chain of incremental
  // segment folds). That determinism is what the fold-parity test pins.
  std::sort(neighbors.begin(), neighbors.end(),
            [this](const NeighborEntry& x, const NeighborEntry& y) {
              const int tx = static_cast<int>(type_of_(x.neighbor));
              const int ty = static_cast<int>(type_of_(y.neighbor));
              if (tx != ty) return tx < ty;
              const int kx = static_cast<int>(x.kind);
              const int ky = static_cast<int>(y.kind);
              if (kx != ky) return kx < ky;
              return x.neighbor < y.neighbor;
            });

  const int64_t block_begin = static_cast<int64_t>(seg_.nbr_id_.size());
  for (const NeighborEntry& e : neighbors) {
    seg_.nbr_id_.push_back(e.neighbor);
    seg_.nbr_weight_.push_back(e.weight);
    seg_.nbr_kind_.push_back(e.kind);
  }
  seg_.offsets_.push_back(static_cast<int64_t>(seg_.nbr_id_.size()));

  // Typed sub-offsets (segment-local) over the freshly sorted block.
  int64_t pos = block_begin;
  const int64_t block_end = static_cast<int64_t>(seg_.nbr_id_.size());
  for (int t = 0; t < kNumNodeTypes; ++t) {
    seg_.type_offsets_.push_back(pos);
    while (pos < block_end &&
           static_cast<int>(type_of_(seg_.nbr_id_[pos])) == t) {
      ++pos;
    }
  }
  seg_.type_offsets_.push_back(pos);

  seg_.alias_.emplace_back();
  if (!neighbors.empty()) {
    std::vector<double> w;
    w.reserve(neighbors.size());
    for (const NeighborEntry& e : neighbors) w.push_back(e.weight);
    seg_.alias_.back().Build(w);
  }
}

void CsrSegmentBuilder::CopyRow(const CsrSegment& src, int64_t src_row) {
  ZCHECK_EQ(src.content_dim(), seg_.content_dim_);
  seg_.types_.push_back(src.row_type(src_row));
  ++seg_.type_counts_[static_cast<int>(src.row_type(src_row))];
  const float* c = src.row_content(src_row);
  seg_.contents_.insert(seg_.contents_.end(), c, c + seg_.content_dim_);
  const auto slots = src.row_slots(src_row);
  seg_.slot_ids_.insert(seg_.slot_ids_.end(), slots.begin(), slots.end());
  seg_.slot_offsets_.push_back(static_cast<int64_t>(seg_.slot_ids_.size()));

  const int64_t block_begin = static_cast<int64_t>(seg_.nbr_id_.size());
  const auto ids = src.row_neighbor_ids(src_row);
  const auto weights = src.row_neighbor_weights(src_row);
  const auto kinds = src.row_neighbor_kinds(src_row);
  seg_.nbr_id_.insert(seg_.nbr_id_.end(), ids.begin(), ids.end());
  seg_.nbr_weight_.insert(seg_.nbr_weight_.end(), weights.begin(),
                          weights.end());
  seg_.nbr_kind_.insert(seg_.nbr_kind_.end(), kinds.begin(), kinds.end());
  seg_.offsets_.push_back(static_cast<int64_t>(seg_.nbr_id_.size()));

  const int64_t src_block = src.offsets_[src_row];
  for (int t = 0; t <= kNumNodeTypes; ++t) {
    seg_.type_offsets_.push_back(
        block_begin +
        (src.type_offsets_[src_row * (kNumNodeTypes + 1) + t] - src_block));
  }
  seg_.alias_.push_back(src.row_alias(src_row));
}

std::shared_ptr<const CsrSegment> CsrSegmentBuilder::Build() {
  return std::make_shared<const CsrSegment>(std::move(seg_));
}

HeteroGraph::HeteroGraph(const HeteroGraph& src, int64_t span,
                         uint64_t generation) {
  ZCHECK_GT(span, 0);
  ZCHECK_EQ(span & (span - 1), 0) << "segment span must be a power of two";
  SetSpan(span);
  content_dim_ = src.content_dim_;
  const int64_t n = src.num_nodes();
  for (NodeId lo = 0; lo < n; lo += span) {
    const int64_t hi = std::min<int64_t>(lo + span, n);
    // Verbatim row copies: blocks keep their (neighbor type, kind, id)
    // order and rows keep their alias tables, so repartitioning never
    // sorts, resolves a type, or rebuilds an alias table.
    CsrSegmentBuilder builder(lo, hi - lo, content_dim_, generation,
                              /*type_of=*/nullptr);
    for (NodeId v = lo; v < hi; ++v) {
      const auto [seg, r] = src.Locate(v);
      builder.CopyRow(*seg, r);
    }
    segments_.push_back(builder.Build());
  }
  RecomputeTotals();
}

void HeteroGraph::SetSpan(int64_t span) {
  span_ = span;
  span_shift_ = 0;
  while ((int64_t{1} << span_shift_) < span) ++span_shift_;
}

std::shared_ptr<const HeteroGraph> HeteroGraph::Successor(
    const std::vector<std::pair<int64_t, std::shared_ptr<const CsrSegment>>>&
        replaced) const {
  auto next = std::make_shared<HeteroGraph>();
  next->SetSpan(span_);
  next->content_dim_ = content_dim_;
  next->segments_ = segments_;  // shared_ptr copies: untouched rows shared
  for (const auto& [s, seg] : replaced) {
    ZCHECK(seg != nullptr);
    ZCHECK_EQ(seg->first_node(), s * span_);
    if (s < static_cast<int64_t>(next->segments_.size())) {
      next->segments_[s] = seg;
    } else {
      // Appended coverage must stay contiguous (the fold includes every
      // frontier segment up to its bound, in order).
      ZCHECK_EQ(s, static_cast<int64_t>(next->segments_.size()))
          << "segment append leaves a coverage gap";
      next->segments_.push_back(seg);
    }
  }
  // All but the last segment must span the full range, or segment_of()
  // indexing breaks.
  for (size_t i = 0; i + 1 < next->segments_.size(); ++i) {
    ZCHECK_EQ(next->segments_[i]->num_rows(), span_)
        << "only the frontier segment may be partial";
  }
  next->RecomputeTotals();
  return next;
}

StatusOr<std::shared_ptr<const HeteroGraph>> HeteroGraph::FromSegments(
    int64_t span, std::vector<std::shared_ptr<const CsrSegment>> segments) {
  if (span <= 0 || (span & (span - 1)) != 0) {
    return Status::InvalidArgument("segment span must be a power of two");
  }
  if (segments.empty()) {
    return Status::InvalidArgument("cannot assemble a CSR from 0 segments");
  }
  auto csr = std::make_shared<HeteroGraph>();
  csr->SetSpan(span);
  csr->content_dim_ = segments.front()->content_dim();
  int64_t expect_first = 0;
  for (size_t s = 0; s < segments.size(); ++s) {
    const CsrSegment& seg = *segments[s];
    if (seg.first_node() != expect_first) {
      return Status::InvalidArgument("segments leave a row-coverage gap");
    }
    if (s + 1 < segments.size() && seg.num_rows() != span) {
      return Status::InvalidArgument(
          "only the frontier segment may be partial");
    }
    if (seg.num_rows() <= 0 || seg.num_rows() > span) {
      return Status::InvalidArgument("segment row count out of range");
    }
    if (seg.content_dim() != csr->content_dim_) {
      return Status::InvalidArgument("segments disagree on content_dim");
    }
    expect_first += seg.num_rows();
  }
  csr->segments_ = std::move(segments);
  csr->RecomputeTotals();
  return std::shared_ptr<const HeteroGraph>(std::move(csr));
}

void HeteroGraph::SampleManyNeighbors(std::span<const NodeId> nodes, int k,
                                      Rng* rng,
                                      std::vector<NodeId>* out) const {
  const size_t kk = static_cast<size_t>(std::max(k, 0));
  out->assign(nodes.size() * kk, NodeId{-1});
  if (k <= 0) return;
  std::vector<uint32_t> pos(kk);
  for (size_t r = 0; r < nodes.size(); ++r) {
    if (r + 1 < nodes.size()) {
      // Resolve the next node's segment one iteration early and touch its
      // row start + alias header so those lines load while this node draws.
      const auto [nseg, nrow] = Locate(nodes[r + 1]);
      __builtin_prefetch(nseg->row_neighbor_ids(nrow).data(), /*rw=*/0,
                         /*locality=*/1);
      __builtin_prefetch(&nseg->row_alias(nrow), /*rw=*/0, /*locality=*/1);
    }
    const auto [seg, row] = Locate(nodes[r]);
    if (seg->row_degree(row) == 0) continue;
    seg->row_alias(row).SampleBatch(rng, {pos.data(), kk});
    NodeId* dst = out->data() + r * kk;
    const NodeId* ids = seg->row_neighbor_ids(row).data();
    for (size_t j = 0; j < kk; ++j) dst[j] = ids[pos[j]];
  }
}

void HeteroGraph::OutOfRange(NodeId id) const {
  ZCHECK(false) << "node id " << id << " outside [0, " << num_nodes_ << ")";
  std::abort();
}

void HeteroGraph::RecomputeTotals() {
  first_ = segments_.empty() ? nullptr : segments_.front().get();
  num_nodes_ = 0;
  num_half_edges_ = 0;
  type_counts_ = {0, 0, 0};
  for (const auto& seg : segments_) {
    ZCHECK_EQ(seg->first_node(), num_nodes_) << "segments must be contiguous";
    num_nodes_ += seg->num_rows();
    num_half_edges_ += seg->num_half_edges();
    for (int t = 0; t < kNumNodeTypes; ++t) {
      type_counts_[t] += seg->num_rows_of_type(static_cast<NodeType>(t));
    }
  }
}

size_t HeteroGraph::MemoryBytes() const {
  size_t bytes = segments_.size() * sizeof(std::shared_ptr<const CsrSegment>);
  for (const auto& seg : segments_) bytes += seg->MemoryBytes();
  return bytes;
}

std::string HeteroGraph::DebugString() const {
  std::ostringstream os;
  os << "HeteroGraph{nodes=" << num_nodes() << " (user="
     << num_nodes_of_type(NodeType::kUser)
     << ", query=" << num_nodes_of_type(NodeType::kQuery)
     << ", item=" << num_nodes_of_type(NodeType::kItem)
     << "), half_edges=" << num_edges() << ", content_dim=" << content_dim_
     << ", segments=" << num_segments() << " x " << span_
     << " rows, bytes=" << MemoryBytes() << "}";
  return os.str();
}

NodeId HeteroGraphBuilder::AddNode(NodeType type, std::vector<float> content,
                                   std::vector<int64_t> slots) {
  ZCHECK_EQ(static_cast<int>(content.size()), content_dim_)
      << "content dim mismatch";
  const NodeId id = static_cast<NodeId>(types_.size());
  types_.push_back(type);
  contents_.insert(contents_.end(), content.begin(), content.end());
  slot_ids_.insert(slot_ids_.end(), slots.begin(), slots.end());
  slot_offsets_.push_back(static_cast<int64_t>(slot_ids_.size()));
  return id;
}

Status HeteroGraphBuilder::AddEdge(NodeId a, NodeId b, RelationKind kind,
                                   float weight) {
  const auto n = static_cast<NodeId>(types_.size());
  if (a < 0 || a >= n || b < 0 || b >= n) {
    return Status::InvalidArgument("edge endpoint out of range");
  }
  if (a == b) {
    return Status::InvalidArgument("self-loops are not allowed");
  }
  if (!std::isfinite(weight) || weight < 0.0f) {
    return Status::InvalidArgument(
        "edge weight must be finite and non-negative");
  }
  edges_.push_back({a, b, kind, weight});
  return Status::OK();
}

HeteroGraph HeteroGraphBuilder::Build() {
  // One segment covering every row: offsets are segment-local and global
  // at once, and the builder fills its arrays in place.
  const int64_t n = num_nodes();
  CsrSegment seg;
  seg.generation_ = 1;
  seg.content_dim_ = content_dim_;
  seg.types_ = std::move(types_);
  seg.contents_ = std::move(contents_);
  seg.slot_ids_ = std::move(slot_ids_);
  seg.slot_offsets_ = std::move(slot_offsets_);
  for (NodeType t : seg.types_) ++seg.type_counts_[static_cast<int>(t)];

  // Degree count (each undirected edge contributes a half-edge at both ends).
  seg.offsets_.assign(n + 1, 0);
  for (const auto& e : edges_) {
    ++seg.offsets_[e.a + 1];
    ++seg.offsets_[e.b + 1];
  }
  for (int64_t i = 0; i < n; ++i) seg.offsets_[i + 1] += seg.offsets_[i];

  const int64_t total = seg.offsets_[n];
  seg.nbr_id_.resize(total);
  seg.nbr_weight_.resize(total);
  seg.nbr_kind_.resize(total);
  std::vector<int64_t> cursor(seg.offsets_.begin(), seg.offsets_.end() - 1);
  for (const auto& e : edges_) {
    seg.nbr_id_[cursor[e.a]] = e.b;
    seg.nbr_weight_[cursor[e.a]] = e.weight;
    seg.nbr_kind_[cursor[e.a]] = e.kind;
    ++cursor[e.a];
    seg.nbr_id_[cursor[e.b]] = e.a;
    seg.nbr_weight_[cursor[e.b]] = e.weight;
    seg.nbr_kind_[cursor[e.b]] = e.kind;
    ++cursor[e.b];
  }
  edges_.clear();

  // Sort each neighbor block by (neighbor type, kind, id) and record typed
  // sub-offsets.
  seg.type_offsets_.assign(n * (kNumNodeTypes + 1), 0);
  std::vector<int64_t> perm;
  std::vector<NodeId> tmp_id;
  std::vector<float> tmp_w;
  std::vector<RelationKind> tmp_k;
  for (int64_t v = 0; v < n; ++v) {
    const int64_t begin = seg.offsets_[v];
    const int64_t deg = seg.offsets_[v + 1] - begin;
    perm.resize(deg);
    std::iota(perm.begin(), perm.end(), int64_t{0});
    std::sort(perm.begin(), perm.end(), [&](int64_t x, int64_t y) {
      const NodeId ax = seg.nbr_id_[begin + x], ay = seg.nbr_id_[begin + y];
      const auto tx = static_cast<int>(seg.types_[ax]);
      const auto ty = static_cast<int>(seg.types_[ay]);
      if (tx != ty) return tx < ty;
      const auto kx = static_cast<int>(seg.nbr_kind_[begin + x]);
      const auto ky = static_cast<int>(seg.nbr_kind_[begin + y]);
      if (kx != ky) return kx < ky;
      return ax < ay;
    });
    tmp_id.resize(deg);
    tmp_w.resize(deg);
    tmp_k.resize(deg);
    for (int64_t i = 0; i < deg; ++i) {
      tmp_id[i] = seg.nbr_id_[begin + perm[i]];
      tmp_w[i] = seg.nbr_weight_[begin + perm[i]];
      tmp_k[i] = seg.nbr_kind_[begin + perm[i]];
    }
    std::copy(tmp_id.begin(), tmp_id.end(), seg.nbr_id_.begin() + begin);
    std::copy(tmp_w.begin(), tmp_w.end(), seg.nbr_weight_.begin() + begin);
    std::copy(tmp_k.begin(), tmp_k.end(), seg.nbr_kind_.begin() + begin);

    // Typed offsets: positions of each type's sub-range.
    const int64_t base = v * (kNumNodeTypes + 1);
    int64_t pos = begin;
    for (int t = 0; t < kNumNodeTypes; ++t) {
      seg.type_offsets_[base + t] = pos;
      while (pos < begin + deg &&
             static_cast<int>(seg.types_[seg.nbr_id_[pos]]) == t) {
        ++pos;
      }
    }
    seg.type_offsets_[base + kNumNodeTypes] = pos;
  }

  // Per-node alias tables over edge weights.
  seg.alias_.resize(n);
  std::vector<double> w;
  for (int64_t v = 0; v < n; ++v) {
    const int64_t begin = seg.offsets_[v];
    const int64_t deg = seg.offsets_[v + 1] - begin;
    if (deg == 0) continue;
    w.assign(seg.nbr_weight_.begin() + begin,
             seg.nbr_weight_.begin() + begin + deg);
    seg.alias_[v].Build(w);
  }

  HeteroGraph g;
  int64_t span = 1;
  while (span < n) span <<= 1;
  g.SetSpan(span);
  g.content_dim_ = content_dim_;
  if (n > 0) {
    g.segments_.push_back(std::make_shared<const CsrSegment>(std::move(seg)));
  }
  g.RecomputeTotals();
  return g;
}

}  // namespace graph
}  // namespace zoomer
