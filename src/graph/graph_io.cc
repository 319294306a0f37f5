#include "graph/graph_io.h"

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <vector>

#include "common/byte_buffer.h"
#include "common/crc32.h"

namespace zoomer {
namespace graph {

namespace {

constexpr uint64_t kMagic = 0x5A4F4F4D47524148ull;  // "ZOOMGRAH"
constexpr uint32_t kVersion = 1;

constexpr uint64_t kSegMagic = 0x5A4F4F4D5345474Dull;  // "ZOOMSEGM"
constexpr uint32_t kSegVersion = 1;

struct FileCloser {
  void operator()(std::FILE* f) const {
    if (f) std::fclose(f);
  }
};
using FilePtr = std::unique_ptr<std::FILE, FileCloser>;

bool WriteBytes(std::FILE* f, const void* data, size_t n) {
  return std::fwrite(data, 1, n, f) == n;
}

template <typename T>
bool WriteScalar(std::FILE* f, T v) {
  return WriteBytes(f, &v, sizeof(T));
}

template <typename T>
bool WriteVector(std::FILE* f, const std::vector<T>& v) {
  return WriteScalar<uint64_t>(f, v.size()) &&
         (v.empty() || WriteBytes(f, v.data(), v.size() * sizeof(T)));
}

bool ReadBytes(std::FILE* f, void* data, size_t n) {
  return std::fread(data, 1, n, f) == n;
}

template <typename T>
bool ReadScalar(std::FILE* f, T* v) {
  return ReadBytes(f, v, sizeof(T));
}

template <typename T>
bool ReadVector(std::FILE* f, std::vector<T>* v, uint64_t max_elems) {
  uint64_t n = 0;
  if (!ReadScalar(f, &n)) return false;
  if (n > max_elems) return false;  // corruption guard
  v->resize(n);
  return v->empty() || ReadBytes(f, v->data(), n * sizeof(T));
}

}  // namespace

Status SaveGraph(const HeteroGraph& g, const std::string& path) {
  FilePtr f(std::fopen(path.c_str(), "wb"));
  if (!f) return Status::Unavailable("cannot open " + path + " for writing");

  const int64_t n = g.num_nodes();
  bool ok = WriteScalar(f.get(), kMagic) && WriteScalar(f.get(), kVersion) &&
            WriteScalar<int64_t>(f.get(), n) &&
            WriteScalar<int32_t>(f.get(), g.content_dim());
  // Node sections.
  std::vector<uint8_t> types(n);
  std::vector<float> contents(static_cast<size_t>(n) * g.content_dim());
  std::vector<int64_t> slot_ids;
  std::vector<int64_t> slot_offsets = {0};
  for (NodeId v = 0; v < n && ok; ++v) {
    types[v] = static_cast<uint8_t>(g.node_type(v));
    const float* c = g.content(v);
    std::copy(c, c + g.content_dim(), contents.begin() + v * g.content_dim());
    auto s = g.slots(v);
    slot_ids.insert(slot_ids.end(), s.begin(), s.end());
    slot_offsets.push_back(static_cast<int64_t>(slot_ids.size()));
  }
  ok = ok && WriteVector(f.get(), types) && WriteVector(f.get(), contents) &&
       WriteVector(f.get(), slot_ids) && WriteVector(f.get(), slot_offsets);

  // Edge list: one record per undirected edge (emit each half-edge pair
  // once, from the lower endpoint).
  std::vector<int64_t> ea, eb;
  std::vector<float> ew;
  std::vector<uint8_t> ek;
  for (NodeId v = 0; v < n; ++v) {
    auto ids = g.neighbor_ids(v);
    auto weights = g.neighbor_weights(v);
    auto kinds = g.neighbor_kinds(v);
    for (size_t i = 0; i < ids.size(); ++i) {
      if (ids[i] < v) continue;  // emit once per undirected edge
      ea.push_back(v);
      eb.push_back(ids[i]);
      ew.push_back(weights[i]);
      ek.push_back(static_cast<uint8_t>(kinds[i]));
    }
  }
  ok = ok && WriteVector(f.get(), ea) && WriteVector(f.get(), eb) &&
       WriteVector(f.get(), ew) && WriteVector(f.get(), ek);
  if (!ok) return Status::Internal("short write to " + path);
  return Status::OK();
}

StatusOr<HeteroGraph> LoadGraph(const std::string& path) {
  FilePtr f(std::fopen(path.c_str(), "rb"));
  if (!f) return Status::NotFound("cannot open " + path);

  uint64_t magic = 0;
  uint32_t version = 0;
  int64_t n = 0;
  int32_t content_dim = 0;
  if (!ReadScalar(f.get(), &magic) || magic != kMagic) {
    return Status::InvalidArgument("bad magic in " + path);
  }
  if (!ReadScalar(f.get(), &version) || version != kVersion) {
    return Status::InvalidArgument("unsupported graph file version");
  }
  if (!ReadScalar(f.get(), &n) || !ReadScalar(f.get(), &content_dim) ||
      n <= 0 || content_dim <= 0) {
    return Status::InvalidArgument("corrupt header in " + path);
  }
  constexpr uint64_t kMaxElems = 1ull << 34;
  std::vector<uint8_t> types;
  std::vector<float> contents;
  std::vector<int64_t> slot_ids, slot_offsets;
  if (!ReadVector(f.get(), &types, kMaxElems) ||
      !ReadVector(f.get(), &contents, kMaxElems) ||
      !ReadVector(f.get(), &slot_ids, kMaxElems) ||
      !ReadVector(f.get(), &slot_offsets, kMaxElems)) {
    return Status::InvalidArgument("corrupt node sections in " + path);
  }
  if (static_cast<int64_t>(types.size()) != n ||
      static_cast<int64_t>(contents.size()) != n * content_dim ||
      static_cast<int64_t>(slot_offsets.size()) != n + 1) {
    return Status::InvalidArgument("node section size mismatch");
  }
  std::vector<int64_t> ea, eb;
  std::vector<float> ew;
  std::vector<uint8_t> ek;
  if (!ReadVector(f.get(), &ea, kMaxElems) ||
      !ReadVector(f.get(), &eb, kMaxElems) ||
      !ReadVector(f.get(), &ew, kMaxElems) ||
      !ReadVector(f.get(), &ek, kMaxElems)) {
    return Status::InvalidArgument("corrupt edge sections in " + path);
  }
  if (ea.size() != eb.size() || ea.size() != ew.size() ||
      ea.size() != ek.size()) {
    return Status::InvalidArgument("edge section size mismatch");
  }

  HeteroGraphBuilder builder(content_dim);
  for (int64_t v = 0; v < n; ++v) {
    if (types[v] >= kNumNodeTypes) {
      return Status::InvalidArgument("invalid node type");
    }
    std::vector<float> c(contents.begin() + v * content_dim,
                         contents.begin() + (v + 1) * content_dim);
    if (slot_offsets[v] < 0 || slot_offsets[v + 1] < slot_offsets[v] ||
        slot_offsets[v + 1] > static_cast<int64_t>(slot_ids.size())) {
      return Status::InvalidArgument("invalid slot offsets");
    }
    std::vector<int64_t> s(slot_ids.begin() + slot_offsets[v],
                           slot_ids.begin() + slot_offsets[v + 1]);
    builder.AddNode(static_cast<NodeType>(types[v]), std::move(c),
                    std::move(s));
  }
  for (size_t i = 0; i < ea.size(); ++i) {
    if (ek[i] >= kNumRelationKinds) {
      return Status::InvalidArgument("invalid relation kind");
    }
    Status st = builder.AddEdge(ea[i], eb[i],
                                static_cast<RelationKind>(ek[i]), ew[i]);
    if (!st.ok()) return st;
  }
  return builder.Build();
}

Status SaveCsrSegment(const CsrSegment& seg, const std::string& path) {
  // Payload first, in memory: the header carries its CRC, so recovery can
  // distinguish a torn write from silent corruption before trusting any
  // array. Alias tables are omitted — AliasTable::Build is deterministic
  // over the stored (ordered) weights, so the rebuilt tables, and with
  // them every weighted-draw sequence, match the saved segment exactly.
  ByteWriter w;
  w.Scalar<int64_t>(seg.first_node_);
  w.Scalar<uint64_t>(seg.generation_);
  w.Scalar<uint64_t>(seg.folded_epoch_);
  w.Scalar<int32_t>(seg.content_dim_);
  w.Vector(seg.types_);
  w.Vector(seg.contents_);
  w.Vector(seg.slot_ids_);
  w.Vector(seg.slot_offsets_);
  w.Vector(seg.offsets_);
  w.Vector(seg.nbr_id_);
  w.Vector(seg.nbr_weight_);
  w.Vector(seg.nbr_kind_);
  w.Vector(seg.type_offsets_);

  FilePtr f(std::fopen(path.c_str(), "wb"));
  if (!f) return Status::Unavailable("cannot open " + path + " for writing");
  const uint32_t crc = Crc32(w.data().data(), w.size());
  bool ok = WriteScalar(f.get(), kSegMagic) &&
            WriteScalar(f.get(), kSegVersion) && WriteScalar(f.get(), crc) &&
            WriteScalar<uint64_t>(f.get(), w.size()) &&
            (w.size() == 0 || WriteBytes(f.get(), w.data().data(), w.size()));
  ok = ok && std::fflush(f.get()) == 0;
  if (!ok) return Status::Internal("short write to " + path);
  return Status::OK();
}

StatusOr<std::shared_ptr<const CsrSegment>> LoadCsrSegment(
    const std::string& path) {
  FilePtr f(std::fopen(path.c_str(), "rb"));
  if (!f) return Status::NotFound("cannot open " + path);
  uint64_t magic = 0;
  uint32_t version = 0, crc = 0;
  uint64_t payload_size = 0;
  if (!ReadScalar(f.get(), &magic) || magic != kSegMagic) {
    return Status::InvalidArgument("bad segment magic in " + path);
  }
  if (!ReadScalar(f.get(), &version) || version != kSegVersion) {
    return Status::InvalidArgument("unsupported segment file version in " +
                                   path);
  }
  constexpr uint64_t kMaxPayload = 1ull << 38;
  if (!ReadScalar(f.get(), &crc) || !ReadScalar(f.get(), &payload_size) ||
      payload_size > kMaxPayload) {
    return Status::InvalidArgument("corrupt segment header in " + path);
  }
  std::vector<uint8_t> payload(payload_size);
  if (payload_size > 0 &&
      !ReadBytes(f.get(), payload.data(), payload.size())) {
    return Status::InvalidArgument("truncated segment payload in " + path);
  }
  if (Crc32(payload.data(), payload.size()) != crc) {
    return Status::InvalidArgument("segment payload CRC mismatch in " + path);
  }

  constexpr uint64_t kMaxElems = 1ull << 34;
  auto seg = std::make_shared<CsrSegment>();
  ByteReader r({payload.data(), payload.size()});
  int32_t content_dim = 0;
  bool ok = r.Scalar(&seg->first_node_) && r.Scalar(&seg->generation_) &&
            r.Scalar(&seg->folded_epoch_) && r.Scalar(&content_dim) &&
            r.Vector(&seg->types_, kMaxElems) &&
            r.Vector(&seg->contents_, kMaxElems) &&
            r.Vector(&seg->slot_ids_, kMaxElems) &&
            r.Vector(&seg->slot_offsets_, kMaxElems) &&
            r.Vector(&seg->offsets_, kMaxElems) &&
            r.Vector(&seg->nbr_id_, kMaxElems) &&
            r.Vector(&seg->nbr_weight_, kMaxElems) &&
            r.Vector(&seg->nbr_kind_, kMaxElems) &&
            r.Vector(&seg->type_offsets_, kMaxElems);
  if (!ok || !r.exhausted()) {
    return Status::InvalidArgument("corrupt segment payload in " + path);
  }
  seg->content_dim_ = content_dim;

  // Structural validation: the CRC catches bit rot, this catches a payload
  // that checksums fine but violates the segment invariants (e.g. written
  // by a buggy producer). Nothing below may index out of the arrays.
  const int64_t rows = static_cast<int64_t>(seg->types_.size());
  const int64_t half_edges = static_cast<int64_t>(seg->nbr_id_.size());
  if (rows <= 0 || content_dim <= 0 || seg->first_node_ < 0) {
    return Status::InvalidArgument("invalid segment shape in " + path);
  }
  if (static_cast<int64_t>(seg->contents_.size()) != rows * content_dim ||
      static_cast<int64_t>(seg->slot_offsets_.size()) != rows + 1 ||
      static_cast<int64_t>(seg->offsets_.size()) != rows + 1 ||
      seg->nbr_weight_.size() != seg->nbr_id_.size() ||
      seg->nbr_kind_.size() != seg->nbr_id_.size() ||
      static_cast<int64_t>(seg->type_offsets_.size()) !=
          rows * (kNumNodeTypes + 1)) {
    return Status::InvalidArgument("segment section size mismatch in " + path);
  }
  if (seg->slot_offsets_[0] != 0 || seg->offsets_[0] != 0 ||
      seg->slot_offsets_[rows] !=
          static_cast<int64_t>(seg->slot_ids_.size()) ||
      seg->offsets_[rows] != half_edges) {
    return Status::InvalidArgument("segment offsets do not cover arrays in " +
                                   path);
  }
  for (int64_t r2 = 0; r2 < rows; ++r2) {
    if (seg->slot_offsets_[r2 + 1] < seg->slot_offsets_[r2] ||
        seg->offsets_[r2 + 1] < seg->offsets_[r2]) {
      return Status::InvalidArgument("non-monotone segment offsets in " +
                                     path);
    }
    const int64_t tbase = r2 * (kNumNodeTypes + 1);
    if (seg->type_offsets_[tbase] != seg->offsets_[r2] ||
        seg->type_offsets_[tbase + kNumNodeTypes] != seg->offsets_[r2 + 1]) {
      return Status::InvalidArgument("typed sub-ranges do not cover the row "
                                     "block in " +
                                     path);
    }
    for (int t = 0; t < kNumNodeTypes; ++t) {
      if (seg->type_offsets_[tbase + t + 1] < seg->type_offsets_[tbase + t]) {
        return Status::InvalidArgument("non-monotone typed sub-ranges in " +
                                       path);
      }
    }
    if (static_cast<uint8_t>(seg->types_[r2]) >= kNumNodeTypes) {
      return Status::InvalidArgument("invalid node type in " + path);
    }
  }
  for (const RelationKind k : seg->nbr_kind_) {
    if (static_cast<uint8_t>(k) >= kNumRelationKinds) {
      return Status::InvalidArgument("invalid relation kind in " + path);
    }
  }
  for (const NodeId id : seg->nbr_id_) {
    if (id < 0) {
      return Status::InvalidArgument("negative neighbor id in " + path);
    }
  }

  // Derived state: type counts and the per-row alias tables (deterministic
  // Vose construction over the stored weight order).
  for (int64_t r2 = 0; r2 < rows; ++r2) {
    ++seg->type_counts_[static_cast<int>(seg->types_[r2])];
  }
  seg->alias_.resize(static_cast<size_t>(rows));
  std::vector<double> wbuf;
  for (int64_t r2 = 0; r2 < rows; ++r2) {
    const int64_t deg = seg->offsets_[r2 + 1] - seg->offsets_[r2];
    if (deg == 0) continue;
    wbuf.assign(seg->nbr_weight_.begin() + seg->offsets_[r2],
                seg->nbr_weight_.begin() + seg->offsets_[r2 + 1]);
    for (double wv : wbuf) {
      if (!std::isfinite(wv) || wv < 0.0) {
        return Status::InvalidArgument("invalid neighbor weight in " + path);
      }
    }
    seg->alias_[static_cast<size_t>(r2)].Build(wbuf);
  }
  return std::shared_ptr<const CsrSegment>(std::move(seg));
}

}  // namespace graph
}  // namespace zoomer
