#include "persist/checkpoint.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <set>
#include <tuple>

#include "common/byte_buffer.h"
#include "common/crc32.h"
#include "common/logging.h"
#include "common/timer.h"
#include "graph/graph_io.h"

namespace zoomer {
namespace persist {

namespace {

namespace fs = std::filesystem;

constexpr uint64_t kManifestMagic = 0x5A4F4F4D4D4E4653ull;  // "ZOOMMNFS"
constexpr uint32_t kManifestVersion = 1;
constexpr uint64_t kMaxElems = 1ull << 34;

std::string SegFileName(int64_t s, uint64_t generation) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "seg-%06" PRId64 "-g%" PRIu64 ".ckpt", s,
                generation);
  return buf;
}

Status FsyncPath(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return Status::Unavailable("cannot open " + path + " to fsync");
  const int rc = ::fsync(fd);
  ::close(fd);
  if (rc != 0) return Status::Internal("fsync failed for " + path);
  return Status::OK();
}

void WriteString(ByteWriter* w, const std::string& s) {
  w->Scalar<uint64_t>(s.size());
  w->Bytes(s.data(), s.size());
}

bool ReadString(ByteReader* r, std::string* s) {
  uint64_t n = 0;
  r->Scalar(&n);
  if (!r->ok() || n > r->remaining()) return false;
  s->resize(n);
  r->Bytes(s->data(), n);
  return r->ok();
}

/// In-memory mirror of the MANIFEST payload.
struct Manifest {
  uint64_t checkpoint_epoch = 0;
  uint64_t base_generation = 1;
  int64_t segment_span = 0;
  int64_t coverage = 0;  // base num_nodes — cross-checked after load
  int64_t mint_origin = 0;
  int32_t wal_shards = 4;
  /// Per segment, in index order: (generation, file name, file bytes).
  std::vector<std::tuple<uint64_t, std::string, int64_t>> segments;
  std::vector<uint64_t> folded_birth_epochs;
  std::vector<streaming::DynamicHeteroGraph::RestoredNodeRecord> records;
};

Status SaveManifest(const Manifest& m, const std::string& dir) {
  ByteWriter w;
  w.Scalar<uint64_t>(m.checkpoint_epoch);
  w.Scalar<uint64_t>(m.base_generation);
  w.Scalar<int64_t>(m.segment_span);
  w.Scalar<int64_t>(m.coverage);
  w.Scalar<int64_t>(m.mint_origin);
  w.Scalar<int32_t>(m.wal_shards);
  w.Scalar<uint64_t>(m.segments.size());
  for (const auto& [gen, name, bytes] : m.segments) {
    w.Scalar<uint64_t>(gen);
    WriteString(&w, name);
    w.Scalar<int64_t>(bytes);
  }
  w.Vector(m.folded_birth_epochs);
  w.Scalar<uint64_t>(m.records.size());
  for (const auto& r : m.records) {
    w.Scalar<int64_t>(r.id);
    w.Scalar<uint64_t>(r.birth_epoch);
    w.Scalar<uint8_t>(r.applied ? 1 : 0);
    w.Scalar<uint8_t>(static_cast<uint8_t>(r.type));
    w.Scalar<int64_t>(r.timestamp);
    w.Vector(r.content);
    w.Vector(r.slots);
  }

  const std::string tmp = (fs::path(dir) / "MANIFEST.tmp").string();
  const std::string final_path = (fs::path(dir) / "MANIFEST").string();
  {
    std::FILE* f = std::fopen(tmp.c_str(), "wb");
    if (f == nullptr) {
      return Status::Unavailable("cannot open " + tmp + " for writing");
    }
    const uint64_t magic = kManifestMagic;
    const uint32_t version = kManifestVersion;
    const uint32_t crc = Crc32(w.data().data(), w.size());
    const uint64_t payload_size = w.size();
    bool ok = std::fwrite(&magic, 1, sizeof(magic), f) == sizeof(magic) &&
              std::fwrite(&version, 1, sizeof(version), f) ==
                  sizeof(version) &&
              std::fwrite(&crc, 1, sizeof(crc), f) == sizeof(crc) &&
              std::fwrite(&payload_size, 1, sizeof(payload_size), f) ==
                  sizeof(payload_size) &&
              std::fwrite(w.data().data(), 1, w.size(), f) == w.size();
    ok = ok && std::fflush(f) == 0 && ::fsync(::fileno(f)) == 0;
    std::fclose(f);
    if (!ok) return Status::Internal("short write to " + tmp);
  }
  // Atomic publish: a crash leaves either the old manifest or the new one,
  // never a half-written file under the MANIFEST name.
  std::error_code ec;
  fs::rename(tmp, final_path, ec);
  if (ec) return Status::Internal("cannot publish " + final_path);
  // Make the rename itself durable.
  (void)FsyncPath(dir);
  return Status::OK();
}

StatusOr<Manifest> LoadManifest(const std::string& dir) {
  const std::string path = (fs::path(dir) / "MANIFEST").string();
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return Status::NotFound("no checkpoint manifest in " + dir);
  struct Closer {
    std::FILE* f;
    ~Closer() { std::fclose(f); }
  } closer{f};

  uint64_t magic = 0, payload_size = 0;
  uint32_t version = 0, crc = 0;
  if (std::fread(&magic, 1, sizeof(magic), f) != sizeof(magic) ||
      magic != kManifestMagic) {
    return Status::InvalidArgument("bad magic in " + path);
  }
  if (std::fread(&version, 1, sizeof(version), f) != sizeof(version) ||
      version != kManifestVersion) {
    return Status::InvalidArgument("unsupported manifest version in " + path);
  }
  if (std::fread(&crc, 1, sizeof(crc), f) != sizeof(crc) ||
      std::fread(&payload_size, 1, sizeof(payload_size), f) !=
          sizeof(payload_size) ||
      payload_size > (1ull << 34)) {
    return Status::InvalidArgument("corrupt manifest header in " + path);
  }
  std::vector<uint8_t> payload(payload_size);
  if (std::fread(payload.data(), 1, payload.size(), f) != payload.size()) {
    return Status::InvalidArgument("truncated manifest " + path);
  }
  if (Crc32(payload.data(), payload.size()) != crc) {
    return Status::InvalidArgument("manifest CRC mismatch in " + path);
  }

  Manifest m;
  ByteReader r({payload.data(), payload.size()});
  r.Scalar(&m.checkpoint_epoch);
  r.Scalar(&m.base_generation);
  r.Scalar(&m.segment_span);
  r.Scalar(&m.coverage);
  r.Scalar(&m.mint_origin);
  r.Scalar(&m.wal_shards);
  uint64_t num_segments = 0;
  r.Scalar(&num_segments);
  if (!r.ok() || num_segments > kMaxElems) {
    return Status::InvalidArgument("corrupt manifest payload in " + path);
  }
  m.segments.reserve(num_segments);
  for (uint64_t i = 0; i < num_segments; ++i) {
    uint64_t gen = 0;
    std::string name;
    int64_t bytes = 0;
    r.Scalar(&gen);
    if (!ReadString(&r, &name)) {
      return Status::InvalidArgument("corrupt segment entry in " + path);
    }
    r.Scalar(&bytes);
    m.segments.emplace_back(gen, std::move(name), bytes);
  }
  r.Vector(&m.folded_birth_epochs, kMaxElems);
  uint64_t num_records = 0;
  r.Scalar(&num_records);
  if (!r.ok() || num_records > kMaxElems) {
    return Status::InvalidArgument("corrupt manifest record count in " + path);
  }
  m.records.resize(num_records);
  for (auto& rec : m.records) {
    uint8_t applied = 0, type = 0;
    r.Scalar(&rec.id);
    r.Scalar(&rec.birth_epoch);
    r.Scalar(&applied);
    r.Scalar(&type);
    r.Scalar(&rec.timestamp);
    r.Vector(&rec.content, kMaxElems);
    r.Vector(&rec.slots, kMaxElems);
    if (applied > 1 || type >= graph::kNumNodeTypes) {
      return Status::InvalidArgument("corrupt node record in " + path);
    }
    rec.applied = applied != 0;
    rec.type = static_cast<graph::NodeType>(type);
  }
  if (!r.ok() || !r.exhausted()) {
    return Status::InvalidArgument("manifest payload size mismatch in " +
                                   path);
  }
  if (m.segment_span <= 0 || m.coverage < 0 || m.mint_origin < 0 ||
      m.wal_shards <= 0 || m.wal_shards > 4096) {
    return Status::InvalidArgument("implausible manifest fields in " + path);
  }
  return m;
}

}  // namespace

CheckpointWriter::CheckpointWriter(streaming::DynamicHeteroGraph* graph,
                                   std::string dir,
                                   CheckpointWriterOptions options)
    : graph_(graph), dir_(std::move(dir)), options_(options) {
  ZCHECK(graph_ != nullptr);
  obs::MetricsRegistry* reg = options_.registry != nullptr
                                  ? options_.registry
                                  : obs::MetricsRegistry::Global();
  checkpoints_ = reg->GetCounter("persist.checkpoints");
  checkpoint_failures_ = reg->GetCounter("persist.checkpoint_failures");
  segments_written_ = reg->GetCounter("persist.checkpoint_segments_written");
  segments_reused_ = reg->GetCounter("persist.checkpoint_segments_reused");
  checkpoint_latency_us_ = reg->GetHistogram("persist.checkpoint_latency_us");
  checkpoint_bytes_ = reg->GetHistogram("persist.checkpoint_bytes");
  last_epoch_gauge_ = reg->GetGauge("persist.last_checkpoint_epoch");
}

void CheckpointWriter::AdoptPreviousLocked() const {
  if (loaded_prev_) return;
  // Adopt a pre-existing checkpoint's segment files for reuse (a recovered
  // process keeps checkpointing incrementally) and its epoch (so cadence
  // policies do not re-checkpoint an unchanged graph after a restart). A
  // corrupt manifest just disables reuse — the next Write replaces it whole.
  loaded_prev_ = true;
  StatusOr<Manifest> prev = LoadManifest(dir_);
  if (prev.ok()) {
    last_checkpoint_epoch_ = prev.value().checkpoint_epoch;
    for (size_t s = 0; s < prev.value().segments.size(); ++s) {
      prev_segments_[static_cast<int64_t>(s)] = prev.value().segments[s];
    }
  }
}

uint64_t CheckpointWriter::last_checkpoint_epoch() const {
  std::lock_guard<std::mutex> lock(mu_);
  AdoptPreviousLocked();
  return last_checkpoint_epoch_;
}

StatusOr<CheckpointStats> CheckpointWriter::Write() {
  WallTimer timer;
  std::lock_guard<std::mutex> lock(mu_);
  AdoptPreviousLocked();
  std::error_code ec;
  fs::create_directories(dir_, ec);
  if (ec) {
    checkpoint_failures_->Add(1);
    return Status::Unavailable("cannot create checkpoint directory " + dir_);
  }

  // Capture order is the whole correctness story: the epoch FIRST, the base
  // SECOND. Every overlay entry pending after this line has epoch > C, so
  // any base captured later (even if a fold lands in between) plus the WAL
  // tail above C is complete. The reverse order would let a fold absorb
  // epochs above C into a base we did not capture.
  const uint64_t checkpoint_epoch = graph_->SafeTruncateEpoch();
  auto [base, base_generation] = graph_->CapturedBase();
  const int64_t coverage = base->num_nodes();
  const int64_t mint_origin = graph_->mint_origin();

  Manifest m;
  m.checkpoint_epoch = checkpoint_epoch;
  m.base_generation = base_generation;
  m.segment_span = base->segment_span();
  m.coverage = coverage;
  m.mint_origin = mint_origin;
  m.wal_shards = options_.wal_shards;
  m.folded_birth_epochs.reserve(static_cast<size_t>(coverage - mint_origin));
  for (graph::NodeId id = mint_origin; id < coverage; ++id) {
    m.folded_birth_epochs.push_back(graph_->MintBirthEpoch(id));
  }
  const int64_t allocated = graph_->num_nodes_allocated();
  m.records.reserve(static_cast<size_t>(allocated - coverage));
  for (graph::NodeId id = coverage; id < allocated; ++id) {
    m.records.push_back(graph_->SnapshotNodeRecord(id));
  }

  CheckpointStats stats;
  stats.checkpoint_epoch = checkpoint_epoch;
  stats.base_generation = base_generation;

  // Segment files: write only those whose generation advanced since the
  // last checkpoint; re-reference the rest (same index + same generation =
  // identical immutable content).
  for (int64_t s = 0; s < base->num_segments(); ++s) {
    const uint64_t gen = base->segment_generation(s);
    const std::string name = SegFileName(s, gen);
    auto prev = prev_segments_.find(s);
    if (prev != prev_segments_.end() && std::get<0>(prev->second) == gen &&
        std::get<1>(prev->second) == name &&
        fs::exists(fs::path(dir_) / name)) {
      m.segments.emplace_back(gen, name, std::get<2>(prev->second));
      stats.bytes_reused += std::get<2>(prev->second);
      ++stats.segments_reused;
      continue;
    }
    const std::string tmp = (fs::path(dir_) / (name + ".tmp")).string();
    const std::string final_path = (fs::path(dir_) / name).string();
    Status st = graph::SaveCsrSegment(base->segment(s), tmp);
    if (st.ok()) st = FsyncPath(tmp);
    if (st.ok()) {
      fs::rename(tmp, final_path, ec);
      if (ec) st = Status::Internal("cannot publish " + final_path);
    }
    if (!st.ok()) {
      checkpoint_failures_->Add(1);
      return st;
    }
    const int64_t bytes = static_cast<int64_t>(fs::file_size(final_path, ec));
    m.segments.emplace_back(gen, name, bytes);
    stats.bytes_written += bytes;
    ++stats.segments_written;
  }

  Status st = SaveManifest(m, dir_);
  if (!st.ok()) {
    checkpoint_failures_->Add(1);
    return st;
  }
  {
    std::error_code size_ec;
    stats.manifest_bytes = static_cast<int64_t>(
        fs::file_size(fs::path(dir_) / "MANIFEST", size_ec));
    stats.bytes_written += stats.manifest_bytes;
  }

  // GC segment files the new manifest no longer references (superseded
  // generations, or stale leftovers from a pre-crash writer).
  {
    std::set<std::string> referenced;
    for (const auto& [gen, name, bytes] : m.segments) referenced.insert(name);
    for (const auto& entry : fs::directory_iterator(dir_, ec)) {
      const std::string name = entry.path().filename().string();
      if (name.rfind("seg-", 0) == 0 && !referenced.count(name)) {
        std::error_code rm_ec;
        fs::remove(entry.path(), rm_ec);
      }
    }
  }

  prev_segments_.clear();
  for (size_t s = 0; s < m.segments.size(); ++s) {
    prev_segments_[static_cast<int64_t>(s)] = m.segments[s];
  }
  last_checkpoint_epoch_ = checkpoint_epoch;
  stats.latency_us = static_cast<int64_t>(timer.ElapsedMicros());

  checkpoints_->Add(1);
  segments_written_->Add(stats.segments_written);
  segments_reused_->Add(stats.segments_reused);
  checkpoint_latency_us_->Record(stats.latency_us);
  checkpoint_bytes_->Record(stats.bytes_written);
  last_epoch_gauge_->Set(static_cast<double>(checkpoint_epoch));
  return stats;
}

StatusOr<RecoveredState> RecoverFrom(const std::string& dir,
                                     const RecoverOptions& options) {
  obs::MetricsRegistry* reg = options.registry != nullptr
                                  ? options.registry
                                  : obs::MetricsRegistry::Global();
  StatusOr<Manifest> loaded = LoadManifest(dir);
  if (!loaded.ok()) return loaded.status();
  Manifest m = std::move(loaded).value();

  // Load the segments the manifest references and reassemble the base.
  std::vector<std::shared_ptr<const graph::CsrSegment>> segs;
  segs.reserve(m.segments.size());
  for (size_t s = 0; s < m.segments.size(); ++s) {
    const auto& [gen, name, bytes] = m.segments[s];
    auto seg = graph::LoadCsrSegment((fs::path(dir) / name).string());
    if (!seg.ok()) return seg.status();
    if (seg.value()->generation() != gen) {
      return Status::InvalidArgument(
          "segment file " + name + " does not match its manifest generation");
    }
    segs.push_back(std::move(seg).value());
  }
  auto base = graph::HeteroGraph::FromSegments(m.segment_span,
                                               std::move(segs));
  if (!base.ok()) return base.status();
  if (base.value()->num_nodes() != m.coverage) {
    return Status::InvalidArgument(
        "recovered base coverage disagrees with the manifest");
  }

  streaming::DynamicHeteroGraph::RecoveryImage image;
  image.base = base.value();
  image.checkpoint_epoch = m.checkpoint_epoch;
  image.base_generation = m.base_generation;
  image.mint_origin = m.mint_origin;
  image.folded_birth_epochs = std::move(m.folded_birth_epochs);
  image.overlay_records = std::move(m.records);
  auto graph =
      streaming::DynamicHeteroGraph::Recover(image, options.graph_options);
  if (!graph.ok()) return graph.status();

  RecoveredState state;
  state.graph = std::move(graph).value();
  state.checkpoint_epoch = m.checkpoint_epoch;
  state.log = std::make_unique<streaming::GraphDeltaLog>(m.wal_shards);
  // Even an empty WAL tail must push the epoch sequence past the epochs
  // already folded into the recovered base.
  state.log->AdvanceEpochFloor(m.checkpoint_epoch);

  // Restore the WAL tail (original epochs) into the fresh in-memory log.
  std::vector<std::pair<uint64_t, std::string>> wal_files;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    uint64_t start = 0;
    if (ParseWalFileName(entry.path().filename().string(), &start)) {
      wal_files.emplace_back(start, entry.path().string());
    }
  }
  std::sort(wal_files.begin(), wal_files.end());
  std::vector<WalRecord> records;
  for (size_t i = 0; i < wal_files.size(); ++i) {
    auto read = ReadWal(wal_files[i].second);
    if (!read.ok()) return read.status();
    if (read.value().torn_tail_records > 0 && i + 1 < wal_files.size()) {
      // A torn record is only explicable in the newest file (the one being
      // appended at the crash); earlier files were sealed by rotation.
      return Status::InvalidArgument("torn WAL record in a sealed file: " +
                                     wal_files[i].second);
    }
    state.torn_wal_records += read.value().torn_tail_records;
    for (WalRecord& rec : read.value().records) {
      if (rec.batch.epoch <= m.checkpoint_epoch) continue;  // checkpointed
      records.push_back(std::move(rec));
    }
  }
  std::sort(records.begin(), records.end(),
            [](const WalRecord& a, const WalRecord& b) {
              return a.batch.epoch < b.batch.epoch;
            });
  for (size_t i = 1; i < records.size(); ++i) {
    if (records[i].batch.epoch == records[i - 1].batch.epoch) {
      return Status::InvalidArgument("duplicate epoch in the WAL tail");
    }
  }
  for (WalRecord& rec : records) {
    ZOOMER_RETURN_IF_ERROR(
        state.log->RestoreBatch(rec.shard, std::move(rec.batch)));
  }

  // Replay through the normal apply path: issuance notification then apply,
  // exactly as the ingest pipeline drives a live graph. The per-segment
  // replay floors inside the graph drop the half-edges the checkpointed
  // segments had already folded.
  const std::vector<streaming::DeltaBatch> tail =
      state.log->ReadSince(m.checkpoint_epoch);
  for (const streaming::DeltaBatch& b : tail) {
    state.graph->NoteEpochIssued(b.epoch);
    Status st = state.graph->ApplyBatch(b);
    if (!st.ok()) {
      return Status::InvalidArgument("WAL replay failed at epoch " +
                                     std::to_string(b.epoch) + ": " +
                                     st.ToString());
    }
    ++state.replayed_epochs;
    state.replayed_edge_events += static_cast<int64_t>(b.events.size());
    state.replayed_node_events +=
        static_cast<int64_t>(b.node_events.size());
  }

  reg->GetGauge("persist.recovery_replay_epochs")
      ->Set(static_cast<double>(state.replayed_epochs));
  reg->GetGauge("persist.recovery_torn_wal_records")
      ->Set(static_cast<double>(state.torn_wal_records));
  return state;
}

}  // namespace persist
}  // namespace zoomer
