// Bench-side span tracer. Spans are recorded around the benchmark's own
// calls into the library's public API (nothing inside src/ is touched):
// each span carries a name, start/end (steady clock, ns), its parent span
// and a request id. Every thread appends to its own buffer, so recording
// takes no lock; buffers are merged only after the traced phase ends.
//
// When the tracer is disabled a Span costs one relaxed load and a branch,
// which is how the untraced (end-to-end) runs use it.
#ifndef ZOOMER_PERFBENCH_TRACER_H_
#define ZOOMER_PERFBENCH_TRACER_H_

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct SpanRecord {
  const char* name = "";  // string literal: outlives every buffer
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint64_t id = 0;      // (thread slot << 40) | per-thread sequence
  uint64_t parent = 0;  // 0 = root
  int64_t request = -1;
};

/// Per-name aggregate over a set of spans: count, total duration, and total
/// self time (duration minus the union of its direct children's intervals).
struct SpanStats {
  int64_t count = 0;
  double total_us = 0.0;
  double self_us = 0.0;
  double MeanUs() const { return count > 0 ? total_us / count : 0.0; }
  double MeanSelfUs() const { return count > 0 ? self_us / count : 0.0; }
};

class Tracer {
 public:
  static Tracer& Get() {
    static Tracer tracer;
    return tracer;
  }

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void Enable(bool on) { enabled_.store(on, std::memory_order_relaxed); }

  /// The calling thread's buffer (registered on first use; buffers live as
  /// long as the tracer, so a thread that exits leaves its spans behind).
  struct Buffer {
    uint64_t slot = 0;
    uint64_t next_seq = 1;
    uint64_t current = 0;  // innermost open span on this thread
    std::vector<SpanRecord> spans;
  };
  Buffer* ThreadBuffer() {
    thread_local Buffer* buffer = nullptr;
    if (buffer == nullptr) {
      std::lock_guard<std::mutex> lock(mu_);
      buffers_.push_back(std::make_unique<Buffer>());
      buffer = buffers_.back().get();
      buffer->slot = buffers_.size();
      buffer->spans.reserve(1 << 14);
    }
    return buffer;
  }

  /// All spans recorded so far. Call only while no thread is recording.
  std::vector<SpanRecord> Collect() const {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<SpanRecord> all;
    for (const auto& b : buffers_) {
      all.insert(all.end(), b->spans.begin(), b->spans.end());
    }
    return all;
  }

  /// Drops recorded spans (buffers stay registered).
  void Clear() {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& b : buffers_) b->spans.clear();
  }

 private:
  std::atomic<bool> enabled_{false};
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Buffer>> buffers_;
};

/// RAII span: parent = the innermost span open on this thread.
class Span {
 public:
  explicit Span(const char* name, int64_t request = -1) {
    Tracer& t = Tracer::Get();
    if (!t.enabled()) return;
    buffer_ = t.ThreadBuffer();
    rec_.name = name;
    rec_.request = request;
    rec_.id = (buffer_->slot << 40) | buffer_->next_seq++;
    rec_.parent = buffer_->current;
    buffer_->current = rec_.id;
    rec_.start_ns = NowNs();
  }
  ~Span() {
    if (buffer_ == nullptr) return;
    rec_.end_ns = NowNs();
    buffer_->current = rec_.parent;
    buffer_->spans.push_back(rec_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer::Buffer* buffer_ = nullptr;
  SpanRecord rec_;
};

/// Records an already-timed interval (e.g. a queue wait measured across
/// two threads) as a root span on the calling thread.
inline void RecordInterval(const char* name, int64_t start_ns,
                           int64_t end_ns, int64_t request = -1) {
  Tracer& t = Tracer::Get();
  if (!t.enabled()) return;
  Tracer::Buffer* b = t.ThreadBuffer();
  SpanRecord rec;
  rec.name = name;
  rec.start_ns = start_ns;
  rec.end_ns = end_ns;
  rec.request = request;
  rec.id = (b->slot << 40) | b->next_seq++;
  rec.parent = b->current;
  b->spans.push_back(rec);
}

/// Aggregates spans by name, computing self time from direct children.
inline std::map<std::string, SpanStats> Aggregate(
    const std::vector<SpanRecord>& spans) {
  std::map<uint64_t, std::vector<std::pair<int64_t, int64_t>>> children;
  for (const SpanRecord& s : spans) {
    if (s.parent != 0) children[s.parent].emplace_back(s.start_ns, s.end_ns);
  }
  std::map<std::string, SpanStats> out;
  for (const SpanRecord& s : spans) {
    int64_t covered = 0;
    auto it = children.find(s.id);
    if (it != children.end()) {
      auto& iv = it->second;
      std::sort(iv.begin(), iv.end());
      int64_t cur_begin = 0, cur_end = 0;
      bool open = false;
      for (auto [b, e] : iv) {
        b = std::max(b, s.start_ns);
        e = std::min(e, s.end_ns);
        if (e <= b) continue;
        if (open && b <= cur_end) {
          cur_end = std::max(cur_end, e);
        } else {
          if (open) covered += cur_end - cur_begin;
          cur_begin = b;
          cur_end = e;
          open = true;
        }
      }
      if (open) covered += cur_end - cur_begin;
    }
    SpanStats& st = out[s.name];
    const double dur_us = static_cast<double>(s.end_ns - s.start_ns) / 1e3;
    st.count += 1;
    st.total_us += dur_us;
    st.self_us += dur_us - static_cast<double>(covered) / 1e3;
  }
  return out;
}

/// Writes spans as JSON lines (one object per span). Returns false on I/O
/// failure.
inline bool WriteSpans(const std::string& path,
                       const std::vector<SpanRecord>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const SpanRecord& s : spans) {
    std::fprintf(f,
                 "{\"name\":\"%s\",\"start_ns\":%lld,\"end_ns\":%lld,"
                 "\"id\":%llu,\"parent\":%llu,\"request\":%lld}\n",
                 s.name, static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns),
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<long long>(s.request));
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench

#endif  // ZOOMER_PERFBENCH_TRACER_H_
