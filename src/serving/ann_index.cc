#include "serving/ann_index.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include "common/logging.h"
#include "common/timer.h"
#include "obs/metrics.h"

namespace zoomer {
namespace serving {
namespace {

constexpr int kBlockRows = 8;

/// One coordinate of every row of a block (GCC/Clang vector extension; on
/// targets without 8-wide registers the compiler splits it).
typedef float Lanes __attribute__((vector_size(kBlockRows * sizeof(float))));

int64_t NumBlocks(int64_t rows) {
  return (rows + kBlockRows - 1) / kBlockRows;
}

/// acc += qd * (the 8 floats at p).
inline void MulAdd(Lanes* acc, float qd, const float* p) {
  Lanes x;
  std::memcpy(&x, p, sizeof(x));
  *acc += qd * x;
}

/// The dot-product kernel: scores `q` against a run of `num_blocks` blocks,
/// writing num_blocks * kBlockRows scores (padding lanes included) to `out`,
/// out[b * kBlockRows + lane] for row `lane` of block b. It scores four
/// blocks per step with one accumulator each, since a single chain of
/// `dim` multiply-adds is latency-bound. Every lane sums q[d] * x[d] over d
/// in order, so a row's score does not depend on where its block falls.
void ScoreBlocks(const float* q, const float* blocks, int64_t num_blocks,
                 int dim, float* out) {
  const int64_t stride = static_cast<int64_t>(dim) * kBlockRows;
  int64_t b = 0;
  for (; b + 4 <= num_blocks; b += 4) {
    const float* p = blocks + b * stride;
    Lanes a0 = {}, a1 = {}, a2 = {}, a3 = {};
    for (int d = 0; d < dim; ++d, p += kBlockRows) {
      MulAdd(&a0, q[d], p);
      MulAdd(&a1, q[d], p + stride);
      MulAdd(&a2, q[d], p + 2 * stride);
      MulAdd(&a3, q[d], p + 3 * stride);
    }
    float* o = out + b * kBlockRows;
    std::memcpy(o, &a0, sizeof(a0));
    std::memcpy(o + kBlockRows, &a1, sizeof(a1));
    std::memcpy(o + 2 * kBlockRows, &a2, sizeof(a2));
    std::memcpy(o + 3 * kBlockRows, &a3, sizeof(a3));
  }
  for (; b < num_blocks; ++b) {
    const float* p = blocks + b * stride;
    Lanes a = {};
    for (int d = 0; d < dim; ++d, p += kBlockRows) MulAdd(&a, q[d], p);
    std::memcpy(out + b * kBlockRows, &a, sizeof(a));
  }
}

/// Writes `row` as row number `index` of a block run, appending a zeroed
/// block when the row starts one.
void PutRow(std::vector<float>* blocks, int64_t index, const float* row,
            int dim) {
  const int64_t block_floats = static_cast<int64_t>(dim) * kBlockRows;
  const int lane = static_cast<int>(index % kBlockRows);
  if (lane == 0) blocks->resize(blocks->size() + block_floats, 0.0f);
  float* block = blocks->data() + (index / kBlockRows) * block_floats;
  for (int d = 0; d < dim; ++d) block[d * kBlockRows + lane] = row[d];
}

/// The first index of the highest of n scores.
int Nearest(const std::vector<float>& scores, int n) {
  return static_cast<int>(std::max_element(scores.begin(),
                                           scores.begin() + n) -
                          scores.begin());
}

/// Ranking order: score descending, then id ascending.
bool Better(const AnnResult& a, const AnnResult& b) {
  return a.score > b.score || (a.score == b.score && a.id < b.id);
}

/// Score buckets for the selection threshold: 0 holds NaN, 1..kBuckets the
/// finite scores clamped to [-1, 1].
constexpr int kBuckets = 1024;

/// A monotone map of scores to buckets: a <= b implies Bucket(a) <=
/// Bucket(b) for non-NaN scores (clamping, one rounded multiply-add and
/// truncation are each monotone). The ternaries compile to selects.
inline int Bucket(float s) {
  const float c = s > -1.0f ? (s < 1.0f ? s : 1.0f) : -1.0f;  // NaN -> -1
  const int b = 1 + static_cast<int>((c + 1.0f) * (0.5f * kBuckets - 0.5f));
  return s == s ? b : 0;
}

/// Survivors the final step ranks by counting (O(m^2)); larger survivor
/// sets, which only heavy ties at the threshold or a large k produce, are
/// ranked by a partial sort instead (O(m log k)).
constexpr int64_t kMaxCountedSurvivors = 256;

/// One probed list: its blocks, the ids of its real rows and their count.
struct Probe {
  const float* blocks;
  const int64_t* ids;
  int64_t rows;
};

/// Per-thread working memory of Search, SearchExact and SelectTopK, reused
/// across calls so a search allocates only its result.
struct Scratch {
  std::vector<float> q;                    // the normalized query
  std::vector<float> centroid_scores;
  std::vector<std::pair<float, int>> best_lists;  // (score, list), ranked
  std::vector<Probe> probes;
  std::vector<float> scores;               // every probed row, back to back
  std::vector<uint16_t> buckets;           // Bucket() of each score
  std::vector<int32_t> hist;               // kBuckets + 1 counts
  std::vector<int64_t> survivors;          // positions in `scores`
  std::vector<float> cand_scores;          // the survivors' scores
  std::vector<int64_t> cand_ids;           // and ids
};

Scratch& ThreadScratch() {
  static thread_local Scratch scratch;
  return scratch;
}

/// The exact top k under Better of the rows of `probes` scored against
/// normalized `q`; see "Selection" in the header. NaN scores are never
/// selected.
std::vector<AnnResult> SelectTopK(const float* q, int dim, int k,
                                  Scratch* s) {
  // 1. Score every probed list into one buffer, lists back to back: a
  // list's padding lanes land where the next list starts (or in the slack
  // past the end) and are overwritten.
  int64_t n = 0;
  for (const Probe& p : s->probes) n += p.rows;
  if (s->scores.size() < static_cast<size_t>(n + kBlockRows)) {
    s->scores.resize(n + kBlockRows);
  }
  float* scores = s->scores.data();
  int64_t begin = 0;
  for (const Probe& p : s->probes) {
    ScoreBlocks(q, p.blocks, NumBlocks(p.rows), dim, scores + begin);
    begin += p.rows;
  }
  // 2. Bucket every score (a vectorized pass), then histogram the buckets.
  if (s->buckets.size() < static_cast<size_t>(n)) s->buckets.resize(n);
  uint16_t* buckets = s->buckets.data();
  for (int64_t i = 0; i < n; ++i) buckets[i] = Bucket(scores[i]);
  s->hist.assign(kBuckets + 1, 0);
  int32_t* hist = s->hist.data();
  for (int64_t i = 0; i < n; ++i) ++hist[buckets[i]];
  // 3. The highest bucket t with at least k rows in buckets >= t (bucket 1
  // if there are fewer than k finite scores); every row below t scores
  // less than every row at or above it, so the top k lie at or above t.
  int t = kBuckets + 1;
  for (int64_t above = 0; t > 1 && above < k;) above += hist[--t];
  // Collect the rows at or above t without a branch: each position is
  // written to the next free slot, which advances only past a survivor.
  if (s->survivors.size() < static_cast<size_t>(n)) s->survivors.resize(n);
  int64_t* survivors = s->survivors.data();
  int64_t m = 0;
  for (int64_t j = 0; j < n; ++j) {
    survivors[m] = j;
    m += buckets[j] >= t;
  }
  // Positions to ids: the survivors ascend, so one walk over the probes.
  s->cand_scores.resize(m);
  s->cand_ids.resize(m);
  float* cs = s->cand_scores.data();
  int64_t* ci = s->cand_ids.data();
  const Probe* probe = s->probes.data();
  int64_t probe_begin = 0;
  for (int64_t j = 0; j < m; ++j) {
    const int64_t i = survivors[j];
    while (i >= probe_begin + probe->rows) probe_begin += (probe++)->rows;
    cs[j] = scores[i];
    ci[j] = probe->ids[i - probe_begin];
  }
  // 4. Rank the survivors. A survivor's rank counts the survivors ordered
  // before it, ties in (score, id) broken by position, so the ranks are
  // distinct and each survivor lands in its own slot.
  const int64_t out = std::min<int64_t>(k, m);
  std::vector<AnnResult> ranked(m);
  if (m > kMaxCountedSurvivors) {
    for (int64_t j = 0; j < m; ++j) ranked[j] = {ci[j], cs[j]};
    std::partial_sort(ranked.begin(), ranked.begin() + out, ranked.end(),
                      Better);
    ranked.resize(out);
    return ranked;
  }
  for (int64_t i = 0; i < m; ++i) {
    const float si = cs[i];
    const int64_t idi = ci[i];
    int32_t above = 0, tied = 0;
    for (int64_t j = 0; j < m; ++j) {
      above += cs[j] > si;
      tied += cs[j] == si;
    }
    int64_t rank = above;
    if (tied > 1) {
      for (int64_t j = 0; j < m; ++j) {
        rank += (cs[j] == si) & ((ci[j] < idi) | ((ci[j] == idi) & (j < i)));
      }
    }
    ranked[rank] = {idi, si};
  }
  ranked.resize(out);
  return ranked;
}

}  // namespace

AnnIndex::AnnIndex(AnnIndexOptions options) : options_(options) {
  obs::MetricsRegistry* reg = options_.registry != nullptr
                                  ? options_.registry
                                  : obs::MetricsRegistry::Global();
  search_latency_us_ = reg->GetHistogram("serving.ann_search_latency_us");
  insert_latency_us_ = reg->GetHistogram("serving.ann_insert_latency_us");
}

void AnnIndex::Normalize(float* v) const {
  float norm = 0.0f;
  for (int d = 0; d < dim_; ++d) norm += v[d] * v[d];
  norm = std::sqrt(norm) + 1e-9f;
  for (int d = 0; d < dim_; ++d) v[d] /= norm;
}

void AnnIndex::ScoreCentroids(const float* q,
                              std::vector<float>* scores) const {
  const int64_t blocks = NumBlocks(nlist_);
  scores->resize(static_cast<size_t>(blocks) * kBlockRows);
  ScoreBlocks(q, centroid_blocks_.data(), blocks, dim_, scores->data());
}

Status AnnIndex::Build(const std::vector<float>& vectors, int64_t n, int dim,
                       const std::vector<int64_t>& ids) {
  if (n <= 0 || dim <= 0) return Status::InvalidArgument("empty index input");
  if (vectors.size() != static_cast<size_t>(n * dim)) {
    return Status::InvalidArgument("vector buffer size mismatch");
  }
  if (ids.size() != static_cast<size_t>(n)) {
    return Status::InvalidArgument("ids size mismatch");
  }
  if (options_.nlist <= 0 || options_.nprobe <= 0 ||
      options_.kmeans_iters < 0) {
    return Status::InvalidArgument(
        "nlist and nprobe must be positive, kmeans_iters non-negative");
  }
  dim_ = dim;
  // Row-major normalized rows, only for the k-means pass: the index keeps
  // them in the lists' blocks.
  std::vector<float> rows = vectors;
  for (int64_t i = 0; i < n; ++i) Normalize(rows.data() + i * dim_);

  nlist_ = std::min<int>(options_.nlist, static_cast<int>(n));
  // k-means++ style init: random distinct rows as centroids.
  Rng rng(options_.seed);
  std::vector<int64_t> init(n);
  for (int64_t i = 0; i < n; ++i) init[i] = i;
  rng.Shuffle(&init);
  std::vector<float> centroids(static_cast<size_t>(nlist_) * dim_, 0.0f);
  for (int c = 0; c < nlist_; ++c) {
    std::copy(rows.begin() + init[c] * dim_,
              rows.begin() + (init[c] + 1) * dim_,
              centroids.begin() + static_cast<int64_t>(c) * dim_);
  }
  auto pack_centroids = [&] {
    centroid_blocks_.clear();
    for (int c = 0; c < nlist_; ++c) {
      PutRow(&centroid_blocks_, c,
             centroids.data() + static_cast<int64_t>(c) * dim_, dim_);
    }
  };
  std::vector<int> assign(n, 0);
  std::vector<float> scores;
  for (int iter = 0; iter < options_.kmeans_iters; ++iter) {
    pack_centroids();
    for (int64_t i = 0; i < n; ++i) {
      ScoreCentroids(rows.data() + i * dim_, &scores);
      assign[i] = Nearest(scores, nlist_);
    }
    std::fill(centroids.begin(), centroids.end(), 0.0f);
    std::vector<int> counts(nlist_, 0);
    for (int64_t i = 0; i < n; ++i) {
      for (int d = 0; d < dim_; ++d) {
        centroids[assign[i] * dim_ + d] += rows[i * dim_ + d];
      }
      ++counts[assign[i]];
    }
    for (int c = 0; c < nlist_; ++c) {
      if (counts[c] == 0) {
        // Re-seed empty list with a random row.
        const int64_t r = static_cast<int64_t>(rng.Uniform(n));
        std::copy(rows.begin() + r * dim_, rows.begin() + (r + 1) * dim_,
                  centroids.begin() + static_cast<int64_t>(c) * dim_);
      } else {
        Normalize(centroids.data() + static_cast<int64_t>(c) * dim_);
      }
    }
  }
  pack_centroids();
  lists_.assign(nlist_, {});
  for (int64_t i = 0; i < n; ++i) {
    List& list = lists_[assign[i]];
    PutRow(&list.blocks, static_cast<int64_t>(list.ids.size()),
           rows.data() + i * dim_, dim_);
    list.ids.push_back(ids[i]);
  }
  n_ = n;
  return Status::OK();
}

Status AnnIndex::Insert(const float* vector, int64_t id) {
  if (dim_ == 0 || centroid_blocks_.empty()) {
    return Status::FailedPrecondition("index not built");
  }
  WallTimer timer;
  std::vector<float> row(vector, vector + dim_);
  Normalize(row.data());
  // Nearest coarse centroid — centroids are immutable after Build, so this
  // scan runs outside the row lock.
  std::vector<float> scores;
  ScoreCentroids(row.data(), &scores);
  const int best_c = Nearest(scores, nlist_);
  std::unique_lock<std::shared_mutex> lock(mu_);
  List& list = lists_[best_c];
  PutRow(&list.blocks, static_cast<int64_t>(list.ids.size()), row.data(),
         dim_);
  list.ids.push_back(id);
  ++n_;
  insert_latency_us_->Record(static_cast<int64_t>(timer.ElapsedMicros()));
  return Status::OK();
}

std::vector<AnnResult> AnnIndex::Search(const float* query, int k) const {
  if (k <= 0) return {};
  WallTimer timer;
  Scratch& s = ThreadScratch();
  s.q.assign(query, query + dim_);
  Normalize(s.q.data());
  std::shared_lock<std::shared_mutex> lock(mu_);
  ZCHECK_GT(n_, 0) << "index not built";
  // The nprobe lists of highest centroid score, best first, by insertion
  // into nprobe ranked slots. Lists arrive in index order and a list only
  // passes a strictly lower score, so ties go to the lower list index, as
  // in Insert's nearest-centroid pick: a row's own list is probed first. A
  // NaN score ranks below every other.
  ScoreCentroids(s.q.data(), &s.centroid_scores);
  const int nprobe = std::min(options_.nprobe, nlist_);
  s.best_lists.resize(nprobe);
  auto* best = s.best_lists.data();
  constexpr float kNanRank = -std::numeric_limits<float>::infinity();
  int filled = 0;
  for (int c = 0; c < nlist_; ++c) {
    const float cs = s.centroid_scores[c];
    const float score = cs == cs ? cs : kNanRank;
    int slot = filled;
    if (filled < nprobe) {
      ++filled;
    } else if (score > best[nprobe - 1].first) {
      slot = nprobe - 1;
    } else {
      continue;
    }
    for (; slot > 0 && score > best[slot - 1].first; --slot) {
      best[slot] = best[slot - 1];
    }
    best[slot] = {score, c};
  }
  s.probes.clear();
  for (int p = 0; p < nprobe; ++p) {
    const List& list = lists_[best[p].second];
    s.probes.push_back({list.blocks.data(), list.ids.data(),
                        static_cast<int64_t>(list.ids.size())});
  }
  std::vector<AnnResult> results = SelectTopK(s.q.data(), dim_, k, &s);
  search_latency_us_->Record(static_cast<int64_t>(timer.ElapsedMicros()));
  return results;
}

std::vector<AnnResult> AnnIndex::SearchExact(const float* query,
                                             int k) const {
  if (k <= 0) return {};
  Scratch& s = ThreadScratch();
  s.q.assign(query, query + dim_);
  Normalize(s.q.data());
  std::shared_lock<std::shared_mutex> lock(mu_);
  ZCHECK_GT(n_, 0) << "index not built";
  s.probes.clear();
  for (const List& list : lists_) {
    s.probes.push_back({list.blocks.data(), list.ids.data(),
                        static_cast<int64_t>(list.ids.size())});
  }
  return SelectTopK(s.q.data(), dim_, k, &s);
}

}  // namespace serving
}  // namespace zoomer
