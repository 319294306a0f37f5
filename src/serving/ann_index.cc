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

/// Exact top-k under Better over the candidates pushed, by threshold
/// selection into a reused thread-local buffer (see the header).
class TopK {
 public:
  explicit TopK(int k) : k_(static_cast<size_t>(k)), buf_(Buffer()) {
    buf_.clear();
  }

  void Push(int64_t id, float score) {
    // NaN fails this test too, so Better only ever compares ordered scores.
    if (!(score >= threshold_)) return;
    buf_.push_back({id, score});
    if (buf_.size() == 4 * k_) Cut();
  }

  std::vector<AnnResult> Take() {
    if (buf_.size() > k_) Cut();
    std::sort(buf_.begin(), buf_.end(), Better);
    return buf_;
  }

 private:
  static std::vector<AnnResult>& Buffer() {
    static thread_local std::vector<AnnResult> buf;
    return buf;
  }

  /// Keeps the best k and raises the threshold to the k-th score.
  void Cut() {
    std::nth_element(buf_.begin(), buf_.begin() + (k_ - 1), buf_.end(),
                     Better);
    buf_.resize(k_);
    threshold_ = buf_.back().score;
  }

  size_t k_;
  std::vector<AnnResult>& buf_;
  float threshold_ = -std::numeric_limits<float>::infinity();
};

/// Scores the rows of one list (its blocks and ids) against `q` and offers
/// each to `top`.
void ScanList(const float* q, const std::vector<float>& blocks,
              const std::vector<int64_t>& ids, int dim, TopK* top) {
  static thread_local std::vector<float> scores;
  const int64_t num_blocks = NumBlocks(static_cast<int64_t>(ids.size()));
  const size_t need = static_cast<size_t>(num_blocks) * kBlockRows;
  if (scores.size() < need) scores.resize(need);
  ScoreBlocks(q, blocks.data(), num_blocks, dim, scores.data());
  for (size_t r = 0; r < ids.size(); ++r) top->Push(ids[r], scores[r]);
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
  std::vector<float> q(query, query + dim_);
  Normalize(q.data());
  std::shared_lock<std::shared_mutex> lock(mu_);
  ZCHECK_GT(n_, 0) << "index not built";
  // Rank lists by centroid similarity, ties to the lower list index as in
  // Insert's nearest-centroid pick, so a row's own list is probed first.
  static thread_local std::vector<float> scores;
  ScoreCentroids(q.data(), &scores);
  std::vector<std::pair<float, int>> list_rank(nlist_);
  for (int c = 0; c < nlist_; ++c) list_rank[c] = {scores[c], c};
  const int nprobe = std::min(options_.nprobe, nlist_);
  std::partial_sort(list_rank.begin(), list_rank.begin() + nprobe,
                    list_rank.end(), [](const auto& a, const auto& b) {
                      return a.first > b.first ||
                             (a.first == b.first && a.second < b.second);
                    });
  TopK top(k);
  for (int p = 0; p < nprobe; ++p) {
    const List& list = lists_[list_rank[p].second];
    ScanList(q.data(), list.blocks, list.ids, dim_, &top);
  }
  std::vector<AnnResult> results = top.Take();
  search_latency_us_->Record(static_cast<int64_t>(timer.ElapsedMicros()));
  return results;
}

std::vector<AnnResult> AnnIndex::SearchExact(const float* query,
                                             int k) const {
  if (k <= 0) return {};
  std::vector<float> q(query, query + dim_);
  Normalize(q.data());
  std::shared_lock<std::shared_mutex> lock(mu_);
  ZCHECK_GT(n_, 0) << "index not built";
  TopK top(k);
  for (const List& list : lists_) {
    ScanList(q.data(), list.blocks, list.ids, dim_, &top);
  }
  return top.Take();
}

}  // namespace serving
}  // namespace zoomer
