// Approximate-nearest-neighbor inverted index (paper Sec. VI: trained
// representations are fed to an ANN module generating the inverted index
// used for online retrieval in iGraph). IVF-Flat: a k-means coarse quantizer
// partitions item vectors into nlist inverted lists; a query scans the
// nprobe closest lists. Cosine similarity via L2-normalized vectors.
//
// Layout. Each inverted list owns its normalized rows as contiguous blocks
// of 8 rows, stored transposed: row `lane` of a block has its
// coordinate d at block[d * 8 + lane]. The last block of a list is padded
// with zeros; the list's ids say how many lanes are real. The rows exist
// only there (no separate row store), and the centroids are stored the
// same way, as one run of blocks.
//
// Kernel. One scoring kernel computes the dot products of a query with a
// run of blocks, several blocks per step with independent accumulators.
// It scores the list scan and the centroid ranking of Search, the full
// scan of SearchExact, the k-means assignment of Build and the
// nearest-centroid pick of Insert. Each row's score sums q[d] * x[d] over
// d in order no matter which path or step scores it, so Search with
// nprobe == nlist returns exactly SearchExact's scores.
//
// Selection. Results are ranked by score descending, then id ascending, so
// tied scores come back in one order on every standard library. Candidates
// scoring at least a running threshold go into a thread-local buffer; when
// it holds 4k entries it is cut down to the best k and the threshold rises
// to the k-th score. This is exact: a candidate below the k-th best of a
// subset already seen has k better candidates and cannot be in the top k.
#ifndef ZOOMER_SERVING_ANN_INDEX_H_
#define ZOOMER_SERVING_ANN_INDEX_H_

#include <cstdint>
#include <shared_mutex>
#include <utility>
#include <vector>

#include "common/random.h"
#include "common/status.h"

namespace zoomer {

namespace obs {
class Histogram;
class MetricsRegistry;
}  // namespace obs

namespace serving {

struct AnnIndexOptions {
  int nlist = 16;        // number of inverted lists (coarse centroids)
  int nprobe = 4;        // lists scanned per query
  int kmeans_iters = 8;
  uint64_t seed = 17;
  /// Metrics registry for search/insert timing histograms
  /// ("serving.ann_search_latency_us", "serving.ann_insert_latency_us").
  /// Null means the process-global registry.
  obs::MetricsRegistry* registry = nullptr;
};

struct AnnResult {
  int64_t id = -1;      // caller-provided id
  float score = 0.0f;   // cosine similarity
};

class AnnIndex {
 public:
  explicit AnnIndex(AnnIndexOptions options);

  /// Builds the index over `vectors` (n x dim, row-major), with ids[i]
  /// attached to row i. Vectors are L2-normalized internally. Not
  /// thread-safe against concurrent Search/Insert (build first).
  Status Build(const std::vector<float>& vectors, int64_t n, int dim,
               const std::vector<int64_t>& ids);

  /// Incrementally inserts one vector after Build(): normalized, assigned
  /// to the nearest coarse centroid, appended to that inverted list (the
  /// centroids are not re-trained — standard IVF incremental insert). Safe
  /// to call concurrently with Search, so the serving path can index a
  /// streamed cold-start item without rebuilding.
  Status Insert(const float* vector, int64_t id);

  /// Top-k by cosine over the nprobe nearest lists, ranked by score
  /// descending, then id ascending. Empty for k <= 0.
  std::vector<AnnResult> Search(const float* query, int k) const;

  /// Exact top-k scan over every list (recall oracle for tests/benches),
  /// ranked as Search.
  std::vector<AnnResult> SearchExact(const float* query, int k) const;

  int64_t size() const {
    std::shared_lock<std::shared_mutex> lock(mu_);
    return n_;
  }
  int dim() const { return dim_; }
  const AnnIndexOptions& options() const { return options_; }

 private:
  /// One inverted list: blocks of 8 transposed rows (the last
  /// one padded) and the id of each real row.
  struct List {
    std::vector<float> blocks;
    std::vector<int64_t> ids;
  };

  void Normalize(float* v) const;
  /// The coarse-quantizer score of every centroid for normalized `q`.
  void ScoreCentroids(const float* q, std::vector<float>* scores) const;

  AnnIndexOptions options_;
  /// Registry-owned timing histograms (resolved once at construction).
  obs::Histogram* search_latency_us_ = nullptr;
  obs::Histogram* insert_latency_us_ = nullptr;
  int dim_ = 0;  // fixed at Build
  int nlist_ = 0;
  /// Centroids as blocks (nlist_ rows); fixed after Build, so the coarse
  /// quantizer reads stay unguarded.
  std::vector<float> centroid_blocks_;
  /// Guards the lists against Insert-vs-Search races.
  mutable std::shared_mutex mu_;
  int64_t n_ = 0;            // guarded by mu_
  std::vector<List> lists_;  // guarded by mu_
};

}  // namespace serving
}  // namespace zoomer

#endif  // ZOOMER_SERVING_ANN_INDEX_H_
