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
// It scores the probed lists and the centroid ranking of Search, the full
// scan of SearchExact, the k-means assignment of Build and the
// nearest-centroid pick of Insert. Each row's score sums q[d] * x[d] over
// d in order no matter which path or step scores it, so Search with
// nprobe == nlist returns exactly SearchExact's scores.
//
// Selection. Results are ranked by score descending, then id ascending, so
// tied scores come back in one order on every standard library. Search and
// SearchExact share one selection routine over the probed lists, which
// counts instead of comparing:
//  1. Score every probed row into one thread-local buffer.
//  2. Map each score to one of 1,024 buckets by a monotone, branch-free
//     function of the score clamped to [-1, 1] (higher score, same or
//     higher bucket), and histogram the buckets.
//  3. Walk down from the top bucket to the highest bucket t with at least k
//     rows in buckets >= t, and collect those rows (about k + 1 on a
//     12,800-row index at nprobe 8 and k 100).
//  4. Give each survivor its rank by counting the survivors ordered before
//     it, and write it to that slot.
// This is exact: the bucket map is monotone, so every row below bucket t
// scores less than every row at or above it, and at least k rows lie at or
// above t, so no row below t is among the top k. Ranking by counting costs
// O(m^2) in the m survivors; when heavy ties at the threshold (or a large
// k) leave more than 256 survivors, they are ranked by a partial sort
// instead, so an index of identical rows costs O(n log k), not O(n^2).
//
// NaN. A NaN score is never selected. A query whose normalized form holds
// a NaN (a NaN or infinite coordinate) scores NaN against every row and
// returns nothing. A row whose normalized vector holds a NaN is never
// returned; SearchExact, and Search with every list probed, rank the other
// rows as if it were absent (the k-means quantizer itself does not screen
// such rows out, so with fewer lists probed it may steer the probe; a
// centroid scoring NaN is probed only after every other list).
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
  /// descending, then id ascending. Empty for k <= 0; rows scoring NaN are
  /// skipped (see "NaN" above).
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
