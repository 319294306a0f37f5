// Tests for the serving stack: ANN index recall and edge cases, neighbor
// cache hit/miss + async refresh semantics, and end-to-end request handling
// with the load generator.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <limits>
#include <set>
#include <thread>
#include <tuple>

#include "common/random.h"
#include "data/taobao_generator.h"
#include "engine/distributed_graph_engine.h"
#include "obs/metrics.h"
#include "serving/ann_index.h"
#include "serving/neighbor_cache.h"
#include "serving/online_server.h"
#include "streaming/dynamic_hetero_graph.h"
#include "streaming/graph_delta_log.h"
#include "streaming/ingest_pipeline.h"

namespace zoomer {
namespace serving {
namespace {

std::vector<float> RandomVectors(int64_t n, int dim, uint64_t seed) {
  Rng rng(seed);
  std::vector<float> v(n * dim);
  for (auto& x : v) x = static_cast<float>(rng.Normal());
  return v;
}

TEST(AnnIndexTest, BuildValidation) {
  AnnIndex index({});
  EXPECT_FALSE(index.Build({}, 0, 4, {}).ok());
  EXPECT_FALSE(index.Build({1.0f, 2.0f}, 1, 4, {0}).ok());  // size mismatch
  EXPECT_FALSE(index.Build({1.0f, 2.0f, 3.0f, 4.0f}, 1, 4, {0, 1}).ok());

  auto vecs = RandomVectors(20, 4, 5);
  std::vector<int64_t> ids(20);
  for (int i = 0; i < 20; ++i) ids[i] = i;
  for (const auto& [nlist, nprobe, iters] :
       {std::tuple{0, 4, 8}, std::tuple{-1, 4, 8}, std::tuple{16, 0, 8},
        std::tuple{16, -2, 8}, std::tuple{16, 4, -1}}) {
    AnnIndexOptions opt;
    opt.nlist = nlist;
    opt.nprobe = nprobe;
    opt.kmeans_iters = iters;
    AnnIndex bad(opt);
    const Status st = bad.Build(vecs, 20, 4, ids);
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument)
        << nlist << " " << nprobe << " " << iters << ": " << st.ToString();
  }
  AnnIndexOptions opt;
  opt.kmeans_iters = 0;  // no k-means refinement is allowed
  AnnIndex unrefined(opt);
  EXPECT_TRUE(unrefined.Build(vecs, 20, 4, ids).ok());
}

TEST(AnnIndexTest, ExactSearchReturnsTrueNearest) {
  const int dim = 8;
  auto vecs = RandomVectors(100, dim, 3);
  std::vector<int64_t> ids(100);
  for (int i = 0; i < 100; ++i) ids[i] = 1000 + i;
  AnnIndex index({});
  ASSERT_TRUE(index.Build(vecs, 100, dim, ids).ok());
  // Query = vector 42 itself: best exact match must be id 1042.
  auto results = index.SearchExact(vecs.data() + 42 * dim, 5);
  ASSERT_EQ(results.size(), 5u);
  EXPECT_EQ(results[0].id, 1042);
  EXPECT_NEAR(results[0].score, 1.0f, 1e-4f);
  // Scores descending.
  for (size_t i = 1; i < results.size(); ++i) {
    EXPECT_LE(results[i].score, results[i - 1].score);
  }
}

class AnnRecallTest : public ::testing::TestWithParam<int> {};

TEST_P(AnnRecallTest, RecallAt10ReasonableForNprobe) {
  const int nprobe = GetParam();
  const int dim = 16;
  const int64_t n = 500;
  auto vecs = RandomVectors(n, dim, 7);
  std::vector<int64_t> ids(n);
  for (int64_t i = 0; i < n; ++i) ids[i] = i;
  AnnIndexOptions opt;
  opt.nlist = 20;
  opt.nprobe = nprobe;
  AnnIndex index(opt);
  ASSERT_TRUE(index.Build(vecs, n, dim, ids).ok());

  Rng rng(11);
  double recall_sum = 0.0;
  const int queries = 30;
  for (int q = 0; q < queries; ++q) {
    std::vector<float> query(dim);
    for (auto& x : query) x = static_cast<float>(rng.Normal());
    auto approx = index.Search(query.data(), 10);
    auto exact = index.SearchExact(query.data(), 10);
    std::set<int64_t> exact_ids;
    for (const auto& r : exact) exact_ids.insert(r.id);
    int hits = 0;
    for (const auto& r : approx) hits += exact_ids.count(r.id);
    recall_sum += hits / 10.0;
  }
  const double recall = recall_sum / queries;
  // Recall grows with nprobe; full probe = exact.
  if (nprobe >= 20) {
    EXPECT_NEAR(recall, 1.0, 1e-9);
  } else {
    EXPECT_GT(recall, nprobe >= 8 ? 0.6 : 0.2);
  }
}

INSTANTIATE_TEST_SUITE_P(NprobeLevels, AnnRecallTest,
                         ::testing::Values(2, 8, 20));

// One k-means pass over nlist == n rows seeds one centroid per row, and
// each row lands in its own list with that row as its centroid. Search
// over every probed row then returns exactly the nprobe rows of highest
// score, best first: the lists it probes are the nprobe of highest
// centroid score.
TEST(AnnIndexTest, ProbesTheListsOfHighestCentroidScore) {
  const int dim = 8;
  const int64_t n = 40;
  auto vecs = RandomVectors(n, dim, 21);
  std::vector<int64_t> ids(n);
  for (int64_t i = 0; i < n; ++i) ids[i] = 100 + i;
  for (int nprobe : {1, 2, 3, 7, 8, 39, 40}) {
    AnnIndexOptions opt;
    opt.nlist = static_cast<int>(n);
    opt.nprobe = nprobe;
    opt.kmeans_iters = 1;
    AnnIndex index(opt);
    ASSERT_TRUE(index.Build(vecs, n, dim, ids).ok());
    for (int q = 0; q < 20; ++q) {
      auto query = RandomVectors(1, dim, 300 + q);
      const auto got = index.Search(query.data(), static_cast<int>(n));
      const auto want = index.SearchExact(query.data(), nprobe);
      ASSERT_EQ(got.size(), want.size()) << "nprobe " << nprobe;
      for (size_t r = 0; r < want.size(); ++r) {
        EXPECT_EQ(got[r].id, want[r].id) << "nprobe " << nprobe << " q " << q;
        EXPECT_EQ(got[r].score, want[r].score);
      }
    }
  }
}

TEST(AnnIndexTest, SearchFasterThanExactOnLargeIndex) {
  const int dim = 32;
  const int64_t n = 5000;
  auto vecs = RandomVectors(n, dim, 13);
  std::vector<int64_t> ids(n);
  for (int64_t i = 0; i < n; ++i) ids[i] = i;
  AnnIndexOptions opt;
  opt.nlist = 50;
  opt.nprobe = 5;
  AnnIndex index(opt);
  ASSERT_TRUE(index.Build(vecs, n, dim, ids).ok());
  std::vector<float> query(dim, 0.5f);
  // Best-of-N timing: a single measurement loses to preemption when the
  // suite shares cores with parallel ctest; the minimum over several short
  // windows is robust to context switches.
  auto best_of = [](auto&& fn) {
    double best = 1e30;
    for (int rep = 0; rep < 5; ++rep) {
      WallTimer t;
      for (int i = 0; i < 20; ++i) fn();
      best = std::min(best, t.ElapsedMicros());
    }
    return best;
  };
  const double approx_time = best_of([&] { index.Search(query.data(), 10); });
  const double exact_time =
      best_of([&] { index.SearchExact(query.data(), 10); });
  EXPECT_LT(approx_time, exact_time);
}

TEST(AnnIndexTest, NonPositiveKReturnsNothing) {
  const int dim = 8;
  auto vecs = RandomVectors(50, dim, 9);
  std::vector<int64_t> ids(50);
  for (int i = 0; i < 50; ++i) ids[i] = i;
  AnnIndex index({});
  ASSERT_TRUE(index.Build(vecs, 50, dim, ids).ok());
  for (int k : {0, -1, -100}) {
    EXPECT_TRUE(index.Search(vecs.data(), k).empty()) << k;
    EXPECT_TRUE(index.SearchExact(vecs.data(), k).empty()) << k;
  }
}

TEST(AnnIndexTest, TiedScoresRankByIdAscending) {
  const int dim = 8;
  // 40 copies of one vector under shuffled ids, among random rows: more
  // ties than the selection buffer holds for k = 3, so the buffer is cut
  // at the tied threshold several times.
  const int64_t copies = 40, others = 60;
  auto vecs = RandomVectors(copies + others, dim, 21);
  std::vector<int64_t> ids(copies + others);
  for (int64_t i = 0; i < copies + others; ++i) ids[i] = 1000 + i;
  Rng rng(4);
  std::vector<int64_t> dup_ids;
  for (int64_t i = 0; i < copies; ++i) dup_ids.push_back(500 + 7 * i);
  rng.Shuffle(&dup_ids);
  for (int64_t i = 0; i < copies; ++i) {
    std::copy(vecs.begin(), vecs.begin() + dim, vecs.begin() + i * dim);
    ids[i] = dup_ids[i];
  }
  AnnIndexOptions opt;
  opt.nlist = 4;
  opt.nprobe = 4;
  AnnIndex index(opt);
  ASSERT_TRUE(index.Build(vecs, copies + others, dim, ids).ok());
  for (int k : {1, 3, 40}) {
    for (const auto& results : {index.Search(vecs.data(), k),
                                index.SearchExact(vecs.data(), k)}) {
      ASSERT_EQ(results.size(), static_cast<size_t>(k));
      for (int i = 0; i < k; ++i) {
        EXPECT_EQ(results[i].id, 500 + 7 * i) << "k=" << k << " rank " << i;
        EXPECT_EQ(results[i].score, results[0].score);
      }
    }
  }
}

/// Checks the selection contract on one index: every k agrees with a prefix
/// of the full ranking, full-probe Search equals SearchExact, and the full
/// ranking holds every id once, by (score desc, id asc).
void ExpectExactRanking(const AnnIndex& index, const float* query,
                        const std::vector<int64_t>& ids) {
  const int n = static_cast<int>(ids.size());
  const auto all = index.SearchExact(query, n);
  ASSERT_EQ(all.size(), ids.size());
  std::vector<int64_t> seen;
  for (size_t i = 0; i < all.size(); ++i) {
    seen.push_back(all[i].id);
    if (i > 0) {
      const bool ordered =
          all[i - 1].score > all[i].score ||
          (all[i - 1].score == all[i].score && all[i - 1].id < all[i].id);
      EXPECT_TRUE(ordered) << "rank " << i;
    }
  }
  std::sort(seen.begin(), seen.end());
  std::vector<int64_t> want = ids;
  std::sort(want.begin(), want.end());
  EXPECT_EQ(seen, want);
  for (int k : {1, 7, 99, 100, 101, n, n + 5}) {
    const auto exact = index.SearchExact(query, k);
    const auto approx = index.Search(query, k);
    ASSERT_EQ(exact.size(), static_cast<size_t>(std::min(k, n))) << k;
    ASSERT_EQ(approx.size(), exact.size()) << k;
    for (size_t i = 0; i < exact.size(); ++i) {
      EXPECT_EQ(exact[i].id, all[i].id) << "k=" << k << " rank " << i;
      EXPECT_EQ(exact[i].score, all[i].score);
      EXPECT_EQ(approx[i].id, exact[i].id) << "k=" << k << " rank " << i;
      EXPECT_EQ(approx[i].score, exact[i].score);
    }
  }
}

// Coordinates in {-1, 0, 1} give a few dozen distinct directions over
// hundreds of rows, so many scores tie at the selection threshold, and the
// survivors reach past the count-ranked size for large k.
TEST(AnnIndexTest, HeavyTiesRankExactly) {
  const int dim = 4;
  const int64_t n = 600;
  Rng rng(61);
  std::vector<float> vecs(n * dim);
  for (auto& x : vecs) x = static_cast<float>(rng.Uniform(3)) - 1.0f;
  std::vector<int64_t> ids(n);
  for (int64_t i = 0; i < n; ++i) ids[i] = 10 * i + 3;
  rng.Shuffle(&ids);
  AnnIndexOptions opt;
  opt.nlist = 6;
  opt.nprobe = 6;
  AnnIndex index(opt);
  ASSERT_TRUE(index.Build(vecs, n, dim, ids).ok());
  for (int q = 0; q < 30; ++q) {
    std::vector<float> query(dim);
    for (auto& x : query) {
      x = q % 2 == 0 ? static_cast<float>(rng.Uniform(3)) - 1.0f
                     : static_cast<float>(rng.Normal());
    }
    ExpectExactRanking(index, query.data(), ids);
  }
}

TEST(AnnIndexTest, AllIdenticalRowsRankById) {
  const int dim = 8;
  const int64_t n = 500;
  auto one = RandomVectors(1, dim, 62);
  std::vector<float> vecs(n * dim);
  for (int64_t i = 0; i < n; ++i) {
    std::copy(one.begin(), one.end(), vecs.begin() + i * dim);
  }
  std::vector<int64_t> ids(n);
  for (int64_t i = 0; i < n; ++i) ids[i] = 7 * i;
  Rng rng(63);
  rng.Shuffle(&ids);
  AnnIndexOptions opt;
  opt.nlist = 4;
  opt.nprobe = 4;
  AnnIndex index(opt);
  ASSERT_TRUE(index.Build(vecs, n, dim, ids).ok());
  for (int q = 0; q < 5; ++q) {
    auto query = RandomVectors(1, dim, 64 + q);
    ExpectExactRanking(index, query.data(), ids);
    const auto top = index.SearchExact(query.data(), 100);
    for (int i = 0; i < 100; ++i) EXPECT_EQ(top[i].id, 7 * i);
  }
}

// NaN scores never rank: a NaN query returns nothing, and a row whose
// normalized vector holds a NaN is never returned while the finite rows
// rank exactly as in an index without it.
TEST(AnnIndexTest, NanScoresAreNeverReturned) {
  const int dim = 8;
  const int64_t n = 120;
  const float nan = std::numeric_limits<float>::quiet_NaN();
  auto vecs = RandomVectors(n, dim, 65);
  std::vector<int64_t> ids(n);
  for (int64_t i = 0; i < n; ++i) ids[i] = i;
  AnnIndexOptions opt;
  opt.nlist = 3;
  opt.nprobe = 3;
  AnnIndex finite(opt);
  ASSERT_TRUE(finite.Build(vecs, n, dim, ids).ok());
  // Every 10th row gets a NaN coordinate, under an id of its own.
  std::vector<float> mixed = vecs;
  std::vector<int64_t> mixed_ids = ids;
  for (int64_t i = 0; i < n; i += 10) {
    std::vector<float> bad(vecs.begin() + i * dim,
                           vecs.begin() + (i + 1) * dim);
    bad[i % dim] = nan;
    mixed.insert(mixed.end(), bad.begin(), bad.end());
    mixed_ids.push_back(1000 + i);
  }
  AnnIndex index(opt);
  ASSERT_TRUE(index.Build(mixed, static_cast<int64_t>(mixed_ids.size()), dim,
                          mixed_ids)
                  .ok());
  std::vector<float> bad_row(vecs.begin(), vecs.begin() + dim);
  bad_row[0] = nan;
  ASSERT_TRUE(index.Insert(bad_row.data(), 5000).ok());

  std::vector<float> nan_query(vecs.begin(), vecs.begin() + dim);
  nan_query[3] = nan;
  for (int k : {1, 10, 500}) {
    EXPECT_TRUE(index.Search(nan_query.data(), k).empty()) << k;
    EXPECT_TRUE(index.SearchExact(nan_query.data(), k).empty()) << k;
  }
  for (int q = 0; q < 10; ++q) {
    auto query = RandomVectors(1, dim, 66 + q);
    for (int k : {1, 10, 500}) {
      const auto want = finite.SearchExact(query.data(), k);
      ASSERT_EQ(want.size(), std::min<size_t>(k, n));
      for (const auto& got : {index.Search(query.data(), k),
                              index.SearchExact(query.data(), k)}) {
        ASSERT_EQ(got.size(), want.size()) << k;
        for (size_t i = 0; i < want.size(); ++i) {
          EXPECT_EQ(got[i].id, want[i].id) << "k=" << k << " rank " << i;
          EXPECT_EQ(got[i].score, want[i].score);
        }
      }
    }
  }
}

class AnnParityTest : public ::testing::TestWithParam<int> {};

// With every list probed, the IVF scan sees exactly the rows of the exact
// scan through the same kernel: same ids, same order, same scores.
TEST_P(AnnParityTest, FullProbeSearchEqualsExact) {
  const int dim = GetParam();
  const int64_t n = 203;  // lists end in partial blocks
  auto vecs = RandomVectors(n, dim, 31 + dim);
  std::vector<int64_t> ids(n);
  for (int64_t i = 0; i < n; ++i) ids[i] = 3 * i + 1;
  AnnIndexOptions opt;
  opt.nlist = 7;
  opt.nprobe = 7;
  AnnIndex index(opt);
  ASSERT_TRUE(index.Build(vecs, n, dim, ids).ok());
  Rng rng(dim);
  for (int q = 0; q < 20; ++q) {
    std::vector<float> query(dim);
    for (auto& x : query) x = static_cast<float>(rng.Normal());
    for (int k : {1, 25, static_cast<int>(n) + 5}) {
      const auto approx = index.Search(query.data(), k);
      const auto exact = index.SearchExact(query.data(), k);
      ASSERT_EQ(approx.size(), std::min<size_t>(k, n));
      ASSERT_EQ(approx.size(), exact.size());
      for (size_t i = 0; i < exact.size(); ++i) {
        EXPECT_EQ(approx[i].id, exact[i].id) << "dim " << dim << " rank " << i;
        EXPECT_EQ(approx[i].score, exact[i].score);
        if (i > 0) {
          EXPECT_LE(exact[i].score, exact[i - 1].score);
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Dims, AnnParityTest,
                         ::testing::Values(4, 8, 16, 32, 33));

TEST(AnnIndexTest, InsertedRowsAreFoundByBothPaths) {
  const int dim = 12;
  const int64_t n = 100;
  auto vecs = RandomVectors(n, dim, 17);
  std::vector<int64_t> ids(n);
  for (int64_t i = 0; i < n; ++i) ids[i] = i;
  AnnIndexOptions opt;
  opt.nlist = 5;
  opt.nprobe = 1;
  AnnIndex index(opt);
  EXPECT_FALSE(index.Insert(vecs.data(), 7).ok());  // not built yet
  ASSERT_TRUE(index.Build(vecs, n, dim, ids).ok());
  // Enough inserts to open new blocks in several lists.
  auto fresh = RandomVectors(30, dim, 18);
  for (int64_t i = 0; i < 30; ++i) {
    const float* v = fresh.data() + i * dim;
    ASSERT_TRUE(index.Insert(v, 5000 + i).ok());
    for (const auto& results : {index.Search(v, 1), index.SearchExact(v, 1)}) {
      ASSERT_EQ(results.size(), 1u);
      EXPECT_EQ(results[0].id, 5000 + i);
      EXPECT_NEAR(results[0].score, 1.0f, 1e-5f);
    }
  }
  EXPECT_EQ(index.size(), n + 30);
  EXPECT_EQ(index.SearchExact(fresh.data(), 1000).size(),
            static_cast<size_t>(n + 30));
}

// One inserter appends rows (opening and reallocating blocks) while four
// searchers scan under the shared lock; the TSan job runs this. Searchers
// run a fixed count rather than until the inserter finishes: a reader-
// preferring shared_mutex would otherwise starve the inserter.
TEST(AnnIndexTest, InsertConcurrentWithSearch) {
  const int dim = 16;
  const int64_t n = 400, inserts = 1500;
  auto vecs = RandomVectors(n, dim, 23);
  std::vector<int64_t> ids(n);
  for (int64_t i = 0; i < n; ++i) ids[i] = i;
  AnnIndexOptions opt;
  opt.nlist = 8;
  opt.nprobe = 3;
  AnnIndex index(opt);
  ASSERT_TRUE(index.Build(vecs, n, dim, ids).ok());
  auto fresh = RandomVectors(inserts, dim, 24);
  std::atomic<int64_t> bad{0};
  std::vector<std::thread> searchers;
  for (int t = 0; t < 4; ++t) {
    searchers.emplace_back([&, t] {
      Rng rng(100 + t);
      std::vector<float> query(dim);
      for (int i = 0; i < 300; ++i) {
        for (auto& x : query) x = static_cast<float>(rng.Normal());
        const auto results = (t % 2 == 0) ? index.Search(query.data(), 10)
                                          : index.SearchExact(query.data(), 10);
        if (results.size() != 10u) bad.fetch_add(1);
        for (size_t i = 1; i < results.size(); ++i) {
          if (results[i].score > results[i - 1].score) bad.fetch_add(1);
        }
      }
    });
  }
  for (int64_t i = 0; i < inserts; ++i) {
    ASSERT_TRUE(index.Insert(fresh.data() + i * dim, n + i).ok());
  }
  for (auto& th : searchers) th.join();
  EXPECT_EQ(bad.load(), 0);
  EXPECT_EQ(index.size(), n + inserts);
  const auto last = index.Search(fresh.data() + (inserts - 1) * dim, 1);
  ASSERT_EQ(last.size(), 1u);
  EXPECT_EQ(last[0].id, n + inserts - 1);
}

// --- NeighborCache ---------------------------------------------------------------

const data::RetrievalDataset& Dataset() {
  static const data::RetrievalDataset* ds = [] {
    data::TaobaoGeneratorOptions opt;
    opt.num_users = 60;
    opt.num_queries = 40;
    opt.num_items = 120;
    opt.num_sessions = 500;
    opt.num_categories = 5;
    opt.content_dim = 8;
    opt.seed = 41;
    return new data::RetrievalDataset(GenerateTaobaoDataset(opt));
  }();
  return *ds;
}

TEST(NeighborCacheTest, MissThenAsyncFillThenHit) {
  const auto& ds = Dataset();
  NeighborCacheOptions opt;
  opt.k = 5;
  NeighborCache cache(&ds.graph, opt);
  std::vector<graph::NodeId> out;
  EXPECT_FALSE(cache.Get(0, &out));  // cold miss schedules refresh
  EXPECT_EQ(cache.misses(), 1);
  // Wait for the async fill.
  for (int i = 0; i < 100 && cache.size() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(cache.Get(0, &out));
  EXPECT_EQ(cache.hits(), 1);
  EXPECT_LE(out.size(), 5u);
}

TEST(NeighborCacheTest, WarmReturnsHighestWeightNeighbors) {
  const auto& ds = Dataset();
  NeighborCacheOptions opt;
  opt.k = 3;
  NeighborCache cache(&ds.graph, opt);
  // Find a node with degree > 3.
  graph::NodeId node = -1;
  for (graph::NodeId v = 0; v < ds.graph.num_nodes(); ++v) {
    if (ds.graph.degree(v) > 3) {
      node = v;
      break;
    }
  }
  ASSERT_NE(node, -1);
  cache.Warm(node);
  std::vector<graph::NodeId> out;
  ASSERT_TRUE(cache.Get(node, &out));
  ASSERT_EQ(out.size(), 3u);
  // Cached entries must be the top-weight neighbors.
  auto ids = ds.graph.neighbor_ids(node);
  auto weights = ds.graph.neighbor_weights(node);
  float min_cached = 1e30f;
  for (auto c : out) {
    for (size_t i = 0; i < ids.size(); ++i) {
      if (ids[i] == c) min_cached = std::min(min_cached, weights[i]);
    }
  }
  int heavier_outside = 0;
  for (size_t i = 0; i < ids.size(); ++i) {
    if (std::find(out.begin(), out.end(), ids[i]) == out.end() &&
        weights[i] > min_cached) {
      ++heavier_outside;
    }
  }
  EXPECT_EQ(heavier_outside, 0);
}

TEST(NeighborCacheTest, WarmAllFillsEverything) {
  const auto& ds = Dataset();
  NeighborCache cache(&ds.graph, {});
  // Repeats fill once per distinct node.
  std::vector<graph::NodeId> nodes = {3, 0, 1, 3, 2, 4, 0, 1, 3, 4};
  cache.WarmAll(nodes);
  EXPECT_EQ(cache.size(), 5u);
  EXPECT_EQ(cache.Stats().completed_fills, 5);
  std::vector<graph::NodeId> out;
  for (auto n : nodes) EXPECT_TRUE(cache.Get(n, &out));
  EXPECT_EQ(cache.Stats().misses, 0);
}

// Two nodes with at least one neighbor each.
std::pair<graph::NodeId, graph::NodeId> TwoConnectedNodes(
    const graph::HeteroGraph& g) {
  std::vector<graph::NodeId> found;
  for (graph::NodeId v = 0; v < g.num_nodes() && found.size() < 2; ++v) {
    if (g.degree(v) > 0) found.push_back(v);
  }
  EXPECT_EQ(found.size(), 2u);
  return {found[0], found[1]};
}

TEST(NeighborCacheTest, GetManyAppendsEveryHitInOrder) {
  const auto& ds = Dataset();
  NeighborCacheOptions opt;
  opt.k = 4;
  NeighborCache cache(&ds.graph, opt);
  const auto [a, b] = TwoConnectedNodes(ds.graph);
  cache.WarmAll({a, b});
  std::vector<graph::NodeId> list_a, list_b;
  ASSERT_TRUE(cache.Get(a, &list_a));
  ASSERT_TRUE(cache.Get(b, &list_b));
  const int64_t hits_before = cache.hits();

  std::vector<graph::NodeId> out = {-7};  // GetMany appends
  const graph::NodeId nodes[2] = {a, b};
  EXPECT_EQ(cache.GetMany(nodes, &out), 2);
  std::vector<graph::NodeId> want = {-7};
  want.insert(want.end(), list_a.begin(), list_a.end());
  want.insert(want.end(), list_b.begin(), list_b.end());
  EXPECT_EQ(out, want);
  EXPECT_EQ(cache.hits(), hits_before + 2);
  EXPECT_EQ(cache.misses(), 0);
}

TEST(NeighborCacheTest, GetManyHitPlusMissSchedulesOneFill) {
  const auto& ds = Dataset();
  NeighborCacheOptions opt;
  opt.k = 4;
  // Keeps the scheduled fill pending while the test misses again.
  opt.refresh_delay_micros = 300000;
  NeighborCache cache(&ds.graph, opt);
  const auto [a, b] = TwoConnectedNodes(ds.graph);
  cache.Warm(a);
  std::vector<graph::NodeId> list_a;
  ASSERT_TRUE(cache.Get(a, &list_a));
  ASSERT_FALSE(list_a.empty());

  std::vector<graph::NodeId> out;
  const graph::NodeId nodes[2] = {a, b};
  EXPECT_EQ(cache.GetMany(nodes, &out), 1);
  EXPECT_EQ(out, list_a);
  NeighborCacheStats stats = cache.Stats();
  EXPECT_EQ(stats.hits, 2);
  EXPECT_EQ(stats.misses, 1);
  EXPECT_EQ(stats.scheduled_fills, 1);

  // The same miss while that fill is pending schedules no second fill.
  out.clear();
  EXPECT_EQ(cache.GetMany(nodes, &out), 1);
  EXPECT_EQ(out, list_a);
  stats = cache.Stats();
  EXPECT_EQ(stats.misses, 2);
  EXPECT_EQ(stats.scheduled_fills, 1);
}

// --- OnlineServer ------------------------------------------------------------------

/// The embedding rows MakeServer exports, one per graph node.
std::vector<float> NodeEmbeddings(const data::RetrievalDataset& ds, int d) {
  Rng rng(55);
  std::vector<float> node_emb(ds.graph.num_nodes() * d);
  for (auto& x : node_emb) x = static_cast<float>(rng.Normal()) * 0.5f;
  return node_emb;
}

std::unique_ptr<OnlineServer> MakeServer(const data::RetrievalDataset& ds,
                                         OnlineServerOptions opt) {
  const int d = opt.embedding_dim;
  std::vector<float> node_emb = NodeEmbeddings(ds, d);
  std::vector<float> item_emb(ds.all_items.size() * d);
  for (size_t i = 0; i < ds.all_items.size(); ++i) {
    std::copy(node_emb.begin() + ds.all_items[i] * d,
              node_emb.begin() + (ds.all_items[i] + 1) * d,
              item_emb.begin() + static_cast<int64_t>(i) * d);
  }
  return std::make_unique<OnlineServer>(&ds.graph, opt, std::move(node_emb),
                                        ds.all_items, item_emb);
}

TEST(OnlineServerTest, HandleReturnsTopNItems) {
  const auto& ds = Dataset();
  OnlineServerOptions opt;
  opt.embedding_dim = 8;
  opt.top_n = 10;
  auto server = MakeServer(ds, opt);
  ServingResponse resp = server->Handle({ds.test[0].user, ds.test[0].query});
  ASSERT_EQ(resp.items.size(), 10u);
  EXPECT_GT(resp.latency_ms, 0.0);
  // All results are item node ids.
  for (const auto& r : resp.items) {
    EXPECT_EQ(ds.graph.node_type(r.id), graph::NodeType::kItem);
  }
  // Descending scores.
  for (size_t i = 1; i < resp.items.size(); ++i) {
    EXPECT_LE(resp.items[i].score, resp.items[i - 1].score);
  }
}

TEST(OnlineServerTest, CacheWarmupIncreasesHitRate) {
  const auto& ds = Dataset();
  OnlineServerOptions opt;
  opt.embedding_dim = 8;
  auto server = MakeServer(ds, opt);
  std::vector<graph::NodeId> warm_nodes;
  for (int i = 0; i < 20; ++i) {
    warm_nodes.push_back(ds.test[i].user);
    warm_nodes.push_back(ds.test[i].query);
  }
  server->WarmCache(warm_nodes);
  for (int i = 0; i < 20; ++i) {
    server->Handle({ds.test[i].user, ds.test[i].query});
  }
  EXPECT_GT(server->cache().hits(), 30);  // 2 lookups per request, warmed
}

/// The request embedding of `req` in plain loops: focal = user + query
/// rows; both egos' neighbors from the warmed `cache`; dot with the focal
/// vector (or 0 without attention), softmax, weighted sum, then
/// tanh(out + 0.5 * focal). Each dot rounds its products before summing
/// them in order, as Handle does, whatever the compiler would contract.
std::vector<float> ReferenceEmbedding(const ServingRequest& req,
                                      const std::vector<float>& node_emb,
                                      int d, bool attention,
                                      NeighborCache* cache) {
  std::vector<float> focal(d, 0.0f);
  for (graph::NodeId ego : {req.user, req.query}) {
    for (int j = 0; j < d; ++j) focal[j] += node_emb[ego * d + j];
  }
  std::vector<graph::NodeId> nbrs;
  for (graph::NodeId ego : {req.user, req.query}) {
    std::vector<graph::NodeId> list;
    EXPECT_TRUE(cache->Get(ego, &list));
    nbrs.insert(nbrs.end(), list.begin(), list.end());
  }
  if (nbrs.empty()) return focal;
  std::vector<float> scores;
  float max_score = -1e30f;
  std::vector<float> prod(d);
  for (graph::NodeId nb : nbrs) {
    for (int j = 0; j < d; ++j) prod[j] = node_emb[nb * d + j] * focal[j];
    float dot = 0.0f;
    for (int j = 0; j < d; ++j) dot += prod[j];
    scores.push_back(attention ? dot : 0.0f);
    max_score = std::max(max_score, scores.back());
  }
  float z = 0.0f;
  for (float& sc : scores) {
    sc = std::exp(sc - max_score);
    z += sc;
  }
  std::vector<float> out(d, 0.0f);
  for (size_t i = 0; i < nbrs.size(); ++i) {
    const float w = scores[i] / z;
    for (int j = 0; j < d; ++j) out[j] += w * node_emb[nbrs[i] * d + j];
  }
  for (int j = 0; j < d; ++j) out[j] = std::tanh(out[j] + 0.5f * focal[j]);
  return out;
}

void ExpectSameItems(const std::vector<AnnResult>& got,
                     const std::vector<AnnResult>& want, size_t request) {
  ASSERT_EQ(got.size(), want.size()) << "request " << request;
  for (size_t r = 0; r < want.size(); ++r) {
    EXPECT_EQ(got[r].id, want[r].id) << "request " << request << " rank " << r;
    EXPECT_EQ(got[r].score, want[r].score)
        << "request " << request << " rank " << r;
  }
}

// Handle's embedding, recomputed from public state in plain loops, retrieves
// exactly Handle's items (ids, order and scores), with attention on and
// off, through the warmed cache and through the cache bypass.
class HandleReferenceTest
    : public ::testing::TestWithParam<std::tuple<bool, bool>> {};

TEST_P(HandleReferenceTest, HandleMatchesPlainLoopEmbedding) {
  const auto [attention, use_cache] = GetParam();
  const auto& ds = Dataset();
  const size_t kRequests = 200;
  ASSERT_GE(ds.test.size(), kRequests);
  OnlineServerOptions opt;
  opt.embedding_dim = 12;  // not a multiple of a vector width
  opt.top_n = 20;
  opt.use_edge_attention = attention;
  opt.use_neighbor_cache = use_cache;
  auto server = MakeServer(ds, opt);
  const std::vector<float> node_emb = NodeEmbeddings(ds, opt.embedding_dim);
  NeighborCache reference_cache(&ds.graph, opt.cache);
  std::vector<graph::NodeId> egos;
  for (size_t i = 0; i < kRequests; ++i) {
    egos.push_back(ds.test[i].user);
    egos.push_back(ds.test[i].query);
  }
  reference_cache.WarmAll(egos);
  if (use_cache) server->WarmCache(egos);
  for (size_t i = 0; i < kRequests; ++i) {
    const ServingRequest req{ds.test[i].user, ds.test[i].query};
    const std::vector<float> ref = ReferenceEmbedding(
        req, node_emb, opt.embedding_dim, attention, &reference_cache);
    ExpectSameItems(server->Handle(req).items,
                    server->index().Search(ref.data(), opt.top_n), i);
  }
}

INSTANTIATE_TEST_SUITE_P(AttentionAndCache, HandleReferenceTest,
                         ::testing::Combine(::testing::Bool(),
                                            ::testing::Bool()));

// The cache-bypass ablation neither stores entries nor counts lookups or
// fills, and serves what the warmed cached path serves.
TEST(OnlineServerTest, CacheBypassLeavesCacheUntouched) {
  const auto& ds = Dataset();
  OnlineServerOptions opt;
  opt.embedding_dim = 8;
  opt.top_n = 10;
  auto cached = MakeServer(ds, opt);
  opt.use_neighbor_cache = false;
  auto bypass = MakeServer(ds, opt);
  std::vector<graph::NodeId> egos;
  for (int i = 0; i < 30; ++i) {
    egos.push_back(ds.test[i].user);
    egos.push_back(ds.test[i].query);
  }
  cached->WarmCache(egos);
  for (size_t i = 0; i < 30; ++i) {
    const ServingRequest req{ds.test[i].user, ds.test[i].query};
    ExpectSameItems(bypass->Handle(req).items, cached->Handle(req).items, i);
  }
  EXPECT_EQ(bypass->cache().size(), 0u);
  const NeighborCacheStats stats = bypass->cache().Stats();
  EXPECT_EQ(stats.hits, 0);
  EXPECT_EQ(stats.misses, 0);
  EXPECT_EQ(stats.scheduled_fills, 0);
  EXPECT_EQ(stats.completed_fills, 0);
}

TEST(OnlineServerTest, SessionTokenRoutesReadsThroughEngine) {
  const auto& ds = Dataset();
  obs::MetricsRegistry reg;
  OnlineServerOptions opt;
  opt.embedding_dim = 8;
  opt.top_n = 5;
  opt.registry = &reg;
  auto server = MakeServer(ds, opt);

  const int kShards = 2;
  streaming::GraphDeltaLog log(kShards);
  streaming::DynamicHeteroGraph primary(&ds.graph);
  engine::EngineOptions eopt;
  eopt.num_shards = kShards;
  eopt.replication_factor = 2;
  eopt.registry = &reg;
  engine::DistributedGraphEngine eng(&ds.graph, eopt);
  eng.ConnectUpdateFanout(&log, &primary);
  server->AttachEngine(&eng);

  streaming::IngestOptions iopt;
  iopt.num_shards = kShards;
  iopt.batch_size = 4;
  iopt.registry = &reg;
  streaming::IngestPipeline pipe(&log, &primary, iopt, &eng);
  pipe.AddUpdateListener(
      [&](uint64_t epoch, const std::vector<graph::NodeId>& nodes) {
        server->OnGraphUpdate(epoch, nodes);
      });
  pipe.Start();

  // The session writes two click edges, then reads with a token stamped
  // from the write's delta-log epoch: the ego neighbor reads must go
  // through the engine's freshness-aware router, not the (stale) cache.
  graph::SessionRecord session;
  session.user = ds.test[0].user;
  session.query = ds.test[0].query;
  session.clicks = {ds.all_items[0], ds.all_items[1]};
  ASSERT_TRUE(pipe.Offer(session));
  pipe.Flush();
  ASSERT_GT(server->last_update_epoch(), 0u);

  SessionToken token;
  token.Observe(server->last_update_epoch());
  EXPECT_EQ(token.last_write_epoch, server->last_update_epoch());
  const uint64_t stamped = token.last_write_epoch;
  token.Observe(stamped - 1);  // stale observes must not roll back
  EXPECT_EQ(token.last_write_epoch, stamped);

  ServingResponse resp = server->Handle({session.user, session.query}, token);
  EXPECT_EQ(resp.items.size(), 5u);

  auto snap = reg.Snapshot();
  const obs::MetricPoint* ryw = snap.Find("serving.read_your_writes_requests");
  ASSERT_NE(ryw, nullptr);
  EXPECT_EQ(ryw->value, 1.0);
  const obs::MetricPoint* samples = snap.Find("engine.sample_requests");
  ASSERT_NE(samples, nullptr);
  EXPECT_GE(samples->value, 1.0);  // ego reads actually hit the engine

  // A tokenless Handle uses the cache path and never touches the engine.
  const double engine_samples = samples->value;
  server->Handle({session.user, session.query});
  snap = reg.Snapshot();
  EXPECT_EQ(snap.Find("engine.sample_requests")->value, engine_samples);
  EXPECT_EQ(snap.Find("serving.read_your_writes_requests")->value, 1.0);
  pipe.Stop();
}

TEST(OnlineServerTest, LoadGeneratorMeasuresThroughput) {
  const auto& ds = Dataset();
  OnlineServerOptions opt;
  opt.embedding_dim = 8;
  auto server = MakeServer(ds, opt);
  std::vector<ServingRequest> pool;
  for (int i = 0; i < 50; ++i) pool.push_back({ds.test[i].user, ds.test[i].query});
  for (const auto& r : pool) server->WarmCache({r.user, r.query});
  // Offered load and throughput floors scale with the machine so the test
  // neither starves small CI runners nor under-exercises big ones (the old
  // hard-coded 500-QPS/200-floor pair was CPU-count sensitive and needed a
  // RUN_SERIAL workaround).
  const unsigned hw = std::max(2u, std::thread::hardware_concurrency());
  const double offered_qps = 125.0 * std::min(hw, 8u);  // 250..1000
  const double duration_s = 0.5;
  auto result = RunLoad(server.get(), pool, offered_qps, duration_s,
                        /*client_threads=*/2, /*seed=*/3);
  // Expect at least 40% of the offered load to complete within the window —
  // cache-warmed requests are microseconds of work, so anything lower means
  // the harness (not the server) is starved.
  EXPECT_GT(result.requests,
            static_cast<int64_t>(offered_qps * duration_s * 0.4));
  EXPECT_GT(result.achieved_qps, offered_qps * 0.4);
  EXPECT_GT(result.p99_ms, 0.0);
  EXPECT_GE(result.p99_ms, result.p50_ms);
}

}  // namespace
}  // namespace serving
}  // namespace zoomer
