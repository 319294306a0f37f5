// Tests for the tensor/autograd substrate. The core of this suite is a
// numeric gradient checker applied to every differentiable op, plus
// optimizer convergence tests and a small end-to-end learning test.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <functional>
#include <limits>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "tensor/nn.h"
#include "tensor/optimizer.h"
#include "tensor/tensor.h"

namespace zoomer {
namespace tensor {
namespace {

// Numeric gradient check: builds loss = sum(w ⊙ f(x)) for fixed pseudo-random
// w (to make the loss sensitive to every output entry), compares autograd
// gradients of x against central differences.
void GradCheck(const std::function<Tensor(const Tensor&)>& f, Tensor x,
               float h = 5e-3f, float tol = 2e-2f) {
  Rng rng(99);
  Tensor y0 = f(x);
  Tensor w = Tensor::Randn(y0.rows(), y0.cols(), &rng, 1.0f);
  auto loss_of = [&](const Tensor& in) {
    Tensor y = f(in);
    return SumAll(Mul(y, w));
  };
  Tensor loss = loss_of(x);
  x.ZeroGrad();
  // Re-run forward graph with grad to populate x.grad.
  Tensor loss2 = loss_of(x);
  loss2.Backward();
  for (int64_t i = 0; i < x.rows(); ++i) {
    for (int64_t j = 0; j < x.cols(); ++j) {
      const float orig = x.at(i, j);
      x.at(i, j) = orig + h;
      const float fp = loss_of(x).item();
      x.at(i, j) = orig - h;
      const float fm = loss_of(x).item();
      x.at(i, j) = orig;
      const float numeric = (fp - fm) / (2.0f * h);
      const float analytic = x.grad_at(i, j);
      const float denom = std::max({std::abs(numeric), std::abs(analytic), 1.0f});
      EXPECT_NEAR(analytic / denom, numeric / denom, tol)
          << "entry (" << i << "," << j << ") analytic=" << analytic
          << " numeric=" << numeric;
    }
  }
}

Tensor RandInput(int64_t r, int64_t c, uint64_t seed, float scale = 1.0f) {
  Rng rng(seed);
  return Tensor::Randn(r, c, &rng, scale, /*requires_grad=*/true);
}

TEST(TensorTest, FactoryShapes) {
  Tensor z = Tensor::Zeros(3, 4);
  EXPECT_EQ(z.rows(), 3);
  EXPECT_EQ(z.cols(), 4);
  EXPECT_EQ(z.size(), 12);
  for (int64_t i = 0; i < 3; ++i)
    for (int64_t j = 0; j < 4; ++j) EXPECT_EQ(z.at(i, j), 0.0f);
  Tensor f = Tensor::Full(2, 2, 3.5f);
  EXPECT_EQ(f.at(1, 1), 3.5f);
  Tensor s = Tensor::Scalar(2.0f);
  EXPECT_EQ(s.item(), 2.0f);
}

TEST(TensorTest, FromVectorRoundTrip) {
  Tensor t = Tensor::FromVector({1, 2, 3, 4, 5, 6}, 2, 3);
  EXPECT_EQ(t.at(0, 0), 1.0f);
  EXPECT_EQ(t.at(0, 2), 3.0f);
  EXPECT_EQ(t.at(1, 0), 4.0f);
}

TEST(TensorTest, DetachSharesNoHistory) {
  Tensor x = RandInput(2, 2, 1);
  Tensor d = x.Detach();
  EXPECT_FALSE(d.requires_grad());
  EXPECT_EQ(d.at(0, 0), x.at(0, 0));
  d.at(0, 0) += 1.0f;  // fresh storage
  EXPECT_NE(d.at(0, 0), x.at(0, 0));
}

TEST(TensorTest, MatMulForward) {
  Tensor a = Tensor::FromVector({1, 2, 3, 4}, 2, 2);
  Tensor b = Tensor::FromVector({5, 6, 7, 8}, 2, 2);
  Tensor c = MatMul(a, b);
  EXPECT_FLOAT_EQ(c.at(0, 0), 19.0f);
  EXPECT_FLOAT_EQ(c.at(0, 1), 22.0f);
  EXPECT_FLOAT_EQ(c.at(1, 0), 43.0f);
  EXPECT_FLOAT_EQ(c.at(1, 1), 50.0f);
}

TEST(TensorTest, AddBroadcastRow) {
  Tensor a = Tensor::FromVector({1, 2, 3, 4}, 2, 2);
  Tensor b = Tensor::FromVector({10, 20}, 1, 2);
  Tensor c = Add(a, b);
  EXPECT_FLOAT_EQ(c.at(0, 0), 11.0f);
  EXPECT_FLOAT_EQ(c.at(1, 1), 24.0f);
}

TEST(TensorTest, SoftmaxRowsSumToOne) {
  Tensor x = RandInput(5, 7, 3);
  Tensor y = SoftmaxRows(x);
  for (int64_t i = 0; i < 5; ++i) {
    float s = 0.0f;
    for (int64_t j = 0; j < 7; ++j) {
      EXPECT_GT(y.at(i, j), 0.0f);
      s += y.at(i, j);
    }
    EXPECT_NEAR(s, 1.0f, 1e-5f);
  }
}

TEST(TensorTest, SoftmaxNumericallyStableForLargeInputs) {
  Tensor x = Tensor::FromVector({1000.0f, 1001.0f, 999.0f}, 1, 3);
  Tensor y = SoftmaxRows(x);
  EXPECT_FALSE(std::isnan(y.at(0, 0)));
  EXPECT_GT(y.at(0, 1), y.at(0, 0));
}

TEST(TensorTest, NormalizeRowsUnitNorm) {
  Tensor x = RandInput(4, 6, 5);
  Tensor y = NormalizeRows(x);
  for (int64_t i = 0; i < 4; ++i) {
    float s = 0.0f;
    for (int64_t j = 0; j < 6; ++j) s += y.at(i, j) * y.at(i, j);
    EXPECT_NEAR(s, 1.0f, 1e-4f);
  }
}

TEST(TensorTest, RowsGather) {
  Tensor x = Tensor::FromVector({1, 2, 3, 4, 5, 6}, 3, 2);
  Tensor y = Rows(x, {2, 0, 2});
  EXPECT_EQ(y.rows(), 3);
  EXPECT_FLOAT_EQ(y.at(0, 0), 5.0f);
  EXPECT_FLOAT_EQ(y.at(1, 0), 1.0f);
  EXPECT_FLOAT_EQ(y.at(2, 1), 6.0f);
}

TEST(TensorTest, RowsGatherGradientScatterAdds) {
  Tensor x = Tensor::Zeros(3, 2, /*requires_grad=*/true);
  Tensor y = Rows(x, {1, 1});
  Tensor loss = SumAll(y);
  loss.Backward();
  // Row 1 gathered twice -> gradient 2 in both columns.
  EXPECT_FLOAT_EQ(x.grad_at(1, 0), 2.0f);
  EXPECT_FLOAT_EQ(x.grad_at(1, 1), 2.0f);
  EXPECT_FLOAT_EQ(x.grad_at(0, 0), 0.0f);
}

TEST(TensorTest, RowwiseCosineOfIdenticalRowsIsOne) {
  Tensor x = RandInput(3, 5, 7);
  Tensor c = RowwiseCosine(x, x);
  for (int64_t i = 0; i < 3; ++i) EXPECT_NEAR(c.at(i, 0), 1.0f, 1e-4f);
}

TEST(TensorTest, DiamondGraphAccumulatesBothPaths) {
  // loss = sum(x*x) + sum(x) uses x twice; d/dx = 2x + 1.
  Tensor x = Tensor::FromVector({2.0f, -3.0f}, 1, 2, /*requires_grad=*/true);
  Tensor loss = Add(SumAll(Mul(x, x)), SumAll(x));
  loss.Backward();
  EXPECT_NEAR(x.grad_at(0, 0), 5.0f, 1e-5f);
  EXPECT_NEAR(x.grad_at(0, 1), -5.0f, 1e-5f);
}

TEST(TensorTest, BackwardTwiceAccumulates) {
  Tensor x = Tensor::Scalar(3.0f, /*requires_grad=*/true);
  Tensor loss = Mul(x, x);
  loss.Backward();
  EXPECT_NEAR(x.grad_at(0, 0), 6.0f, 1e-5f);
  Tensor loss2 = Mul(x, x);
  loss2.Backward();
  EXPECT_NEAR(x.grad_at(0, 0), 12.0f, 1e-5f);  // accumulated
}

TEST(TensorTest, GradientSumsFollowReversePostorder) {
  // p receives 1e8, -1e8 and (via the shared node) 1; the shared node
  // receives -1e8, 1e8 and 1. Float addition keeps the 1 only when it comes
  // last, so the values below pin the propagation order: reverse postorder
  // of a DFS that visits each node's first parent before its second.
  Tensor p = Tensor::Scalar(1.0f, /*requires_grad=*/true);
  Tensor shared = Scale(p, 1.0f);
  Tensor big = Scale(p, 1e8f);
  Tensor one = Scale(shared, 1.0f);
  Tensor neg = Scale(p, -1e8f);
  Tensor s_big = Scale(shared, 1e8f);
  Tensor s_neg = Scale(shared, -1e8f);
  Tensor loss = Add(Add(Add(Add(one, big), s_big), neg), s_neg);
  loss.Backward();
  auto bits = [](float f) {
    uint32_t u;
    std::memcpy(&u, &f, sizeof(u));
    return u;
  };
  EXPECT_EQ(bits(p.grad_at(0, 0)), 0x3f800000u);       // 1.0f
  EXPECT_EQ(bits(shared.grad_at(0, 0)), 0x3f800000u);  // 1.0f
}

TEST(TensorTest, MillionOpChainBackpropagatesAndTearsDown) {
  // Dropping the last handle frees the whole chain without recursing once
  // per node, so a graph this deep fits the default thread stack.
  Tensor p = Tensor::Scalar(1.0f, /*requires_grad=*/true);
  {
    Tensor y = Tensor::Scalar(0.0f);
    for (int i = 0; i < 1000000; ++i) y = Add(y, p);
    y.Backward();
    EXPECT_EQ(p.grad_at(0, 0), 1e6f);
  }
  EXPECT_EQ(p.grad_at(0, 0), 1e6f);  // the leaf outlives its consumers
}

// --- Fused ops against the chains they replace -----------------------------
//
// Each fused op promises the same bits as the composed form it replaces,
// forward and backward. These tests build both forms over identical leaves
// (random shapes 1-40, about a quarter of the entries exactly zero so
// MatMul's zero skip is taken, parameters shared by several consumers so
// gradient sums have several terms) and compare every output and gradient
// bit.

std::vector<uint32_t> BitsOf(const float* p, int64_t n) {
  std::vector<uint32_t> bits(static_cast<size_t>(n));
  std::memcpy(bits.data(), p, static_cast<size_t>(n) * sizeof(float));
  return bits;
}

// rows x cols standard-normal values, about a quarter of them exactly zero.
// The others use the whole mantissa, so sums of a few of them round
// differently in different orders.
Tensor SparseRandom(int64_t rows, int64_t cols, Rng* rng,
                    bool requires_grad) {
  std::vector<float> v(static_cast<size_t>(rows * cols));
  for (float& x : v) {
    x = rng->UniformFloat() < 0.25f ? 0.0f : static_cast<float>(rng->Normal());
  }
  return Tensor::FromVector(v, rows, cols, requires_grad);
}

// The ConcatRows chain StackRows replaces.
Tensor ChainStackRows(const std::vector<Tensor>& rows) {
  Tensor out = rows[0];
  for (size_t i = 1; i < rows.size(); ++i) out = ConcatRows(out, rows[i]);
  return out;
}

using Graph = std::function<std::vector<Tensor>(
    const std::vector<Tensor>& leaves, bool fused)>;

// Builds `graph` twice over leaves made from the same seed, backpropagates
// sum_i sum(outputs[i] ⊙ weights_i) through each, and expects the outputs
// and every leaf gradient to agree bit for bit.
void ExpectFusedMatchesChain(
    uint64_t seed, const std::vector<std::pair<int64_t, int64_t>>& shapes,
    const Graph& graph) {
  std::vector<uint32_t> bits[2];
  std::vector<uint32_t> grads[2];
  for (int fused = 0; fused < 2; ++fused) {
    Rng rng(seed);
    std::vector<Tensor> leaves;
    for (const auto& [r, c] : shapes) {
      leaves.push_back(SparseRandom(r, c, &rng, /*requires_grad=*/true));
    }
    Tensor loss;
    for (const Tensor& out : graph(leaves, fused == 1)) {
      std::vector<uint32_t> b = BitsOf(out.data(), out.size());
      bits[fused].insert(bits[fused].end(), b.begin(), b.end());
      Tensor term =
          SumAll(Mul(out, SparseRandom(out.rows(), out.cols(), &rng, false)));
      loss = loss.defined() ? Add(loss, term) : term;
    }
    loss.Backward();
    for (Tensor& leaf : leaves) {
      std::vector<uint32_t> g = BitsOf(leaf.grad_data(), leaf.size());
      grads[fused].insert(grads[fused].end(), g.begin(), g.end());
    }
  }
  EXPECT_EQ(bits[0], bits[1]) << "forward values differ (seed " << seed << ")";
  EXPECT_EQ(grads[0], grads[1]) << "gradients differ (seed " << seed << ")";
}

constexpr int kDiffTrials = 25;

// A dimension in [1, 40].
int64_t Dim(Rng* rng) { return 1 + static_cast<int64_t>(rng->Uniform(40)); }

TEST(FusedOpTest, StackRowsMatchesConcatRowsChain) {
  Rng rng(101);
  for (int trial = 0; trial < kDiffTrials; ++trial) {
    const int64_t k = Dim(&rng), d = Dim(&rng), din = Dim(&rng);
    std::vector<int64_t> heights(k);
    for (auto& h : heights) h = 1 + static_cast<int64_t>(rng.Uniform(3));
    // Leaves: a shared weight (din x d), a leaf row reused as the first,
    // second and last row, then one input per row.
    std::vector<std::pair<int64_t, int64_t>> shapes = {{din, d}, {1, d}};
    for (int64_t h : heights) shapes.push_back({h, din});
    ExpectFusedMatchesChain(1000 + trial, shapes,
                            [&](const std::vector<Tensor>& in, bool fused) {
      const Tensor& w = in[0];
      std::vector<Tensor> rows;
      for (int64_t i = 0; i < k; ++i) {
        rows.push_back(i == 0 ? in[1] : Tanh(MatMul(in[2 + i], w)));
      }
      if (k > 1) rows.back() = in[1];
      if (k > 2) rows[1] = in[1];
      Tensor stacked = fused ? StackRows(rows) : ChainStackRows(rows);
      return std::vector<Tensor>{stacked, MatMul(in[2], w)};
    });
  }
}

TEST(FusedOpTest, GatherRowsMatchesStackedRowGathers) {
  Rng rng(102);
  for (int trial = 0; trial < kDiffTrials; ++trial) {
    const int64_t n = Dim(&rng), d = Dim(&rng);
    const int num_tables = 1 + static_cast<int>(rng.Uniform(4));
    std::vector<std::pair<int64_t, int64_t>> shapes;
    for (int t = 0; t < num_tables; ++t) shapes.push_back({Dim(&rng), d});
    // Slots pick tables and rows at random, so both repeat.
    std::vector<int> table_of(n);
    std::vector<int64_t> ids(n);
    for (int64_t i = 0; i < n; ++i) {
      table_of[i] = static_cast<int>(rng.Uniform(num_tables));
      ids[i] = static_cast<int64_t>(rng.Uniform(shapes[table_of[i]].first));
    }
    ExpectFusedMatchesChain(2000 + trial, shapes,
                            [&](const std::vector<Tensor>& in, bool fused) {
      Tensor gathered;
      if (fused) {
        gathered = GatherRows(in, table_of, ids);
      } else {
        std::vector<Tensor> rows;
        for (int64_t i = 0; i < n; ++i) {
          rows.push_back(Rows(in[table_of[i]], {ids[i]}));
        }
        gathered = ChainStackRows(rows);
      }
      return std::vector<Tensor>{gathered, Tanh(in[0])};
    });
  }
}

TEST(FusedOpTest, SoftmaxColumnMatchesTransposedSoftmaxRows) {
  Rng rng(103);
  for (int trial = 0; trial < kDiffTrials; ++trial) {
    const int64_t k = Dim(&rng), d = Dim(&rng);
    ExpectFusedMatchesChain(3000 + trial, {{k, d}, {d, 1}},
                            [&](const std::vector<Tensor>& in, bool fused) {
      const Tensor& a = in[1];  // shared by the scores and the second output
      Tensor col = MatMul(in[0], a);
      Tensor soft = fused ? SoftmaxColumn(col)
                          : Transpose(SoftmaxRows(Transpose(col)));
      // The last output propagates first, so col's gradient is already
      // nonzero when the softmax adds to it.
      return std::vector<Tensor>{soft, Mul(a, Tanh(a)), Tanh(col)};
    });
  }
}

TEST(FusedOpTest, ScaledRowDotsMatchesScaledMatMulByTranspose) {
  Rng rng(104);
  for (int trial = 0; trial < kDiffTrials; ++trial) {
    const int64_t n = Dim(&rng), d = Dim(&rng);
    const float scale = 1.0f / std::sqrt(static_cast<float>(d));
    // Two row blocks scored against one query, which is also tiled into a
    // third output, and the query scored against itself.
    ExpectFusedMatchesChain(4000 + trial, {{n, d}, {1, d}},
                            [&](const std::vector<Tensor>& in, bool fused) {
      const Tensor& h = in[0];
      const Tensor& q = in[1];
      auto score = [&](const Tensor& a, const Tensor& b) {
        return fused ? ScaledRowDots(a, b, scale)
                     : Scale(MatMul(a, Transpose(b)), scale);
      };
      return std::vector<Tensor>{score(h, q), score(Tanh(h), q),
                                 Mul(h, TileRows(q, n)), score(q, q)};
    });
  }
}

TEST(FusedOpTest, ColSumMatchesMatMulByOnes) {
  Rng rng(105);
  for (int trial = 0; trial < kDiffTrials; ++trial) {
    const int64_t n = Dim(&rng), d = Dim(&rng);
    ExpectFusedMatchesChain(5000 + trial, {{n, d}, {n, 1}},
                            [&](const std::vector<Tensor>& in, bool fused) {
      Tensor weighted = Mul(in[0], in[1]);
      Tensor sum = fused ? ColSum(weighted)
                         : MatMul(Tensor::Full(1, n, 1.0f), weighted);
      return std::vector<Tensor>{sum, Tanh(in[1])};
    });
  }
}

TEST(FusedOpTest, WeightedSumRowsMatchesMatMulByTransposedWeights) {
  Rng rng(106);
  for (int trial = 0; trial < kDiffTrials; ++trial) {
    const int64_t k = Dim(&rng), d = Dim(&rng);
    // Attention-style: the weights are computed from the values (Relu makes
    // some of them exactly zero), and the values feed a second output.
    ExpectFusedMatchesChain(6000 + trial, {{k, d}, {d, 1}},
                            [&](const std::vector<Tensor>& in, bool fused) {
      const Tensor& z = in[0];
      Tensor w = Relu(MatMul(z, in[1]));
      Tensor pooled = fused ? WeightedSumRows(w, z) : MatMul(Transpose(w), z);
      return std::vector<Tensor>{pooled, Tanh(z), w};
    });
  }
}

TEST(FusedOpTest, AffineMatchesMatMulPlusBias) {
  Rng rng(108);
  for (int trial = 0; trial < kDiffTrials; ++trial) {
    const int64_t n = Dim(&rng), k = Dim(&rng), m = Dim(&rng);
    // One weight and bias applied to two inputs, the second derived from
    // the first layer's output when the shapes allow.
    ExpectFusedMatchesChain(7000 + trial, {{n, k}, {k, m}, {1, m}, {1, k}},
                            [&](const std::vector<Tensor>& in, bool fused) {
      const Tensor& w = in[1];
      const Tensor& b = in[2];
      auto affine = [&](const Tensor& x) {
        return fused ? Affine(x, w, b) : Add(MatMul(x, w), b);
      };
      Tensor y = affine(in[0]);
      Tensor y2 = affine(k == m ? Tanh(y) : in[3]);
      return std::vector<Tensor>{y, y2, Mul(b, b)};
    });
  }
}

TEST(FusedOpTest, ConcatMatVecMatchesMatMulOfTiledConcat) {
  Rng rng(109);
  for (int trial = 0; trial < kDiffTrials; ++trial) {
    const int64_t k = Dim(&rng);
    const int num_parts = 1 + static_cast<int>(rng.Uniform(4));
    std::vector<std::pair<int64_t, int64_t>> shapes;
    int64_t width = 0;
    const int full_part = static_cast<int>(rng.Uniform(num_parts));
    for (int q = 0; q < num_parts; ++q) {
      // A one-row part is repeated on all k rows; one part sets k.
      const int64_t rows = q == full_part || rng.Uniform(2) == 0 ? k : 1;
      shapes.push_back({rows, Dim(&rng)});
      width += shapes.back().second;
    }
    shapes.push_back({width, 1});
    // Edge-attention style: the scores of every part are also used
    // elsewhere, and v is shared with a second output.
    ExpectFusedMatchesChain(8000 + trial, shapes,
                            [&](const std::vector<Tensor>& in, bool fused) {
      const std::vector<Tensor> parts(in.begin(), in.end() - 1);
      const Tensor& v = in.back();
      Tensor scores;
      if (fused) {
        scores = ConcatMatVec(parts, v);
      } else {
        Tensor cat;
        for (const Tensor& p : parts) {
          Tensor full = p.rows() == k ? p : TileRows(p, k);
          cat = cat.defined() ? ConcatCols(cat, full) : full;
        }
        scores = MatMul(cat, v);
      }
      std::vector<Tensor> outs = {LeakyRelu(scores, 0.2f), Tanh(v)};
      for (const Tensor& p : parts) outs.push_back(Tanh(p));
      return outs;
    });
  }
}

// --- Segmented ops against their per-segment chains ------------------------

// Offsets of `segments` segments of 0 to 4 rows each: empty and one-row
// segments included, and at least one row in all.
std::vector<int64_t> RandomOffsets(int64_t segments, Rng* rng) {
  std::vector<int64_t> offsets = {0};
  for (int64_t s = 0; s < segments; ++s) {
    offsets.push_back(offsets.back() + static_cast<int64_t>(rng->Uniform(5)));
  }
  if (offsets.back() == 0) offsets.back() = 1;
  return offsets;
}

std::vector<int64_t> RowRange(int64_t begin, int64_t end) {
  std::vector<int64_t> idx;
  for (int64_t i = begin; i < end; ++i) idx.push_back(i);
  return idx;
}

// The per-segment chain of a segmented op with one output row per segment:
// row s is `segment(s, rows of s)`, or zeros for an empty segment.
Tensor PerSegmentRows(
    const std::vector<int64_t>& offsets, int64_t cols,
    const std::function<Tensor(int64_t, const std::vector<int64_t>&)>&
        segment) {
  std::vector<Tensor> rows;
  for (size_t s = 0; s + 1 < offsets.size(); ++s) {
    rows.push_back(offsets[s] == offsets[s + 1]
                       ? Tensor::Zeros(1, cols)
                       : segment(static_cast<int64_t>(s),
                                 RowRange(offsets[s], offsets[s + 1])));
  }
  return StackRows(rows);
}

// The per-segment chain of a segmented op with one output entry per row.
Tensor PerSegmentEntries(
    const std::vector<int64_t>& offsets,
    const std::function<Tensor(int64_t, const std::vector<int64_t>&)>&
        segment) {
  std::vector<Tensor> parts;
  for (size_t s = 0; s + 1 < offsets.size(); ++s) {
    if (offsets[s] == offsets[s + 1]) continue;
    parts.push_back(segment(static_cast<int64_t>(s),
                            RowRange(offsets[s], offsets[s + 1])));
  }
  return StackRows(parts);
}

TEST(SegmentedOpTest, FocalPoolMatchesPerSegmentChain) {
  Rng rng(111);
  for (int trial = 0; trial < kDiffTrials; ++trial) {
    const int64_t d = Dim(&rng);
    const auto offsets = RandomOffsets(1 + rng.Uniform(8), &rng);
    const float scale = 1.0f / std::sqrt(static_cast<float>(d));
    // One query shared by every segment, also used by a later output.
    ExpectFusedMatchesChain(9000 + trial, {{offsets.back(), d}, {1, d}},
                            [&](const std::vector<Tensor>& in, bool fused) {
      const Tensor& h = in[0];
      const Tensor& q = in[1];
      Tensor pooled =
          fused ? SegmentFocalPool(h, q, offsets, scale)
                : PerSegmentRows(offsets, d, [&](int64_t,
                                                 const std::vector<int64_t>& idx) {
                    Tensor hs = Rows(h, idx);
                    return ColSum(
                        Mul(hs, SoftmaxColumn(ScaledRowDots(hs, q, scale))));
                  });
      return std::vector<Tensor>{pooled, Tanh(h), Mul(q, q)};
    });
  }
}

TEST(SegmentedOpTest, MeanMatchesPerSegmentMeanRows) {
  Rng rng(112);
  for (int trial = 0; trial < kDiffTrials; ++trial) {
    const int64_t m = Dim(&rng);
    const auto offsets = RandomOffsets(1 + rng.Uniform(8), &rng);
    ExpectFusedMatchesChain(9100 + trial, {{offsets.back(), m}},
                            [&](const std::vector<Tensor>& in, bool fused) {
      const Tensor& a = in[0];
      Tensor mean = fused ? SegmentMean(a, offsets)
                          : PerSegmentRows(offsets, m,
                                           [&](int64_t, const auto& idx) {
                                             return MeanRows(Rows(a, idx));
                                           });
      return std::vector<Tensor>{mean, Tanh(a)};
    });
  }
}

TEST(SegmentedOpTest, SumMatchesPerSegmentAddChain) {
  Rng rng(113);
  for (int trial = 0; trial < kDiffTrials; ++trial) {
    const int64_t m = Dim(&rng);
    const auto offsets = RandomOffsets(1 + rng.Uniform(8), &rng);
    ExpectFusedMatchesChain(9200 + trial, {{offsets.back(), m}},
                            [&](const std::vector<Tensor>& in, bool fused) {
      const Tensor& a = in[0];
      Tensor sum =
          fused ? SegmentSum(a, offsets)
                : PerSegmentRows(offsets, m, [&](int64_t, const auto& idx) {
                    Tensor acc = Rows(a, {idx[0]});
                    for (size_t i = 1; i < idx.size(); ++i) {
                      acc = Add(acc, Rows(a, {idx[i]}));
                    }
                    return acc;
                  });
      return std::vector<Tensor>{sum, Tanh(a)};
    });
  }
}

TEST(SegmentedOpTest, SoftmaxMatchesPerSegmentSoftmaxColumn) {
  Rng rng(114);
  for (int trial = 0; trial < kDiffTrials; ++trial) {
    const int64_t d = Dim(&rng);
    const auto offsets = RandomOffsets(1 + rng.Uniform(8), &rng);
    // The scores are an interior node that a later output also reads.
    ExpectFusedMatchesChain(9300 + trial, {{offsets.back(), d}, {d, 1}},
                            [&](const std::vector<Tensor>& in, bool fused) {
      Tensor col = MatMul(in[0], in[1]);
      Tensor soft = fused ? SegmentSoftmax(col, offsets)
                          : PerSegmentEntries(offsets, [&](int64_t,
                                                           const auto& idx) {
                              return SoftmaxColumn(Rows(col, idx));
                            });
      return std::vector<Tensor>{soft, Tanh(col)};
    });
  }
}

TEST(SegmentedOpTest, WeightedSumMatchesPerSegmentWeightedSumRows) {
  Rng rng(115);
  for (int trial = 0; trial < kDiffTrials; ++trial) {
    const int64_t m = Dim(&rng);
    const auto offsets = RandomOffsets(1 + rng.Uniform(8), &rng);
    // Attention-style: the weights come from the values (Relu makes some of
    // them exactly zero), and both feed later outputs.
    ExpectFusedMatchesChain(9400 + trial, {{offsets.back(), m}, {m, 1}},
                            [&](const std::vector<Tensor>& in, bool fused) {
      const Tensor& z = in[0];
      Tensor w = Relu(MatMul(z, in[1]));
      Tensor pooled =
          fused ? SegmentWeightedSum(w, z, offsets)
                : PerSegmentRows(offsets, m, [&](int64_t, const auto& idx) {
                    return WeightedSumRows(Rows(w, idx), Rows(z, idx));
                  });
      return std::vector<Tensor>{pooled, Tanh(z), w};
    });
  }
}

TEST(SegmentedOpTest, ConcatMatVecMatchesPerSegmentConcatMatVec) {
  Rng rng(116);
  for (int trial = 0; trial < kDiffTrials; ++trial) {
    const int64_t d0 = Dim(&rng), d1 = Dim(&rng), d2 = Dim(&rng);
    const auto offsets = RandomOffsets(1 + rng.Uniform(8), &rng);
    const int64_t segments = static_cast<int64_t>(offsets.size()) - 1;
    // Edge-attention style: a row per segment (the parent), a row per entry
    // (the child), a shared row (the focal vector) and a shared v, each
    // also read by a later output.
    ExpectFusedMatchesChain(
        9500 + trial,
        {{segments, d0}, {offsets.back(), d1}, {1, d2}, {d0 + d1 + d2, 1}},
        [&](const std::vector<Tensor>& in, bool fused) {
          const Tensor& v = in[3];
          Tensor scores =
              fused ? SegmentConcatMatVec(in[0], in[1], in[2], v, offsets)
                    : PerSegmentEntries(offsets, [&](int64_t s,
                                                     const auto& idx) {
                        const Tensor parts[] = {Rows(in[0], {s}),
                                                Rows(in[1], idx), in[2]};
                        return ConcatMatVec(parts, v);
                      });
          return std::vector<Tensor>{LeakyRelu(scores, 0.2f), Tanh(v),
                                     Tanh(in[0]), Tanh(in[1]), Tanh(in[2])};
        });
  }
}

TEST(SegmentedOpTest, EmptySegmentsGiveZeroRows) {
  Tensor a = Tensor::FromVector({1, 2, 3, 4, 5, 6}, 3, 2, true);
  const std::vector<int64_t> offsets = {0, 0, 2, 2, 3};
  for (const Tensor& out :
       {SegmentMean(a, offsets), SegmentSum(a, offsets),
        SegmentFocalPool(a, Tensor::FromVector({1, -1}, 1, 2), offsets, 1.0f),
        SegmentWeightedSum(Tensor::Full(3, 1, 0.5f), a, offsets)}) {
    ASSERT_EQ(out.rows(), 4);
    for (int64_t s : {0, 2}) {
      EXPECT_EQ(out.at(s, 0), 0.0f);
      EXPECT_EQ(out.at(s, 1), 0.0f);
    }
    EXPECT_NE(out.at(1, 0), 0.0f);
    EXPECT_NE(out.at(3, 0), 0.0f);
  }
}

// --- dA = G · Bᵀ: every product rounded, summed in order ------------------
//
// MatMul, Affine, WeightedSumRows (the weights) and SegmentWeightedSum (the
// weights) share one dA routine whose bits are fixed by the source, not by
// how the compiler vectorizes it: entry (i, p) is g[i,·] · b[p,·] summed
// from zero over j in order, each product rounded to float before it is
// added. Each test backpropagates sum(out ⊙ G), so out's gradient is G, and
// compares the input's gradient with that sum computed here.

// Σ_j g[j]·b[j] from zero in j order, each product rounded to float before
// it is added: a volatile product cannot be contracted into the add.
float RoundedProductSum(const float* g, const float* b, int64_t m) {
  float s = 0.0f;
  for (int64_t j = 0; j < m; ++j) {
    const volatile float product = g[j] * b[j];
    s += product;
  }
  return s;
}

// ga (n x k) of G (n x m) · Bᵀ for b (k x m), as bits.
std::vector<uint32_t> ReferenceDa(const Tensor& g, const Tensor& b) {
  std::vector<float> ga;
  for (int64_t i = 0; i < g.rows(); ++i) {
    for (int64_t p = 0; p < b.rows(); ++p) {
      ga.push_back(RoundedProductSum(g.data() + i * g.cols(),
                                     b.data() + p * b.cols(), g.cols()));
    }
  }
  return BitsOf(ga.data(), static_cast<int64_t>(ga.size()));
}

// Backpropagates sum(out ⊙ g) and returns x's gradient as bits.
std::vector<uint32_t> GradBits(const Tensor& out, const Tensor& g, Tensor x) {
  SumAll(Mul(out, g)).Backward();
  return BitsOf(x.grad_data(), x.size());
}

// Shapes with every m in 1..40 (so every vector remainder), n and k in
// 1..40 with n = 1 and k = 1 each in a quarter of the trials, and about a
// quarter of every input's entries exactly zero.
struct DaShape {
  int64_t n, k, m;
};
std::vector<DaShape> DaShapes() {
  Rng rng(117);
  std::vector<DaShape> shapes;
  for (int64_t m = 1; m <= 40; ++m) {
    const int64_t n = m % 4 == 1 ? 1 : Dim(&rng);
    const int64_t k = m % 4 == 2 ? 1 : Dim(&rng);
    shapes.push_back({n, k, m});
  }
  return shapes;
}

TEST(ProductGradTest, MatMulAndAffineRoundEveryProductOfDa) {
  Rng rng(118);
  for (const auto& [n, k, m] : DaShapes()) {
    SCOPED_TRACE(testing::Message() << n << "x" << k << " . " << k << "x" << m);
    Tensor a = SparseRandom(n, k, &rng, true);
    Tensor b = SparseRandom(k, m, &rng, true);
    Tensor bias = SparseRandom(1, m, &rng, true);
    Tensor g = SparseRandom(n, m, &rng, false);
    const std::vector<uint32_t> want = ReferenceDa(g, b);
    EXPECT_EQ(GradBits(MatMul(a, b), g, a), want);
    a.ZeroGrad();
    EXPECT_EQ(GradBits(Affine(a, b, bias), g, a), want);
  }
}

TEST(ProductGradTest, WeightedSumsRoundEveryProductOfTheWeightGradient) {
  Rng rng(119);
  for (const auto& [n, k, m] : DaShapes()) {
    SCOPED_TRACE(testing::Message() << k << " rows of " << m);
    Tensor w = SparseRandom(k, 1, &rng, true);
    Tensor z = SparseRandom(k, m, &rng, true);
    Tensor g = SparseRandom(1, m, &rng, false);
    EXPECT_EQ(GradBits(WeightedSumRows(w, z), g, w), ReferenceDa(g, z));

    // Segments of 0-4 rows: each segment's weights take dA of its own
    // gradient row and rows of z.
    const std::vector<int64_t> offsets = RandomOffsets(n, &rng);
    const int64_t rows = offsets.back();
    Tensor sw = SparseRandom(rows, 1, &rng, true);
    Tensor sz = SparseRandom(rows, m, &rng, true);
    Tensor sg = SparseRandom(n, m, &rng, false);
    std::vector<uint32_t> want;
    for (int64_t s = 0; s < n; ++s) {
      for (int64_t p = offsets[s]; p < offsets[s + 1]; ++p) {
        const float v = RoundedProductSum(sg.data() + s * m,
                                          sz.data() + p * m, m);
        want.push_back(BitsOf(&v, 1)[0]);
      }
    }
    EXPECT_EQ(GradBits(SegmentWeightedSum(sw, sz, offsets), sg, sw), want);
  }
}

// --- Tanh: the library's own kernel ----------------------------------------

std::vector<float> TanhOf(const std::vector<float>& xs) {
  Tensor out =
      Tanh(Tensor::FromVector(xs, 1, static_cast<int64_t>(xs.size())));
  return std::vector<float>(out.data(), out.data() + out.size());
}

// A strided sweep of [-10, 10], every float in [0.6, 0.65], and tiny values
// down to the smallest subnormal.
std::vector<float> TanhSweep() {
  std::vector<float> xs;
  for (int i = -100000; i <= 100000; ++i) xs.push_back(i * 1e-4f);
  for (float x = 0.6f; x <= 0.65f; x = std::nextafter(x, 1.0f)) {
    xs.push_back(x);
  }
  for (int e = -149; e < 0; ++e) {
    for (float f : {1.0f, 1.3f, 1.7f}) xs.push_back(std::ldexp(f, e));
  }
  return xs;
}

// |got − want| in units of the float spacing at want (nonzero want).
double UlpError(float got, double want) {
  const int e = std::max(std::ilogb(want) - 23, -149);
  return std::abs(static_cast<double>(got) - want) / std::ldexp(1.0, e);
}

TEST(TanhTest, CorrectlyRoundedAgainstDoubleTanh) {
  const std::vector<float> xs = TanhSweep();
  const std::vector<float> ys = TanhOf(xs);
  double worst = 0.0;
  float worst_x = 0.0f;
  for (size_t i = 0; i < xs.size(); ++i) {
    const double want = std::tanh(static_cast<double>(xs[i]));
    if (want == 0.0) {
      EXPECT_EQ(ys[i], 0.0f);
      continue;
    }
    const double err = UlpError(ys[i], want);
    if (err > worst) {
      worst = err;
      worst_x = xs[i];
    }
  }
  // The library promises 2 ulp; this kernel rounds a double evaluation,
  // so it is off by no more than the rounding itself.
  EXPECT_LE(worst, 2.0) << "at x = " << worst_x;
  EXPECT_LE(worst, 0.5 + 1e-6) << "at x = " << worst_x;
}

TEST(TanhTest, OddBoundedMonotoneAndSpecialValues) {
  std::vector<float> xs = TanhSweep();
  for (float& x : xs) x = std::abs(x);
  std::sort(xs.begin(), xs.end());
  std::vector<float> negated(xs.size());
  for (size_t i = 0; i < xs.size(); ++i) negated[i] = -xs[i];
  const std::vector<float> ys = TanhOf(xs);
  const std::vector<float> neg = TanhOf(negated);
  for (size_t i = 0; i < xs.size(); ++i) {
    ASSERT_EQ(BitsOf(&neg[i], 1)[0], BitsOf(&ys[i], 1)[0] ^ 0x80000000u)
        << "tanh(-x) != -tanh(x) at x = " << xs[i];
    ASSERT_LE(std::abs(ys[i]), 1.0f) << xs[i];
    if (i > 0) ASSERT_GE(ys[i], ys[i - 1]) << "decreases at x = " << xs[i];
  }
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float max = std::numeric_limits<float>::max();
  const std::vector<float> special = TanhOf({0.0f, -0.0f, inf, -inf, nan,
                                             max, -max, 1e-45f, -1e-45f});
  EXPECT_EQ(BitsOf(&special[0], 1)[0], 0x00000000u);  // +0
  EXPECT_EQ(BitsOf(&special[1], 1)[0], 0x80000000u);  // -0
  EXPECT_EQ(special[2], 1.0f);
  EXPECT_EQ(special[3], -1.0f);
  EXPECT_TRUE(std::isnan(special[4]));
  EXPECT_EQ(special[5], 1.0f);
  EXPECT_EQ(special[6], -1.0f);
  EXPECT_EQ(special[7], 1e-45f);
  EXPECT_EQ(special[8], -1e-45f);
}

TEST(TanhTest, GoldenBitsOnEveryIsa) {
  // tanh of each input correctly rounded to float, computed in double
  // precision apart from this library. The native and the portable build
  // both run this test, so a float gives these bits on either ISA.
  const std::pair<float, uint32_t> golden[] = {
      {1e-30f, 0x0da24260u},      {1e-8f, 0x322bcc77u},
      {0.001f, 0x3a83126cu},      {0.0078125f, 0x3bfffeabu},
      {0.015f, 0x3c75bdd7u},      {0.015625f, 0x3c7ffaabu},
      {0.0156250019f, 0x3c7ffaadu}, {0.02f, 0x3ca3d173u},
      {0.05f, 0x3d4ca127u},       {0.0615695305f, 0x3d7bdee1u},
      {0.1f, 0x3dcc1ebcu},        {0.25f, 0x3e7acbf5u},
      {0.333333343f, 0x3ea49d52u}, {0.5f, 0x3eec9a9fu},
      {0.6f, 0x3f097c15u},        {0.625f, 0x3f0dfa3fu},
      {0.7f, 0x3f1ab7d9u},        {0.9f, 0x3f375f4cu},
      {1.0f, 0x3f42f7d6u},        {1.25f, 0x3f59291eu},
      {1.5f, 0x3f67b7ccu},        {2.0f, 0x3f76ca83u},
      {2.5f, 0x3f7c92c1u},        {3.0f, 0x3f7ebbe9u},
      {4.0f, 0x3f7fd40cu},        {5.5f, 0x3f7ffdd0u},
      {7.0f, 0x3f7fffe4u},        {8.0f, 0x3f7ffffcu},
      {8.75f, 0x3f7fffffu},       {9.0f, 0x3f7fffffu},
      {9.02f, 0x3f800000u},       {12.0f, 0x3f800000u},
  };
  std::vector<float> xs;
  for (const auto& [x, bits] : golden) xs.push_back(x);
  const std::vector<float> ys = TanhOf(xs);
  for (size_t i = 0; i < xs.size(); ++i) {
    EXPECT_EQ(BitsOf(&ys[i], 1)[0], golden[i].second) << "x = " << xs[i];
  }
}

TEST(FusedOpTest, StackRowsAllocatesOnlyItsOutput) {
  // One node holds the k x d result; the chain it replaces copied the
  // growing prefix once per row (O(k^2 d) floats).
  Rng rng(107);
  for (int64_t k : {2, 10, 40}) {
    const int64_t d = 16;
    std::vector<Tensor> rows;
    for (int64_t i = 0; i < k; ++i) {
      rows.push_back(Tensor::Randn(1, d, &rng, 1.0f, /*requires_grad=*/true));
    }
    AllocationTracker::Reset();
    Tensor stacked = StackRows(rows);
    EXPECT_EQ(AllocationTracker::allocated_floats(), k * d);
    EXPECT_EQ(stacked.rows(), k);
  }
}

TEST(FusedOpTest, StackRowsOverManyParentsBackpropagatesAndFrees) {
  // 100,000 parents: all but two live in the node's block, and the walk,
  // the backward and the teardown visit every one.
  constexpr int kRows = 100000;
  Tensor p = Tensor::FromVector({1.0f, -2.0f}, 1, 2, /*requires_grad=*/true);
  {
    std::vector<Tensor> rows;
    rows.reserve(kRows);
    for (int i = 0; i < kRows; ++i) rows.push_back(Scale(p, 1.0f));
    Tensor stacked = StackRows(rows);
    rows.clear();  // the stack now owns the only references to its rows
    EXPECT_EQ(stacked.rows(), kRows);
    EXPECT_EQ(stacked.impl()->num_parents, static_cast<uint32_t>(kRows));
    SumAll(stacked).Backward();
  }
  EXPECT_EQ(p.grad_at(0, 0), static_cast<float>(kRows));
  EXPECT_EQ(p.grad_at(0, 1), static_cast<float>(kRows));
}

// --- Parameterized gradient checks over all differentiable ops -------------

struct OpCase {
  std::string name;
  std::function<Tensor(const Tensor&)> fn;
  int64_t rows = 3;
  int64_t cols = 4;
  float scale = 1.0f;
};

class GradCheckTest : public ::testing::TestWithParam<OpCase> {};

TEST_P(GradCheckTest, MatchesNumericGradient) {
  const auto& c = GetParam();
  GradCheck(c.fn, RandInput(c.rows, c.cols, 17, c.scale));
}

Tensor FixedMat(int64_t r, int64_t c, uint64_t seed) {
  Rng rng(seed);
  return Tensor::Randn(r, c, &rng, 1.0f);
}

INSTANTIATE_TEST_SUITE_P(
    AllOps, GradCheckTest,
    ::testing::Values(
        OpCase{"MatMulLhs", [](const Tensor& x) { return MatMul(x, FixedMat(4, 5, 2)); }},
        OpCase{"MatMulRhs", [](const Tensor& x) { return MatMul(FixedMat(5, 3, 3), x); }},
        OpCase{"AddSame", [](const Tensor& x) { return Add(x, FixedMat(3, 4, 4)); }},
        OpCase{"AddRowBroadcastGradToRow",
               [](const Tensor& x) {
                 return Add(FixedMat(5, 4, 5), MatMul(Tensor::Full(1, 3, 1.0f), x));
               },
               3, 4},
        OpCase{"Sub", [](const Tensor& x) { return Sub(x, FixedMat(3, 4, 6)); }},
        OpCase{"MulSame", [](const Tensor& x) { return Mul(x, FixedMat(3, 4, 7)); }},
        OpCase{"MulColBroadcast",
               [](const Tensor& x) { return Mul(FixedMat(3, 4, 8), SumRowsTo1(x)); }},
        OpCase{"Scale", [](const Tensor& x) { return Scale(x, -2.5f); }},
        OpCase{"AddScalar", [](const Tensor& x) { return AddScalar(x, 1.5f); }},
        OpCase{"Sigmoid", [](const Tensor& x) { return Sigmoid(x); }},
        OpCase{"Tanh", [](const Tensor& x) { return Tanh(x); }},
        OpCase{"LeakyRelu", [](const Tensor& x) { return LeakyRelu(x, 0.2f); }},
        OpCase{"Exp", [](const Tensor& x) { return Exp(x); }},
        OpCase{"LogShifted", [](const Tensor& x) { return Log(Exp(x)); }},
        OpCase{"SoftmaxRows", [](const Tensor& x) { return SoftmaxRows(x); }},
        OpCase{"Transpose", [](const Tensor& x) { return Transpose(x); }},
        OpCase{"ConcatColsLhs",
               [](const Tensor& x) { return ConcatCols(x, FixedMat(3, 2, 9)); }},
        OpCase{"ConcatRowsRhs",
               [](const Tensor& x) { return ConcatRows(FixedMat(2, 4, 10), x); }},
        OpCase{"SumAll", [](const Tensor& x) { return SumAll(x); }},
        OpCase{"MeanAll", [](const Tensor& x) { return MeanAll(x); }},
        OpCase{"SumRowsTo1", [](const Tensor& x) { return SumRowsTo1(x); }},
        OpCase{"MeanRows", [](const Tensor& x) { return MeanRows(x); }},
        OpCase{"RowsGather", [](const Tensor& x) { return Rows(x, {0, 2, 2, 1}); }},
        OpCase{"RowwiseDot",
               [](const Tensor& x) { return RowwiseDot(x, FixedMat(3, 4, 11)); }},
        OpCase{"RowwiseCosine",
               [](const Tensor& x) { return RowwiseCosine(x, FixedMat(3, 4, 12)); }},
        OpCase{"NormalizeRows", [](const Tensor& x) { return NormalizeRows(x); }},
        OpCase{"TileRows", [](const Tensor& x) { return TileRows(x, 5); }, 1, 4},
        OpCase{"StackRows",
               [](const Tensor& x) {
                 return StackRows(std::vector<Tensor>{FixedMat(2, 4, 13), x,
                                                      FixedMat(1, 4, 14), x});
               }},
        OpCase{"GatherRows",
               [](const Tensor& x) {
                 const std::vector<int> table_of = {0, 1, 0, 0, 1};
                 const std::vector<int64_t> ids = {2, 0, 1, 2, 1};
                 return GatherRows(std::vector<Tensor>{x, FixedMat(2, 4, 15)},
                                   table_of, ids);
               }},
        OpCase{"SoftmaxColumn", [](const Tensor& x) { return SoftmaxColumn(x); },
               5, 1},
        OpCase{"ColSum", [](const Tensor& x) { return ColSum(x); }},
        OpCase{"WeightedSumRowsWeights",
               [](const Tensor& x) { return WeightedSumRows(x, FixedMat(3, 4, 16)); },
               3, 1},
        OpCase{"WeightedSumRowsValues",
               [](const Tensor& x) { return WeightedSumRows(FixedMat(3, 1, 17), x); }},
        OpCase{"AffineInput",
               [](const Tensor& x) {
                 return Affine(x, FixedMat(4, 5, 20), FixedMat(1, 5, 21));
               }},
        OpCase{"AffineWeight",
               [](const Tensor& x) {
                 return Affine(FixedMat(2, 3, 22), x, FixedMat(1, 4, 23));
               }},
        OpCase{"AffineBias",
               [](const Tensor& x) {
                 return Affine(FixedMat(3, 2, 24), FixedMat(2, 4, 25), x);
               },
               1, 4},
        OpCase{"ConcatMatVecRows",
               [](const Tensor& x) {
                 return ConcatMatVec(
                     std::vector<Tensor>{FixedMat(1, 2, 26), x, FixedMat(3, 3, 27)},
                     FixedMat(9, 1, 28));
               }},
        OpCase{"ConcatMatVecTiledRow",
               [](const Tensor& x) {
                 return ConcatMatVec(std::vector<Tensor>{x, FixedMat(3, 2, 29)},
                                     FixedMat(6, 1, 30));
               },
               1, 4},
        OpCase{"ConcatMatVecVector",
               [](const Tensor& x) {
                 return ConcatMatVec(
                     std::vector<Tensor>{FixedMat(1, 2, 31), FixedMat(3, 2, 32)}, x);
               },
               4, 1},
        OpCase{"ScaledRowDotsRows",
               [](const Tensor& x) {
                 return ScaledRowDots(x, FixedMat(1, 4, 18), 0.7f);
               }},
        OpCase{"ScaledRowDotsQuery",
               [](const Tensor& x) {
                 return ScaledRowDots(FixedMat(5, 4, 19), x, 0.7f);
               },
               1, 4},
        OpCase{"SegmentFocalPoolRows",
               [](const Tensor& x) {
                 return SegmentFocalPool(x, FixedMat(1, 4, 34),
                                         std::vector<int64_t>{0, 3, 3, 4, 7},
                                         0.5f);
               },
               7, 4},
        OpCase{"SegmentFocalPoolQuery",
               [](const Tensor& x) {
                 return SegmentFocalPool(FixedMat(6, 4, 35), x,
                                         std::vector<int64_t>{0, 2, 6}, 0.5f);
               },
               1, 4},
        OpCase{"SegmentMean",
               [](const Tensor& x) {
                 return SegmentMean(x, std::vector<int64_t>{0, 1, 1, 4, 6});
               },
               6, 4},
        OpCase{"SegmentSum",
               [](const Tensor& x) {
                 return SegmentSum(x, std::vector<int64_t>{0, 3, 3, 4, 6});
               },
               6, 4},
        OpCase{"SegmentSoftmax",
               [](const Tensor& x) {
                 return SegmentSoftmax(x, std::vector<int64_t>{0, 2, 2, 5, 6});
               },
               6, 1},
        OpCase{"SegmentWeightedSumWeights",
               [](const Tensor& x) {
                 return SegmentWeightedSum(x, FixedMat(5, 4, 36),
                                           std::vector<int64_t>{0, 2, 2, 5});
               },
               5, 1},
        OpCase{"SegmentWeightedSumValues",
               [](const Tensor& x) {
                 return SegmentWeightedSum(FixedMat(5, 1, 37), x,
                                           std::vector<int64_t>{0, 2, 2, 5});
               },
               5, 4},
        OpCase{"SegmentConcatMatVecPerSegment",
               [](const Tensor& x) {
                 return SegmentConcatMatVec(x, FixedMat(5, 2, 38),
                                            FixedMat(1, 3, 39),
                                            FixedMat(9, 1, 40),
                                            std::vector<int64_t>{0, 3, 3, 5});
               },
               3, 4},
        OpCase{"SegmentConcatMatVecPerRow",
               [](const Tensor& x) {
                 return SegmentConcatMatVec(FixedMat(3, 2, 41), x,
                                            FixedMat(1, 3, 42),
                                            FixedMat(9, 1, 43),
                                            std::vector<int64_t>{0, 3, 3, 5});
               },
               5, 4},
        OpCase{"SegmentConcatMatVecShared",
               [](const Tensor& x) {
                 return SegmentConcatMatVec(FixedMat(3, 2, 44),
                                            FixedMat(5, 3, 45), x,
                                            FixedMat(9, 1, 46),
                                            std::vector<int64_t>{0, 3, 3, 5});
               },
               1, 4},
        OpCase{"SegmentConcatMatVecVector",
               [](const Tensor& x) {
                 return SegmentConcatMatVec(FixedMat(3, 2, 47),
                                            FixedMat(5, 3, 48),
                                            FixedMat(1, 4, 49), x,
                                            std::vector<int64_t>{0, 3, 3, 5});
               },
               9, 1},
        OpCase{"SquaredNorm", [](const Tensor& x) { return SquaredNorm(x); }},
        OpCase{"BceWithLogits",
               [](const Tensor& x) {
                 Tensor labels = Tensor::FromVector({1, 0, 1}, 3, 1);
                 return BceWithLogits(x, labels);
               },
               3, 1},
        OpCase{"FocalBceWithLogits",
               [](const Tensor& x) {
                 Tensor labels = Tensor::FromVector({1, 0, 1}, 3, 1);
                 return FocalBceWithLogits(x, labels, 2.0f);
               },
               3, 1}),
    [](const ::testing::TestParamInfo<OpCase>& info) { return info.param.name; });

// --- Loss semantics ---------------------------------------------------------

TEST(LossTest, BceMatchesManualComputation) {
  Tensor logits = Tensor::FromVector({0.0f}, 1, 1);
  Tensor labels = Tensor::FromVector({1.0f}, 1, 1);
  // -log(sigmoid(0)) = log 2
  EXPECT_NEAR(BceWithLogits(logits, labels).item(), std::log(2.0f), 1e-5f);
}

TEST(LossTest, FocalGammaZeroEqualsBce) {
  Rng rng(21);
  Tensor logits = Tensor::Randn(8, 1, &rng, 2.0f);
  Tensor labels = Tensor::FromVector({1, 0, 1, 1, 0, 0, 1, 0}, 8, 1);
  EXPECT_NEAR(FocalBceWithLogits(logits, labels, 0.0f).item(),
              BceWithLogits(logits, labels).item(), 1e-4f);
}

TEST(LossTest, FocalDownweightsEasyExamples) {
  // Confident correct prediction: focal loss << BCE loss.
  Tensor logits = Tensor::FromVector({4.0f}, 1, 1);
  Tensor labels = Tensor::FromVector({1.0f}, 1, 1);
  const float bce = BceWithLogits(logits, labels).item();
  const float focal = FocalBceWithLogits(logits, labels, 2.0f).item();
  EXPECT_LT(focal, bce * 0.01f);
}

// --- Optimizers --------------------------------------------------------------

class OptimizerConvergenceTest
    : public ::testing::TestWithParam<std::string> {};

TEST_P(OptimizerConvergenceTest, MinimizesQuadratic) {
  Rng rng(31);
  Tensor x = Tensor::Randn(4, 4, &rng, 2.0f, /*requires_grad=*/true);
  std::unique_ptr<Optimizer> opt;
  const std::string kind = GetParam();
  if (kind == "sgd") opt = std::make_unique<Sgd>(std::vector<Tensor>{x}, 0.05f);
  else if (kind == "sgd_momentum")
    opt = std::make_unique<Sgd>(std::vector<Tensor>{x}, 0.02f, 0.9f);
  else if (kind == "adam")
    opt = std::make_unique<Adam>(std::vector<Tensor>{x}, 0.1f);
  else
    opt = std::make_unique<Adagrad>(std::vector<Tensor>{x}, 0.5f);
  float last = 1e9f;
  for (int step = 0; step < 300; ++step) {
    opt->ZeroGrad();
    Tensor loss = SquaredNorm(x);
    loss.Backward();
    opt->Step();
    last = SquaredNorm(x).item();
  }
  EXPECT_LT(last, 1e-2f) << "optimizer " << kind << " failed to converge";
}

INSTANTIATE_TEST_SUITE_P(AllOptimizers, OptimizerConvergenceTest,
                         ::testing::Values("sgd", "sgd_momentum", "adam",
                                           "adagrad"));

TEST(OptimizerTest, WeightDecayShrinksParams) {
  Tensor x = Tensor::Full(2, 2, 1.0f, /*requires_grad=*/true);
  Sgd opt({x}, 0.1f, 0.0f, /*weight_decay=*/0.5f);
  opt.ZeroGrad();
  opt.Step();  // gradient zero, decay only: w -= lr*wd*w
  EXPECT_NEAR(x.at(0, 0), 1.0f - 0.1f * 0.5f, 1e-6f);
}

// --- NN building blocks ------------------------------------------------------

TEST(NnTest, LinearShapes) {
  Rng rng(41);
  Linear lin(6, 3, &rng);
  Tensor x = Tensor::Randn(5, 6, &rng, 1.0f);
  Tensor y = lin.Forward(x);
  EXPECT_EQ(y.rows(), 5);
  EXPECT_EQ(y.cols(), 3);
  EXPECT_EQ(lin.Parameters().size(), 2u);
}

TEST(NnTest, MlpLearnsXor) {
  Rng rng(43);
  Mlp mlp({2, 8, 1}, &rng, Activation::kTanh);
  Tensor x = Tensor::FromVector({0, 0, 0, 1, 1, 0, 1, 1}, 4, 2);
  Tensor y = Tensor::FromVector({0, 1, 1, 0}, 4, 1);
  Adam opt(mlp.Parameters(), 0.05f);
  float loss_val = 1e9f;
  for (int step = 0; step < 500; ++step) {
    opt.ZeroGrad();
    Tensor loss = BceWithLogits(mlp.Forward(x), y);
    loss.Backward();
    opt.Step();
    loss_val = loss.item();
  }
  EXPECT_LT(loss_val, 0.1f);
}

TEST(NnTest, EmbeddingLookupAndTrain) {
  Rng rng(47);
  Embedding emb(10, 4, &rng);
  Tensor e = emb.Lookup({3, 3, 7});
  EXPECT_EQ(e.rows(), 3);
  EXPECT_EQ(e.cols(), 4);
  // Push embedding 3 towards zero.
  Sgd opt(emb.Parameters(), 0.5f);
  for (int i = 0; i < 50; ++i) {
    opt.ZeroGrad();
    Tensor loss = SquaredNorm(emb.Lookup({3}));
    loss.Backward();
    opt.Step();
  }
  EXPECT_LT(SquaredNorm(emb.Lookup({3})).item(), 1e-3f);
  EXPECT_GT(SquaredNorm(emb.Lookup({7})).item(), 1e-3f);  // untouched row
}

// --- Pooled storage across threads -------------------------------------------

// Trains a small MLP on XOR and returns the bits of its parameters.
std::vector<uint32_t> TrainXor() {
  Rng rng(43);
  Mlp mlp({2, 8, 1}, &rng, Activation::kTanh);
  Tensor x = Tensor::FromVector({0, 0, 0, 1, 1, 0, 1, 1}, 4, 2);
  Tensor y = Tensor::FromVector({0, 1, 1, 0}, 4, 1);
  Adam opt(mlp.Parameters(), 0.05f);
  for (int step = 0; step < 300; ++step) {
    opt.ZeroGrad();
    BceWithLogits(mlp.Forward(x), y).Backward();
    opt.Step();
  }
  std::vector<uint32_t> bits;
  for (const Tensor& t : mlp.Parameters()) {
    for (int64_t i = 0; i < t.size(); ++i) {
      uint32_t u;
      std::memcpy(&u, t.data() + i, sizeof(u));
      bits.push_back(u);
    }
  }
  return bits;
}

TEST(PoolTest, TwoThreadsTrainTheirOwnModelsAtOnce) {
  const std::vector<uint32_t> reference = TrainXor();
  std::vector<uint32_t> a, b;
  std::thread ta([&] { a = TrainXor(); });
  std::thread tb([&] { b = TrainXor(); });
  ta.join();
  tb.join();
  EXPECT_EQ(a, reference);
  EXPECT_EQ(b, reference);
}

TEST(PoolTest, GraphsFreedOnAnotherThreadStayUnderTheCacheCap) {
  // The main thread records graphs over a shared weight; a consumer thread
  // backpropagates and drops them. Every node is 4x16 with a gradient, so
  // all of them land in one size class, and far more bytes pass through
  // the consumer than one class may cache.
  constexpr int kGraphs = 2000;
  constexpr int kOpsPerGraph = 16;
  Rng rng(5);
  Tensor w = Tensor::Randn(4, 16, &rng, 1.0f, /*requires_grad=*/true);
  std::mutex mu;
  std::condition_variable cv;
  std::deque<Tensor> queue;
  bool done = false;
  int64_t consumer_cached = -1;
  std::thread consumer([&] {
    for (;;) {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return !queue.empty() || done; });
      if (queue.empty()) break;
      Tensor g = std::move(queue.front());
      queue.pop_front();
      lock.unlock();
      g.Backward();
    }  // g and the graph behind it are freed here
    consumer_cached = detail::ThreadCachedBytes();
  });
  for (int i = 0; i < kGraphs; ++i) {
    Tensor loss;
    {
      Tensor h = Tensor::Randn(4, 16, &rng, 1.0f, /*requires_grad=*/true);
      for (int k = 0; k < kOpsPerGraph; ++k) h = Tanh(Add(h, w));
      loss = SumAll(h);  // 1x1: its own (smaller) size class
    }  // the queued loss now holds the only reference to the graph
    {
      std::lock_guard<std::mutex> lock(mu);
      queue.push_back(std::move(loss));
    }
    cv.notify_one();
  }
  {
    std::lock_guard<std::mutex> lock(mu);
    done = true;
  }
  cv.notify_one();
  consumer.join();
  EXPECT_GE(consumer_cached, 0);
  // Two size classes in use: the 4x16 nodes and the 1x1 losses.
  EXPECT_LE(consumer_cached, 2 * detail::kPoolClassCapBytes);
  // Every graph added its gradient into w.
  EXPECT_NE(w.grad_at(0, 0), 0.0f);
}

TEST(AllocationTrackerTest, CountsAllocatedFloats) {
  AllocationTracker::Reset();
  Tensor::Zeros(10, 10);
  Tensor::Zeros(5, 2);
  EXPECT_EQ(AllocationTracker::allocated_floats(), 110);
  EXPECT_EQ(AllocationTracker::allocated_bytes(), 440);
}

}  // namespace
}  // namespace tensor
}  // namespace zoomer
