// Tests for the tensor/autograd substrate. The core of this suite is a
// numeric gradient checker applied to every differentiable op, plus
// optimizer convergence tests and a small end-to-end learning test.
#include <gtest/gtest.h>

#include <cmath>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <functional>
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
