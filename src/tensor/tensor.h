// Dense 2-D float tensor with reverse-mode automatic differentiation.
//
// This is the numerical substrate for every learned model in the repository
// (the Zoomer multi-level attention networks and all GNN baselines). The
// design mirrors a minimal PyTorch: a Tensor is a reference-counted handle to
// a TensorImpl, and every differentiable op records one impl whose backward
// function scatters its gradient into its parents. Calling Backward() on a
// scalar tensor runs reverse-mode differentiation over the dynamically
// recorded graph.
//
// A training example records thousands of small nodes, so the bookkeeping
// around each node is kept off the general heap:
//  - Storage. An impl, its data, its gradient (when it requires one) and any
//    values its op saves for backward (row indices, norms, labels) share one
//    block from a thread-caching size-class pool. A freed block goes to the
//    freeing thread's cache, capped per size class (beyond the cap it goes
//    back to the heap), so blocks may move between threads and no cache
//    grows without bound. Under AddressSanitizer the pool is bypassed, so
//    every block is a plain heap allocation and a use after free is reported.
//  - Parents and closures. An impl owns one reference to each of its op's
//    inputs, in argument order: `num_parents` of them, the first two inline
//    and any further ones (n-ary ops such as StackRows) in the node's pooled
//    block. Its backward is a plain function pointer plus the op's captured
//    sizes and flags in an inline buffer; backward reads its inputs through
//    the parent pointers.
//  - Backward walk. Nodes propagate in reverse postorder of a DFS from the
//    loss that visits each node's parents in index order; this order fixes
//    how every gradient sum is accumulated, so it is part of the numerical
//    contract.
//  - Fused ops. StackRows, GatherRows, SoftmaxColumn, ScaledRowDots,
//    ColSum, WeightedSumRows, Affine and ConcatMatVec each record one node
//    in place of a chain of ops and give the same bits, forward and
//    backward, as that chain. Three things make this hold:
//     * parents in index order make the DFS discover the inputs in the
//       order the chain did, so every other node keeps its place;
//     * the chain's interior nodes only passed values through, and each
//       fused backward adds into its inputs in the order the chain's nodes
//       did (noted at each op). The chain reached an input only after the
//       subgraphs of the inputs after it, so this needs that no input's
//       gradient is also added to from inside a later input's subgraph,
//       which holds for every use in the models;
//     * each fused loop keeps the expression form of the loops it replaces:
//       where the chain rounded a product into a buffer before adding it,
//       the fused loop does too, so FMA contraction under -march=native
//       rounds exactly as it did.
//    The dA = G·Bᵀ of MatMul, Affine and the weights of WeightedSumRows and
//    SegmentWeightedSum is one routine whose rounding is stated in source:
//    each entry sums its products from zero in order, each product rounded
//    to float before it is added, on every ISA.
//  - Segmented ops. SegmentFocalPool, SegmentMean, SegmentSum,
//    SegmentSoftmax, SegmentWeightedSum and SegmentConcatMatVec run one op
//    chain over every segment of their rows (the slot rows of each ROI
//    node, the children of each (parent, type) group, ...) as one node.
//    Per segment they give the bits of that chain applied to the
//    segment's rows alone, forward and backward: each segment's backward
//    runs on zeroed gradients of its rows and then adds them into the
//    inputs, as the chain's row gathers did, and inputs shared by all
//    segments take the segments' terms from the last segment to the first.
//    ZoomerModel batches each depth level of its ROIs with these ops, so
//    its forward values equal its per-node recursion's, but the gradient
//    sums of the parameters shared across ROI nodes (the slot tables, the
//    type maps, the edge attention vector) and of the focal vector now add
//    their terms node by node inside one op: not in the order the per-node
//    graph added them.
//  - Visit marks. Interior nodes are marked visited with a per-call stamp;
//    leaves (no parents, nothing to propagate) never enter the order; the
//    DFS stack and the order live in thread-local scratch.
//  - Teardown. When the last handle to a graph drops, impls whose count
//    reaches zero are freed through a worklist, not by recursion, so a graph
//    of any depth is released in constant stack.
//
// All tensors are row-major (rows x cols). Scalars are 1x1.
#ifndef ZOOMER_TENSOR_TENSOR_H_
#define ZOOMER_TENSOR_TENSOR_H_

#include <atomic>
#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/random.h"

namespace zoomer {
namespace tensor {

/// Tracks the number of floats allocated for tensor storage since the last
/// reset. Used by the Fig. 4(a) motivation benchmark to report the memory
/// growth of neighborhood expansion.
class AllocationTracker {
 public:
  static void Reset() { allocated_floats_.store(0, std::memory_order_relaxed); }
  static void Record(int64_t n) {
    allocated_floats_.fetch_add(n, std::memory_order_relaxed);
  }
  static int64_t allocated_floats() {
    return allocated_floats_.load(std::memory_order_relaxed);
  }
  static int64_t allocated_bytes() { return allocated_floats() * 4; }

 private:
  static std::atomic<int64_t> allocated_floats_;
};

struct TensorImpl;

/// Propagates self.grad into the grad buffers of self.parents.
using BackwardFn = void (*)(TensorImpl& self);

/// One node of the recorded graph. Made only by the factories and ops in
/// tensor.cc, which place it at the head of its pooled block.
struct TensorImpl {
  int64_t rows = 0;
  int64_t cols = 0;
  float* data = nullptr;
  float* grad = nullptr;  // zeroed at creation iff requires_grad
  void* aux = nullptr;    // values the op saved for backward, in the block
  // Owned references to the op's inputs in argument order: parents 0 and 1
  // inline, parents 2.. at more_parents (in the block). Null past
  // num_parents; a leaf has none.
  TensorImpl* parents[2] = {nullptr, nullptr};
  TensorImpl** more_parents = nullptr;
  BackwardFn backward = nullptr;  // set iff num_parents > 0
  alignas(8) unsigned char closure[24];  // the op's captured sizes and flags
  union {
    uint64_t mark = 0;       // stamp of the last Backward() that visited it
    TensorImpl* next_dead;   // teardown worklist link once unreferenced
  };
  uint64_t block_bytes = 0;
  std::atomic<uint32_t> refs{1};
  uint32_t num_parents = 0;
  bool requires_grad = false;

  int64_t size() const { return rows * cols; }
  TensorImpl* parent(uint32_t i) const {
    return i < 2 ? parents[i] : more_parents[i - 2];
  }
};

/// Frees `impl`, whose last reference just dropped, and every ancestor only
/// it kept alive.
void ReleaseGraph(TensorImpl* impl);

namespace detail {

/// Drops one reference to `impl`; true if it was the last. A sole owner
/// skips the atomic decrement: no other handle exists that could take a
/// reference concurrently.
inline bool Unref(TensorImpl* impl) {
  return impl->refs.load(std::memory_order_acquire) == 1 ||
         impl->refs.fetch_sub(1, std::memory_order_acq_rel) == 1;
}

/// Bytes of free blocks the calling thread's pool cache holds (0 when the
/// pool is bypassed).
int64_t ThreadCachedBytes();

/// Block sizes the pool caches: 64-byte granules up to 4 KiB; larger blocks
/// come from and return to the heap directly.
inline constexpr int64_t kPoolGranuleBytes = 64;
inline constexpr int kPoolClasses = 64;
/// Cap on the free bytes a thread caches per size class.
inline constexpr int64_t kPoolClassCapBytes = int64_t{2} << 20;

}  // namespace detail

/// Reference-counted handle to a tensor. Copies alias the same storage.
class Tensor {
 public:
  Tensor() = default;
  /// Adopts the single reference a freshly made impl starts with.
  explicit Tensor(TensorImpl* impl) : impl_(impl) {}
  Tensor(const Tensor& other) : impl_(other.impl_) { Retain(impl_); }
  Tensor(Tensor&& other) noexcept
      : impl_(std::exchange(other.impl_, nullptr)) {}
  Tensor& operator=(const Tensor& other) {
    Retain(other.impl_);
    Drop(std::exchange(impl_, other.impl_));
    return *this;
  }
  Tensor& operator=(Tensor&& other) noexcept {
    if (this != &other) {
      Drop(std::exchange(impl_, std::exchange(other.impl_, nullptr)));
    }
    return *this;
  }
  ~Tensor() { Drop(impl_); }

  /// rows x cols tensor of zeros.
  static Tensor Zeros(int64_t rows, int64_t cols, bool requires_grad = false);
  /// rows x cols tensor filled with value.
  static Tensor Full(int64_t rows, int64_t cols, float value,
                     bool requires_grad = false);
  /// Gaussian init with given stddev (mean 0).
  static Tensor Randn(int64_t rows, int64_t cols, Rng* rng, float stddev,
                      bool requires_grad = false);
  /// Xavier/Glorot uniform init for a (fan_in x fan_out) weight matrix.
  static Tensor Xavier(int64_t rows, int64_t cols, Rng* rng,
                       bool requires_grad = false);
  /// Wraps an existing row-major buffer (copied).
  static Tensor FromVector(const std::vector<float>& values, int64_t rows,
                           int64_t cols, bool requires_grad = false);
  /// 1x1 scalar.
  static Tensor Scalar(float value, bool requires_grad = false);

  bool defined() const { return impl_ != nullptr; }
  int64_t rows() const { return impl_->rows; }
  int64_t cols() const { return impl_->cols; }
  int64_t size() const { return impl_->size(); }
  bool requires_grad() const { return impl_->requires_grad; }

  float* data() { return impl_->data; }
  const float* data() const { return impl_->data; }
  float* grad_data() {
    ZCHECK(impl_->requires_grad);
    return impl_->grad;
  }

  float at(int64_t i, int64_t j) const {
    ZCHECK(i >= 0 && i < rows() && j >= 0 && j < cols())
        << "index (" << i << "," << j << ") out of range for " << rows() << "x"
        << cols();
    return impl_->data[i * cols() + j];
  }
  float& at(int64_t i, int64_t j) {
    ZCHECK(i >= 0 && i < rows() && j >= 0 && j < cols());
    return impl_->data[i * cols() + j];
  }
  /// Scalar value of a 1x1 tensor.
  float item() const {
    ZCHECK_EQ(size(), 1);
    return impl_->data[0];
  }
  float grad_at(int64_t i, int64_t j) const {
    ZCHECK(impl_->requires_grad);
    return impl_->grad[i * cols() + j];
  }

  /// Zeroes this tensor's gradient buffer (does not touch ancestors).
  void ZeroGrad();

  /// Reverse-mode backprop from this scalar tensor: seeds d(self)/d(self)=1
  /// and propagates through the recorded graph in reverse topological order.
  void Backward();

  /// Detached copy sharing no autograd history (fresh storage).
  Tensor Detach() const;

  TensorImpl* impl() const { return impl_; }

  std::string ShapeString() const;

 private:
  static void Retain(TensorImpl* impl) {
    if (impl != nullptr) impl->refs.fetch_add(1, std::memory_order_relaxed);
  }
  static void Drop(TensorImpl* impl) {
    if (impl != nullptr && detail::Unref(impl)) ReleaseGraph(impl);
  }

  TensorImpl* impl_ = nullptr;
};

// ---------------------------------------------------------------------------
// Differentiable operators. Every op returns a fresh tensor whose backward
// function scatters gradients into its parents. Ops requiring shape
// agreement ZCHECK.
// ---------------------------------------------------------------------------

/// C = A · B. A: (n,k), B: (k,m).
Tensor MatMul(const Tensor& a, const Tensor& b);
/// x · w + b for a (1 x m) bias row b; same bits as Add(MatMul(x, w), b).
Tensor Affine(const Tensor& x, const Tensor& w, const Tensor& b);
/// [p_0 | p_1 | ...] · v -> (k x 1), where k is the most rows of any part,
/// each part is (k x d_i) or a (1 x d_i) row repeated on all k rows, and v
/// is (sum d_i x 1); same bits as
/// MatMul of the left-nested ConcatCols chain (TileRows(p, k) for the
/// repeated rows) with v.
Tensor ConcatMatVec(std::span<const Tensor> parts, const Tensor& v);
/// Elementwise sum; b may also be (1,cols) for row broadcast or 1x1 scalar.
Tensor Add(const Tensor& a, const Tensor& b);
/// Elementwise difference (same shapes).
Tensor Sub(const Tensor& a, const Tensor& b);
/// Elementwise (Hadamard) product; b may be (rows,1) for column broadcast.
Tensor Mul(const Tensor& a, const Tensor& b);
/// a * s for scalar constant s.
Tensor Scale(const Tensor& a, float s);
/// a + s elementwise for scalar constant s.
Tensor AddScalar(const Tensor& a, float s);
/// Elementwise sigmoid.
Tensor Sigmoid(const Tensor& a);
/// Elementwise tanh by the library's own vectorized kernel, not libm: every
/// float maps to tanh correctly rounded (within 2 ulp is the contract), the
/// same bits on every ISA and with every libm. Backward uses 1 − y².
Tensor Tanh(const Tensor& a);
/// Elementwise ReLU.
Tensor Relu(const Tensor& a);
/// Elementwise LeakyReLU with negative slope.
Tensor LeakyRelu(const Tensor& a, float slope = 0.2f);
/// Elementwise natural exp.
Tensor Exp(const Tensor& a);
/// Elementwise natural log of (a + eps).
Tensor Log(const Tensor& a, float eps = 1e-12f);
/// Row-wise softmax.
Tensor SoftmaxRows(const Tensor& a);
/// Softmax over the entries of a (k x 1) column; same bits as
/// Transpose(SoftmaxRows(Transpose(col))).
Tensor SoftmaxColumn(const Tensor& col);
/// Transpose.
Tensor Transpose(const Tensor& a);
/// Horizontal concatenation [a | b].
Tensor ConcatCols(const Tensor& a, const Tensor& b);
/// Vertical concatenation [a ; b].
Tensor ConcatRows(const Tensor& a, const Tensor& b);
/// Vertical concatenation of k >= 1 equal-width tensors as one node with k
/// parents; same bits as the left-nested chain ConcatRows(ConcatRows(r0, r1),
/// r2)... One row is returned as is.
Tensor StackRows(std::span<const Tensor> rows);
/// (n x d) matrix whose row i is row ids[i] of tables[table_of[i]] (each
/// k_t x d), as one node whose parents are the tables, each once; same
/// bits as StackRows of Rows(tables[table_of[i]], {ids[i]}) (backward adds
/// the rows from the last to the first).
Tensor GatherRows(std::span<const Tensor> tables, std::span<const int> table_of,
                  std::span<const int64_t> ids);
/// Sum of all entries -> 1x1.
Tensor SumAll(const Tensor& a);
/// Mean of all entries -> 1x1.
Tensor MeanAll(const Tensor& a);
/// Per-row sum -> (rows,1).
Tensor SumRowsTo1(const Tensor& a);
/// Column-wise mean over rows -> (1,cols).
Tensor MeanRows(const Tensor& a);
/// Column-wise sum over rows -> (1,cols); same bits as
/// MatMul(Full(1, rows, 1), a).
Tensor ColSum(const Tensor& a);
/// wᵀ · z for a (k x 1) weight column w and z (k x m) -> (1 x m); same bits
/// as MatMul(Transpose(w), z).
Tensor WeightedSumRows(const Tensor& w, const Tensor& z);
/// scale · h · qᵀ for h (n x d) and a row q (1 x d) -> (n x 1); same bits as
/// Scale(MatMul(h, Transpose(q)), scale).
Tensor ScaledRowDots(const Tensor& h, const Tensor& q, float scale);
/// Gathers rows by index; gradient scatter-adds. idx values in [0, a.rows).
Tensor Rows(const Tensor& a, const std::vector<int64_t>& idx);

// ---------------------------------------------------------------------------
// Segmented ops. `offsets` (S + 1 entries, nondecreasing from 0 to the row
// count of the per-row input) splits the rows into S segments: segment s
// is rows [offsets[s], offsets[s+1]). A segment may be empty: its output
// row is zero and it passes no gradient. Each op is one node whose values,
// segment by segment, are the bits of the one-segment op chain named at it.
// ---------------------------------------------------------------------------

/// Focal pooling of h (n x d) against the row q (1 x d) -> (S x d): row s is
/// ColSum(Mul(h_s, SoftmaxColumn(ScaledRowDots(h_s, q, scale)))) over the
/// rows h_s of segment s.
Tensor SegmentFocalPool(const Tensor& h, const Tensor& q,
                        std::span<const int64_t> offsets, float scale);
/// Row s is MeanRows of segment s of a (n x m) -> (S x m).
Tensor SegmentMean(const Tensor& a, std::span<const int64_t> offsets);
/// Row s is the Add chain ((r_0 + r_1) + r_2)... over the rows of segment s
/// of a (n x m) -> (S x m).
Tensor SegmentSum(const Tensor& a, std::span<const int64_t> offsets);
/// SoftmaxColumn within each segment of a (n x 1) column -> (n x 1).
Tensor SegmentSoftmax(const Tensor& col, std::span<const int64_t> offsets);
/// Row s is WeightedSumRows(w_s, z_s) over segment s of the (n x 1) weight
/// column w and z (n x m) -> (S x m).
Tensor SegmentWeightedSum(const Tensor& w, const Tensor& z,
                          std::span<const int64_t> offsets);
/// Entry i, in segment s, is [per_segment_s | per_row_i | shared] · v for
/// per_segment (S x d_0), per_row (n x d_1), a row shared (1 x d_2) and v
/// ((d_0 + d_1 + d_2) x 1) -> (n x 1); segment s gives the bits of
/// ConcatMatVec({per_segment_s, per_row_s, shared}, v).
Tensor SegmentConcatMatVec(const Tensor& per_segment, const Tensor& per_row,
                           const Tensor& shared, const Tensor& v,
                           std::span<const int64_t> offsets);
/// Row-wise dot product of equal-shaped a,b -> (rows,1).
Tensor RowwiseDot(const Tensor& a, const Tensor& b);
/// Row-wise cosine similarity of equal-shaped a,b -> (rows,1).
Tensor RowwiseCosine(const Tensor& a, const Tensor& b, float eps = 1e-8f);
/// L2-normalizes each row.
Tensor NormalizeRows(const Tensor& a, float eps = 1e-8f);
/// Repeats a (1,cols) row vector n times -> (n,cols).
Tensor TileRows(const Tensor& a, int64_t n);

/// Numerically stable mean binary cross-entropy with logits:
/// mean over rows of log(1+exp(x)) - y*x. logits,labels: (n,1).
Tensor BceWithLogits(const Tensor& logits, const Tensor& labels);

/// Focal binary cross-entropy with logits (Lin et al.), gamma = focusing
/// parameter; the paper trains Zoomer with focal weight 2 (Sec. VII-A).
/// loss_i = -(1-p_i)^g * y_i * log(p_i) - p_i^g * (1-y_i) * log(1-p_i).
Tensor FocalBceWithLogits(const Tensor& logits, const Tensor& labels,
                          float gamma = 2.0f);

/// Sum of squares of all entries (for L2 regularization) -> 1x1.
Tensor SquaredNorm(const Tensor& a);

}  // namespace tensor
}  // namespace zoomer

#endif  // ZOOMER_TENSOR_TENSOR_H_
