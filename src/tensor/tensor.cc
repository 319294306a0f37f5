#include "tensor/tensor.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <new>
#include <span>
#include <type_traits>

namespace zoomer {
namespace tensor {

std::atomic<int64_t> AllocationTracker::allocated_floats_{0};

namespace {

// ------------------------------------------------------------------ pool ---

// Under AddressSanitizer every block is a plain heap allocation, so a use
// after free is reported instead of landing in a cached block.
#if defined(__SANITIZE_ADDRESS__)
constexpr bool kUsePool = false;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
constexpr bool kUsePool = false;
#else
constexpr bool kUsePool = true;
#endif
#else
constexpr bool kUsePool = true;
#endif

using detail::kPoolClassCapBytes;
using detail::kPoolClasses;
using detail::kPoolGranuleBytes;

struct FreeBlock {
  FreeBlock* next;
};

// One thread's free blocks, one LIFO list per size class.
struct ThreadCache {
  FreeBlock* head[kPoolClasses] = {};
  int64_t count[kPoolClasses] = {};
  int64_t bytes = 0;
  ~ThreadCache();
};

thread_local ThreadCache tls_cache;
// Set once tls_cache is destroyed at thread exit; blocks freed after that
// (by thread_local or static tensors destroyed later) go to the heap.
thread_local bool tls_cache_gone = false;

ThreadCache::~ThreadCache() {
  for (int c = 0; c < kPoolClasses; ++c) {
    while (FreeBlock* b = head[c]) {
      head[c] = b->next;
      ::operator delete(b);
    }
  }
  bytes = 0;
  tls_cache_gone = true;
}

int64_t ClassBytes(int c) { return (c + 1) * kPoolGranuleBytes; }

void* PoolAlloc(size_t bytes) {
  if constexpr (kUsePool) {
    const int64_t c = (static_cast<int64_t>(bytes) - 1) / kPoolGranuleBytes;
    if (c < kPoolClasses) {
      if (!tls_cache_gone) {
        ThreadCache& cache = tls_cache;
        if (FreeBlock* b = cache.head[c]) {
          cache.head[c] = b->next;
          --cache.count[c];
          cache.bytes -= ClassBytes(c);
          return b;
        }
      }
      return ::operator new(ClassBytes(c));
    }
  }
  return ::operator new(bytes);
}

void PoolFree(void* p, size_t bytes) {
  if constexpr (kUsePool) {
    const int64_t c = (static_cast<int64_t>(bytes) - 1) / kPoolGranuleBytes;
    if (c < kPoolClasses && !tls_cache_gone) {
      ThreadCache& cache = tls_cache;
      if ((cache.count[c] + 1) * ClassBytes(c) <= kPoolClassCapBytes) {
        auto* b = static_cast<FreeBlock*>(p);
        b->next = cache.head[c];
        cache.head[c] = b;
        ++cache.count[c];
        cache.bytes += ClassBytes(c);
        return;
      }
    }
  }
  ::operator delete(p);
}

// ------------------------------------------------------------- impl block ---

// Offsets inside a block stay 16-byte aligned, as heap allocations are.
constexpr size_t RoundUp16(size_t n) { return (n + 15) & ~size_t{15}; }

enum class Fill { kZero, kNone };  // kNone: the caller writes every element

// Makes one node with its data, its zeroed gradient (if requires_grad),
// room for the pointers to parents 2.. of `num_parents` (0 and 1 are
// inline) and `aux_bytes` of op-saved values in a single pooled block.
TensorImpl* MakeImpl(int64_t rows, int64_t cols, bool requires_grad,
                     Fill fill = Fill::kNone, size_t aux_bytes = 0,
                     size_t num_parents = 0) {
  ZCHECK(rows > 0 && cols > 0) << "invalid shape " << rows << "x" << cols;
  const size_t n = static_cast<size_t>(rows * cols);
  const size_t header = RoundUp16(sizeof(TensorImpl));
  const size_t floats = RoundUp16(n * sizeof(float));
  const size_t more_at = header + floats + (requires_grad ? floats : 0);
  const size_t more_bytes =
      num_parents > 2 ? (num_parents - 2) * sizeof(TensorImpl*) : 0;
  const size_t bytes = more_at + more_bytes + aux_bytes;
  char* block = static_cast<char*>(PoolAlloc(bytes));
  auto* impl = new (block) TensorImpl;
  impl->rows = rows;
  impl->cols = cols;
  impl->block_bytes = bytes;
  impl->requires_grad = requires_grad;
  impl->data = reinterpret_cast<float*>(block + header);
  if (fill == Fill::kZero) std::fill(impl->data, impl->data + n, 0.0f);
  if (requires_grad) {
    impl->grad = reinterpret_cast<float*>(block + header + floats);
    std::fill(impl->grad, impl->grad + n, 0.0f);
  }
  if (more_bytes > 0) {
    impl->more_parents = reinterpret_cast<TensorImpl**>(block + more_at);
  }
  if (aux_bytes > 0) impl->aux = block + more_at + more_bytes;
  AllocationTracker::Record(rows * cols);
  return impl;
}

void FreeImpl(TensorImpl* impl) {
  const size_t bytes = impl->block_bytes;
  impl->~TensorImpl();
  PoolFree(impl, bytes);
}

// Records `t` as the next owned parent of `out`, which was made with room
// for it.
void AddParent(TensorImpl* out, const Tensor& t) {
  const uint32_t i = out->num_parents++;
  TensorImpl* p = t.impl();
  p->refs.fetch_add(1, std::memory_order_relaxed);
  (i < 2 ? out->parents[i] : out->more_parents[i - 2]) = p;
}
void Link(TensorImpl* out, const Tensor& a) { AddParent(out, a); }
void Link(TensorImpl* out, const Tensor& a, const Tensor& b) {
  AddParent(out, a);
  AddParent(out, b);
}
void Link(TensorImpl* out, std::span<const Tensor> inputs) {
  for (const Tensor& t : inputs) AddParent(out, t);
}

// Stores the backward closure `f` (trivially copyable: sizes, flags and
// scalars only) in out's inline buffer, behind a plain function pointer.
template <typename F>
void SetBackward(TensorImpl* out, const F& f) {
  static_assert(sizeof(F) <= sizeof(out->closure) && alignof(F) <= 8,
                "backward closure does not fit the inline buffer");
  static_assert(std::is_trivially_copyable_v<F>,
                "backward closures capture plain values only");
  new (out->closure) F(f);
  out->backward = [](TensorImpl& self) {
    (*std::launder(reinterpret_cast<F*>(self.closure)))(self);
  };
}

bool AnyRequiresGrad(const Tensor& a, const Tensor& b) {
  return a.requires_grad() || b.requires_grad();
}

// Accumulates src into dst->grad (dst must require grad), from entry `at`.
void Accumulate(TensorImpl* dst, const float* src, int64_t n,
                int64_t at = 0) {
  float* g = dst->grad + at;
  for (int64_t i = 0; i < n; ++i) g[i] += src[i];
}

}  // namespace

namespace detail {

int64_t ThreadCachedBytes() {
  return kUsePool && !tls_cache_gone ? tls_cache.bytes : 0;
}

}  // namespace detail

void ReleaseGraph(TensorImpl* impl) {
  TensorImpl* dead = nullptr;  // unreferenced impls still to free
  for (;;) {
    for (uint32_t i = 0; i < impl->num_parents; ++i) {
      TensorImpl* parent = impl->parent(i);
      if (detail::Unref(parent)) {
        parent->next_dead = dead;
        dead = parent;
      }
    }
    FreeImpl(impl);
    if (dead == nullptr) return;
    impl = dead;
    dead = impl->next_dead;
  }
}

Tensor Tensor::Zeros(int64_t rows, int64_t cols, bool requires_grad) {
  return Tensor(MakeImpl(rows, cols, requires_grad, Fill::kZero));
}

Tensor Tensor::Full(int64_t rows, int64_t cols, float value,
                    bool requires_grad) {
  auto impl = MakeImpl(rows, cols, requires_grad);
  std::fill(impl->data, impl->data + impl->size(), value);
  return Tensor(impl);
}

Tensor Tensor::Randn(int64_t rows, int64_t cols, Rng* rng, float stddev,
                     bool requires_grad) {
  auto impl = MakeImpl(rows, cols, requires_grad);
  for (float* v = impl->data; v != impl->data + impl->size(); ++v) {
    *v = static_cast<float>(rng->Normal()) * stddev;
  }
  return Tensor(impl);
}

Tensor Tensor::Xavier(int64_t rows, int64_t cols, Rng* rng,
                      bool requires_grad) {
  auto impl = MakeImpl(rows, cols, requires_grad);
  float limit = std::sqrt(6.0f / static_cast<float>(rows + cols));
  for (float* v = impl->data; v != impl->data + impl->size(); ++v) {
    *v = (2.0f * rng->UniformFloat() - 1.0f) * limit;
  }
  return Tensor(impl);
}

Tensor Tensor::FromVector(const std::vector<float>& values, int64_t rows,
                          int64_t cols, bool requires_grad) {
  ZCHECK_EQ(static_cast<int64_t>(values.size()), rows * cols);
  auto impl = MakeImpl(rows, cols, requires_grad);
  std::copy(values.begin(), values.end(), impl->data);
  return Tensor(impl);
}

Tensor Tensor::Scalar(float value, bool requires_grad) {
  return Full(1, 1, value, requires_grad);
}

Tensor Tensor::Detach() const {
  auto impl = MakeImpl(rows(), cols(), false);
  std::copy(data(), data() + size(), impl->data);
  return Tensor(impl);
}

std::string Tensor::ShapeString() const {
  if (!defined()) return "<undefined>";
  return std::to_string(rows()) + "x" + std::to_string(cols());
}

void Tensor::ZeroGrad() {
  if (!impl_->requires_grad) return;
  std::fill(impl_->grad, impl_->grad + size(), 0.0f);
}

void Tensor::Backward() {
  ZCHECK(defined());
  ZCHECK_EQ(size(), 1) << "Backward() requires a scalar loss";
  if (!impl_->requires_grad) return;  // no recorded graph behind it
  static std::atomic<uint64_t> last_mark{0};
  const uint64_t mark = last_mark.fetch_add(1, std::memory_order_relaxed) + 1;
  // Postorder DFS over the interior nodes (leaves propagate nothing) to get
  // reverse topological order.
  thread_local std::vector<TensorImpl*> order;
  thread_local std::vector<std::pair<TensorImpl*, uint32_t>> stack;
  order.clear();
  stack.clear();
  if (impl_->num_parents > 0) {
    impl_->mark = mark;
    stack.emplace_back(impl_, 0);
  }
  while (!stack.empty()) {
    auto& [node, child_idx] = stack.back();
    if (child_idx < node->num_parents) {
      TensorImpl* parent = node->parent(child_idx);
      ++child_idx;
      if (parent->num_parents > 0 && parent->mark != mark) {
        parent->mark = mark;
        stack.emplace_back(parent, 0);
      }
    } else {
      order.push_back(node);
      stack.pop_back();
    }
  }
  // order is postorder: parents before children; iterate in reverse so each
  // node's grad is complete before it propagates to parents.
  impl_->grad[0] = 1.0f;
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    TensorImpl* node = *it;
    node->backward(*node);
  }
  // Keep the scratch for the next call unless an outsized graph grew it.
  constexpr size_t kKeepScratch = size_t{1} << 16;
  if (order.capacity() > kKeepScratch) {
    order = {};
    stack = {};
  }
}

// ---------------------------------------------------------------------------
// Operators
// ---------------------------------------------------------------------------

namespace {

// a * b rounded to T before it is added anywhere: s starts at zero, so a
// contracted multiply-add rounds it once, as a stored product is.
template <typename T>
inline T RoundedProduct(T a, T b) {
  T s = 0;
  s += a * b;
  return s;
}

// od (n x m, zeroed) += a (n x k) · b (k x m), skipping zero entries of a.
void MatMulInto(const float* ad, const float* bd, float* od, int64_t n,
                int64_t k, int64_t m) {
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t p = 0; p < k; ++p) {
      const float av = ad[i * k + p];
      if (av == 0.0f) continue;
      const float* brow = bd + p * m;
      float* orow = od + i * m;
      for (int64_t j = 0; j < m; ++j) orow[j] += av * brow[j];
    }
  }
}

// out[i] = h_i · q for the n rows of h (n x d), each summed from zero over p
// in order, skipping zero entries of h_i: ScaledRowDots' sums. Eight rows
// at a time run on independent accumulators.
void RowDots(const float* hd, const float* qd, int64_t n, int64_t d,
             float* out) {
  constexpr int64_t kBlock = 8;
  for (int64_t i0 = 0; i0 < n; i0 += kBlock) {
    const int64_t rows = std::min(kBlock, n - i0);
    float acc[kBlock] = {};
    for (int64_t p = 0; p < d; ++p) {
      const float qp = qd[p];
      for (int64_t r = 0; r < rows; ++r) {
        const float av = hd[(i0 + r) * d + p];
        acc[r] = av == 0.0f ? acc[r] : acc[r] + av * qp;
      }
    }
    std::copy(acc, acc + rows, out + i0);
  }
}

// ga (n x k) += g (n x m) · bᵀ for b (k x m): the dA = G · Bᵀ of every
// product op. Entry (i, p) adds g[i,j] · b[p,j] summed from zero over j in
// order, each product rounded before it is added, so the bits do not depend
// on how the compiler vectorizes or contracts the loop. Each row of g
// updates all k sums at once from a transposed copy of b: k independent
// lanes instead of k chains bound by add latency. A single row of g (the
// weight gradients of the weighted sums) reads b in place: there the copy
// would cost as much as the sums.
void AddTimesTransposed(const float* g, const float* b, int64_t n, int64_t k,
                        int64_t m, float* ga) {
  if (n == 1) {
    for (int64_t p = 0; p < k; ++p) {
      const float* brow = b + p * m;
      float s = 0.0f;
      for (int64_t j = 0; j < m; ++j) s += RoundedProduct(g[j], brow[j]);
      ga[p] += s;
    }
    return;
  }
  thread_local std::vector<float> scratch;
  scratch.resize(static_cast<size_t>((m + 1) * k));
  float* __restrict bt = scratch.data();
  float* __restrict acc = bt + m * k;
  for (int64_t p = 0; p < k; ++p) {
    for (int64_t j = 0; j < m; ++j) bt[j * k + p] = b[p * m + j];
  }
  for (int64_t i = 0; i < n; ++i) {
    const float* grow = g + i * m;
    std::fill(acc, acc + k, 0.0f);
    for (int64_t j = 0; j < m; ++j) {
      const float gj = grow[j];
      const float* btrow = bt + j * k;
      for (int64_t p = 0; p < k; ++p) acc[p] += RoundedProduct(gj, btrow[p]);
    }
    float* garow = ga + i * k;
    for (int64_t p = 0; p < k; ++p) garow[p] += acc[p];
  }
}

// Adds the gradients of C = A · B, given dC = g, into A and B.
void MatMulBackward(TensorImpl* ai, TensorImpl* bi, const float* g,
                    int64_t n, int64_t k, int64_t m) {
  if (ai->requires_grad) AddTimesTransposed(g, bi->data, n, k, m, ai->grad);
  if (bi->requires_grad) {
    // dB = A^T · G : (k,n)x(n,m)
    const float* ad2 = ai->data;
    float* gb = bi->grad;
    for (int64_t i = 0; i < n; ++i) {
      const float* grow = g + i * m;
      for (int64_t p = 0; p < k; ++p) {
        const float av = ad2[i * k + p];
        if (av == 0.0f) continue;
        float* gbrow = gb + p * m;
        for (int64_t j = 0; j < m; ++j) gbrow[j] += av * grow[j];
      }
    }
  }
}

}  // namespace

Tensor MatMul(const Tensor& a, const Tensor& b) {
  ZCHECK_EQ(a.cols(), b.rows()) << "MatMul shape mismatch " << a.ShapeString()
                                << " x " << b.ShapeString();
  const int64_t n = a.rows(), k = a.cols(), m = b.cols();
  auto out = MakeImpl(n, m, AnyRequiresGrad(a, b), Fill::kZero);
  MatMulInto(a.data(), b.data(), out->data, n, k, m);
  if (out->requires_grad) {
    Link(out, a, b);
    SetBackward(out, [n, k, m](TensorImpl& self) {
      MatMulBackward(self.parents[0], self.parents[1], self.grad, n, k, m);
    });
  }
  return Tensor(out);
}

Tensor Affine(const Tensor& x, const Tensor& w, const Tensor& b) {
  ZCHECK(x.cols() == w.rows() && b.rows() == 1 && b.cols() == w.cols())
      << "Affine shape mismatch " << x.ShapeString() << " x "
      << w.ShapeString() << " + " << b.ShapeString();
  const int64_t n = x.rows(), k = x.cols(), m = w.cols();
  const bool requires_grad = AnyRequiresGrad(x, w) || b.requires_grad();
  auto out =
      MakeImpl(n, m, requires_grad, Fill::kZero, 0, requires_grad ? 3 : 0);
  float* od = out->data;
  MatMulInto(x.data(), w.data(), od, n, k, m);
  const float* bd = b.data();
  for (int64_t i = 0; i < n; ++i)
    for (int64_t j = 0; j < m; ++j) od[i * m + j] = od[i * m + j] + bd[j];
  if (out->requires_grad) {
    Link(out, x, w);
    AddParent(out, b);
    // The bias first: in the chain the sum node fed it before the product
    // node below it propagated.
    SetBackward(out, [n, k, m](TensorImpl& self) {
      TensorImpl* bi = self.parent(2);
      const float* g = self.grad;
      if (bi->requires_grad) {
        for (int64_t i = 0; i < n; ++i)
          for (int64_t j = 0; j < m; ++j) bi->grad[j] += g[i * m + j];
      }
      MatMulBackward(self.parents[0], self.parents[1], g, n, k, m);
    });
  }
  return Tensor(out);
}

Tensor ConcatMatVec(std::span<const Tensor> parts, const Tensor& v) {
  ZCHECK(!parts.empty());
  int64_t k = 1, width = 0;
  bool requires_grad = v.requires_grad();
  for (const Tensor& p : parts) {
    k = std::max(k, p.rows());
    width += p.cols();
    requires_grad = requires_grad || p.requires_grad();
  }
  ZCHECK(v.rows() == width && v.cols() == 1)
      << "ConcatMatVec: " << width << " concatenated columns vs "
      << v.ShapeString();
  for (const Tensor& p : parts) {
    ZCHECK(p.rows() == 1 || p.rows() == k)
        << "ConcatMatVec part " << p.ShapeString() << " in " << k << " rows";
  }
  auto out = MakeImpl(k, 1, requires_grad, Fill::kZero, 0,
                      requires_grad ? parts.size() + 1 : 0);
  const float* vd = v.data();
  for (int64_t i = 0; i < k; ++i) {
    int64_t off = 0;
    for (const Tensor& p : parts) {
      const int64_t c = p.cols();
      const float* prow = p.data() + (p.rows() == 1 ? 0 : i * c);
      for (int64_t j = 0; j < c; ++j) {
        const float av = prow[j];
        if (av == 0.0f) continue;
        out->data[i] += av * vd[off + j];
      }
      off += c;
    }
  }
  if (out->requires_grad) {
    Link(out, parts);
    AddParent(out, v);
    // v first, then the parts from the last to the first: the order in
    // which the chain's product, concatenation and tiling nodes propagate.
    SetBackward(out, [k, width](TensorImpl& self) {
      const uint32_t num_parts = self.num_parents - 1;
      TensorImpl* vi = self.parent(num_parts);
      const float* g = self.grad;
      if (vi->requires_grad) {
        for (int64_t i = 0; i < k; ++i) {
          int64_t off = 0;
          for (uint32_t q = 0; q < num_parts; ++q) {
            const TensorImpl* pi = self.parent(q);
            const float* prow = pi->data + (pi->rows == 1 ? 0 : i * pi->cols);
            for (int64_t j = 0; j < pi->cols; ++j) {
              const float av = prow[j];
              if (av == 0.0f) continue;
              vi->grad[off + j] += av * g[i];
            }
            off += pi->cols;
          }
        }
      }
      int64_t off = width;
      for (uint32_t q = num_parts; q-- > 0;) {
        TensorImpl* pi = self.parent(q);
        const int64_t c = pi->cols;
        off -= c;
        if (!pi->requires_grad) continue;
        // Each product is rounded before it is added (s starts at zero),
        // as the chain's product node stored it in its input's gradient.
        for (int64_t i = 0; i < k; ++i) {
          float* prow = pi->grad + (pi->rows == 1 ? 0 : i * c);
          for (int64_t j = 0; j < c; ++j) {
            float s = 0.0f;
            s += g[i] * vi->data[off + j];
            prow[j] += s;
          }
        }
      }
    });
  }
  return Tensor(out);
}

Tensor Add(const Tensor& a, const Tensor& b) {
  const bool same = a.rows() == b.rows() && a.cols() == b.cols();
  const bool row_bcast = b.rows() == 1 && b.cols() == a.cols();
  const bool scalar_bcast = b.size() == 1;
  ZCHECK(same || row_bcast || scalar_bcast)
      << "Add shape mismatch " << a.ShapeString() << " + " << b.ShapeString();
  auto out = MakeImpl(a.rows(), a.cols(), AnyRequiresGrad(a, b));
  const float* ad = a.data();
  const float* bd = b.data();
  float* od = out->data;
  const int64_t n = a.rows(), m = a.cols();
  if (same) {
    for (int64_t i = 0; i < n * m; ++i) od[i] = ad[i] + bd[i];
  } else if (row_bcast) {
    for (int64_t i = 0; i < n; ++i)
      for (int64_t j = 0; j < m; ++j) od[i * m + j] = ad[i * m + j] + bd[j];
  } else {
    const float s = bd[0];
    for (int64_t i = 0; i < n * m; ++i) od[i] = ad[i] + s;
  }
  if (out->requires_grad) {
    Link(out, a, b);
    SetBackward(out, [same, row_bcast, n, m](TensorImpl& self) {
      TensorImpl* ai = self.parents[0];
      TensorImpl* bi = self.parents[1];
      const float* g = self.grad;
      if (ai->requires_grad) Accumulate(ai, g, n * m);
      if (bi->requires_grad) {
        float* gb = bi->grad;
        if (same) {
          for (int64_t i = 0; i < n * m; ++i) gb[i] += g[i];
        } else if (row_bcast) {
          for (int64_t i = 0; i < n; ++i)
            for (int64_t j = 0; j < m; ++j) gb[j] += g[i * m + j];
        } else {
          float s = 0.0f;
          for (int64_t i = 0; i < n * m; ++i) s += g[i];
          gb[0] += s;
        }
      }
    });
  }
  return Tensor(out);
}

Tensor Sub(const Tensor& a, const Tensor& b) {
  ZCHECK(a.rows() == b.rows() && a.cols() == b.cols())
      << "Sub shape mismatch " << a.ShapeString() << " - " << b.ShapeString();
  auto out = MakeImpl(a.rows(), a.cols(), AnyRequiresGrad(a, b));
  const int64_t n = a.size();
  for (int64_t i = 0; i < n; ++i) out->data[i] = a.data()[i] - b.data()[i];
  if (out->requires_grad) {
    Link(out, a, b);
    SetBackward(out, [n](TensorImpl& self) {
      TensorImpl* ai = self.parents[0];
      TensorImpl* bi = self.parents[1];
      const float* g = self.grad;
      if (ai->requires_grad) Accumulate(ai, g, n);
      if (bi->requires_grad) {
        for (int64_t i = 0; i < n; ++i) bi->grad[i] -= g[i];
      }
    });
  }
  return Tensor(out);
}

Tensor Mul(const Tensor& a, const Tensor& b) {
  const bool same = a.rows() == b.rows() && a.cols() == b.cols();
  const bool col_bcast = b.cols() == 1 && b.rows() == a.rows();
  ZCHECK(same || col_bcast)
      << "Mul shape mismatch " << a.ShapeString() << " * " << b.ShapeString();
  auto out = MakeImpl(a.rows(), a.cols(), AnyRequiresGrad(a, b));
  const int64_t n = a.rows(), m = a.cols();
  const float* ad = a.data();
  const float* bd = b.data();
  float* od = out->data;
  if (same) {
    for (int64_t i = 0; i < n * m; ++i) od[i] = ad[i] * bd[i];
  } else {
    for (int64_t i = 0; i < n; ++i)
      for (int64_t j = 0; j < m; ++j) od[i * m + j] = ad[i * m + j] * bd[i];
  }
  if (out->requires_grad) {
    Link(out, a, b);
    SetBackward(out, [same, n, m](TensorImpl& self) {
      TensorImpl* ai = self.parents[0];
      TensorImpl* bi = self.parents[1];
      const float* g = self.grad;
      const float* ad2 = ai->data;
      const float* bd2 = bi->data;
      if (ai->requires_grad) {
        float* ga = ai->grad;
        if (same) {
          for (int64_t i = 0; i < n * m; ++i) ga[i] += g[i] * bd2[i];
        } else {
          for (int64_t i = 0; i < n; ++i)
            for (int64_t j = 0; j < m; ++j) ga[i * m + j] += g[i * m + j] * bd2[i];
        }
      }
      if (bi->requires_grad) {
        float* gb = bi->grad;
        if (same) {
          for (int64_t i = 0; i < n * m; ++i) gb[i] += g[i] * ad2[i];
        } else {
          for (int64_t i = 0; i < n; ++i) {
            float s = 0.0f;
            for (int64_t j = 0; j < m; ++j) s += g[i * m + j] * ad2[i * m + j];
            gb[i] += s;
          }
        }
      }
    });
  }
  return Tensor(out);
}

Tensor Scale(const Tensor& a, float s) {
  auto out = MakeImpl(a.rows(), a.cols(), a.requires_grad());
  const int64_t n = a.size();
  for (int64_t i = 0; i < n; ++i) out->data[i] = a.data()[i] * s;
  if (out->requires_grad) {
    Link(out, a);
    SetBackward(out, [s, n](TensorImpl& self) {
      TensorImpl* ai = self.parents[0];
      for (int64_t i = 0; i < n; ++i) ai->grad[i] += self.grad[i] * s;
    });
  }
  return Tensor(out);
}

Tensor AddScalar(const Tensor& a, float s) {
  auto out = MakeImpl(a.rows(), a.cols(), a.requires_grad());
  const int64_t n = a.size();
  for (int64_t i = 0; i < n; ++i) out->data[i] = a.data()[i] + s;
  if (out->requires_grad) {
    Link(out, a);
    SetBackward(out, [n](TensorImpl& self) {
      TensorImpl* ai = self.parents[0];
      Accumulate(ai, self.grad, n);
    });
  }
  return Tensor(out);
}

namespace {

template <typename FwdFn, typename BwdFn>
Tensor ElementwiseUnary(const Tensor& a, FwdFn fwd, BwdFn bwd_from_out) {
  auto out = MakeImpl(a.rows(), a.cols(), a.requires_grad());
  const int64_t n = a.size();
  for (int64_t i = 0; i < n; ++i) out->data[i] = fwd(a.data()[i]);
  if (out->requires_grad) {
    Link(out, a);
    SetBackward(out, [n, bwd_from_out](TensorImpl& self) {
      TensorImpl* ai = self.parents[0];
      for (int64_t i = 0; i < n; ++i) {
        ai->grad[i] +=
            self.grad[i] * bwd_from_out(self.data[i], ai->data[i]);
      }
    });
  }
  return Tensor(out);
}

}  // namespace

Tensor Sigmoid(const Tensor& a) {
  return ElementwiseUnary(
      a,
      [](float x) {
        return x >= 0 ? 1.0f / (1.0f + std::exp(-x))
                      : std::exp(x) / (1.0f + std::exp(x));
      },
      [](float y, float /*x*/) { return y * (1.0f - y); });
}

namespace {

int32_t Bits(float x) { return std::bit_cast<int32_t>(x); }

// tanh(x) correctly rounded to float (checked against double std::tanh over
// every float), so odd and non-decreasing, and NaN for NaN. It evaluates
// tanh(a) = m/(m + 2), m = e^{2a} − 1, in double for a = |x| clamped at 10
// (tanh is 1 in float from 9.02 on, and e^20 is far from overflow):
// e^t − 1 = 2^n·(e^r − 1) + (2^n − 1) for n = round(t/ln2), with e^r − 1 by
// its Taylor polynomial through r^12 on |r| <= ln2/2. Nothing cancels, so
// one formula serves tiny and large x alike. Every product is rounded in
// source, so a float gives the same bits on every ISA and with every libm,
// and nothing branches (NaN is picked by an integer mask on the bits of a,
// which order like the values with NaN above infinity), so a loop over it
// vectorizes.
float TanhKernel(float x) {
  const int32_t abits = Bits(std::fabs(x));
  const double a = std::bit_cast<float>(std::min(abits, Bits(10.0f)));
  const double t = a + a;
  // Adding 1.5·2^52 rounds to an integer n, held in the low bits.
  constexpr double kToInteger = 6755399441055744.0;
  const double n_biased = RoundedProduct(t, 1.4426950408889634) + kToInteger;
  const double n = n_biased - kToInteger;
  // ln2 in two parts; n times the first, with 32 trailing zero bits, is exact.
  const double r = (t - RoundedProduct(n, 6.93147180369123816490e-01)) -
                   RoundedProduct(n, 1.90821492927058770002e-10);
  double q = 1.0 / 479001600.0;  // 1/12!
  for (double c : {1.0 / 39916800.0, 1.0 / 3628800.0, 1.0 / 362880.0,
                   1.0 / 40320.0, 1.0 / 5040.0, 1.0 / 720.0, 1.0 / 120.0,
                   1.0 / 24.0, 1.0 / 6.0, 0.5}) {
    q = RoundedProduct(q, r) + c;
  }
  const double expm1_r = RoundedProduct(q, RoundedProduct(r, r)) + r;
  const double two_n = std::bit_cast<double>(
      (std::bit_cast<uint64_t>(n_biased) + 1023) << 52);
  const double m = RoundedProduct(two_n, expm1_r) + (two_n - 1.0);
  const int32_t magnitude = Bits(static_cast<float>(m / (m + 2.0)));

  const int32_t is_nan =
      (Bits(std::numeric_limits<float>::infinity()) - abits) >> 31;
  const int32_t xbits = Bits(x);
  return std::bit_cast<float>(
      ((magnitude | (xbits & std::numeric_limits<int32_t>::min())) &
       ~is_nan) |
      (xbits & is_nan));
}

}  // namespace

Tensor Tanh(const Tensor& a) {
  return ElementwiseUnary(a, [](float x) { return TanhKernel(x); },
                          [](float y, float /*x*/) { return 1.0f - y * y; });
}

Tensor Relu(const Tensor& a) {
  return ElementwiseUnary(a, [](float x) { return x > 0 ? x : 0.0f; },
                          [](float /*y*/, float x) { return x > 0 ? 1.0f : 0.0f; });
}

Tensor LeakyRelu(const Tensor& a, float slope) {
  return ElementwiseUnary(
      a, [slope](float x) { return x > 0 ? x : slope * x; },
      [slope](float /*y*/, float x) { return x > 0 ? 1.0f : slope; });
}

Tensor Exp(const Tensor& a) {
  return ElementwiseUnary(a, [](float x) { return std::exp(x); },
                          [](float y, float /*x*/) { return y; });
}

Tensor Log(const Tensor& a, float eps) {
  return ElementwiseUnary(a, [eps](float x) { return std::log(x + eps); },
                          [eps](float /*y*/, float x) { return 1.0f / (x + eps); });
}

namespace {

// Numerically stable softmax of one row of m entries.
void SoftmaxRow(const float* row, float* orow, int64_t m) {
  float mx = row[0];
  for (int64_t j = 1; j < m; ++j) mx = std::max(mx, row[j]);
  float sum = 0.0f;
  for (int64_t j = 0; j < m; ++j) {
    orow[j] = std::exp(row[j] - mx);
    sum += orow[j];
  }
  for (int64_t j = 0; j < m; ++j) orow[j] /= sum;
}

}  // namespace

Tensor SoftmaxRows(const Tensor& a) {
  auto out = MakeImpl(a.rows(), a.cols(), a.requires_grad());
  const int64_t n = a.rows(), m = a.cols();
  for (int64_t i = 0; i < n; ++i) {
    SoftmaxRow(a.data() + i * m, out->data + i * m, m);
  }
  if (out->requires_grad) {
    Link(out, a);
    SetBackward(out, [n, m](TensorImpl& self) {
      TensorImpl* ai = self.parents[0];
      const float* y = self.data;
      const float* g = self.grad;
      float* ga = ai->grad;
      for (int64_t i = 0; i < n; ++i) {
        float dot = 0.0f;
        for (int64_t j = 0; j < m; ++j) dot += g[i * m + j] * y[i * m + j];
        for (int64_t j = 0; j < m; ++j) {
          ga[i * m + j] += y[i * m + j] * (g[i * m + j] - dot);
        }
      }
    });
  }
  return Tensor(out);
}

Tensor SoftmaxColumn(const Tensor& col) {
  const int64_t offsets[] = {0, col.rows()};
  return SegmentSoftmax(col, offsets);
}

Tensor Transpose(const Tensor& a) {
  auto out = MakeImpl(a.cols(), a.rows(), a.requires_grad());
  const int64_t n = a.rows(), m = a.cols();
  for (int64_t i = 0; i < n; ++i)
    for (int64_t j = 0; j < m; ++j) out->data[j * n + i] = a.data()[i * m + j];
  if (out->requires_grad) {
    Link(out, a);
    SetBackward(out, [n, m](TensorImpl& self) {
      TensorImpl* ai = self.parents[0];
      for (int64_t i = 0; i < n; ++i)
        for (int64_t j = 0; j < m; ++j)
          ai->grad[i * m + j] += self.grad[j * n + i];
    });
  }
  return Tensor(out);
}

Tensor ConcatCols(const Tensor& a, const Tensor& b) {
  ZCHECK_EQ(a.rows(), b.rows());
  const int64_t n = a.rows(), ma = a.cols(), mb = b.cols();
  auto out = MakeImpl(n, ma + mb, AnyRequiresGrad(a, b));
  for (int64_t i = 0; i < n; ++i) {
    std::copy(a.data() + i * ma, a.data() + (i + 1) * ma,
              out->data + i * (ma + mb));
    std::copy(b.data() + i * mb, b.data() + (i + 1) * mb,
              out->data + i * (ma + mb) + ma);
  }
  if (out->requires_grad) {
    Link(out, a, b);
    SetBackward(out, [n, ma, mb](TensorImpl& self) {
      TensorImpl* ai = self.parents[0];
      TensorImpl* bi = self.parents[1];
      const float* g = self.grad;
      if (ai->requires_grad) {
        for (int64_t i = 0; i < n; ++i)
          for (int64_t j = 0; j < ma; ++j)
            ai->grad[i * ma + j] += g[i * (ma + mb) + j];
      }
      if (bi->requires_grad) {
        for (int64_t i = 0; i < n; ++i)
          for (int64_t j = 0; j < mb; ++j)
            bi->grad[i * mb + j] += g[i * (ma + mb) + ma + j];
      }
    });
  }
  return Tensor(out);
}

Tensor ConcatRows(const Tensor& a, const Tensor& b) {
  ZCHECK_EQ(a.cols(), b.cols());
  const int64_t na = a.rows(), nb = b.rows(), m = a.cols();
  auto out = MakeImpl(na + nb, m, AnyRequiresGrad(a, b));
  std::copy(a.data(), a.data() + na * m, out->data);
  std::copy(b.data(), b.data() + nb * m, out->data + na * m);
  if (out->requires_grad) {
    Link(out, a, b);
    SetBackward(out, [na, nb, m](TensorImpl& self) {
      TensorImpl* ai = self.parents[0];
      TensorImpl* bi = self.parents[1];
      if (ai->requires_grad) Accumulate(ai, self.grad, na * m);
      if (bi->requires_grad)
        Accumulate(bi, self.grad + na * m, nb * m);
    });
  }
  return Tensor(out);
}

Tensor StackRows(std::span<const Tensor> rows) {
  ZCHECK(!rows.empty());
  if (rows.size() == 1) return rows[0];
  const int64_t m = rows[0].cols();
  int64_t n = 0;
  bool requires_grad = false;
  for (const Tensor& r : rows) {
    ZCHECK_EQ(r.cols(), m);
    n += r.rows();
    requires_grad = requires_grad || r.requires_grad();
  }
  auto out = MakeImpl(n, m, requires_grad, Fill::kNone, 0,
                      requires_grad ? rows.size() : 0);
  float* od = out->data;
  for (const Tensor& r : rows) od = std::copy(r.data(), r.data() + r.size(), od);
  if (out->requires_grad) {
    Link(out, rows);
    // The chain's ConcatRows nodes reach the rows from the last down to the
    // third, then the first and the second: add in that order, which fixes
    // the sums when one tensor fills several rows.
    SetBackward(out, [](TensorImpl& self) {
      const float* g = self.grad + self.size();
      for (uint32_t i = self.num_parents; i-- > 2;) {
        TensorImpl* ri = self.parent(i);
        g -= ri->size();
        if (ri->requires_grad) Accumulate(ri, g, ri->size());
      }
      TensorImpl* r0 = self.parents[0];
      TensorImpl* r1 = self.parents[1];
      if (r0->requires_grad) Accumulate(r0, self.grad, r0->size());
      if (r1->requires_grad) Accumulate(r1, self.grad + r0->size(), r1->size());
    });
  }
  return Tensor(out);
}

Tensor SumAll(const Tensor& a) {
  auto out = MakeImpl(1, 1, a.requires_grad());
  float s = 0.0f;
  const int64_t n = a.size();
  for (int64_t i = 0; i < n; ++i) s += a.data()[i];
  out->data[0] = s;
  if (out->requires_grad) {
    Link(out, a);
    SetBackward(out, [n](TensorImpl& self) {
      TensorImpl* ai = self.parents[0];
      const float g = self.grad[0];
      for (int64_t i = 0; i < n; ++i) ai->grad[i] += g;
    });
  }
  return Tensor(out);
}

Tensor MeanAll(const Tensor& a) {
  return Scale(SumAll(a), 1.0f / static_cast<float>(a.size()));
}

Tensor SumRowsTo1(const Tensor& a) {
  const int64_t n = a.rows(), m = a.cols();
  auto out = MakeImpl(n, 1, a.requires_grad());
  for (int64_t i = 0; i < n; ++i) {
    float s = 0.0f;
    for (int64_t j = 0; j < m; ++j) s += a.data()[i * m + j];
    out->data[i] = s;
  }
  if (out->requires_grad) {
    Link(out, a);
    SetBackward(out, [n, m](TensorImpl& self) {
      TensorImpl* ai = self.parents[0];
      for (int64_t i = 0; i < n; ++i)
        for (int64_t j = 0; j < m; ++j) ai->grad[i * m + j] += self.grad[i];
    });
  }
  return Tensor(out);
}

Tensor MeanRows(const Tensor& a) {
  const int64_t n = a.rows(), m = a.cols();
  auto out = MakeImpl(1, m, a.requires_grad());
  for (int64_t j = 0; j < m; ++j) {
    float s = 0.0f;
    for (int64_t i = 0; i < n; ++i) s += a.data()[i * m + j];
    out->data[j] = s / static_cast<float>(n);
  }
  if (out->requires_grad) {
    Link(out, a);
    SetBackward(out, [n, m](TensorImpl& self) {
      TensorImpl* ai = self.parents[0];
      const float inv = 1.0f / static_cast<float>(n);
      for (int64_t i = 0; i < n; ++i)
        for (int64_t j = 0; j < m; ++j)
          ai->grad[i * m + j] += self.grad[j] * inv;
    });
  }
  return Tensor(out);
}

Tensor ColSum(const Tensor& a) {
  const int64_t n = a.rows(), m = a.cols();
  auto out = MakeImpl(1, m, a.requires_grad(), Fill::kZero);
  for (int64_t p = 0; p < n; ++p) {
    const float* arow = a.data() + p * m;
    for (int64_t j = 0; j < m; ++j) out->data[j] += arow[j];
  }
  if (out->requires_grad) {
    Link(out, a);
    SetBackward(out, [n, m](TensorImpl& self) {
      TensorImpl* ai = self.parents[0];
      for (int64_t p = 0; p < n; ++p) {
        float* ga = ai->grad + p * m;
        for (int64_t j = 0; j < m; ++j) ga[j] += self.grad[j];
      }
    });
  }
  return Tensor(out);
}

Tensor WeightedSumRows(const Tensor& w, const Tensor& z) {
  ZCHECK(w.cols() == 1 && w.rows() == z.rows())
      << "WeightedSumRows shape mismatch " << w.ShapeString() << " vs "
      << z.ShapeString();
  const int64_t k = z.rows(), m = z.cols();
  auto out = MakeImpl(1, m, AnyRequiresGrad(w, z), Fill::kZero);
  const float* wd = w.data();
  const float* zd = z.data();
  float* od = out->data;
  for (int64_t p = 0; p < k; ++p) {
    const float av = wd[p];
    if (av == 0.0f) continue;
    const float* zrow = zd + p * m;
    for (int64_t j = 0; j < m; ++j) od[j] += av * zrow[j];
  }
  if (out->requires_grad) {
    Link(out, w, z);
    // z's gradient first: in the chain the product node fed z directly and
    // w only through the transpose after it.
    SetBackward(out, [k, m](TensorImpl& self) {
      TensorImpl* wi = self.parents[0];
      TensorImpl* zi = self.parents[1];
      const float* g = self.grad;
      if (zi->requires_grad) {
        for (int64_t p = 0; p < k; ++p) {
          const float av = wi->data[p];
          if (av == 0.0f) continue;
          float* gz = zi->grad + p * m;
          for (int64_t j = 0; j < m; ++j) gz[j] += av * g[j];
        }
      }
      // w's gradient is the chain's dA of Transpose(w) · z.
      if (wi->requires_grad) {
        AddTimesTransposed(g, zi->data, 1, k, m, wi->grad);
      }
    });
  }
  return Tensor(out);
}

Tensor ScaledRowDots(const Tensor& h, const Tensor& q, float scale) {
  ZCHECK(q.rows() == 1 && q.cols() == h.cols())
      << "ScaledRowDots shape mismatch " << h.ShapeString() << " vs "
      << q.ShapeString();
  const int64_t n = h.rows(), d = h.cols();
  const bool requires_grad = AnyRequiresGrad(h, q);
  // Backward sums q's gradient in the block before adding it, as the
  // transposed q's own gradient did in the chain.
  auto out = MakeImpl(n, 1, requires_grad, Fill::kNone,
                      requires_grad ? d * sizeof(float) : 0);
  float* od = out->data;
  RowDots(h.data(), q.data(), n, d, od);
  for (int64_t i = 0; i < n; ++i) od[i] = od[i] * scale;
  if (out->requires_grad) {
    Link(out, h, q);
    SetBackward(out, [n, d, scale](TensorImpl& self) {
      TensorImpl* hi = self.parents[0];
      TensorImpl* qi = self.parents[1];
      const float* g = self.grad;
      // Each product is rounded before it is added (s starts at zero), as
      // the chain's one-column product did.
      if (hi->requires_grad) {
        for (int64_t i = 0; i < n; ++i) {
          const float gi = g[i] * scale;
          float* gh = hi->grad + i * d;
          for (int64_t p = 0; p < d; ++p) {
            float s = 0.0f;
            s += gi * qi->data[p];
            gh[p] += s;
          }
        }
      }
      if (qi->requires_grad) {
        float* gq = static_cast<float*>(self.aux);
        std::fill(gq, gq + d, 0.0f);
        for (int64_t i = 0; i < n; ++i) {
          const float gi = g[i] * scale;
          for (int64_t p = 0; p < d; ++p) {
            const float av = hi->data[i * d + p];
            if (av == 0.0f) continue;
            gq[p] += av * gi;
          }
        }
        Accumulate(qi, gq, d);
      }
    });
  }
  return Tensor(out);
}

Tensor Rows(const Tensor& a, const std::vector<int64_t>& idx) {
  ZCHECK(!idx.empty());
  const int64_t m = a.cols();
  const size_t count = idx.size();
  auto out = MakeImpl(static_cast<int64_t>(count), m, a.requires_grad(),
                      Fill::kNone,
                      a.requires_grad() ? count * sizeof(int64_t) : 0);
  for (size_t r = 0; r < idx.size(); ++r) {
    ZCHECK(idx[r] >= 0 && idx[r] < a.rows())
        << "row index " << idx[r] << " out of range " << a.rows();
    std::copy(a.data() + idx[r] * m, a.data() + (idx[r] + 1) * m,
              out->data + static_cast<int64_t>(r) * m);
  }
  if (out->requires_grad) {
    std::copy(idx.begin(), idx.end(), static_cast<int64_t*>(out->aux));
    Link(out, a);
    SetBackward(out, [count, m](TensorImpl& self) {
      TensorImpl* ai = self.parents[0];
      const int64_t* indices = static_cast<const int64_t*>(self.aux);
      for (size_t r = 0; r < count; ++r) {
        const float* g = self.grad + static_cast<int64_t>(r) * m;
        float* ga = ai->grad + indices[r] * m;
        for (int64_t j = 0; j < m; ++j) ga[j] += g[j];
      }
    });
  }
  return Tensor(out);
}

Tensor GatherRows(std::span<const Tensor> tables, std::span<const int> table_of,
                  std::span<const int64_t> ids) {
  ZCHECK(!tables.empty() && !ids.empty());
  ZCHECK_EQ(table_of.size(), ids.size());
  const int64_t n = static_cast<int64_t>(ids.size());
  const int64_t m = tables[0].cols();
  bool requires_grad = false;
  for (const Tensor& t : tables) {
    ZCHECK_EQ(t.cols(), m);
    requires_grad = requires_grad || t.requires_grad();
  }
  // Backward reads a copy of the (table, row) pairs kept in the block.
  const size_t pair_bytes = static_cast<size_t>(n) * sizeof(int64_t) * 2;
  auto out = MakeImpl(n, m, requires_grad, Fill::kNone,
                      requires_grad ? pair_bytes : 0,
                      requires_grad ? tables.size() : 0);
  for (int64_t i = 0; i < n; ++i) {
    ZCHECK(table_of[i] >= 0 &&
           table_of[i] < static_cast<int>(tables.size()));
    const Tensor& t = tables[table_of[i]];
    ZCHECK(ids[i] >= 0 && ids[i] < t.rows())
        << "row index " << ids[i] << " out of range " << t.rows();
    std::copy(t.data() + ids[i] * m, t.data() + (ids[i] + 1) * m,
              out->data + i * m);
  }
  if (out->requires_grad) {
    int64_t* pairs = static_cast<int64_t*>(out->aux);
    for (int64_t i = 0; i < n; ++i) {
      pairs[2 * i] = table_of[i];
      pairs[2 * i + 1] = ids[i];
    }
    Link(out, tables);
    SetBackward(out, [n, m](TensorImpl& self) {
      const int64_t* pairs = static_cast<const int64_t*>(self.aux);
      for (int64_t i = n; i-- > 0;) {
        TensorImpl* ti = self.parent(static_cast<uint32_t>(pairs[2 * i]));
        if (!ti->requires_grad) continue;
        const float* g = self.grad + i * m;
        float* ga = ti->grad + pairs[2 * i + 1] * m;
        for (int64_t j = 0; j < m; ++j) ga[j] += g[j];
      }
    });
  }
  return Tensor(out);
}

// ----------------------------------------------------------- segmented ---

namespace {

// Checks that `offsets` splits `rows` rows into segments; returns how many.
int64_t CheckSegments(std::span<const int64_t> offsets, int64_t rows,
                      const char* op) {
  ZCHECK(offsets.size() >= 2 && offsets.front() == 0 &&
         offsets.back() == rows)
      << op << ": offsets must run from 0 to " << rows;
  for (size_t s = 1; s < offsets.size(); ++s) {
    ZCHECK_LE(offsets[s - 1], offsets[s]) << op << ": offsets decrease";
  }
  return static_cast<int64_t>(offsets.size()) - 1;
}

size_t OffsetsBytes(int64_t segments) {
  return static_cast<size_t>(segments + 1) * sizeof(int64_t);
}

// Copies the offsets to the head of out's aux block, where backward reads
// them; returns the first byte after them.
void* SaveOffsets(TensorImpl* out, std::span<const int64_t> offsets) {
  int64_t* saved = static_cast<int64_t*>(out->aux);
  std::copy(offsets.begin(), offsets.end(), saved);
  return saved + offsets.size();
}

}  // namespace

Tensor SegmentFocalPool(const Tensor& h, const Tensor& q,
                        std::span<const int64_t> offsets, float scale) {
  ZCHECK(q.rows() == 1 && q.cols() == h.cols())
      << "SegmentFocalPool shape mismatch " << h.ShapeString() << " vs "
      << q.ShapeString();
  const int64_t n = h.rows(), d = h.cols();
  const int64_t segs = CheckSegments(offsets, n, "SegmentFocalPool");
  const bool requires_grad = AnyRequiresGrad(h, q);
  // The block keeps the offsets, the attention weights (n), scratch for the
  // scores and later their gradients (n) and for q's gradient (d).
  auto out = MakeImpl(segs, d, requires_grad, Fill::kZero,
                      OffsetsBytes(segs) + (2 * n + d) * sizeof(float));
  float* alpha = static_cast<float*>(SaveOffsets(out, offsets));
  float* scores = alpha + n;
  const float* hd = h.data();
  // ScaledRowDots, SoftmaxColumn per segment, then the weighted rows summed
  // from zero in row order with each product rounded, as Mul stored it
  // before ColSum added it.
  RowDots(hd, q.data(), n, d, scores);
  for (int64_t i = 0; i < n; ++i) scores[i] = scores[i] * scale;
  for (int64_t s = 0; s < segs; ++s) {
    const int64_t b = offsets[s], e = offsets[s + 1];
    if (b < e) SoftmaxRow(scores + b, alpha + b, e - b);
    float* orow = out->data + s * d;
    for (int64_t i = b; i < e; ++i) {
      const float* hrow = hd + i * d;
      for (int64_t j = 0; j < d; ++j) {
        orow[j] += RoundedProduct(hrow[j], alpha[i]);
      }
    }
  }
  if (out->requires_grad) {
    Link(out, h, q);
    // Each segment runs the backward of its chain (ColSum, Mul,
    // SoftmaxColumn, ScaledRowDots) on a zeroed gradient of its rows, which
    // is then added into h, as the chain's row gather did. Segments go from
    // the last to the first, the order in which the chains add into q.
    SetBackward(out, [segs, scale](TensorImpl& self) {
      TensorImpl* hi = self.parents[0];
      TensorImpl* qi = self.parents[1];
      const int64_t n = hi->rows, d = hi->cols;
      int64_t* off = static_cast<int64_t*>(self.aux);
      float* alpha = reinterpret_cast<float*>(off + segs + 1);
      float* ds = alpha + n;  // the weights', then the scores' gradients
      float* gq = ds + n;
      const float* qd = qi->data;
      thread_local std::vector<float> gh;
      for (int64_t s = segs; s-- > 0;) {
        const int64_t b = off[s], k = off[s + 1] - b;
        if (k == 0) continue;
        const float* g = self.grad + s * d;
        const float* hs = hi->data + b * d;
        const float* y = alpha + b;
        float* dy = ds + b;
        gh.assign(static_cast<size_t>(k * d), 0.0f);
        for (int64_t i = 0; i < k; ++i) {
          for (int64_t j = 0; j < d; ++j) gh[i * d + j] += g[j] * y[i];
        }
        for (int64_t i = 0; i < k; ++i) {
          float acc = 0.0f;
          for (int64_t j = 0; j < d; ++j) acc += g[j] * hs[i * d + j];
          dy[i] = acc;
        }
        float dot = 0.0f;
        for (int64_t j = 0; j < k; ++j) dot += dy[j] * y[j];
        for (int64_t j = 0; j < k; ++j) {
          dy[j] = RoundedProduct(y[j], dy[j] - dot);
        }
        for (int64_t i = 0; i < k; ++i) {
          const float gi = dy[i] * scale;
          for (int64_t p = 0; p < d; ++p) {
            gh[i * d + p] += RoundedProduct(gi, qd[p]);
          }
        }
        if (qi->requires_grad) {
          std::fill(gq, gq + d, 0.0f);
          for (int64_t i = 0; i < k; ++i) {
            const float gi = dy[i] * scale;
            for (int64_t p = 0; p < d; ++p) {
              const float av = hs[i * d + p];
              if (av == 0.0f) continue;
              gq[p] += av * gi;
            }
          }
          Accumulate(qi, gq, d);
        }
        if (hi->requires_grad) Accumulate(hi, gh.data(), k * d, b * d);
      }
    });
  }
  return Tensor(out);
}

Tensor SegmentMean(const Tensor& a, std::span<const int64_t> offsets) {
  const int64_t n = a.rows(), m = a.cols();
  const int64_t segs = CheckSegments(offsets, n, "SegmentMean");
  auto out = MakeImpl(segs, m, a.requires_grad(), Fill::kNone,
                      a.requires_grad() ? OffsetsBytes(segs) : 0);
  const float* ad = a.data();
  for (int64_t s = 0; s < segs; ++s) {
    const int64_t b = offsets[s], e = offsets[s + 1];
    float* orow = out->data + s * m;
    for (int64_t j = 0; j < m; ++j) {
      float acc = 0.0f;
      for (int64_t i = b; i < e; ++i) acc += ad[i * m + j];
      orow[j] = b < e ? acc / static_cast<float>(e - b) : 0.0f;
    }
  }
  if (out->requires_grad) {
    SaveOffsets(out, offsets);
    Link(out, a);
    // MeanRows' terms are rounded before they are added, as they were into
    // the gradient of the chain's row gather.
    SetBackward(out, [segs, m](TensorImpl& self) {
      TensorImpl* ai = self.parents[0];
      const int64_t* off = static_cast<const int64_t*>(self.aux);
      for (int64_t s = 0; s < segs; ++s) {
        const int64_t b = off[s], e = off[s + 1];
        if (b == e) continue;
        const float inv = 1.0f / static_cast<float>(e - b);
        const float* g = self.grad + s * m;
        for (int64_t i = b; i < e; ++i) {
          float* ga = ai->grad + i * m;
          for (int64_t j = 0; j < m; ++j) ga[j] += RoundedProduct(g[j], inv);
        }
      }
    });
  }
  return Tensor(out);
}

Tensor SegmentSum(const Tensor& a, std::span<const int64_t> offsets) {
  const int64_t n = a.rows(), m = a.cols();
  const int64_t segs = CheckSegments(offsets, n, "SegmentSum");
  auto out = MakeImpl(segs, m, a.requires_grad(), Fill::kZero,
                      a.requires_grad() ? OffsetsBytes(segs) : 0);
  const float* ad = a.data();
  for (int64_t s = 0; s < segs; ++s) {
    const int64_t b = offsets[s], e = offsets[s + 1];
    if (b == e) continue;
    float* orow = out->data + s * m;
    std::copy(ad + b * m, ad + (b + 1) * m, orow);
    for (int64_t i = b + 1; i < e; ++i) {
      for (int64_t j = 0; j < m; ++j) orow[j] = orow[j] + ad[i * m + j];
    }
  }
  if (out->requires_grad) {
    SaveOffsets(out, offsets);
    Link(out, a);
    SetBackward(out, [segs, m](TensorImpl& self) {
      TensorImpl* ai = self.parents[0];
      const int64_t* off = static_cast<const int64_t*>(self.aux);
      for (int64_t s = 0; s < segs; ++s) {
        for (int64_t i = off[s]; i < off[s + 1]; ++i) {
          Accumulate(ai, self.grad + s * m, m, i * m);
        }
      }
    });
  }
  return Tensor(out);
}

Tensor SegmentSoftmax(const Tensor& col, std::span<const int64_t> offsets) {
  ZCHECK_EQ(col.cols(), 1) << "SegmentSoftmax of " << col.ShapeString();
  const int64_t n = col.rows();
  const int64_t segs = CheckSegments(offsets, n, "SegmentSoftmax");
  // Backward rounds its per-entry terms into the block before adding them,
  // as SoftmaxColumn does.
  auto out = MakeImpl(n, 1, col.requires_grad(), Fill::kNone,
                      col.requires_grad()
                          ? OffsetsBytes(segs) + n * sizeof(float)
                          : 0);
  for (int64_t s = 0; s < segs; ++s) {
    const int64_t b = offsets[s], e = offsets[s + 1];
    if (b < e) SoftmaxRow(col.data() + b, out->data + b, e - b);
  }
  if (out->requires_grad) {
    SaveOffsets(out, offsets);
    Link(out, col);
    SetBackward(out, [segs, n](TensorImpl& self) {
      int64_t* off = static_cast<int64_t*>(self.aux);
      float* terms = reinterpret_cast<float*>(off + segs + 1);
      const float* y = self.data;
      const float* g = self.grad;
      for (int64_t s = 0; s < segs; ++s) {
        float dot = 0.0f;
        for (int64_t j = off[s]; j < off[s + 1]; ++j) dot += g[j] * y[j];
        for (int64_t j = off[s]; j < off[s + 1]; ++j) {
          terms[j] = y[j] * (g[j] - dot);
        }
      }
      Accumulate(self.parents[0], terms, n);
    });
  }
  return Tensor(out);
}

Tensor SegmentWeightedSum(const Tensor& w, const Tensor& z,
                          std::span<const int64_t> offsets) {
  ZCHECK(w.cols() == 1 && w.rows() == z.rows())
      << "SegmentWeightedSum shape mismatch " << w.ShapeString() << " vs "
      << z.ShapeString();
  const int64_t n = z.rows(), m = z.cols();
  const int64_t segs = CheckSegments(offsets, n, "SegmentWeightedSum");
  const bool requires_grad = AnyRequiresGrad(w, z);
  auto out = MakeImpl(segs, m, requires_grad, Fill::kZero,
                      requires_grad ? OffsetsBytes(segs) : 0);
  const float* wd = w.data();
  const float* zd = z.data();
  for (int64_t s = 0; s < segs; ++s) {
    float* orow = out->data + s * m;
    for (int64_t p = offsets[s]; p < offsets[s + 1]; ++p) {
      const float av = wd[p];
      if (av == 0.0f) continue;
      const float* zrow = zd + p * m;
      for (int64_t j = 0; j < m; ++j) orow[j] += av * zrow[j];
    }
  }
  if (out->requires_grad) {
    SaveOffsets(out, offsets);
    Link(out, w, z);
    // WeightedSumRows' terms are rounded before they are added, as they
    // were into the gradients of the chain's row gathers.
    SetBackward(out, [segs, m](TensorImpl& self) {
      TensorImpl* wi = self.parents[0];
      TensorImpl* zi = self.parents[1];
      const int64_t* off = static_cast<const int64_t*>(self.aux);
      for (int64_t s = 0; s < segs; ++s) {
        const float* g = self.grad + s * m;
        if (zi->requires_grad) {
          for (int64_t p = off[s]; p < off[s + 1]; ++p) {
            const float av = wi->data[p];
            if (av == 0.0f) continue;
            float* gz = zi->grad + p * m;
            for (int64_t j = 0; j < m; ++j) gz[j] += RoundedProduct(av, g[j]);
          }
        }
        if (wi->requires_grad) {
          AddTimesTransposed(g, zi->data + off[s] * m, 1, off[s + 1] - off[s],
                             m, wi->grad + off[s]);
        }
      }
    });
  }
  return Tensor(out);
}

Tensor SegmentConcatMatVec(const Tensor& per_segment, const Tensor& per_row,
                           const Tensor& shared, const Tensor& v,
                           std::span<const int64_t> offsets) {
  const int64_t n = per_row.rows();
  const int64_t segs = CheckSegments(offsets, n, "SegmentConcatMatVec");
  const int64_t d0 = per_segment.cols(), d1 = per_row.cols(),
                d2 = shared.cols();
  ZCHECK(per_segment.rows() == segs && shared.rows() == 1 &&
         v.rows() == d0 + d1 + d2 && v.cols() == 1)
      << "SegmentConcatMatVec shape mismatch: " << per_segment.ShapeString()
      << " per segment of " << segs << ", " << per_row.ShapeString() << ", "
      << shared.ShapeString() << ", v " << v.ShapeString();
  const bool requires_grad = AnyRequiresGrad(per_segment, per_row) ||
                             AnyRequiresGrad(shared, v);
  auto out = MakeImpl(n, 1, requires_grad, Fill::kNone,
                      requires_grad ? OffsetsBytes(segs) : 0,
                      requires_grad ? 4 : 0);
  // Entry i sums the products of its three parts' entries with v from
  // zero, in column order and skipping zero entries, as ConcatMatVec's row
  // loop does. Eight entries at a time run on independent accumulators.
  constexpr int64_t kBlock = 8;
  const float* vd = v.data();
  int64_t s = 0;  // the segment of the block's current entry
  for (int64_t i0 = 0; i0 < n; i0 += kBlock) {
    const int64_t rows = std::min(kBlock, n - i0);
    const float* parts[3][kBlock];
    for (int64_t r = 0; r < rows; ++r) {
      while (offsets[s + 1] <= i0 + r) ++s;
      parts[0][r] = per_segment.data() + s * d0;
      parts[1][r] = per_row.data() + (i0 + r) * d1;
      parts[2][r] = shared.data();
    }
    float acc[kBlock] = {};
    const int64_t width[3] = {d0, d1, d2};
    for (int q = 0, off = 0; q < 3; off += width[q], ++q) {
      for (int64_t j = 0; j < width[q]; ++j) {
        const float vj = vd[off + j];
        for (int64_t r = 0; r < rows; ++r) {
          const float av = parts[q][r][j];
          acc[r] = av == 0.0f ? acc[r] : acc[r] + av * vj;
        }
      }
    }
    std::copy(acc, acc + rows, out->data + i0);
  }
  if (out->requires_grad) {
    SaveOffsets(out, offsets);
    Link(out, per_segment, per_row);
    Link(out, shared, v);
    // Per segment, from the last to the first (the order in which the
    // chains' nodes propagate): v, then the parts from the last to the
    // first, as ConcatMatVec. The segment's row of per_segment sums its
    // entries' terms first, as the chain's one-row gather did.
    SetBackward(out, [segs](TensorImpl& self) {
      TensorImpl* parts[3] = {self.parent(0), self.parent(1), self.parent(2)};
      TensorImpl* vi = self.parent(3);
      const int64_t* off = static_cast<const int64_t*>(self.aux);
      const int64_t width[3] = {parts[0]->cols, parts[1]->cols,
                                parts[2]->cols};
      const int64_t at[3] = {0, width[0], width[0] + width[1]};
      const float* g = self.grad;
      const float* vd = vi->data;
      thread_local std::vector<float> row_sum;
      for (int64_t s = segs; s-- > 0;) {
        const int64_t b = off[s], e = off[s + 1];
        if (vi->requires_grad) {
          for (int64_t i = b; i < e; ++i) {
            const float* rows[3] = {parts[0]->data + s * width[0],
                                    parts[1]->data + i * width[1],
                                    parts[2]->data};
            for (int q = 0; q < 3; ++q) {
              for (int64_t j = 0; j < width[q]; ++j) {
                const float av = rows[q][j];
                if (av == 0.0f) continue;
                vi->grad[at[q] + j] += av * g[i];
              }
            }
          }
        }
        if (parts[2]->requires_grad) {
          for (int64_t i = b; i < e; ++i) {
            for (int64_t j = 0; j < width[2]; ++j) {
              parts[2]->grad[j] += RoundedProduct(g[i], vd[at[2] + j]);
            }
          }
        }
        if (parts[1]->requires_grad) {
          for (int64_t i = b; i < e; ++i) {
            float* prow = parts[1]->grad + i * width[1];
            for (int64_t j = 0; j < width[1]; ++j) {
              prow[j] += RoundedProduct(g[i], vd[at[1] + j]);
            }
          }
        }
        if (parts[0]->requires_grad && b < e) {
          row_sum.assign(static_cast<size_t>(width[0]), 0.0f);
          for (int64_t i = b; i < e; ++i) {
            for (int64_t j = 0; j < width[0]; ++j) {
              row_sum[j] += RoundedProduct(g[i], vd[j]);
            }
          }
          Accumulate(parts[0], row_sum.data(), width[0], s * width[0]);
        }
      }
    });
  }
  return Tensor(out);
}

Tensor RowwiseDot(const Tensor& a, const Tensor& b) {
  ZCHECK(a.rows() == b.rows() && a.cols() == b.cols());
  const int64_t n = a.rows(), m = a.cols();
  auto out = MakeImpl(n, 1, AnyRequiresGrad(a, b));
  for (int64_t i = 0; i < n; ++i) {
    float s = 0.0f;
    for (int64_t j = 0; j < m; ++j) s += a.data()[i * m + j] * b.data()[i * m + j];
    out->data[i] = s;
  }
  if (out->requires_grad) {
    Link(out, a, b);
    SetBackward(out, [n, m](TensorImpl& self) {
      TensorImpl* ai = self.parents[0];
      TensorImpl* bi = self.parents[1];
      const float* g = self.grad;
      if (ai->requires_grad) {
        for (int64_t i = 0; i < n; ++i)
          for (int64_t j = 0; j < m; ++j)
            ai->grad[i * m + j] += g[i] * bi->data[i * m + j];
      }
      if (bi->requires_grad) {
        for (int64_t i = 0; i < n; ++i)
          for (int64_t j = 0; j < m; ++j)
            bi->grad[i * m + j] += g[i] * ai->data[i * m + j];
      }
    });
  }
  return Tensor(out);
}

Tensor RowwiseCosine(const Tensor& a, const Tensor& b, float eps) {
  ZCHECK(a.rows() == b.rows() && a.cols() == b.cols());
  const int64_t n = a.rows(), m = a.cols();
  // The row norms (+eps) are kept for backward: na then nb.
  auto out = MakeImpl(n, 1, AnyRequiresGrad(a, b), Fill::kNone,
                      2 * n * sizeof(float));
  float* na = static_cast<float*>(out->aux);
  float* nb = na + n;
  for (int64_t i = 0; i < n; ++i) {
    float sa = 0.0f, sb = 0.0f, dot = 0.0f;
    for (int64_t j = 0; j < m; ++j) {
      const float av = a.data()[i * m + j];
      const float bv = b.data()[i * m + j];
      sa += av * av;
      sb += bv * bv;
      dot += av * bv;
    }
    na[i] = std::sqrt(sa) + eps;
    nb[i] = std::sqrt(sb) + eps;
    out->data[i] = dot / (na[i] * nb[i]);
  }
  if (out->requires_grad) {
    Link(out, a, b);
    SetBackward(out, [n, m](TensorImpl& self) {
      TensorImpl* ai = self.parents[0];
      TensorImpl* bi = self.parents[1];
      const float* na = static_cast<const float*>(self.aux);
      const float* nb = na + n;
      const float* g = self.grad;
      const float* y = self.data;
      for (int64_t i = 0; i < n; ++i) {
        const float gi = g[i];
        if (gi == 0.0f) continue;
        const float cosv = y[i];
        for (int64_t j = 0; j < m; ++j) {
          const float av = ai->data[i * m + j];
          const float bv = bi->data[i * m + j];
          if (ai->requires_grad) {
            ai->grad[i * m + j] +=
                gi * (bv / (na[i] * nb[i]) - cosv * av / (na[i] * na[i]));
          }
          if (bi->requires_grad) {
            bi->grad[i * m + j] +=
                gi * (av / (na[i] * nb[i]) - cosv * bv / (nb[i] * nb[i]));
          }
        }
      }
    });
  }
  return Tensor(out);
}

Tensor NormalizeRows(const Tensor& a, float eps) {
  const int64_t n = a.rows(), m = a.cols();
  // The row norms (+eps) are kept for backward.
  auto out =
      MakeImpl(n, m, a.requires_grad(), Fill::kNone, n * sizeof(float));
  float* norms = static_cast<float*>(out->aux);
  for (int64_t i = 0; i < n; ++i) {
    float s = 0.0f;
    for (int64_t j = 0; j < m; ++j) {
      const float v = a.data()[i * m + j];
      s += v * v;
    }
    norms[i] = std::sqrt(s) + eps;
    for (int64_t j = 0; j < m; ++j)
      out->data[i * m + j] = a.data()[i * m + j] / norms[i];
  }
  if (out->requires_grad) {
    Link(out, a);
    SetBackward(out, [n, m](TensorImpl& self) {
      TensorImpl* ai = self.parents[0];
      const float* norms = static_cast<const float*>(self.aux);
      const float* g = self.grad;
      const float* y = self.data;
      for (int64_t i = 0; i < n; ++i) {
        float dot = 0.0f;
        for (int64_t j = 0; j < m; ++j) dot += g[i * m + j] * y[i * m + j];
        for (int64_t j = 0; j < m; ++j) {
          ai->grad[i * m + j] += (g[i * m + j] - dot * y[i * m + j]) / norms[i];
        }
      }
    });
  }
  return Tensor(out);
}

Tensor TileRows(const Tensor& a, int64_t n) {
  ZCHECK_EQ(a.rows(), 1);
  ZCHECK_GT(n, 0);
  const int64_t m = a.cols();
  auto out = MakeImpl(n, m, a.requires_grad());
  for (int64_t i = 0; i < n; ++i)
    std::copy(a.data(), a.data() + m, out->data + i * m);
  if (out->requires_grad) {
    Link(out, a);
    SetBackward(out, [n, m](TensorImpl& self) {
      TensorImpl* ai = self.parents[0];
      for (int64_t i = 0; i < n; ++i)
        for (int64_t j = 0; j < m; ++j) ai->grad[j] += self.grad[i * m + j];
    });
  }
  return Tensor(out);
}

Tensor BceWithLogits(const Tensor& logits, const Tensor& labels) {
  ZCHECK(logits.rows() == labels.rows() && logits.cols() == 1 &&
         labels.cols() == 1);
  const int64_t n = logits.rows();
  // Backward reads a copy of the labels kept in the block.
  auto out = MakeImpl(1, 1, logits.requires_grad(), Fill::kNone,
                      logits.requires_grad() ? n * sizeof(float) : 0);
  float loss = 0.0f;
  for (int64_t i = 0; i < n; ++i) {
    const float x = logits.data()[i];
    const float y = labels.data()[i];
    loss += std::max(x, 0.0f) - x * y + std::log1p(std::exp(-std::abs(x)));
  }
  out->data[0] = loss / static_cast<float>(n);
  if (out->requires_grad) {
    std::copy(labels.data(), labels.data() + n, static_cast<float*>(out->aux));
    Link(out, logits);
    SetBackward(out, [n](TensorImpl& self) {
      TensorImpl* li = self.parents[0];
      const float* labels = static_cast<const float*>(self.aux);
      const float g = self.grad[0] / static_cast<float>(n);
      for (int64_t i = 0; i < n; ++i) {
        const float x = li->data[i];
        const float p = x >= 0 ? 1.0f / (1.0f + std::exp(-x))
                               : std::exp(x) / (1.0f + std::exp(x));
        li->grad[i] += g * (p - labels[i]);
      }
    });
  }
  return Tensor(out);
}

Tensor FocalBceWithLogits(const Tensor& logits, const Tensor& labels,
                          float gamma) {
  ZCHECK(logits.rows() == labels.rows() && logits.cols() == 1 &&
         labels.cols() == 1);
  const int64_t n = logits.rows();
  static constexpr float kEps = 1e-7f;
  // Backward reads a copy of the labels kept in the block.
  auto out = MakeImpl(1, 1, logits.requires_grad(), Fill::kNone,
                      logits.requires_grad() ? n * sizeof(float) : 0);
  float loss = 0.0f;
  for (int64_t i = 0; i < n; ++i) {
    const float x = logits.data()[i];
    const float y = labels.data()[i];
    float p = x >= 0 ? 1.0f / (1.0f + std::exp(-x))
                     : std::exp(x) / (1.0f + std::exp(x));
    p = std::min(std::max(p, kEps), 1.0f - kEps);
    loss += -y * std::pow(1.0f - p, gamma) * std::log(p) -
            (1.0f - y) * std::pow(p, gamma) * std::log(1.0f - p);
  }
  out->data[0] = loss / static_cast<float>(n);
  if (out->requires_grad) {
    std::copy(labels.data(), labels.data() + n, static_cast<float*>(out->aux));
    Link(out, logits);
    SetBackward(out, [n, gamma](TensorImpl& self) {
      TensorImpl* li = self.parents[0];
      const float* labels = static_cast<const float*>(self.aux);
      const float g = self.grad[0] / static_cast<float>(n);
      for (int64_t i = 0; i < n; ++i) {
        const float x = li->data[i];
        const float y = labels[i];
        float p = x >= 0 ? 1.0f / (1.0f + std::exp(-x))
                         : std::exp(x) / (1.0f + std::exp(x));
        p = std::min(std::max(p, kEps), 1.0f - kEps);
        // d/dx of the focal loss (derived via dL/dp * p*(1-p)):
        // y-term:  g*p*(1-p)^g*log(p)*gamma - (1-p)^(g+1)
        // (1-y)-term: -gamma*(1-p)*p^g*log(1-p) + p^(g+1)
        const float pos = gamma * p * std::pow(1.0f - p, gamma) * std::log(p) -
                          std::pow(1.0f - p, gamma + 1.0f);
        const float neg =
            -gamma * (1.0f - p) * std::pow(p, gamma) * std::log(1.0f - p) +
            std::pow(p, gamma + 1.0f);
        li->grad[i] += g * (y * pos + (1.0f - y) * neg);
      }
    });
  }
  return Tensor(out);
}

Tensor SquaredNorm(const Tensor& a) {
  auto out = MakeImpl(1, 1, a.requires_grad());
  const int64_t n = a.size();
  float s = 0.0f;
  for (int64_t i = 0; i < n; ++i) s += a.data()[i] * a.data()[i];
  out->data[0] = s;
  if (out->requires_grad) {
    Link(out, a);
    SetBackward(out, [n](TensorImpl& self) {
      TensorImpl* ai = self.parents[0];
      const float g = self.grad[0];
      for (int64_t i = 0; i < n; ++i) ai->grad[i] += 2.0f * g * ai->data[i];
    });
  }
  return Tensor(out);
}

}  // namespace tensor
}  // namespace zoomer
