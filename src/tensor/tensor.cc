#include "tensor/tensor.h"

#include <algorithm>
#include <cmath>
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

// Accumulates src into dst->grad (dst must require grad).
void Accumulate(TensorImpl* dst, const float* src, int64_t n) {
  float* g = dst->grad;
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

// Adds the gradients of C = A · B, given dC = g, into A and B.
void MatMulBackward(TensorImpl* ai, TensorImpl* bi, const float* g,
                    int64_t n, int64_t k, int64_t m) {
  if (ai->requires_grad) {
    // dA = G · B^T : (n,m)x(m,k)
    const float* bd2 = bi->data;
    float* ga = ai->grad;
    for (int64_t i = 0; i < n; ++i) {
      for (int64_t p = 0; p < k; ++p) {
        float s = 0.0f;
        const float* grow = g + i * m;
        const float* brow = bd2 + p * m;
        for (int64_t j = 0; j < m; ++j) s += grow[j] * brow[j];
        ga[i * k + p] += s;
      }
    }
  }
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

Tensor Tanh(const Tensor& a) {
  return ElementwiseUnary(a, [](float x) { return std::tanh(x); },
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
  ZCHECK_EQ(col.cols(), 1) << "SoftmaxColumn of " << col.ShapeString();
  const int64_t k = col.rows();
  // Backward rounds its per-entry terms into the block before adding them,
  // as the transposed chain's middle node did in its own gradient.
  auto out = MakeImpl(k, 1, col.requires_grad(), Fill::kNone,
                      col.requires_grad() ? k * sizeof(float) : 0);
  SoftmaxRow(col.data(), out->data, k);
  if (out->requires_grad) {
    Link(out, col);
    SetBackward(out, [k](TensorImpl& self) {
      const float* y = self.data;
      const float* g = self.grad;
      float* terms = static_cast<float*>(self.aux);
      float dot = 0.0f;
      for (int64_t j = 0; j < k; ++j) dot += g[j] * y[j];
      for (int64_t j = 0; j < k; ++j) terms[j] = y[j] * (g[j] - dot);
      Accumulate(self.parents[0], terms, k);
    });
  }
  return Tensor(out);
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

Tensor GatherRows(std::span<const Tensor> tables,
                  std::span<const int64_t> ids) {
  ZCHECK(!tables.empty());
  ZCHECK_EQ(tables.size(), ids.size());
  const int64_t n = static_cast<int64_t>(tables.size());
  const int64_t m = tables[0].cols();
  bool requires_grad = false;
  for (const Tensor& t : tables) {
    requires_grad = requires_grad || t.requires_grad();
  }
  // Backward reads a copy of the row ids kept in the block.
  auto out = MakeImpl(n, m, requires_grad, Fill::kNone,
                      requires_grad ? n * sizeof(int64_t) : 0,
                      requires_grad ? tables.size() : 0);
  for (int64_t i = 0; i < n; ++i) {
    const Tensor& t = tables[i];
    ZCHECK_EQ(t.cols(), m);
    ZCHECK(ids[i] >= 0 && ids[i] < t.rows())
        << "row index " << ids[i] << " out of range " << t.rows();
    std::copy(t.data() + ids[i] * m, t.data() + (ids[i] + 1) * m,
              out->data + i * m);
  }
  if (out->requires_grad) {
    std::copy(ids.begin(), ids.end(), static_cast<int64_t*>(out->aux));
    Link(out, tables);
    SetBackward(out, [m](TensorImpl& self) {
      const int64_t* rows = static_cast<const int64_t*>(self.aux);
      // Last row first, the order in which a stacked chain of one-row
      // gathers propagates: it fixes the sums when a table repeats.
      for (uint32_t i = self.num_parents; i-- > 0;) {
        TensorImpl* ti = self.parent(i);
        if (!ti->requires_grad) continue;
        const float* g = self.grad + static_cast<int64_t>(i) * m;
        float* ga = ti->grad + rows[i] * m;
        for (int64_t j = 0; j < m; ++j) ga[j] += g[j];
      }
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
      if (wi->requires_grad) {
        for (int64_t p = 0; p < k; ++p) {
          const float* zrow = zi->data + p * m;
          float s = 0.0f;
          for (int64_t j = 0; j < m; ++j) s += g[j] * zrow[j];
          wi->grad[p] += s;
        }
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
  auto out = MakeImpl(n, 1, requires_grad, Fill::kZero,
                      requires_grad ? d * sizeof(float) : 0);
  const float* hd = h.data();
  const float* qd = q.data();
  float* od = out->data;
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t p = 0; p < d; ++p) {
      const float av = hd[i * d + p];
      if (av == 0.0f) continue;
      od[i] += av * qd[p];
    }
  }
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
