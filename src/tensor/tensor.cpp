#include "tensor/tensor.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <unordered_set>

#include "core/check.hpp"
#include "core/parallel.hpp"
#include "core/simd.hpp"
#include "tensor/rng.hpp"

namespace hg {

namespace {

constexpr char kCheckScope[] = "tensor: ";

thread_local bool g_grad_enabled = true;
thread_local detail::GradSink* g_grad_sink = nullptr;

// Parallel grain sizes. Every parallel kernel in this file keeps the
// per-output-element arithmetic order identical to its serial loop, so the
// results are bit-for-bit independent of the thread count; grains only
// decide when forking is worth the synchronisation cost. The tiny tensors
// of the CPU-scale training pipeline stay below these cutoffs and run the
// plain serial loops inline.
constexpr std::int64_t kElemGrain = 1 << 15;  // elementwise ops
constexpr std::int64_t kWorkGrain = 1 << 18;  // ~flops per scheduled chunk

/// Rows per chunk for a row-parallel kernel doing `work_per_row` flops.
std::int64_t row_grain(std::int64_t work_per_row) {
  return std::max<std::int64_t>(
      1, kWorkGrain / std::max<std::int64_t>(1, work_per_row));
}

using detail::make_op;
using Impl = detail::TensorImpl;
using ImplPtr = std::shared_ptr<Impl>;

ImplPtr make_impl(Shape shape, std::vector<float> data) {
  auto impl = std::make_shared<Impl>();
  impl->shape = std::move(shape);
  impl->data = std::move(data);
  return impl;
}

// ---- raw (tape-free) kernels used inside backward closures -----------------

// Matmul kernels: row-parallel and cache-blocked, with the inner axpy over
// output columns vectorized (core/simd.hpp). Each output element accumulates
// its k terms in ascending-p order exactly like the historical naive triple
// loop, so the blocked/parallel/SIMD kernels are bit-for-bit identical to it
// for any thread count — the vector axis is the output axis, never the
// reduction axis. The i-block keeps a handful of output rows hot while one
// row of b streams through, cutting b reloads by the block factor.
constexpr std::int64_t kMatmulRowBlock = 4;

}  // namespace

void detail::raw_matmul(const float* a, const float* b, float* c,
                        std::int64_t m, std::int64_t k, std::int64_t n) {
  core::parallel_for(
      0, m, row_grain(k * n), [=](std::int64_t lo, std::int64_t hi) {
        std::fill(c + lo * n, c + hi * n, 0.f);
        for (std::int64_t i0 = lo; i0 < hi; i0 += kMatmulRowBlock) {
          const std::int64_t i1 =
              std::min<std::int64_t>(hi, i0 + kMatmulRowBlock);
          for (std::int64_t p = 0; p < k; ++p) {
            const float* brow = b + p * n;
            for (std::int64_t i = i0; i < i1; ++i) {
              const float av = a[i * k + p];
              if (av == 0.f) continue;
              simd::axpy(c + i * n, av, brow, n);
            }
          }
        }
      });
}

namespace {

// c[m,n] += a^T[m,k_rows] ... specialised transposed products for backward.
void raw_matmul_at_b(const float* a, const float* b, float* c, std::int64_t m,
                     std::int64_t k, std::int64_t n) {
  // a is [k, m] (we want a^T @ b), b is [k, n], c is [m, n]. Parallel over
  // output rows i (columns of a); p ascends per element as in the serial
  // p-outer loop, so results are unchanged.
  core::parallel_for(
      0, m, row_grain(k * n), [=](std::int64_t lo, std::int64_t hi) {
        std::fill(c + lo * n, c + hi * n, 0.f);
        for (std::int64_t p = 0; p < k; ++p) {
          const float* arow = a + p * m;
          const float* brow = b + p * n;
          for (std::int64_t i = lo; i < hi; ++i) {
            const float av = arow[i];
            if (av == 0.f) continue;
            simd::axpy(c + i * n, av, brow, n);
          }
        }
      });
}

void raw_matmul_a_bt(const float* a, const float* b, float* c, std::int64_t m,
                     std::int64_t k, std::int64_t n) {
  // a is [m, k], b is [n, k] (we want a @ b^T), c is [m, n]. The historical
  // kernel took a per-(i,j) dot product — a reduction along the vector-
  // hostile axis. Transposing b once into [k, n] scratch turns the inner
  // loop into the same axpy-over-output-columns shape as raw_matmul: c[i,j]
  // still accumulates its k terms in ascending-p order starting from 0, so
  // every output element is bit-identical to the old dot (no zero-skip here,
  // because the old kernel had none). The scratch is the calling thread's,
  // kept between calls: every backward matmul would otherwise allocate it.
  thread_local std::vector<float> bt;
  if (bt.size() < static_cast<std::size_t>(k * n))
    bt.resize(static_cast<std::size_t>(k * n));
  float* const btd = bt.data();
  core::parallel_for(0, n, row_grain(k), [=](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t j = lo; j < hi; ++j)
      for (std::int64_t p = 0; p < k; ++p) btd[p * n + j] = b[j * k + p];
  });
  core::parallel_for(
      0, m, row_grain(k * n), [=](std::int64_t lo, std::int64_t hi) {
        std::fill(c + lo * n, c + hi * n, 0.f);
        for (std::int64_t i0 = lo; i0 < hi; i0 += kMatmulRowBlock) {
          const std::int64_t i1 =
              std::min<std::int64_t>(hi, i0 + kMatmulRowBlock);
          for (std::int64_t p = 0; p < k; ++p) {
            const float* brow = btd + p * n;
            for (std::int64_t i = i0; i < i1; ++i)
              simd::axpy(c + i * n, a[i * k + p], brow, n);
          }
        }
      });
}

enum class BinOp { Add, Sub, Mul, Div };

enum class Broadcast { Exact, ScalarRhs, RowRhs, ColRhs };

Broadcast classify_broadcast(const Shape& a, const Shape& b) {
  if (a == b) return Broadcast::Exact;
  if (shape_numel(b) == 1) return Broadcast::ScalarRhs;
  const bool matrix = a.size() == 2;
  if (matrix && b.size() == 1 && b[0] == a[1]) return Broadcast::RowRhs;
  HG_CHECK(matrix && b.size() == 2 && b[0] == a[0] && b[1] == 1,
           "incompatible shapes for broadcast: " + shape_to_string(a) +
               " vs " + shape_to_string(b));
  return Broadcast::ColRhs;
}

template <BinOp Op>
float apply(float x, float y) {
  if constexpr (Op == BinOp::Add) return x + y;
  else if constexpr (Op == BinOp::Sub) return x - y;
  else if constexpr (Op == BinOp::Mul) return x * y;
  else return x / y;
}

/// Rows per chunk for an elementwise kernel over `cols`-wide rows.
std::int64_t elem_row_grain(std::int64_t cols) {
  return std::max<std::int64_t>(
      1, kElemGrain / std::max<std::int64_t>(1, cols));
}

/// out = a (op) b with the op fixed at compile time and one loop per
/// broadcast case, so no element pays for a dispatch or an index division.
/// a is [rows, cols] for the row / column cases and flat otherwise.
template <BinOp Op>
void binary_kernel(const float* a, const float* b, float* out,
                   std::int64_t n, std::int64_t rows, std::int64_t cols,
                   Broadcast bc) {
  switch (bc) {
    case Broadcast::Exact:
      core::parallel_for(0, n, kElemGrain, [=](std::int64_t lo,
                                               std::int64_t hi) {
        for (std::int64_t i = lo; i < hi; ++i) out[i] = apply<Op>(a[i], b[i]);
      });
      return;
    case Broadcast::ScalarRhs:
      core::parallel_for(0, n, kElemGrain, [=, s = b[0]](std::int64_t lo,
                                                         std::int64_t hi) {
        for (std::int64_t i = lo; i < hi; ++i) out[i] = apply<Op>(a[i], s);
      });
      return;
    case Broadcast::RowRhs:
      core::parallel_for(0, rows, elem_row_grain(cols), [=](std::int64_t lo,
                                                            std::int64_t hi) {
        for (std::int64_t r = lo; r < hi; ++r) {
          const float* arow = a + r * cols;
          float* orow = out + r * cols;
          for (std::int64_t j = 0; j < cols; ++j)
            orow[j] = apply<Op>(arow[j], b[j]);
        }
      });
      return;
    case Broadcast::ColRhs:
      core::parallel_for(0, rows, elem_row_grain(cols), [=](std::int64_t lo,
                                                            std::int64_t hi) {
        for (std::int64_t r = lo; r < hi; ++r) {
          const float* arow = a + r * cols;
          float* orow = out + r * cols;
          const float s = b[r];
          for (std::int64_t j = 0; j < cols; ++j)
            orow[j] = apply<Op>(arow[j], s);
        }
      });
      return;
  }
}

/// d(a op b)/db times g for element i, whose rhs element is j.
template <BinOp Op>
float rhs_grad_term(const float* g, const float* a, const float* b,
                    std::int64_t i, std::int64_t j) {
  if constexpr (Op == BinOp::Add) return g[i];
  else if constexpr (Op == BinOp::Sub) return -g[i];
  else if constexpr (Op == BinOp::Mul) return g[i] * a[i];
  else return -g[i] * a[i] / (b[j] * b[j]);
}

/// gb = the rhs gradient of out = a (op) b, with binary_kernel's loop per
/// broadcast case. gb arrives zeroed, and each gb[j] sums its terms from
/// 0 in ascending element order, as one flat `gb[j] += term(i)` loop over
/// i would. a / b are read only by the ops whose derivative needs them.
template <BinOp Op>
void rhs_grad_kernel(const float* g, const float* a, const float* b,
                     float* gb, std::int64_t n, std::int64_t rows,
                     std::int64_t cols, Broadcast bc) {
  switch (bc) {
    case Broadcast::Exact:
      core::parallel_for(0, n, kElemGrain, [=](std::int64_t lo,
                                               std::int64_t hi) {
        for (std::int64_t i = lo; i < hi; ++i)
          gb[i] += rhs_grad_term<Op>(g, a, b, i, i);
      });
      return;
    case Broadcast::ScalarRhs: {
      float acc = 0.f;
      for (std::int64_t i = 0; i < n; ++i)
        acc += rhs_grad_term<Op>(g, a, b, i, 0);
      gb[0] = acc;
      return;
    }
    case Broadcast::RowRhs:
      // Rows ascend in the outer loop, so each gb[j] still sums in
      // ascending i; the inner loop runs along the row.
      for (std::int64_t r = 0; r < rows; ++r)
        for (std::int64_t j = 0; j < cols; ++j)
          gb[j] += rhs_grad_term<Op>(g, a, b, r * cols + j, j);
      return;
    case Broadcast::ColRhs:
      // Row r sums its own columns only: rows split across the pool.
      core::parallel_for(0, rows, elem_row_grain(cols), [=](std::int64_t lo,
                                                            std::int64_t hi) {
        for (std::int64_t r = lo; r < hi; ++r) {
          float acc = 0.f;
          for (std::int64_t j = 0; j < cols; ++j)
            acc += rhs_grad_term<Op>(g, a, b, r * cols + j, r);
          gb[r] = acc;
        }
      });
      return;
  }
}

template <BinOp Op>
Tensor binary_op(const Tensor& a, const Tensor& b) {
  const Broadcast bc = classify_broadcast(a.shape(), b.shape());
  const auto ad = a.data();
  const auto bd = b.data();
  const std::int64_t n = a.numel();
  const std::int64_t rows = a.dim() == 2 ? a.shape()[0] : 1;
  const std::int64_t cols = a.dim() == 2 ? a.shape()[1] : n;
  std::vector<float> out(static_cast<std::size_t>(n));
  binary_kernel<Op>(ad.data(), bd.data(), out.data(), n, rows, cols, bc);

  return make_op(a.shape(), std::move(out), {a, b}, [&] {
    // The backward copies only the operands it will read: the lhs
    // gradient of Mul and Div reads b, the rhs gradient of Mul reads a,
    // and that of Div reads both. Add and Sub read neither.
    const bool grad_a = a.requires_grad();
    const bool grad_b = b.requires_grad();
    constexpr bool kMulDiv = Op == BinOp::Mul || Op == BinOp::Div;
    std::vector<float> a_copy, b_copy;
    if (kMulDiv && grad_b) a_copy.assign(ad.begin(), ad.end());
    if ((kMulDiv && grad_a) || (Op == BinOp::Div && grad_b))
      b_copy.assign(bd.begin(), bd.end());
    return [bc, n, rows, cols, grad_a, grad_b, b_numel = bd.size(),
            a_copy = std::move(a_copy),
            b_copy = std::move(b_copy)](Impl& self) {
      Impl& pa = *self.parents[0];
      Impl& pb = *self.parents[1];
      if (grad_a && pa.requires_grad) {
        if constexpr (kMulDiv) {
          // d(a*b)/da = b and d(a/b)/da = 1/b: ga = g (op) b is the
          // forward kernel itself.
          std::vector<float> ga(static_cast<std::size_t>(n));
          binary_kernel<Op>(self.grad.data(), b_copy.data(), ga.data(), n,
                            rows, cols, bc);
          pa.accumulate_grad(std::move(ga));
        } else {
          pa.accumulate_grad(self.grad);  // d(a +- b)/da = 1
        }
      }
      if (grad_b && pb.requires_grad) {
        std::vector<float> gb(b_numel, 0.f);
        rhs_grad_kernel<Op>(self.grad.data(), a_copy.data(), b_copy.data(),
                            gb.data(), n, rows, cols, bc);
        pb.accumulate_grad(std::move(gb));
      }
    };
  });
}

/// Unary op y = f(x) whose derivative is expressed from (x, y). Both are
/// functors known at compile time, so the element loops inline them.
template <class F, class Dfdx>
Tensor unary_op(const Tensor& a, F f, Dfdx dfdx_from_xy) {
  const auto ad = a.data();
  const auto n = static_cast<std::int64_t>(ad.size());
  std::vector<float> out(ad.size());
  const float* x = ad.data();
  float* y = out.data();  // still the result's buffer after the move below
  core::parallel_for(0, n, kElemGrain, [f, x, y](std::int64_t lo,
                                                 std::int64_t hi) {
    // A local copy: stores through y cannot alias it, so the functor's
    // state stays in registers and the loop vectorizes.
    const F local_f = f;
    for (std::int64_t i = lo; i < hi; ++i) y[i] = local_f(x[i]);
  });
  return make_op(a.shape(), std::move(out), {a}, [&] {
    return [dfdx_from_xy, x_copy = std::vector<float>(x, x + n),
            y_copy = std::vector<float>(y, y + n)](Impl& self) {
      Impl& p = *self.parents[0];
      if (!p.requires_grad) return;
      std::vector<float> g(x_copy.size());
      core::parallel_for(
          0, static_cast<std::int64_t>(x_copy.size()), kElemGrain,
          [&](std::int64_t lo, std::int64_t hi) {
            for (std::int64_t i = lo; i < hi; ++i) {
              const auto u = static_cast<std::size_t>(i);
              g[u] = self.grad[u] * dfdx_from_xy(x_copy[u], y_copy[u]);
            }
          });
      p.accumulate_grad(std::move(g));
    };
  });
}

}  // namespace

// ---- shape helpers ----------------------------------------------------------

std::int64_t shape_numel(const Shape& shape) {
  std::int64_t n = 1;
  for (auto d : shape) {
    HG_CHECK(d >= 0, "negative dimension in shape " + shape_to_string(shape));
    n *= d;
  }
  return n;
}

std::string shape_to_string(const Shape& shape) {
  std::string s = "[";
  for (std::size_t i = 0; i < shape.size(); ++i) {
    if (i) s += ", ";
    s += std::to_string(shape[i]);
  }
  return s + "]";
}

// ---- detail -----------------------------------------------------------------

namespace detail {

void TensorImpl::ensure_grad() {
  if (grad.size() != data.size()) grad.assign(data.size(), 0.f);
}

void TensorImpl::accumulate_grad(std::span<const float> g) {
  HG_CHECK(g.size() == data.size(),
           "gradient size mismatch: " + std::to_string(g.size()) + " vs " +
               std::to_string(data.size()));
  if (g_grad_sink != nullptr && !backward_fn) {
    g_grad_sink->append(shared_from_this()).assign(g.begin(), g.end());
    return;
  }
  ensure_grad();
  for (std::size_t i = 0; i < g.size(); ++i) grad[i] += g[i];
}

void TensorImpl::accumulate_grad(std::vector<float>&& g) {
  if (g_grad_sink == nullptr || backward_fn) {
    accumulate_grad(std::span<const float>(g));
    return;
  }
  HG_CHECK(g.size() == data.size(),
           "gradient size mismatch: " + std::to_string(g.size()) + " vs " +
               std::to_string(data.size()));
  g_grad_sink->append(shared_from_this()) = std::move(g);
}

std::vector<float>& GradSink::append(std::shared_ptr<TensorImpl> leaf) {
  if (size_ == entries_.size()) entries_.emplace_back();
  Entry& e = entries_[size_++];
  e.leaf = std::move(leaf);
  return e.grad;
}

void GradSink::replay() {
  HG_CHECK(g_grad_sink == nullptr, "GradSink::replay with a sink installed");
  for (std::size_t i = 0; i < size_; ++i)
    entries_[i].leaf->accumulate_grad(entries_[i].grad);
  for (const auto& update : updates_) update();
  clear();
}

void GradSink::clear() {
  for (std::size_t i = 0; i < size_; ++i) entries_[i].leaf.reset();
  size_ = 0;
  updates_.clear();
}

GradSinkGuard::GradSinkGuard(GradSink& sink) : prev_(g_grad_sink) {
  g_grad_sink = &sink;
}
GradSinkGuard::~GradSinkGuard() { g_grad_sink = prev_; }

GradSink* installed_grad_sink() { return g_grad_sink; }

void update_shared(std::function<void()> update) {
  if (g_grad_sink == nullptr)
    update();
  else
    g_grad_sink->updates_.push_back(std::move(update));
}

NoGradGuard::NoGradGuard() : prev_(g_grad_enabled) { g_grad_enabled = false; }
NoGradGuard::~NoGradGuard() { g_grad_enabled = prev_; }

bool grad_enabled() { return g_grad_enabled; }

}  // namespace detail

// ---- Tensor -------------------------------------------------------------------

Tensor::Tensor() : impl_(make_impl({}, {0.f})) {}

Tensor Tensor::zeros(Shape shape, bool requires_grad) {
  return full(std::move(shape), 0.f, requires_grad);
}

Tensor Tensor::ones(Shape shape, bool requires_grad) {
  return full(std::move(shape), 1.f, requires_grad);
}

Tensor Tensor::full(Shape shape, float value, bool requires_grad) {
  const auto n = shape_numel(shape);
  auto impl = make_impl(std::move(shape),
                        std::vector<float>(static_cast<std::size_t>(n), value));
  impl->requires_grad = requires_grad;
  return Tensor(std::move(impl));
}

Tensor Tensor::scalar(float value, bool requires_grad) {
  return full({}, value, requires_grad);
}

Tensor Tensor::from_vector(Shape shape, std::vector<float> values,
                           bool requires_grad) {
  HG_CHECK(static_cast<std::int64_t>(values.size()) == shape_numel(shape),
           "from_vector: " + std::to_string(values.size()) +
               " values do not fill shape " + shape_to_string(shape));
  auto impl = make_impl(std::move(shape), std::move(values));
  impl->requires_grad = requires_grad;
  return Tensor(std::move(impl));
}

Tensor Tensor::randn(Shape shape, Rng& rng, float mean, float stddev,
                     bool requires_grad) {
  const auto n = shape_numel(shape);
  std::vector<float> v(static_cast<std::size_t>(n));
  for (auto& x : v) x = rng.normal(mean, stddev);
  return from_vector(std::move(shape), std::move(v), requires_grad);
}

Tensor Tensor::rand_uniform(Shape shape, Rng& rng, float lo, float hi,
                            bool requires_grad) {
  const auto n = shape_numel(shape);
  std::vector<float> v(static_cast<std::size_t>(n));
  for (auto& x : v) x = rng.uniform(lo, hi);
  return from_vector(std::move(shape), std::move(v), requires_grad);
}

std::int64_t Tensor::size(std::int64_t axis) const {
  HG_CHECK(axis >= 0 && axis < dim(), "size(): axis out of range");
  return impl_->shape[static_cast<std::size_t>(axis)];
}

float Tensor::item() const {
  HG_CHECK(numel() == 1, "item(): tensor has " + std::to_string(numel()) +
                             " elements, expected 1");
  return impl_->data[0];
}

float Tensor::at(std::initializer_list<std::int64_t> idx) const {
  HG_CHECK(static_cast<std::int64_t>(idx.size()) == dim(),
           "at(): rank mismatch");
  std::int64_t flat = 0;
  std::size_t axis = 0;
  for (auto i : idx) {
    const auto d = impl_->shape[axis];
    HG_CHECK(i >= 0 && i < d, "at(): index out of range");
    flat = flat * d + i;
    ++axis;
  }
  return impl_->data[static_cast<std::size_t>(flat)];
}

Tensor& Tensor::set_requires_grad(bool v) {
  impl_->requires_grad = v;
  return *this;
}

void Tensor::zero_grad() {
  std::fill(impl_->grad.begin(), impl_->grad.end(), 0.f);
}

Tensor Tensor::detach() const {
  auto impl = make_impl(impl_->shape, impl_->data);
  return Tensor(std::move(impl));
}

Tensor Tensor::clone() const {
  auto impl = make_impl(impl_->shape, impl_->data);
  impl->requires_grad = impl_->requires_grad;
  return Tensor(std::move(impl));
}

void Tensor::backward() {
  HG_CHECK(numel() == 1,
           "backward() without a seed requires a scalar tensor; got shape " +
               shape_to_string(shape()));
  backward(std::vector<float>{1.f});
}

void Tensor::backward(std::span<const float> seed) {
  HG_CHECK(static_cast<std::int64_t>(seed.size()) == numel(),
           "backward(): seed size mismatch");
  // Iterative post-order DFS to topologically sort the tape.
  std::vector<Impl*> order;
  std::unordered_set<Impl*> visited;
  std::vector<std::pair<Impl*, std::size_t>> stack;
  stack.emplace_back(impl_.get(), 0);
  visited.insert(impl_.get());
  while (!stack.empty()) {
    auto& [node, next_child] = stack.back();
    if (next_child < node->parents.size()) {
      Impl* child = node->parents[next_child].get();
      ++next_child;
      if (child->requires_grad && !visited.count(child)) {
        visited.insert(child);
        stack.emplace_back(child, 0);
      }
    } else {
      order.push_back(node);
      stack.pop_back();
    }
  }
  impl_->accumulate_grad(seed);
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    Impl* node = *it;
    if (node->backward_fn && !node->grad.empty()) {
      node->backward_fn(*node);
      // Non-leaf grads are consumed once propagated; this keeps repeated
      // backward() calls additive (PyTorch semantics) instead of
      // re-propagating previously accumulated seeds.
      node->grad.clear();
    }
  }
}

// ---- binary ops -----------------------------------------------------------------

Tensor add(const Tensor& a, const Tensor& b) {
  return binary_op<BinOp::Add>(a, b);
}
Tensor sub(const Tensor& a, const Tensor& b) {
  return binary_op<BinOp::Sub>(a, b);
}
Tensor mul(const Tensor& a, const Tensor& b) {
  return binary_op<BinOp::Mul>(a, b);
}
Tensor div(const Tensor& a, const Tensor& b) {
  return binary_op<BinOp::Div>(a, b);
}

Tensor add(const Tensor& a, float s) { return add(a, Tensor::scalar(s)); }
Tensor sub(const Tensor& a, float s) { return sub(a, Tensor::scalar(s)); }
Tensor mul(const Tensor& a, float s) { return mul(a, Tensor::scalar(s)); }
Tensor div(const Tensor& a, float s) {
  HG_CHECK(s != 0.f, "division by zero scalar");
  return div(a, Tensor::scalar(s));
}

Tensor neg(const Tensor& a) {
  return unary_op(a, [](float x) { return -x; },
                  [](float, float) { return -1.f; });
}

// ---- unary ops ------------------------------------------------------------------

Tensor relu(const Tensor& a) {
  return unary_op(a, [](float x) { return x > 0.f ? x : 0.f; },
                  [](float x, float) { return x > 0.f ? 1.f : 0.f; });
}

Tensor leaky_relu(const Tensor& a, float negative_slope) {
  return unary_op(
      a,
      [negative_slope](float x) { return x > 0.f ? x : negative_slope * x; },
      [negative_slope](float x, float) {
        return x > 0.f ? 1.f : negative_slope;
      });
}

Tensor sigmoid(const Tensor& a) {
  return unary_op(a,
                  [](float x) { return 1.f / (1.f + std::exp(-x)); },
                  [](float, float y) { return y * (1.f - y); });
}

Tensor tanh_op(const Tensor& a) {
  return unary_op(a, [](float x) { return std::tanh(x); },
                  [](float, float y) { return 1.f - y * y; });
}

Tensor exp_op(const Tensor& a) {
  return unary_op(a, [](float x) { return std::exp(x); },
                  [](float, float y) { return y; });
}

Tensor log_op(const Tensor& a) {
  for (float x : a.data())
    HG_CHECK(x > 0.f, "log of non-positive value " + std::to_string(x));
  return unary_op(a, [](float x) { return std::log(x); },
                  [](float x, float) { return 1.f / x; });
}

Tensor sqrt_op(const Tensor& a) {
  for (float x : a.data())
    HG_CHECK(x >= 0.f, "sqrt of negative value " + std::to_string(x));
  return unary_op(a, [](float x) { return std::sqrt(x); },
                  [](float, float y) { return y > 0.f ? 0.5f / y : 0.f; });
}

Tensor square(const Tensor& a) {
  return unary_op(a, [](float x) { return x * x; },
                  [](float x, float) { return 2.f * x; });
}

Tensor abs_op(const Tensor& a) {
  return unary_op(a, [](float x) { return std::fabs(x); },
                  [](float x, float) { return x > 0.f ? 1.f : (x < 0.f ? -1.f : 0.f); });
}

// ---- matmul / transpose -----------------------------------------------------------

Tensor matmul(const Tensor& a, const Tensor& b) {
  HG_CHECK(a.dim() == 2 && b.dim() == 2,
           "matmul requires 2-D tensors, got " + shape_to_string(a.shape()) +
               " x " + shape_to_string(b.shape()));
  const std::int64_t m = a.shape()[0], k = a.shape()[1];
  const std::int64_t k2 = b.shape()[0], n = b.shape()[1];
  HG_CHECK(k == k2, "matmul inner dimension mismatch: " +
                        shape_to_string(a.shape()) + " x " +
                        shape_to_string(b.shape()));
  std::vector<float> out(static_cast<std::size_t>(m * n));
  detail::raw_matmul(a.data().data(), b.data().data(), out.data(), m, k, n);

  return make_op({m, n}, std::move(out), {a, b}, [&] {
    return [m, k, n,
            a_copy = std::vector<float>(a.data().begin(), a.data().end()),
            b_copy = std::vector<float>(b.data().begin(), b.data().end())](
               Impl& self) {
      Impl& pa = *self.parents[0];
      Impl& pb = *self.parents[1];
      if (pa.requires_grad) {
        std::vector<float> ga(static_cast<std::size_t>(m * k));
        raw_matmul_a_bt(self.grad.data(), b_copy.data(), ga.data(), m, n, k);
        pa.accumulate_grad(std::move(ga));
      }
      if (pb.requires_grad) {
        std::vector<float> gb(static_cast<std::size_t>(k * n));
        raw_matmul_at_b(a_copy.data(), self.grad.data(), gb.data(), k, m, n);
        pb.accumulate_grad(std::move(gb));
      }
    };
  });
}

namespace {

/// Blocked 2-D transpose: dst[j * r + i] = src[i * c + j]. Square tiles
/// keep both the row-major reads and the column-major writes inside one
/// cache line's worth of rows, instead of striding the full output per
/// element. Pure permutation, so exact for any tiling / thread count.
void raw_transpose(const float* src, float* dst, std::int64_t r,
                   std::int64_t c) {
  constexpr std::int64_t kTile = 32;
  const std::int64_t row_tiles = (r + kTile - 1) / kTile;
  core::parallel_for(
      0, row_tiles, row_grain(kTile * c), [=](std::int64_t lo, std::int64_t hi) {
        for (std::int64_t bi = lo; bi < hi; ++bi) {
          const std::int64_t i0 = bi * kTile;
          const std::int64_t i1 = std::min<std::int64_t>(r, i0 + kTile);
          for (std::int64_t j0 = 0; j0 < c; j0 += kTile) {
            const std::int64_t j1 = std::min<std::int64_t>(c, j0 + kTile);
            for (std::int64_t i = i0; i < i1; ++i)
              for (std::int64_t j = j0; j < j1; ++j)
                dst[j * r + i] = src[i * c + j];
          }
        }
      });
}

}  // namespace

Tensor transpose(const Tensor& a) {
  HG_CHECK(a.dim() == 2, "transpose requires a 2-D tensor");
  const std::int64_t r = a.shape()[0], c = a.shape()[1];
  std::vector<float> out(static_cast<std::size_t>(r * c));
  raw_transpose(a.data().data(), out.data(), r, c);
  return make_op({c, r}, std::move(out), {a}, [&] {
    return [r, c](Impl& self) {
      Impl& p = *self.parents[0];
      if (!p.requires_grad) return;
      std::vector<float> g(static_cast<std::size_t>(r * c));
      // The gradient of a transpose is the transpose of the gradient
      // ([c, r] -> [r, c]).
      raw_transpose(self.grad.data(), g.data(), c, r);
      p.accumulate_grad(std::move(g));
    };
  });
}

// ---- reductions --------------------------------------------------------------------

Tensor sum_all(const Tensor& a) {
  float acc = 0.f;
  for (float x : a.data()) acc += x;
  const std::int64_t n = a.numel();
  return make_op({}, {acc}, {a}, [&] {
    return [n](Impl& self) {
      Impl& p = *self.parents[0];
      if (!p.requires_grad) return;
      std::vector<float> g(static_cast<std::size_t>(n), self.grad[0]);
      p.accumulate_grad(std::move(g));
    };
  });
}

Tensor mean_all(const Tensor& a) {
  HG_CHECK(a.numel() > 0, "mean of empty tensor");
  return div(sum_all(a), static_cast<float>(a.numel()));
}

Tensor sum_axis(const Tensor& a, int axis) {
  HG_CHECK(a.dim() == 2, "sum_axis requires a 2-D tensor");
  HG_CHECK(axis == 0 || axis == 1, "sum_axis: axis must be 0 or 1");
  const std::int64_t r = a.shape()[0], c = a.shape()[1];
  const auto ad = a.data();
  if (axis == 0) {
    std::vector<float> out(static_cast<std::size_t>(c), 0.f);
    for (std::int64_t i = 0; i < r; ++i)
      for (std::int64_t j = 0; j < c; ++j) out[j] += ad[i * c + j];
    return make_op({c}, std::move(out), {a}, [&] {
      return [r, c](Impl& self) {
        Impl& p = *self.parents[0];
        if (!p.requires_grad) return;
        std::vector<float> g(static_cast<std::size_t>(r * c));
        for (std::int64_t i = 0; i < r; ++i)
          for (std::int64_t j = 0; j < c; ++j)
            g[i * c + j] = self.grad[static_cast<std::size_t>(j)];
        p.accumulate_grad(std::move(g));
      };
    });
  }
  std::vector<float> out(static_cast<std::size_t>(r), 0.f);
  for (std::int64_t i = 0; i < r; ++i)
    for (std::int64_t j = 0; j < c; ++j) out[i] += ad[i * c + j];
  return make_op({r}, std::move(out), {a}, [&] {
    return [r, c](Impl& self) {
      Impl& p = *self.parents[0];
      if (!p.requires_grad) return;
      std::vector<float> g(static_cast<std::size_t>(r * c));
      for (std::int64_t i = 0; i < r; ++i)
        for (std::int64_t j = 0; j < c; ++j)
          g[i * c + j] = self.grad[static_cast<std::size_t>(i)];
      p.accumulate_grad(std::move(g));
    };
  });
}

Tensor mean_axis(const Tensor& a, int axis) {
  const float denom =
      static_cast<float>(axis == 0 ? a.shape()[0] : a.shape()[1]);
  HG_CHECK(denom > 0.f, "mean_axis over empty axis");
  return div(sum_axis(a, axis), denom);
}

namespace {

Tensor extreme_axis0(const Tensor& a, bool is_max) {
  HG_CHECK(a.dim() == 2, "max/min_axis0 requires a 2-D tensor");
  const std::int64_t r = a.shape()[0], c = a.shape()[1];
  HG_CHECK(r > 0, "max/min_axis0 over empty axis");
  const auto ad = a.data();
  std::vector<float> out(static_cast<std::size_t>(c));
  std::vector<std::int64_t> arg(static_cast<std::size_t>(c), 0);
  for (std::int64_t j = 0; j < c; ++j) {
    float best = ad[j];
    std::int64_t bi = 0;
    for (std::int64_t i = 1; i < r; ++i) {
      const float v = ad[i * c + j];
      if (is_max ? (v > best) : (v < best)) {
        best = v;
        bi = i;
      }
    }
    out[static_cast<std::size_t>(j)] = best;
    arg[static_cast<std::size_t>(j)] = bi;
  }
  return make_op({c}, std::move(out), {a}, [&] {
    return [r, c, arg = std::move(arg)](Impl& self) {
      Impl& p = *self.parents[0];
      if (!p.requires_grad) return;
      std::vector<float> g(static_cast<std::size_t>(r * c), 0.f);
      for (std::int64_t j = 0; j < c; ++j)
        g[arg[static_cast<std::size_t>(j)] * c + j] =
            self.grad[static_cast<std::size_t>(j)];
      p.accumulate_grad(std::move(g));
    };
  });
}

}  // namespace

Tensor max_axis0(const Tensor& a) { return extreme_axis0(a, true); }
Tensor min_axis0(const Tensor& a) { return extreme_axis0(a, false); }

// ---- shape ops -----------------------------------------------------------------------

Tensor reshape(const Tensor& a, Shape new_shape) {
  HG_CHECK(shape_numel(new_shape) == a.numel(),
           "reshape: element count mismatch " + shape_to_string(a.shape()) +
               " -> " + shape_to_string(new_shape));
  std::vector<float> out(a.data().begin(), a.data().end());
  return make_op(std::move(new_shape), std::move(out), {a}, [&] {
    return [](Impl& self) {
      Impl& p = *self.parents[0];
      if (!p.requires_grad) return;
      p.accumulate_grad(self.grad);
    };
  });
}

Tensor concat(const std::vector<Tensor>& parts, int axis) {
  HG_CHECK(!parts.empty(), "concat of zero tensors");
  HG_CHECK(axis == 0 || axis == 1, "concat: axis must be 0 or 1");
  for (const auto& p : parts)
    HG_CHECK(p.dim() == 2, "concat requires 2-D tensors");

  std::int64_t rows = parts[0].shape()[0], cols = parts[0].shape()[1];
  std::vector<std::int64_t> sizes;
  if (axis == 1) {
    cols = 0;
    for (const auto& p : parts) {
      HG_CHECK(p.shape()[0] == rows, "concat axis=1: row count mismatch");
      sizes.push_back(p.shape()[1]);
      cols += p.shape()[1];
    }
  } else {
    rows = 0;
    for (const auto& p : parts) {
      HG_CHECK(p.shape()[1] == cols, "concat axis=0: column count mismatch");
      sizes.push_back(p.shape()[0]);
      rows += p.shape()[0];
    }
  }

  std::vector<float> out(static_cast<std::size_t>(rows * cols));
  if (axis == 1) {
    std::int64_t col_off = 0;
    for (const auto& p : parts) {
      const auto pd = p.data();
      const std::int64_t pc = p.shape()[1];
      for (std::int64_t i = 0; i < rows; ++i)
        std::copy(pd.begin() + i * pc, pd.begin() + (i + 1) * pc,
                  out.begin() + i * cols + col_off);
      col_off += pc;
    }
  } else {
    std::int64_t row_off = 0;
    for (const auto& p : parts) {
      const auto pd = p.data();
      std::copy(pd.begin(), pd.end(), out.begin() + row_off * cols);
      row_off += p.shape()[0];
    }
  }

  const std::vector<std::reference_wrapper<const Tensor>> inputs(parts.begin(),
                                                                 parts.end());
  return make_op({rows, cols}, std::move(out), inputs, [&] {
    return [axis, rows, cols, sizes = std::move(sizes)](Impl& self) {
      std::int64_t off = 0;
      for (std::size_t pi = 0; pi < self.parents.size(); ++pi) {
        Impl& p = *self.parents[pi];
        const std::int64_t sz = sizes[pi];
        if (p.requires_grad) {
          if (axis == 1) {
            std::vector<float> g(static_cast<std::size_t>(rows * sz));
            for (std::int64_t i = 0; i < rows; ++i)
              std::copy(self.grad.begin() + i * cols + off,
                        self.grad.begin() + i * cols + off + sz,
                        g.begin() + i * sz);
            p.accumulate_grad(std::move(g));
          } else {
            std::vector<float> g(static_cast<std::size_t>(sz * cols));
            std::copy(self.grad.begin() + off * cols,
                      self.grad.begin() + (off + sz) * cols, g.begin());
            p.accumulate_grad(std::move(g));
          }
        }
        off += sz;
      }
    };
  });
}

Tensor gather_rows(const Tensor& a, std::span<const std::int64_t> indices) {
  HG_CHECK(a.dim() == 2, "gather_rows requires a 2-D tensor");
  const std::int64_t r = a.shape()[0], c = a.shape()[1];
  const std::int64_t e = static_cast<std::int64_t>(indices.size());
  const auto ad = a.data();
  std::vector<float> out(static_cast<std::size_t>(e * c));
  core::parallel_for(0, e, row_grain(c), [&](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t i = lo; i < hi; ++i) {
      const std::int64_t src = indices[static_cast<std::size_t>(i)];
      HG_CHECK(src >= 0 && src < r,
               "gather_rows: index " + std::to_string(src) +
                   " out of range [0, " + std::to_string(r) + ")");
      std::copy(ad.begin() + src * c, ad.begin() + (src + 1) * c,
                out.begin() + i * c);
    }
  });
  return make_op({e, c}, std::move(out), {a}, [&] {
    return [r, c, e, idx_copy = std::vector<std::int64_t>(
                         indices.begin(), indices.end())](Impl& self) {
      Impl& p = *self.parents[0];
      if (!p.requires_grad) return;
      std::vector<float> g(static_cast<std::size_t>(r * c), 0.f);
      for (std::int64_t i = 0; i < e; ++i) {
        const std::int64_t dst = idx_copy[static_cast<std::size_t>(i)];
        for (std::int64_t j = 0; j < c; ++j)
          g[dst * c + j] += self.grad[static_cast<std::size_t>(i * c + j)];
      }
      p.accumulate_grad(std::move(g));
    };
  });
}

Tensor slice_rows(const Tensor& a, std::int64_t begin, std::int64_t end) {
  HG_CHECK(a.dim() == 2, "slice_rows requires a 2-D tensor");
  const std::int64_t r = a.shape()[0], c = a.shape()[1];
  HG_CHECK(begin >= 0 && begin <= end && end <= r, "slice_rows: bad range");
  const std::int64_t n = end - begin;
  const auto ad = a.data();
  std::vector<float> out(ad.begin() + begin * c, ad.begin() + end * c);
  return make_op({n, c}, std::move(out), {a}, [&] {
    return [r, c, begin](Impl& self) {
      Impl& p = *self.parents[0];
      if (!p.requires_grad) return;
      std::vector<float> g(static_cast<std::size_t>(r * c), 0.f);
      std::copy(self.grad.begin(), self.grad.end(), g.begin() + begin * c);
      p.accumulate_grad(std::move(g));
    };
  });
}

// ---- scatter ----------------------------------------------------------------------------

namespace detail {

IndexCsr group_by_index(std::span<const std::int64_t> index,
                        std::int64_t num_buckets, const char* what) {
  IndexCsr csr;
  csr.row_ptr.assign(static_cast<std::size_t>(num_buckets) + 1, 0);
  for (const std::int64_t v : index) {
    HG_CHECK(v >= 0 && v < num_buckets,
             std::string(what) + ": index out of range");
    ++csr.row_ptr[static_cast<std::size_t>(v) + 1];
  }
  std::partial_sum(csr.row_ptr.begin(), csr.row_ptr.end(),
                   csr.row_ptr.begin());
  csr.items.resize(index.size());
  std::vector<std::int64_t> cursor(csr.row_ptr.begin(),
                                   csr.row_ptr.end() - 1);
  for (std::size_t i = 0; i < index.size(); ++i)
    csr.items[static_cast<std::size_t>(
        cursor[static_cast<std::size_t>(index[i])]++)] =
        static_cast<std::int64_t>(i);
  return csr;
}

}  // namespace detail

Tensor scatter_reduce(const Tensor& messages,
                      std::span<const std::int64_t> index,
                      std::int64_t num_nodes, Reduce reduce) {
  HG_CHECK(messages.dim() == 2, "scatter_reduce: messages must be 2-D");
  const std::int64_t e = messages.shape()[0], c = messages.shape()[1];
  HG_CHECK(static_cast<std::int64_t>(index.size()) == e,
           "scatter_reduce: index size must equal number of message rows");
  HG_CHECK(num_nodes > 0, "scatter_reduce: num_nodes must be positive");
  const auto md = messages.data();

  // Group edges by destination (stable counting sort), then reduce each
  // node's rows independently. Within a node the rows are visited in
  // ascending edge order — exactly the order the historical serial
  // edge-loop accumulated them — so the result is bit-for-bit identical to
  // that loop for any thread count.
  const detail::IndexCsr by_dst =
      detail::group_by_index(index, num_nodes, "scatter_reduce");
  const std::int64_t node_grain =
      row_grain((e / std::max<std::int64_t>(1, num_nodes) + 1) * c);

  std::vector<float> out(static_cast<std::size_t>(num_nodes * c), 0.f);

  if (reduce == Reduce::Sum || reduce == Reduce::Mean) {
    core::parallel_for(
        0, num_nodes, node_grain, [&](std::int64_t lo, std::int64_t hi) {
          for (std::int64_t v = lo; v < hi; ++v) {
            float* orow = out.data() + v * c;
            const std::int64_t b = by_dst.row_ptr[static_cast<std::size_t>(v)];
            const std::int64_t t =
                by_dst.row_ptr[static_cast<std::size_t>(v) + 1];
            for (std::int64_t s = b; s < t; ++s) {
              const float* mrow =
                  md.data() + by_dst.items[static_cast<std::size_t>(s)] * c;
              for (std::int64_t j = 0; j < c; ++j) orow[j] += mrow[j];
            }
            if (reduce == Reduce::Mean && t > b) {
              const float d = static_cast<float>(t - b);
              for (std::int64_t j = 0; j < c; ++j) orow[j] /= d;
            }
          }
        });
    return make_op({num_nodes, c}, std::move(out), {messages}, [&] {
      std::vector<std::int64_t> degree(by_dst.row_ptr.size() - 1);
      for (std::size_t v = 0; v + 1 < by_dst.row_ptr.size(); ++v)
        degree[v] = by_dst.row_ptr[v + 1] - by_dst.row_ptr[v];
      return [e, c, reduce, degree = std::move(degree),
              idx_copy = std::vector<std::int64_t>(index.begin(), index.end())](
                 Impl& self) {
        Impl& p = *self.parents[0];
        if (!p.requires_grad) return;
        std::vector<float> g(static_cast<std::size_t>(e * c));
        core::parallel_for(
            0, e, row_grain(c), [&](std::int64_t lo, std::int64_t hi) {
              for (std::int64_t i = lo; i < hi; ++i) {
                const std::int64_t dst = idx_copy[static_cast<std::size_t>(i)];
                const float scale =
                    reduce == Reduce::Mean
                        ? 1.f / static_cast<float>(
                                    degree[static_cast<std::size_t>(dst)])
                        : 1.f;
                for (std::int64_t j = 0; j < c; ++j)
                  g[i * c + j] =
                      self.grad[static_cast<std::size_t>(dst * c + j)] * scale;
              }
            });
        p.accumulate_grad(std::move(g));
      };
    });
  }

  // Max / Min: track winning edge per (node, channel); untouched rows are 0.
  const bool is_max = reduce == Reduce::Max;
  std::vector<std::int64_t> arg(static_cast<std::size_t>(num_nodes * c), -1);
  core::parallel_for(
      0, num_nodes, node_grain, [&](std::int64_t lo, std::int64_t hi) {
        for (std::int64_t v = lo; v < hi; ++v) {
          const std::int64_t b = by_dst.row_ptr[static_cast<std::size_t>(v)];
          const std::int64_t t =
              by_dst.row_ptr[static_cast<std::size_t>(v) + 1];
          for (std::int64_t s = b; s < t; ++s) {
            const std::int64_t i = by_dst.items[static_cast<std::size_t>(s)];
            for (std::int64_t j = 0; j < c; ++j) {
              const float mv = md[i * c + j];
              auto& a = arg[static_cast<std::size_t>(v * c + j)];
              float& o = out[static_cast<std::size_t>(v * c + j)];
              if (a < 0 || (is_max ? (mv > o) : (mv < o))) {
                o = mv;
                a = i;
              }
            }
          }
        }
      });

  return make_op({num_nodes, c}, std::move(out), {messages}, [&] {
    return [e, c, num_nodes, arg = std::move(arg)](Impl& self) {
      Impl& p = *self.parents[0];
      if (!p.requires_grad) return;
      std::vector<float> g(static_cast<std::size_t>(e * c), 0.f);
      // arg[v * c + j] names an edge whose destination is v, so two distinct
      // nodes can never route into the same (edge, channel) slot: the writes
      // below are disjoint across v.
      core::parallel_for(
          0, num_nodes, row_grain(c), [&](std::int64_t lo, std::int64_t hi) {
            for (std::int64_t v = lo; v < hi; ++v)
              for (std::int64_t j = 0; j < c; ++j) {
                const auto vj = static_cast<std::size_t>(v * c + j);
                const std::int64_t src = arg[vj];
                if (src >= 0) g[src * c + j] += self.grad[vj];
              }
          });
      p.accumulate_grad(std::move(g));
    };
  });
}

// ---- softmax & losses ----------------------------------------------------------------------

Tensor softmax(const Tensor& a) {
  HG_CHECK(a.dim() == 2, "softmax requires a 2-D tensor");
  const std::int64_t r = a.shape()[0], c = a.shape()[1];
  const auto ad = a.data();
  std::vector<float> out(static_cast<std::size_t>(r * c));
  for (std::int64_t i = 0; i < r; ++i) {
    float mx = -std::numeric_limits<float>::infinity();
    for (std::int64_t j = 0; j < c; ++j) mx = std::max(mx, ad[i * c + j]);
    float denom = 0.f;
    for (std::int64_t j = 0; j < c; ++j) {
      const float ev = std::exp(ad[i * c + j] - mx);
      out[i * c + j] = ev;
      denom += ev;
    }
    for (std::int64_t j = 0; j < c; ++j) out[i * c + j] /= denom;
  }
  const float* y = out.data();  // still the result's buffer after the move
  return make_op({r, c}, std::move(out), {a}, [&] {
    return [r, c, y_copy = std::vector<float>(y, y + r * c)](Impl& self) {
      Impl& p = *self.parents[0];
      if (!p.requires_grad) return;
      std::vector<float> g(static_cast<std::size_t>(r * c));
      for (std::int64_t i = 0; i < r; ++i) {
        float dot = 0.f;
        for (std::int64_t j = 0; j < c; ++j)
          dot += self.grad[static_cast<std::size_t>(i * c + j)] *
                 y_copy[static_cast<std::size_t>(i * c + j)];
        for (std::int64_t j = 0; j < c; ++j)
          g[i * c + j] = y_copy[static_cast<std::size_t>(i * c + j)] *
                         (self.grad[static_cast<std::size_t>(i * c + j)] - dot);
      }
      p.accumulate_grad(std::move(g));
    };
  });
}

Tensor log_softmax(const Tensor& a) {
  HG_CHECK(a.dim() == 2, "log_softmax requires a 2-D tensor");
  const std::int64_t r = a.shape()[0], c = a.shape()[1];
  const auto ad = a.data();
  std::vector<float> out(static_cast<std::size_t>(r * c));
  std::vector<float> soft(static_cast<std::size_t>(r * c));
  for (std::int64_t i = 0; i < r; ++i) {
    float mx = -std::numeric_limits<float>::infinity();
    for (std::int64_t j = 0; j < c; ++j) mx = std::max(mx, ad[i * c + j]);
    float denom = 0.f;
    for (std::int64_t j = 0; j < c; ++j) denom += std::exp(ad[i * c + j] - mx);
    const float log_denom = std::log(denom);
    for (std::int64_t j = 0; j < c; ++j) {
      out[i * c + j] = ad[i * c + j] - mx - log_denom;
      soft[i * c + j] = std::exp(out[i * c + j]);
    }
  }
  return make_op({r, c}, std::move(out), {a}, [&] {
    return [r, c, soft = std::move(soft)](Impl& self) {
      Impl& p = *self.parents[0];
      if (!p.requires_grad) return;
      std::vector<float> g(static_cast<std::size_t>(r * c));
      for (std::int64_t i = 0; i < r; ++i) {
        float row_sum = 0.f;
        for (std::int64_t j = 0; j < c; ++j)
          row_sum += self.grad[static_cast<std::size_t>(i * c + j)];
        for (std::int64_t j = 0; j < c; ++j)
          g[i * c + j] = self.grad[static_cast<std::size_t>(i * c + j)] -
                         soft[static_cast<std::size_t>(i * c + j)] * row_sum;
      }
      p.accumulate_grad(std::move(g));
    };
  });
}

Tensor cross_entropy(const Tensor& logits,
                     std::span<const std::int64_t> labels) {
  HG_CHECK(logits.dim() == 2, "cross_entropy: logits must be 2-D");
  const std::int64_t r = logits.shape()[0], c = logits.shape()[1];
  HG_CHECK(static_cast<std::int64_t>(labels.size()) == r,
           "cross_entropy: label count mismatch");
  for (auto l : labels)
    HG_CHECK(l >= 0 && l < c, "cross_entropy: label out of range");

  const auto ad = logits.data();
  std::vector<float> soft(static_cast<std::size_t>(r * c));
  float loss = 0.f;
  for (std::int64_t i = 0; i < r; ++i) {
    float mx = -std::numeric_limits<float>::infinity();
    for (std::int64_t j = 0; j < c; ++j) mx = std::max(mx, ad[i * c + j]);
    float denom = 0.f;
    for (std::int64_t j = 0; j < c; ++j) denom += std::exp(ad[i * c + j] - mx);
    const float log_denom = std::log(denom);
    for (std::int64_t j = 0; j < c; ++j)
      soft[i * c + j] = std::exp(ad[i * c + j] - mx - log_denom);
    const std::int64_t y = labels[static_cast<std::size_t>(i)];
    loss -= ad[i * c + y] - mx - log_denom;
  }
  loss /= static_cast<float>(r);

  return make_op({}, {loss}, {logits}, [&] {
    return [r, c, soft = std::move(soft),
            lbl = std::vector<std::int64_t>(labels.begin(), labels.end())](
               Impl& self) {
      Impl& p = *self.parents[0];
      if (!p.requires_grad) return;
      const float seed = self.grad[0] / static_cast<float>(r);
      std::vector<float> g(static_cast<std::size_t>(r * c));
      for (std::int64_t i = 0; i < r; ++i) {
        const std::int64_t y = lbl[static_cast<std::size_t>(i)];
        for (std::int64_t j = 0; j < c; ++j) {
          float v = soft[static_cast<std::size_t>(i * c + j)];
          if (j == y) v -= 1.f;
          g[i * c + j] = v * seed;
        }
      }
      p.accumulate_grad(std::move(g));
    };
  });
}

// ---- dropout -------------------------------------------------------------------------------

Tensor dropout(const Tensor& a, float p, bool training, Rng& rng) {
  HG_CHECK(p >= 0.f && p < 1.f, "dropout: p must be in [0, 1)");
  if (!training || p == 0.f) return a;
  const std::int64_t n = a.numel();
  const float scale = 1.f / (1.f - p);
  std::vector<float> mask(static_cast<std::size_t>(n));
  for (auto& m : mask) m = rng.bernoulli(p) ? 0.f : scale;
  const auto ad = a.data();
  std::vector<float> out(static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < n; ++i) out[i] = ad[i] * mask[i];
  return make_op(a.shape(), std::move(out), {a}, [&] {
    return [mask = std::move(mask)](Impl& self) {
      Impl& par = *self.parents[0];
      if (!par.requires_grad) return;
      std::vector<float> g(mask.size());
      for (std::size_t i = 0; i < mask.size(); ++i)
        g[i] = self.grad[i] * mask[i];
      par.accumulate_grad(std::move(g));
    };
  });
}

// ---- helpers ---------------------------------------------------------------------------------

std::vector<std::int64_t> argmax_rows(const Tensor& a) {
  HG_CHECK(a.dim() == 2, "argmax_rows requires a 2-D tensor");
  const std::int64_t r = a.shape()[0], c = a.shape()[1];
  HG_CHECK(c > 0, "argmax_rows: empty rows");
  const auto ad = a.data();
  std::vector<std::int64_t> out(static_cast<std::size_t>(r));
  for (std::int64_t i = 0; i < r; ++i) {
    std::int64_t best = 0;
    for (std::int64_t j = 1; j < c; ++j)
      if (ad[i * c + j] > ad[i * c + best]) best = j;
    out[static_cast<std::size_t>(i)] = best;
  }
  return out;
}

}  // namespace hg
