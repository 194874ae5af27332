// tensor.hpp — dense float32 tensor with reverse-mode automatic
// differentiation.
//
// This is the numerical substrate for the whole HGNAS reproduction: the
// DGCNN baselines, the weight-sharing supernet and the GCN-based latency
// predictor are all trained through this engine.
//
// Design notes
//  * `Tensor` is a cheap value-semantic handle onto a shared
//    `TensorImpl` (data + grad + autograd edges), mirroring the
//    define-by-run tape style of PyTorch.
//  * Only float32 is supported; shapes are arbitrary-rank but the operator
//    set is optimised for the 1-D / 2-D tensors used by GNNs
//    ([num_nodes, channels], [num_edges, channels]).
//  * Broadcasting is intentionally restricted to the patterns required by
//    neural-network layers: exact shape, right-hand scalar, row vector
//    ([N,M] op [M]) and column vector ([N,M] op [N,1]). Anything else
//    throws — silent misbroadcasts are a classic source of wrong results.
//  * Gradients are accumulated (+=), so a tensor used twice receives the
//    sum of both contributions, and `zero_grad` must be called between
//    optimisation steps.
//  * A thread can divert its leaf gradients into a `detail::GradSink`.
//    While a sink is installed on a thread (`GradSinkGuard`), every
//    accumulate_grad into a leaf (a node with no backward_fn: a parameter,
//    or an input that requires grad) is logged in the sink instead of being
//    added; a closure that owns its gradient vector hands the vector over
//    rather than copying it. Replaying the sink later calls accumulate_grad
//    once per logged contribution, in the order logged. So several
//    backward passes can run at once, each on its own thread under its own
//    sink, and replaying their sinks in sample order gives every leaf the
//    floats a serial loop of those passes gives it
//    (nn::DataParallelStep). Non-leaf grads are private to one pass's tape
//    and are never diverted.
//  * Other state that a forward pass updates outside the tape (BatchNorm1d's
//    running statistics) goes through `detail::update_shared`: the update
//    runs at once with no sink installed, and is logged in the sink
//    otherwise. replay() applies a sink's logged updates in logged order,
//    so replaying sinks in sample order gives that state the floats of the
//    serial loop too.
#pragma once

#include <cstdint>
#include <functional>
#include <initializer_list>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

namespace hg {

using Shape = std::vector<std::int64_t>;

/// Number of elements described by a shape. Empty shape = scalar = 1.
std::int64_t shape_numel(const Shape& shape);

/// Human-readable "[2, 3]" form, used in error messages.
std::string shape_to_string(const Shape& shape);

class Tensor;

namespace detail {

class GradSink;

/// Shared state behind a Tensor handle. Users never touch this directly.
struct TensorImpl : std::enable_shared_from_this<TensorImpl> {
  Shape shape;
  std::vector<float> data;
  bool requires_grad = false;
  std::vector<float> grad;  // lazily sized to data.size() on first accumulate

  // Autograd tape: the tensors this one was computed from, plus a closure
  // that scatters `grad` back into the parents' grads.
  std::vector<std::shared_ptr<TensorImpl>> parents;
  std::function<void(TensorImpl&)> backward_fn;

  /// grad += g, or, for a leaf on a thread with a GradSink installed, log
  /// g in that sink (see the header note).
  void accumulate_grad(std::span<const float> g);
  /// The same for a gradient the caller owns: a sink takes the vector
  /// instead of copying it.
  void accumulate_grad(std::vector<float>&& g);
  void ensure_grad();
};

/// A log of leaf-gradient contributions and deferred shared-state updates,
/// each in the order they were made (see the header note). Its gradient
/// entries and their buffers outlive replay() and clear(), so a sink
/// reused across optimiser steps stops allocating them once it has seen
/// one step; a handed-over vector replaces its entry's buffer. Each entry
/// holds its leaf alive until it is replayed or cleared.
class GradSink {
 public:
  /// accumulate_grad every logged contribution into its leaf, then run
  /// every logged update, each in logged order, then empty the log. Call
  /// it with no sink installed.
  void replay();
  /// Empty the log without applying anything.
  void clear();

 private:
  friend struct TensorImpl;
  friend void update_shared(std::function<void()> update);
  struct Entry {
    std::shared_ptr<TensorImpl> leaf;
    std::vector<float> grad;
  };
  /// The next entry, bound to `leaf`; its buffer is the caller's to fill.
  std::vector<float>& append(std::shared_ptr<TensorImpl> leaf);

  std::vector<Entry> entries_;  // [0, size_) logged, the rest spare
  std::size_t size_ = 0;
  std::vector<std::function<void()>> updates_;
};

/// RAII: divert this thread's leaf gradients into `sink` for the guard's
/// lifetime, then restore whatever was installed before.
class GradSinkGuard {
 public:
  explicit GradSinkGuard(GradSink& sink);
  ~GradSinkGuard();
  GradSinkGuard(const GradSinkGuard&) = delete;
  GradSinkGuard& operator=(const GradSinkGuard&) = delete;

 private:
  GradSink* prev_;
};

/// The sink installed on this thread, or nullptr.
GradSink* installed_grad_sink();

/// Run `update` now, or log it in this thread's sink for replay() (see the
/// header note). The one way a forward pass writes state that other
/// samples of a data-parallel step may share.
void update_shared(std::function<void()> update);

/// Stable grouping of positions by index value (counting sort): bucket v
/// owns items[row_ptr[v] .. row_ptr[v+1]), in ascending position order.
/// Shared by scatter_reduce and the fused GNN aggregation kernels; the
/// ascending order inside each bucket is what keeps their parallel
/// reductions bit-for-bit identical to the serial edge loop.
struct IndexCsr {
  std::vector<std::int64_t> row_ptr;  // size num_buckets + 1
  std::vector<std::int64_t> items;    // size index.size()
};

/// Group positions 0..index.size() by index[i]. Throws on out-of-range
/// values, prefixing the message with `what`.
IndexCsr group_by_index(std::span<const std::int64_t> index,
                        std::int64_t num_buckets, const char* what);

/// c[m, n] = a[m, k] · b[k, n], row-major, without touching the tape: the
/// kernel behind matmul(). Each c[i, j] sums its k terms in ascending order
/// from 0, skipping zero a[i, p], so a caller that feeds it the same
/// operands gets matmul()'s floats bit for bit. c must not alias a or b.
void raw_matmul(const float* a, const float* b, float* c, std::int64_t m,
                std::int64_t k, std::int64_t n);

/// RAII guard disabling autograd tape recording (inference / measurement).
class NoGradGuard {
 public:
  NoGradGuard();
  ~NoGradGuard();
  NoGradGuard(const NoGradGuard&) = delete;
  NoGradGuard& operator=(const NoGradGuard&) = delete;

 private:
  bool prev_;
};

bool grad_enabled();

}  // namespace detail

using detail::NoGradGuard;

class Rng;

/// Dense float tensor with optional autograd.
class Tensor {
 public:
  /// Default: empty scalar-shaped tensor holding {0}.
  Tensor();

  // ---- factories ---------------------------------------------------------
  static Tensor zeros(Shape shape, bool requires_grad = false);
  static Tensor ones(Shape shape, bool requires_grad = false);
  static Tensor full(Shape shape, float value, bool requires_grad = false);
  static Tensor scalar(float value, bool requires_grad = false);
  /// Takes ownership of `values`; size must equal shape_numel(shape).
  static Tensor from_vector(Shape shape, std::vector<float> values,
                            bool requires_grad = false);
  static Tensor randn(Shape shape, Rng& rng, float mean = 0.f,
                      float stddev = 1.f, bool requires_grad = false);
  static Tensor rand_uniform(Shape shape, Rng& rng, float lo, float hi,
                             bool requires_grad = false);

  // ---- shape & data access ------------------------------------------------
  const Shape& shape() const { return impl_->shape; }
  std::int64_t dim() const { return static_cast<std::int64_t>(impl_->shape.size()); }
  std::int64_t size(std::int64_t axis) const;
  std::int64_t numel() const { return static_cast<std::int64_t>(impl_->data.size()); }

  std::span<float> data() { return impl_->data; }
  std::span<const float> data() const { return impl_->data; }
  std::span<const float> grad() const { return impl_->grad; }
  bool has_grad() const { return !impl_->grad.empty(); }

  /// Element access for scalars and small tensors (tests, losses).
  float item() const;
  float at(std::initializer_list<std::int64_t> idx) const;

  bool requires_grad() const { return impl_->requires_grad; }
  /// Mark as a leaf that should receive gradients (parameters, probes).
  Tensor& set_requires_grad(bool v);

  void zero_grad();

  /// Run reverse-mode autodiff from this tensor. Precondition: scalar
  /// (numel == 1) unless an explicit seed gradient is supplied.
  void backward();
  void backward(std::span<const float> seed);

  /// Deep copy of data (drops the autograd history).
  Tensor detach() const;
  Tensor clone() const;  // like detach but keeps requires_grad flag

  // Identity of the underlying storage — used by optimisers to dedupe.
  const void* id() const { return impl_.get(); }

  // Internal handle access for op implementations.
  const std::shared_ptr<detail::TensorImpl>& impl() const { return impl_; }
  explicit Tensor(std::shared_ptr<detail::TensorImpl> impl)
      : impl_(std::move(impl)) {}

 private:
  std::shared_ptr<detail::TensorImpl> impl_;
};

namespace detail {

/// An op's inputs, held by reference: listing them takes no reference
/// counts, which matters for weights that concurrent forwards share.
using OpInputs = std::span<const std::reference_wrapper<const Tensor>>;

/// Wrap an op's forward output. Every op, built-in or custom (the fused GNN
/// aggregation), goes through here, and this is the one place that decides
/// whether the op records a tape edge: autograd is enabled and some parent
/// requires gradients. Only then is `make_backward()` called, so the
/// closure it returns, and every input copy that closure captures, is never
/// built on a no-grad forward. The closure must scatter self.grad into the
/// parents via accumulate_grad.
template <class MakeBackward>
Tensor make_op(Shape shape, std::vector<float> data, OpInputs parents,
               MakeBackward&& make_backward) {
  auto impl = std::make_shared<TensorImpl>();
  impl->shape = std::move(shape);
  impl->data = std::move(data);
  bool record = false;
  if (grad_enabled())
    for (const Tensor& p : parents) record = record || p.requires_grad();
  if (record) {
    impl->requires_grad = true;
    impl->parents.reserve(parents.size());
    for (const Tensor& p : parents) impl->parents.push_back(p.impl());
    impl->backward_fn = std::forward<MakeBackward>(make_backward)();
  }
  return Tensor(std::move(impl));
}

template <class MakeBackward>
Tensor make_op(Shape shape, std::vector<float> data,
               std::initializer_list<std::reference_wrapper<const Tensor>>
                   parents,
               MakeBackward&& make_backward) {
  return make_op(std::move(shape), std::move(data),
                 OpInputs(parents.begin(), parents.size()),
                 std::forward<MakeBackward>(make_backward));
}

}  // namespace detail

// ---- binary elementwise (broadcast: exact | scalar | [M] row | [N,1] col) --
Tensor add(const Tensor& a, const Tensor& b);
Tensor sub(const Tensor& a, const Tensor& b);
Tensor mul(const Tensor& a, const Tensor& b);
Tensor div(const Tensor& a, const Tensor& b);

Tensor add(const Tensor& a, float s);
Tensor sub(const Tensor& a, float s);
Tensor mul(const Tensor& a, float s);
Tensor div(const Tensor& a, float s);

inline Tensor operator+(const Tensor& a, const Tensor& b) { return add(a, b); }
inline Tensor operator-(const Tensor& a, const Tensor& b) { return sub(a, b); }
inline Tensor operator*(const Tensor& a, const Tensor& b) { return mul(a, b); }
inline Tensor operator/(const Tensor& a, const Tensor& b) { return div(a, b); }
inline Tensor operator+(const Tensor& a, float s) { return add(a, s); }
inline Tensor operator-(const Tensor& a, float s) { return sub(a, s); }
inline Tensor operator*(const Tensor& a, float s) { return mul(a, s); }
inline Tensor operator/(const Tensor& a, float s) { return div(a, s); }

Tensor neg(const Tensor& a);

// ---- unary elementwise ------------------------------------------------------
Tensor relu(const Tensor& a);
Tensor leaky_relu(const Tensor& a, float negative_slope = 0.01f);
Tensor sigmoid(const Tensor& a);
Tensor tanh_op(const Tensor& a);
Tensor exp_op(const Tensor& a);
Tensor log_op(const Tensor& a);      // natural log; inputs must be > 0
Tensor sqrt_op(const Tensor& a);
Tensor square(const Tensor& a);
Tensor abs_op(const Tensor& a);

// ---- linear algebra ---------------------------------------------------------
/// [N,K] x [K,M] -> [N,M].
Tensor matmul(const Tensor& a, const Tensor& b);
/// 2-D transpose (copies).
Tensor transpose(const Tensor& a);

// ---- reductions -------------------------------------------------------------
Tensor sum_all(const Tensor& a);                   // -> scalar
Tensor mean_all(const Tensor& a);                  // -> scalar
/// 2-D reduction along `axis` (0: over rows -> [M]; 1: over cols -> [N]).
Tensor sum_axis(const Tensor& a, int axis);
Tensor mean_axis(const Tensor& a, int axis);
/// Max over axis 0 of a 2-D tensor -> [M]; gradient routed to the argmax row.
Tensor max_axis0(const Tensor& a);
Tensor min_axis0(const Tensor& a);

// ---- shape ops ---------------------------------------------------------------
Tensor reshape(const Tensor& a, Shape new_shape);
/// Concatenate 2-D tensors along `axis` (0 or 1).
Tensor concat(const std::vector<Tensor>& parts, int axis);
/// Select rows of a 2-D tensor: result[i] = a[indices[i]]. Grad scatters back.
Tensor gather_rows(const Tensor& a, std::span<const std::int64_t> indices);
/// Rows [begin, end) of a 2-D tensor.
Tensor slice_rows(const Tensor& a, std::int64_t begin, std::int64_t end);

// ---- GNN scatter primitives ---------------------------------------------------
enum class Reduce { Sum, Mean, Max, Min };

/// Scatter-reduce edge messages to nodes: out[index[e]] ⊕= messages[e].
/// messages: [E, M]; index: size E with values in [0, num_nodes).
/// Mean divides by in-degree (degree-0 rows are zero). Max/Min route the
/// gradient to the winning edge; empty rows get 0.
Tensor scatter_reduce(const Tensor& messages,
                      std::span<const std::int64_t> index,
                      std::int64_t num_nodes, Reduce reduce);

// ---- softmax & losses -----------------------------------------------------------
/// Numerically-stable softmax over the last dimension of a 2-D tensor.
Tensor softmax(const Tensor& a);
Tensor log_softmax(const Tensor& a);
/// Mean cross-entropy of logits [N,C] against integer labels (size N).
Tensor cross_entropy(const Tensor& logits, std::span<const std::int64_t> labels);

// ---- regularisation ----------------------------------------------------------
/// Inverted dropout. Identity when !training or p == 0.
Tensor dropout(const Tensor& a, float p, bool training, Rng& rng);

// ---- non-differentiable helpers -------------------------------------------------
/// Row-wise argmax of a 2-D tensor (predictions from logits).
std::vector<std::int64_t> argmax_rows(const Tensor& a);

}  // namespace hg
