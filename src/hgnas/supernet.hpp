// supernet.hpp — weight-sharing GNN supernet (single-path one-shot).
//
// The supernet covers the whole design space with one parameter bank per
// (position, choice) so that sub-network accuracy can be evaluated without
// retraining (Guo et al. [22], paper §III-C). To keep all positions
// compatible, every operation is dimension-aligned to a fixed hidden width
// H ("supernet training demands that operations within each position must
// obtain the same hidden dimension length", §III-B):
//
//   * input projection   Linear(3 -> H)
//   * Combine(c)         Linear(H -> c) + LeakyReLU + align Linear(c -> H)
//                        — the bottleneck width c is the function choice,
//                        so stage-1 function search feels its capacity.
//   * Aggregate(msg, r)  messages from H-dim features, scatter-reduce,
//                        align Linear(message_dim(msg, H) -> H).
//   * Sample / Connect   weightless (channels are already aligned).
//
// The alignment linears exist only here; the finalised GnnModel rebuilds
// the architecture with natural channel flow and no alignment weights.
#pragma once

#include <atomic>
#include <functional>
#include <memory>
#include <vector>

#include "core/stepwise.hpp"
#include "hgnas/arch.hpp"
#include "nn/nn.hpp"
#include "pointcloud/pointcloud.hpp"
#include "tensor/optim.hpp"

namespace hg::hgnas {

struct SupernetConfig {
  std::int64_t hidden = 32;       // H
  std::int64_t k = 10;            // neighbours per sample
  std::int64_t num_classes = 10;  // synthetic dataset classes
  std::int64_t head_hidden = 64;
};

/// Cursor of one accuracy probe: `arch` scored over the first `count`
/// samples of a validation split, one sample per SuperNet::advance_probe().
/// Everything the probe carries between samples lives here (no
/// thread-local state), so a caller can interleave many probes, suspend
/// between samples and resume on another thread.
struct AccuracyProbe {
  Arch arch;
  Rng rng;                  // private stream for Random-sample ops
  std::size_t next = 0;     // index of the next validation sample
  std::size_t count = 0;    // samples the probe covers
  std::size_t correct = 0;  // correct predictions so far

  bool done() const { return next == count; }
  double accuracy() const {
    return static_cast<double>(correct) / static_cast<double>(count);
  }
};

class SuperNet final : public nn::Module {
 public:
  SuperNet(const SpaceConfig& space, const SupernetConfig& cfg, Rng& rng);

  /// Forward one point cloud through the path selected by `arch`
  /// (operation types and function attributes). rng drives Random samples.
  Tensor forward(const Arch& arch, const Tensor& points, Rng& rng);

  std::vector<Tensor> parameters() const override;
  void set_training(bool training) override;

  /// One SPOS training pass over `train`: every sample gets a fresh
  /// uniformly-sampled path from `sampler`. Returns mean loss. Drives
  /// train_epoch_stepwise() to completion.
  double train_epoch(const std::vector<pointcloud::Sample>& train,
                     const std::function<Arch(Rng&)>& sampler, Adam& opt,
                     std::int64_t batch_size, Rng& rng);

  /// train_epoch() as a coroutine that suspends after every optimiser
  /// step: ceil(|train| / batch_size) suspensions per epoch. `*mean_loss`
  /// holds the epoch's mean loss once the stepper is done. `train`, `opt`,
  /// `rng`, `mean_loss` and this supernet must outlive the stepper.
  ///
  /// The forward and backward passes of each mini-batch fan out across
  /// the pool (nn::DataParallelStep): paths and per-sample RNG streams are
  /// drawn serially up front and the gradients are applied in sample
  /// order, so the result is identical at every pool width, 1 included.
  core::Stepper train_epoch_stepwise(
      const std::vector<pointcloud::Sample>& train,
      std::function<Arch(Rng&)> sampler, Adam& opt, std::int64_t batch_size,
      Rng& rng, double* mean_loss);

  /// A probe of `arch`'s validation accuracy over the first
  /// min(|val|, max_samples) samples of `val` (all of them when
  /// max_samples <= 0), drawing from `rng`. Throws std::invalid_argument
  /// on an empty split.
  static AccuracyProbe begin_probe(Arch arch,
                                   const std::vector<pointcloud::Sample>& val,
                                   std::int64_t max_samples, Rng rng);

  /// Score the probe's next sample (forward pass only, under a NoGradGuard
  /// scoped to this call); precondition: !probe.done(). Safe to call
  /// concurrently on different probes from pool workers (forward reads the
  /// shared weights, never writes), provided the caller holds
  /// set_training(false) around the whole round.
  void advance_probe(AccuracyProbe& probe,
                     const std::vector<pointcloud::Sample>& val);

  /// Re-initialise every weight (paper re-inits the supernet between
  /// stage 1 and stage 2).
  void reinitialize(Rng& rng);

  const SpaceConfig& space() const { return space_; }
  const SupernetConfig& config() const { return cfg_; }

  /// Monotone counter bumped by every weight mutation (train_epoch,
  /// reinitialize). Anything derived from the weights — notably memoised
  /// candidate scores (hgnas::EvalCache) — keys its validity on this.
  /// Atomic so a reader on another thread (a concurrent cache-scope check)
  /// observes a published value; the weights themselves are NOT protected —
  /// callers that mutate them must hold whatever exclusion the sharing
  /// layer provides (serve::Service runs all training exclusively).
  std::int64_t weight_version() const {
    return weight_version_.load(std::memory_order_acquire);
  }

 private:
  SpaceConfig space_;
  SupernetConfig cfg_;
  // Deliberately atomic rather than HG_GUARDED_BY a mutex (see
  // core/annotations.hpp): cross-thread readers only need a published
  // value, and the weights it versions are externally serialized.
  std::atomic<std::int64_t> weight_version_{0};

  std::unique_ptr<nn::Linear> input_proj_;
  // combine_[pos][dim_idx] -> {bottleneck, align}
  std::vector<std::vector<std::unique_ptr<nn::Linear>>> combine_in_;
  std::vector<std::vector<std::unique_ptr<nn::Linear>>> combine_out_;
  // aggr_align_[pos][msg] -> align linear
  std::vector<std::vector<std::unique_ptr<nn::Linear>>> aggr_align_;
  std::unique_ptr<nn::Linear> head1_, head2_;
};

}  // namespace hg::hgnas
