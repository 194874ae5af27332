#include "api/eval_context.hpp"

#include <exception>
#include <utility>

#include "core/parallel.hpp"
#include "predictor/predictor.hpp"

namespace hg::api {

namespace {

// Decorrelates the evaluator's stochastic state (label-collection draws,
// measurement noise) from the master seed's other consumers. MUST stay the
// one constant shared by evaluator() and create_many's prefetch specs —
// they drift apart and fleet-prefetched labels no longer match what a lone
// create() would collect.
constexpr std::uint64_t kEvaluatorSeedSalt = 0xa5a5a5a55a5a5a5aULL;

}  // namespace

Result<std::shared_ptr<EvalContext>> EvalContext::build_base(
    const EngineConfig& cfg) {
  if (const Status s = validate(cfg); !s.ok()) return s;

  std::shared_ptr<EvalContext> ctx(new EvalContext());
  ctx->cfg_ = cfg;

  // Size the shared execution pool (0 = hardware concurrency, 1 = inline
  // on the caller; results never depend on it). Process-wide, like a BLAS
  // thread setting.
  try {
    core::set_num_threads(cfg.num_threads);
  } catch (const std::exception& e) {
    // Thread creation can fail under resource exhaustion even for counts
    // that pass validation; keep the no-throw facade contract.
    return Status::Internal(std::string("cannot size the thread pool: ") +
                            e.what());
  }

  Result<hw::Device> device = Registry::global().make_device(cfg.device);
  if (!device.ok()) return device.status();
  ctx->device_ = std::make_unique<hw::Device>(std::move(device).value());

  ctx->deploy_workload_.num_points = cfg.num_points;
  ctx->deploy_workload_.k = cfg.k;
  ctx->deploy_workload_.num_classes = cfg.num_classes;

  ctx->data_ = std::make_unique<pointcloud::Dataset>(
      cfg.samples_per_class, cfg.train_points, cfg.dataset_seed);
  ctx->train_workload_.num_points = cfg.train_points;
  ctx->train_workload_.k = cfg.train_k;
  ctx->train_workload_.num_classes = ctx->data_->num_classes();

  const hw::Trace reference =
      hw::dgcnn_reference_trace(cfg.num_points, cfg.k, cfg.num_classes);
  ctx->reference_ms_ = ctx->device_->latency_ms(reference);
  ctx->reference_mb_ = ctx->device_->peak_memory_mb(reference);

  ctx->rng_ = std::make_unique<Rng>(cfg.seed);
  hgnas::SpaceConfig space;
  space.num_positions = cfg.num_positions;
  hgnas::SupernetConfig sn_cfg;
  sn_cfg.hidden = cfg.supernet_hidden;
  sn_cfg.k = cfg.train_k;
  sn_cfg.num_classes = ctx->data_->num_classes();
  sn_cfg.head_hidden = cfg.supernet_head_hidden;
  ctx->supernet_ =
      std::make_unique<hgnas::SuperNet>(space, sn_cfg, *ctx->rng_);

  // Warm start: a persisted memo cache whose scope (evaluator tag,
  // objective, supernet weight version) still matches keeps its entries;
  // anything else — missing file, corrupt file, stale scope — is a cold
  // start, never an error.
  if (!cfg.eval_cache_path.empty())
    ctx->eval_cache_.load(cfg.eval_cache_path);

  return ctx;
}

Result<std::shared_ptr<EvalContext>> EvalContext::create(
    const EngineConfig& cfg) {
  Result<std::shared_ptr<EvalContext>> ctx = build_base(cfg);
  if (!ctx.ok()) return ctx.status();

  // Resolve the config's evaluator eagerly: for "predictor" this collects
  // the labelled architectures and fits — the expensive step sharing a
  // context amortises.
  if (Result<EvaluatorBundle> eval = ctx.value()->evaluator(cfg.evaluator);
      !eval.ok())
    return eval.status();

  return ctx;
}

Result<std::vector<std::shared_ptr<EvalContext>>> EvalContext::create_many(
    std::span<const EngineConfig> cfgs) {
  if (cfgs.empty())
    return Status::InvalidArgument("create_many: no configs given");
  for (const EngineConfig& cfg : cfgs) {
    if (cfg.num_threads != cfgs.front().num_threads)
      return Status::InvalidArgument(
          "create_many: all configs must agree on num_threads (the "
          "execution pool is process-wide)");
  }
  // Each persisted cache file belongs to exactly one context: two contexts
  // saving to one path would silently clobber each other at destruction
  // (last destructor wins, every other device permanently cold).
  for (std::size_t i = 0; i < cfgs.size(); ++i) {
    if (cfgs[i].eval_cache_path.empty()) continue;
    for (std::size_t j = i + 1; j < cfgs.size(); ++j) {
      if (cfgs[i].eval_cache_path == cfgs[j].eval_cache_path)
        return Status::InvalidArgument(
            "create_many: configs " + std::to_string(i) + " and " +
            std::to_string(j) + " share eval_cache_path '" +
            cfgs[i].eval_cache_path +
            "' — each context needs its own cache file");
    }
  }

  std::vector<std::shared_ptr<EvalContext>> contexts;
  contexts.reserve(cfgs.size());
  for (const EngineConfig& cfg : cfgs) {
    Result<std::shared_ptr<EvalContext>> ctx = build_base(cfg);
    if (!ctx.ok()) return ctx.status();
    contexts.push_back(std::move(ctx).value());
  }

  // Fleet-wide label collection: one pooled measurement queue feeds every
  // "predictor" context. Per-context specs replicate exactly what a lone
  // evaluator() build would request, so the fitted predictors are
  // identical to the one-context-at-a-time path.
  std::vector<predictor::CollectSpec> specs;
  std::vector<std::size_t> spec_owner;
  for (std::size_t i = 0; i < contexts.size(); ++i) {
    const EngineConfig& cfg = contexts[i]->cfg_;
    if (normalize_key(cfg.evaluator) != "predictor") continue;
    predictor::CollectSpec spec;
    spec.device = contexts[i]->device_.get();
    spec.count = cfg.predictor_samples;
    spec.seed = cfg.seed ^ kEvaluatorSeedSalt;
    specs.push_back(spec);
    spec_owner.push_back(i);
  }
  if (!specs.empty()) {
    // Workload / space are context-shaping and may differ across the
    // fleet only if they all match (collect_labeled_archs_multi draws one
    // space/workload); fall back to per-context collection otherwise.
    bool uniform = true;
    for (std::size_t s = 1; s < spec_owner.size(); ++s) {
      const EngineConfig& a = contexts[spec_owner[0]]->cfg_;
      const EngineConfig& b = contexts[spec_owner[s]]->cfg_;
      if (a.num_points != b.num_points || a.k != b.k ||
          a.num_classes != b.num_classes ||
          a.num_positions != b.num_positions)
        uniform = false;
    }
    if (uniform) {
      try {
        hgnas::SpaceConfig space;
        space.num_positions = contexts[spec_owner[0]]->cfg_.num_positions;
        std::vector<std::vector<predictor::LabeledArch>> labels =
            predictor::collect_labeled_archs_multi(
                specs, space, contexts[spec_owner[0]]->deploy_workload_);
        for (std::size_t s = 0; s < spec_owner.size(); ++s) {
          EvalContext& ctx = *contexts[spec_owner[s]];
          core::MutexLock lock(ctx.evaluators_mutex_);
          ctx.prefetched_labels_ = std::make_shared<
              const std::vector<predictor::LabeledArch>>(
              std::move(labels[s]));
        }
      } catch (const std::exception& e) {
        return Status::Internal(
            std::string("fleet label collection failed: ") + e.what());
      }
    }
  }

  for (const std::shared_ptr<EvalContext>& ctx : contexts) {
    if (Result<EvaluatorBundle> eval = ctx->evaluator(ctx->cfg_.evaluator);
        !eval.ok())
      return eval.status();
  }
  return contexts;
}

EvalContext::~EvalContext() {
  if (!cfg_.eval_cache_path.empty()) eval_cache_.save(cfg_.eval_cache_path);
}

Result<EvaluatorBundle> EvalContext::evaluator(const std::string& name) {
  const std::string key = normalize_key(name);
  std::shared_ptr<const std::vector<predictor::LabeledArch>> labels;
  {
    core::MutexLock lock(evaluators_mutex_);
    if (const auto it = evaluators_.find(key); it != evaluators_.end())
      return it->second;
    if (key == "predictor") labels = prefetched_labels_;
  }

  // Build outside the lock: a request for "oracle" must never wait behind
  // another thread's predictor fit. Concurrent first requests for ONE name
  // may both build; the first insert wins and the loser's (deterministic,
  // identical) bundle is discarded.
  EvaluatorRequest req;
  req.device = device_.get();
  req.space.num_positions = cfg_.num_positions;
  req.workload = deploy_workload_;
  req.seed = cfg_.seed ^ kEvaluatorSeedSalt;
  req.predictor_samples = cfg_.predictor_samples;
  req.predictor_epochs = cfg_.predictor_epochs;
  req.labeled = labels != nullptr ? labels.get() : nullptr;
  Result<EvaluatorBundle> bundle =
      Registry::global().make_evaluator(key, req);
  if (!bundle.ok()) return bundle.status();

  core::MutexLock lock(evaluators_mutex_);
  if (const auto it = evaluators_.find(key); it != evaluators_.end())
    return it->second;  // lost the race: serve the winner's bundle
  if (labels != nullptr) prefetched_labels_.reset();
  ++evaluator_builds_;
  evaluators_.emplace(key, bundle.value());
  return bundle;
}

}  // namespace hg::api
