#include "api/engine.hpp"

#include <algorithm>
#include <cstdio>
#include <exception>
#include <stdexcept>
#include <utility>

#include "obs/trace.hpp"
#include "predictor/predictor.hpp"

namespace hg::api {

namespace {

/// Process-wide verb counters. Instrument references from the global
/// registry are stable for the process lifetime, so each verb pays the
/// name lookup once and a relaxed atomic increment per call after that.
obs::Counter& engine_counter(const char* name) {
  return obs::Registry::global().counter(name);
}

std::string join(const std::vector<std::string>& names) {
  std::string out;
  for (const auto& n : names) {
    if (!out.empty()) out += ", ";
    out += n;
  }
  return out;
}

/// Structural validity of a user-supplied architecture (imported files and
/// hand-built genes enter the facade here; enum values outside their range
/// would index out of bounds further down).
Status validate_arch(const Arch& arch) {
  if (arch.genes.empty())
    return Status::InvalidArgument("architecture has no positions");
  for (std::size_t i = 0; i < arch.genes.size(); ++i) {
    const hgnas::PositionGene& g = arch.genes[i];
    const auto pos = std::to_string(i);
    const auto op = static_cast<std::int64_t>(g.op);
    if (op < 0 || op >= hgnas::kNumOpTypes)
      return Status::InvalidArgument("position " + pos +
                                     ": operation type out of range");
    const auto connect = static_cast<std::int64_t>(g.fn.connect);
    if (connect < 0 || connect >= hgnas::kNumConnectFuncs)
      return Status::InvalidArgument("position " + pos +
                                     ": connect function out of range");
    const auto aggr = static_cast<std::int64_t>(g.fn.aggr);
    if (aggr < 0 || aggr >= hgnas::kNumAggrTypes)
      return Status::InvalidArgument("position " + pos +
                                     ": aggregator out of range");
    const auto msg = static_cast<std::int64_t>(g.fn.msg);
    if (msg < 0 || msg >= gnn::kNumMessageTypes)
      return Status::InvalidArgument("position " + pos +
                                     ": message type out of range");
    const auto sample = static_cast<std::int64_t>(g.fn.sample);
    if (sample < 0 || sample >= hgnas::kNumSampleFuncs)
      return Status::InvalidArgument("position " + pos +
                                     ": sample function out of range");
    if (g.fn.combine_dim_idx < 0 ||
        g.fn.combine_dim_idx >= hgnas::kNumCombineDims)
      return Status::InvalidArgument("position " + pos +
                                     ": combine dimension index out of range");
  }
  return Status::Ok();
}

/// Drive a begun run (SearchRun / TrainBaselineRun) to completion: the one
/// way a search or a baseline training executes, in-process or served.
template <typename Run>
auto run_to_completion(Result<std::unique_ptr<Run>> run)
    -> decltype(run.value()->take_report()) {
  if (!run.ok()) return run.status();
  while (run.value()->step()) {
  }
  return run.value()->take_report();
}

}  // namespace

Result<Engine> Engine::create(const EngineConfig& cfg) {
  Result<std::shared_ptr<EvalContext>> ctx = EvalContext::create(cfg);
  if (!ctx.ok()) return ctx.status();
  return create(cfg, std::move(ctx).value());
}

Result<Engine> Engine::create(const EngineConfig& cfg,
                              std::shared_ptr<EvalContext> ctx) {
  if (const Status s = validate(cfg); !s.ok()) return s;
  if (ctx == nullptr)
    return Status::InvalidArgument("EvalContext is null");
  if (const Status s = context_compatible(ctx->config(), cfg); !s.ok())
    return s;

  Registry& reg = Registry::global();
  if (!reg.has_strategy(cfg.strategy))
    return Status::NotFound("unknown strategy '" + cfg.strategy +
                            "' (known: " + join(reg.strategy_names()) + ")");

  Engine engine;
  engine.cfg_ = cfg;
  engine.ctx_ = std::move(ctx);

  Result<EvaluatorBundle> evaluator = engine.ctx_->evaluator(cfg.evaluator);
  if (!evaluator.ok()) return evaluator.status();
  engine.evaluator_ = std::move(evaluator).value();

  hgnas::SearchConfig& scfg = engine.search_cfg_;
  scfg.space.num_positions = cfg.num_positions;
  scfg.workload = engine.ctx_->deploy_workload();
  scfg.population = cfg.population;
  scfg.parents = cfg.parents;
  scfg.iterations = cfg.iterations;
  scfg.alpha = cfg.alpha;
  scfg.beta = cfg.beta;
  scfg.latency_constraint_ms = cfg.latency_budget_ms;
  if (!scfg.latency_constraint_ms && cfg.constrain_to_reference)
    scfg.latency_constraint_ms = engine.ctx_->reference_latency_ms();
  scfg.memory_constraint_mb = cfg.memory_budget_mb;
  scfg.size_constraint_mb = cfg.model_size_budget_mb;
  scfg.latency_scale_ms =
      cfg.latency_scale_ms.value_or(engine.ctx_->reference_latency_ms());
  scfg.eval_val_samples = cfg.eval_val_samples;
  scfg.function_paths_per_eval = cfg.function_paths_per_eval;
  scfg.stage1_epochs = cfg.stage1_epochs;
  scfg.stage2_epochs = cfg.stage2_epochs;
  scfg.train_supernet = cfg.train_supernet;
  scfg.sim_train_s_per_sample = cfg.sim_train_s_per_sample;
  scfg.sim_eval_s_per_sample = cfg.sim_eval_s_per_sample;
  // Scopes the shared memo cache: scores from a different evaluator (or a
  // different master seed's measurement stream) never get served here.
  scfg.evaluator_tag = cfg.evaluator + "@" + cfg.device + "#" +
                       std::to_string(cfg.seed);

  return engine;
}

Result<SearchReport> Engine::search() {
  Result<SearchReport> report = run_to_completion(begin_search());
  if (report.ok()) {
    last_cache_hits_ = report.value().result.eval_cache_hits;
    last_cache_misses_ = report.value().result.eval_cache_misses;
  }
  return report;
}

Result<std::unique_ptr<SearchRun>> Engine::begin_search() {
  // search() drives this run, so engine.searches counts every search
  // once, in-process or served.
  static obs::Counter& searches = engine_counter("engine.searches");
  searches.inc();
  StrategyRequest req;
  req.supernet = &ctx_->supernet();
  req.data = &ctx_->data();
  req.cfg = search_cfg_;
  req.latency = evaluator_.fn;
  req.rng = &ctx_->rng();
  req.eval_cache = &ctx_->eval_cache();

  std::unique_ptr<SearchRun> run(new SearchRun());
  run->ctx_ = ctx_;
  run->deploy_workload_ = deploy_workload();
  try {
    Result<std::unique_ptr<hgnas::SearchStepper>> stepper =
        Registry::global().make_strategy_stepper(cfg_.strategy, req);
    if (!stepper.ok()) return stepper.status();
    run->stepper_ = std::move(stepper).value();
  } catch (const std::exception& e) {
    return Status::Internal(std::string("search failed: ") + e.what());
  }
  return run;
}

bool SearchRun::step() {
  if (finished_) return false;
  try {
    if (stepper_->step()) return true;
    result_ = stepper_->take_result();
  } catch (const std::exception& e) {
    error_ = Status::Internal(std::string("search failed: ") + e.what());
  }
  finished_ = true;
  return false;
}

Result<SearchReport> SearchRun::take_report() {
  if (!finished_)
    return Status::FailedPrecondition(
        "search still in flight; drive step() to completion first");
  if (!error_.ok()) return error_;
  try {
    SearchReport report;
    report.result = std::move(result_);
    report.visualization =
        hgnas::visualize(report.result.best_arch, deploy_workload_);
    for (const ParetoPoint& p : report.result.frontier) {
      char line[64];
      std::snprintf(line, sizeof(line), "%12.1f %10.3f\n", p.latency_ms,
                    p.accuracy);
      report.frontier_table += line;
    }
    return report;
  } catch (const std::exception& e) {
    return Status::Internal(std::string("search failed: ") + e.what());
  }
}

Result<LatencyReport> Engine::predict_latency(const Arch& arch) {
  if (const Status s = validate_arch(arch); !s.ok()) return s;
  try {
    const hgnas::LatencyEval eval = evaluator_.fn(arch);
    return LatencyReport{eval.latency_ms, eval.peak_memory_mb, eval.oom};
  } catch (const std::exception& e) {
    return Status::Internal(std::string("latency evaluation failed: ") +
                            e.what());
  }
}

Result<std::vector<LatencyReport>> Engine::predict_batch(
    std::span<const Arch> archs) {
  static obs::Counter& batches = engine_counter("engine.predict_batches");
  static obs::Counter& archs_counter =
      engine_counter("engine.predicted_archs");
  batches.inc();
  archs_counter.inc(static_cast<std::int64_t>(archs.size()));
  for (const Arch& arch : archs)
    if (const Status s = validate_arch(arch); !s.ok()) return s;
  try {
    std::vector<LatencyReport> reports;
    reports.reserve(archs.size());
    if (evaluator_.predictor != nullptr) {
      const std::vector<double> ms =
          evaluator_.predictor->predict_batch_ms(archs);
      for (const double m : ms) reports.push_back(LatencyReport{m, 0.0, false});
    } else {
      for (const Arch& arch : archs) {
        const hgnas::LatencyEval eval = evaluator_.fn(arch);
        reports.push_back(
            LatencyReport{eval.latency_ms, eval.peak_memory_mb, eval.oom});
      }
    }
    return reports;
  } catch (const std::exception& e) {
    return Status::Internal(std::string("batched latency evaluation failed: ") +
                            e.what());
  }
}

Result<TrainReport> Engine::train(const Arch& arch) {
  if (const Status s = validate_arch(arch); !s.ok()) return s;
  try {
    hgnas::GnnModel model(arch, train_workload(), ctx_->rng());
    hgnas::TrainConfig tcfg;
    tcfg.epochs = cfg_.train_epochs;
    tcfg.lr = cfg_.train_lr;
    const hgnas::EvalResult eval =
        hgnas::train_model(model, ctx_->data(), tcfg, ctx_->rng());
    return TrainReport{eval.overall_acc, eval.balanced_acc, eval.mean_loss,
                       model.param_mb()};
  } catch (const std::exception& e) {
    return Status::Internal(std::string("training failed: ") + e.what());
  }
}

ProfileReport Engine::profile_trace(const hw::Trace& trace,
                                    const Workload& reference_workload) const {
  const hw::Device& dev = ctx_->device();
  ProfileReport report;
  report.latency_ms = dev.latency_ms(trace);
  report.peak_memory_mb = dev.peak_memory_mb(trace);
  report.energy_mj = dev.energy_mj(trace);
  report.param_mb = trace.param_mb;
  report.oom = dev.would_oom(trace);
  report.breakdown = hw::breakdown_summary(dev, trace);
  report.per_op_table = hw::profile_report(dev, trace);
  report.category_fraction = dev.breakdown(trace).fraction;
  const hw::Trace reference = hw::dgcnn_reference_trace(
      reference_workload.num_points, reference_workload.k,
      reference_workload.num_classes);
  report.reference_latency_ms = dev.latency_ms(reference);
  report.reference_memory_mb = dev.peak_memory_mb(reference);
  report.speedup_vs_reference =
      report.latency_ms > 0.0
          ? report.reference_latency_ms / report.latency_ms
          : 0.0;
  report.search_cache_hits = last_cache_hits_;
  report.search_cache_misses = last_cache_misses_;
  return report;
}

Result<ProfileReport> Engine::profile(const Arch& arch) const {
  if (const Status s = validate_arch(arch); !s.ok()) return s;
  try {
    const Workload& w = deploy_workload();
    hw::Trace trace = hgnas::lower_to_trace(arch, w);
    trace.param_mb = hgnas::arch_param_mb(arch, w);
    return profile_trace(trace, w);
  } catch (const std::exception& e) {
    return Status::Internal(std::string("profiling failed: ") + e.what());
  }
}

Result<ProfileReport> Engine::profile_baseline(const std::string& name) const {
  return profile_baseline(name, deploy_workload());
}

Result<ProfileReport> Engine::profile_baseline(const std::string& name,
                                               const Workload& w) const {
  if (w.num_points <= 1 || w.k <= 0 || w.k >= w.num_points ||
      w.num_classes <= 0)
    return Status::InvalidArgument(
        "profile_baseline: workload needs num_points > 1, "
        "k in [1, num_points), num_classes > 0");
  Result<std::unique_ptr<Lowerable>> baseline =
      Registry::global().make_baseline(name);
  if (!baseline.ok()) return baseline.status();
  try {
    return profile_trace(baseline.value()->lower(w), w);
  } catch (const std::exception& e) {
    return Status::Internal(std::string("baseline profiling failed: ") +
                            e.what());
  }
}

Result<TrainReport> Engine::train_baseline(const std::string& name) {
  return run_to_completion(begin_train_baseline(name));
}

Result<std::unique_ptr<TrainBaselineRun>> Engine::begin_train_baseline(
    const std::string& name) {
  static obs::Counter& trains = engine_counter("engine.train_baselines");
  trains.inc();
  Result<std::unique_ptr<Lowerable>> baseline =
      Registry::global().make_baseline(name);
  if (!baseline.ok()) return baseline.status();
  std::unique_ptr<TrainBaselineRun> run(new TrainBaselineRun());
  run->ctx_ = ctx_;
  run->baseline_ = std::move(baseline).value();
  try {
    // The model is materialised here, consuming the context RNG before the
    // first epoch's draws.
    run->stepper_ = run->baseline_->train_stepper(
        ctx_->data(), train_workload(), cfg_.train_epochs, cfg_.train_lr,
        ctx_->rng());
  } catch (const std::exception& e) {
    return Status::Internal(std::string("baseline training failed: ") +
                            e.what());
  }
  return run;
}

bool TrainBaselineRun::step() {
  if (finished_) return false;
  try {
    HG_TRACE_SCOPE("train.epoch", "train");
    if (stepper_->step()) return true;
    const BaselineTrainResult r = stepper_->result();
    report_ = TrainReport{r.overall_acc, r.balanced_acc, 0.0, r.param_mb};
  } catch (const std::exception& e) {
    error_ = Status::Internal(std::string("baseline training failed: ") +
                              e.what());
  }
  finished_ = true;
  return false;
}

Result<TrainReport> TrainBaselineRun::take_report() {
  if (!finished_)
    return Status::FailedPrecondition(
        "baseline training still in flight; drive step() to completion "
        "first");
  if (!error_.ok()) return error_;
  return report_;
}

obs::Snapshot Engine::metrics() { return obs::Registry::global().snapshot(); }

Result<std::string> Engine::export_arch(const Arch& arch) const {
  if (const Status s = validate_arch(arch); !s.ok()) return s;
  return hgnas::arch_to_text(arch);
}

Result<Arch> Engine::import_arch(const std::string& text) const {
  try {
    Arch arch = hgnas::arch_from_text(text);
    if (const Status s = validate_arch(arch); !s.ok()) return s;
    return arch;
  } catch (const std::exception& e) {
    return Status::InvalidArgument(e.what());
  }
}

Status Engine::save_arch(const std::string& path, const Arch& arch) const {
  if (const Status s = validate_arch(arch); !s.ok()) return s;
  try {
    hgnas::save_arch(path, arch);
    return Status::Ok();
  } catch (const std::exception& e) {
    return Status::InvalidArgument(e.what());
  }
}

Result<Arch> Engine::load_arch(const std::string& path) const {
  try {
    Arch arch = hgnas::load_arch(path);
    if (const Status s = validate_arch(arch); !s.ok()) return s;
    return arch;
  } catch (const std::exception& e) {
    return Status::InvalidArgument(e.what());
  }
}

std::string Engine::visualize(const Arch& arch) const {
  return hgnas::visualize(arch, deploy_workload());
}

ArchGraphInfo Engine::arch_graph_info(const Arch& arch) const {
  const predictor::ArchGraph g =
      predictor::arch_to_graph(arch, deploy_workload());
  return ArchGraphInfo{g.edges.num_nodes, g.edges.num_edges(),
                       predictor::kFeatureDim};
}

Result<PredictorReport> Engine::evaluate_predictor(std::int64_t test_count,
                                                   std::uint64_t seed) {
  if (!evaluator_.predictor)
    return Status::FailedPrecondition(
        "engine was created with evaluator '" + cfg_.evaluator +
        "'; predictor metrics need evaluator \"predictor\"");
  if (test_count <= 0)
    return Status::InvalidArgument("test_count must be positive");
  const auto test = predictor::collect_labeled_archs(
      ctx_->device(), search_cfg_.space, deploy_workload(), test_count, seed);
  if (test.empty())
    return Status::Internal("no measurable test architectures collected");
  const predictor::PredictorMetrics m = evaluator_.predictor->evaluate(test);
  PredictorReport report{m.mape, m.within_10pct, m.rmse_ms,
                         evaluator_.predictor_train_mape,
                         {}, {}};
  const std::size_t sample = std::min<std::size_t>(8, test.size());
  for (std::size_t i = 0; i < sample; ++i) {
    report.sample_measured_ms.push_back(test[i].latency_ms);
    report.sample_predicted_ms.push_back(
        evaluator_.predictor->predict_ms(test[i].arch));
  }
  return report;
}

Arch Engine::sample_arch() {
  return hgnas::random_arch(search_cfg_.space, ctx_->rng());
}

}  // namespace hg::api
