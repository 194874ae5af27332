// The hg::api::Engine facade: config validation, registry lookup (errors
// are Status values, never exceptions), search smoke run at tiny scale,
// shared EvalContext semantics, baseline verbs, in-loop Pareto frontiers,
// and the export/import persistence round-trip.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <memory>
#include <string>

#include "api/engine.hpp"
#include "baselines/baselines.hpp"
#include "hgnas/pareto.hpp"
#include "invalid_argument_text.hpp"
#include "serve/service.hpp"

namespace hg::api {
namespace {

TEST(Status, CodesAndMessages) {
  EXPECT_TRUE(Status::Ok().ok());
  const Status s = Status::NotFound("missing");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_EQ(s.message(), "missing");
  EXPECT_EQ(s.to_string(), "NOT_FOUND: missing");
}

TEST(Result, ValueAndError) {
  Result<int> ok(7);
  EXPECT_TRUE(ok.ok());
  EXPECT_EQ(ok.value(), 7);
  Result<int> err(Status::InvalidArgument("bad"));
  EXPECT_FALSE(err.ok());
  EXPECT_EQ(err.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(err.value_or(-1), -1);
}

// value() on an error Result throws a message naming the Status, from
// every overload, in every build type.
TEST(Result, ValueOnErrorThrowsNamingTheStatus) {
  const std::string expected = "api::Result: value() on INTERNAL: boom";
  Result<int> err(Status::Internal("boom"));
  const Result<int>& const_err = err;
  EXPECT_EQ(invalid_argument_text([&] { (void)err.value(); }), expected);
  EXPECT_EQ(invalid_argument_text([&] { (void)const_err.value(); }),
            expected);
  EXPECT_EQ(invalid_argument_text([&] { (void)std::move(err).value(); }),
            expected);
}

TEST(EngineConfigValidation, RejectsBadFields) {
  EngineConfig cfg = EngineConfig::tiny();
  EXPECT_TRUE(validate(cfg).ok());
  cfg.population = 1;
  EXPECT_EQ(validate(cfg).code(), StatusCode::kInvalidArgument);
  cfg = EngineConfig::tiny();
  cfg.latency_budget_ms = -5.0;
  EXPECT_EQ(validate(cfg).code(), StatusCode::kInvalidArgument);
  cfg = EngineConfig::tiny();
  cfg.k = cfg.num_points;  // k must stay below the cloud size
  EXPECT_EQ(validate(cfg).code(), StatusCode::kInvalidArgument);
}

TEST(Registry, UnknownNamesReturnNotFoundNotThrow) {
  EngineConfig cfg = EngineConfig::tiny();
  cfg.device = "tpu-v5";
  Result<Engine> bad_device = Engine::create(cfg);
  ASSERT_FALSE(bad_device.ok());
  EXPECT_EQ(bad_device.status().code(), StatusCode::kNotFound);
  // The error names the known devices so a CLI can print it verbatim.
  EXPECT_NE(bad_device.status().message().find("rtx3080"), std::string::npos);

  cfg = EngineConfig::tiny();
  cfg.evaluator = "crystal-ball";
  Result<Engine> bad_eval = Engine::create(cfg);
  ASSERT_FALSE(bad_eval.ok());
  EXPECT_EQ(bad_eval.status().code(), StatusCode::kNotFound);

  cfg = EngineConfig::tiny();
  cfg.strategy = "simulated-annealing";
  Result<Engine> bad_strategy = Engine::create(cfg);
  ASSERT_FALSE(bad_strategy.ok());
  EXPECT_EQ(bad_strategy.status().code(), StatusCode::kNotFound);
}

TEST(Registry, DeviceAliasesResolve) {
  Registry& reg = Registry::global();
  for (const char* name : {"rtx3080", "rtx", "i7", "jetson-tx2", "tx2", "pi"})
    EXPECT_TRUE(reg.make_device(name).ok()) << name;
  // Case-insensitive.
  EXPECT_TRUE(reg.make_device("RTX3080").ok());
}

TEST(Registry, MeasuredEvaluatorRefusedOnOfflineDevicesAsStatus) {
  // TX2 / Pi have no online measurement (paper §IV-D): the facade reports
  // FAILED_PRECONDITION instead of the module layer's throw.
  for (const char* dev : {"jetson-tx2", "raspberry-pi-3b"}) {
    EngineConfig cfg = EngineConfig::tiny();
    cfg.device = dev;
    cfg.evaluator = "measured";
    Result<Engine> engine = Engine::create(cfg);
    ASSERT_FALSE(engine.ok()) << dev;
    EXPECT_EQ(engine.status().code(), StatusCode::kFailedPrecondition);
    EXPECT_NE(engine.status().message().find("predictor"), std::string::npos);
  }
  // The same evaluator works where measurement is supported.
  EngineConfig cfg = EngineConfig::tiny();
  cfg.device = "rtx3080";
  cfg.evaluator = "measured";
  EXPECT_TRUE(Engine::create(cfg).ok());
}

TEST(Engine, CreateExposesReferenceNumbers) {
  Result<Engine> engine = Engine::create(EngineConfig::tiny());
  ASSERT_TRUE(engine.ok()) << engine.status().to_string();
  EXPECT_GT(engine.value().reference_latency_ms(), 0.0);
  EXPECT_GT(engine.value().reference_memory_mb(), 0.0);
  EXPECT_EQ(engine.value().device().name(), "Nvidia RTX3080");
}

TEST(Engine, PredictProfileAndVisualize) {
  Result<Engine> created = Engine::create(EngineConfig::tiny());
  ASSERT_TRUE(created.ok()) << created.status().to_string();
  Engine engine = std::move(created).value();

  const Arch arch = engine.sample_arch();
  const Result<LatencyReport> lat = engine.predict_latency(arch);
  ASSERT_TRUE(lat.ok()) << lat.status().to_string();
  EXPECT_GE(lat.value().latency_ms, 0.0);

  const Result<ProfileReport> prof = engine.profile(arch);
  ASSERT_TRUE(prof.ok()) << prof.status().to_string();
  // Oracle evaluator and profile agree on the analytical model.
  EXPECT_NEAR(prof.value().latency_ms, lat.value().latency_ms, 1e-9);
  EXPECT_FALSE(prof.value().breakdown.empty());
  EXPECT_GT(prof.value().reference_latency_ms, 0.0);
  EXPECT_FALSE(engine.visualize(arch).empty());

  const ArchGraphInfo info = engine.arch_graph_info(arch);
  EXPECT_GT(info.nodes, 0);
  EXPECT_GT(info.edges, 0);
  EXPECT_GT(info.feature_dim, 0);

  // Malformed input is a status, not a crash.
  Arch broken = arch;
  broken.genes[0].fn.combine_dim_idx = 99;
  EXPECT_EQ(engine.profile(broken).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(engine.predict_latency(Arch{}).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(Engine, SearchSmokeRunsEndToEnd) {
  EngineConfig cfg = EngineConfig::tiny();
  cfg.constrain_to_reference = true;
  Result<Engine> created = Engine::create(cfg);
  ASSERT_TRUE(created.ok()) << created.status().to_string();
  Engine engine = std::move(created).value();

  Result<SearchReport> report = engine.search();
  ASSERT_TRUE(report.ok()) << report.status().to_string();
  const SearchResult& r = report.value().result;
  EXPECT_EQ(r.best_arch.num_positions(), cfg.num_positions);
  EXPECT_GT(r.best_objective, 0.0);
  EXPECT_LT(r.best_latency_ms, engine.reference_latency_ms());
  EXPECT_FALSE(r.history.empty());
  EXPECT_GT(r.latency_queries, 0);
  EXPECT_FALSE(report.value().visualization.empty());
}

TEST(Engine, RandomStrategyRespectsBudgetAndConstraint) {
  EngineConfig cfg = EngineConfig::tiny();
  cfg.strategy = "random";
  cfg.constrain_to_reference = true;
  Result<Engine> created = Engine::create(cfg);
  ASSERT_TRUE(created.ok()) << created.status().to_string();
  Result<SearchReport> report = created.value().search();
  ASSERT_TRUE(report.ok()) << report.status().to_string();
  const SearchResult& r = report.value().result;
  EXPECT_EQ(r.latency_queries,
            cfg.population + cfg.iterations * (cfg.population / 2));
  EXPECT_GT(r.best_objective, 0.0);
  EXPECT_FALSE(r.history.empty());
}

TEST(EvalContext, PersistedEvalCacheWarmsTheNextRun) {
  // EngineConfig::eval_cache_path: the first run's candidate scores are
  // written at context destruction; a second, identical run loads them and
  // serves its (random-strategy) revisits entirely from the warm cache —
  // with identical results, since a hit replays the stored score.
  EngineConfig cfg = EngineConfig::tiny();
  cfg.strategy = "random";
  cfg.eval_cache_path = ::testing::TempDir() + "api_eval_cache_warm.txt";
  std::remove(cfg.eval_cache_path.c_str());

  SearchResult cold, warm;
  std::int64_t cold_misses = 0, warm_misses = 0;
  {
    Result<Engine> created = Engine::create(cfg);
    ASSERT_TRUE(created.ok()) << created.status().to_string();
    Result<SearchReport> report = created.value().search();
    ASSERT_TRUE(report.ok()) << report.status().to_string();
    cold = report.value().result;
    cold_misses = cold.eval_cache_misses;
  }  // context destroyed -> cache saved
  {
    Result<Engine> created = Engine::create(cfg);
    ASSERT_TRUE(created.ok()) << created.status().to_string();
    Result<SearchReport> report = created.value().search();
    ASSERT_TRUE(report.ok()) << report.status().to_string();
    warm = report.value().result;
    warm_misses = warm.eval_cache_misses;
  }
  EXPECT_GT(cold_misses, 0);
  EXPECT_LT(warm_misses, cold_misses);  // warm start: revisits are hits
  EXPECT_GT(warm.eval_cache_hits, 0);
  // Persisted cache entries carry the canonical genome (see
  // hgnas::EvalCache::save), so the warm winner is the canonical form of
  // the cold one — the execution-identical architecture, same score.
  EXPECT_EQ(hgnas::canonicalize(warm.best_arch),
            hgnas::canonicalize(cold.best_arch));
  EXPECT_DOUBLE_EQ(warm.best_objective, cold.best_objective);
  EXPECT_DOUBLE_EQ(warm.best_latency_ms, cold.best_latency_ms);
  std::remove(cfg.eval_cache_path.c_str());
}

TEST(Engine, TrainMaterialisesAnArch) {
  EngineConfig cfg = EngineConfig::tiny();
  cfg.train_epochs = 2;
  Result<Engine> created = Engine::create(cfg);
  ASSERT_TRUE(created.ok()) << created.status().to_string();
  Engine engine = std::move(created).value();
  const Result<TrainReport> report = engine.train(engine.sample_arch());
  ASSERT_TRUE(report.ok()) << report.status().to_string();
  EXPECT_GE(report.value().overall_acc, 0.0);
  EXPECT_LE(report.value().overall_acc, 1.0);
  EXPECT_GT(report.value().param_mb, 0.0);
}

TEST(Engine, ExportImportRoundTrip) {
  Result<Engine> created = Engine::create(EngineConfig::tiny());
  ASSERT_TRUE(created.ok()) << created.status().to_string();
  Engine engine = std::move(created).value();

  // Serialisation round-trips exactly on canonical architectures.
  const Arch arch = hgnas::canonicalize(engine.sample_arch());
  const Result<std::string> text = engine.export_arch(arch);
  ASSERT_TRUE(text.ok()) << text.status().to_string();
  const Result<Arch> back = engine.import_arch(text.value());
  ASSERT_TRUE(back.ok()) << back.status().to_string();
  EXPECT_EQ(back.value(), arch);

  // Malformed text is INVALID_ARGUMENT, not a throw.
  const Result<Arch> bad = engine.import_arch("not an architecture");
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);

  // File round-trip.
  const std::string path = "/tmp/hg_api_roundtrip.arch";
  ASSERT_TRUE(engine.save_arch(path, arch).ok());
  const Result<Arch> loaded = engine.load_arch(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().to_string();
  EXPECT_EQ(loaded.value(), arch);
  EXPECT_EQ(engine.load_arch("/tmp/does-not-exist.arch").status().code(),
            StatusCode::kInvalidArgument);
}

TEST(Engine, PredictorEvaluatorTrainsAndReportsMetrics) {
  EngineConfig cfg = EngineConfig::tiny();
  cfg.evaluator = "predictor";
  cfg.predictor_samples = 40;
  cfg.predictor_epochs = 5;
  Result<Engine> created = Engine::create(cfg);
  ASSERT_TRUE(created.ok()) << created.status().to_string();
  Engine engine = std::move(created).value();

  const Result<LatencyReport> lat =
      engine.predict_latency(engine.sample_arch());
  ASSERT_TRUE(lat.ok()) << lat.status().to_string();
  EXPECT_GE(lat.value().latency_ms, 0.0);

  const Result<PredictorReport> metrics = engine.evaluate_predictor(20, 77);
  ASSERT_TRUE(metrics.ok()) << metrics.status().to_string();
  EXPECT_GT(metrics.value().mape, 0.0);

  // Metrics are unavailable without a trained predictor.
  Result<Engine> oracle = Engine::create(EngineConfig::tiny());
  ASSERT_TRUE(oracle.ok());
  EXPECT_EQ(oracle.value().evaluate_predictor(20, 77).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(EvalContext, SharedAcrossEnginesFitsThePredictorOnce) {
  EngineConfig cfg = EngineConfig::tiny();
  cfg.evaluator = "predictor";
  cfg.predictor_samples = 40;
  cfg.predictor_epochs = 5;
  Result<std::shared_ptr<EvalContext>> ctx = EvalContext::create(cfg);
  ASSERT_TRUE(ctx.ok()) << ctx.status().to_string();
  // Creation resolved (and fitted) the config's evaluator eagerly.
  EXPECT_EQ(ctx.value()->evaluator_builds(), 1);

  Result<Engine> a = Engine::create(cfg, ctx.value());
  ASSERT_TRUE(a.ok()) << a.status().to_string();
  Result<Engine> b = Engine::create(cfg, ctx.value());
  ASSERT_TRUE(b.ok()) << b.status().to_string();
  // Neither engine triggered a second fit...
  EXPECT_EQ(ctx.value()->evaluator_builds(), 1);
  // ...so both answer latency queries from the same fitted predictor.
  const Arch arch = a.value().sample_arch();
  const Result<LatencyReport> la = a.value().predict_latency(arch);
  const Result<LatencyReport> lb = b.value().predict_latency(arch);
  ASSERT_TRUE(la.ok() && lb.ok());
  EXPECT_DOUBLE_EQ(la.value().latency_ms, lb.value().latency_ms);

  // A different evaluator on the same context builds exactly one bundle
  // more and reuses the shared dataset / supernet / device.
  EngineConfig measured = cfg;
  measured.evaluator = "measured";
  Result<Engine> c = Engine::create(measured, ctx.value());
  ASSERT_TRUE(c.ok()) << c.status().to_string();
  EXPECT_EQ(ctx.value()->evaluator_builds(), 2);

  // Context-shaping fields must match the context's config.
  EngineConfig mismatched = cfg;
  mismatched.num_points = cfg.num_points * 2;
  Result<Engine> bad = Engine::create(mismatched, ctx.value());
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(bad.status().message().find("num_points"), std::string::npos);
}

TEST(EvalContext, SecondSearchCanReuseTheTrainedSupernet) {
  EngineConfig cfg = EngineConfig::tiny();
  cfg.strategy = "random";
  Result<std::shared_ptr<EvalContext>> ctx = EvalContext::create(cfg);
  ASSERT_TRUE(ctx.ok()) << ctx.status().to_string();

  Result<Engine> first = Engine::create(cfg, ctx.value());
  ASSERT_TRUE(first.ok()) << first.status().to_string();
  Result<SearchReport> r1 = first.value().search();
  ASSERT_TRUE(r1.ok()) << r1.status().to_string();

  // train_supernet = false: the second search rides the weights (and any
  // cache entries) the first one produced instead of retraining.
  EngineConfig follow = cfg;
  follow.train_supernet = false;
  Result<Engine> second = Engine::create(follow, ctx.value());
  ASSERT_TRUE(second.ok()) << second.status().to_string();
  Result<SearchReport> r2 = second.value().search();
  ASSERT_TRUE(r2.ok()) << r2.status().to_string();
  // No supernet training happened: the simulated clock only advanced by
  // query/probe costs, never by training epochs.
  EXPECT_LT(r2.value().result.total_sim_time_s,
            r1.value().result.total_sim_time_s);
}

TEST(Engine, ProfileBaselineMatchesDirectLowering) {
  Result<Engine> created = Engine::create(EngineConfig::tiny());
  ASSERT_TRUE(created.ok()) << created.status().to_string();
  Engine engine = std::move(created).value();

  // The facade's "dgcnn" must be the exact cost-model numbers of a direct
  // baselines:: lowering at the engine's deployment workload.
  const Workload& w = engine.deploy_workload();
  baselines::DgcnnConfig dgcnn_cfg;
  dgcnn_cfg.k = w.k;
  dgcnn_cfg.num_classes = w.num_classes;
  const hw::Trace direct = baselines::Dgcnn::trace(dgcnn_cfg, w.num_points);

  const Result<ProfileReport> report = engine.profile_baseline("dgcnn");
  ASSERT_TRUE(report.ok()) << report.status().to_string();
  EXPECT_DOUBLE_EQ(report.value().latency_ms,
                   engine.device().latency_ms(direct));
  EXPECT_DOUBLE_EQ(report.value().peak_memory_mb,
                   engine.device().peak_memory_mb(direct));
  EXPECT_DOUBLE_EQ(report.value().param_mb, direct.param_mb);
  // Category fractions sum to 1 on a non-empty trace.
  double total = 0.0;
  for (double f : report.value().category_fraction) total += f;
  EXPECT_NEAR(total, 1.0, 1e-9);

  // Aliases resolve; unknown names are NOT_FOUND listing the known ones.
  EXPECT_TRUE(engine.profile_baseline("dgcnn-reuse4").ok());
  const Result<ProfileReport> unknown = engine.profile_baseline("pointnet");
  ASSERT_FALSE(unknown.ok());
  EXPECT_EQ(unknown.status().code(), StatusCode::kNotFound);
  EXPECT_NE(unknown.status().message().find("tailor"), std::string::npos);
  EXPECT_FALSE(Registry::global().baseline_names().empty());
}

TEST(Engine, ProfileBaselineZooEntryAndExplicitWorkload) {
  Result<Engine> created = Engine::create(EngineConfig::tiny());
  ASSERT_TRUE(created.ok()) << created.status().to_string();
  Engine engine = std::move(created).value();

  Workload w = engine.deploy_workload();
  w.num_points = 512;
  const Result<ProfileReport> ours = engine.profile_baseline("rtx-fast", w);
  const Result<ProfileReport> dgcnn = engine.profile_baseline("dgcnn", w);
  ASSERT_TRUE(ours.ok() && dgcnn.ok());
  EXPECT_GT(ours.value().latency_ms, 0.0);
  // The Fig. 10 RTX design is faster than DGCNN on its own platform.
  EXPECT_LT(ours.value().latency_ms, dgcnn.value().latency_ms);
  // Reference numbers are recomputed at the explicit workload: for DGCNN
  // itself the speedup is 1 (its lowering agrees op-for-op with the
  // calibration reference).
  EXPECT_NEAR(dgcnn.value().speedup_vs_reference, 1.0, 1e-6);

  Workload bad = engine.deploy_workload();
  bad.k = bad.num_points;
  EXPECT_EQ(engine.profile_baseline("dgcnn", bad).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(Engine, TrainBaselineRuns) {
  EngineConfig cfg = EngineConfig::tiny();
  cfg.train_epochs = 2;
  Result<Engine> created = Engine::create(cfg);
  ASSERT_TRUE(created.ok()) << created.status().to_string();
  Engine engine = std::move(created).value();
  // Tailor is the cheapest baseline to materialise at CPU scale.
  const Result<TrainReport> report = engine.train_baseline("tailor");
  ASSERT_TRUE(report.ok()) << report.status().to_string();
  EXPECT_GE(report.value().overall_acc, 0.0);
  EXPECT_LE(report.value().overall_acc, 1.0);
  EXPECT_GT(report.value().param_mb, 0.0);
  EXPECT_EQ(engine.train_baseline("resnet").status().code(),
            StatusCode::kNotFound);
}

TEST(Engine, SearchReportsInLoopParetoFrontier) {
  EngineConfig cfg = EngineConfig::tiny();
  cfg.constrain_to_reference = true;
  Result<Engine> created = Engine::create(cfg);
  ASSERT_TRUE(created.ok()) << created.status().to_string();
  Engine engine = std::move(created).value();
  Result<SearchReport> report = engine.search();
  ASSERT_TRUE(report.ok()) << report.status().to_string();
  const SearchResult& r = report.value().result;

  ASSERT_FALSE(r.frontier.empty());
  EXPECT_GT(r.frontier_candidates, 0);
  EXPECT_FALSE(report.value().frontier_table.empty());
  // Ascending latency, strictly ascending accuracy — i.e. an anti-chain.
  for (std::size_t i = 1; i < r.frontier.size(); ++i) {
    EXPECT_GT(r.frontier[i].latency_ms, r.frontier[i - 1].latency_ms);
    EXPECT_GT(r.frontier[i].accuracy, r.frontier[i - 1].accuracy);
  }
  // The frontier is its own Pareto front (no member dominates another).
  EXPECT_EQ(hgnas::pareto_front(r.frontier).size(), r.frontier.size());
  // The Eq.-(3) winner is on the frontier: nothing scored dominated it
  // (a dominator would have scored strictly higher).
  bool winner_present = false;
  for (const auto& p : r.frontier)
    if (p.accuracy == r.best_supernet_acc &&
        p.latency_ms == r.best_latency_ms)
      winner_present = true;
  EXPECT_TRUE(winner_present);
}

TEST(Registry, CustomStrategyPluggableByName) {
  // The seam later PRs plug into: register a strategy (a SearchStepper
  // factory), select it by name. Engine::search() and a Service at slice 0
  // both drive the stepper the factory builds, so both answer alike.
  static std::atomic<int> built{0};
  Registry& reg = Registry::global();
  const Status first = reg.register_strategy(
      "fastest-random",
      [](const StrategyRequest& req)
          -> Result<std::unique_ptr<hgnas::SearchStepper>> {
        ++built;
        hgnas::SearchConfig cfg = req.cfg;
        cfg.population = 4;  // budget: 4 + 1 * 2 samples
        cfg.iterations = 1;
        cfg.train_supernet = false;
        return std::make_unique<hgnas::SearchStepper>(
            *req.supernet, *req.data, cfg, req.latency,
            hgnas::SearchStrategy::kRandom, *req.rng, req.eval_cache);
      });
  // Another test instance may already have registered it; both outcomes
  // are deterministic statuses.
  EXPECT_TRUE(first.ok() ||
              first.code() == StatusCode::kInvalidArgument);

  EngineConfig cfg = EngineConfig::tiny();
  cfg.strategy = "fastest-random";
  const int built_before = built.load();
  Result<Engine> engine = Engine::create(cfg);
  ASSERT_TRUE(engine.ok()) << engine.status().to_string();
  Result<SearchReport> report = engine.value().search();
  ASSERT_TRUE(report.ok()) << report.status().to_string();
  EXPECT_GT(report.value().result.latency_queries, 0);
  EXPECT_LE(report.value().result.latency_queries, 6);

  serve::ServiceConfig scfg;
  scfg.num_workers = 1;
  scfg.exclusive_slice_ms = 0;
  Result<std::shared_ptr<serve::Service>> service =
      serve::Service::create(cfg, scfg);
  ASSERT_TRUE(service.ok()) << service.status().to_string();
  Result<SearchReport> served =
      service.value()->submit(serve::SearchRequest{}).get();
  service.value()->shutdown();
  ASSERT_TRUE(served.ok()) << served.status().to_string();

  EXPECT_EQ(built.load() - built_before, 2);
  const SearchResult& a = report.value().result;
  const SearchResult& b = served.value().result;
  EXPECT_EQ(a.best_arch, b.best_arch);
  EXPECT_DOUBLE_EQ(a.best_objective, b.best_objective);
  EXPECT_DOUBLE_EQ(a.best_latency_ms, b.best_latency_ms);
  EXPECT_EQ(a.latency_queries, b.latency_queries);
  EXPECT_EQ(report.value().frontier_table, served.value().frontier_table);
}

}  // namespace
}  // namespace hg::api
