// Evolutionary search: Eq. (3) objective, constraint gating, EA progress,
// evaluators, simulated clock.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "api/engine.hpp"
#include "core/parallel.hpp"
#include "fingerprint.hpp"
#include "hgnas/search.hpp"
#include "hgnas/serialize_arch.hpp"
#include "obs/trace.hpp"

namespace hg::hgnas {
namespace {

struct SearchFixture {
  SpaceConfig space;
  SupernetConfig sn_cfg;
  Workload workload;
  pointcloud::Dataset data;
  Rng rng;
  SuperNet supernet;

  SearchFixture()
      : data(4, 32, 21), rng(1), supernet(make_space(), make_sn(), rng) {
    space = make_space();
    sn_cfg = make_sn();
    workload.num_points = 256;
    workload.k = 10;
    workload.num_classes = 10;
  }
  static SpaceConfig make_space() {
    SpaceConfig s;
    s.num_positions = 6;
    return s;
  }
  static SupernetConfig make_sn() {
    SupernetConfig c;
    c.hidden = 16;
    c.k = 6;
    c.num_classes = 10;
    c.head_hidden = 32;
    return c;
  }
  SearchConfig make_cfg(double scale_ms) {
    SearchConfig cfg;
    cfg.space = space;
    cfg.workload = workload;
    cfg.population = 8;
    cfg.parents = 4;
    cfg.iterations = 4;
    cfg.eval_val_samples = 6;
    cfg.function_paths_per_eval = 1;
    cfg.stage1_epochs = 1;
    cfg.stage2_epochs = 1;
    cfg.latency_scale_ms = scale_ms;
    return cfg;
  }
};

TEST(Objective, Eq3GatesOnConstraint) {
  SearchFixture f;
  hw::Device dev = hw::make_device(hw::DeviceKind::Rtx3080);
  SearchConfig cfg = f.make_cfg(50.0);
  cfg.latency_constraint_ms = 10.0;
  cfg.alpha = 1.0;
  cfg.beta = 0.5;
  HgnasSearch search(f.supernet, f.data, cfg,
                     make_oracle_evaluator(dev, f.workload));
  EXPECT_DOUBLE_EQ(search.objective(0.9, 10.0, false), 0.0);  // lat >= C
  EXPECT_DOUBLE_EQ(search.objective(0.9, 15.0, false), 0.0);
  EXPECT_DOUBLE_EQ(search.objective(0.9, 5.0, true), 0.0);  // OOM
  EXPECT_NEAR(search.objective(0.9, 5.0, false), 0.9 - 0.5 * 5.0 / 50.0,
              1e-12);
}

TEST(Objective, AlphaBetaTradeoffDirection) {
  SearchFixture f;
  hw::Device dev = hw::make_device(hw::DeviceKind::Rtx3080);
  SearchConfig acc_cfg = f.make_cfg(50.0);
  acc_cfg.alpha = 10.0;
  acc_cfg.beta = 0.1;
  SearchConfig fast_cfg = f.make_cfg(50.0);
  fast_cfg.alpha = 0.1;
  fast_cfg.beta = 10.0;
  HgnasSearch acc_search(f.supernet, f.data, acc_cfg,
                         make_oracle_evaluator(dev, f.workload));
  HgnasSearch fast_search(f.supernet, f.data, fast_cfg,
                          make_oracle_evaluator(dev, f.workload));
  // Accurate-but-slow vs inaccurate-but-fast candidates flip ordering.
  const double slow_good = 0.9, slow_lat = 40.0;
  const double fast_bad = 0.5, fast_lat = 5.0;
  EXPECT_GT(acc_search.objective(slow_good, slow_lat, false),
            acc_search.objective(fast_bad, fast_lat, false));
  EXPECT_LT(fast_search.objective(slow_good, slow_lat, false),
            fast_search.objective(fast_bad, fast_lat, false));
}

TEST(Evaluators, OracleIsDeterministicAndFree) {
  SearchFixture f;
  hw::Device dev = hw::make_device(hw::DeviceKind::Rtx3080);
  auto oracle = make_oracle_evaluator(dev, f.workload);
  Arch a = random_arch(f.space, f.rng);
  const LatencyEval e1 = oracle(a);
  const LatencyEval e2 = oracle(a);
  EXPECT_DOUBLE_EQ(e1.latency_ms, e2.latency_ms);
  EXPECT_DOUBLE_EQ(e1.cost_s, 0.0);
}

TEST(Evaluators, MeasurementIsNoisyAndCostly) {
  SearchFixture f;
  hw::Device dev = hw::make_device(hw::DeviceKind::Rtx3080);
  auto meas = make_measurement_evaluator(dev, f.workload, 7);
  Arch a = random_arch(f.space, f.rng);
  const LatencyEval e1 = meas(a);
  const LatencyEval e2 = meas(a);
  EXPECT_NE(e1.latency_ms, e2.latency_ms);  // fresh noise each call
  EXPECT_GT(e1.cost_s, 1.0);                // deploy overhead dominates
}

TEST(Evaluators, MeasurementRefusedOnOfflineDevices) {
  SearchFixture f;
  hw::Device pi = hw::make_device(hw::DeviceKind::RaspberryPi3B);
  EXPECT_THROW(make_measurement_evaluator(pi, f.workload, 7),
               std::invalid_argument);
  hw::Device tx2 = hw::make_device(hw::DeviceKind::JetsonTx2);
  EXPECT_THROW(make_measurement_evaluator(tx2, f.workload, 7),
               std::invalid_argument);
}

TEST(SearchConfigValidation, RejectsBadValues) {
  SearchFixture f;
  hw::Device dev = hw::make_device(hw::DeviceKind::Rtx3080);
  auto oracle = make_oracle_evaluator(dev, f.workload);
  SearchConfig cfg = f.make_cfg(50.0);
  cfg.population = 1;
  EXPECT_THROW(HgnasSearch(f.supernet, f.data, cfg, oracle),
               std::invalid_argument);
  cfg = f.make_cfg(50.0);
  cfg.parents = 100;
  EXPECT_THROW(HgnasSearch(f.supernet, f.data, cfg, oracle),
               std::invalid_argument);
  cfg = f.make_cfg(0.0);
  EXPECT_THROW(HgnasSearch(f.supernet, f.data, cfg, oracle),
               std::invalid_argument);
  cfg = f.make_cfg(50.0);
  EXPECT_THROW(HgnasSearch(f.supernet, f.data, cfg, nullptr),
               std::invalid_argument);
}

TEST(MultistageSearch, ProducesFeasibleResultAndHistory) {
  SearchFixture f;
  hw::Device dev = hw::make_device(hw::DeviceKind::Rtx3080);
  const double dgcnn_ms = dev.latency_ms(hw::dgcnn_reference_trace(
      f.workload.num_points));
  SearchConfig cfg = f.make_cfg(dgcnn_ms);
  cfg.latency_constraint_ms = dgcnn_ms;  // must beat DGCNN
  HgnasSearch search(f.supernet, f.data, cfg,
                     make_oracle_evaluator(dev, f.workload));
  SearchResult r = search.run_multistage(f.rng);
  EXPECT_EQ(r.best_arch.num_positions(), f.space.num_positions);
  EXPECT_GT(r.best_objective, 0.0);  // found something feasible
  EXPECT_LT(r.best_latency_ms, dgcnn_ms);
  EXPECT_FALSE(r.history.empty());
  EXPECT_GT(r.total_sim_time_s, 0.0);
  EXPECT_GT(r.latency_queries, 0);
  // History is monotone non-decreasing in both time and objective.
  for (std::size_t i = 1; i < r.history.size(); ++i) {
    EXPECT_GE(r.history[i].sim_time_s, r.history[i - 1].sim_time_s);
    EXPECT_GE(r.history[i].best_objective,
              r.history[i - 1].best_objective - 1e-12);
  }
  // The winner respects the stamped per-half function sharing.
  for (std::size_t i = 0; i < r.best_arch.genes.size(); ++i) {
    const auto& expect_fn = i < 3 ? r.upper : r.lower;
    EXPECT_EQ(r.best_arch.genes[i].fn, expect_fn);
  }
}

TEST(OnestageSearch, RunsAndReportsHistory) {
  SearchFixture f;
  hw::Device dev = hw::make_device(hw::DeviceKind::Rtx3080);
  const double dgcnn_ms =
      dev.latency_ms(hw::dgcnn_reference_trace(f.workload.num_points));
  SearchConfig cfg = f.make_cfg(dgcnn_ms);
  HgnasSearch search(f.supernet, f.data, cfg,
                     make_oracle_evaluator(dev, f.workload));
  SearchResult r = search.run_onestage(f.rng);
  EXPECT_FALSE(r.history.empty());
  EXPECT_EQ(r.best_arch.num_positions(), f.space.num_positions);
}

TEST(Search, TightConstraintYieldsFasterArchitectures) {
  SearchFixture f;
  hw::Device dev = hw::make_device(hw::DeviceKind::Rtx3080);
  const double dgcnn_ms =
      dev.latency_ms(hw::dgcnn_reference_trace(f.workload.num_points));
  auto run_with_constraint = [&](double c_ms) {
    Rng rng(5);
    SearchConfig cfg = f.make_cfg(dgcnn_ms);
    cfg.latency_constraint_ms = c_ms;
    cfg.train_supernet = false;  // accuracy proxy irrelevant here
    HgnasSearch s(f.supernet, f.data, cfg,
                  make_oracle_evaluator(dev, f.workload));
    return s.run_multistage(rng).best_latency_ms;
  };
  const double loose = run_with_constraint(dgcnn_ms * 2.0);
  const double tight = run_with_constraint(dgcnn_ms * 0.05);
  EXPECT_LT(tight, dgcnn_ms * 0.05);
  EXPECT_LE(tight, loose + 1e-9);
}

TEST(EvalCache, SaveLoadRoundTripsEntriesAndScope) {
  Rng rng(33);
  SpaceConfig space;
  space.num_positions = 5;
  EvalCache cache;
  cache.open_scope("oracle@rtx#1|w3");
  ScoredCandidate feasible;
  feasible.arch = random_arch(space, rng);
  feasible.fitness = 0.42;
  feasible.acc = 0.8;
  feasible.latency_ms = 12.5;
  feasible.raw_latency_ms = 12.5;
  feasible.is_feasible = true;
  ScoredCandidate oom;
  oom.arch = random_arch(space, rng);
  oom.fitness = 0.0;
  oom.latency_ms = std::numeric_limits<double>::infinity();
  oom.raw_latency_ms = 99.0;
  cache.insert("oracle@rtx#1|w3", "genome-a", feasible);
  cache.insert("oracle@rtx#1|w3", "genome-b", oom);

  const std::string path = ::testing::TempDir() + "evalcache_roundtrip.txt";
  ASSERT_TRUE(cache.save(path));

  EvalCache loaded;
  ASSERT_TRUE(loaded.load(path));
  EXPECT_EQ(loaded.scope(), "oracle@rtx#1|w3");
  EXPECT_EQ(loaded.size(), 2);
  ScoredCandidate out;
  ASSERT_TRUE(loaded.lookup("oracle@rtx#1|w3", "genome-a", &out));
  // Persisted archs come back in canonical form (see EvalCache::save).
  EXPECT_EQ(out.arch, canonicalize(feasible.arch));
  EXPECT_DOUBLE_EQ(out.fitness, 0.42);
  EXPECT_DOUBLE_EQ(out.acc, 0.8);
  EXPECT_TRUE(out.is_feasible);
  ASSERT_TRUE(loaded.lookup("oracle@rtx#1|w3", "genome-b", &out));
  EXPECT_TRUE(std::isinf(out.latency_ms));
  EXPECT_DOUBLE_EQ(out.raw_latency_ms, 99.0);
  EXPECT_FALSE(out.is_feasible);

  // A warm file under a changed scope (e.g. retrained supernet) is cold.
  loaded.open_scope("oracle@rtx#1|w4");
  EXPECT_EQ(loaded.size(), 0);

  // Missing / corrupt files degrade to an empty cache, not an error.
  EvalCache missing;
  EXPECT_FALSE(missing.load(::testing::TempDir() + "no_such_cache.txt"));
  EXPECT_EQ(missing.size(), 0);
  const std::string corrupt_path = ::testing::TempDir() + "evalcache_bad.txt";
  {
    std::ofstream os(corrupt_path);
    os << "hgnas-evalcache v1\nscope 3\nabc\nentries 5\ngarbage";
  }
  EvalCache corrupt;
  EXPECT_FALSE(corrupt.load(corrupt_path));
  EXPECT_EQ(corrupt.size(), 0);
}

TEST(Search, PredictorVsMeasurementClockGap) {
  // The whole point of the predictor (Fig. 9a): same search, orders of
  // magnitude less simulated wall clock than on-device measurement.
  SearchFixture f;
  hw::Device dev = hw::make_device(hw::DeviceKind::Rtx3080);
  const double dgcnn_ms =
      dev.latency_ms(hw::dgcnn_reference_trace(f.workload.num_points));

  auto run = [&](LatencyFn fn) {
    Rng rng(9);
    SearchConfig cfg = f.make_cfg(dgcnn_ms);
    cfg.train_supernet = false;
    HgnasSearch s(f.supernet, f.data, cfg, std::move(fn));
    return s.run_multistage(rng).total_sim_time_s;
  };
  // Zero-cost oracle stands in for the predictor's ms-scale queries here.
  const double fast = run(make_oracle_evaluator(dev, f.workload));
  const double slow = run(make_measurement_evaluator(dev, f.workload, 3));
  EXPECT_GT(slow, fast + 10.0);
}

// The stepwise form drives the same coroutine the run_* wrappers drive, so
// a stepped run must be bit-identical to the monolithic one — every field,
// every strategy. This is the contract serve::Service's runner relies on
// (it steps every search, checking cancel and deadline in between, and
// must still produce the run-to-completion result).
TEST(SearchStepper, BitIdenticalToMonolithicRunForAllStrategies) {
  for (const SearchStrategy strategy :
       {SearchStrategy::kMultistage, SearchStrategy::kOnestage,
        SearchStrategy::kRandom}) {
    SCOPED_TRACE(static_cast<int>(strategy));
    const auto run_monolithic = [&] {
      SearchFixture f;
      hw::Device dev = hw::make_device(hw::DeviceKind::Rtx3080);
      const double dgcnn_ms =
          dev.latency_ms(hw::dgcnn_reference_trace(f.workload.num_points));
      SearchConfig cfg = f.make_cfg(dgcnn_ms);
      HgnasSearch search(f.supernet, f.data, cfg,
                         make_oracle_evaluator(dev, f.workload));
      switch (strategy) {
        case SearchStrategy::kMultistage:
          return search.run_multistage(f.rng);
        case SearchStrategy::kOnestage:
          return search.run_onestage(f.rng);
        case SearchStrategy::kRandom:
          return search.run_random(f.rng);
      }
      return SearchResult{};
    };
    const SearchResult mono = run_monolithic();

    SearchFixture f;  // fresh same-seed setup: identical starting state
    hw::Device dev = hw::make_device(hw::DeviceKind::Rtx3080);
    const double dgcnn_ms =
        dev.latency_ms(hw::dgcnn_reference_trace(f.workload.num_points));
    SearchStepper stepper(f.supernet, f.data, f.make_cfg(dgcnn_ms),
                          make_oracle_evaluator(dev, f.workload), strategy,
                          f.rng);
    std::int64_t steps = 0;
    while (stepper.step()) ++steps;
    // A generation-granular run really is granular (preemption points
    // exist), and the progress view lands in the terminal phase.
    EXPECT_GT(steps, 1);
    EXPECT_TRUE(stepper.done());
    EXPECT_EQ(stepper.progress().phase, SearchProgress::Phase::kDone);
    EXPECT_GE(stepper.progress().steps, steps);
    EXPECT_FALSE(stepper.progress().to_text().empty());
    const SearchResult stepped = stepper.take_result();

    EXPECT_EQ(stepped.best_arch, mono.best_arch);
    EXPECT_EQ(stepped.upper, mono.upper);
    EXPECT_EQ(stepped.lower, mono.lower);
    EXPECT_DOUBLE_EQ(stepped.best_objective, mono.best_objective);
    EXPECT_DOUBLE_EQ(stepped.best_supernet_acc, mono.best_supernet_acc);
    EXPECT_DOUBLE_EQ(stepped.best_latency_ms, mono.best_latency_ms);
    EXPECT_DOUBLE_EQ(stepped.total_sim_time_s, mono.total_sim_time_s);
    EXPECT_EQ(stepped.latency_queries, mono.latency_queries);
    EXPECT_EQ(stepped.accuracy_probes, mono.accuracy_probes);
    EXPECT_EQ(stepped.eval_cache_hits, mono.eval_cache_hits);
    EXPECT_EQ(stepped.eval_cache_misses, mono.eval_cache_misses);
    EXPECT_EQ(stepped.frontier_candidates, mono.frontier_candidates);
    ASSERT_EQ(stepped.history.size(), mono.history.size());
    for (std::size_t i = 0; i < mono.history.size(); ++i) {
      EXPECT_DOUBLE_EQ(stepped.history[i].sim_time_s,
                       mono.history[i].sim_time_s);
      EXPECT_DOUBLE_EQ(stepped.history[i].best_objective,
                       mono.history[i].best_objective);
    }
    ASSERT_EQ(stepped.frontier.size(), mono.frontier.size());
    for (std::size_t i = 0; i < mono.frontier.size(); ++i) {
      EXPECT_DOUBLE_EQ(stepped.frontier[i].latency_ms,
                       mono.frontier[i].latency_ms);
      EXPECT_DOUBLE_EQ(stepped.frontier[i].accuracy,
                       mono.frontier[i].accuracy);
    }
  }
}

TEST(SearchStepper, ProgressAdvancesThroughPhases) {
  SearchFixture f;
  hw::Device dev = hw::make_device(hw::DeviceKind::Rtx3080);
  const double dgcnn_ms =
      dev.latency_ms(hw::dgcnn_reference_trace(f.workload.num_points));
  SearchStepper stepper(f.supernet, f.data, f.make_cfg(dgcnn_ms),
                        make_oracle_evaluator(dev, f.workload),
                        SearchStrategy::kMultistage, f.rng);
  std::int64_t last_steps = 0;
  bool saw_stage2 = false;
  while (stepper.step()) {
    const SearchProgress& p = stepper.progress();
    EXPECT_GE(p.steps, last_steps);  // monotone
    last_steps = p.steps;
    if (p.phase == SearchProgress::Phase::kStage2) saw_stage2 = true;
  }
  EXPECT_TRUE(saw_stage2);
  EXPECT_TRUE(stepper.progress().has_best);
  EXPECT_GT(stepper.progress().best_objective, 0.0);
  // The one-line view names the terminal phase.
  EXPECT_NE(stepper.progress().to_text().find("done"), std::string::npos);
}

// The serving stack preempts a search between steps, so a stage-1
// generation must not be one step: its probes advance one validation
// sample per round, with a suspension after every round. Structural, no
// timing: count the steps that ran in stage 1. Width 1 (a 1-CPU server)
// preempts as often as a wider pool.
TEST(SearchStepper, SuspendsPerValidationRoundInStage1) {
  for (const std::int64_t threads : {1, 2}) {
    SCOPED_TRACE(threads);
    core::ScopedNumThreads pool(threads);
    SearchFixture f;
    hw::Device dev = hw::make_device(hw::DeviceKind::Rtx3080);
    const SearchConfig cfg = f.make_cfg(
        dev.latency_ms(hw::dgcnn_reference_trace(f.workload.num_points)));
    ASSERT_LE(cfg.eval_val_samples,
              static_cast<std::int64_t>(f.data.test().size()));
    SearchStepper stepper(f.supernet, f.data, cfg,
                          make_oracle_evaluator(dev, f.workload),
                          SearchStrategy::kMultistage, f.rng);
    std::int64_t stage1_steps = 0;
    while (stepper.step())
      if (stepper.progress().phase == SearchProgress::Phase::kStage1)
        ++stage1_steps;
    const std::int64_t generations = 1 + cfg.iterations;  // + initial pop
    EXPECT_GE(stage1_steps, generations * cfg.eval_val_samples);
  }
}

// A preempted run resumes on whichever service worker claims it, so no
// thread-local state (NoGradGuard, the supernet's inference mode) may live
// across a suspension. Drive every step on a fresh thread: the result must
// still be the monolithic one, and each thread must find autograd enabled
// and the supernet back in training mode once its step returns.
TEST(SearchStepper, StepsOnFreshThreadsMatchMonolithicRun) {
  core::ScopedNumThreads pool(2);
  hw::Device dev = hw::make_device(hw::DeviceKind::Rtx3080);
  SearchFixture ref;
  const SearchConfig cfg = ref.make_cfg(
      dev.latency_ms(hw::dgcnn_reference_trace(ref.workload.num_points)));
  HgnasSearch search(ref.supernet, ref.data, cfg,
                     make_oracle_evaluator(dev, ref.workload));
  const SearchResult mono = search.run_multistage(ref.rng);

  SearchFixture f;
  SearchStepper stepper(f.supernet, f.data, cfg,
                        make_oracle_evaluator(dev, f.workload),
                        SearchStrategy::kMultistage, f.rng);
  bool more = true;
  std::int64_t steps = 0;
  std::int64_t clean_threads = 0;
  while (more) {
    std::thread worker([&] {
      more = stepper.step();
      if (detail::grad_enabled() && f.supernet.training()) ++clean_threads;
    });
    worker.join();
    ++steps;
  }
  EXPECT_EQ(clean_threads, steps);
  const SearchResult stepped = stepper.take_result();
  EXPECT_EQ(stepped.best_arch, mono.best_arch);
  EXPECT_EQ(stepped.upper, mono.upper);
  EXPECT_EQ(stepped.lower, mono.lower);
  EXPECT_EQ(stepped.best_objective, mono.best_objective);
  EXPECT_EQ(stepped.best_supernet_acc, mono.best_supernet_acc);
  EXPECT_EQ(stepped.total_sim_time_s, mono.total_sim_time_s);
  EXPECT_EQ(stepped.accuracy_probes, mono.accuracy_probes);
  ASSERT_EQ(stepped.frontier.size(), mono.frontier.size());
  for (std::size_t i = 0; i < mono.frontier.size(); ++i) {
    EXPECT_EQ(stepped.frontier[i].latency_ms, mono.frontier[i].latency_ms);
    EXPECT_EQ(stepped.frontier[i].accuracy, mono.frontier[i].accuracy);
  }
}

// Each step is one trace span named after the phase its work ran in. A
// phase is entered at the start of its first unit, so the spans form one
// run per phase, in pipeline order, and the training phases hold exactly
// their mini-batches plus one boundary step per epoch (a span named after
// the previous phase would shift those counts by one).
TEST(SearchStepper, TraceSpansNameThePhaseTheirWorkRanIn) {
  core::ScopedNumThreads pool(2);
  SearchFixture f;
  hw::Device dev = hw::make_device(hw::DeviceKind::Rtx3080);
  const SearchConfig cfg = f.make_cfg(
      dev.latency_ms(hw::dgcnn_reference_trace(f.workload.num_points)));
  SearchStepper stepper(f.supernet, f.data, cfg,
                        make_oracle_evaluator(dev, f.workload),
                        SearchStrategy::kMultistage, f.rng);
  obs::TraceCollector& collector = obs::TraceCollector::global();
  collector.start();
  std::int64_t steps = 0;
  do {
    ++steps;
  } while (stepper.step());
  std::vector<std::string> names;
  for (const obs::TraceEvent& ev : collector.events())
    if (std::strcmp(ev.cat, "search") == 0) names.push_back(ev.name);
  collector.stop();

  ASSERT_EQ(static_cast<std::int64_t>(names.size()), steps);
  const std::vector<std::string> order = {"search.warmup", "search.stage1",
                                          "search.pretrain", "search.stage2"};
  std::vector<std::int64_t> count(order.size(), 0);
  std::size_t phase = 0;
  for (const std::string& name : names) {
    while (phase < order.size() && name != order[phase]) ++phase;
    ASSERT_LT(phase, order.size()) << "span out of phase order: " << name;
    ++count[phase];
  }
  const auto n = static_cast<std::int64_t>(f.data.train().size());
  const std::int64_t epoch_steps = (n + cfg.batch_size - 1) / cfg.batch_size + 1;
  EXPECT_EQ(count[0], cfg.stage1_epochs * epoch_steps);
  EXPECT_GE(count[1], (1 + cfg.iterations) * cfg.eval_val_samples);
  EXPECT_EQ(count[2], cfg.stage2_epochs * epoch_steps);
  EXPECT_GE(count[3], (1 + cfg.iterations) * cfg.eval_val_samples);
}

// ---- search fingerprints -------------------------------------------------

/// Every pool width the fingerprints are asserted at: 1 runs the pool's
/// inline path, 2 and 3 split work unevenly across workers.
constexpr std::int64_t kWidths[] = {1, 2, 3};

/// One line pinning a search result bit for bit: the winner's objective,
/// the evaluation counts, and an FNV-1a hash over the winner's text form
/// plus every frontier point's accuracy and latency bits.
std::string search_fingerprint(const SearchResult& r) {
  Fnv1a fnv;
  fnv.text(arch_to_text(r.best_arch));
  for (const ParetoPoint& p : r.frontier) {
    fnv.bits(p.accuracy);
    fnv.bits(p.latency_ms);
  }
  char buf[160];
  std::snprintf(buf, sizeof buf,
                "obj=0x%016llx lq=%lld ap=%lld frontier=%zu fnv=0x%016llx",
                static_cast<unsigned long long>(
                    std::bit_cast<std::uint64_t>(r.best_objective)),
                static_cast<long long>(r.latency_queries),
                static_cast<long long>(r.accuracy_probes), r.frontier.size(),
                static_cast<unsigned long long>(fnv.h));
  return buf;
}

std::string engine_search_fingerprint(const api::EngineConfig& cfg) {
  auto created = api::Engine::create(cfg);
  if (!created.ok()) return created.status().to_string();
  auto report = created.value().search();
  if (!report.ok()) return report.status().to_string();
  return search_fingerprint(report.value().result);
}

/// A double's exact bits, as text.
std::string hex_bits(double v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(std::bit_cast<std::uint64_t>(v)));
  return buf;
}

/// Every field of a SearchReport, doubles as their bits: two reports are
/// byte-identical exactly when these strings are equal.
std::string report_bytes(const api::SearchReport& report) {
  const SearchResult& r = report.result;
  const auto fn_text = [](const FunctionSet& f) {
    return std::to_string(static_cast<int>(f.connect)) + ',' +
           std::to_string(static_cast<int>(f.aggr)) + ',' +
           std::to_string(static_cast<int>(f.msg)) + ',' +
           std::to_string(f.combine_dim_idx) + ',' +
           std::to_string(static_cast<int>(f.sample));
  };
  std::string s = arch_to_text(r.best_arch);
  s += "\nupper " + fn_text(r.upper) + " lower " + fn_text(r.lower);
  s += "\nobj " + hex_bits(r.best_objective) + " acc " +
       hex_bits(r.best_supernet_acc) + " lat " + hex_bits(r.best_latency_ms) +
       " sim " + hex_bits(r.total_sim_time_s);
  s += "\nlq " + std::to_string(r.latency_queries) + " ap " +
       std::to_string(r.accuracy_probes) + " hits " +
       std::to_string(r.eval_cache_hits) + " misses " +
       std::to_string(r.eval_cache_misses) + " candidates " +
       std::to_string(r.frontier_candidates);
  for (const SearchEvent& e : r.history)
    s += "\nhistory " + hex_bits(e.sim_time_s) + ' ' + hex_bits(e.best_objective);
  for (const ParetoPoint& p : r.frontier)
    s += "\nfrontier " + hex_bits(p.accuracy) + ' ' + hex_bits(p.latency_ms) +
         '\n' + arch_to_text(p.arch);
  s += '\n' + report.visualization + '\n' + report.frontier_table;
  return s;
}

// Kernel rewrites (check formatting, tape capture, elementwise loops) must
// leave every search result unchanged, and so must the pool width: every
// width runs one numeric path. A kernel change that moves any of these
// changed the arithmetic, not just its cost.
TEST(SearchFingerprint, TinySearchesArePinnedForEveryStrategyAndWidth) {
  struct Case {
    const char* strategy;
    const char* fingerprint;
  };
  const Case cases[] = {
      {"multistage",
       "obj=0x3fc186bd2b279f10 lq=20 ap=40 frontier=2 fnv=0x909354a98295be40"},
      {"onestage",
       "obj=0x3fc21749ce41b1ea lq=20 ap=20 frontier=2 fnv=0xca472ec985168b43"},
      {"random",
       "obj=0x3fd37a1636b208ab lq=20 ap=20 frontier=2 fnv=0xbe55b2f51203930a"},
  };
  for (const Case& c : cases) {
    for (const std::int64_t threads : kWidths) {
      SCOPED_TRACE(std::string(c.strategy) + " @ " + std::to_string(threads));
      api::EngineConfig cfg = api::EngineConfig::tiny();
      cfg.strategy = c.strategy;
      cfg.num_threads = threads;
      EXPECT_EQ(engine_search_fingerprint(cfg), c.fingerprint);
    }
  }
  core::set_num_threads(0);
}

// The paper-scale search perfbench serves (jetson-tx2, 12 positions, the
// oracle evaluator), at every pool width.
TEST(SearchFingerprint, DefaultScaleJetsonSearchIsPinned) {
  for (const std::int64_t threads : kWidths) {
    SCOPED_TRACE(threads);
    api::EngineConfig cfg;
    cfg.device = "jetson-tx2";
    cfg.num_threads = threads;
    EXPECT_EQ(engine_search_fingerprint(cfg),
              "obj=0x3fc5f810ad2ea50b lq=112 ap=448 frontier=2 "
              "fnv=0x5bd1093b42d86633");
  }
  core::set_num_threads(0);
}

// The fingerprints above hash a summary; here every byte of the facade's
// reports must agree across pool widths: each strategy's SearchReport, and
// train_baseline's report for the paper's DGCNN and one zoo design (the
// latter pinned as well, so a width-invariant drift shows too).
TEST(SearchFingerprint, ReportsAreByteIdenticalAtEveryWidth) {
  for (const char* strategy : {"multistage", "onestage", "random"}) {
    std::string reference;
    for (const std::int64_t threads : kWidths) {
      SCOPED_TRACE(std::string(strategy) + " @ " + std::to_string(threads));
      api::EngineConfig cfg = api::EngineConfig::tiny();
      cfg.strategy = strategy;
      cfg.num_threads = threads;
      auto created = api::Engine::create(cfg);
      ASSERT_TRUE(created.ok()) << created.status().to_string();
      auto report = created.value().search();
      ASSERT_TRUE(report.ok()) << report.status().to_string();
      const std::string bytes = report_bytes(report.value());
      if (reference.empty()) reference = bytes;
      EXPECT_EQ(bytes, reference);
    }
  }

  struct Baseline {
    const char* name;
    const char* report;
  };
  const Baseline baselines[] = {
      {"dgcnn",
       "overall=3fc999999999999a balanced=3fc999999999999a "
       "loss=0000000000000000 mb=3fc144028e4fb97c"},
      {"rtx-fast",
       "overall=3fd3333333333333 balanced=3fd3333333333333 "
       "loss=0000000000000000 mb=3fc1b328b6d86ec1"},
  };
  for (const Baseline& b : baselines) {
    for (const std::int64_t threads : kWidths) {
      SCOPED_TRACE(std::string(b.name) + " @ " + std::to_string(threads));
      api::EngineConfig cfg = api::EngineConfig::tiny();
      cfg.num_threads = threads;
      auto created = api::Engine::create(cfg);
      ASSERT_TRUE(created.ok()) << created.status().to_string();
      auto report = created.value().train_baseline(b.name);
      ASSERT_TRUE(report.ok()) << report.status().to_string();
      const api::TrainReport& t = report.value();
      EXPECT_EQ("overall=" + hex_bits(t.overall_acc) +
                    " balanced=" + hex_bits(t.balanced_acc) +
                    " loss=" + hex_bits(t.mean_loss) +
                    " mb=" + hex_bits(t.param_mb),
                b.report);
    }
  }
  core::set_num_threads(0);
}

}  // namespace
}  // namespace hg::hgnas
