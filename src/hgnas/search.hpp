// search.hpp — HGNAS design-space exploration (paper §III-C, Alg. 1).
//
// Multi-stage hierarchical strategy over a weight-sharing supernet:
//   Stage 1 (Function Search): evolutionary search over the two shared
//     function sets (upper half / lower half of positions), objective =
//     supernet validation accuracy.
//   Stage 2 (Operation Search): re-initialise and pre-train the supernet
//     with the winning functions fixed, then evolutionary search over the
//     4^N operation assignment with the multi-objective score of Eq. (3):
//         F(C) = 0                       if lat >= C
//                a * acc - b * lat_norm  if lat <  C
//     where lat_norm = latency / latency_scale_ms (the caller passes the
//     DGCNN latency of the target device, making a : b dimensionless like
//     the paper's Fig. 7 sweep).
//
// Latency comes from a pluggable evaluator: either the GNN performance
// predictor (milliseconds per query) or simulated on-device measurement
// (seconds to minutes per query) — the Fig. 9(a) ablation. A simulated
// wall clock accumulates evaluator + training costs so that search-progress
// curves can be plotted against "GPU hours" even though the whole pipeline
// runs scaled-down on one CPU core.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/annotations.hpp"
#include "core/stepwise.hpp"
#include "obs/trace.hpp"
#include "hgnas/arch.hpp"
#include "hgnas/pareto.hpp"
#include "hgnas/supernet.hpp"
#include "hw/device.hpp"
#include "pointcloud/pointcloud.hpp"

namespace hg::hgnas {

/// One latency query against an architecture.
struct LatencyEval {
  double latency_ms = 0.0;
  double cost_s = 0.0;  // simulated wall-clock cost of obtaining the number
  bool oom = false;
  /// Peak memory, when the evaluator can report it (the analytical oracle
  /// and simulated measurement can; a pure latency predictor reports 0 =
  /// unknown and the memory constraint is then not enforced).
  double peak_memory_mb = 0.0;
};

using LatencyFn = std::function<LatencyEval(const Arch&)>;

/// Latency evaluator backed by simulated on-device measurement (deploy +
/// runs; see hw::Device::measure). Throws if the device does not support
/// online measurement (Jetson TX2 / Raspberry Pi in the paper).
LatencyFn make_measurement_evaluator(const hw::Device& device,
                                     const Workload& workload,
                                     std::uint64_t seed);

/// Latency evaluator backed by the deterministic analytical model with
/// zero query cost — the oracle upper bound used in tests.
LatencyFn make_oracle_evaluator(const hw::Device& device,
                                const Workload& workload);

/// One fully-scored candidate: Eq. (3) fitness plus the raw measurements it
/// was computed from. Shared vocabulary of the memo cache, the Pareto
/// tracker and the scoring pipeline.
struct ScoredCandidate {
  Arch arch;
  double fitness = 0.0;
  double acc = 0.0;
  double latency_ms = 0.0;      // infinity when the evaluator reports OOM
  double raw_latency_ms = 0.0;  // as measured, even for OOM candidates
  bool is_feasible = false;
};

/// Thread-safe memo of candidate scores keyed by the serialized canonical
/// genome. An entry is only meaningful for one scoring context — evaluator,
/// objective parameters and supernet weights — so the cache carries a
/// `scope` string and self-clears when a search opens it under a different
/// scope (the supernet weight version is part of the scope, which is what
/// invalidates entries whenever any search retrains).
///
/// Concurrency story (several searches on one shared cache, as
/// api::EvalContext and serve::Service do):
///  * Entries live in hash-sharded maps, each behind its own mutex, so
///    concurrent lookups/inserts on different genomes never contend.
///  * lookup/insert carry the caller's scope and are no-ops under a scope
///    mismatch: a search that computed a score under old supernet weights
///    can never serve it into — or pollute — a cache another search has
///    since re-scoped. The scope itself sits behind a shared_mutex
///    (shared for the hot lookup/insert path, exclusive in open_scope).
///  * save()/load() persist the current scope plus every entry to a
///    line-oriented text file, so repeated runs whose scope still matches
///    (same evaluator tag, objective and supernet weight version) start
///    warm (api::EngineConfig::eval_cache_path wires this up).
///
/// HgnasSearch owns a private one by default; hand the same instance to
/// several searches (api::EvalContext does) and revisited genomes are never
/// re-evaluated across runs as long as the scope matches.
class EvalCache {
 public:
  /// Clears every shard when `scope` differs from the stored scope.
  void open_scope(const std::string& scope);
  /// True (and fills *out) only when `key` is present AND `scope` is the
  /// currently open scope.
  bool lookup(const std::string& scope, const std::string& key,
              ScoredCandidate* out) const;
  /// Records the score; silently dropped when `scope` is no longer the
  /// open scope (the entry would be invalid there).
  void insert(const std::string& scope, const std::string& key,
              const ScoredCandidate& score);
  void clear();
  std::int64_t size() const;
  std::string scope() const;

  /// Serialize scope + entries to `path` (overwrite). False on I/O
  /// failure. Stored architectures ride the arch v1 text format, which
  /// normalises unused function attributes — a reloaded entry's arch is
  /// the canonical form of the one inserted (execution-identical; see
  /// hgnas::canonicalize).
  bool save(const std::string& path) const;
  /// Replace contents from a save() file. False (cache left empty) when the
  /// file is missing or malformed — a cold start, not an error.
  bool load(const std::string& path);

 private:
  static constexpr std::size_t kNumShards = 16;
  struct Shard {
    mutable core::Mutex mutex;
    std::unordered_map<std::string, ScoredCandidate> map
        HG_GUARDED_BY(mutex);
  };
  Shard& shard_for(const std::string& key) const;

  // Shared (reader) on the hot lookup/insert path, exclusive (writer) in
  // open_scope/clear/load. Shard mutexes nest inside it.
  mutable core::SharedMutex scope_mutex_;
  std::string scope_ HG_GUARDED_BY(scope_mutex_);
  mutable std::array<Shard, kNumShards> shards_;
};

struct SearchConfig {
  SpaceConfig space;
  Workload workload;  // lowering target (point count, k, classes)

  std::int64_t population = 20;   // paper: population size 20
  std::int64_t parents = 10;      // elites kept for reproduction
  std::int64_t iterations = 50;   // EA iterations per stage (paper: 1000)
  double crossover_fraction = 0.5;  // offspring from crossover vs mutation
  double mutation_prob = 0.2;       // per-gene resample probability

  double alpha = 1.0;  // accuracy weight (Eq. 1/3)
  double beta = 0.5;   // latency weight
  // Hardware constraint set C (paper Eq. 2 lists "inference latency, model
  // size, etc."). A candidate violating any set bound scores 0; an unset
  // bound is unconstrained.
  std::optional<double> latency_constraint_ms;
  std::optional<double> memory_constraint_mb;
  std::optional<double> size_constraint_mb;
  double latency_scale_ms = 1.0;  // normaliser for the latency term

  std::int64_t eval_val_samples = 40;  // clouds per supernet accuracy probe
  std::int64_t function_paths_per_eval = 3;  // op paths averaged in stage 1

  std::int64_t stage1_epochs = 2;  // supernet warmup epochs (paper: 50)
  std::int64_t stage2_epochs = 4;  // supernet pretrain epochs (paper: 500)
  std::int64_t batch_size = 8;
  /// When false, the supernet is assumed already trained by the caller and
  /// all warmup / re-init / pretrain phases are skipped (lets one supernet
  /// serve several per-device searches, as training is device-independent).
  bool train_supernet = true;

  // Simulated cost book-keeping (V100-equivalents, see DESIGN.md):
  double sim_train_s_per_sample = 0.004;  // supernet fwd+bwd per cloud
  double sim_eval_s_per_sample = 0.0015;  // supernet inference per cloud

  /// Memoise candidate scores on the serialized canonical genome for the
  /// duration of one search run, so a re-visited candidate is never
  /// re-evaluated (hits/misses are reported in SearchResult). Disable only
  /// for A/B experiments; with a deterministic evaluator (accuracy-probe
  /// RNG streams are derived from the genome) disabling it reproduces the
  /// exact same search.
  bool use_eval_cache = true;

  /// Identity of the latency evaluator, folded into the memo-cache scope so
  /// a cache shared across searches never serves scores produced by a
  /// different evaluator. Empty is fine for a search that owns its cache.
  std::string evaluator_tag;
};

/// (simulated time, best objective so far) — one point per EA iteration.
struct SearchEvent {
  double sim_time_s = 0.0;
  double best_objective = 0.0;
};

struct SearchResult {
  Arch best_arch;
  FunctionSet upper, lower;
  double best_objective = 0.0;
  double best_supernet_acc = 0.0;
  double best_latency_ms = 0.0;
  std::vector<SearchEvent> history;  // stage-2 (or one-stage) progress
  double total_sim_time_s = 0.0;
  std::int64_t latency_queries = 0;
  std::int64_t accuracy_probes = 0;
  /// Memo-cache traffic of the scoring pipeline (a "miss" is one full
  /// candidate evaluation: latency query + accuracy probe when feasible).
  std::int64_t eval_cache_hits = 0;
  std::int64_t eval_cache_misses = 0;
  /// Accuracy–latency Pareto front over every feasible candidate this run
  /// scored (Fig. 6), ascending latency. Maintained in-loop by a
  /// ParetoTracker — identical to pareto_front() over the full scoring log.
  std::vector<ParetoPoint> frontier;
  /// Feasible candidates the frontier was distilled from.
  std::int64_t frontier_candidates = 0;
};

/// Which run_* pipeline a stepwise run drives (the three strategies below
/// map 1:1 onto run_multistage / run_onestage / run_random).
enum class SearchStrategy { kMultistage, kOnestage, kRandom };

/// Where a stepwise run currently stands. Updated in place before every
/// suspension, so a scheduler can read it between step() calls; to_text()
/// is the serializable one-line view (progress frames, logs, checkpoints).
/// `phase` is set at the start of each phase's first unit of work.
struct SearchProgress {
  enum class Phase {
    kIdle,      // created, step() not called yet
    kWarmup,    // stage-0 / onestage / random supernet training epochs
    kStage1,    // function-set EA generations
    kPretrain,  // between-stages re-init + pretrain epochs
    kStage2,    // operation EA generations (also the onestage EA)
    kSampling,  // random-strategy budget chunks
    kDone,
  };
  Phase phase = Phase::kIdle;
  /// step() calls so far (counted by SearchStepper).
  std::int64_t steps = 0;
  double sim_time_s = 0.0;
  /// Best Eq. (3) objective seen so far; meaningful once has_best is set
  /// (the EA phases report it from their first generation on).
  double best_objective = 0.0;
  bool has_best = false;

  std::string to_text() const;
};

class HgnasSearch {
 public:
  /// The supernet and dataset are borrowed; they must outlive the search.
  /// `shared_cache` (optional, borrowed) replaces the search's private memo
  /// cache so several searches can pool their candidate scores — see
  /// EvalCache for the scope rules that keep that sound.
  HgnasSearch(SuperNet& supernet, const pointcloud::Dataset& data,
              SearchConfig cfg, LatencyFn latency,
              EvalCache* shared_cache = nullptr);

  /// Full Alg. 1: function search, supernet re-init + pretrain, operation
  /// search.
  SearchResult run_multistage(Rng& rng);

  /// Ablation baseline (Fig. 9b): one joint EA over operations and
  /// per-position functions in the full fine-grained space.
  SearchResult run_onestage(Rng& rng);

  /// Random-sampling baseline at the same latency-query budget as the EA
  /// (population + iterations * population/2 candidates), with the same
  /// supernet training schedule, feasibility gate and Eq. (3) objective —
  /// the "random search" row of ablation tables. Unlike the EA, random
  /// sampling re-visits genomes, so this is where the memo cache pays off.
  SearchResult run_random(Rng& rng);

  /// The stepwise form of the three strategies: returns a coroutine whose
  /// step() advances one supernet mini-batch or one validation-sample round
  /// of the candidates being scored, at every pool width. Each epoch /
  /// generation / chunk also ends with a suspension of its own. The
  /// monolithic run_* entry points drive this same coroutine to completion,
  /// so stepped and monolithic runs are bit-identical by construction for
  /// every strategy. `*out` holds the result once the stepper reports done;
  /// `*prog` (all but `steps`) is refreshed before every suspension. `rng`,
  /// `out`, `prog` and this search must outlive the stepper. No
  /// thread-local state lives across a suspension, so consecutive steps may
  /// run on different threads.
  core::Stepper run_stepwise(SearchStrategy strategy, Rng& rng,
                             SearchResult* out, SearchProgress* prog);

  /// Eq. (3) objective for given accuracy / latency.
  double objective(double acc, double latency_ms, bool oom) const;

  /// All hardware constraints of C (latency / peak memory / model size).
  bool feasible(const LatencyEval& lat, double size_mb) const;

  const SearchConfig& config() const { return cfg_; }

 private:
  using Scored = ScoredCandidate;

  /// One deduplicated candidate queued for batch evaluation. `key` is the
  /// serialized canonical genome (the memo-cache key); `hash` seeds the
  /// candidate's private accuracy-probe RNG stream.
  struct PendingEval {
    Arch arch;
    std::string key;
    std::uint64_t hash = 0;
  };

  /// Latency gate of candidate scoring (paper §III-C: only candidates that
  /// meet the hardware constraint are evaluated for accuracy). Fills the
  /// latency/feasibility side of `s` and returns true when the accuracy
  /// probe must run.
  bool gate_candidate(const Arch& arch, Scored& s);

  /// Eq. (3) scoring as a coroutine that appends one score per batch
  /// entry to `*out`, in batch order. The latency gate, clock and counters
  /// run serially in batch order; feasible candidates' accuracy probes then
  /// advance in co_probe_rounds, each with an RNG derived from (acc_seed,
  /// genome hash), so the result is independent of scheduling, of the
  /// thread count and of where the run is preempted. `batch` and `out`
  /// must outlive the stepper.
  core::Stepper co_score_batch(const std::vector<PendingEval>& batch,
                               std::uint64_t acc_seed,
                               std::vector<Scored>* out);

  /// Advance every probe one validation sample per round: one
  /// parallel_invoke over the live probes, then a suspension. Each probe
  /// walks its samples in order on its own RNG, so the outcome equals
  /// running every probe to completion in one go. The supernet is held in
  /// inference mode for one round at a time. `probes` must outlive the
  /// stepper.
  core::Stepper co_probe_rounds(std::vector<AccuracyProbe>& probes);

  /// `epochs` supernet training epochs over paths from `sampler`, with a
  /// fresh Adam optimiser: one suspension per mini-batch and one after each
  /// epoch. The caller sets the phase.
  core::Stepper co_train_supernet(std::int64_t epochs,
                                  std::function<Arch(Rng&)> sampler,
                                  Rng& rng, SearchProgress* prog);

  void advance_clock(double seconds) { sim_time_s_ += seconds; }
  void reset_run_state();

  /// Scope under which this run's cache entries are valid: evaluator tag,
  /// objective parameters, probe budget and the supernet weight version.
  std::string cache_scope() const;
  /// Open the cache for scoring (clears it on a scope change) — called once
  /// per run, after all supernet training is done.
  void open_cache();
  /// Feed every feasible (accuracy-probed) score into the Pareto tracker.
  void record_frontier(const Scored& s);
  void finalize_result(SearchResult& result);

  // The strategy pipelines as coroutines (suspending per mini-batch and
  // per validation-sample round, and at every epoch / generation / chunk
  // boundary). FunctionSets are taken by value: the caller's copies may
  // die before the last step(). `out`/`prog` are borrowed and must outlive
  // the frame (run_stepwise documents this for callers).
  core::Stepper co_run_multistage(Rng& rng, SearchResult* out,
                                  SearchProgress* prog);
  core::Stepper co_run_onestage(Rng& rng, SearchResult* out,
                                SearchProgress* prog);
  core::Stepper co_run_random(Rng& rng, SearchResult* out,
                              SearchProgress* prog);
  core::Stepper co_evolve(FunctionSet upper, FunctionSet lower,
                          bool full_space, Rng& rng, SearchResult* out,
                          SearchProgress* prog);

  SuperNet& supernet_;
  const pointcloud::Dataset& data_;
  SearchConfig cfg_;
  LatencyFn latency_;
  double sim_time_s_ = 0.0;
  std::int64_t latency_queries_ = 0;
  std::int64_t accuracy_probes_ = 0;

  // Memo cache: serialized canonical genome -> score. `cache_` points at
  // either the private cache below or a caller-shared one; scope checks
  // (see EvalCache) invalidate entries whenever the supernet weights, the
  // evaluator or the objective change. Hit/miss counters are per run.
  // `run_scope_` is this run's scope snapshot (set by open_cache) — every
  // lookup/insert carries it so a shared cache re-scoped by another search
  // mid-run turns this run's traffic into misses instead of corruption.
  EvalCache own_cache_;
  EvalCache* cache_ = nullptr;
  std::string run_scope_;
  std::int64_t cache_hits_ = 0;
  std::int64_t cache_misses_ = 0;
  // In-loop Pareto bookkeeping over every feasible candidate scored.
  ParetoTracker frontier_;
};

/// A whole search run, advanced one supernet mini-batch or one
/// validation-sample round at a time (see HgnasSearch::run_stepwise) — the
/// scheduling unit serve::Service preempts under its exclusive time slice.
/// Owns its HgnasSearch (RNG draws in flight, population, Pareto tracker
/// and cache handles all live in the coroutine frame / the search), so a
/// run parked between steps carries its full state. The constructor
/// validates the config exactly like HgnasSearch (throws
/// std::invalid_argument).
///
/// Not copyable or movable: the coroutine frame pins the addresses of the
/// members it references.
class SearchStepper {
 public:
  /// Borrows supernet / data / rng / shared_cache with the same lifetime
  /// rules as HgnasSearch — all must outlive the stepper.
  SearchStepper(SuperNet& supernet, const pointcloud::Dataset& data,
                SearchConfig cfg, LatencyFn latency, SearchStrategy strategy,
                Rng& rng, EvalCache* shared_cache = nullptr)
      : search_(supernet, data, std::move(cfg), std::move(latency),
                shared_cache),
        stepper_(search_.run_stepwise(strategy, rng, &result_, &progress_)) {}
  SearchStepper(const SearchStepper&) = delete;
  SearchStepper& operator=(const SearchStepper&) = delete;

  /// One mini-batch or validation-sample round (see run_stepwise). False
  /// once finished; rethrows anything the pipeline threw, from the step
  /// that hit it. Each step is one trace span named after the phase its
  /// work ran in — the phase current when the step ends, since a phase is
  /// entered at the start of its first unit; the final step, which leaves
  /// kDone behind, keeps the phase it started in — so a traced sliced
  /// search reads as warmup/stage1/pretrain/stage2 segments. With tracing
  /// off the span costs one relaxed load.
  bool step() {
    if (stepper_.done()) return false;
    ++progress_.steps;
    if (!obs::tracing_enabled()) return stepper_.step();
    const SearchProgress::Phase entered = progress_.phase;
    const auto start = std::chrono::steady_clock::now();
    const bool more = stepper_.step();
    obs::record_span(phase_span_name(more ? progress_.phase : entered),
                     "search", obs::current_trace_id(), start,
                     std::chrono::steady_clock::now());
    return more;
  }
  bool done() const { return stepper_.done(); }

  const SearchProgress& progress() const { return progress_; }

  /// The finished run's result — identical to what the matching run_*
  /// call would have returned. Valid once done().
  SearchResult take_result() { return std::move(result_); }

 private:
  static const char* phase_span_name(SearchProgress::Phase phase) {
    switch (phase) {
      case SearchProgress::Phase::kWarmup: return "search.warmup";
      case SearchProgress::Phase::kStage1: return "search.stage1";
      case SearchProgress::Phase::kPretrain: return "search.pretrain";
      case SearchProgress::Phase::kStage2: return "search.stage2";
      case SearchProgress::Phase::kSampling: return "search.sampling";
      case SearchProgress::Phase::kIdle:
      case SearchProgress::Phase::kDone: break;
    }
    return "search.step";
  }

  HgnasSearch search_;  // declared before stepper_: the frame refers to it
  SearchResult result_;
  SearchProgress progress_;
  core::Stepper stepper_;
};

}  // namespace hg::hgnas
