#include "hgnas/search.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <stdexcept>
#include <unordered_set>
#include <utility>

#include "core/check.hpp"
#include "core/parallel.hpp"
#include "hgnas/serialize_arch.hpp"

namespace hg::hgnas {

namespace {

constexpr char kCheckScope[] = "HgnasSearch: ";

/// Holds the supernet in inference mode for one round of concurrent
/// accuracy probes, restoring training mode even when a probe throws.
class EvalModeGuard {
 public:
  explicit EvalModeGuard(SuperNet& net) : net_(net) {
    net_.set_training(false);
  }
  ~EvalModeGuard() { net_.set_training(true); }
  EvalModeGuard(const EvalModeGuard&) = delete;
  EvalModeGuard& operator=(const EvalModeGuard&) = delete;

 private:
  SuperNet& net_;
};

}  // namespace

EvalCache::Shard& EvalCache::shard_for(const std::string& key) const {
  return shards_[std::hash<std::string>{}(key) % kNumShards];
}

void EvalCache::open_scope(const std::string& scope) {
  core::WriterLock lock(scope_mutex_);
  if (scope_ == scope) return;
  for (Shard& s : shards_) {
    core::MutexLock shard_lock(s.mutex);
    s.map.clear();
  }
  scope_ = scope;
}

bool EvalCache::lookup(const std::string& scope, const std::string& key,
                       ScoredCandidate* out) const {
  core::ReaderLock lock(scope_mutex_);
  if (scope_ != scope) return false;
  Shard& s = shard_for(key);
  core::MutexLock shard_lock(s.mutex);
  const auto it = s.map.find(key);
  if (it == s.map.end()) return false;
  *out = it->second;
  return true;
}

void EvalCache::insert(const std::string& scope, const std::string& key,
                       const ScoredCandidate& score) {
  core::ReaderLock lock(scope_mutex_);
  if (scope_ != scope) return;  // stale writer: the entry is invalid here
  Shard& s = shard_for(key);
  core::MutexLock shard_lock(s.mutex);
  s.map.emplace(key, score);
}

void EvalCache::clear() {
  core::WriterLock lock(scope_mutex_);
  for (Shard& s : shards_) {
    core::MutexLock shard_lock(s.mutex);
    s.map.clear();
  }
  scope_.clear();
}

std::int64_t EvalCache::size() const {
  core::ReaderLock lock(scope_mutex_);
  std::int64_t n = 0;
  for (Shard& s : shards_) {
    core::MutexLock shard_lock(s.mutex);
    n += static_cast<std::int64_t>(s.map.size());
  }
  return n;
}

std::string EvalCache::scope() const {
  core::ReaderLock lock(scope_mutex_);
  return scope_;
}

// ---- persistence -----------------------------------------------------------
//
// Line-oriented text, reusing the arch v1 text format for genomes:
//
//   hgnas-evalcache v1
//   scope <byte count>
//   <scope, verbatim>
//   entries <count>
//   entry <fitness> <acc> <latency_ms> <raw_latency_ms> <is_feasible>
//   key <byte count>
//   <serialized canonical genome, verbatim>
//   arch <byte count>
//   <serialized stored arch, verbatim>
//   ... (per entry)

namespace {

void write_block(std::ostream& os, const char* tag, const std::string& body) {
  os << tag << ' ' << body.size() << '\n' << body << '\n';
}

// Corrupt size fields (a negative count wraps through num_get to 2^64-1)
// must not drive resize()/reserve() into std::length_error — any size
// beyond this is not a cache this code ever wrote.
constexpr std::size_t kMaxBlockBytes = std::size_t{1} << 30;

/// Reads "<tag> <n>\n<n bytes>\n" written by write_block. False on any
/// mismatch (malformed file).
bool read_block(std::istream& is, const char* tag, std::string* body) {
  std::string seen;
  std::size_t n = 0;
  if (!(is >> seen >> n) || seen != tag) return false;
  if (n > kMaxBlockBytes) return false;
  if (is.get() != '\n') return false;
  body->resize(n);
  if (n > 0 && !is.read(body->data(), static_cast<std::streamsize>(n)))
    return false;
  return is.get() == '\n';
}

}  // namespace

bool EvalCache::save(const std::string& path) const {
  core::ReaderLock lock(scope_mutex_);
  // Atomic commit, mirroring load()'s all-or-nothing parse: write a
  // sibling temp file and rename it over `path`, so a crash mid-save
  // leaves the previous cache intact instead of a truncated file another
  // service is about to load. rename(2) is atomic within a filesystem,
  // and the temp sits next to the target to stay on the same one.
  const std::string tmp_path = path + ".tmp";
  std::ofstream os(tmp_path, std::ios::trunc);
  if (!os) return false;
  std::vector<std::pair<std::string, ScoredCandidate>> entries;
  for (Shard& s : shards_) {
    core::MutexLock shard_lock(s.mutex);
    for (const auto& [key, score] : s.map) entries.emplace_back(key, score);
  }
  // Deterministic file contents regardless of hash order (reviewable
  // artifacts, stable diffs next to the BENCH_*.json they sit with).
  std::sort(entries.begin(), entries.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  os << "hgnas-evalcache v1\n";
  write_block(os, "scope", scope_);
  os << "entries " << entries.size() << '\n';
  os.precision(17);
  for (const auto& [key, score] : entries) {
    // latency_ms is +inf exactly for OOM candidates; iostreams cannot
    // round-trip "inf", so encode it as -1 (real latencies are positive).
    const double lat_enc =
        std::isinf(score.latency_ms) ? -1.0 : score.latency_ms;
    os << "entry " << score.fitness << ' ' << score.acc << ' ' << lat_enc
       << ' ' << score.raw_latency_ms << ' ' << (score.is_feasible ? 1 : 0)
       << '\n';
    write_block(os, "key", key);
    write_block(os, "arch", arch_to_text(score.arch));
  }
  os.close();
  if (!os) {
    std::remove(tmp_path.c_str());
    return false;
  }
  if (std::rename(tmp_path.c_str(), path.c_str()) != 0) {
    std::remove(tmp_path.c_str());
    return false;
  }
  return true;
}

bool EvalCache::load(const std::string& path) {
  core::WriterLock lock(scope_mutex_);
  for (Shard& s : shards_) {
    core::MutexLock shard_lock(s.mutex);
    s.map.clear();
  }
  scope_.clear();

  // Parse everything first, commit only a fully-valid file: a truncated or
  // corrupt cache degrades to a cold start, never a half-filled one.
  std::ifstream is(path);
  if (!is) return false;
  std::string magic, version;
  if (!(is >> magic >> version) || magic != "hgnas-evalcache" ||
      version != "v1")
    return false;
  if (is.get() != '\n') return false;
  std::string scope;
  if (!read_block(is, "scope", &scope)) return false;
  std::string tag;
  std::size_t count = 0;
  if (!(is >> tag >> count) || tag != "entries") return false;
  if (count > kMaxBlockBytes) return false;  // corrupt / wrapped count
  // No reserve(count): a corrupt count must fail at the first missing
  // entry, not allocate for entries that are not in the file.
  std::vector<std::pair<std::string, ScoredCandidate>> entries;
  for (std::size_t i = 0; i < count; ++i) {
    ScoredCandidate score;
    double lat_enc = 0.0;
    int feasible = 0;
    if (!(is >> tag >> score.fitness >> score.acc >> lat_enc >>
          score.raw_latency_ms >> feasible) ||
        tag != "entry")
      return false;
    if (is.get() != '\n') return false;
    score.latency_ms =
        lat_enc < 0.0 ? std::numeric_limits<double>::infinity() : lat_enc;
    score.is_feasible = feasible != 0;
    std::string key, arch_text;
    if (!read_block(is, "key", &key) || !read_block(is, "arch", &arch_text))
      return false;
    try {
      score.arch = arch_from_text(arch_text);
    } catch (const std::exception&) {
      return false;
    }
    entries.emplace_back(std::move(key), std::move(score));
  }

  for (auto& [key, score] : entries) {
    Shard& s = shard_for(key);
    core::MutexLock shard_lock(s.mutex);
    s.map.emplace(std::move(key), std::move(score));
  }
  scope_ = std::move(scope);
  return true;
}

LatencyFn make_measurement_evaluator(const hw::Device& device,
                                     const Workload& workload,
                                     std::uint64_t seed) {
  HG_CHECK(device.spec().supports_online_measurement,
           "device " + device.name() +
               " does not support online measurement (paper §IV-D); use the "
               "predictor instead");
  auto rng = std::make_shared<Rng>(seed);
  return [&device, workload, rng](const Arch& arch) -> LatencyEval {
    const hw::Trace trace = lower_to_trace(arch, workload);
    const hw::Measurement m = device.measure(trace, *rng);
    return {m.latency_ms, m.wall_clock_s, m.oom, m.peak_memory_mb};
  };
}

LatencyFn make_oracle_evaluator(const hw::Device& device,
                                const Workload& workload) {
  return [&device, workload](const Arch& arch) -> LatencyEval {
    const hw::Trace trace = lower_to_trace(arch, workload);
    return {device.latency_ms(trace), 0.0, device.would_oom(trace),
            device.peak_memory_mb(trace)};
  };
}

HgnasSearch::HgnasSearch(SuperNet& supernet, const pointcloud::Dataset& data,
                         SearchConfig cfg, LatencyFn latency,
                         EvalCache* shared_cache)
    : supernet_(supernet), data_(data), cfg_(std::move(cfg)),
      latency_(std::move(latency)),
      cache_(shared_cache != nullptr ? shared_cache : &own_cache_) {
  HG_CHECK(static_cast<bool>(latency_), "latency evaluator required");
  HG_CHECK(cfg_.population >= 2, "population must be >= 2");
  HG_CHECK(cfg_.parents >= 1 && cfg_.parents <= cfg_.population,
           "parents must be in [1, population]");
  HG_CHECK(cfg_.iterations >= 1, "iterations must be >= 1");
  HG_CHECK(cfg_.latency_scale_ms > 0.0, "latency_scale_ms must be positive");
  HG_CHECK(!cfg_.latency_constraint_ms || *cfg_.latency_constraint_ms > 0.0,
           "latency_constraint_ms must be positive when set");
  HG_CHECK(!cfg_.memory_constraint_mb || *cfg_.memory_constraint_mb > 0.0,
           "memory_constraint_mb must be positive when set");
  HG_CHECK(!cfg_.size_constraint_mb || *cfg_.size_constraint_mb > 0.0,
           "size_constraint_mb must be positive when set");
  HG_CHECK(cfg_.space.num_positions == supernet.space().num_positions,
           "search space and supernet disagree on position count");
}

double HgnasSearch::objective(double acc, double latency_ms, bool oom) const {
  if (oom || (cfg_.latency_constraint_ms &&
              latency_ms >= *cfg_.latency_constraint_ms))
    return 0.0;  // Eq. (3)
  return cfg_.alpha * acc - cfg_.beta * latency_ms / cfg_.latency_scale_ms;
}

bool HgnasSearch::feasible(const LatencyEval& lat, double size_mb) const {
  if (lat.oom) return false;
  if (cfg_.latency_constraint_ms &&
      lat.latency_ms >= *cfg_.latency_constraint_ms)
    return false;
  if (cfg_.memory_constraint_mb && lat.peak_memory_mb > 0.0 &&
      lat.peak_memory_mb >= *cfg_.memory_constraint_mb)
    return false;
  if (cfg_.size_constraint_mb && size_mb >= *cfg_.size_constraint_mb)
    return false;
  return true;
}

bool HgnasSearch::gate_candidate(const Arch& arch, Scored& s) {
  s.arch = arch;
  ++latency_queries_;
  const LatencyEval lat = latency_(arch);
  advance_clock(lat.cost_s);
  s.latency_ms = lat.oom ? std::numeric_limits<double>::infinity()
                         : lat.latency_ms;
  s.raw_latency_ms = lat.latency_ms;
  if (!feasible(lat, arch_param_mb(arch, cfg_.workload))) {
    s.fitness = 0.0;  // Eq. (3): accuracy never probed when infeasible
    s.is_feasible = false;
    return false;
  }
  return true;
}

core::Stepper HgnasSearch::co_score_batch(
    const std::vector<PendingEval>& batch, std::uint64_t acc_seed,
    std::vector<Scored>* out) {
  const std::int64_t nb = static_cast<std::int64_t>(batch.size());
  std::vector<Scored> scored(static_cast<std::size_t>(nb));
  std::vector<char> fresh(static_cast<std::size_t>(nb), 0);
  // Within-batch revisits (the random strategy does not dedup its draws)
  // alias the first occurrence instead of re-evaluating.
  std::vector<std::int64_t> dup_of(static_cast<std::size_t>(nb), -1);
  std::unordered_map<std::string, std::int64_t> first_index;
  // Accuracy probes of the feasible fresh candidates, and the batch index
  // each one scores.
  std::vector<AccuracyProbe> probes;
  std::vector<std::size_t> probed;
  const std::int64_t probe_samples =
      std::min<std::int64_t>(cfg_.eval_val_samples,
                             static_cast<std::int64_t>(data_.test().size()));

  // Phase 1, serial in batch order: cache lookups, latency gate, clock and
  // counter bookkeeping (deterministic regardless of the pool).
  for (std::int64_t i = 0; i < nb; ++i) {
    const PendingEval& pe = batch[static_cast<std::size_t>(i)];
    Scored& s = scored[static_cast<std::size_t>(i)];
    if (cfg_.use_eval_cache) {
      if (cache_->lookup(run_scope_, pe.key, &s)) {
        ++cache_hits_;
        continue;
      }
      const auto [fit, inserted] = first_index.emplace(pe.key, i);
      if (!inserted) {
        ++cache_hits_;
        dup_of[static_cast<std::size_t>(i)] = fit->second;
        continue;
      }
    }
    ++cache_misses_;
    fresh[static_cast<std::size_t>(i)] = 1;
    if (!gate_candidate(pe.arch, s)) continue;
    // Each candidate owns an RNG derived from its genome, so the outcome
    // does not depend on which worker runs it or on the thread count.
    probes.push_back(SuperNet::begin_probe(pe.arch, data_.test(),
                                           probe_samples,
                                           Rng(acc_seed ^ pe.hash)));
    probed.push_back(static_cast<std::size_t>(i));
    ++accuracy_probes_;
    advance_clock(static_cast<double>(probe_samples) *
                  cfg_.sim_eval_s_per_sample);
  }

  // Phase 2: the expensive supernet accuracy probes, in rounds.
  core::Stepper rounds = co_probe_rounds(probes);
  while (rounds.step()) co_await std::suspend_always{};
  for (std::size_t j = 0; j < probes.size(); ++j) {
    Scored& s = scored[probed[j]];
    s.acc = probes[j].accuracy();
    s.fitness = objective(s.acc, s.latency_ms, false);
    s.is_feasible = true;
  }

  for (std::int64_t i = 0; i < nb; ++i)
    if (dup_of[static_cast<std::size_t>(i)] >= 0)
      scored[static_cast<std::size_t>(i)] = scored[static_cast<std::size_t>(
          dup_of[static_cast<std::size_t>(i)])];

  if (cfg_.use_eval_cache) {
    for (std::int64_t i = 0; i < nb; ++i)
      if (fresh[static_cast<std::size_t>(i)])
        cache_->insert(run_scope_, batch[static_cast<std::size_t>(i)].key,
                       scored[static_cast<std::size_t>(i)]);
  }
  // Frontier bookkeeping runs serially after the rounds (the tracker is not
  // thread-safe); revisits are recorded again and deduplicate inside.
  for (Scored& s : scored) {
    record_frontier(s);
    out->push_back(std::move(s));
  }
}

core::Stepper HgnasSearch::co_probe_rounds(
    std::vector<AccuracyProbe>& probes) {
  const auto live = [&probes] {
    return std::any_of(probes.begin(), probes.end(),
                       [](const AccuracyProbe& p) { return !p.done(); });
  };
  while (live()) {
    {
      // Scoped to the round: whatever runs while the search is suspended
      // must find the supernet in its default (training) mode.
      EvalModeGuard eval_mode(supernet_);
      core::parallel_invoke(
          static_cast<std::int64_t>(probes.size()), [&](std::int64_t i) {
            AccuracyProbe& p = probes[static_cast<std::size_t>(i)];
            if (!p.done()) supernet_.advance_probe(p, data_.test());
          });
    }
    co_await std::suspend_always{};
  }
}

core::Stepper HgnasSearch::co_train_supernet(
    std::int64_t epochs, std::function<Arch(Rng&)> sampler, Rng& rng,
    SearchProgress* prog) {
  Adam opt(supernet_.parameters(), 1e-3f);
  for (std::int64_t e = 0; e < epochs; ++e) {
    double loss = 0.0;
    core::Stepper epoch = supernet_.train_epoch_stepwise(
        data_.train(), sampler, opt, cfg_.batch_size, rng, &loss);
    while (epoch.step()) co_await std::suspend_always{};
    advance_clock(static_cast<double>(data_.train().size()) *
                  cfg_.sim_train_s_per_sample);
    prog->sim_time_s = sim_time_s_;
    co_await std::suspend_always{};
  }
}

void HgnasSearch::reset_run_state() {
  sim_time_s_ = 0.0;
  latency_queries_ = 0;
  accuracy_probes_ = 0;
  cache_hits_ = 0;
  cache_misses_ = 0;
  frontier_.clear();
  // The memo cache is NOT cleared here: open_cache() re-scopes it when
  // scoring starts, which clears it exactly when the supernet weights, the
  // evaluator or the objective changed since the entries were written —
  // that is what lets searches sharing one cache keep their hits.
}

std::string HgnasSearch::cache_scope() const {
  std::string s = cfg_.evaluator_tag;
  auto field = [&s](double v) {
    s += '|';
    s += std::to_string(v);
  };
  field(cfg_.alpha);
  field(cfg_.beta);
  field(cfg_.latency_constraint_ms.value_or(-1.0));
  field(cfg_.memory_constraint_mb.value_or(-1.0));
  field(cfg_.size_constraint_mb.value_or(-1.0));
  field(cfg_.latency_scale_ms);
  field(static_cast<double>(cfg_.eval_val_samples));
  field(static_cast<double>(cfg_.workload.num_points));
  field(static_cast<double>(cfg_.workload.k));
  field(static_cast<double>(cfg_.workload.num_classes));
  s += "|w";
  s += std::to_string(supernet_.weight_version());
  return s;
}

void HgnasSearch::open_cache() {
  run_scope_ = cache_scope();
  if (cfg_.use_eval_cache) cache_->open_scope(run_scope_);
}

void HgnasSearch::record_frontier(const Scored& s) {
  if (s.is_feasible) frontier_.record(s.arch, s.acc, s.raw_latency_ms);
}

void HgnasSearch::finalize_result(SearchResult& result) {
  result.total_sim_time_s = sim_time_s_;
  result.latency_queries = latency_queries_;
  result.accuracy_probes = accuracy_probes_;
  result.eval_cache_hits = cache_hits_;
  result.eval_cache_misses = cache_misses_;
  result.frontier = frontier_.frontier();
  result.frontier_candidates = frontier_.recorded();
}

// The operation-search EA as a coroutine: one suspension after the initial
// population is scored and one after every generation. The suspensions are
// pure — no computation or RNG draw moves across them — so driving this to
// completion in one go reproduces the historical monolithic loop bit for
// bit. `upper`/`lower` arrive by value: the caller's copies (locals in an
// outer coroutine frame, or temporaries) may die before the last step.
core::Stepper HgnasSearch::co_evolve(FunctionSet upper, FunctionSet lower,
                                     bool full_space, Rng& rng,
                                     SearchResult* out, SearchProgress* prog) {
  *out = SearchResult{};
  SearchResult& result = *out;
  result.upper = upper;
  result.lower = lower;
  open_cache();  // supernet training is done: entries valid from here on

  auto sample_candidate = [&](Rng& r) {
    return full_space ? random_arch(cfg_.space, r)
                      : random_arch_with_functions(cfg_.space, upper, lower,
                                                   r);
  };

  // Drawn up-front so cache hits cannot shift the main stream: every
  // candidate's probe RNG derives from this one seed and its own genome.
  const std::uint64_t acc_seed = rng.next();

  std::vector<Scored> population;
  std::unordered_set<std::uint64_t> seen;
  std::vector<PendingEval> pending;

  auto admit = [&](const Arch& a) -> bool {
    // Dedup on the canonical form: genomes differing only in unused
    // function attributes execute identically and must not both consume
    // evaluation budget.
    const Arch canon = canonicalize(a);
    const auto h = canon.hash();
    if (!seen.insert(h).second) return false;
    pending.push_back(PendingEval{a, arch_to_text(canon), h});
    return true;
  };

  // Each generation's admissions are scored in rounds and appended in
  // admit order.
  while (static_cast<std::int64_t>(pending.size()) < cfg_.population)
    admit(sample_candidate(rng));
  {
    core::Stepper scoring = co_score_batch(pending, acc_seed, &population);
    while (scoring.step()) co_await std::suspend_always{};
    pending.clear();
  }
  prog->sim_time_s = sim_time_s_;
  co_await std::suspend_always{};

  // Ranking: any feasible candidate beats any infeasible one (Eq. (3)
  // scores feasible candidates, which can legitimately go negative when
  // beta is large — that must still outrank a constraint violation). Among
  // infeasible candidates, lower latency first, so selection pressure
  // points toward feasibility even when the whole population violates C.
  auto by_fitness = [](const Scored& a, const Scored& b) {
    if (a.is_feasible != b.is_feasible) return a.is_feasible;
    if (a.fitness != b.fitness) return a.fitness > b.fitness;
    return a.latency_ms < b.latency_ms;
  };

  for (std::int64_t t = 0; t < cfg_.iterations; ++t) {
    std::sort(population.begin(), population.end(), by_fitness);
    population.resize(static_cast<std::size_t>(cfg_.population));

    result.history.push_back({sim_time_s_, population.front().fitness});

    // Offspring: crossover between random elites, or mutation of an elite.
    const auto n_par = static_cast<std::size_t>(
        std::min<std::int64_t>(cfg_.parents,
                               static_cast<std::int64_t>(population.size())));
    std::int64_t produced = 0;
    std::int64_t attempts = 0;
    const std::int64_t offspring_target = cfg_.population / 2;
    while (produced < offspring_target && attempts < offspring_target * 10) {
      ++attempts;
      const auto& p1 =
          population[static_cast<std::size_t>(rng.uniform_int(n_par))].arch;
      Arch child;
      if (rng.bernoulli(cfg_.crossover_fraction)) {
        const auto& p2 =
            population[static_cast<std::size_t>(rng.uniform_int(n_par))].arch;
        child = crossover(p1, p2, rng);
        child = full_space ? mutate(child, cfg_.mutation_prob / 2,
                                    cfg_.mutation_prob / 2, rng)
                           : mutate_ops(child, cfg_.mutation_prob / 2, rng);
      } else {
        child = full_space
                    ? mutate(p1, cfg_.mutation_prob, cfg_.mutation_prob, rng)
                    : mutate_ops(p1, cfg_.mutation_prob, rng);
      }
      if (!full_space) apply_functions(child, upper, lower);
      if (admit(child)) ++produced;
    }
    // Keep diversity if mutation stalled on duplicates.
    while (produced < offspring_target) {
      if (admit(sample_candidate(rng))) ++produced;
    }
    core::Stepper scoring = co_score_batch(pending, acc_seed, &population);
    while (scoring.step()) co_await std::suspend_always{};
    pending.clear();
    prog->sim_time_s = sim_time_s_;
    prog->best_objective = result.history.back().best_objective;
    prog->has_best = true;
    co_await std::suspend_always{};
  }

  std::sort(population.begin(), population.end(), by_fitness);
  const Scored& best = population.front();
  result.best_arch = best.arch;
  result.best_objective = best.fitness;
  result.best_supernet_acc = best.acc;
  result.best_latency_ms = best.latency_ms;
  result.history.push_back({sim_time_s_, best.fitness});
  finalize_result(result);
  prog->sim_time_s = sim_time_s_;
  prog->best_objective = best.fitness;
  prog->has_best = true;
}

core::Stepper HgnasSearch::co_run_multistage(Rng& rng, SearchResult* out,
                                             SearchProgress* prog) {
  reset_run_state();

  // ---- Stage 0: supernet warmup over the full space -----------------------
  if (cfg_.train_supernet) {
    prog->phase = SearchProgress::Phase::kWarmup;
    core::Stepper warmup = co_train_supernet(
        cfg_.stage1_epochs,
        [this](Rng& r) { return random_arch(cfg_.space, r); }, rng, prog);
    while (warmup.step()) co_await std::suspend_always{};
  }

  // ---- Stage 1: function search (objective: supernet accuracy) -----------
  prog->phase = SearchProgress::Phase::kStage1;
  struct ScoredFn {
    FunctionSet upper, lower;
    double fitness = 0.0;
  };
  // The probes of fn_pop[first..] — paths and their seeds drawn serially
  // from the main stream — advance in co_probe_rounds, and each member's
  // fitness is the mean of its paths' accuracies.
  const std::int64_t paths = cfg_.function_paths_per_eval;
  auto draw_probes = [&](const std::vector<ScoredFn>& group,
                         std::size_t first) {
    const std::int64_t probe_samples = std::min<std::int64_t>(
        cfg_.eval_val_samples,
        static_cast<std::int64_t>(data_.test().size()));
    std::vector<AccuracyProbe> probes;
    probes.reserve((group.size() - first) * static_cast<std::size_t>(paths));
    for (std::size_t i = first; i < group.size(); ++i) {
      for (std::int64_t p = 0; p < paths; ++p) {
        Arch arch = random_arch_with_functions(cfg_.space, group[i].upper,
                                               group[i].lower, rng);
        const std::uint64_t seed = rng.next();
        probes.push_back(SuperNet::begin_probe(std::move(arch), data_.test(),
                                               probe_samples, Rng(seed)));
        ++accuracy_probes_;
        advance_clock(static_cast<double>(probe_samples) *
                      cfg_.sim_eval_s_per_sample);
      }
    }
    return probes;
  };
  auto collect = [&](std::vector<ScoredFn>& group, std::size_t first,
                     const std::vector<AccuracyProbe>& probes) {
    for (std::size_t i = first; i < group.size(); ++i) {
      double acc = 0.0;
      for (std::int64_t p = 0; p < paths; ++p)
        acc += probes[(i - first) * static_cast<std::size_t>(paths) +
                      static_cast<std::size_t>(p)]
                   .accuracy();
      group[i].fitness = acc / static_cast<double>(paths);
    }
  };

  std::vector<ScoredFn> fn_pop;
  for (std::int64_t i = 0; i < cfg_.population; ++i)
    fn_pop.push_back({random_functions(rng), random_functions(rng), 0.0});
  {
    std::vector<AccuracyProbe> probes = draw_probes(fn_pop, 0);
    core::Stepper rounds = co_probe_rounds(probes);
    while (rounds.step()) co_await std::suspend_always{};
    collect(fn_pop, 0, probes);
  }
  prog->sim_time_s = sim_time_s_;
  co_await std::suspend_always{};
  auto by_fit = [](const ScoredFn& a, const ScoredFn& b) {
    return a.fitness > b.fitness;
  };
  for (std::int64_t t = 0; t < cfg_.iterations; ++t) {
    std::sort(fn_pop.begin(), fn_pop.end(), by_fit);
    fn_pop.resize(static_cast<std::size_t>(cfg_.population));
    const auto n_par = static_cast<std::size_t>(std::min<std::int64_t>(
        cfg_.parents, static_cast<std::int64_t>(fn_pop.size())));
    const std::size_t first_child = fn_pop.size();
    for (std::int64_t c = 0; c < cfg_.population / 2; ++c) {
      const auto& p1 =
          fn_pop[static_cast<std::size_t>(rng.uniform_int(n_par))];
      ScoredFn child;
      if (rng.bernoulli(cfg_.crossover_fraction)) {
        const auto& p2 =
            fn_pop[static_cast<std::size_t>(rng.uniform_int(n_par))];
        child.upper = rng.bernoulli(0.5) ? p1.upper : p2.upper;
        child.lower = rng.bernoulli(0.5) ? p1.lower : p2.lower;
        child.upper = mutate_functions(child.upper, cfg_.mutation_prob / 2,
                                       rng);
        child.lower = mutate_functions(child.lower, cfg_.mutation_prob / 2,
                                       rng);
      } else {
        child.upper = mutate_functions(p1.upper, cfg_.mutation_prob, rng);
        child.lower = mutate_functions(p1.lower, cfg_.mutation_prob, rng);
      }
      fn_pop.push_back(std::move(child));
    }
    {
      std::vector<AccuracyProbe> probes = draw_probes(fn_pop, first_child);
      core::Stepper rounds = co_probe_rounds(probes);
      while (rounds.step()) co_await std::suspend_always{};
      collect(fn_pop, first_child, probes);
    }
    prog->sim_time_s = sim_time_s_;
    co_await std::suspend_always{};
  }
  std::sort(fn_pop.begin(), fn_pop.end(), by_fit);
  const FunctionSet upper = fn_pop.front().upper;
  const FunctionSet lower = fn_pop.front().lower;

  // ---- Between stages: re-init and pre-train with functions fixed --------
  if (cfg_.train_supernet) {
    prog->phase = SearchProgress::Phase::kPretrain;
    supernet_.reinitialize(rng);
    core::Stepper pretrain = co_train_supernet(
        cfg_.stage2_epochs,
        [this, upper, lower](Rng& r) {
          return random_arch_with_functions(cfg_.space, upper, lower, r);
        },
        rng, prog);
    while (pretrain.step()) co_await std::suspend_always{};
  }

  // ---- Stage 2: multi-objective operation search --------------------------
  prog->phase = SearchProgress::Phase::kStage2;
  core::Stepper stage2 =
      co_evolve(upper, lower, /*full_space=*/false, rng, out, prog);
  while (stage2.step()) co_await std::suspend_always{};
  prog->phase = SearchProgress::Phase::kDone;
}

SearchResult HgnasSearch::run_multistage(Rng& rng) {
  SearchResult out;
  SearchProgress prog;
  core::Stepper run = co_run_multistage(rng, &out, &prog);
  while (run.step()) {
  }
  return out;
}

core::Stepper HgnasSearch::co_run_onestage(Rng& rng, SearchResult* out,
                                           SearchProgress* prog) {
  reset_run_state();

  // Same training budget as the multi-stage pipeline, then one joint EA
  // over the full fine-grained space.
  if (cfg_.train_supernet) {
    prog->phase = SearchProgress::Phase::kWarmup;
    core::Stepper warmup = co_train_supernet(
        cfg_.stage1_epochs + cfg_.stage2_epochs,
        [this](Rng& r) { return random_arch(cfg_.space, r); }, rng, prog);
    while (warmup.step()) co_await std::suspend_always{};
  }
  prog->phase = SearchProgress::Phase::kStage2;
  core::Stepper ea = co_evolve(FunctionSet{}, FunctionSet{},
                               /*full_space=*/true, rng, out, prog);
  while (ea.step()) co_await std::suspend_always{};
  prog->phase = SearchProgress::Phase::kDone;
}

SearchResult HgnasSearch::run_onestage(Rng& rng) {
  SearchResult out;
  SearchProgress prog;
  core::Stepper run = co_run_onestage(rng, &out, &prog);
  while (run.step()) {
  }
  return out;
}

core::Stepper HgnasSearch::co_run_random(Rng& rng, SearchResult* out,
                                         SearchProgress* prog) {
  reset_run_state();

  if (cfg_.train_supernet) {
    prog->phase = SearchProgress::Phase::kWarmup;
    core::Stepper warmup = co_train_supernet(
        cfg_.stage1_epochs + cfg_.stage2_epochs,
        [this](Rng& r) { return random_arch(cfg_.space, r); }, rng, prog);
    while (warmup.step()) co_await std::suspend_always{};
  }

  *out = SearchResult{};
  SearchResult& result = *out;
  open_cache();
  const std::int64_t budget =
      cfg_.population + cfg_.iterations * (cfg_.population / 2);
  // One history point per EA-iteration-equivalent chunk of budget, each
  // chunk scored as one batch.
  const std::int64_t chunk =
      std::max<std::int64_t>(1, cfg_.population / 2);
  const std::uint64_t acc_seed = rng.next();

  bool have_best = false;
  bool best_feasible = false;
  // Same ordering as the EA: feasibility first, then fitness, then latency.
  // The tiebreak and the report use the measured latency even for OOM
  // candidates, so an all-infeasible run still names its fastest find.
  auto consider = [&](const Scored& s) {
    const bool better =
        !have_best ||
        (s.is_feasible != best_feasible
             ? s.is_feasible
             : (s.fitness != result.best_objective
                    ? s.fitness > result.best_objective
                    : s.raw_latency_ms < result.best_latency_ms));
    if (better) {
      have_best = true;
      best_feasible = s.is_feasible;
      result.best_arch = s.arch;
      result.best_objective = s.fitness;
      result.best_supernet_acc = s.acc;
      result.best_latency_ms = s.raw_latency_ms;
    }
  };

  prog->phase = SearchProgress::Phase::kSampling;
  std::int64_t done = 0;
  while (done < budget) {
    const std::int64_t n = std::min<std::int64_t>(chunk, budget - done);
    std::vector<PendingEval> batch;
    batch.reserve(static_cast<std::size_t>(n));
    for (std::int64_t i = 0; i < n; ++i) {
      const Arch arch = random_arch(cfg_.space, rng);
      const Arch canon = canonicalize(arch);
      batch.push_back(PendingEval{arch, arch_to_text(canon), canon.hash()});
    }
    std::vector<Scored> scored;
    core::Stepper scoring = co_score_batch(batch, acc_seed, &scored);
    while (scoring.step()) co_await std::suspend_always{};
    for (const Scored& s : scored) consider(s);
    done += n;
    if (done % chunk == 0)
      result.history.push_back({sim_time_s_, result.best_objective});
    prog->sim_time_s = sim_time_s_;
    prog->best_objective = result.best_objective;
    prog->has_best = have_best;
    co_await std::suspend_always{};
  }
  result.history.push_back({sim_time_s_, result.best_objective});
  finalize_result(result);
  prog->phase = SearchProgress::Phase::kDone;
  prog->sim_time_s = sim_time_s_;
  prog->best_objective = result.best_objective;
  prog->has_best = have_best;
}

SearchResult HgnasSearch::run_random(Rng& rng) {
  SearchResult out;
  SearchProgress prog;
  core::Stepper run = co_run_random(rng, &out, &prog);
  while (run.step()) {
  }
  return out;
}

core::Stepper HgnasSearch::run_stepwise(SearchStrategy strategy, Rng& rng,
                                        SearchResult* out,
                                        SearchProgress* prog) {
  switch (strategy) {
    case SearchStrategy::kOnestage:
      return co_run_onestage(rng, out, prog);
    case SearchStrategy::kRandom:
      return co_run_random(rng, out, prog);
    case SearchStrategy::kMultistage:
      break;
  }
  return co_run_multistage(rng, out, prog);
}

std::string SearchProgress::to_text() const {
  const char* name = "idle";
  switch (phase) {
    case Phase::kIdle: name = "idle"; break;
    case Phase::kWarmup: name = "warmup"; break;
    case Phase::kStage1: name = "stage1"; break;
    case Phase::kPretrain: name = "pretrain"; break;
    case Phase::kStage2: name = "stage2"; break;
    case Phase::kSampling: name = "sampling"; break;
    case Phase::kDone: name = "done"; break;
  }
  char buf[128];
  std::snprintf(buf, sizeof buf, "phase=%s steps=%lld sim_time_s=%.3f", name,
                static_cast<long long>(steps), sim_time_s);
  std::string text = buf;
  if (has_best) {
    std::snprintf(buf, sizeof buf, " best_objective=%.6f", best_objective);
    text += buf;
  }
  return text;
}

}  // namespace hg::hgnas
