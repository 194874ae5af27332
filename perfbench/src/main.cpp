// perfbench — the repository's end-to-end benchmark.
//
//   perfbench --workload <oracle_open|search_mixed>
//             --seed <n> --seconds <s> --trace <0|1>
//             [--git-rev <rev>] [--trace-out <path>]
//
// Each workload drives an in-process loopback net::Server from the
// open-loop generator in openloop.hpp and prints its end-to-end metrics;
// --trace 1 prints the per-layer metrics instead (layers.hpp timings,
// kStats deltas, and a layer table from a Chrome trace that joins the
// generator's spans with the server's). The last stdout line is one JSON
// object: {"correct": .., "attempted": .., "failed": .., "metrics": {..}}.
// A failed correctness check prints it with "correct": false and exits 1;
// a set-up failure prints no result and exits 2. See README.md.
#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <numeric>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "api/eval_context.hpp"
#include "core/parallel.hpp"
#include "host.hpp"
#include "layers.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "obs/trace.hpp"
#include "openloop.hpp"
#include "stats.hpp"

namespace {

using namespace hg;
using pb::Clock;

// ---- workloads -------------------------------------------------------------

struct Workload {
  const char* name;
  const char* evaluator;
  std::int64_t slice_ms;
  /// Probe rate of the "low" metrics on oracle_open, and of the
  /// probes sent during the searches on search_mixed.
  double low_rate;
  /// Probe rate of the "high" metrics.
  double high_rate;
  /// Fixed arrival-rate ladder (1/s), ascending.
  std::vector<double> ladder;
  /// p99 limit a rung must meet to count towards max_rps.
  double p99_limit_ms;
  /// The probes sent while the searches run are the "low" metrics
  /// (search_mixed); otherwise the low rate has segments of its own.
  bool search_focus;
  /// Every this many rounds, one round also runs a search (round 0 first).
  int search_every;
};

const std::vector<Workload>& workloads() {
  // Capacity measured on the seed (4 CPUs): ~13k/s for predictor
  // predicts and ~120k/s for oracle predicts while the host is quiet, and
  // half or less while other tenants load it. "high" is ~30% of the quiet
  // capacity on the predictor server and ~20% on the oracle one: nearer
  // the knee its p50 swings with the host's load rather than with the code
  // (at 50000/s the middle half of ten oracle runs spread over a third of
  // their median, at 25000/s up to a fifth). The ladders start at or
  // below it, so that a climb on a loaded host still passes its first
  // rungs, and step by ~5% around the knee.
  static const std::vector<Workload> kWorkloads = {
      {"oracle_open", "oracle", 0, 5000.0, 20000.0,
       {20000, 40000, 60000, 75000, 85000, 90000, 95000, 100000, 105000,
        110000, 115000, 120000, 125000, 130000, 140000, 150000, 170000},
       5.0, false, 4},
      {"search_mixed", "predictor", 5, 1000.0, 4000.0,
       {3000, 5500, 7000, 9000, 9500, 10000, 10500, 11000, 11500, 12000,
        12500, 13000, 13500, 14000, 15000, 16000, 18000},
       10.0, true, 2},
  };
  return kWorkloads;
}

/// The served configuration: the paper workload (1024 points, k = 20, 12
/// positions) on jetson-tx2, with the kernel pool pinned at 2 threads. A
/// 1-thread pool takes the serial path, which is slower and picks another
/// search winner, so a later change to it must not show up here as a gain.
api::EngineConfig served_config(const Workload& w) {
  api::EngineConfig cfg;
  cfg.device = "jetson-tx2";
  cfg.evaluator = w.evaluator;
  cfg.predictor_samples = 200;
  cfg.predictor_epochs = 20;
  cfg.num_threads = 2;
  return cfg;
}

constexpr int kGeneratorConnections = 4;
constexpr std::size_t kProbeArchs = 64;
/// Rounds per run: every round measures a low and a high segment, every
/// even one also climbs the ladder, and some also run a search (9 low, 9
/// high, 5 climbs, and 3 or 5 searches).
constexpr int kRounds = 9;
/// Share of --seconds that each high-rate segment and each ladder rung
/// lasts.
constexpr double kHighShare = 0.05;
constexpr double kRungShare = 0.02;
/// Fewest samples per latency segment: enough for 10 beyond its p99.
constexpr double kSegmentSamples = 1100.0;
/// Predict probes per second while a search runs, on every workload: the
/// run-to-completion servers make them wait out the whole search, the
/// sliced one (search_mixed) a slice or a step.
constexpr double kSearchProbeRate = 1000.0;

// ---- arguments -------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string git_rev = "unknown";
  std::string trace_out;
};

std::optional<Args> parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    if (key == "--workload") a.workload = val;
    else if (key == "--seed") a.seed = std::strtoull(val.c_str(), nullptr, 10);
    else if (key == "--seconds") a.seconds = std::strtod(val.c_str(), nullptr);
    else if (key == "--trace") a.trace = val == "1";
    else if (key == "--git-rev") a.git_rev = val;
    else if (key == "--trace-out") a.trace_out = val;
    else return std::nullopt;
  }
  if (argc % 2 == 0 || a.workload.empty() || a.seconds <= 0.0)
    return std::nullopt;
  return a;
}

// ---- reporting -------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Correctness verdict: every failed check is listed, and any makes the
/// run exit 1.
struct Verdict {
  std::vector<std::string> failures;
  void check(bool ok, const std::string& what) {
    if (!ok) failures.push_back(what);
  }
  bool ok() const { return failures.empty(); }
};

double ms(double us) { return us / 1e3; }

double seconds_since(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

/// `num / den`, or 0 when nothing was counted.
double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Latency over several segments of one rate: the median of the segments'
/// p50s and p99s, so one stall of the host moves one segment, not the
/// metric. `min_beyond` is the fewest samples any segment had beyond its
/// p99.
struct Segmented {
  double p50_us = 0.0;
  double p99_us = 0.0;
  std::int64_t n = 0;
  std::int64_t min_beyond = 0;
  int segments = 0;
};

Segmented segmented(const std::vector<std::vector<double>>& segs) {
  Segmented out;
  std::vector<double> p50, p99;
  for (const std::vector<double>& seg : segs) {
    const pb::Summary s = pb::summarize(seg);
    p50.push_back(s.p50);
    p99.push_back(s.p99);
    out.n += s.n;
    out.min_beyond = out.segments == 0 ? s.beyond_p99
                                       : std::min(out.min_beyond, s.beyond_p99);
    ++out.segments;
  }
  out.p50_us = pb::median(p50);
  out.p99_us = pb::median(p99);
  return out;
}

/// Latency over the probes of all segments taken together. For the probes
/// during the searches: a run's searches are a fixed sequence of different
/// searches, so a median over them picks whichever sits in the middle
/// rank, and that changes hands from run to run.
Segmented pooled(const std::vector<std::vector<double>>& segs) {
  std::vector<double> all;
  for (const std::vector<double>& seg : segs)
    all.insert(all.end(), seg.begin(), seg.end());
  const pb::Summary s = pb::summarize(all);
  return {s.p50, s.p99, s.n, s.beyond_p99, static_cast<int>(segs.size())};
}

double mean(const std::vector<double>& v) {
  return v.empty() ? 0.0
                   : std::accumulate(v.begin(), v.end(), 0.0) /
                         static_cast<double>(v.size());
}

void print_summary(const char* label, double rate, const pb::LoadResult& r) {
  const pb::Summary s = pb::summarize(r.latency_us);
  const pb::Summary lag = pb::summarize(r.lag_us);
  std::printf(
      "  %-22s rate %7.0f/s  n %6lld  p50 %8.3f  p99 %8.3f  p99.9 %8.3f  "
      "max %8.3f ms  (beyond p99: %lld, lag p99 %.3f ms, backlog %lld, "
      "failed %lld)\n",
      label, rate, static_cast<long long>(s.n), ms(s.p50), ms(s.p99),
      ms(s.p999), ms(s.max), static_cast<long long>(s.beyond_p99), ms(lag.p99),
      static_cast<long long>(r.backlog_at_end),
      static_cast<long long>(r.failed));
}

/// Searches must match bit for bit: winner genome, objective, frontier.
bool same_search(const api::SearchReport& a, const api::SearchReport& b) {
  auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  const api::SearchResult& x = a.result;
  const api::SearchResult& y = b.result;
  if (!(x.best_arch == y.best_arch) ||
      bits(x.best_objective) != bits(y.best_objective) ||
      x.frontier.size() != y.frontier.size())
    return false;
  for (std::size_t i = 0; i < x.frontier.size(); ++i)
    if (!(x.frontier[i].arch == y.frontier[i].arch) ||
        bits(x.frontier[i].accuracy) != bits(y.frontier[i].accuracy) ||
        bits(x.frontier[i].latency_ms) != bits(y.frontier[i].latency_ms))
      return false;
  return true;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

void print_result(bool correct, std::int64_t attempted, std::int64_t failed,
                  const std::vector<Metric>& metrics) {
  std::string out = std::string("{\"correct\": ") +
                    (correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) +
                    ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metrics[i].value);
    out += std::string(i > 0 ? ", " : "") + "\"" + metrics[i].name +
           "\": {\"value\": " + value + ", \"unit\": \"" + metrics[i].unit +
           "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

// ---- the server under test --------------------------------------------------

/// One remote phase and the server's kStats scrapes around it.
struct Phase {
  pb::LoadResult load;
  obs::Snapshot before, after;
  /// Counter delta over the phase (0 when absent).
  std::int64_t d(const std::string& name) const {
    auto get = [&](const obs::Snapshot& s) {
      const auto it = s.find(name);
      return it == s.end() ? std::int64_t{0} : it->second;
    };
    return get(after) - get(before);
  }
};

/// The live server, its control connection, the generator, and the run's
/// books: every request sent is counted here.
struct Session {
  std::shared_ptr<net::Server> server;
  std::optional<net::Client> control;
  std::optional<pb::RemoteLoad> gen;
  pb::ProbeSet probes;
  Verdict verdict;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<double> lag_us;

  void book(const pb::LoadResult& r) {
    attempted += r.sent + static_cast<std::int64_t>(r.search_reports.size());
    failed += r.failed;
    for (const auto& rep : r.search_reports) failed += rep.ok() ? 0 : 1;
    lag_us.insert(lag_us.end(), r.lag_us.begin(), r.lag_us.end());
  }

  /// Run one phase between two kStats scrapes and book it, with the count
  /// checks: every request sent is answered ok or failed, and the server
  /// saw and answered exactly the frames sent (plus one scrape each way:
  /// the closing scrape's own frame, the opening scrape's reply).
  Phase run(const pb::LoadSpec& spec, const char* label) {
    Phase p;
    api::Result<obs::Snapshot> before = control->stats();
    p.load = gen->run(spec, probes);
    api::Result<obs::Snapshot> after = control->stats();
    book(p.load);
    const std::string what = std::string(label) + ": ";
    verdict.check(before.ok() && after.ok(), what + "kStats scrape failed");
    if (!p.load.first_error.empty())
      std::printf("  %s: first failure: %s\n", label,
                  p.load.first_error.c_str());
    if (!before.ok() || !after.ok()) return p;
    p.before = std::move(before).value();
    p.after = std::move(after).value();
    const std::int64_t sent =
        p.load.sent + static_cast<std::int64_t>(p.load.search_reports.size());
    verdict.check(p.load.sent == p.load.ok + p.load.failed,
                  what + "sent != ok + failed");
    verdict.check(p.d("net.frames_received") == sent + 1,
                  what + "kStats net.frames_received delta != requests sent");
    verdict.check(p.d("net.replies_sent") == sent + 1,
                  what + "kStats net.replies_sent delta != requests sent");
    return p;
  }
};

/// One run of a ladder rung. It meets the limit when the median p99 of
/// its three time windows is within it (a growing backlog fails the later
/// windows), at most a limit's worth of arrivals is left outstanding when
/// sending stops, and nothing failed.
bool run_rung(Session& s, const Workload& w, double rate, double rung_s,
              pb::LoadResult* r) {
  pb::LoadSpec spec;
  spec.rate_per_s = rate;
  spec.duration_s = rung_s;
  const auto pass_backlog = static_cast<std::int64_t>(
      std::max(8.0, rate * w.p99_limit_ms / 1e3));
  // Past four limits' worth the rung has failed: stop feeding the queue.
  spec.max_backlog = 4 * pass_backlog;
  *r = s.run(spec, "ladder").load;
  std::vector<std::vector<double>> windows(3);
  for (std::size_t i = 0; i < r->latency_us.size(); ++i)
    windows[std::min<std::size_t>(
                2, static_cast<std::size_t>(3.0 * r->intended_s[i] / rung_s))]
        .push_back(r->latency_us[i]);
  const bool pass = r->failed == 0 && !r->backlog_exceeded &&
                    r->backlog_at_end <= pass_backlog &&
                    ms(segmented(windows).p99_us) <= w.p99_limit_ms;
  print_summary(pass ? "rung (meets limit)" : "rung (misses limit)", rate,
                *r);
  return pass;
}

/// One climb of the ladder: ascending rungs until the first that misses
/// the limit twice in a row. A host stall of ten-odd ms misses one run of a
/// rung, at any rate; overload misses both. Returns the highest passing
/// rung and what it answered per second (0 when none passed).
struct Climb {
  double rung = 0.0;
  double rps = 0.0;
  bool topped = false;  // passed the ladder's top rung
};

Climb climb(Session& s, const Workload& w, double rung_s) {
  Climb c;
  std::size_t passed = 0;
  for (const double rate : w.ladder) {
    pb::LoadResult r;
    if (!run_rung(s, w, rate, rung_s, &r) && !run_rung(s, w, rate, rung_s, &r))
      break;
    const double span_s = r.intended_s.empty()
                              ? 1.0
                              : r.intended_s.back() + r.latency_us.back() / 1e6;
    c.rung = rate;
    c.rps = ratio(static_cast<double>(r.ok), span_s);
    ++passed;
  }
  c.topped = passed == w.ladder.size();
  return c;
}

/// Direct Engine calls for the layer rows: the predictor and the oracle on
/// one context (a predictor is fitted there if it has none).
struct DirectTimings {
  double predictor_b1_us = 0.0;
  double predictor_bn_us = 0.0;
  double oracle_us = 0.0;
  double profile_us = 0.0;
};

std::optional<DirectTimings> time_direct_calls(
    const api::EngineConfig& cfg, const std::shared_ptr<api::EvalContext>& ctx,
    const pb::ProbeSet& probes, std::size_t batch_n) {
  api::EngineConfig pcfg = cfg;
  pcfg.evaluator = "predictor";
  api::EngineConfig ocfg = cfg;
  ocfg.evaluator = "oracle";
  api::Result<api::Engine> pred = api::Engine::create(pcfg, ctx);
  api::Result<api::Engine> orac = api::Engine::create(ocfg, ctx);
  if (!pred.ok() || !orac.ok()) return std::nullopt;
  std::size_t i = 0;
  auto next_arch = [&]() -> const api::Arch& {
    return probes.archs[i++ % probes.archs.size()];
  };
  const std::vector<api::Arch> batch(
      probes.archs.begin(),
      probes.archs.begin() + static_cast<std::ptrdiff_t>(batch_n));
  DirectTimings t;
  t.predictor_b1_us = pb::us_per_call(
      [&] { (void)pred.value().predict_latency(next_arch()); }, 8, 31);
  t.predictor_bn_us =
      pb::us_per_call([&] { (void)pred.value().predict_batch(batch); }, 4,
                      31) /
      static_cast<double>(batch_n);
  t.oracle_us = pb::us_per_call(
      [&] { (void)orac.value().predict_latency(next_arch()); }, 64, 31);
  t.profile_us = pb::us_per_call(
      [&] { (void)orac.value().profile(next_arch()); }, 16, 31);
  return t;
}

int run(const Args& args, const Workload& w) {
  const api::EngineConfig cfg = served_config(w);
  const double S = args.seconds;
  pb::HostContext host = pb::probe_host();
  host.git_rev = args.git_rev;
  Session s;

  // ---- inputs: a benchmark-owned generator context seeded by --seed. The
  // server's context RNG is never drawn from here (sampling on it would
  // change the search the service then runs).
  api::EngineConfig gen_cfg = cfg;
  gen_cfg.evaluator = "oracle";
  gen_cfg.seed = args.seed;
  api::Result<api::Engine> gen = api::Engine::create(gen_cfg);
  if (!gen.ok()) {
    std::fprintf(stderr, "generator: %s\n", gen.status().to_string().c_str());
    return 2;
  }
  for (std::size_t i = 0; i < kProbeArchs; ++i)
    s.probes.archs.push_back(gen.value().sample_arch());
  // The searches are not drawn from the seed: their cost depends on the
  // search config (search_s ranged 1.9-3.7 s over ten seeds when the
  // latency weight came from the seed), so search_s would measure the seed
  // rather than the code. The server's context is built from the same
  // config in every run, so its k-th search is the same work in every run.
  const api::EngineConfig& search_cfg = cfg;

  // ---- set-up: context + server + first answered ping, timed. Three to
  // begin with: the last server stays up, and the first two contexts stay
  // untouched, as the reference contexts of the checks below.
  net::ServerConfig scfg;
  scfg.service.num_workers = 2;
  scfg.service.max_predict_batch = 16;
  scfg.service.exclusive_slice_ms = w.slice_ms;
  // Unbounded: an over-capacity rung shows as latency, not as refusals.
  scfg.service.max_queue_depth = 0;
  std::vector<double> setup_s, context_s;
  struct Started {
    std::shared_ptr<api::EvalContext> ctx;
    std::shared_ptr<net::Server> server;
    std::optional<net::Client> control;
  };
  auto set_up = [&]() -> std::optional<Started> {
    const Clock::time_point t0 = Clock::now();
    api::Result<std::shared_ptr<api::EvalContext>> ctx =
        api::EvalContext::create(cfg);
    if (!ctx.ok()) {
      std::fprintf(stderr, "context: %s\n", ctx.status().to_string().c_str());
      return std::nullopt;
    }
    context_s.push_back(seconds_since(t0));
    api::Result<std::shared_ptr<net::Server>> server =
        net::Server::create(cfg, ctx.value(), scfg);
    if (!server.ok()) {
      std::fprintf(stderr, "server: %s\n", server.status().to_string().c_str());
      return std::nullopt;
    }
    api::Result<net::Client> client =
        net::Client::connect("127.0.0.1", server.value()->port());
    if (!client.ok() || !client.value().ping().ok()) {
      std::fprintf(stderr, "control connection failed\n");
      return std::nullopt;
    }
    setup_s.push_back(seconds_since(t0));
    return Started{std::move(ctx).value(), std::move(server).value(),
                   std::move(client).value()};
  };
  std::vector<std::shared_ptr<api::EvalContext>> spare;
  for (int k = 0; k < 3; ++k) {
    std::optional<Started> started = set_up();
    if (!started) return 2;
    if (k < 2) {
      spare.push_back(started->ctx);
      continue;
    }
    s.server = started->server;
    s.control.emplace(std::move(*started->control));
  }
  // An oracle set-up takes a few ms, so its time follows the host's
  // moment-to-moment speed: it is also timed four more times in every
  // round below (and torn down at once), so its median samples the whole
  // run like the other metrics.
  const int round_setups = std::string(w.evaluator) == "oracle" ? 4 : 0;
  host.pool_threads = core::num_threads();
  std::printf("perfbench %s  seed %llu  seconds %.0f  trace %d\n", w.name,
              static_cast<unsigned long long>(args.seed), S, args.trace ? 1 : 0);
  std::printf("host: %s\n", host.to_json().c_str());
  s.verdict.check(host.pool_threads == cfg.num_threads,
                  "kernel pool width differs from num_threads");

  // Expected answers: direct Engine calls on the live server's context
  // (predictions read only fitted state).
  api::Result<api::Engine> direct =
      api::Engine::create(cfg, s.server->service()->context());
  if (!direct.ok()) return 2;
  for (const api::Arch& a : s.probes.archs) {
    api::Result<api::LatencyReport> r = direct.value().predict_latency(a);
    if (!r.ok()) return 2;
    s.probes.expected.push_back(r.value());
  }
  api::Result<pb::RemoteLoad> connected =
      pb::RemoteLoad::connect(s.server->port(), kGeneratorConnections);
  if (!connected.ok()) {
    std::fprintf(stderr, "generator: %s\n",
                 connected.status().to_string().c_str());
    return 2;
  }
  s.gen.emplace(std::move(connected).value());

  // ---- untimed warm-up: the first measured segment must not pay for idle
  // threads and cold caches.
  {
    pb::LoadSpec warm;
    warm.rate_per_s = w.low_rate;
    warm.duration_s = 0.3;
    s.run(warm, "warm-up");
  }

  // ---- kRounds rounds, interleaved so that every metric samples the whole
  // run: segments at the low rate, at the high rate, climbs of the
  // fixed-rate ladder, and searches with predict probes. A metric is the
  // median over segments, climbs or searches, so a stall or a slow spell of
  // the host moves one sample, not the run.
  std::vector<std::vector<double>> low_segs, high_segs, search_segs;
  std::vector<double> low_lag_us, search_lag_us, search_s;
  Phase first_low, first_search;
  std::vector<api::Result<api::SearchReport>> reports;
  std::int64_t high_requests = 0, high_batches = 0;
  std::int64_t slices = 0, preemptions = 0;
  std::int64_t measured = 0, measured_ok = 0;
  std::vector<Climb> climbs;
  // One search, with probes for as long as it runs. The probes that fell
  // due while it ran are one segment; on search_mixed they are also the
  // low rate's.
  auto run_search = [&](int k) {
    pb::LoadSpec spec;
    spec.rate_per_s = kSearchProbeRate;
    spec.searches = {search_cfg};
    Phase p = s.run(spec, "search");
    const pb::LoadResult& sl = p.load;
    measured += sl.sent;
    measured_ok += sl.ok;
    slices += p.d("serve.exclusive_slices");
    preemptions += p.d("serve.exclusive_preemptions");
    search_lag_us.insert(search_lag_us.end(), sl.lag_us.begin(),
                         sl.lag_us.end());
    search_segs.emplace_back();
    for (std::size_t j = 0; j < sl.search_done_s.size(); ++j) {
      search_s.push_back(sl.search_done_s[j] - sl.search_sent_s[j]);
      for (std::size_t i = 0; i < sl.intended_s.size(); ++i)
        if (sl.intended_s[i] >= sl.search_sent_s[j] &&
            sl.intended_s[i] < sl.search_done_s[j])
          search_segs.back().push_back(sl.latency_us[i]);
    }
    print_summary("probes during search", kSearchProbeRate, sl);
    for (auto& rep : p.load.search_reports) reports.push_back(std::move(rep));
    if (k == 0) first_search = std::move(p);
  };
  for (int k = 0; k < kRounds; ++k) {
    for (int i = 0; i < round_setups; ++i)
      if (!set_up()) return 2;
    // The kStats queue histograms are read after the first search
    // (search_mixed) or the first low segment (oracle_open): the search
    // goes first in its round on search_mixed, last on oracle_open, where
    // the probes queue behind the whole search.
    const bool search_round = k % w.search_every == 0;
    if (search_round && w.search_focus) run_search(k);
    for (const bool high : {false, true}) {
      if (!high && w.search_focus) continue;
      const double rate = high ? w.high_rate : w.low_rate;
      pb::LoadSpec spec;
      spec.rate_per_s = rate;
      spec.duration_s =
          std::max(kSegmentSamples / rate, high ? kHighShare * S : 0.0);
      Phase p = s.run(spec, high ? "high" : "low");
      measured += p.load.sent;
      measured_ok += p.load.ok;
      (high ? high_segs : low_segs).push_back(p.load.latency_us);
      if (!high)
        low_lag_us.insert(low_lag_us.end(), p.load.lag_us.begin(),
                          p.load.lag_us.end());
      if (high) {
        high_requests += p.d("serve.predict_requests");
        high_batches += p.d("serve.predict_batches");
      } else if (k == 0) {
        first_low = std::move(p);
      }
    }
    if (k % 2 == 0) climbs.push_back(climb(s, w, kRungShare * S));
    if (search_round && !w.search_focus) run_search(k);
  }
  std::vector<double> climb_rps, climb_rung;
  for (const Climb& c : climbs) {
    climb_rps.push_back(c.rps);
    climb_rung.push_back(c.rung);
    if (c.topped)
      std::printf("  WARNING: a climb passed the ladder's top rung\n");
  }
  const double max_rps = pb::median(climb_rps);
  if (max_rps == 0.0)
    std::printf("  WARNING: most climbs missed the ladder's first rung\n");

  for (const auto& rep : reports)
    s.verdict.check(rep.ok(), "remote search failed: " +
                                  (rep.ok() ? std::string()
                                            : rep.status().to_string()));
  std::printf("setup_s: median %.4f over %zu (context %.4f)\n",
              pb::median(setup_s), setup_s.size(), pb::median(context_s));
  std::printf("search: %zu searches, mean %.3f s, slices %lld, "
              "preemptions %lld\n",
              search_s.size(), mean(search_s),
              static_cast<long long>(slices),
              static_cast<long long>(preemptions));
  if (w.search_focus) low_lag_us = search_lag_us;

  // Peak memory of the workload itself: the reference searches below run
  // on the benchmark's own thread and would add their working set to it.
  const double rss_mb = peak_rss_mb();

  // ---- reference: the same searches, untimed, in-process and in the same
  // order on a fresh context (the first set-up's, never used since). A
  // search draws from its context's RNG, so search i is only reproduced
  // after the i searches before it.
  {
    api::Result<api::Engine> ref = api::Engine::create(search_cfg, spare[0]);
    for (std::size_t i = 0; i < reports.size(); ++i) {
      api::Result<api::SearchReport> expect =
          ref.ok() ? ref.value().search()
                   : api::Result<api::SearchReport>(ref.status());
      s.verdict.check(reports[i].ok() && expect.ok() &&
                          same_search(expect.value(), reports[i].value()),
                      "remote search " + std::to_string(i) +
                          " differs from the in-process Engine::search");
    }
  }

  // ---- end-to-end metrics.
  const Segmented search_lat = pooled(search_segs);
  const Segmented low_lat =
      w.search_focus ? search_lat : segmented(low_segs);
  const Segmented high_lat = segmented(high_segs);
  for (const auto& [label, seg] : {std::pair{"low", low_lat},
                                   {"high", high_lat},
                                   {"search", search_lat}})
    s.verdict.check(seg.min_beyond >= 10,
                    std::string("a p99_ms.") + label +
                        " segment has fewer than 10 samples beyond its p99");
  // Validity, not correctness: a generator that ran late at the low rate
  // measured itself rather than the server.
  const double gen_lag_p99 = pb::summarize(s.lag_us).p99;
  if (pb::summarize(low_lag_us).p99 >= 0.5 * low_lat.p50_us)
    std::printf("  WARNING: generator lag p99 at the low rate is %.3f ms, "
                "half of p50_ms.low or more: this run is not valid\n",
                ms(pb::summarize(low_lag_us).p99));
  std::vector<Metric> e2e = {
      {"setup_s", pb::median(setup_s), "s"},
      {"p50_ms.low", ms(low_lat.p50_us), "ms"},
      {"p50_ms.high", ms(high_lat.p50_us), "ms"},
      {"p99_ms.search", ms(search_lat.p99_us), "ms"},
      {"max_rps", max_rps, "1/s"},
      {"search_s", mean(search_s), "s"},
      {"success_rate",
       ratio(static_cast<double>(measured_ok), static_cast<double>(measured)),
       "ratio"},
  };
  // The p99s at the low and high rates are printed, not gated: on a shared
  // host they are set by host stalls (a few ms, about once a second) far
  // more than by the code, and move several-fold from run to run. The p99
  // of the probes during a search is set by the search's steps instead.
  std::printf("end-to-end: low n %lld in %d segments (p99 %.4f ms, not "
              "gated), high n %lld in %d segments (p99 %.4f ms, not gated), "
              "search probes n %lld in %d searches, max_rps rung %.0f/s "
              "(median of %zu climbs)\n",
              static_cast<long long>(low_lat.n), low_lat.segments,
              ms(low_lat.p99_us), static_cast<long long>(high_lat.n),
              high_lat.segments, ms(high_lat.p99_us),
              static_cast<long long>(search_lat.n), search_lat.segments,
              pb::median(climb_rung), climbs.size());

  std::vector<Metric> per_layer;
  if (args.trace) {
    // ---- traced run: four more phases at the low rate — remote untraced,
    // in-process, ping, remote traced — then direct calls and a stepwise
    // search.
    pb::LoadSpec spec;
    spec.rate_per_s = w.low_rate;
    spec.duration_s = 0.2 * S;
    const Phase untraced = s.run(spec, "untraced");
    const pb::LoadResult inproc =
        pb::run_inproc(*s.server->service(), spec, s.probes);
    s.verdict.check(inproc.failed == 0 && inproc.sent == inproc.ok,
                    "in-process probes failed: " + inproc.first_error);
    pb::LoadSpec ping_spec = spec;
    ping_spec.probe = net::FrameType::kPing;
    const Phase ping = s.run(ping_spec, "ping");
    pb::LoadSpec traced_spec = spec;
    traced_spec.traced = true;
    obs::TraceCollector::global().start(std::size_t{1} << 20);
    const Phase traced = s.run(traced_spec, "traced");
    if (!args.trace_out.empty())
      s.verdict.check(obs::TraceCollector::global().write_json(args.trace_out),
                      "could not write " + args.trace_out);
    const pb::TraceBreakdown layers =
        pb::break_down_trace(obs::TraceCollector::global().events());
    obs::TraceCollector::global().stop();
    print_summary("remote (untraced)", w.low_rate, untraced.load);
    print_summary("in-process", w.low_rate, inproc);
    print_summary("ping", w.low_rate, ping.load);
    print_summary("remote (traced)", w.low_rate, traced.load);

    const double batch_mean =
        high_batches > 0 ? static_cast<double>(high_requests) /
                               static_cast<double>(high_batches)
                         : 1.0;
    const std::optional<DirectTimings> dt = time_direct_calls(
        cfg, spare[0], s.probes,
        static_cast<std::size_t>(std::clamp(std::lround(batch_mean), 1L, 16L)));
    const double codec_req = pb::codec_request_us(s.probes);
    const double codec_rep = pb::codec_reply_us(s.probes);
    // Stepwise search on the second reference context, identical config.
    api::Result<api::Engine> stepper =
        api::Engine::create(search_cfg, spare[1]);
    if (!dt || !stepper.ok()) return 2;
    const pb::StepProfile steps = pb::profile_search_steps(stepper.value());
    s.verdict.check(steps.report.ok() && !reports.empty() &&
                        reports.front().ok() &&
                        same_search(steps.report.value(),
                                    reports.front().value()),
                    "stepwise search differs from the remote search");

    const double untraced_p50 = pb::summarize(untraced.load.latency_us).p50;
    const double traced_p50 = pb::summarize(traced.load.latency_us).p50;
    const double inproc_p50 = pb::summarize(inproc.latency_us).p50;
    const double ping_p50 = pb::summarize(ping.load.latency_us).p50;
    const bool oracle = std::string(w.evaluator) == "oracle";
    const double evaluator_us = oracle ? dt->oracle_us : dt->predictor_b1_us;
    const double overhead_pct =
        100.0 * ratio(traced_p50 - untraced_p50, untraced_p50);
    double rows = 0.0;
    for (const auto& [name, us] : layers.rows_p50_us) rows += us;
    const double sum_ratio = ratio(rows, layers.total_p50_us);
    std::printf("\nlayer table at %.0f/s, from the traced phase's spans "
                "(%lld requests, %lld without every span):\n",
                w.low_rate, static_cast<long long>(layers.requests),
                static_cast<long long>(layers.skipped));
    for (const auto& [name, us] : layers.rows_p50_us)
      std::printf("  %-28s p50 %9.1f us  %5.1f%%\n", name.c_str(), us,
                  100.0 * ratio(us, layers.total_p50_us));
    std::printf("  %-28s     %9.1f us\n", "sum of the rows", rows);
    std::printf("  %-28s p50 %9.1f us  (sum / end-to-end = %.3f)\n",
                "bench.request (end to end)", layers.total_p50_us, sum_ratio);
    std::printf("  traced p50 %.1f us, untraced p50 %.1f us: tracing "
                "overhead %+.1f%%\n",
                traced_p50, untraced_p50, overhead_pct);
    if (!args.trace_out.empty())
      std::printf("  Chrome trace: %s\n", args.trace_out.c_str());

    const api::SearchResult* sr =
        !reports.empty() && reports.front().ok()
            ? &reports.front().value().result
            : nullptr;
    const obs::Snapshot& focus =
        w.search_focus ? first_search.after : first_low.after;
    auto snap = [&](const char* name) {
      const auto it = focus.find(name);
      return it == focus.end() ? 0.0 : static_cast<double>(it->second);
    };
    per_layer = {
        {"bench.gen_lag_p99_ms", ms(gen_lag_p99), "ms"},
        {"bench.sent", static_cast<double>(s.attempted), "count"},
        {"bench.ok", static_cast<double>(s.attempted - s.failed), "count"},
        {"bench.failed", static_cast<double>(s.failed), "count"},
        {"bench.trace_overhead_pct", overhead_pct, "%"},
        {"bench.layer_sum_ratio", sum_ratio, "ratio"},
        {"net.codec_us.request", codec_req, "us"},
        {"net.codec_us.reply", codec_rep, "us"},
        {"net.ping_rtt_us.p50", ping_p50, "us"},
        {"net.overhead_us.p50", untraced_p50 - inproc_p50, "us"},
        {"serve.inproc_us.p50", inproc_p50 - evaluator_us, "us"},
        {"serve.queue_wait_us.p50", snap("serve.queue_wait_us.p50_us"), "us"},
        {"serve.queue_wait_us.p99", snap("serve.queue_wait_us.p99_us"), "us"},
        {"serve.service_time_us.p50", snap("serve.service_time_us.p50_us"),
         "us"},
        {"serve.service_time_us.p99", snap("serve.service_time_us.p99_us"),
         "us"},
        {"serve.batch_mean", batch_mean, "count"},
        {"serve.exclusive_slices", static_cast<double>(slices), "count"},
        {"serve.exclusive_preemptions", static_cast<double>(preemptions),
         "count"},
        {"predictor.us_per_query.b1", dt->predictor_b1_us, "us"},
        {"predictor.us_per_query.bN", dt->predictor_bn_us, "us"},
        {"hw.oracle_us", dt->oracle_us, "us"},
        {"hw.profile_us", dt->profile_us, "us"},
        {"hgnas.step_max_ms", steps.max_ms, "ms"},
        {"hgnas.latency_queries",
         sr != nullptr ? static_cast<double>(sr->latency_queries) : 0.0,
         "count"},
        {"hgnas.accuracy_probes",
         sr != nullptr ? static_cast<double>(sr->accuracy_probes) : 0.0,
         "count"},
        {"hgnas.cache_hit_ratio",
         sr != nullptr ? ratio(static_cast<double>(sr->eval_cache_hits),
                               static_cast<double>(sr->eval_cache_hits +
                                                   sr->eval_cache_misses))
                       : 0.0,
         "ratio"},
        {"api.context_create_s", pb::median(context_s), "s"},
    };
    for (const auto& [name, us] : layers.rows_p50_us)
      per_layer.push_back({name, us, "us"});
    for (const char* phase : pb::kStepPhases) {
      const auto mean = steps.mean_ms.find(phase);
      const auto count = steps.steps.find(phase);
      per_layer.push_back(
          {std::string("hgnas.step_ms.") + phase,
           mean == steps.mean_ms.end() ? 0.0 : mean->second, "ms"});
      per_layer.push_back(
          {std::string("hgnas.steps.") + phase,
           count == steps.steps.end() ? 0.0 : static_cast<double>(count->second),
           "count"});
    }
    std::printf("\nper-layer:\n");
    for (const Metric& m : per_layer)
      std::printf("  %-32s %14.4f %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
  }

  e2e.push_back({"peak_rss_mb", rss_mb, "MB"});
  std::printf("\nend-to-end:\n");
  for (const Metric& m : e2e)
    std::printf("  %-14s %12.4f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  for (const std::string& f : s.verdict.failures)
    std::printf("CHECK FAILED: %s\n", f.c_str());
  s.gen.reset();
  s.control.reset();
  s.server->stop();
  print_result(s.verdict.ok(), std::max<std::int64_t>(s.attempted, 1),
               s.failed, args.trace ? per_layer : e2e);
  return s.verdict.ok() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const std::optional<Args> args = parse_args(argc, argv);
  if (!args) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--git-rev <rev>] [--trace-out <path>]\n");
    return 2;
  }
  for (const Workload& w : workloads())
    if (args->workload == w.name) return run(*args, w);
  std::fprintf(stderr, "unknown workload '%s'\n", args->workload.c_str());
  return 2;
}
