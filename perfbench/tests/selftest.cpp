// Self-test of the open-loop driver (run with ctest in the benchmark's
// build directory).
//
// With exclusive_slice_ms = 0 a running search blocks every predict probe
// until it ends. A closed-loop prober would record ONE slow sample for the
// whole search; the open-loop driver must keep sending on schedule, record
// every probe that fell due during the search, and charge each the wait it
// really had — from its intended send time to the search's end.
#include <cstdio>
#include <string>

#include "api/engine.hpp"
#include "net/server.hpp"
#include "openloop.hpp"
#include "stats.hpp"

namespace {

int failures = 0;

void expect(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::printf("FAIL: %s\n", what.c_str());
  }
}

void test_summary() {
  std::vector<double> v;
  for (int i = 1; i <= 1000; ++i) v.push_back(i);
  const pb::Summary s = pb::summarize(v);
  expect(s.n == 1000 && s.p50 == 500 && s.p99 == 990 && s.max == 1000,
         "nearest-rank summary of 1..1000");
  expect(s.beyond_p99 == 10, "ten samples beyond p99 of 1..1000");
}

void test_probes_charged_through_a_search() {
  using namespace hg;
  api::EngineConfig cfg = api::EngineConfig::tiny();
  cfg.evaluator = "oracle";
  cfg.num_threads = 2;
  cfg.iterations = 40;  // a search of a few hundred ms
  net::ServerConfig scfg;
  scfg.service.exclusive_slice_ms = 0;
  scfg.service.max_queue_depth = 0;
  api::Result<std::shared_ptr<net::Server>> server =
      net::Server::create(cfg, scfg);
  expect(server.ok(), "server starts");
  if (!server.ok()) return;

  // Probe inputs from a separate generator context, never the server's.
  api::EngineConfig gen_cfg = cfg;
  gen_cfg.seed = 7;
  api::Result<api::Engine> gen = api::Engine::create(gen_cfg);
  api::Result<api::Engine> direct =
      api::Engine::create(cfg, server.value()->service()->context());
  expect(gen.ok() && direct.ok(), "engines start");
  if (!gen.ok() || !direct.ok()) return;
  pb::ProbeSet probes;
  for (int i = 0; i < 16; ++i) {
    probes.archs.push_back(gen.value().sample_arch());
    probes.expected.push_back(
        direct.value().predict_latency(probes.archs.back()).value());
  }

  api::Result<pb::RemoteLoad> load =
      pb::RemoteLoad::connect(server.value()->port(), 4);
  expect(load.ok(), "generator connects");
  if (!load.ok()) return;
  const double rate = 2000.0;
  pb::LoadSpec spec;
  spec.rate_per_s = rate;
  spec.searches = {cfg};
  const pb::LoadResult r = load.value().run(spec, probes);

  expect(r.failed == 0 && r.sent == r.ok, "every probe answered correctly: " +
                                              r.first_error);
  expect(r.search_reports.size() == 1 && r.search_reports[0].ok(),
         "the search succeeds");
  if (r.search_done_s.size() != 1) return;
  const double start = r.search_sent_s[0];
  const double end = r.search_done_s[0];
  const double search_s = end - start;
  expect(search_s > 0.1, "the search lasts long enough to matter");

  std::int64_t due_during = 0;
  std::int64_t undercharged = 0;
  for (std::size_t i = 0; i < r.intended_s.size(); ++i) {
    const double t = r.intended_s[i];
    if (t < start || t > end) continue;
    ++due_during;
    // Answered no earlier than the search's end (5 ms of slack for the
    // order in which the two replies reach the generator).
    const double waited_s = r.latency_us[i] / 1e6;
    if (t > start + 0.02 && waited_s < (end - t) - 0.005) ++undercharged;
  }
  const double want = rate * search_s;
  std::printf("search %.3f s: %lld probes due during it (rate x time = %.0f), "
              "%lld undercharged, lag p99 %.3f ms\n",
              search_s, static_cast<long long>(due_during), want,
              static_cast<long long>(undercharged),
              pb::summarize(r.lag_us).p99 / 1e3);
  expect(static_cast<double>(due_during) > 0.95 * want - 2 &&
             static_cast<double>(due_during) < 1.05 * want + 2,
         "samples during the search ~= rate x search time, not 1");
  expect(undercharged == 0, "every probe is charged its wait");
  server.value()->stop();
}

}  // namespace

int main() {
  test_summary();
  test_probes_charged_through_a_search();
  std::printf("%s\n", failures == 0 ? "selftest: ok" : "selftest: FAILED");
  return failures == 0 ? 0 : 1;
}
