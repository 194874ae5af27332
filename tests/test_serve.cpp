// serve::Service — the long-lived concurrent NAS service loop: scheduling
// classes, FIFO-exclusive ordering, prediction coalescing, shutdown
// semantics, and the headline guarantee that a concurrent run's results
// are bit-identical to a serial one.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "serve/service.hpp"

namespace hg::serve {
namespace {

/// Oracle-evaluator config small enough to search in well under a second.
api::EngineConfig tiny_cfg() {
  api::EngineConfig cfg = api::EngineConfig::tiny();
  cfg.evaluator = "oracle";
  cfg.strategy = "random";
  cfg.iterations = 2;
  return cfg;
}

std::shared_ptr<Service> make_service(const api::EngineConfig& cfg,
                                      std::int64_t workers) {
  ServiceConfig scfg;
  scfg.num_workers = workers;
  api::Result<std::shared_ptr<Service>> service = Service::create(cfg, scfg);
  EXPECT_TRUE(service.ok()) << service.status().to_string();
  return service.ok() ? service.value() : nullptr;
}

/// One named value of the service's stats snapshot.
std::int64_t stat(const Service& service, const std::string& name) {
  return service.metrics_snapshot().at(name);
}

/// Every result of one scripted mixed-workload run, in submission order.
struct RunResults {
  std::vector<api::SearchReport> searches;
  std::vector<api::LatencyReport> predictions;
  std::vector<api::ProfileReport> profiles;
  std::vector<api::ProfileReport> baselines;
  std::vector<api::TrainReport> trained;
};

/// Submit the fixed mixed-request script and wait for everything. The
/// script interleaves every request type so pure and exclusive traffic
/// overlap in flight.
RunResults run_script(Service& service, const std::vector<api::Arch>& archs) {
  std::vector<std::future<api::Result<api::SearchReport>>> searches;
  std::vector<std::future<api::Result<api::LatencyReport>>> predictions;
  std::vector<std::future<api::Result<api::ProfileReport>>> profiles;
  std::vector<std::future<api::Result<api::ProfileReport>>> baselines;
  std::vector<std::future<api::Result<api::TrainReport>>> trained;

  searches.push_back(service.submit(SearchRequest{}));
  for (const api::Arch& a : archs) {
    predictions.push_back(service.submit(PredictLatencyRequest{a}));
    profiles.push_back(service.submit(ProfileRequest{a}));
  }
  baselines.push_back(service.submit(ProfileBaselineRequest{"dgcnn", {}}));
  baselines.push_back(service.submit(ProfileBaselineRequest{"li", {}}));
  trained.push_back(service.submit(TrainBaselineRequest{"tailor"}));
  api::EngineConfig second = service.config();
  second.strategy = "random";
  second.train_supernet = false;  // reuse the first search's training
  searches.push_back(service.submit(SearchRequest{second}));
  for (const api::Arch& a : archs)
    predictions.push_back(service.submit(PredictLatencyRequest{a}));

  RunResults out;
  for (auto& f : searches) {
    api::Result<api::SearchReport> r = f.get();
    EXPECT_TRUE(r.ok()) << r.status().to_string();
    out.searches.push_back(std::move(r).value());
  }
  for (auto& f : predictions) {
    api::Result<api::LatencyReport> r = f.get();
    EXPECT_TRUE(r.ok()) << r.status().to_string();
    out.predictions.push_back(std::move(r).value());
  }
  for (auto& f : profiles) {
    api::Result<api::ProfileReport> r = f.get();
    EXPECT_TRUE(r.ok()) << r.status().to_string();
    out.profiles.push_back(std::move(r).value());
  }
  for (auto& f : baselines) {
    api::Result<api::ProfileReport> r = f.get();
    EXPECT_TRUE(r.ok()) << r.status().to_string();
    out.baselines.push_back(std::move(r).value());
  }
  for (auto& f : trained) {
    api::Result<api::TrainReport> r = f.get();
    EXPECT_TRUE(r.ok()) << r.status().to_string();
    out.trained.push_back(std::move(r).value());
  }
  return out;
}

TEST(Serve, MixedConcurrentRunBitIdenticalToSerial) {
  // The acceptance bar of the serving layer: many mixed requests against a
  // shared context, four workers racing, and every answer must equal the
  // one-worker (fully serialized) run of the same script — searches
  // included, because exclusive requests replay in submission order.
  const api::EngineConfig cfg = tiny_cfg();

  auto probe = api::Engine::create(cfg);
  ASSERT_TRUE(probe.ok()) << probe.status().to_string();
  std::vector<api::Arch> archs;
  for (int i = 0; i < 8; ++i) archs.push_back(probe.value().sample_arch());

  auto serial_service = make_service(cfg, 1);
  ASSERT_NE(serial_service, nullptr);
  const RunResults serial = run_script(*serial_service, archs);
  serial_service->shutdown();

  auto concurrent_service = make_service(cfg, 4);
  ASSERT_NE(concurrent_service, nullptr);
  const RunResults concurrent = run_script(*concurrent_service, archs);
  concurrent_service->shutdown();

  ASSERT_EQ(serial.searches.size(), concurrent.searches.size());
  for (std::size_t i = 0; i < serial.searches.size(); ++i) {
    EXPECT_EQ(serial.searches[i].result.best_arch,
              concurrent.searches[i].result.best_arch);
    EXPECT_DOUBLE_EQ(serial.searches[i].result.best_objective,
                     concurrent.searches[i].result.best_objective);
    EXPECT_DOUBLE_EQ(serial.searches[i].result.best_latency_ms,
                     concurrent.searches[i].result.best_latency_ms);
    EXPECT_DOUBLE_EQ(serial.searches[i].result.total_sim_time_s,
                     concurrent.searches[i].result.total_sim_time_s);
  }
  ASSERT_EQ(serial.predictions.size(), concurrent.predictions.size());
  for (std::size_t i = 0; i < serial.predictions.size(); ++i)
    EXPECT_DOUBLE_EQ(serial.predictions[i].latency_ms,
                     concurrent.predictions[i].latency_ms);
  ASSERT_EQ(serial.profiles.size(), concurrent.profiles.size());
  for (std::size_t i = 0; i < serial.profiles.size(); ++i) {
    EXPECT_DOUBLE_EQ(serial.profiles[i].latency_ms,
                     concurrent.profiles[i].latency_ms);
    EXPECT_DOUBLE_EQ(serial.profiles[i].peak_memory_mb,
                     concurrent.profiles[i].peak_memory_mb);
  }
  for (std::size_t i = 0; i < serial.baselines.size(); ++i)
    EXPECT_DOUBLE_EQ(serial.baselines[i].latency_ms,
                     concurrent.baselines[i].latency_ms);
  for (std::size_t i = 0; i < serial.trained.size(); ++i)
    EXPECT_DOUBLE_EQ(serial.trained[i].overall_acc,
                     concurrent.trained[i].overall_acc);
}

TEST(Serve, PureRequestsMatchDirectEngineCalls) {
  const api::EngineConfig cfg = tiny_cfg();
  auto service = make_service(cfg, 3);
  ASSERT_NE(service, nullptr);

  auto engine = api::Engine::create(cfg, service->context());
  ASSERT_TRUE(engine.ok());
  std::vector<api::Arch> archs;
  for (int i = 0; i < 6; ++i) archs.push_back(engine.value().sample_arch());

  std::vector<std::future<api::Result<api::LatencyReport>>> lat;
  std::vector<std::future<api::Result<api::ProfileReport>>> prof;
  for (const api::Arch& a : archs) {
    lat.push_back(service->submit(PredictLatencyRequest{a}));
    prof.push_back(service->submit(ProfileRequest{a}));
  }
  for (std::size_t i = 0; i < archs.size(); ++i) {
    api::Result<api::LatencyReport> served = lat[i].get();
    ASSERT_TRUE(served.ok());
    api::Result<api::LatencyReport> direct =
        engine.value().predict_latency(archs[i]);
    ASSERT_TRUE(direct.ok());
    EXPECT_DOUBLE_EQ(served.value().latency_ms, direct.value().latency_ms);

    api::Result<api::ProfileReport> served_prof = prof[i].get();
    ASSERT_TRUE(served_prof.ok());
    api::Result<api::ProfileReport> direct_prof =
        engine.value().profile(archs[i]);
    ASSERT_TRUE(direct_prof.ok());
    EXPECT_DOUBLE_EQ(served_prof.value().latency_ms,
                     direct_prof.value().latency_ms);
  }
}

TEST(Serve, CoalescesPredictorQueriesIntoBatches) {
  // With a "predictor" evaluator, queued queries must merge into packed
  // forwards — and coalescing must not change any answer. An exclusive
  // search is submitted first so the predictions pile up behind it (the
  // exclusive claim stalls pure traffic), guaranteeing a coalesced drain.
  api::EngineConfig cfg = tiny_cfg();
  cfg.evaluator = "predictor";
  cfg.predictor_samples = 40;
  cfg.predictor_epochs = 4;

  auto service = make_service(cfg, 2);
  ASSERT_NE(service, nullptr);
  auto engine = api::Engine::create(cfg, service->context());
  ASSERT_TRUE(engine.ok());
  std::vector<api::Arch> archs;
  for (int i = 0; i < 12; ++i) archs.push_back(engine.value().sample_arch());

  auto search = service->submit(SearchRequest{});
  std::vector<std::future<api::Result<api::LatencyReport>>> lat;
  for (const api::Arch& a : archs)
    lat.push_back(service->submit(PredictLatencyRequest{a}));
  ASSERT_TRUE(search.get().ok());
  for (std::size_t i = 0; i < archs.size(); ++i) {
    api::Result<api::LatencyReport> served = lat[i].get();
    ASSERT_TRUE(served.ok());
    api::Result<api::LatencyReport> direct =
        engine.value().predict_latency(archs[i]);
    ASSERT_TRUE(direct.ok());
    EXPECT_DOUBLE_EQ(served.value().latency_ms, direct.value().latency_ms);
  }

  const obs::Snapshot stats = service->metrics_snapshot();
  EXPECT_EQ(stats.at("serve.predict_requests"), 12);
  EXPECT_LT(stats.at("serve.predict_batches"),
            stats.at("serve.predict_requests"));
  EXPECT_GT(stats.at("serve.max_predict_batch"), 1);

  // A malformed genome that lands in a coalesced batch must fail alone:
  // its batchmates get exactly the answer an uncoalesced query would.
  api::Arch bad = archs[0];
  bad.genes[0].op = static_cast<hgnas::OpType>(99);
  auto stall = service->submit(SearchRequest{});  // pile the queue again
  auto bad_future = service->submit(PredictLatencyRequest{bad});
  std::vector<std::future<api::Result<api::LatencyReport>>> good;
  for (int i = 0; i < 4; ++i)
    good.push_back(service->submit(PredictLatencyRequest{archs[
        static_cast<std::size_t>(i)]}));
  ASSERT_TRUE(stall.get().ok());
  api::Result<api::LatencyReport> bad_result = bad_future.get();
  ASSERT_FALSE(bad_result.ok());
  EXPECT_EQ(bad_result.status().code(), api::StatusCode::kInvalidArgument);
  for (int i = 0; i < 4; ++i) {
    api::Result<api::LatencyReport> served = good[static_cast<std::size_t>(i)]
                                                 .get();
    ASSERT_TRUE(served.ok()) << served.status().to_string();
    EXPECT_DOUBLE_EQ(
        served.value().latency_ms,
        engine.value()
            .predict_latency(archs[static_cast<std::size_t>(i)])
            .value()
            .latency_ms);
  }

  // Lone and batch entries share the one coalescing queue: behind a stall,
  // lone queries, a 4-arch batch and a batch larger than max_predict_batch
  // (never split, so it runs whole) all answer exactly what a lone
  // Engine::predict_latency answers.
  const obs::Snapshot before = service->metrics_snapshot();
  const std::size_t large = ServiceConfig{}.max_predict_batch + 5;
  std::vector<api::Arch> small_batch(archs.begin(), archs.begin() + 4);
  std::vector<api::Arch> large_batch;
  for (std::size_t i = 0; i < large; ++i)
    large_batch.push_back(archs[i % archs.size()]);
  auto stall_again = service->submit(SearchRequest{});
  std::vector<std::future<api::Result<api::LatencyReport>>> lone;
  for (std::size_t i = 0; i < 3; ++i)
    lone.push_back(service->submit(PredictLatencyRequest{archs[i]}));
  auto small_future = service->submit(PredictBatchRequest{small_batch});
  auto large_future = service->submit(PredictBatchRequest{large_batch});
  lone.push_back(service->submit(PredictLatencyRequest{archs[3]}));
  ASSERT_TRUE(stall_again.get().ok());
  const auto expect_lone_answer = [&](const api::Result<api::LatencyReport>& r,
                                      const api::Arch& arch) {
    ASSERT_TRUE(r.ok()) << r.status().to_string();
    EXPECT_EQ(r.value().latency_ms,
              engine.value().predict_latency(arch).value().latency_ms);
  };
  for (std::size_t i = 0; i < lone.size(); ++i)
    expect_lone_answer(lone[i].get(), archs[i]);
  const auto small_results = small_future.get();
  ASSERT_EQ(small_results.size(), small_batch.size());
  for (std::size_t i = 0; i < small_batch.size(); ++i)
    expect_lone_answer(small_results[i], small_batch[i]);
  const auto large_results = large_future.get();
  ASSERT_EQ(large_results.size(), large);
  for (std::size_t i = 0; i < large; ++i)
    expect_lone_answer(large_results[i], large_batch[i]);
  const obs::Snapshot after = service->metrics_snapshot();
  EXPECT_GE(after.at("serve.max_predict_batch"),
            static_cast<std::int64_t>(large));
  EXPECT_EQ(
      after.at("serve.predict_requests") - before.at("serve.predict_requests"),
      static_cast<std::int64_t>(lone.size() + small_batch.size() + large));
}

TEST(Serve, IncompatibleSearchConfigFailsThatRequestOnly) {
  const api::EngineConfig cfg = tiny_cfg();
  auto service = make_service(cfg, 2);
  ASSERT_NE(service, nullptr);

  api::EngineConfig other = cfg;
  other.num_points = cfg.num_points * 2;  // context-shaping mismatch
  auto bad = service->submit(SearchRequest{other});
  api::Result<api::SearchReport> r = bad.get();
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), api::StatusCode::kInvalidArgument);

  // The service keeps serving.
  auto engine = api::Engine::create(cfg, service->context());
  ASSERT_TRUE(engine.ok());
  auto ok = service->submit(ProfileRequest{engine.value().sample_arch()});
  EXPECT_TRUE(ok.get().ok());
}

TEST(Serve, RejectsConfigAndSubmitAfterShutdown) {
  {
    ServiceConfig scfg;
    scfg.num_workers = 0;
    api::Result<std::shared_ptr<Service>> bad =
        Service::create(tiny_cfg(), scfg);
    ASSERT_FALSE(bad.ok());
    EXPECT_EQ(bad.status().code(), api::StatusCode::kInvalidArgument);
  }

  auto service = make_service(tiny_cfg(), 2);
  ASSERT_NE(service, nullptr);
  auto engine = api::Engine::create(tiny_cfg(), service->context());
  ASSERT_TRUE(engine.ok());
  const api::Arch arch = engine.value().sample_arch();

  auto before = service->submit(ProfileRequest{arch});
  EXPECT_TRUE(before.get().ok());
  service->shutdown();
  service->shutdown();  // idempotent
  auto after = service->submit(ProfileRequest{arch});
  api::Result<api::ProfileReport> r = after.get();
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), api::StatusCode::kFailedPrecondition);
}

TEST(Serve, StressManyMixedRequestsAcrossWorkerCounts) {
  // Pile enough traffic on the queues that claims, drains and coalescing
  // interleave heavily; every future must resolve OK and pure answers must
  // be reproducible across worker counts.
  const api::EngineConfig cfg = tiny_cfg();
  auto probe = api::Engine::create(cfg);
  ASSERT_TRUE(probe.ok());
  std::vector<api::Arch> archs;
  for (int i = 0; i < 16; ++i) archs.push_back(probe.value().sample_arch());

  std::vector<std::vector<double>> latencies;
  for (const std::int64_t workers : {std::int64_t{1}, std::int64_t{4}}) {
    auto service = make_service(cfg, workers);
    ASSERT_NE(service, nullptr);
    std::vector<std::future<api::Result<api::LatencyReport>>> lat;
    std::vector<std::future<api::Result<api::ProfileReport>>> prof;
    std::vector<std::future<api::Result<api::TrainReport>>> train;
    for (int round = 0; round < 4; ++round) {
      for (const api::Arch& a : archs) {
        lat.push_back(service->submit(PredictLatencyRequest{a}));
        prof.push_back(service->submit(ProfileRequest{a}));
      }
      train.push_back(service->submit(TrainBaselineRequest{"li"}));
    }
    std::vector<double> run;
    for (auto& f : lat) {
      api::Result<api::LatencyReport> r = f.get();
      ASSERT_TRUE(r.ok()) << r.status().to_string();
      run.push_back(r.value().latency_ms);
    }
    for (auto& f : prof) ASSERT_TRUE(f.get().ok());
    for (auto& f : train) ASSERT_TRUE(f.get().ok());
    const obs::Snapshot stats = service->metrics_snapshot();
    EXPECT_EQ(stats.at("serve.requests"), 4 * (2 * 16 + 1));
    EXPECT_EQ(stats.at("serve.exclusive_requests"), 4);
    latencies.push_back(std::move(run));
  }
  ASSERT_EQ(latencies[0].size(), latencies[1].size());
  for (std::size_t i = 0; i < latencies[0].size(); ++i)
    EXPECT_DOUBLE_EQ(latencies[0][i], latencies[1][i]);
}

TEST(ServeBatch, BatchRequestMatchesLoneSubmissionsBitIdentically) {
  // One PredictBatchRequest (a single unit of work -> one packed forward)
  // must answer exactly what N lone submissions answer, element for
  // element, and must count as ONE queue entry but N predict requests.
  const api::EngineConfig cfg = tiny_cfg();
  auto probe = api::Engine::create(cfg);
  ASSERT_TRUE(probe.ok());
  std::vector<api::Arch> archs;
  for (int i = 0; i < 12; ++i) archs.push_back(probe.value().sample_arch());

  auto lone_service = make_service(cfg, 2);
  ASSERT_NE(lone_service, nullptr);
  std::vector<api::LatencyReport> lone;
  for (const api::Arch& a : archs) {
    api::Result<api::LatencyReport> r =
        lone_service->submit(PredictLatencyRequest{a}).get();
    ASSERT_TRUE(r.ok()) << r.status().to_string();
    lone.push_back(r.value());
  }
  lone_service->shutdown();

  auto batch_service = make_service(cfg, 2);
  ASSERT_NE(batch_service, nullptr);
  std::vector<api::Result<api::LatencyReport>> batched =
      batch_service->submit(PredictBatchRequest{archs}).get();
  ASSERT_EQ(batched.size(), archs.size());
  for (std::size_t i = 0; i < batched.size(); ++i) {
    ASSERT_TRUE(batched[i].ok()) << batched[i].status().to_string();
    EXPECT_DOUBLE_EQ(batched[i].value().latency_ms, lone[i].latency_ms);
    EXPECT_DOUBLE_EQ(batched[i].value().peak_memory_mb,
                     lone[i].peak_memory_mb);
  }
  const obs::Snapshot stats = batch_service->metrics_snapshot();
  EXPECT_EQ(stats.at("serve.predict_requests"),
            static_cast<std::int64_t>(archs.size()));
  EXPECT_GE(stats.at("serve.predict_batches"), 1);
  EXPECT_GE(stats.at("serve.max_predict_batch"),
            static_cast<std::int64_t>(archs.size()));
  batch_service->shutdown();
}

/// tiny_cfg() with a small fitted "predictor" evaluator.
api::EngineConfig tiny_predictor_cfg() {
  api::EngineConfig cfg = tiny_cfg();
  cfg.evaluator = "predictor";
  cfg.predictor_samples = 40;
  cfg.predictor_epochs = 4;
  return cfg;
}

TEST(ServeBatch, BadElementFailsAloneInBatchRequest) {
  for (const api::EngineConfig& cfg : {tiny_cfg(), tiny_predictor_cfg()}) {
    SCOPED_TRACE(cfg.evaluator);
    auto probe = api::Engine::create(cfg);
    ASSERT_TRUE(probe.ok());

    auto service = make_service(cfg, 2);
    ASSERT_NE(service, nullptr);
    std::vector<api::Arch> archs;
    archs.push_back(probe.value().sample_arch());
    archs.push_back(api::Arch{});  // no genes: fails validation
    archs.push_back(probe.value().sample_arch());

    std::vector<api::Result<api::LatencyReport>> results =
        service->submit(PredictBatchRequest{archs}).get();
    ASSERT_EQ(results.size(), 3u);
    EXPECT_TRUE(results[0].ok()) << results[0].status().to_string();
    EXPECT_FALSE(results[1].ok());
    EXPECT_EQ(results[1].status().code(), api::StatusCode::kInvalidArgument);
    EXPECT_TRUE(results[2].ok()) << results[2].status().to_string();

    // The good elements answer exactly what lone submissions answer.
    api::Result<api::LatencyReport> lone0 =
        service->submit(PredictLatencyRequest{archs[0]}).get();
    ASSERT_TRUE(lone0.ok());
    EXPECT_DOUBLE_EQ(results[0].value().latency_ms, lone0.value().latency_ms);
    service->shutdown();
  }
}

TEST(ServeBatch, ExpiredOrCancelledBatchCountsEveryElement) {
  // A batch entry that dies in the queue resolves every element and bumps
  // deadline_expired / cancelled_requests by its arch count, the same
  // count serve.requests was bumped by — so requests still equals the sum
  // of its outcomes.
  constexpr std::int64_t kArchs = 6;
  for (const api::EngineConfig& cfg : {tiny_cfg(), tiny_predictor_cfg()}) {
    SCOPED_TRACE(cfg.evaluator);
    auto service = make_service(cfg, 2);
    ASSERT_NE(service, nullptr);
    auto probe = api::Engine::create(cfg, service->context());
    ASSERT_TRUE(probe.ok());
    std::vector<api::Arch> archs;
    for (std::int64_t i = 0; i < kArchs; ++i)
      archs.push_back(probe.value().sample_arch());

    RequestOptions expired;
    expired.deadline =
        std::chrono::steady_clock::now() - std::chrono::seconds(1);
    for (const auto& r :
         service->submit(PredictBatchRequest{archs, expired}).get())
      EXPECT_EQ(r.status().code(), api::StatusCode::kDeadlineExceeded);

    RequestOptions cancelled;
    cancelled.cancel = std::make_shared<std::atomic<bool>>(true);
    for (const auto& r :
         service->submit(PredictBatchRequest{archs, cancelled}).get())
      EXPECT_EQ(r.status().code(), api::StatusCode::kCancelled);

    const obs::Snapshot stats = service->metrics_snapshot();
    EXPECT_EQ(stats.at("serve.requests"), 2 * kArchs);
    EXPECT_EQ(stats.at("serve.deadline_expired"), kArchs);
    EXPECT_EQ(stats.at("serve.cancelled_requests"), kArchs);
    service->shutdown();
  }
}

TEST(ServeBatch, MeasuredBatchCountsEveryArchAsExclusive) {
  // A "measured" service runs predictions on the exclusive FIFO, so each
  // arch of a batch is an exclusive request: serve.exclusive_requests moves
  // by the entry's arch count, like serve.requests and
  // serve.predict_requests.
  constexpr std::int64_t kArchs = 5;
  api::EngineConfig cfg = tiny_cfg();
  cfg.device = "rtx3080";
  cfg.evaluator = "measured";
  auto service = make_service(cfg, 2);
  ASSERT_NE(service, nullptr);
  auto probe = api::Engine::create(cfg, service->context());
  ASSERT_TRUE(probe.ok()) << probe.status().to_string();
  std::vector<api::Arch> archs;
  for (std::int64_t i = 0; i < kArchs; ++i)
    archs.push_back(probe.value().sample_arch());

  for (const auto& r : service->submit(PredictBatchRequest{archs}).get())
    EXPECT_TRUE(r.ok()) << r.status().to_string();
  const obs::Snapshot stats = service->metrics_snapshot();
  EXPECT_EQ(stats.at("serve.requests"), kArchs);
  EXPECT_EQ(stats.at("serve.predict_requests"), kArchs);
  EXPECT_EQ(stats.at("serve.exclusive_requests"), kArchs);
  service->shutdown();
}

TEST(ServeBatch, EmptyBatchResolvesImmediately) {
  auto service = make_service(tiny_cfg(), 1);
  ASSERT_NE(service, nullptr);
  std::vector<api::Result<api::LatencyReport>> results =
      service->submit(PredictBatchRequest{}).get();
  EXPECT_TRUE(results.empty());
  service->shutdown();
}

TEST(ServeStats, HistogramsReportWaitAndServiceTime) {
  const api::EngineConfig cfg = tiny_cfg();
  auto probe = api::Engine::create(cfg);
  ASSERT_TRUE(probe.ok());

  auto service = make_service(cfg, 2);
  ASSERT_NE(service, nullptr);
  std::vector<std::future<api::Result<api::LatencyReport>>> futures;
  for (int i = 0; i < 32; ++i)
    futures.push_back(
        service->submit(PredictLatencyRequest{probe.value().sample_arch()}));
  for (auto& f : futures) ASSERT_TRUE(f.get().ok());

  const obs::Snapshot stats = service->metrics_snapshot();
  // Percentiles are log-linear-bucket upper bounds: monotone in rank, and
  // a served request always records a service time (>= the 0-bucket).
  EXPECT_GE(stats.at("serve.queue_wait_us.p99_us"),
            stats.at("serve.queue_wait_us.p50_us"));
  EXPECT_GE(stats.at("serve.service_time_us.p99_us"),
            stats.at("serve.service_time_us.p50_us"));
  EXPECT_GE(stats.at("serve.service_time_us.p99_us"), 0);
  // A p99 of a 32-request run that did real work should be nonzero.
  EXPECT_GT(stats.at("serve.service_time_us.p99_us"), 0);
  service->shutdown();
}

TEST(ServeStats, QuiescedCountersConserveRequests) {
  // Every admitted request is counted once in serve.requests and once in
  // exactly one outcome: answered (ok or a per-request error), refused by
  // the full queue, expired or cancelled. The mix below drives every
  // outcome at once — a long search that expires mid-run while a bounded
  // queue fills behind it with lone predictions (some pre-cancelled, some
  // already expired) and a batch whose every arch counts.
  api::EngineConfig cfg = tiny_cfg();
  cfg.iterations = 500;  // runs until its deadline
  for (const std::int64_t workers : {std::int64_t{1}, std::int64_t{3}}) {
    SCOPED_TRACE("workers " + std::to_string(workers));
    ServiceConfig scfg;
    scfg.num_workers = workers;
    scfg.max_queue_depth = 8;
    api::Result<std::shared_ptr<Service>> created =
        Service::create(cfg, scfg);
    ASSERT_TRUE(created.ok()) << created.status().to_string();
    Service& service = *created.value();
    auto probe = api::Engine::create(cfg, service.context());
    ASSERT_TRUE(probe.ok());
    std::vector<api::Arch> archs;
    for (int i = 0; i < 5; ++i) archs.push_back(probe.value().sample_arch());

    SearchRequest search_req;
    search_req.opts.deadline =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(300);
    auto search = service.submit(std::move(search_req));
    std::vector<std::future<api::Result<api::LatencyReport>>> lone;
    for (std::size_t i = 0; i < 20; ++i) {
      PredictLatencyRequest req{archs[i % archs.size()]};
      if (i % 7 == 3)
        req.opts.cancel = std::make_shared<std::atomic<bool>>(true);
      if (i % 7 == 5)
        req.opts.deadline =
            std::chrono::steady_clock::now() - std::chrono::seconds(1);
      lone.push_back(service.submit(std::move(req)));
    }
    auto batch = service.submit(PredictBatchRequest{archs});

    std::map<api::StatusCode, std::int64_t> outcomes;
    const auto tally = [&](const api::Status& s) { ++outcomes[s.code()]; };
    tally(search.get().status());
    for (auto& f : lone) tally(f.get().status());
    for (const auto& r : batch.get()) tally(r.status());

    const obs::Snapshot stats = service.metrics_snapshot();
    const std::int64_t rejected = outcomes[api::StatusCode::kResourceExhausted];
    const std::int64_t expired = outcomes[api::StatusCode::kDeadlineExceeded];
    const std::int64_t cancelled = outcomes[api::StatusCode::kCancelled];
    std::int64_t total = 0;
    for (const auto& [code, n] : outcomes) total += n;
    EXPECT_EQ(total, 1 + 20 + 5);
    EXPECT_EQ(stats.at("serve.rejected_requests"), rejected);
    EXPECT_EQ(stats.at("serve.deadline_expired"), expired);
    EXPECT_EQ(stats.at("serve.cancelled_requests"), cancelled);
    // Each future resolved to exactly one outcome, so every submitted
    // request is counted once: no more, no fewer.
    EXPECT_EQ(stats.at("serve.requests"), total);
    // The mix reached the outcomes it was built for.
    EXPECT_GE(expired, 1);
    EXPECT_GE(rejected, 1);
    EXPECT_EQ(stats.at("serve.queue_depth"), 0);
    service.shutdown();
  }
}

TEST(ServeStats, SnapshotKeySetIsPinned) {
  // The flattened key set of a bare service is the serve layer's stats
  // schema: kStats scrapes, perfbench and render_snapshot all read these
  // names, so adding, renaming or dropping one must show up here.
  auto service = make_service(tiny_cfg(), 1);
  ASSERT_NE(service, nullptr);
  std::vector<std::string> keys;
  for (const auto& [name, value] : service->metrics_snapshot())
    keys.push_back(name);
  const std::vector<std::string> expected = {
      "serve.cancelled_requests",
      "serve.deadline_expired",
      "serve.drain_started",
      "serve.exclusive_preemptions",
      "serve.exclusive_queue_wait_us.count",
      "serve.exclusive_queue_wait_us.p50_us",
      "serve.exclusive_queue_wait_us.p99_us",
      "serve.exclusive_requests",
      "serve.exclusive_resumes",
      "serve.exclusive_service_time_us.count",
      "serve.exclusive_service_time_us.p50_us",
      "serve.exclusive_service_time_us.p99_us",
      "serve.exclusive_slices",
      "serve.max_predict_batch",
      "serve.pings",
      "serve.predict_batches",
      "serve.predict_requests",
      "serve.pure_queue_wait_us.count",
      "serve.pure_queue_wait_us.p50_us",
      "serve.pure_queue_wait_us.p99_us",
      "serve.pure_service_time_us.count",
      "serve.pure_service_time_us.p50_us",
      "serve.pure_service_time_us.p99_us",
      "serve.queue_depth",
      "serve.queue_wait_us.count",
      "serve.queue_wait_us.p50_us",
      "serve.queue_wait_us.p99_us",
      "serve.rejected_requests",
      "serve.requests",
      "serve.service_time_us.count",
      "serve.service_time_us.p50_us",
      "serve.service_time_us.p99_us",
      "serve.sheds_with_hint",
      "serve.step_us.count",
      "serve.step_us.p50_us",
      "serve.step_us.p99_us",
  };
  EXPECT_EQ(keys, expected);
  service->shutdown();
}

TEST(ServeStats, HistogramBucketsAreUpperBounds) {
  obs::Histogram h;
  h.record_us(0);
  EXPECT_EQ(h.percentile_us(0.5), 0);
  obs::Histogram h2;
  h2.record_us(1000);  // octave 9, sub-bucket (896..1023) -> 1023
  EXPECT_EQ(h2.percentile_us(0.5), 1023);
  h2.record_us(100000);  // octave 16, sub-bucket (98304..114687) -> 114687
  EXPECT_EQ(h2.percentile_us(0.99), 114687);
  EXPECT_EQ(h2.percentile_us(0.25), 1023);
}

TEST(ServeStats, HistogramEdgeCases) {
  // Empty: every quantile reads 0 (the "nothing recorded" sentinel).
  obs::Histogram empty;
  EXPECT_EQ(empty.percentile_us(0.50), 0);
  EXPECT_EQ(empty.percentile_us(0.99), 0);
  // A single sample answers every quantile with its bucket's upper bound.
  // Octave 2 splits into width-1 sub-buckets, so 5 reads back exactly.
  obs::Histogram one;
  one.record_us(5);
  EXPECT_EQ(one.percentile_us(0.50), 5);
  EXPECT_EQ(one.percentile_us(0.99), 5);
  // Log-linear upper edges: the last value of a sub-bucket reads as
  // itself, one past it lands in the next octave's first quarter (a
  // quantile overestimates by < 25%, not the factor of 2 log2 gave).
  obs::Histogram edge;
  edge.record_us(1023);
  EXPECT_EQ(edge.percentile_us(0.50), 1023);
  obs::Histogram past;
  past.record_us(1024);
  EXPECT_EQ(past.percentile_us(0.50), 1279);
}

// ---- stepwise, preemptible exclusive scheduling ----------------------------

std::shared_ptr<Service> make_sliced_service(const api::EngineConfig& cfg,
                                             std::int64_t workers,
                                             std::int64_t slice_ms) {
  ServiceConfig scfg;
  scfg.num_workers = workers;
  scfg.exclusive_slice_ms = slice_ms;
  api::Result<std::shared_ptr<Service>> service = Service::create(cfg, scfg);
  EXPECT_TRUE(service.ok()) << service.status().to_string();
  return service.ok() ? service.value() : nullptr;
}

/// Block until the service has dispatched at least one exclusive slice
/// (i.e. the search is genuinely running, not just queued).
bool wait_for_first_slice(Service& service) {
  for (int i = 0; i < 2000; ++i) {
    if (stat(service, "serve.exclusive_slices") > 0) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return false;
}

// max_queue_depth bounds queue *entries*, not requests: with the only
// worker busy on a search and a limit of one, a 16-arch batch is one entry
// and is admitted whole, and a lone prediction after it finds the queue
// full.
TEST(ServeAdmission, QueueDepthCountsEntriesNotRequests) {
  api::EngineConfig cfg = tiny_cfg();
  cfg.iterations = 500;  // runs until cancelled
  ServiceConfig scfg;
  scfg.num_workers = 1;
  scfg.exclusive_slice_ms = 0;  // the search never yields its worker
  scfg.max_queue_depth = 1;
  api::Result<std::shared_ptr<Service>> created = Service::create(cfg, scfg);
  ASSERT_TRUE(created.ok()) << created.status().to_string();
  Service& service = *created.value();
  auto probe = api::Engine::create(cfg, service.context());
  ASSERT_TRUE(probe.ok());
  std::vector<api::Arch> archs;
  for (int i = 0; i < 16; ++i) archs.push_back(probe.value().sample_arch());

  SearchRequest search_req;
  search_req.opts.cancel = std::make_shared<std::atomic<bool>>(false);
  auto cancel = search_req.opts.cancel;
  auto search = service.submit(std::move(search_req));
  ASSERT_TRUE(wait_for_first_slice(service));
  auto batch = service.submit(PredictBatchRequest{archs});
  api::Result<api::LatencyReport> lone =
      service.submit(PredictLatencyRequest{archs[0]}).get();
  EXPECT_EQ(lone.status().code(), api::StatusCode::kResourceExhausted);

  cancel->store(true);
  EXPECT_EQ(search.get().status().code(), api::StatusCode::kCancelled);
  const std::vector<api::Result<api::LatencyReport>> answered = batch.get();
  ASSERT_EQ(answered.size(), archs.size());
  for (const auto& r : answered) EXPECT_TRUE(r.ok()) << r.status().to_string();
  EXPECT_EQ(stat(service, "serve.rejected_requests"), 1);
  service.shutdown();
}

TEST(ServeSlice, SlicedRunBitIdenticalToRunToCompletion) {
  // The tentpole guarantee: enabling the slice changes WHEN work runs,
  // never WHAT it computes. The same mixed script through a sliced
  // service must reproduce the run-to-completion results bit-for-bit —
  // searches and trained baselines included, because the preempted run
  // resumes ahead of every younger exclusive and the shared-context RNG
  // stream replays in submission order.
  const api::EngineConfig cfg = tiny_cfg();
  auto probe = api::Engine::create(cfg);
  ASSERT_TRUE(probe.ok()) << probe.status().to_string();
  std::vector<api::Arch> archs;
  for (int i = 0; i < 8; ++i) archs.push_back(probe.value().sample_arch());

  auto plain = make_service(cfg, 2);
  ASSERT_NE(plain, nullptr);
  const RunResults legacy = run_script(*plain, archs);
  plain->shutdown();

  auto sliced = make_sliced_service(cfg, 2, /*slice_ms=*/1);
  ASSERT_NE(sliced, nullptr);
  const RunResults preempted = run_script(*sliced, archs);
  const obs::Snapshot stats = sliced->metrics_snapshot();
  sliced->shutdown();

  // The slice path actually engaged, and the per-kind split saw traffic
  // on both sides.
  EXPECT_GT(stats.at("serve.exclusive_slices"), 0);
  EXPECT_GT(stats.at("serve.pure_service_time_us.p99_us"), 0);
  EXPECT_GT(stats.at("serve.exclusive_service_time_us.p99_us"), 0);
  EXPECT_GE(stats.at("serve.queue_wait_us.p99_us"),
            stats.at("serve.pure_queue_wait_us.p50_us"));

  ASSERT_EQ(legacy.searches.size(), preempted.searches.size());
  for (std::size_t i = 0; i < legacy.searches.size(); ++i) {
    EXPECT_EQ(legacy.searches[i].result.best_arch,
              preempted.searches[i].result.best_arch);
    EXPECT_DOUBLE_EQ(legacy.searches[i].result.best_objective,
                     preempted.searches[i].result.best_objective);
    EXPECT_DOUBLE_EQ(legacy.searches[i].result.best_latency_ms,
                     preempted.searches[i].result.best_latency_ms);
    EXPECT_DOUBLE_EQ(legacy.searches[i].result.total_sim_time_s,
                     preempted.searches[i].result.total_sim_time_s);
    EXPECT_EQ(legacy.searches[i].result.latency_queries,
              preempted.searches[i].result.latency_queries);
  }
  ASSERT_EQ(legacy.predictions.size(), preempted.predictions.size());
  for (std::size_t i = 0; i < legacy.predictions.size(); ++i)
    EXPECT_DOUBLE_EQ(legacy.predictions[i].latency_ms,
                     preempted.predictions[i].latency_ms);
  ASSERT_EQ(legacy.trained.size(), preempted.trained.size());
  for (std::size_t i = 0; i < legacy.trained.size(); ++i) {
    EXPECT_DOUBLE_EQ(legacy.trained[i].overall_acc,
                     preempted.trained[i].overall_acc);
    EXPECT_DOUBLE_EQ(legacy.trained[i].balanced_acc,
                     preempted.trained[i].balanced_acc);
  }
}

TEST(ServeSlice, PreemptedSearchIsResumedAndStillCorrect) {
  // One worker + a fat search + a stream of pure probes: the search MUST
  // be preempted (probes interleave) and still finish with the result a
  // dedicated engine computes.
  api::EngineConfig cfg = tiny_cfg();
  cfg.iterations = 12;
  // The probe arch comes from a throwaway engine: sample_arch() consumes
  // RNG, and the reference search below must start from virgin state to
  // match what the service's worker engine sees.
  auto sampler = api::Engine::create(cfg);
  ASSERT_TRUE(sampler.ok());
  const api::Arch arch = sampler.value().sample_arch();
  auto reference = api::Engine::create(cfg);
  ASSERT_TRUE(reference.ok());
  const api::Result<api::SearchReport> expected = reference.value().search();
  ASSERT_TRUE(expected.ok());

  auto service = make_sliced_service(cfg, 1, /*slice_ms=*/1);
  ASSERT_NE(service, nullptr);
  auto search = service->submit(SearchRequest{});
  ASSERT_TRUE(wait_for_first_slice(*service));
  // Keep pure probes flowing while the search runs, forcing interleaving.
  std::int64_t probes = 0;
  while (search.wait_for(std::chrono::seconds(0)) !=
             std::future_status::ready &&
         probes < 10000) {
    ASSERT_TRUE(service->submit(PredictLatencyRequest{arch}).get().ok());
    ++probes;
  }
  api::Result<api::SearchReport> got = search.get();
  ASSERT_TRUE(got.ok()) << got.status().to_string();
  const obs::Snapshot stats = service->metrics_snapshot();
  service->shutdown();

  EXPECT_GT(stats.at("serve.exclusive_preemptions"), 0);
  EXPECT_GT(stats.at("serve.exclusive_resumes"), 0);
  EXPECT_GT(probes, 0);
  // The service search ran on a fresh engine over the same context state
  // a lone engine starts from — identical results.
  EXPECT_EQ(got.value().result.best_arch,
            expected.value().result.best_arch);
  EXPECT_DOUBLE_EQ(got.value().result.best_objective,
                   expected.value().result.best_objective);
  EXPECT_DOUBLE_EQ(got.value().result.total_sim_time_s,
                   expected.value().result.total_sim_time_s);
}

TEST(ServeSlice, MidRunCancelResolvesBetweenSteps) {
  api::EngineConfig cfg = tiny_cfg();
  cfg.iterations = 500;  // minutes of work if never interrupted
  // Slice 0 never preempts the run, but still steps it: the cancel lands
  // between steps there too.
  for (const std::int64_t slice_ms : {1, 0}) {
    SCOPED_TRACE("slice_ms " + std::to_string(slice_ms));
    auto service = make_sliced_service(cfg, 1, slice_ms);
    ASSERT_NE(service, nullptr);

    SearchRequest req;
    req.opts.cancel = std::make_shared<std::atomic<bool>>(false);
    auto cancel = req.opts.cancel;
    auto search = service->submit(std::move(req));
    ASSERT_TRUE(wait_for_first_slice(*service));
    cancel->store(true);

    // Without mid-run checks this would block for the whole 500-iteration
    // run; between-step cancellation resolves within a few steps.
    api::Result<api::SearchReport> r = search.get();
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), api::StatusCode::kCancelled);
    EXPECT_GE(stat(*service, "serve.cancelled_requests"), 1);

    // The worker is free again: the service keeps serving.
    auto probe = api::Engine::create(cfg);
    ASSERT_TRUE(probe.ok());
    EXPECT_TRUE(
        service->submit(PredictLatencyRequest{probe.value().sample_arch()})
            .get()
            .ok());
    service->shutdown();
  }
}

TEST(ServeSlice, MidRunDeadlineResolvesBetweenSteps) {
  api::EngineConfig cfg = tiny_cfg();
  cfg.iterations = 500;
  for (const std::int64_t slice_ms : {1, 0}) {
    SCOPED_TRACE("slice_ms " + std::to_string(slice_ms));
    auto service = make_sliced_service(cfg, 1, slice_ms);
    ASSERT_NE(service, nullptr);

    SearchRequest req;
    req.opts.deadline =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(200);
    auto search = service->submit(std::move(req));
    ASSERT_TRUE(wait_for_first_slice(*service));

    api::Result<api::SearchReport> r = search.get();
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), api::StatusCode::kDeadlineExceeded);
    EXPECT_GE(stat(*service, "serve.deadline_expired"), 1);
    service->shutdown();
  }
}

/// Drive a begun run to completion; the number of step() calls, the last
/// (which returns false) included — what serve.step_us counts.
template <typename Run>
std::int64_t drive_steps(Run& run) {
  std::int64_t steps = 0;
  for (bool more = true; more; ++steps) more = run.step();
  return steps;
}

TEST(ServeSlice, SliceZeroRunsTheStepperUnpreempted) {
  // exclusive_slice_ms = 0 is an unbounded slice, not another scheduler:
  // each search and baseline training runs its stepper in one dispatch,
  // never preempted, recording one serve.step_us sample per step of the
  // same run driven directly.
  api::EngineConfig cfg = tiny_cfg();
  cfg.train_epochs = 2;
  auto reference = api::Engine::create(cfg);
  ASSERT_TRUE(reference.ok()) << reference.status().to_string();
  auto search_run = reference.value().begin_search();
  ASSERT_TRUE(search_run.ok()) << search_run.status().to_string();
  const std::int64_t search_steps = drive_steps(*search_run.value());
  const api::Result<api::SearchReport> expected_search =
      search_run.value()->take_report();
  ASSERT_TRUE(expected_search.ok());
  auto train_run = reference.value().begin_train_baseline("tailor");
  ASSERT_TRUE(train_run.ok()) << train_run.status().to_string();
  const std::int64_t train_steps = drive_steps(*train_run.value());
  const api::Result<api::TrainReport> expected_train =
      train_run.value()->take_report();
  ASSERT_TRUE(expected_train.ok());
  EXPECT_GT(search_steps, 1);

  auto service = make_sliced_service(cfg, 1, /*slice_ms=*/0);
  ASSERT_NE(service, nullptr);
  auto search = service->submit(SearchRequest{});
  auto train = service->submit(TrainBaselineRequest{"tailor"});
  const api::Result<api::SearchReport> searched = search.get();
  const api::Result<api::TrainReport> trained = train.get();
  const obs::Snapshot stats = service->metrics_snapshot();
  service->shutdown();
  ASSERT_TRUE(searched.ok()) << searched.status().to_string();
  ASSERT_TRUE(trained.ok()) << trained.status().to_string();

  EXPECT_EQ(stats.at("serve.exclusive_preemptions"), 0);
  EXPECT_EQ(stats.at("serve.exclusive_resumes"), 0);
  EXPECT_EQ(stats.at("serve.exclusive_slices"), 2);  // one dispatch per run
  EXPECT_EQ(stats.at("serve.step_us.count"), search_steps + train_steps);
  EXPECT_EQ(searched.value().result.best_arch,
            expected_search.value().result.best_arch);
  EXPECT_DOUBLE_EQ(searched.value().result.best_objective,
                   expected_search.value().result.best_objective);
  EXPECT_DOUBLE_EQ(trained.value().overall_acc,
                   expected_train.value().overall_acc);
}

TEST(ServeSlice, TrainBaselineCounterBumpsOncePerRun) {
  // engine.train_baselines counts each training once, however it runs:
  // in-process, or served at slice 0 or at slice 1.
  api::EngineConfig cfg = tiny_cfg();
  cfg.train_epochs = 1;
  const obs::Counter& trains =
      obs::Registry::global().counter("engine.train_baselines");

  auto engine = api::Engine::create(cfg);
  ASSERT_TRUE(engine.ok()) << engine.status().to_string();
  std::int64_t before = trains.value();
  ASSERT_TRUE(engine.value().train_baseline("tailor").ok());
  EXPECT_EQ(trains.value() - before, 1);

  for (const std::int64_t slice_ms : {0, 1}) {
    SCOPED_TRACE("slice_ms " + std::to_string(slice_ms));
    auto service = make_sliced_service(cfg, 1, slice_ms);
    ASSERT_NE(service, nullptr);
    before = trains.value();
    ASSERT_TRUE(service->submit(TrainBaselineRequest{"tailor"}).get().ok());
    service->shutdown();
    EXPECT_EQ(trains.value() - before, 1);
  }
}

TEST(ServeSlice, StepHistogramCountsEveryStepAndStaysBelowAGeneration) {
  // serve.step_us records one sample per step() of a sliced run. A search
  // step is one supernet mini-batch or one validation-sample round, so the
  // longest step must stay below the longest epoch / generation — the
  // unit a step used to be. That unit is at least as long as the warmup
  // epoch of a reference run of the same search, timed step by step.
  api::EngineConfig cfg = tiny_cfg();
  cfg.strategy = "multistage";
  cfg.samples_per_class = 10;  // 80 train / 20 validation clouds
  cfg.eval_val_samples = 20;

  auto reference = api::Engine::create(cfg);
  ASSERT_TRUE(reference.ok()) << reference.status().to_string();
  auto run = reference.value().begin_search();
  ASSERT_TRUE(run.ok()) << run.status().to_string();
  std::int64_t steps = 0;
  std::int64_t warmup_us = 0;
  for (bool more = true; more; ++steps) {
    const auto started = std::chrono::steady_clock::now();
    more = run.value()->step();
    if (run.value()->progress().phase == hgnas::SearchProgress::Phase::kWarmup)
      warmup_us += std::chrono::duration_cast<std::chrono::microseconds>(
                       std::chrono::steady_clock::now() - started)
                       .count();
  }
  ASSERT_TRUE(run.value()->take_report().ok());
  ASSERT_EQ(cfg.stage1_epochs, 1);  // warmup_us is one epoch

  auto service = make_sliced_service(cfg, 1, /*slice_ms=*/1);
  ASSERT_NE(service, nullptr);
  ASSERT_TRUE(service->submit(SearchRequest{}).get().ok());
  const obs::Histogram& step_us =
      service->registry().histogram("serve.step_us");
  const obs::Snapshot snap = service->metrics_snapshot();
  service->shutdown();

  // Every step() the worker drove, the final one (which returns false)
  // included — the same count as the reference run's.
  EXPECT_EQ(step_us.count(), steps);
  EXPECT_EQ(snap.at("serve.step_us.count"), steps);
  // percentile_us(1.0) is the upper bound of the bucket holding the max.
  EXPECT_LT(step_us.percentile_us(1.0), warmup_us)
      << "step p50 " << step_us.percentile_us(0.5) << " us over " << steps
      << " steps";
}

TEST(ServeSlice, RejectsNegativeSlice) {
  ServiceConfig scfg;
  scfg.exclusive_slice_ms = -1;
  api::Result<std::shared_ptr<Service>> service =
      Service::create(tiny_cfg(), scfg);
  ASSERT_FALSE(service.ok());
  EXPECT_EQ(service.status().code(), api::StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace hg::serve
