// hg::net — the wire protocol and remote front end of serve::Service:
// codec round-trips, strict bounds-checked decoding (truncation / bit-flip
// fuzz, over raw sockets too), remote-vs-local bit-identical answers, and
// the queue-time semantics: per-request deadlines, bounded-queue
// back-pressure, disconnect cancellation, and the time-windowed predict
// coalescing that batches remote trickle traffic.
//
// Fault tolerance (protocol v2) is covered by the NetChaos / NetClient
// suites at the bottom: seeded transport-level fault injection
// (net/chaos.hpp) drives short I/O, mid-frame resets, header corruption
// and stalls through the retry/backoff path, with the invariant that
// every verb either answers bit-identically to local or fails with a
// clean typed Status — never a hang, crash, or torn frame.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "fingerprint.hpp"
#include "net/chaos.hpp"
#include "net/client.hpp"
#include "net/protocol.hpp"
#include "net/server.hpp"
#include "obs/trace.hpp"
#include "stall_fixture.hpp"
#include "tensor/rng.hpp"

namespace hg::net {
namespace {

using namespace std::chrono_literals;

/// Seed for a fuzz loop: HG_FUZZ_SEED overrides `fallback` (to reproduce
/// a failure, or to explore fresh sequences in CI). Announced on stderr
/// up front so a crash report — including a sanitizer abort, which never
/// returns control to the test — still identifies the failing sequence.
std::uint64_t fuzz_seed(std::uint64_t fallback) {
  std::uint64_t seed = fallback;
  if (const char* env = std::getenv("HG_FUZZ_SEED");
      env != nullptr && *env != '\0')
    seed = std::strtoull(env, nullptr, 10);
  std::fprintf(stderr,
               "[fuzz] seed=%llu — reproduce any failure below with "
               "HG_FUZZ_SEED=%llu\n",
               static_cast<unsigned long long>(seed),
               static_cast<unsigned long long>(seed));
  return seed;
}

/// Oracle-evaluator config small enough to search in well under a second.
api::EngineConfig tiny_cfg() {
  api::EngineConfig cfg = api::EngineConfig::tiny();
  cfg.evaluator = "oracle";
  cfg.strategy = "random";
  cfg.iterations = 2;
  return cfg;
}

std::vector<api::Arch> sample_archs(const api::EngineConfig& cfg, int n) {
  auto probe = api::Engine::create(cfg);
  EXPECT_TRUE(probe.ok()) << probe.status().to_string();
  std::vector<api::Arch> archs;
  for (int i = 0; i < n; ++i) archs.push_back(probe.value().sample_arch());
  return archs;
}

/// One named value of a service's stats snapshot (what kStats answers).
std::int64_t stat(const serve::Service& service, const std::string& name) {
  return service.metrics_snapshot().at(name);
}

std::int64_t stat(const Server& server, const std::string& name) {
  return stat(*server.service(), name);
}

/// Spin until the server's service has admitted `count` requests (it has
/// *received* them; they may still be queued).
void wait_for_requests(const Server& server, std::int64_t count) {
  for (int i = 0; i < 2000; ++i) {
    if (stat(server, "serve.requests") >= count) return;
    std::this_thread::sleep_for(1ms);
  }
  FAIL() << "server never saw " << count << " requests";
}

/// Spin until the named stat of the server's service reaches `value`.
bool wait_for_stat(const Server& server, const std::string& name,
                   std::int64_t value) {
  for (int i = 0; i < 2000; ++i) {
    if (stat(server, name) >= value) return true;
    std::this_thread::sleep_for(1ms);
  }
  return false;
}

/// Closes the stall gate and sends one stall profile on `client`; once
/// this returns true the profile holds a server worker until
/// hg::testing::StallGate::instance().open().
bool send_stall(Client& client, std::uint64_t* id) {
  hg::testing::StallGate::instance().close();
  auto sent = client.send(verbs::kProfileBaseline,
                          BaselineQuery{hg::testing::kStallBaseline, {}});
  if (!sent.ok()) return false;
  *id = sent.value();
  return hg::testing::StallGate::instance().wait_blocked(1);
}

// ---- codec round-trips -----------------------------------------------------

TEST(NetProtocol, HeaderRoundTripAndRejection) {
  FrameHeader h;
  h.type = static_cast<std::uint16_t>(FrameType::kPredictLatency);
  h.request_id = 0x0123456789abcdefULL;
  h.deadline_us = 42'000'000;
  h.payload_len = 1234;
  std::string bytes;
  encode_header(h, &bytes);
  ASSERT_EQ(bytes.size(), kHeaderSize);

  FrameHeader back;
  ASSERT_TRUE(decode_header(bytes.data(), bytes.size(), &back));
  EXPECT_EQ(back.magic, kMagic);
  EXPECT_EQ(back.version, kProtocolVersion);
  EXPECT_EQ(back.type, h.type);
  EXPECT_EQ(back.request_id, h.request_id);
  EXPECT_EQ(back.deadline_us, h.deadline_us);
  EXPECT_EQ(back.payload_len, h.payload_len);

  // Too short.
  EXPECT_FALSE(decode_header(bytes.data(), kHeaderSize - 1, &back));
  // Bad magic.
  std::string bad = bytes;
  bad[0] = static_cast<char>(bad[0] ^ 0x01);
  EXPECT_FALSE(decode_header(bad.data(), bad.size(), &back));
  // Unknown version.
  bad = bytes;
  bad[4] = static_cast<char>(bad[4] + 1);
  EXPECT_FALSE(decode_header(bad.data(), bad.size(), &back));
  // Oversized payload length.
  FrameHeader huge = h;
  huge.payload_len = kMaxPayloadBytes + 1;
  std::string huge_bytes;
  encode_header(huge, &huge_bytes);
  EXPECT_FALSE(decode_header(huge_bytes.data(), huge_bytes.size(), &back));
}

TEST(NetProtocol, ArchAndConfigRoundTrip) {
  const api::EngineConfig cfg = tiny_cfg();
  for (const api::Arch& arch : sample_archs(cfg, 4)) {
    Writer w;
    encode_arch(arch, &w);
    Reader r(w.bytes());
    api::Arch back;
    ASSERT_TRUE(decode_arch(&r, &back));
    EXPECT_TRUE(r.exhausted());
    EXPECT_EQ(arch, back);
  }

  api::EngineConfig full = tiny_cfg();
  full.device = "rtx3080";
  full.strategy = "multistage";
  full.latency_budget_ms = 3.25;
  full.memory_budget_mb = std::nullopt;
  full.model_size_budget_mb = 0.5;
  full.latency_scale_ms = 7.5;
  full.constrain_to_reference = true;
  full.train_supernet = false;
  full.eval_cache_path = "warm \"cache\".txt";
  full.seed = 0xfeedfaceULL;
  Writer w;
  encode_engine_config(full, &w);
  Reader r(w.bytes());
  api::EngineConfig back;
  ASSERT_TRUE(decode_engine_config(&r, &back));
  EXPECT_TRUE(r.exhausted());
  EXPECT_EQ(back.device, full.device);
  EXPECT_EQ(back.strategy, full.strategy);
  EXPECT_EQ(back.latency_budget_ms, full.latency_budget_ms);
  EXPECT_EQ(back.memory_budget_mb, full.memory_budget_mb);
  EXPECT_EQ(back.model_size_budget_mb, full.model_size_budget_mb);
  EXPECT_EQ(back.latency_scale_ms, full.latency_scale_ms);
  EXPECT_EQ(back.constrain_to_reference, full.constrain_to_reference);
  EXPECT_EQ(back.train_supernet, full.train_supernet);
  EXPECT_EQ(back.eval_cache_path, full.eval_cache_path);
  EXPECT_EQ(back.seed, full.seed);
  EXPECT_EQ(back.train_lr, full.train_lr);
  EXPECT_EQ(api::context_compatible(full, back).to_string(), "OK");
}

TEST(NetProtocol, StatusAndReportRoundTrip) {
  for (const api::Status& status :
       {api::Status::Ok(), api::Status::InvalidArgument("bad \n input"),
        api::Status::NotFound("no such device"),
        api::Status::DeadlineExceeded("expired"),
        api::Status::ResourceExhausted("queue full"),
        api::Status::Cancelled("peer gone"),
        api::Status::Unavailable("broken pipe")}) {
    Writer w;
    encode_status(status, &w);
    Reader r(w.bytes());
    api::Status back;
    ASSERT_TRUE(decode_status(&r, &back));
    EXPECT_TRUE(r.exhausted());
    EXPECT_EQ(back, status);
  }

  api::ProfileReport prof;
  prof.latency_ms = 12.5;
  prof.peak_memory_mb = 3.25;
  prof.energy_mj = 0.125;
  prof.param_mb = 1.0 / 3.0;
  prof.oom = true;
  prof.breakdown = "Sample 40% | Aggregate 30%";
  prof.per_op_table = "op\tms\nknn\t7.5\n";
  for (std::size_t i = 0; i < prof.category_fraction.size(); ++i)
    prof.category_fraction[i] = 0.1 * static_cast<double>(i + 1);
  prof.reference_latency_ms = 21.0;
  prof.speedup_vs_reference = 1.68;
  prof.search_cache_hits = 17;
  prof.search_cache_misses = 4;
  Writer w;
  encode_profile_report(prof, &w);
  Reader r(w.bytes());
  api::ProfileReport back;
  ASSERT_TRUE(decode_profile_report(&r, &back));
  EXPECT_TRUE(r.exhausted());
  Writer again;
  encode_profile_report(back, &again);
  EXPECT_EQ(w.bytes(), again.bytes());  // bit-identical re-encoding
}

TEST(NetProtocol, PredictBatchReplyCarriesPerElementResults) {
  api::LatencyReport rep;
  rep.latency_ms = 4.5;
  std::vector<api::Result<api::LatencyReport>> results;
  results.emplace_back(rep);
  results.emplace_back(api::Status::InvalidArgument("bad genome"));
  results.emplace_back(rep);
  const std::string payload = encode_predict_batch_reply(results);

  Reader r(payload);
  std::vector<api::Result<api::LatencyReport>> back;
  ASSERT_TRUE(decode_predict_batch_reply(&r, &back));
  ASSERT_EQ(back.size(), 3u);
  EXPECT_TRUE(back[0].ok());
  EXPECT_DOUBLE_EQ(back[0].value().latency_ms, 4.5);
  ASSERT_FALSE(back[1].ok());
  EXPECT_EQ(back[1].status().code(), api::StatusCode::kInvalidArgument);
  EXPECT_TRUE(back[2].ok());
}

// ---- decoder fuzz ----------------------------------------------------------

/// Every strict prefix of a valid payload must fail to decode — cleanly,
/// without crashing or reading past the buffer (ASAN-checked in CI).
template <typename DecodeFn>
void expect_all_truncations_fail(const std::string& payload,
                                 DecodeFn decode) {
  for (std::size_t len = 0; len < payload.size(); ++len) {
    Reader r(payload.data(), len);
    const bool decoded = decode(&r);
    EXPECT_FALSE(decoded && r.exhausted())
        << "truncated payload decoded at length " << len;
  }
}

TEST(NetProtocolFuzz, TruncatedPayloadsNeverDecode) {
  const api::EngineConfig cfg = tiny_cfg();
  const std::vector<api::Arch> archs = sample_archs(cfg, 2);

  Writer search;
  encode_search_request(std::make_optional(cfg), &search);
  expect_all_truncations_fail(search.bytes(), [](Reader* r) {
    std::optional<api::EngineConfig> out;
    return decode_search_request(r, &out);
  });

  Writer batch;
  encode_predict_batch_request(archs, &batch);
  expect_all_truncations_fail(batch.bytes(), [](Reader* r) {
    std::vector<api::Arch> out;
    return decode_predict_batch_request(r, &out);
  });

  Writer baseline;
  encode_profile_baseline_request({"dgcnn", api::Workload{}}, &baseline);
  expect_all_truncations_fail(baseline.bytes(), [](Reader* r) {
    BaselineQuery out;
    return decode_profile_baseline_request(r, &out);
  });

  api::ProfileReport prof;
  prof.breakdown = "some text";
  Writer reply;
  encode_status(api::Status::Ok(), &reply);
  encode_profile_report(prof, &reply);
  expect_all_truncations_fail(reply.bytes(), [](Reader* r) {
    api::Result<api::ProfileReport> out = api::Status::Internal("seed");
    return decode_reply<api::ProfileReport>(
        r,
        [](Reader* rr, api::ProfileReport* p) {
          return decode_profile_report(rr, p);
        },
        &out);
  });
}

TEST(NetProtocolFuzz, BitFlippedPayloadsNeverCrash) {
  // Deterministic single-bit flips over a structured payload: decode must
  // either fail cleanly or produce *some* value (a flipped enum field is
  // structurally valid by design — semantic validation is the engine's
  // job). The assertion is the absence of crashes / over-reads.
  const api::EngineConfig cfg = tiny_cfg();
  Writer w;
  encode_search_request(std::make_optional(cfg), &w);
  const std::string payload = w.bytes();

  Rng rng(fuzz_seed(1234));
  for (int trial = 0; trial < 400; ++trial) {
    std::string flipped = payload;
    const std::size_t byte = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(payload.size()) - 1));
    const int bit = static_cast<int>(rng.uniform_int(0, 7));
    flipped[byte] = static_cast<char>(flipped[byte] ^ (1 << bit));
    Reader r(flipped);
    std::optional<api::EngineConfig> out;
    const bool decoded = decode_search_request(&r, &out) && r.exhausted();
    (void)decoded;  // either outcome is fine; surviving is the test
  }

  // Random garbage of assorted sizes.
  for (int trial = 0; trial < 200; ++trial) {
    const std::int64_t len = rng.uniform_int(0, 160);
    std::string garbage;
    for (std::int64_t i = 0; i < len; ++i)
      garbage.push_back(static_cast<char>(rng.uniform_int(0, 255)));
    Reader r(garbage);
    std::vector<api::Arch> out;
    (void)decode_predict_batch_request(&r, &out);
  }
}

TEST(NetProtocol, StatsSnapshotRoundTrip) {
  obs::Snapshot snap;
  snap["net.frames_received"] = 12;
  snap["serve.requests"] = 3;
  snap["serve.queue_wait_us.p99_us"] = 114687;
  snap["weird name \"with\" quotes\n"] = -1;  // names are opaque strings
  Writer w;
  encode_stats_snapshot(snap, &w);
  Reader r(w.bytes());
  obs::Snapshot out;
  ASSERT_TRUE(decode_stats_snapshot(&r, &out));
  EXPECT_TRUE(r.exhausted());
  EXPECT_EQ(out, snap);
}

TEST(NetProtocolFuzz, CorruptStatsPayloadsNeverCrash) {
  obs::Snapshot snap;
  snap["serve.requests"] = 41;
  snap["net.replies_sent"] = 40;
  snap["serve.service_time_us.p50_us"] = 255;
  Writer w;
  encode_stats_snapshot(snap, &w);
  const std::string payload = w.bytes();

  expect_all_truncations_fail(payload, [](Reader* r) {
    obs::Snapshot out;
    return decode_stats_snapshot(r, &out);
  });

  // Bit flips: a corrupt count / length either fails cleanly or decodes
  // to some map — never over-reads (ASAN) or over-allocates (the decoder
  // bounds count against the max payload).
  Rng rng(fuzz_seed(2024));
  for (int trial = 0; trial < 400; ++trial) {
    std::string flipped = payload;
    const std::size_t byte = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(payload.size()) - 1));
    const int bit = static_cast<int>(rng.uniform_int(0, 7));
    flipped[byte] = static_cast<char>(flipped[byte] ^ (1 << bit));
    Reader r(flipped);
    obs::Snapshot out;
    (void)decode_stats_snapshot(&r, &out);
  }
}

// ---- remote vs local -------------------------------------------------------

TEST(NetServer, RemoteAnswersBitIdenticalToInProcess) {
  const api::EngineConfig cfg = tiny_cfg();
  const std::vector<api::Arch> archs = sample_archs(cfg, 6);

  ServerConfig server_cfg;
  server_cfg.service.num_workers = 2;
  auto server = Server::create(cfg, server_cfg);
  ASSERT_TRUE(server.ok()) << server.status().to_string();
  ASSERT_GT(server.value()->port(), 0);
  auto client = Client::connect("127.0.0.1", server.value()->port());
  ASSERT_TRUE(client.ok()) << client.status().to_string();
  Client& remote = client.value();

  // The in-process reference: a service of its own (same config, fresh
  // context, same deterministic seed), driven through the same verb
  // sequence so exclusive requests consume the context RNG identically.
  serve::ServiceConfig local_cfg;
  local_cfg.num_workers = 1;
  auto local = serve::Service::create(cfg, local_cfg);
  ASSERT_TRUE(local.ok()) << local.status().to_string();
  auto engine = api::Engine::create(cfg, local.value()->context());
  ASSERT_TRUE(engine.ok());

  // search #1 (exclusive): full SearchReport must match bit-for-bit.
  api::Result<api::SearchReport> remote_search = remote.search();
  ASSERT_TRUE(remote_search.ok()) << remote_search.status().to_string();
  api::Result<api::SearchReport> local_search =
      local.value()->submit(serve::SearchRequest{}).get();
  ASSERT_TRUE(local_search.ok());
  {
    Writer a, b;
    encode_search_report(remote_search.value(), &a);
    encode_search_report(local_search.value(), &b);
    EXPECT_EQ(a.bytes(), b.bytes()) << "remote search diverged from local";
  }
  EXPECT_EQ(remote_search.value().result.best_arch,
            local_search.value().result.best_arch);

  // Pure verbs: lone predictions, a batch, profiles, a baseline.
  for (const api::Arch& a : archs) {
    api::Result<api::LatencyReport> r1 = remote.predict_latency(a);
    api::Result<api::LatencyReport> r2 = engine.value().predict_latency(a);
    ASSERT_TRUE(r1.ok() && r2.ok());
    EXPECT_DOUBLE_EQ(r1.value().latency_ms, r2.value().latency_ms);
    EXPECT_DOUBLE_EQ(r1.value().peak_memory_mb, r2.value().peak_memory_mb);

    api::Result<api::ProfileReport> p1 = remote.profile(a);
    api::Result<api::ProfileReport> p2 = engine.value().profile(a);
    ASSERT_TRUE(p1.ok() && p2.ok());
    Writer e1, e2;
    encode_profile_report(p1.value(), &e1);
    encode_profile_report(p2.value(), &e2);
    EXPECT_EQ(e1.bytes(), e2.bytes());
  }
  {
    api::Result<std::vector<api::LatencyReport>> b1 =
        remote.predict_batch(archs);
    api::Result<std::vector<api::LatencyReport>> b2 =
        engine.value().predict_batch(archs);
    ASSERT_TRUE(b1.ok() && b2.ok());
    ASSERT_EQ(b1.value().size(), b2.value().size());
    for (std::size_t i = 0; i < b1.value().size(); ++i)
      EXPECT_DOUBLE_EQ(b1.value()[i].latency_ms, b2.value()[i].latency_ms);
  }
  {
    api::Result<api::ProfileReport> r1 = remote.profile_baseline("dgcnn");
    api::Result<api::ProfileReport> r2 =
        engine.value().profile_baseline("dgcnn");
    ASSERT_TRUE(r1.ok() && r2.ok());
    EXPECT_DOUBLE_EQ(r1.value().latency_ms, r2.value().latency_ms);
  }

  // train_baseline then search #2 with a per-request config override:
  // the exclusive FIFO consumes the context RNG in the same order on
  // both sides.
  {
    api::Result<api::TrainReport> t1 = remote.train_baseline("tailor");
    api::Result<api::TrainReport> t2 =
        local.value()->submit(serve::TrainBaselineRequest{"tailor", {}}).get();
    ASSERT_TRUE(t1.ok()) << t1.status().to_string();
    ASSERT_TRUE(t2.ok());
    EXPECT_DOUBLE_EQ(t1.value().overall_acc, t2.value().overall_acc);
    EXPECT_DOUBLE_EQ(t1.value().param_mb, t2.value().param_mb);
  }
  {
    api::EngineConfig second = cfg;
    second.strategy = "random";
    second.train_supernet = false;
    api::Result<api::SearchReport> r1 = remote.search(second);
    api::Result<api::SearchReport> r2 =
        local.value()->submit(serve::SearchRequest{second, {}}).get();
    ASSERT_TRUE(r1.ok()) << r1.status().to_string();
    ASSERT_TRUE(r2.ok());
    Writer a, b;
    encode_search_report(r1.value(), &a);
    encode_search_report(r2.value(), &b);
    EXPECT_EQ(a.bytes(), b.bytes());
  }

  // Error relaying: unknown baseline comes back NOT_FOUND, same as local.
  {
    api::Result<api::ProfileReport> bad = remote.profile_baseline("nope");
    ASSERT_FALSE(bad.ok());
    EXPECT_EQ(bad.status().code(),
              engine.value().profile_baseline("nope").status().code());
  }
}

/// Transport decorator keeping a copy of every byte a client moves, so a
/// test can inspect the exact frames it sent and received.
class RecordingTransport final : public Transport {
 public:
  RecordingTransport(std::unique_ptr<Transport> inner, std::string* sent,
                     std::string* received)
      : inner_(std::move(inner)), sent_(sent), received_(received) {}

  ssize_t send(const char* data, std::size_t len) override {
    const ssize_t n = inner_->send(data, len);
    if (n > 0) sent_->append(data, static_cast<std::size_t>(n));
    return n;
  }
  ssize_t recv(char* buf, std::size_t len) override {
    const ssize_t n = inner_->recv(buf, len);
    if (n > 0) received_->append(buf, static_cast<std::size_t>(n));
    return n;
  }
  void shutdown_write() override { inner_->shutdown_write(); }
  int fd() const override { return inner_->fd(); }

 private:
  std::unique_ptr<Transport> inner_;
  std::string* sent_;
  std::string* received_;
};

/// FNV-1a of each whole frame in `stream`, keyed by its header's type field.
std::map<std::uint16_t, std::uint64_t> frame_hashes(const std::string& stream) {
  std::map<std::uint16_t, std::uint64_t> out;
  std::size_t pos = 0;
  while (stream.size() - pos >= kHeaderSize) {
    FrameHeader h;
    EXPECT_TRUE(decode_header(stream.data() + pos, stream.size() - pos, &h));
    const std::size_t len = kHeaderSize + h.payload_len;
    EXPECT_LE(len, stream.size() - pos) << "torn frame";
    if (len > stream.size() - pos) break;
    Fnv1a f;
    f.text(std::string_view(stream).substr(pos, len));
    EXPECT_EQ(out.count(h.type), 0u) << "type " << h.type << " sent twice";
    out[h.type] = f.h;
    pos += len;
  }
  EXPECT_EQ(pos, stream.size());
  return out;
}

TEST(NetProtocol, WireBytesArePinned) {
  // Every blocking verb once, with fixed inputs, over one connection: the
  // request frames and the deterministic reply frames must be byte-for-
  // byte what this protocol version has always sent. Ping and stats
  // replies carry uptime and timings, so only their requests are pinned.
  api::EngineConfig cfg = api::EngineConfig::tiny();
  cfg.evaluator = "oracle";
  const std::vector<api::Arch> archs = sample_archs(cfg, 2);
  auto server = Server::create(cfg);
  ASSERT_TRUE(server.ok()) << server.status().to_string();

  std::string sent, received;
  ClientConfig ccfg;
  ccfg.port = server.value()->port();
  ccfg.wrap_transport = [&](std::unique_ptr<Transport> inner) {
    return std::make_unique<RecordingTransport>(std::move(inner), &sent,
                                                &received);
  };
  auto client = Client::connect(ccfg);
  ASSERT_TRUE(client.ok()) << client.status().to_string();
  Client& remote = client.value();

  api::EngineConfig search_cfg = cfg;
  search_cfg.strategy = "random";
  search_cfg.iterations = 2;
  ASSERT_TRUE(remote.search(search_cfg).ok());
  ASSERT_TRUE(remote.predict_latency(archs[0]).ok());
  ASSERT_TRUE(remote.predict_batch(archs).ok());
  ASSERT_TRUE(remote.profile(archs[1]).ok());
  ASSERT_TRUE(remote.profile_baseline("dgcnn", api::Workload{}).ok());
  ASSERT_TRUE(remote.train_baseline("tailor").ok());
  ASSERT_TRUE(remote.ping().ok());
  ASSERT_TRUE(remote.stats().ok());

  const std::map<std::uint16_t, std::uint64_t> requests = frame_hashes(sent);
  const std::map<std::uint16_t, std::uint64_t> replies =
      frame_hashes(received);
  struct Pin {
    FrameType type;
    std::uint64_t request;
    std::uint64_t reply;  // 0: not deterministic, not pinned
  };
  const Pin pins[] = {
      {FrameType::kSearch, 0x0713c8ff09a4f43full, 0xcae2504180c78bbcull},
      {FrameType::kPredictLatency, 0x8e014fd32dd4bb97ull,
       0xb27a995a0c9d7f48ull},
      {FrameType::kPredictBatchN, 0xdcbc778a4f781416ull,
       0x4235b6c283413c4full},
      {FrameType::kProfile, 0xec389e1f177a4210ull, 0x062a2ae1d633adf0ull},
      {FrameType::kProfileBaseline, 0x2e481b5591734d62ull,
       0x761e5b96040ee835ull},
      {FrameType::kTrainBaseline, 0x58cf1d2d229546f6ull,
       0x6ba33d366bc5f54aull},
      {FrameType::kPing, 0x6e4d8cf69cad8cd8ull, 0},
      {FrameType::kStats, 0xcf5974651474d4d5ull, 0},
  };
  ASSERT_EQ(requests.size(), std::size(pins));
  ASSERT_EQ(replies.size(), std::size(pins));
  for (const Pin& pin : pins) {
    const auto type = static_cast<std::uint16_t>(pin.type);
    const auto reply_type = static_cast<std::uint16_t>(type | kReplyBit);
    ASSERT_EQ(requests.count(type), 1u) << "no request of type " << type;
    ASSERT_EQ(replies.count(reply_type), 1u) << "no reply of type " << type;
    EXPECT_EQ(requests.at(type), pin.request)
        << "request type " << type << " hashes to 0x" << std::hex
        << requests.at(type);
    if (pin.reply != 0) {
      EXPECT_EQ(replies.at(reply_type), pin.reply)
          << "reply type " << type << " hashes to 0x" << std::hex
          << replies.at(reply_type);
    }
  }
}

TEST(NetServer, StatsKeySetIsPinned) {
  // The kStats key set after one call of each verb and one ping is the
  // wire's stats schema: perfbench and every remote scraper read these
  // names, so adding, renaming or dropping one must show up here.
  api::EngineConfig cfg = api::EngineConfig::tiny();
  cfg.evaluator = "oracle";
  const std::vector<api::Arch> archs = sample_archs(cfg, 2);
  auto server = Server::create(cfg);
  ASSERT_TRUE(server.ok()) << server.status().to_string();
  auto client = Client::connect("127.0.0.1", server.value()->port());
  ASSERT_TRUE(client.ok()) << client.status().to_string();
  Client& remote = client.value();

  api::EngineConfig search_cfg = cfg;
  search_cfg.strategy = "random";
  search_cfg.iterations = 2;
  ASSERT_TRUE(remote.search(search_cfg).ok());
  ASSERT_TRUE(remote.predict_latency(archs[0]).ok());
  ASSERT_TRUE(remote.predict_batch(archs).ok());
  ASSERT_TRUE(remote.profile(archs[1]).ok());
  ASSERT_TRUE(remote.profile_baseline("dgcnn", api::Workload{}).ok());
  ASSERT_TRUE(remote.train_baseline("tailor").ok());
  ASSERT_TRUE(remote.ping().ok());
  api::Result<obs::Snapshot> scraped = remote.stats();
  ASSERT_TRUE(scraped.ok()) << scraped.status().to_string();

  std::vector<std::string> keys;
  for (const auto& [name, value] : scraped.value()) keys.push_back(name);
  const std::vector<std::string> expected = {
      "net.connections_closed",
      "net.connections_dropped",
      "net.connections_opened",
      "net.connections_refused",
      "net.frames_received",
      "net.frames_rejected",
      "net.oversized_replies",
      "net.replies_sent",
      "net.version_mismatches",
      "serve.cancelled_requests",
      "serve.deadline_expired",
      "serve.drain_started",
      "serve.exclusive_queue_wait_us.count",
      "serve.exclusive_queue_wait_us.p50_us",
      "serve.exclusive_queue_wait_us.p99_us",
      "serve.exclusive_requests",
      "serve.exclusive_service_time_us.count",
      "serve.exclusive_service_time_us.p50_us",
      "serve.exclusive_service_time_us.p99_us",
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
      "serve.refused_requests",
      "serve.rejected_requests",
      "serve.requests",
      "serve.service_time_us.count",
      "serve.service_time_us.p50_us",
      "serve.service_time_us.p99_us",
      "serve.sheds_with_hint",
      "serve.starved_runs",
      "serve.step_us.count",
      "serve.step_us.p50_us",
      "serve.step_us.p99_us",
  };
  EXPECT_EQ(keys, expected);
}

TEST(NetServer, RemoteStatsMatchLocalCounters) {
  const api::EngineConfig cfg = tiny_cfg();
  const std::vector<api::Arch> archs = sample_archs(cfg, 4);

  ServerConfig server_cfg;
  server_cfg.service.num_workers = 2;
  auto server = Server::create(cfg, server_cfg);
  ASSERT_TRUE(server.ok()) << server.status().to_string();
  auto client = Client::connect("127.0.0.1", server.value()->port());
  ASSERT_TRUE(client.ok()) << client.status().to_string();
  Client& remote = client.value();

  ASSERT_TRUE(remote.ping().ok());
  for (const api::Arch& a : archs)
    ASSERT_TRUE(remote.predict_latency(a).ok());

  api::Result<obs::Snapshot> scraped = remote.stats();
  ASSERT_TRUE(scraped.ok()) << scraped.status().to_string();
  const obs::Snapshot& snap = scraped.value();

  // One registry, two views: the wire snapshot must equal the local one
  // key for key (every verb above completed before the scrape). The one
  // exception is net.replies_sent, which trails by the scrape's own reply:
  // the snapshot was taken after the kStats frame arrived but before its
  // reply went out.
  const obs::Snapshot local = server.value()->service()->metrics_snapshot();
  ASSERT_EQ(snap.size(), local.size());
  for (const auto& [name, value] : local) {
    ASSERT_EQ(snap.count(name), 1u) << name;
    const std::int64_t trailing = name == "net.replies_sent" ? 1 : 0;
    EXPECT_EQ(snap.at(name), value - trailing) << name;
  }
  EXPECT_EQ(snap.at("serve.pings"), 1);
  EXPECT_EQ(snap.at("serve.predict_requests"), 4);
  EXPECT_EQ(snap.at("serve.queue_depth"), 0);
  EXPECT_EQ(snap.at("net.frames_rejected"), 0);
  EXPECT_GT(snap.at("serve.service_time_us.count"), 0);

  // A second scrape counts the first one's reply.
  api::Result<obs::Snapshot> again = remote.stats();
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again.value().at("net.replies_sent"),
            local.at("net.replies_sent"));
}

TEST(NetServer, WireRequestIdBecomesServerTraceId) {
  // The frame header's request id is the trace id of every server-side
  // span for that request: socket receipt ("net.request"), queue wait and
  // execution ("serve.*") are all attributable to the originating call.
  obs::TraceCollector::global().stop();
  obs::TraceCollector::global().start();

  const api::EngineConfig cfg = tiny_cfg();
  const std::vector<api::Arch> archs = sample_archs(cfg, 1);
  ServerConfig server_cfg;
  server_cfg.service.num_workers = 1;
  auto server = Server::create(cfg, server_cfg);
  ASSERT_TRUE(server.ok()) << server.status().to_string();
  auto client = Client::connect("127.0.0.1", server.value()->port());
  ASSERT_TRUE(client.ok()) << client.status().to_string();

  api::Result<std::uint64_t> id =
      client.value().send(verbs::kPredictLatency, archs[0]);
  ASSERT_TRUE(id.ok()) << id.status().to_string();
  ASSERT_TRUE(client.value().wait(verbs::kPredictLatency, id.value()).ok());

  // Spans are recorded after the worker fulfills the promise (the span
  // covers the full execution, so recording necessarily trails the
  // reply), so the client can get here a beat before the execution span
  // lands in the collector — poll briefly instead of reading once.
  bool saw_net = false, saw_queue_wait = false, saw_exec = false;
  const auto poll_deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  do {
    for (const obs::TraceEvent& ev :
         obs::TraceCollector::global().events()) {
      if (ev.trace_id != id.value()) continue;
      if (ev.name == "net.request") saw_net = true;
      if (ev.name == "serve.queue_wait") saw_queue_wait = true;
      if (ev.name == "serve.pure" || ev.name == "serve.predict_batch")
        saw_exec = true;
    }
    if (saw_net && saw_queue_wait && saw_exec) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  } while (std::chrono::steady_clock::now() < poll_deadline);
  obs::TraceCollector::global().stop();
  EXPECT_TRUE(saw_net) << "no net.request span under the wire request id";
  EXPECT_TRUE(saw_queue_wait)
      << "no serve.queue_wait span under the wire request id";
  EXPECT_TRUE(saw_exec) << "no execution span under the wire request id";
}

// ---- queue-time semantics --------------------------------------------------

TEST(NetServer, DeadlineExpiresQueuedRequestWithoutRunning) {
  const api::EngineConfig cfg = tiny_cfg();
  ServerConfig server_cfg;
  server_cfg.service.num_workers = 1;  // one worker: a stall holds all
  auto server = Server::create(cfg, server_cfg);
  ASSERT_TRUE(server.ok()) << server.status().to_string();
  auto client = Client::connect("127.0.0.1", server.value()->port());
  ASSERT_TRUE(client.ok());
  Client& remote = client.value();

  const std::vector<api::Arch> archs = sample_archs(cfg, 1);
  std::uint64_t stall_id = 0;
  ASSERT_TRUE(send_stall(remote, &stall_id));
  // 1 µs of queue budget: expired long before the stall lets it run.
  auto doomed_id = remote.send(verbs::kProfile, archs[0], /*deadline_us=*/1);
  ASSERT_TRUE(doomed_id.ok());
  // Generous budget: survives the queue wait.
  auto fine_id =
      remote.send(verbs::kProfile, archs[0], /*deadline_us=*/60'000'000);
  ASSERT_TRUE(fine_id.ok());
  wait_for_requests(*server.value(), 3);
  hg::testing::StallGate::instance().open();

  api::Result<api::ProfileReport> doomed =
      remote.wait(verbs::kProfile, doomed_id.value());
  ASSERT_FALSE(doomed.ok());
  EXPECT_EQ(doomed.status().code(), api::StatusCode::kDeadlineExceeded);
  api::Result<api::ProfileReport> fine =
      remote.wait(verbs::kProfile, fine_id.value());
  EXPECT_TRUE(fine.ok()) << fine.status().to_string();
  EXPECT_TRUE(remote.wait(verbs::kProfileBaseline, stall_id).ok());

  EXPECT_GE(stat(*server.value(), "serve.deadline_expired"), 1);
}

TEST(NetServer, DeadlineExpiresMidRunOverTheWire) {
  // A deadline is honored even after the search has STARTED: the runner
  // checks it between steps and aborts the partially-advanced run. The
  // client just sees a clean DEADLINE_EXCEEDED over the wire.
  const api::EngineConfig cfg = tiny_cfg();
  ServerConfig server_cfg;
  server_cfg.service.num_workers = 1;
  auto server = Server::create(cfg, server_cfg);
  ASSERT_TRUE(server.ok()) << server.status().to_string();
  auto client = Client::connect("127.0.0.1", server.value()->port());
  ASSERT_TRUE(client.ok());
  Client& remote = client.value();

  // Per-request override: a search far too long for its 300 ms budget.
  api::EngineConfig huge = cfg;
  huge.iterations = 500;
  auto search_id = remote.send(verbs::kSearch, huge, /*deadline_us=*/300'000);
  ASSERT_TRUE(search_id.ok());
  // Confirm the search was actually under way (not expired while queued)
  // before the deadline can fire.
  ASSERT_TRUE(wait_for_stat(*server.value(), "serve.step_us.count", 1))
      << "search never took a step";

  api::Result<api::SearchReport> r =
      remote.wait(verbs::kSearch, search_id.value());
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), api::StatusCode::kDeadlineExceeded);
  EXPECT_GE(stat(*server.value(), "serve.deadline_expired"), 1);

  // The runner is free again and the server keeps serving.
  auto fine_id = remote.send(verbs::kSearch, {});
  ASSERT_TRUE(fine_id.ok());
  EXPECT_TRUE(remote.wait(verbs::kSearch, fine_id.value()).ok());
}

TEST(NetServer, PredictionDuringSearchResolvesFirstAndBitIdentical) {
  // Over the wire as in process: a prediction sent while a search runs is
  // answered before the search ends, at any worker count, bit-identical
  // to a lone Engine::predict_latency; the search still returns what a
  // solo run returns.
  api::EngineConfig cfg = tiny_cfg();
  cfg.iterations = 60;  // a search that outlasts a prediction many times
  // Probe arch and lone answer from a throwaway engine (sample_arch()
  // draws from its context's RNG); the reference search starts from a
  // virgin context, like the server's runner.
  auto lone = api::Engine::create(cfg);
  ASSERT_TRUE(lone.ok()) << lone.status().to_string();
  const api::Arch arch = lone.value().sample_arch();
  const api::Result<api::LatencyReport> expected_latency =
      lone.value().predict_latency(arch);
  ASSERT_TRUE(expected_latency.ok());
  auto reference = api::Engine::create(cfg);
  ASSERT_TRUE(reference.ok());
  const api::Result<api::SearchReport> expected = reference.value().search();
  ASSERT_TRUE(expected.ok());

  for (const std::int64_t workers : {std::int64_t{1}, std::int64_t{2}}) {
    SCOPED_TRACE("workers " + std::to_string(workers));
    ServerConfig server_cfg;
    server_cfg.service.num_workers = workers;
    auto server = Server::create(cfg, server_cfg);
    ASSERT_TRUE(server.ok()) << server.status().to_string();
    auto searcher = Client::connect("127.0.0.1", server.value()->port());
    auto prober = Client::connect("127.0.0.1", server.value()->port());
    ASSERT_TRUE(searcher.ok() && prober.ok());

    auto search_id = searcher.value().send(verbs::kSearch, {});
    ASSERT_TRUE(search_id.ok());
    ASSERT_TRUE(wait_for_stat(*server.value(), "serve.step_us.count", 1));
    const api::Result<api::LatencyReport> predicted =
        prober.value().predict_latency(arch);
    // The runner records the run's service time before it answers.
    EXPECT_EQ(stat(*server.value(), "serve.exclusive_service_time_us.count"),
              0)
        << "the prediction waited for the search";
    ASSERT_TRUE(predicted.ok()) << predicted.status().to_string();
    EXPECT_EQ(predicted.value().latency_ms,
              expected_latency.value().latency_ms);

    const api::Result<api::SearchReport> got =
        searcher.value().wait(verbs::kSearch, search_id.value());
    ASSERT_TRUE(got.ok()) << got.status().to_string();
    EXPECT_EQ(got.value().result.best_arch,
              expected.value().result.best_arch);
    EXPECT_EQ(got.value().result.best_objective,
              expected.value().result.best_objective);
    EXPECT_EQ(got.value().result.total_sim_time_s,
              expected.value().result.total_sim_time_s);
    EXPECT_EQ(got.value().result.latency_queries,
              expected.value().result.latency_queries);
  }
}

TEST(NetServer, BoundedQueueRejectsOverLimitSubmissions) {
  const api::EngineConfig cfg = tiny_cfg();
  ServerConfig server_cfg;
  server_cfg.service.num_workers = 1;
  server_cfg.service.max_queue_depth = 2;
  auto server = Server::create(cfg, server_cfg);
  ASSERT_TRUE(server.ok()) << server.status().to_string();
  auto client = Client::connect("127.0.0.1", server.value()->port());
  ASSERT_TRUE(client.ok());
  Client& remote = client.value();

  const std::vector<api::Arch> archs = sample_archs(cfg, 1);
  std::uint64_t stall_id = 0;
  ASSERT_TRUE(send_stall(remote, &stall_id));  // the stall holds the worker

  // With the worker stalled, only max_queue_depth submissions fit; the
  // rest must bounce immediately with RESOURCE_EXHAUSTED.
  constexpr int kFlood = 8;
  std::vector<std::uint64_t> ids;
  for (int i = 0; i < kFlood; ++i) {
    auto id = remote.send(verbs::kProfile, archs[0]);
    ASSERT_TRUE(id.ok());
    ids.push_back(id.value());
  }
  wait_for_requests(*server.value(), 1 + kFlood);  // every one admitted or not
  hg::testing::StallGate::instance().open();
  int ok = 0, rejected = 0;
  for (std::uint64_t id : ids) {
    api::Result<api::ProfileReport> r = remote.wait(verbs::kProfile, id);
    if (r.ok()) {
      ++ok;
    } else {
      EXPECT_EQ(r.status().code(), api::StatusCode::kResourceExhausted)
          << r.status().to_string();
      ++rejected;
    }
  }
  EXPECT_EQ(ok, 2);
  EXPECT_EQ(rejected, kFlood - 2);
  EXPECT_TRUE(remote.wait(verbs::kProfileBaseline, stall_id).ok());
  EXPECT_EQ(stat(*server.value(), "serve.rejected_requests"),
            kFlood - 2);
}

TEST(NetServer, DisconnectCancelsThatConnectionsQueuedRequests) {
  const api::EngineConfig cfg = tiny_cfg();
  ServerConfig server_cfg;
  server_cfg.service.num_workers = 1;
  auto server = Server::create(cfg, server_cfg);
  ASSERT_TRUE(server.ok()) << server.status().to_string();

  const std::vector<api::Arch> archs = sample_archs(cfg, 1);
  {
    auto doomed = Client::connect("127.0.0.1", server.value()->port());
    ASSERT_TRUE(doomed.ok());
    // The stall occupies the worker.
    std::uint64_t stall_id = 0;
    ASSERT_TRUE(send_stall(doomed.value(), &stall_id));
    for (int i = 0; i < 4; ++i)
      ASSERT_TRUE(doomed.value().send(verbs::kProfile, archs[0]).ok());
    wait_for_requests(*server.value(), 5);  // all admitted server-side
    // Destructor closes the socket: the server must flag this
    // connection's queued profiles as cancelled.
  }
  ASSERT_TRUE(wait_for_stat(*server.value(), "net.connections_closed", 1));
  hg::testing::StallGate::instance().open();

  // A second client's request drains *behind* the doomed ones (pure FIFO),
  // so its completion proves the cancelled ones were resolved first.
  auto fresh = Client::connect("127.0.0.1", server.value()->port());
  ASSERT_TRUE(fresh.ok());
  api::Result<api::ProfileReport> after =
      fresh.value().profile(archs[0]);
  EXPECT_TRUE(after.ok()) << after.status().to_string();
  EXPECT_GE(stat(*server.value(), "serve.cancelled_requests"), 4);
}

TEST(NetServer, PredictWindowCoalescesRemoteTrickleTraffic) {
  // Remote trickle: one lone prediction per pipelined frame, a few ms
  // apart. Without a window every query fires as its own batch; with
  // ServiceConfig::predict_window_us the first worker to pick one up
  // waits for the stragglers, so predict_batches stays well below
  // predict_requests — and every answer is still bit-identical.
  api::EngineConfig cfg = tiny_cfg();
  cfg.evaluator = "predictor";
  cfg.predictor_samples = 40;
  cfg.predictor_epochs = 4;

  ServerConfig server_cfg;
  server_cfg.service.num_workers = 2;
  server_cfg.service.predict_window_us = 150'000;  // 150 ms
  auto server = Server::create(cfg, server_cfg);
  ASSERT_TRUE(server.ok()) << server.status().to_string();
  auto client = Client::connect("127.0.0.1", server.value()->port());
  ASSERT_TRUE(client.ok());
  Client& remote = client.value();

  auto engine =
      api::Engine::create(cfg, server.value()->service()->context());
  ASSERT_TRUE(engine.ok());
  std::vector<api::Arch> archs;
  for (int i = 0; i < 8; ++i) archs.push_back(engine.value().sample_arch());

  std::vector<std::uint64_t> ids;
  for (const api::Arch& a : archs) {
    auto id = remote.send(verbs::kPredictLatency, a);
    ASSERT_TRUE(id.ok());
    std::this_thread::sleep_for(3ms);  // trickle, well inside the window
  }
  for (std::size_t i = 0; i < archs.size(); ++i) {
    // Ids are sequential from the connection's first request (1-based).
    api::Result<api::LatencyReport> served =
        remote.wait(verbs::kPredictLatency, static_cast<std::uint64_t>(i + 1));
    ASSERT_TRUE(served.ok()) << served.status().to_string();
    api::Result<api::LatencyReport> direct =
        engine.value().predict_latency(archs[i]);
    ASSERT_TRUE(direct.ok());
    EXPECT_DOUBLE_EQ(served.value().latency_ms, direct.value().latency_ms);
  }

  const obs::Snapshot stats = server.value()->service()->metrics_snapshot();
  EXPECT_EQ(stats.at("serve.predict_requests"), 8);
  EXPECT_LT(stats.at("serve.predict_batches"),
            stats.at("serve.predict_requests"));
  EXPECT_GT(stats.at("serve.max_predict_batch"), 1);
}

TEST(ServeWindow, ZeroWindowPreservesEagerDraining) {
  // predict_window_us = 0 (the default) must keep the historical
  // fire-immediately behavior: an idle worker answers a lone query
  // without waiting for company.
  api::EngineConfig cfg = tiny_cfg();
  cfg.evaluator = "predictor";
  cfg.predictor_samples = 40;
  cfg.predictor_epochs = 4;
  serve::ServiceConfig scfg;
  scfg.num_workers = 2;
  auto service = serve::Service::create(cfg, scfg);
  ASSERT_TRUE(service.ok()) << service.status().to_string();
  auto engine = api::Engine::create(cfg, service.value()->context());
  ASSERT_TRUE(engine.ok());

  const api::Arch arch = engine.value().sample_arch();
  const auto start = std::chrono::steady_clock::now();
  auto lone =
      service.value()->submit(serve::PredictLatencyRequest{arch, {}});
  ASSERT_TRUE(lone.get().ok());
  const auto elapsed = std::chrono::steady_clock::now() - start;
  // Far below any plausible window; just prove nobody slept on purpose.
  EXPECT_LT(elapsed, 5s);
  EXPECT_EQ(stat(*service.value(), "serve.predict_batches"), 1);
}

// ---- raw-socket robustness -------------------------------------------------

/// A raw loopback connection for feeding the server hostile bytes.
class RawConn {
 public:
  explicit RawConn(std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
        0) {
      ::close(fd_);
      fd_ = -1;
    }
  }
  ~RawConn() {
    if (fd_ >= 0) ::close(fd_);
  }

  bool ok() const { return fd_ >= 0; }
  int fd() const { return fd_; }
  void send_bytes(const std::string& bytes) const {
    (void)!::send(fd_, bytes.data(), bytes.size(), MSG_NOSIGNAL);
  }
  /// FIN our write side; the read side stays open for replies.
  void half_close() const { ::shutdown(fd_, SHUT_WR); }
  /// Blocks until the peer closes (true) or data arrives (false).
  bool closed_by_peer() const {
    char buf[256];
    const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
    return n == 0;
  }

 private:
  int fd_ = -1;
};

TEST(NetServerFuzz, HostileFramesNeverCrashTheServer) {
  const api::EngineConfig cfg = tiny_cfg();
  auto server = Server::create(cfg);
  ASSERT_TRUE(server.ok()) << server.status().to_string();
  const std::uint16_t port = server.value()->port();
  const std::vector<api::Arch> archs = sample_archs(cfg, 1);

  {  // Bad magic: the connection must be dropped.
    RawConn conn(port);
    ASSERT_TRUE(conn.ok());
    conn.send_bytes("GARBAGE! definitely not a frame header, and then "
                    "some more bytes for good measure");
    EXPECT_TRUE(conn.closed_by_peer());
  }
  {  // Oversized length prefix: dropped before any allocation.
    FrameHeader h;
    h.type = static_cast<std::uint16_t>(FrameType::kPredictLatency);
    h.request_id = 7;
    h.payload_len = kMaxPayloadBytes + 1;
    std::string bytes;
    encode_header(h, &bytes);
    RawConn conn(port);
    ASSERT_TRUE(conn.ok());
    conn.send_bytes(bytes);
    EXPECT_TRUE(conn.closed_by_peer());
  }
  {  // Well-framed garbage payload: INVALID_ARGUMENT, connection lives.
    Writer garbage;
    garbage.u32(0xffffffffu);  // an absurd gene count
    garbage.u64(0);
    const std::string frame =
        encode_frame(FrameType::kPredictLatency, false, 11, 0,
                     garbage.bytes());
    RawConn conn(port);
    ASSERT_TRUE(conn.ok());
    conn.send_bytes(frame);
    // Read the reply through a protocol Reader.
    std::string buf;
    char chunk[4096];
    FrameHeader reply;
    for (;;) {
      const ssize_t n = ::recv(conn.fd(), chunk, sizeof(chunk), 0);
      ASSERT_GT(n, 0) << "server dropped a recoverable connection";
      buf.append(chunk, static_cast<std::size_t>(n));
      if (buf.size() >= kHeaderSize) {
        ASSERT_TRUE(decode_header(buf.data(), buf.size(), &reply));
        if (buf.size() >= kHeaderSize + reply.payload_len) break;
      }
    }
    EXPECT_EQ(reply.request_id, 11u);
    Reader r(buf.data() + kHeaderSize, reply.payload_len);
    api::Status status;
    ASSERT_TRUE(decode_status(&r, &status));
    EXPECT_EQ(status.code(), api::StatusCode::kInvalidArgument);
  }
  {  // Truncated frame then disconnect: server must not block or crash.
    Writer w;
    encode_predict_request(archs[0], &w);
    std::string frame =
        encode_frame(FrameType::kPredictLatency, false, 13, 0, w.bytes());
    frame.resize(frame.size() / 2);
    RawConn conn(port);
    ASSERT_TRUE(conn.ok());
    conn.send_bytes(frame);
  }

  // Deterministic bit-flips across a valid frame: each lands on a fresh
  // connection; whatever happens (drop, INVALID_ARGUMENT, or a normal
  // answer when the flip hit a don't-care bit), the server must survive.
  Writer w;
  encode_predict_request(archs[0], &w);
  const std::string valid =
      encode_frame(FrameType::kPredictLatency, false, 17, 0, w.bytes());
  Rng rng(fuzz_seed(99));
  for (int trial = 0; trial < 24; ++trial) {
    std::string flipped = valid;
    const std::size_t byte = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(valid.size()) - 1));
    flipped[byte] = static_cast<char>(
        flipped[byte] ^ (1 << rng.uniform_int(0, 7)));
    RawConn conn(port);
    ASSERT_TRUE(conn.ok());
    conn.send_bytes(flipped);
  }

  // After all of the above the server still serves correct answers.
  auto client = Client::connect("127.0.0.1", port);
  ASSERT_TRUE(client.ok());
  api::Result<api::ProfileReport> sane = client.value().profile(archs[0]);
  EXPECT_TRUE(sane.ok()) << sane.status().to_string();
}

/// Blocks until one complete reply frame arrives on a raw socket;
/// returns false on EOF/error before a full frame.
bool read_reply_frame(int fd, FrameHeader* header, std::string* payload) {
  std::string buf;
  char chunk[4096];
  for (;;) {
    if (buf.size() >= kHeaderSize) {
      if (!decode_header(buf.data(), buf.size(), header)) return false;
      if (buf.size() >= kHeaderSize + header->payload_len) {
        payload->assign(buf, kHeaderSize, header->payload_len);
        return true;
      }
    }
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) return false;
    buf.append(chunk, static_cast<std::size_t>(n));
  }
}

TEST(NetBatchFrame, BatchedFrameRunsAsOneServiceUnit) {
  // kPredictBatchN submits the whole frame as ONE unit of work: the
  // service must see one queue entry / one packed forward (not N racing
  // elements), and the answers must be bit-identical to a local
  // Engine::predict_batch.
  const api::EngineConfig cfg = tiny_cfg();
  const std::vector<api::Arch> archs = sample_archs(cfg, 8);

  ServerConfig server_cfg;
  server_cfg.service.num_workers = 2;
  auto server = Server::create(cfg, server_cfg);
  ASSERT_TRUE(server.ok()) << server.status().to_string();
  auto client = Client::connect("127.0.0.1", server.value()->port());
  ASSERT_TRUE(client.ok()) << client.status().to_string();

  api::Result<std::vector<api::LatencyReport>> remote =
      client.value().predict_batch(archs);
  ASSERT_TRUE(remote.ok()) << remote.status().to_string();
  ASSERT_EQ(remote.value().size(), archs.size());

  auto engine = api::Engine::create(cfg);
  ASSERT_TRUE(engine.ok());
  api::Result<std::vector<api::LatencyReport>> local =
      engine.value().predict_batch(archs);
  ASSERT_TRUE(local.ok());
  for (std::size_t i = 0; i < archs.size(); ++i)
    EXPECT_DOUBLE_EQ(remote.value()[i].latency_ms,
                     local.value()[i].latency_ms);

  const obs::Snapshot stats = server.value()->service()->metrics_snapshot();
  EXPECT_EQ(stats.at("serve.predict_requests"),
            static_cast<std::int64_t>(archs.size()));
  EXPECT_GE(stats.at("serve.predict_batches"), 1);
  EXPECT_GE(stats.at("serve.max_predict_batch"),
            static_cast<std::int64_t>(archs.size()));
}

TEST(NetBatchFrame, OversizedBatchRefusedPerElementWithoutRunning) {
  const api::EngineConfig cfg = tiny_cfg();
  const std::vector<api::Arch> seed = sample_archs(cfg, 1);

  ServerConfig server_cfg;
  server_cfg.shed_retry_after_us = 0;  // a deterministic refusal either way
  auto server = Server::create(cfg, server_cfg);
  ASSERT_TRUE(server.ok()) << server.status().to_string();
  auto client = Client::connect("127.0.0.1", server.value()->port());
  ASSERT_TRUE(client.ok()) << client.status().to_string();

  const std::vector<api::Arch> oversized(kMaxWireBatch + 1, seed[0]);
  api::Result<std::vector<api::LatencyReport>> r =
      client.value().predict_batch(oversized);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), api::StatusCode::kResourceExhausted);
  // Refused before submission: the service never saw the work.
  EXPECT_EQ(stat(*server.value(), "serve.requests"), 0);

  // The refusal is a clean per-request answer — the connection lives.
  api::Result<api::LatencyReport> sane =
      client.value().predict_latency(seed[0]);
  EXPECT_TRUE(sane.ok()) << sane.status().to_string();
}

TEST(NetBatchFrame, RetiredFrameTypeGetsTypedRefusal) {
  // Type 3 was the per-element multi-predict frame. It is retired: even
  // with a well-formed batch payload it must get the same typed refusal as
  // any unknown type (0, 11), under its request id, and the connection
  // must go on serving.
  const api::EngineConfig cfg = tiny_cfg();
  const std::vector<api::Arch> archs = sample_archs(cfg, 4);
  auto server = Server::create(cfg);
  ASSERT_TRUE(server.ok()) << server.status().to_string();
  RawConn conn(server.value()->port());
  ASSERT_TRUE(conn.ok());

  Writer batch;
  encode_predict_batch_request(archs, &batch);
  for (const std::uint16_t type : {3, 0, 11}) {
    const std::uint64_t id = 20 + type;
    conn.send_bytes(encode_frame(static_cast<FrameType>(type),
                                 /*reply=*/false, id, 0, batch.bytes()));
    FrameHeader reply;
    std::string payload;
    ASSERT_TRUE(read_reply_frame(conn.fd(), &reply, &payload))
        << "type " << type;
    EXPECT_EQ(reply.request_id, id);
    EXPECT_EQ(reply.type, type | kReplyBit);
    Reader r(payload);
    api::Status status;
    ASSERT_TRUE(decode_status(&r, &status));
    EXPECT_TRUE(r.exhausted());
    EXPECT_EQ(status.code(), api::StatusCode::kInvalidArgument);
    EXPECT_EQ(status.message(), "unknown frame type " + std::to_string(type));
  }
  EXPECT_EQ(stat(*server.value(), "serve.requests"), 0);

  // Same connection: a normal predict_latency is answered.
  Writer one;
  encode_predict_request(archs[0], &one);
  conn.send_bytes(encode_frame(FrameType::kPredictLatency, /*reply=*/false,
                               /*id=*/40, 0, one.bytes()));
  FrameHeader reply;
  std::string payload;
  ASSERT_TRUE(read_reply_frame(conn.fd(), &reply, &payload));
  EXPECT_EQ(reply.request_id, 40u);
  Reader r(payload);
  api::Result<api::LatencyReport> served = api::Status::Internal("unset");
  ASSERT_TRUE(decode_reply<api::LatencyReport>(
      &r, [](Reader* in, api::LatencyReport* out) {
        return decode_latency_report(in, out);
      },
      &served));
  ASSERT_TRUE(served.ok()) << served.status().to_string();
  auto engine = api::Engine::create(cfg);
  ASSERT_TRUE(engine.ok());
  EXPECT_EQ(served.value().latency_ms,
            engine.value().predict_latency(archs[0]).value().latency_ms);
}

TEST(NetBatchFrameFuzz, CorruptBatchFramesNeverCrashTheServer) {
  // Truncations and deterministic bit-flips over a valid kPredictBatchN
  // frame: whatever each lands as (drop, typed error, or a normal answer
  // on a don't-care bit), the server survives and keeps serving.
  const api::EngineConfig cfg = tiny_cfg();
  const std::vector<api::Arch> archs = sample_archs(cfg, 3);
  auto server = Server::create(cfg);
  ASSERT_TRUE(server.ok()) << server.status().to_string();
  const std::uint16_t port = server.value()->port();

  Writer w;
  encode_predict_batch_request(archs, &w);
  const std::string valid =
      encode_frame(FrameType::kPredictBatchN, false, 31, 0, w.bytes());

  Rng rng(fuzz_seed(1331));
  for (int trial = 0; trial < 16; ++trial) {  // truncation at random cuts
    std::string cut = valid;
    cut.resize(static_cast<std::size_t>(
        rng.uniform_int(1, static_cast<std::int64_t>(valid.size()) - 1)));
    RawConn conn(port);
    ASSERT_TRUE(conn.ok());
    conn.send_bytes(cut);
  }
  for (int trial = 0; trial < 24; ++trial) {  // single bit-flips
    std::string flipped = valid;
    const std::size_t byte = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(valid.size()) - 1));
    flipped[byte] =
        static_cast<char>(flipped[byte] ^ (1 << rng.uniform_int(0, 7)));
    RawConn conn(port);
    ASSERT_TRUE(conn.ok());
    conn.send_bytes(flipped);
  }

  auto client = Client::connect("127.0.0.1", port);
  ASSERT_TRUE(client.ok());
  api::Result<std::vector<api::LatencyReport>> sane =
      client.value().predict_batch(archs);
  EXPECT_TRUE(sane.ok()) << sane.status().to_string();
}

TEST(NetServer, GoodbyeThenHalfCloseStillAnswersPipelinedRequests) {
  // A client may pipeline its requests, announce kGoodbye, and
  // shutdown(SHUT_WR): requests that arrive together with the FIN must
  // be served, and the connection closed only after the last reply is
  // flushed. (Without the goodbye the FIN is an abandoning disconnect —
  // NetServer.DisconnectCancelsThatConnectionsQueuedRequests covers
  // that side.)
  const api::EngineConfig cfg = tiny_cfg();
  auto server = Server::create(cfg);
  ASSERT_TRUE(server.ok()) << server.status().to_string();
  const std::vector<api::Arch> archs = sample_archs(cfg, 2);

  RawConn conn(server.value()->port());
  ASSERT_TRUE(conn.ok());
  std::string frames;
  for (std::size_t i = 0; i < archs.size(); ++i) {
    Writer w;
    encode_predict_request(archs[i], &w);
    frames += encode_frame(FrameType::kProfile, false, i + 1, 0, w.bytes());
  }
  frames += encode_frame(FrameType::kGoodbye, false, 99, 0, "");
  conn.send_bytes(frames);
  conn.half_close();

  // Both replies arrive, then a clean EOF.
  std::string buf;
  char chunk[4096];
  std::size_t replies = 0;
  bool eof = false;
  while (!eof && replies < archs.size()) {
    const ssize_t n = ::recv(conn.fd(), chunk, sizeof(chunk), 0);
    if (n == 0) {
      eof = true;
      break;
    }
    ASSERT_GT(n, 0) << "recv failed while waiting for half-close replies";
    buf.append(chunk, static_cast<std::size_t>(n));
    for (;;) {
      if (buf.size() < kHeaderSize) break;
      FrameHeader h;
      ASSERT_TRUE(decode_header(buf.data(), buf.size(), &h));
      if (buf.size() < kHeaderSize + h.payload_len) break;
      EXPECT_EQ(h.type, static_cast<std::uint16_t>(FrameType::kProfile) |
                            kReplyBit);
      Reader r(buf.data() + kHeaderSize, h.payload_len);
      api::Result<api::ProfileReport> rep = api::Status::Internal("seed");
      ASSERT_TRUE(decode_reply<api::ProfileReport>(
          &r,
          [](Reader* rr, api::ProfileReport* p) {
            return decode_profile_report(rr, p);
          },
          &rep));
      EXPECT_TRUE(rep.ok()) << rep.status().to_string();
      buf.erase(0, kHeaderSize + h.payload_len);
      ++replies;
    }
  }
  EXPECT_EQ(replies, archs.size())
      << "requests pipelined with the FIN were discarded";
  EXPECT_TRUE(conn.closed_by_peer());
}

TEST(NetClient, GoodbyeDrainsPipelinedRequests) {
  // The shipped client's graceful-drain path: pipeline requests,
  // goodbye(), then collect every reply; afterwards the write side is
  // gone and new sends fail UNAVAILABLE.
  const api::EngineConfig cfg = tiny_cfg();
  auto server = Server::create(cfg);
  ASSERT_TRUE(server.ok()) << server.status().to_string();
  auto client = Client::connect("127.0.0.1", server.value()->port());
  ASSERT_TRUE(client.ok());
  Client& remote = client.value();
  const std::vector<api::Arch> archs = sample_archs(cfg, 2);

  auto id1 = remote.send(verbs::kProfile, archs[0]);
  auto id2 = remote.send(verbs::kProfile, archs[1]);
  ASSERT_TRUE(id1.ok() && id2.ok());
  ASSERT_TRUE(remote.goodbye().ok());
  ASSERT_TRUE(remote.goodbye().ok());  // idempotent

  // A stray send after the goodbye fails cleanly WITHOUT tearing down
  // the read side — the pending replies below must still arrive.
  EXPECT_FALSE(remote.send(verbs::kProfile, archs[0]).ok());

  api::Result<api::ProfileReport> r1 =
      remote.wait(verbs::kProfile, id1.value());
  api::Result<api::ProfileReport> r2 =
      remote.wait(verbs::kProfile, id2.value());
  EXPECT_TRUE(r1.ok()) << r1.status().to_string();
  EXPECT_TRUE(r2.ok()) << r2.status().to_string();
  EXPECT_EQ(stat(*server.value(), "serve.cancelled_requests"), 0);
}

TEST(ServeWindow, LoneWorkerDoesNotStallPureWorkOnTheWindow) {
  // num_workers == 1: the sole worker must not sleep out the predict
  // window on top of queued pure work — the window fires early and the
  // profile is served right after.
  api::EngineConfig cfg = tiny_cfg();
  cfg.evaluator = "predictor";
  cfg.predictor_samples = 40;
  cfg.predictor_epochs = 4;
  serve::ServiceConfig scfg;
  scfg.num_workers = 1;
  scfg.predict_window_us = 2'000'000;  // 2 s: far above a profile's cost
  auto service = serve::Service::create(cfg, scfg);
  ASSERT_TRUE(service.ok()) << service.status().to_string();
  auto engine = api::Engine::create(cfg, service.value()->context());
  ASSERT_TRUE(engine.ok());
  const api::Arch arch = engine.value().sample_arch();

  // Open the window with a lone prediction, then queue pure work.
  auto predicted =
      service.value()->submit(serve::PredictLatencyRequest{arch, {}});
  const auto start = std::chrono::steady_clock::now();
  auto profiled = service.value()->submit(serve::ProfileRequest{arch, {}});
  ASSERT_TRUE(profiled.get().ok());
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_LT(elapsed, 1500ms) << "the lone worker slept out the window on "
                                "top of queued pure work";

  api::Result<api::LatencyReport> served = predicted.get();
  ASSERT_TRUE(served.ok()) << served.status().to_string();
  api::Result<api::LatencyReport> direct =
      engine.value().predict_latency(arch);
  ASSERT_TRUE(direct.ok());
  EXPECT_DOUBLE_EQ(served.value().latency_ms, direct.value().latency_ms);
}

TEST(NetServer, StopIsIdempotentAndRefusesLateClients) {
  const api::EngineConfig cfg = tiny_cfg();
  auto server = Server::create(cfg);
  ASSERT_TRUE(server.ok());
  const std::uint16_t port = server.value()->port();
  {
    auto client = Client::connect("127.0.0.1", port);
    ASSERT_TRUE(client.ok());
  }
  server.value()->stop();
  server.value()->stop();  // idempotent
  auto late = Client::connect("127.0.0.1", port);
  if (late.ok()) {
    // The kernel may still accept into a dead backlog; any verb must
    // then fail UNAVAILABLE rather than hang (the socket is closed).
    api::Result<api::TrainReport> r =
        late.value().train_baseline("dgcnn", /*deadline_us=*/0);
    EXPECT_FALSE(r.ok());
  }
}

// ---- protocol v2: retry hints, health, version farewell --------------------

TEST(NetProtocol, StatusHintRoundTrip) {
  Writer w;
  encode_status(api::Status::ResourceExhausted("queue full"), &w, 12'345);
  Reader r(w.bytes());
  api::Status back;
  std::uint64_t hint = 0;
  ASSERT_TRUE(decode_status(&r, &back, &hint));
  EXPECT_TRUE(r.exhausted());
  EXPECT_EQ(back.code(), api::StatusCode::kResourceExhausted);
  EXPECT_EQ(hint, 12'345u);

  // The hint defaults to zero and callers may ignore it entirely.
  Writer plain;
  encode_status(api::Status::Ok(), &plain);
  Reader pr(plain.bytes());
  ASSERT_TRUE(decode_status(&pr, &back));
  EXPECT_TRUE(pr.exhausted());

  // encode_reply attaches the shed hint to RESOURCE_EXHAUSTED only: any
  // other code means the request RAN, and must not advertise "never ran".
  const auto enc = [](const api::ProfileReport& rep, Writer* out) {
    encode_profile_report(rep, out);
  };
  const std::vector<std::pair<api::Status, std::uint64_t>> cases = {
      {api::Status::ResourceExhausted("shed"), 7'777},
      {api::Status::Internal("ran and failed"), 0},
  };
  for (const auto& [status, expect_hint] : cases) {
    const std::string payload = encode_reply<api::ProfileReport>(
        api::Result<api::ProfileReport>(status), enc, 7'777);
    Reader rr(payload);
    api::Result<api::ProfileReport> out = api::Status::Internal("seed");
    std::uint64_t got = 99;
    ASSERT_TRUE(decode_reply<api::ProfileReport>(
        &rr,
        [](Reader* p, api::ProfileReport* rep) {
          return decode_profile_report(p, rep);
        },
        &out, &got));
    EXPECT_EQ(out.status().code(), status.code());
    EXPECT_EQ(got, expect_hint);
  }

  // Batch replies surface the max over their elements' hints.
  std::vector<api::Result<api::LatencyReport>> results;
  results.emplace_back(api::LatencyReport{});
  results.emplace_back(api::Status::ResourceExhausted("shed"));
  const std::string batch = encode_predict_batch_reply(results, 4'242);
  Reader br(batch);
  std::vector<api::Result<api::LatencyReport>> back_batch;
  std::uint64_t batch_hint = 0;
  ASSERT_TRUE(decode_predict_batch_reply(&br, &back_batch, &batch_hint));
  ASSERT_EQ(back_batch.size(), 2u);
  EXPECT_EQ(batch_hint, 4'242u);
}

TEST(NetProtocol, HealthReportRoundTrip) {
  HealthReport rep;
  rep.state = HealthState::kOverloaded;
  rep.queue_depth = 1024;
  rep.workers = 8;
  rep.uptime_us = 123'456'789;
  Writer w;
  encode_health_report(rep, &w);
  Reader r(w.bytes());
  HealthReport back;
  ASSERT_TRUE(decode_health_report(&r, &back));
  EXPECT_TRUE(r.exhausted());
  EXPECT_EQ(back.state, HealthState::kOverloaded);
  EXPECT_EQ(back.queue_depth, 1024);
  EXPECT_EQ(back.workers, 8);
  EXPECT_EQ(back.uptime_us, 123'456'789u);

  // Unknown state bytes are rejected, not coerced (strict decoding).
  std::string bytes = w.bytes();
  bytes[0] = 3;
  Reader bad(bytes);
  EXPECT_FALSE(decode_health_report(&bad, &back));

  EXPECT_STREQ(health_state_name(HealthState::kAccepting), "accepting");
  EXPECT_STREQ(health_state_name(HealthState::kDraining), "draining");
  EXPECT_STREQ(health_state_name(HealthState::kOverloaded), "overloaded");
}

TEST(NetProtocol, HeaderDecodeClassifiesRejections) {
  FrameHeader h;
  h.type = static_cast<std::uint16_t>(FrameType::kProfile);
  h.request_id = 41;
  h.payload_len = 12;
  std::string bytes;
  encode_header(h, &bytes);

  FrameHeader out;
  EXPECT_EQ(decode_header_ex(bytes.data(), bytes.size(), &out),
            HeaderDecode::kOk);
  EXPECT_EQ(decode_header_ex(bytes.data(), kHeaderSize - 1, &out),
            HeaderDecode::kTruncated);

  std::string bad = bytes;
  bad[0] = static_cast<char>(bad[0] ^ 0x40);
  EXPECT_EQ(decode_header_ex(bad.data(), bad.size(), &out),
            HeaderDecode::kBadMagic);

  // An old (v1) frame is rejected as kBadVersion, but the fields are
  // still reported — the farewell needs the peer's version / id / type.
  std::string old = bytes;
  old[4] = 1;
  old[5] = 0;
  ASSERT_EQ(decode_header_ex(old.data(), old.size(), &out),
            HeaderDecode::kBadVersion);
  EXPECT_EQ(out.version, 1);
  EXPECT_EQ(out.request_id, 41u);
  EXPECT_EQ(out.type, h.type);
  const FrameHeader peer = out;

  FrameHeader huge = h;
  huge.payload_len = kMaxPayloadBytes + 1;
  std::string huge_bytes;
  encode_header(huge, &huge_bytes);
  EXPECT_EQ(decode_header_ex(huge_bytes.data(), huge_bytes.size(), &out),
            HeaderDecode::kOversized);

  // The farewell to that v1 peer is framed in ITS version (our own
  // decoder refuses it — exactly the point) and carries the v1 status
  // layout: code + message, no trailing retry_after_us.
  const std::string farewell = encode_version_farewell(peer);
  ASSERT_GE(farewell.size(), kHeaderSize);
  FrameHeader fh;
  EXPECT_EQ(decode_header_ex(farewell.data(), farewell.size(), &fh),
            HeaderDecode::kBadVersion);
  EXPECT_EQ(fh.version, 1);
  EXPECT_EQ(fh.type, h.type | kReplyBit);
  EXPECT_EQ(fh.request_id, 41u);
  ASSERT_EQ(farewell.size(), kHeaderSize + fh.payload_len);
  Reader fr(farewell.data() + kHeaderSize, fh.payload_len);
  std::uint32_t code = 0;
  std::string message;
  ASSERT_TRUE(fr.u32(&code));
  ASSERT_TRUE(fr.str(&message));
  EXPECT_TRUE(fr.exhausted());  // v1 layout: nothing after the message
  EXPECT_EQ(code,
            static_cast<std::uint32_t>(api::StatusCode::kFailedPrecondition));
  EXPECT_NE(message.find("version"), std::string::npos);
}

// ---- health, draining, and shed hints over the wire ------------------------

TEST(NetServer, PingReportsHealthAndDrainState) {
  const api::EngineConfig cfg = tiny_cfg();
  ServerConfig server_cfg;
  server_cfg.service.num_workers = 2;
  auto server = Server::create(cfg, server_cfg);
  ASSERT_TRUE(server.ok()) << server.status().to_string();
  auto client = Client::connect("127.0.0.1", server.value()->port());
  ASSERT_TRUE(client.ok());
  Client& remote = client.value();

  api::Result<HealthReport> health = remote.ping();
  ASSERT_TRUE(health.ok()) << health.status().to_string();
  EXPECT_EQ(health.value().state, HealthState::kAccepting);
  EXPECT_EQ(health.value().workers, 2);
  EXPECT_EQ(health.value().queue_depth, 0);
  EXPECT_GT(health.value().uptime_us, 0u);

  // A second connection, opened before the drain closes the listener; it
  // stays idle through the drain flip (idle peers are not FIN'd — they
  // get their answer first, then the FIN).
  auto other = Client::connect("127.0.0.1", server.value()->port());
  ASSERT_TRUE(other.ok());
  // connect() returning only proves the kernel completed the handshake;
  // a round-trip proves the server accept()ed — without it, a loaded box
  // can drain (closing the listener) while `other` still sits in the
  // backlog, and the drop would masquerade as the drain refusal below.
  ASSERT_TRUE(other.value().ping().ok());

  // Draining: pings still answer (that is how a balancer notices the
  // state), while every other verb is refused before submission.
  EXPECT_FALSE(server.value()->draining());
  server.value()->drain();
  server.value()->drain();  // idempotent
  EXPECT_TRUE(server.value()->draining());
  api::Result<HealthReport> drained = remote.ping();
  ASSERT_TRUE(drained.ok()) << drained.status().to_string();
  EXPECT_EQ(drained.value().state, HealthState::kDraining);

  const std::vector<api::Arch> archs = sample_archs(cfg, 1);
  api::Result<api::ProfileReport> refused = other.value().profile(archs[0]);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), api::StatusCode::kUnavailable);

  const obs::Snapshot stats = server.value()->service()->metrics_snapshot();
  EXPECT_GE(stats.at("serve.pings"), 2);
  EXPECT_EQ(stats.at("serve.drain_started"), 1);
  // The drain refusal carried a hint.
  EXPECT_GE(stats.at("serve.sheds_with_hint"), 1);
}

TEST(NetServer, OldVersionPeerGetsCleanFarewell) {
  const api::EngineConfig cfg = tiny_cfg();
  auto server = Server::create(cfg);
  ASSERT_TRUE(server.ok()) << server.status().to_string();
  const std::vector<api::Arch> archs = sample_archs(cfg, 1);

  Writer w;
  encode_predict_request(archs[0], &w);
  std::string frame =
      encode_frame(FrameType::kProfile, false, 21, 0, w.bytes());
  frame[4] = 1;  // rewrite the version field: a v1 peer
  frame[5] = 0;

  RawConn conn(server.value()->port());
  ASSERT_TRUE(conn.ok());
  conn.send_bytes(frame);

  // One FAILED_PRECONDITION farewell framed in v1, then EOF.
  std::string buf;
  char chunk[4096];
  FrameHeader h;
  for (;;) {
    const ssize_t n = ::recv(conn.fd(), chunk, sizeof(chunk), 0);
    ASSERT_GT(n, 0) << "server hung up without a farewell";
    buf.append(chunk, static_cast<std::size_t>(n));
    if (buf.size() < kHeaderSize) continue;
    ASSERT_EQ(decode_header_ex(buf.data(), buf.size(), &h),
              HeaderDecode::kBadVersion);  // framed in the PEER's version
    if (buf.size() >= kHeaderSize + h.payload_len) break;
  }
  EXPECT_EQ(h.version, 1);
  EXPECT_EQ(h.request_id, 21u);
  EXPECT_EQ(h.type,
            static_cast<std::uint16_t>(FrameType::kProfile) | kReplyBit);
  Reader r(buf.data() + kHeaderSize, h.payload_len);
  std::uint32_t code = 0;
  std::string message;
  ASSERT_TRUE(r.u32(&code));
  ASSERT_TRUE(r.str(&message));
  EXPECT_TRUE(r.exhausted());
  EXPECT_EQ(code,
            static_cast<std::uint32_t>(api::StatusCode::kFailedPrecondition));
  EXPECT_TRUE(conn.closed_by_peer());
  EXPECT_GE(stat(*server.value(), "net.version_mismatches"), 1);
}

TEST(NetServer, ShedRepliesCarryRetryAfterHint) {
  const api::EngineConfig cfg = tiny_cfg();
  ServerConfig server_cfg;
  server_cfg.service.num_workers = 1;
  server_cfg.service.max_queue_depth = 1;
  server_cfg.shed_retry_after_us = 9'000;
  auto server = Server::create(cfg, server_cfg);
  ASSERT_TRUE(server.ok()) << server.status().to_string();
  const std::vector<api::Arch> archs = sample_archs(cfg, 1);

  auto pipelined = Client::connect("127.0.0.1", server.value()->port());
  ASSERT_TRUE(pipelined.ok());
  std::uint64_t stall_id = 0;
  ASSERT_TRUE(send_stall(pipelined.value(), &stall_id));  // holds the worker
  auto queued_id = pipelined.value().send(verbs::kProfile, archs[0]);
  ASSERT_TRUE(queued_id.ok());
  wait_for_requests(*server.value(), 2);  // the queue is now full

  // A raw probe: the shed reply must carry the configured hint.
  Writer w;
  encode_predict_request(archs[0], &w);
  RawConn probe(server.value()->port());
  ASSERT_TRUE(probe.ok());
  probe.send_bytes(encode_frame(FrameType::kProfile, false, 5, 0, w.bytes()));
  std::string buf;
  char chunk[4096];
  FrameHeader h;
  for (;;) {
    const ssize_t n = ::recv(probe.fd(), chunk, sizeof(chunk), 0);
    ASSERT_GT(n, 0) << "no shed reply arrived";
    buf.append(chunk, static_cast<std::size_t>(n));
    if (buf.size() >= kHeaderSize) {
      ASSERT_TRUE(decode_header(buf.data(), buf.size(), &h));
      if (buf.size() >= kHeaderSize + h.payload_len) break;
    }
  }
  Reader r(buf.data() + kHeaderSize, h.payload_len);
  api::Result<api::ProfileReport> shed = api::Status::Internal("seed");
  std::uint64_t hint = 0;
  ASSERT_TRUE(decode_reply<api::ProfileReport>(
      &r,
      [](Reader* rr, api::ProfileReport* p) {
        return decode_profile_report(rr, p);
      },
      &shed, &hint));
  ASSERT_FALSE(shed.ok());
  EXPECT_EQ(shed.status().code(), api::StatusCode::kResourceExhausted);
  EXPECT_EQ(hint, 9'000u);
  EXPECT_GE(stat(*server.value(), "serve.sheds_with_hint"), 1);

  // The hint certifies "never ran", so even a MUTATING verb may ride it:
  // this search retries through the full queue (backoff floored at the
  // hint) and succeeds once the stall lets the worker go and the queue
  // empties — without reconnecting.
  ClientConfig retry_cfg;
  retry_cfg.host = "127.0.0.1";
  retry_cfg.port = server.value()->port();
  retry_cfg.retry.max_attempts = 400;
  retry_cfg.retry.initial_backoff_us = 2'000;
  retry_cfg.retry.max_backoff_us = 20'000;
  retry_cfg.retry.jitter_seed = fuzz_seed(7);
  auto retrying = Client::connect(retry_cfg);
  ASSERT_TRUE(retrying.ok());
  std::thread release([] {
    std::this_thread::sleep_for(50ms);
    hg::testing::StallGate::instance().open();
  });
  api::Result<api::SearchReport> second = retrying.value().search();
  release.join();
  EXPECT_TRUE(second.ok()) << second.status().to_string();
  EXPECT_EQ(retrying.value().connections_dialed(), 1);
  EXPECT_GT(stat(*server.value(), "serve.rejected_requests"), 1)
      << "the search never met the full queue";

  EXPECT_TRUE(pipelined.value().wait(verbs::kProfile, queued_id.value()).ok());
  EXPECT_TRUE(
      pipelined.value().wait(verbs::kProfileBaseline, stall_id).ok());
}

TEST(NetServer, DrainAnswersQueuedWorkThenCloses) {
  const api::EngineConfig cfg = tiny_cfg();
  ServerConfig server_cfg;
  server_cfg.service.num_workers = 1;
  auto server = Server::create(cfg, server_cfg);
  ASSERT_TRUE(server.ok()) << server.status().to_string();
  const std::uint16_t port = server.value()->port();
  const std::vector<api::Arch> archs = sample_archs(cfg, 1);

  auto client = Client::connect("127.0.0.1", port);
  ASSERT_TRUE(client.ok());
  Client& remote = client.value();
  auto search_id = remote.send(verbs::kSearch, {});
  ASSERT_TRUE(search_id.ok());
  std::vector<std::uint64_t> profile_ids;
  for (int i = 0; i < 3; ++i) {
    auto id = remote.send(verbs::kProfile, archs[0]);
    ASSERT_TRUE(id.ok());
    profile_ids.push_back(id.value());
  }
  wait_for_requests(*server.value(), 4);  // all admitted before the drain

  server.value()->drain();

  // A post-drain frame on the live connection is refused before
  // submission (UNAVAILABLE, with a retry hint on the wire).
  auto late_id = remote.send(verbs::kProfile, archs[0]);
  ASSERT_TRUE(late_id.ok());
  api::Result<api::ProfileReport> late =
      remote.wait(verbs::kProfile, late_id.value());
  ASSERT_FALSE(late.ok());
  EXPECT_EQ(late.status().code(), api::StatusCode::kUnavailable);

  // Everything admitted before the drain is still answered.
  for (std::uint64_t id : profile_ids) {
    api::Result<api::ProfileReport> r = remote.wait(verbs::kProfile, id);
    EXPECT_TRUE(r.ok()) << r.status().to_string();
  }
  EXPECT_TRUE(remote.wait(verbs::kSearch, search_id.value()).ok());

  // After the last reply the server half-closes; the next roundtrip sees
  // a clean UNAVAILABLE (refusal or EOF, depending on the race) instead
  // of hanging.
  api::Result<api::ProfileReport> after = remote.profile(archs[0]);
  ASSERT_FALSE(after.ok());
  EXPECT_EQ(after.status().code(), api::StatusCode::kUnavailable);

  // New connections are refused once the poll thread closes the listen
  // socket (its next wakeup after the drain flag flips).
  bool refused = false;
  for (int i = 0; i < 2000 && !refused; ++i) {
    auto late_client = Client::connect("127.0.0.1", port);
    if (!late_client.ok()) {
      EXPECT_EQ(late_client.status().code(), api::StatusCode::kUnavailable);
      refused = true;
    } else {
      std::this_thread::sleep_for(1ms);
    }
  }
  EXPECT_TRUE(refused) << "drain never closed the listen socket";

  const obs::Snapshot stats = server.value()->service()->metrics_snapshot();
  EXPECT_EQ(stats.at("serve.drain_started"), 1);
  EXPECT_EQ(stats.at("serve.cancelled_requests"), 0)
      << "drain abandoned admitted work";
  server.value()->stop();
}

// ---- chaos: deterministic transport fault injection ------------------------

using testing::ChaosConfig;
using testing::ChaosStats;

/// Assert a remote report re-encodes bit-identically to the local one.
template <typename Report, typename EncodeFn>
void expect_bit_identical(const Report& remote, const Report& local,
                          EncodeFn encode) {
  Writer a, b;
  encode(remote, &a);
  encode(local, &b);
  EXPECT_EQ(a.bytes(), b.bytes()) << "remote answer diverged from local";
}

TEST(NetChaos, ShortIoOnBothSidesStaysBitIdentical) {
  // Short reads/writes are lossless: every verb must still answer OK and
  // bit-identical to local, with no retries needed (max_attempts = 1).
  const std::uint64_t seed = fuzz_seed(4242);
  const api::EngineConfig cfg = tiny_cfg();

  ChaosStats server_faults;
  ChaosConfig server_chaos;
  server_chaos.seed = seed;
  server_chaos.short_io_rate = 0.6;
  ServerConfig server_cfg;
  server_cfg.wrap_transport =
      testing::chaos_wrap(server_chaos, &server_faults);
  auto server = Server::create(cfg, server_cfg);
  ASSERT_TRUE(server.ok()) << server.status().to_string();
  auto engine =
      api::Engine::create(cfg, server.value()->service()->context());
  ASSERT_TRUE(engine.ok());
  const std::vector<api::Arch> archs = sample_archs(cfg, 3);

  ChaosStats client_faults;
  ChaosConfig client_chaos;
  client_chaos.seed = seed + 1'000'000;
  client_chaos.short_io_rate = 0.6;
  ClientConfig client_cfg;
  client_cfg.host = "127.0.0.1";
  client_cfg.port = server.value()->port();
  client_cfg.wrap_transport =
      testing::chaos_wrap(client_chaos, &client_faults);
  auto client = Client::connect(client_cfg);
  ASSERT_TRUE(client.ok()) << client.status().to_string();
  Client& remote = client.value();

  for (const api::Arch& a : archs) {
    api::Result<api::LatencyReport> r1 = remote.predict_latency(a);
    api::Result<api::LatencyReport> r2 = engine.value().predict_latency(a);
    ASSERT_TRUE(r1.ok()) << r1.status().to_string();
    ASSERT_TRUE(r2.ok());
    expect_bit_identical(r1.value(), r2.value(),
                         [](const api::LatencyReport& rep, Writer* w) {
                           encode_latency_report(rep, w);
                         });
  }
  {
    api::Result<api::ProfileReport> p1 = remote.profile(archs[0]);
    api::Result<api::ProfileReport> p2 = engine.value().profile(archs[0]);
    ASSERT_TRUE(p1.ok()) << p1.status().to_string();
    ASSERT_TRUE(p2.ok());
    expect_bit_identical(p1.value(), p2.value(),
                         [](const api::ProfileReport& rep, Writer* w) {
                           encode_profile_report(rep, w);
                         });
  }
  {
    api::Result<std::vector<api::LatencyReport>> b1 =
        remote.predict_batch(archs);
    api::Result<std::vector<api::LatencyReport>> b2 =
        engine.value().predict_batch(archs);
    ASSERT_TRUE(b1.ok()) << b1.status().to_string();
    ASSERT_TRUE(b2.ok());
    ASSERT_EQ(b1.value().size(), b2.value().size());
    for (std::size_t i = 0; i < b1.value().size(); ++i)
      EXPECT_DOUBLE_EQ(b1.value()[i].latency_ms, b2.value()[i].latency_ms);
  }
  api::Result<HealthReport> health = remote.ping();
  ASSERT_TRUE(health.ok()) << health.status().to_string();

  EXPECT_GT(client_faults.short_sends.load() +
                client_faults.short_recvs.load() +
                server_faults.short_sends.load() +
                server_faults.short_recvs.load(),
            0)
      << "the chaos schedule never fired";
}

TEST(NetChaos, RetryRecoversFromMidFrameResets) {
  const std::uint64_t seed = fuzz_seed(515);
  const api::EngineConfig cfg = tiny_cfg();
  auto server = Server::create(cfg);
  ASSERT_TRUE(server.ok()) << server.status().to_string();
  auto engine =
      api::Engine::create(cfg, server.value()->service()->context());
  ASSERT_TRUE(engine.ok());
  const std::vector<api::Arch> archs = sample_archs(cfg, 1);

  for (const bool reset_send : {false, true}) {
    ChaosStats faults;
    ChaosConfig chaos;
    chaos.seed = seed + (reset_send ? 1 : 0);
    if (reset_send) {
      chaos.reset_send_at_frame = 0;  // the request never leaves (EPIPE)
    } else {
      chaos.reset_recv_at_frame = 0;  // the reply is torn mid-header
    }
    ClientConfig ccfg;
    ccfg.host = "127.0.0.1";
    ccfg.port = server.value()->port();
    ccfg.wrap_transport = testing::chaos_first_connection_only(chaos, &faults);
    ccfg.retry.max_attempts = 4;
    ccfg.retry.initial_backoff_us = 500;
    ccfg.retry.max_backoff_us = 2'000;
    auto client = Client::connect(ccfg);
    ASSERT_TRUE(client.ok()) << client.status().to_string();

    // A pure verb recovers transparently: the retry's fresh connection
    // answers, and bit-identically to local.
    api::Result<api::LatencyReport> r =
        client.value().predict_latency(archs[0]);
    ASSERT_TRUE(r.ok()) << "reset_send=" << reset_send << ": "
                        << r.status().to_string();
    api::Result<api::LatencyReport> local =
        engine.value().predict_latency(archs[0]);
    ASSERT_TRUE(local.ok());
    expect_bit_identical(r.value(), local.value(),
                         [](const api::LatencyReport& rep, Writer* w) {
                           encode_latency_report(rep, w);
                         });
    EXPECT_EQ(client.value().connections_dialed(), 2);
    EXPECT_GE(faults.resets.load(), 1);
  }
}

TEST(NetChaos, FaultMatrixNeverHangsAndOkAnswersStayBitIdentical) {
  // The acceptance matrix: under every fault class, a verb either
  // answers OK — in which case the answer is bit-identical to local — or
  // fails with a clean typed Status. Nothing hangs (recv_timeout_ms
  // bounds every wait) and the server survives to serve a clean client
  // afterwards.
  const std::uint64_t seed = fuzz_seed(8080);
  const api::EngineConfig cfg = tiny_cfg();
  auto server = Server::create(cfg);
  ASSERT_TRUE(server.ok()) << server.status().to_string();
  auto engine =
      api::Engine::create(cfg, server.value()->service()->context());
  ASSERT_TRUE(engine.ok());
  const std::vector<api::Arch> archs = sample_archs(cfg, 3);

  struct FaultClass {
    const char* name;
    ChaosConfig chaos;
  };
  std::vector<FaultClass> classes(5);
  classes[0].name = "short-io";
  classes[0].chaos.short_io_rate = 0.6;
  classes[1].name = "corrupt-headers";
  classes[1].chaos.corrupt_header_rate = 1.0;
  classes[2].name = "reset-send";
  classes[2].chaos.reset_send_rate = 0.4;
  classes[3].name = "reset-recv";
  classes[3].chaos.reset_recv_rate = 0.4;
  classes[4].name = "stall";
  classes[4].chaos.stall_recv_at_frame = 1;

  for (std::size_t ci = 0; ci < classes.size(); ++ci) {
    for (int trial = 0; trial < 2; ++trial) {
      ChaosConfig chaos = classes[ci].chaos;
      chaos.seed = seed + ci * 100 + static_cast<std::uint64_t>(trial);
      ClientConfig ccfg;
      ccfg.host = "127.0.0.1";
      ccfg.port = server.value()->port();
      ccfg.recv_timeout_ms = 200;
      ccfg.retry.max_attempts = 3;
      ccfg.retry.initial_backoff_us = 500;
      ccfg.retry.max_backoff_us = 5'000;
      ccfg.wrap_transport = testing::chaos_wrap(chaos);
      auto client = Client::connect(ccfg);
      ASSERT_TRUE(client.ok())
          << classes[ci].name << ": " << client.status().to_string();
      const api::Arch& arch = archs[static_cast<std::size_t>(trial)];

      api::Result<api::LatencyReport> p =
          client.value().predict_latency(arch);
      if (p.ok()) {
        api::Result<api::LatencyReport> local =
            engine.value().predict_latency(arch);
        ASSERT_TRUE(local.ok());
        expect_bit_identical(p.value(), local.value(),
                             [](const api::LatencyReport& rep, Writer* w) {
                               encode_latency_report(rep, w);
                             });
      } else {
        EXPECT_NE(p.status().code(), api::StatusCode::kOk)
            << classes[ci].name;
      }

      api::Result<api::ProfileReport> pr = client.value().profile(arch);
      if (pr.ok()) {
        api::Result<api::ProfileReport> local = engine.value().profile(arch);
        ASSERT_TRUE(local.ok());
        expect_bit_identical(pr.value(), local.value(),
                             [](const api::ProfileReport& rep, Writer* w) {
                               encode_profile_report(rep, w);
                             });
      } else {
        EXPECT_NE(pr.status().code(), api::StatusCode::kOk)
            << classes[ci].name;
      }
    }
  }

  // The server took every beating above and still answers correctly.
  auto clean = Client::connect("127.0.0.1", server.value()->port());
  ASSERT_TRUE(clean.ok());
  api::Result<api::ProfileReport> sane = clean.value().profile(archs[0]);
  ASSERT_TRUE(sane.ok()) << sane.status().to_string();
  api::Result<api::ProfileReport> local = engine.value().profile(archs[0]);
  ASSERT_TRUE(local.ok());
  expect_bit_identical(sane.value(), local.value(),
                       [](const api::ProfileReport& rep, Writer* w) {
                         encode_profile_report(rep, w);
                       });
}

// ---- client retry semantics ------------------------------------------------

TEST(NetClient, MutatingVerbsDoNotRetryTransportFailures) {
  const std::uint64_t seed = fuzz_seed(626);
  const api::EngineConfig cfg = tiny_cfg();
  auto server = Server::create(cfg);
  ASSERT_TRUE(server.ok()) << server.status().to_string();

  ChaosConfig chaos;
  chaos.seed = seed;
  chaos.reset_recv_at_frame = 0;  // the reply is torn: did it run?
  ClientConfig base;
  base.host = "127.0.0.1";
  base.port = server.value()->port();
  base.retry.max_attempts = 4;
  base.retry.initial_backoff_us = 500;

  // search is mutating: a torn reply cannot prove the request never ran,
  // so the failure surfaces instead of retrying.
  {
    ChaosStats faults;
    ClientConfig ccfg = base;
    ccfg.wrap_transport = testing::chaos_first_connection_only(chaos, &faults);
    auto client = Client::connect(ccfg);
    ASSERT_TRUE(client.ok());
    api::Result<api::SearchReport> r = client.value().search();
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), api::StatusCode::kUnavailable);
    EXPECT_EQ(client.value().connections_dialed(), 1);  // no retry
    EXPECT_GE(faults.resets.load(), 1);
  }
  // retry_mutating opts in (the caller vouches for idempotency).
  {
    ChaosStats faults;
    ClientConfig ccfg = base;
    ccfg.retry.retry_mutating = true;
    ccfg.wrap_transport = testing::chaos_first_connection_only(chaos, &faults);
    auto client = Client::connect(ccfg);
    ASSERT_TRUE(client.ok());
    api::Result<api::SearchReport> r = client.value().search();
    EXPECT_TRUE(r.ok()) << r.status().to_string();
    EXPECT_EQ(client.value().connections_dialed(), 2);
  }
}

TEST(NetClient, OversizedRequestIsNotRetried) {
  // A request payload over the wire limit fails the same way on every
  // attempt: the client must answer INVALID_ARGUMENT at once, not drop a
  // healthy connection and back off to try again.
  const api::EngineConfig cfg = tiny_cfg();
  auto server = Server::create(cfg);
  ASSERT_TRUE(server.ok()) << server.status().to_string();
  int wraps = 0;
  ClientConfig ccfg;
  ccfg.port = server.value()->port();
  ccfg.retry.max_attempts = 3;
  ccfg.wrap_transport = [&wraps](std::unique_ptr<Transport> inner) {
    ++wraps;
    return inner;
  };
  auto client = Client::connect(ccfg);
  ASSERT_TRUE(client.ok()) << client.status().to_string();

  api::Result<api::ProfileReport> r =
      client.value().profile_baseline(std::string(kMaxPayloadBytes, 'x'));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), api::StatusCode::kInvalidArgument)
      << r.status().to_string();
  EXPECT_EQ(client.value().connections_dialed(), 1);
  EXPECT_EQ(wraps, 1) << "the client dropped its connection to retry";
  // The connection it kept still serves.
  EXPECT_TRUE(client.value().ping().ok());
  EXPECT_EQ(stat(*server.value(), "net.connections_opened"), 1);
}

TEST(NetClient, RetryRespectsRequestDeadline) {
  const api::EngineConfig cfg = tiny_cfg();
  auto server = Server::create(cfg);
  ASSERT_TRUE(server.ok()) << server.status().to_string();
  const std::vector<api::Arch> archs = sample_archs(cfg, 1);

  // Every connection stalls on its first incoming frame: each attempt
  // times out, and the retry loop must give up at the DEADLINE — not at
  // max_attempts (set absurdly high) — and never sleep past it.
  ChaosConfig chaos;
  chaos.seed = fuzz_seed(737);
  chaos.stall_recv_at_frame = 0;
  ChaosStats faults;
  ClientConfig ccfg;
  ccfg.host = "127.0.0.1";
  ccfg.port = server.value()->port();
  ccfg.recv_timeout_ms = 50;
  ccfg.wrap_transport = testing::chaos_wrap(chaos, &faults);
  ccfg.retry.max_attempts = 1'000'000;
  ccfg.retry.initial_backoff_us = 1'000;
  ccfg.retry.max_backoff_us = 10'000;
  auto client = Client::connect(ccfg);
  ASSERT_TRUE(client.ok());

  const auto start = std::chrono::steady_clock::now();
  api::Result<api::LatencyReport> r =
      client.value().predict_latency(archs[0], /*deadline_us=*/400'000);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), api::StatusCode::kDeadlineExceeded)
      << r.status().to_string();
  EXPECT_GE(faults.stalls.load(), 1);
  EXPECT_GT(client.value().connections_dialed(), 1);  // it DID retry
  EXPECT_LT(elapsed, 2s) << "retries ran far past the deadline";
}

TEST(NetClient, ConnectFailuresAreTyped) {
  // Nothing listening: ECONNREFUSED surfaces as UNAVAILABLE, not a hang
  // or a crash.
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  ASSERT_EQ(::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len), 0);
  const std::uint16_t dead_port = ntohs(addr.sin_port);
  ::close(fd);  // bound but never listened: connects are refused

  auto refused = Client::connect("127.0.0.1", dead_port);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), api::StatusCode::kUnavailable);

  // A config mistake is not a transport failure: INVALID_ARGUMENT.
  ClientConfig bad;
  bad.host = "not-a-dotted-quad";
  bad.port = 1;
  auto nonsense = Client::connect(bad);
  ASSERT_FALSE(nonsense.ok());
  EXPECT_EQ(nonsense.status().code(), api::StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace hg::net
