// protocol.hpp — the hg::net wire protocol (version 2).
//
// A versioned, length-prefixed binary framing that carries every
// serve::Request variant and its Result<T> reply over a byte stream, so a
// serve::Service can be queried from another process or machine. The
// protocol is deliberately dependency-free: fixed-width little-endian
// integers, IEEE-754 doubles bit-cast to u64, and length-prefixed strings.
//
// Version history:
//   v1  initial framing + verb payloads (PR 5).
//   v2  every encoded Status carries a trailing retry_after_us hint
//       (0 = none — attached to refused-before-running replies so client
//       backoff can honor the server's pacing), and kPing answers a
//       HealthReport. A v2 server answers a mismatched-version peer with
//       one best-effort FAILED_PRECONDITION reply framed in the PEER's
//       version before dropping it (see encode_version_farewell), so an
//       old client sees a clean typed error, not a silent hangup.
//       Later v2 addition: kPredictBatchN, a multi-predict frame the
//       server hands to the service as ONE queue entry. An older v2 peer
//       that does not know the type answers it with a typed
//       INVALID_ARGUMENT reply, so a client can detect and fall back.
//       Type 3, the original per-element multi-predict frame, is retired:
//       a server answers it like any unknown type (INVALID_ARGUMENT
//       "unknown frame type 3").
//
// Frame layout (header is exactly kHeaderSize bytes):
//
//   offset  size  field
//        0     4  magic        0x4847'4E31 ("HGN1")
//        4     2  version      kProtocolVersion (2)
//        6     2  type         FrameType (request, or request | kReplyBit)
//        8     8  request_id   caller-chosen, echoed verbatim in the reply
//       16     8  deadline_us  queue-time budget in microseconds from
//                              server receipt; 0 = no deadline. Ignored in
//                              replies.
//       24     4  payload_len  bytes following the header
//
// Every request frame gets exactly one reply frame with the same
// request_id and type | kReplyBit; replies may arrive in any order
// (pipelined ids). A reply payload is an encoded Status followed, when the
// Status is OK, by the verb's report. The one no-reply frame is kGoodbye
// (see FrameType) — the connection close after the drain is its ack.
//
// Decoding is strictly bounds-checked: a Reader never reads past the
// payload it was given, rejects length prefixes that overrun the
// remaining bytes, and requires every payload to be fully consumed —
// truncated, oversized, or trailing-garbage payloads decode to failure,
// never to a crash or an over-read. Malformed *headers* (bad magic /
// version / oversized payload_len) cannot be recovered on a byte stream
// (framing is lost) and make the server drop the connection instead.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "api/config.hpp"
#include "api/engine.hpp"
#include "obs/metrics.hpp"

namespace hg::net {

inline constexpr std::uint32_t kMagic = 0x4847'4E31;  // "HGN1"
inline constexpr std::uint16_t kProtocolVersion = 2;
inline constexpr std::size_t kHeaderSize = 28;
/// Upper bound on payload_len a peer will accept. Large enough for any
/// real report (a SearchReport is a few tens of KB); small enough that a
/// corrupt length field cannot drive allocation to OOM.
inline constexpr std::uint32_t kMaxPayloadBytes = 1u << 26;  // 64 MB

/// Frame types. Requests are 1..N; the matching reply is type | kReplyBit.
/// Each service verb's payloads are declared in net/verbs.hpp.
enum class FrameType : std::uint16_t {
  kSearch = 1,
  kPredictLatency = 2,
  // 3 is retired (the per-element multi-predict frame): never reuse it.
  kProfile = 4,
  kProfileBaseline = 5,
  kTrainBaseline = 6,
  /// Empty-payload, no-reply notice: "no more requests on this
  /// connection — answer what you have, then close." A pipelining client
  /// sends this before shutdown(SHUT_WR) so the server serves the
  /// already-submitted requests and flushes their replies. Without it a
  /// peer's FIN is an abandoning disconnect: the connection's
  /// still-queued requests are cancelled (a TCP FIN alone cannot say
  /// which of the two the client meant).
  kGoodbye = 7,
  /// Empty-payload health probe, answered from the server's I/O thread
  /// without touching the worker queues (a ping must come back even when
  /// the service is saturated): the reply is OK + a HealthReport. New in
  /// protocol v2.
  kPing = 8,
  /// N latency predictions in one frame, submitted to the service as ONE
  /// queue entry (verbs::kPredictBatch); the reply holds one Result per
  /// element, in order.
  kPredictBatchN = 9,
  /// Empty-payload metrics scrape, answered from the server's I/O thread
  /// like kPing: the reply is OK + the full flattened metrics snapshot
  /// (serve::Service::metrics_snapshot — every registered obs instrument
  /// plus the live queue depth), encoded as name/value pairs
  /// (encode_stats_snapshot). Later v2 addition: an older v2 peer answers
  /// it with a typed INVALID_ARGUMENT reply, so a client can detect and
  /// fall back to kPing.
  kStats = 10,
};
inline constexpr std::uint16_t kReplyBit = 0x80;

/// Largest element count a server accepts in one kPredictBatchN frame.
/// Bounds the block-diagonal forward a single frame can demand (the
/// payload byte cap alone would admit ~100k tiny archs).
inline constexpr std::size_t kMaxWireBatch = 4096;

struct FrameHeader {
  std::uint32_t magic = kMagic;
  std::uint16_t version = kProtocolVersion;
  std::uint16_t type = 0;
  std::uint64_t request_id = 0;
  std::uint64_t deadline_us = 0;  // 0 = none
  std::uint32_t payload_len = 0;
};

/// Serialize `h` into exactly kHeaderSize bytes, appended to `out`.
void encode_header(const FrameHeader& h, std::string* out);

/// Parse a header from `bytes` (must hold >= kHeaderSize). Returns false
/// on bad magic, unknown version, or payload_len > kMaxPayloadBytes — the
/// stream is unframeable and the connection must be dropped.
bool decode_header(const char* bytes, std::size_t len, FrameHeader* out);

/// Classified header parse. `out` is filled whenever the bytes suffice,
/// even on rejection — kBadVersion callers need the peer's claimed
/// version / id / type to frame the farewell reply.
enum class HeaderDecode : std::uint8_t {
  kOk,
  kTruncated,   // fewer than kHeaderSize bytes
  kBadMagic,    // not this protocol at all
  kBadVersion,  // our magic, a version we do not speak
  kOversized,   // payload_len > kMaxPayloadBytes
};
HeaderDecode decode_header_ex(const char* bytes, std::size_t len,
                              FrameHeader* out);

/// The one frame a server sends to a peer speaking another protocol
/// version: a FAILED_PRECONDITION reply framed in the PEER's version
/// (our frames would be rejected by its decoder) with the v1 status
/// layout (code + message — the retry_after_us field is v2-only), echoing
/// the offending frame's id and type. Best-effort: flushed once, then
/// the connection is dropped (nothing later in the stream can be parsed).
std::string encode_version_farewell(const FrameHeader& peer);

// ---- payload encoding ------------------------------------------------------

/// Append-only little-endian payload builder.
class Writer {
 public:
  void u8(std::uint8_t v);
  void u16(std::uint16_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void i64(std::int64_t v);
  void f64(double v);
  void boolean(bool v);
  void str(const std::string& v);  // u32 length prefix + bytes

  const std::string& bytes() const { return buf_; }
  std::string take() { return std::move(buf_); }

 private:
  std::string buf_;
};

/// Bounds-checked payload reader. Every accessor returns false once the
/// payload is exhausted or a length prefix overruns it; after the first
/// failure all subsequent reads fail too, so decoders can chain `ok &=`
/// without checking each field.
class Reader {
 public:
  Reader(const char* data, std::size_t len) : data_(data), len_(len) {}
  explicit Reader(const std::string& bytes)
      : Reader(bytes.data(), bytes.size()) {}

  bool u8(std::uint8_t* v);
  bool u16(std::uint16_t* v);
  bool u32(std::uint32_t* v);
  bool u64(std::uint64_t* v);
  bool i64(std::int64_t* v);
  bool f64(double* v);
  bool boolean(bool* v);
  bool str(std::string* v);

  /// True when every byte was consumed and no read ever failed — decoders
  /// require this so trailing garbage is rejected, not ignored.
  bool exhausted() const { return !failed_ && pos_ == len_; }
  bool failed() const { return failed_; }

 private:
  bool take(std::size_t n, const char** out);

  const char* data_;
  std::size_t len_;
  std::size_t pos_ = 0;
  bool failed_ = false;
};

// ---- vocabulary codecs -----------------------------------------------------
//
// Every encode_* appends to a Writer; every decode_* returns false on any
// malformed input (without touching *out beyond recognition). Codecs are
// structural, not semantic: field values round-trip verbatim (an
// out-of-range enum survives the trip) so a remote request fails with
// exactly the Status the same in-process request would produce.

void encode_arch(const api::Arch& arch, Writer* w);
bool decode_arch(Reader* r, api::Arch* out);

void encode_workload(const api::Workload& w, Writer* out);
bool decode_workload(Reader* r, api::Workload* out);

void encode_engine_config(const api::EngineConfig& cfg, Writer* w);
bool decode_engine_config(Reader* r, api::EngineConfig* out);

/// v2 status layout: u32 code, str message, u64 retry_after_us. The hint
/// is only ever non-zero on replies the server REFUSED before running
/// (queue-full sheds, drain refusals) — it both paces the client's retry
/// backoff and certifies "this request never executed", which is what
/// makes retrying it safe for every verb, mutating ones included.
void encode_status(const api::Status& status, Writer* w,
                   std::uint64_t retry_after_us = 0);
bool decode_status(Reader* r, api::Status* out,
                   std::uint64_t* retry_after_us = nullptr);

/// Server health, answered to kPing (v2).
enum class HealthState : std::uint8_t {
  kAccepting = 0,   // normal operation
  kDraining = 1,    // Server::drain(): finishing queued work, no new work
  kOverloaded = 2,  // bounded queue at capacity; expect sheds
};
const char* health_state_name(HealthState state);

struct HealthReport {
  HealthState state = HealthState::kAccepting;
  std::int64_t queue_depth = 0;  // admitted, not yet started
  std::int64_t workers = 0;
  std::uint64_t uptime_us = 0;
};

void encode_health_report(const HealthReport& rep, Writer* w);
bool decode_health_report(Reader* r, HealthReport* out);

/// Metrics snapshot, answered to kStats (v2): u32 count, then `count`
/// (str name, i64 value) pairs in map order. Bounded by the payload cap;
/// decode rejects a count that could not fit the remaining bytes.
void encode_stats_snapshot(const obs::Snapshot& snap, Writer* w);
bool decode_stats_snapshot(Reader* r, obs::Snapshot* out);

void encode_latency_report(const api::LatencyReport& rep, Writer* w);
bool decode_latency_report(Reader* r, api::LatencyReport* out);

void encode_profile_report(const api::ProfileReport& rep, Writer* w);
bool decode_profile_report(Reader* r, api::ProfileReport* out);

void encode_train_report(const api::TrainReport& rep, Writer* w);
bool decode_train_report(Reader* r, api::TrainReport* out);

void encode_search_report(const api::SearchReport& rep, Writer* w);
bool decode_search_report(Reader* r, api::SearchReport* out);

// ---- request payloads ------------------------------------------------------

void encode_search_request(const std::optional<api::EngineConfig>& cfg,
                           Writer* w);
bool decode_search_request(Reader* r, std::optional<api::EngineConfig>* out);

void encode_predict_request(const api::Arch& arch, Writer* w);
bool decode_predict_request(Reader* r, api::Arch* out);

void encode_predict_batch_request(const std::vector<api::Arch>& archs,
                                  Writer* w);
bool decode_predict_batch_request(Reader* r, std::vector<api::Arch>* out);

/// kProfileBaseline's payload: a reference network's name and, optionally,
/// the workload to profile it at.
struct BaselineQuery {
  std::string name;
  std::optional<api::Workload> workload;
};

void encode_profile_baseline_request(const BaselineQuery& query, Writer* w);
bool decode_profile_baseline_request(Reader* r, BaselineQuery* out);

void encode_train_baseline_request(const std::string& name, Writer* w);
bool decode_train_baseline_request(Reader* r, std::string* out);

// ---- reply payloads --------------------------------------------------------
//
// A reply is encode_status(...) then, iff OK, the report. The typed
// helpers below build / parse the whole payload.

/// One answer: its Status, then, iff OK, the report.
/// `shed_retry_after_us`, when non-zero, is attached to RESOURCE_EXHAUSTED
/// statuses only — the shed path (the request was refused before running);
/// other error codes mean the request ran and must not advertise a hint.
template <typename T, typename EncodeFn>
void encode_result(const api::Result<T>& result, EncodeFn encode, Writer* w,
                   std::uint64_t shed_retry_after_us) {
  const api::Status status =
      result.ok() ? api::Status::Ok() : result.status();
  encode_status(status, w,
                status.code() == api::StatusCode::kResourceExhausted
                    ? shed_retry_after_us
                    : 0);
  if (result.ok()) encode(result.value(), w);
}

template <typename T, typename DecodeFn>
bool decode_result(Reader* r, DecodeFn decode, api::Result<T>* out,
                   std::uint64_t* retry_after_us) {
  api::Status status;
  if (!decode_status(r, &status, retry_after_us)) return false;
  if (!status.ok()) {
    *out = status;
    return true;
  }
  T value{};
  if (!decode(r, &value)) return false;
  *out = std::move(value);
  return true;
}

template <typename T, typename EncodeFn>
std::string encode_reply(const api::Result<T>& result, EncodeFn encode,
                         std::uint64_t shed_retry_after_us = 0) {
  Writer w;
  encode_result(result, encode, &w, shed_retry_after_us);
  return w.take();
}

template <typename T, typename DecodeFn>
bool decode_reply(Reader* r, DecodeFn decode, api::Result<T>* out,
                  std::uint64_t* retry_after_us = nullptr) {
  return decode_result(r, decode, out, retry_after_us) && r->exhausted();
}

/// encode_reply / decode_reply bound to one report codec, in the shape
/// the verb table (net/verbs.hpp) stores.
template <auto Encode, typename T>
std::string encode_report_reply(const api::Result<T>& result,
                                std::uint64_t shed_retry_after_us) {
  return encode_reply(result, Encode, shed_retry_after_us);
}

template <auto Decode, typename T>
bool decode_report_reply(Reader* r, api::Result<T>* out,
                         std::uint64_t* retry_after_us) {
  return decode_reply(r, Decode, out, retry_after_us);
}

/// The batch reply carries one Result per element (the service answers
/// each query independently; a bad genome fails alone, its batchmates
/// still succeed). `shed_retry_after_us` applies to the RESOURCE_EXHAUSTED
/// elements; decode surfaces the max over all elements.
std::string encode_predict_batch_reply(
    const std::vector<api::Result<api::LatencyReport>>& results,
    std::uint64_t shed_retry_after_us = 0);
bool decode_predict_batch_reply(
    Reader* r, std::vector<api::Result<api::LatencyReport>>* out,
    std::uint64_t* retry_after_us = nullptr);

/// decode_predict_batch_reply folded into one Result the way
/// Engine::predict_batch answers: the first failing element's Status
/// fails the whole call.
bool decode_predict_batch_result(
    Reader* r, api::Result<std::vector<api::LatencyReport>>* out,
    std::uint64_t* retry_after_us);

/// Whole-frame convenience: header + payload in one buffer.
std::string encode_frame(FrameType type, bool reply, std::uint64_t request_id,
                         std::uint64_t deadline_us, const std::string& payload);

/// Message text for `err` (an errno value). strerror(3) reads a static
/// buffer and is not required to be thread-safe (clang-tidy
/// concurrency-mt-unsafe); this wraps strerror_r, which is.
std::string errno_string(int err);

}  // namespace hg::net
