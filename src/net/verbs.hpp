// verbs.hpp — the service verbs of the hg::net wire protocol, each declared
// once.
//
// One Verb entry per serve::Service request kind holds everything the wire
// knows about that verb: its frame type, its request payload codec, the
// serve request a server submits for it, how the service's answer is framed
// as a reply and read back, and whether a transport failure may be retried.
// The server's dispatch and reply encoder, is_request_type, and the client's
// send / wait / blocking verbs are all derived from kAll.
//
// Adding a verb: a FrameType enumerator, its serve request and
// Service::submit overload, one entry here listed in kAll, and — if it
// mirrors an Engine verb — a one-line blocking forward on net::Client.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "net/protocol.hpp"
#include "serve/request.hpp"

namespace hg::net {

template <typename ArgsT, typename RequestT, typename ServedT,
          typename ReplyT = ServedT>
struct Verb {
  using Args = ArgsT;        // the request payload, as a caller gives it
  using Request = RequestT;  // what a server submits to serve::Service
  using Served = ServedT;    // what that submission's future resolves to
  using Reply = ReplyT;      // what the client hands its caller

  FrameType type;
  /// Names the verb in "malformed <name> request payload".
  const char* name;
  /// A transport failure cannot have left server state changed, so the
  /// client may retry it (RetryPolicy).
  bool idempotent;
  void (*encode_args)(const Args&, Writer*);
  bool (*decode_args)(Reader*, Args*);
  Request (*to_request)(Args, serve::RequestOptions);
  /// The reply payload; `shed_retry_after_us` rides RESOURCE_EXHAUSTED
  /// statuses only.
  std::string (*encode_reply)(const Served&, std::uint64_t shed_retry_after_us);
  bool (*decode_reply)(Reader*, Reply*, std::uint64_t* retry_after_us);
  /// The answer a server gives without submitting, if any; nullptr: every
  /// well-formed request is submitted.
  std::optional<Served> (*refuse)(const Args&) = nullptr;
};

namespace verbs {

/// to_request for the serve requests laid out as {payload, opts}.
template <typename Request, typename Args>
Request payload_then_options(Args args, serve::RequestOptions opts) {
  return Request{std::move(args), std::move(opts)};
}

using PredictResults = std::vector<api::Result<api::LatencyReport>>;

/// A batch over kMaxWireBatch is refused per element before it reaches the
/// service. No retry hint: unlike a queue shed this refusal is
/// deterministic, so the caller must split the batch, not wait.
inline std::optional<PredictResults> refuse_oversized_batch(
    const std::vector<api::Arch>& archs) {
  if (archs.size() <= kMaxWireBatch) return std::nullopt;
  const api::Status refusal = api::Status::ResourceExhausted(
      "batch of " + std::to_string(archs.size()) +
      " exceeds the per-frame limit of " + std::to_string(kMaxWireBatch));
  return PredictResults(archs.size(), api::Result<api::LatencyReport>(refusal));
}

inline constexpr Verb<std::optional<api::EngineConfig>, serve::SearchRequest,
                      api::Result<api::SearchReport>>
    kSearch{
        .type = FrameType::kSearch,
        .name = "search",
        .idempotent = false,
        .encode_args = &encode_search_request,
        .decode_args = &decode_search_request,
        .to_request = &payload_then_options<serve::SearchRequest>,
        .encode_reply = &encode_report_reply<&encode_search_report>,
        .decode_reply = &decode_report_reply<&decode_search_report>,
    };

inline constexpr Verb<api::Arch, serve::PredictLatencyRequest,
                      api::Result<api::LatencyReport>>
    kPredictLatency{
        .type = FrameType::kPredictLatency,
        .name = "predict",
        .idempotent = true,
        .encode_args = &encode_predict_request,
        .decode_args = &decode_predict_request,
        .to_request = &payload_then_options<serve::PredictLatencyRequest>,
        .encode_reply = &encode_report_reply<&encode_latency_report>,
        .decode_reply = &decode_report_reply<&decode_latency_report>,
    };

/// N predictions in one frame and one queue entry. The client folds the
/// per-element answers the way Engine::predict_batch does.
inline constexpr Verb<std::vector<api::Arch>, serve::PredictBatchRequest,
                      PredictResults,
                      api::Result<std::vector<api::LatencyReport>>>
    kPredictBatch{
        .type = FrameType::kPredictBatchN,
        .name = "predict-batch",
        .idempotent = true,
        .encode_args = &encode_predict_batch_request,
        .decode_args = &decode_predict_batch_request,
        .to_request = &payload_then_options<serve::PredictBatchRequest>,
        .encode_reply = &encode_predict_batch_reply,
        .decode_reply = &decode_predict_batch_result,
        .refuse = &refuse_oversized_batch,
    };

/// Shares kPredictLatency's payload: one arch.
inline constexpr Verb<api::Arch, serve::ProfileRequest,
                      api::Result<api::ProfileReport>>
    kProfile{
        .type = FrameType::kProfile,
        .name = "profile",
        .idempotent = true,
        .encode_args = &encode_predict_request,
        .decode_args = &decode_predict_request,
        .to_request = &payload_then_options<serve::ProfileRequest>,
        .encode_reply = &encode_report_reply<&encode_profile_report>,
        .decode_reply = &decode_report_reply<&decode_profile_report>,
    };

inline constexpr Verb<BaselineQuery, serve::ProfileBaselineRequest,
                      api::Result<api::ProfileReport>>
    kProfileBaseline{
        .type = FrameType::kProfileBaseline,
        .name = "profile-baseline",
        .idempotent = true,
        .encode_args = &encode_profile_baseline_request,
        .decode_args = &decode_profile_baseline_request,
        .to_request =
            [](BaselineQuery q, serve::RequestOptions opts) {
              return serve::ProfileBaselineRequest{
                  std::move(q.name), q.workload, std::move(opts)};
            },
        .encode_reply = &encode_report_reply<&encode_profile_report>,
        .decode_reply = &decode_report_reply<&decode_profile_report>,
    };

inline constexpr Verb<std::string, serve::TrainBaselineRequest,
                      api::Result<api::TrainReport>>
    kTrainBaseline{
        .type = FrameType::kTrainBaseline,
        .name = "train-baseline",
        .idempotent = false,
        .encode_args = &encode_train_baseline_request,
        .decode_args = &decode_train_baseline_request,
        .to_request = &payload_then_options<serve::TrainBaselineRequest>,
        .encode_reply = &encode_report_reply<&encode_train_report>,
        .decode_reply = &decode_report_reply<&decode_train_report>,
    };

/// The table: every verb a server submits to its service.
inline constexpr std::tuple kAll{kSearch,  kPredictLatency,  kPredictBatch,
                                 kProfile, kProfileBaseline, kTrainBaseline};
inline constexpr std::size_t kCount = std::tuple_size_v<decltype(kAll)>;

/// Calls f(std::integral_constant<std::size_t, I>{}) for the verb I of kAll
/// framed as `type` (a header's type field), so `f` can name
/// std::get<I>(kAll) and the types it carries. False when no verb is.
template <typename F>
bool with_verb(std::uint16_t type, F&& f) {
  return [&]<std::size_t... I>(std::index_sequence<I...>) {
    return ((static_cast<std::uint16_t>(std::get<I>(kAll).type) == type &&
             (f(std::integral_constant<std::size_t, I>{}), true)) ||
            ...);
  }(std::make_index_sequence<kCount>{});
}

}  // namespace verbs

/// True when `type` (a header's type field) names a request a server
/// serves: a verb in verbs::kAll, or one of the frames the server answers
/// on its I/O thread (goodbye, ping, stats). Anything else — 0, a retired
/// type, a reply, a type from a newer peer — is answered with
/// INVALID_ARGUMENT "unknown frame type N".
inline bool is_request_type(std::uint16_t type) {
  return verbs::with_verb(type, [](auto) {}) ||
         type == static_cast<std::uint16_t>(FrameType::kGoodbye) ||
         type == static_cast<std::uint16_t>(FrameType::kPing) ||
         type == static_cast<std::uint16_t>(FrameType::kStats);
}

}  // namespace hg::net
