#include "net/protocol.hpp"

#include <bit>
#include <cstring>
#include <string>
#include <utility>

namespace hg::net {

// ---- framing ---------------------------------------------------------------

namespace {

void put_le(std::string* out, std::uint64_t v, std::size_t bytes) {
  for (std::size_t i = 0; i < bytes; ++i)
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

std::uint64_t get_le(const char* p, std::size_t bytes) {
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < bytes; ++i)
    v |= static_cast<std::uint64_t>(static_cast<unsigned char>(p[i]))
         << (8 * i);
  return v;
}

}  // namespace

void encode_header(const FrameHeader& h, std::string* out) {
  put_le(out, h.magic, 4);
  put_le(out, h.version, 2);
  put_le(out, h.type, 2);
  put_le(out, h.request_id, 8);
  put_le(out, h.deadline_us, 8);
  put_le(out, h.payload_len, 4);
}

bool decode_header(const char* bytes, std::size_t len, FrameHeader* out) {
  return decode_header_ex(bytes, len, out) == HeaderDecode::kOk;
}

HeaderDecode decode_header_ex(const char* bytes, std::size_t len,
                              FrameHeader* out) {
  if (len < kHeaderSize) return HeaderDecode::kTruncated;
  out->magic = static_cast<std::uint32_t>(get_le(bytes, 4));
  out->version = static_cast<std::uint16_t>(get_le(bytes + 4, 2));
  out->type = static_cast<std::uint16_t>(get_le(bytes + 6, 2));
  out->request_id = get_le(bytes + 8, 8);
  out->deadline_us = get_le(bytes + 16, 8);
  out->payload_len = static_cast<std::uint32_t>(get_le(bytes + 24, 4));
  if (out->magic != kMagic) return HeaderDecode::kBadMagic;
  if (out->version != kProtocolVersion) return HeaderDecode::kBadVersion;
  if (out->payload_len > kMaxPayloadBytes) return HeaderDecode::kOversized;
  return HeaderDecode::kOk;
}

std::string encode_version_farewell(const FrameHeader& peer) {
  // v1 status layout (code + message, no retry_after_us): the oldest
  // layout every version can parse, framed with the PEER's claimed
  // version so its decoder accepts the header.
  Writer w;
  w.u32(static_cast<std::uint32_t>(api::StatusCode::kFailedPrecondition));
  w.str("protocol version mismatch: peer speaks v" +
        std::to_string(peer.version) + ", server speaks v" +
        std::to_string(kProtocolVersion) + "; upgrade the client");
  FrameHeader h;
  h.version = peer.version;
  h.type = static_cast<std::uint16_t>(peer.type | kReplyBit);
  h.request_id = peer.request_id;
  h.payload_len = static_cast<std::uint32_t>(w.bytes().size());
  std::string out;
  out.reserve(kHeaderSize + w.bytes().size());
  encode_header(h, &out);
  out.append(w.bytes());
  return out;
}

std::string encode_frame(FrameType type, bool reply, std::uint64_t request_id,
                         std::uint64_t deadline_us,
                         const std::string& payload) {
  FrameHeader h;
  h.type = static_cast<std::uint16_t>(type);
  if (reply) h.type |= kReplyBit;
  h.request_id = request_id;
  h.deadline_us = deadline_us;
  h.payload_len = static_cast<std::uint32_t>(payload.size());
  std::string out;
  out.reserve(kHeaderSize + payload.size());
  encode_header(h, &out);
  out.append(payload);
  return out;
}

// ---- Writer ----------------------------------------------------------------

void Writer::u8(std::uint8_t v) { put_le(&buf_, v, 1); }
void Writer::u16(std::uint16_t v) { put_le(&buf_, v, 2); }
void Writer::u32(std::uint32_t v) { put_le(&buf_, v, 4); }
void Writer::u64(std::uint64_t v) { put_le(&buf_, v, 8); }
void Writer::i64(std::int64_t v) {
  put_le(&buf_, static_cast<std::uint64_t>(v), 8);
}
void Writer::f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
void Writer::boolean(bool v) { u8(v ? 1 : 0); }
void Writer::str(const std::string& v) {
  u32(static_cast<std::uint32_t>(v.size()));
  buf_.append(v);
}

// ---- Reader ----------------------------------------------------------------

bool Reader::take(std::size_t n, const char** out) {
  if (failed_ || n > len_ - pos_) {
    failed_ = true;
    return false;
  }
  *out = data_ + pos_;
  pos_ += n;
  return true;
}

bool Reader::u8(std::uint8_t* v) {
  const char* p = nullptr;
  if (!take(1, &p)) return false;
  *v = static_cast<std::uint8_t>(get_le(p, 1));
  return true;
}
bool Reader::u16(std::uint16_t* v) {
  const char* p = nullptr;
  if (!take(2, &p)) return false;
  *v = static_cast<std::uint16_t>(get_le(p, 2));
  return true;
}
bool Reader::u32(std::uint32_t* v) {
  const char* p = nullptr;
  if (!take(4, &p)) return false;
  *v = static_cast<std::uint32_t>(get_le(p, 4));
  return true;
}
bool Reader::u64(std::uint64_t* v) {
  const char* p = nullptr;
  if (!take(8, &p)) return false;
  *v = get_le(p, 8);
  return true;
}
bool Reader::i64(std::int64_t* v) {
  std::uint64_t raw = 0;
  if (!u64(&raw)) return false;
  *v = static_cast<std::int64_t>(raw);
  return true;
}
bool Reader::f64(double* v) {
  std::uint64_t raw = 0;
  if (!u64(&raw)) return false;
  *v = std::bit_cast<double>(raw);
  return true;
}
bool Reader::boolean(bool* v) {
  std::uint8_t raw = 0;
  if (!u8(&raw)) return false;
  *v = raw != 0;
  return true;
}
bool Reader::str(std::string* v) {
  std::uint32_t n = 0;
  if (!u32(&n)) return false;
  const char* p = nullptr;
  if (!take(n, &p)) return false;  // length prefix may not overrun payload
  v->assign(p, n);
  return true;
}

// ---- vocabulary codecs -----------------------------------------------------
//
// Gene fields travel as i64 (their in-memory width): codecs stay
// structural, so even an out-of-range enum value round-trips and the
// engine rejects it with the same INVALID_ARGUMENT a local call produces.

void encode_arch(const api::Arch& arch, Writer* w) {
  w->u32(static_cast<std::uint32_t>(arch.genes.size()));
  for (const hgnas::PositionGene& g : arch.genes) {
    w->i64(static_cast<std::int64_t>(g.op));
    w->i64(static_cast<std::int64_t>(g.fn.connect));
    w->i64(static_cast<std::int64_t>(g.fn.aggr));
    w->i64(static_cast<std::int64_t>(g.fn.msg));
    w->i64(g.fn.combine_dim_idx);
    w->i64(static_cast<std::int64_t>(g.fn.sample));
  }
}

bool decode_arch(Reader* r, api::Arch* out) {
  std::uint32_t n = 0;
  if (!r->u32(&n)) return false;
  out->genes.clear();
  for (std::uint32_t i = 0; i < n; ++i) {
    hgnas::PositionGene g;
    std::int64_t op = 0, connect = 0, aggr = 0, msg = 0, sample = 0;
    if (!r->i64(&op) || !r->i64(&connect) || !r->i64(&aggr) ||
        !r->i64(&msg) || !r->i64(&g.fn.combine_dim_idx) || !r->i64(&sample))
      return false;
    g.op = static_cast<hgnas::OpType>(op);
    g.fn.connect = static_cast<hgnas::ConnectFunc>(connect);
    g.fn.aggr = static_cast<hgnas::AggrType>(aggr);
    g.fn.msg = static_cast<gnn::MessageType>(msg);
    g.fn.sample = static_cast<hgnas::SampleFunc>(sample);
    out->genes.push_back(g);
  }
  return true;
}

void encode_workload(const api::Workload& wl, Writer* out) {
  out->i64(wl.num_points);
  out->i64(wl.k);
  out->i64(wl.num_classes);
  out->i64(wl.in_dim);
}

bool decode_workload(Reader* r, api::Workload* out) {
  return r->i64(&out->num_points) && r->i64(&out->k) &&
         r->i64(&out->num_classes) && r->i64(&out->in_dim);
}

namespace {

void encode_opt_f64(const std::optional<double>& v, Writer* w) {
  w->boolean(v.has_value());
  w->f64(v.value_or(0.0));
}

bool decode_opt_f64(Reader* r, std::optional<double>* out) {
  bool has = false;
  double v = 0.0;
  if (!r->boolean(&has) || !r->f64(&v)) return false;
  if (has)
    *out = v;
  else
    out->reset();
  return true;
}

}  // namespace

void encode_engine_config(const api::EngineConfig& cfg, Writer* w) {
  w->str(cfg.device);
  w->str(cfg.evaluator);
  w->str(cfg.strategy);
  w->i64(cfg.num_points);
  w->i64(cfg.k);
  w->i64(cfg.num_classes);
  w->i64(cfg.num_positions);
  w->i64(cfg.samples_per_class);
  w->i64(cfg.train_points);
  w->i64(cfg.train_k);
  w->u64(cfg.dataset_seed);
  w->i64(cfg.supernet_hidden);
  w->i64(cfg.supernet_head_hidden);
  w->i64(cfg.train_epochs);
  w->f64(static_cast<double>(cfg.train_lr));
  w->boolean(cfg.train_supernet);
  w->i64(cfg.population);
  w->i64(cfg.parents);
  w->i64(cfg.iterations);
  w->f64(cfg.alpha);
  w->f64(cfg.beta);
  w->i64(cfg.eval_val_samples);
  w->i64(cfg.function_paths_per_eval);
  w->i64(cfg.stage1_epochs);
  w->i64(cfg.stage2_epochs);
  encode_opt_f64(cfg.latency_budget_ms, w);
  encode_opt_f64(cfg.memory_budget_mb, w);
  encode_opt_f64(cfg.model_size_budget_mb, w);
  w->boolean(cfg.constrain_to_reference);
  encode_opt_f64(cfg.latency_scale_ms, w);
  w->i64(cfg.predictor_samples);
  w->i64(cfg.predictor_epochs);
  w->str(cfg.eval_cache_path);
  w->f64(cfg.sim_train_s_per_sample);
  w->f64(cfg.sim_eval_s_per_sample);
  w->u64(cfg.seed);
  w->i64(cfg.num_threads);
}

bool decode_engine_config(Reader* r, api::EngineConfig* out) {
  double train_lr = 0.0;
  bool ok = r->str(&out->device) && r->str(&out->evaluator) &&
            r->str(&out->strategy) && r->i64(&out->num_points) &&
            r->i64(&out->k) && r->i64(&out->num_classes) &&
            r->i64(&out->num_positions) && r->i64(&out->samples_per_class) &&
            r->i64(&out->train_points) && r->i64(&out->train_k) &&
            r->u64(&out->dataset_seed) && r->i64(&out->supernet_hidden) &&
            r->i64(&out->supernet_head_hidden) &&
            r->i64(&out->train_epochs) && r->f64(&train_lr) &&
            r->boolean(&out->train_supernet) && r->i64(&out->population) &&
            r->i64(&out->parents) && r->i64(&out->iterations) &&
            r->f64(&out->alpha) && r->f64(&out->beta) &&
            r->i64(&out->eval_val_samples) &&
            r->i64(&out->function_paths_per_eval) &&
            r->i64(&out->stage1_epochs) && r->i64(&out->stage2_epochs) &&
            decode_opt_f64(r, &out->latency_budget_ms) &&
            decode_opt_f64(r, &out->memory_budget_mb) &&
            decode_opt_f64(r, &out->model_size_budget_mb) &&
            r->boolean(&out->constrain_to_reference) &&
            decode_opt_f64(r, &out->latency_scale_ms) &&
            r->i64(&out->predictor_samples) &&
            r->i64(&out->predictor_epochs) && r->str(&out->eval_cache_path) &&
            r->f64(&out->sim_train_s_per_sample) &&
            r->f64(&out->sim_eval_s_per_sample) && r->u64(&out->seed) &&
            r->i64(&out->num_threads);
  out->train_lr = static_cast<float>(train_lr);
  return ok;
}

void encode_status(const api::Status& status, Writer* w,
                   std::uint64_t retry_after_us) {
  w->u32(static_cast<std::uint32_t>(status.code()));
  w->str(status.message());
  w->u64(retry_after_us);
}

bool decode_status(Reader* r, api::Status* out,
                   std::uint64_t* retry_after_us) {
  std::uint32_t code = 0;
  std::string message;
  std::uint64_t hint = 0;
  if (!r->u32(&code) || !r->str(&message) || !r->u64(&hint)) return false;
  if (retry_after_us != nullptr) *retry_after_us = hint;
  switch (static_cast<api::StatusCode>(code)) {
    case api::StatusCode::kOk:
      *out = api::Status::Ok();
      return true;
    case api::StatusCode::kInvalidArgument:
      *out = api::Status::InvalidArgument(std::move(message));
      return true;
    case api::StatusCode::kNotFound:
      *out = api::Status::NotFound(std::move(message));
      return true;
    case api::StatusCode::kFailedPrecondition:
      *out = api::Status::FailedPrecondition(std::move(message));
      return true;
    case api::StatusCode::kInternal:
      *out = api::Status::Internal(std::move(message));
      return true;
    case api::StatusCode::kDeadlineExceeded:
      *out = api::Status::DeadlineExceeded(std::move(message));
      return true;
    case api::StatusCode::kResourceExhausted:
      *out = api::Status::ResourceExhausted(std::move(message));
      return true;
    case api::StatusCode::kCancelled:
      *out = api::Status::Cancelled(std::move(message));
      return true;
    case api::StatusCode::kUnavailable:
      *out = api::Status::Unavailable(std::move(message));
      return true;
  }
  return false;  // unknown code: malformed reply
}

const char* health_state_name(HealthState state) {
  switch (state) {
    case HealthState::kAccepting:
      return "accepting";
    case HealthState::kDraining:
      return "draining";
    case HealthState::kOverloaded:
      return "overloaded";
  }
  return "unknown";
}

void encode_health_report(const HealthReport& rep, Writer* w) {
  w->u8(static_cast<std::uint8_t>(rep.state));
  w->i64(rep.queue_depth);
  w->i64(rep.workers);
  w->u64(rep.uptime_us);
}

bool decode_health_report(Reader* r, HealthReport* out) {
  std::uint8_t state = 0;
  bool ok = r->u8(&state) && r->i64(&out->queue_depth) &&
            r->i64(&out->workers) && r->u64(&out->uptime_us);
  if (!ok || state > static_cast<std::uint8_t>(HealthState::kOverloaded))
    return false;
  out->state = static_cast<HealthState>(state);
  return true;
}

void encode_stats_snapshot(const obs::Snapshot& snap, Writer* w) {
  w->u32(static_cast<std::uint32_t>(snap.size()));
  for (const auto& [name, value] : snap) {
    w->str(name);
    w->i64(value);
  }
}

bool decode_stats_snapshot(Reader* r, obs::Snapshot* out) {
  std::uint32_t count = 0;
  if (!r->u32(&count)) return false;
  // The smallest entry is 12 bytes (empty name + i64); a count the
  // remaining payload cannot hold is corrupt, not a huge map to build.
  if (count > kMaxPayloadBytes / 12) return false;
  obs::Snapshot snap;
  for (std::uint32_t i = 0; i < count; ++i) {
    std::string name;
    std::int64_t value = 0;
    if (!r->str(&name) || !r->i64(&value)) return false;
    snap[std::move(name)] = value;
  }
  *out = std::move(snap);
  return true;
}

void encode_latency_report(const api::LatencyReport& rep, Writer* w) {
  w->f64(rep.latency_ms);
  w->f64(rep.peak_memory_mb);
  w->boolean(rep.oom);
}

bool decode_latency_report(Reader* r, api::LatencyReport* out) {
  return r->f64(&out->latency_ms) && r->f64(&out->peak_memory_mb) &&
         r->boolean(&out->oom);
}

void encode_profile_report(const api::ProfileReport& rep, Writer* w) {
  w->f64(rep.latency_ms);
  w->f64(rep.peak_memory_mb);
  w->f64(rep.energy_mj);
  w->f64(rep.param_mb);
  w->boolean(rep.oom);
  w->str(rep.breakdown);
  w->str(rep.per_op_table);
  w->u32(static_cast<std::uint32_t>(rep.category_fraction.size()));
  for (double f : rep.category_fraction) w->f64(f);
  w->f64(rep.reference_latency_ms);
  w->f64(rep.reference_memory_mb);
  w->f64(rep.speedup_vs_reference);
  w->i64(rep.search_cache_hits);
  w->i64(rep.search_cache_misses);
}

bool decode_profile_report(Reader* r, api::ProfileReport* out) {
  bool ok = r->f64(&out->latency_ms) && r->f64(&out->peak_memory_mb) &&
            r->f64(&out->energy_mj) && r->f64(&out->param_mb) &&
            r->boolean(&out->oom) && r->str(&out->breakdown) &&
            r->str(&out->per_op_table);
  std::uint32_t n = 0;
  ok = ok && r->u32(&n) && n == out->category_fraction.size();
  for (std::size_t i = 0; ok && i < out->category_fraction.size(); ++i)
    ok = r->f64(&out->category_fraction[i]);
  return ok && r->f64(&out->reference_latency_ms) &&
         r->f64(&out->reference_memory_mb) &&
         r->f64(&out->speedup_vs_reference) &&
         r->i64(&out->search_cache_hits) && r->i64(&out->search_cache_misses);
}

void encode_train_report(const api::TrainReport& rep, Writer* w) {
  w->f64(rep.overall_acc);
  w->f64(rep.balanced_acc);
  w->f64(rep.mean_loss);
  w->f64(rep.param_mb);
}

bool decode_train_report(Reader* r, api::TrainReport* out) {
  return r->f64(&out->overall_acc) && r->f64(&out->balanced_acc) &&
         r->f64(&out->mean_loss) && r->f64(&out->param_mb);
}

namespace {

void encode_function_set(const hgnas::FunctionSet& fn, Writer* w) {
  w->i64(static_cast<std::int64_t>(fn.connect));
  w->i64(static_cast<std::int64_t>(fn.aggr));
  w->i64(static_cast<std::int64_t>(fn.msg));
  w->i64(fn.combine_dim_idx);
  w->i64(static_cast<std::int64_t>(fn.sample));
}

bool decode_function_set(Reader* r, hgnas::FunctionSet* out) {
  std::int64_t connect = 0, aggr = 0, msg = 0, sample = 0;
  if (!r->i64(&connect) || !r->i64(&aggr) || !r->i64(&msg) ||
      !r->i64(&out->combine_dim_idx) || !r->i64(&sample))
    return false;
  out->connect = static_cast<hgnas::ConnectFunc>(connect);
  out->aggr = static_cast<hgnas::AggrType>(aggr);
  out->msg = static_cast<gnn::MessageType>(msg);
  out->sample = static_cast<hgnas::SampleFunc>(sample);
  return true;
}

}  // namespace

void encode_search_report(const api::SearchReport& rep, Writer* w) {
  const hgnas::SearchResult& res = rep.result;
  encode_arch(res.best_arch, w);
  encode_function_set(res.upper, w);
  encode_function_set(res.lower, w);
  w->f64(res.best_objective);
  w->f64(res.best_supernet_acc);
  w->f64(res.best_latency_ms);
  w->u32(static_cast<std::uint32_t>(res.history.size()));
  for (const hgnas::SearchEvent& e : res.history) {
    w->f64(e.sim_time_s);
    w->f64(e.best_objective);
  }
  w->f64(res.total_sim_time_s);
  w->i64(res.latency_queries);
  w->i64(res.accuracy_probes);
  w->i64(res.eval_cache_hits);
  w->i64(res.eval_cache_misses);
  w->u32(static_cast<std::uint32_t>(res.frontier.size()));
  for (const hgnas::ParetoPoint& p : res.frontier) {
    encode_arch(p.arch, w);
    w->f64(p.accuracy);
    w->f64(p.latency_ms);
  }
  w->i64(res.frontier_candidates);
  w->str(rep.visualization);
  w->str(rep.frontier_table);
}

bool decode_search_report(Reader* r, api::SearchReport* out) {
  hgnas::SearchResult& res = out->result;
  bool ok = decode_arch(r, &res.best_arch) &&
            decode_function_set(r, &res.upper) &&
            decode_function_set(r, &res.lower) &&
            r->f64(&res.best_objective) && r->f64(&res.best_supernet_acc) &&
            r->f64(&res.best_latency_ms);
  std::uint32_t n = 0;
  ok = ok && r->u32(&n);
  res.history.clear();
  for (std::uint32_t i = 0; ok && i < n; ++i) {
    hgnas::SearchEvent e;
    ok = r->f64(&e.sim_time_s) && r->f64(&e.best_objective);
    if (ok) res.history.push_back(e);
  }
  ok = ok && r->f64(&res.total_sim_time_s) && r->i64(&res.latency_queries) &&
       r->i64(&res.accuracy_probes) && r->i64(&res.eval_cache_hits) &&
       r->i64(&res.eval_cache_misses);
  ok = ok && r->u32(&n);
  res.frontier.clear();
  for (std::uint32_t i = 0; ok && i < n; ++i) {
    hgnas::ParetoPoint p;
    ok = decode_arch(r, &p.arch) && r->f64(&p.accuracy) &&
         r->f64(&p.latency_ms);
    if (ok) res.frontier.push_back(std::move(p));
  }
  return ok && r->i64(&res.frontier_candidates) &&
         r->str(&out->visualization) && r->str(&out->frontier_table);
}

// ---- request payloads ------------------------------------------------------

void encode_search_request(const std::optional<api::EngineConfig>& cfg,
                           Writer* w) {
  w->boolean(cfg.has_value());
  if (cfg) encode_engine_config(*cfg, w);
}

bool decode_search_request(Reader* r, std::optional<api::EngineConfig>* out) {
  bool has = false;
  if (!r->boolean(&has)) return false;
  if (!has) {
    out->reset();
    return true;
  }
  api::EngineConfig cfg;
  if (!decode_engine_config(r, &cfg)) return false;
  *out = std::move(cfg);
  return true;
}

void encode_predict_request(const api::Arch& arch, Writer* w) {
  encode_arch(arch, w);
}

bool decode_predict_request(Reader* r, api::Arch* out) {
  return decode_arch(r, out);
}

void encode_predict_batch_request(const std::vector<api::Arch>& archs,
                                  Writer* w) {
  w->u32(static_cast<std::uint32_t>(archs.size()));
  for (const api::Arch& a : archs) encode_arch(a, w);
}

bool decode_predict_batch_request(Reader* r, std::vector<api::Arch>* out) {
  std::uint32_t n = 0;
  if (!r->u32(&n)) return false;
  out->clear();
  for (std::uint32_t i = 0; i < n; ++i) {
    api::Arch a;
    if (!decode_arch(r, &a)) return false;
    out->push_back(std::move(a));
  }
  return true;
}

void encode_profile_baseline_request(const BaselineQuery& query, Writer* w) {
  w->str(query.name);
  w->boolean(query.workload.has_value());
  if (query.workload) encode_workload(*query.workload, w);
}

bool decode_profile_baseline_request(Reader* r, BaselineQuery* out) {
  bool has = false;
  if (!r->str(&out->name) || !r->boolean(&has)) return false;
  if (!has) {
    out->workload.reset();
    return true;
  }
  api::Workload wl;
  if (!decode_workload(r, &wl)) return false;
  out->workload = wl;
  return true;
}

void encode_train_baseline_request(const std::string& name, Writer* w) {
  w->str(name);
}

bool decode_train_baseline_request(Reader* r, std::string* out) {
  return r->str(out);
}

std::string encode_predict_batch_reply(
    const std::vector<api::Result<api::LatencyReport>>& results,
    std::uint64_t shed_retry_after_us) {
  Writer w;
  encode_status(api::Status::Ok(), &w);
  w.u32(static_cast<std::uint32_t>(results.size()));
  for (const api::Result<api::LatencyReport>& r : results)
    encode_result(r, encode_latency_report, &w, shed_retry_after_us);
  return w.take();
}

bool decode_predict_batch_reply(
    Reader* r, std::vector<api::Result<api::LatencyReport>>* out,
    std::uint64_t* retry_after_us) {
  if (retry_after_us != nullptr) *retry_after_us = 0;
  api::Status envelope;
  std::uint64_t envelope_hint = 0;
  if (!decode_status(r, &envelope, &envelope_hint)) return false;
  if (retry_after_us != nullptr) *retry_after_us = envelope_hint;
  if (!envelope.ok()) {
    // A whole-batch failure (e.g. malformed payload reported by the
    // server) still decodes: one Result per nothing.
    if (!r->exhausted()) return false;
    out->clear();
    out->push_back(envelope);
    return true;
  }
  std::uint32_t n = 0;
  if (!r->u32(&n)) return false;
  out->clear();
  for (std::uint32_t i = 0; i < n; ++i) {
    api::Result<api::LatencyReport> element = api::Status::Internal("");
    std::uint64_t hint = 0;
    if (!decode_result(r, decode_latency_report, &element, &hint))
      return false;
    if (retry_after_us != nullptr && hint > *retry_after_us)
      *retry_after_us = hint;
    out->push_back(std::move(element));
  }
  return r->exhausted();
}

bool decode_predict_batch_result(
    Reader* r, api::Result<std::vector<api::LatencyReport>>* out,
    std::uint64_t* retry_after_us) {
  std::vector<api::Result<api::LatencyReport>> elements;
  if (!decode_predict_batch_reply(r, &elements, retry_after_us)) return false;
  std::vector<api::LatencyReport> reports;
  reports.reserve(elements.size());
  for (const api::Result<api::LatencyReport>& e : elements) {
    if (!e.ok()) {
      *out = e.status();
      return true;
    }
    reports.push_back(e.value());
  }
  *out = std::move(reports);
  return true;
}

std::string errno_string(int err) {
  char buf[128] = {};
#if defined(__GLIBC__) && defined(_GNU_SOURCE)
  // GNU variant: returns the message, which may live in `buf` or in a
  // glibc-internal immutable table.
  return std::string(strerror_r(err, buf, sizeof(buf)));
#else
  // XSI variant: fills `buf`, returns 0 on success.
  if (strerror_r(err, buf, sizeof(buf)) != 0)
    return "errno " + std::to_string(err);
  return std::string(buf);
#endif
}

}  // namespace hg::net
