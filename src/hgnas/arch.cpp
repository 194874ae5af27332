#include "hgnas/arch.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "core/check.hpp"

namespace hg::hgnas {

namespace {

constexpr char kCheckScope[] = "hgnas: ";

/// Per-position option count of the full fine-grained space:
/// connect(2) + aggregate(4 aggregators x 7 messages) + combine(6) +
/// sample(2) = 38.
constexpr double kOptionsPerPosition = 2.0 + 4.0 * 7.0 + 6.0 + 2.0;

}  // namespace

std::string op_type_name(OpType t) {
  switch (t) {
    case OpType::Connect: return "Connect";
    case OpType::Aggregate: return "Aggregate";
    case OpType::Combine: return "Combine";
    case OpType::Sample: return "Sample";
  }
  return "?";
}

std::string connect_func_name(ConnectFunc f) {
  return f == ConnectFunc::SkipConnect ? "skip" : "identity";
}

std::string aggr_type_name(AggrType a) {
  switch (a) {
    case AggrType::Sum: return "sum";
    case AggrType::Min: return "min";
    case AggrType::Max: return "max";
    case AggrType::Mean: return "mean";
  }
  return "?";
}

std::string sample_func_name(SampleFunc s) {
  return s == SampleFunc::Knn ? "KNN" : "Random";
}

Reduce to_reduce(AggrType a) {
  switch (a) {
    case AggrType::Sum: return Reduce::Sum;
    case AggrType::Min: return Reduce::Min;
    case AggrType::Max: return Reduce::Max;
    case AggrType::Mean: return Reduce::Mean;
  }
  throw std::invalid_argument("to_reduce: unknown aggregator");
}

std::uint64_t Arch::hash() const {
  std::uint64_t h = 1469598103934665603ULL;  // FNV-1a
  auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ULL;
  };
  for (const auto& g : genes) {
    mix(static_cast<std::uint64_t>(g.op));
    mix(static_cast<std::uint64_t>(g.fn.connect));
    mix(static_cast<std::uint64_t>(g.fn.aggr));
    mix(static_cast<std::uint64_t>(g.fn.msg));
    mix(static_cast<std::uint64_t>(g.fn.combine_dim_idx));
    mix(static_cast<std::uint64_t>(g.fn.sample));
  }
  return h;
}

std::vector<bool> dead_sample_mask(const Arch& arch) {
  std::vector<bool> dead(arch.genes.size(), false);
  bool aggregate_later = false;
  for (std::size_t i = arch.genes.size(); i-- > 0;) {
    if (arch.genes[i].op == OpType::Sample && !aggregate_later)
      dead[i] = true;
    if (arch.genes[i].op == OpType::Aggregate) aggregate_later = true;
  }
  return dead;
}

ExecMarks compute_exec_marks(const Arch& arch) {
  ExecMarks marks;
  marks.sample_executes.assign(arch.genes.size(), false);
  marks.implicit_initial_knn.assign(arch.genes.size(), false);
  const std::vector<bool> dead = dead_sample_mask(arch);
  bool graph_built = false, graph_fresh = false;
  for (std::size_t i = 0; i < arch.genes.size(); ++i) {
    switch (arch.genes[i].op) {
      case OpType::Sample:
        if (!graph_fresh && !dead[i]) {
          marks.sample_executes[i] = true;
          graph_built = true;
          graph_fresh = true;
        }
        break;
      case OpType::Aggregate:
        if (!graph_built) {
          marks.implicit_initial_knn[i] = true;
          graph_built = true;
        }
        graph_fresh = false;
        break;
      case OpType::Combine:
        graph_fresh = false;
        break;
      case OpType::Connect:
        if (arch.genes[i].fn.connect == ConnectFunc::SkipConnect)
          graph_fresh = false;
        break;
    }
  }
  return marks;
}

std::vector<std::int64_t> channel_flow(const Arch& arch, const Workload& w) {
  std::vector<std::int64_t> flow;
  flow.reserve(arch.genes.size() + 1);
  std::int64_t d = w.in_dim;
  flow.push_back(d);
  for (const auto& g : arch.genes) {
    switch (g.op) {
      case OpType::Aggregate:
        d = gnn::message_dim(g.fn.msg, d);
        break;
      case OpType::Combine:
        d = g.fn.combine_dim();
        break;
      case OpType::Connect:
      case OpType::Sample:
        break;  // channel-preserving
    }
    flow.push_back(d);
  }
  return flow;
}

hw::Trace lower_to_trace(const Arch& arch, const Workload& w) {
  HG_CHECK(w.num_points > 1, "lower_to_trace: need at least 2 points");
  const std::int64_t n = w.num_points;
  const std::int64_t kk = std::min<std::int64_t>(w.k, n - 1);
  const std::int64_t e = n * kk;

  hw::TraceBuilder tb;
  std::int64_t d = w.in_dim;
  double params = 0.0;
  // Single source of truth for merging / dead-sample elimination / the
  // lazy initial KNN (shared with the predictor's feature encoding).
  const ExecMarks marks = compute_exec_marks(arch);

  for (std::size_t gi = 0; gi < arch.genes.size(); ++gi) {
    const auto& g = arch.genes[gi];
    switch (g.op) {
      case OpType::Sample:
        if (marks.sample_executes[gi]) {
          if (g.fn.sample == SampleFunc::Knn)
            tb.knn(n, d, kk);
          else
            tb.random_sample(n, kk);
        }
        break;
      case OpType::Aggregate: {
        if (marks.implicit_initial_knn[gi]) tb.knn(n, w.in_dim, kk);
        const std::int64_t md = gnn::message_dim(g.fn.msg, d);
        tb.aggregate(e, md);
        d = md;
        break;
      }
      case OpType::Combine: {
        const std::int64_t c = g.fn.combine_dim();
        tb.combine(n, d, c);
        tb.other(n, c, "bn_act");
        params += static_cast<double>(d * c + c) + 2.0 * static_cast<double>(c);
        d = c;
        break;
      }
      case OpType::Connect:
        if (g.fn.connect == ConnectFunc::SkipConnect)
          tb.other(n, d, "skip_add");
        break;
    }
  }

  // Head: global max pool + MLP(d -> head_hidden -> classes).
  const std::int64_t hh = 128;
  tb.other(n, d, "global_max_pool");
  tb.combine(1, d, hh);
  tb.combine(1, hh, w.num_classes);
  params += static_cast<double>(d * hh + hh) +
            static_cast<double>(hh * w.num_classes + w.num_classes);
  tb.set_param_mb(params * 4.0 / 1e6);
  return tb.build();
}

double arch_param_mb(const Arch& arch, const Workload& w) {
  return lower_to_trace(arch, w).param_mb;
}

std::string visualize(const Arch& arch, const Workload& w) {
  std::string out;
  std::int64_t d = w.in_dim;
  bool graph_built = false, graph_fresh = false;
  const std::vector<bool> dead = dead_sample_mask(arch);
  for (std::size_t gi = 0; gi < arch.genes.size(); ++gi) {
    const auto& g = arch.genes[gi];
    switch (g.op) {
      case OpType::Sample:
        if (!graph_fresh && !dead[gi]) {
          out += sample_func_name(g.fn.sample);
          out += "\n";
          graph_built = true;
          graph_fresh = true;
        }
        break;
      case OpType::Aggregate: {
        if (!graph_built) {
          out += "KNN (implicit)\n";
          graph_built = true;
        }
        out += "Aggregate (" + gnn::message_type_name(g.fn.msg) + ", " +
               aggr_type_name(g.fn.aggr) + ")\n";
        d = gnn::message_dim(g.fn.msg, d);
        graph_fresh = false;
        break;
      }
      case OpType::Combine:
        out += "Combine (" + std::to_string(g.fn.combine_dim()) + ")\n";
        d = g.fn.combine_dim();
        graph_fresh = false;
        break;
      case OpType::Connect:
        if (g.fn.connect == ConnectFunc::SkipConnect) {
          out += "Skip-connect\n";
          graph_fresh = false;
        }
        break;
    }
  }
  out += "Classifier\n";
  return out;
}

Arch canonicalize(const Arch& arch) {
  Arch out = arch;
  for (auto& g : out.genes) {
    FunctionSet fn;  // defaults
    switch (g.op) {
      case OpType::Connect: fn.connect = g.fn.connect; break;
      case OpType::Aggregate:
        fn.aggr = g.fn.aggr;
        fn.msg = g.fn.msg;
        break;
      case OpType::Combine: fn.combine_dim_idx = g.fn.combine_dim_idx; break;
      case OpType::Sample: fn.sample = g.fn.sample; break;
    }
    g.fn = fn;
  }
  return out;
}

FunctionSet random_functions(Rng& rng) {
  FunctionSet fn;
  fn.connect = static_cast<ConnectFunc>(rng.uniform_int(
      static_cast<std::uint64_t>(kNumConnectFuncs)));
  fn.aggr = static_cast<AggrType>(
      rng.uniform_int(static_cast<std::uint64_t>(kNumAggrTypes)));
  fn.msg = static_cast<gnn::MessageType>(
      rng.uniform_int(static_cast<std::uint64_t>(gnn::kNumMessageTypes)));
  fn.combine_dim_idx = static_cast<std::int64_t>(
      rng.uniform_int(static_cast<std::uint64_t>(kNumCombineDims)));
  fn.sample = static_cast<SampleFunc>(
      rng.uniform_int(static_cast<std::uint64_t>(kNumSampleFuncs)));
  return fn;
}

namespace {

OpType random_op(Rng& rng) {
  return static_cast<OpType>(
      rng.uniform_int(static_cast<std::uint64_t>(kNumOpTypes)));
}

}  // namespace

Arch random_arch(const SpaceConfig& cfg, Rng& rng) {
  HG_CHECK(cfg.num_positions > 0,
           "random_arch: num_positions must be positive");
  Arch a;
  a.genes.resize(static_cast<std::size_t>(cfg.num_positions));
  for (auto& g : a.genes) {
    g.op = random_op(rng);
    g.fn = random_functions(rng);
  }
  return a;
}

Arch random_arch_with_functions(const SpaceConfig& cfg,
                                const FunctionSet& upper,
                                const FunctionSet& lower, Rng& rng) {
  Arch a = random_arch(cfg, rng);
  apply_functions(a, upper, lower);
  return a;
}

void apply_functions(Arch& arch, const FunctionSet& upper,
                     const FunctionSet& lower) {
  const std::size_t n = arch.genes.size();
  for (std::size_t i = 0; i < n; ++i)
    arch.genes[i].fn = (i < (n + 1) / 2) ? upper : lower;
}

Arch mutate(const Arch& parent, double p_op, double p_fn, Rng& rng) {
  Arch child = parent;
  for (auto& g : child.genes) {
    if (rng.bernoulli(p_op)) g.op = random_op(rng);
    if (rng.bernoulli(p_fn)) g.fn = random_functions(rng);
  }
  return child;
}

Arch mutate_ops(const Arch& parent, double p_op, Rng& rng) {
  Arch child = parent;
  for (auto& g : child.genes)
    if (rng.bernoulli(p_op)) g.op = random_op(rng);
  return child;
}

Arch crossover(const Arch& a, const Arch& b, Rng& rng) {
  HG_CHECK(a.genes.size() == b.genes.size(),
           "crossover: position count mismatch");
  Arch child = a;
  for (std::size_t i = 0; i < child.genes.size(); ++i)
    if (rng.bernoulli(0.5)) child.genes[i] = b.genes[i];
  return child;
}

FunctionSet mutate_functions(const FunctionSet& parent, double p, Rng& rng) {
  FunctionSet fn = parent;
  const FunctionSet fresh = random_functions(rng);
  if (rng.bernoulli(p)) fn.connect = fresh.connect;
  if (rng.bernoulli(p)) fn.aggr = fresh.aggr;
  if (rng.bernoulli(p)) fn.msg = fresh.msg;
  if (rng.bernoulli(p)) fn.combine_dim_idx = fresh.combine_dim_idx;
  if (rng.bernoulli(p)) fn.sample = fresh.sample;
  return fn;
}

double log10_operation_space_size(const SpaceConfig& cfg) {
  return static_cast<double>(cfg.num_positions) *
         std::log10(static_cast<double>(kNumOpTypes));
}

double log10_full_space_size(const SpaceConfig& cfg) {
  return static_cast<double>(cfg.num_positions) *
         std::log10(kOptionsPerPosition);
}

}  // namespace hg::hgnas
