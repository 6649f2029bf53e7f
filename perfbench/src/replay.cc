#include "replay.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <utility>

#include "autograd/ops.h"
#include "core/damgn.h"
#include "core/dfgn.h"
#include "core/enhance_gru_cell.h"
#include "core/enhance_tcn_layer.h"
#include "core/entity_memory.h"
#include "graph/adjacency.h"
#include "graph/graph_conv.h"
#include "models/rnn_model.h"
#include "models/tcn_model.h"
#include "nn/linear.h"
#include "runtime/context.h"

namespace perfbench {

namespace ag = ::enhancenet::autograd;
namespace core = ::enhancenet::core;
namespace graph = ::enhancenet::graph;
namespace models = ::enhancenet::models;
namespace nn = ::enhancenet::nn;
using enhancenet::Rng;
using enhancenet::Tensor;

namespace {

/// Span tags of replay i are kReplayRequestBase + i, apart from op tags.
constexpr int64_t kReplayRequestBase = 1000000;

/// The spans that make up the replayed forward itself.
constexpr const char* kForwardSpans[] = {
    "core.dfgn.generate", "core.damgn.supports", "core.gru_cell",
    "core.tcn_layer",     "nn.input_proj",       "nn.head"};

/// Every per-layer span the replay reports, probes included.
constexpr const char* kLayerSpans[] = {
    "core.dfgn.generate",   "core.damgn.supports", "core.damgn.static_mix",
    "core.damgn.dynamic_c", "graph.apply_support", "core.gru_cell",
    "core.tcn_layer",       "nn.head"};

int TopK() {
  return enhancenet::runtime::RuntimeContext::Current().exec().topk.load(
      std::memory_order_relaxed);
}

/// Copies every parameter of `into` from the parameter of `from` named
/// prefix + (its name). Without a prefix the two parameter sets must match
/// exactly. Returns "" or the first mismatch.
std::string CopyByName(const nn::Module& from, const nn::Module& into,
                       const std::string& prefix = "") {
  std::map<std::string, ag::Variable> source;
  for (auto& [name, var] : from.NamedParameters()) source[name] = var;
  const auto targets = into.NamedParameters();
  if (prefix.empty() && targets.size() != source.size()) {
    return "model has " + std::to_string(source.size()) +
           " parameters, replay " + std::to_string(targets.size());
  }
  for (auto& [name, var] : targets) {
    const auto it = source.find(prefix + name);
    if (it == source.end()) return "model has no parameter " + prefix + name;
    if (it->second.data().shape() != var.data().shape()) {
      return "shape mismatch for " + prefix + name;
    }
    ag::Variable target = var;
    target.mutable_data() = it->second.data().Clone();
  }
  return "";
}

/// Times the DAMGN halves CombinedSupports is built from, at the step's own
/// signal: StaticMix, and DynamicC (dense) or SparseDynamicC (top-k).
void ProbeDamgn(const core::Damgn& damgn, const ag::Variable& signal,
                SpanRecorder* spans, int64_t request) {
  {
    ScopedSpan span(spans, "core.damgn.static_mix", -1, request);
    ag::Variable s = damgn.StaticMix();
  }
  ScopedSpan span(spans, "core.damgn.dynamic_c", -1, request);
  const int k = TopK();
  if (k > 0) {
    graph::SparseAdjacency c = damgn.SparseDynamicC(signal, k);
  } else {
    ag::Variable c = damgn.DynamicC(signal);
  }
}

/// Times ApplySupport of every support on `x` (the consuming cell's input
/// shape).
void ProbeApply(const std::vector<graph::Support>& supports,
                const ag::Variable& x, SpanRecorder* spans, int64_t request) {
  ScopedSpan span(spans, "graph.apply_support", -1, request);
  for (const graph::Support& support : supports) {
    ag::Variable y = graph::ApplySupport(support, x);
  }
}

/// Replay of models::RnnModel, mirroring RnnModel::Forward call for call.
class GruReplay : public Replay, public nn::Module {
 public:
  GruReplay(const models::RnnModelConfig& config, Rng& rng) : config_(config) {
    if (config.use_dfgn) {
      memory_ = std::make_unique<core::EntityMemoryBank>(
          config.num_entities, config.memory_dim, rng);
      RegisterSubmodule("memory", memory_.get());
    }
    int64_t num_supports = 0;
    if (config.use_graph) {
      num_supports = 2 * config.max_hops;
      if (config.use_damgn) {
        damgn_ = std::make_unique<core::Damgn>(
            config.adjacency, config.num_entities, 1, config.damgn_mem_dim,
            config.damgn_embed_dim, rng);
        RegisterSubmodule("damgn", damgn_.get());
      } else {
        for (Tensor& s :
             graph::DiffusionSupports(config.adjacency, config.max_hops)) {
          static_supports_.push_back(ag::Variable::Leaf(std::move(s), false));
        }
      }
    }
    const ag::Variable* mem = config.use_dfgn ? &memory_->memory() : nullptr;
    for (int64_t layer = 0; layer < config.num_layers; ++layer) {
      core::GruCellConfig cell;
      cell.num_entities = config.num_entities;
      cell.hidden = config.hidden;
      cell.num_supports = num_supports;
      cell.use_dfgn = config.use_dfgn;
      cell.dfgn_hidden1 = config.dfgn_hidden1;
      cell.dfgn_hidden2 = config.dfgn_hidden2;
      cell.in_channels = layer == 0 ? config.in_channels : config.hidden;
      encoder_.push_back(std::make_unique<core::EnhanceGruCell>(cell, mem, rng));
      RegisterSubmodule("encoder" + std::to_string(layer),
                        encoder_.back().get());
      cell.in_channels = layer == 0 ? 1 : config.hidden;
      decoder_.push_back(std::make_unique<core::EnhanceGruCell>(cell, mem, rng));
      RegisterSubmodule("decoder" + std::to_string(layer),
                        decoder_.back().get());
    }
    output_ = std::make_unique<nn::Linear>(config.hidden, 1, rng);
    RegisterSubmodule("output", output_.get());
  }

  std::string CopyWeightsFrom(const models::ForecastingModel& model) override {
    SetTraining(model.training());
    return CopyByName(model, *this);
  }

  ag::Variable Forward(const Tensor& x, const Tensor* teacher,
                       float teacher_prob, Rng& rng, SpanRecorder* spans,
                       int64_t request, bool probes) const override {
    const int64_t batch = x.size(0);
    const int64_t n = x.size(1);
    const int64_t history = x.size(2);
    const int64_t channels = x.size(3);
    const size_t layers = encoder_.size();
    const ag::Variable input = ag::Variable::Leaf(x, false);

    std::vector<core::EnhanceGruCell::Filters> enc_filters;
    std::vector<core::EnhanceGruCell::Filters> dec_filters;
    for (size_t l = 0; l < layers; ++l) {
      {
        ScopedSpan span(spans, "core.dfgn.generate", -1, request);
        enc_filters.push_back(encoder_[l]->GenerateFilters());
      }
      ScopedSpan span(spans, "core.dfgn.generate", -1, request);
      dec_filters.push_back(decoder_[l]->GenerateFilters());
    }

    std::vector<ag::Variable> hidden(layers);
    for (size_t l = 0; l < layers; ++l) {
      hidden[l] = ag::Variable::Leaf(
          Tensor::Zeros({batch, n, config_.hidden}), false);
    }
    const auto step = [&](const ag::Variable& step_in,
                          const ag::Variable& signal,
                          const std::vector<std::unique_ptr<core::EnhanceGruCell>>&
                              cells,
                          const std::vector<core::EnhanceGruCell::Filters>&
                              filters) {
      std::vector<graph::Support> supports;
      if (config_.use_graph) {
        ScopedSpan span(spans, "core.damgn.supports", -1, request);
        supports = damgn_ != nullptr
                       ? damgn_->CombinedSupports(signal, config_.max_hops,
                                                  /*bidirectional=*/true)
                       : static_supports_;
      }
      if (probes && damgn_ != nullptr) {
        ProbeDamgn(*damgn_, signal, spans, request);
      }
      ag::Variable layer_in = step_in;
      for (size_t l = 0; l < layers; ++l) {
        if (probes && !supports.empty()) {
          ProbeApply(supports, ag::Concat({layer_in, hidden[l]}, -1), spans,
                     request);
        }
        ScopedSpan span(spans, "core.gru_cell", -1, request);
        hidden[l] = cells[l]->Forward(layer_in, hidden[l], supports,
                                      filters[l]);
        layer_in = hidden[l];
      }
      return layer_in;
    };

    for (int64_t t = 0; t < history; ++t) {
      ag::Variable x_t =
          ag::Reshape(ag::Slice(input, 2, t, 1), {batch, n, channels});
      step(x_t, ag::Slice(x_t, -1, 0, 1), encoder_, enc_filters);
    }

    ag::Variable teacher_var;
    if (teacher != nullptr) teacher_var = ag::Variable::Leaf(*teacher, false);
    ag::Variable prev =
        ag::Variable::Leaf(Tensor::Zeros({batch, n, 1}), false);
    std::vector<ag::Variable> outputs;
    for (int64_t f = 0; f < config_.horizon; ++f) {
      ag::Variable top = step(prev, prev, decoder_, dec_filters);
      ag::Variable y_hat;
      {
        ScopedSpan span(spans, "nn.head", -1, request);
        y_hat = output_->Forward(top);
      }
      outputs.push_back(y_hat);
      if (training() && teacher_var.defined() &&
          rng.Uniform() < teacher_prob) {
        prev = ag::Reshape(ag::Slice(teacher_var, -1, f, 1), {batch, n, 1});
      } else {
        prev = y_hat;
      }
    }
    return ag::Reshape(ag::Concat(outputs, -1),
                       {batch, n, config_.horizon});
  }

 private:
  models::RnnModelConfig config_;
  std::unique_ptr<core::EntityMemoryBank> memory_;
  std::unique_ptr<core::Damgn> damgn_;
  std::vector<graph::Support> static_supports_;
  std::vector<std::unique_ptr<core::EnhanceGruCell>> encoder_;
  std::vector<std::unique_ptr<core::EnhanceGruCell>> decoder_;
  std::unique_ptr<nn::Linear> output_;
};

/// Replay of models::TcnModel, mirroring TcnModel::Forward call for call.
/// EnhanceTcnLayer generates its DFGN filters inside Forward, so the
/// generator is timed by a probe: a standalone Dfgn per layer holding that
/// layer's generator weights.
class TcnReplay : public Replay, public nn::Module {
 public:
  TcnReplay(const models::TcnModelConfig& config, Rng& rng) : config_(config) {
    if (config.use_dfgn) {
      memory_ = std::make_unique<core::EntityMemoryBank>(
          config.num_entities, config.memory_dim, rng);
      RegisterSubmodule("memory", memory_.get());
    }
    int64_t num_supports = 0;
    if (config.use_graph) {
      num_supports = 2 * config.max_hops;
      if (config.use_damgn) {
        damgn_ = std::make_unique<core::Damgn>(
            config.adjacency, config.num_entities, config.in_channels,
            config.damgn_mem_dim, config.damgn_embed_dim, rng);
        RegisterSubmodule("damgn", damgn_.get());
      } else {
        for (Tensor& s :
             graph::DiffusionSupports(config.adjacency, config.max_hops)) {
          static_supports_.push_back(ag::Variable::Leaf(std::move(s), false));
        }
      }
    }
    input_proj_ = std::make_unique<nn::Linear>(config.in_channels,
                                               config.residual_channels, rng);
    RegisterSubmodule("input_proj", input_proj_.get());
    const ag::Variable* mem = config.use_dfgn ? &memory_->memory() : nullptr;
    for (size_t l = 0; l < config.dilations.size(); ++l) {
      core::TcnLayerConfig layer;
      layer.num_entities = config.num_entities;
      layer.in_channels = config.residual_channels;
      layer.conv_channels = config.conv_channels;
      layer.skip_channels = config.skip_channels;
      layer.kernel_size = config.kernel_size;
      layer.dilation = config.dilations[l];
      layer.num_supports = num_supports;
      layer.use_dfgn = config.use_dfgn;
      layer.dfgn_hidden1 = config.dfgn_hidden1;
      layer.dfgn_hidden2 = config.dfgn_hidden2;
      layer.dropout = config.dropout;
      layer.compute_residual = l + 1 < config.dilations.size();
      layer.skip_last_only = true;
      layers_.push_back(std::make_unique<core::EnhanceTcnLayer>(layer, mem, rng));
      RegisterSubmodule("layer" + std::to_string(l), layers_.back().get());
      if (config.use_dfgn) {
        generators_.push_back(std::make_unique<core::Dfgn>(
            config.memory_dim, config.dfgn_hidden1, config.dfgn_hidden2,
            config.kernel_size * config.residual_channels * 2 *
                config.conv_channels,
            rng));
      }
    }
    end1_ = std::make_unique<nn::Linear>(config.skip_channels,
                                         config.end_channels, rng);
    end2_ = std::make_unique<nn::Linear>(config.end_channels, config.horizon,
                                         rng);
    RegisterSubmodule("end1", end1_.get());
    RegisterSubmodule("end2", end2_.get());
  }

  std::string CopyWeightsFrom(const models::ForecastingModel& model) override {
    SetTraining(model.training());
    std::string error = CopyByName(model, *this);
    for (size_t l = 0; l < generators_.size() && error.empty(); ++l) {
      error = CopyByName(model, *generators_[l],
                         "layer" + std::to_string(l) + ".dfgn.");
    }
    return error;
  }

  ag::Variable Forward(const Tensor& x, const Tensor* /*teacher*/,
                       float /*teacher_prob*/, Rng& rng, SpanRecorder* spans,
                       int64_t request, bool probes) const override {
    const int64_t batch = x.size(0);
    const int64_t n = x.size(1);
    const int64_t time = x.size(2);
    const ag::Variable input = ag::Variable::Leaf(x, false);

    std::vector<graph::Support> supports;
    if (config_.use_graph) {
      ag::Variable folded = core::FoldTime(input);
      {
        ScopedSpan span(spans, "core.damgn.supports", -1, request);
        supports = damgn_ != nullptr
                       ? damgn_->CombinedSupports(folded, config_.max_hops,
                                                  /*bidirectional=*/true)
                       : static_supports_;
      }
      if (probes && damgn_ != nullptr) {
        ProbeDamgn(*damgn_, folded, spans, request);
      }
    }
    ag::Variable h;
    {
      ScopedSpan span(spans, "nn.input_proj", -1, request);
      h = input_proj_->Forward(input);
    }
    ag::Variable skip_sum;
    for (size_t l = 0; l < layers_.size(); ++l) {
      if (probes && !generators_.empty()) {
        ScopedSpan span(spans, "core.dfgn.generate", -1, request);
        ag::Variable filters = generators_[l]->Generate(memory_->memory());
      }
      if (probes && !supports.empty()) {
        // The layer applies each support to its gated output, folded to
        // [B·T, N, C']; the values do not change the cost.
        Rng probe_rng(static_cast<uint64_t>(l) + 1);
        ProbeApply(supports,
                   ag::Variable::Leaf(
                       Tensor::Randn({batch * time, n, config_.conv_channels},
                                     probe_rng),
                       false),
                   spans, request);
      }
      core::EnhanceTcnLayer::Output out;
      {
        ScopedSpan span(spans, "core.tcn_layer", -1, request);
        out = layers_[l]->Forward(h, supports, rng);
      }
      skip_sum = skip_sum.defined() ? ag::Add(skip_sum, out.skip) : out.skip;
      if (out.residual.defined()) h = out.residual;
    }
    ScopedSpan span(spans, "nn.head", -1, request);
    ag::Variable last = ag::Reshape(
        skip_sum.size(2) == 1 ? skip_sum : ag::Slice(skip_sum, 2, time - 1, 1),
        {batch, n, config_.skip_channels});
    ag::Variable head = ag::Relu(last);
    head = ag::Relu(end1_->Forward(head));
    return end2_->Forward(head);
  }

 private:
  models::TcnModelConfig config_;
  std::unique_ptr<core::EntityMemoryBank> memory_;
  std::unique_ptr<core::Damgn> damgn_;
  std::vector<graph::Support> static_supports_;
  std::unique_ptr<nn::Linear> input_proj_;
  std::vector<std::unique_ptr<core::EnhanceTcnLayer>> layers_;
  std::vector<std::unique_ptr<core::Dfgn>> generators_;  // probes only
  std::unique_ptr<nn::Linear> end1_;
  std::unique_ptr<nn::Linear> end2_;
};

}  // namespace

std::unique_ptr<Replay> MakeReplay(const models::ForecastingModel& model) {
  Rng rng(1);  // the weights are overwritten by CopyWeightsFrom
  std::unique_ptr<Replay> replay;
  if (const auto* rnn = dynamic_cast<const models::RnnModel*>(&model)) {
    replay = std::make_unique<GruReplay>(rnn->config(), rng);
  } else if (const auto* tcn = dynamic_cast<const models::TcnModel*>(&model)) {
    if (tcn->config().use_adaptive_static) return nullptr;  // not mirrored
    replay = std::make_unique<TcnReplay>(tcn->config(), rng);
  }
  return replay;
}

double MeasureReplay(const models::ForecastingModel& model, const Tensor& x,
                     const Tensor* teacher, float teacher_prob,
                     uint64_t rng_seed, int reps, SpanRecorder* spans,
                     Result* result) {
  std::unique_ptr<Replay> replay = MakeReplay(model);
  result->Check(replay != nullptr, "replay mirrors the model class");
  if (replay == nullptr) return 0.0;
  const std::string copy_error = replay->CopyWeightsFrom(model);
  result->Check(copy_error.empty(),
                "replay weights copied by NamedParameters name" +
                    (copy_error.empty() ? "" : " (" + copy_error + ")"));
  if (!copy_error.empty()) return 0.0;

  {
    Rng rng(rng_seed);
    replay->Forward(x, teacher, teacher_prob, rng, nullptr, -1, false);
  }
  // Timed reps: Model::Forward and the replay without probes, back to
  // back and in alternating order. A rep's coverage is the share of the
  // replay call its forward spans cover (both wall clock, over the same
  // interval) times the replay's process CPU time over Model::Forward's.
  // A ratio of wall-clock times of two calls swings with the host's load:
  // when it steals CPU time from this machine, one call can take twice as
  // long as the other, where the CPU time of each stays put.
  std::vector<double> forward_ms;
  std::vector<double> replay_ms;
  std::vector<double> coverage_of_rep;
  std::map<std::string, std::vector<double>> per_name;
  double worst_diff = 0.0;
  double scale = 0.0;
  for (int rep = 0; rep < reps; ++rep) {
    const int64_t tag = kReplayRequestBase + rep;
    Tensor expected;
    Tensor replayed;
    double model_cpu_s = 0.0;
    double replay_cpu_s = 0.0;
    double replay_call_s = 0.0;
    const auto run_model = [&] {
      Rng rng(rng_seed);
      ScopedSpan span(spans, "replay.model_forward", -1, tag);
      model_cpu_s = CpuSeconds([&] {
        expected = model.Forward(x, teacher, teacher_prob, rng).data();
      });
    };
    const auto run_replay = [&] {
      Rng rng(rng_seed);
      replay_cpu_s = CpuSeconds([&] {
        replay_call_s = TimeSeconds([&] {
          replayed =
              replay->Forward(x, teacher, teacher_prob, rng, spans, tag, false)
                  .data();
        });
      });
    };
    if (rep % 2 == 0) {
      run_model();
      run_replay();
    } else {
      run_replay();
      run_model();
    }
    worst_diff = std::max(worst_diff, MaxAbsDiff(expected, replayed));
    const float* p = expected.data();
    for (int64_t i = 0; i < expected.numel(); ++i) {
      scale = std::max(scale, static_cast<double>(std::fabs(p[i])));
    }
    const std::vector<Span> all = spans->Snapshot();
    forward_ms.push_back(TotalMs(all, "replay.model_forward", tag));
    double total = 0.0;
    for (const char* name : kForwardSpans) total += TotalMs(all, name, tag);
    replay_ms.push_back(total);
    coverage_of_rep.push_back(total / (1e3 * replay_call_s) * replay_cpu_s /
                              model_cpu_s);
    for (const char* name : kLayerSpans) {
      per_name[name].push_back(TotalMs(all, name, tag));
    }
  }
  // One more replay with the probes; a span name the timed reps never
  // recorded (the probes, and TCN filter generation) takes its value here.
  const int64_t probe_tag = kReplayRequestBase + reps;
  {
    Rng rng(rng_seed);
    replay->Forward(x, teacher, teacher_prob, rng, spans, probe_tag, true);
  }
  const std::vector<Span> all = spans->Snapshot();
  for (const char* name : kLayerSpans) {
    double value = Median(per_name[name]);
    if (value == 0.0) value = TotalMs(all, name, probe_tag);
    result->Set(std::string(name) + "_ms", value, "ms");
  }
  const double coverage = Median(coverage_of_rep);
  result->Set("models.replay_ms", Median(replay_ms), "ms");
  result->Set("models.replay_coverage", coverage, "ratio");
  result->Note(Format("replay: %d reps, Model::Forward median %.3f ms", reps,
                      Median(forward_ms)));
  result->Check(worst_diff <= 1e-5 * (1.0 + scale),
                Format("replay forecast matches Model::Forward "
                       "(max |diff| %.3g, scale %.3g)",
                       worst_diff, scale));
  result->Check(coverage >= 0.8 && coverage <= 1.2,
                Format("models.replay_coverage %.3f within [0.8, 1.2]",
                       coverage));
  return Median(forward_ms);
}

}  // namespace perfbench
