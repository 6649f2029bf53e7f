#ifndef PERFBENCH_REPLAY_H_
#define PERFBENCH_REPLAY_H_

// Layer replay: rebuilds a workload's model from the library's public layer
// classes (EntityMemoryBank, Damgn, Dfgn, EnhanceGruCell, EnhanceTcnLayer,
// Linear), copies the model's weights in by NamedParameters name, and runs
// the model's forward call by call with a span around each layer call. The
// spans come from this file only; nothing inside the library is touched.
//
// Span names (per replayed forward, tagged with the replay index):
//   core.dfgn.generate, core.damgn.supports, core.gru_cell, core.tcn_layer,
//   nn.input_proj, nn.head                       -- the forward itself
//   core.damgn.static_mix, core.damgn.dynamic_c,
//   graph.apply_support, and for TCN core.dfgn.generate
//                                                -- probes: extra calls at
//                                                   the same inputs, kept out
//                                                   of the replay total
// models.replay_coverage is the median over the timed reps of the share of
// the replay call that the forward's own spans cover, times the replay's
// process CPU time over that of the Model::Forward run beside it.

#include <memory>
#include <string>
#include <vector>

#include "bench_stats.h"
#include "harness.h"
#include "models/forecasting_model.h"

namespace perfbench {

class Replay {
 public:
  virtual ~Replay() = default;

  /// Replays Model::Forward(x, teacher, teacher_prob, rng) with spans tagged
  /// `request`; `probes` adds the probe calls. Must equal the model's output.
  virtual enhancenet::autograd::Variable Forward(
      const enhancenet::Tensor& x, const enhancenet::Tensor* teacher,
      float teacher_prob, enhancenet::Rng& rng, SpanRecorder* spans,
      int64_t request, bool probes) const = 0;

  /// Copies the model's current weights in by name. Returns an empty string
  /// on success, else a description of the first mismatch.
  virtual std::string CopyWeightsFrom(
      const enhancenet::models::ForecastingModel& model) = 0;
};

/// Builds the replay of an RnnModel (D-DA-GRNN and relatives) or TcnModel
/// (D-DA-GTCN and relatives). Null for any other model class.
std::unique_ptr<Replay> MakeReplay(
    const enhancenet::models::ForecastingModel& model);

/// Traced runs only: replays `reps` forwards of `model` on `x` (after one
/// untimed warm-up replay), each beside a timed Model::Forward with the same
/// inputs and Rng seed, then one replay with the probes, all under the
/// caller's grad mode and runtime context.
/// Sets the replay metrics (medians over the reps) and checks that the replay reproduces the forecast and covers
/// Model::Forward's time. Returns the median time of Model::Forward (ms).
double MeasureReplay(const enhancenet::models::ForecastingModel& model,
                   const enhancenet::Tensor& x,
                   const enhancenet::Tensor* teacher, float teacher_prob,
                   uint64_t rng_seed, int reps, SpanRecorder* spans,
                   Result* result);

}  // namespace perfbench

#endif  // PERFBENCH_REPLAY_H_
