#ifndef ENHANCENET_SERVE_INFERENCE_SESSION_H_
#define ENHANCENET_SERVE_INFERENCE_SESSION_H_

#include <memory>
#include <string>

#include "common/status.h"
#include "data/dataset.h"
#include "models/model_factory.h"
#include "runtime/context.h"
#include "serve/stats.h"
#include "tensor/tensor.h"

namespace enhancenet {
namespace serve {

/// What the registry versions: everything needed to reconstruct a trained
/// model for serving — the factory name and sizing it was trained with and
/// the checkpoint holding its weights. Two ModelSpecs with the same fields
/// serve bitwise-identical predictions; per-session runtime knobs live in
/// SessionOptions instead.
struct ModelSpec {
  std::string model_name = "D-GRNN";
  int64_t num_entities = 0;
  int64_t in_channels = 1;
  /// Channel predictions are made for; must be < in_channels.
  int64_t target_channel = 0;
  /// Raw distance-kernel adjacency [N, N]; may be empty for graph-free
  /// models (RNN, D-RNN, TCN, WaveNet, D-TCN, LSTM).
  Tensor adjacency;
  models::ModelSizing sizing;
  /// Binary weight checkpoint (io::SaveCheckpoint). Empty serves the
  /// freshly-initialized weights — useful in tests only. When the file
  /// carries a metadata header (io::CheckpointMeta), Create rejects any
  /// model-name/sizing mismatch against this spec before touching weights.
  std::string checkpoint_path;
};

/// Per-session runtime knobs: everything that changes *how* a spec is
/// served without changing *what* it predicts.
struct SessionOptions {
  /// Seed for weight initialization before the checkpoint overwrites it.
  /// Irrelevant to predictions when a checkpoint is loaded.
  uint64_t seed = 2024;
  /// Top-k sparsification of the DAMGN dynamic adjacency for this session:
  /// -1 inherits the process-wide setting (ENHANCENET_TOPK), 0 forces the
  /// dense path, k >= 1 keeps k neighbours per row. A non-negative value
  /// gives the session a private ExecConfig so the knob never leaks into
  /// other sessions or the trainer.
  int topk = -1;
  /// Entity-sharded execution for this session (DESIGN.md §12): -1 inherits
  /// the process-wide ENHANCENET_SHARDS, 1 forces the single-context path,
  /// S >= 2 splits the graph applies across S per-shard RuntimeContexts
  /// (each with its own allocator) parked on this session's context — the
  /// whole set retires as a unit with the session. Like topk, a
  /// non-negative value gives the session a private ExecConfig. Predictions
  /// are bitwise-identical for every S.
  int shards = -1;
  /// Micro-batching policy, consumed by ModelRegistry (a bare
  /// InferenceSession ignores these): when enabled, single-window Predicts
  /// through the registry coalesce into batched forwards.
  bool micro_batching = false;
  int64_t max_batch_size = 8;
  double max_wait_ms = 2.0;
  /// Deadline-aware flush (default): the batch leader launches when the
  /// tightest enqueued latency budget is nearly spent, instead of sleeping
  /// a fixed max_wait_ms. false restores the legacy fixed-wait policy.
  bool deadline_batching = true;
  /// Default per-request latency budget (ms) for requests without an
  /// explicit PredictRequest::deadline_ms. <= 0 inherits ENHANCENET_SLO_MS;
  /// when that is unset too, max_wait_ms doubles as the budget (which makes
  /// the deadline policy a drop-in for fixed-wait configs).
  double slo_ms = 0.0;
  /// Allocator for the session's private RuntimeContext. Null (default)
  /// creates a fresh private allocator; the registry passes one shared
  /// per-version allocator to every session of a pool so the whole
  /// version's tensor storage is staged — and released on retire —
  /// together.
  std::shared_ptr<TensorAllocator> allocator;
};

/// One forecasting request.
struct PredictRequest {
  /// History window: [N, H, C] for a single window or [B, N, H, C] for a
  /// caller-assembled batch. Raw (unscaled) units unless `scaled_input`.
  Tensor history;
  /// When true, `history` is already z-scored with the session's scaler
  /// (e.g. it came from a WindowDataset batch).
  bool scaled_input = false;
  /// When true, the forecast is returned in scaled units instead of being
  /// passed through the scaler's inverse transform.
  bool scaled_output = false;
  /// Optional latency budget in milliseconds, consumed by the deadline-aware
  /// MicroBatcher: the batch this request joins flushes early enough
  /// (reserving the observed forward time) for the request to complete
  /// within the budget, and completions past it count as deadline misses.
  /// <= 0 means "no explicit deadline" — the batcher's configured slo_ms /
  /// max_wait_ms budget applies. Ignored by direct InferenceSession calls.
  double deadline_ms = 0.0;
};

/// A served forecast.
struct PredictResponse {
  /// [N, F] for single-window requests, [B, N, F] for batched ones. Real
  /// (unscaled) target-channel units unless the request set scaled_output.
  Tensor forecast;
  /// Wall-clock time spent inside Predict, including validation and
  /// (de)scaling.
  double latency_ms = 0.0;
  /// Version that served the request when routed through a ModelRegistry;
  /// -1 for direct session calls.
  int64_t model_version = -1;
};

/// A thread-safe serving handle owning a model, its weights, and the scaler
/// it was trained with.
///
/// Construction is fallible (Status) — unknown model names, missing or
/// mismatched checkpoints, and inconsistent configs are reported, never
/// CHECK-aborted. Predict validates every request (rank, shape, finiteness)
/// before the model sees it, so malformed input also surfaces as Status.
///
/// Forwards run in eval mode under autograd::NoGradGuard: no graph is
/// recorded, predictions are bitwise identical to the training-time eval
/// path, and — because eval-mode Forward is const and draws nothing from
/// the Rng — any number of threads may call Predict concurrently.
///
/// Metrics: every session records into the process registry under the
/// "serve.session." prefix (see ServeMetrics in stats.h); stats() is a
/// snapshot of those metrics. Predict/Validate are virtual so tests can
/// inject failing forwards under the MicroBatcher.
class InferenceSession {
 public:
  /// Builds the model, loads the checkpoint (if any), and switches to eval
  /// mode. If the checkpoint carries a metadata header, a spec mismatch
  /// (model name, entity/channel counts, history/horizon) is rejected with
  /// a precise FailedPrecondition before any weight is read. On failure
  /// `*out` is untouched.
  static Status Create(const ModelSpec& spec, const SessionOptions& options,
                       const data::StandardScaler& scaler,
                       std::unique_ptr<InferenceSession>* out);

  virtual ~InferenceSession() = default;

  /// Validates, scales, forwards, and unscales one request. Thread-safe.
  virtual Status Predict(const PredictRequest& request,
                         PredictResponse* response) const;

  /// Shape/finiteness validation only (no forward). MicroBatcher uses this
  /// to reject bad requests before they join a batch.
  virtual Status Validate(const Tensor& history) const;

  /// Applies the session scaler to a raw history window (any rank whose
  /// last dimension is the channel count).
  Tensor ScaleWindow(const Tensor& history) const;

  /// Inverse-transforms a scaled forecast back to real target-channel units.
  Tensor UnscaleForecast(const Tensor& forecast) const;

  /// Metrics snapshot; `forwards` here counts Predict calls (the
  /// MicroBatcher layers its own occupancy accounting on top).
  Stats stats() const;

  const models::ForecastingModel& model() const { return *model_; }
  const ModelSpec& spec() const { return spec_; }

  /// The session's private runtime context: its own allocator (so two
  /// sessions never contend on a free-list mutex, and a session never
  /// shares pooled blocks with the trainer) and its own workspace arena.
  /// Exec config is shared with the default context unless the options set
  /// a session-local topk.
  runtime::RuntimeContext& context() const { return context_; }

  int64_t num_entities() const { return spec_.num_entities; }
  int64_t in_channels() const { return spec_.in_channels; }
  int64_t history() const { return model_->history(); }
  int64_t horizon() const { return model_->horizon(); }

 protected:
  /// Protected so test doubles (e.g. a failing-forward session for
  /// poisoned-batch coverage) can subclass; production code goes through
  /// Create().
  InferenceSession(ModelSpec spec, SessionOptions options,
                   std::unique_ptr<models::ForecastingModel> model,
                   const data::StandardScaler& scaler);

 private:
  ModelSpec spec_;
  SessionOptions options_;
  std::unique_ptr<models::ForecastingModel> model_;
  data::StandardScaler scaler_;
  ServeMetrics metrics_;
  /// Bound inside Predict. Mutable because binding a context is an
  /// implementation detail of the logically-const forward; RuntimeContext
  /// itself is safe to bind from many threads at once. Constructed with a
  /// private exec config when the session options pin a topk.
  mutable runtime::RuntimeContext context_;
};

}  // namespace serve
}  // namespace enhancenet

#endif  // ENHANCENET_SERVE_INFERENCE_SESSION_H_
