#include "serve/model_registry.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "obs/metrics.h"

namespace enhancenet {
namespace serve {

namespace {

/// Prefixes a status with the model+version it concerns, preserving the
/// code: "model 'traffic' v3: <original message>".
Status Annotate(const std::string& name, int64_t version,
                const Status& status) {
  return Status(status.code(), "model '" + name + "' v" +
                                   std::to_string(version) + ": " +
                                   status.message());
}

}  // namespace

/// Registry handles for one model's serve.model.<name>.* metric family.
/// Created once per model name and cached; the underlying metrics live in
/// the process registry for the process lifetime.
struct ModelRegistry::Metrics {
  obs::Gauge* version = nullptr;
  obs::Gauge* shadow_version = nullptr;
  obs::Gauge* pool_size = nullptr;
  obs::Gauge* draining = nullptr;
  obs::Counter* swaps = nullptr;
  obs::Counter* requests = nullptr;
  obs::Counter* errors = nullptr;
  obs::Counter* shadow_requests = nullptr;
  obs::Counter* shadow_errors = nullptr;
  obs::Histogram* pool_occupancy = nullptr;
  obs::Histogram* shadow_delta = nullptr;

  static Metrics Create(const std::string& name) {
    obs::Registry& registry = obs::Registry::Global();
    const std::string prefix = "serve.model." + name;
    Metrics m;
    m.version = registry.GetGauge(prefix + ".version");
    m.shadow_version = registry.GetGauge(prefix + ".shadow.version");
    m.pool_size = registry.GetGauge(prefix + ".pool.size");
    m.draining = registry.GetGauge(prefix + ".draining");
    m.swaps = registry.GetCounter(prefix + ".swaps");
    m.requests = registry.GetCounter(prefix + ".requests");
    m.errors = registry.GetCounter(prefix + ".errors");
    m.shadow_requests = registry.GetCounter(prefix + ".shadow.requests");
    m.shadow_errors = registry.GetCounter(prefix + ".shadow.errors");
    m.pool_occupancy = registry.GetHistogram(prefix + ".pool.occupancy",
                                             obs::OccupancyBuckets());
    m.shadow_delta =
        registry.GetHistogram(prefix + ".shadow.delta", obs::DeltaBuckets());
    return m;
  }
};

/// One named model: the mutable control-plane state (active/shadow
/// pointers, retirement ledger) behind its own mutex, so a slow publish of
/// one model never blocks traffic on another. Entries are never removed,
/// which keeps `Model*` stable after the map lookup.
struct ModelRegistry::Model {
  explicit Model(const std::string& name) : metrics(Metrics::Create(name)) {}

  /// Guards the four fields below. Held only for pointer copies/flips —
  /// never across a forward — so Predict's critical section is a few
  /// instructions.
  mutable std::mutex mu;
  std::shared_ptr<Version> active;
  std::shared_ptr<Version> shadow;
  /// Weak handles to retired versions, pruned opportunistically; a live
  /// entry means some in-flight request is still draining on it. Mutable
  /// so the const Info() snapshot can prune expired entries.
  mutable std::vector<std::weak_ptr<Version>> retired;
  Metrics metrics;

  /// Drops expired retirement entries and refreshes the draining gauge.
  /// Caller holds `mu`.
  int64_t PruneRetiredLocked() const {
    retired.erase(std::remove_if(retired.begin(), retired.end(),
                                 [](const std::weak_ptr<Version>& v) {
                                   return v.expired();
                                 }),
                  retired.end());
    const int64_t draining = static_cast<int64_t>(retired.size());
    metrics.draining->Set(static_cast<double>(draining));
    return draining;
  }
};

ModelRegistry::ModelRegistry() = default;
ModelRegistry::~ModelRegistry() = default;

Status ModelRegistry::Version::Serve(const PredictRequest& request,
                                     PredictResponse* response) {
  if (batcher != nullptr && request.history.dim() == 3) {
    return batcher->Predict(request, response);
  }
  const size_t i = static_cast<size_t>(
                       cursor.fetch_add(1, std::memory_order_relaxed)) %
                   pool.size();
  return pool[i]->Predict(request, response);
}

ModelRegistry::Model* ModelRegistry::FindModel(
    const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = models_.find(name);
  return it == models_.end() ? nullptr : it->second.get();
}

ModelRegistry::Model* ModelRegistry::GetOrCreateModel(
    const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = models_[name];
  if (slot == nullptr) slot = std::make_unique<Model>(name);
  return slot.get();
}

std::string ModelRegistry::PublishedNamesForError() const {
  const std::vector<std::string> names = ModelNames();
  if (names.empty()) return "none";
  std::string joined;
  for (const std::string& n : names) {
    if (!joined.empty()) joined += ", ";
    joined += "'" + n + "'";
  }
  return joined;
}

Status ModelRegistry::BuildVersion(const std::string& name, int64_t version,
                                   const ModelSpec& spec,
                                   const data::StandardScaler& scaler,
                                   const PublishOptions& options,
                                   std::shared_ptr<Version>* out) const {
  if (version < 1) {
    return Status::InvalidArgument("model '" + name + "': version must be " +
                                   ">= 1, got " + std::to_string(version));
  }
  auto fresh = std::make_shared<Version>();
  fresh->version = version;
  // One allocator for the whole pool: the version's tensor storage is
  // staged together and retires together. Not metric-exporting — the
  // default allocator's tensor.alloc.* stream stays the trainer's.
  fresh->allocator = std::make_shared<TensorAllocator>(
      /*export_metrics=*/false);
  SessionOptions session_options = options.session;
  session_options.allocator = fresh->allocator;
  const int pool_size = std::max(1, options.pool_size);
  for (int i = 0; i < pool_size; ++i) {
    std::unique_ptr<InferenceSession> session;
    const Status created =
        InferenceSession::Create(spec, session_options, scaler, &session);
    if (!created.ok()) return Annotate(name, version, created);
    fresh->pool.push_back(std::move(session));
  }
  if (session_options.micro_batching) {
    MicroBatcherConfig bc;
    bc.max_batch_size = session_options.max_batch_size;
    bc.max_wait_ms = session_options.max_wait_ms;
    bc.deadline_aware = session_options.deadline_batching;
    bc.slo_ms = session_options.slo_ms;
    fresh->batcher =
        std::make_unique<MicroBatcher>(fresh->pool.front().get(), bc);
  }
  *out = std::move(fresh);
  return Status::Ok();
}

Status ModelRegistry::Publish(const std::string& name, int64_t version,
                              const ModelSpec& spec,
                              const data::StandardScaler& scaler,
                              const PublishOptions& options) {
  // Stage everything before touching live state: a failed publish leaves
  // current traffic exactly as it was.
  std::shared_ptr<Version> fresh;
  ENHANCENET_RETURN_IF_ERROR(
      BuildVersion(name, version, spec, scaler, options, &fresh));
  Model* model = GetOrCreateModel(name);
  std::shared_ptr<Version> old;
  {
    std::lock_guard<std::mutex> lock(model->mu);
    if (model->active != nullptr) {
      model->retired.push_back(model->active);
      model->metrics.swaps->Add();
    }
    old = std::move(model->active);
    model->active = std::move(fresh);  // the atomic flip
    model->metrics.version->Set(static_cast<double>(version));
    model->metrics.pool_size->Set(
        static_cast<double>(model->active->pool.size()));
    model->PruneRetiredLocked();
  }
  // `old` is released here, outside the lock: in-flight requests still
  // hold their own shared_ptr and drain undisturbed; the last one out
  // destroys the retired version's sessions, contexts, and allocator.
  return Status::Ok();
}

Status ModelRegistry::PublishShadow(const std::string& name, int64_t version,
                                    const ModelSpec& spec,
                                    const data::StandardScaler& scaler,
                                    const PublishOptions& options) {
  Model* model = FindModel(name);
  if (model == nullptr) {
    return Status::FailedPrecondition(
        "model '" + name + "': publish an active version before a shadow");
  }
  std::shared_ptr<Version> fresh;
  ENHANCENET_RETURN_IF_ERROR(
      BuildVersion(name, version, spec, scaler, options, &fresh));
  std::shared_ptr<Version> old;
  {
    std::lock_guard<std::mutex> lock(model->mu);
    if (model->active == nullptr) {
      return Status::FailedPrecondition(
          "model '" + name + "': publish an active version before a shadow");
    }
    if (model->shadow != nullptr) model->retired.push_back(model->shadow);
    old = std::move(model->shadow);
    model->shadow = std::move(fresh);
    model->metrics.shadow_version->Set(static_cast<double>(version));
    model->PruneRetiredLocked();
  }
  return Status::Ok();
}

Status ModelRegistry::Promote(const std::string& name) {
  Model* model = FindModel(name);
  if (model == nullptr) {
    return Status::NotFound("no model named '" + name +
                            "' is published (published: " +
                            PublishedNamesForError() + ")");
  }
  std::shared_ptr<Version> old;
  {
    std::lock_guard<std::mutex> lock(model->mu);
    if (model->shadow == nullptr) {
      return Status::FailedPrecondition("model '" + name +
                                        "': no shadow version to promote");
    }
    model->retired.push_back(model->active);
    old = std::move(model->active);
    model->active = std::move(model->shadow);
    model->shadow = nullptr;
    model->metrics.swaps->Add();
    model->metrics.version->Set(static_cast<double>(model->active->version));
    model->metrics.shadow_version->Set(0.0);
    model->metrics.pool_size->Set(
        static_cast<double>(model->active->pool.size()));
    model->PruneRetiredLocked();
  }
  return Status::Ok();
}

Status ModelRegistry::ClearShadow(const std::string& name) {
  Model* model = FindModel(name);
  if (model == nullptr) {
    return Status::NotFound("no model named '" + name +
                            "' is published (published: " +
                            PublishedNamesForError() + ")");
  }
  std::shared_ptr<Version> old;
  {
    std::lock_guard<std::mutex> lock(model->mu);
    if (model->shadow != nullptr) model->retired.push_back(model->shadow);
    old = std::move(model->shadow);
    model->metrics.shadow_version->Set(0.0);
    model->PruneRetiredLocked();
  }
  return Status::Ok();
}

void ModelRegistry::MirrorToShadow(Model* model,
                                   const std::shared_ptr<Version>& shadow,
                                   const PredictRequest& request,
                                   const PredictResponse& primary) {
  model->metrics.shadow_requests->Add();
  PredictResponse mirrored;
  const Status served = shadow->Serve(request, &mirrored);
  if (!served.ok() ||
      mirrored.forecast.shape() != primary.forecast.shape()) {
    model->metrics.shadow_errors->Add();
    return;
  }
  const float* a = primary.forecast.data();
  const float* b = mirrored.forecast.data();
  const int64_t n = primary.forecast.numel();
  double delta = 0.0;
  for (int64_t i = 0; i < n; ++i) {
    delta += std::abs(static_cast<double>(a[i]) - static_cast<double>(b[i]));
  }
  model->metrics.shadow_delta->Observe(n == 0 ? 0.0
                                              : delta / static_cast<double>(n));
}

Status ModelRegistry::Predict(const std::string& name,
                              const PredictRequest& request,
                              PredictResponse* response) {
  if (response == nullptr) {
    return Status::InvalidArgument("Predict: response is null");
  }
  Model* model = FindModel(name);
  if (model == nullptr) {
    return Status::NotFound("no model named '" + name +
                            "' is published (published: " +
                            PublishedNamesForError() + ")");
  }
  std::shared_ptr<Version> active;
  std::shared_ptr<Version> shadow;
  {
    std::lock_guard<std::mutex> lock(model->mu);
    active = model->active;
    shadow = model->shadow;
  }
  if (active == nullptr) {
    // Unreachable through the public API (Publish always installs an
    // active version before the model is findable), kept as a guard.
    return Status::FailedPrecondition("model '" + name +
                                      "': no active version");
  }
  model->metrics.requests->Add();
  const int64_t inflight =
      active->inflight.fetch_add(1, std::memory_order_relaxed) + 1;
  model->metrics.pool_occupancy->Observe(static_cast<double>(inflight));
  const Status served = active->Serve(request, response);
  active->inflight.fetch_sub(1, std::memory_order_relaxed);
  if (!served.ok()) {
    model->metrics.errors->Add();
    return Annotate(name, active->version, served);
  }
  response->model_version = active->version;
  if (shadow != nullptr) MirrorToShadow(model, shadow, request, *response);
  return Status::Ok();
}

Status ModelRegistry::Info(const std::string& name, ModelInfo* info) const {
  if (info == nullptr) {
    return Status::InvalidArgument("Info: info is null");
  }
  const Model* model = FindModel(name);
  if (model == nullptr) {
    return Status::NotFound("no model named '" + name +
                            "' is published (published: " +
                            PublishedNamesForError() + ")");
  }
  std::lock_guard<std::mutex> lock(model->mu);
  ModelInfo out;
  out.active_version =
      model->active != nullptr ? model->active->version : -1;
  out.shadow_version =
      model->shadow != nullptr ? model->shadow->version : -1;
  out.pool_size = model->active != nullptr
                      ? static_cast<int>(model->active->pool.size())
                      : 0;
  out.swaps = model->metrics.swaps->Get();
  out.draining = model->PruneRetiredLocked();
  *info = out;
  return Status::Ok();
}

std::vector<std::string> ModelRegistry::ModelNames() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> names;
  names.reserve(models_.size());
  for (const auto& [name, model] : models_) names.push_back(name);
  return names;
}

std::shared_ptr<TensorAllocator> ModelRegistry::ActiveAllocatorForTest(
    const std::string& name) const {
  Model* model = FindModel(name);
  if (model == nullptr) return nullptr;
  std::lock_guard<std::mutex> lock(model->mu);
  return model->active != nullptr ? model->active->allocator : nullptr;
}

}  // namespace serve
}  // namespace enhancenet
