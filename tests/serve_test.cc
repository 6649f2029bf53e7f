#include <cmath>
#include <cstdio>
#include <thread>
#include <vector>

#include "autograd/grad_mode.h"
#include "autograd/ops.h"
#include "common/stopwatch.h"
#include "data/synthetic.h"
#include "graph/adjacency.h"
#include "gtest/gtest.h"
#include "io/checkpoint.h"
#include "obs/metrics.h"
#include "runtime/workspace.h"
#include "serve/inference_session.h"
#include "serve/micro_batcher.h"
#include "tensor/tensor_ops.h"
#include "test_util.h"

namespace enhancenet {
namespace {

namespace ag = ::enhancenet::autograd;

constexpr int64_t kEntities = 8;
constexpr int64_t kHistory = 12;
constexpr int64_t kHorizon = 12;

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

models::ModelSizing TinySizing() {
  models::ModelSizing sizing;
  sizing.rnn_hidden = 8;
  sizing.rnn_hidden_dfgn = 6;
  sizing.tcn_channels = 6;
  sizing.tcn_channels_dfgn = 4;
  sizing.skip_channels = 6;
  sizing.end_channels = 8;
  sizing.memory_dim = 6;
  sizing.dfgn_hidden1 = 6;
  sizing.dfgn_hidden2 = 3;
  return sizing;
}

/// Shared fixture: a trained-free (perturbed-from-init) D-GRNN checkpoint
/// plus the dataset, scaler, and eval-path batch it should be served with.
class ServeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Serve metrics are process-global (shared "serve.*" registry names);
    // zero them so each test sees exact counts.
    obs::Registry::Global().ResetForTest();
    data_ = data::MakeEbLike(kEntities, 2, /*seed=*/5);
    adjacency_ = graph::GaussianKernelAdjacency(data_.distances);
    scaler_.Fit(data_.series, 0, data_.num_steps() * 7 / 10);
    scaled_ = scaler_.Transform(data_.series);

    Rng rng(11);
    model_ = models::MakeModel("D-GRNN", kEntities, 1, adjacency_,
                               TinySizing(), rng);
    // Perturb away from init so checkpoint loading is observable.
    Rng noise(12);
    for (auto& p : model_->Parameters()) {
      ops::AxpyInPlace(0.1f, Tensor::Randn(p.shape(), noise),
                       &p.mutable_data());
    }
    checkpoint_path_ = TempPath("serve_model.encp");
    io::CheckpointMeta meta;
    meta.model_name = "D-GRNN";
    meta.num_entities = kEntities;
    meta.in_channels = 1;
    meta.history = kHistory;
    meta.horizon = kHorizon;
    ASSERT_TRUE(io::SaveCheckpoint(checkpoint_path_, *model_, meta).ok());
  }

  void TearDown() override { std::remove(checkpoint_path_.c_str()); }

  serve::ModelSpec Spec() const {
    serve::ModelSpec spec;
    spec.model_name = "D-GRNN";
    spec.num_entities = kEntities;
    spec.in_channels = 1;
    spec.target_channel = 0;
    spec.adjacency = adjacency_;
    spec.sizing = TinySizing();
    spec.checkpoint_path = checkpoint_path_;
    return spec;
  }

  serve::SessionOptions Options() const {
    serve::SessionOptions options;
    options.seed = 999;  // different from the training seed on purpose
    return options;
  }

  std::unique_ptr<serve::InferenceSession> MakeSession() {
    std::unique_ptr<serve::InferenceSession> session;
    const Status status =
        serve::InferenceSession::Create(Spec(), Options(), scaler_, &session);
    EXPECT_TRUE(status.ok()) << status.ToString();
    return session;
  }

  /// A raw (unscaled) [N, H, C] history window ending at absolute time `t`.
  Tensor RawWindow(int64_t t) const {
    Tensor window(Shape{kEntities, kHistory, 1});
    for (int64_t i = 0; i < kEntities; ++i) {
      for (int64_t h = 0; h < kHistory; ++h) {
        window.at({i, h, 0}) =
            data_.series.at({i, t - kHistory + 1 + h, 0});
      }
    }
    return window;
  }

  /// The training-time eval path: graph-building Predict on the scaled
  /// window, then the scaler's inverse transform. Returns [N, F] real units.
  Tensor EvalPathForecast(const Tensor& raw_window) {
    Tensor scaled = scaler_.Transform(raw_window)
                        .Reshape({1, kEntities, kHistory, 1});
    model_->SetTraining(false);
    Rng rng(14);
    Tensor pred = model_->Predict(scaled, rng).data();  // [1,N,F]
    return scaler_.InverseTarget(pred, 0).Reshape({kEntities, kHorizon});
  }

  data::CtsData data_;
  Tensor adjacency_;
  Tensor scaled_;
  data::StandardScaler scaler_;
  std::unique_ptr<models::ForecastingModel> model_;
  std::string checkpoint_path_;
};

// ---------------------------------------------------------------------------
// Checkpoint round trip: save -> fresh session -> bitwise-equal predictions
// vs the Trainer's graph-building eval path.
// ---------------------------------------------------------------------------

TEST_F(ServeTest, SessionMatchesEvalPathBitwise) {
  auto session = MakeSession();
  ASSERT_NE(session, nullptr);

  const Tensor raw = RawWindow(/*t=*/100);
  const Tensor reference = EvalPathForecast(raw);

  serve::PredictRequest request;
  request.history = raw;
  serve::PredictResponse response;
  const Status status = session->Predict(request, &response);
  ASSERT_TRUE(status.ok()) << status.ToString();
  ASSERT_EQ(ShapeToString(response.forecast.shape()),
            ShapeToString(reference.shape()));
  for (int64_t i = 0; i < reference.numel(); ++i) {
    // Bitwise equality: the no-grad forward runs the exact same kernels.
    EXPECT_EQ(response.forecast.data()[i], reference.data()[i])
        << "element " << i;
  }
  EXPECT_GT(response.latency_ms, 0.0);
}

TEST_F(ServeTest, BatchedRequestMatchesSingleRequests) {
  auto session = MakeSession();
  ASSERT_NE(session, nullptr);

  // Stack three windows into one [B,N,H,C] request.
  std::vector<Tensor> windows = {RawWindow(50), RawWindow(80), RawWindow(110)};
  std::vector<Tensor> lifted;
  for (const Tensor& w : windows) {
    lifted.push_back(w.Reshape({1, kEntities, kHistory, 1}));
  }
  serve::PredictRequest batched;
  batched.history = ops::Concat(lifted, 0);
  serve::PredictResponse batched_response;
  ASSERT_TRUE(session->Predict(batched, &batched_response).ok());
  ASSERT_EQ(ShapeToString(batched_response.forecast.shape()), "[3, 8, 12]");

  for (size_t b = 0; b < windows.size(); ++b) {
    serve::PredictRequest single;
    single.history = windows[b];
    serve::PredictResponse single_response;
    ASSERT_TRUE(session->Predict(single, &single_response).ok());
    const Tensor slice = ops::Slice(batched_response.forecast, 0,
                                    static_cast<int64_t>(b), 1)
                             .Reshape({kEntities, kHorizon});
    for (int64_t i = 0; i < slice.numel(); ++i) {
      EXPECT_EQ(slice.data()[i], single_response.forecast.data()[i]);
    }
  }
}

// ---------------------------------------------------------------------------
// Malformed input never aborts: every failure mode surfaces as Status.
// ---------------------------------------------------------------------------

TEST_F(ServeTest, UnknownModelNameIsStatusNotAbort) {
  serve::ModelSpec spec = Spec();
  spec.model_name = "D-GRNN-TYPO";
  spec.checkpoint_path.clear();  // fail on the name, not the meta check
  std::unique_ptr<serve::InferenceSession> session;
  const Status status =
      serve::InferenceSession::Create(spec, Options(), scaler_, &session);
  EXPECT_EQ(status.code(), StatusCode::kNotFound);
  EXPECT_NE(status.message().find("D-GRNN-TYPO"), std::string::npos);
  EXPECT_EQ(session, nullptr);
}

TEST_F(ServeTest, MissingCheckpointIsStatus) {
  serve::ModelSpec spec = Spec();
  spec.checkpoint_path = "/nonexistent/never.encp";
  std::unique_ptr<serve::InferenceSession> session;
  EXPECT_EQ(serve::InferenceSession::Create(spec, Options(), scaler_,
                                            &session)
                .code(),
            StatusCode::kNotFound);
}

TEST_F(ServeTest, WrongArchitectureCheckpointIsStatus) {
  serve::ModelSpec spec = Spec();
  spec.model_name = "GRNN";  // checkpoint was saved from D-GRNN
  std::unique_ptr<serve::InferenceSession> session;
  const Status status =
      serve::InferenceSession::Create(spec, Options(), scaler_, &session);
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
  // The metadata precheck names the file's own identity, so the error
  // reports the mismatch before any parameter shapes are compared.
  EXPECT_NE(status.message().find("was saved from model 'D-GRNN'"),
            std::string::npos)
      << status.ToString();
  EXPECT_NE(status.message().find("'GRNN'"), std::string::npos);
}

TEST_F(ServeTest, GraphModelWithoutAdjacencyIsStatus) {
  serve::ModelSpec spec = Spec();
  spec.adjacency = Tensor();
  spec.checkpoint_path.clear();
  std::unique_ptr<serve::InferenceSession> session;
  EXPECT_EQ(serve::InferenceSession::Create(spec, Options(), scaler_,
                                            &session)
                .code(),
            StatusCode::kInvalidArgument);
}

TEST_F(ServeTest, BadTargetChannelIsStatus) {
  serve::ModelSpec spec = Spec();
  spec.target_channel = 7;
  std::unique_ptr<serve::InferenceSession> session;
  EXPECT_EQ(serve::InferenceSession::Create(spec, Options(), scaler_,
                                            &session)
                .code(),
            StatusCode::kInvalidArgument);
}

TEST_F(ServeTest, WrongRankIsRejected) {
  auto session = MakeSession();
  serve::PredictRequest request;
  request.history = Tensor::Zeros({kEntities, kHistory});  // rank 2
  serve::PredictResponse response;
  EXPECT_EQ(session->Predict(request, &response).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(session->stats().rejected, 1);
}

TEST_F(ServeTest, WrongShapeIsRejected) {
  auto session = MakeSession();
  serve::PredictRequest request;
  request.history = Tensor::Zeros({kEntities + 1, kHistory, 1});
  serve::PredictResponse response;
  const Status status = session->Predict(request, &response);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("N=8"), std::string::npos);
}

TEST_F(ServeTest, NanHistoryIsRejected) {
  auto session = MakeSession();
  Tensor bad = RawWindow(60);
  bad.at({2, 3, 0}) = std::nanf("");
  serve::PredictRequest request;
  request.history = bad;
  serve::PredictResponse response;
  EXPECT_EQ(session->Predict(request, &response).code(),
            StatusCode::kInvalidArgument);

  Tensor inf = RawWindow(60);
  inf.at({0, 0, 0}) = std::numeric_limits<float>::infinity();
  request.history = inf;
  EXPECT_EQ(session->Predict(request, &response).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(session->stats().rejected, 2);
}

// ---------------------------------------------------------------------------
// NoGradGuard: session forwards never allocate graph bookkeeping.
// ---------------------------------------------------------------------------

TEST_F(ServeTest, NoGradGuardSkipsGraphConstruction) {
  // Direct op-level contract: with a guard active, an op on a
  // requires_grad input returns a detached leaf with no parents and no
  // backward closure.
  ag::Variable w = ag::Variable::Leaf(Tensor::Ones({3, 3}), true);
  ag::Variable x = ag::Variable::Leaf(Tensor::Ones({3, 3}), false);
  {
    ag::NoGradGuard no_grad;
    EXPECT_FALSE(ag::GradMode::IsEnabled());
    ag::Variable y = ag::MatMul(x, w);
    EXPECT_TRUE(y.node()->is_leaf);
    EXPECT_FALSE(y.requires_grad());
    EXPECT_TRUE(y.node()->parents.empty());
    EXPECT_FALSE(static_cast<bool>(y.node()->backward_fn));
  }
  EXPECT_TRUE(ag::GradMode::IsEnabled());

  // Model-level contract: the variable coming out of an eval-mode forward
  // under the guard carries no graph either.
  model_->SetTraining(false);
  Tensor scaled = scaler_.Transform(RawWindow(90))
                      .Reshape({1, kEntities, kHistory, 1});
  Rng rng(3);
  {
    ag::NoGradGuard no_grad;
    ag::Variable pred = model_->Predict(scaled, rng);
    EXPECT_TRUE(pred.node()->is_leaf);
    EXPECT_TRUE(pred.node()->parents.empty());
    EXPECT_FALSE(static_cast<bool>(pred.node()->backward_fn));
  }
  // Without the guard the same forward builds a graph (params require
  // grad), which is exactly what serving avoids.
  ag::Variable graphed = model_->Predict(scaled, rng);
  EXPECT_FALSE(graphed.node()->is_leaf);
  EXPECT_FALSE(graphed.node()->parents.empty());
}

TEST_F(ServeTest, NoGradGuardNestsAndRestores) {
  EXPECT_TRUE(ag::GradMode::IsEnabled());
  {
    ag::NoGradGuard outer;
    {
      ag::NoGradGuard inner;
      EXPECT_FALSE(ag::GradMode::IsEnabled());
    }
    EXPECT_FALSE(ag::GradMode::IsEnabled());
  }
  EXPECT_TRUE(ag::GradMode::IsEnabled());
}

// ---------------------------------------------------------------------------
// Concurrency: 4 threads hammering one session agree with the serial
// reference and the counters stay consistent.
// ---------------------------------------------------------------------------

TEST_F(ServeTest, ConcurrentPredictIsConsistent) {
  auto session = MakeSession();
  ASSERT_NE(session, nullptr);
  constexpr int kThreads = 4;
  constexpr int kRequestsPerThread = 8;

  std::vector<Tensor> windows;
  std::vector<Tensor> references;
  for (int i = 0; i < kThreads; ++i) {
    windows.push_back(RawWindow(40 + 13 * i));
    serve::PredictRequest request;
    request.history = windows.back();
    serve::PredictResponse response;
    ASSERT_TRUE(session->Predict(request, &response).ok());
    references.push_back(response.forecast);
  }

  std::vector<int> mismatches(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int r = 0; r < kRequestsPerThread; ++r) {
        serve::PredictRequest request;
        request.history = windows[static_cast<size_t>(t)];
        serve::PredictResponse response;
        if (!session->Predict(request, &response).ok()) {
          ++mismatches[static_cast<size_t>(t)];
          continue;
        }
        const Tensor& expect = references[static_cast<size_t>(t)];
        for (int64_t i = 0; i < expect.numel(); ++i) {
          if (response.forecast.data()[i] != expect.data()[i]) {
            ++mismatches[static_cast<size_t>(t)];
            break;
          }
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(mismatches[t], 0);

  const serve::Stats stats = session->stats();
  EXPECT_EQ(stats.windows, kThreads + kThreads * kRequestsPerThread);
  EXPECT_EQ(stats.forwards, kThreads + kThreads * kRequestsPerThread);
  EXPECT_EQ(stats.rejected, 0);
  EXPECT_GT(stats.total_latency_ms, 0.0);
  EXPECT_GE(stats.max_latency_ms, stats.mean_latency_ms());
}

// ---------------------------------------------------------------------------
// MicroBatcher
// ---------------------------------------------------------------------------

TEST_F(ServeTest, MicroBatcherMatchesDirectSession) {
  auto session = MakeSession();
  serve::MicroBatcherConfig bc;
  bc.max_batch_size = 1;  // degenerate: every request is its own batch
  serve::MicroBatcher batcher(session.get(), bc);

  const Tensor raw = RawWindow(70);
  serve::PredictRequest request;
  request.history = raw;
  serve::PredictResponse direct;
  ASSERT_TRUE(session->Predict(request, &direct).ok());
  serve::PredictResponse via_batcher;
  ASSERT_TRUE(batcher.Predict(request, &via_batcher).ok());
  for (int64_t i = 0; i < direct.forecast.numel(); ++i) {
    EXPECT_EQ(via_batcher.forecast.data()[i], direct.forecast.data()[i]);
  }
  const serve::Stats stats = batcher.stats();
  EXPECT_EQ(stats.windows, 1);
  EXPECT_EQ(stats.forwards, 1);
}

TEST_F(ServeTest, MicroBatcherCoalescesConcurrentRequests) {
  auto session = MakeSession();
  serve::MicroBatcherConfig bc;
  bc.max_batch_size = 4;
  bc.max_wait_ms = 2000.0;  // generous so all four threads join one batch
  serve::MicroBatcher batcher(session.get(), bc);

  constexpr int kThreads = 4;
  std::vector<Tensor> windows;
  std::vector<Tensor> references;
  for (int t = 0; t < kThreads; ++t) {
    windows.push_back(RawWindow(45 + 17 * t));
    serve::PredictRequest request;
    request.history = windows.back();
    serve::PredictResponse response;
    ASSERT_TRUE(session->Predict(request, &response).ok());
    references.push_back(response.forecast);
  }

  std::vector<int> failures(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      serve::PredictRequest request;
      request.history = windows[static_cast<size_t>(t)];
      serve::PredictResponse response;
      if (!batcher.Predict(request, &response).ok()) {
        ++failures[static_cast<size_t>(t)];
        return;
      }
      const Tensor& expect = references[static_cast<size_t>(t)];
      for (int64_t i = 0; i < expect.numel(); ++i) {
        if (response.forecast.data()[i] != expect.data()[i]) {
          ++failures[static_cast<size_t>(t)];
          return;
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(failures[t], 0);

  const serve::Stats stats = batcher.stats();
  EXPECT_EQ(stats.windows, kThreads);
  // Coalescing must have happened at least partially; with the generous
  // window all four normally land in a single forward.
  EXPECT_LE(stats.forwards, kThreads);
  EXPECT_GE(stats.forwards, 1);
  EXPECT_GE(stats.mean_batch_occupancy(), 1.0);
}

TEST_F(ServeTest, MicroBatcherRejectsWithoutPoisoningBatch) {
  auto session = MakeSession();
  serve::MicroBatcherConfig bc;
  bc.max_batch_size = 4;
  bc.max_wait_ms = 0.0;
  serve::MicroBatcher batcher(session.get(), bc);

  serve::PredictRequest bad;
  bad.history = Tensor::Zeros({2, kEntities, kHistory, 1});  // rank 4
  serve::PredictResponse response;
  EXPECT_EQ(batcher.Predict(bad, &response).code(),
            StatusCode::kInvalidArgument);

  Tensor nan_window = RawWindow(55);
  nan_window.at({1, 1, 0}) = std::nanf("");
  bad.history = nan_window;
  EXPECT_EQ(batcher.Predict(bad, &response).code(),
            StatusCode::kInvalidArgument);

  // A good request after the rejects still works.
  serve::PredictRequest good;
  good.history = RawWindow(55);
  ASSERT_TRUE(batcher.Predict(good, &response).ok());
  const serve::Stats stats = batcher.stats();
  EXPECT_EQ(stats.rejected, 2);
  EXPECT_EQ(stats.windows, 1);
}

// ---------------------------------------------------------------------------
// Registry-backed serve metrics: occupancy/latency histograms under a full
// batch, and under a poisoned batch whose forward fails.
// ---------------------------------------------------------------------------

TEST_F(ServeTest, MicroBatcherFullBatchRecordsOccupancyAndLatency) {
  auto session = MakeSession();
  serve::MicroBatcherConfig bc;
  bc.max_batch_size = 4;
  bc.max_wait_ms = 2000.0;  // generous so all four threads share one forward
  serve::MicroBatcher batcher(session.get(), bc);

  constexpr int kThreads = 4;
  std::vector<std::thread> threads;
  std::vector<int> failures(kThreads, 0);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      serve::PredictRequest request;
      request.history = RawWindow(45 + 17 * t);
      serve::PredictResponse response;
      if (!batcher.Predict(request, &response).ok()) {
        ++failures[static_cast<size_t>(t)];
      }
    });
  }
  for (auto& thread : threads) thread.join();
  for (int t = 0; t < kThreads; ++t) ASSERT_EQ(failures[t], 0);

  obs::Registry& registry = obs::Registry::Global();
  obs::Histogram* occupancy = registry.GetHistogram(
      "serve.batcher.batch_occupancy", obs::OccupancyBuckets());
  obs::Histogram* latency = registry.GetHistogram(
      "serve.batcher.latency_ms", obs::LatencyBucketsMs());

  // One observation per forward; total occupancy mass equals the windows
  // served. With the generous wait this is normally a single forward of 4.
  const serve::Stats stats = batcher.stats();
  EXPECT_EQ(occupancy->Count(), stats.forwards);
  EXPECT_EQ(static_cast<int64_t>(occupancy->Sum()), kThreads);
  EXPECT_GE(occupancy->Max(), 1.0);
  EXPECT_LE(occupancy->Max(), 4.0);

  // One latency observation per served window, all mass in finite buckets.
  EXPECT_EQ(latency->Count(), kThreads);
  EXPECT_GT(latency->Sum(), 0.0);
  int64_t bucket_total = 0;
  for (const int64_t c : latency->BucketCounts()) bucket_total += c;
  EXPECT_EQ(bucket_total, kThreads);
}

/// Failing-forward test double: validation passes (so requests join a
/// batch), but the batched forward itself errors — the "poisoned batch"
/// case a real model hits on e.g. resource exhaustion.
class FailingSession : public serve::InferenceSession {
 public:
  FailingSession(serve::ModelSpec spec, serve::SessionOptions options,
                 std::unique_ptr<models::ForecastingModel> model,
                 const data::StandardScaler& scaler)
      : InferenceSession(std::move(spec), std::move(options),
                         std::move(model), scaler) {}

  Status Predict(const serve::PredictRequest&,
                 serve::PredictResponse*) const override {
    return Status::Internal("injected forward failure");
  }
};

TEST_F(ServeTest, MicroBatcherPoisonedBatchCountsForwardErrors) {
  Rng rng(21);
  auto model = models::MakeModel("D-GRNN", kEntities, 1, adjacency_,
                                 TinySizing(), rng);
  FailingSession session(Spec(), Options(), std::move(model), scaler_);

  serve::MicroBatcherConfig bc;
  bc.max_batch_size = 2;
  bc.max_wait_ms = 2000.0;
  serve::MicroBatcher batcher(&session, bc);

  constexpr int kThreads = 2;
  std::vector<std::thread> threads;
  std::vector<StatusCode> codes(kThreads, StatusCode::kOk);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      serve::PredictRequest request;
      request.history = RawWindow(60 + 9 * t);
      serve::PredictResponse response;
      codes[static_cast<size_t>(t)] = batcher.Predict(request, &response).code();
    });
  }
  for (auto& thread : threads) thread.join();
  // Every member of the poisoned batch gets the forward's error, and nobody
  // hangs waiting for results that will never come.
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(codes[t], StatusCode::kInternal);
  }

  const serve::Stats stats = batcher.stats();
  EXPECT_EQ(stats.windows, 0);         // nothing was served
  EXPECT_EQ(stats.rejected, 0);        // validation passed
  EXPECT_GE(stats.forwards, 1);
  EXPECT_EQ(stats.forward_errors, stats.forwards);

  // Occupancy is still observed for failed forwards (capacity was spent),
  // and so is latency: requests riding a failed forward observe their wall
  // time too, otherwise p99 under partial failure only counts the lucky
  // requests.
  obs::Registry& registry = obs::Registry::Global();
  obs::Histogram* occupancy = registry.GetHistogram(
      "serve.batcher.batch_occupancy", obs::OccupancyBuckets());
  obs::Histogram* latency = registry.GetHistogram(
      "serve.batcher.latency_ms", obs::LatencyBucketsMs());
  EXPECT_EQ(occupancy->Count(), stats.forwards);
  EXPECT_EQ(static_cast<int64_t>(occupancy->Sum()), kThreads);
  EXPECT_EQ(latency->Count(), kThreads);
  EXPECT_EQ(stats.latency_count, kThreads);
  EXPECT_GT(stats.mean_latency_ms(), 0.0);
}

// ---------------------------------------------------------------------------
// Deadline-aware policy: budget-driven flush, fill-driven early flush, the
// max_batch_size=1 fast path, miss accounting, and retired-batch isolation.
// ---------------------------------------------------------------------------

TEST_F(ServeTest, MicroBatcherFlushesOnBudgetNotMaxWait) {
  auto session = MakeSession();
  serve::MicroBatcherConfig bc;
  bc.max_batch_size = 8;
  bc.max_wait_ms = 60000.0;  // fixed-wait policy would sleep a minute here
  serve::MicroBatcher batcher(session.get(), bc);

  serve::PredictRequest request;
  request.history = RawWindow(75);
  request.deadline_ms = 200.0;
  serve::PredictResponse response;
  Stopwatch timer;
  ASSERT_TRUE(batcher.Predict(request, &response).ok());
  // The leader flushed when the request's own budget ran out, not after
  // max_wait_ms (bounds are generous to stay robust on loaded machines).
  EXPECT_LT(timer.ElapsedMillis(), 30000.0);

  const serve::Stats stats = batcher.stats();
  EXPECT_EQ(stats.windows, 1);
  EXPECT_EQ(stats.forwards, 1);
  EXPECT_EQ(stats.flush_budget, 1);
  EXPECT_EQ(stats.flush_full, 0);
}

TEST_F(ServeTest, MicroBatcherDeadlinePolicyFlushesEarlyOnFill) {
  auto session = MakeSession();
  serve::MicroBatcherConfig bc;
  bc.max_batch_size = 4;
  bc.slo_ms = 60000.0;  // huge budget: only a full batch can flush fast
  serve::MicroBatcher batcher(session.get(), bc);

  constexpr int kThreads = 4;
  std::vector<Tensor> windows;
  std::vector<Tensor> references;
  for (int t = 0; t < kThreads; ++t) {
    windows.push_back(RawWindow(45 + 17 * t));
    serve::PredictRequest request;
    request.history = windows.back();
    serve::PredictResponse response;
    ASSERT_TRUE(session->Predict(request, &response).ok());
    references.push_back(response.forecast);
  }

  std::vector<int> failures(kThreads, 0);
  Stopwatch timer;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      serve::PredictRequest request;
      request.history = windows[static_cast<size_t>(t)];
      serve::PredictResponse response;
      if (!batcher.Predict(request, &response).ok()) {
        ++failures[static_cast<size_t>(t)];
        return;
      }
      // Bitwise parity batched vs unbatched under the deadline policy.
      const Tensor& expect = references[static_cast<size_t>(t)];
      for (int64_t i = 0; i < expect.numel(); ++i) {
        if (response.forecast.data()[i] != expect.data()[i]) {
          ++failures[static_cast<size_t>(t)];
          return;
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(failures[t], 0);
  // Filling the batch flushed it immediately — nobody burned the 60 s
  // budget.
  EXPECT_LT(timer.ElapsedMillis(), 30000.0);

  const serve::Stats stats = batcher.stats();
  EXPECT_EQ(stats.windows, kThreads);
  EXPECT_EQ(stats.forwards, 1);  // budget never expires, so one full batch
  EXPECT_EQ(stats.flush_full, 1);
  EXPECT_EQ(stats.flush_budget, 0);
  EXPECT_EQ(stats.deadline_miss, 0);
}

TEST_F(ServeTest, MicroBatcherSizeOneFastPathMatchesDirect) {
  auto session = MakeSession();
  serve::MicroBatcherConfig bc;
  bc.max_batch_size = 1;  // fast path: no coalescing state at all
  bc.slo_ms = 60000.0;
  serve::MicroBatcher batcher(session.get(), bc);

  Stopwatch timer;
  for (int r = 0; r < 3; ++r) {
    const Tensor raw = RawWindow(70 + 5 * r);
    serve::PredictRequest request;
    request.history = raw;
    serve::PredictResponse direct, via_batcher;
    ASSERT_TRUE(session->Predict(request, &direct).ok());
    ASSERT_TRUE(batcher.Predict(request, &via_batcher).ok());
    for (int64_t i = 0; i < direct.forecast.numel(); ++i) {
      ASSERT_EQ(via_batcher.forecast.data()[i], direct.forecast.data()[i]);
    }
  }
  // The fast path never waits on a budget — three requests with a 60 s SLO
  // complete in forward time.
  EXPECT_LT(timer.ElapsedMillis(), 30000.0);

  const serve::Stats stats = batcher.stats();
  EXPECT_EQ(stats.windows, 3);
  EXPECT_EQ(stats.forwards, 3);
  EXPECT_EQ(stats.flush_full, 3);
  EXPECT_EQ(stats.flush_budget, 0);
}

TEST_F(ServeTest, MicroBatcherCountsDeadlineMisses) {
  auto session = MakeSession();
  serve::MicroBatcherConfig bc;
  bc.max_batch_size = 4;
  serve::MicroBatcher batcher(session.get(), bc);

  serve::PredictRequest request;
  request.history = RawWindow(65);
  request.deadline_ms = 1e-4;  // no forward can beat a 100 ns budget
  serve::PredictResponse response;
  ASSERT_TRUE(batcher.Predict(request, &response).ok());

  const serve::Stats stats = batcher.stats();
  EXPECT_EQ(stats.windows, 1);
  EXPECT_EQ(stats.deadline_miss, 1);
  obs::Histogram* slack = obs::Registry::Global().GetHistogram(
      "serve.batcher.deadline.slack_ms", obs::SlackBucketsMs());
  EXPECT_EQ(slack->Count(), 1);
  EXPECT_LT(slack->Min(), 0.0);  // completed after the deadline
}

TEST_F(ServeTest, MicroBatcherRetiredBatchTakesNoJoiners) {
  auto session = MakeSession();
  serve::MicroBatcherConfig bc;
  bc.max_batch_size = 3;
  bc.slo_ms = 0.5;  // budgets expire constantly, so batches retire mid-race
  serve::MicroBatcher batcher(session.get(), bc);

  constexpr int kThreads = 4;
  constexpr int kRequestsPerThread = 6;
  std::vector<Tensor> windows;
  std::vector<Tensor> references;
  for (int t = 0; t < kThreads; ++t) {
    windows.push_back(RawWindow(40 + 13 * t));
    serve::PredictRequest request;
    request.history = windows.back();
    serve::PredictResponse response;
    ASSERT_TRUE(session->Predict(request, &response).ok());
    references.push_back(response.forecast);
  }

  // Retired batches must never hand a joiner someone else's slice (or no
  // slice at all): every response bitwise-matches its own window's
  // reference, and every request is served exactly once.
  std::vector<int> failures(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int r = 0; r < kRequestsPerThread; ++r) {
        serve::PredictRequest request;
        request.history = windows[static_cast<size_t>(t)];
        serve::PredictResponse response;
        if (!batcher.Predict(request, &response).ok()) {
          ++failures[static_cast<size_t>(t)];
          continue;
        }
        const Tensor& expect = references[static_cast<size_t>(t)];
        for (int64_t i = 0; i < expect.numel(); ++i) {
          if (response.forecast.data()[i] != expect.data()[i]) {
            ++failures[static_cast<size_t>(t)];
            break;
          }
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(failures[t], 0);

  const serve::Stats stats = batcher.stats();
  EXPECT_EQ(stats.windows, kThreads * kRequestsPerThread);
  EXPECT_EQ(stats.latency_count, kThreads * kRequestsPerThread);
  EXPECT_GE(stats.forwards, 1);
  EXPECT_EQ(stats.rejected, 0);
  EXPECT_EQ(stats.forward_errors, 0);
}

TEST_F(ServeTest, MicroBatcherSteadyStateServesAllocationFree) {
  // Single-shard allocator: the rounds below spawn a fresh client thread
  // each time, and per-thread shard pinning would otherwise scatter the
  // cached blocks across shards (a geometry artifact, not a serving alloc).
  serve::SessionOptions options = Options();
  options.allocator =
      std::make_shared<TensorAllocator>(/*export_metrics=*/false,
                                        /*num_shards=*/1);
  std::unique_ptr<serve::InferenceSession> session;
  ASSERT_TRUE(serve::InferenceSession::Create(Spec(), options, scaler_,
                                              &session)
                  .ok());
  serve::MicroBatcherConfig bc;
  // A 60 s budget with a ceiling of 2 makes every batch fill with exactly
  // two members before it can flush: deterministic composition, so the
  // staging/slicing path runs with the same shapes every round.
  bc.max_batch_size = 2;
  bc.slo_ms = 60000.0;
  bc.adaptive_ceiling = false;
  serve::MicroBatcher batcher(session.get(), bc);

  const Tensor raw_a = RawWindow(88);
  const Tensor raw_b = RawWindow(92);
  const auto serve_round = [&] {
    std::thread other([&] {
      serve::PredictRequest request;
      request.history = raw_a;
      serve::PredictResponse response;
      EXPECT_TRUE(batcher.Predict(request, &response).ok());
    });
    serve::PredictRequest request;
    request.history = raw_b;
    serve::PredictResponse response;
    EXPECT_TRUE(batcher.Predict(request, &response).ok());
    other.join();
  };
  // Warm the session pool and workspace free lists.
  for (int r = 0; r < 3; ++r) serve_round();

  TensorAllocator& allocator = session->context().allocator();
  runtime::Workspace& workspace = session->context().workspace();
  allocator.ResetStats();
  const runtime::WorkspaceStats w0 = workspace.GetStats();
  for (int r = 0; r < 5; ++r) serve_round();
  const AllocatorStats a1 = allocator.GetStats();
  const runtime::WorkspaceStats w1 = workspace.GetStats();

  // The whole request path — scaling, [B,N,H,C] staging, forward, output
  // slicing, unscaling — recycles pooled storage: zero fresh mallocs per
  // request in steady state.
  EXPECT_GT(a1.requests, 0);
  EXPECT_EQ(a1.pool_misses, 0);
  EXPECT_EQ(a1.oversize, 0);
  EXPECT_EQ(a1.HitRate(), 1.0);
  EXPECT_GT(w1.acquires, w0.acquires);  // staging/slices did go through it
  EXPECT_EQ(w1.acquires - w1.hits, w0.acquires - w0.hits)
      << "workspace took a fresh block in steady state";
  const serve::Stats stats = batcher.stats();
  EXPECT_EQ(stats.windows, 16);
  EXPECT_EQ(stats.forwards, 8);  // every batch filled with two members
}

// ---------------------------------------------------------------------------
// Scaled-input/scaled-output request flags
// ---------------------------------------------------------------------------

TEST_F(ServeTest, ScaledFlagsRoundTrip) {
  auto session = MakeSession();
  const Tensor raw = RawWindow(95);

  // scaled_input: feeding the pre-scaled window gives the same forecast.
  serve::PredictRequest raw_request;
  raw_request.history = raw;
  serve::PredictResponse from_raw;
  ASSERT_TRUE(session->Predict(raw_request, &from_raw).ok());

  serve::PredictRequest scaled_request;
  scaled_request.history = scaler_.Transform(raw);
  scaled_request.scaled_input = true;
  serve::PredictResponse from_scaled;
  ASSERT_TRUE(session->Predict(scaled_request, &from_scaled).ok());
  for (int64_t i = 0; i < from_raw.forecast.numel(); ++i) {
    EXPECT_EQ(from_raw.forecast.data()[i], from_scaled.forecast.data()[i]);
  }

  // scaled_output: returned scaled units invert to the real-unit forecast.
  serve::PredictRequest scaled_out = raw_request;
  scaled_out.scaled_output = true;
  serve::PredictResponse scaled_response;
  ASSERT_TRUE(session->Predict(scaled_out, &scaled_response).ok());
  const Tensor inverted =
      scaler_.InverseTarget(scaled_response.forecast, 0);
  for (int64_t i = 0; i < from_raw.forecast.numel(); ++i) {
    EXPECT_EQ(from_raw.forecast.data()[i], inverted.data()[i]);
  }
}

}  // namespace
}  // namespace enhancenet
