// Entity-sharded execution suite (DESIGN.md §12): ShardPlan partitioning
// (contiguous and edge-cut), HaloExchange entity lists and remap semantics,
// the EntityShardedExecutor's bitwise-identity contract against the
// single-context kernels, the anti-vacuousness guard (sharded applies must
// put allocator traffic on every shard), end-to-end bitwise identity for
// S ∈ {1, 2, 4} across all four model families, and SessionOptions::shards
// plumbing through serve::InferenceSession.
//
// Run alone with `ctest -L shard`; `bench/run_sanitizer.sh thread` re-runs
// this suite under ThreadSanitizer.

#include <atomic>
#include <cstdint>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "autograd/grad_mode.h"
#include "autograd/ops.h"
#include "data/synthetic.h"
#include "graph/adjacency.h"
#include "graph/graph_conv.h"
#include "graph/sparse_adjacency.h"
#include "gtest/gtest.h"
#include "models/model_factory.h"
#include "obs/metrics.h"
#include "runtime/context.h"
#include "serve/inference_session.h"
#include "shard/executor.h"
#include "shard/halo.h"
#include "shard/shard_plan.h"
#include "tensor/tensor.h"

namespace enhancenet {
namespace {

namespace ag = ::enhancenet::autograd;

/// Bitwise equality: the sharded kernels promise the same bits, not just
/// the same values up to rounding, so memcmp is the right comparison.
void ExpectBitwiseEqual(const Tensor& actual, const Tensor& expected) {
  ASSERT_EQ(ShapeToString(actual.shape()), ShapeToString(expected.shape()));
  if (std::memcmp(actual.data(), expected.data(),
                  actual.numel() * sizeof(float)) == 0) {
    return;
  }
  for (int64_t i = 0; i < actual.numel(); ++i) {
    ASSERT_EQ(actual.data()[i], expected.data()[i]) << "element " << i;
  }
}

Tensor RandomDense(int64_t batch, int64_t n, uint64_t seed) {
  Rng rng(seed);
  return Tensor::RandUniform({batch, n, n}, rng, -1.0f, 1.0f);
}

// ---------------------------------------------------------------------------
// ShardPlan
// ---------------------------------------------------------------------------

TEST(ShardPlanTest, ContiguousPlanBalancesAndCovers) {
  const shard::ShardPlan plan = shard::MakeContiguousPlan(10, 4);
  ASSERT_TRUE(plan.defined());
  ASSERT_EQ(plan.num_shards(), 4);
  EXPECT_EQ(plan.boundaries.front(), 0);
  EXPECT_EQ(plan.boundaries.back(), 10);
  // Sizes differ by at most one; the first N % S shards take the extra row.
  EXPECT_EQ(plan.size(0), 3);
  EXPECT_EQ(plan.size(1), 3);
  EXPECT_EQ(plan.size(2), 2);
  EXPECT_EQ(plan.size(3), 2);
  for (int64_t e = 0; e < 10; ++e) {
    const int s = plan.ShardOf(e);
    EXPECT_GE(e, plan.begin(s));
    EXPECT_LT(e, plan.end(s));
  }
}

TEST(ShardPlanTest, ContiguousPlanClampsShardCount) {
  // More shards than entities: one entity per shard.
  const shard::ShardPlan over = shard::MakeContiguousPlan(3, 8);
  EXPECT_EQ(over.num_shards(), 3);
  for (int s = 0; s < 3; ++s) EXPECT_EQ(over.size(s), 1);
  // Zero/negative requests clamp to a single shard.
  EXPECT_EQ(shard::MakeContiguousPlan(5, 0).num_shards(), 1);
  EXPECT_EQ(shard::MakeContiguousPlan(5, -2).num_shards(), 1);
}

TEST(ShardPlanTest, EdgeCutPlanMovesTheCutToTheClusterBoundary) {
  // Two clusters {0..2} and {3..7} with no cross-cluster weight. The
  // balanced cut for S=2 is at 4 (splitting cluster two); the edge-cut plan
  // slides it to 3, where nothing crosses.
  const int64_t n = 8;
  Tensor adj = Tensor::Zeros({n, n});
  const auto connect = [&](int64_t i, int64_t j) {
    adj.at({i, j}) = 1.0f;
    adj.at({j, i}) = 1.0f;
  };
  connect(0, 1);
  connect(1, 2);
  connect(0, 2);
  connect(3, 7);
  connect(4, 6);
  connect(5, 7);
  connect(3, 5);
  const shard::ShardPlan plan = shard::MakeEdgeCutPlan(adj, 2);
  ASSERT_EQ(plan.num_shards(), 2);
  EXPECT_EQ(plan.boundaries[1], 3);
  EXPECT_EQ(plan.boundaries.front(), 0);
  EXPECT_EQ(plan.boundaries.back(), n);
}

TEST(ShardPlanTest, EdgeCutPlanKeepsBalancedCutWhenNothingIsCheaper) {
  // A ring has the same crossing weight at every cut, so the tie-break
  // (closest to the balanced position) keeps the contiguous boundaries.
  const int64_t n = 12;
  Tensor adj = Tensor::Zeros({n, n});
  for (int64_t i = 0; i < n; ++i) {
    adj.at({i, (i + 1) % n}) = 1.0f;
    adj.at({(i + 1) % n, i}) = 1.0f;
  }
  const shard::ShardPlan plan = shard::MakeEdgeCutPlan(adj, 3);
  const shard::ShardPlan balanced = shard::MakeContiguousPlan(n, 3);
  EXPECT_EQ(plan.boundaries, balanced.boundaries);
}

// ---------------------------------------------------------------------------
// HaloExchange
// ---------------------------------------------------------------------------

/// Walks every shard-owned position of the pattern and checks the remap
/// resolves to exactly the operand entity the single-context kernel reads.
void CheckHaloConsistency(const ag::SparseIndex& index,
                          const shard::ShardPlan& plan, bool transpose) {
  shard::HaloExchange exchange(index, plan, transpose);
  const int64_t batch = index.batch;
  const int64_t n = index.n;
  const int64_t kk = index.nnz / (batch * n);
  const int32_t* cols = index.cols.data();
  const int32_t* bounds = transpose ? index.t_row_offsets.data()
                                    : index.row_offsets.data();
  const int32_t* tperm = transpose ? index.t_perm.data() : nullptr;

  int64_t total_external = 0;
  for (int s = 0; s < plan.num_shards(); ++s) {
    const shard::ShardHalo& halo = exchange.halo(s);
    const int64_t b0 = plan.begin(s);
    const int64_t b1 = plan.end(s);
    // Entity lists are sorted, unique, and strictly external.
    for (size_t h = 0; h < halo.entities.size(); ++h) {
      const int32_t id = halo.entities[h];
      EXPECT_TRUE(id < b0 || id >= b1) << "shard " << s << " lists owned row";
      if (h > 0) {
        EXPECT_LT(halo.entities[h - 1], id);
      }
    }
    total_external += static_cast<int64_t>(halo.entities.size());

    ASSERT_EQ(static_cast<int64_t>(halo.slot_base.size()), batch + 1);
    const int32_t* remap = halo.remap.data();
    int64_t slot = 0;
    for (int64_t b = 0; b < batch; ++b) {
      EXPECT_EQ(halo.slot_base[b], slot);
      const int64_t p0 = bounds[b * n + b0];
      const int64_t p1 = bounds[b * n + b1];
      for (int64_t p = p0; p < p1; ++p, ++slot) {
        const int64_t operand =
            transpose ? (tperm[p] / kk) % n : static_cast<int64_t>(cols[p]);
        const int32_t m = remap[slot];
        if (m >= 0) {
          EXPECT_EQ(m, operand);
          EXPECT_GE(operand, b0);
          EXPECT_LT(operand, b1);
        } else {
          const int64_t halo_row = ~m;
          ASSERT_LT(halo_row, static_cast<int64_t>(halo.entities.size()));
          EXPECT_EQ(halo.entities[halo_row], operand);
        }
      }
    }
    EXPECT_EQ(halo.slot_base[batch], slot);
  }
  EXPECT_EQ(exchange.TotalHaloEntities(), total_external);
  // A top-k pattern over a random dense matrix with k < N and multiple
  // shards must reference someone else's rows.
  if (plan.num_shards() > 1 && kk < n) {
    EXPECT_GT(total_external, 0);
  }
}

TEST(HaloExchangeTest, RemapResolvesEveryOperandCsrAndCsc) {
  const int64_t batch = 2, n = 10, k = 3;
  graph::SparseAdjacency sparse = graph::TopKSparsify(RandomDense(batch, n, 77), k);
  const shard::ShardPlan plan = shard::MakeContiguousPlan(n, 3);
  CheckHaloConsistency(sparse.index, plan, /*transpose=*/false);
  CheckHaloConsistency(sparse.index, plan, /*transpose=*/true);
}

TEST(HaloExchangeTest, GatherCopiesTheListedRows) {
  const int64_t batch = 2, n = 8, k = 2, channels = 3;
  graph::SparseAdjacency sparse = graph::TopKSparsify(RandomDense(batch, n, 78), k);
  const shard::ShardPlan plan = shard::MakeContiguousPlan(n, 2);
  shard::HaloExchange exchange(sparse.index, plan, /*transpose=*/false);
  Rng rng(79);
  const Tensor x = Tensor::Randn({batch, n, channels}, rng);
  for (int s = 0; s < plan.num_shards(); ++s) {
    exchange.GatherShard(s, x);
    const shard::ShardHalo& halo = exchange.halo(s);
    const int64_t h = static_cast<int64_t>(halo.entities.size());
    ASSERT_EQ(ShapeToString(halo.buffer.shape()),
              ShapeToString(Shape{batch, h, channels}));
    for (int64_t b = 0; b < batch; ++b) {
      for (int64_t row = 0; row < h; ++row) {
        const float* copied = halo.buffer.data() + (b * h + row) * channels;
        const float* source =
            x.data() + (b * n + halo.entities[row]) * channels;
        EXPECT_EQ(std::memcmp(copied, source, channels * sizeof(float)), 0)
            << "shard " << s << " batch " << b << " halo row " << row;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// EntityShardedExecutor kernels: bitwise identity + placement
// ---------------------------------------------------------------------------

TEST(ShardExecutorTest, ApplyDenseBitwiseMatchesAdjacencyMatMul) {
  const int64_t batch = 2, n = 11, channels = 5;
  Rng rng(80);
  Tensor adj = Tensor::RandUniform({n, n}, rng, 0.0f, 1.0f);
  // Realistic sparsity, as a thresholded support has.
  for (int64_t i = 0; i < adj.numel(); ++i) {
    if (adj.data()[i] < 0.4f) adj.data()[i] = 0.0f;
  }
  const Tensor x = Tensor::Randn({batch, n, channels}, rng);
  const Tensor reference =
      ag::AdjacencyMatMul(ag::Variable::Leaf(adj, false),
                          ag::Variable::Leaf(x, false))
          .data();
  for (const int s : {1, 2, 3, 4}) {
    shard::EntityShardedExecutor executor(shard::MakeContiguousPlan(n, s));
    ExpectBitwiseEqual(executor.ApplyDense(adj, x), reference);
  }
}

TEST(ShardExecutorTest, ApplyDenseRaggedShardsBitwiseMatchAdjacencyMatMul) {
  // Shard row blocks that do not divide N. At N=300, C=2 the whole product
  // runs the tiled GEMM (two K blocks) while a 75-row block alone would run
  // the small-product kernel, which sums all of K in one pass, so the block
  // must keep the regime of the whole.
  const std::pair<int64_t, int64_t> shapes[] = {{37, 17}, {300, 2}};
  for (const auto& [n, channels] : shapes) {
    const int64_t batch = 3;
    Rng rng(static_cast<uint64_t>(n));
    const Tensor adj = Tensor::RandUniform({n, n}, rng, 0.0f, 1.0f);
    const Tensor x = Tensor::Randn({batch, n, channels}, rng);
    const Tensor reference =
        ag::AdjacencyMatMul(ag::Variable::Leaf(adj, false),
                            ag::Variable::Leaf(x, false))
            .data();
    for (const int s : {3, 4}) {
      shard::EntityShardedExecutor executor(shard::MakeContiguousPlan(n, s));
      ExpectBitwiseEqual(executor.ApplyDense(adj, x), reference);
    }
  }
}

TEST(ShardExecutorTest, ApplySparseBitwiseMatchesSparseAdjacencyMatMul) {
  const int64_t batch = 2, n = 13, channels = 4, k = 4;
  graph::SparseAdjacency sparse = graph::TopKSparsify(RandomDense(batch, n, 81), k);
  Rng rng(82);
  const Tensor x = Tensor::Randn({batch, n, channels}, rng);
  const ag::Variable xv = ag::Variable::Leaf(x, false);
  for (const bool transpose : {false, true}) {
    const Tensor reference =
        ag::SparseAdjacencyMatMul(sparse.values, sparse.index, xv, transpose)
            .data();
    for (const int s : {1, 2, 4}) {
      shard::EntityShardedExecutor executor(shard::MakeContiguousPlan(n, s));
      ExpectBitwiseEqual(executor.ApplySparse(sparse.index,
                                              sparse.values.data(), x,
                                              transpose),
                         reference);
    }
  }
}

TEST(ShardExecutorTest, ShardedApplyPutsTrafficOnEveryShardAllocator) {
  // The anti-vacuousness guard: shards > 1 must actually change execution
  // placement. Each shard stages its output slab (and any halo buffer) on
  // its own allocator, so after one apply every shard shows traffic.
  const int64_t batch = 2, n = 12, channels = 4;
  shard::EntityShardedExecutor executor(shard::MakeContiguousPlan(n, 4));
  Rng rng(83);
  const Tensor adj = Tensor::RandUniform({n, n}, rng, 0.0f, 1.0f);
  const Tensor x = Tensor::Randn({batch, n, channels}, rng);
  executor.ApplyDense(adj, x);
  for (int s = 0; s < executor.num_shards(); ++s) {
    const AllocatorStats stats = executor.ShardAllocatorStats(s);
    EXPECT_GT(stats.requests, 0) << "shard " << s << " saw no allocations";
  }
  // The per-shard gauges mirror the same accounting, under shard.<s>.alloc;
  // tensor.alloc.shard.<i> belongs to the allocator's own free-list shards
  // (tensor.alloc.shard.<i>.hit_rate), so no entity-shard gauge may land
  // there.
  obs::Registry& registry = obs::Registry::Global();
  const std::map<std::string, obs::Gauge*> gauges = registry.Gauges();
  for (int s = 0; s < executor.num_shards(); ++s) {
    const std::string prefix = "shard." + std::to_string(s) + ".alloc.";
    ASSERT_EQ(gauges.count(prefix + "requests"), 1u) << prefix;
    EXPECT_GT(gauges.at(prefix + "requests")->Get(), 0.0);
    EXPECT_EQ(gauges.count(prefix + "bytes_outstanding"), 1u) << prefix;
    const std::string stale = "tensor.alloc.shard." + std::to_string(s);
    EXPECT_EQ(gauges.count(stale + ".requests"), 0u) << stale;
    EXPECT_EQ(gauges.count(stale + ".bytes_outstanding"), 0u) << stale;
  }
}

TEST(ShardExecutorTest, SparseApplyPublishesHaloTrafficGauges) {
  const int64_t batch = 2, n = 16, channels = 4, k = 3;
  graph::SparseAdjacency sparse = graph::TopKSparsify(RandomDense(batch, n, 84), k);
  Rng rng(85);
  const Tensor x = Tensor::Randn({batch, n, channels}, rng);
  shard::EntityShardedExecutor executor(shard::MakeContiguousPlan(n, 4));
  executor.ApplySparse(sparse.index, sparse.values.data(), x, false);
  obs::Registry& registry = obs::Registry::Global();
  const double entities = registry.GetGauge("shard.halo.entities")->Get();
  const double bytes = registry.GetGauge("shard.halo.bytes")->Get();
  EXPECT_GT(entities, 0.0);
  EXPECT_EQ(bytes, entities * batch * channels * sizeof(float));
}

TEST(ShardExecutorTest, ForCurrentContextGatesCachesAndClamps) {
  // Default context: shards == 1, no executor.
  EXPECT_EQ(shard::EntityShardedExecutor::ForCurrentContext(64), nullptr);

  runtime::RuntimeContext::Options options;
  options.private_exec = true;
  runtime::RuntimeContext context(options);
  context.exec().shards.store(4, std::memory_order_relaxed);
  runtime::RuntimeContext::Bind bind(context);

  const auto executor = shard::EntityShardedExecutor::ForCurrentContext(64);
  ASSERT_NE(executor, nullptr);
  EXPECT_EQ(executor->num_shards(), 4);
  // Same entity count: the extension-slot instance is reused, not rebuilt.
  EXPECT_EQ(shard::EntityShardedExecutor::ForCurrentContext(64).get(),
            executor.get());
  // A different entity count rebuilds; shard count clamps to the graph.
  const auto small = shard::EntityShardedExecutor::ForCurrentContext(3);
  ASSERT_NE(small, nullptr);
  EXPECT_EQ(small->num_shards(), 3);
  EXPECT_NE(small.get(), executor.get());
  // Degenerate graphs never shard.
  EXPECT_EQ(shard::EntityShardedExecutor::ForCurrentContext(1), nullptr);
}

// ---------------------------------------------------------------------------
// End to end: sharded forward bitwise-identical across the model families
// ---------------------------------------------------------------------------

models::ModelSizing TinySizing() {
  models::ModelSizing sizing;
  sizing.rnn_hidden = 8;
  sizing.rnn_hidden_dfgn = 4;
  sizing.tcn_channels = 6;
  sizing.tcn_channels_dfgn = 4;
  sizing.skip_channels = 6;
  sizing.end_channels = 8;
  sizing.memory_dim = 6;
  sizing.dfgn_hidden1 = 6;
  sizing.dfgn_hidden2 = 3;
  sizing.damgn_mem_dim = 4;
  sizing.damgn_embed_dim = 3;
  return sizing;
}

/// One representative per family: the full EnhanceNet RNN and TCN variants
/// (both own a DAMGN, so with topk set the sparse halo path is exercised
/// too) plus the two graph baselines, which stress the dense apply.
class ShardedForwardTest : public ::testing::TestWithParam<std::string> {};

TEST_P(ShardedForwardTest, BitwiseIdenticalForOneTwoAndFourShards) {
  const std::string& name = GetParam();
  const int64_t entities = 12, channels = 2;
  Rng dist_rng(86);
  Tensor dist = Tensor::RandUniform({entities, entities}, dist_rng, 0.3f, 4.0f);
  for (int64_t i = 0; i < entities; ++i) dist.at({i, i}) = 0.0f;
  const Tensor adjacency = graph::GaussianKernelAdjacency(dist);
  Rng model_rng(87);
  auto model = models::MakeModel(name, entities, channels, adjacency,
                                 TinySizing(), model_rng);
  model->SetTraining(false);
  Rng data_rng(88);
  const Tensor x = Tensor::Randn({2, entities, 12, channels}, data_rng);

  const auto run = [&](int shards) {
    runtime::RuntimeContext::Options options;
    options.private_exec = true;
    options.private_allocator = true;
    runtime::RuntimeContext context(options);
    // topk = 4 routes the DAMGN variants through TopKAttention +
    // SparseAdjacencyMatMul, so sharding covers the halo-exchange path and
    // not just the dense apply.
    context.exec().topk.store(4, std::memory_order_relaxed);
    context.exec().shards.store(shards, std::memory_order_relaxed);
    runtime::RuntimeContext::Bind bind(context);
    ag::NoGradGuard no_grad;
    Rng fwd(89);
    return model->Predict(x, fwd).data();
  };

  const Tensor baseline = run(1);
  ExpectBitwiseEqual(run(2), baseline);
  ExpectBitwiseEqual(run(4), baseline);
}

INSTANTIATE_TEST_SUITE_P(
    AllFamilies, ShardedForwardTest,
    ::testing::Values("D-DA-GRNN", "D-DA-GTCN", "DCRNN", "GraphWaveNet"),
    [](const ::testing::TestParamInfo<std::string>& info) {
      std::string name = info.param;
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

// ---------------------------------------------------------------------------
// Serve plumbing: SessionOptions::shards
// ---------------------------------------------------------------------------

TEST(ServeShardTest, SessionShardsServeBitwiseIdenticalForecasts) {
  const int64_t entities = 12;
  data::CtsData data = data::MakeEbLike(entities, 2, /*seed=*/90);
  const Tensor adjacency = graph::GaussianKernelAdjacency(data.distances);
  data::StandardScaler scaler;
  scaler.Fit(data.series, 0, data.num_steps() * 7 / 10);

  serve::ModelSpec spec;
  spec.model_name = "D-DA-GRNN";
  spec.num_entities = entities;
  spec.in_channels = 1;
  spec.target_channel = 0;
  spec.adjacency = adjacency;
  spec.sizing = TinySizing();
  // No checkpoint: both sessions serve the same seed-deterministic weights.

  const auto serve_window = [&](int shards, Tensor* forecast) {
    serve::SessionOptions options;
    options.seed = 91;
    options.topk = 4;
    options.shards = shards;
    std::unique_ptr<serve::InferenceSession> session;
    const Status created =
        serve::InferenceSession::Create(spec, options, scaler, &session);
    ASSERT_TRUE(created.ok()) << created.ToString();
    EXPECT_EQ(session->context().exec().shards.load(std::memory_order_relaxed),
              shards < 1 ? 1 : shards);
    Tensor window(Shape{entities, 12, 1});
    for (int64_t i = 0; i < entities; ++i) {
      for (int64_t h = 0; h < 12; ++h) {
        window.at({i, h, 0}) = data.series.at({i, h, 0});
      }
    }
    serve::PredictRequest request;
    request.history = window;
    serve::PredictResponse response;
    const Status served = session->Predict(request, &response);
    ASSERT_TRUE(served.ok()) << served.ToString();
    *forecast = response.forecast;
  };

  Tensor single, sharded;
  serve_window(1, &single);
  serve_window(4, &sharded);
  ExpectBitwiseEqual(sharded, single);
  // The sharded session really placed work on per-shard allocators.
  EXPECT_GT(obs::Registry::Global()
                .GetGauge("shard.3.alloc.requests")
                ->Get(),
            0.0);
}

// A session with shards unset (-1) shares the process exec config, exactly
// like the topk knob: no private ExecConfig is materialized.
TEST(ServeShardTest, InheritedShardsSharesProcessExecConfig) {
  const int64_t entities = 6;
  data::CtsData data = data::MakeEbLike(entities, 2, /*seed=*/92);
  data::StandardScaler scaler;
  scaler.Fit(data.series, 0, data.num_steps() * 7 / 10);
  serve::ModelSpec spec;
  spec.model_name = "RNN";
  spec.num_entities = entities;
  spec.in_channels = 1;
  spec.sizing = TinySizing();
  serve::SessionOptions options;
  std::unique_ptr<serve::InferenceSession> inherited;
  ASSERT_TRUE(
      serve::InferenceSession::Create(spec, options, scaler, &inherited).ok());
  EXPECT_EQ(inherited->context().exec_ptr(),
            runtime::RuntimeContext::Default().exec_ptr());
  options.shards = 2;
  std::unique_ptr<serve::InferenceSession> pinned;
  ASSERT_TRUE(
      serve::InferenceSession::Create(spec, options, scaler, &pinned).ok());
  EXPECT_NE(pinned->context().exec_ptr(),
            runtime::RuntimeContext::Default().exec_ptr());
}

}  // namespace
}  // namespace enhancenet
