#include <cmath>

#include "autograd/ops.h"
#include "core/damgn.h"
#include "core/dfgn.h"
#include "core/enhance_gru_cell.h"
#include "core/enhance_tcn_layer.h"
#include "core/entity_memory.h"
#include "graph/adjacency.h"
#include "graph/graph_conv.h"
#include "gtest/gtest.h"
#include "reference/reference.h"
#include "tensor/tensor_ops.h"
#include "test_util.h"

namespace enhancenet {
namespace {

namespace ag = ::enhancenet::autograd;
using ::enhancenet::testing::ExpectGradientsMatch;
using ::enhancenet::testing::ExpectTensorNear;

Tensor RandomAdjacency(int64_t n, uint64_t seed) {
  Rng rng(seed);
  Tensor dist = Tensor::RandUniform({n, n}, rng, 0.2f, 5.0f);
  for (int64_t i = 0; i < n; ++i) dist.at({i, i}) = 0.0f;
  return graph::GaussianKernelAdjacency(dist);
}

// ---------------------------------------------------------------------------
// EntityMemoryBank
// ---------------------------------------------------------------------------

TEST(EntityMemoryTest, ShapeAndTrainability) {
  Rng rng(1);
  core::EntityMemoryBank bank(10, 16, rng);
  EXPECT_EQ(ShapeToString(bank.memory().shape()), "[10, 16]");
  EXPECT_TRUE(bank.memory().requires_grad());
  EXPECT_EQ(bank.NumParameters(), 160);
}

TEST(EntityMemoryTest, UniformInitializationBounds) {
  Rng rng(2);
  core::EntityMemoryBank bank(100, 8, rng);
  const float* p = bank.memory().data().data();
  for (int64_t i = 0; i < 800; ++i) EXPECT_LE(std::fabs(p[i]), 0.5f);
}

// ---------------------------------------------------------------------------
// DFGN (Sec. IV-C)
// ---------------------------------------------------------------------------

TEST(DfgnTest, GeneratesPerEntityFilters) {
  Rng rng(3);
  core::Dfgn dfgn(16, 16, 4, 24, rng);
  ag::Variable memory = ag::Variable::Leaf(Tensor::Randn({5, 16}, rng), false);
  ag::Variable filters = dfgn.Generate(memory);
  EXPECT_EQ(ShapeToString(filters.shape()), "[5, 24]");
}

TEST(DfgnTest, ParameterCountMatchesPaperFormula) {
  // Paper Sec. IV-C: m·n₁ + n₁·n₂ + n₂·o (memories counted separately).
  Rng rng(4);
  const int64_t m = 16;
  const int64_t n1 = 16;
  const int64_t n2 = 4;
  const int64_t o = 3 * 16 * (1 + 16);  // GRU head, C=1, C'=16
  core::Dfgn dfgn(m, n1, n2, o, rng);
  EXPECT_EQ(dfgn.NumParameters(), m * n1 + n1 * n2 + n2 * o);
}

TEST(DfgnTest, DistinctMemoriesGiveDistinctFilters) {
  Rng rng(5);
  core::Dfgn dfgn(8, 16, 4, 10, rng);
  Tensor mem = Tensor::Randn({2, 8}, rng);
  ag::Variable filters =
      dfgn.Generate(ag::Variable::Leaf(mem, false));
  Tensor f0 = ops::Slice(filters.data(), 0, 0, 1);
  Tensor f1 = ops::Slice(filters.data(), 0, 1, 1);
  EXPECT_FALSE(ops::AllClose(f0, f1, 1e-4f, 1e-4f));
}

TEST(DfgnTest, IdenticalMemoriesGiveIdenticalFilters) {
  Rng rng(6);
  core::Dfgn dfgn(8, 16, 4, 10, rng);
  Tensor mem({2, 8});
  Rng fill(7);
  Tensor row = Tensor::Randn({8}, fill);
  std::copy(row.data(), row.data() + 8, mem.data());
  std::copy(row.data(), row.data() + 8, mem.data() + 8);
  ag::Variable filters = dfgn.Generate(ag::Variable::Leaf(mem, false));
  ExpectTensorNear(ops::Slice(filters.data(), 0, 0, 1),
                   ops::Slice(filters.data(), 0, 1, 1), 1e-6f);
}

TEST(DfgnTest, CalibrationMatchesGlorotScale) {
  Rng rng(9);
  const int64_t fan_in = 20;
  const int64_t fan_out = 30;
  core::Dfgn dfgn(8, 16, 4, fan_in * fan_out, rng);
  Tensor mem = nn::UniformInit({50, 8}, rng);
  ag::Variable memory = ag::Variable::Leaf(mem, false);
  dfgn.CalibrateGeneratedScale(memory, fan_in, fan_out);
  const Tensor generated = dfgn.Generate(memory).data();
  double sum = 0.0;
  double sq = 0.0;
  for (int64_t i = 0; i < generated.numel(); ++i) {
    sum += generated.data()[i];
    sq += static_cast<double>(generated.data()[i]) * generated.data()[i];
  }
  const double n = static_cast<double>(generated.numel());
  const double std = std::sqrt(sq / n - (sum / n) * (sum / n));
  const double target = std::sqrt(2.0 / (fan_in + fan_out));
  EXPECT_NEAR(std, target, target * 0.05);
}

TEST(DfgnTest, GradientsReachMemoryAndTrunk) {
  Rng rng(8);
  core::Dfgn dfgn(6, 8, 4, 5, rng);
  ag::Variable memory = ag::Variable::Leaf(Tensor::Randn({3, 6}, rng), true);
  std::vector<ag::Variable> inputs = dfgn.Parameters();
  inputs.push_back(memory);
  ExpectGradientsMatch(
      [&] { return ag::SumAll(ag::Square(dfgn.Generate(memory))); }, inputs,
      1e-2f, 3e-2f);
}

// ---------------------------------------------------------------------------
// DAMGN (Sec. V-B)
// ---------------------------------------------------------------------------

class DamgnTest : public ::testing::Test {
 protected:
  DamgnTest()
      : rng_(11),
        adjacency_(RandomAdjacency(6, 11)),
        damgn_(adjacency_, 6, 2, 4, 3, rng_) {}

  Rng rng_;
  Tensor adjacency_;
  core::Damgn damgn_;
};

TEST_F(DamgnTest, AdaptiveBRowsSumToOne) {
  Tensor b = damgn_.AdaptiveB().data();
  EXPECT_EQ(ShapeToString(b.shape()), "[6, 6]");
  for (int64_t i = 0; i < 6; ++i) {
    float row = 0.0f;
    for (int64_t j = 0; j < 6; ++j) {
      EXPECT_GE(b.at({i, j}), 0.0f);
      row += b.at({i, j});
    }
    EXPECT_NEAR(row, 1.0f, 1e-5f);
  }
}

TEST_F(DamgnTest, DynamicCRowsSumToOne) {
  Rng rng(12);
  Tensor x = Tensor::Randn({3, 6, 2}, rng);
  Tensor c = damgn_.DynamicC(ag::Variable::Leaf(x, false)).data();
  EXPECT_EQ(ShapeToString(c.shape()), "[3, 6, 6]");
  for (int64_t b = 0; b < 3; ++b) {
    for (int64_t i = 0; i < 6; ++i) {
      float row = 0.0f;
      for (int64_t j = 0; j < 6; ++j) row += c.at({b, i, j});
      EXPECT_NEAR(row, 1.0f, 1e-5f);
    }
  }
}

TEST_F(DamgnTest, DynamicCDependsOnInput) {
  Rng rng(13);
  Tensor x1 = Tensor::Randn({1, 6, 2}, rng);
  Tensor x2 = Tensor::Randn({1, 6, 2}, rng);
  Tensor c1 = damgn_.DynamicC(ag::Variable::Leaf(x1, false)).data();
  Tensor c2 = damgn_.DynamicC(ag::Variable::Leaf(x2, false)).data();
  EXPECT_FALSE(ops::AllClose(c1, c2, 1e-4f, 1e-4f));
}

TEST_F(DamgnTest, DynamicCCanBeAsymmetric) {
  Rng rng(14);
  Tensor x = Tensor::Randn({1, 6, 2}, rng);
  Tensor c = damgn_.DynamicC(ag::Variable::Leaf(x, false)).data();
  float max_asym = 0.0f;
  for (int64_t i = 0; i < 6; ++i) {
    for (int64_t j = 0; j < 6; ++j) {
      max_asym = std::max(max_asym,
                          std::fabs(c.at({0, i, j}) - c.at({0, j, i})));
    }
  }
  EXPECT_GT(max_asym, 1e-4f);  // θ ≠ φ distinguishes source and target
}

TEST_F(DamgnTest, AtInitializationCombinedEqualsStaticA) {
  // λ_A=1, λ_B=λ_C=0 => A' == row-normalized A: the enhanced model reduces
  // to the base model (the paper's "at least as powerful" argument).
  Rng rng(15);
  Tensor x = Tensor::Randn({2, 6, 2}, rng);
  Tensor combined = damgn_.Combined(ag::Variable::Leaf(x, false)).data();
  const Tensor expected = graph::RowNormalize(adjacency_);
  for (int64_t b = 0; b < 2; ++b) {
    ExpectTensorNear(ops::Slice(combined, 0, b, 1).Reshape({6, 6}), expected,
                     1e-5f);
  }
}

TEST_F(DamgnTest, LambdasAreLearnable) {
  auto named = damgn_.NamedParameters();
  int lambda_count = 0;
  for (const auto& [name, param] : named) {
    if (name.find("lambda") != std::string::npos) {
      ++lambda_count;
      EXPECT_TRUE(param.requires_grad());
    }
  }
  EXPECT_EQ(lambda_count, 3);
  EXPECT_FLOAT_EQ(damgn_.lambda_a(), 1.0f);
  EXPECT_FLOAT_EQ(damgn_.lambda_b(), 0.0f);
  EXPECT_FLOAT_EQ(damgn_.lambda_c(), 0.0f);
}

TEST_F(DamgnTest, CombinedSupportsCountsAndShapes) {
  // The dense supports are A' (then A'ᵀ) as hop operators at hop counts
  // 1..max_hops; each applies the oracle's materialized power (A')ʰ.
  for (auto& [name, param] : damgn_.NamedParameters()) {
    if (name == "lambda_b") param.mutable_data().data()[0] = 0.3f;
    if (name == "lambda_c") param.mutable_data().data()[0] = 0.4f;
  }
  Rng rng(16);
  const ag::Variable x =
      ag::Variable::Leaf(Tensor::Randn({2, 6, 2}, rng), false);
  const ag::Variable probe =
      ag::Variable::Leaf(Tensor::Randn({2, 6, 3}, rng), false);
  const auto supports = damgn_.CombinedSupports(x, 2, true);
  const auto powers = reference::DenseCombinedSupports(damgn_, x, 2, true);
  ASSERT_EQ(supports.size(), 4u);
  ASSERT_EQ(powers.size(), 4u);
  for (size_t i = 0; i < supports.size(); ++i) {
    EXPECT_EQ(supports[i].hops, static_cast<int>(i % 2) + 1) << i;
    EXPECT_EQ(supports[i].transposed, i >= 2) << i;
    EXPECT_FALSE(supports[i].sparse.defined()) << i;
    EXPECT_EQ(ShapeToString(supports[i].adj.shape()), "[2, 6, 6]") << i;
    ExpectTensorNear(graph::ApplySupport(supports[i], probe).data(),
                     graph::ApplySupport(powers[i], probe).data(), 1e-5f);
  }
  // Both hop counts of a direction share its operator; the second
  // direction's operator is the transpose of the first's.
  EXPECT_EQ(supports[0].adj.node(), supports[1].adj.node());
  EXPECT_EQ(supports[2].adj.node(), supports[3].adj.node());
  ExpectTensorNear(supports[2].adj.data(),
                   ops::Transpose(supports[0].adj.data(), 1, 2), 1e-6f);
}

TEST_F(DamgnTest, ParameterCountMatchesFormula) {
  // 2·N·M (B₁,B₂) + 2·C·e (θ,φ) + 3 λs.
  EXPECT_EQ(damgn_.NumParameters(), 2 * 6 * 4 + 2 * 2 * 3 + 3);
}

TEST_F(DamgnTest, GradientsFlowToAllParameters) {
  Rng rng(17);
  Tensor x = Tensor::Randn({1, 6, 2}, rng);
  auto params = damgn_.Parameters();
  ag::Variable out =
      ag::SumAll(ag::Square(damgn_.Combined(ag::Variable::Leaf(x, false))));
  damgn_.ZeroGrad();
  out.Backward();
  for (auto& p : params) {
    EXPECT_TRUE(p.has_grad());
  }
}

// ---------------------------------------------------------------------------
// EnhanceGruCell
// ---------------------------------------------------------------------------

core::GruCellConfig CellConfig(int64_t n, int64_t c, int64_t hidden,
                               int64_t supports, bool dfgn) {
  core::GruCellConfig config;
  config.num_entities = n;
  config.in_channels = c;
  config.hidden = hidden;
  config.num_supports = supports;
  config.use_dfgn = dfgn;
  config.dfgn_hidden1 = 8;
  config.dfgn_hidden2 = 4;
  return config;
}

TEST(EnhanceGruCellTest, PlainCellShapes) {
  Rng rng(21);
  core::EnhanceGruCell cell(CellConfig(4, 2, 6, 0, false), nullptr, rng);
  ag::Variable x = ag::Variable::Leaf(Tensor::Randn({3, 4, 2}, rng), false);
  ag::Variable h = ag::Variable::Leaf(Tensor::Zeros({3, 4, 6}), false);
  ag::Variable h2 = cell.Forward(x, h, {});
  EXPECT_EQ(ShapeToString(h2.shape()), "[3, 4, 6]");
}

TEST(EnhanceGruCellTest, SharedParameterCountMatchesFormula) {
  Rng rng(22);
  const int64_t c = 2;
  const int64_t hidden = 6;
  core::EnhanceGruCell cell(CellConfig(4, c, hidden, 0, false), nullptr, rng);
  const int64_t mixed = c + hidden;
  // w_ru [mixed,2C'] + w_c [mixed,C'] + biases 3C'.
  EXPECT_EQ(cell.NumParameters(), mixed * 2 * hidden + mixed * hidden +
                                      3 * hidden);
}

TEST(EnhanceGruCellTest, DfgnVariantUsesSharedMemory) {
  Rng rng(23);
  core::EntityMemoryBank bank(4, 8, rng);
  core::EnhanceGruCell cell(CellConfig(4, 2, 6, 0, true), &bank.memory(),
                            rng);
  ag::Variable x = ag::Variable::Leaf(Tensor::Randn({3, 4, 2}, rng), false);
  ag::Variable h = ag::Variable::Leaf(Tensor::Zeros({3, 4, 6}), false);
  ag::Variable h2 = cell.Forward(x, h, {});
  EXPECT_EQ(ShapeToString(h2.shape()), "[3, 4, 6]");
  // Gradients reach the memory bank through the cell.
  bank.ZeroGrad();
  cell.ZeroGrad();
  ag::SumAll(ag::Square(h2)).Backward();
  EXPECT_TRUE(bank.memory().has_grad());
}

TEST(EnhanceGruCellTest, DfgnParameterCountMatchesPaperAnalysis) {
  Rng rng(24);
  const int64_t c = 1;
  const int64_t hidden = 16;
  const int64_t n1 = 8;
  const int64_t n2 = 4;
  auto config = CellConfig(30, c, hidden, 0, true);
  config.dfgn_hidden1 = n1;
  config.dfgn_hidden2 = n2;
  core::EntityMemoryBank bank(30, 16, rng);
  core::EnhanceGruCell cell(config, &bank.memory(), rng);
  const int64_t mixed = c + hidden;
  const int64_t o = 3 * mixed * hidden;  // all six GRU filters at once
  // DFGN trunk+head + shared biases; memories live in the bank.
  EXPECT_EQ(cell.NumParameters(), 16 * n1 + n1 * n2 + n2 * o + 3 * hidden);
}

TEST(EnhanceGruCellTest, DfgnNeedsFewerParamsThanStraightforward) {
  // The straightforward method stores N distinct filter sets; DFGN
  // amortizes them through the generator (paper Sec. IV-C1).
  Rng rng(25);
  const int64_t n = 100;
  const int64_t c = 1;
  const int64_t hidden = 16;
  core::EntityMemoryBank bank(n, 16, rng);
  core::EnhanceGruCell cell(CellConfig(n, c, hidden, 0, true),
                            &bank.memory(), rng);
  const int64_t mixed = c + hidden;
  const int64_t straightforward = n * 3 * mixed * hidden;
  EXPECT_LT(cell.NumParameters() + bank.NumParameters(), straightforward);
}

TEST(EnhanceGruCellTest, GraphVariantUsesSupports) {
  Rng rng(26);
  Tensor adjacency = RandomAdjacency(4, 26);
  const auto raw = graph::DiffusionSupports(adjacency, 1);
  std::vector<graph::Support> supports;
  for (const auto& s : raw) supports.push_back(ag::Variable::Leaf(s, false));

  core::EnhanceGruCell cell(CellConfig(4, 2, 6, 2, false), nullptr, rng);
  ag::Variable x = ag::Variable::Leaf(Tensor::Randn({2, 4, 2}, rng), false);
  ag::Variable h = ag::Variable::Leaf(Tensor::Zeros({2, 4, 6}), false);
  ag::Variable out = cell.Forward(x, h, supports);
  EXPECT_EQ(ShapeToString(out.shape()), "[2, 4, 6]");

  // Different supports change the result (graph actually used).
  std::vector<graph::Support> zero_supports = {
      ag::Variable::Leaf(Tensor::Zeros({4, 4}), false),
      ag::Variable::Leaf(Tensor::Zeros({4, 4}), false)};
  ag::Variable out2 = cell.Forward(x, h, zero_supports);
  EXPECT_FALSE(ops::AllClose(out.data(), out2.data(), 1e-4f, 1e-4f));
}

TEST(EnhanceGruCellTest, HoistedFilterGenerationMatchesConvenienceOverload) {
  Rng rng(29);
  core::EntityMemoryBank bank(4, 6, rng);
  core::EnhanceGruCell cell(CellConfig(4, 2, 5, 0, true), &bank.memory(),
                            rng);
  ag::Variable x = ag::Variable::Leaf(Tensor::Randn({2, 4, 2}, rng), false);
  ag::Variable h = ag::Variable::Leaf(Tensor::Randn({2, 4, 5}, rng), false);
  const auto filters = cell.GenerateFilters();
  ExpectTensorNear(cell.Forward(x, h, {}, filters).data(),
                   cell.Forward(x, h, {}).data(), 0.0f);
  // Reusing the same filters across multiple steps also matches.
  ag::Variable h2 = cell.Forward(x, h, {}, filters);
  ag::Variable h3 = cell.Forward(x, h2, {}, filters);
  ExpectTensorNear(h3.data(), cell.Forward(x, cell.Forward(x, h, {}), {}).data(),
                   1e-6f);
}

TEST(EnhanceGruCellTest, GradCheckSharedPath) {
  Rng rng(27);
  core::EnhanceGruCell cell(CellConfig(3, 1, 2, 0, false), nullptr, rng);
  Tensor x = Tensor::Randn({2, 3, 1}, rng);
  auto params = cell.Parameters();
  ExpectGradientsMatch(
      [&] {
        ag::Variable h = ag::Variable::Leaf(Tensor::Zeros({2, 3, 2}), false);
        h = cell.Forward(ag::Variable::Leaf(x, false), h, {});
        return ag::SumAll(ag::Square(h));
      },
      params, 1e-2f, 3e-2f);
}

TEST(EnhanceGruCellTest, GradCheckDfgnGraphPath) {
  Rng rng(28);
  Tensor adjacency = RandomAdjacency(3, 28);
  const auto raw = graph::DiffusionSupports(adjacency, 1);
  std::vector<graph::Support> supports;
  for (const auto& s : raw) supports.push_back(ag::Variable::Leaf(s, false));
  core::EntityMemoryBank bank(3, 4, rng);
  auto config = CellConfig(3, 1, 2, 2, true);
  config.dfgn_hidden1 = 4;
  config.dfgn_hidden2 = 2;
  core::EnhanceGruCell cell(config, &bank.memory(), rng);
  Tensor x = Tensor::Randn({2, 3, 1}, rng);
  std::vector<ag::Variable> inputs = cell.Parameters();
  auto bank_params = bank.Parameters();
  inputs.insert(inputs.end(), bank_params.begin(), bank_params.end());
  ExpectGradientsMatch(
      [&] {
        ag::Variable h = ag::Variable::Leaf(Tensor::Zeros({2, 3, 2}), false);
        h = cell.Forward(ag::Variable::Leaf(x, false), h, supports);
        return ag::SumAll(ag::Square(h));
      },
      inputs, 1e-2f, 3e-2f);
}

// ---------------------------------------------------------------------------
// EnhanceTcnLayer
// ---------------------------------------------------------------------------

core::TcnLayerConfig LayerConfig(int64_t n, int64_t c, int64_t conv,
                                 int64_t dilation, int64_t supports,
                                 bool dfgn) {
  core::TcnLayerConfig config;
  config.num_entities = n;
  config.in_channels = c;
  config.conv_channels = conv;
  config.skip_channels = 5;
  config.dilation = dilation;
  config.num_supports = supports;
  config.use_dfgn = dfgn;
  config.dfgn_hidden1 = 8;
  config.dfgn_hidden2 = 4;
  config.dropout = 0.0f;
  return config;
}

TEST(FoldTimeTest, RoundTrip) {
  Rng rng(31);
  Tensor x = Tensor::Randn({2, 3, 4, 5}, rng);
  ag::Variable folded = core::FoldTime(ag::Variable::Leaf(x, false));
  EXPECT_EQ(ShapeToString(folded.shape()), "[8, 3, 5]");
  ag::Variable back = core::UnfoldTime(folded, 2, 4);
  ExpectTensorNear(back.data(), x, 1e-6f);
}

TEST(FoldTimeTest, OrderIsBatchMajorThenTime) {
  Tensor x = Tensor::Zeros({2, 1, 2, 1});
  x.at({1, 0, 0, 0}) = 7.0f;  // batch 1, time 0
  ag::Variable folded = core::FoldTime(ag::Variable::Leaf(x, false));
  // Folded index = b*T + t = 2.
  EXPECT_FLOAT_EQ(folded.data().at({2, 0, 0}), 7.0f);
}

TEST(EnhanceTcnLayerTest, OutputShapes) {
  Rng rng(32);
  core::EnhanceTcnLayer layer(LayerConfig(4, 3, 6, 2, 0, false), nullptr,
                              rng);
  ag::Variable x = ag::Variable::Leaf(Tensor::Randn({2, 4, 12, 3}, rng),
                                      false);
  auto out = layer.Forward(x, {}, rng);
  EXPECT_EQ(ShapeToString(out.residual.shape()), "[2, 4, 12, 3]");
  EXPECT_EQ(ShapeToString(out.skip.shape()), "[2, 4, 12, 5]");
}

TEST(EnhanceTcnLayerTest, CausalityRespected) {
  // Changing the input at time t must not affect outputs before t.
  Rng rng(33);
  core::EnhanceTcnLayer layer(LayerConfig(2, 1, 4, 2, 0, false), nullptr,
                              rng);
  layer.SetTraining(false);
  Rng drop1(1);
  Rng drop2(1);
  Tensor x1 = Tensor::Randn({1, 2, 8, 1}, rng);
  Tensor x2 = x1.Clone();
  x2.at({0, 0, 5, 0}) += 10.0f;  // perturb t=5
  Tensor out1 =
      layer.Forward(ag::Variable::Leaf(x1, false), {}, drop1).skip.data();
  Tensor out2 =
      layer.Forward(ag::Variable::Leaf(x2, false), {}, drop2).skip.data();
  for (int64_t t = 0; t < 5; ++t) {
    for (int64_t ch = 0; ch < 5; ++ch) {
      EXPECT_NEAR(out1.at({0, 0, t, ch}), out2.at({0, 0, t, ch}), 1e-5f)
          << "leak at t=" << t;
    }
  }
  // And some output at t >= 5 does change.
  bool changed = false;
  for (int64_t t = 5; t < 8 && !changed; ++t) {
    for (int64_t ch = 0; ch < 5; ++ch) {
      if (std::fabs(out1.at({0, 0, t, ch}) - out2.at({0, 0, t, ch})) >
          1e-4f) {
        changed = true;
        break;
      }
    }
  }
  EXPECT_TRUE(changed);
}

TEST(EnhanceTcnLayerTest, DilationControlsReceptiveField) {
  // With K=2, dilation=4, output at t depends on t and t-4 only.
  Rng rng(34);
  core::EnhanceTcnLayer layer(LayerConfig(1, 1, 4, 4, 0, false), nullptr,
                              rng);
  layer.SetTraining(false);
  Rng drop(1);
  Tensor x1 = Tensor::Randn({1, 1, 10, 1}, rng);
  Tensor x2 = x1.Clone();
  x2.at({0, 0, 3, 0}) += 5.0f;  // t=3: affects outputs at 3 and 7 only
  Tensor out1 =
      layer.Forward(ag::Variable::Leaf(x1, false), {}, drop).skip.data();
  Tensor out2 =
      layer.Forward(ag::Variable::Leaf(x2, false), {}, drop).skip.data();
  for (int64_t t = 0; t < 10; ++t) {
    const float diff = std::fabs(out1.at({0, 0, t, 0}) - out2.at({0, 0, t, 0}));
    if (t == 3 || t == 7) {
      EXPECT_GT(diff, 1e-5f) << "t=" << t;
    } else {
      EXPECT_LT(diff, 1e-6f) << "t=" << t;
    }
  }
}

TEST(EnhanceTcnLayerTest, DfgnParameterCountPerLayer) {
  Rng rng(35);
  const int64_t c = 3;
  const int64_t conv = 6;
  const int64_t n1 = 8;
  const int64_t n2 = 4;
  core::EntityMemoryBank bank(4, 8, rng);
  core::EnhanceTcnLayer layer(LayerConfig(4, c, conv, 1, 0, true),
                              &bank.memory(), rng);
  // DFGN o = K·C·2C' (gated WaveNet doubles the filter count); plus conv
  // bias, residual proj, skip proj.
  const int64_t o = 2 * c * 2 * conv;
  const int64_t dfgn = 8 * n1 + n1 * n2 + n2 * o;
  const int64_t rest = 2 * conv                 // conv bias
                       + (conv * c + c)         // residual proj
                       + (conv * 5 + 5);        // skip proj
  EXPECT_EQ(layer.NumParameters(), dfgn + rest);
}

TEST(EnhanceTcnLayerTest, GraphConvChangesOutput) {
  Rng rng(36);
  Tensor adjacency = RandomAdjacency(3, 36);
  const auto raw = graph::DiffusionSupports(adjacency, 1);
  std::vector<graph::Support> supports;
  for (const auto& s : raw) supports.push_back(ag::Variable::Leaf(s, false));

  core::EnhanceTcnLayer layer(LayerConfig(3, 2, 4, 1, 2, false), nullptr,
                              rng);
  layer.SetTraining(false);
  Rng drop(1);
  ag::Variable x =
      ag::Variable::Leaf(Tensor::Randn({1, 3, 6, 2}, rng), false);
  Tensor with_graph = layer.Forward(x, supports, drop).skip.data();
  std::vector<graph::Support> zeros = {
      ag::Variable::Leaf(Tensor::Zeros({3, 3}), false),
      ag::Variable::Leaf(Tensor::Zeros({3, 3}), false)};
  Tensor without = layer.Forward(x, zeros, drop).skip.data();
  EXPECT_FALSE(ops::AllClose(with_graph, without, 1e-4f, 1e-4f));
}

TEST(EnhanceTcnLayerTest, GradCheckDfgnPath) {
  Rng rng(37);
  core::EntityMemoryBank bank(2, 4, rng);
  auto config = LayerConfig(2, 1, 2, 1, 0, true);
  config.dfgn_hidden1 = 4;
  config.dfgn_hidden2 = 2;
  config.skip_channels = 2;
  core::EnhanceTcnLayer layer(config, &bank.memory(), rng);
  layer.SetTraining(false);
  Tensor x = Tensor::Randn({1, 2, 4, 1}, rng);
  std::vector<ag::Variable> inputs = layer.Parameters();
  auto bank_params = bank.Parameters();
  inputs.insert(inputs.end(), bank_params.begin(), bank_params.end());
  Rng drop(1);
  ExpectGradientsMatch(
      [&] {
        auto out = layer.Forward(ag::Variable::Leaf(x, false), {}, drop);
        return ag::Add(ag::SumAll(ag::Square(out.skip)),
                       ag::SumAll(ag::Square(out.residual)));
      },
      inputs, 1e-2f, 3e-2f);
}

}  // namespace
}  // namespace enhancenet
