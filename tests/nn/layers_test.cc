#include "nn/layers.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "nn/ops.h"
#include "tests/nn/grad_check.h"

namespace tspn::nn {
namespace {

TEST(LinearTest, ShapesAndBias) {
  common::Rng rng(1);
  Linear layer(3, 2, rng);
  Tensor x = Tensor::FromVector({2, 3}, {1, 0, 0, 0, 1, 0});
  Tensor y = layer.Forward(x);
  EXPECT_EQ(y.shape(), Shape({2, 2}));
  Tensor v = Tensor::FromVector({3}, {1, 2, 3});
  Tensor yv = layer.Forward(v);
  EXPECT_EQ(yv.shape(), Shape({2}));
}

TEST(LinearTest, MatchesManualAffine) {
  common::Rng rng(2);
  Linear layer(2, 1, rng);
  const float* w = layer.weight().data();
  const float* b = layer.bias().data();
  Tensor x = Tensor::FromVector({2}, {3.0f, -1.0f});
  Tensor y = layer.Forward(x);
  EXPECT_NEAR(y.item(), w[0] * 3.0f + w[1] * -1.0f + b[0], 1e-5);
}

TEST(LinearTest, NoBiasOption) {
  common::Rng rng(3);
  Linear layer(2, 2, rng, /*with_bias=*/false);
  EXPECT_EQ(layer.Parameters().size(), 1u);
  Tensor zero = Tensor::Zeros({2});
  Tensor y = layer.Forward(zero);
  EXPECT_EQ(y.at(0), 0.0f);
  EXPECT_EQ(y.at(1), 0.0f);
}

TEST(LinearTest, GradCheckThroughLayer) {
  common::Rng rng(4);
  Linear layer(3, 2, rng);
  Tensor x = Tensor::RandomUniform({2, 3}, 1.0f, rng, true);
  std::vector<Tensor> inputs = layer.Parameters();
  inputs.push_back(x);
  testing::CheckGradients(inputs, [&] {
    Tensor y = layer.Forward(x);
    return SumAll(Mul(y, y));
  });
}

/// The op chain Linear::Forward replaced, kept as its oracle.
Tensor LinearOracle(const Tensor& x, const Tensor& weight, const Tensor& bias) {
  Tensor x2 = x.rank() == 1 ? Reshape(x, {1, x.dim(0)}) : x;
  Tensor y = MatMul(x2, Transpose(weight));
  if (bias.defined()) y = Add(y, bias);
  return x.rank() == 1 ? Reshape(y, {weight.dim(0)}) : y;
}

Tensor ProbeLoss(const Tensor& out, uint64_t seed) {
  common::Rng rng(seed);
  return SumAll(Mul(out, Tensor::RandomUniform(out.shape(), 1.0f, rng)));
}

TEST(LinearTest, MatchesMatMulTransposeOracle) {
  // Values and gradients (x, W, b) against MatMul(x, Transpose(W)) + b, with
  // and without bias, for matrix and vector inputs; the sizes cover the
  // kernel's 4-row, 32-column, 8-column and masked-column tails.
  common::Rng rng(13);
  for (bool with_bias : {true, false}) {
    for (const Shape& x_shape : {Shape{37, 13}, Shape{4, 32}, Shape{13}}) {
      const int64_t in = x_shape.back();
      for (int64_t out : {int64_t{5}, int64_t{32}, int64_t{45}}) {
        Linear layer(in, out, rng, with_bias);
        Tensor bias = layer.bias();
        if (with_bias) {  // a zero bias would hide a missing bias add
          for (int64_t j = 0; j < out; ++j) bias.data()[j] = 0.1f * static_cast<float>(j);
        }
        Tensor x = Tensor::RandomUniform(x_shape, 1.0f, rng, /*requires_grad=*/true);
        testing::CheckTensorsNear(layer.Forward(x),
                                  LinearOracle(x, layer.weight(), bias), 1e-5f);
        std::vector<Tensor> inputs = layer.Parameters();
        inputs.push_back(x);
        testing::CheckGradParity(
            inputs, [&] { return ProbeLoss(layer.Forward(x), 14); },
            [&] { return ProbeLoss(LinearOracle(x, layer.weight(), bias), 14); },
            1e-5f);
      }
    }
  }
}

TEST(LinearTest, RowsAreBitwiseIndependentOfBatch) {
  common::Rng rng(15);
  Linear layer(24, 32, rng);
  Tensor x = Tensor::RandomUniform({11, 24}, 1.0f, rng);
  Tensor all = layer.Forward(x);
  for (int64_t i = 0; i < 11; ++i) {
    Tensor one = layer.Forward(Row(x, i));
    for (int64_t j = 0; j < 32; ++j) EXPECT_EQ(one.at(j), all.at(i * 32 + j));
  }
}

TEST(EmbeddingTest, LookupAndShapes) {
  common::Rng rng(5);
  Embedding emb(10, 4, rng);
  Tensor e = emb.Forward({1, 3, 1});
  EXPECT_EQ(e.shape(), Shape({3, 4}));
  // Same index -> same row.
  for (int j = 0; j < 4; ++j) EXPECT_EQ(e.at(j), e.at(8 + j));
  Tensor one = emb.ForwardOne(3);
  EXPECT_EQ(one.shape(), Shape({4}));
  for (int j = 0; j < 4; ++j) EXPECT_EQ(one.at(j), e.at(4 + j));
}

TEST(EmbeddingTest, GradientScatters) {
  common::Rng rng(6);
  Embedding emb(5, 2, rng);
  Tensor e = emb.Forward({2, 2});
  SumAll(e).Backward();
  const float* g = emb.weight().grad();
  // Row 2 used twice -> grad 2; all others zero.
  EXPECT_EQ(g[2 * 2 + 0], 2.0f);
  EXPECT_EQ(g[2 * 2 + 1], 2.0f);
  EXPECT_EQ(g[0], 0.0f);
}

TEST(LayerNormLayerTest, NormalizesRows) {
  LayerNormLayer ln(4);
  Tensor x = Tensor::FromVector({1, 4}, {10, 20, 30, 40});
  Tensor y = ln.Forward(x);
  float mean = 0.0f;
  for (int i = 0; i < 4; ++i) mean += y.at(i);
  EXPECT_NEAR(mean / 4.0f, 0.0f, 1e-5);
}

TEST(FeedForwardTest, ShapeAndGrad) {
  common::Rng rng(7);
  FeedForward ff(4, 8, rng);
  Tensor x = Tensor::RandomUniform({3, 4}, 1.0f, rng, true);
  Tensor y = ff.Forward(x);
  EXPECT_EQ(y.shape(), Shape({3, 4}));
  SumAll(Mul(y, y)).Backward();
  // All parameters should receive gradient signal somewhere.
  bool any_nonzero = false;
  for (const Tensor& p : ff.Parameters()) {
    for (int64_t i = 0; i < p.numel(); ++i) {
      if (p.GradToVector()[static_cast<size_t>(i)] != 0.0f) any_nonzero = true;
    }
  }
  EXPECT_TRUE(any_nonzero);
}

TEST(AttentionTest, OutputShape) {
  common::Rng rng(8);
  Attention attn(4, rng);
  Tensor q = Tensor::RandomUniform({3, 4}, 1.0f, rng);
  Tensor kv = Tensor::RandomUniform({5, 4}, 1.0f, rng);
  Tensor y = attn.Forward(q, kv);
  EXPECT_EQ(y.shape(), Shape({3, 4}));
}

TEST(AttentionTest, CausalMaskBlocksFuture) {
  common::Rng rng(9);
  Attention attn(4, rng);
  // Build a sequence; the first output position must be independent of
  // later positions under the causal mask.
  Tensor seq1 = Tensor::RandomUniform({3, 4}, 1.0f, rng);
  std::vector<float> v2 = seq1.ToVector();
  // Perturb only the last row.
  for (int j = 0; j < 4; ++j) v2[2 * 4 + j] += 10.0f;
  Tensor seq2 = Tensor::FromVector({3, 4}, v2);
  Tensor y1 = attn.Forward(seq1, seq1, /*causal=*/true);
  Tensor y2 = attn.Forward(seq2, seq2, /*causal=*/true);
  for (int j = 0; j < 4; ++j) {
    EXPECT_NEAR(y1.at(j), y2.at(j), 1e-5) << "first row leaked future info";
    EXPECT_NEAR(y1.at(4 + j), y2.at(4 + j), 1e-5) << "second row leaked future info";
  }
}

TEST(AttentionTest, NonCausalAttendsEverywhere) {
  common::Rng rng(10);
  Attention attn(4, rng);
  Tensor seq1 = Tensor::RandomUniform({3, 4}, 1.0f, rng);
  std::vector<float> v2 = seq1.ToVector();
  for (int j = 0; j < 4; ++j) v2[2 * 4 + j] += 10.0f;
  Tensor seq2 = Tensor::FromVector({3, 4}, v2);
  Tensor y1 = attn.Forward(seq1, seq1, /*causal=*/false);
  Tensor y2 = attn.Forward(seq2, seq2, /*causal=*/false);
  float diff = 0.0f;
  for (int j = 0; j < 4; ++j) diff += std::abs(y1.at(j) - y2.at(j));
  EXPECT_GT(diff, 1e-4);
}

TEST(AttentionTest, PackedForwardMatchesEachSegmentAlone) {
  common::Rng rng(16);
  Attention attn(8, rng);
  Tensor seq = Tensor::RandomUniform({9, 8}, 1.0f, rng);
  Tensor hist = Tensor::RandomUniform({7, 8}, 1.0f, rng);
  const std::vector<int64_t> offsets = {0, 4, 9}, hist_offsets = {0, 2, 7};
  Tensor self_packed = attn.Forward(seq, offsets, seq, offsets, /*causal=*/true);
  Tensor cross_packed = attn.Forward(seq, offsets, hist, hist_offsets, false);
  for (size_t b = 0; b < 2; ++b) {
    const int64_t start = offsets[b], len = offsets[b + 1] - start;
    Tensor s = SliceRows(seq, start, len);
    Tensor h = SliceRows(hist, hist_offsets[b], hist_offsets[b + 1] - hist_offsets[b]);
    Tensor self_alone = attn.Forward(s, s, /*causal=*/true);
    Tensor cross_alone = attn.Forward(s, h, /*causal=*/false);
    for (int64_t i = 0; i < len * 8; ++i) {
      EXPECT_EQ(self_alone.at(i), self_packed.at(start * 8 + i));
      EXPECT_EQ(cross_alone.at(i), cross_packed.at(start * 8 + i));
    }
  }
}

TEST(ModuleTest, ParameterCountAggregatesChildren) {
  common::Rng rng(11);
  FeedForward ff(4, 8, rng);
  // fc1: 4*8 + 8, fc2: 8*4 + 4.
  EXPECT_EQ(ff.ParameterCount(), 4 * 8 + 8 + 8 * 4 + 4);
}

TEST(ModuleTest, SetTrainingPropagates) {
  common::Rng rng(12);
  FeedForward ff(4, 8, rng);
  EXPECT_TRUE(ff.training());
  ff.SetTraining(false);
  EXPECT_FALSE(ff.training());
}

}  // namespace
}  // namespace tspn::nn
