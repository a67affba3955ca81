#include "core/fusion.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "nn/ops.h"

namespace tspn::core {
namespace {

TspnRaConfig SmallConfig() {
  TspnRaConfig config;
  config.dm = 16;
  config.num_fusion_layers = 2;
  config.dropout = 0.0f;
  return config;
}

/// Offsets of a pack holding `t` as its only segment.
std::vector<int64_t> Whole(const nn::Tensor& t) { return {0, t.dim(0)}; }

TEST(AttentionBlockTest, OutputShape) {
  common::Rng rng(1);
  AttentionBlock block(16, rng);
  block.SetTraining(false);
  nn::Tensor seq = nn::Tensor::RandomUniform({5, 16}, 1.0f, rng);
  nn::Tensor hist = nn::Tensor::RandomUniform({3, 16}, 1.0f, rng);
  nn::Tensor out = block.Forward(seq, Whole(seq), hist, Whole(hist), rng, 0.0f);
  EXPECT_EQ(out.shape(), nn::Shape({5, 16}));
}

TEST(AttentionBlockTest, CausalMaskHoldsThroughBlock) {
  common::Rng rng(2);
  AttentionBlock block(16, rng);
  block.SetTraining(false);
  nn::Tensor hist = nn::Tensor::RandomUniform({2, 16}, 1.0f, rng);
  nn::Tensor seq1 = nn::Tensor::RandomUniform({4, 16}, 1.0f, rng);
  std::vector<float> v = seq1.ToVector();
  for (int i = 0; i < 16; ++i) v[3 * 16 + i] += 5.0f;  // perturb last element
  nn::Tensor seq2 = nn::Tensor::FromVector({4, 16}, v);
  nn::Tensor out1 = block.Forward(seq1, Whole(seq1), hist, Whole(hist), rng, 0.0f);
  nn::Tensor out2 = block.Forward(seq2, Whole(seq2), hist, Whole(hist), rng, 0.0f);
  // Rows 0..2 must be unaffected by the change at position 3.
  for (int r = 0; r < 3; ++r) {
    for (int c = 0; c < 16; ++c) {
      EXPECT_NEAR(out1.at(r * 16 + c), out2.at(r * 16 + c), 1e-4);
    }
  }
}

TEST(AttentionBlockTest, HistoryInfluencesOutput) {
  common::Rng rng(3);
  AttentionBlock block(16, rng);
  block.SetTraining(false);
  nn::Tensor seq = nn::Tensor::RandomUniform({4, 16}, 1.0f, rng);
  nn::Tensor hist1 = nn::Tensor::RandomUniform({3, 16}, 1.0f, rng);
  nn::Tensor hist2 = nn::Tensor::RandomUniform({3, 16}, 1.0f, rng);
  nn::Tensor out1 = block.Forward(seq, Whole(seq), hist1, Whole(hist1), rng, 0.0f);
  nn::Tensor out2 = block.Forward(seq, Whole(seq), hist2, Whole(hist2), rng, 0.0f);
  double diff = 0.0;
  for (int64_t i = 0; i < out1.numel(); ++i) diff += std::abs(out1.at(i) - out2.at(i));
  EXPECT_GT(diff, 1e-3);
}

TEST(FusionModuleTest, ReturnsLastPositionVector) {
  common::Rng rng(4);
  TspnRaConfig config = SmallConfig();
  FusionModule fusion(config, rng);
  fusion.SetTraining(false);
  nn::Tensor seq = nn::Tensor::RandomUniform({6, 16}, 1.0f, rng);
  nn::Tensor hist = nn::Tensor::RandomUniform({2, 16}, 1.0f, rng);
  nn::Tensor h_out = fusion.Forward(seq, Whole(seq), hist, Whole(hist), rng);
  EXPECT_EQ(h_out.shape(), nn::Shape({1, 16}));
}

TEST(FusionModuleTest, SingleElementSequenceWorks) {
  common::Rng rng(5);
  TspnRaConfig config = SmallConfig();
  FusionModule fusion(config, rng);
  fusion.SetTraining(false);
  nn::Tensor seq = nn::Tensor::RandomUniform({1, 16}, 1.0f, rng);
  nn::Tensor hist = nn::Tensor::RandomUniform({1, 16}, 1.0f, rng);
  nn::Tensor h_out = fusion.Forward(seq, Whole(seq), hist, Whole(hist), rng);
  EXPECT_EQ(h_out.shape(), nn::Shape({1, 16}));
}

TEST(FusionModuleTest, PackedSegmentsEqualEachSegmentAloneBitwise) {
  // h_out of every segment is the same bits alone or inside a pack, the
  // contract the batched serving path relies on.
  common::Rng rng(7);
  TspnRaConfig config = SmallConfig();
  FusionModule fusion(config, rng);
  fusion.SetTraining(false);
  const std::vector<int64_t> offsets = {0, 1, 6, 13, 16};
  const std::vector<int64_t> hist_offsets = {0, 4, 5, 14, 20};
  nn::Tensor seq = nn::Tensor::RandomUniform({16, 16}, 1.0f, rng);
  nn::Tensor hist = nn::Tensor::RandomUniform({20, 16}, 1.0f, rng);
  nn::Tensor packed = fusion.Forward(seq, offsets, hist, hist_offsets, rng);
  ASSERT_EQ(packed.shape(), nn::Shape({4, 16}));
  for (size_t b = 0; b + 1 < offsets.size(); ++b) {
    nn::Tensor s = nn::SliceRows(seq, offsets[b], offsets[b + 1] - offsets[b]);
    nn::Tensor h = nn::SliceRows(hist, hist_offsets[b],
                                 hist_offsets[b + 1] - hist_offsets[b]);
    nn::Tensor alone = fusion.Forward(s, Whole(s), h, Whole(h), rng);
    for (int64_t c = 0; c < 16; ++c) {
      EXPECT_EQ(alone.at(c), packed.at(static_cast<int64_t>(b) * 16 + c))
          << "segment " << b << " column " << c;
    }
  }
}

TEST(FusionModuleTest, DropoutAppliesOnlyWhenTraining) {
  common::Rng rng(8);
  TspnRaConfig config = SmallConfig();
  config.dropout = 0.5f;
  FusionModule fusion(config, rng);
  nn::Tensor seq = nn::Tensor::RandomUniform({5, 16}, 1.0f, rng);
  nn::Tensor hist = nn::Tensor::RandomUniform({3, 16}, 1.0f, rng);
  auto run = [&](uint64_t seed) {
    common::Rng dropout_rng(seed);
    return fusion.Forward(seq, Whole(seq), hist, Whole(hist), dropout_rng)
        .ToVector();
  };
  EXPECT_NE(run(1), run(2));  // training: different dropout masks
  fusion.SetTraining(false);
  EXPECT_EQ(run(1), run(2));  // inference: the rng is never drawn
}

TEST(FusionModuleTest, GradientsReachAllBlocks) {
  common::Rng rng(6);
  TspnRaConfig config = SmallConfig();
  FusionModule fusion(config, rng);
  nn::Tensor seq = nn::Tensor::RandomUniform({4, 16}, 1.0f, rng);
  nn::Tensor hist = nn::Tensor::RandomUniform({2, 16}, 1.0f, rng);
  nn::Tensor h_out = fusion.Forward(seq, Whole(seq), hist, Whole(hist), rng);
  nn::SumAll(nn::Mul(h_out, h_out)).Backward();
  int64_t with_grad = 0, total = 0;
  for (const nn::Tensor& p : fusion.Parameters()) {
    auto g = p.GradToVector();
    double sum = 0.0;
    for (float v : g) sum += std::abs(v);
    with_grad += (sum > 0.0);
    ++total;
  }
  // Nearly all parameters should receive gradient (bias-free corner cases
  // aside).
  EXPECT_GT(with_grad, total * 3 / 4);
}

}  // namespace
}  // namespace tspn::core
