#include "core/fusion.h"

#include "common/check.h"
#include "nn/ops.h"

namespace tspn::core {

AttentionBlock::AttentionBlock(int64_t dm, common::Rng& rng) {
  self_attention_ = std::make_unique<nn::Attention>(dm, rng);
  RegisterChild(self_attention_.get());
  norm1_ = std::make_unique<nn::LayerNormLayer>(dm);
  RegisterChild(norm1_.get());
  cross_attention_ = std::make_unique<nn::Attention>(dm, rng);
  RegisterChild(cross_attention_.get());
  norm2_ = std::make_unique<nn::LayerNormLayer>(dm);
  RegisterChild(norm2_.get());
  feed_forward_ = std::make_unique<nn::Linear>(dm, dm, rng);
  RegisterChild(feed_forward_.get());
  norm3_ = std::make_unique<nn::LayerNormLayer>(dm);
  RegisterChild(norm3_.get());
}

nn::Tensor AttentionBlock::Forward(const nn::Tensor& sequence,
                                   const std::vector<int64_t>& offsets,
                                   const nn::Tensor& history,
                                   const std::vector<int64_t>& hist_offsets,
                                   common::Rng& rng, float dropout) const {
  TSPN_CHECK_EQ(sequence.rank(), 2);
  TSPN_CHECK_EQ(history.rank(), 2);
  // 1. Masked sequential self-attention (inverted-triangle mask).
  nn::Tensor z_m = self_attention_->Forward(sequence, offsets, sequence,
                                            offsets, /*causal=*/true);
  z_m = nn::Dropout(z_m, dropout, rng, training());
  // 2. Add & normalize.
  nn::Tensor h1 = norm1_->Forward(nn::Add(sequence, z_m));
  // 3. Cross attention over each segment's own historical knowledge.
  nn::Tensor z_h = cross_attention_->Forward(h1, offsets, history, hist_offsets,
                                             /*causal=*/false);
  z_h = nn::Dropout(z_h, dropout, rng, training());
  nn::Tensor h2 = norm2_->Forward(nn::Add(h1, z_h));
  // 4. Feed forward (Z_f = ReLU(W_f Z_h + b_f)).
  nn::Tensor z_f = nn::Relu(feed_forward_->Forward(h2));
  return norm3_->Forward(nn::Add(h2, z_f));
}

FusionModule::FusionModule(const TspnRaConfig& config, common::Rng& rng)
    : config_(config) {
  for (int32_t i = 0; i < config_.num_fusion_layers; ++i) {
    blocks_.push_back(std::make_unique<AttentionBlock>(config_.dm, rng));
    RegisterChild(blocks_.back().get());
  }
}

nn::Tensor FusionModule::Forward(const nn::Tensor& sequence,
                                 const std::vector<int64_t>& offsets,
                                 const nn::Tensor& history,
                                 const std::vector<int64_t>& hist_offsets,
                                 common::Rng& rng) const {
  nn::Tensor h = sequence;
  for (const auto& block : blocks_) {
    h = block->Forward(h, offsets, history, hist_offsets, rng, config_.dropout);
  }
  std::vector<int64_t> last_rows(offsets.begin() + 1, offsets.end());
  for (int64_t& row : last_rows) --row;
  return nn::EmbeddingGather(h, last_rows);
}

}  // namespace tspn::core
