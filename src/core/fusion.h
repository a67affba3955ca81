#ifndef TSPN_CORE_FUSION_H_
#define TSPN_CORE_FUSION_H_

#include <memory>
#include <vector>

#include "core/config.h"
#include "nn/gru.h"
#include "nn/layers.h"

namespace tspn::core {

/// One attention block AB_i of Sec. V-A: masked sequential self-attention,
/// add & layer-norm, cross-attention over historical knowledge, and a
/// position-wise feed-forward — each sublayer with a residual + norm for
/// training stability.
class AttentionBlock : public nn::Module {
 public:
  AttentionBlock(int64_t dm, common::Rng& rng);

  /// Forward over B segments packed row-wise. `sequence` holds the B
  /// prefix sequences ([total, dm], segment b in rows [offsets[b],
  /// offsets[b + 1])); `history` holds each segment's historical knowledge
  /// likewise ([total_h, dm], `hist_offsets`, every segment non-empty).
  /// Projections, norms and the feed-forward run once over the whole pack;
  /// attention stays inside each segment (nn::SegmentAttention). Every op
  /// is row-wise or per segment with a fixed accumulation order, so a
  /// segment's rows are bitwise the same alone or in any pack. Dropout
  /// applies when training. Returns [total, dm].
  nn::Tensor Forward(const nn::Tensor& sequence,
                     const std::vector<int64_t>& offsets,
                     const nn::Tensor& history,
                     const std::vector<int64_t>& hist_offsets, common::Rng& rng,
                     float dropout) const;

 private:
  std::unique_ptr<nn::Attention> self_attention_;
  std::unique_ptr<nn::LayerNormLayer> norm1_;
  std::unique_ptr<nn::Attention> cross_attention_;
  std::unique_ptr<nn::LayerNormLayer> norm2_;
  std::unique_ptr<nn::Linear> feed_forward_;
  std::unique_ptr<nn::LayerNormLayer> norm3_;
};

/// MP1 / MP2 (Sec. V-A): N stacked attention blocks fusing the current
/// prefix-sequence embedding with historical knowledge; the last position of
/// the final layer is the prediction vector h_out.
class FusionModule : public nn::Module {
 public:
  FusionModule(const TspnRaConfig& config, common::Rng& rng);

  /// Runs the blocks over B packed segments (see AttentionBlock::Forward
  /// for the packing contract) and returns h_out, the last position of each
  /// segment after the final block: [B, dm].
  nn::Tensor Forward(const nn::Tensor& sequence,
                     const std::vector<int64_t>& offsets,
                     const nn::Tensor& history,
                     const std::vector<int64_t>& hist_offsets,
                     common::Rng& rng) const;

 private:
  const TspnRaConfig config_;
  std::vector<std::unique_ptr<AttentionBlock>> blocks_;
};

}  // namespace tspn::core

#endif  // TSPN_CORE_FUSION_H_
