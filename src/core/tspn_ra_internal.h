#ifndef TSPN_CORE_TSPN_RA_INTERNAL_H_
#define TSPN_CORE_TSPN_RA_INTERNAL_H_

// Implementation detail shared by tspn_ra.cc, trainer.cc and the parity
// tests' uncached reference path.

#include "core/tspn_ra.h"
#include "nn/optim.h"

namespace tspn::core {

/// Persistent state of the online-training path (TrainOnline): one Adam
/// whose moments carry across calls, plus the negative-sampling RNG stream.
struct TspnRa::OnlineState {
  OnlineState(std::vector<nn::Tensor> params, const nn::Adam::Options& opts,
              uint64_t seed)
      : optimizer(std::move(params), opts), rng(seed) {}

  nn::Adam optimizer;
  common::Rng rng;
  int64_t steps = 0;
};

/// Aggregates every trainable sub-module of TSPN-RA.
struct TspnRa::Net : nn::Module {
  Net(const TspnRaConfig& config, int64_t num_tile_ids, int64_t num_pois,
      int64_t num_categories, common::Rng& rng)
      : tile_encoder(config, num_tile_ids, rng),
        poi_encoder(config, num_pois, num_categories, rng),
        temporal(config.dm, rng),
        qrp(config, rng),
        mp1(config, rng),
        mp2(config, rng) {
    RegisterChild(&tile_encoder);
    RegisterChild(&poi_encoder);
    RegisterChild(&temporal);
    RegisterChild(&qrp);
    RegisterChild(&mp1);
    RegisterChild(&mp2);
    null_tile_history = RegisterParameter(
        nn::Tensor::RandomNormal({1, config.dm}, 0.1f, rng, true));
    null_poi_history = RegisterParameter(
        nn::Tensor::RandomNormal({1, config.dm}, 0.1f, rng, true));
    tile_prior_weight = RegisterParameter(nn::Tensor::Full({1}, 0.0f, true));
  }

  TileEncoder tile_encoder;
  PoiEncoder poi_encoder;
  TemporalEncoder temporal;
  QrpEncoder qrp;
  FusionModule mp1;
  FusionModule mp2;
  nn::Tensor null_tile_history;
  nn::Tensor null_poi_history;
  /// gamma: weight of the tile-score prior inside stage-2 POI scoring
  /// (hierarchical score fusion across the two steps).
  nn::Tensor tile_prior_weight;
};

}  // namespace tspn::core

#endif  // TSPN_CORE_TSPN_RA_INTERNAL_H_
