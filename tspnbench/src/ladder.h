#ifndef TSPNBENCH_LADDER_H_
#define TSPNBENCH_LADDER_H_

// The traced run's per-layer measurements, all taken from outside the
// program: the layer ladder (the same request entering at each layer's
// public call, so a layer's self time is its rung minus the rung below)
// and probes of single layers (GEMM, QR-P graph build, batching, planner).

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/net.h"
#include "core/tspn_ra.h"
#include "data/dataset.h"
#include "loadgen.h"
#include "serve/gateway.h"
#include "serve/inference_engine.h"
#include "stats.h"

namespace tspnbench {

/// Rung indices, bottom first; each rung's call wraps the one below.
enum Rung : int {
  kRankTiles = 0,  ///< TspnRa::RankTilesTopK (features, encoders, stage 1)
  kRecommend,      ///< NextPoiModel::Recommend
  kBatch1,         ///< NextPoiModel::RecommendBatch of one
  kEngine,         ///< InferenceEngine::Submit(...).get()
  kGateway,        ///< Gateway::Submit(...).get()
  kCodec,          ///< encode + Gateway::ServeFrame + decode
  kFrameServer,    ///< encode + FrameClient::Call to the shard + decode
  kRouter,         ///< encode + FrameClient::Call via the router + decode
  kNumRungs,
};

/// Metric name of each rung's self time (rung minus the rung below).
const char* SelfTimeName(int rung);

struct LadderTargets {
  const tspn::core::TspnRa* model = nullptr;
  tspn::serve::InferenceEngine* engine = nullptr;  ///< over *model
  tspn::serve::Gateway* gateway = nullptr;
  std::string endpoint;
  tspn::common::SocketAddress shard;  ///< the gateway's own FrameServer
  tspn::common::SocketAddress router;
};

struct LadderResult {
  /// Per item: each rung's median time (us) over the item's repetitions.
  /// The median drops one-off stalls; keeping items apart keeps each self
  /// time paired on the same request.
  std::vector<std::vector<double>> rows;
  /// Per item: median constrained minus median unconstrained Recommend.
  std::vector<double> constraint_extra_us;
  int64_t passes = 0;
  int64_t attempted = 0;
  int64_t failed = 0;
  int64_t mismatched = 0;
};

/// Cycles through `items` (unconstrained jobs with their reference) for
/// `seconds`, timing every rung on each item in a freshly shuffled order,
/// and reduces each item's repetitions to per-rung medians.
LadderResult RunLadder(const LadderTargets& targets,
                       const tspn::data::CityDataset& dataset,
                       const std::vector<Job>& items, double seconds);

/// kernels::DotProductGemm at the stage-1 scoring shape: a batch of 32
/// query rows against every candidate tile, [32 x dm] * [dm x tiles].
struct GemmProbe {
  std::vector<double> us;
  double flops = 0.0;  ///< 2 * 32 * dm * tiles per call
  double bytes = 0.0;  ///< operands read plus result written, fp32
};
GemmProbe ProbeGemm(int64_t dm, int64_t tiles, double seconds);

/// graph::BuildQrpGraph over the items' sample histories (capped as the
/// model caps them).
std::vector<double> ProbeQrpBuild(const tspn::data::CityDataset& dataset,
                                  const std::vector<Job>& items,
                                  int64_t max_history, double seconds);

/// RecommendBatch over consecutive chunks of `batch` items, each reply
/// checked against its reference; one time per call.
struct BatchProbe {
  std::vector<double> us;
  std::vector<double> start_s;  ///< per call, from the probe's start
  int64_t requests = 0;
  int64_t failed = 0;
  double seconds = 0.0;
};
BatchProbe ProbeBatches(const tspn::eval::NextPoiModel& model,
                        const std::vector<Job>& items,
                        const std::vector<int32_t>& order, size_t batch,
                        double seconds);

/// In-process ItineraryPlanner::Plan (default options) over itinerary
/// jobs for `seconds`, rounded up to whole passes over `plans` (`order`
/// holds whole passes), each plan checked against its reference.
struct PlanProbe {
  std::vector<double> us;
  std::vector<double> start_s;  ///< per plan, from the probe's start
  double expansions = 0.0;  ///< mean per plan
  double rollouts = 0.0;    ///< mean per plan
  int64_t failed = 0;
};
PlanProbe ProbePlans(const tspn::eval::NextPoiModel& model,
                     const std::shared_ptr<const tspn::data::CityDataset>& dataset,
                     const std::vector<Job>& plans,
                     const std::vector<int32_t>& order, double seconds);

}  // namespace tspnbench

#endif  // TSPNBENCH_LADDER_H_
