#ifndef TSPN_CORE_TSPN_RA_H_
#define TSPN_CORE_TSPN_RA_H_

#include <atomic>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/config.h"
#include "core/encoders.h"
#include "core/fusion.h"
#include "core/hgat.h"
#include "data/dataset.h"
#include "eval/model_api.h"
#include "graph/qrp_graph.h"
#include "rs/synthesizer.h"
#include "spatial/grid_index.h"

namespace tspn::eval {
class ConstraintEvaluator;
}  // namespace tspn::eval

namespace tspn::core {

/// TSPN-RA: the Two-Step Prediction Network with Remote Sensing Augmentation
/// (the paper's model, Secs. III-V). Owns every sub-module — tile/POI
/// embedding, spatial & temporal encoders, the QR-P graph encoder and the
/// two attention-fusion predictors — and implements the tile-then-POI
/// two-step prediction with the ArcFace-margin training loss (Eq. 8).
class TspnRa : public eval::NextPoiModel {
 public:
  TspnRa(std::shared_ptr<const data::CityDataset> dataset, TspnRaConfig config);
  ~TspnRa() override;

  std::string name() const override { return "TSPN-RA"; }
  void Train(const eval::TrainOptions& options) override;

  /// Incremental updates from streamed check-in samples. Optimizer moments,
  /// learning rate, and the negative-sampling RNG persist across calls (the
  /// continual trainer calls this once per drained mini-batch). Samples
  /// whose history or target references a POI id outside the dataset are
  /// skipped (cold-start arrivals are handled by eval::ColdStartPriors at
  /// serving time, not here). Dirties the inference caches when any step
  /// was taken. Returns the number of samples trained on.
  int64_t TrainOnline(common::Span<const eval::OnlineSample> samples,
                      const eval::TrainOptions& options) override;

  // --- Extended API for the figure benches -----------------------------------

  /// Ranked candidate-tile indices (dense leaf order), best first.
  /// Ties rank by ascending tile index, so orderings are deterministic.
  std::vector<int64_t> RankTiles(const data::SampleRef& sample) const;

  /// Top-k prefix of RankTiles via partial selection: identical ordering to
  /// RankTiles(sample) truncated to k, without sorting the full tile set.
  std::vector<int64_t> RankTilesTopK(const data::SampleRef& sample,
                                     int64_t k) const;

  /// Dense candidate-tile index containing the sample's target POI.
  int64_t TargetTileIndex(const data::SampleRef& sample) const;

  /// Recommend with an inference-time top-K override (Fig. 11 sweeps K).
  std::vector<int64_t> RecommendWithK(const data::SampleRef& sample, int64_t top_n,
                                      int32_t top_k) const;

  /// Number of candidate POIs screened when keeping `top_k` tiles.
  int64_t CandidatePoiCount(const data::SampleRef& sample, int32_t top_k) const;

  int64_t NumCandidateTiles() const {
    return static_cast<int64_t>(leaf_tile_ids_.size());
  }

  /// Debug/inspection: the inference-time tile embedding matrix (all tile
  /// ids, rows L2-normalized) and the candidate-tile id list.
  nn::Tensor DebugTileEmbeddings() const {
    EnsureInferenceCaches();
    return et_cache_;
  }
  const std::vector<int32_t>& candidate_tile_ids() const { return leaf_tile_ids_; }
  const TspnRaConfig& config() const { return config_; }
  int64_t ParameterCount() const;

  /// All trainable parameters (for serialization).
  std::vector<nn::Tensor> Parameters() const;

 protected:
  /// A single query is a batch of one through ScoreBatch().
  eval::RecommendResponse RecommendImpl(
      const eval::RecommendRequest& request) const override;

  /// ScoreBatch() keeping config().top_k_tiles tiles.
  std::vector<eval::RecommendResponse> RecommendBatchImpl(
      common::Span<eval::RecommendRequest> requests) const override;

  /// Checkpoint payload: the trained parameter tensors via nn::serialize.
  void SaveState(std::ostream& out) const override;
  bool LoadState(std::istream& in) override;

 private:
  struct Net;
  struct Features {
    std::vector<int64_t> poi_ids;
    std::vector<int64_t> poi_cats;
    std::vector<int64_t> time_slots;
    std::vector<int64_t> tile_rows;   // ET row (tile id) per prefix element
    std::vector<double> norm_x, norm_y;
    const graph::QrpGraph* history_graph = nullptr;  // may be null/empty
    int64_t target_poi = -1;
    int64_t target_tile_index = -1;   // dense candidate-tile index
  };

  /// Renders (and caches) the tile imagery tensor for all tile ids.
  void BuildImageCache();
  /// Precomputes per-candidate-tile POI lists.
  void BuildTilePoiLists();

  Features ExtractFeatures(const data::SampleRef& sample) const;

  /// Builds Features directly from raw check-ins (the online-training path,
  /// where samples come from live traffic instead of stored trajectories).
  /// No history graph — streamed prefixes have no trajectory id to key the
  /// QR-P cache, and a stale graph would be worse than none. Returns false
  /// (leaving `out` unspecified) when any check-in references a POI id the
  /// dataset does not know.
  bool FeaturesFromCheckins(common::Span<const data::Checkin> history,
                            const data::Checkin& target, Features* out) const;
  const graph::QrpGraph* HistoryGraph(int32_t user, int32_t traj) const;

  /// ET for all tile ids ([num_tile_ids, dm], rows normalized); part of the
  /// autograd graph during training.
  nn::Tensor ComputeTileEmbeddings() const;

  /// Forward pass producing (h_out_tau, h_out_p): [B, dm] from
  /// ForwardBatch(), [dm] from Forward().
  struct ForwardOut {
    nn::Tensor h_tile;
    nn::Tensor h_poi;
  };

  /// The one encoder forward, over a pack of samples: the tile/POI
  /// sequences are concatenated row-wise and run through the embedding
  /// gathers, spatial/temporal encoders, the packed history-graph encode
  /// and the fusion modules as whole-pack tensors (per sample only where
  /// structure forces it: attention stays inside each sequence). Row b of
  /// the result is bitwise identical to a pack holding sample b alone.
  /// Differentiable; dropout draws from `rng` when training.
  ForwardOut ForwardBatch(common::Span<Features> features, const nn::Tensor& et,
                          common::Rng& rng) const;

  /// One sample (serial inference and training): ForwardBatch() over a
  /// batch of one, rows returned as [dm].
  ForwardOut Forward(const Features& features, const nn::Tensor& et,
                     common::Rng& rng) const;

  /// Historical knowledge (Sec. IV-C) of a pack of samples, packed row-wise
  /// per sample: rows [offsets[b], offsets[b + 1]) belong to sample b.
  struct HistoryPack {
    nn::Tensor tile;  // H^T_< rows
    nn::Tensor poi;   // H^P_< rows
    std::vector<int64_t> tile_offsets, poi_offsets;
  };
  /// Runs every sample's non-empty history graph through one packed QR-P
  /// encode (initial embeddings gathered once); samples without one get
  /// the learned null-history rows. Called by ForwardBatch().
  HistoryPack EncodeHistories(common::Span<Features> features,
                              const nn::Tensor& et) const;

  /// Per-sample training loss (Eq. 8): beta * loss_tile + loss_poi.
  nn::Tensor SampleLoss(const data::SampleRef& sample, const nn::Tensor& et,
                        common::Rng& rng) const;

  /// The loss core shared by the offline (SampleLoss) and online
  /// (TrainOnline) paths, computed from already-extracted Features.
  nn::Tensor LossFromFeatures(const Features& f, const nn::Tensor& et,
                              common::Rng& rng) const;

  /// Candidate POI ids when keeping the given ranked tiles.
  std::vector<int64_t> GatherCandidates(const std::vector<int64_t>& ranked_tiles,
                                        int32_t top_k) const;

  /// The one inference core, behind Recommend, RecommendBatch and
  /// RecommendWithK. ForwardBatch() runs the sequence encoders for the whole
  /// batch as one packed forward; the L2-normalized [batch, dm] outputs are
  /// scored against the cached leaf-tile and POI matrices with one GEMM per
  /// stage; then per request the stage-1 screen keeps `top_k` tiles with
  /// constraints applied before selection (widening until the allowed pool
  /// can fill request.top_n), and stage 2 ranks the screened POIs by the
  /// gamma-fused score. Requests may differ in top_n and constraints. Every
  /// stage computes rows independently, so a request's response is bitwise
  /// the same in any batch, a batch of one included.
  std::vector<eval::RecommendResponse> ScoreBatch(
      common::Span<eval::RecommendRequest> requests, int32_t top_k) const;

  /// Stage-1 candidate gather with constraints applied before selection:
  /// keeps the top_k tiles by cosine (common::TopKIndices, one pass over
  /// the cosines behind a rising bar), skips fence-disjoint tiles, filters
  /// POIs through `filter`, and doubles the screen until at least
  /// `required` allowed candidates exist (or every tile was screened).
  /// `required` = 1 without constraints, reproducing the v1 behavior
  /// exactly. `max_tiles` > 0 bounds the screen (widening included) — the
  /// gateway's degraded-mode cap — at the cost of possibly gathering fewer
  /// than `required` candidates; 0 leaves it unbounded. Writes the final
  /// screen width to `tiles_screened`.
  std::vector<int64_t> GatherAllowedCandidates(
      const float* cos_tiles, int32_t top_k, int64_t required,
      const eval::ConstraintEvaluator* filter, int64_t max_tiles,
      int64_t* tiles_screened) const;

  /// Bounding box of a dense candidate-tile index (quad-tree leaf or grid
  /// cell).
  geo::BoundingBox CandidateTileBounds(int64_t candidate) const;

  /// All POI ids passing `filter` (the no-two-step candidate set).
  std::vector<int64_t> AllAllowedPois(
      const eval::ConstraintEvaluator* filter) const;

  /// Response tail: top-n selection over the fused candidate scores and
  /// ScoredPoi item construction.
  void FillRankedItems(const std::vector<int64_t>& candidates,
                       const float* scores, int64_t top_n,
                       eval::RecommendResponse* response) const;

  /// Cosines between h_tile and every candidate tile's ET row ([num_tiles]).
  /// Training path: gathers from the autograd-tracked `et` every call.
  nn::Tensor TileCosinesFrom(const nn::Tensor& et, const nn::Tensor& h_tile) const;

  /// Dense candidate-tile index containing a POI.
  int64_t CandidateTileOfPoi(int64_t poi_id) const;

  void EnsureInferenceCaches() const;

  std::shared_ptr<const data::CityDataset> dataset_;
  TspnRaConfig config_;

  // Partition: quad-tree (from the dataset) or grid (ablation). Tile ids are
  // quad-tree node ids or grid cell indices; candidates are leaves / cells.
  std::unique_ptr<spatial::GridIndex> grid_;
  std::unique_ptr<roadnet::TileAdjacency> grid_adjacency_;
  int64_t num_tile_ids_ = 0;
  std::vector<int32_t> leaf_tile_ids_;              // candidate idx -> tile id
  std::vector<std::vector<int64_t>> tile_pois_;     // candidate idx -> POI ids
  std::vector<int64_t> poi_tile_;                   // POI id -> candidate idx

  nn::Tensor tile_images_;  // [num_tile_ids, 3, R, R], constant
  std::unique_ptr<Net> net_;

  // Online-training state (TrainOnline): Adam moments and the
  // negative-sampling RNG must persist across mini-batches or the online
  // path degenerates to SGD with a reset seed every call. Created lazily on
  // the first TrainOnline call; guarded by online_mutex_ (TrainOnline may
  // not run concurrently with itself, though it never races inference —
  // the trainer owns a private clone).
  struct OnlineState;
  std::mutex online_mutex_;
  std::unique_ptr<OnlineState> online_;

  // --- Inference-only state. Recommend/RecommendBatch are const and must be
  // callable concurrently (serve::InferenceEngine workers); every lazily
  // built mutable member below is guarded. --------------------------------
  mutable std::mutex graph_mutex_;    // guards graph_cache_
  mutable std::unordered_map<int64_t, graph::QrpGraph> graph_cache_;
  mutable std::mutex cache_mutex_;    // guards the cache build below
  mutable nn::Tensor et_cache_;       // inference-time ET
  mutable nn::Tensor leaf_et_cache_;  // gathered + L2-normalized leaf rows
  mutable nn::Tensor poi_et_cache_;   // all POI embeddings, L2-normalized
  /// Whether the caches above match the current weights. An atomic flag
  /// rather than a std::once_flag because Train(), TrainOnline() and
  /// LoadState() re-dirty the caches; a once_flag cannot be re-armed.
  mutable std::atomic<bool> caches_built_{false};

  /// The uncached reference path of the parity tests.
  friend class TspnRaTestPeer;
};

}  // namespace tspn::core

#endif  // TSPN_CORE_TSPN_RA_H_
