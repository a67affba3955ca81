// End-to-end tests of the TSPN-RA model on the tiny synthetic city.

#include "core/tspn_ra.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <set>

#include <gtest/gtest.h>

#include "core/tspn_ra_internal.h"
#include "eval/metrics.h"
#include "nn/ops.h"

namespace tspn::core {

/// The uncached per-query inference path, the reference the cached batch
/// core is checked against: per query, the leaf rows are gathered from ET
/// and every tile is sorted, and the candidate POIs are encoded and
/// normalized. Unconstrained requests only.
class TspnRaTestPeer {
 public:
  /// Every candidate tile, ranked by (cosine desc, index asc).
  static std::vector<int64_t> RankTiles(const TspnRa& model,
                                        const data::SampleRef& sample) {
    return FullSort(Run(model, sample).cos_tiles);
  }

  /// Top `top_n` of the POIs in the best `top_k` tiles (of every POI
  /// without the two-step screen), scored as pc + gamma * tc.
  static eval::RecommendResponse Recommend(const TspnRa& model,
                                           const data::SampleRef& sample,
                                           int64_t top_n, int32_t top_k) {
    const Query query = Run(model, sample);
    nn::NoGradGuard guard;
    const bool two_step = model.config_.use_two_step;
    eval::RecommendResponse response;
    response.stages_used = two_step ? 2 : 1;
    std::vector<int64_t> candidates;
    if (two_step) {
      candidates = model.GatherCandidates(FullSort(query.cos_tiles), top_k);
    } else {
      candidates = model.AllAllowedPois(nullptr);
    }
    std::vector<int64_t> cats;
    for (int64_t pid : candidates) {
      cats.push_back(model.dataset_->poi(pid).category);
    }
    nn::Tensor cos_pois = nn::MatVec(
        nn::L2Normalize(model.net_->poi_encoder.Encode(candidates, cats)),
        nn::L2Normalize(query.fwd.h_poi));
    const float gamma = model.net_->tile_prior_weight.at(0);
    const float* pc = cos_pois.data();
    const float* tc = query.cos_tiles.data();
    std::vector<float> scores(candidates.size());
    for (size_t i = 0; i < candidates.size(); ++i) {
      const int64_t tile = model.CandidateTileOfPoi(candidates[i]);
      scores[i] = two_step ? pc[i] + gamma * tc[tile] : pc[i];
    }
    model.FillRankedItems(candidates, scores.data(), top_n, &response);
    return response;
  }

 private:
  struct Query {
    TspnRa::ForwardOut fwd;
    nn::Tensor cos_tiles;  // against the leaf rows gathered from ET
  };

  static Query Run(const TspnRa& model, const data::SampleRef& sample) {
    model.EnsureInferenceCaches();  // ET of the current weights, eval mode
    nn::NoGradGuard guard;
    common::Rng rng(model.config_.seed);  // dropout is off: never drawn
    Query query;
    query.fwd =
        model.Forward(model.ExtractFeatures(sample), model.et_cache_, rng);
    query.cos_tiles =
        model.TileCosinesFrom(model.et_cache_, query.fwd.h_tile);
    return query;
  }

  static std::vector<int64_t> FullSort(const nn::Tensor& cos_tiles) {
    const float* cos = cos_tiles.data();
    std::vector<int64_t> order(static_cast<size_t>(cos_tiles.numel()));
    std::iota(order.begin(), order.end(), int64_t{0});
    std::sort(order.begin(), order.end(), [cos](int64_t a, int64_t b) {
      if (cos[a] != cos[b]) return cos[a] > cos[b];
      return a < b;
    });
    return order;
  }
};

namespace {

TspnRaConfig TinyConfig() {
  TspnRaConfig config;
  config.dm = 16;
  config.image_resolution = 16;
  config.num_fusion_layers = 1;
  config.num_hgat_layers = 1;
  config.max_seq_len = 8;
  config.top_k_tiles = 5;
  config.seed = 3;
  return config;
}

class TspnRaTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dataset_ = data::CityDataset::Generate(data::CityProfile::TestTiny());
  }
  static std::shared_ptr<data::CityDataset> dataset_;
};

std::shared_ptr<data::CityDataset> TspnRaTest::dataset_;

TEST_F(TspnRaTest, UntrainedRecommendReturnsValidPois) {
  TspnRa model(dataset_, TinyConfig());
  auto samples = dataset_->Samples(data::Split::kTest);
  ASSERT_FALSE(samples.empty());
  std::vector<int64_t> ranked = model.Recommend(samples[0], 20);
  EXPECT_FALSE(ranked.empty());
  std::set<int64_t> unique(ranked.begin(), ranked.end());
  EXPECT_EQ(unique.size(), ranked.size()) << "no duplicate recommendations";
  for (int64_t id : ranked) {
    EXPECT_GE(id, 0);
    EXPECT_LT(id, static_cast<int64_t>(dataset_->pois().size()));
  }
}

TEST_F(TspnRaTest, RankTilesIsPermutationOfCandidates) {
  TspnRa model(dataset_, TinyConfig());
  auto samples = dataset_->Samples(data::Split::kTest);
  std::vector<int64_t> ranked = model.RankTiles(samples[0]);
  EXPECT_EQ(static_cast<int64_t>(ranked.size()), model.NumCandidateTiles());
  std::set<int64_t> unique(ranked.begin(), ranked.end());
  EXPECT_EQ(static_cast<int64_t>(unique.size()), model.NumCandidateTiles());
}

TEST_F(TspnRaTest, RankTilesTopKMatchesFullSortPrefix) {
  // The partial top-k selection must reproduce the full-sort ordering
  // exactly (ties broken by ascending tile index in both paths).
  TspnRa model(dataset_, TinyConfig());
  auto samples = dataset_->Samples(data::Split::kTest);
  ASSERT_FALSE(samples.empty());
  for (size_t s = 0; s < std::min<size_t>(3, samples.size()); ++s) {
    std::vector<int64_t> full = model.RankTiles(samples[s]);
    for (int64_t k : {int64_t{1}, int64_t{2}, int64_t{5}, model.NumCandidateTiles()}) {
      std::vector<int64_t> topk = model.RankTilesTopK(samples[s], k);
      ASSERT_EQ(static_cast<int64_t>(topk.size()),
                std::min<int64_t>(k, model.NumCandidateTiles()));
      for (size_t i = 0; i < topk.size(); ++i) {
        EXPECT_EQ(topk[i], full[i]) << "k=" << k << " position " << i;
      }
    }
  }
}

TEST_F(TspnRaTest, ScreenStressSizedScreenMatchesUncachedPath) {
  // The ScreenStress shape: a 96x96 grid (9216 candidate tiles) behind a
  // 64-tile screen, so the one-pass selection streams thousands of tiles
  // past its bar per query. On this small city many screens hold no POI
  // and widen, so both the selected and the fully ranked path run.
  TspnRaConfig config = TinyConfig();
  config.use_quadtree = false;
  config.grid_cells_per_side = 96;
  config.top_k_tiles = 64;
  TspnRa model(dataset_, config);
  ASSERT_EQ(model.NumCandidateTiles(), 96 * 96);
  auto samples = dataset_->Samples(data::Split::kTest);
  ASSERT_FALSE(samples.empty());
  const size_t count = std::min<size_t>(24, samples.size());
  std::vector<eval::RecommendRequest> requests(count);
  for (size_t s = 0; s < count; ++s) {
    requests[s].sample = samples[s];
    requests[s].top_n = 10;
  }
  std::vector<eval::RecommendResponse> batched =
      model.RecommendBatch(common::Span<eval::RecommendRequest>(requests));
  ASSERT_EQ(batched.size(), count);
  int unwidened = 0;
  for (size_t s = 0; s < count; ++s) {
    // A screen whose tiles hold no POI widens; the reference then screens
    // the same, wider prefix of the full ranking.
    const eval::RecommendResponse single = model.Recommend(requests[s]);
    EXPECT_EQ(batched[s].tiles_screened, single.tiles_screened);
    if (single.tiles_screened == config.top_k_tiles) ++unwidened;
    const eval::RecommendResponse uncached = TspnRaTestPeer::Recommend(
        model, samples[s], 10, static_cast<int32_t>(single.tiles_screened));
    ASSERT_FALSE(uncached.items.empty()) << "sample " << s;
    for (const eval::RecommendResponse& cached : {single, batched[s]}) {
      ASSERT_EQ(cached.items.size(), uncached.items.size()) << "sample " << s;
      for (size_t i = 0; i < uncached.items.size(); ++i) {
        EXPECT_EQ(cached.items[i].poi_id, uncached.items[i].poi_id)
            << "sample " << s << " rank " << i;
        EXPECT_NEAR(cached.items[i].score, uncached.items[i].score, 1e-5)
            << "sample " << s << " rank " << i;
      }
    }
    const std::vector<int64_t> full = model.RankTiles(samples[s]);
    for (int64_t k : {int64_t{1}, int64_t{64}, int64_t{65}, int64_t{1000}}) {
      const std::vector<int64_t> topk = model.RankTilesTopK(samples[s], k);
      ASSERT_EQ(static_cast<int64_t>(topk.size()), k);
      EXPECT_TRUE(std::equal(topk.begin(), topk.end(), full.begin()))
          << "sample " << s << " k=" << k;
    }
  }
  EXPECT_GT(unwidened, 0);
}

TEST_F(TspnRaTest, CachedInferenceMatchesUncachedPath) {
  // The cached leaf-matrix + partial-sort inference path must recommend
  // exactly what the per-query gather + full-sort reference recommends.
  TspnRa model(dataset_, TinyConfig());
  auto samples = dataset_->Samples(data::Split::kTest);
  ASSERT_FALSE(samples.empty());
  const size_t count = std::min<size_t>(4, samples.size());
  for (size_t s = 0; s < count; ++s) {
    EXPECT_EQ(model.RecommendWithK(samples[s], 10, 3),
              TspnRaTestPeer::Recommend(model, samples[s], 10, 3).PoiIds())
        << "sample " << s;
    EXPECT_EQ(model.RankTiles(samples[s]),
              TspnRaTestPeer::RankTiles(model, samples[s]))
        << "sample " << s;
  }
}

TEST_F(TspnRaTest, RecommendBatchMatchesSingleQuery) {
  // The batched GEMM path must return exactly what per-query Recommend
  // returns, for every query in the batch, at several batch sizes (including
  // the 4-row GEMM tile boundary and a non-multiple-of-4 tail).
  TspnRa model(dataset_, TinyConfig());
  auto samples = dataset_->Samples(data::Split::kTest);
  ASSERT_GE(samples.size(), 2u);
  for (size_t batch : {size_t{1}, size_t{3}, size_t{4}, size_t{9}}) {
    std::vector<data::SampleRef> query(batch);
    for (size_t i = 0; i < batch; ++i) query[i] = samples[i % samples.size()];
    std::vector<std::vector<int64_t>> batched =
        model.RecommendBatch(common::Span<data::SampleRef>(query), 10);
    ASSERT_EQ(batched.size(), batch);
    for (size_t i = 0; i < batch; ++i) {
      EXPECT_EQ(batched[i], model.Recommend(query[i], 10))
          << "batch=" << batch << " query " << i;
    }
  }
}

TEST_F(TspnRaTest, RecommendBatchParityAfterTrainingAndOnAblations) {
  // Parity must survive a trained model (non-degenerate scores) and the
  // structurally different ablations: grid partition and no-two-step.
  eval::TrainOptions options;
  options.epochs = 1;
  options.max_samples_per_epoch = 24;
  auto samples = dataset_->Samples(data::Split::kTest);
  std::vector<TspnRaConfig> configs;
  configs.push_back(TinyConfig());
  {
    TspnRaConfig c = TinyConfig();
    c.use_quadtree = false;
    c.grid_cells_per_side = 6;
    configs.push_back(c);
  }
  {
    TspnRaConfig c = TinyConfig();
    c.use_two_step = false;
    configs.push_back(c);
  }
  std::vector<data::SampleRef> query(samples.begin(),
                                     samples.begin() +
                                         std::min<size_t>(6, samples.size()));
  for (const TspnRaConfig& config : configs) {
    TspnRa model(dataset_, config);
    model.Train(options);
    std::vector<std::vector<int64_t>> batched =
        model.RecommendBatch(common::Span<data::SampleRef>(query), 10);
    for (size_t i = 0; i < query.size(); ++i) {
      EXPECT_EQ(batched[i], model.Recommend(query[i], 10)) << "query " << i;
    }
  }
}

TEST_F(TspnRaTest, BatchedEvaluationMatchesSerialEvaluation) {
  TspnRa model(dataset_, TinyConfig());
  eval::RankingMetrics serial =
      eval::EvaluateModel(model, *dataset_, data::Split::kTest, 40, 5);
  eval::RankingMetrics batched = eval::EvaluateModelBatched(
      model, *dataset_, data::Split::kTest, 40, 5, /*batch_size=*/8);
  EXPECT_EQ(serial.count(), batched.count());
  EXPECT_DOUBLE_EQ(serial.RecallAt(10), batched.RecallAt(10));
  EXPECT_DOUBLE_EQ(serial.NdcgAt(10), batched.NdcgAt(10));
  EXPECT_DOUBLE_EQ(serial.Mrr(), batched.Mrr());
}

TEST_F(TspnRaTest, CandidateCountMonotonicInK) {
  TspnRa model(dataset_, TinyConfig());
  auto samples = dataset_->Samples(data::Split::kTest);
  int64_t prev = 0;
  for (int32_t k = 1; k <= model.NumCandidateTiles(); k *= 2) {
    int64_t count = model.CandidatePoiCount(samples[0], k);
    EXPECT_GE(count, prev);
    prev = count;
  }
  // All tiles -> all POIs.
  EXPECT_EQ(model.CandidatePoiCount(
                samples[0], static_cast<int32_t>(model.NumCandidateTiles())),
            static_cast<int64_t>(dataset_->pois().size()));
}

TEST_F(TspnRaTest, RecommendWithFullKCoversTargetEventually) {
  TspnRa model(dataset_, TinyConfig());
  auto samples = dataset_->Samples(data::Split::kTest);
  // With K = all tiles, the candidate set is every POI, so the target must
  // appear somewhere in a full-length ranking.
  std::vector<int64_t> ranked = model.RecommendWithK(
      samples[0], static_cast<int64_t>(dataset_->pois().size()),
      static_cast<int32_t>(model.NumCandidateTiles()));
  int64_t target = dataset_->Target(samples[0]).poi_id;
  EXPECT_NE(std::find(ranked.begin(), ranked.end(), target), ranked.end());
}

TEST_F(TspnRaTest, TargetTileIndexInRange) {
  TspnRa model(dataset_, TinyConfig());
  for (const auto& sample : dataset_->Samples(data::Split::kTest)) {
    int64_t idx = model.TargetTileIndex(sample);
    EXPECT_GE(idx, 0);
    EXPECT_LT(idx, model.NumCandidateTiles());
  }
}

TEST_F(TspnRaTest, TrainingImprovesOverUntrained) {
  TspnRa model(dataset_, TinyConfig());
  eval::TrainOptions options;
  options.epochs = 3;
  options.max_samples_per_epoch = 96;
  options.lr = 3e-3f;
  options.seed = 11;
  eval::RankingMetrics before =
      eval::EvaluateModel(model, *dataset_, data::Split::kTest, 60, 5);
  model.Train(options);
  eval::RankingMetrics after =
      eval::EvaluateModel(model, *dataset_, data::Split::kTest, 60, 5);
  EXPECT_GT(after.RecallAt(10) + 1e-9, before.RecallAt(10));
  // Trained model must comfortably beat popularity-free random ranking:
  // random Recall@10 over ~120 POIs is ~0.08.
  EXPECT_GT(after.RecallAt(10), 0.12);
}

TEST_F(TspnRaTest, AblationConfigsConstructAndRun) {
  auto samples = dataset_->Samples(data::Split::kTest);
  std::vector<TspnRaConfig> configs;
  {
    TspnRaConfig c = TinyConfig();
    c.use_quadtree = false;
    c.grid_cells_per_side = 6;
    configs.push_back(c);
  }
  {
    TspnRaConfig c = TinyConfig();
    c.use_two_step = false;
    configs.push_back(c);
  }
  {
    TspnRaConfig c = TinyConfig();
    c.use_graph = false;
    configs.push_back(c);
  }
  {
    TspnRaConfig c = TinyConfig();
    c.use_road_edges = false;
    c.use_contain_edges = false;
    configs.push_back(c);
  }
  {
    TspnRaConfig c = TinyConfig();
    c.use_imagery = false;
    configs.push_back(c);
  }
  {
    TspnRaConfig c = TinyConfig();
    c.use_st_encoder = false;
    configs.push_back(c);
  }
  {
    TspnRaConfig c = TinyConfig();
    c.use_category = false;
    configs.push_back(c);
  }
  {
    TspnRaConfig c = TinyConfig();
    c.image_noise_fraction = 0.2;
    configs.push_back(c);
  }
  for (const TspnRaConfig& config : configs) {
    TspnRa model(dataset_, config);
    std::vector<int64_t> ranked = model.Recommend(samples[0], 10);
    EXPECT_FALSE(ranked.empty());
  }
}

TEST_F(TspnRaTest, ShortTrainingRunsOnAblations) {
  // One gradient step on each structurally different ablation to catch
  // autograd wiring bugs.
  eval::TrainOptions options;
  options.epochs = 1;
  options.max_samples_per_epoch = 8;
  for (bool quadtree : {true, false}) {
    for (bool two_step : {true, false}) {
      TspnRaConfig config = TinyConfig();
      config.use_quadtree = quadtree;
      config.grid_cells_per_side = 6;
      config.use_two_step = two_step;
      TspnRa model(dataset_, config);
      model.Train(options);
      EXPECT_FALSE(model.Recommend(dataset_->Samples(data::Split::kTest)[0], 5)
                       .empty());
    }
  }
}

TEST_F(TspnRaTest, ParameterCountPositiveAndStable) {
  TspnRa a(dataset_, TinyConfig());
  TspnRa b(dataset_, TinyConfig());
  EXPECT_GT(a.ParameterCount(), 0);
  EXPECT_EQ(a.ParameterCount(), b.ParameterCount());
  EXPECT_EQ(a.Parameters().size(), b.Parameters().size());
}

TEST_F(TspnRaTest, ScoredV2MatchesV1RankingCachedAndUncached) {
  // The v2 scored response must rank exactly as the v1 id list, and exactly
  // as the uncached reference path; scores agree with the reference to float
  // precision (the cached leaf matrix is re-normalized, an identity up to
  // ulps on the already-unit-norm ET rows).
  TspnRa model(dataset_, TinyConfig());
  eval::TrainOptions options;
  options.epochs = 1;
  options.max_samples_per_epoch = 24;
  model.Train(options);
  auto samples = dataset_->Samples(data::Split::kTest);
  ASSERT_FALSE(samples.empty());
  const size_t count = std::min<size_t>(4, samples.size());
  std::vector<eval::RecommendResponse> cached;
  for (size_t s = 0; s < count; ++s) {
    eval::RecommendRequest request;
    request.sample = samples[s];
    request.top_n = 10;
    eval::RecommendResponse response = model.Recommend(request);
    EXPECT_EQ(response.PoiIds(), model.Recommend(samples[s], 10));
    EXPECT_EQ(response.stages_used, 2);
    EXPECT_GE(response.tiles_screened, TinyConfig().top_k_tiles);
    for (size_t i = 1; i < response.items.size(); ++i) {
      EXPECT_GE(response.items[i - 1].score, response.items[i].score);
    }
    for (const eval::ScoredPoi& item : response.items) {
      EXPECT_GE(item.tile_index, 0);
      EXPECT_LT(item.tile_index, model.NumCandidateTiles());
    }
    cached.push_back(std::move(response));
  }
  for (size_t s = 0; s < count; ++s) {
    eval::RecommendResponse uncached = TspnRaTestPeer::Recommend(
        model, samples[s], 10, TinyConfig().top_k_tiles);
    ASSERT_EQ(uncached.items.size(), cached[s].items.size()) << "sample " << s;
    for (size_t i = 0; i < uncached.items.size(); ++i) {
      EXPECT_EQ(uncached.items[i].poi_id, cached[s].items[i].poi_id)
          << "sample " << s << " rank " << i;
      EXPECT_NEAR(uncached.items[i].score, cached[s].items[i].score, 1e-5)
          << "sample " << s << " rank " << i;
    }
  }
}

TEST_F(TspnRaTest, BatchScoresBitwiseMatchSingleQuery) {
  // The batched GEMM path must reproduce per-query scores bitwise — same
  // accumulation order in the kernel — for plain and constrained requests
  // alike, at several batch sizes.
  TspnRa model(dataset_, TinyConfig());
  eval::TrainOptions options;
  options.epochs = 1;
  options.max_samples_per_epoch = 24;
  model.Train(options);
  auto samples = dataset_->Samples(data::Split::kTest);
  ASSERT_GE(samples.size(), 2u);
  for (size_t batch : {size_t{1}, size_t{3}, size_t{9}}) {
    std::vector<eval::RecommendRequest> requests(batch);
    for (size_t i = 0; i < batch; ++i) {
      requests[i].sample = samples[i % samples.size()];
      requests[i].top_n = 5 + static_cast<int64_t>(i % 3) * 5;  // mixed top_n
      if (i % 2 == 1) {
        requests[i].constraints.geo_center = dataset_->profile().bbox.Center();
        requests[i].constraints.geo_radius_km = 5.0;
        requests[i].constraints.exclude_visited = true;
      }
    }
    std::vector<eval::RecommendResponse> batched =
        model.RecommendBatch(common::Span<eval::RecommendRequest>(requests));
    ASSERT_EQ(batched.size(), batch);
    for (size_t i = 0; i < batch; ++i) {
      eval::RecommendResponse single = model.Recommend(requests[i]);
      ASSERT_EQ(batched[i].items.size(), single.items.size())
          << "batch=" << batch << " query " << i;
      EXPECT_EQ(batched[i].tiles_screened, single.tiles_screened);
      for (size_t r = 0; r < single.items.size(); ++r) {
        EXPECT_EQ(batched[i].items[r].poi_id, single.items[r].poi_id)
            << "batch=" << batch << " query " << i << " rank " << r;
        EXPECT_EQ(batched[i].items[r].score, single.items[r].score)
            << "batch=" << batch << " query " << i << " rank " << r;
        EXPECT_EQ(batched[i].items[r].tile_index, single.items[r].tile_index);
      }
    }
  }
}

TEST_F(TspnRaTest, BatchedEncoderBitwiseMatchesBatchesOfOne) {
  // The packed encoder forward over a batch must reproduce one forward per
  // sample (a batch of one each) bitwise: same POI ids AND same float
  // scores, across batch sizes straddling the GEMM tile boundary, on fresh
  // and trained weights, and with the two-step screen ablated.
  eval::TrainOptions options;
  options.epochs = 1;
  options.max_samples_per_epoch = 24;
  auto samples = dataset_->Samples(data::Split::kTest);
  ASSERT_GE(samples.size(), 2u);
  std::vector<TspnRaConfig> configs;
  configs.push_back(TinyConfig());
  {
    TspnRaConfig c = TinyConfig();
    c.use_two_step = false;
    configs.push_back(c);
  }
  for (bool trained : {false, true}) {
    for (const TspnRaConfig& config : configs) {
      TspnRa model(dataset_, config);
      if (trained) model.Train(options);
      for (size_t batch : {size_t{1}, size_t{4}, size_t{7}}) {
        std::vector<eval::RecommendRequest> requests(batch);
        for (size_t i = 0; i < batch; ++i) {
          requests[i].sample = samples[i % samples.size()];
        }
        std::vector<eval::RecommendResponse> packed =
            model.RecommendBatch(common::Span<eval::RecommendRequest>(requests));
        std::vector<eval::RecommendResponse> serial;
        for (const eval::RecommendRequest& request : requests) {
          common::Span<eval::RecommendRequest> one(&request, 1);
          serial.push_back(model.RecommendBatch(one).front());
        }
        ASSERT_EQ(packed.size(), serial.size());
        for (size_t i = 0; i < batch; ++i) {
          ASSERT_EQ(packed[i].items.size(), serial[i].items.size())
              << "trained=" << trained << " batch=" << batch << " query " << i;
          for (size_t r = 0; r < packed[i].items.size(); ++r) {
            EXPECT_EQ(packed[i].items[r].poi_id, serial[i].items[r].poi_id)
                << "trained=" << trained << " batch=" << batch << " query "
                << i << " rank " << r;
            EXPECT_EQ(packed[i].items[r].score, serial[i].items[r].score)
                << "trained=" << trained << " batch=" << batch << " query "
                << i << " rank " << r;
          }
        }
      }
    }
  }
}

TEST_F(TspnRaTest, ConstrainedQueriesSatisfyPredicatesAndFillTopN) {
  // Filter-before-top-k: every returned POI satisfies the constraints, and
  // the list fills top_n whenever enough allowed candidates exist — the
  // stage-1 screen widens past top_k_tiles as needed.
  TspnRa model(dataset_, TinyConfig());
  eval::TrainOptions options;
  options.epochs = 1;
  options.max_samples_per_epoch = 24;
  model.Train(options);
  auto samples = dataset_->Samples(data::Split::kTest);
  ASSERT_FALSE(samples.empty());

  // Geo fence around the sample's last check-in.
  const data::Trajectory& traj = dataset_->trajectory(samples[0]);
  const geo::GeoPoint center =
      dataset_->poi(traj.checkins[samples[0].prefix_len - 1].poi_id).loc;
  eval::RecommendRequest fenced;
  fenced.sample = samples[0];
  fenced.top_n = 10;
  fenced.constraints.geo_center = center;
  fenced.constraints.geo_radius_km = 4.0;
  int64_t in_fence = 0;
  for (const data::Poi& poi : dataset_->pois()) {
    if (geo::HaversineKm(poi.loc, center) <= 4.0) ++in_fence;
  }
  eval::RecommendResponse fenced_response = model.Recommend(fenced);
  EXPECT_EQ(static_cast<int64_t>(fenced_response.items.size()),
            std::min<int64_t>(10, in_fence));
  for (const eval::ScoredPoi& item : fenced_response.items) {
    EXPECT_LE(geo::HaversineKm(dataset_->poi(item.poi_id).loc, center), 4.0);
  }

  // Category block of the unconstrained winner.
  eval::RecommendRequest blocked;
  blocked.sample = samples[0];
  blocked.top_n = 10;
  const int64_t winner = model.Recommend(samples[0], 1)[0];
  const int32_t blocked_cat = dataset_->poi(winner).category;
  blocked.constraints.blocked_categories = {blocked_cat};
  int64_t allowed = 0;
  for (const data::Poi& poi : dataset_->pois()) {
    if (poi.category != blocked_cat) ++allowed;
  }
  eval::RecommendResponse blocked_response = model.Recommend(blocked);
  EXPECT_EQ(static_cast<int64_t>(blocked_response.items.size()),
            std::min<int64_t>(10, allowed));
  for (const eval::ScoredPoi& item : blocked_response.items) {
    EXPECT_NE(dataset_->poi(item.poi_id).category, blocked_cat);
    EXPECT_NE(item.poi_id, winner);
  }

  // Exclude-visited: nothing from the observed prefix comes back.
  eval::RecommendRequest novel;
  novel.sample = samples[0];
  novel.top_n = 10;
  novel.constraints.exclude_visited = true;
  eval::RecommendResponse novel_response = model.Recommend(novel);
  EXPECT_EQ(novel_response.items.size(), 10u);
  for (const eval::ScoredPoi& item : novel_response.items) {
    for (int32_t i = 0; i < samples[0].prefix_len; ++i) {
      EXPECT_NE(item.poi_id, traj.checkins[static_cast<size_t>(i)].poi_id);
    }
  }

  // Unconstrained v2 == v1 (the constraints must not perturb the default
  // path).
  eval::RecommendRequest plain;
  plain.sample = samples[0];
  plain.top_n = 10;
  EXPECT_EQ(model.Recommend(plain).PoiIds(), model.Recommend(samples[0], 10));
}

TEST_F(TspnRaTest, CheckpointRoundTripPreservesRecommendations) {
  TspnRa a(dataset_, TinyConfig());
  eval::TrainOptions options;
  options.epochs = 1;
  options.max_samples_per_epoch = 32;
  a.Train(options);
  std::string path = ::testing::TempDir() + "/tspn_ckpt.bin";
  a.SaveCheckpoint(path);

  TspnRaConfig other = TinyConfig();
  other.seed = 99;  // different init
  TspnRa b(dataset_, other);
  ASSERT_TRUE(b.LoadCheckpoint(path));
  auto samples = dataset_->Samples(data::Split::kTest);
  for (size_t i = 0; i < std::min<size_t>(3, samples.size()); ++i) {
    EXPECT_EQ(a.Recommend(samples[i], 10), b.Recommend(samples[i], 10));
  }
  // A structurally different model rejects the checkpoint and stays usable.
  TspnRaConfig bigger = TinyConfig();
  bigger.dm = 32;
  TspnRa c(dataset_, bigger);
  EXPECT_FALSE(c.LoadCheckpoint(path));
  EXPECT_FALSE(c.Recommend(samples[0], 5).empty());
}

TEST_F(TspnRaTest, LoadCheckpointAfterServingRebuildsCaches) {
  // A model that has already served (its inference caches are built) must
  // serve the loaded weights after LoadCheckpoint, on the single and the
  // batched entry points alike.
  TspnRa a(dataset_, TinyConfig());
  eval::TrainOptions options;
  options.epochs = 1;
  options.max_samples_per_epoch = 32;
  a.Train(options);
  std::string path = ::testing::TempDir() + "/tspn_ckpt_after_serving.bin";
  a.SaveCheckpoint(path);

  TspnRaConfig other = TinyConfig();
  other.seed = 99;  // different init
  TspnRa b(dataset_, other);
  auto samples = dataset_->Samples(data::Split::kTest);
  ASSERT_FALSE(samples.empty());
  EXPECT_FALSE(b.Recommend(samples[0], 10).empty());  // builds b's caches
  ASSERT_TRUE(b.LoadCheckpoint(path));

  std::vector<eval::RecommendRequest> requests(
      std::min<size_t>(4, samples.size()));
  for (size_t i = 0; i < requests.size(); ++i) requests[i].sample = samples[i];
  std::vector<eval::RecommendResponse> batched =
      b.RecommendBatch(common::Span<eval::RecommendRequest>(requests));
  ASSERT_EQ(batched.size(), requests.size());
  for (size_t i = 0; i < requests.size(); ++i) {
    const eval::RecommendResponse want = a.Recommend(requests[i]);
    const eval::RecommendResponse single = b.Recommend(requests[i]);
    ASSERT_EQ(single.items.size(), want.items.size()) << "query " << i;
    ASSERT_EQ(batched[i].items.size(), want.items.size()) << "query " << i;
    for (size_t r = 0; r < want.items.size(); ++r) {
      EXPECT_EQ(single.items[r].poi_id, want.items[r].poi_id)
          << "query " << i << " rank " << r;
      EXPECT_EQ(single.items[r].score, want.items[r].score)
          << "query " << i << " rank " << r;
      EXPECT_EQ(batched[i].items[r].poi_id, want.items[r].poi_id)
          << "query " << i << " rank " << r;
      EXPECT_EQ(batched[i].items[r].score, want.items[r].score)
          << "query " << i << " rank " << r;
    }
  }
}

TEST(RankingMetricsTest, FormulasMatchHandComputation) {
  eval::RankingMetrics metrics;
  // Target at rank 3.
  metrics.Add({10, 20, 30, 40, 50}, 30);
  EXPECT_NEAR(metrics.RecallAt(5), 1.0, 1e-9);
  EXPECT_NEAR(metrics.NdcgAt(5), 1.0 / std::log2(4.0), 1e-9);
  EXPECT_NEAR(metrics.Mrr(), 1.0 / 3.0, 1e-9);
  // A miss halves everything.
  metrics.Add({1, 2, 3}, 99);
  EXPECT_NEAR(metrics.RecallAt(5), 0.5, 1e-9);
  EXPECT_NEAR(metrics.Mrr(), 1.0 / 6.0, 1e-9);
}

TEST(RankingMetricsTest, CutoffBoundaries) {
  eval::RankingMetrics metrics;
  std::vector<int64_t> ranked(20);
  for (int i = 0; i < 20; ++i) ranked[static_cast<size_t>(i)] = i;
  metrics.Add(ranked, 5);  // rank 6: outside top-5, inside top-10
  EXPECT_EQ(metrics.RecallAt(5), 0.0);
  EXPECT_EQ(metrics.RecallAt(10), 1.0);
  EXPECT_EQ(metrics.RecallAt(20), 1.0);
}

TEST(RankingMetricsTest, MergeAccumulates) {
  eval::RankingMetrics a, b;
  a.Add({1, 2}, 1);
  b.Add({1, 2}, 9);
  a.Merge(b);
  EXPECT_EQ(a.count(), 2);
  EXPECT_NEAR(a.RecallAt(5), 0.5, 1e-9);
}

}  // namespace
}  // namespace tspn::core
