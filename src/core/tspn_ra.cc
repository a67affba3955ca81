#include "core/tspn_ra.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "common/top_k.h"
#include "core/tspn_ra_internal.h"
#include "eval/constraints.h"
#include "nn/kernels.h"
#include "nn/ops.h"
#include "nn/serialize.h"

namespace tspn::core {

TspnRa::TspnRa(std::shared_ptr<const data::CityDataset> dataset, TspnRaConfig config)
    : dataset_(std::move(dataset)), config_(config) {
  TSPN_CHECK(dataset_ != nullptr);
  TSPN_CHECK_EQ(config_.dm % 4, 0);

  if (config_.use_quadtree) {
    const spatial::QuadTree& tree = dataset_->quadtree();
    num_tile_ids_ = tree.NumNodes();
    leaf_tile_ids_ = tree.LeafNodes();
  } else {
    grid_ = std::make_unique<spatial::GridIndex>(dataset_->profile().bbox,
                                                 config_.grid_cells_per_side);
    grid_adjacency_ = std::make_unique<roadnet::TileAdjacency>(
        roadnet::TileAdjacency::Build(dataset_->roads(), *grid_));
    num_tile_ids_ = grid_->NumTiles();
    leaf_tile_ids_.resize(static_cast<size_t>(num_tile_ids_));
    for (int64_t i = 0; i < num_tile_ids_; ++i) {
      leaf_tile_ids_[static_cast<size_t>(i)] = static_cast<int32_t>(i);
    }
  }

  BuildImageCache();
  BuildTilePoiLists();

  common::Rng rng(config_.seed);
  net_ = std::make_unique<Net>(config_, num_tile_ids_,
                               static_cast<int64_t>(dataset_->pois().size()),
                               dataset_->profile().num_categories, rng);
}

TspnRa::~TspnRa() = default;

void TspnRa::BuildImageCache() {
  if (!config_.use_imagery) return;
  // Imagery is a property of the simulated world, not of the model: seed the
  // renderer from the dataset profile so differently-seeded models see the
  // same ground truth.
  rs::ImageSynthesizer synthesizer(
      &dataset_->layout(), &dataset_->roads(),
      {.resolution = config_.image_resolution,
       .world_seed = dataset_->profile().seed});
  common::Rng noise_rng(config_.seed ^ 0x401EULL);
  std::vector<rs::Image> images;
  images.reserve(static_cast<size_t>(num_tile_ids_));
  for (int64_t id = 0; id < num_tile_ids_; ++id) {
    geo::BoundingBox bounds =
        config_.use_quadtree ? dataset_->quadtree().node(id).bounds
                             : grid_->TileBounds(id);
    rs::Image image = synthesizer.RenderTile(bounds);
    if (config_.image_noise_fraction > 0.0) {
      rs::AddPixelNoise(image, config_.image_noise_fraction, noise_rng);
    }
    images.push_back(std::move(image));
  }
  tile_images_ = PackImages(images);
}

void TspnRa::BuildTilePoiLists() {
  tile_pois_.assign(leaf_tile_ids_.size(), {});
  poi_tile_.assign(dataset_->pois().size(), 0);
  for (const data::Poi& poi : dataset_->pois()) {
    int64_t candidate;
    if (config_.use_quadtree) {
      candidate = dataset_->quadtree().LeafIndexOf(dataset_->LeafNodeOfPoi(poi.id));
    } else {
      candidate = grid_->TileOf(poi.loc);
    }
    tile_pois_[static_cast<size_t>(candidate)].push_back(poi.id);
    poi_tile_[static_cast<size_t>(poi.id)] = candidate;
  }
}

nn::Tensor TspnRa::TileCosinesFrom(const nn::Tensor& et,
                                   const nn::Tensor& h_tile) const {
  std::vector<int64_t> leaf_rows(leaf_tile_ids_.begin(), leaf_tile_ids_.end());
  nn::Tensor leaf_embeddings = nn::EmbeddingGather(et, leaf_rows);
  return nn::MatVec(leaf_embeddings, nn::L2Normalize(h_tile));
}

int64_t TspnRa::CandidateTileOfPoi(int64_t poi_id) const {
  return poi_tile_[static_cast<size_t>(poi_id)];
}

const graph::QrpGraph* TspnRa::HistoryGraph(int32_t user, int32_t traj) const {
  // Full-width packing: the old (user << 20 | traj) key silently collided
  // once traj reached 2^20.
  TSPN_CHECK_GE(user, 0);
  TSPN_CHECK_GE(traj, 0);
  int64_t key = (static_cast<int64_t>(user) << 32) |
                static_cast<int64_t>(static_cast<uint32_t>(traj));
  {
    std::lock_guard<std::mutex> lock(graph_mutex_);
    auto it = graph_cache_.find(key);
    if (it != graph_cache_.end()) return &it->second;
  }
  // Build outside the lock: graph construction is the expensive part, and
  // two workers racing on the same key merely duplicate work — emplace below
  // keeps the first copy. unordered_map nodes are pointer-stable, so the
  // returned pointer survives later inserts.
  std::vector<int64_t> history = dataset_->HistoryPoiIds(user, traj);
  if (static_cast<int64_t>(history.size()) > config_.max_history_checkins) {
    history.erase(history.begin(),
                  history.end() - config_.max_history_checkins);
  }
  graph::QrpGraph graph;
  if (config_.use_quadtree) {
    graph = graph::BuildQrpGraph(dataset_->quadtree(), dataset_->leaf_adjacency(),
                                 dataset_->pois(), history);
  } else {
    graph = graph::BuildQrpGraphFromGrid(*grid_, *grid_adjacency_,
                                         dataset_->pois(), history);
  }
  std::lock_guard<std::mutex> lock(graph_mutex_);
  auto [inserted, unused] = graph_cache_.emplace(key, std::move(graph));
  return &inserted->second;
}

TspnRa::Features TspnRa::ExtractFeatures(const data::SampleRef& sample) const {
  const data::Trajectory& traj = dataset_->trajectory(sample);
  Features f;
  int64_t start = std::max<int64_t>(0, sample.prefix_len - config_.max_seq_len);
  for (int64_t i = start; i < sample.prefix_len; ++i) {
    const data::Checkin& c = traj.checkins[static_cast<size_t>(i)];
    const data::Poi& poi = dataset_->poi(c.poi_id);
    f.poi_ids.push_back(c.poi_id);
    f.poi_cats.push_back(poi.category);
    f.time_slots.push_back(data::TimeSlotOf(c.timestamp));
    if (config_.use_quadtree) {
      f.tile_rows.push_back(dataset_->LeafNodeOfPoi(c.poi_id));
    } else {
      f.tile_rows.push_back(grid_->TileOf(poi.loc));
    }
    double x, y;
    dataset_->profile().bbox.Normalize(poi.loc, &x, &y);
    f.norm_x.push_back(x);
    f.norm_y.push_back(y);
  }
  if (config_.use_graph) {
    f.history_graph = HistoryGraph(sample.user, sample.traj);
  }
  const data::Checkin& target = dataset_->Target(sample);
  f.target_poi = target.poi_id;
  const data::Poi& target_poi = dataset_->poi(target.poi_id);
  if (config_.use_quadtree) {
    f.target_tile_index =
        dataset_->quadtree().LeafIndexOf(dataset_->LeafNodeOfPoi(target.poi_id));
  } else {
    f.target_tile_index = grid_->TileOf(target_poi.loc);
  }
  return f;
}

bool TspnRa::FeaturesFromCheckins(common::Span<const data::Checkin> history,
                                  const data::Checkin& target,
                                  Features* out) const {
  const int64_t num_pois = static_cast<int64_t>(dataset_->pois().size());
  if (history.empty()) return false;
  if (target.poi_id < 0 || target.poi_id >= num_pois) return false;
  for (const data::Checkin& c : history) {
    if (c.poi_id < 0 || c.poi_id >= num_pois) return false;
  }
  Features f;
  size_t start = history.size() > static_cast<size_t>(config_.max_seq_len)
                     ? history.size() - static_cast<size_t>(config_.max_seq_len)
                     : 0;
  for (size_t i = start; i < history.size(); ++i) {
    const data::Checkin& c = history[i];
    const data::Poi& poi = dataset_->poi(c.poi_id);
    f.poi_ids.push_back(c.poi_id);
    f.poi_cats.push_back(poi.category);
    f.time_slots.push_back(data::TimeSlotOf(c.timestamp));
    if (config_.use_quadtree) {
      f.tile_rows.push_back(dataset_->LeafNodeOfPoi(c.poi_id));
    } else {
      f.tile_rows.push_back(grid_->TileOf(poi.loc));
    }
    double x, y;
    dataset_->profile().bbox.Normalize(poi.loc, &x, &y);
    f.norm_x.push_back(x);
    f.norm_y.push_back(y);
  }
  // No history graph: streamed prefixes carry no trajectory identity to key
  // the QR-P cache on, so the online loss runs graph-free (Forward already
  // handles a null graph via the learned null-history embeddings).
  f.history_graph = nullptr;
  f.target_poi = target.poi_id;
  const data::Poi& target_poi = dataset_->poi(target.poi_id);
  if (config_.use_quadtree) {
    f.target_tile_index =
        dataset_->quadtree().LeafIndexOf(dataset_->LeafNodeOfPoi(target.poi_id));
  } else {
    f.target_tile_index = grid_->TileOf(target_poi.loc);
  }
  *out = std::move(f);
  return true;
}

nn::Tensor TspnRa::ComputeTileEmbeddings() const {
  return net_->tile_encoder.EncodeAll(tile_images_);
}

TspnRa::ForwardOut TspnRa::Forward(const Features& f, const nn::Tensor& et,
                                   common::Rng& rng) const {
  ForwardOut out = ForwardBatch(common::Span<Features>(&f, 1), et, rng);
  out.h_tile = nn::Reshape(out.h_tile, {config_.dm});
  out.h_poi = nn::Reshape(out.h_poi, {config_.dm});
  return out;
}

TspnRa::HistoryPack TspnRa::EncodeHistories(common::Span<Features> features,
                                            const nn::Tensor& et) const {
  auto has_graph = [this](const Features& f) {
    return config_.use_graph && f.history_graph != nullptr &&
           !f.history_graph->empty();
  };
  std::vector<const graph::QrpGraph*> graphs;
  std::vector<int64_t> tile_rows, poi_ids, poi_cats;
  for (const Features& f : features) {
    if (!has_graph(f)) continue;
    const graph::QrpGraph& g = *f.history_graph;
    graphs.push_back(&g);
    tile_rows.insert(tile_rows.end(), g.tile_ids.begin(), g.tile_ids.end());
    for (int64_t pid : g.poi_ids) {
      poi_ids.push_back(pid);
      poi_cats.push_back(dataset_->poi(pid).category);
    }
  }
  QrpEncoder::Output knowledge;
  if (!graphs.empty()) {
    knowledge = net_->qrp.Encode(graphs, nn::EmbeddingGather(et, tile_rows),
                                 net_->poi_encoder.Encode(poi_ids, poi_cats));
  }
  HistoryPack out;
  out.tile_offsets.assign(features.size() + 1, 0);
  out.poi_offsets.assign(features.size() + 1, 0);
  for (size_t b = 0; b < features.size(); ++b) {
    const graph::QrpGraph* g = features[b].history_graph;
    const bool encoded = has_graph(features[b]);
    out.tile_offsets[b + 1] =
        out.tile_offsets[b] + (encoded ? g->NumTileNodes() : 1);
    out.poi_offsets[b + 1] =
        out.poi_offsets[b] + (encoded ? g->NumPoiNodes() : 1);
  }
  if (graphs.size() == features.size()) {
    out.tile = knowledge.tile_knowledge;
    out.poi = knowledge.poi_knowledge;
    return out;
  }
  // Some samples have no graph: interleave their null-history rows.
  std::vector<nn::Tensor> tile_parts, poi_parts;
  int64_t tile_row = 0, poi_row = 0;  // next unread rows of `knowledge`
  for (const Features& f : features) {
    if (!has_graph(f)) {
      tile_parts.push_back(net_->null_tile_history);
      poi_parts.push_back(net_->null_poi_history);
      continue;
    }
    const int64_t tiles = f.history_graph->NumTileNodes();
    const int64_t pois = f.history_graph->NumPoiNodes();
    tile_parts.push_back(nn::SliceRows(knowledge.tile_knowledge, tile_row, tiles));
    poi_parts.push_back(nn::SliceRows(knowledge.poi_knowledge, poi_row, pois));
    tile_row += tiles;
    poi_row += pois;
  }
  out.tile = tile_parts.size() == 1 ? tile_parts[0] : nn::ConcatRows(tile_parts);
  out.poi = poi_parts.size() == 1 ? poi_parts[0] : nn::ConcatRows(poi_parts);
  return out;
}

TspnRa::ForwardOut TspnRa::ForwardBatch(common::Span<Features> features,
                                        const nn::Tensor& et,
                                        common::Rng& rng) const {
  TSPN_CHECK(!features.empty());
  const size_t batch = features.size();
  // Concatenate every sample's prefix sequence row-wise; `offsets` keeps the
  // segment boundaries for the stages that must not cross samples.
  std::vector<int64_t> offsets(batch + 1, 0);
  std::vector<int64_t> all_tile_rows, all_poi_ids, all_poi_cats, all_slots;
  std::vector<double> all_x, all_y;
  for (size_t b = 0; b < batch; ++b) {
    const Features& f = features[b];
    TSPN_CHECK(!f.poi_ids.empty());
    offsets[b + 1] = offsets[b] + static_cast<int64_t>(f.poi_ids.size());
    all_tile_rows.insert(all_tile_rows.end(), f.tile_rows.begin(),
                         f.tile_rows.end());
    all_poi_ids.insert(all_poi_ids.end(), f.poi_ids.begin(), f.poi_ids.end());
    all_poi_cats.insert(all_poi_cats.end(), f.poi_cats.begin(),
                        f.poi_cats.end());
    all_slots.insert(all_slots.end(), f.time_slots.begin(), f.time_slots.end());
    all_x.insert(all_x.end(), f.norm_x.begin(), f.norm_x.end());
    all_y.insert(all_y.end(), f.norm_y.begin(), f.norm_y.end());
  }
  // The sequence embeddings (Secs. IV-A/IV-B) are row-wise gathers, adds and
  // scales, so the whole pack goes through them in one call each — bitwise
  // equal per row to the per-sample path.
  nn::Tensor tile_seq = nn::EmbeddingGather(et, all_tile_rows);
  if (config_.use_st_encoder) {
    std::vector<nn::Tensor> locs;
    locs.reserve(all_x.size());
    for (size_t i = 0; i < all_x.size(); ++i) {
      locs.push_back(SpatialEncoding(all_x[i], all_y[i], config_.dm,
                                     config_.spatial_scale));
    }
    // The raw sinusoidal encoding has norm sqrt(dm/2); rescale to unit norm
    // so it augments rather than drowns the unit-norm tile embeddings.
    float loc_scale = std::sqrt(2.0f / static_cast<float>(config_.dm));
    tile_seq = nn::Add(tile_seq, nn::MulScalar(nn::StackRows(locs), loc_scale));
    tile_seq = nn::Add(tile_seq, net_->temporal.SlotEmbeddings(all_slots));
  }
  nn::Tensor poi_seq = net_->poi_encoder.Encode(all_poi_ids, all_poi_cats);
  if (config_.use_st_encoder) {
    poi_seq = nn::Add(poi_seq, net_->temporal.SlotEmbeddings(all_slots));
  }
  // Historical knowledge (Sec. IV-C): all history graphs of the batch go
  // through one packed QR-P encode, already packed row-wise per sample for
  // the fusion stage.
  HistoryPack history = EncodeHistories(features, et);
  // Attention fusion (Sec. V-A) over the pack: projections, norms and
  // feed-forward as single GEMMs, one segment-attention node per layer.
  ForwardOut out;
  out.h_tile = net_->mp1.Forward(tile_seq, offsets, history.tile,
                                 history.tile_offsets, rng);
  out.h_poi = net_->mp2.Forward(poi_seq, offsets, history.poi,
                                history.poi_offsets, rng);
  return out;
}

std::vector<int64_t> TspnRa::GatherCandidates(
    const std::vector<int64_t>& ranked_tiles, int32_t top_k) const {
  std::vector<int64_t> candidates;
  int64_t limit = std::min<int64_t>(top_k, static_cast<int64_t>(ranked_tiles.size()));
  for (int64_t i = 0; i < limit; ++i) {
    const auto& pois = tile_pois_[static_cast<size_t>(ranked_tiles[static_cast<size_t>(i)])];
    candidates.insert(candidates.end(), pois.begin(), pois.end());
  }
  return candidates;
}

nn::Tensor TspnRa::SampleLoss(const data::SampleRef& sample, const nn::Tensor& et,
                              common::Rng& rng) const {
  return LossFromFeatures(ExtractFeatures(sample), et, rng);
}

nn::Tensor TspnRa::LossFromFeatures(const Features& f, const nn::Tensor& et,
                                    common::Rng& rng) const {
  ForwardOut fwd = Forward(f, et, rng);

  nn::Tensor loss = nn::Tensor::Scalar(0.0f);
  std::vector<int64_t> candidate_pois;
  nn::Tensor tile_cos_for_prior;

  if (config_.use_two_step) {
    // --- Step 1: tile ranking loss over all leaf candidates ------------------
    nn::Tensor cos_tiles = TileCosinesFrom(et, fwd.h_tile);
    nn::Tensor tile_logits =
        nn::ArcFaceLogits(cos_tiles, f.target_tile_index, config_.arcface_scale,
                          config_.arcface_margin);
    nn::Tensor tile_loss =
        nn::CrossEntropyWithLogits(tile_logits, f.target_tile_index);
    loss = nn::Add(loss, nn::MulScalar(tile_loss, config_.beta));

    // --- Step 2 candidates: POIs in the current top-K tiles (the tile
    // selector acting as negative-sample generator, Sec. V-B). Only the
    // top-K prefix is consumed, so partial selection suffices. ---------------
    std::vector<int64_t> order = common::TopKIndices(
        cos_tiles.data(), static_cast<int64_t>(leaf_tile_ids_.size()),
        config_.top_k_tiles);
    candidate_pois = GatherCandidates(order, config_.top_k_tiles);
    // Global random negatives keep never-screened POI embeddings trained
    // (see TspnRaConfig::num_random_negatives).
    int64_t num_pois = static_cast<int64_t>(dataset_->pois().size());
    for (int64_t i = 0; i < config_.num_random_negatives; ++i) {
      candidate_pois.push_back(rng.UniformInt(num_pois));
    }
    tile_cos_for_prior = cos_tiles;
  } else {
    // No-two-step ablation: sample negatives from the full POI set.
    int64_t num_pois = static_cast<int64_t>(dataset_->pois().size());
    for (int64_t i = 0;
         i < std::min<int64_t>(config_.max_poi_candidates, num_pois); ++i) {
      candidate_pois.push_back(rng.UniformInt(num_pois));
    }
  }

  // Ensure the target is present, dedupe, and cap.
  std::sort(candidate_pois.begin(), candidate_pois.end());
  candidate_pois.erase(std::unique(candidate_pois.begin(), candidate_pois.end()),
                       candidate_pois.end());
  if (static_cast<int64_t>(candidate_pois.size()) > config_.max_poi_candidates) {
    rng.Shuffle(candidate_pois);
    candidate_pois.resize(static_cast<size_t>(config_.max_poi_candidates));
    std::sort(candidate_pois.begin(), candidate_pois.end());
  }
  auto it = std::lower_bound(candidate_pois.begin(), candidate_pois.end(),
                             f.target_poi);
  if (it == candidate_pois.end() || *it != f.target_poi) {
    candidate_pois.insert(it, f.target_poi);
  }
  int64_t target_pos =
      std::lower_bound(candidate_pois.begin(), candidate_pois.end(), f.target_poi) -
      candidate_pois.begin();

  std::vector<int64_t> cats;
  cats.reserve(candidate_pois.size());
  for (int64_t pid : candidate_pois) cats.push_back(dataset_->poi(pid).category);
  nn::Tensor cand_embeddings =
      nn::L2Normalize(net_->poi_encoder.Encode(candidate_pois, cats));
  nn::Tensor cos_pois = nn::MatVec(cand_embeddings, nn::L2Normalize(fwd.h_poi));
  nn::Tensor poi_logits = nn::ArcFaceLogits(
      cos_pois, target_pos, config_.arcface_scale, config_.arcface_margin);
  if (config_.use_two_step) {
    // Hierarchical score fusion: each candidate also carries its tile's
    // stage-1 cosine, weighted by the learnable gamma. This couples the two
    // steps so spatial plausibility keeps discriminating within the
    // screened candidate set.
    const nn::Tensor& leaf_cos = tile_cos_for_prior;
    std::vector<int64_t> cand_tiles;
    cand_tiles.reserve(candidate_pois.size());
    for (int64_t pid : candidate_pois) {
      cand_tiles.push_back(CandidateTileOfPoi(pid));
    }
    nn::Tensor prior = nn::Reshape(
        nn::EmbeddingGather(nn::Reshape(leaf_cos, {NumCandidateTiles(), 1}),
                            cand_tiles),
        {static_cast<int64_t>(cand_tiles.size())});
    poi_logits = nn::Add(
        poi_logits, nn::Mul(nn::MulScalar(net_->tile_prior_weight,
                                          config_.arcface_scale),
                            prior));
  }
  nn::Tensor poi_loss = nn::CrossEntropyWithLogits(poi_logits, target_pos);
  return nn::Add(loss, poi_loss);
}

void TspnRa::EnsureInferenceCaches() const {
  // Double-checked build so concurrent Recommend calls from the serving
  // workers are safe: the fast path is one acquire load, the build runs once
  // under the mutex, and the release store publishes the cache tensors.
  if (caches_built_.load(std::memory_order_acquire)) return;
  std::lock_guard<std::mutex> lock(cache_mutex_);
  if (caches_built_.load(std::memory_order_relaxed)) return;
  // Inference is always deterministic: dropout off regardless of whether the
  // model was ever trained.
  net_->SetTraining(false);
  nn::NoGradGuard guard;
  et_cache_ = ComputeTileEmbeddings();
  // Gather + normalize the leaf-tile matrix once so every query is a single
  // GEMM row against it, instead of re-running EmbeddingGather + L2Normalize.
  std::vector<int64_t> leaf_rows(leaf_tile_ids_.begin(), leaf_tile_ids_.end());
  leaf_et_cache_ = nn::L2Normalize(nn::EmbeddingGather(et_cache_, leaf_rows));
  // Same for the POI side: encode + normalize every POI once. Row i is
  // bitwise identical to L2Normalize(Encode({i}, ...)), so results don't
  // change.
  const int64_t num_pois = static_cast<int64_t>(dataset_->pois().size());
  std::vector<int64_t> all_pois(static_cast<size_t>(num_pois));
  std::vector<int64_t> all_cats(static_cast<size_t>(num_pois));
  for (int64_t i = 0; i < num_pois; ++i) {
    all_pois[static_cast<size_t>(i)] = i;
    all_cats[static_cast<size_t>(i)] = dataset_->poi(i).category;
  }
  poi_et_cache_ = nn::L2Normalize(net_->poi_encoder.Encode(all_pois, all_cats));
  caches_built_.store(true, std::memory_order_release);
}

std::vector<int64_t> TspnRa::RankTiles(const data::SampleRef& sample) const {
  return RankTilesTopK(sample, static_cast<int64_t>(leaf_tile_ids_.size()));
}

std::vector<int64_t> TspnRa::RankTilesTopK(const data::SampleRef& sample,
                                           int64_t k) const {
  EnsureInferenceCaches();
  nn::NoGradGuard guard;
  // Dropout is off at inference, so the rng is never consumed; a local one
  // (rather than a shared mutable member) keeps const paths race-free.
  common::Rng rng(config_.seed ^ 0xD00DULL);
  Features f = ExtractFeatures(sample);
  ForwardOut fwd = Forward(f, et_cache_, rng);
  nn::Tensor cos_tiles =
      nn::MatVec(leaf_et_cache_, nn::L2Normalize(fwd.h_tile));
  return common::TopKIndices(cos_tiles.data(),
                             static_cast<int64_t>(leaf_tile_ids_.size()), k);
}

int64_t TspnRa::TargetTileIndex(const data::SampleRef& sample) const {
  const data::Checkin& target = dataset_->Target(sample);
  if (config_.use_quadtree) {
    return dataset_->quadtree().LeafIndexOf(dataset_->LeafNodeOfPoi(target.poi_id));
  }
  return grid_->TileOf(dataset_->poi(target.poi_id).loc);
}

int64_t TspnRa::CandidatePoiCount(const data::SampleRef& sample,
                                  int32_t top_k) const {
  std::vector<int64_t> ranked = RankTilesTopK(sample, top_k);
  return static_cast<int64_t>(GatherCandidates(ranked, top_k).size());
}

geo::BoundingBox TspnRa::CandidateTileBounds(int64_t candidate) const {
  if (config_.use_quadtree) {
    return dataset_->quadtree()
        .node(leaf_tile_ids_[static_cast<size_t>(candidate)])
        .bounds;
  }
  return grid_->TileBounds(candidate);
}

std::vector<int64_t> TspnRa::GatherAllowedCandidates(
    const float* cos_tiles, int32_t top_k, int64_t required,
    const eval::ConstraintEvaluator* filter, int64_t max_tiles,
    int64_t* tiles_screened) const {
  const int64_t num_tiles = static_cast<int64_t>(leaf_tile_ids_.size());
  // The degraded-mode cap bounds the whole screen, initial top_k included:
  // under overload the gateway would rather serve a shallower candidate
  // pool than let constraint widening walk every tile in the city.
  const int64_t tile_cap =
      max_tiles > 0 ? std::min<int64_t>(max_tiles, num_tiles) : num_tiles;
  std::vector<int64_t> candidates;
  // Gathers tiles order[consumed, limit) into `candidates`, through the
  // constraint filter when one is active.
  auto gather = [&](const std::vector<int64_t>& order, int64_t consumed,
                    int64_t limit) {
    for (int64_t i = consumed; i < limit; ++i) {
      const int64_t tile = order[static_cast<size_t>(i)];
      if (filter != nullptr &&
          !filter->BoundsMayIntersectFence(CandidateTileBounds(tile))) {
        continue;  // the whole tile lies outside the geo fence
      }
      for (int64_t pid : tile_pois_[static_cast<size_t>(tile)]) {
        if (filter == nullptr || filter->Allows(pid)) candidates.push_back(pid);
      }
    }
  };
  // Constraints are applied before top-k selection, so the screen must keep
  // widening until the allowed pool can fill the request (required = top_n)
  // — not merely until it is non-empty as in the unconstrained case
  // (required = 1, the exact v1 behavior). Widening is incremental: the
  // (score desc, index asc) tile order is a fixed total order, so top-2k's
  // prefix equals top-k and only the newly admitted tiles need gathering;
  // the first widening switches to the full ranking once instead of
  // re-selecting per round. The initial screen is common::TopKIndices' one
  // pass over the cosines: almost every tile costs one compare against the
  // bar of the best top_k seen so far, and no per-tile index array is built.
  int64_t widened = std::min<int64_t>(top_k, tile_cap);
  std::vector<int64_t> order = common::TopKIndices(cos_tiles, num_tiles, top_k);
  int64_t consumed = widened;
  gather(order, 0, consumed);
  while (static_cast<int64_t>(candidates.size()) < required &&
         widened < tile_cap) {
    widened *= 2;
    if (static_cast<int64_t>(order.size()) < num_tiles) {
      order = common::TopKIndices(cos_tiles, num_tiles, num_tiles);
    }
    const int64_t limit = std::min<int64_t>(widened, tile_cap);
    gather(order, consumed, limit);
    consumed = limit;
  }
  if (tiles_screened != nullptr) {
    *tiles_screened = std::min<int64_t>(widened, tile_cap);
  }
  return candidates;
}

std::vector<int64_t> TspnRa::AllAllowedPois(
    const eval::ConstraintEvaluator* filter) const {
  const int64_t num_pois = static_cast<int64_t>(dataset_->pois().size());
  std::vector<int64_t> candidates;
  candidates.reserve(static_cast<size_t>(num_pois));
  for (int64_t id = 0; id < num_pois; ++id) {
    if (filter == nullptr || filter->Allows(id)) candidates.push_back(id);
  }
  return candidates;
}

void TspnRa::FillRankedItems(const std::vector<int64_t>& candidates,
                             const float* scores, int64_t top_n,
                             eval::RecommendResponse* response) const {
  std::vector<int64_t> order = common::TopKIndices(
      scores, static_cast<int64_t>(candidates.size()), top_n);
  response->items.reserve(order.size());
  for (int64_t idx : order) {
    const int64_t poi = candidates[static_cast<size_t>(idx)];
    response->items.push_back(
        {poi, scores[static_cast<size_t>(idx)],
         config_.use_two_step ? CandidateTileOfPoi(poi) : int64_t{-1}});
  }
}

std::vector<eval::RecommendResponse> TspnRa::ScoreBatch(
    common::Span<eval::RecommendRequest> requests, int32_t top_k) const {
  const int64_t batch = static_cast<int64_t>(requests.size());
  if (batch == 0) return {};
  EnsureInferenceCaches();
  nn::NoGradGuard guard;
  const int64_t dm = config_.dm;
  const int64_t num_tiles = static_cast<int64_t>(leaf_tile_ids_.size());
  const int64_t num_pois = static_cast<int64_t>(dataset_->pois().size());

  // One packed encoder forward for the whole batch: the query sequences
  // ride a single [total_len, dm] tensor through the projections, norms,
  // feed-forwards and the history graphs' QR-P encode, with attention kept
  // inside each segment. Row b depends on request b alone.
  std::vector<Features> features;
  features.reserve(static_cast<size_t>(batch));
  for (const eval::RecommendRequest& request : requests) {
    features.push_back(ExtractFeatures(request.sample));
  }
  common::Rng rng(config_.seed ^ 0xD00DULL);  // dropout is off: never drawn
  ForwardOut fwd = ForwardBatch(features, et_cache_, rng);
  nn::Tensor h_tiles = nn::L2Normalize(fwd.h_tile);
  nn::Tensor h_pois = nn::L2Normalize(fwd.h_poi);

  // Then one GEMM per prediction stage against the cached normalized tile
  // and POI matrices. Constraints and top_n apply per request, after the
  // shared GEMMs.
  std::vector<float> cos_tiles;
  if (config_.use_two_step) {
    cos_tiles.resize(static_cast<size_t>(batch * num_tiles));
    nn::kernels::DotProductGemm(h_tiles.data(), leaf_et_cache_.data(),
                                cos_tiles.data(), batch, num_tiles, dm,
                                /*accumulate=*/false);
  }
  std::vector<float> cos_pois(static_cast<size_t>(batch * num_pois));
  nn::kernels::DotProductGemm(h_pois.data(), poi_et_cache_.data(),
                              cos_pois.data(), batch, num_pois, dm,
                              /*accumulate=*/false);

  const float gamma = net_->tile_prior_weight.at(0);
  std::vector<eval::RecommendResponse> responses(static_cast<size_t>(batch));
  for (int64_t b = 0; b < batch; ++b) {
    const eval::RecommendRequest& request = requests[static_cast<size_t>(b)];
    eval::RecommendResponse& response = responses[static_cast<size_t>(b)];
    std::unique_ptr<eval::ConstraintEvaluator> filter =
        eval::MakeConstraintFilter(*dataset_, request);
    std::vector<int64_t> candidates;
    const float* tc = nullptr;
    if (config_.use_two_step) {
      response.stages_used = 2;
      tc = cos_tiles.data() + b * num_tiles;
      const int64_t required = filter != nullptr ? request.top_n : 1;
      candidates = GatherAllowedCandidates(tc, top_k, required, filter.get(),
                                           request.max_tiles_screened,
                                           &response.tiles_screened);
    } else {
      response.stages_used = 1;
      candidates = AllAllowedPois(filter.get());
    }
    if (candidates.empty()) continue;

    // Hierarchical score fusion, as in training: the stage-1 tile cosine is
    // a gamma-weighted prior on each candidate.
    const float* pc = cos_pois.data() + b * num_pois;
    std::vector<float> fused(candidates.size());
    for (size_t i = 0; i < candidates.size(); ++i) {
      fused[i] = tc != nullptr
                     ? pc[candidates[i]] +
                           gamma * tc[CandidateTileOfPoi(candidates[i])]
                     : pc[candidates[i]];
    }
    FillRankedItems(candidates, fused.data(), request.top_n, &response);
  }
  return responses;
}

std::vector<int64_t> TspnRa::RecommendWithK(const data::SampleRef& sample,
                                            int64_t top_n, int32_t top_k) const {
  eval::RecommendRequest request;
  request.sample = sample;
  request.top_n = top_n;
  return ScoreBatch(common::Span<eval::RecommendRequest>(&request, 1), top_k)
      .front()
      .PoiIds();
}

eval::RecommendResponse TspnRa::RecommendImpl(
    const eval::RecommendRequest& request) const {
  return ScoreBatch(common::Span<eval::RecommendRequest>(&request, 1),
                    config_.top_k_tiles)
      .front();
}

std::vector<eval::RecommendResponse> TspnRa::RecommendBatchImpl(
    common::Span<eval::RecommendRequest> requests) const {
  return ScoreBatch(requests, config_.top_k_tiles);
}

int64_t TspnRa::ParameterCount() const { return net_->ParameterCount(); }

std::vector<nn::Tensor> TspnRa::Parameters() const { return net_->Parameters(); }

void TspnRa::SaveState(std::ostream& out) const {
  nn::SaveParameters(net_->Parameters(), out);
}

bool TspnRa::LoadState(std::istream& in) {
  // Atomic load: a corrupted payload must leave the live weights (and the
  // inference caches built from them) untouched.
  std::vector<nn::Tensor> params = net_->Parameters();
  if (!nn::LoadParametersAtomic(params, in)) return false;
  caches_built_.store(false);  // ET must be recomputed from the loaded weights
  return true;
}

}  // namespace tspn::core
