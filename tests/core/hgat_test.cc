#include "core/hgat.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "nn/ops.h"
#include "tests/nn/grad_check.h"

namespace tspn::core {
namespace {

using nn::testing::CheckGradParity;
using nn::testing::CheckTensorsNear;

graph::QrpGraph TinyGraph() {
  // Tiles 0,1,2 (0 is parent of 1,2; 1-2 road-connected), POIs 3,4
  // contained in tiles 1 and 2.
  graph::QrpGraph g;
  g.tile_ids = {10, 11, 12};
  g.poi_ids = {100, 200};
  g.branch_edges = {{0, 1}, {0, 2}};
  g.road_edges = {{1, 2}};
  g.contain_edges = {{1, 3}, {2, 4}};
  return g;
}

QrpNeighbors ListsOf(const graph::QrpGraph& g, bool use_road_edges = true,
                     bool use_contain_edges = true) {
  std::vector<const graph::QrpGraph*> one = {&g};
  return BuildNeighborLists(one, use_road_edges, use_contain_edges);
}

/// Neighbours of `node` as a vector, in stored order.
std::vector<int32_t> Row(const nn::NeighborLists& lists, int64_t node) {
  return {lists.col.begin() + lists.row_ptr[static_cast<size_t>(node)],
          lists.col.begin() + lists.row_ptr[static_cast<size_t>(node) + 1]};
}

bool HasEntry(const nn::NeighborLists& lists, int64_t a, int32_t b) {
  std::vector<int32_t> row = Row(lists, a);
  return std::find(row.begin(), row.end(), b) != row.end();
}

// --- Dense reference ----------------------------------------------------------
// The masked-dense HGAT formulation the sparse layer replaced, kept as the
// parity oracle: [n, n] {0,1} masks per edge type and a masked row softmax.

std::vector<nn::Tensor> DenseAdjacency(const graph::QrpGraph& graph,
                                       bool use_road_edges,
                                       bool use_contain_edges) {
  const int64_t n = graph.NumNodes();
  auto dense = [n](const std::vector<std::pair<int32_t, int32_t>>& edges) {
    std::vector<float> mask(static_cast<size_t>(n * n), 0.0f);
    for (const auto& [a, b] : edges) {
      mask[static_cast<size_t>(a) * n + b] = 1.0f;
      mask[static_cast<size_t>(b) * n + a] = 1.0f;
    }
    return nn::Tensor::FromVector({n, n}, std::move(mask));
  };
  std::vector<nn::Tensor> adjacency(HgatLayer::kNumEdgeTypes);
  if (!graph.branch_edges.empty()) adjacency[0] = dense(graph.branch_edges);
  if (use_road_edges && !graph.road_edges.empty()) {
    adjacency[1] = dense(graph.road_edges);
  }
  if (use_contain_edges && !graph.contain_edges.empty()) {
    adjacency[2] = dense(graph.contain_edges);
  }
  return adjacency;
}

/// HgatLayer::Forward with dense masks. `p` is one layer's Parameters() in
/// registration order: a_src/a_dst per type, then W_0..W_2, then W_self.
nn::Tensor DenseHgatForward(const std::vector<nn::Tensor>& p,
                            const nn::Tensor& h,
                            const std::vector<nn::Tensor>& adjacency) {
  const int kTypes = HgatLayer::kNumEdgeTypes;
  EXPECT_EQ(p.size(), static_cast<size_t>(3 * kTypes + 1));
  auto linear = [](const nn::Tensor& x, const nn::Tensor& w) {
    return nn::MatMul(x, nn::Transpose(w));
  };
  const int64_t n = h.dim(0);
  nn::Tensor aggregated = linear(h, p[static_cast<size_t>(3 * kTypes)]);
  for (int k = 0; k < kTypes; ++k) {
    const nn::Tensor& adj = adjacency[static_cast<size_t>(k)];
    if (!adj.defined()) continue;
    nn::Tensor hk = linear(h, p[static_cast<size_t>(2 * kTypes + k)]);
    nn::Tensor e_src =
        nn::Reshape(nn::MatVec(hk, p[static_cast<size_t>(2 * k)]), {n, 1});
    nn::Tensor e_dst =
        nn::Reshape(nn::MatVec(hk, p[static_cast<size_t>(2 * k + 1)]), {1, n});
    nn::Tensor scores = nn::LeakyRelu(nn::Add(e_src, e_dst), 0.2f);
    nn::Tensor neg_mask = nn::MulScalar(nn::AddScalar(nn::Neg(adj), 1.0f), -1e9f);
    nn::Tensor attention = nn::Mul(nn::Softmax(nn::Add(scores, neg_mask)), adj);
    aggregated = nn::Add(aggregated, nn::MatMul(attention, hk));
  }
  return nn::Elu(aggregated);
}

/// A random QR-P-shaped graph with the awkward cases the sparse builder must
/// match the dense masks on: repeated edges (both orientations), a
/// self-loop, and isolated tile and POI nodes.
graph::QrpGraph RandomGraph(uint64_t seed) {
  common::Rng rng(seed);
  graph::QrpGraph g;
  const int32_t tiles = 4 + static_cast<int32_t>(rng.UniformInt(8));
  const int32_t pois = 3 + static_cast<int32_t>(rng.UniformInt(8));
  for (int32_t i = 0; i < tiles; ++i) g.tile_ids.push_back(i);
  for (int32_t i = 0; i < pois; ++i) g.poi_ids.push_back(100 + i);
  // The last tile and the last POI stay isolated.
  auto tile = [&] { return static_cast<int32_t>(rng.UniformInt(tiles - 1)); };
  auto poi = [&] { return tiles + static_cast<int32_t>(rng.UniformInt(pois - 1)); };
  for (int32_t c = 1; c < tiles - 1; ++c) {
    g.branch_edges.push_back({static_cast<int32_t>(rng.UniformInt(c)), c});
  }
  for (int i = 0; i < tiles; ++i) g.road_edges.push_back({tile(), tile()});
  for (int32_t p = tiles; p < tiles + pois - 1; ++p) g.contain_edges.push_back({tile(), p});
  g.contain_edges.push_back({tile(), poi()});
  // Repeats in both orientations and a self-loop.
  g.branch_edges.push_back(g.branch_edges.front());
  g.road_edges.push_back({g.road_edges[0].second, g.road_edges[0].first});
  g.contain_edges.push_back(g.contain_edges.back());
  g.road_edges.push_back({1, 1});
  return g;
}

/// A fixed random projection turning a [n, d] output into a scalar loss, so
/// every output element carries a distinct gradient.
nn::Tensor Probe(const nn::Tensor& out, uint64_t seed) {
  common::Rng rng(seed);
  return nn::SumAll(
      nn::Mul(out, nn::Tensor::RandomUniform(out.shape(), 1.0f, rng)));
}

// --- Neighbour lists ------------------------------------------------------------

TEST(HgatTest, NeighborListsAreSymmetric) {
  graph::QrpGraph g = TinyGraph();
  QrpNeighbors lists = ListsOf(g);
  ASSERT_EQ(lists.size(), 3u);
  // Branch lists: (0,1),(1,0),(0,2),(2,0).
  const nn::NeighborLists& branch = lists[0];
  EXPECT_TRUE(HasEntry(branch, 0, 1));
  EXPECT_TRUE(HasEntry(branch, 1, 0));
  EXPECT_FALSE(HasEntry(branch, 1, 2));
  // Road lists symmetric.
  EXPECT_TRUE(HasEntry(lists[1], 1, 2));
  EXPECT_TRUE(HasEntry(lists[1], 2, 1));
  // Contain lists link tile and POI nodes.
  EXPECT_TRUE(HasEntry(lists[2], 1, 3));
  EXPECT_TRUE(HasEntry(lists[2], 3, 1));
}

TEST(HgatTest, DisablingEdgeTypesEmptiesLists) {
  graph::QrpGraph g = TinyGraph();
  QrpNeighbors lists = ListsOf(g, /*use_road_edges=*/false,
                               /*use_contain_edges=*/false);
  EXPECT_GT(lists[0].num_entries(), 0);
  EXPECT_EQ(lists[1].num_entries(), 0);
  EXPECT_EQ(lists[2].num_entries(), 0);
  for (const nn::NeighborLists& l : lists) EXPECT_EQ(l.num_nodes(), 5);
}

TEST(HgatTest, NeighborListsMatchDenseMasks) {
  // Every row equals its dense mask row: sorted, deduplicated, symmetric,
  // self-loops once — under each road/contain ablation.
  for (uint64_t seed : {11u, 12u, 13u}) {
    graph::QrpGraph g = RandomGraph(seed);
    const int64_t n = g.NumNodes();
    for (bool road : {true, false}) {
      for (bool contain : {true, false}) {
        QrpNeighbors lists = ListsOf(g, road, contain);
        std::vector<nn::Tensor> dense = DenseAdjacency(g, road, contain);
        for (int k = 0; k < HgatLayer::kNumEdgeTypes; ++k) {
          const nn::NeighborLists& l = lists[static_cast<size_t>(k)];
          ASSERT_EQ(l.num_nodes(), n);
          for (int64_t i = 0; i < n; ++i) {
            std::vector<int32_t> want;
            if (dense[static_cast<size_t>(k)].defined()) {
              for (int32_t j = 0; j < n; ++j) {
                if (dense[static_cast<size_t>(k)].at(i * n + j) != 0.0f) {
                  want.push_back(j);
                }
              }
            }
            EXPECT_EQ(Row(l, i), want)
                << "seed " << seed << " type " << k << " node " << i;
          }
        }
      }
    }
  }
}

TEST(HgatTest, PackedListsOffsetEachGraph) {
  // Union layout: all tile nodes (graph order), then all POI nodes.
  graph::QrpGraph a = TinyGraph();  // 3 tiles, 2 POIs
  graph::QrpGraph b = TinyGraph();
  std::vector<const graph::QrpGraph*> both = {&a, &b};
  QrpNeighbors lists = BuildNeighborLists(both, true, true);
  ASSERT_EQ(lists[2].num_nodes(), 10);
  // b's tile 1 is node 4, b's POI 3 (its first POI) is node 6 + 2 = 8.
  EXPECT_EQ(Row(lists[2], 4), std::vector<int32_t>({8}));
  EXPECT_EQ(Row(lists[2], 8), std::vector<int32_t>({4}));
  // a's tile 1 (node 1) holds a's POI 3 (node 6).
  EXPECT_EQ(Row(lists[2], 1), std::vector<int32_t>({6}));
  EXPECT_EQ(Row(lists[0], 3), std::vector<int32_t>({4, 5}));
}

TEST(HgatTest, EdgeOutsideGraphIsRejected) {
  graph::QrpGraph g = TinyGraph();
  g.contain_edges.push_back({2, 5});  // only nodes 0..4 exist
  EXPECT_DEATH(ListsOf(g), "outside");
  graph::QrpGraph h = TinyGraph();
  h.road_edges.push_back({-1, 0});
  EXPECT_DEATH(ListsOf(h), "outside");
}

// --- Layer ------------------------------------------------------------------------

TEST(HgatTest, LayerOutputShape) {
  common::Rng rng(1);
  HgatLayer layer(8, rng);
  graph::QrpGraph g = TinyGraph();
  nn::Tensor h = nn::Tensor::RandomUniform({5, 8}, 1.0f, rng);
  nn::Tensor out = layer.Forward(h, ListsOf(g));
  EXPECT_EQ(out.shape(), nn::Shape({5, 8}));
}

TEST(HgatTest, IsolatedNodeStillProducesOutput) {
  common::Rng rng(2);
  HgatLayer layer(8, rng);
  graph::QrpGraph g;
  g.tile_ids = {0, 1};  // two tiles, no edges at all
  nn::Tensor h = nn::Tensor::RandomUniform({2, 8}, 1.0f, rng);
  nn::Tensor out = layer.Forward(h, ListsOf(g));
  double norm = 0.0;
  for (int64_t i = 0; i < out.numel(); ++i) norm += std::abs(out.at(i));
  EXPECT_GT(norm, 1e-4);  // self-transform keeps the node informative
}

TEST(HgatTest, MessagePassingPropagatesInformation) {
  // Node 0's output must change when a connected node's features change,
  // and stay identical when a disconnected node changes.
  common::Rng rng(3);
  HgatLayer layer(8, rng);
  graph::QrpGraph g;
  g.tile_ids = {0, 1, 2};
  g.branch_edges = {{0, 1}};  // 0-1 connected; 2 isolated
  QrpNeighbors lists = ListsOf(g);

  nn::Tensor h1 = nn::Tensor::RandomUniform({3, 8}, 1.0f, rng);
  std::vector<float> v2 = h1.ToVector();
  for (int i = 0; i < 8; ++i) v2[8 + i] += 1.0f;  // perturb node 1
  nn::Tensor h2 = nn::Tensor::FromVector({3, 8}, v2);
  std::vector<float> v3 = h1.ToVector();
  for (int i = 0; i < 8; ++i) v3[16 + i] += 1.0f;  // perturb node 2
  nn::Tensor h3 = nn::Tensor::FromVector({3, 8}, v3);

  nn::Tensor out1 = layer.Forward(h1, lists);
  nn::Tensor out2 = layer.Forward(h2, lists);
  nn::Tensor out3 = layer.Forward(h3, lists);
  double diff_connected = 0.0, diff_isolated = 0.0;
  for (int i = 0; i < 8; ++i) {
    diff_connected += std::abs(out1.at(i) - out2.at(i));
    diff_isolated += std::abs(out1.at(i) - out3.at(i));
  }
  EXPECT_GT(diff_connected, 1e-4);
  EXPECT_NEAR(diff_isolated, 0.0, 1e-5);
}

TEST(HgatTest, SparseLayerMatchesDenseOracle) {
  // Values and gradients (input and every parameter) within 1e-5 relative
  // of the dense masked layer, on graphs with repeated edges, a self-loop
  // and isolated nodes, under each road/contain ablation.
  for (uint64_t seed : {21u, 22u, 23u}) {
    graph::QrpGraph g = RandomGraph(seed);
    common::Rng rng(seed);
    HgatLayer layer(16, rng);
    nn::Tensor h =
        nn::Tensor::RandomUniform({g.NumNodes(), 16}, 1.0f, rng, true);
    const std::vector<nn::Tensor> params = layer.Parameters();
    std::vector<nn::Tensor> inputs = params;
    inputs.push_back(h);
    for (bool road : {true, false}) {
      for (bool contain : {true, false}) {
        SCOPED_TRACE(::testing::Message() << "seed " << seed << " road "
                                          << road << " contain " << contain);
        QrpNeighbors lists = ListsOf(g, road, contain);
        std::vector<nn::Tensor> dense = DenseAdjacency(g, road, contain);
        CheckTensorsNear(layer.Forward(h, lists),
                         DenseHgatForward(params, h, dense), 1e-5f);
        CheckGradParity(
            inputs, [&] { return Probe(layer.Forward(h, lists), seed); },
            [&] { return Probe(DenseHgatForward(params, h, dense), seed); });
      }
    }
  }
}

// --- Encoder ------------------------------------------------------------------------

TEST(QrpEncoderTest, SplitsTileAndPoiKnowledge) {
  common::Rng rng(4);
  TspnRaConfig config;
  config.dm = 8;
  config.num_hgat_layers = 2;
  QrpEncoder encoder(config, rng);
  graph::QrpGraph g = TinyGraph();
  nn::Tensor tiles = nn::Tensor::RandomUniform({3, 8}, 1.0f, rng);
  nn::Tensor pois = nn::Tensor::RandomUniform({2, 8}, 1.0f, rng);
  std::vector<const graph::QrpGraph*> one = {&g};
  QrpEncoder::Output out = encoder.Encode(one, tiles, pois);
  EXPECT_EQ(out.tile_knowledge.shape(), nn::Shape({3, 8}));
  EXPECT_EQ(out.poi_knowledge.shape(), nn::Shape({2, 8}));
}

TEST(QrpEncoderTest, GradientFlowsToInitialEmbeddings) {
  common::Rng rng(5);
  TspnRaConfig config;
  config.dm = 8;
  QrpEncoder encoder(config, rng);
  graph::QrpGraph g = TinyGraph();
  nn::Tensor tiles = nn::Tensor::RandomUniform({3, 8}, 1.0f, rng, true);
  nn::Tensor pois = nn::Tensor::RandomUniform({2, 8}, 1.0f, rng, true);
  std::vector<const graph::QrpGraph*> one = {&g};
  QrpEncoder::Output out = encoder.Encode(one, tiles, pois);
  nn::SumAll(nn::Mul(out.poi_knowledge, out.poi_knowledge)).Backward();
  auto grad = tiles.GradToVector();
  double total = 0.0;
  for (float v : grad) total += std::abs(v);
  EXPECT_GT(total, 1e-6) << "POI knowledge should depend on tile features";
}

TEST(QrpEncoderTest, MatchesStackedDenseOracle) {
  // The two-layer encoder against two dense oracle layers on the same
  // parameters: values and gradients (initial embeddings and every
  // parameter) within 1e-5 relative, under each road/contain ablation.
  for (uint64_t seed : {31u, 32u}) {
    graph::QrpGraph g = RandomGraph(seed);
    std::vector<const graph::QrpGraph*> one = {&g};
    for (bool road : {true, false}) {
      for (bool contain : {true, false}) {
        SCOPED_TRACE(::testing::Message() << "seed " << seed << " road "
                                          << road << " contain " << contain);
        common::Rng rng(seed);
        TspnRaConfig config;
        config.dm = 16;
        config.num_hgat_layers = 2;
        config.use_road_edges = road;
        config.use_contain_edges = contain;
        QrpEncoder encoder(config, rng);
        const std::vector<nn::Tensor> params = encoder.Parameters();
        const size_t per_layer = params.size() / 2;
        nn::Tensor tiles =
            nn::Tensor::RandomUniform({g.NumTileNodes(), 16}, 1.0f, rng, true);
        nn::Tensor pois =
            nn::Tensor::RandomUniform({g.NumPoiNodes(), 16}, 1.0f, rng, true);
        std::vector<nn::Tensor> dense = DenseAdjacency(g, road, contain);
        auto sparse_out = [&] {
          QrpEncoder::Output out = encoder.Encode(one, tiles, pois);
          return nn::ConcatRows({out.tile_knowledge, out.poi_knowledge});
        };
        auto dense_out = [&] {
          nn::Tensor h = nn::ConcatRows({tiles, pois});
          for (size_t l = 0; l < 2; ++l) {
            h = DenseHgatForward({params.begin() + l * per_layer,
                                  params.begin() + (l + 1) * per_layer},
                                 h, dense);
          }
          return h;
        };
        CheckTensorsNear(sparse_out(), dense_out(), 1e-5f);
        std::vector<nn::Tensor> inputs = params;
        inputs.push_back(tiles);
        inputs.push_back(pois);
        CheckGradParity(inputs, [&] { return Probe(sparse_out(), seed); },
                        [&] { return Probe(dense_out(), seed); });
      }
    }
  }
}

TEST(QrpEncoderTest, PackedEncodeEqualsEachGraphAloneBitwise) {
  common::Rng rng(6);
  TspnRaConfig config;
  config.dm = 16;
  config.num_hgat_layers = 2;
  QrpEncoder encoder(config, rng);
  graph::QrpGraph edgeless;
  edgeless.tile_ids = {7, 8};
  edgeless.poi_ids = {300};
  const std::vector<graph::QrpGraph> graphs = {RandomGraph(41), edgeless,
                                               RandomGraph(42)};
  std::vector<nn::Tensor> tile_inits, poi_inits;
  for (const graph::QrpGraph& g : graphs) {
    tile_inits.push_back(
        nn::Tensor::RandomUniform({g.NumTileNodes(), 16}, 1.0f, rng));
    poi_inits.push_back(
        nn::Tensor::RandomUniform({g.NumPoiNodes(), 16}, 1.0f, rng));
  }
  std::vector<const graph::QrpGraph*> all;
  for (const graph::QrpGraph& g : graphs) all.push_back(&g);
  QrpEncoder::Output packed = encoder.Encode(all, nn::ConcatRows(tile_inits),
                                             nn::ConcatRows(poi_inits));
  int64_t tile_row = 0, poi_row = 0;
  for (size_t i = 0; i < graphs.size(); ++i) {
    std::vector<const graph::QrpGraph*> one = {&graphs[i]};
    QrpEncoder::Output alone = encoder.Encode(one, tile_inits[i], poi_inits[i]);
    const int64_t tiles = graphs[i].NumTileNodes();
    const int64_t pois = graphs[i].NumPoiNodes();
    EXPECT_EQ(std::memcmp(packed.tile_knowledge.data() + tile_row * 16,
                          alone.tile_knowledge.data(),
                          static_cast<size_t>(tiles * 16) * sizeof(float)),
              0)
        << "graph " << i << " tile rows";
    EXPECT_EQ(std::memcmp(packed.poi_knowledge.data() + poi_row * 16,
                          alone.poi_knowledge.data(),
                          static_cast<size_t>(pois * 16) * sizeof(float)),
              0)
        << "graph " << i << " POI rows";
    tile_row += tiles;
    poi_row += pois;
  }
  EXPECT_EQ(tile_row, packed.tile_knowledge.dim(0));
  EXPECT_EQ(poi_row, packed.poi_knowledge.dim(0));
}

}  // namespace
}  // namespace tspn::core
