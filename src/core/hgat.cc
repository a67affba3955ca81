#include "core/hgat.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/check.h"
#include "nn/ops.h"

namespace tspn::core {

HgatLayer::HgatLayer(int64_t dm, common::Rng& rng) : dm_(dm) {
  for (int k = 0; k < kNumEdgeTypes; ++k) {
    w_.push_back(std::make_unique<nn::Linear>(dm, dm, rng, /*with_bias=*/false));
    RegisterChild(w_.back().get());
    float bound = std::sqrt(3.0f / static_cast<float>(dm));
    a_src_.push_back(std::make_unique<nn::Tensor>(RegisterParameter(
        nn::Tensor::RandomUniform({dm}, bound, rng, /*requires_grad=*/true))));
    a_dst_.push_back(std::make_unique<nn::Tensor>(RegisterParameter(
        nn::Tensor::RandomUniform({dm}, bound, rng, /*requires_grad=*/true))));
  }
  self_ = std::make_unique<nn::Linear>(dm, dm, rng, /*with_bias=*/false);
  RegisterChild(self_.get());
}

nn::Tensor HgatLayer::Forward(const nn::Tensor& h,
                              const QrpNeighbors& neighbors) const {
  TSPN_CHECK_EQ(h.rank(), 2);
  TSPN_CHECK_EQ(h.dim(1), dm_);
  // Self-transform keeps isolated nodes (and every node's own state) alive.
  nn::Tensor aggregated = self_->Forward(h);
  for (int k = 0; k < kNumEdgeTypes; ++k) {
    const nn::NeighborLists& lists = neighbors[static_cast<size_t>(k)];
    if (lists.num_entries() == 0) continue;  // edge type disabled / absent
    nn::Tensor hk = w_[static_cast<size_t>(k)]->Forward(h);  // [n, dm]
    // Attention logits e_ij = LeakyReLU(a_src . hk_i + a_dst . hk_j), row
    // softmax over each node's type-k neighbours, weighted sum of their hk.
    nn::Tensor e_src = nn::MatVec(hk, *a_src_[static_cast<size_t>(k)]);
    nn::Tensor e_dst = nn::MatVec(hk, *a_dst_[static_cast<size_t>(k)]);
    aggregated = nn::Add(
        aggregated, nn::EdgeSoftmaxAggregate(e_src, e_dst, hk, lists, 0.2f));
  }
  return nn::Elu(aggregated);
}

QrpEncoder::QrpEncoder(const TspnRaConfig& config, common::Rng& rng)
    : config_(config) {
  for (int32_t i = 0; i < config_.num_hgat_layers; ++i) {
    layers_.push_back(std::make_unique<HgatLayer>(config_.dm, rng));
    RegisterChild(layers_.back().get());
  }
}

QrpEncoder::Output QrpEncoder::Encode(common::Span<const graph::QrpGraph*> graphs,
                                      const nn::Tensor& tile_init,
                                      const nn::Tensor& poi_init) const {
  TSPN_CHECK(!graphs.empty());
  int64_t num_tiles = 0, num_pois = 0;
  for (const graph::QrpGraph* g : graphs) {
    TSPN_CHECK(g != nullptr && !g->empty());
    num_tiles += g->NumTileNodes();
    num_pois += g->NumPoiNodes();
  }
  TSPN_CHECK_EQ(tile_init.dim(0), num_tiles);
  TSPN_CHECK_EQ(poi_init.dim(0), num_pois);
  nn::Tensor h = nn::ConcatRows({tile_init, poi_init});
  QrpNeighbors neighbors =
      BuildNeighborLists(graphs, config_.use_road_edges, config_.use_contain_edges);
  for (const auto& layer : layers_) {
    h = layer->Forward(h, neighbors);
  }
  Output out;
  out.tile_knowledge = nn::SliceRows(h, 0, num_tiles);
  out.poi_knowledge = nn::SliceRows(h, num_tiles, num_pois);
  return out;
}

QrpNeighbors BuildNeighborLists(common::Span<const graph::QrpGraph*> graphs,
                                bool use_road_edges, bool use_contain_edges) {
  int64_t num_tiles = 0, num_nodes = 0;
  for (const graph::QrpGraph* g : graphs) {
    num_tiles += g->NumTileNodes();
    num_nodes += g->NumNodes();
  }
  TSPN_CHECK_LE(num_nodes, std::numeric_limits<int32_t>::max());
  using EdgeList = std::vector<std::pair<int32_t, int32_t>>;
  const bool enabled[HgatLayer::kNumEdgeTypes] = {true, use_road_edges,
                                                  use_contain_edges};
  auto edges_of = [](const graph::QrpGraph& g, int k) -> const EdgeList& {
    return k == 0 ? g.branch_edges : k == 1 ? g.road_edges : g.contain_edges;
  };

  QrpNeighbors out;
  for (int k = 0; k < HgatLayer::kNumEdgeTypes; ++k) {
    nn::NeighborLists& lists = out[static_cast<size_t>(k)];
    lists.row_ptr.assign(static_cast<size_t>(num_nodes) + 1, 0);
    if (!enabled[k]) continue;
    // Counting sort of the directed entries (a -> b and b -> a per edge)
    // into rows; row_ptr[r + 1] first holds row r's entry count.
    std::vector<int32_t> entry_rows, entry_cols;
    int64_t tile_base = 0, poi_base = num_tiles;
    for (const graph::QrpGraph* g : graphs) {
      const int64_t n = g->NumNodes(), tiles = g->NumTileNodes();
      auto global = [&](int32_t v) {
        return static_cast<int32_t>(v < tiles ? tile_base + v
                                              : poi_base + (v - tiles));
      };
      for (const auto& [a, b] : edges_of(*g, k)) {
        TSPN_CHECK(a >= 0 && a < n && b >= 0 && b < n)
            << "QR-P edge (" << a << ", " << b << ") outside [0, " << n << ")";
        const int32_t ga = global(a), gb = global(b);
        entry_rows.push_back(ga);
        entry_cols.push_back(gb);
        if (ga != gb) {
          entry_rows.push_back(gb);
          entry_cols.push_back(ga);
        }
      }
      tile_base += tiles;
      poi_base += g->NumPoiNodes();
    }
    if (entry_rows.empty()) continue;
    std::vector<int64_t>& row_ptr = lists.row_ptr;
    for (int32_t r : entry_rows) ++row_ptr[static_cast<size_t>(r) + 1];
    for (int64_t r = 0; r < num_nodes; ++r) {
      row_ptr[static_cast<size_t>(r) + 1] += row_ptr[static_cast<size_t>(r)];
    }
    lists.col.resize(entry_cols.size());
    std::vector<int64_t> cursor(row_ptr.begin(), row_ptr.end() - 1);
    for (size_t e = 0; e < entry_rows.size(); ++e) {
      lists.col[static_cast<size_t>(cursor[static_cast<size_t>(entry_rows[e])]++)] =
          entry_cols[e];
    }
    // Sort each row and drop repeated edges, compacting in place (a row's
    // write position never passes its read position).
    size_t write = 0;
    for (int64_t r = 0; r < num_nodes; ++r) {
      auto begin = lists.col.begin() + row_ptr[static_cast<size_t>(r)];
      auto end = lists.col.begin() + row_ptr[static_cast<size_t>(r) + 1];
      std::sort(begin, end);
      end = std::unique(begin, end);
      row_ptr[static_cast<size_t>(r)] = static_cast<int64_t>(write);
      for (auto it = begin; it != end; ++it) lists.col[write++] = *it;
    }
    row_ptr[static_cast<size_t>(num_nodes)] = static_cast<int64_t>(write);
    lists.col.resize(write);
  }
  return out;
}

}  // namespace tspn::core
