#ifndef TSPN_CORE_HGAT_H_
#define TSPN_CORE_HGAT_H_

#include <array>
#include <memory>
#include <vector>

#include "common/span.h"
#include "core/config.h"
#include "graph/qrp_graph.h"
#include "nn/layers.h"

namespace tspn::core {

/// Neighbour lists per edge type, indexed like HgatLayer's weights:
/// branch, road, contain. An edge type without entries is skipped.
using QrpNeighbors = std::array<nn::NeighborLists, 3>;

/// One heterogeneous graph-attention layer (Eq. 6): per edge type k, GAT
/// attention with weights W_k and attention vector a_k, summed over types
/// and passed through a nonlinearity. A self-transform keeps isolated nodes
/// informative. Attention runs over neighbour lists (nn::EdgeSoftmaxAggregate),
/// so a layer costs O(nodes * dm^2 + edges * dm) rather than O(nodes^2 * dm).
class HgatLayer : public nn::Module {
 public:
  static constexpr int kNumEdgeTypes = std::tuple_size<QrpNeighbors>::value;

  HgatLayer(int64_t dm, common::Rng& rng);

  /// h: [n, dm]; neighbors: per-type lists over the same n nodes.
  /// Returns the updated [n, dm].
  nn::Tensor Forward(const nn::Tensor& h, const QrpNeighbors& neighbors) const;

 private:
  int64_t dm_;
  std::vector<std::unique_ptr<nn::Linear>> w_;       // W_k
  std::vector<std::unique_ptr<nn::Tensor>> a_src_;   // a_k split: source half
  std::vector<std::unique_ptr<nn::Tensor>> a_dst_;   // a_k split: target half
  std::unique_ptr<nn::Linear> self_;
};

/// MG (Sec. IV-C): stacks HGAT layers over QR-P graphs. Initial node
/// features come from ET (tile nodes) and EP-style POI embeddings; the
/// output splits back into tile-level and POI-level historical knowledge.
class QrpEncoder : public nn::Module {
 public:
  QrpEncoder(const TspnRaConfig& config, common::Rng& rng);

  struct Output {
    nn::Tensor tile_knowledge;  ///< [sum of tile nodes, dm] (H^T_<)
    nn::Tensor poi_knowledge;   ///< [sum of POI nodes, dm]  (H^P_<)
  };

  /// Encodes `graphs` (each non-empty) as one disjoint union: every layer
  /// runs its GEMMs once over all nodes, and attention never crosses graphs,
  /// so each graph's rows equal those of encoding it alone bit for bit.
  /// `tile_init` stacks the graphs' tile-node embeddings in span order
  /// (Eq. 7), `poi_init` their POI-node embeddings; the outputs keep that
  /// row order. Edge types can be disabled for the fine-grained ablations.
  Output Encode(common::Span<const graph::QrpGraph*> graphs,
                const nn::Tensor& tile_init, const nn::Tensor& poi_init) const;

 private:
  const TspnRaConfig config_;
  std::vector<std::unique_ptr<HgatLayer>> layers_;
};

/// Builds the per-edge-type neighbour lists of the disjoint union of
/// `graphs`, honouring the road/contain ablation switches. Node layout: all
/// graphs' tile nodes in span order, then all graphs' POI nodes in span
/// order. Every row is symmetric (an edge links both endpoints), free of
/// duplicates, and sorted by ascending neighbour index; a self-loop appears
/// once. Every edge endpoint must be a node of its own graph.
QrpNeighbors BuildNeighborLists(common::Span<const graph::QrpGraph*> graphs,
                                bool use_road_edges, bool use_contain_edges);

}  // namespace tspn::core

#endif  // TSPN_CORE_HGAT_H_
