#ifndef TSPN_NN_OPS_H_
#define TSPN_NN_OPS_H_

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "nn/tensor.h"

namespace tspn::nn {

// ---------------------------------------------------------------------------
// Elementwise binary ops with NumPy-style broadcasting (any ranks <= 4).
// ---------------------------------------------------------------------------

Tensor Add(const Tensor& a, const Tensor& b);
Tensor Sub(const Tensor& a, const Tensor& b);
Tensor Mul(const Tensor& a, const Tensor& b);
Tensor Div(const Tensor& a, const Tensor& b);

// ---------------------------------------------------------------------------
// Scalar / unary ops.
// ---------------------------------------------------------------------------

Tensor AddScalar(const Tensor& a, float s);
Tensor MulScalar(const Tensor& a, float s);
Tensor Neg(const Tensor& a);
Tensor Exp(const Tensor& a);
Tensor Log(const Tensor& a);  ///< natural log; input must be positive
Tensor Sqrt(const Tensor& a);
Tensor Relu(const Tensor& a);
Tensor LeakyRelu(const Tensor& a, float negative_slope = 0.2f);
Tensor Elu(const Tensor& a, float alpha = 1.0f);
Tensor Sigmoid(const Tensor& a);
Tensor Tanh(const Tensor& a);

// ---------------------------------------------------------------------------
// Shape ops.
// ---------------------------------------------------------------------------

/// Reshape preserving element count. The result is an aliasing view: it
/// shares the input's storage (no copy), so in-place writes through either
/// tensor are visible in both.
Tensor Reshape(const Tensor& a, const Shape& shape);

/// 2-D transpose: [M, N] -> [N, M].
Tensor Transpose(const Tensor& a);

/// Concatenation along axis 0 of same-rank tensors.
Tensor ConcatRows(const std::vector<Tensor>& parts);

/// Concatenation along the last axis of rank-1 or rank-2 tensors.
Tensor ConcatLast(const std::vector<Tensor>& parts);

/// Stacks L rank-1 tensors of size D into [L, D].
Tensor StackRows(const std::vector<Tensor>& rows);

/// Slice of rows [start, start+length) of a rank-2 tensor.
Tensor SliceRows(const Tensor& a, int64_t start, int64_t length);

/// Single row of a rank-2 tensor as a rank-1 tensor.
Tensor Row(const Tensor& a, int64_t index);

// ---------------------------------------------------------------------------
// Reductions.
// ---------------------------------------------------------------------------

Tensor SumAll(const Tensor& a);   ///< scalar sum of all elements
Tensor MeanAll(const Tensor& a);  ///< scalar mean of all elements
Tensor MeanRows(const Tensor& a); ///< [N, D] -> [D], mean over rows
Tensor SumRows(const Tensor& a);  ///< [N, D] -> [D], sum over rows

// ---------------------------------------------------------------------------
// Linear algebra.
// ---------------------------------------------------------------------------

/// Matrix product of [M, K] x [K, N] -> [M, N].
Tensor MatMul(const Tensor& a, const Tensor& b);

/// Affine map y = x W^T + b as one node: x [N, in] or [in], weight
/// [out, in], bias [out] or undefined (no bias); returns [N, out] or [out].
/// Forward and dx run on kernels::SmallKGemm, so each output row is bitwise
/// independent of N and of the row's position; dW and db accumulate in
/// their own hand-written passes.
Tensor Affine(const Tensor& x, const Tensor& weight, const Tensor& bias);

/// [N, D] x [D] -> [N].
Tensor MatVec(const Tensor& a, const Tensor& v);

/// Dot product of two rank-1 tensors -> scalar.
Tensor Dot(const Tensor& a, const Tensor& b);

// ---------------------------------------------------------------------------
// Normalization / probability.
// ---------------------------------------------------------------------------

/// Softmax over the last axis of a rank-1 or rank-2 tensor.
Tensor Softmax(const Tensor& a);

/// Log-softmax over the last axis (numerically stable).
Tensor LogSoftmax(const Tensor& a);

/// Rows scaled to unit L2 norm: x / max(|x|, eps). Works on rank-1 (the
/// whole vector) and rank-2 (each row).
Tensor L2Normalize(const Tensor& a, float eps = 1e-8f);

/// Layer normalization over the last axis with affine parameters.
/// gamma/beta have shape [D] where D is the last axis extent.
Tensor LayerNorm(const Tensor& x, const Tensor& gamma, const Tensor& beta,
                 float eps = 1e-5f);

/// Inverted dropout. Identity when `training` is false or p == 0.
Tensor Dropout(const Tensor& a, float p, common::Rng& rng, bool training);

// ---------------------------------------------------------------------------
// Sparse graph attention.
// ---------------------------------------------------------------------------

/// Per-node neighbour lists in compressed sparse row form: node i's
/// neighbours are col[row_ptr[i] .. row_ptr[i + 1]).
struct NeighborLists {
  std::vector<int64_t> row_ptr{0};  ///< [num_nodes + 1], row_ptr[0] == 0
  std::vector<int32_t> col;         ///< [num_entries] neighbour indices

  int64_t num_nodes() const { return static_cast<int64_t>(row_ptr.size()) - 1; }
  int64_t num_entries() const { return static_cast<int64_t>(col.size()); }
};

/// GAT edge-softmax attention over neighbour lists, one edge type:
///
///   e_ij  = LeakyReLU(src[i] + dst[j])     for j in N(i)
///   a_ij  = softmax of e_i. over N(i)      (nn::Softmax's formula)
///   out_i = sum_{j in N(i)} a_ij * values_j
///
/// src, dst: [n]; values: [n, d]; returns [n, d]. A node without neighbours
/// gets a zero row. Costs O(entries * d) instead of the O(n^2 * d) of a
/// masked dense softmax; the attention weights equal the dense ones bit for
/// bit when each row is sorted by ascending neighbour index, because the
/// masked entries there contribute exact zeros.
Tensor EdgeSoftmaxAggregate(const Tensor& src, const Tensor& dst,
                            const Tensor& values, const NeighborLists& neighbors,
                            float negative_slope = 0.2f);

// ---------------------------------------------------------------------------
// Attention over packed segments.
// ---------------------------------------------------------------------------

/// Scaled dot-product attention over B segments packed row-wise:
///
///   out_b = softmax(q_b k_b^T / sqrt(d) + mask) v_b
///
/// q: [Tq, d]; k: [Tk, d]; v: [Tk, dv]; returns [Tq, dv]. Segment b's
/// queries are rows [q_offsets[b], q_offsets[b + 1]) of q and its keys and
/// values rows [kv_offsets[b], kv_offsets[b + 1]) of k and v; both offset
/// vectors hold B + 1 ascending entries from 0 to the row count, and every
/// segment with queries has at least one key. With `causal`, query i of a
/// segment attends only to keys 0..i (query and key lengths must match).
///
/// One node for all segments, reading the packed buffers in place: q k^T is
/// kernels::DotProductGemm, the softmax follows nn::Softmax's formula over
/// the unmasked entries only (masked ones would underflow to exactly 0, so
/// skipping them gives the same bits), and weights * v runs on
/// kernels::SmallKGemm. A segment's rows therefore do not depend on the
/// other segments in the pack.
Tensor SegmentAttention(const Tensor& q, const Tensor& k, const Tensor& v,
                        const std::vector<int64_t>& q_offsets,
                        const std::vector<int64_t>& kv_offsets, bool causal);

// ---------------------------------------------------------------------------
// Embedding / gather.
// ---------------------------------------------------------------------------

/// Gathers rows of `weight` ([V, D]) at `indices` -> [L, D]. Gradient is
/// scatter-added into the embedding matrix.
Tensor EmbeddingGather(const Tensor& weight, const std::vector<int64_t>& indices);

// ---------------------------------------------------------------------------
// Losses / classification heads.
// ---------------------------------------------------------------------------

/// -log softmax(logits)[target] for a rank-1 logits vector.
Tensor CrossEntropyWithLogits(const Tensor& logits, int64_t target);

/// ArcFace-style margin injection (Deng et al., CVPR'19; Eq. 8 of the paper).
/// Given cosines [N] between an output vector and N candidate embeddings,
/// produces logits where the target entry is s*cos(theta_t + m) and all other
/// entries are s*cos(theta_j).
Tensor ArcFaceLogits(const Tensor& cosines, int64_t target, float scale, float margin);

}  // namespace tspn::nn

#endif  // TSPN_NN_OPS_H_
