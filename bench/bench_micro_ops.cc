// Micro-benchmarks of the nn kernel layer with before/after tracking.
//
// Each case times the seed implementation (kept verbatim below as the
// reference, namespace seedref) against the current library kernels and
// reports ns/op plus speedup, printing a table and writing
// BENCH_micro_ops.json for tools/run_benches.sh to diff against the
// committed baseline.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <functional>
#include <memory>
#include <numeric>
#include <vector>

#include "bench/bench_common.h"
#include "common/rng.h"
#include "common/top_k.h"
#include "core/hgat.h"
#include "graph/qrp_graph.h"
#include "nn/conv.h"
#include "nn/kernels.h"
#include "nn/layers.h"
#include "nn/ops.h"
#include "nn/tensor.h"
#include "rs/synthesizer.h"
#include "spatial/quadtree.h"

namespace {

using namespace tspn;

// --- Seed reference implementations -----------------------------------------
// Copied from the pre-kernel-rewrite src/nn/ops.cc so the speedup column
// keeps meaning after the originals are gone.

namespace seedref {

constexpr int kMaxRank = 4;

struct BroadcastPlan {
  nn::Shape out_shape;
  int64_t out_numel = 0;
  int rank = 0;
  int64_t out_dims[kMaxRank];
  int64_t a_strides[kMaxRank];
  int64_t b_strides[kMaxRank];
};

BroadcastPlan MakeBroadcastPlan(const nn::Shape& a, const nn::Shape& b) {
  BroadcastPlan plan;
  plan.rank = static_cast<int>(std::max(a.size(), b.size()));
  int64_t a_dims[kMaxRank], b_dims[kMaxRank];
  for (int i = 0; i < plan.rank; ++i) {
    int ai = static_cast<int>(a.size()) - plan.rank + i;
    int bi = static_cast<int>(b.size()) - plan.rank + i;
    a_dims[i] = ai >= 0 ? a[static_cast<size_t>(ai)] : 1;
    b_dims[i] = bi >= 0 ? b[static_cast<size_t>(bi)] : 1;
    plan.out_dims[i] = std::max(a_dims[i], b_dims[i]);
  }
  int64_t a_stride = 1, b_stride = 1;
  for (int i = plan.rank - 1; i >= 0; --i) {
    plan.a_strides[i] = (a_dims[i] == 1 && plan.out_dims[i] != 1) ? 0 : a_stride;
    plan.b_strides[i] = (b_dims[i] == 1 && plan.out_dims[i] != 1) ? 0 : b_stride;
    a_stride *= a_dims[i];
    b_stride *= b_dims[i];
  }
  plan.out_shape.assign(plan.out_dims, plan.out_dims + plan.rank);
  plan.out_numel = nn::NumElements(plan.out_shape);
  return plan;
}

template <typename Fn>
void ForEachBroadcast(const BroadcastPlan& plan, Fn&& fn) {
  int64_t counters[kMaxRank] = {0, 0, 0, 0};
  int64_t ai = 0, bi = 0;
  for (int64_t out = 0; out < plan.out_numel; ++out) {
    fn(out, ai, bi);
    for (int d = plan.rank - 1; d >= 0; --d) {
      ++counters[d];
      ai += plan.a_strides[d];
      bi += plan.b_strides[d];
      if (counters[d] < plan.out_dims[d]) break;
      ai -= plan.a_strides[d] * plan.out_dims[d];
      bi -= plan.b_strides[d] * plan.out_dims[d];
      counters[d] = 0;
    }
  }
}

nn::Tensor Add(const nn::Tensor& a, const nn::Tensor& b) {
  BroadcastPlan plan = MakeBroadcastPlan(a.shape(), b.shape());
  std::vector<float> out(static_cast<size_t>(plan.out_numel));
  const float* pa = a.data();
  const float* pb = b.data();
  ForEachBroadcast(plan, [&](int64_t o, int64_t i, int64_t j) {
    out[static_cast<size_t>(o)] = pa[i] + pb[j];
  });
  return nn::Tensor::FromVector(plan.out_shape, std::move(out));
}

nn::Tensor Mul(const nn::Tensor& a, const nn::Tensor& b) {
  BroadcastPlan plan = MakeBroadcastPlan(a.shape(), b.shape());
  std::vector<float> out(static_cast<size_t>(plan.out_numel));
  const float* pa = a.data();
  const float* pb = b.data();
  ForEachBroadcast(plan, [&](int64_t o, int64_t i, int64_t j) {
    out[static_cast<size_t>(o)] = pa[i] * pb[j];
  });
  return nn::Tensor::FromVector(plan.out_shape, std::move(out));
}

/// Seed UnaryOp: per-element dispatch through std::function.
nn::Tensor Unary(const nn::Tensor& a, std::function<float(float)> fn) {
  std::vector<float> out(static_cast<size_t>(a.numel()));
  const float* pa = a.data();
  for (size_t i = 0; i < out.size(); ++i) out[i] = fn(pa[i]);
  std::vector<float> saved = out;  // the seed always saved the output
  (void)saved;
  return nn::Tensor::FromVector(a.shape(), std::move(out));
}

nn::Tensor Reshape(const nn::Tensor& a, const nn::Shape& shape) {
  return nn::Tensor::FromVector(shape, a.ToVector());
}

nn::Tensor MatMul(const nn::Tensor& a, const nn::Tensor& b) {
  int64_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
  std::vector<float> out(static_cast<size_t>(m * n), 0.0f);
  const float* pa = a.data();
  const float* pb = b.data();
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t kk = 0; kk < k; ++kk) {
      float av = pa[i * k + kk];
      if (av == 0.0f) continue;
      const float* brow = pb + kk * n;
      float* orow = out.data() + i * n;
      for (int64_t j = 0; j < n; ++j) orow[j] += av * brow[j];
    }
  }
  return nn::Tensor::FromVector({m, n}, std::move(out));
}

/// Seed MatMul backward: dA via scalar-accumulator dots, dB via saxpy.
void MatMulBackward(const float* av, const float* bv, const float* g, float* ga,
                    float* gb, int64_t m, int64_t k, int64_t n) {
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t kk = 0; kk < k; ++kk) {
      float acc = 0.0f;
      const float* grow = g + i * n;
      const float* brow = bv + kk * n;
      for (int64_t j = 0; j < n; ++j) acc += grow[j] * brow[j];
      ga[i * k + kk] += acc;
    }
  }
  for (int64_t kk = 0; kk < k; ++kk) {
    for (int64_t i = 0; i < m; ++i) {
      float a_ik = av[i * k + kk];
      if (a_ik == 0.0f) continue;
      const float* grow = g + i * n;
      float* brow = gb + kk * n;
      for (int64_t j = 0; j < n; ++j) brow[j] += a_ik * grow[j];
    }
  }
}

/// Seed Conv2d forward: the 7-deep scalar loop from the pre-im2col conv.cc.
void Conv2dForward(const float* px, const float* pw, float* out, int64_t n,
                   int64_t ic, int64_t h, int64_t w, int64_t oc, int64_t kh,
                   int64_t kw, int64_t oh, int64_t ow, int stride,
                   int padding) {
  for (int64_t b = 0; b < n; ++b) {
    for (int64_t o = 0; o < oc; ++o) {
      for (int64_t oy = 0; oy < oh; ++oy) {
        for (int64_t ox = 0; ox < ow; ++ox) {
          float acc = 0.0f;
          const int64_t iy0 = oy * stride - padding;
          const int64_t ix0 = ox * stride - padding;
          for (int64_t c = 0; c < ic; ++c) {
            const float* xplane = px + ((b * ic + c) * h) * w;
            const float* wplane = pw + ((o * ic + c) * kh) * kw;
            for (int64_t ky = 0; ky < kh; ++ky) {
              const int64_t iy = iy0 + ky;
              if (iy < 0 || iy >= h) continue;
              for (int64_t kx = 0; kx < kw; ++kx) {
                const int64_t ix = ix0 + kx;
                if (ix < 0 || ix >= w) continue;
                acc += xplane[iy * w + ix] * wplane[ky * kw + kx];
              }
            }
          }
          out[((b * oc + o) * oh + oy) * ow + ox] = acc;
        }
      }
    }
  }
}

/// Seed Conv2d backward (dW and dX, no bias): scalar scatter loops.
void Conv2dBackward(const float* g, const float* xv, const float* wv, float* gw,
                    float* gx, int64_t n, int64_t ic, int64_t h, int64_t w,
                    int64_t oc, int64_t kh, int64_t kw, int64_t oh, int64_t ow,
                    int stride, int padding) {
  for (int64_t b = 0; b < n; ++b) {
    for (int64_t o = 0; o < oc; ++o) {
      for (int64_t oy = 0; oy < oh; ++oy) {
        for (int64_t ox = 0; ox < ow; ++ox) {
          float go = g[((b * oc + o) * oh + oy) * ow + ox];
          if (go == 0.0f) continue;
          const int64_t iy0 = oy * stride - padding;
          const int64_t ix0 = ox * stride - padding;
          for (int64_t c = 0; c < ic; ++c) {
            const int64_t xbase = ((b * ic + c) * h) * w;
            const int64_t wbase = ((o * ic + c) * kh) * kw;
            for (int64_t ky = 0; ky < kh; ++ky) {
              const int64_t iy = iy0 + ky;
              if (iy < 0 || iy >= h) continue;
              for (int64_t kx = 0; kx < kw; ++kx) {
                const int64_t ix = ix0 + kx;
                if (ix < 0 || ix >= w) continue;
                gw[wbase + ky * kw + kx] += go * xv[xbase + iy * w + ix];
                gx[xbase + iy * w + ix] += go * wv[wbase + ky * kw + kx];
              }
            }
          }
        }
      }
    }
  }
}

/// The dense QR-P encode that the sparse QrpEncoder replaced: a symmetric
/// {0,1} [n, n] mask per edge type, built per call, and per layer a masked
/// row softmax times the [n, dm] features. `params` holds QrpEncoder's
/// Parameters(): per layer a_src/a_dst for each type, W_0..W_2, W_self.
nn::Tensor DenseQrpEncode(const graph::QrpGraph& graph,
                          const std::vector<nn::Tensor>& params,
                          const nn::Tensor& tile_init, const nn::Tensor& poi_init) {
  const int64_t n = graph.NumNodes();
  auto dense = [n](const std::vector<std::pair<int32_t, int32_t>>& edges) {
    std::vector<float> mask(static_cast<size_t>(n * n), 0.0f);
    for (const auto& [a, b] : edges) {
      mask[static_cast<size_t>(a) * n + b] = 1.0f;
      mask[static_cast<size_t>(b) * n + a] = 1.0f;
    }
    return nn::Tensor::FromVector({n, n}, std::move(mask));
  };
  const std::vector<nn::Tensor> adjacency = {dense(graph.branch_edges),
                                             dense(graph.road_edges),
                                             dense(graph.contain_edges)};
  auto linear = [](const nn::Tensor& x, const nn::Tensor& w) {
    return nn::MatMul(x, nn::Transpose(w));
  };
  nn::Tensor h = nn::ConcatRows({tile_init, poi_init});
  for (size_t base = 0; base + 10 <= params.size(); base += 10) {
    const nn::Tensor* p = params.data() + base;
    nn::Tensor aggregated = linear(h, p[9]);
    for (size_t k = 0; k < 3; ++k) {
      const nn::Tensor& adj = adjacency[k];
      nn::Tensor hk = linear(h, p[6 + k]);
      nn::Tensor e_src = nn::Reshape(nn::MatVec(hk, p[2 * k]), {n, 1});
      nn::Tensor e_dst = nn::Reshape(nn::MatVec(hk, p[2 * k + 1]), {1, n});
      nn::Tensor scores = nn::LeakyRelu(nn::Add(e_src, e_dst), 0.2f);
      nn::Tensor neg_mask =
          nn::MulScalar(nn::AddScalar(nn::Neg(adj), 1.0f), -1e9f);
      nn::Tensor attention =
          nn::Mul(nn::Softmax(nn::Add(scores, neg_mask)), adj);
      aggregated = nn::Add(aggregated, nn::MatMul(attention, hk));
    }
    h = nn::Elu(aggregated);
  }
  return h;
}

/// The op chain nn::Affine replaced under nn::Linear: MatMul against a
/// transposed weight copy, then a broadcast bias add.
nn::Tensor LinearChain(const nn::Tensor& x, const nn::Tensor& w,
                       const nn::Tensor& b) {
  return nn::Add(nn::MatMul(x, nn::Transpose(w)), b);
}

/// The op chain nn::SegmentAttention replaced: per segment, sliced q/k/v,
/// MatMul(q, Transpose(k)) scaled, a causal mask tensor added, Softmax,
/// MatMul with v; the segments concatenated again.
nn::Tensor AttentionChain(const nn::Tensor& q, const nn::Tensor& k,
                          const nn::Tensor& v,
                          const std::vector<int64_t>& offsets) {
  const float scale = 1.0f / std::sqrt(static_cast<float>(q.dim(1)));
  std::vector<nn::Tensor> parts;
  for (size_t b = 0; b + 1 < offsets.size(); ++b) {
    const int64_t len = offsets[b + 1] - offsets[b];
    nn::Tensor qs = nn::SliceRows(q, offsets[b], len);
    nn::Tensor ks = nn::SliceRows(k, offsets[b], len);
    nn::Tensor vs = nn::SliceRows(v, offsets[b], len);
    nn::Tensor scores = nn::MulScalar(nn::MatMul(qs, nn::Transpose(ks)), scale);
    std::vector<float> mask(static_cast<size_t>(len * len), 0.0f);
    for (int64_t i = 0; i < len; ++i) {
      for (int64_t j = i + 1; j < len; ++j) {
        mask[static_cast<size_t>(i * len + j)] = -1e9f;
      }
    }
    scores = nn::Add(scores, nn::Tensor::FromVector({len, len}, std::move(mask)));
    parts.push_back(nn::MatMul(nn::Softmax(scores), vs));
  }
  return nn::ConcatRows(parts);
}

/// The selection common::TopKIndices replaced: an iota index array over all
/// n scores, nth_element with a comparator that reads every score through
/// its index, then a sort of the kept k (k < n only).
std::vector<int64_t> TopKIndices(const float* scores, int64_t n, int64_t k) {
  std::vector<int64_t> order(static_cast<size_t>(n));
  std::iota(order.begin(), order.end(), 0);
  auto better = [scores](int64_t a, int64_t b) {
    if (scores[a] != scores[b]) return scores[a] > scores[b];
    return a < b;
  };
  std::nth_element(order.begin(), order.begin() + k, order.end(), better);
  order.resize(static_cast<size_t>(k));
  std::sort(order.begin(), order.end(), better);
  return order;
}

}  // namespace seedref

/// A QR-P graph the size the NYC-sim serving workload sees (about 80 nodes,
/// 90 edges): a random 45-tile branch tree, 35 POIs each contained in one
/// tile, and 11 road edges between tiles.
graph::QrpGraph WireSizedQrpGraph(common::Rng& rng) {
  graph::QrpGraph g;
  const int32_t tiles = 45, pois = 35;
  for (int32_t i = 0; i < tiles; ++i) g.tile_ids.push_back(i);
  for (int32_t i = 0; i < pois; ++i) g.poi_ids.push_back(i);
  for (int32_t c = 1; c < tiles; ++c) {
    g.branch_edges.push_back({static_cast<int32_t>(rng.UniformInt(c)), c});
  }
  for (int i = 0; i < 11; ++i) {
    g.road_edges.push_back({static_cast<int32_t>(rng.UniformInt(tiles)),
                            static_cast<int32_t>(rng.UniformInt(tiles))});
  }
  for (int32_t p = 0; p < pois; ++p) {
    g.contain_edges.push_back(
        {static_cast<int32_t>(rng.UniformInt(tiles)), tiles + p});
  }
  return g;
}

// --- Harness -----------------------------------------------------------------

/// Runs fn repeatedly for ~TSPN_BENCH_MICRO_MS milliseconds (default 150)
/// and returns ns per call.
double TimeNs(const std::function<void()>& fn) {
  static const double budget_ms =
      static_cast<double>(common::EnvInt("TSPN_BENCH_MICRO_MS", 150));
  fn();  // warmup
  int64_t iters = 0;
  auto start = std::chrono::steady_clock::now();
  double elapsed_ns = 0.0;
  while (true) {
    fn();
    ++iters;
    elapsed_ns = std::chrono::duration<double, std::nano>(
                     std::chrono::steady_clock::now() - start)
                     .count();
    if (elapsed_ns >= budget_ms * 1e6 && iters >= 3) break;
  }
  return elapsed_ns / static_cast<double>(iters);
}

struct Case {
  std::string name;
  std::function<void()> before;
  std::function<void()> after;
};

}  // namespace

int main() {
  using nn::Tensor;
  common::Rng rng(17);
  std::printf("Micro-benchmarks: seed reference kernels vs current nn layer\n");

  // Elementwise operands: 256x256 (64k elements).
  const Tensor ew_a = Tensor::RandomUniform({256, 256}, 1.0f, rng);
  const Tensor ew_b = Tensor::RandomUniform({256, 256}, 1.0f, rng);
  const Tensor ew_row = Tensor::RandomUniform({256}, 1.0f, rng);
  const Tensor ew_scalar = Tensor::Scalar(1.5f);

  std::vector<Case> cases;
  cases.push_back({"add_same_shape",
                   [&] { seedref::Add(ew_a, ew_b); },
                   [&] { nn::Add(ew_a, ew_b); }});
  cases.push_back({"mul_same_shape",
                   [&] { seedref::Mul(ew_a, ew_b); },
                   [&] { nn::Mul(ew_a, ew_b); }});
  cases.push_back({"mul_scalar_broadcast",
                   [&] { seedref::Mul(ew_a, ew_scalar); },
                   [&] { nn::Mul(ew_a, ew_scalar); }});
  cases.push_back({"add_row_broadcast",
                   [&] { seedref::Add(ew_a, ew_row); },
                   [&] { nn::Add(ew_a, ew_row); }});
  cases.push_back({"sigmoid",
                   [&] {
                     seedref::Unary(
                         ew_a, [](float x) { return 1.0f / (1.0f + std::exp(-x)); });
                   },
                   [&] { nn::Sigmoid(ew_a); }});
  cases.push_back({"reshape",
                   [&] { seedref::Reshape(ew_a, {65536}); },
                   [&] { nn::Reshape(ew_a, {65536}); }});

  for (int64_t n : {64, 128, 256}) {
    Tensor ma = Tensor::RandomUniform({n, n}, 1.0f, rng);
    Tensor mb = Tensor::RandomUniform({n, n}, 1.0f, rng);
    cases.push_back({"matmul_fwd_" + std::to_string(n),
                     [ma, mb] { seedref::MatMul(ma, mb); },
                     [ma, mb] { nn::MatMul(ma, mb); }});
  }

  // The training-path op: forward + both backward passes. This is the
  // MatMul cost that bounds training throughput.
  for (int64_t n : {128, 256}) {
    Tensor ma = Tensor::RandomUniform({n, n}, 1.0f, rng);
    Tensor mb = Tensor::RandomUniform({n, n}, 1.0f, rng);
    Tensor ga = Tensor::RandomUniform({n, n}, 1.0f, rng, /*requires_grad=*/true);
    Tensor gb = Tensor::RandomUniform({n, n}, 1.0f, rng, /*requires_grad=*/true);
    cases.push_back(
        {"matmul_" + std::to_string(n),
         [ma, mb, n] {
           Tensor y = seedref::MatMul(ma, mb);
           std::vector<float> grad_a(static_cast<size_t>(n * n), 0.0f);
           std::vector<float> grad_b(static_cast<size_t>(n * n), 0.0f);
           std::vector<float> g(static_cast<size_t>(n * n), 1.0f);
           seedref::MatMulBackward(ma.data(), mb.data(), g.data(), grad_a.data(),
                                   grad_b.data(), n, n, n);
         },
         [ga, gb]() mutable {
           Tensor y = nn::MatMul(ga, gb);
           auto& node = *y.node();
           node.EnsureGrad();
           std::fill(node.grad.begin(), node.grad.end(), 1.0f);
           node.backward(node);
           ga.ZeroGrad();
           gb.ZeroGrad();
         }});
  }

  // Conv2d: seed 7-deep scalar loops vs the im2col + DotProductGemm lowering.
  // Shapes mirror the model's tile-image CNN (conv_channels {8, 16, 32}, all
  // stride 2): the 3->8 ingest conv on a 64x64 RGB tile (forward, the
  // inference-cache path) and a training step on the 8->16 mid layer
  // (forward + dW/dX backward), whose K = 8*3*3 = 72 reduction is where the
  // CNN's training time actually goes.
  {
    const Tensor cfx = Tensor::RandomUniform({1, 3, 64, 64}, 1.0f, rng);
    const Tensor cfw = Tensor::RandomUniform({8, 3, 3, 3}, 0.2f, rng);
    cases.push_back(
        {"conv2d_stride2_64",
         [cfx, cfw] {
           std::vector<float> out(static_cast<size_t>(1 * 8 * 32 * 32));
           seedref::Conv2dForward(cfx.data(), cfw.data(), out.data(), 1, 3, 64,
                                  64, 8, 3, 3, 32, 32, /*stride=*/2,
                                  /*padding=*/1);
         },
         [cfx, cfw] {
           nn::NoGradGuard guard;
           nn::Conv2d(cfx, cfw, nn::Tensor(), 2, 1);
         }});

    const Tensor ctx = Tensor::RandomUniform({2, 8, 32, 32}, 1.0f, rng);
    const Tensor ctw = Tensor::RandomUniform({16, 8, 3, 3}, 0.2f, rng);
    Tensor gx_t =
        Tensor::RandomUniform({2, 8, 32, 32}, 1.0f, rng, /*requires_grad=*/true);
    Tensor gw_t =
        Tensor::RandomUniform({16, 8, 3, 3}, 0.2f, rng, /*requires_grad=*/true);
    cases.push_back(
        {"conv2d_train_8to16_32",
         [ctx, ctw] {
           std::vector<float> out(static_cast<size_t>(2 * 16 * 16 * 16));
           seedref::Conv2dForward(ctx.data(), ctw.data(), out.data(), 2, 8, 32,
                                  32, 16, 3, 3, 16, 16, /*stride=*/2,
                                  /*padding=*/1);
           std::vector<float> g(out.size(), 1.0f);
           std::vector<float> gw(static_cast<size_t>(ctw.numel()), 0.0f);
           std::vector<float> gx(static_cast<size_t>(ctx.numel()), 0.0f);
           seedref::Conv2dBackward(g.data(), ctx.data(), ctw.data(), gw.data(),
                                   gx.data(), 2, 8, 32, 32, 16, 3, 3, 16, 16,
                                   /*stride=*/2, /*padding=*/1);
         },
         [gx_t, gw_t]() mutable {
           Tensor y = nn::Conv2d(gx_t, gw_t, nn::Tensor(), 2, 1);
           auto& node = *y.node();
           node.EnsureGrad();
           std::fill(node.grad.begin(), node.grad.end(), 1.0f);
           node.backward(node);
           gx_t.ZeroGrad();
           gw_t.ZeroGrad();
         }});
  }

  // QR-P history-graph encode at serving scale: two HGAT layers, dm 32, on
  // a wire-sized graph. Seed: dense [n, n] masks; now: neighbour lists.
  // Inference (no autograd) and a training step (forward + backward into
  // the parameters and initial embeddings).
  {
    auto qrp = std::make_shared<const graph::QrpGraph>(WireSizedQrpGraph(rng));
    core::TspnRaConfig config;
    config.dm = 32;
    config.num_hgat_layers = 2;
    auto encoder = std::make_shared<const core::QrpEncoder>(config, rng);
    const Tensor tiles =
        Tensor::RandomUniform({qrp->NumTileNodes(), 32}, 1.0f, rng, true);
    const Tensor pois =
        Tensor::RandomUniform({qrp->NumPoiNodes(), 32}, 1.0f, rng, true);
    auto library = [qrp, encoder, tiles, pois] {
      std::vector<const graph::QrpGraph*> one = {qrp.get()};
      core::QrpEncoder::Output out = encoder->Encode(one, tiles, pois);
      return nn::ConcatRows({out.tile_knowledge, out.poi_knowledge});
    };
    auto dense = [qrp, encoder, tiles, pois] {
      return seedref::DenseQrpEncode(*qrp, encoder->Parameters(), tiles, pois);
    };
    auto train_step = [encoder, tiles, pois](const std::function<Tensor()>& fn) {
      nn::SumAll(fn()).Backward();
      for (Tensor p : encoder->Parameters()) p.ZeroGrad();
      Tensor(tiles).ZeroGrad();
      Tensor(pois).ZeroGrad();
    };
    cases.push_back({"qrp_encode_80",
                     [dense] {
                       nn::NoGradGuard guard;
                       dense();
                     },
                     [library] {
                       nn::NoGradGuard guard;
                       library();
                     }});
    cases.push_back({"qrp_encode_train_80",
                     [train_step, dense] { train_step(dense); },
                     [train_step, library] { train_step(library); }});
  }

  // The fusion modules' layers at wire batch-32 scale (870 packed rows,
  // dm 32): a Linear projection, and causal self-attention over 32
  // segments of 15..45 rows. Seed: the op chains they replaced (MatMul
  // over transposed copies, per-segment slices, a mask tensor); now: one
  // nn::Affine node on the small-K kernel and one nn::SegmentAttention
  // node. Inference and a training step (forward + backward) each.
  {
    const int64_t rows = 870, dm = 32;
    auto layer = std::make_shared<const nn::Linear>(dm, dm, rng);
    const Tensor x = Tensor::RandomUniform({rows, dm}, 1.0f, rng, true);
    auto zero_grads = [layer, x] {
      for (Tensor p : layer->Parameters()) p.ZeroGrad();
      Tensor(x).ZeroGrad();
    };
    cases.push_back({"linear_fwd_870x32",
                     [layer, x] {
                       nn::NoGradGuard guard;
                       seedref::LinearChain(x, layer->weight(), layer->bias());
                     },
                     [layer, x] {
                       nn::NoGradGuard guard;
                       layer->Forward(x);
                     }});
    cases.push_back({"linear_train_870x32",
                     [layer, x, zero_grads] {
                       nn::SumAll(seedref::LinearChain(x, layer->weight(),
                                                       layer->bias()))
                           .Backward();
                       zero_grads();
                     },
                     [layer, x, zero_grads] {
                       nn::SumAll(layer->Forward(x)).Backward();
                       zero_grads();
                     }});

    std::vector<int64_t> offsets = {0};
    for (int64_t b = 0; b < 32; ++b) {
      offsets.push_back(offsets.back() + 15 + (b % 5) * 6);
    }
    offsets.back() = rows;  // the last segment takes the remainder (45 rows)
    const Tensor q = Tensor::RandomUniform({rows, dm}, 1.0f, rng, true);
    const Tensor k = Tensor::RandomUniform({rows, dm}, 1.0f, rng, true);
    const Tensor v = Tensor::RandomUniform({rows, dm}, 1.0f, rng, true);
    auto chain = [q, k, v, offsets] {
      return seedref::AttentionChain(q, k, v, offsets);
    };
    auto fused = [q, k, v, offsets] {
      return nn::SegmentAttention(q, k, v, offsets, offsets, /*causal=*/true);
    };
    auto train_step = [q, k, v](const std::function<Tensor()>& fn) {
      nn::SumAll(fn()).Backward();
      for (Tensor t : {q, k, v}) t.ZeroGrad();
    };
    cases.push_back({"segment_attention_32seg",
                     [chain] {
                       nn::NoGradGuard guard;
                       chain();
                     },
                     [fused] {
                       nn::NoGradGuard guard;
                       fused();
                     }});
    cases.push_back({"segment_attention_train_32seg",
                     [train_step, chain] { train_step(chain); },
                     [train_step, fused] { train_step(fused); }});
  }

  // The stage-1 tile screen at ScreenStress scale: the top 64 of 9216 tile
  // cosines. Seed: index array + nth_element; now: the one-pass selector.
  {
    const Tensor cosines = Tensor::RandomUniform({9216}, 1.0f, rng);
    cases.push_back(
        {"topk_9216_k64",
         [cosines] { seedref::TopKIndices(cosines.data(), 9216, 64); },
         [cosines] { common::TopKIndices(cosines.data(), 9216, 64); }});
  }

  bench::JsonReporter reporter("micro_ops");
  common::TablePrinter table({"Op", "Seed ns/op", "Now ns/op", "Speedup"});
  for (const Case& c : cases) {
    double before = TimeNs(c.before);
    double after = TimeNs(c.after);
    double speedup = before / after;
    char before_s[32], after_s[32], speedup_s[32];
    std::snprintf(before_s, sizeof(before_s), "%.0f", before);
    std::snprintf(after_s, sizeof(after_s), "%.0f", after);
    std::snprintf(speedup_s, sizeof(speedup_s), "%.2fx", speedup);
    table.AddRow({c.name, before_s, after_s, speedup_s});
    reporter.Add(c.name, {{"ns_per_op", after},
                          {"ns_per_op_before", before},
                          {"speedup", speedup}});
  }

  // Substrate throughput tracking without a seed reference: these paths are
  // unchanged by the kernel rewrite (attention, spatial/graph/imagery) but
  // stay in the JSON so run_benches.sh catches future regressions. (Conv2d
  // graduated to the before/after table with the im2col lowering.)
  {
    auto tiny = data::CityDataset::Generate(data::CityProfile::TestTiny());
    nn::Attention attn(64, rng);
    Tensor seq = Tensor::RandomUniform({32, 64}, 1.0f, rng);
    std::vector<geo::GeoPoint> points;
    for (int64_t i = 0; i < 10000; ++i) points.push_back({rng.Uniform(), rng.Uniform()});
    std::vector<int64_t> visits;
    for (int i = 0; i < 100; ++i) {
      visits.push_back(rng.UniformInt(static_cast<int64_t>(tiny->pois().size())));
    }
    rs::ImageSynthesizer synth(&tiny->layout(), &tiny->roads(), {.resolution = 32});
    std::vector<Case> tracked;
    tracked.push_back({"attention_fwd_32x64", {}, [&] {
                         nn::NoGradGuard guard;
                         attn.Forward(seq, seq, true);
                       }});
    tracked.push_back({"quadtree_build_10k", {}, [&] {
                         spatial::QuadTree::Build({0, 0, 1, 1}, points,
                                                  {.max_depth = 9, .leaf_capacity = 50});
                       }});
    tracked.push_back({"qrp_graph_build_100", {}, [&] {
                         graph::BuildQrpGraph(tiny->quadtree(), tiny->leaf_adjacency(),
                                              tiny->pois(), visits);
                       }});
    tracked.push_back({"render_tile_32", {}, [&] {
                         synth.RenderTile({0.0, 0.0, 0.1, 0.1});
                       }});
    common::TablePrinter tracked_table({"Substrate", "ns/op"});
    for (const Case& c : tracked) {
      double ns = TimeNs(c.after);
      char ns_s[32];
      std::snprintf(ns_s, sizeof(ns_s), "%.0f", ns);
      tracked_table.AddRow({c.name, ns_s});
      reporter.Add(c.name, {{"ns_per_op", ns}});
    }
    table.Print();
    tracked_table.Print();
  }
  reporter.Write();
  return 0;
}
