// Unit tests for the raw scoring kernels, int8 quantization in particular:
// the serving layer's bitwise-parity contracts lean on the exactness
// properties pinned here.

#include "nn/kernels.h"

#include <cmath>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"

namespace tspn::nn::kernels {
namespace {

TEST(QuantizeRowsInt8Test, RoundsSymmetricallyAndClamps) {
  // max|row| maps to ±127 exactly; zeros stay zero; round is
  // half-away-from-zero via lround.
  const std::vector<float> src = {2.54f, -2.54f, 0.0f, 1.27f, -0.01f, 0.02f};
  std::vector<int8_t> codes(src.size());
  float scale = 0.0f;
  QuantizeRowsInt8(src.data(), 1, static_cast<int64_t>(src.size()),
                   codes.data(), &scale);
  EXPECT_FLOAT_EQ(scale, 2.54f / 127.0f);
  EXPECT_EQ(codes[0], 127);
  EXPECT_EQ(codes[1], -127);
  EXPECT_EQ(codes[2], 0);
  EXPECT_EQ(codes[3], 64);  // 1.27/scale = 63.5, rounds away from zero
  EXPECT_EQ(codes[4], static_cast<int8_t>(-std::lround(0.01f / scale)));
  EXPECT_EQ(codes[5], static_cast<int8_t>(std::lround(0.02f / scale)));
}

TEST(QuantizeRowsInt8Test, ZeroRowGetsZeroScaleAndCodes) {
  const std::vector<float> src(8, 0.0f);
  std::vector<int8_t> codes(8, 42);
  float scale = 1.0f;
  QuantizeRowsInt8(src.data(), 1, 8, codes.data(), &scale);
  EXPECT_EQ(scale, 0.0f);
  for (int8_t c : codes) EXPECT_EQ(c, 0);
}

TEST(QuantizeRowsInt8Test, RowsQuantizeIndependently) {
  common::Rng rng(11);
  const int64_t rows = 5, cols = 16;
  std::vector<float> src(static_cast<size_t>(rows * cols));
  for (float& v : src) v = static_cast<float>(rng.Uniform() * 4.0 - 2.0);
  std::vector<int8_t> all(src.size());
  std::vector<float> scales(static_cast<size_t>(rows));
  QuantizeRowsInt8(src.data(), rows, cols, all.data(), scales.data());
  for (int64_t r = 0; r < rows; ++r) {
    std::vector<int8_t> one(static_cast<size_t>(cols));
    float s = -1.0f;
    QuantizeRowsInt8(src.data() + r * cols, 1, cols, one.data(), &s);
    EXPECT_EQ(s, scales[static_cast<size_t>(r)]) << "row " << r;
    for (int64_t c = 0; c < cols; ++c) {
      EXPECT_EQ(one[static_cast<size_t>(c)], all[static_cast<size_t>(r * cols + c)]);
    }
  }
}

TEST(Int8DotTest, MatchesNaiveIntegerSum) {
  // Odd lengths exercise the SIMD tail; the accumulation is integer, so the
  // naive loop is the exact spec, not an approximation.
  common::Rng rng(13);
  for (int64_t len : {int64_t{1}, int64_t{15}, int64_t{16}, int64_t{37},
                      int64_t{128}, int64_t{129}}) {
    std::vector<int8_t> y(static_cast<size_t>(len)), z(static_cast<size_t>(len));
    for (int64_t i = 0; i < len; ++i) {
      y[static_cast<size_t>(i)] =
          static_cast<int8_t>(rng.UniformInt(255) - 127);
      z[static_cast<size_t>(i)] =
          static_cast<int8_t>(rng.UniformInt(255) - 127);
    }
    int32_t expected = 0;
    for (int64_t i = 0; i < len; ++i) {
      expected += static_cast<int32_t>(y[static_cast<size_t>(i)]) *
                  static_cast<int32_t>(z[static_cast<size_t>(i)]);
    }
    EXPECT_EQ(Int8Dot(y.data(), z.data(), len), expected) << "len=" << len;
  }
}

TEST(Int8ScoreGemmTest, BitwiseMatchesPerElementInt8Dot) {
  // The GEMM's blocking (q-blocks of 64) and vectorization must not change a
  // single bit vs the scalar per-element spec: integer accumulation is
  // exact and the dequant multiply is a single float expression. Sizes span
  // the q-block boundary and a non-multiple-of-16 reduction length.
  common::Rng rng(17);
  const int64_t p_rows = 5, q_rows = 130, r_len = 37;
  std::vector<int8_t> y(static_cast<size_t>(p_rows * r_len));
  std::vector<int8_t> z(static_cast<size_t>(q_rows * r_len));
  std::vector<float> ys(static_cast<size_t>(p_rows));
  std::vector<float> zs(static_cast<size_t>(q_rows));
  for (auto& v : y) v = static_cast<int8_t>(rng.UniformInt(255) - 127);
  for (auto& v : z) v = static_cast<int8_t>(rng.UniformInt(255) - 127);
  for (auto& v : ys) v = static_cast<float>(rng.Uniform() * 0.02);
  for (auto& v : zs) v = static_cast<float>(rng.Uniform() * 0.02);
  std::vector<float> c(static_cast<size_t>(p_rows * q_rows), -1.0f);
  Int8ScoreGemm(y.data(), ys.data(), z.data(), zs.data(), c.data(), p_rows,
                q_rows, r_len);
  for (int64_t p = 0; p < p_rows; ++p) {
    for (int64_t q = 0; q < q_rows; ++q) {
      const int32_t acc = Int8Dot(y.data() + p * r_len, z.data() + q * r_len,
                                  r_len);
      const float expected = static_cast<float>(acc) *
                             (ys[static_cast<size_t>(p)] *
                              zs[static_cast<size_t>(q)]);
      EXPECT_EQ(c[static_cast<size_t>(p * q_rows + q)], expected)
          << "p=" << p << " q=" << q;
    }
  }
}

TEST(Int8ScoreGemmTest, QuantizedCosineApproximatesFp32) {
  // End-to-end sanity on the whole quantize->score path: for unit-norm rows
  // the int8 score must land within ~1% of the fp32 dot. (Top-k equality on
  // real checkpoints is enforced by the serving-layer gate, not here.)
  common::Rng rng(19);
  const int64_t dim = 64;
  std::vector<float> a(static_cast<size_t>(dim)), b(static_cast<size_t>(dim));
  auto normalize = [&](std::vector<float>& v) {
    double n = 0.0;
    for (float x : v) n += static_cast<double>(x) * x;
    const float inv = 1.0f / static_cast<float>(std::sqrt(n));
    for (float& x : v) x *= inv;
  };
  for (int trial = 0; trial < 20; ++trial) {
    for (float& v : a) v = static_cast<float>(rng.Uniform() * 2.0 - 1.0);
    for (float& v : b) v = static_cast<float>(rng.Uniform() * 2.0 - 1.0);
    normalize(a);
    normalize(b);
    float fp32 = 0.0f;
    for (int64_t i = 0; i < dim; ++i) fp32 += a[static_cast<size_t>(i)] * b[static_cast<size_t>(i)];
    std::vector<int8_t> aq(static_cast<size_t>(dim)), bq(static_cast<size_t>(dim));
    float as = 0.0f, bs = 0.0f;
    QuantizeRowsInt8(a.data(), 1, dim, aq.data(), &as);
    QuantizeRowsInt8(b.data(), 1, dim, bq.data(), &bs);
    float q = 0.0f;
    Int8ScoreGemm(aq.data(), &as, bq.data(), &bs, &q, 1, 1, dim);
    EXPECT_NEAR(q, fp32, 0.02f) << "trial " << trial;
  }
}

std::vector<float> RandomVector(int64_t count, common::Rng& rng) {
  std::vector<float> v(static_cast<size_t>(count));
  for (float& x : v) x = static_cast<float>(rng.Uniform() * 2.0 - 1.0);
  return v;
}

TEST(SmallKGemmTest, RowsAreBitwiseTheSameTogetherOrAlone) {
  // Every output is one left-to-right chain over r whatever tile computes
  // it, so a row computed inside any m, at any position, equals the row
  // computed alone. The shapes cover the 4-row tile and its tail, 32-wide
  // column tiles, 8-wide and masked column tails (n = 16 among them), and
  // reduction lengths that are not multiples of 8.
  common::Rng rng(23);
  for (int64_t m : {int64_t{1}, int64_t{3}, int64_t{4}, int64_t{9}}) {
    for (int64_t n : {int64_t{1}, int64_t{5}, int64_t{16}, int64_t{32},
                      int64_t{45}, int64_t{70}}) {
      for (int64_t k : {int64_t{1}, int64_t{7}, int64_t{13}, int64_t{32}}) {
        for (bool accumulate : {false, true}) {
          const std::vector<float> y = RandomVector(m * k, rng);
          const std::vector<float> b = RandomVector(k * n, rng);
          const std::vector<float> c0 = RandomVector(m * n, rng);
          std::vector<float> together = c0;
          SmallKGemm(y.data(), b.data(), together.data(), m, n, k, accumulate);
          for (int64_t i = 0; i < m; ++i) {
            std::vector<float> alone(c0.begin() + i * n, c0.begin() + (i + 1) * n);
            SmallKGemm(y.data() + i * k, b.data(), alone.data(), 1, n, k,
                       accumulate);
            for (int64_t j = 0; j < n; ++j) {
              EXPECT_EQ(together[static_cast<size_t>(i * n + j)],
                        alone[static_cast<size_t>(j)])
                  << "m=" << m << " n=" << n << " k=" << k
                  << " accumulate=" << accumulate << " row " << i << " col " << j;
            }
          }
        }
      }
    }
  }
}

TEST(SmallKGemmTest, MatchesDoublePrecisionReference) {
  common::Rng rng(29);
  for (int64_t k : {int64_t{0}, int64_t{3}, int64_t{32}, int64_t{200}}) {
    const int64_t m = 6, n = 37;
    const std::vector<float> y = RandomVector(m * k, rng);
    const std::vector<float> b = RandomVector(k * n, rng);
    const std::vector<float> c0 = RandomVector(m * n, rng);
    for (bool accumulate : {false, true}) {
      std::vector<float> c = c0;
      SmallKGemm(y.data(), b.data(), c.data(), m, n, k, accumulate);
      for (int64_t i = 0; i < m; ++i) {
        for (int64_t j = 0; j < n; ++j) {
          double want = accumulate ? c0[static_cast<size_t>(i * n + j)] : 0.0;
          for (int64_t r = 0; r < k; ++r) {
            want += static_cast<double>(y[static_cast<size_t>(i * k + r)]) *
                    b[static_cast<size_t>(r * n + j)];
          }
          EXPECT_NEAR(c[static_cast<size_t>(i * n + j)], want,
                      1e-5 * (1.0 + static_cast<double>(k)))
              << "k=" << k << " accumulate=" << accumulate << " (" << i << ", "
              << j << ")";
        }
      }
    }
  }
}

}  // namespace
}  // namespace tspn::nn::kernels
