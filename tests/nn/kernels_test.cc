// Unit tests for the raw GEMM kernels: the packed-batch parity contracts of
// the encoder layers lean on the row-independence pinned here.

#include "nn/kernels.h"

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"

namespace tspn::nn::kernels {
namespace {

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
