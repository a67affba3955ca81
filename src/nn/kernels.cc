#include "nn/kernels.h"

#include <algorithm>
#include <thread>

#include "common/env.h"

#if defined(__AVX2__) && defined(__FMA__)
#include <immintrin.h>
#define TSPN_KERNELS_AVX2 1
#endif

namespace tspn::nn::kernels {

namespace {

// Z rows kept hot in L1 per stripe: kBlockQ * r_len floats. 64 rows of a
// 64-wide operand is 16 KB, half a typical L1d.
constexpr int64_t kBlockQ = 64;

// Below this many multiply-adds the std::thread spawn costs more than the
// kernel itself.
constexpr int64_t kMinFlopsPerThread = 1 << 20;

#ifdef TSPN_KERNELS_AVX2

inline float HorizontalSum(__m256 v) {
  __m128 lo = _mm256_castps256_ps128(v);
  __m128 hi = _mm256_extractf128_ps(v, 1);
  lo = _mm_add_ps(lo, hi);
  lo = _mm_hadd_ps(lo, lo);
  lo = _mm_hadd_ps(lo, lo);
  return _mm_cvtss_f32(lo);
}

/// 4x4 register tile: 16 vector accumulators, each operand load shared by
/// four FMAs. The r loop is unrolled x2 to thin out loop overhead.
inline void DotTile4x4(const float* y0, const float* y1, const float* y2,
                       const float* y3, const float* z0, const float* z1,
                       const float* z2, const float* z3, int64_t r_len,
                       float out[4][4]) {
  __m256 a00 = _mm256_setzero_ps(), a01 = a00, a02 = a00, a03 = a00;
  __m256 a10 = a00, a11 = a00, a12 = a00, a13 = a00;
  __m256 a20 = a00, a21 = a00, a22 = a00, a23 = a00;
  __m256 a30 = a00, a31 = a00, a32 = a00, a33 = a00;
  int64_t r = 0;
  for (; r + 16 <= r_len; r += 16) {
    for (int64_t half = r; half < r + 16; half += 8) {
      __m256 w0 = _mm256_loadu_ps(z0 + half);
      __m256 w1 = _mm256_loadu_ps(z1 + half);
      __m256 w2 = _mm256_loadu_ps(z2 + half);
      __m256 w3 = _mm256_loadu_ps(z3 + half);
      __m256 v = _mm256_loadu_ps(y0 + half);
      a00 = _mm256_fmadd_ps(v, w0, a00);
      a01 = _mm256_fmadd_ps(v, w1, a01);
      a02 = _mm256_fmadd_ps(v, w2, a02);
      a03 = _mm256_fmadd_ps(v, w3, a03);
      v = _mm256_loadu_ps(y1 + half);
      a10 = _mm256_fmadd_ps(v, w0, a10);
      a11 = _mm256_fmadd_ps(v, w1, a11);
      a12 = _mm256_fmadd_ps(v, w2, a12);
      a13 = _mm256_fmadd_ps(v, w3, a13);
      v = _mm256_loadu_ps(y2 + half);
      a20 = _mm256_fmadd_ps(v, w0, a20);
      a21 = _mm256_fmadd_ps(v, w1, a21);
      a22 = _mm256_fmadd_ps(v, w2, a22);
      a23 = _mm256_fmadd_ps(v, w3, a23);
      v = _mm256_loadu_ps(y3 + half);
      a30 = _mm256_fmadd_ps(v, w0, a30);
      a31 = _mm256_fmadd_ps(v, w1, a31);
      a32 = _mm256_fmadd_ps(v, w2, a32);
      a33 = _mm256_fmadd_ps(v, w3, a33);
    }
  }
  for (; r + 8 <= r_len; r += 8) {
    __m256 w0 = _mm256_loadu_ps(z0 + r);
    __m256 w1 = _mm256_loadu_ps(z1 + r);
    __m256 w2 = _mm256_loadu_ps(z2 + r);
    __m256 w3 = _mm256_loadu_ps(z3 + r);
    __m256 v = _mm256_loadu_ps(y0 + r);
    a00 = _mm256_fmadd_ps(v, w0, a00);
    a01 = _mm256_fmadd_ps(v, w1, a01);
    a02 = _mm256_fmadd_ps(v, w2, a02);
    a03 = _mm256_fmadd_ps(v, w3, a03);
    v = _mm256_loadu_ps(y1 + r);
    a10 = _mm256_fmadd_ps(v, w0, a10);
    a11 = _mm256_fmadd_ps(v, w1, a11);
    a12 = _mm256_fmadd_ps(v, w2, a12);
    a13 = _mm256_fmadd_ps(v, w3, a13);
    v = _mm256_loadu_ps(y2 + r);
    a20 = _mm256_fmadd_ps(v, w0, a20);
    a21 = _mm256_fmadd_ps(v, w1, a21);
    a22 = _mm256_fmadd_ps(v, w2, a22);
    a23 = _mm256_fmadd_ps(v, w3, a23);
    v = _mm256_loadu_ps(y3 + r);
    a30 = _mm256_fmadd_ps(v, w0, a30);
    a31 = _mm256_fmadd_ps(v, w1, a31);
    a32 = _mm256_fmadd_ps(v, w2, a32);
    a33 = _mm256_fmadd_ps(v, w3, a33);
  }
  out[0][0] = HorizontalSum(a00);
  out[0][1] = HorizontalSum(a01);
  out[0][2] = HorizontalSum(a02);
  out[0][3] = HorizontalSum(a03);
  out[1][0] = HorizontalSum(a10);
  out[1][1] = HorizontalSum(a11);
  out[1][2] = HorizontalSum(a12);
  out[1][3] = HorizontalSum(a13);
  out[2][0] = HorizontalSum(a20);
  out[2][1] = HorizontalSum(a21);
  out[2][2] = HorizontalSum(a22);
  out[2][3] = HorizontalSum(a23);
  out[3][0] = HorizontalSum(a30);
  out[3][1] = HorizontalSum(a31);
  out[3][2] = HorizontalSum(a32);
  out[3][3] = HorizontalSum(a33);
  for (; r < r_len; ++r) {
    const float w[4] = {z0[r], z1[r], z2[r], z3[r]};
    const float v[4] = {y0[r], y1[r], y2[r], y3[r]};
    for (int i = 0; i < 4; ++i) {
      for (int j = 0; j < 4; ++j) out[i][j] += v[i] * w[j];
    }
  }
}

inline float DotRow(const float* y, const float* z, int64_t r_len) {
  __m256 acc = _mm256_setzero_ps();
  int64_t r = 0;
  for (; r + 8 <= r_len; r += 8) {
    acc = _mm256_fmadd_ps(_mm256_loadu_ps(y + r), _mm256_loadu_ps(z + r), acc);
  }
  float s = HorizontalSum(acc);
  for (; r < r_len; ++r) s += y[r] * z[r];
  return s;
}

#else  // portable fallback

inline void DotTile4x4(const float* y0, const float* y1, const float* y2,
                       const float* y3, const float* z0, const float* z1,
                       const float* z2, const float* z3, int64_t r_len,
                       float out[4][4]) {
  const float* ys[4] = {y0, y1, y2, y3};
  const float* zs[4] = {z0, z1, z2, z3};
  for (int i = 0; i < 4; ++i) {
    for (int j = 0; j < 4; ++j) {
      float s = 0.0f;
      for (int64_t r = 0; r < r_len; ++r) s += ys[i][r] * zs[j][r];
      out[i][j] = s;
    }
  }
}

inline float DotRow(const float* y, const float* z, int64_t r_len) {
  float s = 0.0f;
  for (int64_t r = 0; r < r_len; ++r) s += y[r] * z[r];
  return s;
}

#endif  // TSPN_KERNELS_AVX2

/// The single-threaded kernel over a [p_begin, p_end) row range of C.
void DotProductGemmRange(const float* y, const float* z, float* c,
                         int64_t p_begin, int64_t p_end, int64_t q_rows,
                         int64_t r_len, bool accumulate) {
  for (int64_t qb = 0; qb < q_rows; qb += kBlockQ) {
    const int64_t qe = std::min(qb + kBlockQ, q_rows);
    int64_t p = p_begin;
    for (; p + 4 <= p_end; p += 4) {
      const float* y0 = y + p * r_len;
      const float* y1 = y0 + r_len;
      const float* y2 = y1 + r_len;
      const float* y3 = y2 + r_len;
      int64_t q = qb;
      for (; q + 4 <= qe; q += 4) {
        const float* z0 = z + q * r_len;
        float tile[4][4];
        DotTile4x4(y0, y1, y2, y3, z0, z0 + r_len, z0 + 2 * r_len,
                   z0 + 3 * r_len, r_len, tile);
        for (int i = 0; i < 4; ++i) {
          float* dst = c + (p + i) * q_rows + q;
          if (accumulate) {
            for (int j = 0; j < 4; ++j) dst[j] += tile[i][j];
          } else {
            for (int j = 0; j < 4; ++j) dst[j] = tile[i][j];
          }
        }
      }
      for (; q < qe; ++q) {
        const float* zq = z + q * r_len;
        const float* ys[4] = {y0, y1, y2, y3};
        for (int i = 0; i < 4; ++i) {
          float s = DotRow(ys[i], zq, r_len);
          float* dst = c + (p + i) * q_rows + q;
          if (accumulate) {
            *dst += s;
          } else {
            *dst = s;
          }
        }
      }
    }
    for (; p < p_end; ++p) {
      const float* yp = y + p * r_len;
      for (int64_t q = qb; q < qe; ++q) {
        float s = DotRow(yp, z + q * r_len, r_len);
        float* dst = c + p * q_rows + q;
        if (accumulate) {
          *dst += s;
        } else {
          *dst = s;
        }
      }
    }
  }
}

}  // namespace

int NumThreads() {
  static int threads = static_cast<int>(
      std::clamp<int64_t>(common::EnvInt("TSPN_NUM_THREADS", 1), 1, 64));
  return threads;
}

namespace {

/// Runs range_fn(begin, end) over [0, rows), split across NumThreads()
/// std::thread workers when the product is large enough to pay for them.
/// Chunks are rounded up to whole 4-row register tiles so only the last
/// worker runs a partial one.
template <typename RangeFn>
void ForRowRanges(int64_t rows, int64_t flops, RangeFn range_fn) {
  constexpr int64_t kAlign = 4;
  int threads = NumThreads();
  if (threads > 1) {
    threads = static_cast<int>(std::min<int64_t>(
        threads, std::max<int64_t>(1, flops / kMinFlopsPerThread)));
  }
  if (threads <= 1) {
    range_fn(int64_t{0}, rows);
    return;
  }
  const int64_t chunk =
      ((rows + threads - 1) / threads + kAlign - 1) / kAlign * kAlign;
  std::vector<std::thread> workers;
  workers.reserve(static_cast<size_t>(threads));
  for (int64_t begin = 0; begin < rows; begin += chunk) {
    workers.emplace_back(range_fn, begin, std::min(begin + chunk, rows));
  }
  for (std::thread& t : workers) t.join();
}

}  // namespace

void DotProductGemm(const float* y, const float* z, float* c, int64_t p_rows,
                    int64_t q_rows, int64_t r_len, bool accumulate) {
  if (p_rows <= 0 || q_rows <= 0) return;
  if (r_len <= 0) {
    if (!accumulate) std::fill(c, c + p_rows * q_rows, 0.0f);
    return;
  }
  ForRowRanges(p_rows, p_rows * q_rows * r_len,
               [=](int64_t begin, int64_t end) {
                 DotProductGemmRange(y, z, c, begin, end, q_rows, r_len,
                                     accumulate);
               });
}

namespace {

#ifdef TSPN_KERNELS_AVX2

/// Lane mask selecting the first `count` (1..7) floats of an 8-wide vector.
inline __m256i TailMask(int64_t count) {
  return _mm256_cmpgt_epi32(_mm256_set1_epi32(static_cast<int>(count)),
                            _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
}

/// A kRows x (8 * kVecs) tile of C = Y * B: y points at the tile's first
/// row of Y, b and c at its first column of B and C. Per r, row r of B is
/// loaded once and each Y[i, r] is broadcast against it. With kMasked the
/// last vector covers only the lanes set in `mask`.
template <int kRows, int kVecs, bool kMasked>
inline void ChainTile(const float* y, int64_t k, const float* b, int64_t n,
                      float* c, bool accumulate, __m256i mask) {
  __m256 acc[kRows][kVecs];
  for (int i = 0; i < kRows; ++i) {
    for (int v = 0; v < kVecs; ++v) acc[i][v] = _mm256_setzero_ps();
  }
  for (int64_t r = 0; r < k; ++r) {
    const float* br = b + r * n;
    __m256 bv[kVecs];
    for (int v = 0; v < kVecs; ++v) {
      bv[v] = kMasked && v == kVecs - 1 ? _mm256_maskload_ps(br + 8 * v, mask)
                                        : _mm256_loadu_ps(br + 8 * v);
    }
    for (int i = 0; i < kRows; ++i) {
      const __m256 yv = _mm256_broadcast_ss(y + i * k + r);
      for (int v = 0; v < kVecs; ++v) {
        acc[i][v] = _mm256_fmadd_ps(yv, bv[v], acc[i][v]);
      }
    }
  }
  for (int i = 0; i < kRows; ++i) {
    float* ci = c + i * n;
    for (int v = 0; v < kVecs; ++v) {
      if (kMasked && v == kVecs - 1) {
        __m256 out = acc[i][v];
        if (accumulate) out = _mm256_add_ps(_mm256_maskload_ps(ci + 8 * v, mask), out);
        _mm256_maskstore_ps(ci + 8 * v, mask, out);
      } else {
        __m256 out = acc[i][v];
        if (accumulate) out = _mm256_add_ps(_mm256_loadu_ps(ci + 8 * v), out);
        _mm256_storeu_ps(ci + 8 * v, out);
      }
    }
  }
}

/// kRows rows of C across all n columns: 32-wide tiles, then 8-wide ones,
/// then one masked vector for the last n % 8 columns.
template <int kRows>
inline void ChainRows(const float* y, const float* b, float* c, int64_t n,
                      int64_t k, bool accumulate) {
  const __m256i none = _mm256_setzero_si256();
  int64_t j = 0;
  for (; j + 32 <= n; j += 32) {
    ChainTile<kRows, 4, false>(y, k, b + j, n, c + j, accumulate, none);
  }
  for (; j + 8 <= n; j += 8) {
    ChainTile<kRows, 1, false>(y, k, b + j, n, c + j, accumulate, none);
  }
  if (j < n) {
    ChainTile<kRows, 1, true>(y, k, b + j, n, c + j, accumulate,
                              TailMask(n - j));
  }
}

void SmallKGemmRange(const float* y, const float* b, float* c, int64_t begin,
                     int64_t end, int64_t n, int64_t k, bool accumulate) {
  int64_t i = begin;
  for (; i + 4 <= end; i += 4) {
    ChainRows<4>(y + i * k, b, c + i * n, n, k, accumulate);
  }
  for (; i < end; ++i) ChainRows<1>(y + i * k, b, c + i * n, n, k, accumulate);
}

#else  // portable fallback: the same per-output chain, one row at a time

void SmallKGemmRange(const float* y, const float* b, float* c, int64_t begin,
                     int64_t end, int64_t n, int64_t k, bool accumulate) {
  std::vector<float> acc(static_cast<size_t>(n));
  for (int64_t i = begin; i < end; ++i) {
    std::fill(acc.begin(), acc.end(), 0.0f);
    for (int64_t r = 0; r < k; ++r) {
      const float yv = y[i * k + r];
      const float* br = b + r * n;
      for (int64_t j = 0; j < n; ++j) acc[static_cast<size_t>(j)] += yv * br[j];
    }
    float* ci = c + i * n;
    for (int64_t j = 0; j < n; ++j) {
      ci[j] = accumulate ? ci[j] + acc[static_cast<size_t>(j)]
                         : acc[static_cast<size_t>(j)];
    }
  }
}

#endif  // TSPN_KERNELS_AVX2

}  // namespace

void SmallKGemm(const float* y, const float* b, float* c, int64_t m, int64_t n,
                int64_t k, bool accumulate) {
  if (m <= 0 || n <= 0) return;
  ForRowRanges(m, m * n * std::max<int64_t>(k, 1),
               [=](int64_t begin, int64_t end) {
                 SmallKGemmRange(y, b, c, begin, end, n, k, accumulate);
               });
}

namespace {

void TransposeInto(const float* src, int64_t rows, int64_t cols, float* dst) {
  for (int64_t i = 0; i < rows; ++i) {
    const float* srow = src + i * cols;
    for (int64_t j = 0; j < cols; ++j) {
      dst[j * rows + i] = srow[j];
    }
  }
}

}  // namespace

std::vector<float> TransposeCopy(const float* src, int64_t rows, int64_t cols) {
  std::vector<float> out(static_cast<size_t>(rows * cols));
  TransposeInto(src, rows, cols, out.data());
  return out;
}

const float* TransposeScratch(const float* src, int64_t rows, int64_t cols,
                              int slot) {
  thread_local std::vector<float> scratch[2];
  std::vector<float>& buf = scratch[slot & 1];
  const size_t need = static_cast<size_t>(rows * cols);
  if (buf.size() < need) buf.resize(need);
  TransposeInto(src, rows, cols, buf.data());
  return buf.data();
}

}  // namespace tspn::nn::kernels
