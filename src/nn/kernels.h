#ifndef TSPN_NN_KERNELS_H_
#define TSPN_NN_KERNELS_H_

#include <cstdint>
#include <vector>

namespace tspn::nn::kernels {

/// Number of worker threads for the row-parallel GEMM split. Controlled by
/// TSPN_NUM_THREADS (default 1 = single-threaded, clamped to [1, 64]); read
/// once per process.
int NumThreads();

/// The one matrix kernel behind MatMul forward and both backward passes:
///
///   C[p, q] (+)= sum_r Y[p, r] * Z[q, r]       i.e.  C = Y * Z^T
///
/// with Y [p_rows, r_len], Z [q_rows, r_len] and C [p_rows, q_rows], all
/// row-major and dense. Rows of both operands are contiguous, so the inner
/// reduction runs on SIMD FMA accumulators (AVX2/AVX-512 when compiled in),
/// and a 4x4 register tile amortizes each operand load across four partial
/// products. Blocking over q keeps the active Z rows in L1.
///
/// With `accumulate` false C is overwritten, otherwise the products are
/// added into C (the gradient-accumulation mode). When TSPN_NUM_THREADS > 1
/// and the product is large enough, rows of C are split across std::thread
/// workers.
void DotProductGemm(const float* y, const float* z, float* c, int64_t p_rows,
                    int64_t q_rows, int64_t r_len, bool accumulate);

/// The small-K kernel behind nn::Linear and the attention weights * V stage:
///
///   C[i, j] (+)= sum_r Y[i, r] * B[r, j]       i.e.  C = Y * B
///
/// with Y [m, k], B [k, n] and C [m, n], all row-major and dense. Each
/// output is one multiply-add chain over r = 0 .. k-1, left to right,
/// starting from zero (fused multiply-adds when compiled with FMA); in
/// accumulate mode the finished chain is then added to C. A 4-row x
/// 32-column register tile broadcasts Y[i, r] against row r of B, so no
/// output pays a horizontal sum and the reduction length needs no tail.
/// Narrower column tails run in 8-wide vectors and one masked vector.
///
/// Because every output follows the same chain whatever tile computes it,
/// each row of C is bitwise independent of m and of the row's position:
/// computing a row alone or inside any larger Y gives the same bits. Rows
/// are split across TSPN_NUM_THREADS workers like DotProductGemm.
void SmallKGemm(const float* y, const float* b, float* c, int64_t m, int64_t n,
                int64_t k, bool accumulate);

/// Row-major transpose into a fresh buffer: src [rows, cols] -> [cols, rows].
/// O(rows*cols); used to feed DotProductGemm operands that are needed
/// column-major (B in the forward pass, A and dOut in the dB pass).
std::vector<float> TransposeCopy(const float* src, int64_t rows, int64_t cols);

/// Transpose into a reusable per-thread scratch buffer instead of a fresh
/// heap allocation: at the small sizes that dominate this model (64-128) the
/// malloc + free around every matmul is a first-order cost. `slot` selects
/// one of two independent buffers per thread so a caller may hold two
/// transposed operands at once (the dB pass needs A^T and dOut^T together).
/// The returned pointer is valid until the same slot is requested again on
/// the calling thread; buffers only ever grow.
const float* TransposeScratch(const float* src, int64_t rows, int64_t cols,
                              int slot);

}  // namespace tspn::nn::kernels

#endif  // TSPN_NN_KERNELS_H_
