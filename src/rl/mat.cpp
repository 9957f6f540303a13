#include "rl/mat.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdlib>
#include <exception>
#include <memory>
#include <stdexcept>
#include <string>

#include "util/task_pool.hpp"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define AUTOCAT_MAT_X86 1
#include <immintrin.h>
#endif

namespace autocat {

namespace {

/*
 * Portable scalar kernels: the fallback on non-x86 hosts (or when
 * AUTOCAT_MAT_PORTABLE=1). They round every product, and the broadcast
 * ones skip zero multiplicands, so their bits differ from the SIMD
 * tiers'.
 */

void
matmulPortable(float *c, const float *a, const float *b, std::size_t m,
               std::size_t k, std::size_t n)
{
    for (std::size_t i = 0; i < m; ++i) {
        float *crow = c + i * n;
        const float *arow = a + i * k;
        for (std::size_t j = 0; j < n; ++j)
            crow[j] = 0.0f;
        for (std::size_t p = 0; p < k; ++p) {
            const float av = arow[p];
            // ReLU activations make A sparse in practice; skipping
            // zero rows of the broadcast is a real win here.
            if (av == 0.0f)
                continue;
            const float *brow = b + p * n;
            for (std::size_t j = 0; j < n; ++j)
                crow[j] += av * brow[j];
        }
    }
}

/** Rows [i0, i1) of C = A^T * B (A: k x m, B: k x n, C: m x n). */
void
matmulTransAPortable(float *c, const float *a, const float *b,
                     std::size_t k, std::size_t m, std::size_t n,
                     std::size_t i0, std::size_t i1)
{
    for (std::size_t i = i0 * n; i < i1 * n; ++i)
        c[i] = 0.0f;
    for (std::size_t p = 0; p < k; ++p) {
        const float *arow = a + p * m;
        const float *brow = b + p * n;
        for (std::size_t i = i0; i < i1; ++i) {
            const float av = arow[i];
            if (av == 0.0f)
                continue;
            float *crow = c + i * n;
            for (std::size_t j = 0; j < n; ++j)
                crow[j] += av * brow[j];
        }
    }
}

/** Row-pure scalar dot-product GEMM with optional fused bias/ReLU. */
void
dotGemmPortable(float *c, const float *a, const float *b, std::size_t m,
                std::size_t n, std::size_t k, const float *bias,
                bool relu)
{
    for (std::size_t i = 0; i < m; ++i) {
        const float *arow = a + i * k;
        float *crow = c + i * n;
        for (std::size_t j = 0; j < n; ++j) {
            const float *brow = b + j * k;
            float acc = 0.0f;
            for (std::size_t p = 0; p < k; ++p)
                acc += arow[p] * brow[p];
            if (bias)
                acc += bias[j];
            if (relu && acc < 0.0f)
                acc = 0.0f;
            crow[j] = acc;
        }
    }
}

#if AUTOCAT_MAT_X86

/*
 * SIMD kernels: an AVX2+FMA tier and an AVX-512 tier, compiled for
 * every x86-64 build via function target attributes and selected at
 * runtime (detail::hostMatTier()), so the translation unit needs no -m
 * flag and the binary still runs on pre-AVX2 hardware.
 *
 * Both tiers compute each output element with the sequence of roundings
 * the rl/mat.hpp file comment specifies: dot products as dot8() then
 * dotTail(), broadcast products as one FMA chain except matmulInto's
 * tail columns (mmTailAvx2()). The tail steps reproduce what GCC 12
 * emitted for the plain `s += a * b` loops these kernels used to have;
 * intrinsics spell them out and this file is built with
 * -ffp-contract=off, so no compiler or flag can move them. Register
 * tiles, panels and vector width only interleave *independent*
 * elements.
 */

__attribute__((target("avx2,fma"))) inline float
hsum8(__m256 v)
{
    __m128 lo = _mm256_castps256_ps128(v);
    const __m128 hi = _mm256_extractf128_ps(v, 1);
    lo = _mm_add_ps(lo, hi);
    __m128 sh = _mm_movehl_ps(lo, lo);
    lo = _mm_add_ps(lo, sh);
    sh = _mm_shuffle_ps(lo, lo, 0x1);
    lo = _mm_add_ss(lo, sh);
    return _mm_cvtss_f32(lo);
}

/** Four hsum8() at once: lane c of the result is hsum8(v_c), bit for
 *  bit — the same pairwise additions, transposed. */
__attribute__((target("avx2,fma"))) inline __m128
hsum8x4(__m256 v0, __m256 v1, __m256 v2, __m256 v3)
{
    const __m128 w0 = _mm_add_ps(_mm256_castps256_ps128(v0),
                                 _mm256_extractf128_ps(v0, 1));
    const __m128 w1 = _mm_add_ps(_mm256_castps256_ps128(v1),
                                 _mm256_extractf128_ps(v1, 1));
    const __m128 w2 = _mm_add_ps(_mm256_castps256_ps128(v2),
                                 _mm256_extractf128_ps(v2, 1));
    const __m128 w3 = _mm_add_ps(_mm256_castps256_ps128(v3),
                                 _mm256_extractf128_ps(v3, 1));
    // (w[0] + w[2], w[1] + w[3]) of two vectors per register ...
    const __m128 x01 =
        _mm_add_ps(_mm_shuffle_ps(w0, w1, _MM_SHUFFLE(1, 0, 1, 0)),
                   _mm_shuffle_ps(w0, w1, _MM_SHUFFLE(3, 2, 3, 2)));
    const __m128 x23 =
        _mm_add_ps(_mm_shuffle_ps(w2, w3, _MM_SHUFFLE(1, 0, 1, 0)),
                   _mm_shuffle_ps(w2, w3, _MM_SHUFFLE(3, 2, 3, 2)));
    // ... then (w[0] + w[2]) + (w[1] + w[3]) of each.
    return _mm_hadd_ps(x01, x23);
}

/**
 * The t = k mod 8 tail of a dot product: s plus the products a[q] *
 * b[q], q < t, one at a time. When t >= 4 the first four products are
 * rounded before they are added; every other one is fused.
 */
__attribute__((target("avx2,fma"))) inline float
dotTail(float s, const float *a, const float *b, std::size_t t)
{
    __m128 acc = _mm_set_ss(s);
    std::size_t q = 0;
    if (t >= 4) {
        for (; q < 4; ++q)
            acc = _mm_add_ss(
                acc, _mm_mul_ss(_mm_load_ss(a + q), _mm_load_ss(b + q)));
    }
    for (; q < t; ++q)
        acc = _mm_fmadd_ss(_mm_load_ss(a + q), _mm_load_ss(b + q), acc);
    return _mm_cvtss_f32(acc);
}

/** dotTail() of four sums at once: lane c of @p s against the row of B
 *  starting at b + c * ldb. */
__attribute__((target("avx2,fma"))) inline __m128
dotTail4(__m128 s, const float *a, const float *b, std::size_t ldb,
         std::size_t t)
{
    for (std::size_t q = 0; q < t; ++q) {
        const __m128 av = _mm_set1_ps(a[q]);
        const __m128 bv = _mm_setr_ps(b[q], b[ldb + q], b[2 * ldb + q],
                                      b[3 * ldb + q]);
        s = t >= 4 && q < 4 ? _mm_add_ps(s, _mm_mul_ps(av, bv))
                            : _mm_fmadd_ps(av, bv, s);
    }
    return s;
}

/** Canonical dot(a, b, k): the one accumulation order (see above). */
__attribute__((target("avx2,fma"))) inline float
dot8(const float *a, const float *b, std::size_t k)
{
    __m256 acc0 = _mm256_setzero_ps();
    __m256 acc1 = _mm256_setzero_ps();
    std::size_t p = 0;
    for (; p + 16 <= k; p += 16) {
        acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(a + p),
                               _mm256_loadu_ps(b + p), acc0);
        acc1 = _mm256_fmadd_ps(_mm256_loadu_ps(a + p + 8),
                               _mm256_loadu_ps(b + p + 8), acc1);
    }
    if (p + 8 <= k) {
        acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(a + p),
                               _mm256_loadu_ps(b + p), acc0);
        p += 8;
    }
    return dotTail(hsum8(_mm256_add_ps(acc0, acc1)), a + p, b + p, k - p);
}

/**
 * dot8() of one row of A against four consecutive rows of B (stride k)
 * — identical per-output arithmetic, 8 independent FMA chains for ILP.
 */
__attribute__((target("avx2,fma"))) inline __m128
dot8x4(const float *a, const float *b, std::size_t k)
{
    const float *b0 = b, *b1 = b + k, *b2 = b + 2 * k, *b3 = b + 3 * k;
    __m256 a00 = _mm256_setzero_ps(), a01 = _mm256_setzero_ps();
    __m256 a10 = _mm256_setzero_ps(), a11 = _mm256_setzero_ps();
    __m256 a20 = _mm256_setzero_ps(), a21 = _mm256_setzero_ps();
    __m256 a30 = _mm256_setzero_ps(), a31 = _mm256_setzero_ps();
    std::size_t p = 0;
    for (; p + 16 <= k; p += 16) {
        const __m256 av0 = _mm256_loadu_ps(a + p);
        const __m256 av1 = _mm256_loadu_ps(a + p + 8);
        a00 = _mm256_fmadd_ps(av0, _mm256_loadu_ps(b0 + p), a00);
        a01 = _mm256_fmadd_ps(av1, _mm256_loadu_ps(b0 + p + 8), a01);
        a10 = _mm256_fmadd_ps(av0, _mm256_loadu_ps(b1 + p), a10);
        a11 = _mm256_fmadd_ps(av1, _mm256_loadu_ps(b1 + p + 8), a11);
        a20 = _mm256_fmadd_ps(av0, _mm256_loadu_ps(b2 + p), a20);
        a21 = _mm256_fmadd_ps(av1, _mm256_loadu_ps(b2 + p + 8), a21);
        a30 = _mm256_fmadd_ps(av0, _mm256_loadu_ps(b3 + p), a30);
        a31 = _mm256_fmadd_ps(av1, _mm256_loadu_ps(b3 + p + 8), a31);
    }
    if (p + 8 <= k) {
        const __m256 av0 = _mm256_loadu_ps(a + p);
        a00 = _mm256_fmadd_ps(av0, _mm256_loadu_ps(b0 + p), a00);
        a10 = _mm256_fmadd_ps(av0, _mm256_loadu_ps(b1 + p), a10);
        a20 = _mm256_fmadd_ps(av0, _mm256_loadu_ps(b2 + p), a20);
        a30 = _mm256_fmadd_ps(av0, _mm256_loadu_ps(b3 + p), a30);
        p += 8;
    }
    const __m128 s =
        hsum8x4(_mm256_add_ps(a00, a01), _mm256_add_ps(a10, a11),
                _mm256_add_ps(a20, a21), _mm256_add_ps(a30, a31));
    return dotTail4(s, a + p, b + p, k, k - p);
}

/** Bias and ReLU of one dot product. */
inline float
biasRelu(float v, const float *bias, std::size_t j, bool relu)
{
    if (bias)
        v += bias[j];
    if (relu && v < 0.0f)
        v = 0.0f;
    return v;
}

/** biasRelu() of four dot products, stored to c[0..3]. */
__attribute__((target("avx2,fma"))) inline void
storeBiasRelu4(float *c, __m128 v, const float *bias, std::size_t j,
               bool relu)
{
    if (bias)
        v = _mm_add_ps(v, _mm_loadu_ps(bias + j));
    // max(0, v) is `v < 0 ? 0 : v`: it keeps -0.0f and NaN.
    if (relu)
        v = _mm_max_ps(_mm_setzero_ps(), v);
    _mm_storeu_ps(c, v);
}

/**
 * Columns of B per panel of the dot kernels: the panel's rows of B (k
 * floats each) fit in 16 KiB of L1 and are reused by every row of A. A
 * multiple of 4, so every column keeps the dot8x4()/dot8() path it has
 * without panels.
 */
inline std::size_t
dotPanelCols(std::size_t k)
{
    constexpr std::size_t kPanelBytes = 16 * 1024;
    const std::size_t cols =
        kPanelBytes / (std::max<std::size_t>(k, 1) * sizeof(float));
    return std::max<std::size_t>(4, cols / 4 * 4);
}

/** Rows of C = A * B^T (+ bias, ReLU), panel by panel of B. */
__attribute__((target("avx2,fma"))) void
dotGemmAvx2(float *c, const float *a, const float *b, std::size_t m,
            std::size_t n, std::size_t k, const float *bias, bool relu)
{
    const std::size_t panel = dotPanelCols(k);
    for (std::size_t j0 = 0; j0 < n; j0 += panel) {
        const std::size_t j1 = std::min(n, j0 + panel);
        for (std::size_t i = 0; i < m; ++i) {
            const float *arow = a + i * k;
            float *crow = c + i * n;
            std::size_t j = j0;
            for (; j + 4 <= j1; j += 4)
                storeBiasRelu4(crow + j, dot8x4(arow, b + j * k, k), bias,
                               j, relu);
            for (; j < j1; ++j)
                crow[j] = biasRelu(dot8(arow, b + j * k, k), bias, j, relu);
        }
    }
}

/**
 * The tail columns [j0, n), n - j0 < 16, of MR rows of C = A * B in
 * masked lanes: NV vectors of 8 columns. The first 4 * floor(k / 4)
 * products of each element are rounded before they are added, the rest
 * are fused.
 */
template <int MR, int NV>
__attribute__((target("avx2,fma"))) inline void
mmTailAvx2(float *c, const float *a, const float *b, std::size_t i0,
           std::size_t j0, std::size_t k, std::size_t n)
{
    const std::size_t k4 = k / 4 * 4;
    const int w = static_cast<int>(n - j0);
    const __m256i lanes = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
    __m256i mask[NV];
    for (int v = 0; v < NV; ++v)
        mask[v] = _mm256_cmpgt_epi32(_mm256_set1_epi32(w - 8 * v), lanes);
    __m256 acc[MR][NV];
    for (int r = 0; r < MR; ++r)
        for (int v = 0; v < NV; ++v)
            acc[r][v] = _mm256_setzero_ps();
    for (std::size_t p = 0; p < k; ++p) {
        const float *brow = b + p * n + j0;
        __m256 bv[NV];
        for (int v = 0; v < NV; ++v)
            bv[v] = _mm256_maskload_ps(brow + 8 * v, mask[v]);
        for (int r = 0; r < MR; ++r) {
            const __m256 av = _mm256_set1_ps(
                a[(i0 + static_cast<std::size_t>(r)) * k + p]);
            for (int v = 0; v < NV; ++v)
                acc[r][v] = p < k4
                                ? _mm256_add_ps(acc[r][v],
                                                _mm256_mul_ps(av, bv[v]))
                                : _mm256_fmadd_ps(av, bv[v], acc[r][v]);
        }
    }
    for (int r = 0; r < MR; ++r) {
        float *crow = c + (i0 + static_cast<std::size_t>(r)) * n + j0;
        for (int v = 0; v < NV; ++v)
            _mm256_maskstore_ps(crow + 8 * v, mask[v], acc[r][v]);
    }
}

/** mmTailAvx2() with the vector count the tail width needs. */
template <int MR>
__attribute__((target("avx2,fma"))) inline void
mmTail(float *c, const float *a, const float *b, std::size_t i0,
       std::size_t j0, std::size_t k, std::size_t n)
{
    if (n - j0 > 8)
        mmTailAvx2<MR, 2>(c, a, b, i0, j0, k, n);
    else if (n > j0)
        mmTailAvx2<MR, 1>(c, a, b, i0, j0, k, n);
}

/**
 * Broadcast-FMA tile for C = A * B: an MR x 16 block of C lives in
 * registers while the shared dimension streams by.
 */
template <int MR>
__attribute__((target("avx2,fma"))) inline void
mmTileAvx2(float *c, const float *a, const float *b, std::size_t i0,
           std::size_t j0, std::size_t k, std::size_t n)
{
    __m256 acc[MR][2];
    for (int r = 0; r < MR; ++r)
        acc[r][0] = acc[r][1] = _mm256_setzero_ps();
    for (std::size_t p = 0; p < k; ++p) {
        const float *brow = b + p * n + j0;
        const __m256 b0 = _mm256_loadu_ps(brow);
        const __m256 b1 = _mm256_loadu_ps(brow + 8);
        for (int r = 0; r < MR; ++r) {
            const __m256 av =
                _mm256_set1_ps(a[(i0 + static_cast<std::size_t>(r)) * k +
                                 p]);
            acc[r][0] = _mm256_fmadd_ps(av, b0, acc[r][0]);
            acc[r][1] = _mm256_fmadd_ps(av, b1, acc[r][1]);
        }
    }
    for (int r = 0; r < MR; ++r) {
        float *crow = c + (i0 + static_cast<std::size_t>(r)) * n + j0;
        _mm256_storeu_ps(crow, acc[r][0]);
        _mm256_storeu_ps(crow + 8, acc[r][1]);
    }
}

__attribute__((target("avx2,fma"))) void
matmulAvx2(float *c, const float *a, const float *b, std::size_t m,
           std::size_t k, std::size_t n)
{
    const std::size_t n16 = n / 16 * 16;
    std::size_t i = 0;
    for (; i + 4 <= m; i += 4) {
        for (std::size_t j = 0; j < n16; j += 16)
            mmTileAvx2<4>(c, a, b, i, j, k, n);
        mmTail<4>(c, a, b, i, n16, k, n);
    }
    for (; i < m; ++i) {
        for (std::size_t j = 0; j < n16; j += 16)
            mmTileAvx2<1>(c, a, b, i, j, k, n);
        mmTail<1>(c, a, b, i, n16, k, n);
    }
}

/**
 * Broadcast-FMA tile for C = A^T * B (A: k x m) over NV vectors of 8
 * columns from j0, the last w - 8 * (NV - 1) lanes masked: A walked
 * column-wise, one FMA chain per element.
 */
template <int MR, int NV>
__attribute__((target("avx2,fma"))) inline void
mmTransATileAvx2(float *c, const float *a, const float *b, std::size_t i0,
                 std::size_t j0, std::size_t k, std::size_t m,
                 std::size_t n, int w)
{
    const __m256i lanes = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
    __m256i mask[NV];
    for (int v = 0; v < NV; ++v)
        mask[v] = _mm256_cmpgt_epi32(_mm256_set1_epi32(w - 8 * v), lanes);
    const bool full = w >= 8 * NV;
    __m256 acc[MR][NV];
    for (int r = 0; r < MR; ++r)
        for (int v = 0; v < NV; ++v)
            acc[r][v] = _mm256_setzero_ps();
    for (std::size_t p = 0; p < k; ++p) {
        const float *brow = b + p * n + j0;
        __m256 bv[NV];
        for (int v = 0; v < NV; ++v)
            bv[v] = full ? _mm256_loadu_ps(brow + 8 * v)
                         : _mm256_maskload_ps(brow + 8 * v, mask[v]);
        const float *acol = a + p * m + i0;
        for (int r = 0; r < MR; ++r) {
            const __m256 av = _mm256_set1_ps(acol[r]);
            for (int v = 0; v < NV; ++v)
                acc[r][v] = _mm256_fmadd_ps(av, bv[v], acc[r][v]);
        }
    }
    for (int r = 0; r < MR; ++r) {
        float *crow = c + (i0 + static_cast<std::size_t>(r)) * n + j0;
        for (int v = 0; v < NV; ++v) {
            if (full)
                _mm256_storeu_ps(crow + 8 * v, acc[r][v]);
            else
                _mm256_maskstore_ps(crow + 8 * v, mask[v], acc[r][v]);
        }
    }
}

/** Row tile i0..i0+MR of C = A^T * B: 16-column tiles, then the masked
 *  tail columns. */
template <int MR>
__attribute__((target("avx2,fma"))) inline void
mmTransARowsAvx2(float *c, const float *a, const float *b, std::size_t i0,
                 std::size_t k, std::size_t m, std::size_t n)
{
    std::size_t j = 0;
    for (; j + 16 <= n; j += 16)
        mmTransATileAvx2<MR, 2>(c, a, b, i0, j, k, m, n, 16);
    const int w = static_cast<int>(n - j);
    if (w > 8)
        mmTransATileAvx2<MR, 2>(c, a, b, i0, j, k, m, n, w);
    else if (w > 0)
        mmTransATileAvx2<MR, 1>(c, a, b, i0, j, k, m, n, w);
}

/**
 * Rows [i0, i1) of C = A^T * B. Every element is one FMA chain however
 * its row and column are tiled, so its bits do not depend on the range.
 */
__attribute__((target("avx2,fma"))) void
matmulTransAAvx2(float *c, const float *a, const float *b, std::size_t k,
                 std::size_t m, std::size_t n, std::size_t i0,
                 std::size_t i1)
{
    std::size_t i = i0;
    for (; i + 4 <= i1; i += 4)
        mmTransARowsAvx2<4>(c, a, b, i, k, m, n);
    for (; i < i1; ++i)
        mmTransARowsAvx2<1>(c, a, b, i, k, m, n);
}

/*
 * AVX-512 tier: the same per-element arithmetic over zmm registers, for
 * the kernels where it measures faster — the dot products and
 * matmulInto. Rows that do not fill a zmm tile take the AVX2 kernel, so
 * calls under 4 rows (one-stream collection, forwardOne()) run AVX2
 * only. matmulTransAInto stays on the AVX2 kernel, which a zmm version
 * did not reliably beat.
 */

/** Lanes 8 * H .. 8 * H + 7 of a zmm register. (An all-lanes maskz
 *  extract: GCC 12 warns -Wuninitialized on the unmasked one, which
 *  _mm512_castps512_ps256 uses too.) */
template <int H>
__attribute__((target("avx512f,avx2,fma"))) inline __m256
half256(__m512 v)
{
    return _mm256_castpd_ps(
        _mm512_maskz_extractf64x4_pd(0xff, _mm512_castps_pd(v), H));
}

/**
 * dot8() over a 4 x 4 tile: rows a .. a + 3k of A against rows b .. b +
 * 3k of B. Lanes 0-7 of each zmm accumulator are dot8's acc0 and lanes
 * 8-15 its acc1, so one 16-float FMA does both of dot8's 8-float FMAs;
 * the 8-float step is the same FMA masked to lanes 0-7, and lo256 +
 * hi256 is dot8's acc0 + acc1. out[r] receives row r's four sums.
 */
__attribute__((target("avx512f,avx2,fma"))) inline void
dot16x4x4(const float *a, const float *b, std::size_t k, __m128 out[4])
{
    __m512 acc[4][4];
    for (int r = 0; r < 4; ++r)
        for (int j = 0; j < 4; ++j)
            acc[r][j] = _mm512_setzero_ps();
    std::size_t p = 0;
    for (; p + 16 <= k; p += 16) {
        __m512 av[4];
        for (int r = 0; r < 4; ++r)
            av[r] = _mm512_loadu_ps(a + static_cast<std::size_t>(r) * k + p);
        for (int j = 0; j < 4; ++j) {
            const __m512 bv =
                _mm512_loadu_ps(b + static_cast<std::size_t>(j) * k + p);
            for (int r = 0; r < 4; ++r)
                acc[r][j] = _mm512_fmadd_ps(av[r], bv, acc[r][j]);
        }
    }
    if (p + 8 <= k) {
        // Unrolled like the reduction below, so that the accumulators
        // stay in registers.
        const __mmask16 lo = 0x00ff;
        __m512 av[4];
#pragma GCC unroll 4
        for (int r = 0; r < 4; ++r)
            av[r] = _mm512_maskz_loadu_ps(
                lo, a + static_cast<std::size_t>(r) * k + p);
#pragma GCC unroll 4
        for (int j = 0; j < 4; ++j) {
            const __m512 bv = _mm512_maskz_loadu_ps(
                lo, b + static_cast<std::size_t>(j) * k + p);
#pragma GCC unroll 4
            for (int r = 0; r < 4; ++r)
                acc[r][j] = _mm512_mask3_fmadd_ps(av[r], bv, acc[r][j], lo);
        }
        p += 8;
    }
#pragma GCC unroll 4
    for (int r = 0; r < 4; ++r) {
        __m256 v[4];
#pragma GCC unroll 4
        for (int j = 0; j < 4; ++j)
            v[j] = _mm256_add_ps(half256<0>(acc[r][j]),
                                 half256<1>(acc[r][j]));
        out[r] = dotTail4(hsum8x4(v[0], v[1], v[2], v[3]),
                          a + static_cast<std::size_t>(r) * k + p, b + p, k,
                          k - p);
    }
}

/** dotGemmAvx2() on 4 x 4 zmm tiles; rows past the last whole 4-row
 *  tile take the AVX2 kernel. */
__attribute__((target("avx512f,avx2,fma"))) void
dotGemmAvx512(float *c, const float *a, const float *b, std::size_t m,
              std::size_t n, std::size_t k, const float *bias, bool relu)
{
    const std::size_t panel = dotPanelCols(k);
    const std::size_t m4 = m / 4 * 4;
    for (std::size_t j0 = 0; j0 < n; j0 += panel) {
        const std::size_t j1 = std::min(n, j0 + panel);
        for (std::size_t i = 0; i < m4; i += 4) {
            std::size_t j = j0;
            for (; j + 4 <= j1; j += 4) {
                __m128 out[4];
                dot16x4x4(a + i * k, b + j * k, k, out);
                for (std::size_t r = 0; r < 4; ++r)
                    storeBiasRelu4(c + (i + r) * n + j, out[r], bias, j,
                                   relu);
            }
            for (; j < j1; ++j)
                for (std::size_t r = 0; r < 4; ++r)
                    c[(i + r) * n + j] = biasRelu(
                        dot8(a + (i + r) * k, b + j * k, k), bias, j, relu);
        }
    }
    if (m4 < m)
        dotGemmAvx2(c + m4 * n, a + m4 * k, b, m - m4, n, k, bias, relu);
}

/** mmTileAvx2() over MR rows and NV zmm vectors of 16 columns. */
template <int MR, int NV>
__attribute__((target("avx512f,avx2,fma"))) inline void
mmTileAvx512(float *c, const float *a, const float *b, std::size_t i0,
             std::size_t j0, std::size_t k, std::size_t n)
{
    __m512 acc[MR][NV];
    for (int r = 0; r < MR; ++r)
        for (int v = 0; v < NV; ++v)
            acc[r][v] = _mm512_setzero_ps();
    for (std::size_t p = 0; p < k; ++p) {
        const float *brow = b + p * n + j0;
        __m512 bv[NV];
        for (int v = 0; v < NV; ++v)
            bv[v] = _mm512_loadu_ps(brow + 16 * v);
        for (int r = 0; r < MR; ++r) {
            const __m512 av = _mm512_set1_ps(
                a[(i0 + static_cast<std::size_t>(r)) * k + p]);
            for (int v = 0; v < NV; ++v)
                acc[r][v] = _mm512_fmadd_ps(av, bv[v], acc[r][v]);
        }
    }
    for (int r = 0; r < MR; ++r) {
        float *crow = c + (i0 + static_cast<std::size_t>(r)) * n + j0;
        for (int v = 0; v < NV; ++v)
            _mm512_storeu_ps(crow + 16 * v, acc[r][v]);
    }
}

/** matmulAvx2() on 8 x 32 zmm tiles; rows past the last whole 8-row
 *  tile take the AVX2 kernel. */
__attribute__((target("avx512f,avx2,fma"))) void
matmulAvx512(float *c, const float *a, const float *b, std::size_t m,
             std::size_t k, std::size_t n)
{
    const std::size_t n16 = n / 16 * 16;
    const std::size_t m8 = m / 8 * 8;
    for (std::size_t i = 0; i < m8; i += 8) {
        std::size_t j = 0;
        for (; j + 32 <= n16; j += 32)
            mmTileAvx512<8, 2>(c, a, b, i, j, k, n);
        if (j < n16)
            mmTileAvx512<8, 1>(c, a, b, i, j, k, n);
        mmTail<4>(c, a, b, i, n16, k, n);
        mmTail<4>(c, a, b, i + 4, n16, k, n);
    }
    if (m8 < m)
        matmulAvx2(c + m8 * n, a + m8 * k, b, m - m8, k, n);
}

/*
 * Zero-skipping kernels, one AVX2 implementation for both SIMD tiers
 * (a zmm copy of the row kernel measured only 20% faster: it waits on
 * the rows of W^T, not on arithmetic). They vectorize over outputs
 * instead of over k, so they keep the dense kernels' per-element
 * roundings while touching only nonzero features.
 */

/** For each 8-bit mask, the indices of its set bits, packed from byte
 *  0 up. */
constexpr auto kPackedLanes = [] {
    std::array<std::uint64_t, 256> lut{};
    for (unsigned mask = 0; mask < 256; ++mask) {
        unsigned at = 0;
        for (unsigned bit = 0; bit < 8; ++bit)
            if (mask & (1u << bit))
                lut[mask] |= std::uint64_t{bit} << (8 * at++);
    }
    return lut;
}();

/**
 * Indices of the nonzero entries of x[0, k), ascending, into @p idx,
 * which has room for k + 8 (each 8-float step stores 8 candidates);
 * returns their count. NaN is nonzero, -0.0 is not. Branch-free: the
 * nonzero lanes of each step are packed through kPackedLanes.
 */
__attribute__((target("avx2,fma"))) std::size_t
nonzeroIndicesAvx2(const float *x, std::size_t k, std::uint32_t *idx)
{
    const __m256 zero = _mm256_setzero_ps();
    std::size_t count = 0, f = 0;
    for (; f + 8 <= k; f += 8) {
        const auto bits = static_cast<unsigned>(_mm256_movemask_ps(
            _mm256_cmp_ps(_mm256_loadu_ps(x + f), zero, _CMP_NEQ_UQ)));
        const __m256i lanes = _mm256_cvtepu8_epi32(_mm_cvtsi64_si128(
            static_cast<long long>(kPackedLanes[bits])));
        _mm256_storeu_si256(
            reinterpret_cast<__m256i *>(idx + count),
            _mm256_add_epi32(lanes,
                             _mm256_set1_epi32(static_cast<int>(f))));
        count += static_cast<std::size_t>(__builtin_popcount(bits));
    }
    for (; f < k; ++f)
        if (x[f] != 0.0f)
            idx[count++] = static_cast<std::uint32_t>(f);
    return count;
}

/** Adds the nonzero count of x[0, i) to @p count for the largest i <=
 *  n that is a multiple of 8; returns i. */
__attribute__((target("avx2,fma"))) std::size_t
countNonzerosAvx2(const float *x, std::size_t n, std::size_t &count)
{
    const __m256 zero = _mm256_setzero_ps();
    // Each compare's all-ones lanes are -1: subtracting counts them.
    __m256i lanes = _mm256_setzero_si256();
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8)
        lanes = _mm256_sub_epi32(
            lanes, _mm256_castps_si256(_mm256_cmp_ps(
                       _mm256_loadu_ps(x + i), zero, _CMP_NEQ_UQ)));
    alignas(32) std::uint32_t sums[8];
    _mm256_store_si256(reinterpret_cast<__m256i *>(sums), lanes);
    for (const std::uint32_t v : sums)
        count += v;
    return i;
}

/** t = m^T (m: rows x cols, rows ldm floats apart; t's rows ldt
 *  apart) in 8 x 8 blocks, for the first rows / 8 * 8 rows of m;
 *  returns that row count. */
__attribute__((target("avx2,fma"))) std::size_t
transposeAvx2(float *t, std::size_t ldt, const float *m, std::size_t ldm,
              std::size_t rows, std::size_t cols)
{
    const std::size_t rows8 = rows / 8 * 8, cols8 = cols / 8 * 8;
    for (std::size_t i = 0; i < rows8; i += 8) {
        for (std::size_t j = 0; j < cols8; j += 8) {
            __m256 r[8], u[8], v[8];
            for (std::size_t q = 0; q < 8; ++q)
                r[q] = _mm256_loadu_ps(m + (i + q) * ldm + j);
            for (std::size_t q = 0; q < 8; q += 2) {
                u[q] = _mm256_unpacklo_ps(r[q], r[q + 1]);
                u[q + 1] = _mm256_unpackhi_ps(r[q], r[q + 1]);
            }
            for (std::size_t q = 0; q < 8; q += 4) {
                v[q] = _mm256_shuffle_ps(u[q], u[q + 2],
                                         _MM_SHUFFLE(1, 0, 1, 0));
                v[q + 1] = _mm256_shuffle_ps(u[q], u[q + 2],
                                             _MM_SHUFFLE(3, 2, 3, 2));
                v[q + 2] = _mm256_shuffle_ps(u[q + 1], u[q + 3],
                                             _MM_SHUFFLE(1, 0, 1, 0));
                v[q + 3] = _mm256_shuffle_ps(u[q + 1], u[q + 3],
                                             _MM_SHUFFLE(3, 2, 3, 2));
            }
            for (std::size_t q = 0; q < 4; ++q) {
                _mm256_storeu_ps(t + (j + q) * ldt + i,
                                 _mm256_permute2f128_ps(v[q], v[q + 4],
                                                        0x20));
                _mm256_storeu_ps(t + (j + q + 4) * ldt + i,
                                 _mm256_permute2f128_ps(v[q], v[q + 4],
                                                        0x31));
            }
        }
        for (std::size_t q = i; q < i + 8; ++q)
            for (std::size_t j = cols8; j < cols; ++j)
                t[j * ldt + q] = m[q * ldm + j];
    }
    return rows8;
}

/** Lanes of an AVX2 vector whose index is below @p w. */
__attribute__((target("avx2,fma"))) inline __m256i
laneMask(std::size_t w)
{
    return _mm256_cmpgt_epi32(_mm256_set1_epi32(static_cast<int>(w)),
                              _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
}

/** Per-thread buffers of the zero-skipping kernels. */
struct SkipScratch
{
    std::vector<std::uint32_t> idx;  ///< nonzero feature indices
    std::vector<float> acc;          ///< lane or dW accumulators

    std::uint32_t *
    indices(std::size_t k)
    {
        if (idx.size() < k + 8)
            idx.resize(k + 8);
        return idx.data();
    }

    float *
    floats(std::size_t size)
    {
        if (acc.size() < size)
            acc.resize(size);
        return acc.data();
    }
};

thread_local SkipScratch t_skip;

/** acc[0, n) = 0, n a multiple of 8. */
__attribute__((target("avx2,fma"))) inline void
zeroRow(float *acc, std::size_t n)
{
    for (std::size_t j = 0; j < n; j += 8)
        _mm256_storeu_ps(acc + j, _mm256_setzero_ps());
}

/**
 * acc[0, n) = x * w[0, n) + acc[0, n), one FMA per element — from zero
 * instead of acc when @p first — the vector past the last whole one
 * masked.
 */
__attribute__((target("avx2,fma"))) inline void
fmaddRow(float *acc, __m256 x, const float *w, std::size_t n,
         __m256i tail, bool first)
{
    std::size_t j = 0;
    if (first) {
        for (; j + 8 <= n; j += 8)
            _mm256_storeu_ps(acc + j,
                             _mm256_fmadd_ps(x, _mm256_loadu_ps(w + j),
                                             _mm256_setzero_ps()));
        if (j < n)
            _mm256_storeu_ps(
                acc + j, _mm256_fmadd_ps(x, _mm256_maskload_ps(w + j, tail),
                                         _mm256_setzero_ps()));
        return;
    }
    for (; j + 8 <= n; j += 8)
        _mm256_storeu_ps(acc + j,
                         _mm256_fmadd_ps(x, _mm256_loadu_ps(w + j),
                                         _mm256_loadu_ps(acc + j)));
    if (j < n)
        _mm256_storeu_ps(acc + j,
                         _mm256_fmadd_ps(x, _mm256_maskload_ps(w + j, tail),
                                         _mm256_loadu_ps(acc + j)));
}

/**
 * One row of y = x * W^T (+ bias, ReLU) from wt = W^T (k x n), given
 * the ascending indices of x's @p nnz nonzero features.
 *
 * dot8() keeps 16 accumulator lanes (acc0's 8, then acc1's), and
 * feature f of its 8- and 16-float steps lands in lane f mod 16. Here
 * each lane is a row of n floats, one per output, and each nonzero
 * feature is one FMA into its lane's row, for every output at once, in
 * ascending order. Then, per output: hsum8()'s tree over V_l = lane l +
 * lane l + 8, ((V0 + V4) + (V2 + V6)) + ((V1 + V5) + (V3 + V7));
 * dotTail()'s rule over the nonzero features of the k mod 8 tail; bias
 * and ReLU.
 */
__attribute__((target("avx2,fma"))) void
skipRowAvx2(float *y, const float *x, const float *wt, std::size_t n,
            std::size_t k, const std::uint32_t *idx, std::size_t nnz,
            const float *bias, bool relu)
{
    const std::size_t k16 = k / 16 * 16;
    const std::size_t lanes_end = k - k16 >= 8 ? k16 + 8 : k16;
    const bool rounded = k - lanes_end >= 4;
    const std::size_t ld = (n + 7) / 8 * 8;
    const __m256i tail = laneMask(n - (ld - 8));
    float *acc = t_skip.floats(16 * ld);
    // A lane's first feature starts its chain from zero; lanes that no
    // feature reaches are zeroed for the sums.
    unsigned touched = 0;
    std::size_t e = 0;
    for (; e < nnz && idx[e] < lanes_end; ++e) {
        const unsigned lane = idx[e] & 15;
        fmaddRow(acc + lane * ld, _mm256_set1_ps(x[idx[e]]), wt + idx[e] * n,
                 n, tail, !(touched >> lane & 1));
        touched |= 1u << lane;
    }
    for (unsigned lane = 0; lane < 16; ++lane)
        if (!(touched >> lane & 1))
            zeroRow(acc + lane * ld, ld);

    for (std::size_t j = 0; j < n; j += 8) {
        const float *a = acc + j;
        __m256 v[8];
        for (int l = 0; l < 8; ++l)
            v[l] = _mm256_add_ps(_mm256_loadu_ps(a + l * ld),
                                 _mm256_loadu_ps(a + (l + 8) * ld));
        __m256 s = _mm256_add_ps(
            _mm256_add_ps(_mm256_add_ps(v[0], v[4]),
                          _mm256_add_ps(v[2], v[6])),
            _mm256_add_ps(_mm256_add_ps(v[1], v[5]),
                          _mm256_add_ps(v[3], v[7])));
        const bool full = j + 8 <= n;
        for (std::size_t t = e; t < nnz; ++t) {
            const __m256 xv = _mm256_set1_ps(x[idx[t]]);
            const float *w = wt + idx[t] * n + j;
            const __m256 wv =
                full ? _mm256_loadu_ps(w) : _mm256_maskload_ps(w, tail);
            s = rounded && idx[t] - lanes_end < 4
                    ? _mm256_add_ps(s, _mm256_mul_ps(xv, wv))
                    : _mm256_fmadd_ps(xv, wv, s);
        }
        if (bias)
            s = _mm256_add_ps(s, full ? _mm256_loadu_ps(bias + j)
                                      : _mm256_maskload_ps(bias + j, tail));
        // max(0, v) keeps -0.0f and NaN, like biasRelu().
        if (relu)
            s = _mm256_max_ps(_mm256_setzero_ps(), s);
        if (full)
            _mm256_storeu_ps(y + j, s);
        else
            _mm256_maskstore_ps(y + j, tail, s);
    }
}

/**
 * Rows [i0, i1) of C = A^T * B (A: rows x m, B: rows x k, C: m x k),
 * skipping the zeros of B: each element is one FMA chain over the rows
 * r, in order, whose B(r, j) is nonzero. Per block of kZeroSkipGradRows
 * rows of C, the accumulators are held transposed — k rows of 32
 * floats (four vectors), one per feature — so that each nonzero
 * B(r, f) is one FMA of A(r, block) into feature f's row; the block is
 * transposed into C at the end.
 */
__attribute__((target("avx2,fma"))) void
matmulTransASkipAvx2(float *c, const float *a, const float *b,
                     std::size_t rows, std::size_t m, std::size_t k,
                     std::size_t i0, std::size_t i1)
{
    constexpr std::size_t kB = kZeroSkipGradRows;
    std::uint32_t *idx = t_skip.indices(k);
    for (std::size_t s0 = i0; s0 < i1; s0 += kB) {
        const std::size_t w = std::min(kB, i1 - s0);
        __m256i mask[kB / 8];
        for (std::size_t v = 0; v < kB / 8; ++v)
            mask[v] = laneMask(w > 8 * v ? w - 8 * v : 0);
        float *acc = t_skip.floats(k * kB);
        zeroRow(acc, k * kB);
        for (std::size_t r = 0; r < rows; ++r) {
            const float *brow = b + r * k;
            const std::size_t nnz = nonzeroIndicesAvx2(brow, k, idx);
            __m256 av[kB / 8];
            for (std::size_t v = 0; v < kB / 8; ++v)
                av[v] = _mm256_maskload_ps(a + r * m + s0 + 8 * v, mask[v]);
            for (std::size_t e = 0; e < nnz; ++e) {
                const __m256 bv = _mm256_set1_ps(brow[idx[e]]);
                float *t = acc + idx[e] * kB;
                for (std::size_t v = 0; v < kB / 8; ++v)
                    _mm256_storeu_ps(t + 8 * v,
                                     _mm256_fmadd_ps(av[v], bv,
                                                     _mm256_loadu_ps(
                                                         t + 8 * v)));
            }
        }
        const std::size_t k8 =
            w == kB ? transposeAvx2(c + s0 * k, k, acc, kB, k, kB) : 0;
        for (std::size_t i = 0; i < w; ++i)
            for (std::size_t f = k8; f < k; ++f)
                c[(s0 + i) * k + f] = acc[f * kB + i];
    }
}

#endif // AUTOCAT_MAT_X86

using detail::MatTier;

thread_local MatTier t_mat_tier_cap = MatTier::Avx512;

/*
 * Backend dispatch over a row range. The row-independent kernels take
 * a block as offset pointers and a row count; matmulTransA takes the
 * range itself because a block of its output rows reads strided
 * columns of A.
 */

void
matmulRows(MatTier tier, float *c, const float *a, const float *b,
           std::size_t m, std::size_t k, std::size_t n)
{
#if AUTOCAT_MAT_X86
    if (tier == MatTier::Avx512) {
        matmulAvx512(c, a, b, m, k, n);
        return;
    }
    if (tier == MatTier::Avx2) {
        matmulAvx2(c, a, b, m, k, n);
        return;
    }
#endif
    (void)tier;
    matmulPortable(c, a, b, m, k, n);
}

void
dotGemmRows(MatTier tier, float *c, const float *a, const float *b,
            std::size_t m, std::size_t n, std::size_t k, const float *bias,
            bool relu)
{
#if AUTOCAT_MAT_X86
    if (tier == MatTier::Avx512) {
        dotGemmAvx512(c, a, b, m, n, k, bias, relu);
        return;
    }
    if (tier == MatTier::Avx2) {
        dotGemmAvx2(c, a, b, m, n, k, bias, relu);
        return;
    }
#endif
    (void)tier;
    dotGemmPortable(c, a, b, m, n, k, bias, relu);
}

void
matmulTransARows(MatTier tier, float *c, const float *a, const float *b,
                 std::size_t k, std::size_t m, std::size_t n,
                 std::size_t i0, std::size_t i1)
{
#if AUTOCAT_MAT_X86
    if (tier != MatTier::Portable) {
        matmulTransAAvx2(c, a, b, k, m, n, i0, i1);
        return;
    }
#endif
    (void)tier;
    matmulTransAPortable(c, a, b, k, m, n, i0, i1);
}

/** C = A * B^T (+ bias, ReLU), partitioned over rows of C. */
void
dotGemm(Matrix &c, const Matrix &a, const Matrix &b, const float *bias,
        bool relu)
{
    const std::size_t m = a.rows(), n = b.rows(), k = a.cols();
    c.resizeUninit(m, n);
    float *cd = c.data();
    const float *ad = a.data();
    const float *bd = b.data();
    const MatTier tier = detail::matTier();
    parallelBlocks(m, kMatTileRows, m * n * k,
                   [=](std::size_t i0, std::size_t i1) {
                       dotGemmRows(tier, cd + i0 * n, ad + i0 * k, bd,
                                   i1 - i0, n, k, bias, relu);
                   });
}

thread_local std::size_t t_mat_threads = 0;  ///< 0 = affinityCpuCount()
thread_local std::unique_ptr<TaskPool> t_mat_pool;

/**
 * The calling thread's pool at @p budget executors: this thread plus
 * budget - 1 workers. Sized by the budget, not by a call's block count,
 * so calls of different shapes share one pool; rebuilt only when the
 * budget changes.
 */
TaskPool &
matPool(std::size_t budget)
{
    if (!t_mat_pool || t_mat_pool->numThreads() != budget) {
        t_mat_pool.reset();
        t_mat_pool = std::make_unique<TaskPool>(budget);
    }
    return *t_mat_pool;
}

} // namespace

const char *
matmulBackend()
{
    switch (detail::matTier()) {
    case MatTier::Avx512:
        return "avx512f";
    case MatTier::Avx2:
        return "avx2+fma";
    case MatTier::Portable:
        break;
    }
    return "portable";
}

std::size_t
matThreads()
{
    return t_mat_threads ? t_mat_threads : affinityCpuCount();
}

MatThreadScope::MatThreadScope(std::size_t threads) : saved_(t_mat_threads)
{
    t_mat_threads = threads;
}

MatThreadScope::~MatThreadScope()
{
    t_mat_threads = saved_;
}

namespace detail {

MatTier
hostMatTier()
{
#if AUTOCAT_MAT_X86
    static const MatTier tier = [] {
        const char *force = std::getenv("AUTOCAT_MAT_PORTABLE");
        if (force && force[0] == '1')
            return MatTier::Portable;
        __builtin_cpu_init();
        if (!__builtin_cpu_supports("avx2") || !__builtin_cpu_supports("fma"))
            return MatTier::Portable;
        return __builtin_cpu_supports("avx512f") ? MatTier::Avx512
                                                 : MatTier::Avx2;
    }();
    return tier;
#else
    return MatTier::Portable;
#endif
}

MatTier
matTier()
{
    return std::min(hostMatTier(), t_mat_tier_cap);
}

MatTierScope::MatTierScope(MatTier cap) : saved_(t_mat_tier_cap)
{
    t_mat_tier_cap = cap;
}

MatTierScope::~MatTierScope()
{
    t_mat_tier_cap = saved_;
}

void
runBlocks(std::size_t n, std::size_t align, std::size_t work, BlockFn fn,
          void *ctx)
{
    // Every block carries at least kMatSplitMinWork multiply-adds, so a
    // call just over the threshold takes two blocks, not one per CPU.
    const std::size_t budget = matThreads();
    const std::size_t tiles = (n + align - 1) / align;
    const std::size_t blocks =
        std::min({budget, tiles, work / kMatSplitMinWork});
    if (blocks < 2 || n < kMatSplitMinRows) {
        fn(ctx, 0, n);
        return;
    }
    const std::size_t per = (tiles + blocks - 1) / blocks * align;
    const std::size_t count = (n + per - 1) / per;
    matPool(budget).parallelFor(0, count, [&](std::size_t b) {
        fn(ctx, b * per, std::min(n, (b + 1) * per));
    });
}

void
runTasks(std::size_t count, std::size_t work, TaskFn fn, void *ctx)
{
    const std::size_t budget = matThreads();
    if (budget >= 2 && count >= 2 && work >= 2 * kMatSplitMinWork) {
        matPool(budget).parallelFor(0, count,
                                    [&](std::size_t t) { fn(ctx, t); });
        return;
    }
    // Inline, with the pool's exception rule.
    std::exception_ptr first;
    for (std::size_t t = 0; t < count; ++t) {
        try {
            fn(ctx, t);
        } catch (...) {
            if (!first)
                first = std::current_exception();
        }
    }
    if (first)
        std::rethrow_exception(first);
}

} // namespace detail

void
matmulInto(Matrix &c, const Matrix &a, const Matrix &b)
{
    assert(a.cols() == b.rows());
    assert(&c != &a && &c != &b);
    const std::size_t m = a.rows(), k = a.cols(), n = b.cols();
    c.resizeUninit(m, n);
    float *cd = c.data();
    const float *ad = a.data();
    const float *bd = b.data();
    const MatTier tier = detail::matTier();
    parallelBlocks(m, kMatTileRows, m * n * k,
                   [=](std::size_t i0, std::size_t i1) {
                       matmulRows(tier, cd + i0 * n, ad + i0 * k, bd,
                                  i1 - i0, k, n);
                   });
}

void
matmulTransBInto(Matrix &c, const Matrix &a, const Matrix &b)
{
    assert(a.cols() == b.cols());
    assert(&c != &a && &c != &b);
    dotGemm(c, a, b, nullptr, false);
}

void
matmulTransAInto(Matrix &c, const Matrix &a, const Matrix &b)
{
    assert(a.rows() == b.rows());
    assert(&c != &a && &c != &b);
    const std::size_t k = a.rows(), m = a.cols(), n = b.cols();
    c.resizeUninit(m, n);
    float *cd = c.data();
    const float *ad = a.data();
    const float *bd = b.data();
    const MatTier tier = detail::matTier();
    parallelBlocks(m, kMatTileRows, m * n * k,
                   [=](std::size_t i0, std::size_t i1) {
                       matmulTransARows(tier, cd, ad, bd, k, m, n, i0, i1);
                   });
}

void
linearForwardInto(Matrix &y, const Matrix &x, const Matrix &w,
                  const std::vector<float> &bias, bool relu)
{
    assert(x.cols() == w.cols());
    assert(bias.size() == w.rows());
    assert(&y != &x && &y != &w);
    dotGemm(y, x, w, bias.data(), relu);
}

void
linearForwardRowsInto(MatTier tier, Matrix &y, const Matrix &x,
                      const Matrix &w, const std::vector<float> &bias,
                      bool relu, std::size_t r0, std::size_t r1)
{
    const std::size_t n = w.rows(), k = x.cols();
    assert(k == w.cols() && bias.size() == n);
    assert(y.rows() == x.rows() && y.cols() == n && r1 <= x.rows());
    assert(&y != &x && &y != &w);
    if (r0 < r1)
        dotGemmRows(tier, y.rowPtr(r0), x.rowPtr(r0), w.data(), r1 - r0, n,
                    k, bias.data(), relu);
}

void
matmulRowsInto(MatTier tier, Matrix &c, const Matrix &a, const Matrix &b,
               std::size_t r0, std::size_t r1)
{
    const std::size_t k = a.cols(), n = b.cols();
    assert(k == b.rows());
    assert(c.rows() == a.rows() && c.cols() == n && r1 <= a.rows());
    assert(&c != &a && &c != &b);
    if (r0 < r1)
        matmulRows(tier, c.rowPtr(r0), a.rowPtr(r0), b.data(), r1 - r0, k,
                   n);
}

void
matmulTransARowsInto(MatTier tier, Matrix &c, const Matrix &a,
                     const Matrix &b, std::size_t r0, std::size_t r1)
{
    const std::size_t k = a.rows(), m = a.cols(), n = b.cols();
    assert(k == b.rows());
    assert(c.rows() == m && c.cols() == n && r1 <= m);
    assert(&c != &a && &c != &b);
    if (r0 < r1)
        matmulTransARows(tier, c.data(), a.data(), b.data(), k, m, n, r0,
                         r1);
}

std::size_t
countNonzeros(const Matrix &m)
{
    const float *x = m.data();
    const std::size_t n = m.size();
    std::size_t i = 0, count = 0;
#if AUTOCAT_MAT_X86
    if (detail::matTier() != MatTier::Portable)
        i = countNonzerosAvx2(x, n, count);
#endif
    for (; i < n; ++i)
        count += x[i] != 0.0f;
    return count;
}

void
transposeInto(Matrix &t, const Matrix &m)
{
    assert(&t != &m);
    const std::size_t rows = m.rows(), cols = m.cols();
    t.resizeUninit(cols, rows);
    std::size_t i = 0;
#if AUTOCAT_MAT_X86
    if (detail::matTier() != MatTier::Portable)
        i = transposeAvx2(t.data(), rows, m.data(), cols, rows, cols);
#endif
    for (; i < rows; ++i)
        for (std::size_t j = 0; j < cols; ++j)
            t(j, i) = m(i, j);
}

void
linearForwardSkipRowsInto(MatTier tier, Matrix &y, const Matrix &x,
                          const Matrix &w, const Matrix &wt,
                          const std::vector<float> &bias, bool relu,
                          std::size_t r0, std::size_t r1)
{
    const std::size_t n = w.rows(), k = x.cols();
    assert(wt.rows() == k && wt.cols() == n);
    (void)wt;
#if AUTOCAT_MAT_X86
    if (tier != MatTier::Portable) {
        assert(k == w.cols() && bias.size() == n);
        assert(y.rows() == x.rows() && y.cols() == n && r1 <= x.rows());
        assert(&y != &x && &y != &w && &y != &wt);
        std::uint32_t *idx = t_skip.indices(k);
        // Rows that do not pay for skipping run the dense kernel in runs,
        // so runs of 4+ rows keep its register tiles.
        std::size_t dense = r0;
        for (std::size_t r = r0; r < r1; ++r) {
            const std::size_t nnz = nonzeroIndicesAvx2(x.rowPtr(r), k, idx);
            if (!zeroSkipPays(nnz, k))
                continue;
            linearForwardRowsInto(tier, y, x, w, bias, relu, dense, r);
            skipRowAvx2(y.rowPtr(r), x.rowPtr(r), wt.data(), n, k, idx, nnz,
                        bias.data(), relu);
            dense = r + 1;
        }
        linearForwardRowsInto(tier, y, x, w, bias, relu, dense, r1);
        return;
    }
#endif
    linearForwardRowsInto(tier, y, x, w, bias, relu, r0, r1);
}

void
matmulTransASkipRowsInto(MatTier tier, Matrix &c, const Matrix &a,
                         const Matrix &b, std::size_t r0, std::size_t r1)
{
    const std::size_t k = a.rows(), m = a.cols(), n = b.cols();
    assert(k == b.rows());
    assert(c.rows() == m && c.cols() == n && r1 <= m);
    assert(&c != &a && &c != &b);
#if AUTOCAT_MAT_X86
    if (tier != MatTier::Portable) {
        if (r0 < r1)
            matmulTransASkipAvx2(c.data(), a.data(), b.data(), k, m, n, r0,
                                 r1);
        return;
    }
#endif
    matmulTransARowsInto(tier, c, a, b, r0, r1);
}

Matrix
matmul(const Matrix &a, const Matrix &b)
{
    Matrix c;
    matmulInto(c, a, b);
    return c;
}

Matrix
matmulTransB(const Matrix &a, const Matrix &b)
{
    Matrix c;
    matmulTransBInto(c, a, b);
    return c;
}

Matrix
matmulTransA(const Matrix &a, const Matrix &b)
{
    Matrix c;
    matmulTransAInto(c, a, b);
    return c;
}

namespace {

/**
 * One row of the softmax kernels: max, exp-sum and normalization in
 * sequential order, restricted to the entries whose mask byte is 1 when
 * @p m is not null. Adding a masked entry's 0.0 to the exp-sum is the
 * identity, so an all-1 mask reproduces the unmasked arithmetic bit for
 * bit. Returns false, touching nothing, when the mask has no valid
 * entry.
 */
bool
softmaxEntropyRow(double *p, double *lp, double &entropy, const float *in,
                  const std::uint8_t *m, std::size_t cols)
{
    // The max over the valid entries keeps every exp argument
    // <= max(0, in[c] + 1e30), so nothing overflows.
    double maxv = -1e30;
    std::size_t valid = 0;
    for (std::size_t c = 0; c < cols; ++c) {
        if (!m || m[c]) {
            maxv = std::max(maxv, static_cast<double>(in[c]));
            ++valid;
        }
    }
    if (valid == 0)
        return false;
    double sum = 0.0;
    for (std::size_t c = 0; c < cols; ++c) {
        p[c] = !m || m[c] ? std::exp(static_cast<double>(in[c]) - maxv)
                          : 0.0;
        sum += p[c];
    }
    double ent = 0.0;
    for (std::size_t c = 0; c < cols; ++c) {
        p[c] /= sum;
        // log(max(p, 1e-12)) is log(p) wherever the entropy takes it.
        // Masked entries are exactly 0 / sum == 0.0 here, so they fail
        // the guard and never reach a 0 * log(0).
        const double l = std::log(std::max(p[c], 1e-12));
        if (lp)
            lp[c] = l;
        if (p[c] > 1e-12)
            ent -= p[c] * l;
    }
    entropy = ent;
    return true;
}

} // namespace

void
softmaxEntropyRowsInto(double *probs, double *logps, double *entropies,
                       const Matrix &logits, std::size_t r0, std::size_t r1)
{
    const std::size_t cols = logits.cols();
    assert(cols >= 1 && r1 <= logits.rows());
    for (std::size_t r = r0; r < r1; ++r)
        softmaxEntropyRow(probs + r * cols, logps ? logps + r * cols : nullptr,
                          entropies[r], logits.rowPtr(r), nullptr, cols);
}

void
softmaxEntropyRowsMaskedInto(double *probs, double *logps,
                             double *entropies, const Matrix &logits,
                             const std::uint8_t *masks, std::size_t r0,
                             std::size_t r1)
{
    assert(masks != nullptr);
    const std::size_t cols = logits.cols();
    assert(cols >= 1 && r1 <= logits.rows());
    for (std::size_t r = r0; r < r1; ++r) {
        if (!softmaxEntropyRow(probs + r * cols,
                               logps ? logps + r * cols : nullptr,
                               entropies[r], logits.rowPtr(r),
                               masks + r * cols, cols)) {
            throw std::domain_error(
                "softmaxEntropyRowsMaskedInto: row " + std::to_string(r) +
                " masks out every action");
        }
    }
}

void
softmaxEntropyRowsInto(std::vector<double> &probs,
                       std::vector<double> &entropies, const Matrix &logits)
{
    probs.resize(logits.rows() * logits.cols());
    entropies.resize(logits.rows());
    softmaxEntropyRowsInto(probs.data(), nullptr, entropies.data(), logits,
                           0, logits.rows());
}

void
softmaxEntropyRowsMaskedInto(std::vector<double> &probs,
                             std::vector<double> &entropies,
                             const Matrix &logits,
                             const std::uint8_t *masks)
{
    probs.resize(logits.rows() * logits.cols());
    entropies.resize(logits.rows());
    softmaxEntropyRowsMaskedInto(probs.data(), nullptr, entropies.data(),
                                 logits, masks, 0, logits.rows());
}

void
addRowVector(Matrix &m, const std::vector<float> &bias)
{
    assert(bias.size() == m.cols());
    for (std::size_t r = 0; r < m.rows(); ++r) {
        float *row = m.rowPtr(r);
        for (std::size_t c = 0; c < m.cols(); ++c)
            row[c] += bias[c];
    }
}

void
addColSums(std::vector<float> &acc, const Matrix &m)
{
    addColSums(acc, m, 0, m.cols());
}

void
addColSums(std::vector<float> &acc, const Matrix &m, std::size_t c0,
           std::size_t c1)
{
    assert(acc.size() == m.cols() && c1 <= m.cols());
    // Column blocks held on the stack: each column is summed over the
    // rows in order from 0 and only then added, with no temporary.
    constexpr std::size_t kBlock = 64;
    for (std::size_t b0 = c0; b0 < c1; b0 += kBlock) {
        const std::size_t width = std::min(kBlock, c1 - b0);
        float sums[kBlock] = {};
        for (std::size_t r = 0; r < m.rows(); ++r) {
            const float *row = m.rowPtr(r) + b0;
            for (std::size_t j = 0; j < width; ++j)
                sums[j] += row[j];
        }
        for (std::size_t j = 0; j < width; ++j)
            acc[b0 + j] += sums[j];
    }
}

} // namespace autocat
