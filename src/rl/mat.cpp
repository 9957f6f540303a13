#include "rl/mat.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
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
 * Portable scalar kernels. These are the reference semantics for the
 * SIMD path and the fallback on non-x86 hosts (or when
 * AUTOCAT_MAT_PORTABLE=1).
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
 * AVX2+FMA kernels. Compiled for every x86-64 build via the function
 * target attribute and selected at runtime (useAvx2() below), so the
 * translation unit itself needs no -mavx2 flag and the binary still
 * runs on pre-AVX2 hardware.
 *
 * Row purity contract: every c(i,j) produced by the dot-product
 * kernels goes through dot8() — two 8-lane FMA accumulators walked in
 * 16-float steps, one fixed horizontal reduction, then a scalar tail.
 * The register tiling over j only interleaves *independent* (i,j)
 * accumulations; it never changes the order of operations within one,
 * so results are bitwise independent of the tile path taken and of the
 * batch size m.
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
    float s = hsum8(_mm256_add_ps(acc0, acc1));
    for (; p < k; ++p)
        s += a[p] * b[p];
    return s;
}

/**
 * Four interleaved dot8() accumulations against consecutive rows of B
 * — identical per-output arithmetic, 8 independent FMA chains for ILP.
 */
__attribute__((target("avx2,fma"))) inline void
dot8x4(const float *a, const float *b0, const float *b1, const float *b2,
       const float *b3, std::size_t k, float out[4])
{
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
    out[0] = hsum8(_mm256_add_ps(a00, a01));
    out[1] = hsum8(_mm256_add_ps(a10, a11));
    out[2] = hsum8(_mm256_add_ps(a20, a21));
    out[3] = hsum8(_mm256_add_ps(a30, a31));
    for (; p < k; ++p) {
        out[0] += a[p] * b0[p];
        out[1] += a[p] * b1[p];
        out[2] += a[p] * b2[p];
        out[3] += a[p] * b3[p];
    }
}

__attribute__((target("avx2,fma"))) void
dotGemmAvx2(float *c, const float *a, const float *b, std::size_t m,
            std::size_t n, std::size_t k, const float *bias, bool relu)
{
    for (std::size_t i = 0; i < m; ++i) {
        const float *arow = a + i * k;
        float *crow = c + i * n;
        std::size_t j = 0;
        for (; j + 4 <= n; j += 4) {
            float out[4];
            dot8x4(arow, b + j * k, b + (j + 1) * k, b + (j + 2) * k,
                   b + (j + 3) * k, k, out);
            for (int t = 0; t < 4; ++t) {
                float v = bias ? out[t] + bias[j + t] : out[t];
                if (relu && v < 0.0f)
                    v = 0.0f;
                crow[j + t] = v;
            }
        }
        for (; j < n; ++j) {
            float v = dot8(arow, b + j * k, k);
            if (bias)
                v += bias[j];
            if (relu && v < 0.0f)
                v = 0.0f;
            crow[j] = v;
        }
    }
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
    std::size_t i = 0;
    for (; i + 4 <= m; i += 4) {
        std::size_t j = 0;
        for (; j + 16 <= n; j += 16)
            mmTileAvx2<4>(c, a, b, i, j, k, n);
        for (; j < n; ++j) {
            for (int r = 0; r < 4; ++r) {
                const float *arow = a + (i + static_cast<std::size_t>(r)) * k;
                float s = 0.0f;
                for (std::size_t p = 0; p < k; ++p)
                    s += arow[p] * b[p * n + j];
                c[(i + static_cast<std::size_t>(r)) * n + j] = s;
            }
        }
    }
    for (; i < m; ++i) {
        std::size_t j = 0;
        for (; j + 16 <= n; j += 16)
            mmTileAvx2<1>(c, a, b, i, j, k, n);
        for (; j < n; ++j) {
            const float *arow = a + i * k;
            float s = 0.0f;
            for (std::size_t p = 0; p < k; ++p)
                s += arow[p] * b[p * n + j];
            c[i * n + j] = s;
        }
    }
}

/**
 * Broadcast-FMA tile for C = A^T * B (A: k x m): same register block,
 * A walked column-wise.
 */
template <int MR>
__attribute__((target("avx2,fma"))) inline void
mmTransATileAvx2(float *c, const float *a, const float *b, std::size_t i0,
                 std::size_t j0, std::size_t k, std::size_t m,
                 std::size_t n)
{
    __m256 acc[MR][2];
    for (int r = 0; r < MR; ++r)
        acc[r][0] = acc[r][1] = _mm256_setzero_ps();
    for (std::size_t p = 0; p < k; ++p) {
        const float *brow = b + p * n + j0;
        const __m256 b0 = _mm256_loadu_ps(brow);
        const __m256 b1 = _mm256_loadu_ps(brow + 8);
        const float *acol = a + p * m + i0;
        for (int r = 0; r < MR; ++r) {
            const __m256 av = _mm256_set1_ps(acol[r]);
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

/**
 * Rows [i0, i1) of C = A^T * B. With i0 a multiple of 4 and i1 either
 * a multiple of 4 or m, every row takes the tile path it takes in the
 * full [0, m) call, so its bits do not depend on the range.
 */
__attribute__((target("avx2,fma"))) void
matmulTransAAvx2(float *c, const float *a, const float *b, std::size_t k,
                 std::size_t m, std::size_t n, std::size_t i0,
                 std::size_t i1)
{
    std::size_t i = i0;
    for (; i + 4 <= i1; i += 4) {
        std::size_t j = 0;
        for (; j + 16 <= n; j += 16)
            mmTransATileAvx2<4>(c, a, b, i, j, k, m, n);
        for (; j < n; ++j) {
            for (int r = 0; r < 4; ++r) {
                float s = 0.0f;
                for (std::size_t p = 0; p < k; ++p)
                    s += a[p * m + i + static_cast<std::size_t>(r)] *
                         b[p * n + j];
                c[(i + static_cast<std::size_t>(r)) * n + j] = s;
            }
        }
    }
    for (; i < i1; ++i) {
        std::size_t j = 0;
        for (; j + 16 <= n; j += 16)
            mmTransATileAvx2<1>(c, a, b, i, j, k, m, n);
        for (; j < n; ++j) {
            float s = 0.0f;
            for (std::size_t p = 0; p < k; ++p)
                s += a[p * m + i] * b[p * n + j];
            c[i * n + j] = s;
        }
    }
}

#endif // AUTOCAT_MAT_X86

/** One-time backend choice: AVX2+FMA when the CPU has both. */
bool
useAvx2()
{
#if AUTOCAT_MAT_X86
    static const bool use = [] {
        const char *force = std::getenv("AUTOCAT_MAT_PORTABLE");
        if (force && force[0] == '1')
            return false;
        __builtin_cpu_init();
        return __builtin_cpu_supports("avx2") &&
               __builtin_cpu_supports("fma") != 0;
    }();
    return use;
#else
    return false;
#endif
}

/*
 * Backend dispatch over a row range. The row-independent kernels take
 * a block as offset pointers and a row count; matmulTransA takes the
 * range itself because a block of its output rows reads strided
 * columns of A.
 */

/** Row-tile height of the matmul kernels: partition boundaries are
 *  multiples of it (see rl/mat.hpp). */
constexpr std::size_t kMatTileRows = 4;

void
matmulRows(float *c, const float *a, const float *b, std::size_t m,
           std::size_t k, std::size_t n)
{
#if AUTOCAT_MAT_X86
    if (useAvx2()) {
        matmulAvx2(c, a, b, m, k, n);
        return;
    }
#endif
    matmulPortable(c, a, b, m, k, n);
}

void
dotGemmRows(float *c, const float *a, const float *b, std::size_t m,
            std::size_t n, std::size_t k, const float *bias, bool relu)
{
#if AUTOCAT_MAT_X86
    if (useAvx2()) {
        dotGemmAvx2(c, a, b, m, n, k, bias, relu);
        return;
    }
#endif
    dotGemmPortable(c, a, b, m, n, k, bias, relu);
}

void
matmulTransARows(float *c, const float *a, const float *b, std::size_t k,
                 std::size_t m, std::size_t n, std::size_t i0,
                 std::size_t i1)
{
#if AUTOCAT_MAT_X86
    if (useAvx2()) {
        matmulTransAAvx2(c, a, b, k, m, n, i0, i1);
        return;
    }
#endif
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
    parallelBlocks(m, kMatTileRows, m * n * k,
                   [=](std::size_t i0, std::size_t i1) {
                       dotGemmRows(cd + i0 * n, ad + i0 * k, bd, i1 - i0, n,
                                   k, bias, relu);
                   });
}

thread_local std::size_t t_mat_threads = 0;  ///< 0 = affinityCpuCount()
thread_local std::unique_ptr<TaskPool> t_mat_pool;

} // namespace

const char *
matmulBackend()
{
    return useAvx2() ? "avx2+fma" : "portable";
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
    // Sized by the budget, not by this call's block count, so calls of
    // different shapes share one pool; rebuilt only when the budget
    // changes.
    if (!t_mat_pool || t_mat_pool->numThreads() != budget) {
        t_mat_pool.reset();
        t_mat_pool = std::make_unique<TaskPool>(budget);
    }
    const std::size_t per = (tiles + blocks - 1) / blocks * align;
    const std::size_t count = (n + per - 1) / per;
    t_mat_pool->parallelFor(0, count, [&](std::size_t b) {
        fn(ctx, b * per, std::min(n, (b + 1) * per));
    });
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
    parallelBlocks(m, kMatTileRows, m * n * k,
                   [=](std::size_t i0, std::size_t i1) {
                       matmulRows(cd + i0 * n, ad + i0 * k, bd, i1 - i0, k,
                                  n);
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
    parallelBlocks(m, kMatTileRows, m * n * k,
                   [=](std::size_t i0, std::size_t i1) {
                       matmulTransARows(cd, ad, bd, k, m, n, i0, i1);
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

void
softmaxEntropyRowsInto(std::vector<double> &probs,
                       std::vector<double> &entropies,
                       const Matrix &logits)
{
    const std::size_t rows = logits.rows();
    const std::size_t cols = logits.cols();
    assert(cols >= 1);
    probs.resize(rows * cols);
    entropies.resize(rows);

    for (std::size_t r = 0; r < rows; ++r) {
        const float *in = logits.rowPtr(r);
        double *p = probs.data() + r * cols;

        // Identical per-row math (and order) to
        // ActorCritic::softmaxRow: sequential max, sequential exp-sum,
        // then normalization — bitwise-equal results, zero allocations.
        double maxv = -1e30;
        for (std::size_t c = 0; c < cols; ++c)
            maxv = std::max(maxv, static_cast<double>(in[c]));
        double sum = 0.0;
        for (std::size_t c = 0; c < cols; ++c) {
            p[c] = std::exp(static_cast<double>(in[c]) - maxv);
            sum += p[c];
        }
        double ent = 0.0;
        for (std::size_t c = 0; c < cols; ++c) {
            p[c] /= sum;
            if (p[c] > 1e-12)
                ent -= p[c] * std::log(p[c]);
        }
        entropies[r] = ent;
    }
}

void
softmaxEntropyRowsMaskedInto(std::vector<double> &probs,
                             std::vector<double> &entropies,
                             const Matrix &logits,
                             const std::uint8_t *masks)
{
    assert(masks != nullptr);
    const std::size_t rows = logits.rows();
    const std::size_t cols = logits.cols();
    assert(cols >= 1);
    probs.resize(rows * cols);
    entropies.resize(rows);

    for (std::size_t r = 0; r < rows; ++r) {
        const float *in = logits.rowPtr(r);
        const std::uint8_t *m = masks + r * cols;
        double *p = probs.data() + r * cols;

        // Same sequential max / exp-sum / normalize order as the
        // unmasked kernel, restricted to the valid support; an all-1
        // mask row reproduces the unmasked arithmetic bit for bit.
        // The max over the valid entries keeps every exp argument
        // <= max(0, in[c] + 1e30), so nothing overflows.
        double maxv = -1e30;
        std::size_t valid = 0;
        for (std::size_t c = 0; c < cols; ++c) {
            if (m[c]) {
                maxv = std::max(maxv, static_cast<double>(in[c]));
                ++valid;
            }
        }
        if (valid == 0) {
            throw std::domain_error(
                "softmaxEntropyRowsMaskedInto: row " +
                std::to_string(r) + " masks out every action");
        }
        double sum = 0.0;
        for (std::size_t c = 0; c < cols; ++c) {
            p[c] = m[c] ? std::exp(static_cast<double>(in[c]) - maxv)
                        : 0.0;
            sum += p[c];
        }
        double ent = 0.0;
        for (std::size_t c = 0; c < cols; ++c) {
            p[c] /= sum;
            // Masked entries are exactly 0 / sum == 0.0 here, so they
            // fail this guard and never reach a 0 * log(0).
            if (p[c] > 1e-12)
                ent -= p[c] * std::log(p[c]);
        }
        entropies[r] = ent;
    }
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
    assert(acc.size() == m.cols());
    // Column blocks held on the stack: each column is summed over the
    // rows in order from 0 and only then added, with no temporary.
    constexpr std::size_t kBlock = 64;
    for (std::size_t c0 = 0; c0 < m.cols(); c0 += kBlock) {
        const std::size_t width = std::min(kBlock, m.cols() - c0);
        float sums[kBlock] = {};
        for (std::size_t r = 0; r < m.rows(); ++r) {
            const float *row = m.rowPtr(r) + c0;
            for (std::size_t j = 0; j < width; ++j)
                sums[j] += row[j];
        }
        for (std::size_t j = 0; j < width; ++j)
            acc[c0 + j] += sums[j];
    }
}

} // namespace autocat
