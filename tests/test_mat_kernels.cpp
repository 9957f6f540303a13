/**
 * @file
 * Correctness tests for the blocked/SIMD matmul kernels (rl/mat.hpp)
 * against a naive triple-loop reference, across shapes chosen to hit
 * every tile-edge path: non-multiple-of-tile M (4-row blocks), N
 * (4/16-column blocks), and K (8/16-lane vector steps), plus the
 * fused bias+ReLU path, the row-purity guarantee the double-buffered
 * collector relies on, and the multi-core partition's bitwise
 * invariance.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "rl/actor_critic.hpp"
#include "rl/mat.hpp"
#include "util/rng.hpp"

namespace autocat {
namespace {

Matrix
randomMatrix(std::size_t rows, std::size_t cols, Rng &rng)
{
    Matrix m(rows, cols);
    for (std::size_t i = 0; i < m.size(); ++i)
        m.data()[i] = static_cast<float>(rng.gaussian());
    return m;
}

/** Naive reference C = A * B. */
Matrix
refMatmul(const Matrix &a, const Matrix &b)
{
    Matrix c(a.rows(), b.cols());
    for (std::size_t i = 0; i < a.rows(); ++i)
        for (std::size_t j = 0; j < b.cols(); ++j) {
            double s = 0.0;
            for (std::size_t p = 0; p < a.cols(); ++p)
                s += static_cast<double>(a(i, p)) *
                     static_cast<double>(b(p, j));
            c(i, j) = static_cast<float>(s);
        }
    return c;
}

Matrix
transpose(const Matrix &m)
{
    Matrix t(m.cols(), m.rows());
    for (std::size_t r = 0; r < m.rows(); ++r)
        for (std::size_t c = 0; c < m.cols(); ++c)
            t(c, r) = m(r, c);
    return t;
}

void
expectNear(const Matrix &got, const Matrix &want, double tol)
{
    ASSERT_EQ(got.rows(), want.rows());
    ASSERT_EQ(got.cols(), want.cols());
    for (std::size_t i = 0; i < got.size(); ++i) {
        const double w = want.data()[i];
        EXPECT_NEAR(got.data()[i], w, tol * (1.0 + std::abs(w)))
            << "at flat index " << i;
    }
}

/**
 * Shapes straddling the register-tile boundaries: the dot kernel tiles
 * j by 4 and k by 8/16, the broadcast kernels tile i by 4 and j by 16.
 */
struct Shape
{
    std::size_t m, k, n;
};

const Shape kOddShapes[] = {
    {1, 1, 1},    {1, 7, 1},    {2, 8, 3},     {3, 15, 5},
    {4, 16, 16},  {5, 17, 17},  {7, 23, 19},   {8, 24, 31},
    {9, 33, 33},  {13, 40, 6},  {16, 64, 48},  {17, 65, 49},
    {1, 256, 128}, {6, 129, 10},
};

TEST(MatKernels, MatmulMatchesReferenceOnOddShapes)
{
    Rng rng(21);
    for (const Shape &s : kOddShapes) {
        const Matrix a = randomMatrix(s.m, s.k, rng);
        const Matrix b = randomMatrix(s.k, s.n, rng);
        expectNear(matmul(a, b), refMatmul(a, b), 1e-4);
    }
}

TEST(MatKernels, MatmulTransBMatchesReferenceOnOddShapes)
{
    Rng rng(22);
    for (const Shape &s : kOddShapes) {
        const Matrix a = randomMatrix(s.m, s.k, rng);
        const Matrix b = randomMatrix(s.n, s.k, rng);  // transposed operand
        expectNear(matmulTransB(a, b), refMatmul(a, transpose(b)), 1e-4);
    }
}

TEST(MatKernels, MatmulTransAMatchesReferenceOnOddShapes)
{
    Rng rng(23);
    for (const Shape &s : kOddShapes) {
        const Matrix a = randomMatrix(s.k, s.m, rng);  // transposed operand
        const Matrix b = randomMatrix(s.k, s.n, rng);
        expectNear(matmulTransA(a, b), refMatmul(transpose(a), b), 1e-4);
    }
}

TEST(MatKernels, LinearForwardFusesBiasAndRelu)
{
    Rng rng(24);
    for (const Shape &s : kOddShapes) {
        const Matrix x = randomMatrix(s.m, s.k, rng);
        const Matrix w = randomMatrix(s.n, s.k, rng);
        std::vector<float> bias(s.n);
        for (auto &v : bias)
            v = static_cast<float>(rng.gaussian());

        Matrix want = refMatmul(x, transpose(w));
        for (std::size_t i = 0; i < want.rows(); ++i)
            for (std::size_t j = 0; j < want.cols(); ++j)
                want(i, j) += bias[j];

        Matrix plain;
        linearForwardInto(plain, x, w, bias, /*relu=*/false);
        expectNear(plain, want, 1e-4);

        for (std::size_t i = 0; i < want.size(); ++i)
            if (want.data()[i] < 0.0f)
                want.data()[i] = 0.0f;
        Matrix relu;
        linearForwardInto(relu, x, w, bias, /*relu=*/true);
        expectNear(relu, want, 1e-4);
    }
}

TEST(MatKernels, IntoVariantsReuseDestinationStorage)
{
    Rng rng(25);
    const Matrix a = randomMatrix(5, 12, rng);
    const Matrix b = randomMatrix(12, 9, rng);
    Matrix c(5, 9);  // pre-sized: resizeUninit must be a no-op
    const float *before = c.data();
    matmulInto(c, a, b);
    EXPECT_EQ(c.data(), before);
    expectNear(c, refMatmul(a, b), 1e-4);

    // Re-running into the same destination overwrites, not accumulates.
    matmulInto(c, a, b);
    expectNear(c, refMatmul(a, b), 1e-4);
}

/**
 * Row purity: computing a batch in two arbitrary row-splits must be
 * BITWISE identical to computing it whole. The double-buffered PPO
 * collector forwards stream groups separately and relies on this for
 * its off ≡ on reproducibility guarantee.
 */
TEST(MatKernels, LinearForwardIsRowPureUnderBatchSplits)
{
    Rng rng(26);
    const std::size_t k = 37, n = 11;
    const Matrix w = randomMatrix(n, k, rng);
    std::vector<float> bias(n);
    for (auto &v : bias)
        v = static_cast<float>(rng.gaussian());

    const Matrix x = randomMatrix(9, k, rng);
    Matrix full;
    linearForwardInto(full, x, w, bias, /*relu=*/true);

    for (std::size_t split = 1; split < x.rows(); ++split) {
        Matrix lo(split, k), hi(x.rows() - split, k);
        std::memcpy(lo.data(), x.data(), lo.size() * sizeof(float));
        std::memcpy(hi.data(), x.rowPtr(split), hi.size() * sizeof(float));
        Matrix ylo, yhi;
        linearForwardInto(ylo, lo, w, bias, /*relu=*/true);
        linearForwardInto(yhi, hi, w, bias, /*relu=*/true);
        EXPECT_EQ(0, std::memcmp(full.data(), ylo.data(),
                                 ylo.size() * sizeof(float)))
            << "split at " << split;
        EXPECT_EQ(0, std::memcmp(full.rowPtr(split), yhi.data(),
                                 yhi.size() * sizeof(float)))
            << "split at " << split;
    }
}

/** The same invariant end-to-end through the policy network. */
TEST(MatKernels, ActorCriticForwardNoGradIsRowPure)
{
    Rng rng(27);
    ActorCritic net(24, 6, 32, 2, rng);
    Rng orng(28);
    Matrix obs = randomMatrix(7, 24, orng);

    AcOutput full;
    net.forwardNoGrad(obs, full);

    const std::size_t split = 3;
    Matrix lo(split, 24), hi(obs.rows() - split, 24);
    std::memcpy(lo.data(), obs.data(), lo.size() * sizeof(float));
    std::memcpy(hi.data(), obs.rowPtr(split), hi.size() * sizeof(float));
    AcOutput out_lo, out_hi;
    net.forwardNoGrad(lo, out_lo);
    EXPECT_EQ(0, std::memcmp(full.logits.data(), out_lo.logits.data(),
                             out_lo.logits.size() * sizeof(float)));
    net.forwardNoGrad(hi, out_hi);
    EXPECT_EQ(0, std::memcmp(full.logits.rowPtr(split),
                             out_hi.logits.data(),
                             out_hi.logits.size() * sizeof(float)));
    for (std::size_t r = 0; r < split; ++r)
        EXPECT_EQ(full.values[r], out_lo.values[r]);
    for (std::size_t r = split; r < obs.rows(); ++r)
        EXPECT_EQ(full.values[r], out_hi.values[r - split]);
}

/** Gaussian entries with about a third zeroed, like ReLU activations
 *  (the portable kernels skip zero multiplicands). */
Matrix
sparseMatrix(std::size_t rows, std::size_t cols, Rng &rng)
{
    Matrix m = randomMatrix(rows, cols, rng);
    for (std::size_t i = 0; i < m.size(); ++i)
        if (rng.uniformInt(3) == 0)
            m.data()[i] = 0.0f;
    return m;
}

bool
bitwiseEqual(const Matrix &a, const Matrix &b)
{
    return a.rows() == b.rows() && a.cols() == b.cols() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

/**
 * Partition invariance: at every thread budget, each entry point gives
 * exactly the single-threaded bits. k is sized so that every shape
 * with at least kMatSplitMinRows output rows carries 4 *
 * kMatSplitMinWork multiply-adds and splits into as many blocks as the
 * budget and its row tiles allow; smaller shapes check the inline
 * path. ctest runs this suite once per backend.
 */
TEST(MatKernels, PartitionedKernelsMatchSerialBitwise)
{
    const std::size_t ms[] = {1, 3, 4, 5, 7, 9, 127, 129, 500};
    const std::size_t ns[] = {1, 6, 16, 128, 251};
    Rng rng(29);
    for (const std::size_t m : ms) {
        for (const std::size_t n : ns) {
            const std::size_t k =
                std::max<std::size_t>(
                    37, (4 * kMatSplitMinWork + m * n - 1) / (m * n));
            const Matrix a = sparseMatrix(m, k, rng);
            const Matrix at = sparseMatrix(k, m, rng);
            const Matrix b = randomMatrix(k, n, rng);
            const Matrix bt = randomMatrix(n, k, rng);
            std::vector<float> bias(n);
            for (auto &v : bias)
                v = static_cast<float>(rng.gaussian());

            const auto products = [&](std::size_t threads) {
                const MatThreadScope budget(threads);
                std::vector<Matrix> out(4);
                matmulInto(out[0], a, b);
                matmulTransBInto(out[1], a, bt);
                matmulTransAInto(out[2], at, b);
                linearForwardInto(out[3], a, bt, bias, /*relu=*/true);
                return out;
            };
            const std::vector<Matrix> serial = products(1);
            for (std::size_t t = 2; t <= 4; ++t) {
                const std::vector<Matrix> split = products(t);
                const char *names[] = {"matmulInto", "matmulTransBInto",
                                       "matmulTransAInto",
                                       "linearForwardInto"};
                for (std::size_t e = 0; e < 4; ++e)
                    EXPECT_TRUE(bitwiseEqual(split[e], serial[e]))
                        << names[e] << " m=" << m << " n=" << n
                        << " k=" << k << " threads=" << t;
            }
        }
    }
}

TEST(MatKernels, BackendNameIsReported)
{
    const std::string backend = matmulBackend();
    EXPECT_TRUE(backend == "avx2+fma" || backend == "portable");
}

} // namespace
} // namespace autocat
