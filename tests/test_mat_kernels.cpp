/**
 * @file
 * Correctness tests for the blocked/SIMD matmul kernels (rl/mat.hpp)
 * against a naive triple-loop reference, across shapes chosen to hit
 * every tile-edge path: non-multiple-of-tile M (4-row blocks), N
 * (4/16-column blocks), and K (8/16-lane vector steps), plus the
 * fused bias+ReLU path, the row-purity guarantee the multi-core row
 * partition relies on, that partition's bitwise invariance, bit
 * goldens of every kernel on every tier the host runs, and the
 * zero-skipping kernels' bit identity with the dense ones.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "rl/actor_critic.hpp"
#include "rl/adam.hpp"
#include "rl/mat.hpp"
#include "rl/nn.hpp"
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
 * BITWISE identical to computing it whole. The multi-core partition
 * forwards blocks of batch rows separately and relies on this to keep
 * the serial kernel's bits at every thread count.
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
 * path. ctest runs this suite once per backend, and an AVX-512 host
 * runs it on the AVX2 tier too.
 */
void
expectPartitionedKernelsMatchSerial()
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

/**
 * Kernel bit goldens. Every entry point runs over a seeded grid of
 * shapes that reaches each tile edge — k mod 8 = 0..7 on both sides of
 * the 16-float step, n mod 16 = 0..15 and n above 32, m in {1, 3, 4, 5,
 * 9, 500} — plus the Table V layers (251 -> 128 -> 128 -> 8 and the
 * value head), and each output's bytes are folded into a 64-bit FNV-1a
 * hash per kernel; reluBackwardInPlace and one Adam::step are hashed
 * the same way. The SIMD tiers share one set of hashes and the
 * portable backend has its own; a kernel change that moves any bit of
 * any output element moves its hash.
 */
std::uint64_t
fnv1a(const void *data, std::size_t bytes, std::uint64_t h)
{
    const auto *p = static_cast<const unsigned char *>(data);
    for (std::size_t i = 0; i < bytes; ++i) {
        h ^= p[i];
        h *= 0x100000001b3ull;
    }
    return h;
}

constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ull;

struct KernelBits
{
    std::uint64_t linear_relu = kFnvBasis;  ///< linearForwardInto, ReLU on
    std::uint64_t linear = kFnvBasis;       ///< linearForwardInto, ReLU off
    std::uint64_t trans_b = kFnvBasis;      ///< matmulTransBInto
    std::uint64_t trans_a = kFnvBasis;      ///< matmulTransAInto
    std::uint64_t matmul = kFnvBasis;       ///< matmulInto
    std::uint64_t relu_backward = kFnvBasis;  ///< reluBackwardInPlace
    std::uint64_t adam = kFnvBasis;  ///< Adam::step: params, m, v
};

/** Seeded operand source: Gaussian values with a quarter exact zeros
 *  (the portable kernels skip zero multiplicands), handed out as
 *  consecutive windows of one pool. */
class OperandPool
{
  public:
    OperandPool() : pool_(std::size_t{1} << 17)
    {
        Rng rng(0x9b175);
        for (float &v : pool_)
            v = rng.uniformInt(4) == 0 ? 0.0f
                                       : static_cast<float>(rng.gaussian());
    }

    Matrix
    next(std::size_t rows, std::size_t cols)
    {
        Matrix m(rows, cols);
        if (cursor_ + m.size() > pool_.size())
            cursor_ = (cursor_ * 7 + 1) % 4099;
        std::copy(pool_.begin() + static_cast<std::ptrdiff_t>(cursor_),
                  pool_.begin() +
                      static_cast<std::ptrdiff_t>(cursor_ + m.size()),
                  m.data());
        cursor_ += m.size() + 13;
        return m;
    }

    std::vector<float>
    vec(std::size_t n)
    {
        const Matrix m = next(1, n);
        return std::vector<float>(m.data(), m.data() + n);
    }

  private:
    std::vector<float> pool_;
    std::size_t cursor_ = 0;
};

void
hashMatrix(std::uint64_t &h, const Matrix &m)
{
    h = fnv1a(m.data(), m.size() * sizeof(float), h);
}

/** One (m, k, n) product shape of every GEMM entry point. */
void
hashGemms(KernelBits &bits, OperandPool &pool, std::size_t m, std::size_t k,
          std::size_t n)
{
    const Matrix x = pool.next(m, k);
    const Matrix w = pool.next(n, k);
    const std::vector<float> bias = pool.vec(n);
    Matrix c;
    linearForwardInto(c, x, w, bias, /*relu=*/true);
    hashMatrix(bits.linear_relu, c);
    linearForwardInto(c, x, w, bias, /*relu=*/false);
    hashMatrix(bits.linear, c);
    matmulTransBInto(c, x, w);
    hashMatrix(bits.trans_b, c);
    matmulTransAInto(c, pool.next(k, m), pool.next(k, n));
    hashMatrix(bits.trans_a, c);
    matmulInto(c, x, pool.next(k, n));
    hashMatrix(bits.matmul, c);
}

KernelBits
kernelBits()
{
    KernelBits bits;
    OperandPool pool;
    const std::size_t ms[] = {1, 3, 4, 5, 9, 500};
    std::vector<std::size_t> ks;
    for (std::size_t k = 1; k <= 24; ++k)
        ks.push_back(k);
    ks.push_back(37);
    ks.push_back(64);
    for (const std::size_t m : ms)
        for (const std::size_t k : ks)
            for (std::size_t n = 1; n <= 48; ++n)
                hashGemms(bits, pool, m, k, n);

    // Table V: the policy trunk 251 -> 128 -> 128, its 8 logits and the
    // value head, forward (k -> n) and backward (dW over the batch, dX).
    const std::size_t layers[][2] = {{251, 128}, {128, 128}, {128, 8},
                                     {128, 1}};
    for (const std::size_t m : {std::size_t{1}, std::size_t{4},
                                std::size_t{500}})
        for (const auto &l : layers) {
            hashGemms(bits, pool, m, l[0], l[1]);
            hashGemms(bits, pool, m, l[1], l[0]);
        }

    // ReLU backward: the mask includes -0.0f and NaN pre-activations.
    for (const std::size_t size : {std::size_t{1}, std::size_t{7},
                                   std::size_t{16}, std::size_t{33},
                                   std::size_t{500 * 128}}) {
        Matrix grad = pool.next(1, size);
        Matrix act = pool.next(1, size);
        for (std::size_t i = 0; i < size; i += 5)
            act.data()[i] = i % 2 ? -0.0f : std::nanf("");
        reluBackwardInPlace(grad, act);
        hashMatrix(bits.relu_backward, grad);
    }

    // One Adam step from a mid-training state, over blocks whose sizes
    // straddle every vector width and the step's partition.
    const std::size_t sizes[] = {1, 3, 4, 5, 7, 8, 9, 15, 16, 17,
                                 33, 128 * 251, 128, 128 * 128, 8 * 128, 8};
    std::vector<std::vector<float>> params, grads;
    std::vector<ParamBlock> blocks;
    Adam::State state;
    state.t = 7;
    for (const std::size_t size : sizes) {
        params.push_back(pool.vec(size));
        grads.push_back(pool.vec(size));
        state.m.push_back(pool.vec(size));
        std::vector<float> v = pool.vec(size);
        for (float &x : v)
            x = x * x;
        state.v.push_back(std::move(v));
    }
    for (std::size_t b = 0; b < params.size(); ++b)
        blocks.push_back({params[b].data(), grads[b].data(), sizes[b]});
    Adam adam(blocks, 3e-4);
    adam.setState(state);
    adam.step(blocks);
    const Adam::State after = adam.state();
    for (std::size_t b = 0; b < params.size(); ++b) {
        bits.adam = fnv1a(params[b].data(), sizes[b] * sizeof(float),
                          bits.adam);
        bits.adam = fnv1a(after.m[b].data(), sizes[b] * sizeof(float),
                          bits.adam);
        bits.adam = fnv1a(after.v[b].data(), sizes[b] * sizeof(float),
                          bits.adam);
    }
    return bits;
}

/** Captured from the kernels before the AVX-512 tier and the pinned
 *  tails landed. */
constexpr KernelBits kSimdBits = {
    0xd7191ef06ef035b9ull, 0x28abd5fbd87e956aull, 0x1e058753d067cb03ull,
    0xec7d2b3462403eaaull, 0xcd91750016b8cc65ull, 0xa1392de06767ac58ull,
    0x59b372c40233257dull};
constexpr KernelBits kPortableBits = {
    0x8659e5d3ca18ff39ull, 0x683c0be807b42c2cull, 0xdc38ac720e0449cfull,
    0xa763540e82294d11ull, 0x883af5e3246af849ull, 0xa1392de06767ac58ull,
    0x59b372c40233257dull};

void
expectKernelBits(const KernelBits &want)
{
    const KernelBits got = kernelBits();
    const auto hex = [](std::uint64_t h) {
        char buf[24];
        std::snprintf(buf, sizeof buf, "0x%016llx",
                      static_cast<unsigned long long>(h));
        return std::string(buf);
    };
    EXPECT_EQ(hex(got.linear_relu), hex(want.linear_relu))
        << "linearForwardInto, ReLU on";
    EXPECT_EQ(hex(got.linear), hex(want.linear))
        << "linearForwardInto, ReLU off";
    EXPECT_EQ(hex(got.trans_b), hex(want.trans_b)) << "matmulTransBInto";
    EXPECT_EQ(hex(got.trans_a), hex(want.trans_a)) << "matmulTransAInto";
    EXPECT_EQ(hex(got.matmul), hex(want.matmul)) << "matmulInto";
    EXPECT_EQ(hex(got.relu_backward), hex(want.relu_backward))
        << "reluBackwardInPlace";
    EXPECT_EQ(hex(got.adam), hex(want.adam)) << "Adam::step";
}

/** Why this host cannot run @p tier, or "" when it can. */
std::string
missingTier(detail::MatTier tier)
{
    if (detail::hostMatTier() >= tier)
        return "";
    const char *force = std::getenv("AUTOCAT_MAT_PORTABLE");
    if (force && force[0] == '1')
        return "AUTOCAT_MAT_PORTABLE=1 selects the portable kernels";
    return tier == detail::MatTier::Avx512 ? "the CPU lacks AVX-512F"
                                           : "the CPU lacks AVX2 or FMA";
}

TEST(MatKernels, KernelBitsMatchGoldensOnAvx512Tier)
{
    const std::string missing = missingTier(detail::MatTier::Avx512);
    if (!missing.empty())
        GTEST_SKIP() << missing;
    const detail::MatTierScope tier(detail::MatTier::Avx512);
    ASSERT_STREQ(matmulBackend(), "avx512f");
    expectKernelBits(kSimdBits);
}

TEST(MatKernels, KernelBitsMatchGoldensOnAvx2Tier)
{
    const std::string missing = missingTier(detail::MatTier::Avx2);
    if (!missing.empty())
        GTEST_SKIP() << missing;
    const detail::MatTierScope tier(detail::MatTier::Avx2);
    ASSERT_STREQ(matmulBackend(), "avx2+fma");
    expectKernelBits(kSimdBits);
}

TEST(MatKernels, KernelBitsMatchGoldensOnPortableTier)
{
    const detail::MatTierScope tier(detail::MatTier::Portable);
    ASSERT_STREQ(matmulBackend(), "portable");
    expectKernelBits(kPortableBits);
}

TEST(MatKernels, PartitionedKernelsMatchSerialBitwise)
{
    expectPartitionedKernelsMatchSerial();
}

/** The partition test again on the AVX2 tier, which a host with
 *  AVX-512 does not run by default. */
TEST(MatKernels, PartitionedKernelsMatchSerialBitwiseOnAvx2Tier)
{
    const std::string missing = missingTier(detail::MatTier::Avx2);
    if (!missing.empty())
        GTEST_SKIP() << missing;
    const detail::MatTierScope tier(detail::MatTier::Avx2);
    expectPartitionedKernelsMatchSerial();
}

/**
 * Observation-like rows for the zero-skipping kernels over k features:
 * all zeros, all -0.0f, a lone nonzero at every feature (so every dot8
 * lane, the 8-float step and each position of the k mod 8 tail —
 * including the four rounded-then-added ones when k mod 8 >= 4 — is
 * reached alone), rows at about 10% and 35% nonzero (below the
 * crossover) and fully dense rows (above it), interleaved so that
 * skipped rows split runs of dense ones.
 */
Matrix
zeroSkipRows(std::size_t k, Rng &rng)
{
    std::vector<std::vector<float>> rows;
    rows.emplace_back(k, 0.0f);
    rows.emplace_back(k, -0.0f);
    for (std::size_t f = 0; f < k; ++f) {
        rows.emplace_back(k, f % 2 ? -0.0f : 0.0f);
        rows.back()[f] = static_cast<float>(rng.gaussian());
    }
    for (int i = 0; i < 12; ++i) {
        const std::uint64_t per_100 = i % 3 == 0 ? 100 : i % 3 == 1 ? 10 : 35;
        std::vector<float> row(k, 0.0f);
        for (float &v : row)
            if (rng.uniformInt(100) < per_100)
                v = i % 2 ? 1.0f : static_cast<float>(rng.gaussian());
        rows.push_back(std::move(row));
    }
    Matrix x(rows.size(), k);
    for (std::size_t r = 0; r < rows.size(); ++r)
        std::copy(rows[r].begin(), rows[r].end(), x.rowPtr(r));
    return x;
}

/**
 * The zero-skipping forward and weight gradient give the dense
 * kernels' bits on the calling thread's tier: k over every k mod 16
 * residue, below 8 and between 8 and 16, output widths on and off
 * multiples of 8 and 16, every row kind of zeroSkipRows(), and the
 * weight gradient's 32-row blocks cut at odd row ranges.
 */
void
expectZeroSkipMatchesDense()
{
    const detail::MatTier tier = detail::matTier();
    std::vector<std::size_t> ks;
    for (std::size_t k = 1; k <= 48; ++k)
        ks.push_back(k);
    ks.push_back(251);
    const std::size_t ns[] = {1, 5, 8, 13, 16, 17, 31, 40, 128};
    Rng rng(31);
    for (const std::size_t k : ks) {
        const Matrix x = zeroSkipRows(k, rng);
        for (const std::size_t n : ns) {
            const Matrix w = randomMatrix(n, k, rng);
            Matrix wt;
            transposeInto(wt, w);
            ASSERT_TRUE(bitwiseEqual(wt, transpose(w))) << "k=" << k;
            std::vector<float> bias(n);
            for (auto &v : bias)
                v = static_cast<float>(rng.gaussian());
            for (const bool relu : {false, true}) {
                Matrix dense, skip(x.rows(), n);
                linearForwardInto(dense, x, w, bias, relu);
                linearForwardSkipRowsInto(tier, skip, x, w, wt, bias, relu, 0,
                                          x.rows());
                EXPECT_TRUE(bitwiseEqual(skip, dense))
                    << "forward k=" << k << " n=" << n << " relu=" << relu;
            }

            const Matrix grad = randomMatrix(x.rows(), n, rng);
            Matrix dense, skip(n, k);
            matmulTransAInto(dense, grad, x);
            const std::size_t cut = std::min<std::size_t>(n, 5);
            matmulTransASkipRowsInto(tier, skip, grad, x, 0, cut);
            matmulTransASkipRowsInto(tier, skip, grad, x, cut, n);
            EXPECT_TRUE(bitwiseEqual(skip, dense))
                << "weight gradient k=" << k << " n=" << n;
        }
    }
}

TEST(MatKernels, ZeroSkipKernelsMatchDenseBitsOnAvx512Tier)
{
    const std::string missing = missingTier(detail::MatTier::Avx512);
    if (!missing.empty())
        GTEST_SKIP() << missing;
    const detail::MatTierScope tier(detail::MatTier::Avx512);
    expectZeroSkipMatchesDense();
}

TEST(MatKernels, ZeroSkipKernelsMatchDenseBitsOnAvx2Tier)
{
    const std::string missing = missingTier(detail::MatTier::Avx2);
    if (!missing.empty())
        GTEST_SKIP() << missing;
    const detail::MatTierScope tier(detail::MatTier::Avx2);
    expectZeroSkipMatchesDense();
}

/** The portable tier runs its dense kernels behind the zero-skipping
 *  entry points. */
TEST(MatKernels, ZeroSkipEntryPointsAreDenseOnPortableTier)
{
    const detail::MatTierScope tier(detail::MatTier::Portable);
    expectZeroSkipMatchesDense();
}

/** The one visible difference the rl/mat.hpp contract names: a zero
 *  feature against an infinite weight adds nothing when skipped, where
 *  the dense kernel's 0 * inf makes the output NaN. */
TEST(MatKernels, ZeroSkipIgnoresNonFiniteWeightsOfZeroFeatures)
{
    const std::string missing = missingTier(detail::MatTier::Avx2);
    if (!missing.empty())
        GTEST_SKIP() << missing;
    const std::size_t k = 40, n = 3;
    Matrix x(1, k), w(n, k);
    x(0, 7) = 2.0f;
    for (std::size_t j = 0; j < n; ++j)
        w(j, 7) = 0.5f;
    w(1, 20) = std::numeric_limits<float>::infinity();
    const std::vector<float> bias(n, 0.0f);
    Matrix wt, dense, skip(1, n);
    transposeInto(wt, w);
    linearForwardInto(dense, x, w, bias, false);
    linearForwardSkipRowsInto(detail::matTier(), skip, x, w, wt, bias, false,
                              0, 1);
    EXPECT_TRUE(std::isnan(dense(0, 1)));
    EXPECT_EQ(skip(0, 1), 1.0f);
    EXPECT_EQ(skip(0, 0), dense(0, 0));
}

TEST(MatKernels, CountNonzerosCountsNanButNotSignedZero)
{
    Matrix m(3, 11);
    m(0, 0) = 1.0f;
    m(1, 9) = -0.0f;
    m(2, 10) = std::nanf("");
    m(2, 3) = -2.0f;
    EXPECT_EQ(countNonzeros(m), 3u);
    const detail::MatTierScope tier(detail::MatTier::Portable);
    EXPECT_EQ(countNonzeros(m), 3u);
}

TEST(MatKernels, BackendNameIsReported)
{
    const std::string backend = matmulBackend();
    EXPECT_TRUE(backend == "avx512f" || backend == "avx2+fma" ||
                backend == "portable");
}

TEST(MatKernels, TierScopeCapsAndRestores)
{
    const std::string host = matmulBackend();
    {
        const detail::MatTierScope outer(detail::MatTier::Portable);
        EXPECT_EQ(detail::matTier(), detail::MatTier::Portable);
        {
            // A cap above the host's tier does not raise it.
            const detail::MatTierScope inner(detail::MatTier::Avx512);
            EXPECT_EQ(detail::matTier(), detail::hostMatTier());
        }
        EXPECT_STREQ(matmulBackend(), "portable");
    }
    EXPECT_EQ(matmulBackend(), host);
}

} // namespace
} // namespace autocat
