/**
 * @file
 * Unit tests for the RL substrate: matrix ops, layer gradients
 * (checked against finite differences), Adam, GAE, the categorical
 * distribution math, and the search baselines.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "rl/actor_critic.hpp"
#include "rl/adam.hpp"
#include "rl/mat.hpp"
#include "rl/nn.hpp"
#include "rl/rollout.hpp"
#include "rl/search.hpp"

namespace autocat {
namespace {

// --------------------------------------------------------------- mat --

TEST(Mat, MatmulMatchesHandComputation)
{
    Matrix a(2, 3), b(3, 2);
    float av[] = {1, 2, 3, 4, 5, 6};
    float bv[] = {7, 8, 9, 10, 11, 12};
    std::copy(av, av + 6, a.data());
    std::copy(bv, bv + 6, b.data());
    const Matrix c = matmul(a, b);
    EXPECT_FLOAT_EQ(c(0, 0), 58.0f);
    EXPECT_FLOAT_EQ(c(0, 1), 64.0f);
    EXPECT_FLOAT_EQ(c(1, 0), 139.0f);
    EXPECT_FLOAT_EQ(c(1, 1), 154.0f);
}

TEST(Mat, TransposedVariantsAgree)
{
    Rng rng(4);
    Matrix a(3, 4), b(4, 5);
    for (std::size_t i = 0; i < a.size(); ++i)
        a.data()[i] = static_cast<float>(rng.gaussian());
    for (std::size_t i = 0; i < b.size(); ++i)
        b.data()[i] = static_cast<float>(rng.gaussian());

    // matmulTransB(a, b^T) == matmul(a, b)
    Matrix bt(5, 4);
    for (std::size_t r = 0; r < 4; ++r)
        for (std::size_t c = 0; c < 5; ++c)
            bt(c, r) = b(r, c);
    const Matrix c1 = matmul(a, b);
    const Matrix c2 = matmulTransB(a, bt);
    ASSERT_EQ(c1.rows(), c2.rows());
    for (std::size_t i = 0; i < c1.size(); ++i)
        EXPECT_NEAR(c1.data()[i], c2.data()[i], 1e-4);

    // matmulTransA(a^T stored as a, b) == a^T b
    Matrix at(4, 3);
    for (std::size_t r = 0; r < 3; ++r)
        for (std::size_t c = 0; c < 4; ++c)
            at(c, r) = a(r, c);
    const Matrix c3 = matmulTransA(a, Matrix(a));  // a^T a
    const Matrix c4 = matmul(at, a);
    for (std::size_t i = 0; i < c3.size(); ++i)
        EXPECT_NEAR(c3.data()[i], c4.data()[i], 1e-4);
}

TEST(Mat, AddRowVectorAndColSum)
{
    Matrix m(2, 3);
    addRowVector(m, {1.0f, 2.0f, 3.0f});
    EXPECT_FLOAT_EQ(m(1, 2), 3.0f);
    std::vector<float> sums{10.0f, 0.0f, -1.0f};
    addColSums(sums, m);  // accumulates onto the existing values
    EXPECT_FLOAT_EQ(sums[0], 12.0f);
    EXPECT_FLOAT_EQ(sums[1], 4.0f);
    EXPECT_FLOAT_EQ(sums[2], 5.0f);
}

// ---------------------------------------------------------- nn/layer --

TEST(Linear, ForwardComputesAffineMap)
{
    Rng rng(1);
    Linear lin(2, 1, rng);
    lin.weights()(0, 0) = 2.0f;
    lin.weights()(0, 1) = -1.0f;
    lin.bias()[0] = 0.5f;
    Matrix x(1, 2);
    x(0, 0) = 3.0f;
    x(0, 1) = 4.0f;
    const Matrix y = lin.forward(x);
    EXPECT_FLOAT_EQ(y(0, 0), 2.0f * 3.0f - 4.0f + 0.5f);
}

TEST(Linear, GradientsMatchFiniteDifferences)
{
    Rng rng(2);
    Linear lin(3, 2, rng);
    Matrix x(2, 3);
    for (std::size_t i = 0; i < x.size(); ++i)
        x.data()[i] = static_cast<float>(rng.gaussian());

    // Loss = sum(y); dL/dy = 1.
    auto loss = [&] {
        const Matrix y = lin.forward(x);
        float s = 0.0f;
        for (std::size_t i = 0; i < y.size(); ++i)
            s += y.data()[i];
        return s;
    };

    lin.zeroGrad();
    Matrix ones(2, 2);
    for (std::size_t i = 0; i < ones.size(); ++i)
        ones.data()[i] = 1.0f;
    Matrix dx;
    lin.backward(ones, x, &dx);

    auto blocks = lin.paramBlocks();
    const float eps = 1e-3f;
    for (auto &blk : blocks) {
        for (std::size_t i = 0; i < blk.size; i += 2) {
            const float orig = blk.params[i];
            blk.params[i] = orig + eps;
            const float up = loss();
            blk.params[i] = orig - eps;
            const float down = loss();
            blk.params[i] = orig;
            EXPECT_NEAR(blk.grads[i], (up - down) / (2 * eps), 2e-2);
        }
    }

    // Input gradient: dL/dx = colsum of W.
    for (std::size_t c = 0; c < 3; ++c) {
        const float expect =
            lin.weights()(0, c) + lin.weights()(1, c);
        EXPECT_NEAR(dx(0, c), expect, 1e-4);
        EXPECT_NEAR(dx(1, c), expect, 1e-4);
    }
}

TEST(Mlp, GradientsMatchFiniteDifferences)
{
    Rng rng(3);
    Mlp mlp({4, 8, 3}, rng, /*activate_last=*/false);
    Matrix x(3, 4);
    for (std::size_t i = 0; i < x.size(); ++i)
        x.data()[i] = static_cast<float>(rng.gaussian());

    auto loss = [&] {
        Matrix y = mlp.forward(x);
        float s = 0.0f;
        for (std::size_t i = 0; i < y.size(); ++i)
            s += y.data()[i] * y.data()[i];
        return 0.5f * s;
    };

    mlp.zeroGrad();
    Matrix y = mlp.forward(x);
    mlp.backward(y);  // dL/dy = y for the squared loss

    auto blocks = mlp.paramBlocks();
    const float eps = 1e-2f;
    int checked = 0;
    for (auto &blk : blocks) {
        for (std::size_t i = 0; i < blk.size; i += 7) {
            const float orig = blk.params[i];
            blk.params[i] = orig + eps;
            const float up = loss();
            blk.params[i] = orig - eps;
            const float down = loss();
            blk.params[i] = orig;
            const float fd = (up - down) / (2 * eps);
            EXPECT_NEAR(blk.grads[i], fd,
                        2e-2 + 0.05 * std::abs(fd));
            ++checked;
        }
    }
    EXPECT_GT(checked, 10);
}

TEST(Nn, ReluBackwardMasksNegativePreactivations)
{
    Matrix grad(1, 3), pre(1, 3);
    grad(0, 0) = grad(0, 1) = grad(0, 2) = 1.0f;
    pre(0, 0) = -1.0f;
    pre(0, 1) = 0.0f;
    pre(0, 2) = 2.0f;
    reluBackwardInPlace(grad, pre);
    EXPECT_FLOAT_EQ(grad(0, 0), 0.0f);
    EXPECT_FLOAT_EQ(grad(0, 1), 0.0f);
    EXPECT_FLOAT_EQ(grad(0, 2), 1.0f);
}

TEST(Nn, ClipGradNormScalesDown)
{
    std::vector<float> p(4, 0.0f), g{3.0f, 4.0f, 0.0f, 0.0f};
    std::vector<ParamBlock> blocks{{p.data(), g.data(), 4}};
    clipGradNorm(blocks, 1.0);
    EXPECT_NEAR(gradNorm(blocks), 1.0, 1e-5);
    EXPECT_NEAR(g[0] / g[1], 0.75, 1e-5);
}

TEST(Adam, MinimizesQuadratic)
{
    std::vector<float> p{5.0f, -3.0f};
    std::vector<float> g(2, 0.0f);
    std::vector<ParamBlock> blocks{{p.data(), g.data(), 2}};
    Adam adam(blocks, 0.1);
    for (int i = 0; i < 500; ++i) {
        g[0] = p[0];  // d/dp (p^2/2)
        g[1] = p[1];
        adam.step(blocks);
    }
    EXPECT_NEAR(p[0], 0.0, 1e-2);
    EXPECT_NEAR(p[1], 0.0, 1e-2);
}

// ------------------------------------------------------ actor-critic --

TEST(ActorCritic, SoftmaxLogProbEntropyConsistency)
{
    Matrix logits(1, 3);
    logits(0, 0) = 1.0f;
    logits(0, 1) = 2.0f;
    logits(0, 2) = 3.0f;

    const auto p = ActorCritic::softmaxRow(logits, 0);
    EXPECT_NEAR(p[0] + p[1] + p[2], 1.0, 1e-9);
    EXPECT_GT(p[2], p[1]);

    for (std::size_t a = 0; a < 3; ++a) {
        EXPECT_NEAR(ActorCritic::logProb(logits, 0, a), std::log(p[a]),
                    1e-9);
    }

    double h = 0.0;
    for (double v : p)
        h -= v * std::log(v);
    EXPECT_NEAR(ActorCritic::entropy(logits, 0), h, 1e-9);
}

TEST(ActorCritic, UniformLogitsGiveMaxEntropy)
{
    Matrix logits(1, 4);
    EXPECT_NEAR(ActorCritic::entropy(logits, 0), std::log(4.0), 1e-9);
}

TEST(ActorCritic, SamplingFollowsDistribution)
{
    Rng rng(8);
    ActorCritic net(4, 2, 16, 1, rng);
    Matrix logits(1, 2);
    logits(0, 0) = 0.0f;
    logits(0, 1) = 2.0f;  // p1 ~ 0.88
    Rng srng(9);
    int ones = 0;
    for (int i = 0; i < 5000; ++i)
        ones += net.sample(logits, 0, srng) == 1 ? 1 : 0;
    EXPECT_NEAR(ones / 5000.0, 0.8808, 0.03);
}

TEST(ActorCritic, ForwardShapes)
{
    Rng rng(10);
    ActorCritic net(6, 5, 32, 2, rng);
    Matrix obs(7, 6);
    const AcOutput out = net.forward(obs);
    EXPECT_EQ(out.logits.rows(), 7u);
    EXPECT_EQ(out.logits.cols(), 5u);
    EXPECT_EQ(out.values.size(), 7u);
}

TEST(ActorCritic, PolicyHeadStartsNearUniform)
{
    Rng rng(11);
    ActorCritic net(8, 6, 32, 2, rng);
    std::vector<float> obs(8, 0.5f);
    const AcOutput out = net.forwardOne(obs);
    EXPECT_GT(ActorCritic::entropy(out.logits, 0),
              0.98 * std::log(6.0));
}

// ----------------------------------------------------------- rollout --

/** Store one single-stream transition through stageObs/commitStep. */
void
addOne(RolloutBuffer &buf, const std::vector<float> &obs,
       std::size_t action, double reward, bool done, double value,
       double log_prob)
{
    Matrix row(1, obs.size());
    std::copy(obs.begin(), obs.end(), row.data());
    buf.stageObs(row);
    buf.commitStep({action}, {reward}, {static_cast<std::uint8_t>(done)},
                   {value}, {log_prob});
}

TEST(Rollout, GaeMatchesHandComputation)
{
    RolloutBuffer buf(3, 1, 1);
    const std::vector<float> obs{0.0f};
    // Two-step episode then the start of another.
    addOne(buf, obs, 0, 1.0, false, 0.5, -0.1);
    addOne(buf, obs, 0, 2.0, true, 0.4, -0.1);
    addOne(buf, obs, 0, 0.0, false, 0.3, -0.1);
    const double gamma = 0.9, lambda = 0.8, boot = 0.7;
    buf.computeAdvantages(gamma, lambda, boot);

    // Backward by hand.
    const double d2 = 0.0 + gamma * boot - 0.3;
    const double a2 = d2;
    const double d1 = 2.0 + 0.0 - 0.4;  // done: next value masked
    const double a1 = d1;
    const double d0 = 1.0 + gamma * 0.4 - 0.5;
    const double a0 = d0 + gamma * lambda * a1;

    EXPECT_NEAR(buf.advantages()[0], a0, 1e-12);
    EXPECT_NEAR(buf.advantages()[1], a1, 1e-12);
    EXPECT_NEAR(buf.advantages()[2], a2, 1e-12);
    EXPECT_NEAR(buf.returns()[1], a1 + 0.4, 1e-12);
}

TEST(Rollout, NormalizeAdvantages)
{
    RolloutBuffer buf(4, 1, 1);
    const std::vector<float> obs{0.0f};
    for (double r : {1.0, 2.0, 3.0, 4.0})
        addOne(buf, obs, 0, r, true, 0.0, 0.0);
    buf.computeAdvantages(1.0, 1.0, 0.0);
    buf.normalizeAdvantages();
    double m = 0.0;
    for (double a : buf.advantages())
        m += a;
    EXPECT_NEAR(m, 0.0, 1e-6);
}

TEST(Rollout, GatherObsSelectsRows)
{
    RolloutBuffer buf(3, 1, 2);
    addOne(buf, {1.0f, 2.0f}, 0, 0, false, 0, 0);
    addOne(buf, {3.0f, 4.0f}, 0, 0, false, 0, 0);
    addOne(buf, {5.0f, 6.0f}, 0, 0, false, 0, 0);
    Matrix m(5, 7);  // a reused destination of another shape
    buf.gatherObsInto(m, {2, 0});
    ASSERT_EQ(m.rows(), 2u);
    ASSERT_EQ(m.cols(), 2u);
    EXPECT_FLOAT_EQ(m(0, 0), 5.0f);
    EXPECT_FLOAT_EQ(m(1, 1), 2.0f);
}

TEST(Rollout, MultiStreamGaeMatchesIndependentStreams)
{
    // Two interleaved streams must produce exactly the advantages of
    // two single-stream buffers: episode boundaries and bootstraps in
    // one stream may not leak into the other.
    const double gamma = 0.9, lambda = 0.8;
    RolloutBuffer s0(3, 1, 1), s1(3, 1, 1);
    addOne(s0, {0.0f}, 0, 1.0, false, 0.5, -0.1);
    addOne(s0, {0.0f}, 0, 2.0, true, 0.4, -0.1);
    addOne(s0, {0.0f}, 0, 0.5, false, 0.3, -0.1);
    addOne(s1, {1.0f}, 1, -1.0, false, 0.2, -0.2);
    addOne(s1, {1.0f}, 1, 0.0, false, 0.1, -0.2);
    addOne(s1, {1.0f}, 1, 3.0, true, 0.6, -0.2);
    s0.computeAdvantages(gamma, lambda, 0.7);
    s1.computeAdvantages(gamma, lambda, 0.0);

    RolloutBuffer both(3, 2, 1);
    const std::vector<std::vector<double>> rewards{
        {1.0, -1.0}, {2.0, 0.0}, {0.5, 3.0}};
    const std::vector<std::vector<std::uint8_t>> dones{
        {0, 0}, {1, 0}, {0, 1}};
    const std::vector<std::vector<double>> values{
        {0.5, 0.2}, {0.4, 0.1}, {0.3, 0.6}};
    for (std::size_t t = 0; t < 3; ++t) {
        Matrix obs(2, 1);
        obs(1, 0) = 1.0f;
        both.stageObs(obs);
        both.commitStep({0, 1}, rewards[t], dones[t], values[t],
                        {-0.1, -0.2});
    }
    both.computeAdvantages(gamma, lambda, std::vector<double>{0.7, 0.0});

    for (std::size_t t = 0; t < 3; ++t) {
        EXPECT_NEAR(both.advantages()[t * 2 + 0], s0.advantages()[t],
                    1e-12);
        EXPECT_NEAR(both.advantages()[t * 2 + 1], s1.advantages()[t],
                    1e-12);
        EXPECT_NEAR(both.returns()[t * 2 + 0], s0.returns()[t], 1e-12);
        EXPECT_NEAR(both.returns()[t * 2 + 1], s1.returns()[t], 1e-12);
    }

    // gatherObsInto addresses flat time-major (t * streams + s) indices.
    Matrix m;
    both.gatherObsInto(m, {1, 2});
    EXPECT_FLOAT_EQ(m(0, 0), 1.0f);  // t=0, stream 1
    EXPECT_FLOAT_EQ(m(1, 0), 0.0f);  // t=1, stream 0
}

// ------------------------------------------------------------ search --

/** Toy oracle: a sequence distinguishes iff it contains 0 then 1. */
class ToyOracle : public SequenceOracle
{
  public:
    std::size_t numPrimitives() const override { return 3; }

    bool
    isDistinguishing(const std::vector<std::size_t> &seq) override
    {
        for (std::size_t i = 0; i + 1 < seq.size(); ++i) {
            if (seq[i] == 0 && seq[i + 1] == 1)
                return true;
        }
        return false;
    }
};

TEST(Search, ExhaustiveFindsShortestCertificate)
{
    ToyOracle oracle;
    const SearchResult r = exhaustiveSearch(oracle, 2, 1000);
    ASSERT_TRUE(r.found);
    EXPECT_EQ(r.sequence, (std::vector<std::size_t>{0, 1}));
    EXPECT_GT(r.sequencesTried, 0);
}

TEST(Search, RandomSearchEventuallyFinds)
{
    ToyOracle oracle;
    Rng rng(12);
    const SearchResult r = randomSearch(oracle, 4, 10000, rng);
    EXPECT_TRUE(r.found);
    EXPECT_TRUE(oracle.isDistinguishing(r.sequence));
}

TEST(Search, ExhaustiveRespectsBudget)
{
    ToyOracle oracle;
    // With only 1 candidate examined ({0,0}), nothing is found.
    const SearchResult r = exhaustiveSearch(oracle, 2, 1);
    EXPECT_FALSE(r.found);
    EXPECT_EQ(r.sequencesTried, 1);
}

TEST(Search, PrimeProbeSearchSpaceFormula)
{
    // M = 2 (N+1)^{2N+1} / (N!)^2; paper quotes ~2.05e7 for N = 8.
    EXPECT_NEAR(primeProbeSearchSpace(8) / 2.05e7, 1.0, 0.05);
    // And the e^{2N} scaling: M(9)/M(8) should be roughly e^2.
    EXPECT_NEAR(primeProbeSearchSpace(9) / primeProbeSearchSpace(8),
                std::exp(2.0), 1.5);
}

} // namespace
} // namespace autocat
