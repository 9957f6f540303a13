/**
 * @file
 * Thread-count invariance of the PPO update. The training step's row
 * and weight-gradient regions and the Adam step split over the calling
 * thread's worker pool (rl/mat.hpp, ActorCritic::trainStep), and the
 * split must not move a bit: three Table V epochs at 1, 2, 3 and 4
 * threads leave identical weights, Adam moments and epoch statistics,
 * and four epochs match golden bits at budgets 1 and 4. ctest runs this
 * suite once per matmul backend; on an AVX-512 host it also checks that
 * the AVX2 tier leaves the same bits. The step's two halves, its
 * exception path (and parallelTasks()'s, inline and pooled) and the
 * first layer's transposed weights, which every write to the weights
 * must refresh, are checked here too.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/config_parser.hpp"
#include "env/env_registry.hpp"
#include "rl/actor_critic.hpp"
#include "rl/checkpoint.hpp"
#include "rl/mat.hpp"
#include "rl/ppo.hpp"

namespace autocat {
namespace {

/** Table V (paper): 1-set 4-way LRU cache, attacker 0-4, victim 0 or
 *  no access, 16-step window, one stream, default PPO (3000 steps per
 *  epoch, 500-row minibatches, hidden 128 x 2). */
const char *const kTableV = R"(num_sets = 1
num_ways = 4
rep_policy = lru
attack_addr_s = 0
attack_addr_e = 4
victim_addr_s = 0
victim_addr_e = 0
victim_no_access_enable = true
window_size = 16
seed = 1
ppo_seed = 1
)";

struct Trained
{
    std::vector<std::string> epochs;  ///< hexfloat EpochStats per epoch
    std::string state;  ///< checkpoint payload: weights, Adam, RNG
};

std::string
hexStats(const EpochStats &s)
{
    std::ostringstream os;
    os << std::hexfloat << "epoch " << s.epoch << " return "
       << s.meanReturn << " length " << s.meanEpisodeLength << " pi "
       << s.policyLoss << " v " << s.valueLoss << " entropy "
       << s.entropy;
    return os.str();
}

Trained
trainAt(std::size_t threads)
{
    const MatThreadScope budget(threads);
    const ExplorationConfig cfg =
        parseExplorationConfig(std::string(kTableV));
    auto envs = makeVecEnv(cfg.scenario, cfg.env, 1);
    PpoTrainer trainer(*envs, cfg.ppo);
    Trained run;
    for (int e = 0; e < 3; ++e)
        run.epochs.push_back(hexStats(trainer.runEpoch()));
    std::ostringstream os(std::ios::binary);
    writePpoCheckpoint(os, trainer);
    run.state = os.str();
    return run;
}

TEST(UpdateThreads, TableVEpochsAreBitIdenticalAtOneToFourThreads)
{
    const Trained serial = trainAt(1);
    for (std::size_t t = 2; t <= 4; ++t) {
        const Trained run = trainAt(t);
        EXPECT_EQ(run.epochs, serial.epochs) << t << " threads";
        EXPECT_TRUE(run.state == serial.state)
            << t << " threads: weights or Adam moments differ";
    }
}

/** The SIMD tiers give the same bits too: three Table V epochs on the
 *  AVX2 tier, at 1 and 4 threads, leave the checkpoint the AVX-512 tier
 *  leaves. */
TEST(UpdateThreads, TableVEpochsAreBitIdenticalAcrossSimdTiers)
{
    if (detail::hostMatTier() < detail::MatTier::Avx512)
        GTEST_SKIP() << "needs the AVX2 and AVX-512 tiers; the "
                     << matmulBackend()
                     << " host lacks AVX-512F (or AUTOCAT_MAT_PORTABLE=1)";
    const auto at = [](detail::MatTier tier, std::size_t threads) {
        const detail::MatTierScope cap(tier);
        return trainAt(threads);
    };
    const Trained avx512 = at(detail::MatTier::Avx512, 1);
    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
        const Trained avx2 = at(detail::MatTier::Avx2, threads);
        EXPECT_EQ(avx2.epochs, avx512.epochs) << threads << " threads";
        EXPECT_TRUE(avx2.state == avx512.state)
            << "AVX2 at " << threads
            << " threads: weights or Adam moments differ";
    }
}

/** Table V with the action masks on: the masked softmax, its entropy
 *  and the masked samplers. */
const char *const kTableVMasked = R"(mask_actions = true
mask_useless_actions = true
)";

/** FNV-1a 64 of a checkpoint payload. */
std::uint64_t
fnv1a(const std::string &bytes)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const unsigned char c : bytes) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    return h;
}

/** Four Table V epochs at the calling thread's budget and tier. */
Trained
trainFourEpochs(bool masked)
{
    std::string text = kTableV;
    if (masked)
        text += kTableVMasked;
    const ExplorationConfig cfg = parseExplorationConfig(text);
    auto envs = makeVecEnv(cfg.scenario, cfg.env, 1);
    PpoTrainer trainer(*envs, cfg.ppo);
    Trained run;
    for (int e = 0; e < 4; ++e)
        run.epochs.push_back(hexStats(trainer.runEpoch()));
    std::ostringstream os(std::ios::binary);
    writePpoCheckpoint(os, trainer);
    run.state = os.str();
    return run;
}

struct UpdateGolden
{
    std::vector<std::string> epochs;  ///< hexStats() of epochs 1-4
    std::uint64_t checkpoint;         ///< fnv1a() of the checkpoint
};

/*
 * The update's bits, captured before the minibatch moved onto
 * row-parallel regions: collection, the training forward, the PPO loss,
 * the backward, clipping and Adam all feed them, at any budget. The
 * SIMD tiers share one set, the portable backend has its own. A change
 * that moves them changes every training trajectory: fix the change, do
 * not re-capture them.
 */
const UpdateGolden kSimdGolden[2] = {
    // unmasked
    {{
         "epoch 1 return -0x1.5cc0c7e5bf63dp-1 length 0x1.ee0b33ba26e0bp+1"
         " pi -0x1.375e41364988cp-6 v 0x1.184b8b7d77e48p-1"
         " entropy 0x1.098f55648a395p+1",
         "epoch 2 return -0x1.2fdfc60bf311p-1 length 0x1.3c9d68840513ep+2"
         " pi -0x1.29843bd9b32p-6 v 0x1.07b8b34ccd308p-1"
         " entropy 0x1.071d745572dadp+1",
         "epoch 3 return -0x1.07739bf5cc4dep-1 length 0x1.6578dcc9c1309p+2"
         " pi -0x1.4003a7c2652acp-6 v 0x1.1a52918973048p-1"
         " entropy 0x1.01cad45f530cp+1",
         "epoch 4 return -0x1.48a7442d02603p-2 length 0x1.6ca76c0bae3c6p+2"
         " pi -0x1.2ec0a16f2a492p-6 v 0x1.4a55959fb981dp-1"
         " entropy 0x1.f88be157cb8bcp+0"},
     0xbc0f064ee736c690ull},
    // mask_actions + mask_useless_actions
    {{
         "epoch 1 return -0x1.54ecdb0c05577p-4 length 0x1.04c8590b21643p+3"
         " pi -0x1.63427b139814cp-8 v 0x1.2e9a2249e6a0ep-1"
         " entropy 0x1.c45a9921892e5p+0",
         "epoch 2 return -0x1.579ebec6d9023p-4 length 0x1.d7f5e94ced157p+2"
         " pi -0x1.63719336887a9p-8 v 0x1.3fbd92ccb3dbep-1"
         " entropy 0x1.bff3f301c139fp+0",
         "epoch 3 return -0x1.a5f638a493f96p-4 length 0x1.b127350b88127p+2"
         " pi -0x1.93a78fcd7094ap-8 v 0x1.5181c992a7242p-1"
         " entropy 0x1.bf132a51ea003p+0",
         "epoch 4 return -0x1.eef3ed32897p-5 length 0x1.6d3a06d3a06d4p+2"
         " pi -0x1.f3196f0185c61p-8 v 0x1.67b5c92a94b84p-1"
         " entropy 0x1.ba406f8535624p+0"},
     0x96c8d90cd7cd528bull},
};

const UpdateGolden kPortableGolden[2] = {
    // unmasked
    {{
         "epoch 1 return -0x1.5cc0c7e5bf63dp-1 length 0x1.ee0b33ba26e0bp+1"
         " pi -0x1.375e41203ff76p-6 v 0x1.184b8b6d9b781p-1"
         " entropy 0x1.098f5564c359bp+1",
         "epoch 2 return -0x1.2fdfc60bf311p-1 length 0x1.3c9d68840513ep+2"
         " pi -0x1.29843ade02e3bp-6 v 0x1.07b8b361a81dep-1"
         " entropy 0x1.071d745873a7bp+1",
         "epoch 3 return -0x1.07739bf5cc4dep-1 length 0x1.6578dcc9c1309p+2"
         " pi -0x1.4003a87ff5ff3p-6 v 0x1.1a5291938a4a7p-1"
         " entropy 0x1.01cad4667760bp+1",
         "epoch 4 return -0x1.48a7442d02603p-2 length 0x1.6ca76c0bae3c6p+2"
         " pi -0x1.2ec081db6d8dfp-6 v 0x1.4a5594f4a38dfp-1"
         " entropy 0x1.f88be25e03c8dp+0"},
     0xbfd8afce206ea13bull},
    // mask_actions + mask_useless_actions
    {{
         "epoch 1 return -0x1.54ecdb0c05577p-4 length 0x1.04c8590b21643p+3"
         " pi -0x1.63427c1ddff0bp-8 v 0x1.2e9a2248a1fc9p-1"
         " entropy 0x1.c45a9920a66e7p+0",
         "epoch 2 return -0x1.579ebec6d9023p-4 length 0x1.d7f5e94ced157p+2"
         " pi -0x1.63719288ae799p-8 v 0x1.3fbd92c8ff6fap-1"
         " entropy 0x1.bff3f2fa1f1e9p+0",
         "epoch 3 return -0x1.a5f638a493f96p-4 length 0x1.b127350b88127p+2"
         " pi -0x1.93a79270fabe8p-8 v 0x1.5181c9928a142p-1"
         " entropy 0x1.bf132a477bb2p+0",
         "epoch 4 return -0x1.eef3ed32897p-5 length 0x1.6d3a06d3a06d4p+2"
         " pi -0x1.f3196cff57c2ep-8 v 0x1.67b5c9278c7cbp-1"
         " entropy 0x1.ba406f683df04p+0"},
     0xba646a586f584714ull},
};

/** The goldens above: four Table V epochs, unmasked and masked, at
 *  budgets 1 and 4 and on the AVX2 tier. Catches a change that moves
 *  the bits the same way at every budget and tier, which the
 *  comparisons above cannot. */
TEST(UpdateThreads, TableVEpochsMatchGoldenBits)
{
    const bool portable =
        detail::hostMatTier() == detail::MatTier::Portable;
    for (const bool masked : {false, true}) {
        const UpdateGolden &golden =
            (portable ? kPortableGolden : kSimdGolden)[masked ? 1 : 0];
        const auto check = [&](const Trained &run, const char *where) {
            EXPECT_EQ(run.epochs, golden.epochs)
                << where << (masked ? ", masked" : ", unmasked");
            EXPECT_EQ(fnv1a(run.state), golden.checkpoint)
                << where << (masked ? ", masked" : ", unmasked")
                << ": weights, Adam moments or RNG differ";
        };
        for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
            const MatThreadScope budget(threads);
            check(trainFourEpochs(masked),
                  threads == 1 ? "budget 1" : "budget 4");
        }
        const detail::MatTierScope cap(detail::MatTier::Avx2);
        const MatThreadScope budget(4);
        check(trainFourEpochs(masked), "AVX2 tier, budget 4");
    }
}

/** The Table V minibatch shape: 500 rows, 251 features, 8 actions. */
constexpr std::size_t kRows = 500, kObs = 251, kActions = 8;

/** A seeded Table V-shaped network, the same for the same seed. */
ActorCritic
tableVNet(std::uint64_t seed)
{
    Rng rng(seed);
    return ActorCritic(kObs, kActions, 128, 2, rng);
}

/**
 * A minibatch of fixed observations whose loss writes fixed gradients.
 * With throw_row < kRows, the block holding that row throws instead,
 * and every other block sleeps before it writes its rows, so a step
 * that rethrew before they settled would find rows unwritten.
 */
struct FixedRows final : ActorCritic::Minibatch
{
    Matrix obs{kRows, kObs};
    Matrix dlogits{kRows, kActions};
    std::vector<float> dvalues = std::vector<float>(kRows);
    std::size_t throw_row = kRows;
    std::atomic<std::size_t> rows_written{0};
    std::atomic<std::size_t> rows_thrown{0};
    std::atomic<int> blocks{0};

    explicit FixedRows(std::uint64_t seed)
    {
        Rng rng(seed);
        for (std::size_t i = 0; i < obs.size(); ++i)
            obs.data()[i] = static_cast<float>(rng.gaussian());
        for (std::size_t i = 0; i < dlogits.size(); ++i)
            dlogits.data()[i] = static_cast<float>(1e-3 * rng.gaussian());
        for (float &v : dvalues)
            v = static_cast<float>(1e-3 * rng.gaussian());
    }

    void
    gather(Matrix &input, std::size_t r0, std::size_t r1) override
    {
        std::copy(obs.rowPtr(r0), obs.rowPtr(r1), input.rowPtr(r0));
    }

    void
    loss(const AcOutput &, Matrix &dl, std::vector<float> &dv,
         std::size_t r0, std::size_t r1) override
    {
        ++blocks;
        if (throw_row < kRows) {
            if (throw_row >= r0 && throw_row < r1) {
                rows_thrown += r1 - r0;
                throw std::runtime_error("row loss failed");
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(20));
        }
        std::copy(dlogits.rowPtr(r0), dlogits.rowPtr(r1), dl.rowPtr(r0));
        std::copy(dvalues.begin() + static_cast<std::ptrdiff_t>(r0),
                  dvalues.begin() + static_cast<std::ptrdiff_t>(r1),
                  dv.begin() + static_cast<std::ptrdiff_t>(r0));
        rows_written += r1 - r0;
    }
};

/** Every parameter gradient of @p net, flattened. */
std::vector<float>
gradients(ActorCritic &net)
{
    std::vector<float> g;
    for (const ParamBlock &b : net.paramBlocks())
        g.insert(g.end(), b.grads, b.grads + b.size);
    return g;
}

/** trainStep() is forward(), the loss, zeroGrad() and backward() in one:
 *  the same outputs and gradients, bit for bit, at budgets 1 and 4,
 *  over gradients a previous step left behind. */
TEST(UpdateThreads, TrainStepMatchesForwardThenBackward)
{
    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
        const MatThreadScope budget(threads);
        FixedRows rows(7);
        ActorCritic stepped = tableVNet(3);
        ActorCritic halves = tableVNet(3);

        AcOutput step_out;
        Matrix dlogits;
        std::vector<float> dvalues;
        for (int i = 0; i < 2; ++i)
            stepped.trainStep(kRows, rows, step_out, dlogits, dvalues);
        if (threads > 1) {
            EXPECT_GT(rows.blocks.load(), 2)
                << "the row region did not split";
        }

        AcOutput out;
        for (int i = 0; i < 2; ++i) {
            halves.forward(rows.obs, out);
            halves.zeroGrad();
            halves.backward(rows.dlogits, rows.dvalues);
        }
        EXPECT_TRUE(step_out.logits.size() == out.logits.size() &&
                    std::equal(out.logits.data(),
                               out.logits.data() + out.logits.size(),
                               step_out.logits.data()))
            << threads << " threads: logits differ";
        EXPECT_TRUE(step_out.values == out.values)
            << threads << " threads: values differ";
        EXPECT_TRUE(gradients(stepped) == gradients(halves))
            << threads << " threads: gradients differ";
    }
}

/** A row loss that throws in one block at budget 4: the step rethrows
 *  it on the caller once every other block has written its rows, and
 *  the next step on the same network runs and gives the gradients of
 *  a network that never failed. */
TEST(UpdateThreads, ThrowingRowLossReachesTheCallerAfterEveryBlock)
{
    const MatThreadScope budget(4);
    ActorCritic net = tableVNet(3);
    ActorCritic twin = tableVNet(3);
    AcOutput out;
    Matrix dlogits;
    std::vector<float> dvalues;

    FixedRows failing(7);
    failing.throw_row = kRows - 1;
    EXPECT_THROW(net.trainStep(kRows, failing, out, dlogits, dvalues),
                 std::runtime_error);
    EXPECT_GT(failing.blocks.load(), 1) << "the row region did not split";
    EXPECT_GT(failing.rows_thrown.load(), 0u);
    EXPECT_EQ(failing.rows_written.load() + failing.rows_thrown.load(),
              kRows)
        << "the step returned before every block settled";

    FixedRows rows(7);
    net.trainStep(kRows, rows, out, dlogits, dvalues);
    AcOutput twin_out;
    twin.trainStep(kRows, rows, twin_out, dlogits, dvalues);
    EXPECT_TRUE(out.values == twin_out.values);
    EXPECT_TRUE(gradients(net) == gradients(twin))
        << "the step after a failed one left other gradients";
}

/** parallelTasks() keeps TaskPool's exception rule on both its paths,
 *  inline (budget 1, or too little work) and on the pool: a throwing
 *  task stops no other, and one exception reaches the caller after
 *  every task has run; inline it is the first task's to throw. */
TEST(UpdateThreads, ParallelTasksRunEveryTaskBeforeRethrowing)
{
    for (const std::size_t threads : {1, 4}) {
        const MatThreadScope budget(threads);
        for (const std::size_t work : {std::size_t{0}, SIZE_MAX}) {
            std::vector<int> ran(8, 0);
            std::string caught;
            int throws = 0;
            try {
                parallelTasks(ran.size(), work, [&](std::size_t t) {
                    ++ran[t];
                    if (t == 2 || t == 5)
                        throw std::runtime_error("task " + std::to_string(t));
                });
            } catch (const std::runtime_error &e) {
                caught = e.what();
                ++throws;
            }
            EXPECT_EQ(throws, 1) << threads << " threads, work " << work;
            EXPECT_EQ(ran, std::vector<int>(8, 1))
                << threads << " threads, work " << work;
            if (threads == 1 || work == 0) {
                EXPECT_EQ(caught, "task 2") << threads << " threads";
            }
        }
    }
}

/** Observation-like rows: each feature is 1 with probability 1/10 and
 *  0 otherwise, so the first layer takes its zero-skipping kernels. */
void
makeOneHotLike(Matrix &obs, std::uint64_t seed)
{
    Rng rng(seed);
    for (std::size_t i = 0; i < obs.size(); ++i)
        obs.data()[i] = rng.uniformInt(10) == 0 ? 1.0f : 0.0f;
}

bool
sameBits(const Matrix &a, const Matrix &b)
{
    return a.rows() == b.rows() && a.cols() == b.cols() &&
           std::equal(a.data(), a.data() + a.size(), b.data());
}

/**
 * @p net against a freshly built network that holds its weights:
 * forwardOne(), forwardNoGrad() and trainStep() — outputs and
 * gradients — bit for bit, at budget 4, so that the training step's
 * row region splits over pool executors.
 */
void
expectMatchesFreshNetwork(ActorCritic &net, const char *after)
{
    const MatThreadScope budget(4);
    ActorCritic fresh = tableVNet(99);
    std::vector<ParamBlock> to = fresh.paramBlocks();
    const std::vector<ParamBlock> from = net.paramBlocks();
    for (std::size_t b = 0; b < to.size(); ++b)
        std::copy(from[b].params, from[b].params + from[b].size,
                  to[b].params);

    FixedRows rows(11);
    makeOneHotLike(rows.obs, 12);
    const std::vector<float> one(rows.obs.rowPtr(5),
                                 rows.obs.rowPtr(5) + kObs);
    const AcOutput net_one = net.forwardOne(one);
    const AcOutput &fresh_one = fresh.forwardOne(one);
    EXPECT_TRUE(sameBits(net_one.logits, fresh_one.logits) &&
                net_one.values == fresh_one.values)
        << "forwardOne() " << after;

    Matrix batch(9, kObs);
    std::copy(rows.obs.data(), rows.obs.data() + batch.size(), batch.data());
    AcOutput net_batch, fresh_batch;
    net.forwardNoGrad(batch, net_batch);
    fresh.forwardNoGrad(batch, fresh_batch);
    EXPECT_TRUE(sameBits(net_batch.logits, fresh_batch.logits) &&
                net_batch.values == fresh_batch.values)
        << "forwardNoGrad() " << after;

    AcOutput net_out, fresh_out;
    Matrix dlogits;
    std::vector<float> dvalues;
    net.trainStep(kRows, rows, net_out, dlogits, dvalues);
    fresh.trainStep(kRows, rows, fresh_out, dlogits, dvalues);
    EXPECT_TRUE(sameBits(net_out.logits, fresh_out.logits) &&
                net_out.values == fresh_out.values)
        << "trainStep() outputs " << after;
    EXPECT_TRUE(gradients(net) == gradients(fresh))
        << "trainStep() gradients " << after;
}

/*
 * The first layer's transposed weights are derived state, rebuilt on
 * the calling thread when stale (rl/nn.hpp). Each way the weights
 * change must leave a network that computes what a network freshly
 * built with those weights computes. Under TSan, a rebuild inside a
 * pool block would show as a race between the row region's blocks.
 */

TEST(UpdateThreads, TransposedWeightsFollowAdamSteps)
{
    const MatThreadScope budget(4);
    ActorCritic net = tableVNet(3);
    Adam adam(net.paramBlocks(), 1e-2);
    FixedRows rows(7);
    makeOneHotLike(rows.obs, 8);
    const std::vector<float> one(rows.obs.rowPtr(0),
                                 rows.obs.rowPtr(0) + kObs);
    AcOutput out;
    Matrix dlogits;
    std::vector<float> dvalues;
    for (int i = 0; i < 3; ++i) {
        net.forwardOne(one);
        net.trainStep(kRows, rows, out, dlogits, dvalues);
        std::vector<ParamBlock> blocks = net.paramBlocks();
        clipGradNorm(blocks, 0.5);
        adam.step(blocks);
    }
    expectMatchesFreshNetwork(net, "after Adam steps");
}

TEST(UpdateThreads, TransposedWeightsFollowParamBlockWrites)
{
    ActorCritic net = tableVNet(3);
    Matrix obs(9, kObs);
    makeOneHotLike(obs, 4);
    AcOutput before;
    net.forwardNoGrad(obs, before);
    // The first block is the first layer's weights: every feature of
    // every output moves.
    std::vector<ParamBlock> blocks = net.paramBlocks();
    for (std::size_t i = 0; i < blocks[0].size; ++i)
        blocks[0].params[i] += 0.01f * static_cast<float>(i % 7);
    AcOutput after;
    net.forwardNoGrad(obs, after);
    EXPECT_FALSE(sameBits(before.logits, after.logits))
        << "the writes did not reach the forward";
    expectMatchesFreshNetwork(net, "after writes through paramBlocks()");
}

/** Linear::weights(): the layer's forward follows writes through it,
 *  bit for bit what a fresh layer with those weights (and a layer that
 *  never skips zeros) computes, whether or not prepareForward() ran. */
TEST(UpdateThreads, TransposedWeightsFollowWeightsWrites)
{
    Rng rng(5), other(6);
    Linear layer(kObs, 17, rng, 1.0f, /*skip_zeros=*/true);
    Matrix x(9, kObs);
    makeOneHotLike(x, 7);
    Matrix before, after, stale;
    layer.prepareForward();
    layer.forwardInto(before, x, /*fuse_relu=*/true);
    for (std::size_t f = 0; f < kObs; ++f)
        layer.weights()(3, f) += 0.5f;
    layer.forwardInto(stale, x, /*fuse_relu=*/true);
    layer.prepareForward();
    layer.forwardInto(after, x, /*fuse_relu=*/true);
    EXPECT_FALSE(sameBits(before, after))
        << "the writes did not reach the forward";

    for (const bool skip : {true, false}) {
        Linear twin(kObs, 17, other, 1.0f, skip);
        twin.weights() = layer.weights();
        twin.bias() = layer.bias();
        twin.prepareForward();
        Matrix y;
        twin.forwardInto(y, x, /*fuse_relu=*/true);
        EXPECT_TRUE(sameBits(y, after)) << "skip_zeros " << skip;
        EXPECT_TRUE(sameBits(y, stale))
            << "skip_zeros " << skip << ", before prepareForward()";
    }
}

TEST(UpdateThreads, TransposedWeightsFollowLoadPpoCheckpoint)
{
    const ExplorationConfig cfg =
        parseExplorationConfig(std::string(kTableV));
    const std::string path =
        ::testing::TempDir() + "transposed_weights_checkpoint.bin";
    {
        auto envs = makeVecEnv(cfg.scenario, cfg.env, 1);
        PpoTrainer trained(*envs, cfg.ppo);
        trained.runEpoch();
        savePpoCheckpoint(path, trained);
    }
    auto envs = makeVecEnv(cfg.scenario, cfg.env, 1);
    PpoTrainer loaded(*envs, cfg.ppo);
    Matrix obs(9, kObs);
    makeOneHotLike(obs, 4);
    AcOutput before;
    loaded.policy().forwardNoGrad(obs, before);
    loadPpoCheckpoint(path, loaded);
    AcOutput after;
    loaded.policy().forwardNoGrad(obs, after);
    EXPECT_FALSE(sameBits(before.logits, after.logits))
        << "the loaded weights did not reach the forward";
    expectMatchesFreshNetwork(loaded.policy(), "after loadPpoCheckpoint()");
    std::remove(path.c_str());
}

} // namespace
} // namespace autocat
