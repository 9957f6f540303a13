/**
 * @file
 * Thread-count invariance of the PPO update. The training GEMMs and the
 * Adam step split over the calling thread's worker pool (rl/mat.hpp),
 * and the split must not move a bit: three Table V epochs at 1, 2, 3
 * and 4 threads leave identical weights, Adam moments and epoch
 * statistics. ctest runs this suite once per matmul backend; on an
 * AVX-512 host it also checks that the AVX2 tier leaves the same bits.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "core/config_parser.hpp"
#include "env/env_registry.hpp"
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

} // namespace
} // namespace autocat
