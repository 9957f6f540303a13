/**
 * @file
 * Table VIII: bypassing CC-Hunter-style autocorrelation detection.
 *
 * Three agents play the 160-step multi-secret channel on a 4-set
 * direct-mapped cache:
 *   textbook     the scripted prime+probe sender/receiver
 *   RL baseline  PPO trained on guess rewards only
 *   RL autocor   PPO trained with the L2 autocorrelation penalty
 *                R_L2 = a * sum_p C_p^2 / P added to the reward
 * Reported per agent: bit rate (guesses/step), guess accuracy, and the
 * average per-episode max autocorrelation of the conflict-miss train.
 */

#include "bench_common.hpp"

using namespace autocat;
using namespace autocat::bench;

namespace {

constexpr std::size_t kMaxLag = 30;
constexpr double kThreshold = 0.75;

/**
 * Play @p episodes of @p act on @p env and add the agent's row:
 * bit rate, accuracy, and the mean of each episode's max
 * autocorrelation as @p detector measured it.
 */
void
addAgentRow(TextTable &table, const std::string &name, VecEnv &env,
            const EpisodePolicy &act, const AutocorrDetector &detector,
            int episodes)
{
    double autocorr_sum = 0.0;
    EpisodeHooks hooks;
    hooks.onEnd = [&](Environment &) {
        autocorr_sum += detector.maxAutocorr();
    };
    const EvalStats stats = runEpisodes(env, episodes, act, hooks);
    const double avg_max_autocorr =
        episodes ? autocorr_sum / static_cast<double>(episodes) : 0.0;
    table.addRow({name, TextTable::fmt(stats.bitRate, 4),
                  TextTable::fmt(stats.guessAccuracy, 3),
                  TextTable::fmt(avg_max_autocorr, 3)});
}

void
addTextbookRow(TextTable &table, int episodes)
{
    EnvConfig env_cfg = multiSecretEnv();
    auto env = makeGame(env_cfg);
    auto detector = std::make_shared<AutocorrDetector>(
        kMaxLag, kThreshold, 0.0 /* measurement only */);
    env->attachDetector(detector, DetectorMode::Penalize);
    TextbookPrimeProbeAgent agent(*env);
    SyncVecEnv vec(*env);
    addAgentRow(table, "Textbook", vec, scriptedPolicy(agent), *detector,
                episodes);
}

void
addTrainedRow(TextTable &table, const std::string &name,
              double penalty_coef, int channel_epochs, int episodes,
              std::uint64_t seed)
{
    // Curriculum: one-shot attack -> short channel -> full channel.
    // The autocorrelation penalty applies in the channel stages.
    auto single = makeGame(singleSecretStage());
    auto multi_short = makeGame(shortChannelStage());
    auto multi = makeGame(multiSecretEnv());

    auto make_detector = [&] {
        return std::make_shared<AutocorrDetector>(kMaxLag, kThreshold,
                                                  penalty_coef);
    };
    multi_short->attachDetector(make_detector(), DetectorMode::Penalize);
    auto detector = make_detector();
    multi->attachDetector(detector, DetectorMode::Penalize);

    PpoConfig ppo;
    ppo.seed = seed;
    auto agent = trainChannelAgent(*single, *multi_short, *multi, ppo,
                                   byMode(12, 60, 80), byMode(4, 25, 40),
                                   channel_epochs);

    addAgentRow(table, name, agent->multiFull,
                greedyPolicy(agent->trainer.policy()), *detector, episodes);
}

} // namespace

int
main()
{
    banner("Table VIII: autocorrelation (CC-Hunter) bypass");

    const int train_epochs = byMode(3, 30, 120);
    const int eval_episodes = byMode(20, 120, 1000);

    TextTable table("Table VIII (reproduction)",
                    {"Attack", "Bit rate (guess/step)", "Guess accuracy",
                     "Avg max autocorr"});

    addTextbookRow(table, eval_episodes);
    addTrainedRow(table, "RL baseline", 0.0, train_epochs, eval_episodes,
                  57);
    addTrainedRow(table, "RL autocor", -30.0, train_epochs, eval_episodes,
                  58);

    table.print(std::cout);
    std::cout << "\nPaper (Table VIII): textbook 0.1625/1.0/0.973, RL"
                 " baseline 0.229/0.989/0.933, RL autocor 0.216/0.997/"
                 "0.519 — expect the penalty-trained agent to keep"
                 " accuracy while cutting autocorrelation, at a small"
                 " bit-rate cost vs the baseline.\n";
    return 0;
}
