/**
 * @file
 * Table IX: bypassing the Cyclone-style SVM detector.
 *
 * The detector is the campaigns' Cyclone model (cycloneCampaignSvm): a
 * linear SVM trained offline on cyclic-interference features of
 * synthetic benign traces vs. textbook prime+probe traces (the paper
 * uses SPEC2017 for the benign side; the substitute generator is
 * described in detect/benign_traces.hpp).
 * Three agents are then measured against it: the textbook attacker,
 * an RL baseline trained with a zero penalty, and "RL SVM" trained
 * with the detection penalty in the reward.
 */

#include "bench_common.hpp"

using namespace autocat;
using namespace autocat::bench;

namespace {

constexpr std::size_t kIntervalSteps = 16;

/** A row's "cyclone" spec: the campaign SVM at the bench's interval,
 *  with the per-interval step penalty @p penalty. */
DetectorSpec
cycloneSpec(double penalty)
{
    DetectorSpec spec;
    spec.kind = "cyclone";
    spec.penalty = penalty;
    spec.cycloneInterval = kIntervalSteps;
    return spec;
}

/**
 * Play @p episodes on a fresh Table IX game, by the textbook agent or
 * by @p policy (see playRow()), and add the agent's row: bit rate,
 * accuracy, and the share of episodes the campaign SVM flags.
 */
void
addAgentRow(TextTable &table, const std::string &name, ActorCritic *policy,
            int episodes)
{
    const EnvConfig cfg = multiSecretEnv();
    auto env = makeGame(cfg);
    env->attachDetector(makeDetector(cycloneSpec(0.0), cfg.cache),
                        DetectorMode::Penalize);
    const EvalStats stats = playRow(*env, policy, episodes);
    table.addRow({name, TextTable::fmt(stats.bitRate, 4),
                  TextTable::fmt(stats.guessAccuracy, 3),
                  TextTable::fmt(stats.detectionRate, 3)});
}

} // namespace

int
main()
{
    banner("Table IX: Cyclone-style SVM detector bypass");

    const int train_epochs = byMode(3, 30, 120);
    const int eval_episodes = byMode(20, 120, 1000);

    Rng rng;
    const SvmDataset corpus = cycloneCampaignCorpus(4, kIntervalSteps, rng);
    std::cout << "SVM 5-fold cross-validation accuracy: "
              << TextTable::fmt(kFoldAccuracy(corpus, 5, rng), 3)
              << "  (paper: 0.988)\n\n";

    TextTable table("Table IX (reproduction)",
                    {"Attacker", "Bit rate (guess/step)",
                     "Guess accuracy", "Detection rate"});
    addAgentRow(table, "Textbook", nullptr, eval_episodes);

    // RL agents with and without the detection penalty in training.
    const auto trained = [&](const std::string &name, double penalty,
                             std::uint64_t seed) {
        TrainingSession session(
            channelCampaign(cycloneSpec(penalty), seed, train_epochs));
        printOneShot(name, session.run());
        addAgentRow(table, name, &session.trainer().policy(),
                    eval_episodes);
    };
    trained("RL baseline", 0.0, 61);
    trained("RL SVM", -6.0, 62);

    std::cout << "\n";
    table.print(std::cout);
    std::cout << "\nPaper (Table IX): textbook 0.1625/1.0/0.997, RL"
                 " baseline 0.228/0.998/0.715, RL SVM 0.168/0.998/"
                 "0.00333 — expect penalty training to crush the"
                 " detection rate at some bit-rate cost.\n";
    return 0;
}
