/**
 * @file
 * Figure 3: conflict-miss event trains and autocorrelograms for the
 * textbook prime+probe channel, the RL baseline, and the
 * autocorrelation-penalized agent.
 *
 * Output: (a) the first events of one episode's train rendered as
 * A->V / V->A marks; (b) the autocorrelogram C_1..C_30 per agent with
 * the 0.75 detection threshold.
 */

#include <iomanip>

#include "bench_common.hpp"

using namespace autocat;
using namespace autocat::bench;

namespace {

constexpr std::size_t kMaxLag = 30;

struct TrainCapture
{
    std::vector<double> train;
    std::vector<double> correlogram;
    double maxAutocorr = 0.0;
};

/**
 * Play one episode on a fresh Table VIII game, by the textbook agent
 * or by @p policy (see playRow()), and read its conflict-miss train.
 */
TrainCapture
capture(ActorCritic *policy)
{
    auto env = makeGame(multiSecretEnv());
    auto detector = std::make_shared<AutocorrDetector>(kMaxLag, 0.75, 0.0);
    env->attachDetector(detector, DetectorMode::Penalize);
    playRow(*env, policy, 1);
    TrainCapture out;
    out.train = detector->eventTrain();
    out.correlogram = detector->correlogram();
    out.maxAutocorr = detector->maxAutocorr();
    return out;
}

void
printTrain(const std::string &name, const TrainCapture &cap)
{
    std::cout << name << " event train (" << cap.train.size()
              << " conflict misses, first 40 shown):\n  ";
    for (std::size_t i = 0; i < std::min<std::size_t>(40, cap.train.size());
         ++i) {
        std::cout << (cap.train[i] > 0.5 ? "A>V " : "V>A ");
    }
    std::cout << "\n  max |C_p| for p>=1: "
              << TextTable::fmt(cap.maxAutocorr, 3)
              << (cap.maxAutocorr > 0.75 ? "  ** DETECTED (>0.75) **"
                                         : "  (below threshold)")
              << "\n\n";
}

} // namespace

int
main()
{
    banner("Figure 3: event trains and autocorrelograms");

    const int train_epochs = byMode(2, 25, 100);

    const TrainCapture textbook = capture(nullptr);

    // RL baseline and RL autocor, trained through the channel curriculum.
    const auto trained = [&](const std::string &name, double penalty,
                             std::uint64_t seed) {
        const DetectorSpec cchunter{"cchunter", DetectorMode::Penalize,
                                    penalty};
        TrainingSession session(
            channelCampaign(cchunter, seed, train_epochs));
        printOneShot(name, session.run());
        return capture(&session.trainer().policy());
    };
    const TrainCapture baseline = trained("RL_baseline", 0.0, 57);
    const TrainCapture autocor = trained("RL_autocor", -30.0, 58);
    std::cout << "\n";

    printTrain("textbook", textbook);
    printTrain("RL_baseline", baseline);
    printTrain("RL_autocor", autocor);

    TextTable table("Figure 3b: autocorrelogram C_p (threshold 0.75)",
                    {"lag p", "textbook", "RL_baseline", "RL_autocor"});
    const std::size_t lags =
        std::min({textbook.correlogram.size(), baseline.correlogram.size(),
                  autocor.correlogram.size(), kMaxLag});
    for (std::size_t p = 0; p < lags; ++p) {
        table.addRow({TextTable::fmt((long)(p + 1)),
                      TextTable::fmt(textbook.correlogram[p], 3),
                      TextTable::fmt(baseline.correlogram[p], 3),
                      TextTable::fmt(autocor.correlogram[p], 3)});
    }
    table.print(std::cout);
    std::cout << "\nPaper (Fig. 3): textbook and RL baseline show"
                 " strong periodic peaks (max ~0.92-0.97); the"
                 " penalty-trained agent stays below the threshold.\n";
    return 0;
}
