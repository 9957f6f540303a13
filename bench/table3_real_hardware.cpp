/**
 * @file
 * Table III: attack sequences found on (simulated) real hardware.
 *
 * The paper explores Intel CPUs through CacheQuery without knowing
 * their replacement policies. Our substitution (hw/target.hpp,
 * hw/machines.hpp) is a black-box single-set target per CPU/level with
 * the documented geometry, a hidden policy, measurement noise, and
 * stray-access interference, registered as one scenario per row. The
 * agent sees only the MemorySystem interface, so the black-box
 * adaptation claim is exercised unchanged; the reported
 * accuracy is the greedy policy evaluated over 1000 noisy episodes
 * (the paper repeats each sequence 1000x on silicon).
 */

#include "bench_common.hpp"

using namespace autocat;
using namespace autocat::bench;

int
main()
{
    banner("Table III: black-box attacks on simulated CPUs");

    const auto targets = tableIIITargets();
    const std::size_t rows = byMode<std::size_t>(1, 2, targets.size());
    const int max_epochs = byMode(10, 130, 300);
    const int eval_episodes = byMode(100, 1000, 1000);

    TextTable table("Table III (reproduction)",
                    {"CPU", "Level", "Ways", "Rep.Pol.", "Accuracy",
                     "Epochs", "Attack sequence found"});

    for (std::size_t i = 0; i < rows; ++i) {
        const HardwareTargetPreset &preset = targets[i];

        ExplorationConfig cfg;
        cfg.env.cache.numSets = 1;
        cfg.env.cache.numWays = preset.ways;
        cfg.env.attackAddrS = 0;
        cfg.env.attackAddrE = preset.attackAddrE;
        cfg.env.victimAddrS = 0;
        cfg.env.victimAddrE = 0;
        cfg.env.victimNoAccessEnable = true;
        cfg.env.windowSize = preset.ways * 3 + 4;
        cfg.env.stepReward = -0.005;  // paper: longer sequences on HW
        cfg.env.seed = 7 + i;
        cfg.ppo.seed = 101 + 7 * i;
        cfg.maxEpochs = max_epochs;
        cfg.targetAccuracy = 0.95;  // noise bounds achievable accuracy
        // Final accuracy is measured at the paper's 1000-episode scale
        // (reduced in fast mode).
        cfg.evalEpisodes = eval_episodes;

        cfg.scenario = "table3_hw_" + std::to_string(i);
        registerScenario(
            cfg.scenario, [preset, i](const ScenarioContext &ctx) {
                return std::make_unique<CacheGuessingGame>(
                    ctx.env,
                    std::make_unique<SimulatedHardwareTarget>(preset, 77 + i));
            });
        const ExplorationResult r = explore(cfg);
        const double accuracy = r.finalAccuracy;

        table.addRow({preset.cpu, preset.level,
                      TextTable::fmt((long)preset.ways),
                      preset.documented ? replPolicyName(preset.policy)
                                        : "N.O.D.",
                      TextTable::fmt(accuracy, 3),
                      r.converged ? TextTable::fmt((long)r.epochsToConverge)
                                  : "(timeout)",
                      attackString(r.sequence, r.finalGuess)});
    }

    if (rows < targets.size()) {
        std::cout << "(" << targets.size() - rows
                  << " more CPU rows with AUTOCAT_FULL=1)\n";
    }
    table.print(std::cout);
    std::cout << "\nPaper (Table III): accuracies 0.993-1.0; the agent"
                 " adapts to undocumented policies without reverse"
                 " engineering (vs ~100 h manual effort).\n";
    return 0;
}
