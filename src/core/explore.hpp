/**
 * @file
 * The AutoCAT exploration pipeline (Fig. 2a of the paper): take an
 * environment description, train a PPO agent on the guessing game,
 * extract the attack sequence by deterministic (greedy) replay, and
 * classify it.
 */

#ifndef AUTOCAT_CORE_EXPLORE_HPP
#define AUTOCAT_CORE_EXPLORE_HPP

#include <string>

#include "attacks/classifier.hpp"
#include "attacks/sequence.hpp"
#include "env/env_config.hpp"
#include "env/env_registry.hpp"
#include "env/guessing_game.hpp"
#include "rl/ppo.hpp"
#include "rl/vec_env.hpp"

namespace autocat {

/** Everything one exploration run needs. */
struct ExplorationConfig
{
    EnvConfig env;
    PpoConfig ppo;

    /**
     * Scenario registry name the training environments are built from
     * (see env/env_registry.hpp).
     */
    std::string scenario = "guessing_game";

    /**
     * Environment streams to collect with. Stream i is seeded
     * env.seed + i; 1 reproduces the classic single-worker loop.
     */
    int numStreams = 1;

    /**
     * Step the streams on a worker pool (ThreadedVecEnv, config key
     * threaded_envs). Trajectories are bitwise-identical to the sync
     * adapter, but on 4 cores it is slower on wall clock at every
     * stream count (rl/vec_env.hpp); leave it off to train fast.
     */
    bool threadedEnvs = false;

    /**
     * Collect through the SoA batch engine (BatchVecEnv): observation
     * rows are maintained in place inside the matrix the policy GEMM
     * consumes (config key batch_env). Trajectories are
     * bitwise-identical to the sync/threaded adapters. Takes
     * precedence over threadedEnvs when both are set.
     */
    bool batchEnv = false;

    /** Give up after this many epochs (paper: 1 epoch = 3000 steps). */
    int maxEpochs = 150;

    /** Greedy eval accuracy that counts as converged. */
    double targetAccuracy = 0.97;

    /** Episodes per convergence evaluation. */
    int evalEpisodes = 100;

    /** Log per-epoch progress at Info level. */
    bool verbose = false;
};

/** Outcome of one exploration run. */
struct ExplorationResult
{
    bool converged = false;
    int epochsToConverge = -1;       ///< 1-based; -1 if not converged
    double finalAccuracy = 0.0;      ///< greedy eval accuracy
    double finalEpisodeLength = 0.0; ///< greedy eval mean episode steps
    double bitRate = 0.0;            ///< guesses per step (greedy eval)
    double detectionRate = 0.0;      ///< flagged episodes fraction
    long long envSteps = 0;          ///< total training env steps

    /**
     * Environment steps spent until the run first reached its accuracy
     * target (the Sec. VI-A sample-efficiency measure): the env-step
     * count at the end of the converging phase, or -1 when the run
     * never converged. For search baselines this is the simulated
     * steps the search consumed before finding a distinguishing
     * sequence.
     */
    long long stepsToDiscovery = -1;

    /** Primitive actions of a representative greedy episode. */
    AttackSequence sequence;

    /** Final guess of that episode ("g0", "gE", ...). */
    std::string finalGuess;

    /** Automatic category label of the sequence. */
    AttackCategory category = AttackCategory::Unknown;
};

/**
 * Run one exploration.
 *
 * Training environments are built from the scenario registry
 * (config.scenario) as a config.numStreams-stream VecEnv. A run over
 * something the EnvConfig cannot describe (a hardware target, a
 * detector in the loop) names a scenario registered for it (see
 * env/env_registry.hpp).
 */
ExplorationResult explore(const ExplorationConfig &config);

/**
 * Extract the greedy episode trajectory from a trained policy: one
 * runEpisodes() episode under greedyPolicy(), recorded up to its first
 * guess (or to its end when it ends without one).
 *
 * @param env    environment (reset internally; secret forced to the
 *               first value of the secret space for determinism)
 * @param policy trained network
 * @param guess  receives the final guess action rendering
 */
AttackSequence extractSequence(CacheGuessingGame &env, ActorCritic &policy,
                               std::string *guess = nullptr);

} // namespace autocat

#endif // AUTOCAT_CORE_EXPLORE_HPP
