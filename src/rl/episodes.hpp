/**
 * @file
 * The episode runner: every whole-episode walk of the codebase —
 * greedy and sampled policy evaluation, greedy attack-sequence
 * extraction, scripted agents, the detector benches — plays its
 * episodes through runEpisodes() and reads the same EvalStats tally
 * (guesses, correct guesses, detections: the paper's accuracy, bit
 * rate and detection rate).
 */

#ifndef AUTOCAT_RL_EPISODES_HPP
#define AUTOCAT_RL_EPISODES_HPP

#include <cstddef>
#include <functional>
#include <vector>

#include "rl/actor_critic.hpp"
#include "rl/env_interface.hpp"
#include "rl/vec_env.hpp"

namespace autocat {

/** Aggregate metrics from a batch of evaluation episodes. */
struct EvalStats
{
    double meanReturn = 0.0;
    double meanEpisodeLength = 0.0;
    double guessAccuracy = 0.0;  ///< correct guesses / guesses
    double bitRate = 0.0;        ///< guesses / steps
    double detectionRate = 0.0;  ///< episodes flagged / episodes
    std::size_t episodes = 0;
    std::size_t guesses = 0;
};

/**
 * Chooses the next action on @p env from its current observation
 * @p obs. @p last is the info of the previous step, or nullptr at an
 * episode's first step.
 */
using EpisodePolicy = std::function<std::size_t(
    Environment &env, const std::vector<float> &obs, const StepInfo *last)>;

/** Observers of runEpisodes(); empty members are skipped. */
struct EpisodeHooks
{
    /** After each reset(), before the episode's first action. */
    std::function<void(Environment &)> onStart;

    /** After each step (already tallied); false ends the episode. */
    std::function<bool(Environment &, std::size_t action,
                       const StepResult &)>
        onStep;

    /** Once per episode, after its last step. */
    std::function<void(Environment &)> onEnd;
};

/**
 * Play @p episodes fresh episodes, episode e on stream
 * e % envs.numEnvs(), each from reset() until its step returns done
 * (or onStep returns false), and tally them. Streams are stepped one
 * at a time through VecEnv::env(), never through stepAll(), so a
 * trainer collecting from @p envs must restart its collection after.
 */
EvalStats runEpisodes(VecEnv &envs, int episodes, const EpisodePolicy &act,
                      const EpisodeHooks &hooks = {});

/**
 * The greedy policy of @p net: the argmax of its logits, under the
 * environment's action mask when actionMask() is non-null. A masked
 * action is never played, and ties break to the lowest valid index,
 * so replays are deterministic. @p net must outlive the policy.
 */
EpisodePolicy greedyPolicy(ActorCritic &net);

} // namespace autocat

#endif // AUTOCAT_RL_EPISODES_HPP
