/**
 * @file
 * The episode runner: every whole-episode walk of the codebase —
 * greedy and sampled policy evaluation, greedy attack-sequence
 * extraction, scripted agents, the detector benches — plays its
 * episodes through runEpisodes() and reads the same EvalStats tally
 * (guesses, correct guesses, detections: the paper's accuracy, bit
 * rate and detection rate).
 *
 * **Two orders, one episode body.** A call with one policy (and
 * optional hooks) plays episode e on stream e % N, one episode after
 * another on the calling thread. A call with one policy per stream —
 * greedyPolicies() supplies them — plays the streams at once on the
 * calling thread's rl/mat pool (parallelTasks()), stream s playing
 * episodes s, s + N, s + 2N, ... in that order; at budget 1 the streams
 * run inline, one after another. Each stream owns its environment and
 * RNG and a greedy policy draws nothing, so every stream sees exactly
 * the calls of the one-at-a-time order, and the two give the same
 * episodes. Hooks, scripted agents (bound to one environment) and
 * policies that draw from a shared RNG (PpoTrainer::evaluate()'s
 * sampler) take the one-policy call.
 *
 * **Memos.** Each greedyPolicies() policy keeps an InferenceMemo
 * (rl/inference_memo.hpp) of the rows it has scored during one call
 * and skips the forward on a row it holds, which gives the bytes the
 * forward would: the weights may not change while the policies live.
 *
 * **Tally.** Each episode is recorded in a slot indexed by its episode
 * number, and EvalStats is summed from the slots in episode order, so
 * no sum depends on which stream finished first: both calls give the
 * same bits.
 *
 * **Exceptions.** In the per-stream call a throwing stream does not
 * stop the others, which play all their episodes; the first exception
 * is rethrown on the caller once every stream has settled
 * (util/TaskPool's rule). The one-policy call stops at the throw.
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
 * (or onStep returns false), and tally them, on the calling thread.
 * Streams are stepped through VecEnv::env(), never through stepAll(),
 * so a trainer collecting from @p envs must restart its collection
 * after.
 */
EvalStats runEpisodes(VecEnv &envs, int episodes, const EpisodePolicy &act,
                      const EpisodeHooks &hooks = {});

/**
 * The same episodes and tally with one policy per stream (@p acts has
 * envs.numEnvs() entries; entry s plays stream s): the streams play at
 * once on the calling thread's pool (file comment). Entries run
 * concurrently, so each must touch only its stream and state it owns.
 */
EvalStats runEpisodes(VecEnv &envs, int episodes,
                      const std::vector<EpisodePolicy> &acts);

/**
 * The greedy policy of @p net: the argmax of its logits, under the
 * environment's action mask when actionMask() is non-null. A masked
 * action is never played, and ties break to the lowest valid index,
 * so replays are deterministic. @p net must outlive the policy.
 */
EpisodePolicy greedyPolicy(ActorCritic &net);

/** Observation rows each greedyPolicies() policy memoizes at most. */
constexpr std::size_t kGreedyMemoRows = 512;

/**
 * greedyPolicy() once per stream, for the per-stream runEpisodes():
 * each runs the const ActorCritic::forwardOne() on its own workspace
 * with the calling thread's kernel tier, read here, after the network's
 * derived weights are rebuilt here. Same actions as greedyPolicy().
 *
 * Each policy also owns an InferenceMemo (rl/inference_memo.hpp) of the
 * rows it has scored, up to kGreedyMemoRows rows, and skips the forward
 * on a row it holds: a greedy policy revisits most of its rows. So the
 * policies are valid only until @p net's weights next change, which the
 * derived weights rebuilt here already require; call greedyPolicies()
 * again after.
 */
std::vector<EpisodePolicy> greedyPolicies(ActorCritic &net,
                                          std::size_t streams);

} // namespace autocat

#endif // AUTOCAT_RL_EPISODES_HPP
