#include "rl/episodes.hpp"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <memory>
#include <utility>

#include "rl/inference_memo.hpp"
#include "rl/mat.hpp"

namespace autocat {

namespace {

/** One episode's share of EvalStats. */
struct EpisodeTally
{
    double ret = 0.0;
    long steps = 0;
    std::size_t guesses = 0;
    std::size_t correct = 0;
    bool detected = false;
};

/** The per-episode body: one episode on @p env, from reset() until its
 *  step returns done (or onStep returns false). */
EpisodeTally
playEpisode(Environment &env, const EpisodePolicy &act,
            const EpisodeHooks &hooks)
{
    EpisodeTally t;
    std::vector<float> obs = env.reset();
    if (hooks.onStart)
        hooks.onStart(env);
    StepInfo last;
    bool done = false;
    while (!done) {
        const std::size_t action = act(env, obs, t.steps ? &last : nullptr);
        StepResult sr = env.step(action);
        t.ret += sr.reward;
        ++t.steps;
        if (sr.info.guessMade) {
            ++t.guesses;
            if (sr.info.guessCorrect)
                ++t.correct;
        }
        if (sr.info.detected)
            t.detected = true;
        done = sr.done;
        if (hooks.onStep && !hooks.onStep(env, action, sr))
            done = true;
        last = sr.info;
        obs = std::move(sr.obs);
    }
    if (hooks.onEnd)
        hooks.onEnd(env);
    return t;
}

/** EvalStats of the episodes in @p slots, summed in episode order. */
EvalStats
tally(const std::vector<EpisodeTally> &slots)
{
    EvalStats stats;
    const std::size_t episodes = slots.size();
    stats.episodes = episodes;
    std::size_t correct = 0, guesses = 0, detected_episodes = 0;
    long long steps = 0;
    double return_sum = 0.0;
    for (const EpisodeTally &t : slots) {
        return_sum += t.ret;
        steps += t.steps;
        guesses += t.guesses;
        correct += t.correct;
        if (t.detected)
            ++detected_episodes;
    }

    const double per = static_cast<double>(std::max<std::size_t>(1, episodes));
    stats.meanReturn = return_sum / per;
    stats.meanEpisodeLength = static_cast<double>(steps) / per;
    stats.guessAccuracy =
        guesses ? static_cast<double>(correct) /
                      static_cast<double>(guesses)
                : 0.0;
    stats.bitRate = steps ? static_cast<double>(guesses) /
                                static_cast<double>(steps)
                          : 0.0;
    stats.detectionRate =
        episodes ? static_cast<double>(detected_episodes) /
                       static_cast<double>(episodes)
                 : 0.0;
    stats.guesses = guesses;
    return stats;
}

/** The greedy action of a policy whose logits row 0 is @p logits. */
std::size_t
greedyAction(const ActorCritic &net, const Matrix &logits,
             const std::uint8_t *mask)
{
    return mask ? net.argmaxMasked(logits, 0, mask) : net.argmax(logits, 0);
}

} // namespace

EvalStats
runEpisodes(VecEnv &envs, int episodes, const EpisodePolicy &act,
            const EpisodeHooks &hooks)
{
    std::vector<EpisodeTally> slots(static_cast<std::size_t>(
        std::max(0, episodes)));
    const std::size_t n = envs.numEnvs();
    for (std::size_t e = 0; e < slots.size(); ++e)
        slots[e] = playEpisode(envs.env(e % n), act, hooks);
    return tally(slots);
}

EvalStats
runEpisodes(VecEnv &envs, int episodes,
            const std::vector<EpisodePolicy> &acts)
{
    const std::size_t n = envs.numEnvs();
    assert(acts.size() == n);
    std::vector<EpisodeTally> slots(static_cast<std::size_t>(
        std::max(0, episodes)));
    std::vector<Environment *> streams(n);
    for (std::size_t s = 0; s < n; ++s)
        streams[s] = &envs.env(s);
    // Stream s plays episodes s, s + n, ... in order: the episodes the
    // interleaved order gives it, so its environment and RNG see the
    // same calls.
    const EpisodeHooks none;
    parallelTasks(std::min(n, slots.size()), SIZE_MAX, [&](std::size_t s) {
        for (std::size_t e = s; e < slots.size(); e += n)
            slots[e] = playEpisode(*streams[s], acts[s], none);
    });
    return tally(slots);
}

EpisodePolicy
greedyPolicy(ActorCritic &net)
{
    return [&net](Environment &env, const std::vector<float> &obs,
                  const StepInfo *) {
        return greedyAction(net, net.forwardOne(obs).logits,
                            env.actionMask());
    };
}

std::vector<EpisodePolicy>
greedyPolicies(ActorCritic &net, std::size_t streams)
{
    // Here, on the calling thread: the derived weights are rebuilt and
    // the kernel tier read, for the executors to share.
    net.prepareInference();
    const detail::MatTier tier = detail::matTier();
    const ActorCritic &shared = net;

    /** What one stream's policy owns. */
    struct Stream
    {
        ActorCritic::InferScratch ws;
        InferenceMemo memo;
    };
    std::vector<EpisodePolicy> policies;
    policies.reserve(streams);
    for (std::size_t s = 0; s < streams; ++s) {
        auto own = std::make_shared<Stream>(Stream{
            {},
            InferenceMemo(net.obsDim(), net.numActions(),
                          InferenceMemo::Keys::Copied, kGreedyMemoRows)});
        policies.push_back([&shared, tier, own](Environment &env,
                                                const std::vector<float> &obs,
                                                const StepInfo *) {
            const std::uint64_t h =
                InferenceMemo::hashRow(obs.data(), obs.size());
            Matrix &logits = own->ws.out.logits;
            if (const float *hit = own->memo.find(obs.data(), h)) {
                logits.resizeUninit(1, shared.numActions());
                std::copy(hit, hit + shared.numActions(), logits.data());
            } else {
                const AcOutput &out = shared.forwardOne(tier, obs, own->ws);
                own->memo.insert(obs.data(), h, out.logits.data(),
                                 out.values[0]);
            }
            return greedyAction(shared, logits, env.actionMask());
        });
    }
    return policies;
}

} // namespace autocat
