#include "rl/episodes.hpp"

#include <algorithm>
#include <utility>

namespace autocat {

EvalStats
runEpisodes(VecEnv &envs, int episodes, const EpisodePolicy &act,
            const EpisodeHooks &hooks)
{
    EvalStats stats;
    stats.episodes = static_cast<std::size_t>(episodes);

    std::size_t correct = 0, guesses = 0;
    long long steps = 0;
    double return_sum = 0.0;
    std::size_t detected_episodes = 0;
    const std::size_t n = envs.numEnvs();

    for (int e = 0; e < episodes; ++e) {
        Environment &env = envs.env(static_cast<std::size_t>(e) % n);
        std::vector<float> obs = env.reset();
        if (hooks.onStart)
            hooks.onStart(env);
        StepInfo last;
        bool done = false;
        bool detected = false;
        double ep_return = 0.0;
        long ep_steps = 0;
        while (!done) {
            const std::size_t action =
                act(env, obs, ep_steps ? &last : nullptr);
            StepResult sr = env.step(action);
            ep_return += sr.reward;
            ++ep_steps;
            if (sr.info.guessMade) {
                ++guesses;
                if (sr.info.guessCorrect)
                    ++correct;
            }
            if (sr.info.detected)
                detected = true;
            done = sr.done;
            if (hooks.onStep && !hooks.onStep(env, action, sr))
                done = true;
            last = sr.info;
            obs = std::move(sr.obs);
        }
        if (hooks.onEnd)
            hooks.onEnd(env);
        return_sum += ep_return;
        steps += ep_steps;
        if (detected)
            ++detected_episodes;
    }

    stats.meanReturn = return_sum / std::max(1, episodes);
    stats.meanEpisodeLength =
        static_cast<double>(steps) / std::max(1, episodes);
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

EpisodePolicy
greedyPolicy(ActorCritic &net)
{
    return [&net](Environment &env, const std::vector<float> &obs,
                  const StepInfo *) {
        const AcOutput &out = net.forwardOne(obs);
        const std::uint8_t *m = env.actionMask();
        return m ? net.argmaxMasked(out.logits, 0, m)
                 : net.argmax(out.logits, 0);
    };
}

} // namespace autocat
