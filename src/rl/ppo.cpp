#include "rl/ppo.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

namespace autocat {

PpoTrainer::PpoTrainer(VecEnv &envs, const PpoConfig &config)
    : envs_(&envs), config_(config), rng_(config.seed)
{
    init();
}

PpoTrainer::PpoTrainer(Environment &env, const PpoConfig &config)
    : owned_env_(std::make_unique<SyncVecEnv>(env)),
      envs_(owned_env_.get()),
      config_(config),
      rng_(config.seed)
{
    init();
}

void
PpoTrainer::init()
{
    Rng init_rng(config_.seed ^ 0x5eedf00dull);
    net_ = std::make_unique<ActorCritic>(envs_->observationSize(),
                                         envs_->numActions(),
                                         config_.hidden, config_.layers,
                                         init_rng);
    auto blocks = net_->paramBlocks();
    adam_ = std::make_unique<Adam>(blocks, config_.lr);
    rebuildBuffer();
}

void
PpoTrainer::rebuildBuffer()
{
    const std::size_t n = envs_->numEnvs();
    const std::size_t steps_per_stream =
        (static_cast<std::size_t>(config_.stepsPerEpoch) + n - 1) / n;
    buffer_ = std::make_unique<RolloutBuffer>(steps_per_stream, n,
                                              envs_->observationSize());
    surface_ = envs_->batchSurface();
    step_all_.reset();
    if (!surface_) {
        step_all_ = makeStepAllSurface(*envs_);
        surface_ = step_all_.get();
    }
    // Streams either all mask or none do (every adapter's constructor
    // enforces this), so stream 0 answers for the batch.
    masking_ = envs_->env(0).actionMask() != nullptr;
    if (masking_)
        buffer_->enableMasks(envs_->numActions());
    running_return_.assign(n, 0.0);
    running_len_.assign(n, 0.0);
    collection_active_ = false;
}

void
PpoTrainer::recordEpisodeStats(const std::vector<double> &rewards,
                               const std::vector<std::uint8_t> &dones)
{
    for (std::size_t s = 0; s < rewards.size(); ++s) {
        running_return_[s] += rewards[s];
        running_len_[s] += 1.0;
        if (dones[s]) {
            collect_return_sum_ += running_return_[s];
            collect_len_sum_ += running_len_[s];
            ++collect_episodes_;
            running_return_[s] = 0.0;
            running_len_[s] = 0.0;
        }
    }
}

/*
 * One loop for every adapter. The policy GEMM reads the surface's
 * observation matrix directly; the acting observations (and masks) are
 * staged into the rollout before the step overwrites them, and the
 * step's outcomes are committed after it. Forward, sampling, stepping
 * and bookkeeping run in the same order whichever surface steps, so a
 * BatchVecEnv and a SyncVecEnv over the same streams give bitwise
 * identical rollouts.
 */
void
PpoTrainer::collect()
{
    const std::size_t n = envs_->numEnvs();
    const std::size_t na = envs_->numActions();
    BatchStepSurface &surface = *surface_;
    buffer_->clear();
    collect_return_sum_ = 0.0;
    collect_len_sum_ = 0.0;
    collect_episodes_ = 0;

    if (!collection_active_) {
        surface.resetAllInPlace();
        collection_active_ = true;
        running_return_.assign(n, 0.0);
        running_len_.assign(n, 0.0);
    }

    std::vector<std::size_t> actions(n);
    std::vector<double> values(n), log_probs(n), rewards(n);
    std::vector<std::uint8_t> dones(n, 0);
    std::vector<StepInfo> infos(n);
    const Matrix &obs = surface.obsMatrix();
    while (!buffer_->full()) {
        net_->forwardNoGrad(obs, fwd_out_);
        const std::uint8_t *masks = masking_ ? surface.maskMatrix() : nullptr;
        if (masks)
            buffer_->stageMasks(masks);
        for (std::size_t s = 0; s < n; ++s) {
            if (masks) {
                const std::uint8_t *m = masks + s * na;
                actions[s] =
                    net_->sampleMasked(fwd_out_.logits, s, m, rng_);
                log_probs[s] = ActorCritic::logProbMasked(
                    fwd_out_.logits, s, actions[s], m);
            } else {
                actions[s] = net_->sample(fwd_out_.logits, s, rng_);
                log_probs[s] =
                    ActorCritic::logProb(fwd_out_.logits, s, actions[s]);
            }
            values[s] = fwd_out_.values[s];
        }

        buffer_->stageObs(obs);
        surface.stepBatchInPlace(actions.data(), rewards.data(),
                                 dones.data(), infos.data());
        total_env_steps_ += static_cast<long long>(n);
        recordEpisodeStats(rewards, dones);
        buffer_->commitStep(actions, rewards, dones, values, log_probs);
    }

    // Bootstrap the value of the state each stream stopped in; streams
    // whose final transition ended an episode bootstrap from 0 (their
    // current observation is already the next episode's start).
    std::vector<double> last_values(n, 0.0);
    net_->forwardNoGrad(obs, fwd_out_);
    for (std::size_t s = 0; s < n; ++s) {
        if (!dones[s])
            last_values[s] = fwd_out_.values[s];
    }

    buffer_->computeAdvantages(config_.gamma, config_.lambda, last_values);
    buffer_->normalizeAdvantages();
}

void
PpoTrainer::update(EpochStats &stats)
{
    const std::size_t n = buffer_->size();
    std::vector<std::size_t> order(n);
    std::iota(order.begin(), order.end(), 0);

    double pi_loss_sum = 0.0, v_loss_sum = 0.0, ent_sum = 0.0;
    long batches = 0;

    for (int pass = 0; pass < config_.updatePasses; ++pass) {
        rng_.shuffle(order);
        for (std::size_t start = 0; start < n;
             start += static_cast<std::size_t>(config_.minibatchSize)) {
            const std::size_t end = std::min(
                n, start + static_cast<std::size_t>(config_.minibatchSize));
            idx_ws_.assign(order.begin() + start, order.begin() + end);
            const std::vector<std::size_t> &idx = idx_ws_;
            const std::size_t bsz = idx.size();

            buffer_->gatherObsInto(obs_ws_, idx);
            net_->forward(obs_ws_, train_out_);
            const AcOutput &out = train_out_;

            // Batch softmax + entropy in one fused pass over reusable
            // workspaces (rl/mat.hpp): bitwise-identical per-row math
            // to the old softmaxRow()/inline-entropy loops, without
            // the per-row vector allocations and second traversal.
            const std::size_t na = net_->numActions();
            if (masking_) {
                // Replay the acting masks: the surrogate ratio and the
                // entropy bonus are computed on the same restricted
                // support the policy sampled from. Masked entries get
                // probability exactly 0, which zeroes their gradient
                // terms below without any extra branching.
                buffer_->gatherMasksInto(mask_mb_ws_, idx);
                softmaxEntropyRowsMaskedInto(probs_ws_, entropy_ws_,
                                             out.logits,
                                             mask_mb_ws_.data());
            } else {
                softmaxEntropyRowsInto(probs_ws_, entropy_ws_,
                                       out.logits);
            }

            // Every element of both is written in the loop below.
            Matrix &dlogits = dlogits_ws_;
            std::vector<float> &dvalues = dvalues_ws_;
            dlogits.resizeUninit(bsz, na);
            dvalues.resize(bsz);
            const double inv_b = 1.0 / static_cast<double>(bsz);

            for (std::size_t r = 0; r < bsz; ++r) {
                const std::size_t i = idx[r];
                const std::size_t act = buffer_->actions()[i];
                const double adv = buffer_->advantages()[i];
                const double old_logp = buffer_->logProbs()[i];
                const double ret = buffer_->returns()[i];

                const double *p = probs_ws_.data() + r * na;
                const double ent = entropy_ws_[r];
                const double logp =
                    std::log(std::max(p[act], 1e-12));
                const double ratio = std::exp(logp - old_logp);

                // Clipped surrogate: gradient flows only through the
                // unclipped branch when it is the active minimum.
                const bool clipped =
                    (adv >= 0.0 && ratio > 1.0 + config_.clip) ||
                    (adv < 0.0 && ratio < 1.0 - config_.clip);
                const double dl_dlogp = clipped ? 0.0 : -adv * ratio;

                // Entropy bonus gradient: d(-H)/dlogit_k =
                // p_k * (log p_k + H).
                for (std::size_t k = 0; k < na; ++k) {
                    const double ind = (k == act) ? 1.0 : 0.0;
                    double g = dl_dlogp * (ind - p[k]);
                    g += config_.entropyCoef * p[k] *
                         (std::log(std::max(p[k], 1e-12)) + ent);
                    dlogits(r, k) = static_cast<float>(g * inv_b);
                }

                const double verr =
                    static_cast<double>(out.values[r]) - ret;
                dvalues[r] = static_cast<float>(
                    2.0 * config_.valueCoef * verr * inv_b);

                pi_loss_sum += -std::min(
                    ratio * adv,
                    std::clamp(ratio, 1.0 - config_.clip,
                               1.0 + config_.clip) * adv);
                v_loss_sum += verr * verr;
                ent_sum += ent;
            }

            net_->zeroGrad();
            net_->backward(dlogits, dvalues);
            auto blocks = net_->paramBlocks();
            clipGradNorm(blocks, config_.maxGradNorm);
            adam_->step(blocks);
            ++batches;
        }
    }

    const double steps = static_cast<double>(n) * config_.updatePasses;
    stats.policyLoss = pi_loss_sum / steps;
    stats.valueLoss = v_loss_sum / steps;
    stats.entropy = ent_sum / steps;
}

EpochStats
PpoTrainer::runEpoch()
{
    EpochStats stats;
    stats.epoch = ++epoch_;
    if (epoch_ > 1) {
        config_.entropyCoef = std::max(
            config_.entropyMin, config_.entropyCoef * config_.entropyDecay);
    }
    collect();
    if (collect_episodes_ > 0) {
        stats.meanReturn =
            collect_return_sum_ / static_cast<double>(collect_episodes_);
        stats.meanEpisodeLength =
            collect_len_sum_ / static_cast<double>(collect_episodes_);
    }
    update(stats);
    return stats;
}

EvalStats
PpoTrainer::evaluate(int episodes, bool greedy)
{
    EvalStats stats;
    stats.episodes = static_cast<std::size_t>(episodes);

    std::size_t correct = 0, guesses = 0;
    long long steps = 0;
    double return_sum = 0.0;
    std::size_t detected_episodes = 0;
    const std::size_t n = envs_->numEnvs();

    for (int e = 0; e < episodes; ++e) {
        Environment &env = envs_->env(static_cast<std::size_t>(e) % n);
        std::vector<float> obs = env.reset();
        bool done = false;
        bool detected = false;
        double ep_return = 0.0;
        long ep_steps = 0;
        while (!done) {
            const AcOutput &out = net_->forwardOne(obs);
            // The greedy policy honors the mask too: a masked action is
            // never played, and ties break to the lowest valid index in
            // both variants, so evaluation is deterministic.
            const std::uint8_t *m = masking_ ? env.actionMask() : nullptr;
            const std::size_t action =
                greedy ? (m ? net_->argmaxMasked(out.logits, 0, m)
                            : net_->argmax(out.logits, 0))
                       : (m ? net_->sampleMasked(out.logits, 0, m, rng_)
                            : net_->sample(out.logits, 0, rng_));
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
            obs = std::move(sr.obs);
        }
        return_sum += ep_return;
        steps += ep_steps;
        if (detected)
            ++detected_episodes;
    }

    // The trainer's persistent episode state is stale after evaluation.
    collection_active_ = false;

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

int
PpoTrainer::trainUntil(double target_accuracy, int max_epochs,
                       int eval_episodes, const EpochCallback &callback)
{
    for (int e = 1; e <= max_epochs; ++e) {
        EpochStats stats = runEpoch();
        stats.eval = evaluate(eval_episodes, /*greedy=*/true);
        if (callback)
            callback(stats);
        const bool guessing =
            stats.eval.guesses >= stats.eval.episodes;
        if (guessing && stats.eval.guessAccuracy >= target_accuracy)
            return e;
    }
    return -1;
}

void
PpoTrainer::setVecEnv(VecEnv &envs)
{
    if (envs.observationSize() != envs_->observationSize() ||
        envs.numActions() != envs_->numActions()) {
        throw std::invalid_argument(
            "setVecEnv: observation/action dimensions must match");
    }
    envs_ = &envs;
    owned_env_.reset();
    rebuildBuffer();
}

void
PpoTrainer::setEnvironment(Environment &env)
{
    if (env.observationSize() != envs_->observationSize() ||
        env.numActions() != envs_->numActions()) {
        throw std::invalid_argument(
            "setEnvironment: observation/action dimensions must match");
    }
    owned_env_ = std::make_unique<SyncVecEnv>(env);
    envs_ = owned_env_.get();
    rebuildBuffer();
}

} // namespace autocat
