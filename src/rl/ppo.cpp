#include "rl/ppo.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <condition_variable>
#include <cstring>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <thread>

namespace autocat {

/**
 * Persistent background worker that advances a stream range of a
 * VecEnv while the caller keeps the policy busy. One job may be in
 * flight at a time: launch() publishes it, wait() blocks until the
 * step finishes and rethrows any environment exception on the calling
 * thread.
 */
struct PpoTrainer::Pipeline
{
    Pipeline() : worker_([this] { loop(); }) {}

    ~Pipeline()
    {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            quit_ = true;
            pending_ = true;
        }
        work_cv_.notify_all();
        worker_.join();
    }

    void
    launch(VecEnv &envs, std::size_t begin, std::size_t end,
           const std::vector<std::size_t> &actions, VecStepResult &out)
    {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            envs_ = &envs;
            begin_ = begin;
            end_ = end;
            actions_ = &actions;
            out_ = &out;
            pending_ = true;
            done_ = false;
        }
        work_cv_.notify_all();
    }

    void
    wait()
    {
        std::unique_lock<std::mutex> lock(mutex_);
        done_cv_.wait(lock, [&] { return done_; });
        if (error_) {
            std::exception_ptr e = std::move(error_);
            error_ = nullptr;
            std::rethrow_exception(e);
        }
    }

    /**
     * Wait for any in-flight job without rethrowing its error. Run
     * before the job's target storage goes out of scope — in
     * particular while unwinding, when the worker may still be
     * writing into the caller's stack.
     */
    void
    drain() noexcept
    {
        std::unique_lock<std::mutex> lock(mutex_);
        done_cv_.wait(lock, [&] { return done_; });
        error_ = nullptr;
    }

  private:
    void
    loop()
    {
        for (;;) {
            VecEnv *envs;
            std::size_t begin, end;
            const std::vector<std::size_t> *actions;
            VecStepResult *out;
            {
                std::unique_lock<std::mutex> lock(mutex_);
                work_cv_.wait(lock, [&] { return pending_; });
                pending_ = false;
                if (quit_)
                    return;
                envs = envs_;
                begin = begin_;
                end = end_;
                actions = actions_;
                out = out_;
            }
            try {
                envs->stepRange(begin, end, *actions, *out);
            } catch (...) {
                std::lock_guard<std::mutex> lock(mutex_);
                error_ = std::current_exception();
            }
            {
                std::lock_guard<std::mutex> lock(mutex_);
                done_ = true;
            }
            done_cv_.notify_all();
        }
    }

    std::mutex mutex_;
    std::condition_variable work_cv_;
    std::condition_variable done_cv_;
    bool pending_ = false;
    bool done_ = true;
    bool quit_ = false;
    VecEnv *envs_ = nullptr;
    std::size_t begin_ = 0;
    std::size_t end_ = 0;
    const std::vector<std::size_t> *actions_ = nullptr;
    VecStepResult *out_ = nullptr;
    std::exception_ptr error_;
    std::thread worker_;
};

PpoTrainer::~PpoTrainer() = default;

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
    // Streams either all mask or none do (BatchEnvPool enforces this;
    // config-built SyncVecEnv streams share one EnvConfig), so stream 0
    // answers for the batch.
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

void
PpoTrainer::collect()
{
    const std::size_t n = envs_->numEnvs();
    buffer_->clear();
    collect_return_sum_ = 0.0;
    collect_len_sum_ = 0.0;
    collect_episodes_ = 0;

    if (!collection_active_) {
        current_obs_ = envs_->resetAll();
        collection_active_ = true;
        running_return_.assign(n, 0.0);
        running_len_.assign(n, 0.0);
    }
    last_dones_.assign(n, 0);

    // Double buffering needs two stream groups to alternate between.
    BatchStepSurface *surface = envs_->batchSurface();
    if (config_.doubleBuffered && n >= 2)
        collectPipelined();
    else if (surface)
        collectBatchInPlace(*surface);
    else
        collectSerial();

    // Bootstrap the value of the state each stream stopped in; streams
    // whose final transition ended an episode bootstrap from 0 (their
    // current observation is already the next episode's start).
    std::vector<double> last_values(n, 0.0);
    net_->forwardNoGrad(current_obs_, fwd_out_);
    for (std::size_t s = 0; s < n; ++s) {
        if (!last_dones_[s])
            last_values[s] = fwd_out_.values[s];
    }

    buffer_->computeAdvantages(config_.gamma, config_.lambda, last_values);
    buffer_->normalizeAdvantages();
}

void
PpoTrainer::collectSerial()
{
    const std::size_t n = envs_->numEnvs();
    const std::size_t na = envs_->numActions();
    std::vector<std::size_t> actions(n);
    std::vector<double> values(n), log_probs(n);
    if (masking_)
        mask_ws_.resize(n * na);

    while (!buffer_->full()) {
        // One batched forward over the N current observations.
        net_->forwardNoGrad(current_obs_, fwd_out_);
        if (masking_) {
            // Snapshot the acting masks before the step mutates them;
            // the snapshot doubles as the rollout's stored masks.
            for (std::size_t s = 0; s < n; ++s)
                std::memcpy(mask_ws_.data() + s * na,
                            envs_->env(s).actionMask(), na);
            for (std::size_t s = 0; s < n; ++s) {
                const std::uint8_t *m = mask_ws_.data() + s * na;
                actions[s] =
                    net_->sampleMasked(fwd_out_.logits, s, m, rng_);
                log_probs[s] = ActorCritic::logProbMasked(
                    fwd_out_.logits, s, actions[s], m);
                values[s] = fwd_out_.values[s];
            }
            buffer_->stageMasks(mask_ws_.data());
        } else {
            for (std::size_t s = 0; s < n; ++s) {
                actions[s] = net_->sample(fwd_out_.logits, s, rng_);
                log_probs[s] =
                    ActorCritic::logProb(fwd_out_.logits, s, actions[s]);
                values[s] = fwd_out_.values[s];
            }
        }

        VecStepResult vr = envs_->stepAll(actions);
        total_env_steps_ += static_cast<long long>(n);
        recordEpisodeStats(vr.rewards, vr.dones);

        buffer_->addStep(std::move(current_obs_), actions, vr.rewards,
                         vr.dones, values, log_probs);
        last_dones_ = vr.dones;
        current_obs_ = std::move(vr.obs);
    }
}

/*
 * In-place collection over a BatchStepSurface: the policy GEMM reads
 * the engine's persistent observation matrix directly and the
 * environments rewrite its rows as they step, so the per-step Matrix
 * allocation and row copies of collectSerial() disappear. The acting
 * observations are staged into the rollout *before* the step
 * overwrites them (RolloutBuffer::stageObs) — the same single copy the
 * serial path performs inside stepAll(), just without the allocation.
 * Forward, sampling, stepping, and bookkeeping run in the serial order
 * on identical values, so the rollout is bitwise-identical to
 * collectSerial() over SyncVecEnv with the same seeds.
 */
void
PpoTrainer::collectBatchInPlace(BatchStepSurface &surface)
{
    const std::size_t n = envs_->numEnvs();
    std::vector<std::size_t> actions(n);
    std::vector<double> values(n), log_probs(n);
    std::vector<double> rewards(n);
    std::vector<std::uint8_t> dones(n);
    std::vector<StepInfo> infos(n);

    const Matrix &obs = surface.obsMatrix();
    const std::uint8_t *mm = surface.maskMatrix();
    const std::size_t na = envs_->numActions();
    assert(!masking_ || mm != nullptr);
    while (!buffer_->full()) {
        net_->forwardNoGrad(obs, fwd_out_);
        if (masking_) {
            // The engine maintains the mask matrix in place like the
            // observation rows: stage the acting snapshot before the
            // step rewrites it, sample straight from the live rows.
            buffer_->stageMasks(mm);
            for (std::size_t s = 0; s < n; ++s) {
                const std::uint8_t *m = mm + s * na;
                actions[s] =
                    net_->sampleMasked(fwd_out_.logits, s, m, rng_);
                log_probs[s] = ActorCritic::logProbMasked(
                    fwd_out_.logits, s, actions[s], m);
                values[s] = fwd_out_.values[s];
            }
        } else {
            for (std::size_t s = 0; s < n; ++s) {
                actions[s] = net_->sample(fwd_out_.logits, s, rng_);
                log_probs[s] =
                    ActorCritic::logProb(fwd_out_.logits, s, actions[s]);
                values[s] = fwd_out_.values[s];
            }
        }

        buffer_->stageObs(obs);
        surface.stepBatchInPlace(actions.data(), rewards.data(),
                                 dones.data(), infos.data());
        total_env_steps_ += static_cast<long long>(n);
        recordEpisodeStats(rewards, dones);
        buffer_->commitStep(actions, rewards, dones, values, log_probs);
        last_dones_ = dones;
    }

    // Refresh the cross-epoch mirror the shared bootstrap code (and a
    // possible later non-batch path) reads.
    current_obs_ = obs;
}

/*
 * Pipelined collection: streams are split into contiguous groups
 * A = [0, h) and B = [h, n). While the background worker advances one
 * group's environments, the calling thread runs the policy forward and
 * samples actions for the other:
 *
 *      main:    fwd A0 | fwd B0 | fwd A1 | fwd B1 | ...
 *      worker:         | step A0 | step B0 | step A1 | ...
 *
 * Sampling still consumes the trainer RNG in the serial order (all of
 * A's rows at step t, then all of B's), and the inference GEMM is
 * row-pure, so the collected rollout is bitwise identical to
 * collectSerial()'s.
 */
void
PpoTrainer::collectPipelined()
{
    const std::size_t n = envs_->numEnvs();
    const std::size_t d = envs_->observationSize();
    const std::size_t h = n / 2;  // group A = [0, h), B = [h, n)
    const std::size_t steps = buffer_->capacitySteps();
    if (!pipeline_)
        pipeline_ = std::make_unique<Pipeline>();

    // The worker writes into stack-local staging below; if anything on
    // this thread throws mid-flight, the in-flight job must finish
    // before those locals unwind.
    struct DrainGuard
    {
        Pipeline *p;
        ~DrainGuard() { p->drain(); }
    } drain_guard{pipeline_.get()};

    // Per-group observation staging (what each group acts from).
    Matrix obs_a(h, d), obs_b(n - h, d);
    for (std::size_t r = 0; r < h; ++r)
        std::memcpy(obs_a.rowPtr(r), current_obs_.rowPtr(r),
                    d * sizeof(float));
    for (std::size_t r = 0; r < n - h; ++r)
        std::memcpy(obs_b.rowPtr(r), current_obs_.rowPtr(h + r),
                    d * sizeof(float));

    // Shared step output; the worker writes only its group's rows.
    VecStepResult step_out;
    step_out.obs.resizeUninit(n, d);
    step_out.rewards.resize(n);
    step_out.dones.resize(n);
    step_out.infos.resize(n);

    // Two timesteps are in flight at once (group A runs one ahead), so
    // the sampled transition data is double-buffered too.
    const std::size_t na = envs_->numActions();
    struct Stage
    {
        Matrix obs;  ///< full N x d acting observations
        std::vector<std::size_t> actions;
        std::vector<double> values;
        std::vector<double> log_probs;
        std::vector<std::uint8_t> masks;  ///< N x A acting masks
    };
    Stage cur, next;
    for (Stage *st : {&cur, &next}) {
        st->obs.resizeUninit(n, d);
        st->actions.resize(n);
        st->values.resize(n);
        st->log_probs.resize(n);
        if (masking_)
            st->masks.resize(n * na);
    }

    // Forward + sample one group's rows into a stage buffer. While
    // this runs, the worker only ever steps the *other* group, so this
    // group's observation rows and mask rows are idle — the mask
    // snapshot below reads stable memory.
    const auto forwardSample = [&](const Matrix &obs_g, std::size_t begin,
                                   std::size_t end, Stage &st) {
        for (std::size_t r = 0; r < end - begin; ++r)
            std::memcpy(st.obs.rowPtr(begin + r), obs_g.rowPtr(r),
                        d * sizeof(float));
        net_->forwardNoGrad(obs_g, fwd_out_);
        if (masking_) {
            for (std::size_t s = begin; s < end; ++s)
                std::memcpy(st.masks.data() + s * na,
                            envs_->env(s).actionMask(), na);
            for (std::size_t s = begin; s < end; ++s) {
                const std::size_t r = s - begin;
                const std::uint8_t *m = st.masks.data() + s * na;
                st.actions[s] =
                    net_->sampleMasked(fwd_out_.logits, r, m, rng_);
                st.log_probs[s] = ActorCritic::logProbMasked(
                    fwd_out_.logits, r, st.actions[s], m);
                st.values[s] = fwd_out_.values[r];
            }
        } else {
            for (std::size_t s = begin; s < end; ++s) {
                const std::size_t r = s - begin;
                st.actions[s] = net_->sample(fwd_out_.logits, r, rng_);
                st.log_probs[s] = ActorCritic::logProb(fwd_out_.logits,
                                                       r, st.actions[s]);
                st.values[s] = fwd_out_.values[r];
            }
        }
    };

    // Copy a group's freshly stepped rows out of the shared staging.
    const auto harvest = [&](Matrix &obs_g, std::size_t begin,
                             std::size_t end) {
        for (std::size_t r = 0; r < end - begin; ++r)
            std::memcpy(obs_g.rowPtr(r), step_out.obs.rowPtr(begin + r),
                        d * sizeof(float));
    };

    forwardSample(obs_a, 0, h, cur);
    pipeline_->launch(*envs_, 0, h, cur.actions, step_out);

    for (std::size_t t = 0; t < steps; ++t) {
        const bool more = t + 1 < steps;

        forwardSample(obs_b, h, n, cur);  // overlaps A's env step
        pipeline_->wait();                // A rows of step_out valid
        pipeline_->launch(*envs_, h, n, cur.actions, step_out);

        harvest(obs_a, 0, h);
        if (more)
            forwardSample(obs_a, 0, h, next);  // overlaps B's env step
        pipeline_->wait();                     // B rows valid
        harvest(obs_b, h, n);

        recordEpisodeStats(step_out.rewards, step_out.dones);
        total_env_steps_ += static_cast<long long>(n);
        last_dones_ = step_out.dones;
        if (masking_)
            buffer_->stageMasks(cur.masks.data());
        buffer_->addStep(std::move(cur.obs), cur.actions, step_out.rewards,
                         step_out.dones, cur.values, cur.log_probs);

        if (more) {
            std::swap(cur, next);
            // cur.obs was moved into the buffer and swapped into next;
            // restore its shape for the following timestep.
            next.obs.resizeUninit(n, d);
            pipeline_->launch(*envs_, 0, h, cur.actions, step_out);
        }
    }

    // Reassemble the persistent cross-epoch observation state.
    current_obs_.resizeUninit(n, d);
    for (std::size_t r = 0; r < h; ++r)
        std::memcpy(current_obs_.rowPtr(r), obs_a.rowPtr(r),
                    d * sizeof(float));
    for (std::size_t r = 0; r < n - h; ++r)
        std::memcpy(current_obs_.rowPtr(h + r), obs_b.rowPtr(r),
                    d * sizeof(float));
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
