/**
 * @file
 * Proximal Policy Optimization (Schulman et al., 2017).
 *
 * Synchronous PPO with the clipped surrogate objective, GAE
 * advantages, entropy bonus, and value regression — the algorithm the
 * paper trains AutoCAT with (Section IV-C; the paper uses the
 * non-distributed synchronous variant for real-hardware experiments,
 * which is what we implement).
 *
 * Collection is vectorized: the trainer consumes a VecEnv of N
 * streams, runs one batched policy forward pass per timestep (a single
 * N x obs_dim matmul instead of N vector passes), and tracks episode
 * boundaries per stream for GAE. N = 1 over a single environment
 * reproduces the classic single-worker loop exactly. One loop collects
 * from every adapter, through a BatchStepSurface (rl/vec_env.hpp): the
 * adapter's own, or a wrapper over resetAll()/stepAll() when it has
 * none. Both give the same bits for the same streams and seeds.
 *
 * Collection consults an InferenceMemo (rl/inference_memo.hpp) keyed
 * on the step's observations, staged into the rollout buffer before
 * the forward: a step whose every stream's row was already scored in
 * this collection takes the memo's outputs instead of the forward,
 * which are the same bytes, since the weights do not change during a
 * collection. The memo is reset when a collection starts.
 *
 * One "epoch" is paper-aligned: 3000 environment steps of collection
 * (across all streams) followed by minibatch updates (Table V
 * footnote: "One epoch is 3000 training steps").
 */

#ifndef AUTOCAT_RL_PPO_HPP
#define AUTOCAT_RL_PPO_HPP

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "rl/actor_critic.hpp"
#include "rl/adam.hpp"
#include "rl/env_interface.hpp"
#include "rl/episodes.hpp"
#include "rl/inference_memo.hpp"
#include "rl/rollout.hpp"
#include "rl/vec_env.hpp"
#include "util/rng.hpp"

namespace autocat {

/** Hyper-parameters of the PPO trainer. */
struct PpoConfig
{
    int stepsPerEpoch = 3000;   ///< paper: one epoch = 3000 steps,
                                ///< summed across all streams
    int updatePasses = 6;       ///< optimization passes per epoch
    int minibatchSize = 500;
    double gamma = 0.99;
    double lambda = 0.95;
    double clip = 0.2;
    double lr = 7e-4;
    double entropyCoef = 0.03;

    /**
     * Multiplicative per-epoch decay of the entropy coefficient;
     * keeps exploration high early and lets the policy sharpen once
     * the attack structure is found.
     */
    double entropyDecay = 0.94;
    double entropyMin = 5e-4;
    double valueCoef = 0.5;
    double maxGradNorm = 0.5;
    std::size_t hidden = 128;
    std::size_t layers = 2;
    std::uint64_t seed = 1;
};

/** Per-epoch training telemetry. */
struct EpochStats
{
    int epoch = 0;
    double meanReturn = 0.0;
    double meanEpisodeLength = 0.0;
    double policyLoss = 0.0;
    double valueLoss = 0.0;
    double entropy = 0.0;
    EvalStats eval;
};

/** PPO trainer bound to a vectorized environment. */
class PpoTrainer
{
  public:
    /** Observer invoked after every epoch (may be empty). */
    using EpochCallback = std::function<void(const EpochStats &)>;

    /**
     * Train through @p envs (N streams, batched forward passes).
     * @p envs must outlive the trainer (or its next setVecEnv()).
     */
    PpoTrainer(VecEnv &envs, const PpoConfig &config);

    /** Collect stepsPerEpoch transitions and run the PPO update. */
    EpochStats runEpoch();

    /**
     * Evaluate the current policy over @p episodes fresh episodes,
     * episode e on stream e % numStreams() (runEpisodes()): greedy, the
     * streams play at once on the calling thread's pool
     * (greedyPolicies()); sampled, one episode after another, drawing
     * from the trainer's RNG in step order. The next runEpoch() restarts
     * every stream from reset(), also after an episode has thrown.
     */
    EvalStats evaluate(int episodes, bool greedy = true);

    /** The policy network (for replay / extraction). */
    ActorCritic &policy() { return *net_; }

    /** Total environment steps taken during training so far. */
    long long totalEnvSteps() const { return total_env_steps_; }

    /** Epochs completed so far (runEpoch() calls). */
    int epochsCompleted() const { return epoch_; }

    /** Live hyper-parameters (entropyCoef reflects the decay). */
    const PpoConfig &config() const { return config_; }

    /**
     * Drop the persistent cross-epoch collection state so the next
     * collect() starts from fresh environment resets. Campaign
     * checkpoint boundaries call this (paired with deterministic env
     * reseeds) to make trainer + environment state a pure function of
     * the checkpoint.
     */
    void restartCollection() { collection_active_ = false; }

    /** Stream count the trainer collects with. */
    std::size_t numStreams() const { return envs_->numEnvs(); }

    /**
     * Rebind the trainer to another vectorized environment with
     * identical observation and action dimensions (curriculum
     * training: e.g. single-secret episodes first, then the
     * multi-secret channel). The stream count may change.
     */
    void setVecEnv(VecEnv &envs);

  private:
    /** Serialization backdoor (rl/checkpoint.cpp only). */
    friend struct PpoCheckpointAccess;

    void collect();
    void inferStaged(std::vector<std::uint64_t> &hashes,
                     std::vector<const float *> &hits);
    void recordEpisodeStats(const std::vector<double> &rewards,
                            const std::vector<std::uint8_t> &dones);
    void update(EpochStats &stats);
    void lossRows(const AcOutput &out, Matrix &dlogits,
                  std::vector<float> &dvalues, double inv_b,
                  std::size_t r0, std::size_t r1);
    void init();
    void rebuildBuffer();

    VecEnv *envs_;
    PpoConfig config_;
    Rng rng_;
    std::unique_ptr<ActorCritic> net_;
    std::unique_ptr<Adam> adam_;
    std::unique_ptr<RolloutBuffer> buffer_;
    /** What collect() steps: envs_'s own surface, or step_all_. */
    BatchStepSurface *surface_ = nullptr;
    std::unique_ptr<BatchStepSurface> step_all_;  ///< null if envs_ has one
    AcOutput fwd_out_;  ///< reusable inference output
    /** collect()'s memo, keyed on the buffer's staged rows and reset
     *  when a collection starts. */
    InferenceMemo collect_memo_;

    // Minibatch-update workspaces, reused across minibatches so the
    // update's batch-sized buffers are allocated once. The observations
    // are gathered straight into the network's input activation.
    std::vector<std::size_t> idx_ws_;  ///< minibatch buffer indices
    AcOutput train_out_;               ///< training forward output
    std::vector<double> probs_ws_;     ///< softmaxEntropyRowsInto
    std::vector<double> logp_ws_;      ///< log(max(p, 1e-12)) per entry
    std::vector<double> entropy_ws_;
    std::vector<double> loss_terms_ws_;  ///< per row: policy, value and
                                         ///< entropy terms
    Matrix dlogits_ws_;
    std::vector<float> dvalues_ws_;

    // Action-mask plumbing. masking_ is detected from the environment
    // streams at (re)bind time; when set, sampling/log-probs/greedy
    // run on the masked variants and the rollout stores the acting
    // masks for the update phase. All of it sits behind if (masking_),
    // so mask-off training is bitwise identical to the legacy path.
    bool masking_ = false;
    std::vector<std::uint8_t> mask_mb_ws_;  ///< minibatch mask gather

    // Persistent per-stream episode state so collection can span epoch
    // boundaries; the current observations live in the surface.
    bool collection_active_ = false;
    std::vector<double> running_return_;
    std::vector<double> running_len_;

    // Collection-phase episode telemetry.
    double collect_return_sum_ = 0.0;
    double collect_len_sum_ = 0.0;
    std::size_t collect_episodes_ = 0;

    long long total_env_steps_ = 0;
    int epoch_ = 0;
};

} // namespace autocat

#endif // AUTOCAT_RL_PPO_HPP
