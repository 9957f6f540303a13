/**
 * @file
 * Actor-critic network: shared MLP torso with a categorical policy head
 * and a scalar value head, plus the categorical-distribution math PPO
 * needs (sampling, log-probabilities, entropy) computed from logits.
 *
 * Two forward paths:
 *  - forward(): the training path — caches torso activations so
 *    backward() can accumulate gradients.
 *  - forwardNoGrad() / forwardOne(): allocation-free inference through
 *    a reusable internal workspace (fused bias+ReLU GEMM, no caching).
 *    This is what rollout collection and evaluation run, and the
 *    kernel's row purity (rl/mat.hpp) makes its outputs bitwise
 *    independent of how a batch is split across calls.
 */

#ifndef AUTOCAT_RL_ACTOR_CRITIC_HPP
#define AUTOCAT_RL_ACTOR_CRITIC_HPP

#include <cstddef>
#include <vector>

#include "rl/adam.hpp"
#include "rl/mat.hpp"
#include "rl/nn.hpp"
#include "util/rng.hpp"

namespace autocat {

/** Batch forward output of the actor-critic. */
struct AcOutput
{
    Matrix logits;              ///< B x numActions
    std::vector<float> values;  ///< B
};

/** Policy/value network with manual backward pass. */
class ActorCritic
{
  public:
    /**
     * @param obs_dim     observation vector length
     * @param num_actions discrete action count
     * @param hidden      hidden width of the torso
     * @param layers      number of hidden layers (>= 1)
     * @param rng         weight init randomness
     */
    ActorCritic(std::size_t obs_dim, std::size_t num_actions,
                std::size_t hidden, std::size_t layers, Rng &rng);

    /** Batch forward; caches intermediates for backward(). */
    AcOutput forward(const Matrix &obs);

    /** forward() into caller-owned output storage (reused across
     *  calls, so a steady-state update loop does not allocate). */
    void forward(const Matrix &obs, AcOutput &out);

    /**
     * Inference-only batch forward into caller-owned output storage.
     * Reuses @p out's matrices/vectors and an internal scratch, so a
     * steady-state collection loop performs no allocations. Does not
     * disturb the training cache: it is safe to interleave with
     * forward()/backward() pairs.
     *
     *  Pre:  obs is B x obsDim().
     *  Post: out.logits is B x numActions(), out.values has size B.
     */
    void forwardNoGrad(const Matrix &obs, AcOutput &out);

    /**
     * Backward from loss gradients w.r.t. logits and values of the last
     * forward() batch. Accumulates parameter gradients.
     */
    void backward(const Matrix &dlogits, const std::vector<float> &dvalues);

    /**
     * Single-observation forward through the inference workspace. The
     * returned reference is valid until the next forwardOne() or
     * forwardNoGrad() call on this network.
     */
    const AcOutput &forwardOne(const std::vector<float> &obs);

    void zeroGrad();
    std::vector<ParamBlock> paramBlocks();

    std::size_t obsDim() const { return obs_dim_; }
    std::size_t numActions() const { return num_actions_; }

    /** Sample an action index from softmax(logits row @p r). */
    std::size_t sample(const Matrix &logits, std::size_t r, Rng &rng) const;

    /**
     * Sample from softmax(logits row @p r) restricted to the valid
     * support: entries with mask byte 0 get probability exactly 0 and
     * are never returned. @p mask points at numActions() bytes for this
     * row (1 = selectable, at least one entry must be 1 — asserted).
     * Consumes one rng draw like sample(); on an all-1 mask the
     * arithmetic — and therefore the returned index — matches sample()
     * exactly.
     */
    std::size_t sampleMasked(const Matrix &logits, std::size_t r,
                             const std::uint8_t *mask, Rng &rng) const;

    /** Greedy action (argmax of logits row @p r). Ties break toward
     *  the lowest index. */
    std::size_t argmax(const Matrix &logits, std::size_t r) const;

    /**
     * Greedy action over the valid support only: the highest-logit
     * entry whose mask byte is 1, ties broken toward the lowest index.
     * A masked entry is never returned, whatever its logit. @p mask
     * points at numActions() bytes for this row; at least one entry
     * must be 1 (asserted).
     */
    std::size_t argmaxMasked(const Matrix &logits, std::size_t r,
                             const std::uint8_t *mask) const;

    /** log softmax(logits)[action] for row @p r. */
    static double logProb(const Matrix &logits, std::size_t r,
                          std::size_t action);

    /**
     * log of the masked softmax probability of @p action for row @p r:
     * max and exp-sum run over the valid support only, so the result is
     * the log-probability under the same distribution sampleMasked()
     * draws from. @p action must itself be valid (asserted) — a masked
     * action has probability 0 and no finite log-prob. Matches
     * logProb() bitwise on an all-1 mask.
     */
    static double logProbMasked(const Matrix &logits, std::size_t r,
                                std::size_t action,
                                const std::uint8_t *mask);

    /** Entropy of softmax(logits row @p r). */
    static double entropy(const Matrix &logits, std::size_t r);

    /** softmax of row @p r. */
    static std::vector<double> softmaxRow(const Matrix &logits,
                                          std::size_t r);

  private:
    std::size_t obs_dim_;
    std::size_t num_actions_;
    Mlp torso_;
    Linear pi_head_;
    Linear v_head_;
    const Matrix *torso_out_ = nullptr;  ///< training torso activation
                                         ///< (owned by torso_)
    Matrix values_col_;                  ///< B x 1 value-head staging

    // Inference workspace (forwardNoGrad / forwardOne).
    std::vector<Matrix> infer_scratch_;
    Matrix infer_values_col_;
    Matrix one_obs_;       ///< 1 x obs_dim staging for forwardOne
    AcOutput one_out_;     ///< forwardOne result storage
};

} // namespace autocat

#endif // AUTOCAT_RL_ACTOR_CRITIC_HPP
