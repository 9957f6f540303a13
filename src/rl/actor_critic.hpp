/**
 * @file
 * Actor-critic network: shared MLP torso with a categorical policy head
 * and a scalar value head, plus the categorical-distribution math PPO
 * needs (sampling, log-probabilities, entropy) computed from logits.
 *
 * Two forward paths:
 *  - trainStep(): the training path — one minibatch forward, loss and
 *    backward as two regions on the calling thread's pool; forward()
 *    and backward() are its two halves for callers with their own loss.
 *  - forwardNoGrad() / forwardOne(): allocation-free inference through
 *    a reusable workspace (fused bias+ReLU GEMM, zero observation
 *    features skipped, no activations cached). This is what rollout
 *    collection and evaluation run, and the kernel's row purity
 *    (rl/mat.hpp) makes its outputs bitwise independent of how a batch
 *    is split across calls. forwardOne() has a const form on a
 *    caller-owned workspace, which evaluation streams run at once on
 *    pool executors (rl/episodes.hpp).
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
     * Workspace of the inference forwards: the network's own serves
     * forwardNoGrad() and forwardOne(), and each concurrent caller of
     * the const forwardOne() owns one.
     */
    struct InferScratch
    {
        std::vector<Matrix> torso;  ///< per-layer torso activations
        Matrix values;              ///< B x 1 value-head staging
        Matrix obs;                 ///< 1 x obsDim() forwardOne() input
        AcOutput out;               ///< forwardOne() result
    };

    /**
     * @param obs_dim     observation vector length
     * @param num_actions discrete action count
     * @param hidden      hidden width of the torso
     * @param layers      number of hidden layers (>= 1)
     * @param rng         weight init randomness
     */
    ActorCritic(std::size_t obs_dim, std::size_t num_actions,
                std::size_t hidden, std::size_t layers, Rng &rng);

    /**
     * What trainStep() asks of its caller for each block of rows. Both
     * calls run on pool executors, concurrently for disjoint blocks, so
     * each must write only its block's rows of what it is handed and
     * state that block owns.
     */
    class Minibatch
    {
      public:
        /** Write observation rows [r0, r1) into the same rows of
         *  @p input (rows x obsDim()). */
        virtual void gather(Matrix &input, std::size_t r0,
                            std::size_t r1) = 0;

        /** The loss gradient of rows [r0, r1): read those rows of
         *  @p out, write the same rows of @p dlogits (rows x
         *  numActions()) and @p dvalues. */
        virtual void loss(const AcOutput &out, Matrix &dlogits,
                          std::vector<float> &dvalues, std::size_t r0,
                          std::size_t r1) = 0;
    };

    /**
     * One training step over a minibatch of @p rows rows, as two
     * regions on the calling thread's pool (rl/mat.hpp):
     *
     *  1. a row region, one 4-row-aligned block per executor: each block
     *     gathers its observation rows straight into the torso's input
     *     activation, runs the torso and both heads forward, calls the
     *     loss, then computes the head input gradient (dlogits * W_pi +
     *     dvalues * W_v), the ReLU masks and the torso's input gradients
     *     of its rows;
     *  2. a weight-gradient region (Linear::weightGrads()) over every
     *     layer's dW and bias.
     *
     * The parameter gradients become the minibatch's, added into zeroed
     * gradients; @p out, @p dlogits and @p dvalues (resized here) hold
     * the forward output and the loss gradients. The bits are those of
     * forward(), the loss, zeroGrad() and backward() in sequence, at
     * every budget and on either SIMD tier.
     *
     * Exceptions: a block that throws — from gather() or loss(), such
     * as the masked softmax's std::domain_error for a row that masks
     * out every action (rl/mat.hpp), which now leaves from a pool
     * block — does not stop the other blocks. The first exception is
     * rethrown here once every block has settled (util/TaskPool); the
     * weight-gradient region does not run and the gradients are
     * unspecified. The network stays usable: the next step overwrites
     * everything it reads.
     */
    void trainStep(std::size_t rows, Minibatch &batch, AcOutput &out,
                   Matrix &dlogits, std::vector<float> &dvalues);

    /** Batch forward; caches intermediates for backward(). */
    AcOutput forward(const Matrix &obs);

    /** forward() into caller-owned output storage (reused across
     *  calls, so a steady-state update loop does not allocate): the row
     *  region of trainStep() without the loss and the backward. */
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
     * forward() batch: the backward part of trainStep()'s row region,
     * then its weight-gradient region. Accumulates parameter gradients.
     */
    void backward(const Matrix &dlogits, const std::vector<float> &dvalues);

    /**
     * Single-observation forward through the inference workspace. The
     * returned reference is valid until the next forwardOne() or
     * forwardNoGrad() call on this network.
     */
    const AcOutput &forwardOne(const std::vector<float> &obs);

    /**
     * forwardOne() for callers that run at once, such as evaluation
     * streams on pool executors: inline with @p tier (the driving
     * thread's), never dispatching, writing only @p ws, and the same
     * bits. The returned reference is @p ws.out. Call
     * prepareInference() on the driving thread first, once the weights
     * have last changed.
     */
    const AcOutput &forwardOne(detail::MatTier tier,
                               const std::vector<float> &obs,
                               InferScratch &ws) const;

    /** Rebuilds derived weights (the torso's transposed first layer,
     *  rl/nn.hpp) on the calling thread before concurrent forwards. */
    void prepareInference();

    void zeroGrad();
    std::vector<ParamBlock> paramBlocks();

    std::size_t obsDim() const { return obs_dim_; }
    std::size_t numActions() const { return num_actions_; }

    /**
     * Sample an action index from softmax(logits row @p r). When
     * @p log_prob is not null it receives the action's log-probability,
     * computed from the same max and exp-sum: bitwise logProb()'s. No
     * allocation.
     */
    std::size_t sample(const Matrix &logits, std::size_t r, Rng &rng,
                       double *log_prob = nullptr) const;

    /**
     * Sample from softmax(logits row @p r) restricted to the valid
     * support: entries with mask byte 0 get probability exactly 0 and
     * are never returned. @p mask points at numActions() bytes for this
     * row (1 = selectable, at least one entry must be 1 — asserted).
     * Consumes one rng draw like sample(); on an all-1 mask the
     * arithmetic — and therefore the returned index — matches sample()
     * exactly. @p log_prob, when not null, receives bitwise
     * logProbMasked() of the action: masked entries add exactly 0.0 to
     * the shared exp-sum.
     */
    std::size_t sampleMasked(const Matrix &logits, std::size_t r,
                             const std::uint8_t *mask, Rng &rng,
                             double *log_prob = nullptr) const;

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
    /** The heads' backward scratch, per thread (actor_critic.cpp). */
    struct Scratch;

    /** Sizes the training activations and @p out for @p rows rows;
     *  returns the torso's input activation. */
    Matrix &beginForward(std::size_t rows, AcOutput &out);
    /** The calling thread's backward scratch, sized for the batch. */
    Scratch &beginBackward(std::size_t rows);
    /** Multiply-adds per row of the training forward. */
    std::size_t maddsPerRow() const;
    void forwardRows(detail::MatTier tier, AcOutput &out, std::size_t r0,
                     std::size_t r1);
    void backwardRows(detail::MatTier tier, Scratch &ws,
                      const Matrix &dlogits,
                      const std::vector<float> &dvalues, std::size_t r0,
                      std::size_t r1);
    void weightGrads(Scratch &ws, const Matrix &dlogits, bool accumulate);

    std::size_t obs_dim_;
    std::size_t num_actions_;
    Mlp torso_;
    Linear pi_head_;
    Linear v_head_;
    const Matrix *torso_out_ = nullptr;  ///< training torso activation
                                         ///< (owned by torso_)
    Matrix values_col_;                  ///< B x 1 value-head staging

    InferScratch infer_;  ///< forwardNoGrad() / forwardOne() workspace
};

} // namespace autocat

#endif // AUTOCAT_RL_ACTOR_CRITIC_HPP
