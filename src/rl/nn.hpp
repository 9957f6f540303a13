/**
 * @file
 * Neural-network building blocks with manual backpropagation.
 *
 * A Linear layer is y = x W^T + b. Two forward entry points exist:
 * the training path caches what backward() needs, while forwardInto()
 * is an allocation-free inference path that fuses bias and ReLU into
 * the GEMM (rl/mat.hpp) and caches nothing but the first layer's
 * transposed weights, described below. An Mlp stacks Linear+ReLU
 * and keeps the per-layer activations from its last training forward
 * so backward() can run without per-layer input copies. Parameters and
 * gradients are exposed as flat blocks for the Adam optimizer.
 *
 * The transposed weights: an Mlp's first layer reads observations,
 * which are mostly exact zeros, so its forward and weight gradient skip
 * zero features (rl/mat.hpp, "Zero skipping"), and its forward reads a
 * transposed copy of its weights. That copy is derived state:
 * paramBlocks() and weights() mark it stale — Adam, clipping and
 * checkpoint loading write the weights through them — and it is
 * rebuilt on the calling thread, never in a pool block, before the
 * next training batch (Mlp::beginBatch()) or inference call
 * (Mlp::forwardInto(), or Mlp::prepareForward() before concurrent
 * Mlp::forwardInline() calls): once per PPO minibatch, once per
 * collection phase and once per evaluation. Pointers from an earlier
 * paramBlocks() call must not be written after a forward. A forward
 * that finds the copy stale runs the dense kernel; the bits are the
 * same either way.
 */

#ifndef AUTOCAT_RL_NN_HPP
#define AUTOCAT_RL_NN_HPP

#include <cstddef>
#include <vector>

#include "rl/mat.hpp"
#include "util/rng.hpp"

namespace autocat {

/** A contiguous span of parameters and their gradients. */
struct ParamBlock
{
    float *params = nullptr;
    float *grads = nullptr;
    std::size_t size = 0;
};

struct LayerGrad;

/** Fully-connected layer y = x W^T + b with explicit-input backward. */
class Linear
{
  public:
    /**
     * @param in    input feature count
     * @param out   output feature count
     * @param rng   initializer randomness
     * @param gain  scale on the Xavier-uniform init (use a small gain,
     *              e.g. 0.01, for policy heads so the initial policy is
     *              near uniform)
     * @param skip_zeros whether the forward and the weight gradient
     *              skip zero input features (see the file comment)
     */
    Linear(std::size_t in, std::size_t out, Rng &rng, float gain = 1.0f,
           bool skip_zeros = false);

    /** Allocating convenience forward. x: B x in → B x out. */
    Matrix forward(const Matrix &x) const;

    /**
     * Forward into a caller-owned destination: one fused GEMM pass
     * (bias and, optionally, ReLU applied in-kernel), no allocation
     * once @p y has capacity.
     *
     *  Pre:  x.cols() == inFeatures(); y must not alias x.
     *  Post: y is x.rows() x outFeatures(), fully overwritten.
     */
    void forwardInto(Matrix &y, const Matrix &x, bool fuse_relu) const;

    /**
     * Backward pass: accumulates weight/bias gradients from
     * @p grad_out (B x out) against the explicitly supplied forward
     * @p input (the exact matrix the producing forward consumed;
     * B x in) and, when @p grad_in is non-null, writes the input
     * gradient (B x in) into it — a null @p grad_in skips that GEMM
     * for a first layer whose input gradient nobody reads. Callers
     * store activations themselves (see Mlp::acts_) — the layer caches
     * no activations.
     */
    void backward(const Matrix &grad_out, const Matrix &input,
                  Matrix *grad_in);

    /**
     * Rows [r0, r1) of forwardInto(y, x, fuse_relu), inline with
     * @p tier (rl/mat.hpp, row-range entry points); @p y already has
     * the output shape.
     */
    void forwardRows(detail::MatTier tier, Matrix &y, const Matrix &x,
                     bool fuse_relu, std::size_t r0, std::size_t r1) const;

    /**
     * Rebuilds the transposed weights of a zero-skipping layer when the
     * weights may have changed since they were built; a no-op
     * otherwise. Call on the thread that drives the forward, before it.
     */
    void prepareForward();

    /**
     * Rows [r0, r1) of backward()'s input gradient grad_out * W into
     * @p grad_in, which already has its B x in shape; inline with
     * @p tier.
     */
    void inputGradRows(detail::MatTier tier, Matrix &grad_in,
                       const Matrix &grad_out, std::size_t r0,
                       std::size_t r1) const;

    /**
     * Weight and bias gradients of every layer in @p jobs, in one
     * fork-join on the calling thread's pool (parallelTasks(),
     * rl/mat.hpp): a task per 4-row range of a layer's dW = grad_out^T *
     * input, in job order, then a task per layer for its bias, the
     * column sums of grad_out. A zero-skipping layer whose input's
     * nonzero share, counted here, is below kZeroSkipPercent takes a
     * task per 32-row range instead, whose dW elements skip the batch
     * rows where their feature is zero (matmulTransASkipRowsInto()).
     * Each dW element is one FMA chain over the batch rows in order
     * and each bias entry one sum over them, added into the
     * accumulated gradients — or, when @p accumulate is false, into
     * zeroed ones, exactly as zeroGrad() and then backward() — so the
     * bits do not depend on the budget. List the largest layers first:
     * tasks are claimed in order. Each layer must appear once.
     */
    static void weightGrads(const LayerGrad *jobs, std::size_t count,
                            bool accumulate);

    /** Zero accumulated gradients. */
    void zeroGrad();

    /** Parameter/gradient blocks (weights then bias). Marks the
     *  transposed weights stale: the caller may write through them. */
    std::vector<ParamBlock> paramBlocks();

    std::size_t inFeatures() const { return in_; }
    std::size_t outFeatures() const { return out_; }

    /** Direct weight access (tests / serialization); marks the
     *  transposed weights stale like paramBlocks(). */
    Matrix &weights()
    {
        wt_stale_ = true;
        return w_;
    }
    std::vector<float> &bias() { return b_; }

  private:
    /** Whether the forward may take the zero-skipping kernel. */
    bool
    skipsZeros() const
    {
        return skip_zeros_ && !wt_stale_;
    }

    std::size_t in_;
    std::size_t out_;
    Matrix w_;   ///< out x in
    std::vector<float> b_;
    Matrix gw_;
    std::vector<float> gb_;
    Matrix gw_scratch_;  ///< reusable dW workspace
    Matrix wt_;          ///< w_^T (in x out), zero-skipping layers only
    bool skip_zeros_;
    bool wt_stale_ = true;
};

/** One layer's part of Linear::weightGrads(): the layer, the gradient
 *  of its output (B x out) and the forward input it consumed (B x in). */
struct LayerGrad
{
    Linear *layer = nullptr;
    const Matrix *gradOut = nullptr;
    const Matrix *input = nullptr;
};

/** Multi-layer perceptron with ReLU between hidden layers. */
class Mlp
{
  public:
    /**
     * @param sizes layer widths, e.g. {obs, 128, 128}; the last entry is
     *              the torso output width (no activation after it when
     *              @p activate_last is false)
     */
    Mlp(const std::vector<std::size_t> &sizes, Rng &rng,
        bool activate_last = true);

    /** Batch forward with activation caching (training path): the
     *  row-block steps below, over the whole batch. */
    Matrix forward(const Matrix &x);

    /**
     * Allocation-free inference forward: activations are written into
     * @p scratch (resized to one matrix per layer; reuse across calls
     * makes this steady-state allocation-free) and the result is
     * scratch.back(). Caches nothing but the first layer's transposed
     * weights, rebuilt here when stale; safe to interleave with
     * training forward/backward pairs.
     */
    const Matrix &forwardInto(const Matrix &x, std::vector<Matrix> &scratch);

    /** Rebuilds the first layer's transposed weights when stale
     *  (Linear::prepareForward()), on the calling thread. */
    void prepareForward();

    /**
     * forwardInto() for callers that run at once, such as evaluation
     * streams on pool executors: every layer inline with @p tier (the
     * driving thread's, since an executor's own tier cap is not the
     * caller's), never dispatching, writing only @p scratch. Same bits
     * as forwardInto(). It does not rebuild the transposed weights:
     * call prepareForward() on the driving thread first.
     */
    const Matrix &forwardInline(detail::MatTier tier, const Matrix &x,
                                std::vector<Matrix> &scratch) const;

    /**
     * Backward through the whole stack, accumulating parameter
     * gradients. The input gradient is not computed: the input is an
     * observation batch, so the first layer skips that GEMM.
     */
    void backward(const Matrix &grad_out);

    /*
     * A training batch in row blocks. forward() and backward() are
     * built from these, and so is ActorCritic's training step,
     * which interleaves its heads and its loss with them:
     *
     *  1. beginBatch() sizes the activations, rebuilds the first
     *     layer's transposed weights when stale, and returns the input
     *     activation, whose rows the caller writes;
     *  2. forwardRows() runs every layer over a block of rows;
     *  3. beginBackward() sizes the calling thread's backward scratch
     *     and returns it; its last matrix is the output gradient, whose
     *     rows the caller writes;
     *  4. backwardRows() applies the ReLU masks and computes the input
     *     gradients of a block of rows;
     *  5. layerGrads() lists the layers' Linear::weightGrads() jobs.
     *
     * Steps 2 and 4 read and write only their block's rows, so blocks
     * run concurrently on pool executors (with the caller's tier and
     * the caller's scratch); the rest runs on the calling thread.
     */

    /** Step 1: activations for @p rows rows; returns the input one. */
    Matrix &beginBatch(std::size_t rows);

    /** Step 2: every layer over rows [r0, r1) of the batch. */
    void forwardRows(detail::MatTier tier, std::size_t r0, std::size_t r1);

    /** The batch's output activation (after forwardRows()). */
    const Matrix &output() const { return acts_.back(); }

    /**
     * Step 3: the calling thread's gradient buffers, sized for the
     * batch: entry i + 1 is the gradient w.r.t. layer i's output (entry
     * 0 is unused), so the last entry is the output gradient. Shared by
     * every network the thread trains; valid until its next batch.
     */
    std::vector<Matrix> &beginBackward() const;

    /** Step 4: ReLU masks and input gradients over rows [r0, r1). */
    void backwardRows(detail::MatTier tier, std::vector<Matrix> &grads,
                      std::size_t r0, std::size_t r1) const;

    /** Step 5: writes one job per layer to @p jobs (numLayers()
     *  entries) against @p grads from beginBackward(). */
    void layerGrads(const std::vector<Matrix> &grads, LayerGrad *jobs);

    std::size_t numLayers() const { return layers_.size(); }

    /** Multiply-adds per batch row of the forward (that of the input
     *  gradients is this less the first layer's). */
    std::size_t maddsPerRow() const;

    void zeroGrad();
    std::vector<ParamBlock> paramBlocks();

    std::size_t inFeatures() const;
    std::size_t outFeatures() const;

  private:
    std::vector<Linear> layers_;
    /**
     * acts_[0] is the forward input, acts_[i + 1] layer i's output
     * (post-activation where one applies). For activated layers the
     * ReLU mask is recovered from the activation itself (act == 0 ⇔
     * pre-activation <= 0), so pre-activations need not be stored.
     */
    std::vector<Matrix> acts_;
    bool activate_last_;
};

/** In-place ReLU. */
void reluInPlace(Matrix &m);

/** Zero grad entries where the cached pre-activation was <= 0. */
void reluBackwardInPlace(Matrix &grad, const Matrix &preact);

/** reluBackwardInPlace() over rows [r0, r1) only. */
void reluBackwardRows(Matrix &grad, const Matrix &preact, std::size_t r0,
                      std::size_t r1);

/** Global L2 norm over blocks; used for gradient clipping. */
double gradNorm(const std::vector<ParamBlock> &blocks);

/** Scale all gradients so the global norm is at most @p max_norm. */
void clipGradNorm(std::vector<ParamBlock> &blocks, double max_norm);

} // namespace autocat

#endif // AUTOCAT_RL_NN_HPP
