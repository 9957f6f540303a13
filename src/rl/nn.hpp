/**
 * @file
 * Neural-network building blocks with manual backpropagation.
 *
 * A Linear layer is y = x W^T + b. Two forward entry points exist:
 * the training path caches what backward() needs, while forwardInto()
 * is an allocation-free inference path that fuses bias and ReLU into
 * the GEMM (rl/mat.hpp) and caches nothing. An Mlp stacks Linear+ReLU
 * and keeps the per-layer activations from its last training forward
 * so backward() can run without per-layer input copies. Parameters and
 * gradients are exposed as flat blocks for the Adam optimizer.
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
     */
    Linear(std::size_t in, std::size_t out, Rng &rng, float gain = 1.0f);

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
     * nothing.
     */
    void backward(const Matrix &grad_out, const Matrix &input,
                  Matrix *grad_in);

    /** Zero accumulated gradients. */
    void zeroGrad();

    /** Parameter/gradient blocks (weights then bias). */
    std::vector<ParamBlock> paramBlocks();

    std::size_t inFeatures() const { return in_; }
    std::size_t outFeatures() const { return out_; }

    /** Direct weight access (tests / serialization). */
    Matrix &weights() { return w_; }
    std::vector<float> &bias() { return b_; }

  private:
    std::size_t in_;
    std::size_t out_;
    Matrix w_;   ///< out x in
    std::vector<float> b_;
    Matrix gw_;
    std::vector<float> gb_;
    Matrix gw_scratch_;  ///< reusable dW workspace
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

    /** Batch forward with activation caching (training path). */
    Matrix forward(const Matrix &x);

    /**
     * Training forward returning a reference to the internally stored
     * output activation (valid until the next forward). Same caching
     * semantics as forward() without the final copy.
     */
    const Matrix &forwardCached(const Matrix &x);

    /**
     * Allocation-free inference forward: activations are written into
     * @p scratch (resized to one matrix per layer; reuse across calls
     * makes this steady-state allocation-free) and the result is
     * scratch.back(). Caches nothing; safe to interleave with training
     * forward/backward pairs.
     */
    const Matrix &forwardInto(const Matrix &x,
                              std::vector<Matrix> &scratch) const;

    /**
     * Backward through the whole stack, accumulating parameter
     * gradients. The input gradient is not computed: the input is an
     * observation batch, so the first layer skips that GEMM.
     */
    void backward(const Matrix &grad_out);

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

/** Global L2 norm over blocks; used for gradient clipping. */
double gradNorm(const std::vector<ParamBlock> &blocks);

/** Scale all gradients so the global norm is at most @p max_norm. */
void clipGradNorm(std::vector<ParamBlock> &blocks, double max_norm);

} // namespace autocat

#endif // AUTOCAT_RL_NN_HPP
