#include "rl/nn.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace autocat {

namespace {

/**
 * Backward scratch of Mlp: t_mlp_grads[i] is the gradient w.r.t. the
 * layer-i input (entry 0 unused: nothing reads the input gradient), the
 * last entry stages the incoming gradient. Per thread, not per network:
 * a backward runs on one thread and keeps nothing between calls, so
 * every network a thread trains shares one set of B x width buffers.
 */
thread_local std::vector<Matrix> t_mlp_grads;

} // namespace

Linear::Linear(std::size_t in, std::size_t out, Rng &rng, float gain)
    : in_(in), out_(out), w_(out, in), b_(out, 0.0f), gw_(out, in),
      gb_(out, 0.0f)
{
    // Xavier-uniform initialization scaled by gain.
    const float limit =
        gain * std::sqrt(6.0f / static_cast<float>(in + out));
    for (std::size_t i = 0; i < w_.size(); ++i) {
        w_.data()[i] =
            limit * (2.0f * static_cast<float>(rng.uniformDouble()) - 1.0f);
    }
}

Matrix
Linear::forward(const Matrix &x) const
{
    Matrix y;
    forwardInto(y, x, /*fuse_relu=*/false);
    return y;
}

void
Linear::forwardInto(Matrix &y, const Matrix &x, bool fuse_relu) const
{
    assert(x.cols() == in_);
    linearForwardInto(y, x, w_, b_, fuse_relu);
}

void
Linear::backward(const Matrix &grad_out, const Matrix &input,
                 Matrix *grad_in)
{
    assert(grad_out.cols() == out_);
    assert(grad_out.rows() == input.rows());
    assert(input.cols() == in_);

    // dW += grad_out^T * x ; db += colsum(grad_out) ; dx = grad_out * W
    matmulTransAInto(gw_scratch_, grad_out, input);
    for (std::size_t i = 0; i < gw_.size(); ++i)
        gw_.data()[i] += gw_scratch_.data()[i];
    addColSums(gb_, grad_out);

    if (grad_in)
        matmulInto(*grad_in, grad_out, w_);
}

void
Linear::zeroGrad()
{
    gw_.zero();
    std::fill(gb_.begin(), gb_.end(), 0.0f);
}

std::vector<ParamBlock>
Linear::paramBlocks()
{
    return {
        {w_.data(), gw_.data(), w_.size()},
        {b_.data(), gb_.data(), b_.size()},
    };
}

Mlp::Mlp(const std::vector<std::size_t> &sizes, Rng &rng, bool activate_last)
    : activate_last_(activate_last)
{
    assert(sizes.size() >= 2);
    layers_.reserve(sizes.size() - 1);
    for (std::size_t i = 0; i + 1 < sizes.size(); ++i)
        layers_.emplace_back(sizes[i], sizes[i + 1], rng);
    acts_.resize(layers_.size() + 1);
}

const Matrix &
Mlp::forwardCached(const Matrix &x)
{
    acts_[0] = x;
    for (std::size_t i = 0; i < layers_.size(); ++i) {
        const bool activate = i + 1 < layers_.size() || activate_last_;
        layers_[i].forwardInto(acts_[i + 1], acts_[i], activate);
    }
    return acts_.back();
}

Matrix
Mlp::forward(const Matrix &x)
{
    return forwardCached(x);
}

const Matrix &
Mlp::forwardInto(const Matrix &x, std::vector<Matrix> &scratch) const
{
    scratch.resize(layers_.size());
    const Matrix *in = &x;
    for (std::size_t i = 0; i < layers_.size(); ++i) {
        const bool activate = i + 1 < layers_.size() || activate_last_;
        layers_[i].forwardInto(scratch[i], *in, activate);
        in = &scratch[i];
    }
    return scratch.back();
}

void
Mlp::backward(const Matrix &grad_out)
{
    std::vector<Matrix> &grads = t_mlp_grads;
    grads.resize(layers_.size() + 1);
    Matrix &top = grads.back();
    top.resizeUninit(grad_out.rows(), grad_out.cols());
    std::copy(grad_out.data(), grad_out.data() + grad_out.size(),
              top.data());
    for (std::size_t i = layers_.size(); i-- > 0;) {
        const bool activated = i + 1 < layers_.size() || activate_last_;
        // Post-activation mask: ReLU output is 0 exactly where the
        // pre-activation was <= 0, so acts_ doubles as the mask.
        if (activated)
            reluBackwardInPlace(grads[i + 1], acts_[i + 1]);
        layers_[i].backward(grads[i + 1], acts_[i],
                            i > 0 ? &grads[i] : nullptr);
    }
}

void
Mlp::zeroGrad()
{
    for (auto &layer : layers_)
        layer.zeroGrad();
}

std::vector<ParamBlock>
Mlp::paramBlocks()
{
    std::vector<ParamBlock> blocks;
    for (auto &layer : layers_) {
        for (auto &b : layer.paramBlocks())
            blocks.push_back(b);
    }
    return blocks;
}

std::size_t
Mlp::inFeatures() const
{
    return layers_.front().inFeatures();
}

std::size_t
Mlp::outFeatures() const
{
    return layers_.back().outFeatures();
}

void
reluInPlace(Matrix &m)
{
    for (std::size_t i = 0; i < m.size(); ++i) {
        if (m.data()[i] < 0.0f)
            m.data()[i] = 0.0f;
    }
}

void
reluBackwardInPlace(Matrix &grad, const Matrix &preact)
{
    assert(grad.size() == preact.size());
    float *g = grad.data();
    const float *a = preact.data();
    // A select, not a conditional store, so it vectorizes; a NaN
    // pre-activation compares false and keeps its gradient.
    for (std::size_t i = 0; i < grad.size(); ++i)
        g[i] = a[i] <= 0.0f ? 0.0f : g[i];
}

double
gradNorm(const std::vector<ParamBlock> &blocks)
{
    double total = 0.0;
    for (const auto &b : blocks) {
        for (std::size_t i = 0; i < b.size; ++i) {
            const double g = b.grads[i];
            total += g * g;
        }
    }
    return std::sqrt(total);
}

void
clipGradNorm(std::vector<ParamBlock> &blocks, double max_norm)
{
    const double norm = gradNorm(blocks);
    if (norm <= max_norm || norm <= 0.0)
        return;
    const float scale = static_cast<float>(max_norm / norm);
    for (auto &b : blocks) {
        for (std::size_t i = 0; i < b.size; ++i)
            b.grads[i] *= scale;
    }
}

} // namespace autocat
