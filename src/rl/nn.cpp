#include "rl/nn.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdint>

namespace autocat {

namespace {

/**
 * Backward scratch of Mlp: t_mlp_grads[i] is the gradient w.r.t. the
 * layer-i input (entry 0 unused: nothing reads the input gradient), the
 * last entry is the output gradient. Per thread, not per network: a
 * backward is driven from one thread, whose row blocks and
 * weight-gradient tasks all use that thread's buffers, and keeps
 * nothing between calls, so every network a thread trains shares one
 * set of B x width buffers.
 */
thread_local std::vector<Matrix> t_mlp_grads;

/** dW rows per task of Linear::weightGrads(): one register tile of the
 *  A^T * B kernel. */
constexpr std::size_t kGradRows = kMatTileRows;

/** dW rows per task of a zero-skipping weight gradient: one block of
 *  the zero-skipping A^T * B kernel. */
constexpr std::size_t kGradSkipRows = kZeroSkipGradRows;

/** Per job of the calling thread's Linear::weightGrads() call: whether
 *  it skips zeros. */
thread_local std::vector<std::uint8_t> t_grad_skip;

} // namespace

Linear::Linear(std::size_t in, std::size_t out, Rng &rng, float gain,
               bool skip_zeros)
    : in_(in), out_(out), w_(out, in), b_(out, 0.0f), gw_(out, in),
      gb_(out, 0.0f), skip_zeros_(skip_zeros)
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
    if (!skipsZeros()) {
        linearForwardInto(y, x, w_, b_, fuse_relu);
        return;
    }
    // linearForwardInto()'s partition over the zero-skipping rows.
    const std::size_t rows = x.rows();
    y.resizeUninit(rows, out_);
    const detail::MatTier tier = detail::matTier();
    parallelBlocks(rows, kMatTileRows, rows * out_ * in_,
                   [&](std::size_t r0, std::size_t r1) {
                       forwardRows(tier, y, x, fuse_relu, r0, r1);
                   });
}

void
Linear::backward(const Matrix &grad_out, const Matrix &input,
                 Matrix *grad_in)
{
    // dW += grad_out^T * x ; db += colsum(grad_out) ; dx = grad_out * W
    const LayerGrad job{this, &grad_out, &input};
    weightGrads(&job, 1, /*accumulate=*/true);
    if (grad_in)
        matmulInto(*grad_in, grad_out, w_);
}

void
Linear::forwardRows(detail::MatTier tier, Matrix &y, const Matrix &x,
                    bool fuse_relu, std::size_t r0, std::size_t r1) const
{
    assert(x.cols() == in_);
    if (skipsZeros())
        linearForwardSkipRowsInto(tier, y, x, w_, wt_, b_, fuse_relu, r0,
                                  r1);
    else
        linearForwardRowsInto(tier, y, x, w_, b_, fuse_relu, r0, r1);
}

void
Linear::prepareForward()
{
    if (skip_zeros_ && wt_stale_) {
        transposeInto(wt_, w_);
        wt_stale_ = false;
    }
}

void
Linear::inputGradRows(detail::MatTier tier, Matrix &grad_in,
                      const Matrix &grad_out, std::size_t r0,
                      std::size_t r1) const
{
    assert(grad_out.cols() == out_);
    matmulRowsInto(tier, grad_in, grad_out, w_, r0, r1);
}

void
Linear::weightGrads(const LayerGrad *jobs, std::size_t count,
                    bool accumulate)
{
    // Tasks: every job's dW row ranges, in job order, then one bias
    // task per job. Which jobs skip zeros is decided here, on the
    // calling thread.
    const detail::MatTier tier = detail::matTier();
    std::vector<std::uint8_t> &skip = t_grad_skip;
    skip.resize(count);
    const auto rowsPerTask = [&](std::size_t j) {
        return skip[j] ? kGradSkipRows : kGradRows;
    };
    const auto tasks = [&](std::size_t j) {
        return (jobs[j].layer->out_ + rowsPerTask(j) - 1) / rowsPerTask(j);
    };
    std::size_t row_tasks = 0, work = 0;
    for (std::size_t j = 0; j < count; ++j) {
        Linear &l = *jobs[j].layer;
        const Matrix &input = *jobs[j].input;
        assert(jobs[j].gradOut->cols() == l.out_);
        assert(input.cols() == l.in_);
        assert(jobs[j].gradOut->rows() == input.rows());
        l.gw_scratch_.resizeUninit(l.out_, l.in_);
        skip[j] = l.skip_zeros_ && tier != detail::MatTier::Portable &&
                  zeroSkipPays(countNonzeros(input), input.size());
        row_tasks += tasks(j);
        work += l.out_ * l.in_ * input.rows();
    }
    parallelTasks(row_tasks + count, work, [&](std::size_t t) {
        if (t >= row_tasks) {
            const LayerGrad &job = jobs[t - row_tasks];
            std::vector<float> &gb = job.layer->gb_;
            if (!accumulate)
                std::fill(gb.begin(), gb.end(), 0.0f);
            addColSums(gb, *job.gradOut);
            return;
        }
        std::size_t j = 0;
        for (; t >= tasks(j); ++j)
            t -= tasks(j);
        Linear &l = *jobs[j].layer;
        const std::size_t i0 = t * rowsPerTask(j);
        const std::size_t i1 = std::min(l.out_, i0 + rowsPerTask(j));
        if (skip[j])
            matmulTransASkipRowsInto(tier, l.gw_scratch_, *jobs[j].gradOut,
                                     *jobs[j].input, i0, i1);
        else
            matmulTransARowsInto(tier, l.gw_scratch_, *jobs[j].gradOut,
                                 *jobs[j].input, i0, i1);
        float *gw = l.gw_.rowPtr(i0);
        const float *dw = l.gw_scratch_.rowPtr(i0);
        const std::size_t n = (i1 - i0) * l.in_;
        if (!accumulate)
            std::fill(gw, gw + n, 0.0f);
        for (std::size_t e = 0; e < n; ++e)
            gw[e] += dw[e];
    });
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
    wt_stale_ = true;
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
    // The first layer reads the input, observations in practice.
    for (std::size_t i = 0; i + 1 < sizes.size(); ++i)
        layers_.emplace_back(sizes[i], sizes[i + 1], rng, 1.0f, i == 0);
    acts_.resize(layers_.size() + 1);
}

Matrix
Mlp::forward(const Matrix &x)
{
    assert(x.cols() == inFeatures());
    const std::size_t rows = x.rows();
    Matrix &input = beginBatch(rows);
    const detail::MatTier tier = detail::matTier();
    parallelBlocks(rows, kMatTileRows, rows * maddsPerRow(),
                   [&](std::size_t r0, std::size_t r1) {
                       std::copy(x.rowPtr(r0), x.rowPtr(r1),
                                 input.rowPtr(r0));
                       forwardRows(tier, r0, r1);
                   });
    return acts_.back();
}

Matrix &
Mlp::beginBatch(std::size_t rows)
{
    prepareForward();
    acts_[0].resizeUninit(rows, inFeatures());
    for (std::size_t i = 0; i < layers_.size(); ++i)
        acts_[i + 1].resizeUninit(rows, layers_[i].outFeatures());
    return acts_[0];
}

void
Mlp::forwardRows(detail::MatTier tier, std::size_t r0, std::size_t r1)
{
    for (std::size_t i = 0; i < layers_.size(); ++i) {
        const bool activate = i + 1 < layers_.size() || activate_last_;
        layers_[i].forwardRows(tier, acts_[i + 1], acts_[i], activate, r0,
                               r1);
    }
}

void
Mlp::prepareForward()
{
    layers_.front().prepareForward();
}

const Matrix &
Mlp::forwardInline(detail::MatTier tier, const Matrix &x,
                   std::vector<Matrix> &scratch) const
{
    scratch.resize(layers_.size());
    const Matrix *in = &x;
    for (std::size_t i = 0; i < layers_.size(); ++i) {
        const bool activate = i + 1 < layers_.size() || activate_last_;
        scratch[i].resizeUninit(x.rows(), layers_[i].outFeatures());
        layers_[i].forwardRows(tier, scratch[i], *in, activate, 0, x.rows());
        in = &scratch[i];
    }
    return scratch.back();
}

const Matrix &
Mlp::forwardInto(const Matrix &x, std::vector<Matrix> &scratch)
{
    prepareForward();
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
    std::vector<Matrix> &grads = beginBackward();
    Matrix &top = grads.back();
    assert(grad_out.rows() == top.rows() && grad_out.cols() == top.cols());
    const std::size_t rows = top.rows();
    const detail::MatTier tier = detail::matTier();
    parallelBlocks(rows, kMatTileRows, rows * maddsPerRow(),
                   [&](std::size_t r0, std::size_t r1) {
                       std::copy(grad_out.rowPtr(r0), grad_out.rowPtr(r1),
                                 top.rowPtr(r0));
                       backwardRows(tier, grads, r0, r1);
                   });
    std::vector<LayerGrad> jobs(layers_.size());
    layerGrads(grads, jobs.data());
    Linear::weightGrads(jobs.data(), jobs.size(), /*accumulate=*/true);
}

std::vector<Matrix> &
Mlp::beginBackward() const
{
    std::vector<Matrix> &grads = t_mlp_grads;
    grads.resize(layers_.size() + 1);
    for (std::size_t i = 0; i < layers_.size(); ++i)
        grads[i + 1].resizeUninit(acts_[0].rows(), layers_[i].outFeatures());
    return grads;
}

void
Mlp::backwardRows(detail::MatTier tier, std::vector<Matrix> &grads,
                  std::size_t r0, std::size_t r1) const
{
    for (std::size_t i = layers_.size(); i-- > 0;) {
        const bool activated = i + 1 < layers_.size() || activate_last_;
        // Post-activation mask: ReLU output is 0 exactly where the
        // pre-activation was <= 0, so acts_ doubles as the mask.
        if (activated)
            reluBackwardRows(grads[i + 1], acts_[i + 1], r0, r1);
        if (i > 0)
            layers_[i].inputGradRows(tier, grads[i], grads[i + 1], r0, r1);
    }
}

void
Mlp::layerGrads(const std::vector<Matrix> &grads, LayerGrad *jobs)
{
    for (std::size_t i = 0; i < layers_.size(); ++i)
        jobs[i] = {&layers_[i], &grads[i + 1], &acts_[i]};
}

std::size_t
Mlp::maddsPerRow() const
{
    std::size_t madds = 0;
    for (const Linear &layer : layers_)
        madds += layer.inFeatures() * layer.outFeatures();
    return madds;
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
    reluBackwardRows(grad, preact, 0, grad.rows());
}

void
reluBackwardRows(Matrix &grad, const Matrix &preact, std::size_t r0,
                 std::size_t r1)
{
    assert(grad.rows() == preact.rows() && grad.cols() == preact.cols());
    float *g = grad.data();
    const float *a = preact.data();
    // A select, not a conditional store, so it vectorizes; a NaN
    // pre-activation compares false and keeps its gradient.
    for (std::size_t i = r0 * grad.cols(); i < r1 * grad.cols(); ++i)
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
