#include "rl/adam.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>

namespace autocat {

Adam::Adam(const std::vector<ParamBlock> &blocks, double lr, double beta1,
           double beta2, double eps)
    : lr_(lr), beta1_(beta1), beta2_(beta2), eps_(eps)
{
    m_.reserve(blocks.size());
    v_.reserve(blocks.size());
    for (const auto &b : blocks) {
        m_.emplace_back(b.size, 0.0f);
        v_.emplace_back(b.size, 0.0f);
    }
}

void
Adam::step(std::vector<ParamBlock> &blocks)
{
    assert(blocks.size() == m_.size());
    ++t_;
    const double bc1 = 1.0 - std::pow(beta1_, t_);
    const double bc2 = 1.0 - std::pow(beta2_, t_);
    const double alpha = lr_ * std::sqrt(bc2) / bc1;

    std::size_t total = 0;
    for (std::size_t k = 0; k < blocks.size(); ++k) {
        assert(blocks[k].size == m_[k].size());
        total += blocks[k].size;
    }

    // Every element's update is independent of the others, so any
    // partition of the flat element range [0, total) — blocks laid end
    // to end — gives the serial bits.
    parallelBlocks(
        total, kElementAlign, total * kWorkPerElement,
        [&](std::size_t lo, std::size_t hi) {
            std::size_t base = 0;
            for (std::size_t k = 0; k < blocks.size() && base < hi; ++k) {
                const std::size_t size = blocks[k].size;
                const std::size_t i0 = std::max(lo, base);
                const std::size_t i1 = std::min(hi, base + size);
                if (i0 < i1)
                    update(blocks[k], m_[k], v_[k], i0 - base, i1 - base,
                           alpha);
                base += size;
            }
        });
}

void
Adam::update(ParamBlock &b, std::vector<float> &m, std::vector<float> &v,
             std::size_t i0, std::size_t i1, double alpha) const
{
    for (std::size_t i = i0; i < i1; ++i) {
        const float g = b.grads[i];
        m[i] = static_cast<float>(beta1_ * m[i] + (1.0 - beta1_) * g);
        v[i] = static_cast<float>(beta2_ * v[i] + (1.0 - beta2_) * g * g);
        b.params[i] -= static_cast<float>(
            alpha * m[i] / (std::sqrt(static_cast<double>(v[i])) + eps_));
    }
}

void
Adam::setState(const State &state)
{
    if (state.m.size() != m_.size() || state.v.size() != v_.size())
        throw std::invalid_argument("Adam::setState: block count mismatch");
    for (std::size_t k = 0; k < m_.size(); ++k) {
        if (state.m[k].size() != m_[k].size() ||
            state.v[k].size() != v_[k].size()) {
            throw std::invalid_argument(
                "Adam::setState: block size mismatch");
        }
    }
    t_ = state.t;
    m_ = state.m;
    v_ = state.v;
}

} // namespace autocat
