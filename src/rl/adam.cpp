#include "rl/adam.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>

#include "rl/mat.hpp"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define AUTOCAT_ADAM_X86 1
#include <immintrin.h>
#endif

namespace autocat {

namespace {

#if AUTOCAT_ADAM_X86
/**
 * Adam::update over elements [i, i1), four at a time in double
 * precision. Each element gets the scalar loop's operations in its
 * order and the same roundings to float. This file is built with
 * -ffp-contract=off, so neither loop fuses a multiply into an add
 * whatever the target flags, and the bits are the scalar loop's.
 * Returns the first element not updated (fewer than four remain).
 */
__attribute__((target("avx2"))) std::size_t
updateAvx2(float *params, const float *grads, float *m, float *v,
           std::size_t i, std::size_t i1, double beta1, double beta2,
           double eps, double alpha)
{
    const __m256d b1 = _mm256_set1_pd(beta1);
    const __m256d c1 = _mm256_set1_pd(1.0 - beta1);
    const __m256d b2 = _mm256_set1_pd(beta2);
    const __m256d c2 = _mm256_set1_pd(1.0 - beta2);
    const __m256d e = _mm256_set1_pd(eps);
    const __m256d a = _mm256_set1_pd(alpha);
    for (; i + 4 <= i1; i += 4) {
        const __m256d g = _mm256_cvtps_pd(_mm_loadu_ps(grads + i));
        const __m128 mf = _mm256_cvtpd_ps(_mm256_add_pd(
            _mm256_mul_pd(b1, _mm256_cvtps_pd(_mm_loadu_ps(m + i))),
            _mm256_mul_pd(c1, g)));
        const __m128 vf = _mm256_cvtpd_ps(_mm256_add_pd(
            _mm256_mul_pd(b2, _mm256_cvtps_pd(_mm_loadu_ps(v + i))),
            _mm256_mul_pd(_mm256_mul_pd(c2, g), g)));
        _mm_storeu_ps(m + i, mf);
        _mm_storeu_ps(v + i, vf);
        const __m256d step = _mm256_div_pd(
            _mm256_mul_pd(a, _mm256_cvtps_pd(mf)),
            _mm256_add_pd(_mm256_sqrt_pd(_mm256_cvtps_pd(vf)), e));
        _mm_storeu_ps(params + i, _mm_sub_ps(_mm_loadu_ps(params + i),
                                             _mm256_cvtpd_ps(step)));
    }
    return i;
}
#endif

} // namespace

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
    const bool simd = detail::matTier() != detail::MatTier::Portable;
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
                           alpha, simd);
                base += size;
            }
        });
}

void
Adam::update(ParamBlock &b, std::vector<float> &m, std::vector<float> &v,
             std::size_t i0, std::size_t i1, double alpha, bool simd) const
{
    std::size_t i = i0;
#if AUTOCAT_ADAM_X86
    if (simd)
        i = updateAvx2(b.params, b.grads, m.data(), v.data(), i, i1, beta1_,
                       beta2_, eps_, alpha);
#else
    (void)simd;
#endif
    for (; i < i1; ++i) {
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
