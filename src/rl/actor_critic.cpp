#include "rl/actor_critic.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace autocat {

namespace {

/** backward() scratch, per thread like Mlp's (rl/nn.cpp). */
struct BackwardScratch
{
    Matrix dv;       ///< B x 1 value-loss gradient
    Matrix dTorso;   ///< torso-output gradient: policy head + value
    Matrix dTorsoV;  ///< the value head's share of dTorso
};

thread_local BackwardScratch t_backward;

} // namespace

ActorCritic::ActorCritic(std::size_t obs_dim, std::size_t num_actions,
                         std::size_t hidden, std::size_t layers, Rng &rng)
    : obs_dim_(obs_dim),
      num_actions_(num_actions),
      torso_([&] {
          std::vector<std::size_t> sizes{obs_dim};
          for (std::size_t i = 0; i < std::max<std::size_t>(1, layers); ++i)
              sizes.push_back(hidden);
          return Mlp(sizes, rng, /*activate_last=*/true);
      }()),
      // Small-gain policy head keeps the initial policy near uniform,
      // which matters for exploration in the guessing game.
      pi_head_(hidden, num_actions, rng, 0.01f),
      v_head_(hidden, 1, rng, 1.0f)
{
}

AcOutput
ActorCritic::forward(const Matrix &obs)
{
    AcOutput out;
    forward(obs, out);
    return out;
}

void
ActorCritic::forward(const Matrix &obs, AcOutput &out)
{
    assert(obs.cols() == obs_dim_);
    const Matrix &torso = torso_.forwardCached(obs);
    torso_out_ = &torso;
    pi_head_.forwardInto(out.logits, torso, /*fuse_relu=*/false);
    v_head_.forwardInto(values_col_, torso, /*fuse_relu=*/false);
    out.values.resize(obs.rows());
    for (std::size_t r = 0; r < obs.rows(); ++r)
        out.values[r] = values_col_(r, 0);
}

void
ActorCritic::forwardNoGrad(const Matrix &obs, AcOutput &out)
{
    assert(obs.cols() == obs_dim_);
    const Matrix &torso = torso_.forwardInto(obs, infer_scratch_);
    pi_head_.forwardInto(out.logits, torso, /*fuse_relu=*/false);
    v_head_.forwardInto(infer_values_col_, torso, /*fuse_relu=*/false);
    out.values.resize(obs.rows());
    for (std::size_t r = 0; r < obs.rows(); ++r)
        out.values[r] = infer_values_col_(r, 0);
}

void
ActorCritic::backward(const Matrix &dlogits,
                      const std::vector<float> &dvalues)
{
    assert(torso_out_ != nullptr);
    assert(dlogits.rows() == torso_out_->rows());
    assert(dvalues.size() == torso_out_->rows());

    BackwardScratch &ws = t_backward;
    pi_head_.backward(dlogits, *torso_out_, &ws.dTorso);

    ws.dv.resizeUninit(dvalues.size(), 1);
    std::copy(dvalues.begin(), dvalues.end(), ws.dv.data());
    v_head_.backward(ws.dv, *torso_out_, &ws.dTorsoV);

    for (std::size_t i = 0; i < ws.dTorso.size(); ++i)
        ws.dTorso.data()[i] += ws.dTorsoV.data()[i];

    torso_.backward(ws.dTorso);
}

const AcOutput &
ActorCritic::forwardOne(const std::vector<float> &obs)
{
    one_obs_.resizeUninit(1, obs.size());
    std::copy(obs.begin(), obs.end(), one_obs_.data());
    forwardNoGrad(one_obs_, one_out_);
    return one_out_;
}

void
ActorCritic::zeroGrad()
{
    torso_.zeroGrad();
    pi_head_.zeroGrad();
    v_head_.zeroGrad();
}

std::vector<ParamBlock>
ActorCritic::paramBlocks()
{
    std::vector<ParamBlock> blocks = torso_.paramBlocks();
    for (auto &b : pi_head_.paramBlocks())
        blocks.push_back(b);
    for (auto &b : v_head_.paramBlocks())
        blocks.push_back(b);
    return blocks;
}

std::vector<double>
ActorCritic::softmaxRow(const Matrix &logits, std::size_t r)
{
    const std::size_t n = logits.cols();
    std::vector<double> p(n);
    double maxv = -1e30;
    for (std::size_t c = 0; c < n; ++c)
        maxv = std::max(maxv, static_cast<double>(logits(r, c)));
    double sum = 0.0;
    for (std::size_t c = 0; c < n; ++c) {
        p[c] = std::exp(static_cast<double>(logits(r, c)) - maxv);
        sum += p[c];
    }
    for (auto &v : p)
        v /= sum;
    return p;
}

std::size_t
ActorCritic::sample(const Matrix &logits, std::size_t r, Rng &rng) const
{
    const std::vector<double> p = softmaxRow(logits, r);
    double x = rng.uniformDouble();
    for (std::size_t c = 0; c < p.size(); ++c) {
        x -= p[c];
        if (x < 0.0)
            return c;
    }
    return p.size() - 1;
}

std::size_t
ActorCritic::sampleMasked(const Matrix &logits, std::size_t r,
                          const std::uint8_t *mask, Rng &rng) const
{
    assert(mask != nullptr);
    const std::size_t n = logits.cols();
    // Masked softmax in the exact sequential order of softmaxRow(), so
    // an all-1 mask reproduces sample() bit for bit (adding the masked
    // entries' 0.0 to the running sum is the identity).
    double maxv = -1e30;
    std::size_t valid = 0;
    for (std::size_t c = 0; c < n; ++c) {
        if (mask[c]) {
            maxv = std::max(maxv, static_cast<double>(logits(r, c)));
            ++valid;
        }
    }
    assert(valid > 0 && "sampleMasked: row masks out every action");
    std::vector<double> p(n);
    double sum = 0.0;
    for (std::size_t c = 0; c < n; ++c) {
        p[c] = mask[c]
                   ? std::exp(static_cast<double>(logits(r, c)) - maxv)
                   : 0.0;
        sum += p[c];
    }
    double x = rng.uniformDouble();
    std::size_t last_valid = 0;
    for (std::size_t c = 0; c < n; ++c) {
        if (!mask[c])
            continue;
        last_valid = c;
        x -= p[c] / sum;
        if (x < 0.0)
            return c;
    }
    // Rounding left a sliver of probability unassigned: fall back to
    // the last *valid* index, mirroring sample()'s final-index return.
    return last_valid;
}

std::size_t
ActorCritic::argmax(const Matrix &logits, std::size_t r) const
{
    std::size_t best = 0;
    for (std::size_t c = 1; c < logits.cols(); ++c) {
        if (logits(r, c) > logits(r, best))
            best = c;
    }
    return best;
}

std::size_t
ActorCritic::argmaxMasked(const Matrix &logits, std::size_t r,
                          const std::uint8_t *mask) const
{
    assert(mask != nullptr);
    const std::size_t n = logits.cols();
    std::size_t best = n;  // sentinel: no valid entry seen yet
    for (std::size_t c = 0; c < n; ++c) {
        if (!mask[c])
            continue;
        // Strict > breaks ties toward the lowest valid index, matching
        // the unmasked argmax()'s deterministic tie rule.
        if (best == n || logits(r, c) > logits(r, best))
            best = c;
    }
    assert(best < n && "argmaxMasked: row masks out every action");
    return best;
}

double
ActorCritic::logProb(const Matrix &logits, std::size_t r,
                     std::size_t action)
{
    double maxv = -1e30;
    for (std::size_t c = 0; c < logits.cols(); ++c)
        maxv = std::max(maxv, static_cast<double>(logits(r, c)));
    double sum = 0.0;
    for (std::size_t c = 0; c < logits.cols(); ++c)
        sum += std::exp(static_cast<double>(logits(r, c)) - maxv);
    return static_cast<double>(logits(r, action)) - maxv - std::log(sum);
}

double
ActorCritic::logProbMasked(const Matrix &logits, std::size_t r,
                           std::size_t action, const std::uint8_t *mask)
{
    assert(mask != nullptr);
    assert(mask[action] && "logProbMasked: action is masked out");
    double maxv = -1e30;
    for (std::size_t c = 0; c < logits.cols(); ++c) {
        if (mask[c])
            maxv = std::max(maxv, static_cast<double>(logits(r, c)));
    }
    double sum = 0.0;
    for (std::size_t c = 0; c < logits.cols(); ++c) {
        if (mask[c])
            sum += std::exp(static_cast<double>(logits(r, c)) - maxv);
    }
    return static_cast<double>(logits(r, action)) - maxv - std::log(sum);
}

double
ActorCritic::entropy(const Matrix &logits, std::size_t r)
{
    const std::vector<double> p = softmaxRow(logits, r);
    double h = 0.0;
    for (double v : p) {
        if (v > 1e-12)
            h -= v * std::log(v);
    }
    return h;
}

} // namespace autocat
