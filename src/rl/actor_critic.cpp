#include "rl/actor_critic.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace autocat {

/**
 * Backward scratch of the heads, per thread like Mlp's (rl/nn.cpp): the
 * thread that drives a step owns it, and the step's row blocks and
 * weight-gradient tasks use that thread's copy.
 */
struct ActorCritic::Scratch
{
    std::vector<Matrix> *torso = nullptr;  ///< Mlp::beginBackward(); its
                                           ///< last entry is dTorso
    Matrix dv;       ///< B x 1 value-loss gradient
    Matrix dTorsoV;  ///< the value head's share of dTorso
    std::vector<LayerGrad> jobs;  ///< the weight-gradient region's layers
};

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
    const std::size_t rows = obs.rows();
    Matrix &input = beginForward(rows, out);
    const detail::MatTier tier = detail::matTier();
    parallelBlocks(rows, kMatTileRows, rows * maddsPerRow(),
                   [&](std::size_t r0, std::size_t r1) {
                       std::copy(obs.rowPtr(r0), obs.rowPtr(r1),
                                 input.rowPtr(r0));
                       forwardRows(tier, out, r0, r1);
                   });
}

void
ActorCritic::forwardNoGrad(const Matrix &obs, AcOutput &out)
{
    assert(obs.cols() == obs_dim_);
    const Matrix &torso = torso_.forwardInto(obs, infer_.torso);
    pi_head_.forwardInto(out.logits, torso, /*fuse_relu=*/false);
    v_head_.forwardInto(infer_.values, torso, /*fuse_relu=*/false);
    out.values.resize(obs.rows());
    for (std::size_t r = 0; r < obs.rows(); ++r)
        out.values[r] = infer_.values(r, 0);
}

void
ActorCritic::backward(const Matrix &dlogits,
                      const std::vector<float> &dvalues)
{
    assert(torso_out_ != nullptr);
    const std::size_t rows = torso_out_->rows();
    assert(dlogits.rows() == rows && dvalues.size() == rows);
    Scratch &ws = beginBackward(rows);
    const detail::MatTier tier = detail::matTier();
    parallelBlocks(rows, kMatTileRows, rows * maddsPerRow(),
                   [&](std::size_t r0, std::size_t r1) {
                       backwardRows(tier, ws, dlogits, dvalues, r0, r1);
                   });
    weightGrads(ws, dlogits, /*accumulate=*/true);
}

void
ActorCritic::trainStep(std::size_t rows, Minibatch &batch, AcOutput &out,
                       Matrix &dlogits, std::vector<float> &dvalues)
{
    Matrix &input = beginForward(rows, out);
    Scratch &ws = beginBackward(rows);
    dlogits.resizeUninit(rows, num_actions_);
    dvalues.resize(rows);
    const detail::MatTier tier = detail::matTier();
    parallelBlocks(rows, kMatTileRows, 2 * rows * maddsPerRow(),
                   [&](std::size_t r0, std::size_t r1) {
                       batch.gather(input, r0, r1);
                       forwardRows(tier, out, r0, r1);
                       batch.loss(out, dlogits, dvalues, r0, r1);
                       backwardRows(tier, ws, dlogits, dvalues, r0, r1);
                   });
    weightGrads(ws, dlogits, /*accumulate=*/false);
}

Matrix &
ActorCritic::beginForward(std::size_t rows, AcOutput &out)
{
    Matrix &input = torso_.beginBatch(rows);
    torso_out_ = &torso_.output();
    out.logits.resizeUninit(rows, num_actions_);
    values_col_.resizeUninit(rows, 1);
    out.values.resize(rows);
    return input;
}

ActorCritic::Scratch &
ActorCritic::beginBackward(std::size_t rows)
{
    thread_local Scratch ws;
    ws.torso = &torso_.beginBackward();
    ws.dv.resizeUninit(rows, 1);
    ws.dTorsoV.resizeUninit(rows, torso_.outFeatures());
    return ws;
}

std::size_t
ActorCritic::maddsPerRow() const
{
    return torso_.maddsPerRow() + torso_.outFeatures() * (num_actions_ + 1);
}

void
ActorCritic::forwardRows(detail::MatTier tier, AcOutput &out,
                         std::size_t r0, std::size_t r1)
{
    torso_.forwardRows(tier, r0, r1);
    pi_head_.forwardRows(tier, out.logits, *torso_out_, false, r0, r1);
    v_head_.forwardRows(tier, values_col_, *torso_out_, false, r0, r1);
    for (std::size_t r = r0; r < r1; ++r)
        out.values[r] = values_col_(r, 0);
}

void
ActorCritic::backwardRows(detail::MatTier tier, Scratch &ws,
                          const Matrix &dlogits,
                          const std::vector<float> &dvalues, std::size_t r0,
                          std::size_t r1)
{
    // dTorso = dlogits * W_pi + dv * W_v, written into the torso's
    // output gradient; then the torso's ReLU masks. The add and the
    // masks are two plain loops: fused into one over raw pointers they
    // do not vectorize.
    Matrix &dtorso = ws.torso->back();
    pi_head_.inputGradRows(tier, dtorso, dlogits, r0, r1);
    std::copy(dvalues.begin() + static_cast<std::ptrdiff_t>(r0),
              dvalues.begin() + static_cast<std::ptrdiff_t>(r1),
              ws.dv.rowPtr(r0));
    v_head_.inputGradRows(tier, ws.dTorsoV, ws.dv, r0, r1);
    float *t = dtorso.data();
    const float *v = ws.dTorsoV.data();
    for (std::size_t i = r0 * dtorso.cols(); i < r1 * dtorso.cols(); ++i)
        t[i] += v[i];
    torso_.backwardRows(tier, *ws.torso, r0, r1);
}

void
ActorCritic::weightGrads(Scratch &ws, const Matrix &dlogits,
                         bool accumulate)
{
    const std::size_t n = torso_.numLayers();
    ws.jobs.resize(n + 2);
    torso_.layerGrads(*ws.torso, ws.jobs.data());
    ws.jobs[n] = {&pi_head_, &dlogits, torso_out_};
    ws.jobs[n + 1] = {&v_head_, &ws.dv, torso_out_};
    Linear::weightGrads(ws.jobs.data(), ws.jobs.size(), accumulate);
}

const AcOutput &
ActorCritic::forwardOne(const std::vector<float> &obs)
{
    prepareInference();
    return forwardOne(detail::matTier(), obs, infer_);
}

const AcOutput &
ActorCritic::forwardOne(detail::MatTier tier, const std::vector<float> &obs,
                        InferScratch &ws) const
{
    assert(obs.size() == obs_dim_);
    ws.obs.resizeUninit(1, obs.size());
    std::copy(obs.begin(), obs.end(), ws.obs.data());
    const Matrix &torso = torso_.forwardInline(tier, ws.obs, ws.torso);
    ws.out.logits.resizeUninit(1, num_actions_);
    ws.values.resizeUninit(1, 1);
    pi_head_.forwardRows(tier, ws.out.logits, torso, false, 0, 1);
    v_head_.forwardRows(tier, ws.values, torso, false, 0, 1);
    ws.out.values.assign(1, ws.values(0, 0));
    return ws.out;
}

void
ActorCritic::prepareInference()
{
    torso_.prepareForward();
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

namespace {

/**
 * Draw from softmax(logits row @p r), restricted to the entries whose
 * mask byte is 1 when @p mask is not null, in the sequential order of
 * softmaxRow(): max, exp-sum, then the walk. A masked entry's 0.0 added
 * to the exp-sum is the identity, so an all-1 mask reproduces the
 * unmasked draw, and the log-probability taken from the same max and
 * exp-sum is logProb()'s (logProbMasked()'s) bit for bit.
 */
std::size_t
sampleRow(const Matrix &logits, std::size_t r, const std::uint8_t *mask,
          Rng &rng, double *log_prob)
{
    // The exps, per thread: a draw allocates nothing once it has run.
    thread_local std::vector<double> t_exps;
    const std::size_t n = logits.cols();
    const float *in = logits.rowPtr(r);
    double maxv = -1e30;
    std::size_t valid = 0;
    for (std::size_t c = 0; c < n; ++c) {
        if (!mask || mask[c]) {
            maxv = std::max(maxv, static_cast<double>(in[c]));
            ++valid;
        }
    }
    assert(valid > 0 && "sampleMasked: row masks out every action");
    std::vector<double> &e = t_exps;
    e.resize(n);
    double sum = 0.0;
    for (std::size_t c = 0; c < n; ++c) {
        e[c] = !mask || mask[c] ? std::exp(static_cast<double>(in[c]) - maxv)
                                : 0.0;
        sum += e[c];
    }
    double x = rng.uniformDouble();
    // Rounding can leave a sliver of probability unassigned: the draw
    // then falls back to the last valid index.
    std::size_t action = 0;
    for (std::size_t c = 0; c < n; ++c) {
        if (mask && !mask[c])
            continue;
        action = c;
        x -= e[c] / sum;
        if (x < 0.0)
            break;
    }
    if (log_prob)
        *log_prob = static_cast<double>(in[action]) - maxv - std::log(sum);
    return action;
}

} // namespace

std::size_t
ActorCritic::sample(const Matrix &logits, std::size_t r, Rng &rng,
                    double *log_prob) const
{
    return sampleRow(logits, r, nullptr, rng, log_prob);
}

std::size_t
ActorCritic::sampleMasked(const Matrix &logits, std::size_t r,
                          const std::uint8_t *mask, Rng &rng,
                          double *log_prob) const
{
    assert(mask != nullptr);
    return sampleRow(logits, r, mask, rng, log_prob);
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
