#include "rl/rollout.hpp"

#include <cassert>
#include <cmath>
#include <cstring>
#include <stdexcept>

namespace autocat {

RolloutBuffer::RolloutBuffer(std::size_t steps, std::size_t streams,
                             std::size_t obs_dim)
    : steps_(steps), streams_(streams), obs_dim_(obs_dim)
{
    assert(streams_ > 0);
    const std::size_t capacity = steps_ * streams_;
    actions_.reserve(capacity);
    rewards_.reserve(capacity);
    dones_.reserve(capacity);
    values_.reserve(capacity);
    log_probs_.reserve(capacity);
}

void
RolloutBuffer::stageObs(const Matrix &obs)
{
    assert(steps_added_ < steps_ && !staged_);
    assert(obs.rows() == streams_ && obs.cols() == obs_dim_);
    // Sized here, not in the constructor: building a trainer allocates
    // no observation storage. clear() keeps it for the next epoch.
    if (obs_.rows() != steps_ * streams_)
        obs_.resizeUninit(steps_ * streams_, obs_dim_);
    std::memcpy(obs_.rowPtr(steps_added_ * streams_), obs.data(),
                streams_ * obs_dim_ * sizeof(float));
    staged_ = true;
}

void
RolloutBuffer::enableMasks(std::size_t num_actions)
{
    assert(steps_added_ == 0 && !staged_ &&
           "enableMasks: buffer already holds transitions");
    assert(num_actions > 0);
    num_actions_ = num_actions;
    masks_.reserve(steps_ * streams_ * num_actions_);
}

void
RolloutBuffer::stageMasks(const std::uint8_t *masks)
{
    assert(num_actions_ > 0 && "stageMasks: enableMasks() not called");
    assert(steps_added_ < steps_ && !mask_staged_);
    assert(masks != nullptr);
    masks_.insert(masks_.end(), masks,
                  masks + streams_ * num_actions_);
    mask_staged_ = true;
}

void
RolloutBuffer::gatherMasksInto(std::vector<std::uint8_t> &out,
                               const std::vector<std::size_t> &indices) const
{
    out.resize(indices.size() * num_actions_);
    gatherMasksInto(out, indices, 0, indices.size());
}

void
RolloutBuffer::gatherMasksInto(std::vector<std::uint8_t> &out,
                               const std::vector<std::size_t> &indices,
                               std::size_t r0, std::size_t r1) const
{
    assert(num_actions_ > 0);
    assert(out.size() == indices.size() * num_actions_);
    assert(r1 <= indices.size());
    for (std::size_t r = r0; r < r1; ++r) {
        assert(indices[r] < size());
        std::memcpy(out.data() + r * num_actions_,
                    masks_.data() + indices[r] * num_actions_,
                    num_actions_);
    }
}

void
RolloutBuffer::commitStep(const std::vector<std::size_t> &actions,
                          const std::vector<double> &rewards,
                          const std::vector<std::uint8_t> &dones,
                          const std::vector<double> &values,
                          const std::vector<double> &log_probs)
{
    assert(staged_);
    assert((num_actions_ == 0 || mask_staged_) &&
           "commitStep: masked buffer committed without stageMasks()");
    assert(actions.size() == streams_ && rewards.size() == streams_ &&
           dones.size() == streams_ && values.size() == streams_ &&
           log_probs.size() == streams_);
    actions_.insert(actions_.end(), actions.begin(), actions.end());
    rewards_.insert(rewards_.end(), rewards.begin(), rewards.end());
    dones_.insert(dones_.end(), dones.begin(), dones.end());
    values_.insert(values_.end(), values.begin(), values.end());
    log_probs_.insert(log_probs_.end(), log_probs.begin(), log_probs.end());
    ++steps_added_;
    staged_ = false;
    mask_staged_ = false;
}

void
RolloutBuffer::clear()
{
    steps_added_ = 0;
    staged_ = false;
    mask_staged_ = false;
    masks_.clear();
    actions_.clear();
    rewards_.clear();
    dones_.clear();
    values_.clear();
    log_probs_.clear();
    advantages_.clear();
    returns_.clear();
}

void
RolloutBuffer::computeAdvantages(double gamma, double lambda,
                                 const std::vector<double> &last_values)
{
    if (last_values.size() != streams_)
        throw std::invalid_argument(
            "computeAdvantages: one bootstrap value per stream required");

    const std::size_t n = size();
    advantages_.assign(n, 0.0);
    returns_.assign(n, 0.0);

    for (std::size_t s = 0; s < streams_; ++s) {
        double adv = 0.0;
        double next_value = last_values[s];
        for (std::size_t t = steps_added_; t-- > 0;) {
            const std::size_t i = t * streams_ + s;
            const double not_done = dones_[i] ? 0.0 : 1.0;
            const double delta =
                rewards_[i] + gamma * next_value * not_done - values_[i];
            adv = delta + gamma * lambda * not_done * adv;
            advantages_[i] = adv;
            returns_[i] = adv + values_[i];
            next_value = values_[i];
        }
    }
}

void
RolloutBuffer::computeAdvantages(double gamma, double lambda,
                                 double last_value)
{
    computeAdvantages(gamma, lambda,
                      std::vector<double>(streams_, last_value));
}

void
RolloutBuffer::normalizeAdvantages()
{
    const std::size_t n = size();
    if (n < 2)
        return;
    double mean = 0.0;
    for (double a : advantages_)
        mean += a;
    mean /= static_cast<double>(n);
    double var = 0.0;
    for (double a : advantages_)
        var += (a - mean) * (a - mean);
    var /= static_cast<double>(n);
    const double sd = std::sqrt(var) + 1e-8;
    for (double &a : advantages_)
        a = (a - mean) / sd;
}

void
RolloutBuffer::gatherObsInto(Matrix &out,
                             const std::vector<std::size_t> &indices) const
{
    out.resizeUninit(indices.size(), obs_dim_);
    gatherObsInto(out, indices, 0, indices.size());
}

void
RolloutBuffer::gatherObsInto(Matrix &out,
                             const std::vector<std::size_t> &indices,
                             std::size_t r0, std::size_t r1) const
{
    assert(out.rows() == indices.size() && out.cols() == obs_dim_);
    assert(r1 <= indices.size());
    for (std::size_t r = r0; r < r1; ++r) {
        assert(indices[r] < size());
        std::memcpy(out.rowPtr(r), obs_.rowPtr(indices[r]),
                    obs_dim_ * sizeof(float));
    }
}

} // namespace autocat
