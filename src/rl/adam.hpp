/**
 * @file
 * Adam optimizer over flat parameter blocks (Kingma & Ba, 2015).
 */

#ifndef AUTOCAT_RL_ADAM_HPP
#define AUTOCAT_RL_ADAM_HPP

#include <cstddef>
#include <vector>

#include "rl/nn.hpp"

namespace autocat {

/** Adam with bias correction; state is keyed by block order. */
class Adam
{
  public:
    /**
     * @param blocks parameter blocks to optimize; the same blocks (in
     *               the same order) must be passed to every step()
     * @param lr     learning rate
     */
    Adam(const std::vector<ParamBlock> &blocks, double lr,
         double beta1 = 0.9, double beta2 = 0.999, double eps = 1e-8);

    /**
     * Apply one update from the gradients currently in @p blocks. Large
     * steps split over element ranges on the calling thread's kernel
     * pool (rl/mat.hpp parallelBlocks); the bits are the same at every
     * thread count.
     */
    void step(std::vector<ParamBlock> &blocks);

    /** Change the learning rate (for schedules). */
    void setLearningRate(double lr) { lr_ = lr; }

    double learningRate() const { return lr_; }

    /**
     * Optimizer state for serialization (rl/checkpoint.hpp): the step
     * counter driving bias correction and both moment estimates, block
     * order matching the constructor's blocks.
     */
    struct State
    {
        long t = 0;
        std::vector<std::vector<float>> m;
        std::vector<std::vector<float>> v;
    };

    State state() const { return {t_, m_, v_}; }

    /**
     * Restore a previously captured state.
     *
     * @throws std::invalid_argument when the block structure does not
     *         match this optimizer's
     */
    void setState(const State &state);

  private:
    /** Partition granularity of step(), in elements. */
    static constexpr std::size_t kElementAlign = 16;

    /** Rough multiply-add equivalents of one element's update (two
     *  moment updates, a square root and a division), for the split
     *  threshold. */
    static constexpr std::size_t kWorkPerElement = 16;

    /** Update elements [i0, i1) of one block; @p simd selects the AVX2
     *  loop, which gives the same bits. */
    void update(ParamBlock &b, std::vector<float> &m, std::vector<float> &v,
                std::size_t i0, std::size_t i1, double alpha,
                bool simd) const;

    double lr_;
    double beta1_;
    double beta2_;
    double eps_;
    long t_ = 0;
    std::vector<std::vector<float>> m_;
    std::vector<std::vector<float>> v_;
};

} // namespace autocat

#endif // AUTOCAT_RL_ADAM_HPP
