/**
 * @file
 * Attack-sequence representation.
 *
 * An attack sequence is the paper's "trajectory of actions": memory
 * accesses, flushes, and victim triggers, rendered in the paper's
 * arrow notation (e.g. "3 -> 1 -> 4 -> 2 -> v -> 0 -> g0").
 */

#ifndef AUTOCAT_ATTACKS_SEQUENCE_HPP
#define AUTOCAT_ATTACKS_SEQUENCE_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "env/action_space.hpp"

namespace autocat {

/** One step of an attack sequence. */
struct AttackStep
{
    ActionKind kind = ActionKind::Access;
    std::uint64_t addr = 0;

    static AttackStep
    access(std::uint64_t addr)
    {
        return {ActionKind::Access, addr};
    }

    static AttackStep
    flush(std::uint64_t addr)
    {
        return {ActionKind::Flush, addr};
    }

    static AttackStep
    trigger()
    {
        return {ActionKind::TriggerVictim, 0};
    }
};

/** An ordered attack sequence (primitive actions only, no guess). */
class AttackSequence
{
  public:
    AttackSequence() = default;
    explicit AttackSequence(std::vector<AttackStep> steps)
        : steps_(std::move(steps))
    {
    }

    const std::vector<AttackStep> &steps() const { return steps_; }
    std::vector<AttackStep> &steps() { return steps_; }
    std::size_t size() const { return steps_.size(); }
    bool empty() const { return steps_.empty(); }

    void push(AttackStep step) { steps_.push_back(step); }

    /** Number of steps of the given kind. */
    std::size_t countKind(ActionKind kind) const;

    /** Paper-style arrow rendering of the primitive steps. */
    std::string toString() const;

    /** Encode into action indices of @p space. */
    std::vector<std::size_t> toIndices(const ActionSpace &space) const;

    /** Build from primitive action indices of @p space. */
    static AttackSequence fromIndices(const ActionSpace &space,
                                      const std::vector<std::size_t> &idx);

  private:
    std::vector<AttackStep> steps_;
};

/**
 * The one rendering of an attack: @p seq's steps followed by
 * "-> <guess>" ("0 -> v -> 0 -> g0"; "-> g0" for an empty sequence).
 * An empty @p guess (the episode ended without one, e.g. a
 * Terminate-mode detector ended it) renders the steps alone.
 */
std::string attackString(const AttackSequence &seq,
                         const std::string &guess);

} // namespace autocat

#endif // AUTOCAT_ATTACKS_SEQUENCE_HPP
