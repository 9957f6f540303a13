#include "attacks/sequence.hpp"

#include <stdexcept>

namespace autocat {

std::size_t
AttackSequence::countKind(ActionKind kind) const
{
    std::size_t n = 0;
    for (const auto &s : steps_) {
        if (s.kind == kind)
            ++n;
    }
    return n;
}

std::string
AttackSequence::toString() const
{
    std::string out;
    for (std::size_t i = 0; i < steps_.size(); ++i) {
        if (i)
            out += " -> ";
        const AttackStep &s = steps_[i];
        switch (s.kind) {
          case ActionKind::Access:
            out += std::to_string(s.addr);
            break;
          case ActionKind::Flush:
            out += "f";
            out += std::to_string(s.addr);
            break;
          case ActionKind::TriggerVictim:
            out += "v";
            break;
          case ActionKind::Guess:
            out += "g";
            out += std::to_string(s.addr);
            break;
          case ActionKind::GuessNoAccess:
            out += "gE";
            break;
        }
    }
    return out;
}

std::string
attackString(const AttackSequence &seq, const std::string &guess)
{
    std::string out = seq.toString();
    if (!guess.empty())
        out += (out.empty() ? "" : " ") + ("-> " + guess);
    return out;
}

std::vector<std::size_t>
AttackSequence::toIndices(const ActionSpace &space) const
{
    std::vector<std::size_t> idx;
    idx.reserve(steps_.size());
    for (const auto &s : steps_) {
        Action a;
        a.kind = s.kind;
        a.addr = s.addr;
        idx.push_back(space.encode(a));
    }
    return idx;
}

AttackSequence
AttackSequence::fromIndices(const ActionSpace &space,
                            const std::vector<std::size_t> &idx)
{
    AttackSequence seq;
    for (std::size_t i : idx) {
        const Action a = space.decode(i);
        if (a.isGuess()) {
            throw std::invalid_argument(
                "attack sequences contain primitive actions only");
        }
        seq.push({a.kind, a.addr});
    }
    return seq;
}

} // namespace autocat
