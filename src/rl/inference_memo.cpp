#include "rl/inference_memo.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>

namespace autocat {

namespace {

constexpr std::uint64_t kMulA = 0x9e3779b185ebca87ull;
constexpr std::uint64_t kMulB = 0xc2b2ae3d27d4eb4full;

std::uint64_t
rotl(std::uint64_t x, int r)
{
    return (x << r) | (x >> (64 - r));
}

/** One lane step, one multiply per word: the multiply spreads low bits
 *  upwards, the next step's rotation brings the high bits down. Each
 *  step is a bijection of the lane, so rows that differ in one word
 *  leave different lanes. */
std::uint64_t
mixWord(std::uint64_t lane, std::uint64_t word)
{
    return (rotl(lane, 23) ^ word) * kMulA;
}

std::uint64_t
loadWord(const unsigned char *p)
{
    std::uint64_t w;
    std::memcpy(&w, p, sizeof w);
    return w;
}

/** Smallest table the memo allocates. */
constexpr std::size_t kMinSlots = 64;

} // namespace

InferenceMemo::InferenceMemo(std::size_t width, std::size_t num_actions,
                             Keys keys, std::size_t max_rows)
    : width_(width), stride_(num_actions + 1), keys_(keys),
      max_rows_(max_rows)
{
}

std::uint64_t
InferenceMemo::hashRow(const float *row, std::size_t width)
{
    const auto *p = reinterpret_cast<const unsigned char *>(row);
    const std::size_t bytes = width * sizeof(float);
    const unsigned char *const end = p + bytes;
    // Four independent lanes over 32-byte blocks, so the multiplies of
    // neighbouring words overlap.
    std::uint64_t l0 = 0x243f6a8885a308d3ull, l1 = 0x13198a2e03707344ull,
                  l2 = 0xa4093822299f31d0ull, l3 = 0x082efa98ec4e6c89ull;
    for (; end - p >= 32; p += 32) {
        l0 = mixWord(l0, loadWord(p));
        l1 = mixWord(l1, loadWord(p + 8));
        l2 = mixWord(l2, loadWord(p + 16));
        l3 = mixWord(l3, loadWord(p + 24));
    }
    std::uint64_t h = (rotl(l0, 1) + rotl(l1, 7) + rotl(l2, 12) +
                       rotl(l3, 18)) ^
                      bytes;
    for (; end - p >= 8; p += 8)
        h = mixWord(h, loadWord(p));
    if (p != end) {
        std::uint64_t w = 0;
        std::memcpy(&w, p, static_cast<std::size_t>(end - p));
        h = mixWord(h, w);
    }
    // Final avalanche, so the slot index (the low bits) depends on
    // every bit.
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdull;
    h ^= h >> 33;
    h *= 0xc4ceb9fe1a85ec53ull;
    return h ^ (h >> 33);
}

const float *
InferenceMemo::key(std::size_t entry) const
{
    return keys_ == Keys::Copied ? copied_.data() + entry * width_
                                 : borrowed_[entry];
}

std::size_t
InferenceMemo::probe(const float *row, std::uint64_t hash) const
{
    const std::size_t mask = slots_.size() - 1;
    const auto tag = static_cast<std::uint32_t>(hash >> 32);
    const std::size_t bytes = width_ * sizeof(float);
    for (std::size_t i = hash & mask;; i = (i + 1) & mask) {
        const Slot &s = slots_[i];
        if (s.entry == kEmpty ||
            (s.tag == tag && std::memcmp(key(s.entry), row, bytes) == 0))
            return i;
    }
}

const float *
InferenceMemo::find(const float *row, std::uint64_t hash) const
{
    if (slots_.empty())
        return nullptr;
    const Slot &s = slots_[probe(row, hash)];
    return s.entry == kEmpty ? nullptr : outputs_.data() + s.entry * stride_;
}

void
InferenceMemo::insert(const float *row, std::uint64_t hash,
                      const float *logits, float value)
{
    if (full())
        return;
    assert(size() < kEmpty);
    if (slots_.empty() && max_rows_ != SIZE_MAX) {
        // A capped memo takes the cap's storage in one block per vector
        // at its first insert: grown by doubling, it would leave the
        // smaller blocks behind in the allocator of the thread that
        // inserts, a pool executor for evaluation.
        hashes_.reserve(max_rows_);
        outputs_.reserve(max_rows_ * stride_);
        if (keys_ == Keys::Copied)
            copied_.reserve(max_rows_ * width_);
        else
            borrowed_.reserve(max_rows_);
    }
    // At most half the slots are taken, so every probe ends.
    if (2 * (size() + 1) > slots_.size())
        grow();
    Slot &s = slots_[probe(row, hash)];
    if (s.entry != kEmpty)
        return;
    s.tag = static_cast<std::uint32_t>(hash >> 32);
    s.entry = static_cast<std::uint32_t>(size());
    hashes_.push_back(hash);
    outputs_.insert(outputs_.end(), logits, logits + stride_ - 1);
    outputs_.push_back(value);
    if (keys_ == Keys::Copied)
        copied_.insert(copied_.end(), row, row + width_);
    else
        borrowed_.push_back(row);
}

void
InferenceMemo::grow()
{
    slots_.assign(std::max(kMinSlots, 2 * slots_.size()), Slot{});
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t e = 0; e < hashes_.size(); ++e) {
        std::size_t i = hashes_[e] & mask;
        while (slots_[i].entry != kEmpty)
            i = (i + 1) & mask;
        slots_[i].tag = static_cast<std::uint32_t>(hashes_[e] >> 32);
        slots_[i].entry = static_cast<std::uint32_t>(e);
    }
}

void
InferenceMemo::reset()
{
    std::fill(slots_.begin(), slots_.end(), Slot{});
    hashes_.clear();
    outputs_.clear();
    copied_.clear();
    borrowed_.clear();
}

} // namespace autocat
