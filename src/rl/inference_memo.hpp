/**
 * @file
 * An exact-match memo of policy inference: it maps the bytes of an
 * observation row to the policy's outputs for that row, its logits and
 * its value.
 *
 * **Why a hit is exact.** Inference is deterministic and row-pure
 * (rl/mat.hpp): under fixed weights and a fixed kernel tier, a row's
 * outputs are the same floats whatever batch it is computed in. So a
 * hit returns exactly the bytes the forward computed for that row,
 * provided the weights the memo was filled under have not changed and
 * the tier is the one it was filled with. Its owner keeps both still:
 * a memo lives for one PpoTrainer::collect() or one greedy evaluate()
 * (rl/ppo.hpp, rl/episodes.hpp), and none is read after a weight
 * change.
 *
 * **Keys.** A 64-bit word-wise hash (hashRow()) picks the slot, and a
 * full memcmp of the row decides whether it matches, so rows that
 * differ in any bit are different keys, +0.0 and -0.0 or two NaN
 * payloads included. A memo either copies its keys or borrows them:
 * collection keys on the rows its rollout buffer has already staged,
 * which stay put until the buffer is cleared, and so stores no key
 * bytes of its own.
 *
 * Storage is allocated at the first insert (for a capped memo, the
 * cap's worth at once) and kept across reset(). A memo is not
 * thread-safe; each evaluation stream owns one.
 */

#ifndef AUTOCAT_RL_INFERENCE_MEMO_HPP
#define AUTOCAT_RL_INFERENCE_MEMO_HPP

#include <cstddef>
#include <cstdint>
#include <vector>

namespace autocat {

/** Observation row -> logits and value, valid while the weights hold
 *  still (file comment). */
class InferenceMemo
{
  public:
    /** Where the memo's key bytes live. */
    enum class Keys
    {
        Copied,    ///< insert() copies the row
        Borrowed,  ///< insert() keeps a pointer to the row, whose
                   ///< bytes must not change until reset()
    };

    /**
     * @param width       floats per observation row
     * @param num_actions logits per row
     * @param keys        whether inserted rows are copied or borrowed
     * @param max_rows    rows held at most (SIZE_MAX: no cap); a full
     *                    memo stops inserting and keeps answering
     *                    lookups
     */
    InferenceMemo(std::size_t width, std::size_t num_actions, Keys keys,
                  std::size_t max_rows = SIZE_MAX);

    /** 64-bit hash of the @p width floats at @p row, whole 8-byte
     *  words at a time. The same bytes give the same hash. */
    static std::uint64_t hashRow(const float *row, std::size_t width);

    /**
     * The outputs stored for @p row, whose hashRow() is @p hash: the
     * numActions() logits, followed by the value. nullptr when the row
     * is not held. The pointer is valid until the next insert() or
     * reset().
     */
    const float *find(const float *row, std::uint64_t hash) const;

    /**
     * Store @p logits (numActions() floats) and @p value for @p row
     * (hash @p hash), unless the row is already held or the memo is
     * full.
     */
    void insert(const float *row, std::uint64_t hash, const float *logits,
                float value);

    /** Forget every row; keeps the storage for the next fill. */
    void reset();

    /** Rows held. */
    std::size_t size() const { return hashes_.size(); }

    /** True when no further row will be inserted. */
    bool full() const { return size() >= max_rows_; }

    std::size_t numActions() const { return stride_ - 1; }

  private:
    /** One slot of the open-addressed table: an entry index and the
     *  hash's high half, which rejects most mismatches before the
     *  memcmp. */
    struct Slot
    {
        std::uint32_t tag = 0;
        std::uint32_t entry = kEmpty;
    };
    static constexpr std::uint32_t kEmpty = UINT32_MAX;

    const float *key(std::size_t entry) const;
    /** The slot @p row occupies, or the empty slot that ends its
     *  probe. */
    std::size_t probe(const float *row, std::uint64_t hash) const;
    void grow();

    std::size_t width_;
    std::size_t stride_;  ///< floats per entry: logits, then the value
    Keys keys_;
    std::size_t max_rows_;
    std::vector<Slot> slots_;             ///< power-of-two size, or empty
    std::vector<std::uint64_t> hashes_;   ///< entry i's hash, to regrow
    std::vector<float> outputs_;          ///< entry i at i * stride_
    std::vector<float> copied_;           ///< Copied: entry i's row
    std::vector<const float *> borrowed_; ///< Borrowed: entry i's row
};

} // namespace autocat

#endif // AUTOCAT_RL_INFERENCE_MEMO_HPP
