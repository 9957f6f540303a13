/**
 * @file
 * Minimal dense matrix used by the neural-network substrate.
 *
 * Row-major float storage with exactly the operations PPO needs:
 * matmul (plain and transposed variants), a fused affine map for
 * inference, elementwise ops, and row/col reductions. Deliberately not
 * a general linear-algebra library.
 *
 * The matmul entry points dispatch at runtime between a blocked,
 * register-tiled AVX2+FMA kernel and a portable scalar fallback (see
 * matmulBackend()). Two properties every backend upholds:
 *
 *  - **Determinism**: for a fixed backend, results are a pure function
 *    of the operands — the same bits at every thread count, no
 *    runtime-dependent blocking.
 *  - **Row purity** (matmulTransBInto / linearForwardInto only): each
 *    output row is computed with an accumulation order that depends
 *    only on that row of A and on B — never on the number of other
 *    rows in the batch. Forwarding a batch in two halves is therefore
 *    bitwise identical to forwarding it whole, which is what lets the
 *    multi-core partition below split the forward GEMMs over batch
 *    rows without changing a bit.
 *
 * **Multi-core partition contract.** A matmul call with at least
 * kMatSplitMinRows output rows and 2 * kMatSplitMinWork multiply-adds
 * is split over its *output rows* — batch rows for matmulInto,
 * matmulTransBInto and linearForwardInto, rows of the A^T * B product
 * for matmulTransAInto — into contiguous blocks whose boundaries are
 * multiples of the kernels' 4-row register tile, at most one block per
 * thread of the calling thread's budget (matThreads()) and per
 * kMatSplitMinWork multiply-adds, run on a util/TaskPool. Every output element therefore goes through the same
 * kernel path and accumulation order as in the single-threaded call:
 * the bits are those of the serial kernel at every thread count.
 * Smaller calls — per-step collection inference, forwardOne(), the
 * tiny head GEMMs — run inline and never dispatch.
 *
 * Set AUTOCAT_MAT_PORTABLE=1 in the environment (before first use) to
 * force the portable backend, e.g. when A/B-measuring the SIMD path.
 */

#ifndef AUTOCAT_RL_MAT_HPP
#define AUTOCAT_RL_MAT_HPP

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <vector>

namespace autocat {

/** Row-major dense float matrix. */
class Matrix
{
  public:
    Matrix() = default;

    /** rows x cols zero matrix. */
    Matrix(std::size_t rows, std::size_t cols)
        : rows_(rows), cols_(cols), data_(rows * cols, 0.0f)
    {
    }

    std::size_t rows() const { return rows_; }
    std::size_t cols() const { return cols_; }
    std::size_t size() const { return data_.size(); }
    bool empty() const { return data_.empty(); }

    float &operator()(std::size_t r, std::size_t c)
    {
        assert(r < rows_ && c < cols_);
        return data_[r * cols_ + c];
    }

    float operator()(std::size_t r, std::size_t c) const
    {
        assert(r < rows_ && c < cols_);
        return data_[r * cols_ + c];
    }

    float *data() { return data_.data(); }
    const float *data() const { return data_.data(); }

    float *rowPtr(std::size_t r) { return data_.data() + r * cols_; }
    const float *rowPtr(std::size_t r) const
    {
        return data_.data() + r * cols_;
    }

    /** Set every element to zero. */
    void zero() { std::fill(data_.begin(), data_.end(), 0.0f); }

    /** Resize (contents become zero). */
    void
    resize(std::size_t rows, std::size_t cols)
    {
        rows_ = rows;
        cols_ = cols;
        data_.assign(rows * cols, 0.0f);
    }

    /**
     * Resize without initializing: contents are unspecified (stale
     * values when shrinking/reusing, zeros for newly grown storage).
     * For destination matrices of the *Into kernels, which overwrite
     * every element; a same-size call is free, which makes reusable
     * workspaces cheap.
     */
    void
    resizeUninit(std::size_t rows, std::size_t cols)
    {
        rows_ = rows;
        cols_ = cols;
        data_.resize(rows * cols);
    }

  private:
    std::size_t rows_ = 0;
    std::size_t cols_ = 0;
    std::vector<float> data_;
};

/**
 * Name of the matmul backend selected at startup: "avx2+fma" or
 * "portable". Useful in logs and for verifying a forced fallback.
 */
const char *matmulBackend();

/** Least multiply-adds per block of a split call; calls with fewer
 *  than twice this run inline. */
constexpr std::size_t kMatSplitMinWork = std::size_t{1} << 18;

/** Calls with fewer output rows than this run inline. */
constexpr std::size_t kMatSplitMinRows = 8;

/**
 * Thread budget of the calling thread's training kernels: how many pool
 * workers a matmul (or Adam step) big enough to split may use. Defaults
 * to every CPU in the process's affinity mask; MatThreadScope overrides
 * it. Results are bitwise identical at every budget, so the budget is
 * an execution resource only — no config key, blob, checkpoint or
 * report carries it.
 */
std::size_t matThreads();

/**
 * Sets the calling thread's budget for the scope's lifetime (0 selects
 * the default) and restores the previous budget on destruction. The
 * worker pool is per thread and created lazily, on the first call big
 * enough to split — a budget of 1 never spawns a thread.
 */
class MatThreadScope
{
  public:
    explicit MatThreadScope(std::size_t threads);
    ~MatThreadScope();

    MatThreadScope(const MatThreadScope &) = delete;
    MatThreadScope &operator=(const MatThreadScope &) = delete;

  private:
    std::size_t saved_;
};

namespace detail {
using BlockFn = void (*)(void *ctx, std::size_t begin, std::size_t end);
void runBlocks(std::size_t n, std::size_t align, std::size_t work,
               BlockFn fn, void *ctx);
} // namespace detail

/**
 * Run @p body(begin, end) over a partition of [0, n) into contiguous
 * blocks whose interior boundaries are multiples of @p align, on the
 * calling thread's pool: min(budget, align tiles, @p work /
 * kMatSplitMinWork) blocks, @p work being the call's estimated
 * multiply-adds. Block calls run concurrently, so @p body must write
 * only state its block owns. Runs body(0, n) inline instead when that
 * count is below 2 or n < kMatSplitMinRows.
 */
template <typename F>
void
parallelBlocks(std::size_t n, std::size_t align, std::size_t work,
               F &&body)
{
    using Fn = std::remove_reference_t<F>;
    detail::runBlocks(
        n, align, work,
        [](void *ctx, std::size_t begin, std::size_t end) {
            (*static_cast<Fn *>(ctx))(begin, end);
        },
        const_cast<void *>(static_cast<const void *>(&body)));
}

/*
 * Destination-passing matmuls. Shared pre/postconditions:
 *
 *  Pre:  @p c must not alias @p a or @p b (asserted); operand shapes
 *        must agree as documented per function (asserted). Operands
 *        need no particular alignment — kernels use unaligned loads.
 *  Post: @p c is resized to the product shape and every element is
 *        overwritten (no accumulate-into semantics).
 *
 * The value-returning wrappers below allocate a fresh destination and
 * forward to these.
 */

/** C = A * B. A: m x k, B: k x n. */
void matmulInto(Matrix &c, const Matrix &a, const Matrix &b);

/**
 * C = A * B^T. A: m x k, B: n x k. Row-pure: row i of C depends only
 * on row i of A (see the file comment), so batch splitting is exact.
 */
void matmulTransBInto(Matrix &c, const Matrix &a, const Matrix &b);

/** C = A^T * B. A: k x m, B: k x n. */
void matmulTransAInto(Matrix &c, const Matrix &a, const Matrix &b);

/**
 * Fused inference map y = x * w^T + bias, optionally ReLU-clamped —
 * one pass, no intermediate logits/bias/activation temporaries.
 *
 *  Pre:  x: B x in, w: out x in, bias.size() == out; @p y must alias
 *        neither @p x nor @p w (asserted).
 *  Post: y is B x out, fully overwritten. Row-pure like
 *        matmulTransBInto.
 */
void linearForwardInto(Matrix &y, const Matrix &x, const Matrix &w,
                       const std::vector<float> &bias, bool relu);

/** C = A * B. A: m x k, B: k x n. */
Matrix matmul(const Matrix &a, const Matrix &b);

/** C = A * B^T. A: m x k, B: n x k. */
Matrix matmulTransB(const Matrix &a, const Matrix &b);

/** C = A^T * B. A: k x m, B: k x n. */
Matrix matmulTransA(const Matrix &a, const Matrix &b);

/**
 * Fused row-wise softmax + entropy over a logits matrix: for each row
 * r, probs[r * cols + c] receives softmax(row r)[c] (double precision,
 * max-subtracted) and entropies[r] receives -sum p log p, in one pass
 * over reusable flat buffers — no per-row allocations, no second
 * traversal. The per-row arithmetic and accumulation order are exactly
 * those of ActorCritic::softmaxRow()/entropy(), so results are bitwise
 * identical to the per-row helpers; this is the PPO minibatch update's
 * batch kernel (rl/ppo.cpp).
 *
 *  Pre:  logits is B x A with A >= 1.
 *  Post: probs.size() == B * A, entropies.size() == B, fully
 *        overwritten.
 */
void softmaxEntropyRowsInto(std::vector<double> &probs,
                            std::vector<double> &entropies,
                            const Matrix &logits);

/**
 * Masked variant of softmaxEntropyRowsInto: entries whose mask byte is
 * 0 are treated as logit -inf — they receive probability exactly 0.0
 * and contribute nothing to the max, the exp-sum, or the entropy, so
 * the distribution and its entropy live on the valid support only.
 * NaN-free by construction: the max is taken over the valid entries
 * (every exp argument is <= 0, so nothing overflows) and masked
 * entries never enter a 0 * log(0).
 *
 *  Pre:  logits is B x A with A >= 1; @p masks is row-major B x A
 *        (1 = valid). Must not be null — callers with no mask use the
 *        unmasked kernel, whose output this matches bitwise on all-1
 *        masks.
 *  Post: probs.size() == B * A, entropies.size() == B, fully
 *        overwritten.
 *
 * @throws std::domain_error when a row masks out every action — a
 *         rollout buffer fed from such a row would train on NaN, so an
 *         all-invalid row fails loudly at the kernel boundary.
 */
void softmaxEntropyRowsMaskedInto(std::vector<double> &probs,
                                  std::vector<double> &entropies,
                                  const Matrix &logits,
                                  const std::uint8_t *masks);

/** Add row vector @p bias (length cols) to every row of @p m in place. */
void addRowVector(Matrix &m, const std::vector<float> &bias);

/**
 * acc[c] += column c's sum of @p m, the sum taken over the rows in
 * order from 0 before it is added; no allocation.
 *
 *  Pre: acc.size() == m.cols().
 */
void addColSums(std::vector<float> &acc, const Matrix &m);

} // namespace autocat

#endif // AUTOCAT_RL_MAT_HPP
