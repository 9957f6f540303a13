/**
 * @file
 * Minimal dense matrix used by the neural-network substrate.
 *
 * Row-major float storage with exactly the operations PPO needs:
 * matmul (plain and transposed variants), a fused affine map for
 * inference, elementwise ops, and row/col reductions. Deliberately not
 * a general linear-algebra library.
 *
 * **Tiers.** The matmul entry points dispatch at runtime between three
 * kernel tiers (matmulBackend() names the calling thread's): AVX-512
 * (register tiles in zmm registers, for the dot-product kernels and
 * matmulInto), AVX2+FMA (every entry point; matmulTransAInto and
 * matmulInto's tail columns use it on AVX-512 hosts too) and a portable
 * scalar fallback. The host's best
 * tier is chosen once (detail::hostMatTier()); AUTOCAT_MAT_PORTABLE=1
 * in the environment, before first use, forces the portable one, and
 * detail::MatTierScope caps the calling thread's tier so tests can run
 * every tier on one host. On the AVX-512 tier, rows that do not fill a
 * zmm tile (4 rows for the dot products, 8 for matmulInto) run the
 * AVX2 kernel, so calls under 4 rows — per-step collection with one
 * stream, forwardOne() — stay on AVX2; the choice depends only on the
 * input's size.
 *
 * **Per-element arithmetic contract.** Each output element is computed
 * by one fixed sequence of roundings that depends only on its shape
 * (k, and for matmulInto whether its column lies past the last
 * 16-column tile), never on the tile, panel, vector width, tier among
 * the SIMD ones, batch size or thread count. The two SIMD tiers give
 * identical bits; the portable backend has its own (it rounds every
 * product, and matmulInto/matmulTransAInto skip zero multiplicands):
 *
 *  - matmulTransBInto / linearForwardInto: two 8-lane FMA accumulators
 *    over 16-float steps, an 8-float step into the first, one fixed
 *    horizontal sum of their sum, then the k mod 8 tail one product at
 *    a time — when there are 4 or more, the first four are rounded
 *    before they are added and the rest fused; otherwise all fused —
 *    then bias and ReLU.
 *  - matmulInto: one FMA chain over k in order, except in the columns
 *    past the last 16-column tile, whose first 4 * floor(k / 4)
 *    products are rounded before they are added and the rest fused.
 *  - matmulTransAInto: one FMA chain over k in order.
 *
 * **Zero skipping.** The zero-skipping entry points (below) give each
 * element the same sequence minus the steps whose factor from the
 * sparse operand is zero: a dot product adds each nonzero feature into
 * the accumulator lane the dense kernel adds it to, then runs the same
 * horizontal sum, tail rule, bias and ReLU; an A^T * B element is its
 * FMA chain over the rows whose feature is nonzero. A zero product
 * added to a sum leaves the sum as it was, so on the SIMD tiers the
 * bits are the dense kernel's, with one visible difference: a zero
 * feature against an infinite or NaN weight (or gradient) adds nothing
 * here, where the dense kernel's 0 * inf gives NaN. (A sum that is
 * exactly -0.0, which only a product underflowing to -0.0 can make,
 * stays -0.0 past a zero feature, where the dense kernel's -0.0 + +0.0
 * gives +0.0.) The portable tier runs its dense kernels there.
 *
 * The tail steps are spelled out with intrinsics and rl/mat.cpp is
 * built with -ffp-contract=off, so neither the compiler, its flags nor
 * the optimization level can move them. Two consequences:
 *
 *  - **Determinism**: results are a pure function of the operands and
 *    the backend (SIMD or portable).
 *  - **Row purity**: each output row depends only on its row of A and
 *    on B, never on the number of other rows in the batch, so
 *    forwarding a batch in two halves is bitwise identical to
 *    forwarding it whole.
 *
 * **Multi-core partition contract.** A matmul call with at least
 * kMatSplitMinRows output rows and 2 * kMatSplitMinWork multiply-adds
 * is split over its *output rows* — batch rows for matmulInto,
 * matmulTransBInto and linearForwardInto, rows of the A^T * B product
 * for matmulTransAInto — into contiguous blocks whose boundaries are
 * multiples of 4 rows, at most one block per executor of the calling
 * thread's budget (matThreads()) and per kMatSplitMinWork
 * multiply-adds. The blocks run on the calling thread's util/TaskPool:
 * the calling thread runs blocks itself, next to budget - 1 workers.
 * Each block takes the call's tier. Since per-element arithmetic is
 * independent of the tile path, the bits are those of the serial call
 * at every thread count. Smaller calls — per-step collection
 * inference, forwardOne() — run inline and never dispatch.
 *
 * The PPO update does not reach the kernels through these calls: its
 * training step (ActorCritic::trainStep) partitions a minibatch itself,
 * into one row region and one weight-gradient region per minibatch,
 * and runs the row-range entry points (linearForwardRowsInto,
 * matmulRowsInto, matmulTransARowsInto, and for the first layer their
 * zero-skipping forms) inside them — the same kernels, so the same
 * bits, including the head GEMMs that a whole-matrix call runs inline.
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
 * Name of the matmul tier the calling thread's kernels use (the one
 * selected at startup unless a detail::MatTierScope caps it):
 * "avx512f", "avx2+fma" or "portable". Useful in logs and for verifying
 * a forced fallback.
 */
const char *matmulBackend();

/** Least multiply-adds per block of a split call; calls with fewer
 *  than twice this run inline. */
constexpr std::size_t kMatSplitMinWork = std::size_t{1} << 18;

/** Calls with fewer output rows than this run inline. */
constexpr std::size_t kMatSplitMinRows = 8;

/** Row-tile height of the matmul kernels: the split calls' block
 *  boundaries are multiples of it, and so are the training step's. */
constexpr std::size_t kMatTileRows = 4;

/**
 * Thread budget of the calling thread's training kernels: how many
 * threads, the calling one included, a matmul (or Adam step) big
 * enough to split may run on. Defaults to every CPU in the process's
 * affinity mask; MatThreadScope overrides it. Results are bitwise
 * identical at every budget, so the budget is an execution resource
 * only — no config key, blob, checkpoint or report carries it.
 */
std::size_t matThreads();

/**
 * Sets the calling thread's budget for the scope's lifetime (0 selects
 * the default) and restores the previous budget on destruction. The
 * pool is per thread and created lazily, at the budget, on the first
 * call big enough to split: the calling thread plus budget - 1 workers,
 * so a budget of 1 never spawns a thread. A budget change rebuilds it
 * at that call.
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
using TaskFn = void (*)(void *ctx, std::size_t task);
void runTasks(std::size_t count, std::size_t work, TaskFn fn, void *ctx);

/** Kernel instruction tiers, lowest first. */
enum class MatTier
{
    Portable,
    Avx2,    ///< AVX2 + FMA
    Avx512,  ///< AVX-512F (+ AVX2 + FMA)
};

/** The best tier this host runs, chosen once: AVX-512 when the CPU has
 *  AVX-512F, AVX2 when it has AVX2 and FMA, portable otherwise or when
 *  AUTOCAT_MAT_PORTABLE=1. */
MatTier hostMatTier();

/** The calling thread's tier: hostMatTier() capped by the innermost
 *  MatTierScope. Each kernel call reads it once and hands it to every
 *  block of its partition. */
MatTier matTier();

/**
 * Caps the calling thread's tier for the scope's lifetime and restores
 * the previous cap on destruction, so one host can run every tier it
 * has (tests compare them). A cap above the host's tier has no effect.
 */
class MatTierScope
{
  public:
    explicit MatTierScope(MatTier cap);
    ~MatTierScope();

    MatTierScope(const MatTierScope &) = delete;
    MatTierScope &operator=(const MatTierScope &) = delete;

  private:
    MatTier saved_;
};
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

/**
 * Run @p body(t) for every t in [0, count) on the calling thread's pool,
 * tasks claimed dynamically (util/TaskPool), so tasks of unequal cost
 * balance across the executors. @p work is the estimated multiply-adds
 * of all tasks together; a caller whose every task is worth a dispatch
 * whatever its size (one evaluation stream's episodes, rl/episodes.hpp)
 * passes SIZE_MAX. Tasks run concurrently, so @p body must write only
 * state its task owns, and it must not dispatch to the pool itself.
 * Runs every task inline, in order, instead when the budget is 1,
 * @p count is below 2 or @p work is below 2 * kMatSplitMinWork. Either
 * way a throwing task does not stop the others, and the first exception
 * is rethrown on the caller once every task has settled (util/TaskPool's
 * rule).
 */
template <typename F>
void
parallelTasks(std::size_t count, std::size_t work, F &&body)
{
    using Fn = std::remove_reference_t<F>;
    detail::runTasks(
        count, work,
        [](void *ctx, std::size_t task) { (*static_cast<Fn *>(ctx))(task); },
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

/*
 * Row-range entry points, for callers that partition a batch
 * themselves. Each writes rows [r0, r1) of the whole-matrix call's
 * product through the same kernel, so its elements have the same bits,
 * and runs inline on the calling thread with the given @p tier — never
 * dispatching, so it may run on a pool executor, whose own thread-local
 * tier cap is not the caller's. The destination must already have the
 * product's shape (nothing is resized) and must alias no operand.
 */

/** Rows [r0, r1) of linearForwardInto(y, x, w, bias, relu). */
void linearForwardRowsInto(detail::MatTier tier, Matrix &y, const Matrix &x,
                           const Matrix &w, const std::vector<float> &bias,
                           bool relu, std::size_t r0, std::size_t r1);

/** Rows [r0, r1) of matmulInto(c, a, b). */
void matmulRowsInto(detail::MatTier tier, Matrix &c, const Matrix &a,
                    const Matrix &b, std::size_t r0, std::size_t r1);

/** Rows [r0, r1) of matmulTransAInto(c, a, b): rows of A^T * B, which
 *  read columns r0 .. r1 - 1 of A. */
void matmulTransARowsInto(detail::MatTier tier, Matrix &c, const Matrix &a,
                          const Matrix &b, std::size_t r0, std::size_t r1);

/*
 * Zero-skipping entry points, for operands that are mostly exact zeros
 * (observation rows): the dense kernels' bits at a fraction of their
 * work (file comment, "Zero skipping").
 */

/**
 * Nonzero share, in percent, below which zeros are skipped: a row, or a
 * weight-gradient input, whose nonzero share is below it takes the
 * zero-skipping kernel. It is where a training step's first layer — the
 * forward and the weight gradient of the same rows — costs the same
 * either way; alone, the forward of a batch breaks even near 20% and a
 * single row's near 60% (docs/BENCHMARKS.md, "Zero-skipping
 * observation layer").
 */
constexpr std::size_t kZeroSkipPercent = 40;

/** Row-block height of the zero-skipping A^T * B kernel, which scans
 *  its sparse operand once per block: row ranges that start at a
 *  multiple of it split no block. */
constexpr std::size_t kZeroSkipGradRows = 32;

/** True when @p nonzeros of @p size elements are few enough for the
 *  zero-skipping kernels to pay (kZeroSkipPercent). */
constexpr bool
zeroSkipPays(std::size_t nonzeros, std::size_t size)
{
    return 100 * nonzeros < kZeroSkipPercent * size;
}

/** Elements of @p m that are not zero (NaN counts, -0.0 does not). */
std::size_t countNonzeros(const Matrix &m);

/** t = m^T: resized to m.cols() x m.rows() and fully overwritten. */
void transposeInto(Matrix &t, const Matrix &m);

/**
 * Rows [r0, r1) of linearForwardInto(y, x, w, bias, relu), given also
 * @p wt = w^T (in x out). A row whose nonzero share is below
 * kZeroSkipPercent adds each nonzero feature into the dot8 lane it
 * lands in, for all outputs at once from that feature's row of wt, then
 * sums the lanes and applies the k mod 8 tail, bias and ReLU as the
 * dense kernel does; every other row runs the dense kernel. Inline and
 * non-resizing like the other row-range entry points.
 */
void linearForwardSkipRowsInto(detail::MatTier tier, Matrix &y,
                               const Matrix &x, const Matrix &w,
                               const Matrix &wt,
                               const std::vector<float> &bias, bool relu,
                               std::size_t r0, std::size_t r1);

/**
 * Rows [r0, r1) of matmulTransAInto(c, a, b), skipping the zeros of b:
 * element (i, j) is the FMA chain over the rows p of b, in order, whose
 * b(p, j) is not zero. Inline and non-resizing like the row-range entry
 * points above.
 */
void matmulTransASkipRowsInto(detail::MatTier tier, Matrix &c,
                              const Matrix &a, const Matrix &b,
                              std::size_t r0, std::size_t r1);

/** C = A * B. A: m x k, B: k x n. */
Matrix matmul(const Matrix &a, const Matrix &b);

/** C = A * B^T. A: m x k, B: n x k. */
Matrix matmulTransB(const Matrix &a, const Matrix &b);

/** C = A^T * B. A: k x m, B: k x n. */
Matrix matmulTransA(const Matrix &a, const Matrix &b);

/**
 * Fused row-wise softmax, log-probability and entropy over rows
 * [r0, r1) of a logits matrix with A columns: for each row r,
 * probs[r * A + c] receives softmax(row r)[c] (double precision,
 * max-subtracted), logps[r * A + c] receives log(max(p, 1e-12)) of it
 * and entropies[r] receives -sum p log p over the entries with
 * p > 1e-12, whose log is that same logps value — one log per entry, no
 * allocation. The per-row arithmetic and accumulation order are exactly
 * those of ActorCritic::softmaxRow()/entropy(), so results are bitwise
 * identical to the per-row helpers; this is the PPO loss's kernel
 * (rl/ppo.cpp), which runs it on the rows of one block of the training
 * step's row region. Rows outside [r0, r1) are not touched.
 *
 *  Pre:  logits has A >= 1 columns and at least r1 rows; the outputs
 *        have room for row r1 - 1. @p logps may be null (not written).
 */
void softmaxEntropyRowsInto(double *probs, double *logps, double *entropies,
                            const Matrix &logits, std::size_t r0,
                            std::size_t r1);

/**
 * Masked variant of the row-range softmaxEntropyRowsInto: entries whose
 * mask byte is 0 are treated as logit -inf — they receive probability
 * exactly 0.0 (and logps entry log(1e-12)) and contribute nothing to the
 * max, the exp-sum, or the entropy, so the distribution and its entropy
 * live on the valid support only. NaN-free by construction: the max is
 * taken over the valid entries (every exp argument is <= 0, so nothing
 * overflows) and masked entries never enter a 0 * log(0).
 *
 *  Pre:  as the unmasked kernel; @p masks is row-major with A bytes per
 *        row (1 = valid), row r at masks + r * A. Must not be null —
 *        callers with no mask use the unmasked kernel, whose output
 *        this matches bitwise on all-1 masks.
 *
 * @throws std::domain_error when a row masks out every action — a
 *         rollout buffer fed from such a row would train on NaN, so an
 *         all-invalid row fails loudly at the kernel boundary. Inside
 *         the training step it leaves from a pool block and reaches
 *         the step's caller (ActorCritic::trainStep).
 */
void softmaxEntropyRowsMaskedInto(double *probs, double *logps,
                                  double *entropies, const Matrix &logits,
                                  const std::uint8_t *masks, std::size_t r0,
                                  std::size_t r1);

/**
 * Whole-matrix forms of the two kernels above: @p probs is resized to
 * B * A and @p entropies to B, every row is written, and no log p is
 * kept.
 */
void softmaxEntropyRowsInto(std::vector<double> &probs,
                            std::vector<double> &entropies,
                            const Matrix &logits);
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

/** addColSums() of columns [c0, c1) only: the same sum per column. */
void addColSums(std::vector<float> &acc, const Matrix &m, std::size_t c0,
                std::size_t c1);

} // namespace autocat

#endif // AUTOCAT_RL_MAT_HPP
