/**
 * @file
 * google-benchmark microbenchmarks for the core substrates: cache
 * access, environment stepping (single and vectorized), policy
 * inference, PPO updates, the detector hot paths, and covert-channel
 * rounds. These bound the training throughput reported in the table
 * benches and serve as the observation-encoding ablation (window-only
 * vs window+summary cost).
 *
 * For the perf trajectory, emit machine-readable results with e.g.
 *
 *   ./microbench --benchmark_filter='VecEnv|PolicyForward' \
 *                --benchmark_out=perf.json --benchmark_out_format=json
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>

#include "core/autocat.hpp"
#include "env/env_registry.hpp"
#include "eval/sweep.hpp"
#include "serve/net/frame.hpp"
#include "serve/wire.hpp"

namespace autocat {
namespace {

/** The Table V-style environment the stepping benches run. */
EnvConfig
benchEnvConfig()
{
    EnvConfig cfg;
    cfg.cache.numSets = 1;
    cfg.cache.numWays = 4;
    cfg.cache.addressSpaceSize = 8;
    cfg.attackAddrS = 0;
    cfg.attackAddrE = 4;
    cfg.victimAddrS = 0;
    cfg.victimAddrE = 0;
    cfg.victimNoAccessEnable = true;
    cfg.windowSize = 16;
    return cfg;
}

void
BM_CacheAccess(benchmark::State &state)
{
    CacheConfig cfg;
    cfg.numSets = static_cast<unsigned>(state.range(0));
    cfg.numWays = 8;
    cfg.policy = ReplPolicy::Lru;
    cfg.addressSpaceSize = 4 * cfg.numBlocks();
    Cache cache(cfg);
    std::uint64_t addr = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            cache.access(addr, Domain::Attacker));
        addr = (addr * 2654435761u + 1) % cfg.addressSpaceSize;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheAccess)->Arg(1)->Arg(16)->Arg(256);

/** Cache geometry shared by BM_CacheAccess/16 and the depth-1 check. */
CacheConfig
hierBenchLevel(unsigned sets, unsigned ways)
{
    CacheConfig cfg;
    cfg.numSets = sets;
    cfg.numWays = ways;
    cfg.policy = ReplPolicy::Lru;
    cfg.addressSpaceSize = 4 * cfg.numBlocks();
    return cfg;
}

/**
 * Build the depth-N hierarchy the hierarchy benches run: outermost
 * level 16x8 (the BM_CacheAccess/16 geometry), inner levels private
 * and progressively smaller.
 */
HierarchyConfig
hierBenchConfig(unsigned depth, InclusionPolicy outer)
{
    HierarchyConfig cfg;
    cfg.numCores = 2;
    if (depth >= 3)
        cfg.levels.push_back({hierBenchLevel(4, 2),
                              InclusionPolicy::Inclusive, false});
    if (depth >= 2)
        cfg.levels.push_back({hierBenchLevel(8, 2),
                              InclusionPolicy::Inclusive, false});
    cfg.levels.push_back({hierBenchLevel(16, 8), outer, true});
    // Depth 1 keeps a single shared level (no per-core replication).
    if (depth == 1)
        cfg.numCores = 1;
    for (auto &lvl : cfg.levels)
        lvl.cache.addressSpaceSize = 4 * 16 * 8;
    return cfg;
}

/**
 * MemorySystem access rate through a CacheHierarchy at depth 1/2/3,
 * inclusive vs exclusive outermost level. Arg0 = depth, Arg1 = 1 for
 * an exclusive outer level. Depth 1 must match BM_CacheAccess/16
 * within noise — checked by the self-test the harness main() runs
 * before the benchmarks (the flattened replacement metadata is what
 * keeps the walk free of per-set pointer chasing).
 */
void
BM_HierarchyAccess(benchmark::State &state)
{
    const auto depth = static_cast<unsigned>(state.range(0));
    const bool exclusive = state.range(1) != 0;
    CacheHierarchy mem(hierBenchConfig(
        depth, exclusive ? InclusionPolicy::Exclusive
                         : InclusionPolicy::Inclusive));
    std::uint64_t addr = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(mem.access(addr, Domain::Attacker));
        addr = (addr * 2654435761u + 1) % 512;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HierarchyAccess)
    ->ArgsProduct({{1, 2, 3}, {0, 1}})
    ->ArgNames({"depth", "exclusive"});

void
BM_EnvStep(benchmark::State &state)
{
    auto env = makeEnv("guessing_game", benchEnvConfig());
    env->reset();
    Rng rng(1);
    for (auto _ : state) {
        const std::size_t action = rng.uniformInt(env->numActions());
        const StepResult sr = env->step(action);
        if (sr.done)
            env->reset();
        benchmark::DoNotOptimize(sr.reward);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EnvStep);

/**
 * Wall env-steps/sec through a VecEnv at 1 to 256 streams, sync vs
 * threaded. Arg0 = stream count, Arg1 = 1 for ThreadedVecEnv. The
 * rate is taken on the wall clock: the calling thread's CPU time
 * leaves out the pool's workers, so a CPU-time rate would overstate
 * the threaded adapter. On 4 vCPUs the threaded adapter loses to sync
 * up to 64 streams and about ties at 256: a step costs little more
 * than its hand-off.
 */
void
BM_VecEnvThroughput(benchmark::State &state)
{
    const auto streams = static_cast<std::size_t>(state.range(0));
    const bool threaded = state.range(1) != 0;
    auto vec = makeVecEnv("guessing_game", benchEnvConfig(), streams,
                          threaded ? VecEnvKind::Threaded
                                   : VecEnvKind::Sync);
    vec->resetAll();
    Rng rng(1);
    std::vector<std::size_t> actions(streams);
    for (auto _ : state) {
        for (auto &a : actions)
            a = rng.uniformInt(vec->numActions());
        const VecStepResult vr = vec->stepAll(actions);
        benchmark::DoNotOptimize(vr.rewards.data());
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<long>(streams));
    state.counters["env_steps_per_sec"] = benchmark::Counter(
        static_cast<double>(state.iterations()) *
            static_cast<double>(streams),
        benchmark::Counter::kIsRate);
}
BENCHMARK(BM_VecEnvThroughput)
    ->ArgsProduct({{1, 2, 4, 8, 64, 256}, {0, 1}})
    ->ArgNames({"streams", "threaded"})
    ->UseRealTime();

/**
 * The batch engine sweep: env-steps/sec stepping N streams through
 * SyncVecEnv::stepAll (per-env virtual dispatch, per-step observation
 * vectors) vs BatchEnvPool::stepBatch in-place (devirtualized flat
 * loop, rows maintained inside the persistent matrix). Arg0 = stream
 * count, Arg1 = 1 for the batch engine. Actions come from a
 * precomputed schedule so both modes time pure stepping cost; the
 * env_steps_per_sec counter is the headline rate.
 */
void
BM_EnvStepBatch(benchmark::State &state)
{
    const auto streams = static_cast<std::size_t>(state.range(0));
    const bool batch = state.range(1) != 0;
    auto vec =
        makeVecEnv("guessing_game", benchEnvConfig(), streams,
                   batch ? VecEnvKind::Batch : VecEnvKind::Sync);
    vec->resetAll();

    constexpr std::size_t kSchedule = 1024;
    Rng rng(1);
    std::vector<std::vector<std::size_t>> schedule(
        kSchedule, std::vector<std::size_t>(streams));
    for (auto &step_actions : schedule)
        for (auto &a : step_actions)
            a = rng.uniformInt(vec->numActions());

    std::size_t t = 0;
    if (batch) {
        BatchStepSurface *surface = vec->batchSurface();
        std::vector<double> rewards(streams);
        std::vector<std::uint8_t> dones(streams);
        std::vector<StepInfo> infos(streams);
        for (auto _ : state) {
            surface->stepBatchInPlace(schedule[t].data(), rewards.data(),
                                      dones.data(), infos.data());
            benchmark::DoNotOptimize(rewards.data());
            t = (t + 1) % kSchedule;
        }
    } else {
        for (auto _ : state) {
            const VecStepResult vr = vec->stepAll(schedule[t]);
            benchmark::DoNotOptimize(vr.rewards.data());
            t = (t + 1) % kSchedule;
        }
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<long>(streams));
    state.counters["env_steps_per_sec"] = benchmark::Counter(
        static_cast<double>(state.iterations()) *
            static_cast<double>(streams),
        benchmark::Counter::kIsRate);
}
BENCHMARK(BM_EnvStepBatch)
    ->ArgsProduct({{1, 8, 64, 256}, {0, 1}})
    ->ArgNames({"streams", "batch"})
    ->UseRealTime();

void
BM_PolicyForward(benchmark::State &state)
{
    Rng rng(2);
    const std::size_t obs_dim = static_cast<std::size_t>(state.range(0));
    ActorCritic net(obs_dim, 8, 128, 2, rng);
    std::vector<float> obs(obs_dim, 0.1f);
    for (auto _ : state)
        benchmark::DoNotOptimize(net.forwardOne(obs));
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PolicyForward)->Arg(64)->Arg(256)->Arg(1024);

/**
 * Batched policy forward: one N x obs_dim matmul for N streams vs N
 * single-observation passes (the vectorized trainer's win over the
 * old per-env loop). Runs the training-path forward() so numbers stay
 * comparable across revisions; BM_PolicyInferenceBatch below measures
 * the allocation-free workspace path collection actually uses.
 */
void
BM_PolicyForwardBatch(benchmark::State &state)
{
    Rng rng(2);
    const auto streams = static_cast<std::size_t>(state.range(0));
    const std::size_t obs_dim = 256;
    ActorCritic net(obs_dim, 8, 128, 2, rng);
    Matrix obs(streams, obs_dim);
    for (std::size_t i = 0; i < obs.size(); ++i)
        obs.data()[i] = 0.1f;
    for (auto _ : state)
        benchmark::DoNotOptimize(net.forward(obs).values.data());
    state.SetItemsProcessed(state.iterations() *
                            static_cast<long>(streams));
}
BENCHMARK(BM_PolicyForwardBatch)->Arg(1)->Arg(4)->Arg(8);

/**
 * @p rows observation rows played from the Table V guessing_game
 * scenario (benchEnvConfig(), one stream, uniformly random actions):
 * the one-hot history rows the first layer sees, 251 features of which
 * about 8% are nonzero.
 */
Matrix
playedRows(std::size_t rows)
{
    auto vec = makeVecEnv("guessing_game", benchEnvConfig(), 1);
    const std::size_t k = vec->observationSize();
    Rng rng(4);
    Matrix obs(rows, k);
    Matrix cur = vec->resetAll();
    for (std::size_t r = 0; r < rows; ++r) {
        std::copy(cur.rowPtr(0), cur.rowPtr(0) + k, obs.rowPtr(r));
        cur = vec->stepAll({static_cast<std::size_t>(
                               rng.uniformInt(vec->numActions()))})
                  .obs;
    }
    return obs;
}

/**
 * Inference through the reusable forward workspace (forwardNoGrad):
 * the fused GEMM path rollout collection and evaluation run, with no
 * per-step allocations or activation caching. Arg1 picks the input:
 * 0 is 256 features all 0.1 (the dense kernels), 1 is rows played from
 * Table V (playedRows(), the zero-skipping first layer), the next
 * window of a 1,024-row pool each call, as collection sees a new row
 * each step; the copy of streams x 1 KB is timed with the forward.
 */
void
BM_PolicyInferenceBatch(benchmark::State &state)
{
    Rng rng(2);
    const auto streams = static_cast<std::size_t>(state.range(0));
    const bool played = state.range(1) != 0;
    const Matrix pool = played ? playedRows(1024) : Matrix();
    const std::size_t obs_dim = played ? pool.cols() : 256;
    ActorCritic net(obs_dim, 8, 128, 2, rng);
    Matrix obs(streams, obs_dim);
    for (std::size_t i = 0; i < obs.size(); ++i)
        obs.data()[i] = 0.1f;
    AcOutput out;
    std::size_t next = 0;
    for (auto _ : state) {
        if (played) {
            std::copy(pool.rowPtr(next), pool.rowPtr(next + streams),
                      obs.data());
            next = (next + streams) % (pool.rows() - streams);
        }
        net.forwardNoGrad(obs, out);
        benchmark::DoNotOptimize(out.values.data());
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<long>(streams));
}
BENCHMARK(BM_PolicyInferenceBatch)
    ->ArgsProduct({{1, 4, 8}, {0, 1}})
    ->ArgNames({"streams", "played"});

/**
 * Full PPO epoch (collect + update) at 1/4/8 streams and 1/2/4 kernel
 * threads (Arg1, the update's matmul/Adam budget; the bits are the
 * same at every count). Timed on the wall clock: the main thread's CPU
 * time leaves out the pool's workers, so it would overstate a
 * multi-threaded win.
 */
void
BM_PpoEpoch(benchmark::State &state)
{
    const auto streams = static_cast<std::size_t>(state.range(0));
    const MatThreadScope budget(static_cast<std::size_t>(state.range(1)));
    auto vec = makeVecEnv("guessing_game", benchEnvConfig(), streams);
    PpoConfig ppo;
    ppo.stepsPerEpoch = 512;
    ppo.minibatchSize = 128;
    PpoTrainer trainer(*vec, ppo);
    for (auto _ : state)
        benchmark::DoNotOptimize(trainer.runEpoch().epoch);
    state.SetItemsProcessed(state.iterations() * 512);
    state.counters["env_steps_per_sec"] = benchmark::Counter(
        static_cast<double>(state.iterations()) * 512.0,
        benchmark::Counter::kIsRate);
}
BENCHMARK(BM_PpoEpoch)
    ->ArgsProduct({{1, 4, 8}, {1, 2, 4}})
    ->ArgNames({"streams", "threads"})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

/**
 * Greedy evaluation as a campaign epoch runs it: PpoTrainer::evaluate(20)
 * on CC-Hunter multi-secret episodes over the Table VIII cache (4-set
 * direct-mapped, victim 0-3, attacker 4-7, 160-step episodes, batch
 * engine), with a fixed untrained network, at 1 and 4 streams (Arg0)
 * and 1 and 4 kernel threads (Arg1). With several streams and threads
 * the streams play at once (rl/episodes.hpp). Wall clock, like
 * BM_PpoEpoch; every call plays 20 x 160 greedy steps.
 */
void
BM_GreedyEvaluate(benchmark::State &state)
{
    constexpr int kEpisodes = 20, kEpisodeSteps = 160;
    const auto streams = static_cast<std::size_t>(state.range(0));
    const MatThreadScope budget(static_cast<std::size_t>(state.range(1)));
    EnvConfig cfg;
    cfg.cache.numSets = 4;
    cfg.cache.numWays = 1;
    cfg.cache.addressSpaceSize = 8;
    cfg.attackAddrS = 4;
    cfg.attackAddrE = 7;
    cfg.victimAddrS = 0;
    cfg.victimAddrE = 3;
    cfg.windowSize = 16;
    cfg.multiSecret = true;
    cfg.multiSecretEpisodeSteps = kEpisodeSteps;
    auto vec = makeVecEnv("cchunter_bypass", cfg, streams, VecEnvKind::Batch);
    PpoTrainer trainer(*vec, PpoConfig{});
    for (auto _ : state)
        benchmark::DoNotOptimize(trainer.evaluate(kEpisodes).meanReturn);
    state.counters["steps_per_sec"] = benchmark::Counter(
        static_cast<double>(state.iterations()) * kEpisodes * kEpisodeSteps,
        benchmark::Counter::kIsRate);
}
BENCHMARK(BM_GreedyEvaluate)
    ->ArgsProduct({{1, 4}, {1, 4}})
    ->ArgNames({"streams", "threads"})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

/** A minibatch whose loss writes fixed gradients: BM_UpdateMinibatch
 *  times the training step, not a PPO loss. */
struct FixedLossRows final : ActorCritic::Minibatch
{
    const Matrix &obs;
    const Matrix &dlogits;
    const std::vector<float> &dvalues;

    FixedLossRows(const Matrix &o, const Matrix &dl,
                  const std::vector<float> &dv)
        : obs(o), dlogits(dl), dvalues(dv)
    {
    }

    void
    gather(Matrix &input, std::size_t r0, std::size_t r1) override
    {
        std::copy(obs.rowPtr(r0), obs.rowPtr(r1), input.rowPtr(r0));
    }

    void
    loss(const AcOutput &, Matrix &dl, std::vector<float> &dv,
         std::size_t r0, std::size_t r1) override
    {
        std::copy(dlogits.rowPtr(r0), dlogits.rowPtr(r1), dl.rowPtr(r0));
        std::copy(dvalues.begin() + static_cast<std::ptrdiff_t>(r0),
                  dvalues.begin() + static_cast<std::ptrdiff_t>(r1),
                  dv.begin() + static_cast<std::ptrdiff_t>(r0));
    }
};

/**
 * One PPO minibatch update at the Table V shape — 500 rows of 251
 * observation features, hidden 128 x 2, 8 actions: the training step
 * (ActorCritic::trainStep, with a loss that writes fixed logit and
 * value gradients), clipGradNorm and Adam::step, at 1 and 4 kernel
 * threads (Arg0). Arg1 picks the rows: 0 is Gaussian, every feature
 * nonzero, which runs the first layer's dense kernels; 1 is rows
 * played from Table V (playedRows()), which run its zero-skipping
 * ones. Wall clock, like BM_PpoEpoch. GFLOP/s counts two flops per
 * multiply-add of the dense GEMMs: the forward, every layer's weight
 * gradient, and the input gradients of all layers but the first — the
 * same count for either input, so it compares the two.
 */
void
BM_UpdateMinibatch(benchmark::State &state)
{
    constexpr std::size_t kRows = 500, kObs = 251, kHidden = 128;
    constexpr std::size_t kActions = 8;
    const MatThreadScope budget(static_cast<std::size_t>(state.range(0)));
    Rng rng(3);
    ActorCritic net(kObs, kActions, kHidden, 2, rng);
    Adam adam(net.paramBlocks(), 3e-4);
    Matrix obs(kRows, kObs);
    for (std::size_t i = 0; i < obs.size(); ++i)
        obs.data()[i] = static_cast<float>(rng.gaussian());
    if (state.range(1) != 0)
        obs = playedRows(kRows);
    Matrix dlogits(kRows, kActions);
    for (std::size_t i = 0; i < dlogits.size(); ++i)
        dlogits.data()[i] = static_cast<float>(1e-3 * rng.gaussian());
    std::vector<float> dvalues(kRows);
    for (float &v : dvalues)
        v = static_cast<float>(1e-3 * rng.gaussian());
    FixedLossRows rows(obs, dlogits, dvalues);
    AcOutput out;
    Matrix dlogits_ws;
    std::vector<float> dvalues_ws;
    for (auto _ : state) {
        net.trainStep(kRows, rows, out, dlogits_ws, dvalues_ws);
        auto blocks = net.paramBlocks();
        clipGradNorm(blocks, 0.5);
        adam.step(blocks);
        benchmark::DoNotOptimize(out.values.data());
    }
    // Per row: the forward and the weight gradients cover every layer,
    // the input gradients all but the first.
    const double heads = static_cast<double>(kHidden * (kActions + 1));
    const double hidden = static_cast<double>(kHidden * kHidden);
    const double layers = static_cast<double>(kObs * kHidden) + hidden + heads;
    const double madds =
        static_cast<double>(kRows) * (2.0 * layers + hidden + heads);
    state.counters["GFLOP/s"] = benchmark::Counter(
        2.0 * madds * 1e-9 * static_cast<double>(state.iterations()),
        benchmark::Counter::kIsRate);
}
BENCHMARK(BM_UpdateMinibatch)
    ->ArgsProduct({{1, 4}, {0, 1}})
    ->ArgNames({"threads", "played"})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

/**
 * Wall-clock round trip of one fork-join: a parallelBlocks call that
 * the partition rule splits into min(budget, 4) empty blocks, at
 * kernel budgets 1, 2 and 4 (Arg0). Arg1 busy-waits that many
 * microseconds on the calling thread between calls, outside the
 * timing: 200 us is a serial gap well inside the pool's 0.5 ms spin
 * window, which idle executors have to bridge (a Table V PPO
 * minibatch's longest, the clip before Adam, is about 44 us). A fixed
 * iteration count: sized by the timed round trip alone, the untimed
 * gaps would run for minutes.
 */
void
BM_ForkJoin(benchmark::State &state)
{
    using Clock = std::chrono::steady_clock;
    const MatThreadScope budget(static_cast<std::size_t>(state.range(0)));
    const std::chrono::microseconds gap(state.range(1));
    constexpr std::size_t kAlign = 8, kRows = 4 * kAlign;
    for (auto _ : state) {
        const Clock::time_point busy_until = Clock::now() + gap;
        while (Clock::now() < busy_until) {
        }
        const Clock::time_point t0 = Clock::now();
        parallelBlocks(kRows, kAlign, 4 * kMatSplitMinWork,
                       [](std::size_t i0, std::size_t i1) {
                           benchmark::DoNotOptimize(i0 + i1);
                       });
        state.SetIterationTime(
            std::chrono::duration<double>(Clock::now() - t0).count());
    }
}
BENCHMARK(BM_ForkJoin)
    ->ArgsProduct({{1, 2, 4}, {0, 200}})
    ->ArgNames({"threads", "gap_us"})
    ->Iterations(2000)
    ->Unit(benchmark::kMicrosecond)
    ->UseManualTime();

void
BM_Autocorrelation(benchmark::State &state)
{
    Rng rng(3);
    std::vector<double> train(
        static_cast<std::size_t>(state.range(0)));
    for (auto &x : train)
        x = static_cast<double>(rng.uniformInt(2));
    for (auto _ : state)
        benchmark::DoNotOptimize(maxAutocorrelation(train, 30));
}
BENCHMARK(BM_Autocorrelation)->Arg(64)->Arg(512);

void
BM_SvmPredict(benchmark::State &state)
{
    Rng rng(4);
    SvmDataset data;
    for (int i = 0; i < 100; ++i) {
        data.add({rng.gaussian() + 2.0, rng.gaussian()}, +1);
        data.add({rng.gaussian() - 2.0, rng.gaussian()}, -1);
    }
    LinearSvm svm;
    svm.train(data, rng);
    const std::vector<double> x{0.5, -0.2};
    for (auto _ : state)
        benchmark::DoNotOptimize(svm.predict(x));
}
BENCHMARK(BM_SvmPredict);

void
BM_CovertChannelRound(benchmark::State &state)
{
    CovertChannelConfig cfg;
    cfg.protocol = CovertProtocol::StealthyStreamline;
    cfg.ways = static_cast<unsigned>(state.range(0));
    cfg.bitsPerSymbol = 2;
    CovertChannel channel(cfg);
    Rng rng(5);
    const BitString msg = randomBits(rng, 64);
    for (auto _ : state)
        benchmark::DoNotOptimize(channel.transmit(msg).mbps);
    state.SetItemsProcessed(state.iterations() * 32);
}
BENCHMARK(BM_CovertChannelRound)->Arg(8)->Arg(12);

/** A resolved sweep cell of realistic size for the wire benches. */
SweepCell
benchCell()
{
    SweepConfig cfg;
    cfg.base.env = benchEnvConfig();
    cfg.grid.scenarios = {"l1l2_private"};
    cfg.grid.policies = {ReplPolicy::TreePlru};
    cfg.grid.seeds = {7};
    CurriculumPhase warmup;
    warmup.name = "warmup";
    warmup.scenario = "guessing_game";
    warmup.maxEpochs = 40;
    warmup.targetAccuracy = 0.95;
    cfg.phases = {warmup, warmup};
    return expandSweepGrid(cfg)[0];
}

// Scheduler overhead: a job/row blob is serialized and parsed once per
// cell *attempt*, so these bound the per-cell dispatch cost the
// distributed scheduler adds over the in-process pool (the cells
// themselves train for seconds — the wire must stay microseconds).
void
BM_CellJobSerialize(benchmark::State &state)
{
    const SweepCell cell = benchCell();
    for (auto _ : state)
        benchmark::DoNotOptimize(serializeCellJob(cell));
}
BENCHMARK(BM_CellJobSerialize);

void
BM_CellJobDeserialize(benchmark::State &state)
{
    const std::string blob = serializeCellJob(benchCell());
    for (auto _ : state)
        benchmark::DoNotOptimize(deserializeCellJob(blob));
}
BENCHMARK(BM_CellJobDeserialize);

void
BM_CellRowSerialize(benchmark::State &state)
{
    SweepCellResult row;
    row.cell = benchCell();
    row.completed = true;
    row.result.converged = true;
    row.result.finalAccuracy = 0.97;
    for (int i = 0; i < 24; ++i)
        row.result.sequence.push(
            {i % 3 ? ActionKind::Access : ActionKind::Guess,
             static_cast<std::uint64_t>(i % 4)});
    row.result.finalGuess = "guess 2";
    for (auto _ : state)
        benchmark::DoNotOptimize(serializeCellRow(row));
}
BENCHMARK(BM_CellRowSerialize);

void
BM_CellRowDeserialize(benchmark::State &state)
{
    SweepCellResult row;
    row.cell = benchCell();
    row.completed = true;
    for (int i = 0; i < 24; ++i)
        row.result.sequence.push({ActionKind::Access, 1});
    const std::string blob = serializeCellRow(row);
    for (auto _ : state)
        benchmark::DoNotOptimize(deserializeCellRow(blob));
}
BENCHMARK(BM_CellRowDeserialize);

// TCP frame layer (serve/net/frame.hpp): every byte between a
// scheduler and a runner_daemon moves inside one of these frames, so
// encode+decode bound the transport's cost over handing a blob to a
// local process. Arg = payload size: 4 KiB is a job blob, 1 MiB a
// checkpoint upload.
void
BM_NetFrameEncode(benchmark::State &state)
{
    const std::string payload(static_cast<std::size_t>(state.range(0)),
                              'p');
    for (auto _ : state)
        benchmark::DoNotOptimize(
            encodeFrame(FrameType::Checkpoint, payload));
    state.SetBytesProcessed(
        static_cast<std::int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_NetFrameEncode)->Arg(4 << 10)->Arg(1 << 20);

void
BM_NetFrameDecode(benchmark::State &state)
{
    const std::string wire = encodeFrame(
        FrameType::Checkpoint,
        std::string(static_cast<std::size_t>(state.range(0)), 'p'));
    for (auto _ : state) {
        FrameReader reader;
        reader.feed(wire.data(), wire.size());
        Frame frame;
        if (!reader.next(frame))
            state.SkipWithError("frame did not decode");
        benchmark::DoNotOptimize(frame);
    }
    state.SetBytesProcessed(
        static_cast<std::int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_NetFrameDecode)->Arg(4 << 10)->Arg(1 << 20);

/** A full cell dispatch as the wire sees it: encode Hello + Job,
 *  decode both, then encode + decode the Row reply — the per-attempt
 *  frame overhead the TCP transport adds on top of the PR 6 blob
 *  costs measured above. */
void
BM_NetFrameDispatch(benchmark::State &state)
{
    HelloPayload hello;
    hello.jobWireVersion = kCellJobVersion;
    hello.rowWireVersion = kCellRowVersion;
    const std::string job_blob = serializeCellJob(benchCell());
    SweepCellResult row;
    row.cell = benchCell();
    row.completed = true;
    const std::string row_blob = serializeCellRow(row);
    for (auto _ : state) {
        std::string stream =
            encodeFrame(FrameType::Hello, encodeHello(hello));
        stream += encodeFrame(FrameType::Job, job_blob);
        stream += encodeFrame(FrameType::Row, row_blob);
        FrameReader reader;
        reader.feed(stream.data(), stream.size());
        Frame frame;
        int frames = 0;
        while (reader.next(frame))
            ++frames;
        if (frames != 3)
            state.SkipWithError("dispatch frames did not decode");
        benchmark::DoNotOptimize(frame);
    }
}
BENCHMARK(BM_NetFrameDispatch);

/**
 * Harness self-test: a depth-1 CacheHierarchy must cost the same as a
 * bare Cache within noise — the hierarchy walk adds one virtual call
 * and a loop bound, nothing per-set. Measures both with identical
 * access streams and fails the harness when the ratio exceeds a
 * noise-tolerant bound (best of five rounds; set
 * AUTOCAT_SKIP_SELFTEST=1 to report without failing, e.g. on heavily
 * loaded shared runners).
 */
bool
checkDepth1MatchesCacheAccess()
{
    constexpr int kIters = 400000;
    constexpr double kMaxRatio = 1.6;

    const auto run = [](auto &target) {
        std::uint64_t addr = 0;
        const auto start = std::chrono::steady_clock::now();
        for (int i = 0; i < kIters; ++i) {
            benchmark::DoNotOptimize(target.access(addr,
                                                   Domain::Attacker));
            addr = (addr * 2654435761u + 1) % 512;
        }
        return std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - start)
            .count();
    };

    double best_ratio = 1e9;
    for (int round = 0; round < 5; ++round) {
        Cache cache(hierBenchLevel(16, 8));
        CacheHierarchy hier(
            hierBenchConfig(1, InclusionPolicy::Inclusive));
        const double cache_s = run(cache);
        const double hier_s = run(hier);
        best_ratio = std::min(best_ratio, hier_s / cache_s);
    }
    std::fprintf(stderr,
                 "hierarchy depth-1 self-test: %.2fx of raw cache "
                 "access (bound %.2fx)\n",
                 best_ratio, kMaxRatio);
    const char *skip = std::getenv("AUTOCAT_SKIP_SELFTEST");
    if (skip && skip[0] == '1')
        return true;
    return best_ratio <= kMaxRatio;
}

} // namespace
} // namespace autocat

int
main(int argc, char **argv)
{
    std::fprintf(stderr, "matmul backend: %s\n",
                 autocat::matmulBackend());
    if (!autocat::checkDepth1MatchesCacheAccess()) {
        std::fprintf(stderr,
                     "FAIL: depth-1 CacheHierarchy is slower than a "
                     "bare Cache beyond noise\n");
        return 1;
    }
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
