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
 * rate is taken on the wall clock: the pool's workers step while the
 * calling thread waits, so a CPU-time rate would overstate the
 * threaded adapter. On 4 cores the threaded adapter loses to sync at
 * every stream count, because a step costs less than its dispatch.
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
 * Inference through the reusable forward workspace (forwardNoGrad):
 * the fused GEMM path rollout collection and evaluation run, with no
 * per-step allocations or activation caching.
 */
void
BM_PolicyInferenceBatch(benchmark::State &state)
{
    Rng rng(2);
    const auto streams = static_cast<std::size_t>(state.range(0));
    const std::size_t obs_dim = 256;
    ActorCritic net(obs_dim, 8, 128, 2, rng);
    Matrix obs(streams, obs_dim);
    for (std::size_t i = 0; i < obs.size(); ++i)
        obs.data()[i] = 0.1f;
    AcOutput out;
    for (auto _ : state) {
        net.forwardNoGrad(obs, out);
        benchmark::DoNotOptimize(out.values.data());
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<long>(streams));
}
BENCHMARK(BM_PolicyInferenceBatch)->Arg(1)->Arg(4)->Arg(8);

/**
 * Full PPO epoch (collect + update) at 1/4/8 streams and 1/2/4 kernel
 * threads (Arg1, the update's matmul/Adam budget; the bits are the
 * same at every count). Timed on the wall clock: the kernel threads
 * work while the main thread waits, so its CPU time would overstate a
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
