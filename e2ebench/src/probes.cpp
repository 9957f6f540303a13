#include "bench.hpp"

#include "rl/actor_critic.hpp"
#include "rl/adam.hpp"
#include "serve/net/frame.hpp"
#include "serve/wire.hpp"

namespace e2e {

using namespace autocat;

namespace {

void
fillUniform(Matrix &m, Rng &rng, double scale)
{
    for (std::size_t i = 0; i < m.size(); ++i)
        m.data()[i] =
            static_cast<float>((2.0 * rng.uniformDouble() - 1.0) * scale);
}

/** Median per-call microseconds of @p fn over @p blocks blocks of
 *  @p per_block back-to-back calls. */
template <typename Fn>
double
perCallUs(int blocks, int per_block, Fn &&fn)
{
    std::vector<double> us;
    for (int b = 0; b < blocks; ++b) {
        const auto t0 = Clock::now();
        for (int i = 0; i < per_block; ++i)
            fn();
        us.push_back(secondsSince(t0) * 1e6 / per_block);
    }
    return median(us);
}

volatile std::size_t g_sink = 0;

} // namespace

long long
minibatchesPerEpoch(const PpoConfig &ppo)
{
    const long long steps = ppo.stepsPerEpoch;
    const long long mb = std::max(1, ppo.minibatchSize);
    return static_cast<long long>(ppo.updatePasses) * ((steps + mb - 1) / mb);
}

NnProbe
probeNn(std::size_t obs_dim, std::size_t num_actions, const PpoConfig &ppo,
        std::size_t streams, std::uint64_t seed)
{
    Rng rng(seed);
    ActorCritic net(obs_dim, num_actions, ppo.hidden, ppo.layers, rng);
    std::vector<ParamBlock> blocks = net.paramBlocks();
    Adam adam(blocks, ppo.lr);

    // The update's minibatch: the last one of an epoch may be short,
    // the probe times the full-size shape that dominates.
    const std::size_t rows = static_cast<std::size_t>(
        std::min(ppo.minibatchSize, ppo.stepsPerEpoch));
    Matrix obs(rows, obs_dim);
    fillUniform(obs, rng, 1.0);
    Matrix dlogits(rows, num_actions);
    fillUniform(dlogits, rng, 1e-3);
    std::vector<float> dvalues(rows);
    for (float &v : dvalues)
        v = static_cast<float>((2.0 * rng.uniformDouble() - 1.0) * 1e-3);

    NnProbe p;
    std::vector<double> fwd, bwd, opt;
    for (int i = 0; i < 40; ++i) {
        auto t0 = Clock::now();
        AcOutput out = net.forward(obs);
        fwd.push_back(secondsSince(t0) * 1e6);
        g_sink += out.values.size();
        t0 = Clock::now();
        net.zeroGrad();
        net.backward(dlogits, dvalues);
        bwd.push_back(secondsSince(t0) * 1e6);
        t0 = Clock::now();
        blocks = net.paramBlocks();
        clipGradNorm(blocks, ppo.maxGradNorm);
        adam.step(blocks);
        opt.push_back(secondsSince(t0) * 1e6);
    }
    p.forwardTrainUs = median(fwd);
    p.backwardUs = median(bwd);
    p.adamUs = median(opt);

    Matrix batch(streams, obs_dim);
    fillUniform(batch, rng, 1.0);
    AcOutput infer;
    p.forwardInferUs = perCallUs(15, 200, [&] {
        net.forwardNoGrad(batch, infer);
        g_sink += infer.values.size();
    });
    std::vector<float> one(batch.data(), batch.data() + obs_dim);
    p.forwardOneUs = perCallUs(15, 200, [&] {
        g_sink += net.forwardOne(one).values.size();
    });
    return p;
}

CodecProbe
probeCodecs(const SweepCell &cell, const ExplorationResult &result,
            const std::string &checkpoint_bytes)
{
    CodecProbe p;
    const std::string job = serializeCellJob(cell);
    p.jobEncodeUs = perCallUs(15, 20, [&] {
        g_sink += serializeCellJob(cell).size();
    });
    p.jobDecodeUs = perCallUs(15, 20, [&] {
        g_sink += deserializeCellJob(job).index;
    });

    SweepCellResult row;
    row.cell = cell;
    row.completed = true;
    row.result = result;
    const std::string row_blob = serializeCellRow(row);
    p.rowEncodeUs = perCallUs(15, 200, [&] {
        g_sink += serializeCellRow(row).size();
    });
    p.rowDecodeUs = perCallUs(15, 200, [&] {
        g_sink += deserializeCellRow(row_blob).cell.index;
    });

    const std::string wire = encodeFrame(FrameType::Checkpoint,
                                         checkpoint_bytes);
    p.frameEncodeUs = perCallUs(15, 10, [&] {
        g_sink += encodeFrame(FrameType::Checkpoint, checkpoint_bytes).size();
    });
    p.frameDecodeUs = perCallUs(15, 10, [&] {
        FrameReader reader;
        reader.feed(wire.data(), wire.size());
        Frame frame;
        if (!reader.next(frame))
            throw std::runtime_error("probe: checkpoint frame did not decode");
        g_sink += frame.payload.size();
    });
    return p;
}

} // namespace e2e
