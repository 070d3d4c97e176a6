#include "replay.h"

#include <exception>
#include <stdexcept>
#include <thread>

#include "chain/component.h"
#include "crypto/prg.h"
#include "gc/ot_ext.h"
#include "gc/streaming.h"
#include "net/net_channel.h"

namespace haac {
namespace bench {

namespace {

/** Garbled tables per frame: the GcServer / RemoteOptions default. */
constexpr uint32_t kSegmentTables = 1024;

/**
 * The 38-byte circuit fingerprint of net/remote.cc, same wire layout:
 * six u32 shape fields, the u64 sim-OT seed, u32 segmentTables, u8
 * otMode (1 = IKNP) and u8 otCached.
 */
constexpr size_t kFingerprintBytes = 38;
constexpr size_t kOtCachedOffset = 37;
constexpr size_t kOtModeOffset = 36;

void
sendFingerprint(NetChannel &chan, const Netlist &nl, bool ot_cached)
{
    uint8_t out[kFingerprintBytes] = {};
    size_t at = 0;
    auto u32 = [&](uint32_t v) {
        for (int i = 0; i < 4; ++i)
            out[at++] = uint8_t(v >> (8 * i));
    };
    u32(nl.numGarblerInputs);
    u32(nl.numEvaluatorInputs);
    u32(nl.numGates());
    u32(nl.numAndGates());
    u32(uint32_t(nl.outputs.size()));
    u32(nl.constOne);
    const uint64_t sim_seed = randomSeed();
    for (int i = 0; i < 8; ++i)
        out[at++] = uint8_t(sim_seed >> (8 * i));
    u32(kSegmentTables);
    out[at++] = 1;
    out[at++] = ot_cached ? 1 : 0;
    chan.sendBytes(out, sizeof(out));
    chan.flush();
}

/** Garbler side, mirroring runGarblerFrom() under IKNP. */
void
garblerSide(Tracer &tracer, uint64_t session, ReplayLink &link,
            const Netlist &nl, const std::vector<bool> &bits,
            uint64_t seed, GarbleSource source)
{
    const Party me = Party::Garbler;
    Transport &transport = *link.garblerEnd;
    StreamingGarbler garbler(nl, seed);
    std::vector<GarbledTable> pooled;
    if (source == GarbleSource::Pooled) {
        // Stand-in for the GarblePool filler: garble off the request
        // path into memory, then stream the stored tables.
        pooled.reserve(nl.numAndGates());
        Tracer::Scope s = tracer.scope("gc.garble", session,
                                       Party::Filler);
        garbler.run([&](const GarbledTable &t) { pooled.push_back(t); });
    }

    Tracer::Scope root = tracer.scope("replay.garbler", session, me);
    NetChannel chan(transport, size_t(kSegmentTables) * kTableBytes);
    OtConnectionCache &cache = link.garblerOt;
    const uint32_t eval_base = nl.numGarblerInputs;
    const uint32_t m = nl.numEvaluatorInputs;
    const bool reuse = cache.sender != nullptr &&
                       cache.sender->ready() && m > 0;
    sendFingerprint(chan, nl, reuse);

    if (m > 0) {
        std::unique_ptr<OtExtSender> fresh;
        OtExtSender *ot = nullptr;
        if (reuse) {
            cache.sender->rebind(chan, chan);
            ot = cache.sender.get();
        } else {
            Tracer::Scope s =
                tracer.scope("gc.ot_setup.garbler", session, me);
            fresh = std::make_unique<OtExtSender>(chan, chan,
                                                  otRandomKey());
            fresh->setup();
            ot = fresh.get();
        }
        std::vector<Label> m0(m), m1(m);
        for (uint32_t i = 0; i < m; ++i) {
            m0[i] = garbler.activeLabel(eval_base + i, false);
            m1[i] = garbler.activeLabel(eval_base + i, true);
        }
        {
            Tracer::Scope s =
                tracer.scope("gc.ot_ext.garbler", session, me);
            ot->send(m0, m1);
        }
        if (fresh != nullptr)
            cache.sender = std::move(fresh);
    }
    if (nl.constOne != kNoWire)
        chan.sendLabel(garbler.activeLabel(nl.constOne, true));
    chan.flush();
    for (uint32_t i = 0; i < nl.numGarblerInputs; ++i)
        chan.sendLabel(garbler.activeLabel(i, bits[i]));
    chan.flush();

    // Table stream. Frame-level net spans: a sendTable that filled a
    // segment (and so wrote a frame) is recorded as net.table_send.
    auto send = [&](const GarbledTable &t) {
        const uint64_t frames = transport.framesSent();
        const Clock::time_point t0 = Clock::now();
        chan.sendTable(t);
        if (transport.framesSent() != frames)
            tracer.record("net.table_send", t0, Clock::now(), session,
                          me);
    };
    if (source == GarbleSource::Pooled) {
        Tracer::Scope s = tracer.scope("serve.pool_stream", session, me);
        for (const GarbledTable &t : pooled)
            send(t);
    } else {
        Tracer::Scope s = tracer.scope("gc.garble", session, me);
        garbler.run(send);
    }
    {
        const uint64_t frames = transport.framesSent();
        const Clock::time_point t0 = Clock::now();
        chan.flush();
        if (transport.framesSent() != frames)
            tracer.record("net.table_send", t0, Clock::now(), session,
                          me);
    }
    for (size_t i = 0; i < nl.outputs.size(); ++i)
        chan.sendBit(garbler.decodeBit(i));
    chan.flush();

    Tracer::Scope s = tracer.scope("net.result_wait", session, me);
    for (size_t i = 0; i < nl.outputs.size(); ++i)
        (void)chan.recvBit();
}

/** Evaluator side, mirroring runRemoteEvaluator() under IKNP. */
std::vector<bool>
evaluatorSide(Tracer &tracer, uint64_t session, ReplayLink &link,
              const Netlist &nl, const std::vector<bool> &bits)
{
    const Party me = Party::Evaluator;
    Transport &transport = *link.evaluatorEnd;
    Tracer::Scope root = tracer.scope("replay.evaluator", session, me);
    NetChannel chan(transport, size_t(kSegmentTables) * kTableBytes);

    uint8_t fp[kFingerprintBytes];
    chan.recvBytes(fp, sizeof(fp));
    if (fp[kOtModeOffset] != 1)
        throw std::runtime_error("replay: garbler did not pick IKNP");
    const bool cached = fp[kOtCachedOffset] != 0;

    const uint32_t eval_base = nl.numGarblerInputs;
    const uint32_t m = nl.numEvaluatorInputs;
    std::vector<Label> inputs(nl.numInputs());
    if (m > 0) {
        OtConnectionCache &cache = link.evaluatorOt;
        std::unique_ptr<OtExtReceiver> fresh;
        OtExtReceiver *ot = nullptr;
        if (cached) {
            if (cache.receiver == nullptr || !cache.receiver->ready())
                throw std::runtime_error(
                    "replay: cached OT expected but absent");
            cache.receiver->rebind(chan, chan);
            ot = cache.receiver.get();
        } else {
            Tracer::Scope s =
                tracer.scope("gc.ot_setup.evaluator", session, me);
            fresh = std::make_unique<OtExtReceiver>(chan, chan,
                                                    otRandomKey());
            fresh->start();
            fresh->setup();
            ot = fresh.get();
        }
        {
            Tracer::Scope s =
                tracer.scope("gc.ot_ext.evaluator", session, me);
            ot->sendChoices(bits);
            const std::vector<Label> labels = ot->receiveLabels();
            for (uint32_t i = 0; i < m; ++i)
                inputs[eval_base + i] = labels[i];
        }
        if (fresh != nullptr)
            cache.receiver = std::move(fresh);
    }
    {
        Tracer::Scope s = tracer.scope("net.input_wait", session, me);
        if (nl.constOne != kNoWire)
            inputs[nl.constOne] = chan.recvLabel();
        for (uint32_t i = 0; i < nl.numGarblerInputs; ++i)
            inputs[i] = chan.recvLabel();
    }

    // Evaluate from our own source: a recvTable that had to pull a
    // frame is recorded as net.table_wait.
    std::vector<Label> out_labels;
    {
        Tracer::Scope s = tracer.scope("gc.evaluate", session, me);
        out_labels = evaluateStreaming(nl, inputs, [&] {
            const uint64_t frames = transport.framesReceived();
            const Clock::time_point t0 = Clock::now();
            GarbledTable t = chan.recvTable();
            if (transport.framesReceived() != frames)
                tracer.record("net.table_wait", t0, Clock::now(),
                              session, me);
            return t;
        });
    }

    Tracer::Scope s = tracer.scope("gc.decode", session, me);
    std::vector<bool> outputs(out_labels.size());
    std::vector<bool> decode(nl.outputs.size());
    for (size_t i = 0; i < decode.size(); ++i)
        decode[i] = chan.recvBit();
    for (size_t i = 0; i < out_labels.size(); ++i)
        outputs[i] = out_labels[i].lsb() != decode[i];
    for (bool b : outputs)
        chan.sendBit(b);
    chan.flush();
    return outputs;
}

/**
 * Run @p other on a helper thread and @p mine on this one, rethrowing
 * the first failure after both have ended.
 */
template <typename Other, typename Mine>
void
runBoth(Other other, Mine mine)
{
    std::exception_ptr other_error;
    std::thread helper([&] {
        try {
            other();
        } catch (...) {
            other_error = std::current_exception();
        }
    });
    std::exception_ptr mine_error;
    try {
        mine();
    } catch (...) {
        mine_error = std::current_exception();
    }
    helper.join();
    if (mine_error)
        std::rethrow_exception(mine_error);
    if (other_error)
        std::rethrow_exception(other_error);
}

} // namespace

ReplayLink::ReplayLink()
{
    auto pair = LoopbackTransport::createPair();
    garblerEnd = std::move(pair.first);
    evaluatorEnd = std::move(pair.second);
}

ReplayOutcome
replaySession(Tracer &tracer, uint64_t session, ReplayLink &link,
              const Netlist &netlist,
              const std::vector<bool> &garbler_bits,
              const std::vector<bool> &evaluator_bits,
              uint64_t garble_seed, GarbleSource source, Party client)
{
    const Transport &mine = client == Party::Garbler ? *link.garblerEnd
                                                     : *link.evaluatorEnd;
    const TransportCounts before = TransportCounts::of(mine);
    ReplayOutcome out;
    runBoth(
        [&] {
            garblerSide(tracer, session, link, netlist, garbler_bits,
                        garble_seed, source);
        },
        [&] {
            out.outputs = evaluatorSide(tracer, session, link, netlist,
                                        evaluator_bits);
        });
    const TransportCounts after = TransportCounts::of(mine);
    out.clientBytes = after.bytes - before.bytes;
    out.clientFrames = after.frames - before.frames;
    out.andGates = netlist.numAndGates();
    return out;
}

ReplayOutcome
replayChainSession(Tracer &tracer, uint64_t session, ReplayLink &link,
                   const chain::ChainPlan &plan,
                   const std::vector<bool> &garbler_bits,
                   const std::vector<bool> &evaluator_bits,
                   uint64_t capture_seed)
{
    // Stand-in for the ComponentPool: capture every node up front.
    std::vector<std::unique_ptr<chain::GarbledComponent>> ready;
    std::vector<const chain::GarbledComponent *> view;
    for (size_t n = 0; n < plan.nodes.size(); ++n) {
        Tracer::Scope s = tracer.scope("chain.component_capture", session,
                                       Party::Filler);
        ready.push_back(std::make_unique<chain::GarbledComponent>(
            chain::captureComponent(plan.nodes[n],
                                    splitmix64(capture_seed + n))));
        view.push_back(ready.back().get());
    }
    {
        Tracer::Scope s =
            tracer.scope("chain.link_build", session, Party::Garbler);
        (void)chain::buildLinkTables(plan, view);
    }
    chain::ComponentProvider provider =
        [&](uint32_t node, const chain::ComponentSpec &) {
            return chain::AcquiredComponent{std::move(ready.at(node)),
                                            true};
        };

    const TransportCounts before = TransportCounts::of(*link.evaluatorEnd);
    ReplayOutcome out;
    runBoth(
        [&] {
            RemoteOptions ropts;
            ropts.otCache = &link.garblerOt;
            Tracer::Scope s =
                tracer.scope("chain.garble_link", session, Party::Garbler);
            chain::runChainGarbler(plan, garbler_bits, *link.garblerEnd,
                                   provider, ropts);
        },
        [&] {
            RemoteOptions ropts;
            ropts.otCache = &link.evaluatorOt;
            Tracer::Scope s = tracer.scope("chain.evaluate", session,
                                           Party::Evaluator);
            out.outputs = chain::runChainEvaluator(
                              plan, evaluator_bits, *link.evaluatorEnd,
                              ropts)
                              .outputs;
        });
    const TransportCounts after = TransportCounts::of(*link.evaluatorEnd);
    out.clientBytes = after.bytes - before.bytes;
    out.clientFrames = after.frames - before.frames;
    out.andGates = plan.totalAndGates();
    return out;
}

} // namespace bench
} // namespace haac
