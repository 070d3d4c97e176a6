#include "net/remote.h"

#include <chrono>
#include <memory>
#include <stdexcept>
#include <string>

#include "gc/instance.h"
#include "gc/ot_ext.h"
#include "gc/streaming.h"
#include "net/net_channel.h"
#include "net/wire.h"

namespace haac {

namespace {

using Clock = std::chrono::steady_clock;

/**
 * Circuit agreement check + segmenting + OT setup reuse, 38 bytes.
 *
 * Wire layout (little-endian), which tests/test_net.cc writes when it
 * plays a hand-rolled peer: six u32 shape fields (offsets 0..23),
 * eight reserved bytes (offset 24: written as zero, ignored on read),
 * segmentTables (offset 32, u32), the OT byte (offset 36, u8: always
 * 1 = IKNP, and an evaluator refuses any other value before it sends
 * a byte), otCached (offset 37, u8: 1 = this session reuses the
 * connection's cached base-OT + IKNP setup and skips the base phase).
 */
struct Fingerprint
{
    static constexpr uint8_t kIknp = 1;
    static constexpr size_t kBytes = 6 * 4 + 8 + 4 + 1 + 1;

    uint32_t garblerInputs = 0;
    uint32_t evaluatorInputs = 0;
    uint32_t gates = 0;
    uint32_t andGates = 0;
    uint32_t outputs = 0;
    uint32_t constOne = 0;
    uint32_t segmentTables = 0;
    uint8_t ot = kIknp;
    bool otCached = false;

    static Fingerprint
    of(const Netlist &nl)
    {
        Fingerprint fp;
        fp.garblerInputs = nl.numGarblerInputs;
        fp.evaluatorInputs = nl.numEvaluatorInputs;
        fp.gates = nl.numGates();
        fp.andGates = nl.numAndGates();
        fp.outputs = uint32_t(nl.outputs.size());
        fp.constOne = nl.constOne;
        return fp;
    }

    std::vector<uint8_t>
    serialize() const
    {
        WireWriter w;
        w.u32(garblerInputs);
        w.u32(evaluatorInputs);
        w.u32(gates);
        w.u32(andGates);
        w.u32(outputs);
        w.u32(constOne);
        w.u64(0); // reserved
        w.u32(segmentTables);
        w.u8(ot);
        w.u8(otCached ? 1 : 0);
        return w.take();
    }

    static Fingerprint
    deserialize(const std::vector<uint8_t> &bytes)
    {
        WireReader r(bytes);
        Fingerprint fp;
        fp.garblerInputs = r.u32();
        fp.evaluatorInputs = r.u32();
        fp.gates = r.u32();
        fp.andGates = r.u32();
        fp.outputs = r.u32();
        fp.constOne = r.u32();
        r.u64(); // reserved
        fp.segmentTables = r.u32();
        fp.ot = r.u8();
        fp.otCached = r.u8() != 0;
        r.expectEnd("remote fingerprint");
        return fp;
    }

    /** Shape equality (OT setup / segmenting are the garbler's). */
    bool
    sameCircuit(const Fingerprint &o) const
    {
        return garblerInputs == o.garblerInputs &&
               evaluatorInputs == o.evaluatorInputs &&
               gates == o.gates && andGates == o.andGates &&
               outputs == o.outputs && constOne == o.constOne;
    }

    std::string
    shapeString() const
    {
        return "g=" + std::to_string(garblerInputs) +
               " e=" + std::to_string(evaluatorInputs) +
               " gates=" + std::to_string(gates) +
               " ands=" + std::to_string(andGates) +
               " outs=" + std::to_string(outputs) +
               " const=" + std::to_string(constOne);
    }
};

/** Live garbling: labels and tables from a two-phase garbler. */
struct LiveGarblerSource
{
    StreamingGarbler garbler;

    LiveGarblerSource(const Netlist &netlist, uint64_t seed)
        : garbler(netlist, seed)
    {
    }

    Label
    activeLabel(WireId w, bool value) const
    {
        return garbler.activeLabel(w, value);
    }

    void
    emitTables(NetChannel &chan, uint32_t segment_tables)
    {
        garbler.run(segment_tables,
                    [&](const GarbledTable *tables, size_t n) {
                        chan.sendTables(tables, n);
                    });
    }

    bool decodeBit(size_t i) const { return garbler.decodeBit(i); }
};

/** Replay of a pre-garbled instance (gc/instance.h). */
struct InstanceGarblerSource
{
    const GarbledInstance *instance;

    Label
    activeLabel(WireId w, bool value) const
    {
        return instance->activeLabel(w, value);
    }

    void
    emitTables(NetChannel &chan, uint32_t segment_tables)
    {
        chan.sendTableSegments(instance->tables, segment_tables);
    }

    bool decodeBit(size_t i) const { return instance->decodeBit(i); }
};

/**
 * The garbler's protocol, parameterized over where labels and tables
 * come from (a live StreamingGarbler or a captured GarbledInstance) —
 * the wire traffic is identical either way.
 */
template <typename Source>
RemoteResult
runGarblerFrom(const Netlist &netlist,
               const std::vector<bool> &garbler_bits,
               Transport &transport, Source &src, bool pooled,
               const RemoteOptions &opts)
{
    if (garbler_bits.size() != netlist.numGarblerInputs)
        throw std::invalid_argument(
            "runRemoteGarbler: wrong garbler input count");

    const uint32_t segment_tables = opts.segment();
    const auto start = Clock::now();

    RemoteResult res;
    res.gates = netlist.numGates();
    res.segmentTables = segment_tables;
    res.pooledGarbling = pooled;
    NetChannel chan(transport, size_t(segment_tables) * kTableBytes);

    const uint32_t eval_base = netlist.numGarblerInputs;
    const uint32_t m = netlist.numEvaluatorInputs;

    // Base-OT cache: reuse only when this connection already holds a
    // ready extension sender (the first session populates it).
    const bool reuse_ot = otSenderCached(opts.otCache) && m > 0;
    res.otSetupReused = reuse_ot;

    // Fingerprint: agree on the circuit before any label moves.
    Fingerprint fp = Fingerprint::of(netlist);
    fp.segmentTables = segment_tables;
    fp.otCached = reuse_ot;
    const std::vector<uint8_t> fp_bytes = fp.serialize();
    chan.sendBytes(fp_bytes.data(), fp_bytes.size());
    chan.flush();
    res.controlBytes += fp_bytes.size();

    // --- OT phase (before any other label traffic). ---
    size_t base = chan.bytesSent();
    const size_t uplink_base = chan.bytesReceived();
    if (m > 0) {
        std::vector<Label> m0(m), m1(m);
        for (uint32_t i = 0; i < m; ++i) {
            m0[i] = src.activeLabel(eval_base + i, false);
            m1[i] = src.activeLabel(eval_base + i, true);
        }
        sendOtBatch(chan, opts.otCache, reuse_ot, m0, m1);
    }
    if (netlist.constOne != kNoWire)
        chan.sendLabel(src.activeLabel(netlist.constOne, true));
    res.otBytes = chan.bytesSent() - base;
    res.otUplinkBytes = chan.bytesReceived() - uplink_base;
    chan.flush();

    // Garbler's own input labels, flushed so the table stream starts
    // on a frame boundary (both sides' segment counters must window
    // the same frames).
    base = chan.bytesSent();
    for (uint32_t i = 0; i < netlist.numGarblerInputs; ++i)
        chan.sendLabel(src.activeLabel(i, garbler_bits[i]));
    res.inputLabelBytes = chan.bytesSent() - base;
    chan.flush();

    // Table stream: one frame per segment of tables.
    base = chan.bytesSent();
    const uint64_t frames_before = transport.framesSent();
    src.emitTables(chan, segment_tables);
    chan.flush();
    res.tableBytes = chan.bytesSent() - base;
    res.tableSegments = transport.framesSent() - frames_before;

    // Output decode bits.
    base = chan.bytesSent();
    for (size_t i = 0; i < netlist.outputs.size(); ++i)
        chan.sendBit(src.decodeBit(i));
    res.outputDecodeBytes = chan.bytesSent() - base;
    chan.flush();

    // Result echo: the evaluator decodes first and shares the output.
    res.outputs.resize(netlist.outputs.size());
    for (size_t i = 0; i < res.outputs.size(); ++i)
        res.outputs[i] = chan.recvBit();
    res.controlBytes += res.outputs.size();

    res.totalBytes = res.tableBytes + res.inputLabelBytes + res.otBytes +
                     res.outputDecodeBytes;
    res.seconds = std::chrono::duration<double>(Clock::now() - start)
                      .count();
    return res;
}

} // namespace

bool
otSenderCached(const OtConnectionCache *cache)
{
    return cache != nullptr && cache->sender != nullptr &&
           cache->sender->ready();
}

void
sendOtBatch(ByteChannel &chan, OtConnectionCache *cache, bool reuse,
            const std::vector<Label> &m0, const std::vector<Label> &m1)
{
    if (reuse) {
        cache->sender->rebind(chan, chan);
        cache->sender->send(m0, m1);
        return;
    }
    auto fresh = std::make_unique<OtExtSender>(chan, chan, otRandomKey());
    fresh->setup(); // blocks on the evaluator's base-OT key
    fresh->send(m0, m1);
    if (cache != nullptr)
        cache->sender = std::move(fresh);
}

std::vector<Label>
receiveOtBatch(ByteChannel &chan, OtConnectionCache *cache, bool cached,
               const std::vector<bool> &choices)
{
    if (cached) {
        if (cache == nullptr || cache->receiver == nullptr ||
            !cache->receiver->ready())
            throw NetError("garbler expects a cached OT setup, but this "
                           "connection has none");
        cache->receiver->rebind(chan, chan);
        cache->receiver->sendChoices(choices);
        return cache->receiver->receiveLabels();
    }
    auto fresh = std::make_unique<OtExtReceiver>(chan, chan, otRandomKey());
    fresh->start();
    fresh->setup();
    fresh->sendChoices(choices);
    std::vector<Label> labels = fresh->receiveLabels();
    if (cache != nullptr)
        cache->receiver = std::move(fresh);
    return labels;
}

RemoteResult
runRemoteGarbler(const Netlist &netlist,
                 const std::vector<bool> &garbler_bits,
                 Transport &transport, uint64_t seed,
                 const RemoteOptions &opts)
{
    LiveGarblerSource src(netlist, seed);
    return runGarblerFrom(netlist, garbler_bits, transport, src, false,
                          opts);
}

RemoteResult
runRemoteGarbler(const Netlist &netlist,
                 const std::vector<bool> &garbler_bits,
                 Transport &transport, const GarbledInstance &instance,
                 const RemoteOptions &opts)
{
    if (instance.inputZero.size() != netlist.numInputs() ||
        instance.outputZero.size() != netlist.outputs.size() ||
        instance.tables.size() != netlist.numAndGates())
        throw std::invalid_argument(
            "runRemoteGarbler: instance does not match the netlist");
    InstanceGarblerSource src{&instance};
    return runGarblerFrom(netlist, garbler_bits, transport, src, true,
                          opts);
}

RemoteResult
runRemoteEvaluator(const Netlist &netlist,
                   const std::vector<bool> &evaluator_bits,
                   Transport &transport, const RemoteOptions &opts)
{
    if (evaluator_bits.size() != netlist.numEvaluatorInputs)
        throw std::invalid_argument(
            "runRemoteEvaluator: wrong evaluator input count");

    const auto start = Clock::now();
    RemoteResult res;
    res.gates = netlist.numGates();
    NetChannel chan(transport, size_t(opts.segment()) * kTableBytes);

    std::vector<uint8_t> fp_bytes(Fingerprint::kBytes);
    chan.recvBytes(fp_bytes.data(), fp_bytes.size());
    res.controlBytes += fp_bytes.size();
    const Fingerprint remote_fp = Fingerprint::deserialize(fp_bytes);
    res.segmentTables = remote_fp.segmentTables;
    const Fingerprint local_fp = Fingerprint::of(netlist);
    if (!remote_fp.sameCircuit(local_fp))
        throw NetError("remote circuit mismatch: local {" +
                       local_fp.shapeString() + "} vs garbler {" +
                       remote_fp.shapeString() + "}");
    // The garbler picks the fingerprint, so a garbler naming any other
    // OT must be refused here, before this side's choice bits go
    // anywhere near the wire.
    if (remote_fp.ot != Fingerprint::kIknp)
        throw NetError("garbler asked for OT mode " +
                       std::to_string(remote_fp.ot) +
                       "; only IKNP (1) is spoken");

    const uint32_t eval_base = netlist.numGarblerInputs;
    const uint32_t m = netlist.numEvaluatorInputs;
    std::vector<Label> inputs(netlist.numInputs());

    // --- OT phase, mirroring the garbler. The fingerprint's otCached
    // byte decides for both sides whether the base phase runs: a
    // garbler reusing its cached extension sender would deadlock
    // against a fresh receiver (and vice versa). ---
    res.otSetupReused = remote_fp.otCached;
    const size_t uplink_base = chan.bytesSent();
    size_t base = chan.bytesReceived();
    if (m > 0) {
        const std::vector<Label> labels = receiveOtBatch(
            chan, opts.otCache, remote_fp.otCached, evaluator_bits);
        for (uint32_t i = 0; i < m; ++i)
            inputs[eval_base + i] = labels[i];
    }
    if (netlist.constOne != kNoWire)
        inputs[netlist.constOne] = chan.recvLabel();
    res.otBytes = chan.bytesReceived() - base;
    res.otUplinkBytes = chan.bytesSent() - uplink_base;

    // Garbler input labels.
    base = chan.bytesReceived();
    for (uint32_t i = 0; i < netlist.numGarblerInputs; ++i)
        inputs[i] = chan.recvLabel();
    res.inputLabelBytes = chan.bytesReceived() - base;

    // Evaluate, one segment of tables at a time as they arrive.
    base = chan.bytesReceived();
    const uint64_t frames_before = transport.framesReceived();
    const std::vector<Label> out_labels = evaluateStreaming(
        netlist, inputs, remote_fp.segmentTables,
        [&](GarbledTable *tables, size_t n) {
            chan.recvTables(tables, n);
        });
    res.tableBytes = chan.bytesReceived() - base;
    res.tableSegments = transport.framesReceived() - frames_before;

    // Decode.
    base = chan.bytesReceived();
    res.outputs.resize(out_labels.size());
    std::vector<bool> decode(netlist.outputs.size());
    for (size_t i = 0; i < decode.size(); ++i)
        decode[i] = chan.recvBit();
    res.outputDecodeBytes = chan.bytesReceived() - base;
    for (size_t i = 0; i < out_labels.size(); ++i)
        res.outputs[i] = out_labels[i].lsb() != decode[i];

    // Echo the result so the garbler learns it too.
    for (bool b : res.outputs)
        chan.sendBit(b);
    chan.flush();
    res.controlBytes += res.outputs.size();

    res.totalBytes = res.tableBytes + res.inputLabelBytes + res.otBytes +
                     res.outputDecodeBytes;
    res.seconds = std::chrono::duration<double>(Clock::now() - start)
                      .count();
    return res;
}

} // namespace haac
