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

constexpr uint64_t kIknp = 1;

/** The garbler's value of fingerprint field @p f. */
uint64_t
garblerValue(const FingerprintField &f, uint32_t segment_tables,
             bool ot_cached)
{
    switch (f.kind) {
    case FingerprintField::Segment:
        return segment_tables;
    case FingerprintField::Ot:
        return kIknp;
    case FingerprintField::Cached:
        return ot_cached ? 1 : 0;
    default:
        return f.value; // Shape; a Reserved field's value stays 0
    }
}

/**
 * Read the garbler's fingerprint into @p res (segmentTables,
 * otSetupReused) and refuse a session on another circuit or any OT but
 * IKNP — before this side's choice bits go anywhere near the wire.
 */
void
agreeOnFingerprint(ByteChannel &chan,
                   const std::vector<FingerprintField> &fields,
                   RemoteResult &res)
{
    size_t bytes = 0;
    for (const FingerprintField &f : fields)
        bytes += f.width;
    std::vector<uint8_t> raw(bytes);
    chan.recvBytes(raw.data(), raw.size());
    res.controlBytes += raw.size();

    uint64_t ot = kIknp;
    std::string local_shape, remote_shape;
    size_t at = 0;
    for (const FingerprintField &f : fields) {
        uint64_t v = 0;
        for (uint8_t b = 0; b < f.width; ++b)
            v |= uint64_t(raw[at++]) << (8 * b);
        if (f.kind == FingerprintField::Shape) {
            const std::string sep = local_shape.empty() ? "" : " ";
            local_shape += sep + f.name + "=" + std::to_string(f.value);
            remote_shape += sep + f.name + "=" + std::to_string(v);
        } else if (f.kind == FingerprintField::Segment) {
            res.segmentTables = uint32_t(v);
        } else if (f.kind == FingerprintField::Ot) {
            ot = v;
        } else if (f.kind == FingerprintField::Cached) {
            res.otSetupReused = v != 0;
        }
    }
    if (local_shape != remote_shape)
        throw NetError("remote circuit mismatch: local {" + local_shape +
                       "} vs garbler {" + remote_shape + "}");
    if (ot != kIknp)
        throw NetError("garbler asked for OT mode " + std::to_string(ot) +
                       "; only IKNP (1) is spoken");
}

/** True when @p cache (may be null) holds a ready extension sender. */
bool
otSenderCached(const OtConnectionCache *cache)
{
    return cache != nullptr && cache->sender != nullptr &&
           cache->sender->ready();
}

/**
 * The garbler's OT batch offering (m0[i], m1[i]). With @p reuse, the
 * cache's sender is rebound to @p chan; otherwise a fresh sender runs
 * the base phase and, when @p cache is set, is stored back for the
 * next session.
 */
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

/**
 * The evaluator's mirror of sendOtBatch(). @p cached is the garbler's
 * announcement; a cached sender against a fresh receiver would
 * deadlock, so a connection with no ready receiver refuses it.
 */
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

/** Call @p fn(unit, wire, index) for every wire of @p slots, in order. */
template <typename Fn>
void
forEachWire(const InputSlots &slots, Fn fn)
{
    size_t at = 0;
    for (const WireRun &r : slots.runs)
        for (uint32_t k = 0; k < r.count; ++k)
            fn(r.unit, r.first + k, at++);
}

/** The garbler's label for @p unit's input @p wire at @p value. */
Label
activeLabel(const SessionLayout &session, uint32_t unit, WireId wire,
            bool value)
{
    const SessionUnit &u = session.units[unit];
    return u.live != nullptr ? u.live->activeLabel(wire, value)
                             : u.captured->activeLabel(wire, value);
}

/** The garbler sends the labels of @p slots at their values. */
void
sendLabels(ByteChannel &chan, const SessionLayout &session,
           const InputSlots &slots)
{
    forEachWire(slots, [&](uint32_t unit, WireId wire, size_t i) {
        chan.sendLabel(activeLabel(session, unit, wire, slots.values[i]));
    });
}

/** The evaluator files the labels of @p slots as they arrive. */
void
recvLabels(ByteChannel &chan, const InputSlots &slots,
           std::vector<std::vector<Label>> &inputs)
{
    forEachWire(slots, [&](uint32_t unit, WireId wire, size_t) {
        inputs[unit][wire] = chan.recvLabel();
    });
}

/** The totals both bodies fill last. */
void
finish(RemoteResult &res, const SessionLayout &session)
{
    res.totalBytes = res.tableBytes + res.inputLabelBytes + res.otBytes +
                     res.linkBytes + res.outputDecodeBytes;
    res.seconds =
        std::chrono::duration<double>(Clock::now() - session.start)
            .count();
}

/**
 * A netlist session: one unit; the evaluator's inputs go by OT with
 * the constant-one label riding the OT window, the garbler's are
 * direct labels. Each party passes its own bits and leaves the
 * other's empty.
 */
SessionLayout
lowerNetlist(const Netlist &nl, const std::vector<bool> &garbler_bits,
             const std::vector<bool> &evaluator_bits)
{
    using F = FingerprintField;
    SessionLayout s;
    s.fingerprint = {{F::Shape, 4, "g", nl.numGarblerInputs},
                     {F::Shape, 4, "e", nl.numEvaluatorInputs},
                     {F::Shape, 4, "gates", nl.numGates()},
                     {F::Shape, 4, "ands", nl.numAndGates()},
                     {F::Shape, 4, "outs", uint32_t(nl.outputs.size())},
                     {F::Shape, 4, "const", nl.constOne},
                     {F::Reserved, 8},
                     {F::Segment, 4},
                     {F::Ot, 1},
                     {F::Cached, 1}};
    s.units.resize(1);
    s.units[0].netlist = &nl;
    s.otPorts = {{{0, nl.numGarblerInputs, nl.numEvaluatorInputs}},
                 evaluator_bits};
    if (nl.constOne != kNoWire)
        s.otWindowLabels.add(0, nl.constOne, true);
    s.directLabels = {{{0, 0, nl.numGarblerInputs}}, garbler_bits};
    for (uint32_t i = 0; i < nl.outputs.size(); ++i)
        s.outputs.push_back({0, i});
    return s;
}

/** The value of Shape field @p name in @p session's fingerprint. */
uint64_t
shapeValue(const SessionLayout &session, const std::string &name)
{
    for (const FingerprintField &f : session.fingerprint)
        if (f.kind == FingerprintField::Shape && name == f.name)
            return f.value;
    throw std::logic_error("no fingerprint field " + name);
}

void
requireGarblerInputs(const Netlist &netlist,
                     const std::vector<bool> &garbler_bits)
{
    if (garbler_bits.size() != netlist.numGarblerInputs)
        throw std::invalid_argument(
            "runRemoteGarbler: wrong garbler input count");
}

} // namespace

RemoteResult
runGarblerSession(const SessionLayout &session, Transport &transport,
                  const RemoteOptions &opts)
{
    const uint32_t segment_tables = opts.segment();
    RemoteResult res;
    res.segmentTables = segment_tables;
    NetChannel chan(transport, size_t(segment_tables) * kTableBytes);

    // Base-OT cache: reuse only when this connection already holds a
    // ready extension sender (the first session populates it).
    const size_t ot_ports = session.otPorts.size();
    res.otSetupReused = otSenderCached(opts.otCache) && ot_ports > 0;

    // Fingerprint: agree on the circuit before any label moves.
    std::vector<uint8_t> fp;
    for (const FingerprintField &f : session.fingerprint) {
        const uint64_t v =
            garblerValue(f, segment_tables, res.otSetupReused);
        for (uint8_t b = 0; b < f.width; ++b)
            fp.push_back(uint8_t(v >> (8 * b)));
    }
    chan.sendBytes(fp.data(), fp.size());
    chan.flush();
    res.controlBytes += fp.size();

    // OT window (before any other label traffic).
    size_t base = chan.bytesSent();
    const size_t uplink_base = chan.bytesReceived();
    if (ot_ports > 0) {
        std::vector<Label> m0(ot_ports), m1(ot_ports);
        forEachWire(session.otPorts,
                    [&](uint32_t unit, WireId wire, size_t i) {
                        m0[i] = activeLabel(session, unit, wire, false);
                        m1[i] = activeLabel(session, unit, wire, true);
                    });
        sendOtBatch(chan, opts.otCache, res.otSetupReused, m0, m1);
    }
    sendLabels(chan, session, session.otWindowLabels);
    res.otBytes = chan.bytesSent() - base;
    res.otUplinkBytes = chan.bytesReceived() - uplink_base;
    chan.flush();

    // Input-label window, flushed so the unit streams start on a frame
    // boundary (both sides' segment counters must window the same
    // frames).
    base = chan.bytesSent();
    sendLabels(chan, session, session.directLabels);
    res.inputLabelBytes = chan.bytesSent() - base;
    chan.flush();

    // Per unit: its link-table frame, then its tables, one frame per
    // segment. Flushing after each unit keeps the two streams on
    // disjoint transport frames.
    for (uint32_t u = 0; u < session.units.size(); ++u) {
        const SessionUnit &unit = session.units[u];
        res.gates += unit.netlist->numGates();
        if (!unit.links.empty()) {
            std::vector<uint8_t> rows(unit.links.size() * kLinkTableBytes);
            uint8_t *row = rows.data();
            for (const LinkSlot &l : unit.links) {
                l.table.row[0].toBytes(row);
                l.table.row[1].toBytes(row + kLabelBytes);
                row += kLinkTableBytes;
            }
            const std::vector<uint8_t> frame = makeLinkTableFrame(
                u, uint32_t(unit.links.size()), rows.data(), rows.size());
            transport.sendFrame(frame);
            res.linkBytes += frame.size();
            ++res.linkFrames;
        }
        const uint64_t frames_before = transport.framesSent();
        base = chan.bytesSent();
        if (unit.live != nullptr)
            unit.live->run(segment_tables,
                           [&](const GarbledTable *tables, size_t n) {
                               chan.sendTables(tables, n);
                           });
        else
            chan.sendTableSegments(unit.captured->tables, segment_tables);
        chan.flush();
        res.tableBytes += chan.bytesSent() - base;
        res.tableSegments += transport.framesSent() - frames_before;
    }

    // Output decode bits.
    base = chan.bytesSent();
    for (const OutputSlot &o : session.outputs) {
        const SessionUnit &u = session.units[o.unit];
        chan.sendBit(u.live != nullptr ? u.live->decodeBit(o.bit)
                                       : u.captured->decodeBit(o.bit));
    }
    res.outputDecodeBytes = chan.bytesSent() - base;
    chan.flush();

    // Result echo: the evaluator decodes first and shares the output.
    res.outputs.resize(session.outputs.size());
    for (size_t i = 0; i < res.outputs.size(); ++i)
        res.outputs[i] = chan.recvBit();
    res.controlBytes += res.outputs.size();
    finish(res, session);
    return res;
}

RemoteResult
runEvaluatorSession(const SessionLayout &session, Transport &transport,
                    const RemoteOptions &opts)
{
    RemoteResult res;
    NetChannel chan(transport, size_t(opts.segment()) * kTableBytes);

    agreeOnFingerprint(chan, session.fingerprint, res);

    // Per-unit input labels, filled window by window; output labels
    // as each unit finishes.
    std::vector<std::vector<Label>> inputs(session.units.size());
    std::vector<std::vector<Label>> outputs(session.units.size());
    for (size_t u = 0; u < session.units.size(); ++u)
        inputs[u].resize(session.units[u].netlist->numInputs());

    // OT window, mirroring the garbler. The fingerprint's otCached
    // byte decides for both sides whether the base phase runs.
    const size_t uplink_base = chan.bytesSent();
    size_t base = chan.bytesReceived();
    if (session.otPorts.size() > 0) {
        const std::vector<Label> labels =
            receiveOtBatch(chan, opts.otCache, res.otSetupReused,
                           session.otPorts.values);
        forEachWire(session.otPorts,
                    [&](uint32_t unit, WireId wire, size_t i) {
                        inputs[unit][wire] = labels[i];
                    });
    }
    recvLabels(chan, session.otWindowLabels, inputs);
    res.otBytes = chan.bytesReceived() - base;
    res.otUplinkBytes = chan.bytesSent() - uplink_base;

    // Input-label window.
    base = chan.bytesReceived();
    recvLabels(chan, session.directLabels, inputs);
    res.inputLabelBytes = chan.bytesReceived() - base;

    // Per unit: translate its links, then evaluate one segment of
    // tables at a time as they arrive.
    uint64_t link = 0;
    for (uint32_t u = 0; u < session.units.size(); ++u) {
        const SessionUnit &unit = session.units[u];
        res.gates += unit.netlist->numGates();
        if (!unit.links.empty()) {
            const std::vector<uint8_t> frame = transport.recvFrame();
            const LinkTableFrame header = parseLinkTableFrame(frame);
            if (header.node != u || header.count != unit.links.size())
                throw NetError(
                    "link-table frame for node " +
                    std::to_string(header.node) + " (" +
                    std::to_string(header.count) +
                    " tables) arrived while evaluating node " +
                    std::to_string(u));
            res.linkBytes += frame.size();
            ++res.linkFrames;
            const uint8_t *row = frame.data() + header.payloadOffset;
            for (const LinkSlot &l : unit.links) {
                LinkTable t;
                t.row[0] = Label::fromBytes(row);
                t.row[1] = Label::fromBytes(row + kLabelBytes);
                row += kLinkTableBytes;
                inputs[u][l.wire] = translateLinkLabel(
                    t, outputs[l.from.unit][l.from.bit], link++);
            }
        }
        const uint64_t frames_before = transport.framesReceived();
        base = chan.bytesReceived();
        outputs[u] = evaluateStreaming(
            *unit.netlist, inputs[u], res.segmentTables,
            [&](GarbledTable *tables, size_t n) {
                chan.recvTables(tables, n);
            });
        res.tableBytes += chan.bytesReceived() - base;
        res.tableSegments += transport.framesReceived() - frames_before;
    }

    // Decode.
    base = chan.bytesReceived();
    res.outputs.resize(session.outputs.size());
    for (size_t i = 0; i < res.outputs.size(); ++i) {
        const OutputSlot &o = session.outputs[i];
        res.outputs[i] = outputs[o.unit][o.bit].lsb() != chan.recvBit();
    }
    res.outputDecodeBytes = chan.bytesReceived() - base;

    // Echo the result so the garbler learns it too.
    for (bool b : res.outputs)
        chan.sendBit(b);
    chan.flush();
    res.controlBytes += res.outputs.size();
    finish(res, session);
    return res;
}

RemoteResult
runRemoteGarbler(const Netlist &netlist,
                 const std::vector<bool> &garbler_bits,
                 Transport &transport, uint64_t seed,
                 const RemoteOptions &opts)
{
    requireGarblerInputs(netlist, garbler_bits);
    SessionLayout session = lowerNetlist(netlist, garbler_bits, {});
    StreamingGarbler garbler(netlist, seed);
    session.units[0].live = &garbler;
    return runGarblerSession(session, transport, opts);
}

RemoteResult
runRemoteGarbler(const Netlist &netlist,
                 const std::vector<bool> &garbler_bits,
                 Transport &transport, const GarbledInstance &instance,
                 const RemoteOptions &opts)
{
    requireGarblerInputs(netlist, garbler_bits);
    SessionLayout session = lowerNetlist(netlist, garbler_bits, {});
    // The fingerprint has counted the ANDs, a full pass over the gates.
    if (instance.inputZero.size() != netlist.numInputs() ||
        instance.outputZero.size() != netlist.outputs.size() ||
        instance.tables.size() != shapeValue(session, "ands"))
        throw std::invalid_argument(
            "runRemoteGarbler: instance does not match the netlist");
    session.units[0].captured = &instance;
    RemoteResult res = runGarblerSession(session, transport, opts);
    res.pooledGarbling = true;
    return res;
}

RemoteResult
runRemoteEvaluator(const Netlist &netlist,
                   const std::vector<bool> &evaluator_bits,
                   Transport &transport, const RemoteOptions &opts)
{
    if (evaluator_bits.size() != netlist.numEvaluatorInputs)
        throw std::invalid_argument(
            "runRemoteEvaluator: wrong evaluator input count");
    return runEvaluatorSession(lowerNetlist(netlist, {}, evaluator_bits),
                               transport, opts);
}

} // namespace haac
