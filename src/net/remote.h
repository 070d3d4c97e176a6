/**
 * @file
 * The two-machine GC protocol: one side of a session per process.
 *
 * Every session runs one body. A lowering describes the session as
 * data — a SessionLayout of garbled units and slot lists — and
 * runGarblerSession / runEvaluatorSession run it, in order:
 *
 *   1. the fingerprint, which catches disagreement on the circuit
 *      before any label moves and carries the garbler's segmenting
 *      and base-OT cache decision;
 *   2. the OT window: one IKNP batch with the KOS15 check
 *      (gc/ot_ext.h) over the evaluator's ports, then any labels that
 *      ride the window;
 *   3. the input-label window: the garbler's direct labels;
 *   4. per garbled unit, a link-table frame (net/wire.h) when the unit
 *      has links, then its tables in segment frames, which the
 *      evaluator runs the gate kernel over as they arrive
 *      (gc/streaming.h): memory stays O(wires) while communication is
 *      O(AND gates);
 *   5. the output decode bits, then the result echo that lets the
 *      garbler learn the output too.
 *
 * Two lowerings feed it. A netlist (runRemoteGarbler /
 * runRemoteEvaluator) is one unit, either garbled live or replayed
 * from a captured instance; a chained plan (chain/link.h) is one
 * captured component per node.
 *
 * Byte accounting is counted once, in the body, and matches the
 * in-process ProtocolResult *exactly*, category by category (tables,
 * input labels, OT down- and uplink, output decode): the downlink
 * categories count protocol payload in the garbler→evaluator
 * direction, otUplinkBytes the real OT's evaluator→garbler traffic,
 * all measured identically by both sides. The fingerprint and the
 * result echo are control traffic, reported separately — the
 * in-process baseline has no analogue for them.
 */
#ifndef HAAC_NET_REMOTE_H
#define HAAC_NET_REMOTE_H

#include <chrono>
#include <cstdint>
#include <memory>
#include <vector>

#include "circuit/netlist.h"
#include "gc/garble.h"
#include "gc/ot_ext.h"
#include "net/transport.h"

namespace haac {

class StreamingGarbler;
struct GarbledInstance;

/**
 * Per-connection OT-extension state for base-OT caching.
 *
 * The Chou-Orlandi base phase costs ~385 Curve25519 scalar
 * multiplications and 4 KB of traffic per side; the IKNP extension it
 * bootstraps handles any number of batches afterwards (column PRGs
 * and the hash tweak base advance per batch). A caller that keeps one
 * of these alive across sessions on a single connection pays the base
 * phase once: the first IKNP session populates it, and every later
 * session rebinds the endpoint to its own NetChannel and reuses the
 * extension directly. The garbler announces reuse in the fingerprint
 * (otCached byte), so both sides always agree on whether the base
 * phase runs. Never share one cache across connections or threads —
 * the two extension endpoints advance in lockstep only because
 * sessions on one connection are sequential.
 */
struct OtConnectionCache
{
    std::unique_ptr<OtExtSender> sender;     ///< garbler side
    std::unique_ptr<OtExtReceiver> receiver; ///< evaluator side
};

struct RemoteOptions
{
    /** Garbled tables per streamed segment frame (0 is read as 1). */
    uint32_t segmentTables = 1024;
    /**
     * Borrowed per-connection OT cache; null runs the base-OT phase
     * every session, the pre-cache behavior.
     */
    OtConnectionCache *otCache = nullptr;

    /** segmentTables as the garbler streams it (at least 1). */
    uint32_t
    segment() const
    {
        return segmentTables > 0 ? segmentTables : 1;
    }
};

/**
 * One party's view of a completed session: a monolithic netlist
 * (runRemoteGarbler / runRemoteEvaluator) or a chained plan
 * (chain/link.h's runChainGarbler / runChainEvaluator).
 */
struct RemoteResult
{
    /** Decoded circuit outputs (both parties learn them). */
    std::vector<bool> outputs;

    /** @name Garbler→evaluator payload, same categories as
     *  ProtocolResult (identical on both sides of the wire);
     *  totalBytes also counts a chained session's linkBytes. */
    /// @{
    uint64_t tableBytes = 0;
    uint64_t inputLabelBytes = 0;
    uint64_t otBytes = 0;
    uint64_t outputDecodeBytes = 0;
    uint64_t totalBytes = 0;
    /// @}

    /**
     * Evaluator→garbler OT traffic (base-OT public key, masked
     * columns and the KOS15 proof).
     */
    uint64_t otUplinkBytes = 0;

    /** Fingerprint + result echo (both ways). */
    uint64_t controlBytes = 0;
    /** Frames the table stream used (one per segment). */
    uint64_t tableSegments = 0;
    /**
     * Tables per segment the garbler actually streamed with — the
     * garbler's setting, carried to the evaluator in the fingerprint
     * (the evaluator's own option does not shape the stream).
     */
    uint32_t segmentTables = 0;
    uint64_t gates = 0;
    double seconds = 0;

    /** This session reused a cached base-OT + IKNP setup. */
    bool otSetupReused = false;
    /** Garbler replayed a pre-garbled instance (serve/pool.h). */
    bool pooledGarbling = false;

    /** @name Chained sessions only; all zero for a monolithic one */
    /// @{
    /** Link-table stream frames: headers + translation tables. */
    uint64_t linkBytes = 0;
    /** Frames the link-table stream used (one per linked node). */
    uint32_t linkFrames = 0;
    uint32_t components = 0; ///< nodes linked (> 0 marks a chain)
    uint32_t links = 0;      ///< translation tables shipped
    /** Components served pre-garbled (provider said pooled). */
    uint32_t pooledComponents = 0;
    /// @}

    double
    gatesPerSecond() const
    {
        return seconds > 0 ? double(gates) / seconds : 0;
    }
};

/**
 * One fingerprint field. A session's fingerprint is its list of
 * fields, written little-endian in order. The evaluator reads the
 * same list and refuses the session when any Shape field differs from
 * its own or the OT byte names anything but IKNP (1); Segment and
 * Cached are the garbler's choices, Reserved is written as zero and
 * ignored on read.
 */
struct FingerprintField
{
    enum Kind : uint8_t
    {
        Shape,
        Reserved,
        Segment, ///< tables per streamed segment frame
        Ot,      ///< OT protocol byte
        Cached,  ///< 1 = this session reuses the base-OT setup
    };
    Kind kind = Shape;
    uint8_t width = 4;     ///< bytes on the wire: 1, 4 or 8
    const char *name = ""; ///< Shape fields, for the mismatch message
    uint64_t value = 0;    ///< Shape fields
};

/** Input wires [first, first + count) of garbled unit @p unit. */
struct WireRun
{
    uint32_t unit = 0;
    WireId first = 0;
    uint32_t count = 1;
};

/**
 * A slot list: input wires of the garbled units, in wire order, with
 * this party's bit for each where it has one — the garbler's values
 * for labels it sends, the evaluator's choices for OT ports. The other
 * party's values are never read and may be left empty.
 */
struct InputSlots
{
    std::vector<WireRun> runs;
    std::vector<bool> values;

    /** Append one wire and its value. */
    void
    add(uint32_t unit, WireId wire, bool value)
    {
        runs.push_back({unit, wire, 1});
        values.push_back(value);
    }

    /** Wires across all runs. */
    size_t
    size() const
    {
        size_t n = 0;
        for (const WireRun &r : runs)
            n += r.count;
        return n;
    }
};

/** Output bit @p bit of garbled unit @p unit. */
struct OutputSlot
{
    uint32_t unit = 0;
    uint32_t bit = 0;
};

/**
 * A unit input wire driven by an earlier unit's output through a link
 * table. The garbler fills @p table; the evaluator receives it.
 */
struct LinkSlot
{
    WireId wire = 0;
    OutputSlot from;
    LinkTable table;
};

/** One garbled unit: a netlist and, on the garbler, its garbling. */
struct SessionUnit
{
    const Netlist *netlist = nullptr;
    StreamingGarbler *live = nullptr; ///< garbler: this or captured
    const GarbledInstance *captured = nullptr;
    /** Links into this unit, in session link order: the unit's tables
     *  follow one link-table frame when there are any. */
    std::vector<LinkSlot> links;
};

/**
 * A session described as data: what each of the body's phases sends,
 * and in what order. Both parties lower the same public circuit to
 * the same layout, so their windows line up byte for byte.
 */
struct SessionLayout
{
    std::vector<FingerprintField> fingerprint;
    std::vector<SessionUnit> units;
    /** Evaluator-driven inputs, one OT each, in batch order. */
    InputSlots otPorts;
    /** Garbler labels sent after the OT batch, counted as OT bytes. */
    InputSlots otWindowLabels;
    /** Garbler labels of the input-label window. */
    InputSlots directLabels;
    std::vector<OutputSlot> outputs;
    /** Start of the session's wall time (RemoteResult::seconds). */
    std::chrono::steady_clock::time_point start =
        std::chrono::steady_clock::now();
};

/**
 * The garbler's session body over an established (handshaken)
 * transport. Fills every RemoteResult field but the lowering's own:
 * pooledGarbling and the chain counters components, links and
 * pooledComponents.
 */
RemoteResult runGarblerSession(const SessionLayout &session,
                               Transport &transport,
                               const RemoteOptions &opts);

/**
 * The evaluator's session body. Throws NetError before sending
 * anything when the garbler's fingerprint disagrees with
 * @p session's or names any OT but IKNP.
 */
RemoteResult runEvaluatorSession(const SessionLayout &session,
                                 Transport &transport,
                                 const RemoteOptions &opts);

/**
 * Run the garbler's side over an established (handshaken) transport.
 *
 * @param garbler_bits this party's input bits (size numGarblerInputs).
 */
RemoteResult runRemoteGarbler(const Netlist &netlist,
                              const std::vector<bool> &garbler_bits,
                              Transport &transport, uint64_t seed,
                              const RemoteOptions &opts = {});

/**
 * Garbler's side replaying a pre-garbled @p instance (gc/instance.h)
 * instead of garbling inline: labels and tables come from the
 * capture, so the session-time cost is OT + streaming only. Traffic
 * is byte-identical to the inline overload at the instance's seed.
 *
 * @p instance must have been captured from this exact @p netlist and
 * must never be replayed twice (label reuse across sessions).
 */
RemoteResult runRemoteGarbler(const Netlist &netlist,
                              const std::vector<bool> &garbler_bits,
                              Transport &transport,
                              const GarbledInstance &instance,
                              const RemoteOptions &opts = {});

/**
 * Run the evaluator's side over an established (handshaken) transport.
 *
 * Throws NetError before sending anything when the garbler's
 * fingerprint names another circuit or any OT but IKNP.
 *
 * @param evaluator_bits this party's input bits.
 */
RemoteResult runRemoteEvaluator(const Netlist &netlist,
                                const std::vector<bool> &evaluator_bits,
                                Transport &transport,
                                const RemoteOptions &opts = {});

} // namespace haac

#endif // HAAC_NET_REMOTE_H
