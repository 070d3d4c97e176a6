/**
 * @file
 * The two-machine GC protocol: one side of runProtocol() per process.
 *
 * Both parties hold the same Netlist (the circuit is public; a
 * 38-byte fingerprint exchanged up front catches disagreement before
 * any label moves and carries the garbler's segmenting + base-OT
 * cache decision). The protocol then runs the OT phase — base OT +
 * IKNP extension with the KOS15 check (gc/ot_ext.h) — after which the
 * garbler streams input labels, garbled tables in segments, and
 * decode bits, while the evaluator runs the gate kernel over each
 * segment the moment it arrives (gc/streaming.h): memory stays
 * O(wires) while communication is O(AND gates).
 *
 * Byte accounting matches the in-process ProtocolResult *exactly*,
 * category by category (tables, input labels, OT down- and uplink,
 * output decode): the four downlink categories count protocol payload
 * in the garbler→evaluator direction, otUplinkBytes the real OT's
 * evaluator→garbler traffic, all measured identically by both sides.
 * The circuit fingerprint and the result echo that lets the garbler
 * learn the output too are control traffic, reported separately — the
 * in-process baseline has no analogue for them.
 */
#ifndef HAAC_NET_REMOTE_H
#define HAAC_NET_REMOTE_H

#include <cstdint>
#include <memory>
#include <vector>

#include "circuit/netlist.h"
#include "gc/ot_ext.h"
#include "net/transport.h"

namespace haac {

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

/** True when @p cache (may be null) holds a ready extension sender. */
bool otSenderCached(const OtConnectionCache *cache);

/**
 * The garbler's OT phase: one IKNP batch offering (m0[i], m1[i]) over
 * @p chan. With @p reuse (announced in the fingerprint), the cache's
 * sender is rebound to @p chan; otherwise a fresh sender runs the base
 * phase and, when @p cache is set, is stored back for the next session.
 */
void sendOtBatch(ByteChannel &chan, OtConnectionCache *cache, bool reuse,
                 const std::vector<Label> &m0,
                 const std::vector<Label> &m1);

/**
 * The evaluator's mirror of sendOtBatch(): returns the label @p choices
 * selects from each pair. @p cached is the garbler's announcement; it
 * throws NetError when this connection has no ready receiver to reuse
 * (a cached sender against a fresh receiver would deadlock).
 */
std::vector<Label> receiveOtBatch(ByteChannel &chan,
                                  OtConnectionCache *cache, bool cached,
                                  const std::vector<bool> &choices);

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
 * One party's view of a completed remote execution: a monolithic
 * netlist (runRemoteGarbler / runRemoteEvaluator) or a chained plan
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
