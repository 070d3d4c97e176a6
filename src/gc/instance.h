/**
 * @file
 * GarbledInstance: one complete garbling, captured for later replay.
 *
 * The two-phase StreamingGarbler exists so a live protocol can ship
 * input labels before the tables; a GarbledInstance is the same
 * artifact decoupled from any wire — the global offset, every
 * primary-input zero label, the output zero labels, and the full
 * table vector, produced by one run of the gate kernel straight into
 * the instance's table vector. The serving layer's GarblePool
 * (serve/pool.h) builds these on background threads ahead of demand,
 * and runRemoteGarbler's instance overload (net/remote.h) replays one
 * to a remote evaluator with byte-for-byte the traffic of an inline
 * garbling.
 *
 * Security: an instance is one garbling — labels, offset, and table
 * tweak pads are all derived from its seed. Replaying the same
 * instance to two evaluators reuses labels across sessions, handing
 * the second evaluator both labels of every wire; every instance must
 * therefore be served at most once (the pool pops, never peeks).
 */
#ifndef HAAC_GC_INSTANCE_H
#define HAAC_GC_INSTANCE_H

#include <cstddef>
#include <cstdint>
#include <vector>

#include "circuit/netlist.h"
#include "crypto/label.h"

namespace haac {

struct GarbledInstance
{
    Label globalOffset;
    /** Zero labels of primary inputs (wires [0, numInputs)). */
    std::vector<Label> inputZero;
    /** Zero labels of the primary outputs, for decode bits. */
    std::vector<Label> outputZero;
    /** All AND-gate tables, in gate (= stream) order. */
    std::vector<GarbledTable> tables;

    /** Active label encoding @p value on primary input wire @p w. */
    Label
    activeLabel(WireId w, bool value) const
    {
        return value ? inputZero[w] ^ globalOffset : inputZero[w];
    }

    /** Output decode bit i (lsb of the output's zero label). */
    bool
    decodeBit(size_t i) const
    {
        return outputZero[i].lsb();
    }

    /** Resident size: labels + tables (pool capacity planning). */
    size_t byteSize() const;
};

/**
 * Garble @p netlist under @p seed and capture everything.
 *
 * Bit-identical to a StreamingGarbler at the same seed, so a
 * captured-then-replayed session matches an inline one exactly.
 */
GarbledInstance captureGarbling(const Netlist &netlist, uint64_t seed);

} // namespace haac

#endif // HAAC_GC_INSTANCE_H
