#include "gc/garble.h"

namespace haac {

size_t
garbleGates(const Netlist &nl, const Label &r, std::vector<Label> &zero,
            GateCursor &cur, GarbledTable *tables, size_t capacity)
{
    size_t written = 0;
    uint32_t g = cur.gate;
    for (; g < nl.numGates(); ++g) {
        const Gate &gate = nl.gates[g];
        const WireId out = nl.outputWireOf(g);
        if (gate.op == GateOp::Xor) {
            zero[out] = zero[gate.a] ^ zero[gate.b];
            continue;
        }
        if (written == capacity)
            break;
        const HalfGateGarbled hg =
            garbleAnd(zero[gate.a], zero[gate.b], r, cur.andIndex++);
        tables[written++] = hg.table;
        zero[out] = hg.outZero;
    }
    cur.gate = g;
    return written;
}

size_t
evaluateGates(const Netlist &nl, std::vector<Label> &labels,
              GateCursor &cur, const GarbledTable *tables, size_t count)
{
    size_t used = 0;
    uint32_t g = cur.gate;
    for (; g < nl.numGates(); ++g) {
        const Gate &gate = nl.gates[g];
        const WireId out = nl.outputWireOf(g);
        if (gate.op == GateOp::Xor) {
            labels[out] = labels[gate.a] ^ labels[gate.b];
            continue;
        }
        if (used == count)
            break;
        labels[out] = evaluateAnd(labels[gate.a], labels[gate.b],
                                  tables[used++], cur.andIndex++);
    }
    cur.gate = g;
    return used;
}

} // namespace haac
