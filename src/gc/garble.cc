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

LinkTable
buildLinkTable(const Label &producer_zero, const Label &producer_offset,
               const Label &consumer_zero, const Label &consumer_offset,
               uint64_t link_index)
{
    const Label y1 = producer_zero ^ producer_offset;
    const Label x1 = consumer_zero ^ consumer_offset;
    Label h[2] = {producer_zero, y1};
    hashRekeyedFused(linkTweakOf(link_index), h, 2, 0, h);
    LinkTable t;
    t.row[producer_zero.lsb() ? 1 : 0] = consumer_zero ^ h[0];
    t.row[y1.lsb() ? 1 : 0] = x1 ^ h[1];
    return t;
}

Label
translateLinkLabel(const LinkTable &table, const Label &producer_active,
                   uint64_t link_index)
{
    Label h;
    hashRekeyedFused(linkTweakOf(link_index), &producer_active, 1, 0, &h);
    return table.row[producer_active.lsb() ? 1 : 0] ^ h;
}

} // namespace haac
