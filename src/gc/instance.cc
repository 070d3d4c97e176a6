#include "gc/instance.h"

#include "gc/streaming.h"

namespace haac {

size_t
GarbledInstance::byteSize() const
{
    return (inputZero.size() + outputZero.size() + 1) * kLabelBytes +
           tables.size() * kTableBytes;
}

GarbledInstance
captureGarbling(const Netlist &netlist, uint64_t seed)
{
    StreamingGarbler garbler(netlist, seed);
    GarbledInstance inst;
    inst.globalOffset = garbler.globalOffset();
    inst.inputZero.reserve(netlist.numInputs());
    for (WireId w = 0; w < netlist.numInputs(); ++w)
        inst.inputZero.push_back(garbler.inputZeroLabel(w));
    inst.tables.resize(netlist.numAndGates());
    garbler.garbleInto(inst.tables.data(), inst.tables.size());
    inst.outputZero = garbler.outputZeroLabels();
    return inst;
}

} // namespace haac
