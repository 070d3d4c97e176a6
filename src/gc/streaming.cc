#include "gc/streaming.h"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "crypto/prg.h"

namespace haac {

namespace {

/** Chunk size behind the one-table-at-a-time overloads. */
constexpr uint32_t kSingleTableChunk = 1024;

/** A chunk buffer's size: at least one table, at most the circuit's. */
size_t
chunkSize(uint32_t chunk_tables, uint64_t and_gates)
{
    return size_t(std::min<uint64_t>(std::max<uint32_t>(chunk_tables, 1),
                                     and_gates));
}

std::vector<Label>
wireLabels(const Netlist &nl, const std::vector<Label> &input_labels)
{
    if (input_labels.size() != nl.numInputs())
        throw std::invalid_argument("evaluate: wrong input label count");
    std::vector<Label> labels(nl.numWires());
    std::copy(input_labels.begin(), input_labels.end(), labels.begin());
    return labels;
}

std::vector<Label>
outputLabels(const Netlist &nl, const std::vector<Label> &labels)
{
    std::vector<Label> out;
    out.reserve(nl.outputs.size());
    for (WireId w : nl.outputs)
        out.push_back(labels[w]);
    return out;
}

} // namespace

StreamingGarbler::StreamingGarbler(const Netlist &netlist, uint64_t seed)
    : netlist_(&netlist)
{
    Prg prg(seed);
    r_ = prg.nextLabel();
    r_.setLsb(true); // point-and-permute requires lsb(R) == 1

    zero_.resize(netlist.numWires());
    for (uint32_t w = 0; w < netlist.numInputs(); ++w)
        zero_[w] = prg.nextLabel();
}

size_t
StreamingGarbler::garbleInto(GarbledTable *out, size_t capacity)
{
    const size_t n =
        garbleGates(*netlist_, r_, zero_, cursor_, out, capacity);
    if (done())
        outZero_ = outputLabels(*netlist_, zero_);
    return n;
}

void
StreamingGarbler::run(uint32_t chunk_tables, const TableChunkSink &sink)
{
    if (ran_)
        throw std::logic_error("StreamingGarbler::run called twice");
    ran_ = true;
    std::vector<GarbledTable> chunk(
        chunkSize(chunk_tables, netlist_->numAndGates()));
    do {
        const size_t n = garbleInto(chunk.data(), chunk.size());
        if (n > 0)
            sink(chunk.data(), n);
    } while (!done());
}

void
StreamingGarbler::run(const TableSink &sink)
{
    run(kSingleTableChunk, [&](const GarbledTable *tables, size_t n) {
        for (size_t i = 0; i < n; ++i)
            sink(tables[i]);
    });
}

std::vector<Label>
evaluateStreaming(const Netlist &netlist,
                  const std::vector<Label> &input_labels,
                  uint32_t chunk_tables, const TableChunkSource &source)
{
    std::vector<Label> labels = wireLabels(netlist, input_labels);
    const uint64_t ands = netlist.numAndGates();
    std::vector<GarbledTable> chunk(chunkSize(chunk_tables, ands));
    GateCursor cur;
    do {
        const size_t n =
            size_t(std::min<uint64_t>(chunk.size(), ands - cur.andIndex));
        if (n > 0)
            source(chunk.data(), n);
        evaluateGates(netlist, labels, cur, chunk.data(), n);
    } while (!cur.done(netlist));
    return outputLabels(netlist, labels);
}

std::vector<Label>
evaluateStreaming(const Netlist &netlist,
                  const std::vector<Label> &input_labels,
                  const TableSource &source)
{
    return evaluateStreaming(
        netlist, input_labels, kSingleTableChunk,
        [&](GarbledTable *out, size_t n) {
            for (size_t i = 0; i < n; ++i)
                out[i] = source();
        });
}

std::vector<Label>
evaluateTables(const Netlist &netlist,
               const std::vector<Label> &input_labels,
               const std::vector<GarbledTable> &tables)
{
    if (tables.size() != netlist.numAndGates())
        throw TableCountError(
            "evaluate: " + std::to_string(tables.size()) +
            " tables for " + std::to_string(netlist.numAndGates()) +
            " AND gates");
    std::vector<Label> labels = wireLabels(netlist, input_labels);
    GateCursor cur;
    evaluateGates(netlist, labels, cur, tables.data(), tables.size());
    return outputLabels(netlist, labels);
}

} // namespace haac
