/**
 * @file
 * Streaming garble/evaluate: the gate kernel (gc/garble.h) driven a
 * chunk of tables at a time, with tables handed to and pulled from
 * the caller instead of materialized per circuit.
 *
 * This is how a real deployment pipelines: the Garbler streams each
 * segment of AND tables onto the wire the moment it is produced, and
 * the Evaluator consumes them in order — exactly the producer/consumer
 * discipline HAAC's table queues implement in hardware (§3.1.2). The
 * chunk size never changes a result: any chunking is bit-identical to
 * one pass.
 */
#ifndef HAAC_GC_STREAMING_H
#define HAAC_GC_STREAMING_H

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "circuit/netlist.h"
#include "crypto/label.h"
#include "gc/garble.h"

namespace haac {

/** Receives each AND gate's table, in gate order. */
using TableSink = std::function<void(const GarbledTable &)>;

/** Supplies the next table on demand, in gate order. */
using TableSource = std::function<GarbledTable()>;

/** Receives the next @p n tables, in gate order. */
using TableChunkSink = std::function<void(const GarbledTable *, size_t)>;

/** Fills @p out with the next @p n tables, in gate order. */
using TableChunkSource = std::function<void(GarbledTable *out, size_t n)>;

/**
 * Two-phase streaming garbler, for protocols that must transfer input
 * labels *before* the table stream starts (a remote evaluator needs
 * its input labels up front so it can consume tables as they arrive).
 *
 * Construction draws the global offset and all primary-input labels
 * from the seed's PRG; garbling then runs the gate kernel, emitting
 * tables a chunk at a time. Deterministic per seed.
 */
class StreamingGarbler
{
  public:
    StreamingGarbler(const Netlist &netlist, uint64_t seed);

    const Netlist &netlist() const { return *netlist_; }
    const Label &globalOffset() const { return r_; }

    /** Zero-label of a primary input wire (w < numInputs()). */
    const Label &inputZeroLabel(WireId w) const { return zero_[w]; }

    /** Active label encoding @p value on primary input wire @p w. */
    Label
    activeLabel(WireId w, bool value) const
    {
        return value ? zero_[w] ^ r_ : zero_[w];
    }

    /**
     * Garble onward into @p out (room for @p capacity tables).
     *
     * @return tables written; done() once every gate is garbled.
     */
    size_t garbleInto(GarbledTable *out, size_t capacity);

    bool done() const { return cursor_.done(*netlist_); }

    /**
     * Garble every gate, handing @p sink chunks of up to
     * @p chunk_tables tables (a streamed segment). Callable once.
     */
    void run(uint32_t chunk_tables, const TableChunkSink &sink);

    /** As above, one table per @p sink call. */
    void run(const TableSink &sink);

    /** @name Valid once done() */
    /// @{
    const std::vector<Label> &outputZeroLabels() const { return outZero_; }
    uint64_t tablesEmitted() const { return cursor_.andIndex; }

    /** Output decode bit i (lsb of the output's zero label). */
    bool
    decodeBit(size_t i) const
    {
        return outZero_[i].lsb();
    }
    /// @}

  private:
    const Netlist *netlist_;
    Label r_;
    std::vector<Label> zero_; ///< inputs at ctor; all wires once done
    std::vector<Label> outZero_;
    GateCursor cursor_;
    bool ran_ = false;
};

/**
 * Evaluate with tables pulled from @p source, asking for
 * min(@p chunk_tables, tables left) at a time.
 *
 * @return active labels of the primary outputs.
 */
std::vector<Label>
evaluateStreaming(const Netlist &netlist,
                  const std::vector<Label> &input_labels,
                  uint32_t chunk_tables, const TableChunkSource &source);

/** As above, one table per @p source call. */
std::vector<Label>
evaluateStreaming(const Netlist &netlist,
                  const std::vector<Label> &input_labels,
                  const TableSource &source);

/**
 * Evaluate over every AND table of the circuit at once.
 *
 * @throws TableCountError unless @p tables holds exactly
 *         netlist.numAndGates() tables.
 * @return active labels of the primary outputs.
 */
std::vector<Label> evaluateTables(const Netlist &netlist,
                                  const std::vector<Label> &input_labels,
                                  const std::vector<GarbledTable> &tables);

} // namespace haac

#endif // HAAC_GC_STREAMING_H
