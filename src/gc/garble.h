/**
 * @file
 * The Half-Gate garbling kernel (the paper's GE datapath, in software).
 *
 * FreeXOR (Kolesnikov-Schneider) + Half-Gates (Zahur-Rosulek-Evans)
 * with the re-keyed hash HAAC adopts for security. Per AND gate i the
 * Garbler performs two key expansions (tweaks 2i and 2i+1) and four
 * AES hashes, the Evaluator two and two, each party in one fused
 * hashRekeyedFused() call; XOR gates cost one 128-bit XOR. The formula is written once here, templated on the hash, and
 * the gate kernel below is the only loop over netlist gates in src/gc:
 * every garbling and evaluation (StreamingGarbler, captureGarbling,
 * evaluateStreaming, the protocols, the chain linker) runs through
 * it, a chunk of tables at a time — the table queue of §3.1.2. This is
 * both the protocol implementation and the functional reference the
 * hardware model is validated against (paper §5 "Correctness").
 */
#ifndef HAAC_GC_GARBLE_H
#define HAAC_GC_GARBLE_H

#include <array>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "circuit/netlist.h"
#include "crypto/hash.h"
#include "crypto/label.h"

namespace haac {

/** Garbling of a single AND gate, shared by software and HW models. */
struct HalfGateGarbled
{
    GarbledTable table;
    Label outZero;
};

/**
 * Hash policy: hash(i, x) returns all of AND gate i's hashes in one
 * call, the first half of @p x under tweak 2i and the second half
 * under 2i+1 — four blocks when garbling, two when evaluating. The
 * re-keyed policy is one fused pass through both tweak keys (the
 * Fig. 2 datapath: 2 expansions, 4 AES).
 */
struct RekeyedGateHash
{
    template <size_t N>
    std::array<Label, N>
    operator()(uint64_t gate_index, const std::array<Label, N> &x) const
    {
        std::array<Label, N> out;
        hashRekeyedFused(2 * gate_index, x.data(), int(N / 2), int(N / 2),
                         out.data());
        return out;
    }
};

/** Fixed-key hash policy (ablation only; one shared AES key). */
struct FixedKeyGateHash
{
    const FixedKeyHasher &h;

    template <size_t N>
    std::array<Label, N>
    operator()(uint64_t gate_index, const std::array<Label, N> &x) const
    {
        std::array<Label, N> out;
        h(2 * gate_index, x.data(), int(N / 2), int(N / 2), out.data());
        return out;
    }
};

/**
 * Garble one AND gate.
 *
 * @param a0,b0 zero-labels of the inputs.
 * @param r global FreeXOR offset (lsb must be 1).
 * @param gate_index used for the tweaks 2i, 2i+1.
 */
template <typename Hash = RekeyedGateHash>
HalfGateGarbled
garbleAnd(const Label &a0, const Label &b0, const Label &r,
          uint64_t gate_index, const Hash &hash = {})
{
    const bool pa = a0.lsb();
    const bool pb = b0.lsb();
    const auto [ha0, ha1, hb0, hb1] =
        hash(gate_index, std::array<Label, 4>{a0, a0 ^ r, b0, b0 ^ r});

    HalfGateGarbled out;
    // Generator half.
    out.table.tg = ha0 ^ ha1;
    if (pb)
        out.table.tg ^= r;
    Label wg0 = ha0;
    if (pa)
        wg0 ^= out.table.tg;
    // Evaluator half.
    out.table.te = hb0 ^ hb1 ^ a0;
    Label we0 = hb0;
    if (pb)
        we0 ^= out.table.te ^ a0;
    out.outZero = wg0 ^ we0;
    return out;
}

/**
 * Evaluate one AND gate.
 *
 * @param a,b active input labels.
 * @param table the gate's garbled table.
 * @param gate_index must match the Garbler's tweak for this gate.
 */
template <typename Hash = RekeyedGateHash>
Label
evaluateAnd(const Label &a, const Label &b, const GarbledTable &table,
            uint64_t gate_index, const Hash &hash = {})
{
    auto [wg, we] = hash(gate_index, std::array<Label, 2>{a, b});
    if (a.lsb())
        wg ^= table.tg;
    if (b.lsb())
        we ^= table.te ^ a;
    return wg ^ we;
}

/** Position of a kernel run within a netlist: next gate, next AND. */
struct GateCursor
{
    uint32_t gate = 0;
    uint64_t andIndex = 0;

    bool done(const Netlist &nl) const { return gate == nl.numGates(); }
};

/**
 * Garble from @p cur onward, writing AND tables into @p tables.
 *
 * @param zero one zero label per wire; primary inputs must be set,
 *        every gate output the run passes is filled in.
 * @param capacity room in @p tables. The run stops at the end of the
 *        netlist or at the first AND gate that finds no room left.
 * @return tables written.
 */
size_t garbleGates(const Netlist &nl, const Label &r,
                   std::vector<Label> &zero, GateCursor &cur,
                   GarbledTable *tables, size_t capacity);

/**
 * Evaluate from @p cur onward, consuming AND tables from @p tables.
 *
 * @param labels one active label per wire; primary inputs must be set.
 * @param count tables available. The run stops at the end of the
 *        netlist or at the first AND gate once all are consumed.
 * @return tables consumed.
 */
size_t evaluateGates(const Netlist &nl, std::vector<Label> &labels,
                     GateCursor &cur, const GarbledTable *tables,
                     size_t count);

/**
 * @name Link tables: label translation between independent garblings
 *
 * A link joins a producer output wire of one garbling to a consumer
 * input wire of another (chain/link.h) with two rows:
 *
 *   row[lsb(Y_v)] = X_v ^ H(Y_v, linkTweakOf(link_index))   v in {0, 1}
 *
 * where Y_v / X_v are the producer's / consumer's labels for value v.
 * FreeXOR keeps lsb(offset) = 1, so the rows land in distinct slots
 * and an evaluator holding one Y decrypts exactly one row.
 */
/// @{

/**
 * Hash-tweak domain base for link-table rows. Garbling tweaks are
 * dense near zero, base OT uses "BOT_" (0x424f54...), the IKNP
 * extension "OTEX_" (0x4f5445...): the "CLNK" prefix keeps link
 * encryption in its own domain, offset by the plan-global link index.
 * The analyzer (circuit/analyze.h) proves every session tweak stays
 * inside this domain and is used exactly once.
 */
inline constexpr uint64_t kChainLinkTweakBase =
    0x434c4e4b00000000ull; // "CLNK"

/** The tweak keying link ordinal @p link_index. */
constexpr uint64_t
linkTweakOf(uint64_t link_index)
{
    return kChainLinkTweakBase + link_index;
}

/** One link's label-translation table (2 rows, 32 bytes). */
struct LinkTable
{
    Label row[2];
};

inline constexpr size_t kLinkTableBytes = 2 * kLabelBytes;

/**
 * Build the translation table joining a producer output wire to a
 * consumer input wire. @p link_index is the session-global link
 * ordinal: it keys the hash tweak, so every link in a session hashes
 * under a distinct key.
 */
LinkTable buildLinkTable(const Label &producer_zero,
                         const Label &producer_offset,
                         const Label &consumer_zero,
                         const Label &consumer_offset,
                         uint64_t link_index);

/** Evaluator side: producer's active label -> consumer's. */
Label translateLinkLabel(const LinkTable &table,
                         const Label &producer_active,
                         uint64_t link_index);
/// @}

/** The table count handed to an evaluation does not match the circuit. */
struct TableCountError : std::invalid_argument
{
    using std::invalid_argument::invalid_argument;
};

} // namespace haac

#endif // HAAC_GC_GARBLE_H
