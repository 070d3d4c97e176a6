/**
 * @file
 * The chain linker: solder pre-garbled components into one circuit.
 *
 * A ChainPlan is a DAG of component instances (chain/component.h)
 * plus port-to-port wiring. Each component was garbled independently,
 * with its own global offset and fresh labels; the linker joins a
 * producer output wire to a consumer input wire with a *label
 * translation table* — the SGC / aled1027-2pc "chaining" trick:
 *
 *   row[lsb(Y_v)] = X_v ^ H(Y_v, link_tweak)   for v in {0, 1}
 *
 * where Y_v are the producer's output labels and X_v the consumer's
 * input labels for plaintext value v. FreeXOR keeps lsb(offset) = 1
 * in every component, so the two rows land in distinct slots
 * (point-and-permute) and the evaluator — holding exactly one Y —
 * decrypts exactly one row: 32 bytes and two hashes per link, versus
 * two key expansions and four AES calls per AND gate garbled inline.
 * That gap is the whole point: with a warm ComponentPool
 * (serve/component_pool.h) the request-time cost of a circuit the
 * server has never seen is link tables only.
 *
 * runChainGarbler / runChainEvaluator run the two-party protocol over
 * an established Transport, mirroring net/remote.cc phase for phase:
 * fingerprint, IKNP OT for evaluator-driven ports, direct labels for
 * garbler/constant ports, then per node a link-table frame
 * (net/wire.h's kLinkTableFrameKind) followed by the component's AND
 * tables through the existing segment framing, finally decode bits
 * and the result echo. Both return the same RemoteResult as a
 * monolithic session, with its chain counters filled: byte accounting
 * is category-exact on both sides, linkBytes being the one category
 * a monolithic session never has.
 *
 * Security: each GarbledComponent must be linked into at most one
 * session (the provider contract); the translation rows of a reused
 * component hand a second evaluator both labels of every linked wire
 * — the PR 5/8 attack shape, replayed in tests/test_chain.cc. The
 * protocol is honest-but-curious like the rest of the stack; a
 * malformed plan is rejected by check() before any label moves.
 */
#ifndef HAAC_CHAIN_LINK_H
#define HAAC_CHAIN_LINK_H

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "chain/component.h"
#include "circuit/netlist.h"
#include "crypto/label.h"
#include "net/remote.h"
#include "net/transport.h"

namespace haac {
namespace chain {

/** One component output bit: node's @p bit-th output wire. */
struct PortRef
{
    uint32_t node = 0;
    uint32_t bit = 0;
};

/** What drives one component input bit. */
enum class SourceKind : uint8_t
{
    Garbler = 0,   ///< plan garbler input bit `index`
    Evaluator = 1, ///< plan evaluator input bit `index` (via OT)
    Link = 2,      ///< an earlier node's output port `from`
    Zero = 3,      ///< public constant 0
    One = 4,       ///< public constant 1
};

struct InputSource
{
    SourceKind kind = SourceKind::Zero;
    /** Plan input bit (Garbler / Evaluator kinds). Two ports may name
     *  the same index: that plan input fans out to both. */
    uint32_t index = 0;
    /** Producing port (Link kind). */
    PortRef from;

    static InputSource
    garbler(uint32_t i)
    {
        return {SourceKind::Garbler, i, {}};
    }
    static InputSource
    evaluator(uint32_t i)
    {
        return {SourceKind::Evaluator, i, {}};
    }
    static InputSource
    link(uint32_t node, uint32_t bit)
    {
        return {SourceKind::Link, 0, {node, bit}};
    }
    static InputSource
    zero()
    {
        return {SourceKind::Zero, 0, {}};
    }
    static InputSource
    one()
    {
        return {SourceKind::One, 0, {}};
    }
};

/** Upper bound on nodes per plan (hostile-plan backstop). */
inline constexpr uint32_t kMaxChainNodes = 1u << 16;
/** Upper bound on declared plan inputs per party. */
inline constexpr uint32_t kMaxChainInputs = 1u << 20;

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

/**
 * A chaining plan: component DAG + wiring + output selection.
 *
 * Nodes are topologically ordered by construction: a Link source may
 * only name a strictly earlier node. Plan inputs are declared by
 * count; sources reference them by index, so one plan input can fan
 * out to any number of component ports.
 */
struct ChainPlan
{
    std::string name;
    uint32_t garblerInputs = 0;
    uint32_t evaluatorInputs = 0;
    std::vector<ComponentSpec> nodes;
    /** sources[n][i] drives input bit i of node n
     *  (size nodes[n].inputBits()). */
    std::vector<std::vector<InputSource>> sources;
    /** Plan outputs, in user order. */
    std::vector<PortRef> outputs;

    /** Link-driven ports across all nodes (= translation tables). */
    uint32_t numLinks() const;
    /** Evaluator-driven ports (= OTs; fan-out counts per port). */
    uint32_t numEvaluatorPorts() const;
    /** Garbler-driven plus constant ports (direct labels). */
    uint32_t numDirectPorts() const;
    uint64_t totalAndGates() const;
    uint64_t totalGates() const;

    /** Empty when well-formed; else the first violation. */
    std::string check() const;

    /** Structural FNV-1a hash (name excluded); the protocol
     *  fingerprint compares it across the wire. */
    uint64_t hash() const;

    /**
     * The equivalent single netlist — same components inlined into
     * one CircuitBuilder with plan inputs declared once. This is what
     * a non-chaining server would garble for the same request;
     * chained evaluation must be bit-identical to it.
     */
    Netlist monolithic() const;

    /** Plaintext evaluation, component by component. */
    std::vector<bool> evaluate(const std::vector<bool> &garbler_bits,
                               const std::vector<bool> &evaluator_bits)
        const;
};

/** One link's label-translation table (2 rows, 32 bytes). */
struct LinkTable
{
    Label row[2];
};

inline constexpr size_t kLinkTableBytes = 2 * kLabelBytes;

/**
 * Build the translation table joining a producer output wire to a
 * consumer input wire. @p link_index is the plan-global link ordinal
 * (scan order over nodes, then input bits): it keys the hash tweak,
 * so every link in a session hashes under a distinct key.
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

/**
 * All of a plan's link tables, in plan-global link order.
 * @p components holds one garbled component per node. This is the
 * entire request-time cryptographic cost of a chained garbling — the
 * quantity bench/chain_link pits against inline monolithic garbling.
 */
std::vector<LinkTable>
buildLinkTables(const ChainPlan &plan,
                const std::vector<const GarbledComponent *> &components);

/**
 * Every hash tweak a chained session will use, in plan-global link
 * order: linkTweakOf(0 .. numLinks()-1). This is the assignment the
 * analyzer audits for reuse/domain violations; tests inject corrupted
 * copies through AnalyzeOptions::linkTweaks.
 */
std::vector<uint64_t> planLinkTweaks(const ChainPlan &plan);

/** One component handed to the protocol, with its provenance. */
struct AcquiredComponent
{
    std::unique_ptr<GarbledComponent> component;
    /** Came from a ComponentPool (pre-garbled off the request path). */
    bool pooled = false;
};

/**
 * Supplies the garbled component for plan node @p node. The protocol
 * takes ownership; a provider must never hand out the same garbling
 * twice (see the file comment). serve/component_pool.h supplies a
 * pool-backed provider; freshComponentProvider garbles on demand.
 */
using ComponentProvider =
    std::function<AcquiredComponent(uint32_t node,
                                    const ComponentSpec &spec)>;

/**
 * A provider that garbles each component inline. @p seed_base == 0
 * draws every seed from OS entropy (the only safe setting against a
 * real peer); otherwise node n garbles under seed_base + n, for
 * deterministic tests.
 */
ComponentProvider freshComponentProvider(uint64_t seed_base = 0);

/**
 * Garbler side of the chained protocol over an established
 * (handshaken) transport. Components come from @p provider.
 *
 * @param garbler_bits this party's plan inputs (size garblerInputs).
 */
RemoteResult runChainGarbler(const ChainPlan &plan,
                             const std::vector<bool> &garbler_bits,
                             Transport &transport,
                             const ComponentProvider &provider,
                             const RemoteOptions &opts = {});

/** Convenience overload: fresh components from seed_base + node. */
RemoteResult runChainGarbler(const ChainPlan &plan,
                             const std::vector<bool> &garbler_bits,
                             Transport &transport, uint64_t seed_base,
                             const RemoteOptions &opts = {});

/** Evaluator side; both parties hold the (public) plan. */
RemoteResult runChainEvaluator(const ChainPlan &plan,
                               const std::vector<bool> &evaluator_bits,
                               Transport &transport,
                               const RemoteOptions &opts = {});

} // namespace chain
} // namespace haac

#endif // HAAC_CHAIN_LINK_H
