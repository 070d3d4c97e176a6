#include "chain/link.h"

#include <chrono>
#include <stdexcept>

#include "circuit/analyze.h"
#include "crypto/prg.h"

namespace haac {
namespace chain {

namespace {

void
fnv1a(uint64_t &h, uint64_t v)
{
    for (int i = 0; i < 8; ++i) {
        h ^= (v >> (8 * i)) & 0xff;
        h *= 0x100000001b3ull;
    }
}

void
requireValidPlan(const ChainPlan &plan, const char *who)
{
    const std::string err = plan.check();
    if (!err.empty())
        throw std::invalid_argument(std::string(who) + ": " + err);
}

/**
 * A chained session: one unit per node, whose link-driven ports become
 * its link slots. Evaluator-driven ports are the OT ports; garbler and
 * constant ports, then each node's constant-one label, fill the
 * input-label window; all in plan scan order. Each party passes its
 * own bits and leaves the other's empty.
 */
SessionLayout
lowerPlan(const ChainPlan &plan, const std::vector<Netlist> &nls,
          const std::vector<bool> &garbler_bits,
          const std::vector<bool> &evaluator_bits)
{
    using F = FingerprintField;
    SessionLayout s;
    s.fingerprint = {{F::Shape, 8, "hash", plan.hash()},
                     {F::Shape, 4, "nodes", uint32_t(plan.nodes.size())},
                     {F::Shape, 4, "links", plan.numLinks()},
                     {F::Shape, 4, "g", plan.garblerInputs},
                     {F::Shape, 4, "e", plan.evaluatorInputs},
                     {F::Shape, 4, "outs", uint32_t(plan.outputs.size())},
                     {F::Segment, 4},
                     {F::Reserved, 8},
                     {F::Ot, 1},
                     {F::Cached, 1}};
    s.units.resize(plan.nodes.size());
    for (uint32_t n = 0; n < plan.nodes.size(); ++n) {
        s.units[n].netlist = &nls[n];
        for (WireId i = 0; i < plan.sources[n].size(); ++i) {
            const InputSource &src = plan.sources[n][i];
            switch (src.kind) {
            case SourceKind::Garbler:
                s.directLabels.add(n, i, !garbler_bits.empty() &&
                                             garbler_bits[src.index]);
                break;
            case SourceKind::Evaluator:
                s.otPorts.add(n, i, !evaluator_bits.empty() &&
                                        evaluator_bits[src.index]);
                break;
            case SourceKind::Link:
                s.units[n].links.push_back(
                    {i, {src.from.node, src.from.bit}, {}});
                break;
            case SourceKind::Zero:
            case SourceKind::One:
                s.directLabels.add(n, i, src.kind == SourceKind::One);
                break;
            }
        }
    }
    for (uint32_t n = 0; n < plan.nodes.size(); ++n)
        if (nls[n].constOne != kNoWire)
            s.directLabels.add(n, nls[n].constOne, true);
    for (const PortRef &ref : plan.outputs)
        s.outputs.push_back({ref.node, ref.bit});
    return s;
}

} // namespace

uint32_t
ChainPlan::numLinks() const
{
    uint32_t n = 0;
    for (const auto &node : sources)
        for (const InputSource &s : node)
            n += s.kind == SourceKind::Link ? 1 : 0;
    return n;
}

uint32_t
ChainPlan::numEvaluatorPorts() const
{
    uint32_t n = 0;
    for (const auto &node : sources)
        for (const InputSource &s : node)
            n += s.kind == SourceKind::Evaluator ? 1 : 0;
    return n;
}

uint32_t
ChainPlan::numDirectPorts() const
{
    uint32_t n = 0;
    for (const auto &node : sources)
        for (const InputSource &s : node)
            n += (s.kind == SourceKind::Garbler ||
                  s.kind == SourceKind::Zero ||
                  s.kind == SourceKind::One)
                     ? 1
                     : 0;
    return n;
}

uint64_t
ChainPlan::totalAndGates() const
{
    uint64_t n = 0;
    for (const ComponentSpec &spec : nodes)
        n += buildComponent(spec).numAndGates();
    return n;
}

uint64_t
ChainPlan::totalGates() const
{
    uint64_t n = 0;
    for (const ComponentSpec &spec : nodes)
        n += buildComponent(spec).numGates();
    return n;
}

std::string
ChainPlan::check() const
{
    // The structural half of the circuit analyzer, first violation
    // only. deep must stay false: the deep pass flattens through
    // monolithic(), which re-validates through this very function.
    AnalyzeOptions opts;
    opts.warnings = false;
    opts.deep = false;
    return analyzeChainPlan(*this, opts).firstError();
}

std::vector<uint64_t>
planLinkTweaks(const ChainPlan &plan)
{
    std::vector<uint64_t> tweaks;
    tweaks.reserve(plan.numLinks());
    for (const auto &node : plan.sources)
        for (const InputSource &s : node)
            if (s.kind == SourceKind::Link)
                tweaks.push_back(linkTweakOf(tweaks.size()));
    return tweaks;
}

uint64_t
ChainPlan::hash() const
{
    uint64_t h = 0xcbf29ce484222325ull;
    fnv1a(h, garblerInputs);
    fnv1a(h, evaluatorInputs);
    fnv1a(h, nodes.size());
    for (size_t n = 0; n < nodes.size(); ++n) {
        fnv1a(h, uint64_t(nodes[n].kind));
        fnv1a(h, nodes[n].width);
        for (const InputSource &s : sources[n]) {
            fnv1a(h, uint64_t(s.kind));
            fnv1a(h, s.kind == SourceKind::Link
                         ? (uint64_t(s.from.node) << 32) | s.from.bit
                         : uint64_t(s.index));
        }
    }
    fnv1a(h, outputs.size());
    for (const PortRef &ref : outputs)
        fnv1a(h, (uint64_t(ref.node) << 32) | ref.bit);
    return h;
}

Netlist
ChainPlan::monolithic() const
{
    requireValidPlan(*this, "ChainPlan::monolithic");
    CircuitBuilder cb;
    const Bits g = cb.garblerInputs(garblerInputs);
    const Bits e = cb.evaluatorInputs(evaluatorInputs);
    std::vector<Bits> nodeOut;
    nodeOut.reserve(nodes.size());
    for (size_t n = 0; n < nodes.size(); ++n) {
        std::vector<Wire> in(sources[n].size());
        for (size_t i = 0; i < in.size(); ++i) {
            const InputSource &s = sources[n][i];
            switch (s.kind) {
            case SourceKind::Garbler:
                in[i] = g[s.index];
                break;
            case SourceKind::Evaluator:
                in[i] = e[s.index];
                break;
            case SourceKind::Link:
                in[i] = nodeOut[s.from.node][s.from.bit];
                break;
            case SourceKind::Zero:
                in[i] = cb.constant(false);
                break;
            case SourceKind::One:
                in[i] = cb.constant(true);
                break;
            }
        }
        nodeOut.push_back(emitComponent(cb, nodes[n], in));
    }
    for (const PortRef &ref : outputs)
        cb.addOutput(nodeOut[ref.node][ref.bit]);
    return cb.build();
}

std::vector<bool>
ChainPlan::evaluate(const std::vector<bool> &garbler_bits,
                    const std::vector<bool> &evaluator_bits) const
{
    requireValidPlan(*this, "ChainPlan::evaluate");
    if (garbler_bits.size() != garblerInputs ||
        evaluator_bits.size() != evaluatorInputs)
        throw std::invalid_argument(
            "ChainPlan::evaluate: wrong input count");
    std::vector<std::vector<bool>> nodeOut;
    nodeOut.reserve(nodes.size());
    for (size_t n = 0; n < nodes.size(); ++n) {
        std::vector<bool> in(sources[n].size());
        for (size_t i = 0; i < in.size(); ++i) {
            const InputSource &s = sources[n][i];
            switch (s.kind) {
            case SourceKind::Garbler:
                in[i] = garbler_bits[s.index];
                break;
            case SourceKind::Evaluator:
                in[i] = evaluator_bits[s.index];
                break;
            case SourceKind::Link:
                in[i] = nodeOut[s.from.node][s.from.bit];
                break;
            case SourceKind::Zero:
                in[i] = false;
                break;
            case SourceKind::One:
                in[i] = true;
                break;
            }
        }
        nodeOut.push_back(buildComponent(nodes[n]).evaluate(in, {}));
    }
    std::vector<bool> out(outputs.size());
    for (size_t i = 0; i < outputs.size(); ++i)
        out[i] = nodeOut[outputs[i].node][outputs[i].bit];
    return out;
}

std::vector<LinkTable>
buildLinkTables(const ChainPlan &plan,
                const std::vector<const GarbledComponent *> &components)
{
    if (components.size() != plan.nodes.size())
        throw std::invalid_argument(
            "buildLinkTables: one component per plan node required");
    std::vector<LinkTable> tables;
    tables.reserve(plan.numLinks());
    uint64_t link = 0;
    for (size_t n = 0; n < plan.nodes.size(); ++n) {
        const GarbledInstance &cons = components[n]->inst;
        for (size_t i = 0; i < plan.sources[n].size(); ++i) {
            const InputSource &s = plan.sources[n][i];
            if (s.kind != SourceKind::Link)
                continue;
            const GarbledInstance &prod = components[s.from.node]->inst;
            tables.push_back(buildLinkTable(
                prod.outputZero[s.from.bit], prod.globalOffset,
                cons.inputZero[i], cons.globalOffset, link));
            ++link;
        }
    }
    return tables;
}

ComponentProvider
freshComponentProvider(uint64_t seed_base)
{
    return [seed_base](uint32_t node, const ComponentSpec &spec) {
        const uint64_t seed =
            seed_base != 0 ? seed_base + node : randomSeed();
        AcquiredComponent acq;
        acq.component = std::make_unique<GarbledComponent>(
            captureComponent(spec, seed));
        return acq;
    };
}

RemoteResult
runChainGarbler(const ChainPlan &plan,
                const std::vector<bool> &garbler_bits,
                Transport &transport, const ComponentProvider &provider,
                const RemoteOptions &opts)
{
    requireValidPlan(plan, "runChainGarbler");
    if (garbler_bits.size() != plan.garblerInputs)
        throw std::invalid_argument(
            "runChainGarbler: wrong garbler input count");
    const auto start = std::chrono::steady_clock::now();

    // Acquire one garbled component per node (pool or inline) and
    // validate each against its spec's netlist shape.
    std::vector<std::unique_ptr<GarbledComponent>> owned;
    std::vector<const GarbledComponent *> comps;
    std::vector<Netlist> nls;
    uint32_t pooled = 0;
    for (uint32_t n = 0; n < plan.nodes.size(); ++n) {
        AcquiredComponent acq = provider(n, plan.nodes[n]);
        if (acq.component == nullptr ||
            !(acq.component->spec == plan.nodes[n]))
            throw std::invalid_argument(
                "runChainGarbler: provider returned the wrong "
                "component for node " +
                std::to_string(n));
        nls.push_back(buildComponent(plan.nodes[n]));
        const GarbledInstance &inst = acq.component->inst;
        if (inst.inputZero.size() != nls.back().numInputs() ||
            inst.outputZero.size() != nls.back().outputs.size() ||
            inst.tables.size() != nls.back().numAndGates())
            throw std::invalid_argument(
                "runChainGarbler: component for node " +
                std::to_string(n) + " does not match " +
                plan.nodes[n].name());
        pooled += acq.pooled ? 1 : 0;
        owned.push_back(std::move(acq.component));
        comps.push_back(owned.back().get());
    }

    SessionLayout session = lowerPlan(plan, nls, garbler_bits, {});
    session.start = start;
    const std::vector<LinkTable> tables = buildLinkTables(plan, comps);
    size_t next = 0;
    for (uint32_t n = 0; n < plan.nodes.size(); ++n) {
        session.units[n].captured = &comps[n]->inst;
        for (LinkSlot &l : session.units[n].links)
            l.table = tables[next++];
    }
    RemoteResult res = runGarblerSession(session, transport, opts);
    res.components = uint32_t(plan.nodes.size());
    res.links = plan.numLinks();
    res.pooledComponents = pooled;
    return res;
}

RemoteResult
runChainGarbler(const ChainPlan &plan,
                const std::vector<bool> &garbler_bits,
                Transport &transport, uint64_t seed_base,
                const RemoteOptions &opts)
{
    return runChainGarbler(plan, garbler_bits, transport,
                           freshComponentProvider(seed_base), opts);
}

RemoteResult
runChainEvaluator(const ChainPlan &plan,
                  const std::vector<bool> &evaluator_bits,
                  Transport &transport, const RemoteOptions &opts)
{
    requireValidPlan(plan, "runChainEvaluator");
    if (evaluator_bits.size() != plan.evaluatorInputs)
        throw std::invalid_argument(
            "runChainEvaluator: wrong evaluator input count");
    const auto start = std::chrono::steady_clock::now();

    std::vector<Netlist> nls;
    nls.reserve(plan.nodes.size());
    for (const ComponentSpec &spec : plan.nodes)
        nls.push_back(buildComponent(spec));
    SessionLayout session = lowerPlan(plan, nls, {}, evaluator_bits);
    session.start = start;
    RemoteResult res = runEvaluatorSession(session, transport, opts);
    res.components = uint32_t(plan.nodes.size());
    res.links = plan.numLinks();
    return res;
}

} // namespace chain
} // namespace haac
