#include "circuit/analyze.h"

#include <algorithm>
#include <sstream>
#include <unordered_map>

#include "chain/link.h"

namespace haac {

namespace {

/** The options, the findings so far and the deep pass's cost. */
struct Accumulator
{
    const AnalyzeOptions &opts;
    LintReport rep;
    CircuitCost cost;

    explicit Accumulator(const AnalyzeOptions &o) : opts(o) {}

    void
    error(LintCode code, uint32_t site, WireId wire, std::string msg)
    {
        rep.add({code, Severity::Error, site, wire, 0, std::move(msg)});
    }

    void
    warn(LintCode code, uint32_t site, WireId wire, std::string msg)
    {
        if (opts.warnings)
            rep.add({code, Severity::Warning, site, wire, 0,
                     std::move(msg)});
    }
};

/** Three-point constant lattice per wire. */
enum : uint8_t
{
    kValZero = 0,
    kValOne = 1,
    kValTop = 2,
};

std::string
opName(GateOp op)
{
    return op == GateOp::And ? "AND" : "XOR";
}

/**
 * Structural pass: everything that must hold before any per-wire
 * array can be indexed. Returns false when the shape itself is
 * corrupt (the scan below would overflow).
 */
bool
checkNetlistStructure(const Netlist &nl, Accumulator &acc)
{
    const uint64_t inputs64 = uint64_t(nl.numGarblerInputs) +
                              nl.numEvaluatorInputs +
                              (nl.constOne == kNoWire ? 0 : 1);
    const uint64_t wires64 = inputs64 + nl.gates.size();
    if (wires64 > uint64_t(kNoWire)) {
        acc.error(LintCode::InputShape, kNoSite, kNoWire,
                  "declared inputs plus gates overflow the 32-bit "
                  "wire address space");
        return false;
    }
    const uint32_t inputs = uint32_t(inputs64);
    const uint32_t wires = uint32_t(wires64);

    if (nl.constOne != kNoWire && nl.constOne != inputs - 1)
        acc.error(LintCode::InputShape, kNoSite,
                  nl.constOne,
                  "constant-one wire " + std::to_string(nl.constOne) +
                      " is not the last primary input (wire " +
                      std::to_string(inputs - 1) + ")");

    for (uint32_t g = 0; g < nl.numGates(); ++g) {
        const Gate &gate = nl.gates[g];
        const WireId out = inputs + g;
        for (const WireId w : {gate.a, gate.b}) {
            if (w >= wires) {
                acc.error(LintCode::WireOutOfRange, g, w,
                          opName(gate.op) + " operand names wire " +
                              std::to_string(w) +
                              " past the address space (" +
                              std::to_string(wires) + " wires)");
            } else if (w >= out) {
                acc.error(
                    LintCode::GateUseBeforeDef, g, w,
                    opName(gate.op) + " operand names wire " +
                        std::to_string(w) +
                        " at/after its own output — a use before "
                        "definition, i.e. a combinational cycle");
            }
        }
    }

    for (uint32_t i = 0; i < nl.outputs.size(); ++i) {
        const WireId w = nl.outputs[i];
        if (w >= wires)
            acc.error(LintCode::DanglingOutput, i, w,
                      "output names undefined wire " +
                          std::to_string(w) + " (" +
                          std::to_string(wires) + " wires exist)");
    }
    return true;
}

/** Liveness, constants, taint, duplicates, cost — one pass each, all
 *  requiring a structurally clean netlist. */
void
analyzeNetlistDeep(const Netlist &nl, Accumulator &acc)
{
    const uint32_t inputs = nl.numInputs();
    const uint32_t wires = nl.numWires();

    // Reverse reachability from the outputs (the eliminateDeadGates
    // criterion, so DeadGate warnings vanish exactly when it runs).
    std::vector<bool> live(wires, false);
    for (WireId w : nl.outputs)
        live[w] = true;
    for (int g = int(nl.numGates()) - 1; g >= 0; --g) {
        if (!live[inputs + uint32_t(g)])
            continue;
        live[nl.gates[size_t(g)].a] = true;
        live[nl.gates[size_t(g)].b] = true;
    }

    // Fan-out counts (unused-input detection).
    std::vector<uint32_t> reads(wires, 0);
    for (const Gate &gate : nl.gates) {
        ++reads[gate.a];
        ++reads[gate.b];
    }

    // Constant propagation and input-dependence taint, forward. A
    // constant wire depends on nobody; otherwise dependence is the
    // union over operands.
    std::vector<uint8_t> val(wires, kValTop);
    std::vector<bool> depG(wires, false), depE(wires, false);
    for (uint32_t w = 0; w < nl.numGarblerInputs; ++w)
        depG[w] = true;
    for (uint32_t w = 0; w < nl.numEvaluatorInputs; ++w)
        depE[nl.numGarblerInputs + w] = true;
    if (nl.constOne != kNoWire)
        val[nl.constOne] = kValOne;


    // Structural hashing with transitive aliasing — the exact
    // mergeDuplicateGates criterion (optimize.cc), which is what makes
    // the analyzer the optimizer's referee.
    std::vector<WireId> alias(wires);
    for (uint32_t w = 0; w < wires; ++w)
        alias[w] = w;
    auto resolve = [&alias](WireId w) {
        while (alias[w] != w)
            w = alias[w];
        return w;
    };
    // One map per op: (min, max) then fills the 64-bit key exactly,
    // so full 32-bit wire ids cannot collide.
    std::unordered_map<uint64_t, WireId> seen[2];
    seen[0].reserve(nl.numGates());
    seen[1].reserve(nl.numGates());

    for (uint32_t g = 0; g < nl.numGates(); ++g) {
        const Gate &gate = nl.gates[g];
        const WireId out = inputs + g;
        const uint8_t va = val[gate.a], vb = val[gate.b];

        uint8_t v = kValTop;
        if (gate.op == GateOp::Xor) {
            if (gate.a == gate.b)
                v = kValZero;
            else if (va != kValTop && vb != kValTop)
                v = uint8_t(va ^ vb);
            else if (va == kValZero)
                v = vb;
            else if (vb == kValZero)
                v = va;
        } else {
            if (va == kValZero || vb == kValZero)
                v = kValZero;
            else if (gate.a == gate.b)
                v = va;
            else if (va == kValOne)
                v = vb;
            else if (vb == kValOne)
                v = va;
        }
        val[out] = v;
        if (v == kValTop) {
            depG[out] = depG[gate.a] || depG[gate.b];
            depE[out] = depE[gate.a] || depE[gate.b];
        }

        const WireId ra = resolve(gate.a);
        const WireId rb = resolve(gate.b);
        const uint64_t key = (uint64_t(std::min(ra, rb)) << 32) |
                             uint64_t(std::max(ra, rb));
        auto [it, inserted] = seen[size_t(gate.op)].emplace(key, out);
        const bool dup = !inserted;
        if (dup)
            alias[out] = it->second;

        if (!live[out]) {
            acc.warn(LintCode::DeadGate, g, out,
                     opName(gate.op) + "(" + std::to_string(gate.a) +
                         ", " + std::to_string(gate.b) +
                         ") cannot reach any primary output");
        } else if (v != kValTop) {
            acc.warn(LintCode::ConstantCone, g, out,
                     opName(gate.op) + "(" + std::to_string(gate.a) +
                         ", " + std::to_string(gate.b) +
                         ") always evaluates to " +
                         std::to_string(int(v)) +
                         " — a constant-foldable cone");
        }
        if (dup)
            acc.warn(LintCode::DuplicateGate, g, out,
                     opName(gate.op) + "(" + std::to_string(gate.a) +
                         ", " + std::to_string(gate.b) +
                         ") structurally duplicates the gate driving "
                         "wire " +
                         std::to_string(it->second));
    }

    // Declared inputs nobody reads (and that are not passed through
    // as outputs). The constant-one wire is exempt: the builder
    // always materializes it.
    std::vector<bool> is_output(wires, false);
    for (WireId w : nl.outputs)
        is_output[w] = true;
    for (uint32_t w = 0; w < inputs; ++w) {
        if (w == nl.constOne || reads[w] > 0 || is_output[w])
            continue;
        const bool garbler = w < nl.numGarblerInputs;
        const uint32_t idx = garbler ? w : w - nl.numGarblerInputs;
        acc.warn(LintCode::UnusedInput, idx, w,
                 std::string(garbler ? "garbler" : "evaluator") +
                     " input " + std::to_string(idx) +
                     " is never read");
    }

    // Taint verdicts per output: no evaluator dependence means the
    // decoded bit reveals nothing the evaluator contributed — it is
    // constant or a function of garbler inputs only. Vacuous (and
    // suppressed) when the circuit declares no evaluator inputs.
    if (nl.numEvaluatorInputs > 0) {
        for (uint32_t i = 0; i < nl.outputs.size(); ++i) {
            const WireId w = nl.outputs[i];
            if (depE[w])
                continue;
            acc.warn(LintCode::InertOutput, i, w,
                     val[w] != kValTop
                         ? "output is the constant " +
                               std::to_string(int(val[w])) +
                               " — it leaks nothing"
                         : depG[w]
                             ? "output depends on garbler inputs only "
                               "— the evaluator contributes nothing "
                               "to it"
                             : "output is the public constant wire — "
                               "it leaks nothing");
        }
    }

    acc.cost = circuitCost(nl);
}

/**
 * Structural plan checks — the analyzer form of the original
 * ChainPlan::check(), message for message, plus the CLNK tweak
 * domain/uniqueness proof. Returns false when the per-node scan had
 * to be abandoned (list shapes disagree).
 */
bool
checkPlanStructure(const chain::ChainPlan &plan, Accumulator &acc)
{
    using chain::InputSource;
    using chain::SourceKind;

    if (plan.nodes.empty()) {
        acc.error(LintCode::PlanShape, kNoSite, kNoWire,
                  "chain plan has no nodes");
        return false;
    }
    if (plan.nodes.size() > chain::kMaxChainNodes) {
        acc.error(LintCode::PlanShape, kNoSite, kNoWire,
                  "chain plan exceeds " +
                      std::to_string(chain::kMaxChainNodes) +
                      " nodes");
        return false;
    }
    if (plan.sources.size() != plan.nodes.size()) {
        acc.error(LintCode::PlanShape, kNoSite, kNoWire,
                  "chain plan has " +
                      std::to_string(plan.sources.size()) +
                      " source lists for " +
                      std::to_string(plan.nodes.size()) + " nodes");
        return false;
    }
    if (plan.garblerInputs > chain::kMaxChainInputs ||
        plan.evaluatorInputs > chain::kMaxChainInputs)
        acc.error(LintCode::PlanShape, kNoSite, kNoWire,
                  "chain plan declares more than " +
                      std::to_string(chain::kMaxChainInputs) +
                      " inputs per party");

    bool ports_ok = true;
    for (size_t n = 0; n < plan.nodes.size(); ++n) {
        const std::string err = plan.nodes[n].check();
        if (!err.empty()) {
            acc.error(LintCode::PlanShape, uint32_t(n), kNoWire,
                      "node " + std::to_string(n) + ": " + err);
            ports_ok = false;
            continue;
        }
        if (plan.sources[n].size() != plan.nodes[n].inputBits()) {
            acc.error(LintCode::PortWidthMismatch, uint32_t(n),
                      kNoWire,
                      "node " + std::to_string(n) + " (" +
                          plan.nodes[n].name() + ") takes " +
                          std::to_string(plan.nodes[n].inputBits()) +
                          " input bits but the plan wires " +
                          std::to_string(plan.sources[n].size()));
            ports_ok = false;
        }
        for (size_t i = 0; i < plan.sources[n].size(); ++i) {
            const InputSource &s = plan.sources[n][i];
            const std::string port = "node " + std::to_string(n) +
                                     " input " + std::to_string(i);
            switch (s.kind) {
            case SourceKind::Garbler:
                if (s.index >= plan.garblerInputs)
                    acc.error(LintCode::PlanInputRange,
                              uint32_t(n), kNoWire,
                              port + ": garbler input " +
                                  std::to_string(s.index) +
                                  " out of range (" +
                                  std::to_string(plan.garblerInputs) +
                                  " declared)");
                break;
            case SourceKind::Evaluator:
                if (s.index >= plan.evaluatorInputs)
                    acc.error(
                        LintCode::PlanInputRange, uint32_t(n),
                        kNoWire,
                        port + ": evaluator input " +
                            std::to_string(s.index) +
                            " out of range (" +
                            std::to_string(plan.evaluatorInputs) +
                            " declared)");
                break;
            case SourceKind::Link:
                if (s.from.node >= n) {
                    acc.error(LintCode::LinkOrder, uint32_t(n),
                              kNoWire,
                              port + ": links node " +
                                  std::to_string(s.from.node) +
                                  ", which is not an earlier node "
                                  "(plans are topologically ordered)");
                    ports_ok = false;
                } else if (s.from.bit >=
                           plan.nodes[s.from.node].outputBits()) {
                    acc.error(
                        LintCode::PortRange, uint32_t(n),
                        kNoWire,
                        port + ": links output bit " +
                            std::to_string(s.from.bit) + " of " +
                            plan.nodes[s.from.node].name() +
                            ", which has " +
                            std::to_string(
                                plan.nodes[s.from.node].outputBits()) +
                            " outputs");
                }
                break;
            case SourceKind::Zero:
            case SourceKind::One:
                break;
            default:
                acc.error(LintCode::PlanShape, uint32_t(n),
                          kNoWire, port + ": unknown source kind");
                break;
            }
        }
    }

    if (plan.outputs.empty())
        acc.error(LintCode::PlanShape, kNoSite, kNoWire,
                  "chain plan has no outputs");
    for (size_t i = 0; i < plan.outputs.size(); ++i) {
        const chain::PortRef &ref = plan.outputs[i];
        if (ref.node >= plan.nodes.size()) {
            acc.error(LintCode::DanglingOutput, uint32_t(i),
                      kNoWire,
                      "output " + std::to_string(i) + ": node " +
                          std::to_string(ref.node) + " out of range");
        } else if (plan.nodes[ref.node].check().empty() &&
                   ref.bit >= plan.nodes[ref.node].outputBits()) {
            acc.error(LintCode::DanglingOutput, uint32_t(i),
                      kNoWire,
                      "output " + std::to_string(i) + ": bit " +
                          std::to_string(ref.bit) +
                          " out of range for " +
                          plan.nodes[ref.node].name());
        }
    }
    return ports_ok;
}

/**
 * Every link table encrypts under its own CLNK-domain tweak; reuse
 * collapses two links' hash domains (the chained analogue of ISA
 * tweak-reuse) and a tweak outside the domain can collide with the
 * garbling, base-OT, or IKNP tweak spaces.
 */
void
checkLinkTweaks(const chain::ChainPlan &plan, Accumulator &acc)
{
    const std::vector<uint64_t> tweaks =
        acc.opts.linkTweaks != nullptr ? *acc.opts.linkTweaks
                                       : chain::planLinkTweaks(plan);
    std::unordered_map<uint64_t, uint32_t> first;
    first.reserve(tweaks.size());
    for (uint32_t i = 0; i < tweaks.size(); ++i) {
        const uint64_t t = tweaks[i];
        if ((t >> 32) != (chain::kChainLinkTweakBase >> 32)) {
            std::ostringstream os;
            os << "link " << i << " tweak 0x" << std::hex << t
               << " is outside the CLNK domain (0x"
               << chain::kChainLinkTweakBase << " + ordinal)";
            acc.error(LintCode::LinkTweakDomain, i, kNoWire,
                      os.str());
        }
        auto [it, inserted] = first.emplace(t, i);
        if (!inserted) {
            std::ostringstream os;
            os << "link " << i << " reuses tweak 0x" << std::hex << t
               << std::dec << " of link " << it->second
               << " — their encryption domains collapse";
            acc.error(LintCode::LinkTweakReuse, i, kNoWire,
                      os.str());
        }
    }
}

/**
 * Plan-granular dataflow plus the flattened netlist's taint and cost.
 * Gate-level waste warnings from the flattening are deliberately
 * dropped (see analyzeChainPlan's doc); only the per-output taint
 * verdicts and the cost survive the merge.
 */
void
analyzePlanDeep(const chain::ChainPlan &plan, Accumulator &acc)
{
    using chain::SourceKind;

    // Reverse reachability over the node DAG.
    std::vector<bool> node_live(plan.nodes.size(), false);
    for (const chain::PortRef &ref : plan.outputs)
        node_live[ref.node] = true;
    for (size_t n = plan.nodes.size(); n-- > 0;) {
        if (!node_live[n])
            continue;
        for (const chain::InputSource &s : plan.sources[n])
            if (s.kind == SourceKind::Link)
                node_live[s.from.node] = true;
    }
    for (size_t n = 0; n < plan.nodes.size(); ++n)
        if (!node_live[n])
            acc.warn(LintCode::DeadNode, uint32_t(n), kNoWire,
                     "node " + std::to_string(n) + " (" +
                         plan.nodes[n].name() +
                         ") feeds no plan output or later node");

    // Declared plan inputs no source names.
    std::vector<bool> g_used(plan.garblerInputs, false);
    std::vector<bool> e_used(plan.evaluatorInputs, false);
    for (const auto &node : plan.sources)
        for (const chain::InputSource &s : node) {
            if (s.kind == SourceKind::Garbler)
                g_used[s.index] = true;
            else if (s.kind == SourceKind::Evaluator)
                e_used[s.index] = true;
        }
    for (uint32_t i = 0; i < plan.garblerInputs; ++i)
        if (!g_used[i])
            acc.warn(LintCode::UnusedPlanInput, i, kNoWire,
                     "garbler plan input " + std::to_string(i) +
                         " is wired to no component port");
    for (uint32_t i = 0; i < plan.evaluatorInputs; ++i)
        if (!e_used[i])
            acc.warn(LintCode::UnusedPlanInput, i, kNoWire,
                     "evaluator plan input " + std::to_string(i) +
                         " is wired to no component port");

    // Flatten and reuse the netlist analyzer for the exact per-output
    // taint and the cost report. monolithic() re-validates through
    // check(), which runs this analysis structurally (deep = false),
    // so there is no recursion.
    const Netlist mono = plan.monolithic();
    AnalyzeOptions mopts;
    mopts.warnings = acc.opts.warnings;
    for (const Diag &d : analyzeNetlist(mono, mopts, &acc.cost).diags) {
        if (d.code != LintCode::InertOutput)
            continue;
        acc.warn(LintCode::InertOutput, d.site, kNoWire,
                 "plan " + d.message);
    }
}

} // namespace

LintReport
analyzeNetlist(const Netlist &netlist, const AnalyzeOptions &opts,
               CircuitCost *cost)
{
    Accumulator acc(opts);
    if (checkNetlistStructure(netlist, acc) && acc.rep.errors == 0 &&
        opts.deep)
        analyzeNetlistDeep(netlist, acc);
    if (cost != nullptr)
        *cost = acc.cost;
    return std::move(acc.rep);
}

LintReport
analyzeChainPlan(const chain::ChainPlan &plan, const AnalyzeOptions &opts,
                 CircuitCost *cost)
{
    Accumulator acc(opts);
    if (checkPlanStructure(plan, acc))
        checkLinkTweaks(plan, acc);
    if (acc.rep.errors == 0 && opts.deep)
        analyzePlanDeep(plan, acc);
    if (cost != nullptr)
        *cost = acc.cost;
    return std::move(acc.rep);
}

CircuitCost
circuitCost(const Netlist &netlist)
{
    const uint32_t inputs = netlist.numInputs();
    CircuitCost cost;
    cost.gates = netlist.numGates();
    std::vector<uint32_t> depth(netlist.numWires(), 0);
    for (uint32_t g = 0; g < netlist.numGates(); ++g) {
        const Gate &gate = netlist.gates[g];
        cost.andGates += gate.op == GateOp::And ? 1 : 0;
        depth[inputs + g] = std::max(depth[gate.a], depth[gate.b]) +
                            (gate.op == GateOp::And ? 1 : 0);
    }
    cost.xorGates = cost.gates - cost.andGates;
    for (WireId w : netlist.outputs)
        cost.multDepth = std::max(cost.multDepth, depth[w]);
    cost.freeXorPercent =
        cost.gates == 0
            ? 0.0
            : 100.0 * double(cost.xorGates) / double(cost.gates);
    return cost;
}

} // namespace haac
