/**
 * @file
 * The circuit analyzer: whole-circuit static analysis for netlists and
 * ChainPlans — the admission gate for untrusted circuits.
 *
 * The circuit-layer complement to the ISA verifier (core/isa/verify.h):
 * everything here proves properties of a Netlist or a chain::ChainPlan
 * *without garbling or simulating it*. The server spends two key
 * expansions and four AES calls per AND gate; a hostile or merely
 * broken circuit must be refused before the first one.
 *
 *  - **wire discipline**: every gate operand must name a previously
 *    defined wire. Canonical netlists encode gate outputs implicitly
 *    (out(g) = numInputs() + g), so single assignment is structural and
 *    an operand at/after its own output is simultaneously a
 *    use-before-def and a combinational cycle — one linear scan proves
 *    acyclicity. Operands past the address space, outputs naming
 *    undefined wires, and a misplaced constant-one wire are the other
 *    ways a *decoded* netlist (the upload path, net/server.cc) can lie
 *    about its shape; evaluate()/garble() would read out of bounds on
 *    any of them.
 *
 *  - **multiply-driven wires**: representable only in raw Bristol text,
 *    where a second write to a file wire silently retargets later
 *    readers. The lint-attaching readBristol overload (circuit/
 *    bristol.h) records each redefinition here instead of miscompiling
 *    silently.
 *
 *  - **waste and hazards** (warnings): dead gates the optimizer would
 *    drop, inputs nobody reads, cones that are statically constant,
 *    structural duplicates (the exact merge criterion of
 *    circuit/optimize.cc, so a post-optimizeNetlist netlist is
 *    warning-free by construction — the analyzer is the optimizer's
 *    referee), and outputs with no evaluator-input dependence — a
 *    taint pass: such an output is constant or garbler-only, i.e. the
 *    2PC reveals nothing the evaluator contributed.
 *
 *  - **ChainPlan structure** (second entry point): port/width
 *    mismatches, out-of-range plan inputs, non-topological links, and
 *    duplicate or out-of-domain CLNK link tweaks — two links hashing
 *    under one tweak collapse their encryption domains exactly like
 *    ISA-level tweak reuse. chain::ChainPlan::check() is this
 *    analysis, structural checks only (deep = false).
 *
 *  - **cost report**: AND count, multiplicative depth, FreeXOR ratio —
 *    the numbers that price a circuit before it is admitted; attached
 *    to CompileStats by Session::compile().
 *
 * Findings are lint/diag.h Diags (stable code, severity, site), the
 * vocabulary the ISA verifier shares. The code table is documented in
 * docs/ARCHITECTURE.md.
 */
#ifndef HAAC_CIRCUIT_ANALYZE_H
#define HAAC_CIRCUIT_ANALYZE_H

#include <cstdint>
#include <vector>

#include "circuit/netlist.h"
#include "lint/diag.h"

namespace haac {

namespace chain {
struct ChainPlan; // chain/link.h
}

/**
 * The cost report: what admitting this circuit will charge the
 * garbler. ANDs price tables (32 B + 4 AES each), XORs are free
 * (FreeXOR), and multiplicative depth bounds the critical path of any
 * depth-scheduled execution.
 */
struct CircuitCost
{
    uint64_t gates = 0;
    uint64_t andGates = 0;
    uint64_t xorGates = 0;
    /** Max ANDs on any input→output path. */
    uint32_t multDepth = 0;
    /** Share of gates FreeXOR makes free, in percent. */
    double freeXorPercent = 0;
};

struct AnalyzeOptions
{
    /** Emit warnings (waste, taint) in addition to errors. */
    bool warnings = true;

    /**
     * Run the dataflow passes (liveness, constants, taint, duplicate
     * hashing) and fill the cost report. Structural errors always
     * suppress them (the dataflow would index out of bounds). For
     * plans, deep analysis flattens via monolithic() — ChainPlan::
     * check() must pass false here or it would recurse through
     * monolithic()'s own validity check.
     */
    bool deep = true;

    /**
     * analyzeChainPlan only: explicit link-tweak assignment to check
     * instead of deriving kChainLinkTweakBase + ordinal from the plan
     * (tests inject collisions this way; null = derive).
     */
    const std::vector<uint64_t> *linkTweaks = nullptr;
};

/**
 * Analyze one netlist: structural errors in one scan, then the
 * dataflow warnings and, into @p cost when set, the cost report (zeros
 * when errors suppress the deep pass). Never evaluates; runtime is
 * O(gates) and allocation-light, so Session::compile() affords it as
 * a pre-pass on every Debug build.
 */
LintReport analyzeNetlist(const Netlist &netlist,
                          const AnalyzeOptions &opts = AnalyzeOptions{},
                          CircuitCost *cost = nullptr);

/**
 * Analyze one chain plan: the structural checks behind
 * ChainPlan::check(), the CLNK tweak-uniqueness proof, and (deep)
 * plan-level reachability plus the flattened netlist's taint and, into
 * @p cost when set, its cost report.
 * Gate-granular waste inside components is deliberately not surfaced:
 * a pooled component is garbled whole regardless, so partially
 * consumed component interiors are priced, not warned.
 */
LintReport analyzeChainPlan(const chain::ChainPlan &plan,
                            const AnalyzeOptions &opts = AnalyzeOptions{},
                            CircuitCost *cost = nullptr);

/**
 * Just the cost report, skipping diagnostics. The netlist must be
 * structurally valid (Netlist::check() empty / analyzer-clean).
 */
CircuitCost circuitCost(const Netlist &netlist);

} // namespace haac

#endif // HAAC_CIRCUIT_ANALYZE_H
