/**
 * @file
 * The one diagnostics core behind both static checkers: the ISA
 * verifier (core/isa/verify.h), which proves properties of a
 * HaacProgram, and the circuit analyzer (circuit/analyze.h), which
 * proves properties of a Netlist or a chain plan.
 *
 * One severity, one code table, one finding, one report and one
 * formatter, so the compiler post-pass, the assembler, the Bristol
 * reader, Session, the server's upload gate, the conformance harness,
 * haac_dbg and haac_lint all report through one vocabulary. The code
 * table is documented in docs/ARCHITECTURE.md.
 */
#ifndef HAAC_LINT_DIAG_H
#define HAAC_LINT_DIAG_H

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace haac {

/** Severity of one finding. */
enum class Severity : uint8_t
{
    Error,   ///< running it would crash, diverge, or leak — reject it
    Warning, ///< legal but wasteful, fragile or suspicious
    Note,    ///< context attached to a preceding diagnostic
};

/**
 * Stable diagnostic codes of both layers. Within a layer the order is
 * the severity-major order of docs/ARCHITECTURE.md. lintCodeName()
 * gives the kebab-case spelling tools print and tests grep for;
 * "use-before-def" is spelled the same at both layers.
 */
enum class LintCode : uint8_t
{
    // --- ISA (HaacProgram) errors -----------------------------------
    SentinelOperand,   ///< operand is w0, the reserved OoRW sentinel
    UseBeforeDef,      ///< operand at/after its own output (also: cycle)
    NopOutputRead,     ///< operand or output reads a NOP's output wire
    TweakReuse,        ///< two ANDs share a Half-Gate tweak (security)
    InputSplit,        ///< garbler+evaluator counts don't fit numInputs
    ConstOne,          ///< .const_one discipline violated
    UndefinedOutput,   ///< program output w0 or past the address space
    OutputNotLive,     ///< program output's producer is not live
    DroppedLiveBit,    ///< off-window read of a dead producer
    StreamCoverage,    ///< GE streams don't partition the program
    StreamOorMismatch, ///< OoRW rewrite/pop order wrong for the window
    StreamTableCount,  ///< per-GE table count != its AND count
    ShardManifestBad,  ///< manifest malformed (sizes, ownership)
    ShardImportMissing,///< cross-shard read absent from consumer imports
    ShardExportMissing,///< cross-shard read absent from producer exports
    ShardExportDead,   ///< exported wire's producer is not live
    // --- ISA warnings -----------------------------------------------
    LivenessWaste,     ///< live bit nobody reads off-window (DRAM waste)
    NoncanonicalOperand,///< NOT/NOP with b != a (breaks round-trip ==)
    StrayTweak,        ///< non-zero tweak on a non-AND instruction
    ShardImportUnused, ///< import entry no instruction justifies
    ShardExportUnused, ///< export entry no other shard imports
    // --- circuit (Netlist / ChainPlan) errors -----------------------
    GateUseBeforeDef,  ///< gate operand at/after its own output (= cycle)
    WireOutOfRange,    ///< operand past the netlist's address space
    MultiplyDriven,    ///< Bristol file wire written more than once
    DanglingOutput,    ///< output names an undefined wire or port
    InputShape,        ///< input counts overflow / constOne misplaced
    PlanShape,         ///< plan node/source/output lists malformed
    PortWidthMismatch, ///< source list size != component input bits
    PlanInputRange,    ///< source names an undeclared plan input
    LinkOrder,         ///< link names a non-earlier node (= cycle)
    PortRange,         ///< link names a nonexistent output bit
    LinkTweakReuse,    ///< two links share a CLNK tweak (security)
    LinkTweakDomain,   ///< link tweak outside the CLNK domain
    // --- circuit warnings -------------------------------------------
    DeadGate,          ///< gate cannot reach any primary output
    UnusedInput,       ///< declared input nobody reads
    ConstantCone,      ///< gate output statically constant
    DuplicateGate,     ///< structural duplicate (optimizer-mergeable)
    InertOutput,       ///< output with no evaluator-input dependence
    DeadNode,          ///< plan node feeding no output or later node
    UnusedPlanInput,   ///< declared plan input no source names
};

/** Kebab-case code name, e.g. "tweak-reuse". */
const char *lintCodeName(LintCode code);

/** "error" / "warning" / "note". */
const char *severityName(Severity sev);

/** Sentinel for a finding not tied to one site or one wire. */
inline constexpr uint32_t kNoSite = ~uint32_t(0);

/** One structured finding. */
struct Diag
{
    LintCode code = LintCode::UseBeforeDef;
    Severity severity = Severity::Error;

    /**
     * Site index, or kNoSite: the instruction for ISA codes; the gate,
     * output, plan node, link or input for circuit codes (the noun
     * formatDiag() prints names it).
     */
    uint32_t site = kNoSite;

    /** Wire address or netlist wire involved, or kNoSite. */
    uint32_t wire = kNoSite;

    /** 1-based source line when the caller supplied a map. */
    uint32_t line = 0;

    std::string message;
};

/** Findings plus their per-severity counts. */
struct LintReport
{
    std::vector<Diag> diags;
    uint32_t errors = 0;
    uint32_t warnings = 0;
    uint32_t notes = 0;

    /** No errors (warnings allowed). */
    bool clean() const { return errors == 0; }

    /** Append one finding and count it. */
    void add(Diag diag);

    /** True if any finding carries @p code. */
    bool has(LintCode code) const;

    /** "2 errors, 1 warning" (never empty). */
    std::string summary() const;

    /** First error's message, or "" when clean. */
    std::string firstError() const;

    /**
     * Keep only the findings @p keep accepts, recounting. Returns how
     * many were dropped.
     */
    uint32_t filter(const std::function<bool(const Diag &)> &keep);
};

/**
 * One finding as a compiler-style line, "file:12: error[code]: msg":
 * "file: " without a line, "line 12: " without a file, nothing when
 * neither is known. When the site is set and no line is known, the
 * code's site noun follows, e.g. " (instruction #3)" or " (gate #12)".
 */
std::string formatDiag(const Diag &diag,
                       const std::string &file = std::string());

} // namespace haac

#endif // HAAC_LINT_DIAG_H
