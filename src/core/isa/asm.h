/**
 * @file
 * HAAC assembler: parse the textual assembly form back into a
 * HaacProgram — the inverse of core/isa/disasm.h.
 *
 * The format is line-oriented. `;` starts a comment. Directives:
 *
 *     .inputs <total> garbler=<G> evaluator=<E>
 *     .const_one w<N>            (required iff total == G + E + 1)
 *     .outputs w<N> ...          (labels allowed; required, may be empty)
 *     .test garbler=<bits> evaluator=<bits> expect=<bits>
 *
 * Instructions follow the disassembler's shape:
 *
 *     [k:] [label:] OP a[, b] [-> wN] [[live]] [(tweak T)] [@geN]
 *
 * with operands written `w<addr>`, as a previously defined label, or as
 * one of the builtin input names the disassembler emits: `g<k>` /
 * `e<k>` for the k-th garbler/evaluator input (0-based) and `one` for
 * the constant-one wire. User labels shadow the builtins (the
 * disassembler never defines labels, so listings stay round-trip
 * safe). A
 * numeric `k:` prefix and a `-> wN` arrow are annotations checked
 * against the ISA's implicit output rule (out(k) = inputs + 1 + k); a
 * symbolic `label:` names the instruction's output wire for later
 * operands. AND instructions without an explicit tweak get the running
 * AND index, matching assemble(). NOT and NOP take one operand and
 * store it in both slots (the canonical form; see operator==).
 *
 * Invariants the parser enforces (each violation is a diagnostic with
 * a line number, never a crash): operands reference only wires defined
 * at that point; w0/`oorw` never appears in program text (the OoRW
 * rewrite is the stream generator's job, not the programmer's); the
 * input split is consistent; `.test` bit-string lengths match the
 * declared inputs and outputs.
 *
 * Beyond the grammar, every successfully parsed program is run through
 * the structural half of the static verifier (core/isa/verify.h,
 * swwWires == 0 — no window geometry exists at parse time). The parser
 * stays permissive: lint findings land in AsmResult::lints with source
 * lines attached and do NOT flip `ok`, so a listing of any
 * address-disciplined program still round-trips; callers that demand
 * lint-clean inputs (the grader, haac_lint) check `lints` themselves.
 */
#ifndef HAAC_CORE_ISA_ASM_H
#define HAAC_CORE_ISA_ASM_H

#include <cstdint>
#include <string>
#include <vector>

#include "core/isa/program.h"
#include "core/isa/verify.h"

namespace haac {

/** One `.test` expectation vector from a .haac source file. */
struct AsmTestVector
{
    std::vector<bool> garbler;
    std::vector<bool> evaluator;
    std::vector<bool> expect;
    uint32_t line = 0;
};

/** Result of parsing HAAC assembly text. */
struct AsmResult
{
    bool ok = false;

    /** "line N: <message>" when !ok. */
    std::string error;
    uint32_t errorLine = 0;

    HaacProgram prog;

    /**
     * `@ge` annotations, one per instruction (empty when the source has
     * none). Advisory: the stream generator recomputes the mapping.
     */
    std::vector<uint8_t> geHints;

    /** Grader expectations (`.test` directives), in file order. */
    std::vector<AsmTestVector> tests;

    /** 1-based source line of each instruction (parallel to instrs). */
    std::vector<uint32_t> instrLines;

    /**
     * Structural verifier findings (LintOptions{.swwWires = 0}) with
     * source lines mapped in. Populated only when `ok`; never flips
     * `ok` — see the file comment.
     */
    std::vector<Diag> lints;
};

/** Parse assembly text. Never throws; errors land in AsmResult. */
AsmResult parseAsm(const std::string &text);

/** Parse a .haac file (unreadable file => !ok with errorLine 0). */
AsmResult parseAsmFile(const std::string &path);

} // namespace haac

#endif // HAAC_CORE_ISA_ASM_H
