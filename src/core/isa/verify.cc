#include "core/isa/verify.h"

#include <algorithm>
#include <sstream>
#include <unordered_map>

#include "core/compiler/streams.h"
#include "core/isa/disasm.h"
#include "core/sim/config.h"
#include "crypto/label.h"

namespace haac {

namespace {

/** Runs the checks; findings accumulate in one report. */
struct Linter
{
    const HaacProgram &prog;
    const LintOptions &opts;
    LintReport rep;
    uint64_t wasteBytes = 0;

    uint32_t
    lineOf(uint32_t instr) const
    {
        if (opts.instrLines == nullptr || instr == kNoSite ||
            instr >= opts.instrLines->size())
            return 0;
        return (*opts.instrLines)[instr];
    }

    void
    emit(LintCode code, Severity sev, uint32_t instr, uint32_t addr,
         std::string msg)
    {
        if (sev != Severity::Error && !opts.warnings)
            return;
        rep.add({code, sev, instr, addr, lineOf(instr), std::move(msg)});
    }

    void
    error(LintCode code, uint32_t instr, uint32_t addr, std::string msg)
    {
        emit(code, Severity::Error, instr, addr, std::move(msg));
    }

    void
    warn(LintCode code, uint32_t instr, uint32_t addr, std::string msg)
    {
        emit(code, Severity::Warning, instr, addr, std::move(msg));
    }

    /** Producer instruction index of @p addr, or kNoSite. */
    uint32_t
    producerOf(uint32_t addr) const
    {
        if (addr <= prog.numInputs || addr >= prog.numAddrs())
            return kNoSite;
        return addr - prog.numInputs - 1;
    }

    bool
    isNopOutput(uint32_t addr) const
    {
        const uint32_t p = producerOf(addr);
        return p != kNoSite && prog.instrs[p].op == HaacOp::Nop;
    }

    // --- structural checks (window-independent) ---------------------

    void
    checkInputSplit()
    {
        const uint64_t parties = uint64_t(prog.numGarblerInputs) +
                                 prog.numEvaluatorInputs;
        if (parties > prog.numInputs || prog.numInputs > parties + 1) {
            std::ostringstream os;
            os << "input split " << prog.numGarblerInputs
               << " garbler + " << prog.numEvaluatorInputs
               << " evaluator does not fit " << prog.numInputs
               << " input wires (at most one extra, the constant one)";
            error(LintCode::InputSplit, kNoSite, kNoSite,
                  os.str());
            return;
        }
        const bool slot = prog.numInputs == parties + 1;
        if (slot && prog.constOneAddr == kOorAddr) {
            error(LintCode::ConstOne, kNoSite, kNoSite,
                  "the input count implies a constant-one wire at w" +
                      std::to_string(prog.numInputs) +
                      " but constOneAddr is unset");
        } else if (!slot && prog.constOneAddr != kOorAddr) {
            error(LintCode::ConstOne, kNoSite, prog.constOneAddr,
                  "constOneAddr is w" +
                      std::to_string(prog.constOneAddr) +
                      " but every input wire belongs to a party");
        } else if (slot && prog.constOneAddr != prog.numInputs) {
            error(LintCode::ConstOne, kNoSite, prog.constOneAddr,
                  "the constant-one wire must be the last input (w" +
                      std::to_string(prog.numInputs) + "), not w" +
                      std::to_string(prog.constOneAddr));
        }
    }

    /** One operand slot; @p which is "a" or "b". */
    void
    checkOperand(uint32_t k, uint32_t addr, const char *which)
    {
        const uint32_t out = prog.outputAddrOf(size_t(k));
        if (addr == kOorAddr) {
            error(LintCode::SentinelOperand, k, addr,
                  std::string("operand ") + which +
                      " is the reserved OoRW sentinel w0 (the stream "
                      "generator owns that rewrite)");
            return;
        }
        if (addr >= out) {
            std::ostringstream os;
            os << "operand " << which << " reads w" << addr
               << " which is not defined before this instruction's "
                  "output w"
               << out
               << (addr == out ? " (self-reference)"
                               : " (forward reference breaks "
                                 "dependence acyclicity)");
            error(LintCode::UseBeforeDef, k, addr, os.str());
            return;
        }
        if (isNopOutput(addr)) {
            std::ostringstream os;
            os << "operand " << which << " reads w" << addr
               << ", the output of NOP instruction #"
               << producerOf(addr)
               << " — the machine never writes that wire";
            error(LintCode::NopOutputRead, k, addr, os.str());
        }
    }

    void
    checkInstructions()
    {
        std::unordered_map<uint32_t, uint32_t> tweakOwner;
        tweakOwner.reserve(prog.numAnd());
        for (uint32_t k = 0; k < prog.instrs.size(); ++k) {
            const HaacInstruction &ins = prog.instrs[k];
            const bool two = ins.op == HaacOp::And ||
                             ins.op == HaacOp::Xor;
            checkOperand(k, ins.a, "a");
            if (two) {
                checkOperand(k, ins.b, "b");
            } else if (ins.b != ins.a) {
                std::ostringstream os;
                os << opName(ins.op) << " carries b=w" << ins.b
                   << " instead of the canonical copy of a=w" << ins.a
                   << " (breaks listing round-trip equality)";
                warn(LintCode::NoncanonicalOperand, k, ins.b, os.str());
            }
            if (ins.op == HaacOp::And) {
                const auto it = tweakOwner.find(ins.tweak);
                if (it != tweakOwner.end()) {
                    std::ostringstream os;
                    os << "AND tweak " << ins.tweak
                       << " already used by instruction #" << it->second
                       << " — reuse collapses the correlation-robust "
                          "hash tweak domain (security error)";
                    error(LintCode::TweakReuse, k, kNoSite, os.str());
                } else {
                    tweakOwner.emplace(ins.tweak, k);
                }
            } else if (ins.tweak != 0) {
                std::ostringstream os;
                os << opName(ins.op) << " carries tweak " << ins.tweak
                   << " but only AND instructions consume tweaks";
                warn(LintCode::StrayTweak, k, kNoSite, os.str());
            }
        }
    }

    void
    checkOutputs()
    {
        for (size_t i = 0; i < prog.outputs.size(); ++i) {
            const uint32_t o = prog.outputs[i];
            if (o == kOorAddr || o >= prog.numAddrs()) {
                std::ostringstream os;
                os << "program output " << i << " is w" << o
                   << ", outside the defined address space [1, "
                   << prog.numAddrs() - 1 << "]";
                error(LintCode::UndefinedOutput, kNoSite, o,
                      os.str());
                continue;
            }
            if (isNopOutput(o)) {
                std::ostringstream os;
                os << "program output " << i << " is w" << o
                   << ", the output of NOP instruction #"
                   << producerOf(o)
                   << " — the machine never writes that wire";
                error(LintCode::NopOutputRead, producerOf(o), o,
                      os.str());
            }
        }
    }

    // --- window-dependent checks (swwWires > 0) ---------------------

    void
    checkLiveness()
    {
        const uint32_t sww = opts.swwWires;
        // Per instruction: is its output ever read from below a
        // consumer's window base (an OoRW replay from DRAM)?
        std::vector<bool> offWindowRead(prog.instrs.size(), false);
        std::vector<bool> justified(prog.instrs.size(), false);

        for (uint32_t k = 0; k < prog.instrs.size(); ++k) {
            const HaacInstruction &ins = prog.instrs[k];
            const uint32_t out = prog.outputAddrOf(size_t(k));
            const uint32_t base = windowBase(out, sww);
            auto visit = [&](uint32_t addr, const char *which) {
                if (addr >= base)
                    return;
                const uint32_t p = producerOf(addr);
                if (p == kNoSite)
                    return; // primary inputs are always resident
                offWindowRead[p] = true;
                if (!prog.instrs[p].live) {
                    std::ostringstream os;
                    os << "operand " << which << " reads w" << addr
                       << " from below the SWW window base w" << base
                       << " but its producer #" << p
                       << " is not marked live — the wire is never "
                          "spilled and the OoRW replay has nothing to "
                          "pop";
                    error(LintCode::DroppedLiveBit, k, addr, os.str());
                }
            };
            // Only valid backward references participate; structural
            // errors were already reported.
            if (ins.a != kOorAddr && ins.a < out)
                visit(ins.a, "a");
            if ((ins.op == HaacOp::And || ins.op == HaacOp::Xor) &&
                ins.b != kOorAddr && ins.b < out)
                visit(ins.b, "b");
        }

        for (size_t i = 0; i < prog.outputs.size(); ++i) {
            const uint32_t o = prog.outputs[i];
            const uint32_t p = producerOf(o);
            if (p == kNoSite)
                continue; // input-addressed outputs decode directly
            justified[p] = true;
            if (prog.instrs[p].op != HaacOp::Nop &&
                !prog.instrs[p].live) {
                std::ostringstream os;
                os << "program output " << i << " (w" << o
                   << ") is produced by instruction #" << p
                   << " which is not marked live — the decode reads "
                      "spilled labels from DRAM";
                error(LintCode::OutputNotLive, p, o, os.str());
            }
        }

        if (opts.shards != nullptr) {
            // Exports must stay live; do not count them as waste.
            for (const auto &exp : opts.shards->exports)
                for (uint32_t addr : exp) {
                    const uint32_t p = producerOf(addr);
                    if (p != kNoSite)
                        justified[p] = true;
                }
        }

        uint32_t wasted = 0;
        for (uint32_t k = 0; k < prog.instrs.size(); ++k) {
            if (!prog.instrs[k].live || offWindowRead[k] ||
                justified[k])
                continue;
            ++wasted;
            wasteBytes += kLabelBytes;
            std::ostringstream os;
            os << "live bit on w" << prog.outputAddrOf(size_t(k))
               << " buys nothing: no instruction reads it off-window "
                  "and it is not a program output — "
               << kLabelBytes << " bytes of avoidable DRAM traffic";
            warn(LintCode::LivenessWaste, k, prog.outputAddrOf(size_t(k)),
                 os.str());
        }
        if (wasted > 0 && opts.warnings) {
            std::ostringstream os;
            os << wasted << " wastefully live wire"
               << (wasted == 1 ? "" : "s") << " = " << wasteBytes
               << " bytes of avoidable DRAM write traffic at "
               << opts.swwWires << "-wire SWW";
            emit(LintCode::LivenessWaste, Severity::Note,
                 kNoSite, kNoSite, os.str());
        }
    }

    // --- queue-stream consistency -----------------------------------

    void
    checkStreams()
    {
        const StreamSet &set = *opts.streams;
        const size_t n = prog.instrs.size();
        if (set.geOf.size() != n) {
            std::ostringstream os;
            os << "StreamSet::geOf has " << set.geOf.size()
               << " entries for " << n << " instructions";
            error(LintCode::StreamCoverage, kNoSite, kNoSite,
                  os.str());
            return;
        }
        std::vector<uint32_t> seen(n, 0);
        for (size_t g = 0; g < set.ge.size(); ++g) {
            const GeStreams &ge = set.ge[g];
            if (ge.instrs.size() != ge.instrIdx.size()) {
                std::ostringstream os;
                os << "ge" << g << " carries " << ge.instrs.size()
                   << " local instructions for " << ge.instrIdx.size()
                   << " stream slots";
                error(LintCode::StreamCoverage, kNoSite, kNoSite,
                      os.str());
                continue;
            }
            std::vector<uint32_t> expectOor;
            uint64_t tables = 0;
            for (size_t pos = 0; pos < ge.instrIdx.size(); ++pos) {
                const uint32_t idx = ge.instrIdx[pos];
                if (idx >= n) {
                    std::ostringstream os;
                    os << "ge" << g << " stream slot " << pos
                       << " names instruction #" << idx
                       << ", past the program end";
                    error(LintCode::StreamCoverage, kNoSite,
                          kNoSite, os.str());
                    continue;
                }
                ++seen[idx];
                if (set.geOf[idx] != g) {
                    std::ostringstream os;
                    os << "instruction #" << idx << " streams on ge"
                       << g << " but geOf maps it to ge"
                       << unsigned(set.geOf[idx]);
                    error(LintCode::StreamCoverage, idx, kNoSite,
                          os.str());
                }
                const HaacInstruction &orig = prog.instrs[idx];
                HaacInstruction expect = orig;
                if (opts.swwWires > 0) {
                    const uint32_t base = windowBase(
                        prog.outputAddrOf(idx), opts.swwWires);
                    if (expect.a < base) {
                        expectOor.push_back(expect.a);
                        expect.a = kOorAddr;
                    }
                    if (expect.op != HaacOp::Not && expect.b < base) {
                        expectOor.push_back(expect.b);
                        expect.b = kOorAddr;
                    }
                    if (ge.instrs[pos] != expect) {
                        std::ostringstream os;
                        os << "ge" << g << " local copy of #" << idx
                           << " is '" << opName(ge.instrs[pos].op)
                           << " w" << ge.instrs[pos].a << ", w"
                           << ge.instrs[pos].b
                           << "' but the window discipline requires '"
                           << opName(expect.op) << " w" << expect.a
                           << ", w" << expect.b << "'";
                        error(LintCode::StreamOorMismatch, idx,
                              kNoSite, os.str());
                    }
                }
                if (orig.op == HaacOp::And)
                    ++tables;
            }
            if (opts.swwWires > 0 && expectOor != ge.oorAddrs) {
                std::ostringstream os;
                os << "ge" << g << " OoRW pop stream has "
                   << ge.oorAddrs.size() << " entries; the window "
                   << "discipline derives " << expectOor.size();
                size_t i = 0;
                const size_t lim =
                    std::min(expectOor.size(), ge.oorAddrs.size());
                while (i < lim && expectOor[i] == ge.oorAddrs[i])
                    ++i;
                if (i < lim)
                    os << " (first divergence at pop " << i
                       << ": stream has w" << ge.oorAddrs[i]
                       << ", expected w" << expectOor[i] << ")";
                error(LintCode::StreamOorMismatch, kNoSite,
                      kNoSite, os.str());
            }
            if (tables != ge.tableCount) {
                std::ostringstream os;
                os << "ge" << g << " declares " << ge.tableCount
                   << " table-queue entries but streams " << tables
                   << " AND instructions";
                error(LintCode::StreamTableCount, kNoSite,
                      kNoSite, os.str());
            }
        }
        for (size_t idx = 0; idx < n; ++idx) {
            if (seen[idx] == 1)
                continue;
            std::ostringstream os;
            os << "instruction #" << idx << " appears " << seen[idx]
               << " times across the GE streams (must be exactly once)";
            error(LintCode::StreamCoverage, uint32_t(idx), kNoSite,
                  os.str());
        }
    }

    // --- shard-manifest consistency ---------------------------------

    void
    checkShards()
    {
        const ShardManifest &man = *opts.shards;
        const size_t n = prog.instrs.size();
        const size_t m = man.imports.size();
        if (man.shardOfInstr.size() != n || man.exports.size() != m) {
            std::ostringstream os;
            os << "shard manifest shape mismatch: " << m
               << " import lists, " << man.exports.size()
               << " export lists, " << man.shardOfInstr.size()
               << " instruction owners for " << n << " instructions";
            error(LintCode::ShardManifestBad, kNoSite, kNoSite,
                  os.str());
            return;
        }
        auto contains = [](const std::vector<uint32_t> &v,
                           uint32_t addr) {
            return std::binary_search(v.begin(), v.end(), addr);
        };

        // Exports must be owned by the exporting shard and stay live.
        for (size_t s = 0; s < m; ++s) {
            for (uint32_t addr : man.exports[s]) {
                const uint32_t p = producerOf(addr);
                if (p == kNoSite) {
                    std::ostringstream os;
                    os << "shard " << s << " exports w" << addr
                       << ", which no instruction produces";
                    error(LintCode::ShardManifestBad, kNoSite,
                          addr, os.str());
                    continue;
                }
                if (man.shardOfInstr[p] != s) {
                    std::ostringstream os;
                    os << "shard " << s << " exports w" << addr
                       << " but its producer #" << p
                       << " belongs to shard "
                       << unsigned(man.shardOfInstr[p]);
                    error(LintCode::ShardManifestBad, p, addr,
                          os.str());
                    continue;
                }
                if (!prog.instrs[p].live) {
                    std::ostringstream os;
                    os << "shard " << s << " exports w" << addr
                       << " but its producer #" << p
                       << " is not marked live — the importing shard "
                          "fetches it from DRAM";
                    error(LintCode::ShardExportDead, p, addr,
                          os.str());
                }
            }
        }

        // Every cross-shard read must be manifested on both sides.
        std::vector<std::vector<uint32_t>> importUsed(m), exportUsed(m);
        for (uint32_t k = 0; k < n; ++k) {
            const HaacInstruction &ins = prog.instrs[k];
            const uint8_t s = man.shardOfInstr[k];
            const uint32_t out = prog.outputAddrOf(size_t(k));
            auto visit = [&](uint32_t addr, const char *which) {
                if (addr == kOorAddr || addr >= out)
                    return; // structural errors already reported
                const uint32_t p = producerOf(addr);
                if (p == kNoSite)
                    return; // inputs are resident on every shard
                const uint8_t ps = man.shardOfInstr[p];
                if (ps == s)
                    return;
                if (!contains(man.imports[s], addr)) {
                    std::ostringstream os;
                    os << "operand " << which << " of #" << k
                       << " reads w" << addr << " from shard "
                       << unsigned(ps) << " but shard " << unsigned(s)
                       << " does not list it as an import";
                    error(LintCode::ShardImportMissing, k, addr,
                          os.str());
                } else {
                    importUsed[s].push_back(addr);
                }
                if (!contains(man.exports[ps], addr)) {
                    std::ostringstream os;
                    os << "w" << addr << " crosses from shard "
                       << unsigned(ps) << " to shard " << unsigned(s)
                       << " but shard " << unsigned(ps)
                       << " does not list it as an export";
                    error(LintCode::ShardExportMissing, k, addr,
                          os.str());
                } else {
                    exportUsed[ps].push_back(addr);
                }
            };
            visit(ins.a, "a");
            if (ins.op == HaacOp::And || ins.op == HaacOp::Xor)
                visit(ins.b, "b");
        }

        for (size_t s = 0; s < m; ++s) {
            auto uniq = [](std::vector<uint32_t> &v) {
                std::sort(v.begin(), v.end());
                v.erase(std::unique(v.begin(), v.end()), v.end());
            };
            uniq(importUsed[s]);
            uniq(exportUsed[s]);
            for (uint32_t addr : man.imports[s]) {
                if (contains(importUsed[s], addr))
                    continue;
                std::ostringstream os;
                os << "shard " << s << " imports w" << addr
                   << " but no instruction of shard " << s
                   << " reads it across the boundary";
                warn(LintCode::ShardImportUnused, kNoSite, addr,
                     os.str());
            }
            for (uint32_t addr : man.exports[s]) {
                if (contains(exportUsed[s], addr))
                    continue;
                std::ostringstream os;
                os << "shard " << s << " exports w" << addr
                   << " but no other shard imports it";
                warn(LintCode::ShardExportUnused, kNoSite, addr,
                     os.str());
            }
        }
    }
};

} // namespace

LintReport
verifyProgram(const HaacProgram &prog, const LintOptions &opts,
              uint64_t *wasteBytes)
{
    Linter lint{prog, opts, LintReport{}};
    lint.checkInputSplit();
    lint.checkInstructions();
    lint.checkOutputs();
    if (opts.swwWires > 0)
        lint.checkLiveness();
    if (opts.streams != nullptr)
        lint.checkStreams();
    if (opts.shards != nullptr)
        lint.checkShards();
    if (wasteBytes != nullptr)
        *wasteBytes = lint.wasteBytes;
    return std::move(lint.rep);
}

} // namespace haac
