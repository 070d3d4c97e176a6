/**
 * @file
 * haac_lint: both static checkers as one CLI, for CI and for anyone
 * editing .haac by hand or feeding the stack a netlist.
 *
 * The target picks the checker. A .haac file goes to the ISA verifier
 * (core/isa/verify.h) at the grader corpus's 256-wire window; any other
 * file is read as an old-format Bristol netlist and goes, exactly as
 * written, to the circuit analyzer (circuit/analyze.h), which also
 * prints a cost line (gates, ANDs, multiplicative depth, free-XOR
 * share). --workload lints both layers of a VIP workload: its netlist
 * after optimizeNetlist (what the stack garbles; --raw lints the
 * frontend output instead) minus the warnings the workload waives, then
 * its compiled program at the compiler's window. --chain runs the plan
 * analyzer. --streams additionally replays the queue-stream generation
 * and checks the OoRW rewrite/pop discipline; --shards M partitions the
 * streams and checks the cross-shard manifest.
 *
 * Findings print as "file.haac:12: error[tweak-reuse]: ...". Exit
 * status: 0 when clean, 1 on any error (or warning, under --Werror) or
 * unreadable file, 2 on a usage error — the contract CI relies on.
 */
#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "chain/workloads.h"
#include "circuit/analyze.h"
#include "circuit/bristol.h"
#include "circuit/optimize.h"
#include "core/compiler/passes.h"
#include "core/compiler/streams.h"
#include "core/isa/asm.h"
#include "core/isa/verify.h"
#include "core/sim/config.h"
#include "shard/partition.h"
#include "workloads/vip.h"

#include "cli_args.h"

namespace {

using namespace haac;

void
usage(std::ostream &os)
{
    os << "haac_lint: static checker for HAAC programs, netlists and "
          "chain plans\n"
          "\n"
          "usage: haac_lint [options] [FILE ...]\n"
          "\n"
          "targets:\n"
          "  FILE.haac ...        lint hand-written assembly files\n"
          "  FILE ...             lint old-format Bristol files (any\n"
          "                       name not ending in .haac)\n"
          "  --workload NAME      lint a VIP workload's netlist and its\n"
          "                       compiled program\n"
          "  --all-workloads      lint every VIP workload\n"
          "  --chain SPEC         lint a chained workload's plan\n"
          "                       (e.g. ChainMillSum:8)\n"
          "  --chains             lint the chained fleet at widths "
          "8 and 16\n"
          "  --list               list workload names and exit\n"
          "\n"
          "program checks:\n"
          "  --sww-wires N        window capacity (default: 256 for\n"
          "                       files, the compiler's for workloads;\n"
          "                       0 = structural checks only)\n"
          "  --streams            also build + verify the per-GE queue\n"
          "                       streams (--ges N, default 2)\n"
          "  --shards M           also partition into M shards and\n"
          "                       verify the import/export manifest\n"
          "  --ges N              GEs for --streams/--shards\n"
          "  --reorder KIND       workload compile: baseline | full |\n"
          "                       segment (default full)\n"
          "  --no-esw             workload compile: all wires live\n"
          "\n"
          "netlist checks:\n"
          "  --raw                analyze workload netlists before\n"
          "                       optimizeNetlist (default: after)\n"
          "\n"
          "reporting:\n"
          "  --json FILE          also write diagnostics as JSON\n"
          "                       (\"-\" = stdout)\n"
          "  --no-warnings        errors only\n"
          "  --Werror             exit nonzero on warnings too\n"
          "  -q, --quiet          summaries only, no diagnostics\n"
          "  --help               this text\n";
}

[[noreturn]] void
usageError(const std::string &msg)
{
    std::cerr << "haac_lint: " << msg << "\n";
    std::exit(2);
}

struct Options
{
    std::vector<std::string> files;
    std::vector<std::string> workloads;
    std::vector<std::string> chains;
    uint32_t swwWires = 0; ///< 0 = per-target default
    bool swwGiven = false;
    bool streams = false;
    uint32_t shards = 0;
    uint32_t ges = 2;
    ReorderKind reorder = ReorderKind::Full;
    bool esw = true;
    bool raw = false;
    bool warnings = true;
    bool werror = false;
    bool quiet = false;
    std::string jsonPath;
};

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size() + 2);
    for (const char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (c == '\n') {
            out += "\\n";
            continue;
        }
        out += c;
    }
    return out;
}

/** One target's JSON object; @p cost is null for ISA targets. */
std::string
jsonTarget(const std::string &name, const LintReport &rep,
           const CircuitCost *cost)
{
    std::ostringstream os;
    os << "{\"target\":\"" << jsonEscape(name) << "\",\"errors\":"
       << rep.errors << ",\"warnings\":" << rep.warnings;
    if (cost != nullptr)
        os << ",\"cost\":{\"gates\":" << cost->gates
           << ",\"andGates\":" << cost->andGates
           << ",\"xorGates\":" << cost->xorGates
           << ",\"multDepth\":" << cost->multDepth
           << ",\"freeXorPercent\":" << cost->freeXorPercent << "}";
    os << ",\"diags\":[";
    for (size_t i = 0; i < rep.diags.size(); ++i) {
        const Diag &d = rep.diags[i];
        os << (i > 0 ? "," : "") << "{\"code\":\""
           << lintCodeName(d.code) << "\",\"severity\":\""
           << severityName(d.severity) << "\",";
        if (d.site != kNoSite)
            os << "\"site\":" << d.site << ",";
        if (d.wire != kNoSite)
            os << "\"wire\":" << d.wire << ",";
        if (d.line > 0)
            os << "\"line\":" << d.line << ",";
        os << "\"message\":\"" << jsonEscape(d.message) << "\"}";
    }
    os << "]}";
    return os.str();
}

/** The circuit summary's cost suffix, printed for clean targets. */
std::string
costNote(const LintReport &rep, const CircuitCost &cost)
{
    if (!rep.clean() || cost.gates == 0)
        return "";
    std::ostringstream os;
    os.precision(1);
    os << " (" << cost.gates << " gates, " << cost.andGates
       << " AND, depth " << cost.multDepth << ", " << std::fixed
       << cost.freeXorPercent << "% free-XOR)";
    return os.str();
}

/** Totals and JSON across targets. */
struct Run
{
    const Options &opt;
    uint32_t targets = 0;
    uint32_t errors = 0;
    uint32_t warnings = 0;
    bool unreadable = false;
    std::vector<std::string> json;

    /** Print one target's findings and its summary + @p note line. */
    void
    report(const std::string &name, const LintReport &rep,
           const std::string &note, const CircuitCost *cost = nullptr)
    {
        ++targets;
        errors += rep.errors;
        warnings += rep.warnings;
        if (!opt.jsonPath.empty())
            json.push_back(jsonTarget(name, rep, cost));
        if (!opt.quiet)
            for (const Diag &d : rep.diags)
                std::cout << formatDiag(d, name) << "\n";
        std::cout << name << ": " << rep.summary() << note << "\n";
    }

    /** A file that could not be read or parsed at all. */
    void
    parseError(const std::string &path, const std::string &what)
    {
        std::cout << path << ": parse error: " << what << "\n";
        unreadable = true;
    }

    /**
     * Window-level lint of @p prog at @p sww, optionally with streams
     * and a shard manifest. @p lines may be null (compiled workloads).
     */
    void
    lintProgram(const std::string &name, const HaacProgram &prog,
                uint32_t sww, const std::vector<uint32_t> *lines)
    {
        LintOptions lo;
        lo.swwWires = sww;
        lo.warnings = opt.warnings;
        lo.instrLines = lines;

        HaacConfig cfg;
        cfg.numGes = opt.ges;
        cfg.swwBytes = size_t(sww) * kLabelBytes;

        StreamSet streams;
        ShardManifest manifest;
        HaacProgram marked;
        const HaacProgram *target = &prog;
        if (sww > 0 && (opt.streams || opt.shards > 0)) {
            streams = buildStreams(prog, cfg);
            lo.streams = &streams;
            if (opt.shards > 0) {
                const shard::ShardPlan plan =
                    shard::partitionStreams(prog, streams, opt.shards);
                marked = prog;
                shard::markCrossShardLive(marked, plan);
                manifest = shard::toLintManifest(plan);
                lo.shards = &manifest;
                // Rebuild: OoR rewrite depends only on addresses, but
                // the streams' local copies carry live bits.
                streams = buildStreams(marked, cfg);
                target = &marked;
            }
        }
        uint64_t waste = 0;
        const LintReport rep = verifyProgram(*target, lo, &waste);
        report(name, rep,
               waste > 0 ? " (" + std::to_string(waste) +
                               " avoidable DRAM bytes)"
                         : "");
    }

    void
    lintFile(const std::string &path)
    {
        const bool haac = path.size() >= 5 &&
                          path.compare(path.size() - 5, 5, ".haac") == 0;
        if (haac) {
            const AsmResult r = parseAsmFile(path);
            if (!r.ok)
                return parseError(path, r.error);
            // The grader corpus geometry unless overridden.
            lintProgram(path, r.prog, opt.swwGiven ? opt.swwWires : 256,
                        &r.instrLines);
            return;
        }
        LintReport rep;
        Netlist nl;
        try {
            // The lint-attaching parse: analyzer findings plus
            // parse-level MultiplyDriven diagnostics, no policy.
            nl = readBristolFile(path, &rep);
        } catch (const std::exception &ex) {
            return parseError(path, ex.what());
        }
        if (!opt.warnings) // the attaching parse always warns
            rep.filter([](const Diag &d) {
                return d.severity == Severity::Error;
            });
        const CircuitCost cost = circuitCost(nl);
        report(path, rep, costNote(rep, cost), &cost);
    }

    void
    lintWorkload(const std::string &name)
    {
        Workload w;
        try {
            w = vipWorkload(name, /*paper_scale=*/false);
        } catch (const std::exception &ex) {
            usageError(std::string(ex.what()) + " (try --list)");
        }

        // The netlist, minus the warnings the workload waives by design
        // (the registry NOLINT, Workload::lintWaivers). Errors are
        // never waivable.
        AnalyzeOptions ao;
        ao.warnings = opt.warnings;
        CircuitCost cost;
        LintReport rep = analyzeNetlist(
            opt.raw ? w.netlist : optimizeNetlist(w.netlist), ao, &cost);
        const uint32_t waived = rep.filter([&](const Diag &d) {
            return d.severity == Severity::Error ||
                   std::find(w.lintWaivers.begin(), w.lintWaivers.end(),
                             lintCodeName(d.code)) ==
                       w.lintWaivers.end();
        });
        std::string note = costNote(rep, cost);
        if (waived > 0)
            note = " (" + std::to_string(waived) +
                   " waived by the workload)" + note;
        report("netlist:" + name, rep, note, &cost);

        CompileOptions copts;
        copts.reorder = opt.reorder;
        copts.esw = opt.esw;
        if (opt.swwGiven && opt.swwWires > 0)
            copts.swwWires = opt.swwWires;
        const uint32_t sww = opt.swwGiven ? opt.swwWires
                                          : copts.swwWires;
        lintProgram("program:" + name,
                    compileProgram(assemble(w.netlist), copts), sww,
                    nullptr);
    }

    void
    lintChain(const std::string &spec)
    {
        chain::ChainWorkload w;
        try {
            w = chain::resolveChainWorkload(spec);
        } catch (const std::exception &ex) {
            usageError(ex.what());
        }
        AnalyzeOptions ao;
        ao.warnings = opt.warnings;
        CircuitCost cost;
        const LintReport rep = analyzeChainPlan(w.plan, ao, &cost);
        report("chain:" + spec, rep, costNote(rep, cost), &cost);
    }

    void
    writeJson() const
    {
        std::ostringstream doc;
        doc << "{\"targets\":[";
        for (size_t i = 0; i < json.size(); ++i)
            doc << (i > 0 ? "," : "") << json[i];
        doc << "],\"errors\":" << errors << ",\"warnings\":" << warnings
            << "}\n";
        if (opt.jsonPath == "-") {
            std::cout << doc.str();
            return;
        }
        std::ofstream f(opt.jsonPath);
        if (!f)
            usageError("cannot open " + opt.jsonPath);
        f << doc.str();
    }
};

} // namespace

int
main(int argc, char **argv)
{
    Options opt;

    auto need = [&](int &i, const char *flag) -> const char * {
        if (i + 1 >= argc)
            usageError(std::string(flag) + " needs an argument");
        return argv[++i];
    };

    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (a == "--help" || a == "-h") {
            usage(std::cout);
            return 0;
        } else if (a == "--list") {
            for (const std::string &n : vipNames())
                std::cout << n << "\n";
            for (const std::string &s : chain::chainWorkloadSpecs(8))
                std::cout << s << "\n";
            return 0;
        } else if (a == "--workload") {
            opt.workloads.push_back(need(i, "--workload"));
        } else if (a == "--all-workloads") {
            for (const std::string &n : vipNames())
                opt.workloads.push_back(n);
        } else if (a == "--chain") {
            opt.chains.push_back(need(i, "--chain"));
        } else if (a == "--chains") {
            for (const uint32_t w : {8u, 16u})
                for (const std::string &s :
                     chain::chainWorkloadSpecs(w))
                    opt.chains.push_back(s);
        } else if (a == "--sww-wires") {
            // 1 wire has no half-window to slide by; the cap is far
            // past any workload's address space.
            opt.swwWires = uint32_t(parseCount(
                "haac_lint", "--sww-wires", need(i, "--sww-wires"), 0,
                1u << 24));
            if (opt.swwWires == 1)
                usageError("--sww-wires must be 0 or at least 2");
            opt.swwGiven = true;
        } else if (a == "--streams") {
            opt.streams = true;
        } else if (a == "--shards") {
            // Shard ids are 8-bit (ShardManifest::shardOfInstr).
            opt.shards = uint32_t(parseCount(
                "haac_lint", "--shards", need(i, "--shards"), 0, 255));
        } else if (a == "--ges") {
            opt.ges = uint32_t(parseCount("haac_lint", "--ges",
                                          need(i, "--ges"), 1, kMaxGes));
        } else if (a == "--reorder") {
            const std::string k = need(i, "--reorder");
            if (k == "baseline")
                opt.reorder = ReorderKind::Baseline;
            else if (k == "full")
                opt.reorder = ReorderKind::Full;
            else if (k == "segment")
                opt.reorder = ReorderKind::Segment;
            else
                usageError("unknown reorder kind '" + k + "'");
        } else if (a == "--no-esw") {
            opt.esw = false;
        } else if (a == "--raw") {
            opt.raw = true;
        } else if (a == "--json") {
            opt.jsonPath = need(i, "--json");
        } else if (a == "--no-warnings") {
            opt.warnings = false;
        } else if (a == "--Werror") {
            opt.werror = true;
        } else if (a == "-q" || a == "--quiet") {
            opt.quiet = true;
        } else if (!a.empty() && a[0] == '-') {
            usageError("unknown option '" + a + "' (try --help)");
        } else {
            opt.files.push_back(a);
        }
    }

    if (opt.files.empty() && opt.workloads.empty() && opt.chains.empty())
        usageError("nothing to lint: pass .haac or Bristol files, "
                   "--workload NAME, --all-workloads, --chain SPEC, or "
                   "--chains");

    Run run{opt};
    for (const std::string &path : opt.files)
        run.lintFile(path);
    for (const std::string &name : opt.workloads)
        run.lintWorkload(name);
    for (const std::string &spec : opt.chains)
        run.lintChain(spec);
    if (!opt.jsonPath.empty())
        run.writeJson();

    const bool bad = run.unreadable || run.errors > 0 ||
                     (opt.werror && run.warnings > 0);
    std::cout << "haac_lint: " << run.targets << " target"
              << (run.targets == 1 ? "" : "s") << ", " << run.errors
              << " error" << (run.errors == 1 ? "" : "s") << ", "
              << run.warnings << " warning"
              << (run.warnings == 1 ? "" : "s")
              << (bad ? " — FAIL" : " — ok") << "\n";
    return bad ? 1 : 0;
}
