/**
 * @file
 * The compile_sim workload: the accelerator half of the paper, with no
 * crypto and no network. One pass takes the eight VIP circuits at
 * default scale through Session, compiles each (reorder, rename via
 * applyOrder, ESW), records the GE schedule, runs the cycle model on
 * the default configuration, and checks the compiled program's
 * plaintext interpretation against the netlist on seeded inputs.
 */
#include <algorithm>
#include <fstream>

#include "api/session.h"
#include "bench.h"
#include "core/compiler/passes.h"
#include "core/sim/engine.h"
#include "trace.h"
#include "workloads/vip.h"

namespace haac {
namespace bench {

namespace {

/** Setups per run; setup_s is their median. */
constexpr int kSetups = 3;

struct PassResult
{
    bool ok = true;
    uint64_t cycles = 0;
    uint64_t instructions = 0;
    uint64_t oorReads = 0;
    uint64_t geSlots = 0; ///< cycles x GEs, summed over circuits
};

PassResult
runPass(Tracer &tracer, uint64_t pass, const std::vector<Workload> &suite,
        const HaacConfig &cfg, const Args &args)
{
    PassResult r;
    Tracer::Scope root = tracer.scope("compile_sim.pass", pass, Party::Host);
    for (size_t c = 0; c < suite.size(); ++c) {
        const Workload &wl = suite[c];
        const uint64_t stream = pass * suite.size() + c;
        const std::vector<bool> g =
            seededBits(args.seed, stream, wl.netlist.numGarblerInputs);
        const std::vector<bool> e = seededBits(
            args.seed, stream | (uint64_t(1) << 63),
            wl.netlist.numEvaluatorInputs);
        try {
            const Session session = Session(wl).withConfig(cfg);
            HaacProgram base;
            {
                Tracer::Scope s =
                    tracer.scope("compiler.assemble", pass, Party::Host);
                base = session.assembled();
            }
            HaacProgram prog;
            {
                Tracer::Scope s =
                    tracer.scope("compiler.reorder", pass, Party::Host);
                prog = applyOrder(base, reorderFull(base));
            }
            {
                Tracer::Scope s =
                    tracer.scope("compiler.esw", pass, Party::Host);
                applyEsw(prog, cfg.swwWires());
                r.oorReads += countOorReads(prog, cfg.swwWires());
            }
            StreamSet streams;
            {
                Tracer::Scope s =
                    tracer.scope("compiler.schedule", pass, Party::Host);
                streams = recordSchedule(prog, cfg);
            }
            SimStats stats;
            {
                Tracer::Scope s = tracer.scope("sim.run", pass, Party::Host);
                stats = runSimulation(prog, cfg, streams, SimMode::Combined);
            }
            r.cycles += stats.cycles;
            r.instructions += stats.instructions;
            r.geSlots += stats.cycles * cfg.numGes;

            Tracer::Scope s = tracer.scope("check.plain", pass, Party::Host);
            std::vector<bool> expected = wl.netlist.evaluate(g, e);
            if (args.injectDefect && !expected.empty())
                expected[0] = !expected[0];
            if (executePlain(prog, g, e) != expected)
                r.ok = false;
        } catch (const std::exception &) {
            r.ok = false;
        }
    }
    return r;
}

} // namespace

WorkloadResult
runCompileSim(const Args &args)
{
    Tracer tracer(args.trace);
    const HaacConfig cfg{};
    WorkloadResult out;
    uint64_t pass = 0;
    uint64_t sim_cycles = 0;

    // Setup: resolve the suite and run the first pass (time to the
    // first checked result), several times; setup_s is the median.
    std::vector<double> setup_s, resolve_ms;
    std::vector<Workload> suite;
    for (int i = 0; i < kSetups; ++i) {
        const Clock::time_point t0 = Clock::now();
        {
            Tracer::Scope s =
                tracer.scope("workloads.resolve", kNoSession, Party::Host);
            suite = vipSuite(false);
        }
        resolve_ms.push_back(secondsSince(t0) * 1e3);
        const PassResult r = runPass(tracer, pass++, suite, cfg, args);
        ++out.attempted;
        if (!r.ok)
            ++out.failed;
        sim_cycles = r.cycles;
        setup_s.push_back(secondsSince(t0));
    }
    const uint64_t first_window_pass = pass;

    std::vector<double> pass_s;
    PassResult last;
    const double cpu0 = cpuSeconds();
    const Clock::time_point start = Clock::now();
    const Clock::time_point deadline =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(args.seconds));
    while (Clock::now() < deadline) {
        const Clock::time_point t0 = Clock::now();
        last = runPass(tracer, pass++, suite, cfg, args);
        ++out.attempted;
        if (!last.ok) {
            ++out.failed;
            continue;
        }
        pass_s.push_back(secondsSince(t0));
        // The cycle model is deterministic: every pass must agree.
        if (last.cycles != sim_cycles)
            ++out.failed;
    }
    const double elapsed = secondsSince(start);
    const double cpu = cpuSeconds() - cpu0;
    const double n = double(std::max<size_t>(pass_s.size(), 1));
    const double p50 = percentile(pass_s, 0.5);
    const double p90 = percentile(pass_s, 0.9);
    const double setup = percentile(setup_s, 0.5);
    const double failed_frac =
        double(out.failed) / double(std::max<uint64_t>(out.attempted, 1));

    out.record = {
        {"suite_s", p50, "s"},
        {"suite_p90_s", p90, "s"},
        {"sim_cycles", double(sim_cycles), "cycles"},
        {"failed_frac", failed_frac, "ratio"},
        {"setup_s", setup, "s"},
        {"peak_rss_mb", peakRssMiB(), "MiB"},
        {"window_passes", double(pass_s.size()), "count"},
    };
    out.endToEnd = {
        {"latency_p50_ms", p50 * 1e3, "ms"},
        {"throughput_per_s", double(pass_s.size()) / elapsed, "1/s"},
        {"cpu_ms_per_op", cpu * 1e3 / n, "ms"},
        {"setup_s", setup, "s"},
        {"peak_rss_mb", peakRssMiB(), "MiB"},
    };
    if (!args.trace)
        return out;

    // --- Traced run: per-layer numbers from the window's passes. ---
    const std::vector<Span> spans = tracer.spans();
    const std::vector<int64_t> self = Tracer::selfTimes(spans);
    std::map<std::string, double> ms;
    std::vector<double> unattributed;
    for (size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        if (s.session == kNoSession || s.session < first_window_pass)
            continue;
        ms[s.name] += double(self[i]) / 1e6;
        if (s.name == "compile_sim.pass" && s.endNs > s.startNs)
            unattributed.push_back(double(self[i]) /
                                   double(s.endNs - s.startNs));
    }
    const double passes = double(std::max<uint64_t>(
        pass - first_window_pass, 1));
    std::map<std::string, double> &L = out.layers;
    L["compiler.assemble_ms"] = ms["compiler.assemble"] / passes;
    L["compiler.reorder_ms"] = ms["compiler.reorder"] / passes;
    L["compiler.esw_ms"] = ms["compiler.esw"] / passes;
    L["compiler.schedule_ms"] = ms["compiler.schedule"] / passes;
    L["compiler.oor_reads"] = double(last.oorReads);
    L["sim.run_ms"] = ms["sim.run"] / passes;
    L["sim.host_ns_per_instr"] =
        last.instructions
            ? ms["sim.run"] / passes * 1e6 / double(last.instructions)
            : 0;
    L["sim.ipc"] = last.geSlots ? double(last.instructions) /
                                      double(last.geSlots)
                                : 0;
    L["sim.cycles"] = double(sim_cycles);
    L["check.plain_ms"] = ms["check.plain"] / passes;
    L["workloads.resolve_ms"] = percentile(resolve_ms, 0.5);
    L["trace.unattributed_frac"] = percentile(unattributed, 0.5);
    L["trace.session_p50_ms"] = p50 * 1e3;

    if (!args.traceOut.empty()) {
        std::ofstream f(args.traceOut);
        tracer.writeChrome(f);
    }
    return out;
}

} // namespace bench
} // namespace haac
