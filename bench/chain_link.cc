/**
 * @file
 * Chaining-layer request-time cost: link tables vs inline garbling.
 *
 * ROADMAP arc 2's "garble once, link at request time": with a warm
 * ComponentPool, serving a circuit the server has never garbled
 * before costs one label-translation table per link (32 bytes, two
 * hashes) instead of a full monolithic garbling (two key expansions
 * and four AES calls per AND gate). ChainProdCmp:W is the headline
 * shape — its two W-bit multipliers hide ~2W^2 AND gates behind 2W
 * links — so the request-time gap widens quadratically with width.
 *
 * Two measurements:
 *
 *  - *request-time crypto* (the headline): garbler-side work on the
 *    request path. Monolithic = captureGarbling of the plan's
 *    equivalent single netlist; chained = buildLinkTables over
 *    components garbled ahead of time. The acceptance bar for the
 *    chaining PR is >= 5x; --min-speedup fails the run below a floor.
 *  - *end-to-end sessions*: full two-party loopback protocol runs
 *    (real IKNP OT), chained-with-warm-pool vs monolithic-inline,
 *    outputs cross-checked against the plaintext expectation.
 */
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "chain/link.h"
#include "chain/workloads.h"
#include "gc/instance.h"
#include "harness.h"
#include "net/loopback.h"
#include "net/remote.h"
#include "net/server.h"
#include "serve/component_pool.h"

using namespace haac;
using namespace haac::bench;
using namespace haac::chain;

namespace {

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

struct E2eResult
{
    /** Garbler-side report from the last session (deterministic
     *  accounting fields; timing fields are per-run). */
    RunReport report;
    double seconds = 0;
    uint64_t wrongOutputs = 0;
};

/** One full two-party session per iteration, chained or monolithic. */
E2eResult
runE2e(const ChainWorkload &wl, const Netlist &mono, uint32_t sessions,
       bool chained, serve::ComponentPool *pool)
{
    E2eResult r;
    const auto start = Clock::now();
    for (uint32_t s = 0; s < sessions; ++s) {
        auto [g_end, e_end] = LoopbackTransport::createPair();
        std::exception_ptr g_error;
        std::thread garbler([&, g = g_end.get()] {
            try {
                g->handshake(PeerRole::Garbler);
                const RemoteResult res =
                    chained ? runChainGarbler(wl.plan, wl.garblerBits, *g,
                                              pool->provider(), {})
                            : runRemoteGarbler(mono, wl.garblerBits, *g,
                                               0xB5EED + s, {});
                r.report = makeRemoteReport(res, Role::Garbler, *g);
            } catch (...) {
                g_error = std::current_exception();
            }
        });
        std::vector<bool> outputs;
        e_end->handshake(PeerRole::Evaluator);
        if (chained)
            outputs = runChainEvaluator(wl.plan, wl.evaluatorBits,
                                        *e_end, {})
                          .outputs;
        else
            outputs = runRemoteEvaluator(mono, wl.evaluatorBits,
                                         *e_end, {})
                          .outputs;
        garbler.join();
        if (g_error)
            std::rethrow_exception(g_error);
        if (outputs != wl.expectedOutputs)
            ++r.wrongOutputs;
    }
    r.seconds = secondsSince(start);
    r.report.workload = wl.name;
    return r;
}

} // namespace

int
main(int argc, char **argv)
{
    uint32_t width = 32;
    uint32_t iters = 32;
    uint32_t sessions = 4;
    double min_speedup = 5;

    std::vector<char *> pass;
    pass.push_back(argv[0]);
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg.rfind("--width=", 0) == 0)
            width = uint32_t(std::strtoul(arg.c_str() + 8, nullptr, 10));
        else if (arg.rfind("--iters=", 0) == 0)
            iters = uint32_t(std::strtoul(arg.c_str() + 8, nullptr, 10));
        else if (arg.rfind("--sessions=", 0) == 0)
            sessions =
                uint32_t(std::strtoul(arg.c_str() + 11, nullptr, 10));
        else if (arg.rfind("--min-speedup=", 0) == 0)
            min_speedup = std::strtod(arg.c_str() + 14, nullptr);
        else
            pass.push_back(argv[i]);
    }
    if (width == 0 || iters == 0 || sessions == 0) {
        std::fprintf(stderr,
                     "--width, --iters, --sessions must be >= 1\n");
        return 2;
    }
    Options opts = parseArgs(
        int(pass.size()), pass.data(),
        "Chaining layer: link-table cost vs inline garbling\n\n"
        "extra flags:\n"
        "  --width=N        ChainProdCmp operand width (default 32)\n"
        "  --iters=N        request-time crypto iterations (default 32)\n"
        "  --sessions=N     end-to-end sessions per flavor (default 4)\n"
        "  --min-speedup=X  exit nonzero below X (default 5)");

    const std::string spec = "ChainProdCmp:" + std::to_string(width);
    const ChainWorkload wl = resolveChainWorkload(spec);
    const Netlist mono = wl.plan.monolithic();
    const uint32_t nodes = uint32_t(wl.plan.nodes.size());
    const uint32_t links = wl.plan.numLinks();

    std::printf("== Chaining layer: %s (%u components, %u links, "
                "%u AND gates monolithic) ==\n\n",
                spec.c_str(), unsigned(nodes), unsigned(links),
                unsigned(mono.numAndGates()));

    // --- request-time crypto -------------------------------------------
    // Monolithic: the garbler runs the full circuit through the
    // garbling pipeline inside the request.
    uint64_t sink = 0;
    auto start = Clock::now();
    for (uint32_t i = 0; i < iters; ++i)
        sink += captureGarbling(mono, 0xB5EED + i).tables.size();
    const double mono_seconds = secondsSince(start);

    // Chained: components were garbled off the request path (here:
    // ahead of the timer); the request itself builds link tables only.
    std::vector<std::vector<GarbledComponent>> ready(iters);
    for (uint32_t i = 0; i < iters; ++i)
        for (uint32_t n = 0; n < nodes; ++n)
            ready[i].push_back(captureComponent(
                wl.plan.nodes[n], 0xC0FFEE + uint64_t(i) * nodes + n));
    start = Clock::now();
    for (uint32_t i = 0; i < iters; ++i) {
        std::vector<const GarbledComponent *> ptrs;
        ptrs.reserve(nodes);
        for (const GarbledComponent &c : ready[i])
            ptrs.push_back(&c);
        sink += buildLinkTables(wl.plan, ptrs).size();
    }
    const double link_seconds = secondsSince(start);
    if (sink == 0) // keep the timed work observable
        return 1;

    const double speedup =
        link_seconds > 0 ? mono_seconds / link_seconds : 0;

    // --- end-to-end sessions -------------------------------------------
    serve::PoolOptions popts;
    popts.depth = 2 * size_t(sessions); // covers the doubled MUL spec
    popts.lowWater = 1;
    serve::ComponentPool pool(popts);
    pool.trackPlan(wl.plan);
    pool.prewarm();

    const E2eResult e2e_mono =
        runE2e(wl, mono, sessions, false, nullptr);
    const E2eResult e2e_chain =
        runE2e(wl, mono, sessions, true, &pool);
    const double e2e_speedup = e2e_chain.seconds > 0
                                   ? e2e_mono.seconds / e2e_chain.seconds
                                   : 0;

    RunLog log(opts, "chain_link");
    Report table({"Phase", "Seconds", "Per-request", "Speedup"},
                 opts.format);
    table.addRow({"garble-monolithic", fmt(mono_seconds, 4),
                  fmtSeconds(mono_seconds / iters), "1.00"});
    table.addRow({"link-pooled", fmt(link_seconds, 4),
                  fmtSeconds(link_seconds / iters), fmt(speedup, 2)});
    table.addRow({"e2e-monolithic", fmt(e2e_mono.seconds, 4),
                  fmtSeconds(e2e_mono.seconds / sessions), "1.00"});
    table.addRow({"e2e-chained", fmt(e2e_chain.seconds, 4),
                  fmtSeconds(e2e_chain.seconds / sessions),
                  fmt(e2e_speedup, 2)});
    table.print(std::cout);

    {
        RunReport report;
        report.backend = "chain-link";
        report.workload = spec;
        report.hostSeconds = mono_seconds;
        report.gates = uint64_t(mono.numGates()) * iters;
        log.add(report, "garble-monolithic");
    }
    {
        RunReport report;
        report.backend = "chain-link";
        report.workload = spec;
        report.hostSeconds = link_seconds;
        report.gates = wl.plan.totalGates() * iters;
        report.chain.components = nodes;
        report.chain.links = links;
        report.chain.linkBytes = uint64_t(links) * kLinkTableBytes;
        report.hasChain = true;
        log.add(report, "link-pooled");
    }
    log.add(e2e_mono.report, "e2e-monolithic");
    log.add(e2e_chain.report, "e2e-chained");

    std::printf("\nrequest-time crypto speedup: %.2fx "
                "(%.2f ms -> %.2f ms per request)\n"
                "end-to-end session speedup:  %.2fx\n",
                speedup, 1e3 * mono_seconds / iters,
                1e3 * link_seconds / iters, e2e_speedup);

    if (e2e_mono.wrongOutputs + e2e_chain.wrongOutputs > 0) {
        std::fprintf(stderr, "FAIL: %llu wrong outputs\n",
                     (unsigned long long)(e2e_mono.wrongOutputs +
                                          e2e_chain.wrongOutputs));
        return 1;
    }
    if (min_speedup > 0 && speedup < min_speedup) {
        std::fprintf(stderr, "FAIL: speedup %.2fx below floor %.2fx\n",
                     speedup, min_speedup);
        return 1;
    }
    return 0;
}
