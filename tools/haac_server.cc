/**
 * @file
 * haac_server: a multi-session garbled-circuit service.
 *
 * Accepts TCP connections and serves each as one two-party GC session
 * on a worker pool: the client handshakes with its role (garbler or
 * evaluator), names a workload ("Million:32", "Hamm", ...), and the
 * server plays the opposite role with the workload's sample inputs.
 * Every completed session is emitted as one RunReport JSON line
 * (outputs, exact communication accounting, bytes/gates-per-second)
 * to stdout or --report-file.
 *
 *   haac_server --port 9000 --threads 8
 *   haac_server --port 0            # ephemeral; prints the port
 *   haac_server --sessions 16      # exit after 16 sessions (tests)
 *
 * Pair it with the remote-gc backend or the stress clients in
 * tests/test_server.cc; see docs/REPRODUCING.md for a two-terminal
 * walkthrough.
 */
#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <thread>

#include "chain/workloads.h"
#include "net/server.h"
#include "net/tcp.h"
#include "serve/component_pool.h"
#include "serve/pool.h"

#include "cli_args.h"

using namespace haac;

namespace {

TcpListener *g_listener = nullptr;

/** @name Flag bounds, checked before any thread or socket starts */
/// @{
constexpr uint64_t kMaxThreads = 1024;
/** Tables per segment frame: 2^20 tables is a 32 MiB frame. */
constexpr uint64_t kMaxSegment = 1u << 20;
constexpr uint64_t kMaxPoolDepth = 1u << 16;
/// @}

void
onSignal(int)
{
    if (g_listener)
        g_listener->close(); // unblocks the accept loop
}

void
usage(const char *argv0)
{
    std::printf(
        "usage: %s [options]\n"
        "  --port N         TCP port (default 9000; 0 = ephemeral)\n"
        "  --bind HOST      bind address (default 0.0.0.0)\n"
        "  --threads N      concurrent sessions (default 4)\n"
        "  --sessions N     exit after N sessions (default 0 = run "
        "until SIGINT)\n"
        "  --segment N      garbled tables per stream segment "
        "(default 1024)\n"
        "  --seed N         deterministic inline garbling seeds N, "
        "N+1, ... across sessions\n"
        "                   and chain nodes, for tests only (default "
        "0 = OS entropy per garbling)\n"
        "  --pool-depth N   keep N pre-garbled instances ready per "
        "workload (default 0 = garble inline)\n"
        "  --pool-threads N background garbling threads (default 1)\n"
        "  --pool-low-water N refill only after a queue drains below "
        "N (default 0 = always top up)\n"
        "  --component-pool N keep N pre-garbled instances ready per "
        "standard component for chained\n"
        "                   sessions (\"Chain...\" specs; default 0 = "
        "garble components inline);\n"
        "                   shares --pool-threads / --pool-low-water\n"
        "  --chain-prewarm SPEC track a chain workload's components "
        "and fill their queues before\n"
        "                   accepting (e.g. ChainProdCmp:32; repeat "
        "for more; needs --component-pool)\n"
        "  --max-gates N    admission cap on the gates of any "
        "requested circuit: specs,\n"
        "                   chains and uploads (default 4194304)\n"
        "  --no-ot-cache    run the base-OT phase every session "
        "instead of once per connection\n"
        "  --report-file F  append per-session RunReport JSON lines "
        "to F (default stdout)\n"
        "  --quiet          no per-session report lines\n"
        "  --shard-worker   serve sharded-simulation workers instead "
        "of GC sessions\n"
        "                   (pair with the haac-sim-sharded backend; "
        "--threads must\n"
        "                   cover the coordinator's shard count)\n"
        "  --port-file F    write the bound port number to F "
        "(useful with --port 0)\n",
        argv0);
}

} // namespace

int
main(int argc, char **argv)
{
    uint16_t port = 9000;
    std::string bind_host = "0.0.0.0";
    uint64_t max_sessions = 0;
    std::string report_file;
    std::string port_file;
    bool quiet = false;
    size_t pool_depth = 0;
    size_t pool_threads = 1;
    size_t pool_low_water = 0;
    size_t component_pool_depth = 0;
    std::vector<std::string> chain_prewarm;
    ServerOptions opts;
    opts.errors = &std::cerr;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s needs a value\n", arg.c_str());
                std::exit(2);
            }
            return argv[++i];
        };
        auto count = [&](uint64_t lo, uint64_t hi) {
            return parseCount("haac_server", arg.c_str(), value(), lo,
                              hi);
        };
        if (arg == "--port")
            port = uint16_t(count(0, 65535));
        else if (arg == "--bind")
            bind_host = value();
        else if (arg == "--threads")
            opts.threads = uint32_t(count(1, kMaxThreads));
        else if (arg == "--sessions")
            max_sessions = count(0, UINT64_MAX);
        else if (arg == "--segment")
            opts.segmentTables = uint32_t(count(1, kMaxSegment));
        else if (arg == "--seed")
            opts.seedBase = count(0, UINT64_MAX);
        else if (arg == "--pool-depth")
            pool_depth = size_t(count(0, kMaxPoolDepth));
        else if (arg == "--pool-threads")
            pool_threads = size_t(count(1, kMaxThreads));
        else if (arg == "--pool-low-water")
            pool_low_water = size_t(count(0, kMaxPoolDepth));
        else if (arg == "--component-pool")
            component_pool_depth = size_t(count(0, kMaxPoolDepth));
        else if (arg == "--chain-prewarm")
            chain_prewarm.push_back(value());
        else if (arg == "--max-gates")
            opts.maxGates = uint32_t(count(1, UINT32_MAX));
        else if (arg == "--no-ot-cache")
            opts.cacheBaseOt = false;
        else if (arg == "--report-file")
            report_file = value();
        else if (arg == "--quiet")
            quiet = true;
        else if (arg == "--shard-worker")
            opts.shardWorker = true;
        else if (arg == "--port-file")
            port_file = value();
        else if (arg == "--help" || arg == "-h") {
            usage(argv[0]);
            return 0;
        } else {
            std::fprintf(stderr, "unknown flag %s\n", arg.c_str());
            usage(argv[0]);
            return 2;
        }
    }

    std::ofstream report_stream;
    if (!quiet) {
        if (!report_file.empty()) {
            report_stream.open(report_file, std::ios::app);
            if (!report_stream) {
                std::fprintf(stderr, "cannot open %s\n",
                             report_file.c_str());
                return 1;
            }
            opts.reports = &report_stream;
        } else {
            opts.reports = &std::cout;
        }
    }

    try {
        TcpListener listener(port, bind_host);
        g_listener = &listener;
        std::signal(SIGINT, onSignal);
        std::signal(SIGTERM, onSignal);

        std::fprintf(stderr,
                     "haac_server listening on %s:%u (%u workers, "
                     "segment %u tables%s)\n",
                     bind_host.c_str(), unsigned(listener.port()),
                     unsigned(opts.threads),
                     unsigned(opts.segmentTables),
                     opts.shardWorker ? ", shard-worker mode" : "");
        if (!port_file.empty()) {
            std::ofstream pf(port_file, std::ios::trunc);
            if (!pf) {
                std::fprintf(stderr, "cannot open %s\n",
                             port_file.c_str());
                return 1;
            }
            pf << listener.port() << "\n";
        }

        std::unique_ptr<serve::GarblePool> pool;
        if (pool_depth > 0) {
            serve::PoolOptions popts;
            popts.depth = pool_depth;
            popts.threads = pool_threads;
            popts.lowWater = pool_low_water;
            pool = std::make_unique<serve::GarblePool>(popts);
            opts.pool = pool.get();
        }

        std::unique_ptr<serve::ComponentPool> component_pool;
        if (component_pool_depth > 0) {
            serve::PoolOptions popts;
            popts.depth = component_pool_depth;
            popts.threads = pool_threads;
            popts.lowWater = pool_low_water;
            component_pool =
                std::make_unique<serve::ComponentPool>(popts);
            opts.componentPool = component_pool.get();
            for (const std::string &spec : chain_prewarm)
                component_pool->trackPlan(
                    chain::resolveChainWorkload(spec).plan);
            if (!chain_prewarm.empty()) {
                component_pool->prewarm();
                std::fprintf(stderr,
                             "component pool warm for %zu chain "
                             "workload(s)\n",
                             chain_prewarm.size());
            }
        } else if (!chain_prewarm.empty()) {
            std::fprintf(stderr,
                         "--chain-prewarm needs --component-pool\n");
            return 2;
        }

        GcServer server(opts);
        if (max_sessions == 0) {
            server.serveTcp(listener); // until SIGINT/SIGTERM
        } else {
            for (uint64_t accepted = 0; accepted < max_sessions;
                 ++accepted)
                server.submit(listener.accept());
        }
        server.drain();

        const GcServer::Totals totals = server.totals();
        std::fprintf(stderr,
                     "served %llu sessions (%llu failed) on %llu "
                     "connections, %llu gates, %llu payload bytes, "
                     "%.3f session-seconds, pool %llu/%llu hit/miss, "
                     "%llu OT setups reused, %llu chained "
                     "(%llu/%llu components pooled, %llu link "
                     "bytes)\n",
                     (unsigned long long)totals.sessionsServed,
                     (unsigned long long)totals.sessionsFailed,
                     (unsigned long long)totals.connectionsServed,
                     (unsigned long long)totals.gates,
                     (unsigned long long)totals.payloadBytes,
                     totals.sessionSeconds,
                     (unsigned long long)totals.poolHits,
                     (unsigned long long)totals.poolMisses,
                     (unsigned long long)totals.otSetupsReused,
                     (unsigned long long)totals.chainSessions,
                     (unsigned long long)totals.componentPoolHits,
                     (unsigned long long)totals.componentsLinked,
                     (unsigned long long)totals.linkBytes);
        return totals.sessionsFailed == 0 ? 0 : 1;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "haac_server: %s\n", e.what());
        return 1;
    }
}
