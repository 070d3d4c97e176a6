/**
 * @file
 * GcServer: the multi-session two-party service — workload spec
 * resolution, session establishment (clientHello), error acks,
 * JSON-Lines report emission, and the concurrency stress test the
 * acceptance criteria require (>= 8 concurrent sessions, clean under
 * ASan/UBSan; CI's sanitizer job runs this suite).
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <exception>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

#include "chain/workloads.h"
#include "circuit/bristol.h"
#include "gc/instance.h"
#include "net/loopback.h"
#include "net/server.h"
#include "serve/component_pool.h"
#include "serve/pool.h"
#include "workloads/priorwork.h"

using namespace haac;

namespace {

class PeerThread
{
  public:
    template <typename Fn>
    explicit PeerThread(Fn fn)
        : thread_([this, fn = std::move(fn)]() mutable {
              try {
                  fn();
              } catch (...) {
                  error_ = std::current_exception();
              }
          })
    {
    }

    void
    join()
    {
        thread_.join();
        if (error_)
            std::rethrow_exception(error_);
    }

  private:
    std::exception_ptr error_;
    std::thread thread_;
};

size_t
countLines(const std::string &s)
{
    size_t n = 0;
    for (char ch : s)
        if (ch == '\n')
            ++n;
    return n;
}

/** The remote fingerprint with OT byte @p ot_byte (net/remote.cc). */
std::vector<uint8_t>
handRolledFingerprint(const Netlist &nl, uint8_t ot_byte)
{
    std::vector<uint8_t> fp;
    auto u32 = [&](uint32_t v) {
        for (int i = 0; i < 4; ++i)
            fp.push_back(uint8_t(v >> (8 * i)));
    };
    u32(nl.numGarblerInputs);
    u32(nl.numEvaluatorInputs);
    u32(nl.numGates());
    u32(nl.numAndGates());
    u32(uint32_t(nl.outputs.size()));
    u32(nl.constOne);
    fp.resize(fp.size() + 8, 0);
    u32(1024);
    fp.push_back(ot_byte);
    fp.push_back(0);
    return fp;
}

} // namespace

TEST(ResolveWorkload, KnownSpecs)
{
    EXPECT_EQ(resolveWorkload("Million:32").netlist.numGarblerInputs,
              32u);
    EXPECT_EQ(resolveWorkload("Adder:16").netlist.numEvaluatorInputs,
              16u);
    EXPECT_GT(resolveWorkload("Mult:8").netlist.numAndGates(), 0u);
    EXPECT_GT(resolveWorkload("AES128").netlist.numGates(), 0u);
    EXPECT_GT(resolveWorkload("Hamm").netlist.numGates(), 0u);
}

TEST(ResolveWorkload, RejectsUnknownAndMalformed)
{
    EXPECT_THROW(resolveWorkload("NoSuchCircuit"), NetError);
    EXPECT_THROW(resolveWorkload("Million:"), NetError);
    EXPECT_THROW(resolveWorkload("Million:zero"), NetError);
    EXPECT_THROW(resolveWorkload("Million:0"), NetError);
    EXPECT_THROW(resolveWorkload("Bogus:12"), NetError);
}

TEST(GcServer, ServesOneSessionWithReportLine)
{
    std::ostringstream reports;
    ServerOptions opts;
    opts.threads = 2;
    opts.reports = &reports;
    GcServer server(opts);

    const Workload wl = resolveWorkload("Million:16");
    auto [client_end, server_end] = LoopbackTransport::createPair();
    server.submit(std::move(server_end));

    // Client garbles with its own bits; the server evaluates with the
    // workload's sample bits.
    clientHello(*client_end, PeerRole::Garbler, "Million:16");
    const RemoteResult res = runRemoteGarbler(
        wl.netlist, wl.garblerBits, *client_end, 77);
    client_end.reset(); // connections are multi-session: close to end
    server.drain();

    EXPECT_EQ(res.outputs,
              wl.netlist.evaluate(wl.garblerBits, wl.evaluatorBits));

    const GcServer::Totals totals = server.totals();
    EXPECT_EQ(totals.sessionsServed, 1u);
    EXPECT_EQ(totals.sessionsFailed, 0u);
    EXPECT_EQ(totals.gates, wl.netlist.numGates());

    const std::string line = reports.str();
    EXPECT_EQ(countLines(line), 1u);
    EXPECT_NE(line.find("\"backend\":\"remote-gc\""),
              std::string::npos);
    EXPECT_NE(line.find("\"workload\":\"Million-16\""),
              std::string::npos);
    EXPECT_NE(line.find("\"label\":\"session-0\""), std::string::npos);
    EXPECT_NE(line.find("\"net\""), std::string::npos);
}

TEST(GcServer, RefusesAnOtDowngradeFromAGarblingClient)
{
    // A client that garbles picks the fingerprint; one asking for the
    // old simulated OT (byte 36 = 0) must not get the server's input
    // bits uplinked in the clear. The server fails that session
    // without answering and keeps serving everyone else.
    ServerOptions opts;
    opts.threads = 1;
    GcServer server(opts);
    const Workload wl = resolveWorkload("Million:16");

    {
        auto [client_end, server_end] = LoopbackTransport::createPair();
        server.submit(std::move(server_end));
        clientHello(*client_end, PeerRole::Garbler, "Million:16");
        client_end->sendFrame(handRolledFingerprint(wl.netlist, 0));
        EXPECT_THROW(client_end->recvFrame(), NetError)
            << "the server answered a downgraded fingerprint";
    }
    server.drain();
    EXPECT_EQ(server.totals().sessionsFailed, 1u);
    EXPECT_EQ(server.totals().sessionsServed, 0u);

    auto [client_end, server_end] = LoopbackTransport::createPair();
    server.submit(std::move(server_end));
    clientHello(*client_end, PeerRole::Garbler, "Million:16");
    const RemoteResult res = runRemoteGarbler(
        wl.netlist, wl.garblerBits, *client_end, 78);
    client_end.reset();
    server.drain();
    EXPECT_EQ(res.outputs,
              wl.netlist.evaluate(wl.garblerBits, wl.evaluatorBits));
    EXPECT_EQ(server.totals().sessionsFailed, 1u);
    EXPECT_EQ(server.totals().sessionsServed, 1u);
}

TEST(GcServer, ClientMayEvaluateToo)
{
    ServerOptions opts;
    opts.threads = 1;
    GcServer server(opts);
    const Workload wl = resolveWorkload("Adder:8");

    auto [client_end, server_end] = LoopbackTransport::createPair();
    server.submit(std::move(server_end));
    clientHello(*client_end, PeerRole::Evaluator, "Adder:8");
    const RemoteResult res = runRemoteEvaluator(
        wl.netlist, wl.evaluatorBits, *client_end);
    client_end.reset();
    server.drain();
    EXPECT_EQ(res.outputs,
              wl.netlist.evaluate(wl.garblerBits, wl.evaluatorBits));
    EXPECT_EQ(server.totals().sessionsServed, 1u);
}

TEST(GcServer, RefusesBadSpecAndKeepsServing)
{
    std::ostringstream reports;
    ServerOptions opts;
    opts.threads = 2;
    opts.reports = &reports;
    GcServer server(opts);

    {
        auto [client_end, server_end] = LoopbackTransport::createPair();
        server.submit(std::move(server_end));
        try {
            clientHello(*client_end, PeerRole::Garbler, "NoSuch:9");
            FAIL() << "expected refusal";
        } catch (const NetError &e) {
            EXPECT_NE(std::string(e.what()).find("unknown workload"),
                      std::string::npos);
        }
    }
    {
        auto [client_end, server_end] = LoopbackTransport::createPair();
        server.submit(std::move(server_end));
        EXPECT_THROW(clientHello(*client_end, PeerRole::Garbler, ""),
                     NetError);
    }

    // The server survives refused sessions and serves real ones.
    const Workload wl = resolveWorkload("Million:8");
    auto [client_end, server_end] = LoopbackTransport::createPair();
    server.submit(std::move(server_end));
    clientHello(*client_end, PeerRole::Garbler, "Million:8");
    const RemoteResult res = runRemoteGarbler(
        wl.netlist, wl.garblerBits, *client_end, 3);
    client_end.reset();
    server.drain();

    EXPECT_EQ(res.outputs,
              wl.netlist.evaluate(wl.garblerBits, wl.evaluatorBits));
    const GcServer::Totals totals = server.totals();
    EXPECT_EQ(totals.sessionsServed, 1u);
    EXPECT_EQ(totals.sessionsFailed, 2u);
    EXPECT_EQ(countLines(reports.str()), 1u);
}

TEST(GcServer, StressEightPlusConcurrentSessions)
{
    // The acceptance bar: >= 8 sessions in flight at once, mixed
    // workloads and roles, every output correct, every session
    // reported, no data races (CI runs this under ASan/UBSan).
    constexpr uint32_t kWorkers = 8;
    constexpr uint32_t kSessions = 16;
    const char *kSpecs[] = {"Million:16", "Adder:8", "Million:8",
                            "Mult:4"};

    std::ostringstream reports;
    ServerOptions opts;
    opts.threads = kWorkers;
    opts.reports = &reports;
    GcServer server(opts);

    // Submit every server end first so all workers go busy together,
    // then run all clients concurrently.
    std::vector<std::unique_ptr<LoopbackTransport>> client_ends;
    for (uint32_t i = 0; i < kSessions; ++i) {
        auto [client_end, server_end] = LoopbackTransport::createPair();
        client_ends.push_back(std::move(client_end));
        server.submit(std::move(server_end));
    }

    // Each client owns its endpoint and closes it on completion —
    // parked multi-session connections would otherwise pin all
    // kWorkers workers and starve the remaining connections.
    std::atomic<uint32_t> ok{0};
    std::vector<std::unique_ptr<PeerThread>> clients;
    for (uint32_t i = 0; i < kSessions; ++i) {
        clients.push_back(std::make_unique<PeerThread>(
            [i, &ok, &kSpecs, t = std::move(client_ends[i])] {
                const std::string spec = kSpecs[i % 4];
                const Workload wl = resolveWorkload(spec);
                const std::vector<bool> expected = wl.netlist.evaluate(
                    wl.garblerBits, wl.evaluatorBits);
                const bool garble = i % 2 == 0;
                clientHello(*t,
                            garble ? PeerRole::Garbler
                                   : PeerRole::Evaluator,
                            spec);
                const RemoteResult res =
                    garble ? runRemoteGarbler(wl.netlist,
                                              wl.garblerBits, *t,
                                              1000 + i)
                           : runRemoteEvaluator(wl.netlist,
                                                wl.evaluatorBits, *t);
                if (res.outputs == expected)
                    ++ok;
            }));
    }
    for (auto &client : clients)
        client->join();
    server.drain();

    EXPECT_EQ(ok.load(), kSessions);
    const GcServer::Totals totals = server.totals();
    EXPECT_EQ(totals.sessionsServed, kSessions);
    EXPECT_EQ(totals.sessionsFailed, 0u);
    EXPECT_GT(totals.payloadBytes, 0u);
    EXPECT_EQ(countLines(reports.str()), kSessions);
}

TEST(GcServer, ServeTcpAcceptLoop)
{
    std::unique_ptr<TcpListener> listener;
    try {
        listener = std::make_unique<TcpListener>(0, "127.0.0.1");
    } catch (const NetError &) {
        GTEST_SKIP() << "TCP sockets unavailable in this sandbox";
    }

    std::ostringstream reports;
    ServerOptions opts;
    opts.threads = 4;
    opts.reports = &reports;
    GcServer server(opts);
    PeerThread accept_loop([&] { server.serveTcp(*listener); });

    const Workload wl = resolveWorkload("Million:8");
    for (int i = 0; i < 2; ++i) {
        auto conn = TcpTransport::connect("127.0.0.1",
                                          listener->port());
        clientHello(*conn, PeerRole::Garbler, "Million:8");
        const RemoteResult res = runRemoteGarbler(
            wl.netlist, wl.garblerBits, *conn, 50 + i);
        EXPECT_EQ(res.outputs, wl.netlist.evaluate(
                                   wl.garblerBits, wl.evaluatorBits));
    }
    server.drain();
    listener->close(); // winds down the accept loop
    accept_loop.join();

    EXPECT_EQ(server.totals().sessionsServed, 2u);
    EXPECT_EQ(countLines(reports.str()), 2u);
}

// ---------------------------------------------------------------------
// Netlist uploads: the analyzer as admission gate
// ---------------------------------------------------------------------

namespace {

/** (g0 AND e0) XOR g0, inverted — 3 gates, both parties involved. */
const char *kCleanBristol = "3 5\n"
                            "1 1 1\n"
                            "\n"
                            "2 1 0 1 2 AND\n"
                            "2 1 0 2 3 XOR\n"
                            "1 1 3 4 INV\n";

} // namespace

TEST(GcServer, ServesUploadedNetlist)
{
    std::ostringstream reports;
    ServerOptions opts;
    opts.threads = 1;
    opts.reports = &reports;
    GcServer server(opts);

    auto [client_end, server_end] = LoopbackTransport::createPair();
    server.submit(std::move(server_end));

    // Uploads skip the spec frame: handshake, then the upload request.
    client_end->handshake(PeerRole::Garbler);
    clientUploadRequest(*client_end, kCleanBristol);

    const Netlist nl = readBristolString(kCleanBristol);
    const std::vector<bool> garbler_bits{true};
    const RemoteResult res =
        runRemoteGarbler(nl, garbler_bits, *client_end, 31);
    client_end.reset();
    server.drain();

    // The server evaluated with all-zero inputs (it has no stake in a
    // circuit it has never seen).
    EXPECT_EQ(res.outputs, nl.evaluate(garbler_bits, {false}));

    const GcServer::Totals totals = server.totals();
    EXPECT_EQ(totals.sessionsServed, 1u);
    EXPECT_EQ(totals.uploadSessions, 1u);
    EXPECT_EQ(totals.uploadsRefused, 0u);
    EXPECT_EQ(totals.sessionsFailed, 0u);
    EXPECT_EQ(totals.gates, nl.numGates());
    EXPECT_NE(reports.str().find("\"workload\":\"uploaded-netlist\""),
              std::string::npos);
}

TEST(GcServer, RefusesCyclicUploadBeforeGarbling)
{
    ServerOptions opts;
    opts.threads = 1;
    GcServer server(opts);

    // Gate 0 reads file wire 3, which is only defined by gate 1: the
    // textual form of a combinational cycle. Refused at parse.
    const std::string cyclic = "3 5\n"
                               "1 1 1\n"
                               "\n"
                               "2 1 0 3 2 XOR\n"
                               "2 1 0 1 3 XOR\n"
                               "1 1 2 4 INV\n";

    auto [client_end, server_end] = LoopbackTransport::createPair();
    server.submit(std::move(server_end));
    client_end->handshake(PeerRole::Garbler);
    try {
        clientUploadRequest(*client_end, cyclic);
        FAIL() << "expected refusal";
    } catch (const NetError &e) {
        EXPECT_NE(std::string(e.what()).find("undefined wire"),
                  std::string::npos);
    }
    client_end.reset();
    server.drain();

    // Refused before any garbling work: no gates, no session served.
    const GcServer::Totals totals = server.totals();
    EXPECT_EQ(totals.uploadsRefused, 1u);
    EXPECT_EQ(totals.sessionsFailed, 1u);
    EXPECT_EQ(totals.sessionsServed, 0u);
    EXPECT_EQ(totals.uploadSessions, 0u);
    EXPECT_EQ(totals.gates, 0u);
}

TEST(GcServer, RefusesMultiplyDrivenUploadViaAnalyzer)
{
    ServerOptions opts;
    opts.threads = 1;
    GcServer server(opts);

    // Parses fine (last definition wins), so only the analyzer's
    // multiply-driven diagnostic stands between this and the garbler.
    const std::string rebind = "3 5\n"
                               "1 1 1\n"
                               "\n"
                               "2 1 0 1 3 XOR\n"
                               "2 1 1 0 3 XOR\n"
                               "1 1 3 4 INV\n";

    auto [client_end, server_end] = LoopbackTransport::createPair();
    server.submit(std::move(server_end));
    client_end->handshake(PeerRole::Garbler);
    try {
        clientUploadRequest(*client_end, rebind);
        FAIL() << "expected refusal";
    } catch (const NetError &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("circuit analyzer"), std::string::npos);
        EXPECT_NE(what.find("driven again"), std::string::npos);
    }
    client_end.reset();
    server.drain();

    const GcServer::Totals totals = server.totals();
    EXPECT_EQ(totals.uploadsRefused, 1u);
    EXPECT_EQ(totals.gates, 0u);
}

TEST(GcServer, RefusesOversizedUploadBeforeParsing)
{
    ServerOptions opts;
    opts.threads = 1;
    opts.maxGates = 2; // the clean upload declares 3
    GcServer server(opts);

    auto [client_end, server_end] = LoopbackTransport::createPair();
    server.submit(std::move(server_end));
    client_end->handshake(PeerRole::Garbler);
    try {
        clientUploadRequest(*client_end, kCleanBristol);
        FAIL() << "expected refusal";
    } catch (const NetError &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("declares 3 gates"), std::string::npos);
        EXPECT_NE(what.find("at most 2"), std::string::npos);
    }
    client_end.reset();
    server.drain();

    const GcServer::Totals totals = server.totals();
    EXPECT_EQ(totals.uploadsRefused, 1u);
    EXPECT_EQ(totals.gates, 0u);
}

TEST(GcServer, RefusesWireInflatedUploadBeforeParsing)
{
    ServerOptions opts;
    opts.threads = 1;
    opts.maxGates = 2; // wire cap follows: 2 * 2 + 1 = 5
    GcServer server(opts);

    // Gate count passes the cap; the declared wire count alone must
    // refuse the upload before the parser sizes its wire map off it.
    const std::string inflated = "2 1000000000\n1 1 1\n\n"
                                 "2 1 0 1 3 AND\n"
                                 "2 1 0 3 4 XOR\n";

    auto [client_end, server_end] = LoopbackTransport::createPair();
    server.submit(std::move(server_end));
    client_end->handshake(PeerRole::Garbler);
    try {
        clientUploadRequest(*client_end, inflated);
        FAIL() << "expected refusal";
    } catch (const NetError &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("declares 1000000000 wires"),
                  std::string::npos);
        EXPECT_NE(what.find("at most 5"), std::string::npos);
    }
    client_end.reset();
    server.drain();

    const GcServer::Totals totals = server.totals();
    EXPECT_EQ(totals.uploadsRefused, 1u);
    EXPECT_EQ(totals.gates, 0u);
}

TEST(GcServer, UploadAndSpecSessionsShareAConnection)
{
    ServerOptions opts;
    opts.threads = 1;
    GcServer server(opts);

    const Workload wl = resolveWorkload("Million:8");
    auto [client_end, server_end] = LoopbackTransport::createPair();
    server.submit(std::move(server_end));

    client_end->handshake(PeerRole::Garbler);

    // Session 1: a registry spec.
    clientRequest(*client_end, "Million:8");
    const RemoteResult spec_res = runRemoteGarbler(
        wl.netlist, wl.garblerBits, *client_end, 61);
    EXPECT_EQ(spec_res.outputs,
              wl.netlist.evaluate(wl.garblerBits, wl.evaluatorBits));

    // Session 2, same connection: an uploaded circuit.
    clientUploadRequest(*client_end, kCleanBristol);
    const Netlist nl = readBristolString(kCleanBristol);
    const RemoteResult up_res =
        runRemoteGarbler(nl, {true}, *client_end, 62);
    EXPECT_EQ(up_res.outputs, nl.evaluate({true}, {false}));

    client_end.reset();
    server.drain();

    const GcServer::Totals totals = server.totals();
    EXPECT_EQ(totals.sessionsServed, 2u);
    EXPECT_EQ(totals.uploadSessions, 1u);
    EXPECT_EQ(totals.connectionsServed, 1u);
}

// ---------------------------------------------------------------------
// Report goldens: one spec, one chain and one upload session per
// request kind, in both server roles, with and without pools. Each
// connection runs the three kinds twice, so both the fresh and the
// reused base-OT path of every kind land in a report.
// ---------------------------------------------------------------------

namespace {

/**
 * A report line with its host-timing fields dropped — the same
 * VOLATILE set scripts/bench_traj.py strips. The writer's key order
 * is fixed, so what remains compares as a string.
 */
std::string
normalizedReport(std::string json)
{
    static const char *const kVolatile[] = {
        "host_seconds",       "modeled_seconds",  "seconds",
        "gates_per_sec",      "wire_bytes_per_sec",
        "gates_per_second",   "queries_per_second", "endpoint"};
    for (const char *key : kVolatile) {
        const std::string pat = "\"" + std::string(key) + "\":";
        for (size_t at; (at = json.find(pat)) != std::string::npos;) {
            size_t end = json.find_first_of(",}", at);
            if (json[end] == ',')
                ++end; // drop the member and its separator
            else if (json[at - 1] == ',')
                --at; // last member: drop the separator before it
            json.erase(at, end - at);
        }
    }
    return json;
}

std::string
totalsLine(const GcServer::Totals &t)
{
    std::ostringstream os;
    os << "served=" << t.sessionsServed << " failed=" << t.sessionsFailed
       << " conns=" << t.connectionsServed
       << " payload=" << t.payloadBytes << " gates=" << t.gates
       << " pool=" << t.poolHits << "/" << t.poolMisses
       << " ot_reused=" << t.otSetupsReused
       << " chain=" << t.chainSessions << "/" << t.componentsLinked
       << "/" << t.componentPoolHits << " link=" << t.linkBytes
       << " upload=" << t.uploadSessions << "/" << t.uploadsRefused;
    return os.str();
}

/**
 * Serve spec, chain and upload sessions (twice each) on one
 * connection; the client plays @p client. Returns the normalized
 * report lines followed by the server's Totals.
 */
std::vector<std::string>
reportGoldenRun(PeerRole client, bool pools)
{
    const Workload wl = resolveWorkload("Million:16");
    const chain::ChainWorkload cw =
        chain::resolveChainWorkload("ChainMillSum:8");
    const Netlist up = readBristolString(kCleanBristol);

    serve::PoolOptions popts;
    popts.depth = 4;
    serve::GarblePool pool(popts);
    serve::ComponentPool component_pool(popts);
    std::ostringstream reports;
    ServerOptions opts;
    opts.threads = 1;
    opts.reports = &reports;
    if (pools) {
        pool.track("Million:16", wl.netlist);
        pool.prewarm();
        component_pool.trackPlan(cw.plan);
        component_pool.prewarm();
        opts.pool = &pool;
        opts.componentPool = &component_pool;
    }
    GcServer server(opts);

    auto [client_end, server_end] = LoopbackTransport::createPair();
    server.submit(std::move(server_end));
    client_end->handshake(client);
    OtConnectionCache ot;
    RemoteOptions ropts;
    ropts.otCache = &ot;
    const bool garbles = client == PeerRole::Garbler;
    for (int round = 0; round < 2; ++round) {
        clientRequest(*client_end, "Million:16");
        const RemoteResult r =
            garbles ? runRemoteGarbler(wl.netlist, wl.garblerBits,
                                       *client_end, 71 + round, ropts)
                    : runRemoteEvaluator(wl.netlist, wl.evaluatorBits,
                                         *client_end, ropts);
        EXPECT_EQ(r.outputs, wl.expectedOutputs);

        clientRequest(*client_end, "ChainMillSum:8");
        const std::vector<bool> chained =
            garbles ? chain::runChainGarbler(cw.plan, cw.garblerBits,
                                             *client_end, 81 + round,
                                             ropts)
                          .outputs
                    : chain::runChainEvaluator(cw.plan, cw.evaluatorBits,
                                               *client_end, ropts)
                          .outputs;
        EXPECT_EQ(chained, cw.expectedOutputs);

        clientUploadRequest(*client_end, kCleanBristol);
        const RemoteResult u =
            garbles ? runRemoteGarbler(up, {true}, *client_end,
                                       91 + round, ropts)
                    : runRemoteEvaluator(up, {true}, *client_end, ropts);
        EXPECT_EQ(u.outputs, garbles ? up.evaluate({true}, {false})
                                     : up.evaluate({false}, {true}));
    }
    client_end.reset();
    server.drain();

    std::vector<std::string> lines;
    std::istringstream in(reports.str());
    for (std::string line; std::getline(in, line);)
        lines.push_back(normalizedReport(line));
    lines.push_back(totalsLine(server.totals()));
    return lines;
}

/**
 * Compare @p got with block "== @p run" of tests/golden/
 * server_reports.txt: the report lines and Totals each request kind
 * must keep, byte for byte, whatever path serves it.
 */
void
expectGolden(const std::vector<std::string> &got, const std::string &run)
{
    std::ifstream in(std::string(HAAC_GOLDEN_DIR) + "/server_reports.txt");
    ASSERT_TRUE(in) << "missing golden file";
    std::vector<std::string> want;
    bool in_block = false;
    for (std::string line; std::getline(in, line);) {
        if (line.rfind("== ", 0) == 0)
            in_block = line == "== " + run;
        else if (in_block)
            want.push_back(line);
    }
    ASSERT_EQ(got.size(), want.size()) << run;
    for (size_t i = 0; i < got.size(); ++i)
        EXPECT_EQ(got[i], want[i]) << run << " line " << i;
}

} // namespace

TEST(ServerReports, GoldensWhenTheClientGarbles)
{
    expectGolden(reportGoldenRun(PeerRole::Garbler, false),
                 "client-garbles");
}

TEST(ServerReports, GoldensWhenTheServerGarbles)
{
    expectGolden(reportGoldenRun(PeerRole::Evaluator, false),
                 "server-garbles");
}

TEST(ServerReports, GoldensWhenTheServerGarblesFromPools)
{
    expectGolden(reportGoldenRun(PeerRole::Evaluator, true),
                 "server-garbles-pooled");
}

// ---------------------------------------------------------------------
// Spec admission and the server's garbling seeds
// ---------------------------------------------------------------------

TEST(GcServer, RefusesOversizedSpecBeforeSynthesis)
{
    // Mult:64 builds 24,067 gates; its 6N^2 bound (24,576) is checked
    // before synthesis, and the refusal goes back in the ack, exactly
    // as for an oversized upload. Million:32 (~160) stays served.
    ServerOptions opts;
    opts.threads = 1;
    opts.maxGates = 10000;
    GcServer server(opts);
    {
        auto [client_end, server_end] = LoopbackTransport::createPair();
        server.submit(std::move(server_end));
        try {
            clientHello(*client_end, PeerRole::Garbler, "Mult:64");
            FAIL() << "an oversized spec was accepted";
        } catch (const NetError &e) {
            const std::string what = e.what();
            EXPECT_NE(what.find("Mult:64"), std::string::npos) << what;
            EXPECT_NE(what.find("at most 10000"), std::string::npos)
                << what;
        }
    }
    server.drain();
    EXPECT_EQ(server.totals().sessionsFailed, 1u);
    EXPECT_EQ(server.totals().gates, 0u);

    const Workload wl = resolveWorkload("Million:32");
    auto [client_end, server_end] = LoopbackTransport::createPair();
    server.submit(std::move(server_end));
    clientHello(*client_end, PeerRole::Garbler, "Million:32");
    const RemoteResult res =
        runRemoteGarbler(wl.netlist, wl.garblerBits, *client_end, 5);
    client_end.reset();
    server.drain();
    EXPECT_EQ(res.outputs, wl.expectedOutputs);
    EXPECT_EQ(server.totals().sessionsServed, 1u);
    EXPECT_EQ(server.totals().sessionsFailed, 1u);
}

namespace {

/** A transport end that keeps a copy of every byte it reads. */
class RecordingTransport : public Transport
{
  public:
    explicit RecordingTransport(std::unique_ptr<Transport> inner)
        : inner_(std::move(inner))
    {
    }

    void
    writeAll(const uint8_t *data, size_t n) override
    {
        inner_->writeAll(data, n);
        countSent(n);
    }

    void
    readAll(uint8_t *data, size_t n) override
    {
        inner_->readAll(data, n);
        received.insert(received.end(), data, data + n);
        countReceived(n);
    }

    std::string describe() const override { return inner_->describe(); }

    std::vector<uint8_t> received;

  private:
    std::unique_ptr<Transport> inner_;
};

/**
 * Evaluate @p specs in order on one connection to a server with
 * @p opts; return every byte the client received.
 */
std::vector<uint8_t>
evaluateAgainst(const ServerOptions &opts,
                const std::vector<std::string> &specs)
{
    GcServer server(opts);
    auto [client_end, server_end] = LoopbackTransport::createPair();
    server.submit(std::move(server_end));
    RecordingTransport client(std::move(client_end));
    client.handshake(PeerRole::Evaluator);
    OtConnectionCache ot;
    RemoteOptions ropts;
    ropts.otCache = &ot;
    for (const std::string &spec : specs) {
        clientRequest(client, spec);
        if (chain::isChainSpec(spec)) {
            const chain::ChainWorkload cw =
                chain::resolveChainWorkload(spec);
            EXPECT_EQ(chain::runChainEvaluator(cw.plan, cw.evaluatorBits,
                                               client, ropts)
                          .outputs,
                      cw.expectedOutputs);
        } else {
            const Workload wl = resolveWorkload(spec);
            EXPECT_EQ(runRemoteEvaluator(wl.netlist, wl.evaluatorBits,
                                         client, ropts)
                          .outputs,
                      wl.expectedOutputs);
        }
    }
    std::vector<uint8_t> received = std::move(client.received);
    return received;
}

/** Whether the garbler-input labels of @p wl garbled under @p seed
 *  appear in @p bytes. */
bool
labelsAppear(const std::vector<uint8_t> &bytes, const Workload &wl,
             uint64_t seed)
{
    const GarbledInstance inst = captureGarbling(wl.netlist, seed);
    for (uint32_t i = 0; i < wl.netlist.numGarblerInputs; ++i) {
        uint8_t label[16];
        inst.activeLabel(i, wl.garblerBits[i]).toBytes(label);
        if (std::search(bytes.begin(), bytes.end(), label, label + 16) ==
            bytes.end())
            return false;
    }
    return true;
}

} // namespace

TEST(GcServerSeeds, DefaultServerLabelsAreNotRecomputable)
{
    // The evaluating client receives the server's garbler-input
    // labels. A default server must garble from OS entropy: whatever
    // public default seed rule a client assumes, it must not be able
    // to recompute those labels (and with them the offset R).
    const Workload wl = resolveWorkload("Million:16");
    ServerOptions opts;
    opts.threads = 1;
    const std::vector<uint8_t> bytes =
        evaluateAgainst(opts, {"Million:16"});
    EXPECT_FALSE(labelsAppear(bytes, wl, ServerOptions{}.seedBase));
    EXPECT_FALSE(labelsAppear(bytes, wl, ServerOptions{}.seedBase + 1));

    // Two default servers never garble the same session alike.
    EXPECT_NE(bytes, evaluateAgainst(opts, {"Million:16"}));
}

TEST(GcServerSeeds, NonzeroSeedIsOneSequenceAcrossSessionsAndChainNodes)
{
    // With a nonzero base the server's inline garblings draw base,
    // base + 1, ... in order: a chain session reserves one seed per
    // node, so the spec session after a 3-node chain garbles under
    // base + 4 — never a seed an earlier garbling used.
    const Workload wl = resolveWorkload("Million:16");
    ServerOptions opts;
    opts.threads = 1;
    opts.seedBase = 1000;
    const std::vector<uint8_t> bytes = evaluateAgainst(
        opts, {"Million:16", "ChainMillSum:8", "Million:16"});
    EXPECT_TRUE(labelsAppear(bytes, wl, 1000));
    EXPECT_TRUE(labelsAppear(bytes, wl, 1004));
}
