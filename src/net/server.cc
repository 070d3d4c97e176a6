#include "net/server.h"

#include <cstdlib>
#include <sstream>
#include <stdexcept>

#include "chain/link.h"
#include "chain/workloads.h"
#include "circuit/bristol.h"
#include "net/wire.h"
#include "serve/component_pool.h"
#include "serve/pool.h"
#include "shard/worker.h"
#include "workloads/priorwork.h"

namespace haac {

namespace {

/** Parse "Name:arg" → (Name, arg); no colon → (spec, nullopt). */
bool
splitSpec(const std::string &spec, std::string &name, uint32_t &arg)
{
    const size_t colon = spec.find(':');
    if (colon == std::string::npos)
        return false;
    name = spec.substr(0, colon);
    const std::string tail = spec.substr(colon + 1);
    if (tail.empty())
        throw NetError("workload spec \"" + spec +
                       "\": missing size argument");
    char *end = nullptr;
    const unsigned long v = std::strtoul(tail.c_str(), &end, 10);
    if (end == nullptr || *end != '\0' || v == 0 || v > (1u << 20))
        throw NetError("workload spec \"" + spec +
                       "\": bad size argument \"" + tail + "\"");
    arg = uint32_t(v);
    return true;
}

/**
 * The declared gate and wire counts, straight off the Bristol header,
 * without parsing anything else. readBristol sizes its gate storage
 * and its wire map off these numbers, so a hostile header must be
 * capped before the parser ever sees the text.
 */
struct BristolHeader
{
    uint64_t gates = 0;
    uint64_t wires = 0;
};

BristolHeader
bristolHeaderPeek(const std::string &text)
{
    std::istringstream ss(text);
    BristolHeader h;
    if (!(ss >> h.gates >> h.wires))
        throw NetError("uploaded netlist: missing Bristol header");
    return h;
}

} // namespace

Workload
resolveWorkload(const std::string &spec)
{
    std::string name;
    uint32_t arg = 0;
    if (splitSpec(spec, name, arg)) {
        if (name == "Million" || name == "millionaire")
            return makeMillionaire(arg);
        if (name == "Adder")
            return makeAdder(arg);
        if (name == "Mult")
            return makeMultiplier(arg);
        throw NetError("unknown workload spec \"" + spec + "\"");
    }
    if (spec == "AES128" || spec == "aes128")
        return makeAes128();
    try {
        return vipWorkload(spec, false);
    } catch (const std::invalid_argument &) {
        throw NetError("unknown workload spec \"" + spec + "\"");
    }
}

PeerRole
clientHello(Transport &transport, PeerRole self, const std::string &spec)
{
    const PeerRole peer = transport.handshake(self);
    if (peer != PeerRole::Server)
        return peer; // peer flavor: straight into the protocol

    clientRequest(transport, spec);
    return peer;
}

void
clientRequest(Transport &transport, const std::string &spec)
{
    std::vector<uint8_t> request(spec.begin(), spec.end());
    transport.sendFrame(request);
    const std::vector<uint8_t> ack = transport.recvFrame();
    if (ack.empty())
        throw NetError("server sent an empty session ack");
    const std::string message(ack.begin() + 1, ack.end());
    if (ack[0] == 0)
        throw NetError("server refused session: " + message);
}

void
clientUploadRequest(Transport &transport, const std::string &bristol)
{
    transport.sendFrame(makeNetlistUploadFrame(bristol));
    const std::vector<uint8_t> ack = transport.recvFrame();
    if (ack.empty())
        throw NetError("server sent an empty session ack");
    const std::string message(ack.begin() + 1, ack.end());
    if (ack[0] == 0)
        throw NetError("server refused upload: " + message);
}

RunReport
makeRemoteReport(const RemoteResult &result, Role role,
                 const Transport &transport)
{
    RunReport report;
    report.backend = "remote-gc";
    report.outputs = result.outputs;
    report.hasOutputs = true;
    report.comm.tableBytes = result.tableBytes;
    report.comm.inputLabelBytes = result.inputLabelBytes;
    report.comm.otBytes = result.otBytes;
    report.comm.otUplinkBytes = result.otUplinkBytes;
    report.comm.outputDecodeBytes = result.outputDecodeBytes;
    report.comm.totalBytes = result.totalBytes;
    report.hasComm = true;
    report.net.role = role;
    report.net.endpoint = transport.describe();
    report.net.rawBytesSent = transport.rawBytesSent();
    report.net.rawBytesReceived = transport.rawBytesReceived();
    report.net.controlBytes = result.controlBytes;
    report.net.tableSegments = result.tableSegments;
    report.net.segmentTables = result.segmentTables;
    report.net.gates = result.gates;
    report.net.gatesPerSecond = result.gatesPerSecond();
    report.hasNet = true;
    report.hostSeconds = result.seconds;
    report.gates = result.gates;
    if (result.otSetupReused || result.pooledGarbling) {
        report.serve.otSetupReused = result.otSetupReused;
        report.serve.pooledGarbling = result.pooledGarbling;
        report.hasServe = true;
    }
    return report;
}

RunReport
makeChainReport(const chain::ChainResult &result, Role role,
                const Transport &transport)
{
    RunReport report;
    report.backend = "chain-gc";
    report.outputs = result.outputs;
    report.hasOutputs = true;
    report.comm.tableBytes = result.tableBytes;
    report.comm.inputLabelBytes = result.inputLabelBytes;
    report.comm.otBytes = result.otBytes;
    report.comm.otUplinkBytes = result.otUplinkBytes;
    report.comm.outputDecodeBytes = result.outputDecodeBytes;
    report.comm.totalBytes = result.totalBytes;
    report.hasComm = true;
    report.net.role = role;
    report.net.endpoint = transport.describe();
    report.net.rawBytesSent = transport.rawBytesSent();
    report.net.rawBytesReceived = transport.rawBytesReceived();
    report.net.controlBytes = result.controlBytes;
    report.net.tableSegments = result.tableSegments;
    report.net.segmentTables = result.segmentTables;
    report.net.gates = result.gates;
    report.net.gatesPerSecond =
        result.seconds > 0 ? double(result.gates) / result.seconds : 0;
    report.hasNet = true;
    report.chain.components = result.components;
    report.chain.links = result.links;
    report.chain.linkBytes = result.linkBytes;
    report.chain.linkFrames = result.linkFrames;
    report.chain.pooledComponents = result.pooledComponents;
    report.hasChain = true;
    report.hostSeconds = result.seconds;
    report.gates = result.gates;
    if (result.otSetupReused) {
        report.serve.otSetupReused = true;
        report.hasServe = true;
    }
    return report;
}

GcServer::GcServer(ServerOptions opts) : opts_(opts)
{
    if (opts_.threads == 0)
        opts_.threads = 1;
    workers_.reserve(opts_.threads);
    for (uint32_t i = 0; i < opts_.threads; ++i)
        workers_.emplace_back([this] { workerLoop(); });
}

GcServer::~GcServer()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stop_ = true;
    }
    wake_.notify_all();
    for (std::thread &t : workers_)
        t.join();
}

void
GcServer::submit(std::unique_ptr<Transport> transport)
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (stop_)
            throw std::logic_error("GcServer::submit after shutdown");
        queue_.push_back(std::move(transport));
    }
    wake_.notify_one();
}

void
GcServer::serveTcp(TcpListener &listener)
{
    for (;;) {
        std::unique_ptr<Transport> conn;
        try {
            conn = listener.accept();
        } catch (const NetError &) {
            return; // listener closed: wind down
        }
        submit(std::move(conn));
    }
}

void
GcServer::drain()
{
    std::unique_lock<std::mutex> lock(mutex_);
    idle_.wait(lock, [this] { return queue_.empty() && active_ == 0; });
}

GcServer::Totals
GcServer::totals() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return totals_;
}

void
GcServer::workerLoop()
{
    for (;;) {
        std::unique_ptr<Transport> transport;
        uint64_t session_id = 0;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            wake_.wait(lock,
                       [this] { return stop_ || !queue_.empty(); });
            if (queue_.empty()) {
                if (stop_)
                    return;
                continue;
            }
            transport = std::move(queue_.front());
            queue_.pop_front();
            session_id = nextSessionId_++;
            ++active_;
        }

        try {
            serveOne(*transport, session_id);
        } catch (const std::exception &e) {
            std::lock_guard<std::mutex> lock(mutex_);
            ++totals_.sessionsFailed;
            if (opts_.errors)
                *opts_.errors << "session " << session_id
                              << " failed: " << e.what() << "\n";
        }

        {
            std::lock_guard<std::mutex> lock(mutex_);
            --active_;
        }
        idle_.notify_all();
    }
}

void
GcServer::serveOne(Transport &transport, uint64_t session_id)
{
    if (opts_.shardWorker) {
        const shard::WorkerSummary summary =
            shard::serveShardWorker(transport);

        RunReport report;
        report.backend = "shard-worker";
        report.label = "shard-session-" + std::to_string(session_id);
        report.net.endpoint = transport.describe();
        report.net.rawBytesSent = transport.rawBytesSent();
        report.net.rawBytesReceived = transport.rawBytesReceived();
        report.hasNet = true;
        if (summary.rounds > 0) {
            report.sim = summary.lastStats;
            report.hasSim = true;
        }
        const std::string json = opts_.reports ? report.toJson() : "";

        {
            std::lock_guard<std::mutex> lock(mutex_);
            ++totals_.sessionsServed;
            totals_.gates += summary.instructions;
        }
        if (opts_.reports) {
            std::lock_guard<std::mutex> lock(reportMutex_);
            *opts_.reports << json << "\n" << std::flush;
        }
        return;
    }

    const PeerRole client = transport.handshake(PeerRole::Server);
    if (client == PeerRole::Server)
        throw NetError("peer is also a server; no party would garble");

    // One connection, many sessions: each iteration serves one
    // workload-spec frame; the peer closing between sessions ends the
    // connection cleanly. The base-OT cache lives exactly as long as
    // the connection (see OtConnectionCache's doc for why).
    OtConnectionCache ot_cache;
    uint64_t sid = session_id;
    for (uint64_t served = 0;; ++served) {
        std::vector<uint8_t> request;
        try {
            request = transport.recvFrame();
        } catch (const NetError &) {
            if (served == 0)
                throw; // closed before the first session: a failure
            break;     // drained: the client is done with us
        }
        if (served > 0) {
            std::lock_guard<std::mutex> lock(mutex_);
            sid = nextSessionId_++;
        }
        if (isNetlistUploadFrame(request)) {
            serveUploadSession(transport, sid, client, request,
                               ot_cache);
            continue;
        }
        const std::string spec(request.begin(), request.end());
        if (chain::isChainSpec(spec))
            serveChainSession(transport, sid, client, spec, ot_cache);
        else
            serveSession(transport, sid, client, spec, ot_cache);
    }

    std::lock_guard<std::mutex> lock(mutex_);
    ++totals_.connectionsServed;
}

void
GcServer::serveSession(Transport &transport, uint64_t session_id,
                       PeerRole client, const std::string &spec,
                       OtConnectionCache &ot_cache)
{
    auto ack = [&](bool ok, const std::string &message) {
        std::vector<uint8_t> frame;
        frame.reserve(1 + message.size());
        frame.push_back(ok ? 1 : 0);
        frame.insert(frame.end(), message.begin(), message.end());
        transport.sendFrame(frame);
    };

    std::shared_ptr<const Workload> wl;
    try {
        if (spec.empty())
            throw NetError("this server requires a workload spec "
                           "(e.g. \"Million:32\")");
        wl = resolveCached(spec);
    } catch (const NetError &e) {
        ack(false, e.what());
        throw;
    }
    ack(true, wl->name);

    RemoteOptions ropts;
    ropts.segmentTables = opts_.segmentTables;
    if (opts_.cacheBaseOt)
        ropts.otCache = &ot_cache;
    const Role server_role = client == PeerRole::Garbler
                                 ? Role::Evaluator
                                 : Role::Garbler;

    // Garbler sessions prefer a pooled instance; a pool miss (or no
    // pool) garbles inline with the deterministic per-session seed.
    std::unique_ptr<GarbledInstance> pooled;
    const bool pool_eligible =
        opts_.pool != nullptr && server_role == Role::Garbler;
    if (pool_eligible) {
        opts_.pool->track(spec, wl->netlist);
        pooled = opts_.pool->tryPop(spec);
    }

    RemoteResult result;
    if (server_role == Role::Garbler) {
        result = pooled != nullptr
                     ? runRemoteGarbler(wl->netlist, wl->garblerBits,
                                        transport, *pooled, ropts)
                     : runRemoteGarbler(wl->netlist, wl->garblerBits,
                                        transport,
                                        opts_.seedBase + session_id,
                                        ropts);
    } else {
        result = runRemoteEvaluator(wl->netlist, wl->evaluatorBits,
                                    transport, ropts);
    }

    RunReport report = makeRemoteReport(result, server_role, transport);
    report.workload = wl->name;
    report.label = "session-" + std::to_string(session_id);
    if (opts_.pool != nullptr || opts_.cacheBaseOt) {
        const serve::PoolStats ps = opts_.pool != nullptr
                                        ? opts_.pool->stats()
                                        : serve::PoolStats{};
        report.serve.pooledGarbling = result.pooledGarbling;
        report.serve.otSetupReused = result.otSetupReused;
        report.serve.poolHits = ps.hits;
        report.serve.poolMisses = ps.misses;
        report.hasServe = true;
    }
    // Serialize outside any lock; the sink has its own mutex so slow
    // report I/O never stalls the queue/totals lock the pool runs on.
    const std::string json = opts_.reports ? report.toJson() : "";

    {
        std::lock_guard<std::mutex> lock(mutex_);
        ++totals_.sessionsServed;
        totals_.payloadBytes += result.totalBytes;
        totals_.gates += result.gates;
        totals_.sessionSeconds += result.seconds;
        if (pool_eligible)
            ++(pooled != nullptr ? totals_.poolHits
                                 : totals_.poolMisses);
        if (result.otSetupReused)
            ++totals_.otSetupsReused;
    }
    if (opts_.reports) {
        std::lock_guard<std::mutex> lock(reportMutex_);
        *opts_.reports << json << "\n" << std::flush;
    }
}

void
GcServer::serveUploadSession(Transport &transport, uint64_t session_id,
                             PeerRole client,
                             const std::vector<uint8_t> &frame,
                             OtConnectionCache &ot_cache)
{
    auto ack = [&](bool ok, const std::string &message) {
        std::vector<uint8_t> reply;
        reply.reserve(1 + message.size());
        reply.push_back(ok ? 1 : 0);
        reply.insert(reply.end(), message.begin(), message.end());
        transport.sendFrame(reply);
    };

    // The admission gate. Everything in this block runs before a
    // single label is derived: header cap, parse, analyzer verdict,
    // canonical-size re-check. Refusal kills the session (and the
    // connection, like a refused spec) with the diagnostic acked back.
    Netlist nl;
    try {
        const std::string text = parseNetlistUploadFrame(frame);
        const BristolHeader hdr = bristolHeaderPeek(text);
        if (hdr.gates > opts_.maxGates)
            throw NetError("uploaded netlist declares " +
                           std::to_string(hdr.gates) +
                           " gates; this server admits at most " +
                           std::to_string(opts_.maxGates));
        // Every wire of an admissible circuit is a primary input or
        // one gate's output, and the parser refuses headers where
        // that fails, so 2*maxGates (+1 output slack, e.g. an
        // XOR-parity tree) bounds the wire count of everything worth
        // parsing — and, with it, the parser's wire-map allocation.
        const uint64_t max_wires = 2 * uint64_t(opts_.maxGates) + 1;
        if (hdr.wires > max_wires)
            throw NetError("uploaded netlist declares " +
                           std::to_string(hdr.wires) +
                           " wires; this server admits at most " +
                           std::to_string(max_wires));
        LintReport lints;
        nl = readBristolString(text, &lints);
        if (!lints.clean())
            throw NetError(
                "uploaded netlist refused by the circuit analyzer (" +
                lints.summary() + "): " + lints.firstError());
        if (nl.numGates() > opts_.maxGates)
            throw NetError("uploaded netlist canonicalizes to " +
                           std::to_string(nl.numGates()) +
                           " gates; this server admits at most " +
                           std::to_string(opts_.maxGates));
    } catch (const std::exception &e) {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            ++totals_.uploadsRefused;
        }
        ack(false, e.what());
        throw NetError(e.what());
    }
    ack(true, "netlist:" + std::to_string(nl.numGates()));

    RemoteOptions ropts;
    ropts.segmentTables = opts_.segmentTables;
    if (opts_.cacheBaseOt)
        ropts.otCache = &ot_cache;
    const Role server_role = client == PeerRole::Garbler
                                 ? Role::Evaluator
                                 : Role::Garbler;

    // The server has no stake in a circuit it has never seen: its own
    // inputs are all zero, and nothing about an upload is pooled or
    // cached (each one is assumed unique).
    RemoteResult result;
    if (server_role == Role::Garbler) {
        const std::vector<bool> bits(nl.numGarblerInputs, false);
        result = runRemoteGarbler(nl, bits, transport,
                                  opts_.seedBase + session_id, ropts);
    } else {
        const std::vector<bool> bits(nl.numEvaluatorInputs, false);
        result = runRemoteEvaluator(nl, bits, transport, ropts);
    }

    RunReport report = makeRemoteReport(result, server_role, transport);
    report.workload = "uploaded-netlist";
    report.label = "session-" + std::to_string(session_id);
    // Serialize outside any lock (see serveSession).
    const std::string json = opts_.reports ? report.toJson() : "";

    {
        std::lock_guard<std::mutex> lock(mutex_);
        ++totals_.sessionsServed;
        ++totals_.uploadSessions;
        totals_.payloadBytes += result.totalBytes;
        totals_.gates += result.gates;
        totals_.sessionSeconds += result.seconds;
        if (result.otSetupReused)
            ++totals_.otSetupsReused;
    }
    if (opts_.reports) {
        std::lock_guard<std::mutex> lock(reportMutex_);
        *opts_.reports << json << "\n" << std::flush;
    }
}

void
GcServer::serveChainSession(Transport &transport, uint64_t session_id,
                            PeerRole client, const std::string &spec,
                            OtConnectionCache &ot_cache)
{
    auto ack = [&](bool ok, const std::string &message) {
        std::vector<uint8_t> frame;
        frame.reserve(1 + message.size());
        frame.push_back(ok ? 1 : 0);
        frame.insert(frame.end(), message.begin(), message.end());
        transport.sendFrame(frame);
    };

    std::shared_ptr<const chain::ChainWorkload> wl;
    try {
        wl = resolveChainCached(spec);
    } catch (const NetError &e) {
        ack(false, e.what());
        throw;
    }
    ack(true, wl->name);

    RemoteOptions ropts;
    ropts.segmentTables = opts_.segmentTables;
    if (opts_.cacheBaseOt)
        ropts.otCache = &ot_cache;
    const Role server_role = client == PeerRole::Garbler
                                 ? Role::Evaluator
                                 : Role::Garbler;

    chain::ChainResult result;
    if (server_role == Role::Garbler) {
        // A pool serves pre-garbled components (misses garble inline
        // inside the provider); without one, every component garbles
        // fresh from a per-session seed stream. The chaining security
        // contract (one garbling, one session) holds either way.
        if (opts_.componentPool != nullptr) {
            opts_.componentPool->trackPlan(wl->plan);
            result = chain::runChainGarbler(
                wl->plan, wl->garblerBits, transport,
                opts_.componentPool->provider(), ropts);
        } else {
            const uint64_t seed_base =
                opts_.seedBase == 0
                    ? 0
                    : splitmix64(opts_.seedBase ^ (session_id + 1));
            result = chain::runChainGarbler(wl->plan, wl->garblerBits,
                                            transport, seed_base,
                                            ropts);
        }
    } else {
        result = chain::runChainEvaluator(wl->plan, wl->evaluatorBits,
                                          transport, ropts);
    }

    RunReport report = makeChainReport(result, server_role, transport);
    report.workload = wl->name;
    report.label = "session-" + std::to_string(session_id);
    if (opts_.componentPool != nullptr) {
        const serve::PoolStats ps = opts_.componentPool->stats();
        report.serve.poolHits = ps.hits;
        report.serve.poolMisses = ps.misses;
        report.hasServe = true;
    }
    // Serialize outside any lock (see serveSession).
    const std::string json = opts_.reports ? report.toJson() : "";

    {
        std::lock_guard<std::mutex> lock(mutex_);
        ++totals_.sessionsServed;
        totals_.payloadBytes += result.totalBytes;
        totals_.gates += result.gates;
        totals_.sessionSeconds += result.seconds;
        if (result.otSetupReused)
            ++totals_.otSetupsReused;
        ++totals_.chainSessions;
        totals_.componentsLinked += result.components;
        totals_.componentPoolHits += result.pooledComponents;
        totals_.linkBytes += result.linkBytes;
    }
    if (opts_.reports) {
        std::lock_guard<std::mutex> lock(reportMutex_);
        *opts_.reports << json << "\n" << std::flush;
    }
}

std::shared_ptr<const Workload>
GcServer::resolveCached(const std::string &spec)
{
    if (opts_.cacheWorkloads) {
        std::lock_guard<std::mutex> lock(workloadMutex_);
        auto it = workloadCache_.find(spec);
        if (it != workloadCache_.end())
            return it->second;
    }
    auto wl = std::make_shared<const Workload>(resolveWorkload(spec));
    if (opts_.cacheWorkloads) {
        std::lock_guard<std::mutex> lock(workloadMutex_);
        workloadCache_.emplace(spec, wl);
    }
    return wl;
}

std::shared_ptr<const chain::ChainWorkload>
GcServer::resolveChainCached(const std::string &spec)
{
    if (opts_.cacheWorkloads) {
        std::lock_guard<std::mutex> lock(workloadMutex_);
        auto it = chainCache_.find(spec);
        if (it != chainCache_.end())
            return it->second;
    }
    std::shared_ptr<const chain::ChainWorkload> wl;
    try {
        wl = std::make_shared<const chain::ChainWorkload>(
            chain::resolveChainWorkload(spec));
    } catch (const std::invalid_argument &e) {
        throw NetError("unknown chain workload spec \"" + spec +
                       "\": " + e.what());
    }
    if (opts_.cacheWorkloads) {
        std::lock_guard<std::mutex> lock(workloadMutex_);
        chainCache_.emplace(spec, wl);
    }
    return wl;
}

} // namespace haac
