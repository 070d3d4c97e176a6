#include "net/server.h"

#include <optional>
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

/**
 * One resolved request: the circuit a session runs, the inputs the
 * server plays with, and what the ack and the report call it.
 */
struct GcServer::Job
{
    std::string spec; ///< the request's spec; empty for an upload
    std::string name; ///< the report's workload name
    std::string ack;  ///< the success ack's message
    Netlist netlist;  ///< the monolithic circuit (none for a chain)
    std::optional<chain::ChainPlan> plan; ///< set for a chain spec
    std::vector<bool> garblerBits;   ///< the server's bits, if it garbles
    std::vector<bool> evaluatorBits; ///< ... and if it evaluates
};

namespace {

/** Largest size a sized registry spec ("Million:N") may name. */
constexpr uint32_t kMaxSpecSize = 1u << 20;

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

/** Throw NetError when @p what names more than @p cap @p unit. */
void
refuseAbove(uint64_t count, uint64_t cap, const std::string &what,
            const char *unit = "gates")
{
    if (count > cap)
        throw NetError(what + " " + std::to_string(count) + " " + unit +
                       "; this server admits at most " +
                       std::to_string(cap));
}

/**
 * The one spelling of a registry spec that keys the spec cache and the
 * pools: the aliases "millionaire:N" and "aes128" become "Million:N"
 * and "AES128".
 */
std::string
canonicalSpec(const std::string &spec)
{
    static const std::string kMillionaire = "millionaire:";
    if (spec.compare(0, kMillionaire.size(), kMillionaire) == 0)
        return "Million:" + spec.substr(kMillionaire.size());
    return spec == "aes128" ? "AES128" : spec;
}

/**
 * resolveWorkload() of a canonical spec under a gate cap. A sized spec
 * is refused on an upper bound of its gate count before any synthesis
 * (measured: Million and Adder 5N - 2 gates, Mult just under 6N^2);
 * every spec is re-checked on its real count.
 */
Workload
resolveCapped(const std::string &spec, uint64_t max_gates)
{
    const std::string quoted = "workload spec \"" + spec + "\"";
    std::string name;
    uint32_t n = 0;
    bool sized = false;
    try {
        sized = chain::splitSizedSpec(spec, name, n, kMaxSpecSize);
    } catch (const std::invalid_argument &e) {
        throw NetError(e.what());
    }
    Workload wl;
    if (sized) {
        const bool mult = name == "Mult";
        if (!mult && name != "Million" && name != "Adder")
            throw NetError("unknown " + quoted);
        const uint64_t big_n = n;
        refuseAbove(mult ? 6 * big_n * big_n : 5 * big_n, max_gates,
                    quoted + " would build about");
        wl = mult ? makeMultiplier(n)
                  : name == "Adder" ? makeAdder(n) : makeMillionaire(n);
    } else if (spec == "AES128") {
        wl = makeAes128();
    } else {
        try {
            wl = vipWorkload(spec, false);
        } catch (const std::invalid_argument &) {
            throw NetError("unknown " + quoted);
        }
    }
    refuseAbove(wl.netlist.numGates(), max_gates, quoted + " builds");
    return wl;
}

/** The admission gate for a netlist-upload frame. */
Netlist
admitUpload(const std::vector<uint8_t> &frame, uint32_t max_gates)
{
    const std::string text = parseNetlistUploadFrame(frame);
    const BristolHeader hdr = bristolHeaderPeek(text);
    refuseAbove(hdr.gates, max_gates, "uploaded netlist declares");
    // Every wire of an admissible circuit is a primary input or one
    // gate's output, and the parser refuses headers where that fails,
    // so 2*maxGates (+1 output slack, e.g. an XOR-parity tree) bounds
    // the wire count of everything worth parsing — and, with it, the
    // parser's wire-map allocation.
    refuseAbove(hdr.wires, 2 * uint64_t(max_gates) + 1,
                "uploaded netlist declares", "wires");
    LintReport lints;
    Netlist nl = readBristolString(text, &lints);
    if (!lints.clean())
        throw NetError(
            "uploaded netlist refused by the circuit analyzer (" +
            lints.summary() + "): " + lints.firstError());
    refuseAbove(nl.numGates(), max_gates,
                "uploaded netlist canonicalizes to");
    return nl;
}

/** Answer a request frame: ok byte, then a message. */
void
sendAck(Transport &transport, bool ok, const std::string &message)
{
    std::vector<uint8_t> frame;
    frame.reserve(1 + message.size());
    frame.push_back(ok ? 1 : 0);
    frame.insert(frame.end(), message.begin(), message.end());
    transport.sendFrame(frame);
}

/** The client half of any request: send @p request, await the ack. */
void
awaitAck(Transport &transport, const std::vector<uint8_t> &request,
         const char *refusal)
{
    transport.sendFrame(request);
    const std::vector<uint8_t> ack = transport.recvFrame();
    if (ack.empty())
        throw NetError("server sent an empty session ack");
    if (ack[0] == 0)
        throw NetError(std::string(refusal) +
                       std::string(ack.begin() + 1, ack.end()));
}

} // namespace

Workload
resolveWorkload(const std::string &spec)
{
    return resolveCapped(canonicalSpec(spec), UINT64_MAX);
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
    awaitAck(transport, std::vector<uint8_t>(spec.begin(), spec.end()),
             "server refused session: ");
}

void
clientUploadRequest(Transport &transport, const std::string &bristol)
{
    awaitAck(transport, makeNetlistUploadFrame(bristol),
             "server refused upload: ");
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
    if (result.components > 0) {
        report.backend = "chain-gc";
        report.chain.components = result.components;
        report.chain.links = result.links;
        report.chain.linkBytes = result.linkBytes;
        report.chain.linkFrames = result.linkFrames;
        report.chain.pooledComponents = result.pooledComponents;
        report.hasChain = true;
    }
    return report;
}

GcServer::GcServer(ServerOptions opts)
    : opts_(opts), seeds_(opts.seedBase),
      jobs_(opts.cacheWorkloads ? kCachedSpecs : 0)
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
    // request frame; the peer closing between sessions ends the
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
        serveRequest(transport, sid, client, request, ot_cache);
    }

    std::lock_guard<std::mutex> lock(mutex_);
    ++totals_.connectionsServed;
}

std::shared_ptr<const GcServer::Job>
GcServer::resolveRequest(const std::vector<uint8_t> &request)
{
    if (isNetlistUploadFrame(request)) {
        // Uploads are assumed unique: admitted every time, never
        // cached. The server has no stake in a circuit it has never
        // seen, so its own inputs are all zero.
        auto job = std::make_shared<Job>();
        job->netlist = admitUpload(request, opts_.maxGates);
        job->name = "uploaded-netlist";
        job->ack = "netlist:" + std::to_string(job->netlist.numGates());
        job->garblerBits.assign(job->netlist.numGarblerInputs, false);
        job->evaluatorBits.assign(job->netlist.numEvaluatorInputs, false);
        return job;
    }

    const std::string spec =
        canonicalSpec(std::string(request.begin(), request.end()));
    if (spec.empty())
        throw NetError("this server requires a workload spec "
                       "(e.g. \"Million:32\")");
    if (std::shared_ptr<const Job> hit = jobs_.get(spec))
        return hit;
    auto job = std::make_shared<Job>();
    job->spec = spec;
    if (chain::isChainSpec(spec)) {
        chain::ChainWorkload wl;
        try {
            wl = chain::resolveChainWorkload(spec);
        } catch (const std::invalid_argument &e) {
            throw NetError("unknown chain workload spec \"" + spec +
                           "\": " + e.what());
        }
        refuseAbove(wl.plan.totalGates(), opts_.maxGates,
                    "chain workload spec \"" + spec + "\" builds");
        job->name = wl.name;
        job->plan = std::move(wl.plan);
        job->garblerBits = std::move(wl.garblerBits);
        job->evaluatorBits = std::move(wl.evaluatorBits);
    } else {
        Workload wl = resolveCapped(spec, opts_.maxGates);
        job->name = wl.name;
        job->netlist = std::move(wl.netlist);
        job->garblerBits = std::move(wl.garblerBits);
        job->evaluatorBits = std::move(wl.evaluatorBits);
    }
    job->ack = job->name;
    jobs_.put(spec, job);
    return job;
}

void
GcServer::serveRequest(Transport &transport, uint64_t session_id,
                       PeerRole client,
                       const std::vector<uint8_t> &request,
                       OtConnectionCache &ot_cache)
{
    // Resolve before anything else: a refusal is acked back and ends
    // the connection before a single label is derived.
    std::shared_ptr<const Job> job;
    try {
        job = resolveRequest(request);
    } catch (const std::exception &e) {
        if (isNetlistUploadFrame(request)) {
            std::lock_guard<std::mutex> lock(mutex_);
            ++totals_.uploadsRefused;
        }
        sendAck(transport, false, e.what());
        throw NetError(e.what());
    }
    sendAck(transport, true, job->ack);
    const bool upload = job->spec.empty();

    RemoteOptions ropts;
    ropts.segmentTables = opts_.segmentTables;
    if (opts_.cacheBaseOt)
        ropts.otCache = &ot_cache;
    const Role server_role = client == PeerRole::Garbler
                                 ? Role::Evaluator
                                 : Role::Garbler;

    // Garbler sessions prefer pre-garbled work: a registry spec pops a
    // pooled instance, a chain links pooled components (misses garble
    // inside the provider). Anything else garbles inline under the
    // server's seed rule. Either way one garbling serves one session.
    std::unique_ptr<GarbledInstance> pooled;
    const bool pool_eligible = opts_.pool != nullptr &&
                               server_role == Role::Garbler &&
                               !job->plan && !upload;
    if (pool_eligible) {
        opts_.pool->track(job->spec, job->netlist);
        pooled = opts_.pool->tryPop(job->spec);
    }

    RemoteResult result;
    if (server_role == Role::Evaluator) {
        result = job->plan ? chain::runChainEvaluator(
                                 *job->plan, job->evaluatorBits,
                                 transport, ropts)
                           : runRemoteEvaluator(job->netlist,
                                                job->evaluatorBits,
                                                transport, ropts);
    } else if (job->plan && opts_.componentPool != nullptr) {
        opts_.componentPool->trackPlan(*job->plan);
        result = chain::runChainGarbler(
            *job->plan, job->garblerBits, transport,
            opts_.componentPool->provider(), ropts);
    } else if (job->plan) {
        result = chain::runChainGarbler(
            *job->plan, job->garblerBits, transport,
            seeds_.next(job->plan->nodes.size()), ropts);
    } else if (pooled != nullptr) {
        result = runRemoteGarbler(job->netlist, job->garblerBits,
                                  transport, *pooled, ropts);
    } else {
        result = runRemoteGarbler(job->netlist, job->garblerBits,
                                  transport, seeds_.next(), ropts);
    }

    RunReport report = makeRemoteReport(result, server_role, transport);
    report.workload = job->name;
    report.label = "session-" + std::to_string(session_id);
    // The serve section carries the stats of the pool a kind draws
    // from: registry specs whenever a pool or the OT cache is on,
    // chains when a component pool is; uploads have none.
    std::optional<serve::PoolStats> pool_stats;
    if (job->plan && opts_.componentPool != nullptr)
        pool_stats = opts_.componentPool->stats();
    else if (!job->plan && !upload &&
             (opts_.pool != nullptr || opts_.cacheBaseOt))
        pool_stats = opts_.pool != nullptr ? opts_.pool->stats()
                                           : serve::PoolStats{};
    if (pool_stats) {
        report.serve.pooledGarbling = result.pooledGarbling;
        report.serve.otSetupReused = result.otSetupReused;
        report.serve.poolHits = pool_stats->hits;
        report.serve.poolMisses = pool_stats->misses;
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
        if (job->plan) {
            ++totals_.chainSessions;
            totals_.componentsLinked += result.components;
            totals_.componentPoolHits += result.pooledComponents;
            totals_.linkBytes += result.linkBytes;
        }
        if (upload)
            ++totals_.uploadSessions;
    }
    if (opts_.reports) {
        std::lock_guard<std::mutex> lock(reportMutex_);
        *opts_.reports << json << "\n" << std::flush;
    }
}

} // namespace haac
