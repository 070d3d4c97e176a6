/**
 * @file
 * GcServer: N concurrent two-party GC sessions on a thread pool.
 *
 * Session establishment, both flavors:
 *
 *  - *Peer* (remote_millionaires): both processes hold the circuit;
 *    after the transport handshake pairs a garbler with an evaluator
 *    they go straight into the remote protocol.
 *  - *Server* (haac_server): the server answers the handshake with
 *    PeerRole::Server, and the client follows with a request frame,
 *    acked before any label moves. The server then plays whichever
 *    role the client did not claim.
 *
 * Every request takes one path. The frame resolves to what to run,
 * one of three kinds:
 *
 *  - a registry spec ("Million:32", "Hamm", ...; resolveWorkload()),
 *    run with the workload's sample bits for the server's inputs;
 *  - a chain spec ("ChainProdCmp:32"; chain/workloads.h), run as
 *    pre-garbled components joined by link tables (chain/link.h);
 *  - a netlist upload (clientUploadRequest()), admitted only through
 *    the gate cap and the circuit analyzer, run with all-zero server
 *    inputs.
 *
 * Specs are held to the same gate cap, sized ones before any
 * synthesis, and a refusal of any kind goes back in the ack. After the ack, every kind
 * shares the same role and RemoteOptions setup, one protocol run
 * returning a RemoteResult, and one epilogue: a RunReport through
 * makeRemoteReport(), the GcServer::Totals update, and one JSON line
 * to the configured report sink, so a fleet of sessions accumulates
 * the same trajectory format the benchmarks write.
 *
 * clientHello() performs the client half of both flavors; GcServer
 * workers perform the server half. Connections are multi-session:
 * after a session completes, the server waits for another request on
 * the same connection (clientRequest() / clientUploadRequest() are
 * the client half); the peer closing instead ends the connection
 * cleanly. Repeat traffic is amortized by the serving layer
 * (src/serve): a per-connection base-OT cache skips the Curve25519
 * base phase after the first session, a bounded LRU of resolved specs
 * skips circuit re-synthesis, and optional pools let garbler sessions
 * replay pre-garbled instances or components instead of garbling
 * inline.
 */
#ifndef HAAC_NET_SERVER_H
#define HAAC_NET_SERVER_H

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <thread>
#include <vector>

#include "api/run_report.h"
#include "crypto/prg.h"
#include "net/remote.h"
#include "net/tcp.h"
#include "net/transport.h"
#include "serve/cache.h"
#include "workloads/vip.h"

namespace haac {

namespace serve {
class GarblePool;
class ComponentPool;
}

/**
 * Resolve a wire workload spec to a Workload.
 *
 * Accepts the Table 5 prior-work circuits with a size argument
 * ("Million:32", "Adder:64", "Mult:8", "AES128") and every Table 2
 * VIP name ("Hamm", "MatMult", ...; default scale). The size is
 * parsed by chain::splitSizedSpec(), in [1, 2^20].
 *
 * @throws NetError for an unknown or malformed spec (the server acks
 *         it back to the client as a session error).
 */
Workload resolveWorkload(const std::string &spec);

/**
 * Client half of session establishment, both flavors.
 *
 * Handshakes as @p self; when the peer is a server, sends @p spec and
 * waits for the ack (NetError carries the server's message when it
 * refuses). Returns the peer's role. After this returns, run
 * runRemoteGarbler/runRemoteEvaluator per @p self.
 */
PeerRole clientHello(Transport &transport, PeerRole self,
                     const std::string &spec);

/**
 * Request one more session on an already-established server
 * connection (spec frame + ack, no handshake). After it returns, run
 * runRemoteGarbler/runRemoteEvaluator again with the role from the
 * original clientHello().
 */
void clientRequest(Transport &transport, const std::string &spec);

/**
 * Request a session over a client-supplied circuit instead of a
 * registry spec: ships @p bristol (old Bristol format) as a
 * netlist-upload frame and waits for the admission verdict. A refusal
 * — gate cap exceeded, parse failure, or circuit-analyzer errors —
 * surfaces as NetError carrying the server's diagnostic, before the
 * server spends any garbling work. On success, run the remote
 * protocol with the role from clientHello(); the server plays the
 * opposite role with all-zero inputs (it has no stake in an uploaded
 * circuit's data).
 */
void clientUploadRequest(Transport &transport,
                         const std::string &bristol);

/**
 * Package one party's RemoteResult as the standard RunReport. A
 * chained result (components > 0) reports as backend "chain-gc" with
 * the chain section filled in; any other as "remote-gc".
 */
RunReport makeRemoteReport(const RemoteResult &result, Role role,
                           const Transport &transport);

struct ServerOptions
{
    /**
     * Worker threads == maximum concurrent connections. A connection
     * occupies its worker until the client closes it (connections are
     * multi-session), so size this to the expected client fleet.
     */
    uint32_t threads = 4;
    /**
     * Serve shard-worker sessions (src/shard) instead of GC sessions:
     * each connection is one shard coordinator link, handled by
     * shard::serveShardWorker. A coordinator running M shards against
     * this server holds M connections through the whole round-trip
     * exchange, so threads must be >= M or the fleet deadlocks.
     */
    bool shardWorker = false;
    /** Garbled tables per streamed segment frame. */
    uint32_t segmentTables = 1024;
    /**
     * Seed rule for everything the server garbles inline (sessions,
     * chained components, uploads), the pools' SeedSequence rule
     * (crypto/prg.h): 0, the default, draws every seed from OS
     * entropy, so no client can recompute the server's labels. A
     * nonzero base hands out base, base + 1, ... across all
     * sessions and chain nodes, for reproducible tests; it never
     * repeats a seed, but a client that knows it knows the labels.
     * Pools draw from their own PoolOptions::seedBase.
     */
    uint64_t seedBase = 0;
    /** Per-session RunReport JSON-Lines sink (null = don't emit). */
    std::ostream *reports = nullptr;
    /** Session-failure log sink (null = silent). */
    std::ostream *errors = nullptr;
    /**
     * Borrowed garble pool (serve/pool.h): garbler sessions replay a
     * ready instance when one is queued, garbling inline on a miss.
     * Must outlive the server; null garbles every session inline.
     */
    serve::GarblePool *pool = nullptr;
    /**
     * Borrowed component pool (serve/component_pool.h) for chained
     * sessions ("Chain..." specs): garbler sessions link pre-garbled
     * components, garbling any missing one inline. Must outlive the
     * server; null garbles every component inline.
     */
    serve::ComponentPool *componentPool = nullptr;
    /**
     * Keep resolved specs (registry and chain) in an LRU of
     * GcServer::kCachedSpecs entries, so a repeat spec skips
     * synthesis; false resolves every request afresh. Eviction is
     * safe: sessions hold their circuit by reference count, and the
     * pools own copies of what they garble.
     */
    bool cacheWorkloads = true;
    /** Reuse each connection's base-OT + IKNP setup across sessions. */
    bool cacheBaseOt = true;
    /**
     * Admission cap on the gates of any circuit a request names.
     * Uploads: the declared Bristol gate count is checked against
     * this — and the declared wire count against 2*maxGates + 1 —
     * *before* the text is parsed (so a hostile header cannot even
     * make the parser reserve memory), and the canonicalized gate
     * count is re-checked after; the transport frame bound
     * (kMaxFrameBytes) caps the text itself. Sized registry specs:
     * an upper bound on the gates ("Million:N" and "Adder:N" 5N,
     * "Mult:N" 6N^2) is checked before synthesis. Every spec, chain
     * specs included, is re-checked on its real gate count.
     */
    uint32_t maxGates = 1u << 22;
};

class GcServer
{
  public:
    explicit GcServer(ServerOptions opts = {});

    /** Stops accepting, drains queued sessions, joins the workers. */
    ~GcServer();
    GcServer(const GcServer &) = delete;
    GcServer &operator=(const GcServer &) = delete;

    /**
     * Enqueue one established connection for a worker to serve
     * (tests hand in LoopbackTransport endpoints; serveTcp() feeds
     * accepted sockets through here).
     */
    void submit(std::unique_ptr<Transport> transport);

    /**
     * Accept-and-submit loop; returns when the listener is closed
     * (listener.close() from another thread or a signal handler).
     */
    void serveTcp(TcpListener &listener);

    /** Block until every submitted session has finished. */
    void drain();

    struct Totals
    {
        uint64_t sessionsServed = 0;
        uint64_t sessionsFailed = 0;
        uint64_t connectionsServed = 0; ///< connections fully drained
        uint64_t payloadBytes = 0; ///< garbler→evaluator protocol bytes
        uint64_t gates = 0;
        uint64_t poolHits = 0;       ///< sessions served from the pool
        uint64_t poolMisses = 0;     ///< pool on, but garbled inline
        uint64_t otSetupsReused = 0; ///< sessions skipping base OT
        uint64_t chainSessions = 0;  ///< sessions served chained
        uint64_t componentsLinked = 0; ///< components across them
        uint64_t componentPoolHits = 0; ///< linked pre-garbled
        uint64_t linkBytes = 0; ///< link-table stream bytes served
        uint64_t uploadSessions = 0; ///< uploaded netlists served
        /** Uploads the admission gate refused (cap or analyzer). */
        uint64_t uploadsRefused = 0;
        double sessionSeconds = 0; ///< summed per-session wall time
    };
    Totals totals() const;

    /** Resolved specs kept when ServerOptions::cacheWorkloads. */
    static constexpr size_t kCachedSpecs = 16;

  private:
    struct Job; ///< one resolved request (server.cc)

    void workerLoop();
    void serveOne(Transport &transport, uint64_t session_id);
    void serveRequest(Transport &transport, uint64_t session_id,
                      PeerRole client,
                      const std::vector<uint8_t> &request,
                      OtConnectionCache &ot_cache);
    std::shared_ptr<const Job>
    resolveRequest(const std::vector<uint8_t> &request);

    ServerOptions opts_;
    SeedSequence seeds_; ///< inline garbling seeds (opts_.seedBase)
    serve::LruCache<std::string, Job> jobs_; ///< resolved specs
    std::mutex reportMutex_; ///< guards only the reports sink
    mutable std::mutex mutex_;
    std::condition_variable wake_;  ///< workers: queue non-empty / stop
    std::condition_variable idle_;  ///< drain(): queue empty, none active
    std::deque<std::unique_ptr<Transport>> queue_;
    std::vector<std::thread> workers_;
    uint32_t active_ = 0;
    uint64_t nextSessionId_ = 0;
    bool stop_ = false;
    Totals totals_;
};

} // namespace haac

#endif // HAAC_NET_SERVER_H
