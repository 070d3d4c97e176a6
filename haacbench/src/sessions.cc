/**
 * @file
 * The three session workloads: real two-party GC sessions against an
 * in-process GcServer over TCP on 127.0.0.1.
 *
 * Load shape: a closed loop of two clients, each a protocol party
 * that blocks on its own outputs before it asks again. The server has
 * two worker threads (one per connection) plus whatever pool fillers
 * the workload turns on. Each session's client input bits are derived
 * from the seed; the server's own bits are the workload's sample bits;
 * every output is checked against the plaintext evaluation.
 */
#include <algorithm>
#include <atomic>
#include <exception>
#include <fstream>
#include <memory>
#include <mutex>
#include <set>
#include <thread>

#include "bench.h"
#include "chain/workloads.h"
#include "crypto/aes128.h"
#include "crypto/bitmatrix.h"
#include "crypto/curve25519.h"
#include "crypto/gf128.h"
#include "crypto/hash.h"
#include "crypto/prg.h"
#include "gc/base_ot.h"
#include "net/server.h"
#include "net/tcp.h"
#include "replay.h"
#include "serve/component_pool.h"
#include "serve/pool.h"
#include "trace.h"

namespace haac {
namespace bench {

namespace {

constexpr uint32_t kClients = 2;
/**
 * The window is cut into this many equal slices; each timing metric
 * is its per-slice value's median over the slices, so a burst of host
 * interference (hypervisor steal) that covers a few slices does not
 * move it.
 */
constexpr int kSlices = 10;

struct Config
{
    std::string spec;
    bool chained = false;
    /** One session per TCP connection, client role alternating. */
    bool coldConnections = false;
    bool garblePool = false;
    bool componentPool = false;
    /** Setups per run (setup_s is their median): ~1-2 s of set-up. */
    int setups = 9;
};

Config
configFor(const std::string &workload)
{
    Config c;
    if (workload == "session_cold") {
        c.spec = "Million:32";
        c.coldConnections = true;
        c.setups = 25;
    } else if (workload == "session_warm") {
        c.spec = "Hamm";
        c.garblePool = true;
    } else if (workload == "session_chained") {
        c.spec = "ChainProdCmp:32";
        c.chained = true;
        c.componentPool = true;
        c.setups = 25;
    } else {
        throw std::invalid_argument("unknown session workload " +
                                    workload);
    }
    return c;
}

/** Server + pools + listener + accept thread, torn down in order. */
class ServerStack
{
  public:
    ServerStack(const Config &cfg, const Netlist *netlist,
                const chain::ChainPlan *plan, Tracer &tracer)
    {
        serve::PoolOptions popts;
        popts.depth = 4;
        popts.threads = 1;
        ServerOptions sopts;
        sopts.threads = kClients;
        auto prewarm = [&](auto &pool) {
            const Clock::time_point t0 = Clock::now();
            Tracer::Scope s =
                tracer.scope("serve.prewarm", kNoSession, Party::Host);
            pool.prewarm();
            prewarmSeconds = secondsSince(t0);
        };
        if (cfg.garblePool) {
            pool_ = std::make_unique<serve::GarblePool>(popts);
            pool_->track(cfg.spec, *netlist);
            prewarm(*pool_);
            sopts.pool = pool_.get();
        }
        if (cfg.componentPool) {
            componentPool_ = std::make_unique<serve::ComponentPool>(popts);
            componentPool_->trackPlan(*plan);
            prewarm(*componentPool_);
            sopts.componentPool = componentPool_.get();
        }
        server_ = std::make_unique<GcServer>(sopts);
        listener_ = std::make_unique<TcpListener>(0, "127.0.0.1");
        accept_ = std::thread([this] { server_->serveTcp(*listener_); });
    }

    ServerStack(const ServerStack &) = delete;
    ServerStack &operator=(const ServerStack &) = delete;

    /** Clients must have closed their connections first. */
    ~ServerStack()
    {
        listener_->close();
        accept_.join();
    }

    uint16_t port() const { return listener_->port(); }
    const GcServer &server() const { return *server_; }

    serve::PoolStats
    poolStats() const
    {
        if (pool_ != nullptr)
            return pool_->stats();
        if (componentPool_ != nullptr)
            return componentPool_->stats();
        return {};
    }

    double prewarmSeconds = 0;

  private:
    std::unique_ptr<serve::GarblePool> pool_;
    std::unique_ptr<serve::ComponentPool> componentPool_;
    std::unique_ptr<GcServer> server_;
    std::unique_ptr<TcpListener> listener_;
    std::thread accept_;
};

struct SessionRecord
{
    double latencyMs = 0;
    uint64_t bytes = 0;  ///< client transport, both ways, whole session
    uint64_t frames = 0; ///< client transport, the protocol run only
    double doneS = 0;    ///< completion, seconds into the window
};

/** One client connection's state, kept across its sessions. */
struct ClientConn
{
    std::unique_ptr<TcpTransport> transport;
    OtConnectionCache ot;
    std::unique_ptr<ReplayLink> replay;
};

/** Shared state of one run; every member below mutex is guarded. */
class Runner
{
  public:
    Runner(const Args &args, const Config &cfg, Tracer &tracer)
        : args_(args), cfg_(cfg), tracer_(tracer)
    {}

    /** Resolve the workload on the client side (timed, traced). */
    void
    resolve()
    {
        const Clock::time_point t0 = Clock::now();
        Tracer::Scope s =
            tracer_.scope("workloads.resolve", kNoSession, Party::Host);
        if (cfg_.chained) {
            chainWl_ = std::make_unique<chain::ChainWorkload>(
                chain::resolveChainWorkload(cfg_.spec));
        } else {
            wl_ = std::make_unique<Workload>(resolveWorkload(cfg_.spec));
        }
        resolveMs.push_back(secondsSince(t0) * 1e3);
    }

    void
    startServer()
    {
        stack_ = std::make_unique<ServerStack>(
            cfg_, wl_ ? &wl_->netlist : nullptr,
            chainWl_ ? &chainWl_->plan : nullptr, tracer_);
        prewarmS.push_back(stack_->prewarmSeconds);
    }

    void
    stopServer()
    {
        for (ClientConn &c : conns_)
            c = ClientConn{};
        stack_.reset();
    }

    /** Each client's first session (base OT on a warm connection). */
    void
    warmUp()
    {
        if (cfg_.coldConnections) {
            runSession(0, nullptr);
            return;
        }
        std::vector<std::thread> threads;
        for (uint32_t c = 0; c < kClients; ++c)
            threads.emplace_back([this, c] { runSession(c, nullptr); });
        for (std::thread &t : threads)
            t.join();
    }

    /**
     * The timed closed loop: both clients until the deadline. Returns
     * the process CPU seconds at the window's start, at each inner
     * slice boundary, and at its end (after the last session).
     */
    std::vector<double>
    window(double seconds)
    {
        const Clock::duration slice =
            std::chrono::duration_cast<Clock::duration>(
                std::chrono::duration<double>(seconds / kSlices));
        std::vector<double> cpu{cpuSeconds()};
        windowStart_ = Clock::now();
        const Clock::time_point deadline = windowStart_ + kSlices * slice;
        std::thread sampler([&] {
            for (int i = 1; i < kSlices; ++i) {
                std::this_thread::sleep_until(windowStart_ + i * slice);
                cpu.push_back(cpuSeconds());
            }
        });
        std::vector<std::thread> threads;
        for (uint32_t c = 0; c < kClients; ++c)
            threads.emplace_back([this, c, deadline] {
                while (Clock::now() < deadline)
                    runSession(c, &records);
            });
        for (std::thread &t : threads)
            t.join();
        sampler.join();
        cpu.push_back(cpuSeconds());
        return cpu;
    }

    Clock::time_point windowStart() const { return windowStart_; }

    const GcServer &server() const { return stack_->server(); }
    serve::PoolStats poolStats() const { return stack_->poolStats(); }

    std::vector<double> resolveMs;
    std::vector<double> prewarmS;

    std::mutex mutex;
    std::vector<SessionRecord> records;
    uint64_t attempted = 0;
    uint64_t failed = 0;
    uint64_t otErrors = 0;
    uint64_t replayMismatches = 0;
    uint64_t replayAnds = 0; ///< ANDs replayed in the window
    uint64_t poolReadyMin = ~uint64_t(0);
    /** Replay party the client played, per traced window session. */
    std::map<uint64_t, Party> clientParty;

  private:
    /** Session-local: which bits the server holds, what to expect. */
    void runSession(uint32_t client, std::vector<SessionRecord> *sink);

    const Args &args_;
    Config cfg_;
    Tracer &tracer_;
    std::unique_ptr<Workload> wl_;
    std::unique_ptr<chain::ChainWorkload> chainWl_;
    std::unique_ptr<ServerStack> stack_;
    ClientConn conns_[kClients];
    std::atomic<uint64_t> nextSession_{0};
    Clock::time_point windowStart_;
};

void
Runner::runSession(uint32_t client, std::vector<SessionRecord> *sink)
{
    const uint64_t k = nextSession_.fetch_add(1);
    ClientConn &conn = conns_[client];
    // Cold connections alternate the client's role per connection.
    const bool client_garbles = cfg_.coldConnections && (k % 2 == 1);
    const PeerRole role =
        client_garbles ? PeerRole::Garbler : PeerRole::Evaluator;

    std::vector<bool> gbits, ebits, expected;
    if (cfg_.chained) {
        gbits = chainWl_->garblerBits;
        ebits = seededBits(args_.seed, k, chainWl_->plan.evaluatorInputs);
        expected = chainWl_->plan.evaluate(gbits, ebits);
    } else if (client_garbles) {
        gbits = seededBits(args_.seed, k, wl_->netlist.numGarblerInputs);
        ebits = wl_->evaluatorBits;
        expected = wl_->netlist.evaluate(gbits, ebits);
    } else {
        gbits = wl_->garblerBits;
        ebits = seededBits(args_.seed, k, wl_->netlist.numEvaluatorInputs);
        expected = wl_->netlist.evaluate(gbits, ebits);
    }
    if (args_.injectDefect && !expected.empty())
        expected[0] = !expected[0];
    const uint64_t garble_seed = splitmix64(args_.seed ^ (k << 20));

    SessionRecord rec;
    bool ok = false;
    bool ot_error = false;
    bool mismatch = false;
    const Clock::time_point t0 = Clock::now();
    try {
        TransportCounts start;
        {
            Tracer::Scope s = tracer_.scope("session", k, Party::Client);
            if (conn.transport == nullptr) {
                conn = ClientConn{};
                {
                    Tracer::Scope c =
                        tracer_.scope("net.connect", k, Party::Client);
                    conn.transport =
                        TcpTransport::connect("127.0.0.1", stack_->port());
                }
                Tracer::Scope h =
                    tracer_.scope("net.hello", k, Party::Client);
                clientHello(*conn.transport, role, cfg_.spec);
            } else {
                start = TransportCounts::of(*conn.transport);
                Tracer::Scope r =
                    tracer_.scope("net.request", k, Party::Client);
                clientRequest(*conn.transport, cfg_.spec);
            }
            RemoteOptions ropts;
            if (!cfg_.coldConnections)
                ropts.otCache = &conn.ot;
            const TransportCounts before =
                TransportCounts::of(*conn.transport);
            std::vector<bool> outputs;
            {
                Tracer::Scope r =
                    tracer_.scope("session.remote", k, Party::Client);
                if (cfg_.chained)
                    outputs = chain::runChainEvaluator(
                                  chainWl_->plan, ebits, *conn.transport,
                                  ropts)
                                  .outputs;
                else if (client_garbles)
                    outputs = runRemoteGarbler(wl_->netlist, gbits,
                                               *conn.transport,
                                               garble_seed, ropts)
                                  .outputs;
                else
                    outputs = runRemoteEvaluator(wl_->netlist, ebits,
                                                 *conn.transport, ropts)
                                  .outputs;
            }
            const TransportCounts after =
                TransportCounts::of(*conn.transport);
            rec.latencyMs = secondsSince(t0) * 1e3;
            rec.bytes = after.bytes - start.bytes;
            rec.frames = after.frames - before.frames;
            ok = outputs == expected;

            if (tracer_.enabled()) {
                // Replay the same session phase by phase; its client
                // traffic must equal the real session's exactly.
                if (conn.replay == nullptr)
                    conn.replay = std::make_unique<ReplayLink>();
                Tracer::Scope rs =
                    tracer_.scope("session.replay", k, Party::Client);
                ReplayOutcome rep =
                    cfg_.chained
                        ? replayChainSession(tracer_, k, *conn.replay,
                                             chainWl_->plan, gbits, ebits,
                                             garble_seed)
                        : replaySession(
                              tracer_, k, *conn.replay, wl_->netlist,
                              gbits, ebits, garble_seed,
                              cfg_.garblePool && !client_garbles
                                  ? GarbleSource::Pooled
                                  : GarbleSource::Inline,
                              client_garbles ? Party::Garbler
                                             : Party::Evaluator);
                mismatch = rep.clientBytes != after.bytes - before.bytes ||
                           rep.clientFrames != rec.frames;
                ok = ok && rep.outputs == expected;
                if (sink != nullptr) {
                    std::lock_guard<std::mutex> lock(mutex);
                    replayAnds += rep.andGates;
                    clientParty[k] =
                        client_garbles ? Party::Garbler : Party::Evaluator;
                }
            }
        }
        if (cfg_.coldConnections)
            conn = ClientConn{};
    } catch (const OtError &) {
        ot_error = true;
        conn = ClientConn{};
    } catch (const std::exception &) {
        conn = ClientConn{};
    }

    const serve::PoolStats ps = stack_->poolStats();
    std::lock_guard<std::mutex> lock(mutex);
    ++attempted;
    if (!ok)
        ++failed;
    if (ot_error)
        ++otErrors;
    if (mismatch)
        ++replayMismatches;
    if (cfg_.garblePool || cfg_.componentPool)
        poolReadyMin = std::min<uint64_t>(poolReadyMin, ps.ready);
    if (ok && sink != nullptr) {
        rec.doneS = secondsSince(windowStart_);
        sink->push_back(rec);
    }
}

/** Median over sessions of a per-record field. */
template <typename F>
double
medianOf(const std::vector<SessionRecord> &recs, F field)
{
    std::vector<double> v;
    v.reserve(recs.size());
    for (const SessionRecord &r : recs)
        v.push_back(double(field(r)));
    return percentile(v, 0.5);
}

/** Kernel results land here so none is optimized away. */
volatile uint64_t g_kernelSink = 0;

/** Per-call host timings of the crypto kernels under the protocol. */
void
cryptoKernels(Tracer &tracer, std::map<std::string, double> &layers)
{
    auto timed = [&](const char *name, size_t n, auto body) {
        const Clock::time_point t0 = Clock::now();
        {
            Tracer::Scope s = tracer.scope(name, kNoSession, Party::Host);
            body(n);
        }
        return secondsSince(t0) / double(n);
    };
    uint64_t sink = 0;
    layers["crypto.key_schedule_ns"] =
        1e9 * timed("crypto.key_schedule", 20000, [&](size_t n) {
            for (size_t i = 0; i < n; ++i) {
                const Aes128 aes(Label(splitmix64(i), sink));
                sink ^= aes.roundKeys()[kAesExpandedKeyBytes - 1];
            }
        });
    layers["crypto.hash_rekeyed_ns"] =
        1e9 * timed("crypto.hash_rekeyed", 20000, [&](size_t n) {
            Label x(sink, 1);
            for (size_t i = 0; i < n; ++i)
                x = hashRekeyed(x, i);
            sink ^= x.lo;
        });
    layers["crypto.gf128_mul_ns"] =
        1e9 * timed("crypto.gf128_mul", 100000, [&](size_t n) {
            Label a(sink | 1, 3), b(0x87, 0x9e3779b97f4a7c15ull);
            for (size_t i = 0; i < n; ++i)
                a = gf128Mul(a, b);
            sink ^= a.hi;
        });
    layers["crypto.transpose128_ns"] =
        1e9 * timed("crypto.transpose128", 20000, [&](size_t n) {
            std::vector<uint8_t> cols(128 * 16);
            for (size_t i = 0; i < cols.size(); ++i)
                cols[i] = uint8_t(splitmix64(i + sink));
            Label rows[128];
            for (size_t i = 0; i < n; ++i) {
                cols[i % cols.size()] ^= uint8_t(i);
                transpose128Block(cols.data(), 16, rows);
                sink ^= rows[i % 128].lo;
            }
        });
    layers["crypto.ec_mul_us"] =
        1e6 * timed("crypto.ec_mul", 64, [&](size_t n) {
            Prg rng(sink);
            for (size_t i = 0; i < n; ++i) {
                const ec::Point p =
                    ec::Point::mul(ec::randomScalar(rng), ec::Point::base());
                sink ^= p.isIdentity() ? 1 : 0;
            }
        });
    g_kernelSink = sink;
}

/**
 * Per-layer numbers from the spans: mean self time per window
 * session for each span name, plus each session's client-party total.
 */
void
spanLayers(const Tracer &tracer, const std::vector<uint64_t> &sessions,
           const std::map<uint64_t, Party> &client_party,
           double session_p50_ms, std::map<std::string, double> &layers)
{
    const std::vector<Span> spans = tracer.spans();
    const std::vector<int64_t> self = Tracer::selfTimes(spans);
    const std::set<uint64_t> wanted(sessions.begin(), sessions.end());
    std::map<std::string, double> total_ms;
    std::map<uint64_t, double> attributed_ms;
    for (size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        if (!wanted.count(s.session))
            continue;
        const double ms = double(self[i]) / 1e6;
        total_ms[s.name] += ms;
        // Client-party layer time: the real session's net calls and
        // the replay's spans on the client's side of the protocol;
        // the wrappers around them are glue, not a layer.
        const bool glue = s.name == "session" ||
                          s.name == "session.remote" ||
                          s.name == "session.replay" ||
                          s.name == "replay.garbler" ||
                          s.name == "replay.evaluator";
        const auto party = client_party.find(s.session);
        if (!glue && (s.party == Party::Client ||
                      (party != client_party.end() &&
                       s.party == party->second)))
            attributed_ms[s.session] += ms;
    }
    const double n = sessions.empty() ? 1 : double(sessions.size());
    auto per = [&](const char *span) { return total_ms[span] / n; };
    layers["net.connect_ms"] = per("net.connect") + per("net.hello");
    layers["net.request_ms"] = per("net.request");
    layers["net.table_send_ms"] = per("net.table_send");
    layers["net.table_wait_ms"] = per("net.table_wait");
    layers["gc.ot_setup.garbler_ms"] = per("gc.ot_setup.garbler");
    layers["gc.ot_setup.evaluator_ms"] = per("gc.ot_setup.evaluator");
    layers["gc.ot_ext.garbler_ms"] = per("gc.ot_ext.garbler");
    layers["gc.ot_ext.evaluator_ms"] = per("gc.ot_ext.evaluator");
    layers["gc.garble_ms"] = per("gc.garble");
    layers["gc.evaluate_ms"] = per("gc.evaluate");
    layers["chain.link_build_us"] = per("chain.link_build") * 1e3;
    layers["chain.evaluate_ms"] = per("chain.evaluate");

    std::vector<double> attributed;
    for (uint64_t s : sessions)
        attributed.push_back(attributed_ms[s]);
    const double attributed_p50 = percentile(attributed, 0.5);
    layers["trace.attributed_ms"] = attributed_p50;
    layers["trace.unattributed_frac"] =
        session_p50_ms > 0 ? 1.0 - attributed_p50 / session_p50_ms : 0;

    // Span counts give the per-call figures.
    std::map<std::string, uint64_t> count;
    for (const Span &s : spans)
        if (wanted.count(s.session))
            ++count[s.name];
    if (count["chain.component_capture"] > 0)
        layers["chain.component_capture_ms"] =
            total_ms["chain.component_capture"] /
            double(count["chain.component_capture"]);
}

} // namespace

WorkloadResult
runSessionWorkload(const Args &args)
{
    const Config cfg = configFor(args.workload);
    Tracer tracer(args.trace);
    Runner runner(args, cfg, tracer);

    // Set up several times; setup_s is the median. The last stack
    // stays up for the timed window.
    std::vector<double> setup_s;
    for (int i = 0; i < cfg.setups; ++i) {
        if (i > 0)
            runner.stopServer();
        const Clock::time_point t0 = Clock::now();
        runner.resolve();
        runner.startServer();
        runner.warmUp();
        setup_s.push_back(secondsSince(t0));
    }

    const GcServer::Totals tot0 = runner.server().totals();
    const serve::PoolStats pool0 = runner.poolStats();
    uint64_t attempted0 = 0;
    {
        std::lock_guard<std::mutex> lock(runner.mutex);
        attempted0 = runner.attempted;
        runner.poolReadyMin = ~uint64_t(0);
    }
    const std::vector<double> cpu = runner.window(args.seconds);
    const double elapsed = secondsSince(runner.windowStart());
    const GcServer::Totals tot = runner.server().totals();
    const serve::PoolStats pool = runner.poolStats();

    // Per-slice latency percentiles, throughput and CPU per session;
    // a session belongs to the slice it completed in (the last slice
    // also takes sessions that finished after the deadline).
    const std::vector<SessionRecord> &recs = runner.records;
    const double slice_s = args.seconds / kSlices;
    std::vector<std::vector<double>> lat(kSlices);
    for (const SessionRecord &r : recs)
        lat[std::min(kSlices - 1, int(r.doneS / slice_s))].push_back(
            r.latencyMs);
    std::vector<double> p50s, p90s, rates, cpus;
    for (int i = 0; i < kSlices; ++i) {
        if (lat[i].empty())
            continue;
        const double len = i + 1 < kSlices ? slice_s
                                           : elapsed - i * slice_s;
        const double n = double(lat[i].size());
        p50s.push_back(percentile(lat[i], 0.5));
        p90s.push_back(percentile(lat[i], 0.9));
        rates.push_back(n / len);
        cpus.push_back((cpu[i + 1] - cpu[i]) * 1e3 / n);
    }
    const double p50 = percentile(p50s, 0.5);
    const double p90 = percentile(p90s, 0.5);
    const double per_s = percentile(rates, 0.5);
    const double cpu_ms = percentile(cpus, 0.5);
    const double setup = percentile(setup_s, 0.5);
    const double bytes = medianOf(recs, [](const SessionRecord &r) {
        return r.bytes;
    });

    WorkloadResult out;
    out.attempted = runner.attempted;
    out.failed = runner.failed;
    const double failed_frac =
        out.attempted ? double(out.failed) / double(out.attempted) : 1;
    out.record = {
        {"session_p50_ms", p50, "ms"},
        {"session_p90_ms", p90, "ms"},
        {"sessions_per_s", per_s, "1/s"},
        {"cpu_ms_per_session", cpu_ms, "ms"},
        {"bytes_per_session", bytes, "B"},
        {"failed_frac", failed_frac, "ratio"},
        {"setup_s", setup, "s"},
        {"peak_rss_mb", peakRssMiB(), "MiB"},
        {"window_sessions", double(recs.size()), "count"},
        {"window_attempted", double(out.attempted - attempted0), "count"},
    };
    out.endToEnd = {
        {"latency_p50_ms", p50, "ms"},
        {"throughput_per_s", per_s, "1/s"},
        {"cpu_ms_per_op", cpu_ms, "ms"},
        {"setup_s", setup, "s"},
        {"peak_rss_mb", peakRssMiB(), "MiB"},
    };

    if (!args.trace)
        return out;

    // --- Traced run: per-layer numbers. ---
    std::map<std::string, double> &L = out.layers;
    // Session ids are handed out in order: the window's are the ids
    // from the first one after setup up to the last one attempted.
    std::vector<uint64_t> window_sessions;
    for (uint64_t id = attempted0; id < out.attempted; ++id)
        window_sessions.push_back(id);
    spanLayers(tracer, window_sessions, runner.clientParty, p50, L);
    L["trace.session_p50_ms"] = p50;
    L["trace.replay_mismatches"] = double(runner.replayMismatches);

    double garble_ms = L["gc.garble_ms"] * double(window_sessions.size());
    double eval_ms = L["gc.evaluate_ms"] * double(window_sessions.size());
    if (!cfg.chained && garble_ms > 0)
        L["gc.garble_and_per_s"] =
            double(runner.replayAnds) / (garble_ms / 1e3);
    if (!cfg.chained && eval_ms > 0)
        L["gc.evaluate_and_per_s"] =
            double(runner.replayAnds) / (eval_ms / 1e3);
    L["gc.ot_errors"] = double(runner.otErrors);

    const uint64_t served = tot.sessionsServed - tot0.sessionsServed;
    L["net.frames_per_session"] = medianOf(
        recs, [](const SessionRecord &r) { return r.frames; });
    L["net.bytes_per_session"] = bytes;
    L["net.server_session_ms"] =
        served ? 1e3 * (tot.sessionSeconds - tot0.sessionSeconds) /
                     double(served)
               : 0;
    L["net.sessions_failed"] =
        double(tot.sessionsFailed + tot.uploadsRefused -
               tot0.sessionsFailed - tot0.uploadsRefused);

    const uint64_t hits = pool.hits - pool0.hits;
    const uint64_t produced = pool.produced - pool0.produced;
    if (cfg.garblePool || cfg.componentPool) {
        L["serve.pool_hit_ratio"] =
            produced ? double(hits) / double(produced) : 0;
        L["serve.pool_produced_per_hit"] =
            hits ? double(produced) / double(hits) : 0;
        L["serve.pool_ready_min"] = double(runner.poolReadyMin);
        L["serve.prewarm_s"] = percentile(runner.prewarmS, 0.5);
    }
    L["serve.ot_reuse_ratio"] =
        served ? double(tot.otSetupsReused - tot0.otSetupsReused) /
                     double(served)
               : 0;
    if (cfg.chained) {
        const uint64_t linked = tot.componentsLinked - tot0.componentsLinked;
        L["serve.component_hit_ratio"] =
            linked ? double(tot.componentPoolHits - tot0.componentPoolHits) /
                         double(linked)
                   : 0;
        const uint64_t chains = tot.chainSessions - tot0.chainSessions;
        L["chain.link_bytes_per_session"] =
            chains ? double(tot.linkBytes - tot0.linkBytes) / double(chains)
                   : 0;
    }
    L["workloads.resolve_ms"] = percentile(runner.resolveMs, 0.5);
    cryptoKernels(tracer, L);

    if (!args.traceOut.empty()) {
        std::ofstream f(args.traceOut);
        tracer.writeChrome(f);
    }
    return out;
}

} // namespace bench
} // namespace haac
