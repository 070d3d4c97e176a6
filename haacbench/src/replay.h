/**
 * @file
 * Traced replay of one session through the modules' public functions.
 *
 * The real session runs inside GcServer / runRemote* / runChain*,
 * where the benchmark cannot put spans. The traced run therefore
 * replays each session on the same circuit and inputs over a
 * LoopbackTransport pair, phase by phase, mirroring net/remote.cc:
 * fingerprint, OtExtSender/OtExtReceiver setup and extension,
 * StreamingGarbler::run into the benchmark's own TableSink, and
 * evaluateStreaming from its own TableSource, so network time splits
 * from compute time. The replay's wire traffic must equal the real
 * session's byte for byte and frame for frame; the caller checks.
 */
#ifndef HAAC_BENCH_REPLAY_H
#define HAAC_BENCH_REPLAY_H

#include <cstdint>
#include <memory>
#include <vector>

#include "chain/link.h"
#include "circuit/netlist.h"
#include "net/loopback.h"
#include "net/remote.h"
#include "trace.h"

namespace haac {
namespace bench {

/** A transport's raw bytes and frames, both directions together. */
struct TransportCounts
{
    uint64_t bytes = 0;
    uint64_t frames = 0;

    static TransportCounts
    of(const Transport &t)
    {
        return {t.rawBytesSent() + t.rawBytesReceived(),
                t.framesSent() + t.framesReceived()};
    }
};

/**
 * One replayed connection: a loopback pair plus each side's base-OT
 * cache, kept across sessions exactly like the real TCP connection
 * (whose first session runs base OT and later ones reuse it).
 */
struct ReplayLink
{
    ReplayLink();
    std::unique_ptr<LoopbackTransport> garblerEnd;
    std::unique_ptr<LoopbackTransport> evaluatorEnd;
    OtConnectionCache garblerOt;
    OtConnectionCache evaluatorOt;
};

struct ReplayOutcome
{
    std::vector<bool> outputs; ///< the evaluator's decoded outputs
    uint64_t clientBytes = 0;  ///< client party's transport, both ways
    uint64_t clientFrames = 0;
    uint64_t andGates = 0;     ///< garbled (and evaluated) this session
};

/** What the replayed garbler stands in for. */
enum class GarbleSource
{
    Inline, ///< garbles while streaming (no pool, or client garbles)
    Pooled, ///< pre-garbled off the request path, then streamed
};

/**
 * Replay one whole-netlist session. @p client names the party whose
 * transport counts go into the outcome (Party::Garbler or
 * Party::Evaluator).
 */
ReplayOutcome replaySession(Tracer &tracer, uint64_t session,
                            ReplayLink &link, const Netlist &netlist,
                            const std::vector<bool> &garbler_bits,
                            const std::vector<bool> &evaluator_bits,
                            uint64_t garble_seed, GarbleSource source,
                            Party client);

/**
 * Replay one chained session: the components for every plan node are
 * captured up front (standing in for the ComponentPool), the link
 * tables are built once under a span, then runChainGarbler /
 * runChainEvaluator run over the loopback pair. The client is the
 * evaluator.
 */
ReplayOutcome replayChainSession(Tracer &tracer, uint64_t session,
                                 ReplayLink &link,
                                 const chain::ChainPlan &plan,
                                 const std::vector<bool> &garbler_bits,
                                 const std::vector<bool> &evaluator_bits,
                                 uint64_t capture_seed);

} // namespace bench
} // namespace haac

#endif // HAAC_BENCH_REPLAY_H
