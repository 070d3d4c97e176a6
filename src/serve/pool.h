/**
 * @file
 * GarblePool: background garbling ahead of demand.
 *
 * A serving process that answers the same circuit over and over pays
 * the full garbling cost (AES over every AND gate) inside each
 * session's latency window, even though garbling needs nothing from
 * the peer — only the netlist and fresh randomness. The pool moves
 * that work off the request path: a ReadyPool (serve/ready_pool.h)
 * whose maker per workload spec captures one garbling
 * (gc/instance.h), and a session thread pops one and replays it
 * through the instance overload of runRemoteGarbler(). A miss garbles
 * inline, exactly the pre-pool behavior.
 *
 * Every instance leaves the pool exactly once; tests/test_serve.cc
 * replays the label-reuse attack against two pooled instances to pin
 * the freshness.
 *
 * Staleness: entries are keyed by the spec string and own a copy of
 * the netlist made at track() time. A workload whose netlist changes
 * identity must be tracked under a new spec; the server's workload
 * cache (net/server.h) has the same lifetime, so both stay in sync.
 */
#ifndef HAAC_SERVE_POOL_H
#define HAAC_SERVE_POOL_H

#include <string>

#include "circuit/netlist.h"
#include "gc/instance.h"
#include "serve/ready_pool.h"

namespace haac {
namespace serve {

/**
 * Ready garbled instances per workload spec. Thread-safe; one pool
 * serves a whole GcServer.
 */
class GarblePool : public ReadyPool<GarbledInstance>
{
  public:
    using ReadyPool::ReadyPool;

    /**
     * Start keeping @p spec's queue full. Idempotent: re-tracking an
     * already-tracked spec is a no-op (the first netlist wins).
     */
    void track(const std::string &spec, const Netlist &netlist);
};

} // namespace serve
} // namespace haac

#endif // HAAC_SERVE_POOL_H
