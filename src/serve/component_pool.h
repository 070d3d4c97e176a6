/**
 * @file
 * ComponentPool: pre-garbled standard components, ahead of any plan.
 *
 * GarblePool (serve/pool.h) amortizes garbling per *circuit* — it can
 * only pre-garble workloads the server has already seen verbatim. The
 * chaining layer (chain/link.h) breaks that coupling: circuits are
 * DAGs of standard components, and components garble independently of
 * the plan that will contain them. This pool keeps a bounded queue of
 * ready GarbledComponents per (kind, width), keyed by
 * ComponentSpec::name(), so the request-time cost of a
 * *never-before-seen* plan collapses to link-table construction — the
 * "garble once, link at request time" of the chaining layer.
 *
 * The queues, fillers, hysteresis and the pop-once invariant are the
 * shared ReadyPool (serve/ready_pool.h): linking one garbling into two
 * sessions hands the second evaluator both labels of every linked
 * wire (tests/test_chain.cc replays the attack).
 */
#ifndef HAAC_SERVE_COMPONENT_POOL_H
#define HAAC_SERVE_COMPONENT_POOL_H

#include <memory>

#include "chain/component.h"
#include "chain/link.h"
#include "serve/ready_pool.h"

namespace haac {
namespace serve {

/**
 * Ready garbled components per component spec. Thread-safe; one pool
 * serves a whole GcServer. PoolOptions mean the same thing per
 * tracked component spec as per GarblePool workload spec.
 */
class ComponentPool : public ReadyPool<chain::GarbledComponent>
{
  public:
    using ReadyPool::ReadyPool;

    /** Start keeping @p spec's queue full (idempotent). */
    void track(const chain::ComponentSpec &spec);

    /** Track every distinct component a plan instantiates. */
    void trackPlan(const chain::ChainPlan &plan);

    /**
     * Pop a ready component, or null on empty queue / untracked spec
     * (a miss — caller garbles inline). Ownership transfers.
     */
    std::unique_ptr<chain::GarbledComponent>
    tryPop(const chain::ComponentSpec &spec)
    {
        return ReadyPool::tryPop(spec.name());
    }

    /**
     * A ComponentProvider backed by this pool: pops when a component
     * is ready (pooled = true), garbles inline on a miss. The pool
     * must outlive every protocol run using the provider.
     */
    chain::ComponentProvider provider();
};

} // namespace serve
} // namespace haac

#endif // HAAC_SERVE_COMPONENT_POOL_H
