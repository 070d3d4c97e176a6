/**
 * @file
 * ReadyPool: single-use items made ahead of demand, the one pool
 * mechanism behind GarblePool (serve/pool.h) and ComponentPool
 * (serve/component_pool.h).
 *
 * Each tracked key carries an immutable maker — a function from a
 * fresh seed to one item that owns whatever it needs (a netlist, a
 * component spec) — and a bounded queue of ready items. Filler
 * threads call makers without the lock, so a refill never copies
 * what the maker owns. A pop on an empty queue is a miss: the caller
 * makes its item inline, exactly the pre-pool behavior, so the pool
 * is a pure amortization layer with no correctness surface. A maker
 * that throws costs one dropped item: the filler counts it, and the
 * key rests until the next pop or prewarm asks for it again.
 *
 * Security invariant: every item is made from fresh randomness and
 * leaves the pool exactly once (tryPop() transfers ownership).
 * Garbled items must never be served twice: replaying one garbling
 * to two evaluators reuses wire labels across sessions, handing the
 * second evaluator both labels of every wire. tests/test_serve.cc
 * and tests/test_chain.cc replay that attack against pooled items.
 */
#ifndef HAAC_SERVE_READY_POOL_H
#define HAAC_SERVE_READY_POOL_H

#include <algorithm>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "crypto/prg.h"

namespace haac {
namespace serve {

struct PoolOptions
{
    /** Ready items to keep per tracked key (>= 1). */
    size_t depth = 4;
    /** Background filler threads shared across all keys. */
    size_t threads = 1;
    /**
     * Refill trigger (hysteresis for bursty traffic). 0, the
     * default, tops a queue back up after every pop. A value k > 0
     * lets a queue drain to below k ready-plus-inflight items before
     * the fillers start, then fills back to depth — so a prewarmed
     * pool serves a burst without filler threads stealing CPU from
     * the sessions mid-burst. Clamped to depth.
     */
    size_t lowWater = 0;
    /**
     * Deterministic seed base for tests: the i-th item made draws
     * seed seedBase + i (SeedSequence, crypto/prg.h). Zero (the
     * default) draws each item's seed from the OS entropy source —
     * the only safe setting when real evaluators connect.
     */
    uint64_t seedBase = 0;
};

struct PoolStats
{
    uint64_t produced = 0; ///< items made by filler threads
    uint64_t failed = 0;   ///< makes that threw (item dropped)
    uint64_t hits = 0;     ///< tryPop() served a ready item
    uint64_t misses = 0;   ///< tryPop() found nothing (make inline)
    uint64_t ready = 0;    ///< items currently queued
    uint64_t tracked = 0;  ///< keys under management
};

/**
 * Bounded per-key queues of ready items, refilled in the background.
 * Thread-safe; one pool serves a whole GcServer.
 */
template <typename Item>
class ReadyPool
{
  public:
    /** Makes one item from a seed; called concurrently, unlocked. */
    using Maker = std::function<Item(uint64_t seed)>;

    explicit ReadyPool(const PoolOptions &opts = {})
        : opts_(opts), seeds_(opts.seedBase)
    {
        opts_.depth = std::max<size_t>(opts_.depth, 1);
        opts_.threads = std::max<size_t>(opts_.threads, 1);
        fillers_.reserve(opts_.threads);
        for (size_t i = 0; i < opts_.threads; ++i)
            fillers_.emplace_back([this] { fillerLoop(); });
    }

    /** Joins the fillers; one mid-make finishes that item first. */
    ~ReadyPool()
    {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            stop_ = true;
        }
        work_.notify_all();
        for (std::thread &t : fillers_)
            t.join();
    }

    ReadyPool(const ReadyPool &) = delete;
    ReadyPool &operator=(const ReadyPool &) = delete;

    /** Whether @p key is tracked (its first maker is kept). */
    bool
    tracks(const std::string &key) const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return queues_.count(key) != 0;
    }

    /**
     * Start keeping @p key's queue full. Idempotent: re-tracking a
     * tracked key is a no-op (the first maker wins, and is never
     * replaced, so fillers may call it unlocked).
     */
    void
    track(const std::string &key, Maker maker)
    {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            if (queues_.count(key) != 0)
                return;
            queues_[key].maker = std::move(maker);
        }
        work_.notify_all();
    }

    /**
     * Pop a ready item for @p key, or null when the queue is empty or
     * the key untracked (counted as a miss). Ownership transfers: the
     * pool never sees the item again.
     */
    std::unique_ptr<Item>
    tryPop(const std::string &key)
    {
        std::unique_ptr<Item> item;
        {
            std::lock_guard<std::mutex> lock(mutex_);
            auto it = queues_.find(key);
            if (it == queues_.end()) {
                ++misses_;
                return nullptr;
            }
            Queue &q = it->second;
            q.failed = false; // demand retries a maker that threw
            if (q.ready.empty()) {
                ++misses_;
            } else {
                item = std::move(q.ready.front());
                q.ready.pop_front();
                ++hits_;
            }
        }
        work_.notify_all(); // the queue just got needy
        return item;
    }

    /**
     * A seed for an item a miss makes inline, drawn from the fillers'
     * own SeedSequence (crypto/prg.h), so it is never one they use.
     */
    uint64_t nextSeed() { return seeds_.next(); }

    /**
     * Block until every tracked key's queue is full, or its maker
     * threw. A prewarm fills to depth whatever the hysteresis state:
     * a queue resting between the low-water mark and depth would
     * otherwise never refill.
     */
    void
    prewarm()
    {
        std::unique_lock<std::mutex> lock(mutex_);
        for (auto &kv : queues_) {
            kv.second.failed = false;
            if (kv.second.ready.size() < opts_.depth)
                kv.second.filling = true;
        }
        work_.notify_all();
        full_.wait(lock, [this] {
            if (stop_)
                return true;
            for (const auto &kv : queues_)
                if (kv.second.ready.size() < opts_.depth &&
                    !kv.second.failed)
                    return false;
            return true;
        });
    }

    PoolStats
    stats() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        PoolStats s;
        s.produced = produced_;
        s.failed = failed_;
        s.hits = hits_;
        s.misses = misses_;
        s.tracked = queues_.size();
        for (const auto &kv : queues_)
            s.ready += kv.second.ready.size();
        return s;
    }

  private:
    struct Queue
    {
        Maker maker;
        std::deque<std::unique_ptr<Item>> ready;
        size_t inflight = 0; ///< fillers making for this key now
        bool filling = true; ///< between low-water trigger and full
        bool failed = false; ///< a make threw; rest until next demand
    };

    /**
     * A queue is needy while it is filling toward depth; once full it
     * stays quiet until it drains below the low-water trigger
     * (lowWater 0 = trigger on any vacancy).
     */
    bool
    needy(Queue &q) const
    {
        if (q.failed)
            return false;
        const size_t level = q.ready.size() + q.inflight;
        if (level >= opts_.depth) {
            q.filling = false;
            return false;
        }
        if (!q.filling) {
            const size_t low = std::min(opts_.lowWater, opts_.depth);
            if (low != 0 && level >= low)
                return false;
            q.filling = true;
        }
        return true;
    }

    void
    fillerLoop()
    {
        std::unique_lock<std::mutex> lock(mutex_);
        for (;;) {
            Queue *target = nullptr;
            work_.wait(lock, [&] {
                if (stop_)
                    return true;
                for (auto &kv : queues_) {
                    if (needy(kv.second)) {
                        target = &kv.second;
                        return true;
                    }
                }
                return false;
            });
            if (stop_)
                return;

            ++target->inflight;
            const uint64_t seed = seeds_.next();
            // Map nodes are stable and keys are never untracked, so
            // `target` and its immutable maker outlive the unlock.
            lock.unlock();
            std::unique_ptr<Item> item;
            try {
                item = std::make_unique<Item>(target->maker(seed));
            } catch (...) {
                // A pop made inline surfaces the maker's error to a
                // caller; here there is none, so drop the item.
            }
            lock.lock();
            --target->inflight;
            if (item) {
                ++produced_;
                target->ready.push_back(std::move(item));
            } else {
                ++failed_;
                target->failed = true;
            }
            full_.notify_all();
        }
    }

    PoolOptions opts_;
    mutable std::mutex mutex_;
    std::condition_variable work_; ///< queues got needy / stopping
    std::condition_variable full_; ///< an item landed or failed (prewarm)
    std::map<std::string, Queue> queues_;
    uint64_t produced_ = 0;
    uint64_t failed_ = 0;
    uint64_t hits_ = 0;
    uint64_t misses_ = 0;
    SeedSequence seeds_;
    bool stop_ = false;
    std::vector<std::thread> fillers_; ///< last: they use all of the above
};

} // namespace serve
} // namespace haac

#endif // HAAC_SERVE_READY_POOL_H
