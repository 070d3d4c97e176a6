/**
 * @file
 * In-memory span recorder for the traced run.
 *
 * A span is one call the benchmark makes into a module: name, start,
 * end, the span that was open on the same thread when it began
 * (its parent), the session it belongs to, and the party that made
 * the call. Spans stay in memory and are written out once, as Chrome
 * trace-event JSON (loads in Perfetto and chrome://tracing).
 *
 * A span's self time is its duration minus the part of that interval
 * its child spans cover; per-layer numbers are sums of self time.
 */
#ifndef HAAC_BENCH_TRACE_H
#define HAAC_BENCH_TRACE_H

#include <chrono>
#include <cstdint>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

namespace haac {
namespace bench {

using Clock = std::chrono::steady_clock;

/** Who made the call a span wraps. */
enum class Party : uint8_t
{
    Client,    ///< the benchmark's client thread (real TCP session)
    Garbler,   ///< replay: garbler side
    Evaluator, ///< replay: evaluator side
    Filler,    ///< replay: pre-garbling done off the request path
    Host,      ///< setup, compile_sim, crypto kernels
};

const char *partyName(Party party);

/** Sessions outside any one session (setup, kernels) use this id. */
inline constexpr uint64_t kNoSession = ~uint64_t(0);

struct Span
{
    std::string name;
    int64_t startNs = 0; ///< since the tracer's epoch
    int64_t endNs = 0;
    int64_t parent = -1; ///< index into spans(), -1 for a root
    uint64_t session = kNoSession;
    Party party = Party::Host;
    uint32_t thread = 0; ///< small per-thread id (Chrome "tid")
};

class Tracer
{
  public:
    /** A disabled tracer records nothing; scopes cost one branch. */
    explicit Tracer(bool enabled);

    Tracer(const Tracer &) = delete;
    Tracer &operator=(const Tracer &) = delete;

    bool enabled() const { return enabled_; }

    /** RAII span: opened by Tracer::scope(), closed on destruction. */
    class Scope
    {
      public:
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;
        Scope &operator=(Scope &&) = delete;
        ~Scope();

      private:
        friend class Tracer;
        Scope(Tracer *tracer, int64_t index, int64_t saved_parent)
            : tracer_(tracer), index_(index), savedParent_(saved_parent)
        {}
        Tracer *tracer_;
        int64_t index_;
        int64_t savedParent_;
    };

    Scope scope(const char *name, uint64_t session, Party party);

    /**
     * Record an already-timed interval as a child of the span open on
     * this thread (used for the frame-level net spans inside table
     * sinks and sources, where a scope per table would be too many).
     */
    void record(const char *name, Clock::time_point start,
                Clock::time_point end, uint64_t session, Party party);

    std::vector<Span> spans() const;

    /** Self time per span, same order as spans(). */
    static std::vector<int64_t> selfTimes(const std::vector<Span> &spans);

    /** Chrome trace-event JSON ("X" complete events, microseconds). */
    void writeChrome(std::ostream &out) const;

  private:
    int64_t now() const;
    int64_t open(const char *name, uint64_t session, Party party);
    void close(int64_t index, int64_t saved_parent);

    bool enabled_;
    Clock::time_point epoch_;
    mutable std::mutex mutex_; ///< guards spans_
    std::vector<Span> spans_;
};

} // namespace bench
} // namespace haac

#endif // HAAC_BENCH_TRACE_H
