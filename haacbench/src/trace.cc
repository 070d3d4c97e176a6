#include "trace.h"

#include <atomic>
#include <cstdio>

namespace haac {
namespace bench {

namespace {

/** The span open on this thread (parent of the next one). */
thread_local int64_t t_open = -1;

uint32_t
threadId()
{
    static std::atomic<uint32_t> next{1};
    thread_local const uint32_t id = next.fetch_add(1);
    return id;
}

void
writeJsonString(std::ostream &out, const std::string &s)
{
    out << '"';
    for (char c : s) {
        if (c == '"' || c == '\\')
            out << '\\' << c;
        else if (static_cast<unsigned char>(c) < 0x20)
            out << ' ';
        else
            out << c;
    }
    out << '"';
}

} // namespace

const char *
partyName(Party party)
{
    switch (party) {
      case Party::Client:
        return "client";
      case Party::Garbler:
        return "garbler";
      case Party::Evaluator:
        return "evaluator";
      case Party::Filler:
        return "filler";
      case Party::Host:
        return "host";
    }
    return "?";
}

Tracer::Tracer(bool enabled) : enabled_(enabled), epoch_(Clock::now()) {}

int64_t
Tracer::now() const
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - epoch_)
        .count();
}

int64_t
Tracer::open(const char *name, uint64_t session, Party party)
{
    Span s;
    s.name = name;
    s.parent = t_open;
    s.session = session;
    s.party = party;
    s.thread = threadId();
    std::lock_guard<std::mutex> lock(mutex_);
    s.startNs = now();
    spans_.push_back(std::move(s));
    return int64_t(spans_.size()) - 1;
}

void
Tracer::close(int64_t index, int64_t saved_parent)
{
    const int64_t end = now();
    {
        std::lock_guard<std::mutex> lock(mutex_);
        spans_[size_t(index)].endNs = end;
    }
    t_open = saved_parent;
}

Tracer::Scope
Tracer::scope(const char *name, uint64_t session, Party party)
{
    if (!enabled_)
        return Scope(nullptr, -1, -1);
    const int64_t saved = t_open;
    const int64_t index = open(name, session, party);
    t_open = index;
    return Scope(this, index, saved);
}

Tracer::Scope::~Scope()
{
    if (tracer_ != nullptr)
        tracer_->close(index_, savedParent_);
}

void
Tracer::record(const char *name, Clock::time_point start,
               Clock::time_point end, uint64_t session, Party party)
{
    if (!enabled_)
        return;
    auto ns = [&](Clock::time_point t) {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(
                   t - epoch_)
            .count();
    };
    Span s;
    s.name = name;
    s.startNs = ns(start);
    s.endNs = ns(end);
    s.parent = t_open;
    s.session = session;
    s.party = party;
    s.thread = threadId();
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(std::move(s));
}

std::vector<Span>
Tracer::spans() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_;
}

std::vector<int64_t>
Tracer::selfTimes(const std::vector<Span> &spans)
{
    // Children of one span run on its thread, nested and sequential,
    // so the interval they cover is the sum of their durations.
    std::vector<int64_t> self(spans.size());
    for (size_t i = 0; i < spans.size(); ++i)
        self[i] = spans[i].endNs - spans[i].startNs;
    for (const Span &s : spans)
        if (s.parent >= 0)
            self[size_t(s.parent)] -= s.endNs - s.startNs;
    for (int64_t &v : self)
        if (v < 0)
            v = 0;
    return self;
}

void
Tracer::writeChrome(std::ostream &out) const
{
    const std::vector<Span> all = spans();
    out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
    for (size_t i = 0; i < all.size(); ++i) {
        const Span &s = all[i];
        char ts[64];
        std::snprintf(ts, sizeof(ts), "%.3f,\"dur\":%.3f",
                      double(s.startNs) / 1e3,
                      double(s.endNs - s.startNs) / 1e3);
        out << (i ? ",\n" : "") << "{\"name\":";
        writeJsonString(out, s.name);
        out << ",\"cat\":";
        writeJsonString(out, s.name.substr(0, s.name.find('.')));
        out << ",\"ph\":\"X\",\"ts\":" << ts << ",\"pid\":1,\"tid\":"
            << s.thread << ",\"args\":{\"id\":" << i
            << ",\"parent\":" << s.parent << ",\"session\":"
            << (s.session == kNoSession ? int64_t(-1)
                                        : int64_t(s.session))
            << ",\"party\":\"" << partyName(s.party) << "\"}}";
    }
    out << "\n]}\n";
}

} // namespace bench
} // namespace haac
