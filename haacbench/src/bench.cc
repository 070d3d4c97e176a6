#include "bench.h"

#include <sys/resource.h>

#include <algorithm>

#include "crypto/prg.h"

namespace haac {
namespace bench {

const std::vector<LayerMetric> &
layerMetrics()
{
    static const std::vector<LayerMetric> metrics = {
        {"net.connect_ms", "ms"},
        {"net.request_ms", "ms"},
        {"net.table_send_ms", "ms"},
        {"net.table_wait_ms", "ms"},
        {"net.frames_per_session", "count"},
        {"net.bytes_per_session", "B"},
        {"net.server_session_ms", "ms"},
        {"net.sessions_failed", "count"},
        {"gc.ot_setup.garbler_ms", "ms"},
        {"gc.ot_setup.evaluator_ms", "ms"},
        {"gc.ot_ext.garbler_ms", "ms"},
        {"gc.ot_ext.evaluator_ms", "ms"},
        {"gc.garble_ms", "ms"},
        {"gc.garble_and_per_s", "1/s"},
        {"gc.evaluate_ms", "ms"},
        {"gc.evaluate_and_per_s", "1/s"},
        {"gc.ot_errors", "count"},
        {"crypto.key_schedule_ns", "ns"},
        {"crypto.hash_rekeyed_ns", "ns"},
        {"crypto.gf128_mul_ns", "ns"},
        {"crypto.transpose128_ns", "ns"},
        {"crypto.ec_mul_us", "us"},
        {"serve.pool_hit_ratio", "ratio"},
        {"serve.pool_produced_per_hit", "ratio"},
        {"serve.pool_ready_min", "count"},
        {"serve.ot_reuse_ratio", "ratio"},
        {"serve.component_hit_ratio", "ratio"},
        {"serve.prewarm_s", "s"},
        {"chain.link_build_us", "us"},
        {"chain.component_capture_ms", "ms"},
        {"chain.link_bytes_per_session", "B"},
        {"chain.evaluate_ms", "ms"},
        {"workloads.resolve_ms", "ms"},
        {"compiler.assemble_ms", "ms"},
        {"compiler.reorder_ms", "ms"},
        {"compiler.esw_ms", "ms"},
        {"compiler.schedule_ms", "ms"},
        {"compiler.oor_reads", "count"},
        {"sim.run_ms", "ms"},
        {"sim.host_ns_per_instr", "ns"},
        {"sim.ipc", "ratio"},
        {"sim.cycles", "cycles"},
        {"check.plain_ms", "ms"},
        {"trace.unattributed_frac", "ratio"},
        {"trace.attributed_ms", "ms"},
        {"trace.session_p50_ms", "ms"},
        {"trace.replay_mismatches", "count"},
    };
    return metrics;
}

std::vector<bool>
seededBits(uint64_t seed, uint64_t stream, size_t n)
{
    std::vector<bool> bits(n);
    uint64_t state = splitmix64(seed ^ splitmix64(stream));
    for (size_t i = 0; i < n; i += 64) {
        state = splitmix64(state);
        for (size_t b = 0; b < 64 && i + b < n; ++b)
            bits[i + b] = (state >> b) & 1;
    }
    return bits;
}

double
percentile(std::vector<double> values, double p)
{
    if (values.empty())
        return 0;
    std::sort(values.begin(), values.end());
    const double pos = p * double(values.size() - 1);
    const size_t lo = size_t(pos);
    const size_t hi = std::min(lo + 1, values.size() - 1);
    return values[lo] + (pos - double(lo)) * (values[hi] - values[lo]);
}

double
cpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    auto secs = [](const timeval &tv) {
        return double(tv.tv_sec) + double(tv.tv_usec) / 1e6;
    };
    return secs(ru.ru_utime) + secs(ru.ru_stime);
}

double
peakRssMiB()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0; // ru_maxrss is KiB on Linux
}

double
secondsSince(const std::chrono::steady_clock::time_point &start)
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
}

} // namespace bench
} // namespace haac
