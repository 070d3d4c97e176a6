/**
 * @file
 * Shared types of haac-bench: command-line arguments, metric records,
 * seeded inputs and the small statistics every workload uses.
 */
#ifndef HAAC_BENCH_BENCH_H
#define HAAC_BENCH_BENCH_H

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace haac {
namespace bench {

struct Args
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    /** Flip one expected output bit: every check must then fail. */
    bool injectDefect = false;
    /** Chrome trace-event JSON path for the traced run ("" = none). */
    std::string traceOut;
};

struct Metric
{
    std::string name;
    double value = 0;
    std::string unit;
};

struct WorkloadResult
{
    uint64_t attempted = 0;
    uint64_t failed = 0;
    /** Untraced run: end-to-end metrics under the issue's names. */
    std::vector<Metric> record;
    /** Untraced run: the BENCHMARK.json end_to_end set. */
    std::vector<Metric> endToEnd;
    /** Traced run: per-layer values by name (absent = layer idle). */
    std::map<std::string, double> layers;
};

WorkloadResult runSessionWorkload(const Args &args);
WorkloadResult runCompileSim(const Args &args);

/** Per-layer metric names and units, in BENCHMARK.json order. */
struct LayerMetric
{
    const char *name;
    const char *unit;
};
const std::vector<LayerMetric> &layerMetrics();

/** Input bits for session @p stream, a pure function of the seed. */
std::vector<bool> seededBits(uint64_t seed, uint64_t stream, size_t n);

/** Linear-interpolated percentile (p in [0, 1]); 0 for no samples. */
double percentile(std::vector<double> values, double p);

/** Process user + system CPU seconds so far. */
double cpuSeconds();

/** Peak resident set size of this process, MiB. */
double peakRssMiB();

double secondsSince(const std::chrono::steady_clock::time_point &start);

} // namespace bench
} // namespace haac

#endif // HAAC_BENCH_BENCH_H
