/**
 * @file
 * CPU-baseline model for the paper's "EMP on an i7-10700K" comparisons.
 *
 * Two baselines are provided (see DESIGN.md substitutions):
 *  - a *measured* baseline: this host running our software GC engine
 *    (re-keyed half-gates, on AES-NI when the CPU has it), calibrated
 *    once per process;
 *  - a *paper-calibrated* baseline: a fixed gates/second constant
 *    back-derived from the paper's published CPU results (EMP with
 *    AES-NI, fixed-key), so speedup magnitudes can be compared against
 *    the paper's on any host.
 */
#ifndef HAAC_PLATFORM_CPU_MODEL_H
#define HAAC_PLATFORM_CPU_MODEL_H

#include <cstdint>

namespace haac {

/**
 * EMP-with-AES-NI throughput implied by the paper: HAAC garbles 8.7 B
 * gates/s (§6.6) at a geomean 2,627x speedup over the CPU (§6.5),
 * giving ~3.3 M gates/s for the CPU baseline.
 */
inline constexpr double kPaperCpuGatesPerSecond = 3.3e6;

/** Paper's measured average CPU package power (§6.4). */
inline constexpr double kPaperCpuWatts = 25.0;

/** On the CPU, garbling is 11.9% slower than evaluation (§6.1). */
inline constexpr double kPaperCpuGarbleSlowdown = 1.119;

struct CpuBaseline
{
    /** Host-measured software-GC throughput (gates per second). */
    double garbleGatesPerSecond = 0;
    double evaluateGatesPerSecond = 0;

    /** Seconds for this host to garble+evaluate @p gates gates. */
    double
    evaluateSeconds(uint64_t gates) const
    {
        return double(gates) / evaluateGatesPerSecond;
    }

    double
    garbleSeconds(uint64_t gates) const
    {
        return double(gates) / garbleGatesPerSecond;
    }
};

/**
 * Calibrate the host software-GC baseline (cached after first call).
 *
 * Garbles and evaluates a ~64k-gate calibration circuit and converts
 * to gates/second.
 */
const CpuBaseline &cpuBaseline();

/** Paper-calibrated CPU time for a gate count (evaluator role). */
inline double
paperCpuSeconds(uint64_t gates)
{
    return double(gates) / kPaperCpuGatesPerSecond;
}

} // namespace haac

#endif // HAAC_PLATFORM_CPU_MODEL_H
