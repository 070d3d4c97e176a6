/**
 * @file
 * Host and build fingerprint attached to every result record, so
 * numbers from a Debug build or another host are never compared
 * silently with these.
 */
#ifndef HAAC_BENCH_FINGERPRINT_H
#define HAAC_BENCH_FINGERPRINT_H

#include <cstdint>
#include <string>

namespace haac {
namespace bench {

/** Cumulative steal ticks of all CPUs (/proc/stat); -1 if unknown. */
int64_t stealTicks();

/**
 * The fingerprint as a JSON object: CPU model and AES-NI, PCLMULQDQ,
 * VAES and AVX-512F flags (from cpuid), compiler and version, build
 * type, whether the AES-NI path was compiled in, nproc, and the steal
 * ticks seen between @p steal_before and now.
 */
std::string fingerprintJson(int64_t steal_before);

} // namespace bench
} // namespace haac

#endif // HAAC_BENCH_FINGERPRINT_H
