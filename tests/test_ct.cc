/**
 * @file
 * A dudect-style timing-leak harness (Reparaz, Balasch, Verbauwhede,
 * "Dude, is my code constant time?", DATE 2017), self-contained: each
 * target runs on two input classes, a fixed value (class A) and fresh
 * random values (class B), interleaved in a seeded random order.
 * Welch's t-test on the wall-clock times measures how well timing
 * tells the classes apart, taken as the max |t| over the samples under
 * the pooled 50th, 75th, 90th and 100th percentiles (cropping sheds
 * interrupts); |t| above 4.5 is the usual threshold for a leak.
 *
 * Timing on a shared host is noisy, so the ctest case checks only the
 * harness itself: it must flag the reference double-and-add
 * (ec_reference.h), which branches on every scalar bit, on a
 * low-weight scalar against random ones. The DISABLED_ case runs every
 * target (the group's multiplies, the portable GF(2^128) multiply and
 * the OT extension's masked column XOR and label select) at a larger
 * budget and prints max |t| without failing; run it
 * with --gtest_also_run_disabled_tests --gtest_filter='ConstantTime.*'.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <vector>

#include "crypto/ct.h"
#include "crypto/curve25519.h"
#include "crypto/gf128.h"
#include "crypto/prg.h"
#include "ec_reference.h"

namespace haac {
namespace {

/** Keep @p value alive past the optimizer, at no cost. */
template <typename T>
void
keep(const T &value)
{
    __asm__ volatile("" : : "r"(&value) : "memory");
}

/** Running mean and variance of one class (Welford). */
struct Moments
{
    double n = 0, mean = 0, m2 = 0;

    void
    push(double x)
    {
        n += 1;
        const double delta = x - mean;
        mean += delta / n;
        m2 += delta * (x - mean);
    }

    double
    variance() const
    {
        return n > 1 ? m2 / (n - 1) : 0;
    }
};

/**
 * Max |t| of Welch's test between the fixed and the random class: time
 * @p op (@p reps calls per sample) on @p samples inputs, each @p fixed
 * or drawn by @p draw at random. Inputs are made before any timing.
 */
template <typename In, typename Draw, typename Op>
double
leakT(size_t samples, const In &fixed, Draw draw, Op op, int reps = 1)
{
    using Clock = std::chrono::steady_clock;
    Prg rng(0xc7);
    std::vector<In> inputs(samples);
    std::vector<int> cls(samples);
    for (size_t i = 0; i < samples; ++i) {
        cls[i] = int(rng.nextU64() & 1);
        inputs[i] = cls[i] ? draw(rng) : fixed;
    }
    for (size_t i = 0; i < std::min<size_t>(samples, 16); ++i)
        op(inputs[i]); // warm caches and clocks

    std::vector<double> ns(samples);
    for (size_t i = 0; i < samples; ++i) {
        const Clock::time_point t0 = Clock::now();
        for (int r = 0; r < reps; ++r)
            op(inputs[i]);
        const Clock::time_point t1 = Clock::now();
        ns[i] = std::chrono::duration<double, std::nano>(t1 - t0).count();
    }

    std::vector<double> sorted = ns;
    std::sort(sorted.begin(), sorted.end());
    double max_t = 0;
    for (const double pct : {0.5, 0.75, 0.9, 1.0}) {
        const double cut =
            sorted[std::min(samples - 1, size_t(pct * double(samples)))];
        Moments m[2];
        for (size_t i = 0; i < samples; ++i)
            if (ns[i] <= cut)
                m[cls[i]].push(ns[i]);
        const double se = std::sqrt(m[0].variance() / m[0].n +
                                    m[1].variance() / m[1].n);
        if (se > 0)
            max_t = std::max(max_t, std::fabs(m[0].mean - m[1].mean) / se);
    }
    return max_t;
}

/** 2^254: one set bit, against uniform scalars. */
ec::Scalar
lowWeightScalar()
{
    ec::Scalar k;
    k.bytes[31] = 0x40;
    return k;
}

ec::Scalar
drawScalar(Prg &rng)
{
    return ec::randomScalar(rng);
}

/** A point with no precomputed comb. */
ec::Point
somePoint()
{
    Prg rng(0xc8);
    return ec::Comb::base().mul(ec::randomScalar(rng));
}

double
referenceMulT(size_t samples)
{
    const ec::Point p = somePoint();
    return leakT(samples, lowWeightScalar(), drawScalar,
                 [&](const ec::Scalar &k) { keep(referenceMul(k, p)); });
}

TEST(ConstantTime, HarnessFlagsTheBranchyControl)
{
    // The control skips the adds of zero bits: 254 doublings against
    // ~254 doublings plus ~127 additions.
    const double t = referenceMulT(500);
    std::printf("reference double-and-add: max |t| = %.1f\n", t);
    EXPECT_GT(t, 4.5);
}

TEST(ConstantTime, DISABLED_ReportMaxT)
{
    const ec::Point p = somePoint();
    const Label a(0x0123456789abcdefull, 0xfedcba9876543210ull);
    const Label b(0x0f1e2d3c4b5a6978ull, 0x8796a5b4c3d2e1f0ull);
    // One IKNP column of an 8,192-OT batch.
    uint8_t column[1040], other[1040];
    Prg fill(0xc9);
    fill.nextBytes(column, sizeof column);
    fill.nextBytes(other, sizeof other);
    struct Row
    {
        const char *name;
        double t;
    };
    const Row rows[] = {
        {"ec::Point::mul (ladder)",
         leakT(20000, lowWeightScalar(), drawScalar,
               [&](const ec::Scalar &k) { keep(ec::Point::mul(k, p)); })},
        {"ec::Comb::mul (comb lookup)",
         leakT(20000, lowWeightScalar(), drawScalar,
               [&](const ec::Scalar &k) {
                   keep(ec::Comb::base().mul(k));
               })},
        {"gf128MulPortable",
         leakT(
             100000, Label(1, 0),
             [](Prg &rng) { return rng.nextLabel(); },
             [&](const Label &b) { keep(gf128MulPortable(a, b)); }, 16)},
        {"ctXorBytes (IKNP masked column)",
         leakT(
             20000, uint64_t(0),
             [](Prg &rng) { return rng.nextU64() & 1; },
             [&](uint64_t bit) {
                 ctXorBytes(ctMask(bit), column, other, sizeof column);
                 keep(column);
             })},
        {"ctSelect (OT label select)",
         leakT(
             100000, uint64_t(0),
             [](Prg &rng) { return rng.nextU64() & 1; },
             [&](uint64_t bit) { keep(ctSelect(ctMask(bit), a, b)); },
             16)},
        {"reference double-and-add (control)", referenceMulT(20000)},
    };
    for (const Row &row : rows)
        std::printf("max |t| %8.2f  %s\n", row.t, row.name);
}

} // namespace
} // namespace haac
