/**
 * @file
 * google-benchmark microbenchmarks of the crypto substrate, including
 * the paper's §2.1 ablation: re-keying vs fixed-key Half-Gate cost
 * (the paper measures re-keying as +27.5%). The re-keyed benchmarks
 * run the gate kernel's default policy, the fused hash the protocols
 * use, and BM_RekeyedOverFixedKey reports the ratio itself. The
 * BM_Ec* benchmarks time the base-OT group: each scalar multiply shape
 * and batched point compression. BM_OtExtBatch times one 8,192-OT
 * IKNP+KOS batch end to end, and BM_PrgBytes, BM_HashRekeyedBatch and
 * BM_Transpose128 its three kernels: the column PRG, the label masks
 * and the column-to-row pivot.
 */
#include <benchmark/benchmark.h>

#include <chrono>
#include <vector>

#include "crypto/aes128.h"
#include "crypto/bitmatrix.h"
#include "crypto/curve25519.h"
#include "crypto/gf128.h"
#include "crypto/hash.h"
#include "crypto/prg.h"
#include "gc/channel.h"
#include "gc/garble.h"
#include "gc/ot_ext.h"

namespace haac {
namespace {

Label
someLabel(uint64_t salt)
{
    return Label(0x123456789abcdefull ^ salt, 0xfedcba987654321ull);
}

void
BM_Aes128KeyExpansion(benchmark::State &state)
{
    Label key = someLabel(1);
    for (auto _ : state) {
        Aes128 aes(key);
        benchmark::DoNotOptimize(aes.roundKeys());
    }
}
BENCHMARK(BM_Aes128KeyExpansion);

void
BM_Aes128EncryptBlock(benchmark::State &state)
{
    Aes128 aes(someLabel(2));
    Label x = someLabel(3);
    for (auto _ : state) {
        x = aes.encryptBlock(x);
        benchmark::DoNotOptimize(x);
    }
}
BENCHMARK(BM_Aes128EncryptBlock);

void
BM_HashRekeyed(benchmark::State &state)
{
    Label x = someLabel(4);
    uint64_t tweak = 0;
    for (auto _ : state) {
        x = hashRekeyed(x, tweak++);
        benchmark::DoNotOptimize(x);
    }
}
BENCHMARK(BM_HashRekeyed);

void
BM_HashFixedKey(benchmark::State &state)
{
    FixedKeyHasher h;
    Label x = someLabel(5);
    uint64_t tweak = 0;
    for (auto _ : state) {
        x = h(x, tweak++);
        benchmark::DoNotOptimize(x);
    }
}
BENCHMARK(BM_HashFixedKey);

/** Garbler AND cost with re-keying (2 expansions + 4 AES). */
void
BM_GarbleAndRekeyed(benchmark::State &state)
{
    Prg prg(1);
    Label r = prg.nextLabel();
    r.setLsb(true);
    Label a0 = prg.nextLabel(), b0 = prg.nextLabel();
    uint64_t gate = 0;
    for (auto _ : state) {
        HalfGateGarbled hg = garbleAnd(a0, b0, r, gate++);
        a0 = hg.outZero;
        benchmark::DoNotOptimize(hg);
    }
    state.SetItemsProcessed(int64_t(state.iterations()));
}
BENCHMARK(BM_GarbleAndRekeyed);

/** The paper's fixed-key baseline: should be ~27.5% cheaper. */
void
BM_GarbleAndFixedKey(benchmark::State &state)
{
    Prg prg(1);
    Label r = prg.nextLabel();
    r.setLsb(true);
    Label a0 = prg.nextLabel(), b0 = prg.nextLabel();
    FixedKeyHasher h;
    const FixedKeyGateHash hash{h};
    uint64_t gate = 0;
    for (auto _ : state) {
        HalfGateGarbled hg = garbleAnd(a0, b0, r, gate++, hash);
        a0 = hg.outZero;
        benchmark::DoNotOptimize(hg);
    }
    state.SetItemsProcessed(int64_t(state.iterations()));
}
BENCHMARK(BM_GarbleAndFixedKey);

void
BM_EvaluateAndRekeyed(benchmark::State &state)
{
    Prg prg(2);
    Label r = prg.nextLabel();
    r.setLsb(true);
    Label a0 = prg.nextLabel(), b0 = prg.nextLabel();
    HalfGateGarbled hg = garbleAnd(a0, b0, r, 0);
    Label la = a0, lb = b0;
    uint64_t gate = 0;
    for (auto _ : state) {
        la = evaluateAnd(la, lb, hg.table, gate++ % 64);
        benchmark::DoNotOptimize(la);
    }
    state.SetItemsProcessed(int64_t(state.iterations()));
}
BENCHMARK(BM_EvaluateAndRekeyed);

/**
 * The paper's §2.1 figure: garbling cost per AND, re-keyed over
 * fixed-key (paper: 1.275), timed back to back in one process. Both
 * loops are short enough that code placement matters: on a 4-vCPU
 * Xeon (gcc 12), builds differing only in layout read 1.0-1.6.
 */
void
BM_RekeyedOverFixedKey(benchmark::State &state)
{
    constexpr uint64_t kGates = 4096;
    using Clock = std::chrono::steady_clock;
    Prg prg(4);
    Label r = prg.nextLabel();
    r.setLsb(true);
    const Label b0 = prg.nextLabel();
    FixedKeyHasher h;
    const FixedKeyGateHash fixed{h};
    auto garbleChain = [&](const auto &hash) {
        Label a0 = b0;
        const Clock::time_point t0 = Clock::now();
        for (uint64_t gate = 0; gate < kGates; ++gate)
            a0 = garbleAnd(a0, b0, r, gate, hash).outZero;
        benchmark::DoNotOptimize(a0);
        return std::chrono::duration<double>(Clock::now() - t0).count();
    };
    double rekeyed_s = 0, fixed_s = 0;
    for (auto _ : state) {
        rekeyed_s += garbleChain(RekeyedGateHash{});
        fixed_s += garbleChain(fixed);
    }
    state.counters["rekeyed_over_fixed"] = rekeyed_s / fixed_s;
    state.SetItemsProcessed(int64_t(state.iterations() * kGates));
}
BENCHMARK(BM_RekeyedOverFixedKey);

void
BM_Gf128Mul(benchmark::State &state)
{
    Label a = someLabel(8);
    const Label b = someLabel(9);
    for (auto _ : state) {
        a = gf128Mul(a, b);
        benchmark::DoNotOptimize(a);
    }
}
BENCHMARK(BM_Gf128Mul);

void
BM_FreeXor(benchmark::State &state)
{
    Label a = someLabel(6), b = someLabel(7);
    for (auto _ : state) {
        a ^= b;
        benchmark::DoNotOptimize(a);
    }
}
BENCHMARK(BM_FreeXor);

void
BM_PrgNextLabel(benchmark::State &state)
{
    Prg prg(3);
    for (auto _ : state) {
        benchmark::DoNotOptimize(prg.nextLabel());
    }
}
BENCHMARK(BM_PrgNextLabel);

/** One IKNP column of an 8,192-OT batch: 65 blocks. */
void
BM_PrgBytes(benchmark::State &state)
{
    constexpr size_t kColumnBytes = 1040;
    Prg prg(4);
    std::vector<uint8_t> column(kColumnBytes);
    for (auto _ : state) {
        prg.nextBytes(column.data(), column.size());
        benchmark::DoNotOptimize(column.data());
        benchmark::ClobberMemory();
    }
    state.SetBytesProcessed(int64_t(state.iterations() * kColumnBytes));
}
BENCHMARK(BM_PrgBytes);

/**
 * The OT masks of an 8,192-OT batch: 1 block per tweak on the
 * receiver, 2 on the sender.
 */
void
BM_HashRekeyedBatch(benchmark::State &state)
{
    constexpr size_t kOts = 8192;
    const int per = int(state.range(0));
    std::vector<Label> x(size_t(per) * kOts, someLabel(10));
    uint64_t tweak = 0;
    for (auto _ : state) {
        hashRekeyedBatch(tweak, x.data(), kOts, per, x.data());
        tweak += kOts;
        benchmark::DoNotOptimize(x.data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(int64_t(state.iterations() * kOts));
}
BENCHMARK(BM_HashRekeyedBatch)->Arg(1)->Arg(2)->Unit(benchmark::kMicrosecond);

void
BM_Transpose128(benchmark::State &state)
{
    Prg prg(5);
    std::vector<uint8_t> cols(128 * kLabelBytes);
    prg.nextBytes(cols.data(), cols.size());
    Label rows[128];
    for (auto _ : state) {
        transpose128Block(cols.data(), kLabelBytes, rows);
        benchmark::DoNotOptimize(rows);
        benchmark::ClobberMemory();
    }
}
BENCHMARK(BM_Transpose128);

/**
 * One 8,192-OT batch after a one-time base phase, both halves driven
 * in protocol order over an in-process DuplexChannel in one thread.
 */
void
BM_OtExtBatch(benchmark::State &state)
{
    constexpr size_t kOts = 8192;
    DuplexChannel chan;
    OtExtSender sender(chan.toEvaluator, chan.toGarbler, uint64_t(900));
    OtExtReceiver receiver(chan.toGarbler, chan.toEvaluator, uint64_t(800));
    receiver.start();
    sender.setup();
    receiver.setup();
    Prg prg(6);
    std::vector<Label> m0(kOts), m1(kOts);
    std::vector<bool> choices(kOts);
    for (size_t i = 0; i < kOts; ++i) {
        m0[i] = prg.nextLabel();
        m1[i] = prg.nextLabel();
        choices[i] = prg.nextBit();
    }
    for (auto _ : state) {
        receiver.sendChoices(choices);
        sender.send(m0, m1);
        benchmark::DoNotOptimize(receiver.receiveLabels());
    }
    state.SetItemsProcessed(int64_t(state.iterations() * kOts));
}
BENCHMARK(BM_OtExtBatch)->Unit(benchmark::kMicrosecond);

/** 64 seeded scalars, cycled so no two neighbouring calls repeat one. */
std::vector<ec::Scalar>
someScalars()
{
    Prg rng(0xec);
    std::vector<ec::Scalar> ks(64);
    for (auto &k : ks)
        k = ec::randomScalar(rng);
    return ks;
}

/** A point with no precomputed comb. */
ec::Point
somePoint()
{
    Prg rng(0xec1);
    return ec::Point::mul(ec::randomScalar(rng), ec::Point::base());
}

/** x*B through the process-wide comb of B. */
void
BM_EcMulBase(benchmark::State &state)
{
    const std::vector<ec::Scalar> ks = someScalars();
    size_t i = 0;
    for (auto _ : state)
        benchmark::DoNotOptimize(ec::Comb::base().mul(ks[i++ % ks.size()]));
}
BENCHMARK(BM_EcMulBase)->Unit(benchmark::kMicrosecond);

/** Variable-base k*P (the fixed-window ladder). */
void
BM_EcMul(benchmark::State &state)
{
    const std::vector<ec::Scalar> ks = someScalars();
    const ec::Point p = somePoint();
    size_t i = 0;
    for (auto _ : state)
        benchmark::DoNotOptimize(ec::Point::mul(ks[i++ % ks.size()], p));
}
BENCHMARK(BM_EcMul)->Unit(benchmark::kMicrosecond);

/** k*P through a comb of a non-base point; the build is not timed. */
void
BM_EcMulTable(benchmark::State &state)
{
    const std::vector<ec::Scalar> ks = someScalars();
    const ec::Comb comb(somePoint());
    size_t i = 0;
    for (auto _ : state)
        benchmark::DoNotOptimize(comb.mul(ks[i++ % ks.size()]));
}
BENCHMARK(BM_EcMulTable)->Unit(benchmark::kMicrosecond);

/** Point compression in batches of 256; reports time per point. */
void
BM_EcBatchToBytes(benchmark::State &state)
{
    constexpr size_t kBatch = 256;
    const std::vector<ec::Scalar> ks = someScalars();
    const ec::Point p = somePoint();
    std::vector<ec::Point> points(kBatch);
    for (size_t i = 0; i < kBatch; ++i)
        points[i] = ec::Point::mul(ks[i % ks.size()], p).add(
            ec::Point::base());
    std::vector<uint8_t> out(kBatch * ec::kPointBytes);
    for (auto _ : state) {
        ec::Point::batchToBytes(points.data(), kBatch, out.data());
        benchmark::DoNotOptimize(out.data());
        benchmark::ClobberMemory();
    }
    state.counters["per_point"] = benchmark::Counter(
        double(kBatch), benchmark::Counter::kIsIterationInvariantRate |
                            benchmark::Counter::kInvert);
}
BENCHMARK(BM_EcBatchToBytes)->Unit(benchmark::kMicrosecond);

} // namespace
} // namespace haac

BENCHMARK_MAIN();
