/**
 * @file
 * Garbled-circuits protocol tests: Half-Gate correctness for all input
 * combinations, FreeXOR/NOT label algebra, whole-circuit garbling vs
 * plaintext on random circuits (property test), the chunked gate
 * kernel, golden garbling and OT-extension digests, channel
 * accounting, and the end-to-end protocol.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <string>
#include <thread>
#include <vector>

#include "circuit/builder.h"
#include "circuit/stdlib.h"
#include "crypto/prg.h"
#include "gc/garble.h"
#include "gc/instance.h"
#include "gc/ot_ext.h"
#include "gc/protocol.h"
#include "gc/streaming.h"
#include "net/loopback.h"
#include "net/net_channel.h"
#include "workloads/vip.h"

namespace haac {
namespace {

TEST(HalfGate, AndCorrectForAllInputCombos)
{
    Prg prg(42);
    Label r = prg.nextLabel();
    r.setLsb(true);
    const Label a0 = prg.nextLabel();
    const Label b0 = prg.nextLabel();

    for (uint64_t gate : {0ull, 1ull, 999ull}) {
        HalfGateGarbled hg = garbleAnd(a0, b0, r, gate);
        for (bool va : {false, true}) {
            for (bool vb : {false, true}) {
                const Label la = va ? a0 ^ r : a0;
                const Label lb = vb ? b0 ^ r : b0;
                const Label lc = evaluateAnd(la, lb, hg.table, gate);
                const Label want =
                    (va && vb) ? hg.outZero ^ r : hg.outZero;
                EXPECT_EQ(lc, want)
                    << "gate=" << gate << " a=" << va << " b=" << vb;
            }
        }
    }
}

TEST(HalfGate, FixedKeyVariantAlsoCorrect)
{
    Prg prg(43);
    Label r = prg.nextLabel();
    r.setLsb(true);
    const Label a0 = prg.nextLabel();
    const Label b0 = prg.nextLabel();
    FixedKeyHasher h;
    const FixedKeyGateHash hash{h};

    HalfGateGarbled hg = garbleAnd(a0, b0, r, 7, hash);
    for (bool va : {false, true}) {
        for (bool vb : {false, true}) {
            const Label la = va ? a0 ^ r : a0;
            const Label lb = vb ? b0 ^ r : b0;
            const Label lc = evaluateAnd(la, lb, hg.table, 7, hash);
            EXPECT_EQ(lc, (va && vb) ? hg.outZero ^ r : hg.outZero);
        }
    }
}

TEST(HalfGate, WrongTweakBreaksEvaluation)
{
    Prg prg(44);
    Label r = prg.nextLabel();
    r.setLsb(true);
    const Label a0 = prg.nextLabel();
    const Label b0 = prg.nextLabel();
    HalfGateGarbled hg = garbleAnd(a0, b0, r, 5);
    const Label lc = evaluateAnd(a0, b0, hg.table, 6);
    EXPECT_NE(lc, hg.outZero);
}

TEST(HalfGate, TableBytesMatchPaper)
{
    // §1: "each (AND) gate involves a unique, 32 Byte, constant".
    EXPECT_EQ(kTableBytes, 32u);
}

TEST(Garbler, XorGatesAreFree)
{
    CircuitBuilder cb;
    Wire a = cb.garblerInput();
    Wire b = cb.evaluatorInput();
    cb.addOutput(cb.xorGate(a, b));
    Netlist nl = cb.build();
    const GarbledInstance g = captureGarbling(nl, 1);
    EXPECT_EQ(g.tables.size(), 0u);
    EXPECT_EQ(g.outputZero[0], g.inputZero[a] ^ g.inputZero[b]);
}

TEST(Garbler, GlobalOffsetHasLsbSet)
{
    CircuitBuilder cb;
    Wire a = cb.garblerInput();
    cb.addOutput(a);
    Netlist nl = cb.build();
    for (uint64_t seed : {1ull, 2ull, 3ull})
        EXPECT_TRUE(captureGarbling(nl, seed).globalOffset.lsb());
}

TEST(Garbler, DeterministicPerSeed)
{
    CircuitBuilder cb;
    Wire a = cb.garblerInput();
    Wire b = cb.evaluatorInput();
    cb.addOutput(cb.andGate(a, b));
    Netlist nl = cb.build();
    const GarbledInstance g1 = captureGarbling(nl, 9);
    const GarbledInstance g2 = captureGarbling(nl, 9);
    const GarbledInstance g3 = captureGarbling(nl, 10);
    EXPECT_EQ(g1.tables[0], g2.tables[0]);
    EXPECT_FALSE(g1.tables[0] == g3.tables[0]);
}

/** Build a random AND/XOR/NOT circuit and check GC == plaintext. */
class RandomCircuitGc : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(RandomCircuitGc, GarbleEvaluateMatchesPlaintext)
{
    const uint64_t seed = GetParam();
    Prg prg(seed);
    CircuitBuilder cb;
    const uint32_t n_garbler = 3 + uint32_t(prg.nextRange(5));
    const uint32_t n_eval = 3 + uint32_t(prg.nextRange(5));
    Bits pool;
    for (Wire w : cb.garblerInputs(n_garbler))
        pool.push_back(w);
    for (Wire w : cb.evaluatorInputs(n_eval))
        pool.push_back(w);

    const uint32_t n_gates = 40 + uint32_t(prg.nextRange(160));
    for (uint32_t i = 0; i < n_gates; ++i) {
        const Wire a = pool[prg.nextRange(pool.size())];
        const Wire b = pool[prg.nextRange(pool.size())];
        switch (prg.nextRange(3)) {
          case 0:
            pool.push_back(cb.andGate(a, b));
            break;
          case 1:
            pool.push_back(cb.xorGate(a, b));
            break;
          default:
            pool.push_back(cb.notGate(a));
            break;
        }
    }
    for (uint32_t i = 0; i < 8; ++i)
        cb.addOutput(pool[pool.size() - 1 - i]);
    Netlist nl = cb.build();

    std::vector<bool> ga(n_garbler), eb(n_eval);
    for (uint32_t i = 0; i < n_garbler; ++i)
        ga[i] = prg.nextBit();
    for (uint32_t i = 0; i < n_eval; ++i)
        eb[i] = prg.nextBit();

    ProtocolResult res = runProtocol(nl, ga, eb, seed * 31 + 7);
    EXPECT_EQ(res.outputs, nl.evaluate(ga, eb)) << "seed=" << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomCircuitGc,
                         ::testing::Range<uint64_t>(1, 21));

TEST(Protocol, AdderEndToEnd)
{
    CircuitBuilder cb;
    Bits a = cb.garblerInputs(16);
    Bits b = cb.evaluatorInputs(16);
    cb.addOutputs(addBits(cb, a, b));
    Netlist nl = cb.build();

    ProtocolResult res = runProtocol(nl, u64ToBits(12345, 16),
                                     u64ToBits(54321, 16));
    EXPECT_EQ(bitsToU64(res.outputs), (12345 + 54321) & 0xffff);
}

TEST(Protocol, TrafficAccounting)
{
    CircuitBuilder cb;
    Bits a = cb.garblerInputs(8);
    Bits b = cb.evaluatorInputs(8);
    cb.addOutputs(mulBits(cb, a, b, 8));
    Netlist nl = cb.build();

    // The downlink carries the 128 base-OT points plus one masked
    // label pair per evaluator bit plus the const-one label; the
    // uplink carries the base-OT public key plus 128 masked columns of
    // one 16-byte block each.
    ProtocolResult real = runProtocol(nl, u64ToBits(7, 8),
                                      u64ToBits(9, 8));
    EXPECT_EQ(bitsToU64(real.outputs), 63u);
    EXPECT_EQ(real.tableBytes, nl.numAndGates() * kTableBytes);
    EXPECT_EQ(real.inputLabelBytes, 8 * kLabelBytes);
    EXPECT_EQ(real.otBytes,
              128 * 32 + 8 * 2 * kLabelBytes + kLabelBytes);
    // Base public key + two masked column blocks (the real block and
    // the KOS15 pad) + the 32-byte consistency proof.
    EXPECT_EQ(real.otUplinkBytes, 32u + 2 * 128 * kLabelBytes + 32u);
    EXPECT_EQ(real.totalBytes,
              real.tableBytes + real.inputLabelBytes + real.otBytes +
                  real.outputDecodeBytes);
}

TEST(Protocol, RejectsWrongInputCounts)
{
    CircuitBuilder cb;
    Wire a = cb.garblerInput();
    Wire b = cb.evaluatorInput();
    cb.addOutput(cb.andGate(a, b));
    Netlist nl = cb.build();
    EXPECT_THROW(runProtocol(nl, {}, {true}), std::invalid_argument);
    EXPECT_THROW(runProtocol(nl, {true, false}, {true}),
                 std::invalid_argument);
}

TEST(Channel, FifoAndCounters)
{
    Channel chan;
    chan.sendLabel(Label(1, 2));
    chan.sendBit(true);
    chan.sendTable(GarbledTable{Label(3, 4), Label(5, 6)});
    EXPECT_EQ(chan.bytesSent(), 16 + 1 + 32u);
    EXPECT_EQ(chan.recvLabel(), Label(1, 2));
    EXPECT_TRUE(chan.recvBit());
    GarbledTable t = chan.recvTable();
    EXPECT_EQ(t.tg, Label(3, 4));
    EXPECT_EQ(t.te, Label(5, 6));
    EXPECT_EQ(chan.pending(), 0u);
}

TEST(Channel, UnderflowThrows)
{
    Channel chan;
    chan.sendBit(false);
    chan.recvBit();
    EXPECT_THROW(chan.recvBit(), std::runtime_error);
}

/** Kernel test circuits: a multiplier, one ending in XORs, no ANDs. */
Netlist
kernelCircuit(int which)
{
    CircuitBuilder cb;
    Bits a = cb.garblerInputs(8);
    Bits b = cb.evaluatorInputs(8);
    if (which == 0) {
        cb.addOutputs(mulBits(cb, a, b, 8));
    } else if (which == 1) {
        cb.addOutputs(xorBits(cb, mulBits(cb, a, b, 8), a));
    } else {
        cb.addOutputs(xorBits(cb, a, b));
        cb.addOutput(cb.notGate(a[0]));
    }
    return cb.build();
}

/** Active labels for seeded input bits; @p bits gets the bits. */
std::vector<Label>
activeInputs(const Netlist &nl, const GarbledInstance &g,
             std::vector<bool> &gbits, std::vector<bool> &ebits)
{
    Prg prg(nl.numGates());
    gbits.resize(nl.numGarblerInputs);
    ebits.resize(nl.numEvaluatorInputs);
    std::vector<Label> inputs(nl.numInputs());
    for (WireId w = 0; w < nl.numInputs(); ++w) {
        bool bit = true; // const-one
        if (w < nl.numGarblerInputs)
            bit = gbits[w] = prg.nextBit();
        else if (w < nl.numGarblerInputs + nl.numEvaluatorInputs)
            bit = ebits[w - nl.numGarblerInputs] = prg.nextBit();
        inputs[w] = g.activeLabel(w, bit);
    }
    return inputs;
}

TEST(GateKernel, AnyChunkingIsBitIdenticalToOnePass)
{
    for (int which : {0, 1, 2}) {
        const Netlist nl = kernelCircuit(which);
        SCOPED_TRACE("circuit " + std::to_string(which));
        ASSERT_EQ(nl.numAndGates() == 0, which == 2);
        if (which == 1) {
            ASSERT_EQ(nl.gates.back().op, GateOp::Xor);
        }
        const GarbledInstance one_pass = captureGarbling(nl, 31);
        std::vector<bool> gbits, ebits;
        const std::vector<Label> inputs =
            activeInputs(nl, one_pass, gbits, ebits);
        const std::vector<Label> ref_out =
            evaluateTables(nl, inputs, one_pass.tables);
        std::vector<bool> decoded(ref_out.size());
        for (size_t i = 0; i < ref_out.size(); ++i)
            decoded[i] = ref_out[i].lsb() != one_pass.decodeBit(i);
        EXPECT_EQ(decoded, nl.evaluate(gbits, ebits));

        const uint32_t ands = nl.numAndGates();
        for (uint32_t chunk : {1u, 7u, 1024u, ands}) {
            SCOPED_TRACE("chunk " + std::to_string(chunk));
            StreamingGarbler sg(nl, 31);
            std::vector<GarbledTable> tables;
            sg.run(chunk, [&](const GarbledTable *t, size_t n) {
                EXPECT_LE(n, std::max(chunk, 1u));
                tables.insert(tables.end(), t, t + n);
            });
            EXPECT_EQ(tables, one_pass.tables);
            EXPECT_EQ(sg.outputZeroLabels(), one_pass.outputZero);
            EXPECT_EQ(sg.tablesEmitted(), ands);

            size_t next = 0;
            const std::vector<Label> out = evaluateStreaming(
                nl, inputs, chunk, [&](GarbledTable *t, size_t n) {
                    EXPECT_EQ(n, std::min<size_t>(std::max(chunk, 1u),
                                                  ands - next));
                    std::copy_n(one_pass.tables.begin() + long(next), n,
                                t);
                    next += n;
                });
            EXPECT_EQ(next, ands);
            EXPECT_EQ(out, ref_out);
        }
    }
}

TEST(GateKernel, StopsAtTheFirstAndGateWithoutATable)
{
    const Netlist nl = kernelCircuit(1);
    const GarbledInstance g = captureGarbling(nl, 5);
    std::vector<bool> gbits, ebits;
    const std::vector<Label> inputs = activeInputs(nl, g, gbits, ebits);
    std::vector<Label> labels = inputs;
    labels.resize(nl.numWires());
    GateCursor cur;
    const size_t short_by_one = g.tables.size() - 1;
    EXPECT_EQ(evaluateGates(nl, labels, cur, g.tables.data(),
                            short_by_one),
              short_by_one);
    EXPECT_FALSE(cur.done(nl));
    EXPECT_EQ(cur.andIndex, short_by_one);
    EXPECT_EQ(nl.gates[cur.gate].op, GateOp::And);

    // A whole-circuit evaluation with too few (or too many) tables is
    // a typed error, not a short read.
    std::vector<GarbledTable> tables = g.tables;
    tables.pop_back();
    EXPECT_THROW(evaluateTables(nl, inputs, tables), TableCountError);
    tables.push_back(g.tables.back());
    tables.push_back(g.tables.back());
    EXPECT_THROW(evaluateTables(nl, inputs, tables), TableCountError);
}

TEST(Streaming, PipelinedGarbleEvaluateIsCorrect)
{
    CircuitBuilder cb;
    Bits a = cb.garblerInputs(16);
    Bits b = cb.evaluatorInputs(16);
    cb.addOutputs(mulBits(cb, a, b, 16));
    Netlist nl = cb.build();

    // Input labels exist before any table; tables cross a "network"
    // FIFO between the two parties one at a time.
    StreamingGarbler sg(nl, 5);
    const uint64_t x = 321, y = 207;
    std::vector<Label> inputs(nl.numInputs());
    for (uint32_t w = 0; w < 16; ++w) {
        inputs[w] = sg.activeLabel(w, (x >> w) & 1);
        inputs[16 + w] = sg.activeLabel(16 + w, (y >> w) & 1);
    }
    inputs[nl.constOne] = sg.activeLabel(nl.constOne, true);

    std::deque<GarbledTable> wire_fifo;
    sg.run([&wire_fifo](const GarbledTable &t) { wire_fifo.push_back(t); });
    std::vector<Label> outs =
        evaluateStreaming(nl, inputs, [&wire_fifo]() {
            GarbledTable t = wire_fifo.front();
            wire_fifo.pop_front();
            return t;
        });
    EXPECT_TRUE(wire_fifo.empty());

    uint64_t result = 0;
    for (size_t i = 0; i < outs.size(); ++i)
        result |= uint64_t(outs[i].lsb() != sg.decodeBit(i)) << i;
    EXPECT_EQ(result, (x * y) & 0xffff);
}

/** FNV-1a over bytes and labels: the digest behind the golden KATs. */
struct Fnv1a
{
    uint64_t h = 0xcbf29ce484222325ull;

    void
    bytes(const uint8_t *p, size_t n)
    {
        for (size_t i = 0; i < n; ++i) {
            h ^= p[i];
            h *= 0x100000001b3ull;
        }
    }

    void
    label(const Label &l)
    {
        uint8_t buf[kLabelBytes];
        l.toBytes(buf);
        bytes(buf, sizeof(buf));
    }
};

TEST(GarblingKat, HammDigestIsPinned)
{
    // Golden garbling: an FNV-1a digest over every AND table, every
    // input zero label and every decode bit of Hamm at a fixed seed.
    // The byte-count trajectories cannot see a change in label or
    // table values; this can.
    const Workload wl = vipWorkload("Hamm", false);
    const GarbledInstance inst = captureGarbling(wl.netlist, 0x4b4154);
    Fnv1a fnv;
    ASSERT_EQ(inst.tables.size(), 16369u);
    for (const GarbledTable &t : inst.tables) {
        fnv.label(t.tg);
        fnv.label(t.te);
    }
    for (const Label &l : inst.inputZero)
        fnv.label(l);
    for (size_t i = 0; i < inst.outputZero.size(); ++i) {
        const uint8_t d = inst.decodeBit(i) ? 1 : 0;
        fnv.bytes(&d, 1);
    }
    EXPECT_EQ(fnv.h, 0x364928f9c215180eull);
}

/** Passes reads through to another channel and keeps a copy. */
class TapChannel : public ByteChannel
{
  public:
    explicit TapChannel(ByteChannel &inner) : inner_(inner) {}

    std::vector<uint8_t> tapped; ///< bytes read
    std::vector<uint8_t> sent;   ///< bytes written

  protected:
    void
    writeBytes(const uint8_t *data, size_t n) override
    {
        inner_.sendBytes(data, n);
        sent.insert(sent.end(), data, data + n);
    }

    void
    readBytes(uint8_t *data, size_t n) override
    {
        inner_.recvBytes(data, n);
        tapped.insert(tapped.end(), data, data + n);
    }

  private:
    ByteChannel &inner_;
};

TEST(OtExtKat, LoopbackBatchDigestIsPinned)
{
    // Golden OT extension: an FNV-1a digest over the sender's masked
    // pairs (as the receiver reads them off the wire) and the
    // receiver's labels, for one seeded 8,192-choice batch. It pins
    // the label-masking hash and the KOS15 check's GF(2^128)
    // arithmetic, which only end-to-end output checks see otherwise.
    constexpr size_t kCount = 8192;
    Prg prg(0x4f544b4154); // "OTKAT"
    std::vector<Label> m0(kCount), m1(kCount);
    std::vector<bool> choices(kCount);
    for (size_t i = 0; i < kCount; ++i) {
        m0[i] = prg.nextLabel();
        m1[i] = prg.nextLabel();
        choices[i] = prg.nextBit();
    }

    auto [send_end, recv_end] = LoopbackTransport::createPair();
    std::thread sender_thread([&, t = std::move(send_end)] {
        NetChannel chan(*t);
        OtExtSender sender(chan, chan, uint64_t(0x53454e44)); // "SEND"
        sender.setup();
        sender.send(m0, m1);
    });
    NetChannel chan(*recv_end);
    TapChannel in(chan);
    OtExtReceiver receiver(chan, in, uint64_t(0x52454356)); // "RECV"
    receiver.start();
    receiver.setup();
    receiver.sendChoices(choices);
    in.tapped.clear();
    const std::vector<Label> labels = receiver.receiveLabels();
    sender_thread.join();

    ASSERT_EQ(in.tapped.size(), 2 * kCount * kLabelBytes);
    Fnv1a fnv;
    fnv.bytes(in.tapped.data(), in.tapped.size());
    for (size_t i = 0; i < kCount; ++i) {
        ASSERT_EQ(labels[i], choices[i] ? m1[i] : m0[i]) << "i=" << i;
        fnv.label(labels[i]);
    }
    EXPECT_EQ(fnv.h, 0xefa6e838b20dc854ull);
}

TEST(OtExtKat, UplinkDigestIsPinned)
{
    // The receiver's uplink for one seeded 1,000-choice batch: the
    // masked columns and the KOS15 proof (x, t~). The batch digest
    // above never sees the proof, which the sender only checks; this
    // pins the chi stream and the GF(2^128) sums on the wire.
    constexpr size_t kCount = 1000;
    Prg prg(0x4f54555020); // "OTUP "
    std::vector<Label> m0(kCount), m1(kCount);
    std::vector<bool> choices(kCount);
    for (size_t i = 0; i < kCount; ++i) {
        m0[i] = prg.nextLabel();
        m1[i] = prg.nextLabel();
        choices[i] = prg.nextBit();
    }
    DuplexChannel d;
    TapChannel up(d.toGarbler);
    OtExtSender sender(d.toEvaluator, d.toGarbler, uint64_t(0x53454e44));
    OtExtReceiver receiver(up, d.toEvaluator, uint64_t(0x52454356));
    receiver.start();
    sender.setup();
    receiver.setup();
    up.sent.clear();
    receiver.sendChoices(choices);
    sender.send(m0, m1);
    const std::vector<Label> labels = receiver.receiveLabels();

    constexpr size_t kExtBlocks = (kCount + 127) / 128 + 1;
    ASSERT_EQ(up.sent.size(), 128 * kExtBlocks * kLabelBytes + 32);
    for (size_t i = 0; i < kCount; ++i)
        ASSERT_EQ(labels[i], choices[i] ? m1[i] : m0[i]) << "i=" << i;
    Fnv1a fnv;
    fnv.bytes(up.sent.data(), up.sent.size());
    EXPECT_EQ(fnv.h, 0x519bd6170be73cbfull);
}

TEST(SoftwareGc, TimingProducesThroughput)
{
    CircuitBuilder cb;
    Bits a = cb.garblerInputs(16);
    Bits b = cb.evaluatorInputs(16);
    cb.addOutputs(mulBits(cb, a, b, 16));
    Netlist nl = cb.build();
    SoftwareGcTiming t = timeSoftwareGc(nl);
    EXPECT_GT(t.gates, 0u);
    EXPECT_GT(t.garbleSeconds, 0.0);
    EXPECT_GT(t.evaluateSeconds, 0.0);
    EXPECT_GT(t.garbledGatesPerSecond(), 0.0);
}

} // namespace
} // namespace haac
