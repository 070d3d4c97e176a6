/**
 * @file
 * Cycle-engine tests: latency floors, ILP scaling, DRAM-bound behavior,
 * traffic accounting identities, role asymmetry, forwarding ablation,
 * and mode isolation (compute vs traffic).
 */
#include <gtest/gtest.h>

#include "circuit/builder.h"
#include "circuit/stdlib.h"
#include "core/compiler/passes.h"
#include "core/sim/engine.h"
#include "crypto/prg.h"

namespace haac {
namespace {

HaacProgram
andChain(uint32_t n)
{
    CircuitBuilder cb;
    Wire a = cb.garblerInput();
    Wire b = cb.evaluatorInput();
    Wire cur = cb.andGate(a, b);
    for (uint32_t i = 1; i < n; ++i)
        cur = cb.andGate(cur, b);
    cb.addOutput(cur);
    return assemble(cb.build());
}

HaacProgram
wideAnds(uint32_t n)
{
    CircuitBuilder cb;
    Bits a = cb.garblerInputs(n);
    Bits b = cb.evaluatorInputs(n);
    for (uint32_t i = 0; i < n; ++i)
        cb.addOutput(cb.andGate(a[i], b[i]));
    return assemble(cb.build());
}

HaacConfig
testConfig(uint32_t ges = 4)
{
    HaacConfig cfg;
    cfg.numGes = ges;
    cfg.swwBytes = size_t(4096) * 16;
    return cfg;
}

TEST(Engine, DependentAndsPayPipelineLatency)
{
    const uint32_t n = 64;
    HaacProgram prog = andChain(n);
    HaacConfig cfg = testConfig();
    SimStats s = simulate(prog, cfg, SimMode::ComputeOnly);
    // A chain of n ANDs cannot finish faster than n * half-gate
    // latency (forwarding hides frontend but not compute).
    EXPECT_GE(s.cycles, uint64_t(n) *
                            cfg.computeLatency(/*is_and=*/true));
    EXPECT_EQ(s.instructions, n);
    EXPECT_EQ(s.andOps, n);
}

TEST(Engine, IndependentAndsPipelinePerfectly)
{
    const uint32_t n = 1024;
    HaacProgram prog = wideAnds(n);
    HaacConfig cfg = testConfig(4);
    SimStats s = simulate(prog, cfg, SimMode::ComputeOnly);
    // 4 GEs issuing one AND per cycle: ~n/4 cycles plus pipeline fill.
    EXPECT_LT(s.cycles, n / 4 + 200);
    EXPECT_GE(s.cycles, n / 4);
}

TEST(Engine, MoreGesScaleWideWorkloads)
{
    HaacProgram prog = wideAnds(2048);
    SimStats s1 = simulate(prog, testConfig(1), SimMode::ComputeOnly);
    SimStats s4 = simulate(prog, testConfig(4), SimMode::ComputeOnly);
    SimStats s16 = simulate(prog, testConfig(16), SimMode::ComputeOnly);
    EXPECT_GT(double(s1.cycles) / double(s4.cycles), 3.0);
    EXPECT_GT(double(s4.cycles) / double(s16.cycles), 2.5);
}

TEST(Engine, MoreGesDoNotHelpChains)
{
    HaacProgram prog = andChain(128);
    SimStats s1 = simulate(prog, testConfig(1), SimMode::ComputeOnly);
    SimStats s8 = simulate(prog, testConfig(8), SimMode::ComputeOnly);
    EXPECT_NEAR(double(s1.cycles), double(s8.cycles),
                0.1 * double(s1.cycles));
}

TEST(Engine, XorChainsAreSingleCycle)
{
    // Dependent XORs resolve in one cycle via forwarding (§3.2).
    CircuitBuilder cb;
    Wire a = cb.garblerInput();
    Wire b = cb.evaluatorInput();
    Wire cur = cb.xorGate(a, b);
    for (int i = 0; i < 511; ++i)
        cur = cb.xorGate(cur, b);
    cb.addOutput(cur);
    HaacProgram prog = assemble(cb.build());
    SimStats s = simulate(prog, testConfig(1), SimMode::ComputeOnly);
    EXPECT_LT(s.cycles, 512 + 64);
}

TEST(Engine, ForwardingOffSlowsDependentCode)
{
    HaacProgram prog = andChain(256);
    HaacConfig on = testConfig(2);
    HaacConfig off = on;
    off.forwarding = false;
    SimStats s_on = simulate(prog, on, SimMode::ComputeOnly);
    SimStats s_off = simulate(prog, off, SimMode::ComputeOnly);
    EXPECT_GT(s_off.cycles, s_on.cycles);
}

TEST(Engine, GarblerSlightlySlowerThanEvaluator)
{
    HaacProgram prog = andChain(512);
    HaacConfig ev = testConfig(2);
    HaacConfig gb = ev;
    gb.role = Role::Garbler;
    SimStats se = simulate(prog, ev, SimMode::ComputeOnly);
    SimStats sg = simulate(prog, gb, SimMode::ComputeOnly);
    EXPECT_GT(sg.cycles, se.cycles); // 21- vs 18-stage pipeline
    EXPECT_LT(double(sg.cycles) / double(se.cycles), 1.25);
}

TEST(Engine, TrafficAccountingIdentity)
{
    HaacProgram prog = wideAnds(512);
    HaacConfig cfg = testConfig(4);
    applyEsw(prog, cfg.swwWires());
    StreamSet set = buildStreams(prog, cfg);
    SimStats s = runSimulation(prog, cfg, set, SimMode::Combined);

    EXPECT_EQ(s.instrBytes,
              prog.instrs.size() *
                  encodedInstrBytes(cfg.swwWires()));
    EXPECT_EQ(s.tableBytes, uint64_t(prog.numAnd()) * kTableBytes);
    EXPECT_EQ(s.oorDataBytes, set.totalOor * kLabelBytes);
    EXPECT_EQ(s.oorAddrBytes, set.totalOor * 4);
    EXPECT_EQ(s.totalTrafficBytes(),
              s.instrBytes + s.tableBytes + s.oorAddrBytes +
                  s.oorDataBytes + s.liveWriteBytes +
                  s.inputLoadBytes);
}

TEST(Engine, CombinedIsAtLeastEachIsolatedMode)
{
    HaacProgram base = wideAnds(4096);
    HaacConfig cfg = testConfig(8);
    CompileOptions opts;
    opts.swwWires = cfg.swwWires();
    HaacProgram prog = compileProgram(base, opts);
    StreamSet set = buildStreams(prog, cfg);
    SimStats comb = runSimulation(prog, cfg, set, SimMode::Combined);
    SimStats comp = runSimulation(prog, cfg, set, SimMode::ComputeOnly);
    SimStats traf = runSimulation(prog, cfg, set, SimMode::TrafficOnly);
    // Decoupled design: combined ~ max(compute, traffic), and never
    // better than either in isolation (allowing warmup slack).
    EXPECT_GE(comb.cycles + 8, comp.cycles);
    EXPECT_GE(comb.cycles + 8, traf.cycles / 2);
}

TEST(Engine, Ddr4BecomesBandwidthBound)
{
    // All-live wide ANDs: tables + live writes dominate; HBM2 must
    // beat DDR4 clearly once GEs outrun DDR4 bandwidth.
    HaacProgram prog = wideAnds(8192);
    clearEsw(prog);
    HaacConfig ddr = testConfig(16);
    HaacConfig hbm = ddr;
    hbm.dram = DramKind::Hbm2;
    SimStats sd = simulate(prog, ddr, SimMode::Combined);
    SimStats sh = simulate(prog, hbm, SimMode::Combined);
    EXPECT_GT(double(sd.cycles) / double(sh.cycles), 2.0);

    // DDR4 time must be at least total bytes / bandwidth.
    const double min_cycles =
        double(sd.totalTrafficBytes()) / dramBytesPerCycle(ddr.dram);
    EXPECT_GE(double(sd.cycles), min_cycles * 0.95);
}

TEST(Engine, EswReducesTrafficAndTime)
{
    // A long program on a small SWW where most wires are spent.
    CircuitBuilder cb;
    Bits a = cb.garblerInputs(64);
    Bits b = cb.evaluatorInputs(64);
    Bits acc = a;
    for (int r = 0; r < 200; ++r)
        acc = addBits(cb, acc, b);
    cb.addOutputs(acc);
    HaacProgram base = assemble(cb.build());

    HaacConfig cfg = testConfig(4);
    HaacProgram with_esw = base;
    applyEsw(with_esw, cfg.swwWires());
    HaacProgram no_esw = base;
    clearEsw(no_esw);

    SimStats s_esw = simulate(with_esw, cfg, SimMode::Combined);
    SimStats s_all = simulate(no_esw, cfg, SimMode::Combined);
    EXPECT_LT(s_esw.liveWriteBytes, s_all.liveWriteBytes / 4);
    EXPECT_LE(s_esw.cycles, s_all.cycles);
}

TEST(Engine, StallCountersArePopulated)
{
    HaacProgram prog = andChain(64);
    SimStats s = simulate(prog, testConfig(2), SimMode::ComputeOnly);
    EXPECT_GT(s.stallOperand, 0u);
}

TEST(Engine, DeterministicAcrossRuns)
{
    HaacProgram prog = wideAnds(1024);
    HaacConfig cfg = testConfig(4);
    StreamSet set = buildStreams(prog, cfg);
    SimStats a = runSimulation(prog, cfg, set, SimMode::Combined);
    SimStats b = runSimulation(prog, cfg, set, SimMode::Combined);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.totalTrafficBytes(), b.totalTrafficBytes());
}

TEST(Engine, DramLatencyDelaysStartup)
{
    HaacProgram prog = wideAnds(256);
    HaacConfig fast = testConfig(4);
    fast.dramLatency = 10;
    HaacConfig slow = fast;
    slow.dramLatency = 500;
    SimStats sf = simulate(prog, fast, SimMode::Combined);
    SimStats ss = simulate(prog, slow, SimMode::Combined);
    // The 490-cycle latency gap shows up mostly as startup delay; some
    // of it overlaps with the drain, so require at least half of it.
    EXPECT_GE(ss.cycles, sf.cycles + 245);
}

TEST(Engine, PerGeStatsBalanceOnWideWork)
{
    HaacProgram prog = wideAnds(2048);
    HaacConfig cfg = testConfig(8);
    SimStats s = simulate(prog, cfg, SimMode::ComputeOnly);
    ASSERT_EQ(s.issuedPerGe.size(), 8u);
    uint64_t sum = 0;
    for (uint64_t v : s.issuedPerGe)
        sum += v;
    EXPECT_EQ(sum, s.instructions);
    // Independent ANDs spread nearly evenly across GEs.
    EXPECT_LT(s.loadImbalance(), 1.2);
    EXPECT_GT(s.geUtilization(), 0.5);
}

TEST(Engine, ChainsShowLowUtilization)
{
    HaacProgram prog = andChain(128);
    SimStats s = simulate(prog, testConfig(8), SimMode::ComputeOnly);
    // One dependent chain across 8 GEs: issue slots are mostly idle.
    EXPECT_LT(s.geUtilization(), 0.05);
}

TEST(Engine, SmallerQueuesStallMore)
{
    HaacProgram prog = wideAnds(4096);
    HaacConfig roomy = testConfig(8);
    roomy.queueSramBytes = 64 * 1024;
    HaacConfig tight = roomy;
    tight.queueSramBytes = 2 * 1024; // ~128 B per queue per GE
    SimStats sr = simulate(prog, roomy, SimMode::Combined);
    SimStats st = simulate(prog, tight, SimMode::Combined);
    // Tight queues cannot cover the DRAM latency, so prefetching
    // degrades and the run slows down. (Stall *attribution* shifts
    // between categories, so only the end-to-end time is monotone.)
    EXPECT_GE(st.cycles, sr.cycles);
}

TEST(Engine, EmptyProgramFinishesImmediately)
{
    HaacProgram prog;
    prog.numInputs = 2;
    HaacConfig cfg = testConfig(4);
    SimStats s = simulate(prog, cfg, SimMode::Combined);
    EXPECT_EQ(s.instructions, 0u);
    EXPECT_LT(s.cycles, uint64_t(cfg.dramLatency) + 16);
}

TEST(Engine, SingleInstructionLatency)
{
    CircuitBuilder cb;
    Wire a = cb.garblerInput();
    Wire b = cb.evaluatorInput();
    cb.addOutput(cb.andGate(a, b));
    HaacProgram prog = assemble(cb.build());
    HaacConfig cfg = testConfig(1);
    SimStats s = simulate(prog, cfg, SimMode::ComputeOnly);
    // frontend(5) + half-gate(18) + writeback(2).
    EXPECT_EQ(s.cycles,
              uint64_t(cfg.frontendDepth()) +
                  cfg.computeLatency(true) + cfg.writebackStages);
}

TEST(Engine, OutputsThatAreInputsAreLegal)
{
    CircuitBuilder cb;
    Wire a = cb.garblerInput();
    Wire b = cb.evaluatorInput();
    cb.addOutput(a);            // passthrough output
    cb.addOutput(cb.xorGate(a, b));
    HaacProgram prog = assemble(cb.build());
    EXPECT_EQ(prog.check(), "");
    SimStats s = simulate(prog, testConfig(2));
    EXPECT_EQ(s.instructions, prog.instrs.size());
}

TEST(Engine, WriteBufferBackpressureCounted)
{
    // Garbler writing tables through a tiny write buffer on DDR4.
    HaacProgram prog = wideAnds(4096);
    clearEsw(prog);
    HaacConfig cfg = testConfig(16);
    cfg.role = Role::Garbler;
    cfg.writeBufferBytes = 256;
    SimStats s = simulate(prog, cfg, SimMode::Combined);
    EXPECT_GT(s.stallWriteBuffer, 0u);

    HaacConfig roomy = cfg;
    roomy.writeBufferBytes = 1 << 20;
    SimStats s2 = simulate(prog, roomy, SimMode::Combined);
    EXPECT_LE(s2.stallWriteBuffer, s.stallWriteBuffer);
    EXPECT_LE(s2.cycles, s.cycles);
}

TEST(Engine, BankContentionAppearsWithFewBanks)
{
    // Scatter reads across the pool so concurrent GEs collide on the
    // same banks when few banks exist (wideAnds' strided accesses
    // would spread perfectly and show no contention).
    Prg prg(77);
    CircuitBuilder cb;
    Bits pool;
    for (Wire w : cb.garblerInputs(64))
        pool.push_back(w);
    for (Wire w : cb.evaluatorInputs(64))
        pool.push_back(w);
    for (int i = 0; i < 8192; ++i) {
        Wire a = pool[prg.nextRange(pool.size())];
        Wire b = pool[prg.nextRange(pool.size())];
        pool.push_back(cb.andGate(a, b));
    }
    cb.addOutput(pool.back());
    HaacProgram prog = assemble(cb.build());

    HaacConfig many = testConfig(8);
    many.banksPerGe = 4;
    HaacConfig few = many;
    few.banksPerGe = 1;
    SimStats sm = simulate(prog, many, SimMode::ComputeOnly);
    SimStats sf = simulate(prog, few, SimMode::ComputeOnly);
    EXPECT_GT(sf.stallBank, sm.stallBank);
}

TEST(Engine, DegenerateConfigIsRefusedNotDivided)
{
    const HaacProgram prog = wideAnds(8);
    HaacConfig cfg = testConfig();
    cfg.banksPerGe = 0;
    EXPECT_THROW(simulate(prog, cfg), SimConfigError);
    cfg = testConfig(0);
    EXPECT_THROW(simulate(prog, cfg), SimConfigError);
    cfg = testConfig();
    cfg.swwBytes = kLabelBytes; // one wire: no half-window to slide by
    EXPECT_THROW(simulate(prog, cfg), SimConfigError);
}

} // namespace
} // namespace haac
