/**
 * @file
 * Cycle-engine tests: latency floors, ILP scaling, DRAM-bound behavior,
 * traffic accounting identities, role asymmetry, forwarding ablation,
 * and mode isolation (compute vs traffic).
 */
#include <gtest/gtest.h>

#include <initializer_list>

#include "circuit/builder.h"
#include "circuit/stdlib.h"
#include "core/compiler/passes.h"
#include "core/sim/engine.h"
#include "crypto/prg.h"
#include "shard/partition.h"

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
    // StreamSet::geOf holds a GE index in 8 bits.
    EXPECT_NO_THROW(simulate(prog, testConfig(kMaxGes)));
    EXPECT_THROW(simulate(prog, testConfig(kMaxGes + 1)), SimConfigError);
    EXPECT_THROW(recordSchedule(prog, testConfig(300)), SimConfigError);
    // Issue to writeback must fit the 64-cycle SWW bank table.
    cfg = testConfig();
    cfg.role = Role::Garbler;
    cfg.garblerHalfGateStages = 100;
    EXPECT_THROW(simulate(prog, cfg), SimConfigError);
    cfg.garblerHalfGateStages = 64 - cfg.frontendDepth() -
                                cfg.writebackStages - 1;
    EXPECT_NO_THROW(simulate(prog, cfg));
    cfg.garblerHalfGateStages += 1;
    EXPECT_THROW(simulate(prog, cfg), SimConfigError);
    cfg = testConfig();
    cfg.fetchDecodeStages = ~uint32_t(0); // a sum that would wrap
    EXPECT_THROW(simulate(prog, cfg), SimConfigError);
    // numGes * banksPerGe sizes the bank table: 2 * 2^31 would wrap to
    // no banks at all.
    cfg = testConfig(2);
    cfg.banksPerGe = 1u << 31;
    EXPECT_THROW(simulate(prog, cfg), SimConfigError);
    cfg = testConfig(kMaxGes);
    cfg.banksPerGe = 1u << 24;
    EXPECT_THROW(simulate(prog, cfg), SimConfigError);
    cfg.banksPerGe = kMaxBanksPerGe + 1;
    EXPECT_THROW(simulate(prog, cfg), SimConfigError);
    cfg = testConfig(2);
    cfg.banksPerGe = kMaxBanksPerGe;
    EXPECT_NO_THROW(simulate(prog, cfg));
    // A writing instruction never finds room in no write buffer.
    cfg = testConfig();
    cfg.writeBufferBytes = 0;
    EXPECT_THROW(simulate(prog, cfg), SimConfigError);
}

// ---- Pinned known-answer digests ------------------------------------
//
// The engine skips work that cannot change state (sleeping GEs, live
// DRAM lanes). These digests pin every SimStats field, the recorded
// schedule and the probe's per-cycle view to the values of retrying
// every GE and polling every DRAM lane on every cycle.

/** 64-bit FNV-1a over little-endian words. */
struct Digest
{
    uint64_t h = 0xcbf29ce484222325ull;

    void
    add(uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xff;
            h *= 0x100000001b3ull;
        }
    }

    template <typename Seq>
    void
    addAll(const Seq &seq)
    {
        add(seq.size());
        for (const auto &v : seq)
            add(uint64_t(v));
    }
};

/** Fold the 22 scalar counters (declaration order) and issuedPerGe. */
void
foldStats(Digest &d, const SimStats &s)
{
    for (uint64_t v :
         {s.cycles, s.instructions, s.andOps, s.xorOps, s.notOps,
          s.instrBytes, s.tableBytes, s.oorAddrBytes, s.oorDataBytes,
          s.liveWriteBytes, s.inputLoadBytes, s.liveWires, s.oorReads,
          s.stallOperand, s.stallInstrQueue, s.stallTableQueue,
          s.stallOorwQueue, s.stallBank, s.stallWriteBuffer, s.swwReads,
          s.swwWrites, s.forwardHits})
        d.add(v);
    d.addAll(s.issuedPerGe);
}

void
foldStreams(Digest &d, const StreamSet &set)
{
    d.addAll(set.issueOrder);
    d.addAll(set.geOf);
    d.add(set.ge.size());
    for (const GeStreams &ge : set.ge)
        d.addAll(ge.oorAddrs);
}

/** Random AND/XOR/NOT DAG reading mostly recent wires, some far back. */
HaacProgram
randomMix(uint32_t gates, uint64_t seed)
{
    Prg prg(seed);
    CircuitBuilder cb;
    Bits pool = cb.garblerInputs(32);
    for (Wire w : cb.evaluatorInputs(32))
        pool.push_back(w);
    auto pick = [&]() {
        const size_t span = prg.nextRange(8) == 0 ? pool.size()
                                                  : std::min<size_t>(
                                                        pool.size(), 48);
        return pool[pool.size() - 1 - prg.nextRange(span)];
    };
    for (uint32_t i = 0; i < gates; ++i) {
        const uint64_t op = prg.nextRange(20);
        Wire w;
        if (op < 8)
            w = cb.andGate(pick(), pick());
        else if (op < 17)
            w = cb.xorGate(pick(), pick());
        else
            w = cb.notGate(pick());
        pool.push_back(w);
        if (i % 97 == 0)
            cb.addOutput(w);
    }
    cb.addOutput(pool.back());
    return assemble(cb.build());
}

/** Dependent ripple-carry rounds: long chains, little ILP. */
HaacProgram
adderRounds(uint32_t width, uint32_t rounds)
{
    CircuitBuilder cb;
    Bits a = cb.garblerInputs(width);
    Bits b = cb.evaluatorInputs(width);
    Bits acc = a;
    for (uint32_t r = 0; r < rounds; ++r)
        acc = addBits(cb, acc, b);
    cb.addOutputs(acc);
    return assemble(cb.build());
}

/** Compile @p base for @p cfg's window (reorder + ESW). */
HaacProgram
compiledFor(const HaacProgram &base, const HaacConfig &cfg)
{
    CompileOptions opts;
    opts.swwWires = cfg.swwWires();
    return compileProgram(base, opts);
}

struct KatCase
{
    const char *name;
    HaacConfig cfg;
};

std::vector<KatCase>
katCases()
{
    std::vector<KatCase> out;
    out.push_back({"evaluator", testConfig(4)});
    HaacConfig gb = testConfig(4);
    gb.role = Role::Garbler;
    out.push_back({"garbler", gb});
    HaacConfig nofwd = testConfig(4);
    nofwd.forwarding = false;
    out.push_back({"no_forwarding", nofwd});
    HaacConfig hbm = testConfig(8);
    hbm.dram = DramKind::Hbm2;
    hbm.banksPerGe = 1;
    hbm.dramLatency = 4; // shorter than the 5-stage frontend
    out.push_back({"hbm2_one_bank", hbm});
    HaacConfig small_sww = testConfig(4);
    small_sww.swwBytes = size_t(256) * kLabelBytes;
    out.push_back({"small_sww", small_sww});
    HaacConfig tight = testConfig(8);
    tight.role = Role::Garbler;
    tight.queueSramBytes = 2 * 1024;
    tight.writeBufferBytes = 256;
    tight.swwBytes = size_t(512) * kLabelBytes;
    out.push_back({"tight_queues", tight});
    // 24 GEs: 73 DRAM lanes, more than one 64-bit word of lane bits.
    out.push_back({"ges24", testConfig(24)});
    return out;
}

TEST(SimKat, StatsArePinned)
{
    const HaacProgram bases[] = {randomMix(4000, 11),
                                 adderRounds(16, 12)};
    Digest d;
    SimStats seen; // per-counter maximum over every case
    auto note = [&](const SimStats &s) {
        foldStats(d, s);
        seen.stallOperand = std::max(seen.stallOperand, s.stallOperand);
        seen.stallInstrQueue =
            std::max(seen.stallInstrQueue, s.stallInstrQueue);
        seen.stallTableQueue =
            std::max(seen.stallTableQueue, s.stallTableQueue);
        seen.stallOorwQueue =
            std::max(seen.stallOorwQueue, s.stallOorwQueue);
        seen.stallBank = std::max(seen.stallBank, s.stallBank);
        seen.stallWriteBuffer =
            std::max(seen.stallWriteBuffer, s.stallWriteBuffer);
    };
    for (const KatCase &kc : katCases()) {
        for (const HaacProgram &base : bases) {
            const HaacProgram prog = compiledFor(base, kc.cfg);
            const StreamSet set = recordSchedule(prog, kc.cfg);
            foldStreams(d, set);
            for (SimMode mode : {SimMode::Combined, SimMode::ComputeOnly,
                                 SimMode::TrafficOnly})
                note(runSimulation(prog, kc.cfg, set, mode));
        }
    }

    // One shard of a two-way split, with remote imports and exports.
    {
        const HaacConfig cfg = testConfig(4);
        HaacProgram prog = compiledFor(bases[0], cfg);
        const StreamSet set = recordSchedule(prog, cfg);
        const shard::ShardPlan plan =
            shard::partitionStreams(prog, set, 2);
        shard::markCrossShardLive(prog, plan);
        const shard::ShardPart &part = plan.parts.at(0);
        ASSERT_FALSE(part.imports.empty());
        ASSERT_FALSE(part.exports.empty());
        RemoteWireEnv env;
        env.addrs = part.imports;
        for (size_t i = 0; i < env.addrs.size(); ++i)
            env.readyCycles.push_back(40 + 13 * i);
        HaacConfig shard_cfg = cfg;
        shard_cfg.numGes = uint32_t(part.streams.ge.size());
        const ShardSimResult r =
            runShardSimulation(prog, shard_cfg, part.streams,
                               SimMode::Combined, env, part.exports);
        note(r.stats);
        d.addAll(r.exportReady);
    }

    // Every stall counter is exercised somewhere.
    EXPECT_GT(seen.stallOperand, 0u);
    EXPECT_GT(seen.stallInstrQueue, 0u);
    EXPECT_GT(seen.stallTableQueue, 0u);
    EXPECT_GT(seen.stallOorwQueue, 0u);
    EXPECT_GT(seen.stallBank, 0u);
    EXPECT_GT(seen.stallWriteBuffer, 0u);
    EXPECT_EQ(d.h, 0x751d73e3d84149b8ull) << std::hex << d.h;
}

/** Hashes every onIssue and every onCycle view the engine exposes. */
class RecordingProbe : public SimProbe
{
  public:
    explicit RecordingProbe(uint64_t stop_at = ~uint64_t(0))
        : stopAt_(stop_at)
    {}

    void
    onIssue(uint64_t cycle, uint32_t ge, uint32_t idx,
            const HaacInstruction &ins, uint32_t out) override
    {
        for (uint64_t v : {cycle, uint64_t(ge), uint64_t(idx),
                           uint64_t(ins.op), uint64_t(out)})
            d.add(v);
        ++issues;
    }

    bool
    onCycle(const SimProbeView &view) override
    {
        d.add(view.cycle);
        for (const GeQueueView &g : view.ges) {
            for (uint64_t v :
                 {g.instrReady, g.instrCapacity, g.instrConsumed,
                  g.instrTotal, g.tableReady, g.tableCapacity,
                  g.tableConsumed, g.tableTotal, g.oorReady,
                  g.oorCapacity, g.oorConsumed, g.oorTotal, g.streamPos,
                  g.streamLen, uint64_t(g.nextInstr)})
                d.add(v);
        }
        d.addAll(view.bankAccesses);
        d.add(view.pendingWriteBytes);
        foldStats(d, *view.stats);
        ++cycles;
        return view.cycle < stopAt_;
    }

    Digest d;
    uint64_t issues = 0;
    uint64_t cycles = 0;

  private:
    uint64_t stopAt_;
};

TEST(SimKat, ProbeViewsArePinned)
{
    const HaacProgram base = randomMix(600, 5);
    Digest d;
    std::vector<KatCase> cases = katCases();
    cases.resize(3); // evaluator, garbler, no forwarding
    HaacConfig small_sww = testConfig(4);
    small_sww.swwBytes = size_t(256) * kLabelBytes;
    cases.push_back({"small_sww", small_sww});
    for (const KatCase &kc : cases) {
        const HaacProgram prog = compiledFor(base, kc.cfg);
        const StreamSet set = recordSchedule(prog, kc.cfg);
        for (SimMode mode : {SimMode::Combined, SimMode::ComputeOnly,
                             SimMode::TrafficOnly}) {
            RecordingProbe probe;
            const SimStats s =
                runSimulation(prog, kc.cfg, set, mode, &probe);
            EXPECT_EQ(probe.issues, s.instructions) << kc.name;
            foldStats(d, s);
            d.add(probe.d.h);
            d.add(probe.cycles);
        }
        // A probe that stops the run early gets the stats so far.
        RecordingProbe stopper(300);
        const SimStats partial =
            runSimulation(prog, kc.cfg, set, SimMode::Combined, &stopper);
        EXPECT_LT(partial.instructions, prog.instrs.size()) << kc.name;
        foldStats(d, partial);
        d.add(stopper.d.h);
    }
    EXPECT_EQ(d.h, 0x6352bb17c0e7c2e5ull) << std::hex << d.h;
}

} // namespace
} // namespace haac
