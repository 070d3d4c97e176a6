#include "core/sim/engine.h"

#include <algorithm>
#include <cassert>
#include <deque>
#include <queue>
#include <string>

namespace haac {

namespace {

constexpr uint32_t kNever32 = ~uint32_t(0);

/** Inbound streaming queue fed by the shared DRAM (paper §3.1). */
struct StreamQueue
{
    uint32_t entryBytes = 1;   ///< on-chip occupancy per entry
    uint32_t grantBytes = 1;   ///< DRAM bytes per entry (addr + data)
    uint64_t totalEntries = 0;
    uint64_t granted = 0;
    uint64_t arrived = 0;
    uint64_t consumed = 0;
    uint64_t capacityEntries = 1;
    std::deque<std::pair<uint64_t, uint32_t>> inflight;

    uint64_t
    reserved() const
    {
        return (arrived - consumed) + (granted - arrived);
    }

    bool
    wantsGrant() const
    {
        return granted < totalEntries && reserved() < capacityEntries;
    }

    void
    drainArrivals(uint64_t now)
    {
        while (!inflight.empty() && inflight.front().first <= now) {
            arrived += inflight.front().second;
            inflight.pop_front();
        }
    }

    bool
    available(uint64_t now, uint64_t need = 1)
    {
        drainArrivals(now);
        return arrived - consumed >= need;
    }
};

/** Rolling reservation table for single-ported SWW banks (2 acc/cyc). */
class BankTracker
{
  public:
    static constexpr uint32_t kWindow = 64;

    BankTracker(uint32_t banks)
        : banks_(banks), count_(kWindow * banks, 0),
          stamp_(kWindow * banks, kNever32)
    {}

    bool
    tryAccess(uint64_t cycle, uint32_t bank)
    {
        uint8_t &c = slot(cycle, bank);
        if (c >= 2)
            return false;
        ++c;
        return true;
    }

    void
    forceAccess(uint64_t cycle, uint32_t bank)
    {
        uint8_t &c = slot(cycle, bank);
        if (c < 255)
            ++c;
    }

    /** Read-only count for @p cycle (0 if the slot was recycled). */
    uint8_t
    peek(uint64_t cycle, uint32_t bank) const
    {
        const size_t idx = size_t(cycle % kWindow) * banks_ + bank;
        return stamp_[idx] == uint32_t(cycle) ? count_[idx] : 0;
    }

    uint32_t banks() const { return banks_; }

  private:
    uint8_t &
    slot(uint64_t cycle, uint32_t bank)
    {
        const size_t idx = size_t(cycle % kWindow) * banks_ + bank;
        if (stamp_[idx] != uint32_t(cycle)) {
            stamp_[idx] = uint32_t(cycle);
            count_[idx] = 0;
        }
        return count_[idx];
    }

    uint32_t banks_;
    std::vector<uint8_t> count_;
    std::vector<uint32_t> stamp_;
};

struct GeRunState
{
    const GeStreams *streams = nullptr;
    size_t cursor = 0;
    size_t oorCursor = 0;
    StreamQueue instrQ;
    StreamQueue tableQ; ///< evaluator inbound only
    StreamQueue oorQ;
};

/**
 * The unified engine: one loop covering the compiler's scheduling pass
 * and all three timing modes.
 */
class Engine
{
  public:
    Engine(const HaacProgram &prog, const HaacConfig &cfg,
           const StreamSet *streams, SimMode mode, bool global_dispatch,
           const RemoteWireEnv *remote = nullptr,
           SimProbe *probe = nullptr)
        : prog_(prog), cfg_(cfg), streams_(streams), mode_(mode),
          remote_(remote), probe_(probe),
          globalDispatch_(global_dispatch),
          modelTraffic_(mode == SimMode::Combined ||
                        mode == SimMode::TrafficOnly),
          modelCompute_(mode == SimMode::Combined ||
                        mode == SimMode::ComputeOnly),
          banks_(cfg.totalBanks()),
          encBytes_(encodedInstrBytes(cfg.swwWires()))
    {
        // Queue splits, bank indices and window slides divide by these.
        if (cfg.numGes == 0 || cfg.banksPerGe == 0 || cfg.swwWires() < 2)
            throw SimConfigError(
                "simulator config needs at least one GE, one SWW bank "
                "per GE and two SWW wires (numGes " +
                std::to_string(cfg.numGes) + ", banksPerGe " +
                std::to_string(cfg.banksPerGe) + ", swwWires " +
                std::to_string(cfg.swwWires()) + ")");
    }

    SimStats run(StreamSet *record);

    /** Post-run: DRAM-ready cycle per export address (shard runs). */
    std::vector<uint64_t>
    exportTimes(const std::vector<uint32_t> &addrs) const
    {
        std::vector<uint64_t> out;
        out.reserve(addrs.size());
        for (uint32_t addr : addrs) {
            uint32_t t = wireDramReady_[addr];
            if (t == kNever32)
                t = wireReady_[addr]; // not live: forwardable cycle
            out.push_back(t == kNever32 ? stats_.cycles : t);
        }
        return out;
    }

  private:
    bool tryIssue(uint64_t t, uint32_t g, GeRunState &ge, uint32_t idx,
                  const HaacInstruction &local, uint64_t *hint);
    void dramStep(uint64_t t);
    void setupQueues();
    void finalizeTrafficStats();

    SimProbeView probeView(uint64_t t);

    const HaacProgram &prog_;
    const HaacConfig &cfg_;
    const StreamSet *streams_;
    SimMode mode_;
    const RemoteWireEnv *remote_;
    SimProbe *probe_;
    bool globalDispatch_;
    bool modelTraffic_;
    bool modelCompute_;

    BankTracker banks_;
    uint32_t encBytes_;
    SimStats stats_;

    std::vector<GeRunState> ges_;
    std::vector<uint32_t> wireReady_;     ///< forwardable cycle per addr
    std::vector<uint32_t> wireDramReady_; ///< cycle the label is in DRAM

    // Input preload stream (addresses [inputBase_, numInputs]).
    uint32_t inputBase_ = 1;
    StreamQueue inputLoad_;

    // Outbound (live wires, garbler tables): availability then drain.
    std::priority_queue<std::pair<uint64_t, uint32_t>,
                        std::vector<std::pair<uint64_t, uint32_t>>,
                        std::greater<>>
        writeEvents_;
    uint64_t writableBytes_ = 0;
    uint64_t scheduledWriteBytes_ = 0;
    uint64_t drainedWriteBytes_ = 0;

    double dramBudget_ = 0;
    size_t rrPtr_ = 0;
    uint64_t lastCompletion_ = 0;
    uint64_t lastDrainCycle_ = 0;
};

void
Engine::setupQueues()
{
    const uint32_t n = cfg_.numGes;
    ges_.resize(n);
    stats_.issuedPerGe.assign(n, 0);

    // Queue SRAM split per GE: 25% instructions, 50% tables, 25% OoRW.
    const size_t per_ge = cfg_.queueSramBytes / n;
    const auto entries = [](size_t bytes, uint32_t entry) {
        return std::max<uint64_t>(1, bytes / entry);
    };

    for (uint32_t g = 0; g < n; ++g) {
        GeRunState &ge = ges_[g];
        if (streams_)
            ge.streams = &streams_->ge[g];
        ge.instrQ.entryBytes = encBytes_;
        ge.instrQ.grantBytes = encBytes_;
        ge.instrQ.capacityEntries = entries(per_ge / 4, encBytes_);
        ge.tableQ.entryBytes = uint32_t(kTableBytes);
        ge.tableQ.grantBytes = uint32_t(kTableBytes);
        ge.tableQ.capacityEntries =
            entries(per_ge / 2, uint32_t(kTableBytes));
        // OoRW entries occupy a label on-chip but cost addr+data DRAM
        // bandwidth (32-bit streamed addresses, §3.1.4).
        ge.oorQ.entryBytes = uint32_t(kLabelBytes);
        ge.oorQ.grantBytes = uint32_t(kLabelBytes) + 4;
        ge.oorQ.capacityEntries =
            entries(per_ge / 4, uint32_t(kLabelBytes));
        if (ge.streams) {
            ge.instrQ.totalEntries = ge.streams->instrs.size();
            ge.tableQ.totalEntries =
                cfg_.role == Role::Evaluator ? ge.streams->tableCount : 0;
            ge.oorQ.totalEntries = ge.streams->oorAddrs.size();
        }
    }

    // Initial SWW residency: inputs at or above the first window base.
    inputBase_ = std::max<uint32_t>(
        1, windowBase(prog_.numInputs + 1, cfg_.swwWires()));
    const uint64_t resident =
        prog_.numInputs >= inputBase_
            ? prog_.numInputs - inputBase_ + 1
            : 0;
    inputLoad_.entryBytes = uint32_t(kLabelBytes);
    inputLoad_.grantBytes = uint32_t(kLabelBytes);
    inputLoad_.totalEntries = resident;
    inputLoad_.capacityEntries = ~uint64_t(0) >> 1; // SWW-backed

    // Instruction outputs are "not yet produced" until their issue
    // sets a real ready time; inputs are ready immediately (ideal
    // memory) or when their preload lands (modelled traffic).
    wireReady_.assign(prog_.numAddrs(), kNever32);
    for (uint32_t w = 0; w <= prog_.numInputs; ++w)
        wireReady_[w] = 0;
    wireDramReady_.assign(prog_.numAddrs(), kNever32);
    // Inputs live in DRAM from the start (host-provided labels).
    for (uint32_t w = 1; w <= prog_.numInputs; ++w)
        wireDramReady_[w] = 0;
    if (modelTraffic_) {
        // Resident inputs become usable when their preload lands.
        for (uint32_t w = inputBase_; w <= prog_.numInputs; ++w)
            wireReady_[w] = kNever32; // set on arrival
    }

    // Remote-produced wires (other shards of the same program) land in
    // the SWW and in DRAM at their announced ready cycles, so both
    // in-window reads and OoRW fetches can proceed.
    if (remote_) {
        for (size_t i = 0; i < remote_->addrs.size(); ++i) {
            const uint32_t when = uint32_t(std::min<uint64_t>(
                remote_->readyCycles[i], kNever32 - 1));
            wireReady_[remote_->addrs[i]] = when;
            wireDramReady_[remote_->addrs[i]] = when;
        }
    }
}

void
Engine::dramStep(uint64_t t)
{
    const double per_cycle =
        dramBytesPerCycle(cfg_.dram) * cfg_.dramBandwidthScale;
    // Budget accrual is capped at a few cycles of bandwidth, but never
    // below one full grant batch (64 B): a bandwidth-split shard core
    // must still be able to save up for a transfer, just more slowly.
    // Full-rate configs (DDR4 35.2 B/c and up) already exceed 64 B, so
    // their arbitration is unchanged.
    dramBudget_ = std::min(dramBudget_ + per_cycle,
                           std::max(4 * per_cycle, 64.0));

    while (!writeEvents_.empty() && writeEvents_.top().first <= t) {
        writableBytes_ += writeEvents_.top().second;
        writeEvents_.pop();
    }

    // Input preload: arrival order is ascending address.
    if (inputLoad_.wantsGrant()) {
        const uint64_t batch =
            std::min<uint64_t>(4, inputLoad_.totalEntries -
                                      inputLoad_.granted);
        const double bytes = double(batch) * inputLoad_.grantBytes;
        if (dramBudget_ >= bytes) {
            dramBudget_ -= bytes;
            const uint64_t arrival = t + cfg_.dramLatency;
            for (uint64_t i = 0; i < batch; ++i) {
                const uint32_t w =
                    inputBase_ + uint32_t(inputLoad_.granted + i);
                wireReady_[w] = uint32_t(arrival);
            }
            inputLoad_.granted += batch;
            inputLoad_.arrived += batch; // tracked via wireReady_
        }
    }

    // Round-robin over GE streams (instr, table, OoRW) plus writes.
    const size_t lanes = ges_.size() * 3 + 1;
    for (size_t step = 0; step < lanes; ++step) {
        const size_t lane = (rrPtr_ + step) % lanes;
        if (lane == lanes - 1) {
            // Outbound drain.
            const uint64_t chunk = std::min<uint64_t>(writableBytes_, 64);
            if (chunk > 0 && dramBudget_ >= double(chunk)) {
                dramBudget_ -= double(chunk);
                writableBytes_ -= chunk;
                drainedWriteBytes_ += chunk;
                lastDrainCycle_ = t;
            }
            continue;
        }
        GeRunState &ge = ges_[lane / 3];
        const size_t kind = lane % 3;
        StreamQueue &q = kind == 0 ? ge.instrQ
                        : kind == 1 ? ge.tableQ
                                    : ge.oorQ;
        if (!q.wantsGrant())
            continue;
        if (kind == 2) {
            // OoRW: one entry at a time; the label must be valid in
            // DRAM before the fetch succeeds (§3.1.4 valid bits).
            const uint32_t addr =
                ge.streams->oorAddrs[size_t(q.granted)];
            const uint32_t ready = wireDramReady_[addr];
            if (ready == kNever32)
                continue; // producer not drained yet; retry
            if (dramBudget_ < double(q.grantBytes))
                continue;
            dramBudget_ -= double(q.grantBytes);
            const uint64_t arrival =
                std::max<uint64_t>(t, ready) + cfg_.dramLatency;
            q.inflight.emplace_back(arrival, 1);
            ++q.granted;
        } else {
            uint64_t batch = std::max<uint64_t>(1, 64 / q.grantBytes);
            batch = std::min(batch, q.totalEntries - q.granted);
            batch = std::min(batch, q.capacityEntries - q.reserved());
            const double bytes = double(batch) * q.grantBytes;
            if (batch == 0 || dramBudget_ < bytes)
                continue;
            dramBudget_ -= bytes;
            q.inflight.emplace_back(t + cfg_.dramLatency,
                                    uint32_t(batch));
            q.granted += batch;
        }
    }
    rrPtr_ = (rrPtr_ + 1) % lanes;
}

bool
Engine::tryIssue(uint64_t t, uint32_t g, GeRunState &ge, uint32_t idx,
                 const HaacInstruction &local, uint64_t *hint)
{
    const HaacInstruction &ins = prog_.instrs[idx];
    const uint32_t out = prog_.outputAddrOf(idx);
    const bool is_and = ins.op == HaacOp::And;
    const bool is_not = ins.op == HaacOp::Not;

    // Stream availability.
    if (modelTraffic_) {
        if (!ge.instrQ.available(t)) {
            ++stats_.stallInstrQueue;
            return false;
        }
        if (is_and && cfg_.role == Role::Evaluator &&
            !ge.tableQ.available(t)) {
            ++stats_.stallTableQueue;
            return false;
        }
    }
    const uint32_t oor_need = (local.a == kOorAddr ? 1 : 0) +
                              (!is_not && local.b == kOorAddr ? 1 : 0);
    if (modelTraffic_ && oor_need > 0 &&
        !ge.oorQ.available(t, oor_need)) {
        ++stats_.stallOorwQueue;
        return false;
    }
    // Outbound backpressure: don't issue write-producing work into a
    // full write buffer.
    const bool writes_out =
        ins.live || (is_and && cfg_.role == Role::Garbler);
    if (modelTraffic_ && writes_out &&
        scheduledWriteBytes_ - drainedWriteBytes_ >=
            cfg_.writeBufferBytes) {
        ++stats_.stallWriteBuffer;
        return false;
    }

    // Operand readiness (forwarding network / SWW valid bits).
    if (modelCompute_) {
        const uint64_t deadline = t + cfg_.frontendDepth();
        uint64_t latest = 0;
        auto checkOperand = [&](uint32_t addr, bool is_oor) {
            // OoR operands are gated by their queue arrival (which in
            // turn waits for the producer's DRAM write). With ideal
            // memory there is no queue, so fall back to the direct
            // dependence check.
            if (is_oor && modelTraffic_)
                return;
            latest = std::max<uint64_t>(latest, wireReady_[addr]);
        };
        checkOperand(ins.a, local.a == kOorAddr);
        if (!is_not)
            checkOperand(ins.b, local.b == kOorAddr);
        if (latest > deadline) {
            ++stats_.stallOperand;
            if (hint && latest != kNever32)
                *hint = std::min<uint64_t>(
                    *hint, latest - cfg_.frontendDepth());
            return false;
        }

        // SWW bank ports for the in-window operand reads.
        auto readBank = [&](uint32_t addr) {
            return banks_.tryAccess(t, addr % cfg_.totalBanks());
        };
        if (local.a != kOorAddr && !readBank(ins.a)) {
            ++stats_.stallBank;
            return false;
        }
        if (!is_not && local.b != kOorAddr && ins.b != ins.a &&
            !readBank(ins.b)) {
            ++stats_.stallBank;
            return false;
        }
    }

    // ---- Issue. ----
    const uint32_t lat = modelCompute_ ? cfg_.computeLatency(is_and) : 0;
    const uint64_t frontend = modelCompute_ ? cfg_.frontendDepth() : 0;
    const uint64_t complete = t + frontend + lat;
    const uint64_t written = complete + (modelCompute_
                                             ? cfg_.writebackStages
                                             : 0);

    if (modelTraffic_) {
        ++ge.instrQ.consumed;
        if (is_and && cfg_.role == Role::Evaluator)
            ++ge.tableQ.consumed;
        ge.oorQ.consumed += oor_need;
        ge.oorCursor += oor_need;
    }

    wireReady_[out] =
        uint32_t(cfg_.forwarding ? complete : written);
    banks_.forceAccess(written, out % cfg_.totalBanks());
    ++stats_.swwWrites;
    stats_.swwReads += (is_not ? 1 : 2) - oor_need;
    if (modelCompute_ && cfg_.forwarding) {
        // Count consumers that beat the SWW write as forward hits.
        // (Approximation: producers finishing within the writeback
        // window of this issue.)
        if (wireReady_[ins.a] + cfg_.writebackStages > t + frontend)
            ++stats_.forwardHits;
    }

    if (ins.live) {
        writeEvents_.emplace(written, uint32_t(kLabelBytes));
        scheduledWriteBytes_ += kLabelBytes;
        wireDramReady_[out] = uint32_t(written);
        ++stats_.liveWires;
    }
    if (is_and && cfg_.role == Role::Garbler) {
        writeEvents_.emplace(written, uint32_t(kTableBytes));
        scheduledWriteBytes_ += kTableBytes;
    }

    switch (ins.op) {
      case HaacOp::And:
        ++stats_.andOps;
        break;
      case HaacOp::Xor:
        ++stats_.xorOps;
        break;
      case HaacOp::Not:
        ++stats_.notOps;
        break;
      case HaacOp::Nop:
        break;
    }
    ++stats_.instructions;
    ++stats_.issuedPerGe[g];
    stats_.oorReads += oor_need;
    lastCompletion_ = std::max(lastCompletion_, written);
    return true;
}

void
Engine::finalizeTrafficStats()
{
    // Analytic totals so accounting is identical across modes. With
    // streams the totals come from the streams themselves, so a shard
    // run counts only its own instructions — instruction, table, OoRW
    // and live-write totals sum to the whole program across shards.
    // Input preload is the exception: every shard core fills its own
    // SWW with the resident input window, so that term is per-core by
    // design (input replication is a real cost of the multi-core
    // split). Without streams (the compiler's scheduling pass) the
    // program is the universe.
    if (streams_) {
        uint64_t instrs = 0, tables = 0, oor = 0, live = 0;
        for (const GeStreams &ge : streams_->ge) {
            instrs += ge.instrs.size();
            tables += ge.tableCount;
            oor += ge.oorAddrs.size();
            for (uint32_t idx : ge.instrIdx)
                live += prog_.instrs[idx].live ? 1 : 0;
        }
        stats_.instrBytes = instrs * encBytes_;
        stats_.tableBytes = tables * kTableBytes;
        stats_.oorAddrBytes = oor * 4;
        stats_.oorDataBytes = oor * kLabelBytes;
        stats_.liveWriteBytes = live * kLabelBytes;
    } else {
        stats_.instrBytes = uint64_t(prog_.instrs.size()) * encBytes_;
        stats_.tableBytes = uint64_t(prog_.numAnd()) * kTableBytes;
        uint64_t live = 0;
        for (const HaacInstruction &ins : prog_.instrs)
            live += ins.live ? 1 : 0;
        stats_.liveWriteBytes = live * kLabelBytes;
    }
    stats_.inputLoadBytes = inputLoad_.totalEntries * kLabelBytes;
}

SimProbeView
Engine::probeView(uint64_t t)
{
    SimProbeView view;
    view.cycle = t;
    view.ges.resize(ges_.size());
    for (size_t g = 0; g < ges_.size(); ++g) {
        GeRunState &ge = ges_[g];
        GeQueueView &v = view.ges[g];
        auto fill = [&](StreamQueue &q, uint64_t &ready, uint64_t &cap,
                        uint64_t &consumed, uint64_t &total) {
            q.drainArrivals(t);
            ready = q.arrived - q.consumed;
            cap = q.capacityEntries;
            consumed = q.consumed;
            total = q.totalEntries;
        };
        fill(ge.instrQ, v.instrReady, v.instrCapacity, v.instrConsumed,
             v.instrTotal);
        fill(ge.tableQ, v.tableReady, v.tableCapacity, v.tableConsumed,
             v.tableTotal);
        fill(ge.oorQ, v.oorReady, v.oorCapacity, v.oorConsumed,
             v.oorTotal);
        if (ge.streams) {
            v.streamPos = ge.cursor;
            v.streamLen = ge.streams->instrs.size();
            if (ge.cursor < ge.streams->instrIdx.size())
                v.nextInstr = ge.streams->instrIdx[ge.cursor];
        }
    }
    view.bankAccesses.resize(banks_.banks());
    for (uint32_t b = 0; b < banks_.banks(); ++b)
        view.bankAccesses[b] = banks_.peek(t, b);
    view.pendingWriteBytes = scheduledWriteBytes_ - drainedWriteBytes_;
    view.stats = &stats_;
    return view;
}

SimStats
Engine::run(StreamSet *record)
{
    setupQueues();

    if (record) {
        record->ge.assign(cfg_.numGes, GeStreams{});
        record->geOf.assign(prog_.instrs.size(), 0);
        record->issueOrder.clear();
        record->issueOrder.reserve(prog_.instrs.size());
    }

    uint64_t t = 0;
    uint64_t issued_total = 0;
    // In replay mode the streams are the universe (a shard run carries
    // a subset of the program); the scheduling pass covers everything.
    uint64_t total = prog_.instrs.size();
    if (!globalDispatch_ && streams_) {
        total = 0;
        for (const GeStreams &ge : streams_->ge)
            total += ge.instrs.size();
    }

    if (globalDispatch_) {
        // Compiler scheduling pass: one global in-order cursor; every
        // cycle, hand the next ready instructions to non-stalled GEs.
        uint32_t head = 0;
        uint32_t rr = 0;
        while (head < total) {
            uint64_t hint = ~uint64_t(0);
            bool any = false;
            for (uint32_t i = 0; i < cfg_.numGes && head < total; ++i) {
                const uint32_t g = (rr + i) % cfg_.numGes;
                HaacInstruction local = prog_.instrs[head];
                if (!tryIssue(t, g, ges_[g], head, local, &hint))
                    break; // strict in-order dispatch
                if (record) {
                    record->geOf[head] = uint8_t(g);
                    record->ge[g].instrIdx.push_back(head);
                    record->issueOrder.push_back(head);
                }
                ++head;
                any = true;
            }
            rr = (rr + 1) % cfg_.numGes;
            if (any || hint == ~uint64_t(0)) {
                ++t;
            } else {
                t = std::max(t + 1, hint);
            }
        }
        issued_total = total;
    } else {
        assert(streams_ && "replay mode requires streams");
        while (issued_total < total ||
               (modelTraffic_ &&
                (writableBytes_ > 0 || !writeEvents_.empty()))) {
            if (modelTraffic_)
                dramStep(t);
            uint64_t hint = ~uint64_t(0);
            bool any = false;
            for (uint32_t g = 0; g < cfg_.numGes; ++g) {
                GeRunState &ge = ges_[g];
                if (!ge.streams || ge.cursor >= ge.streams->instrs.size())
                    continue;
                const uint32_t idx = ge.streams->instrIdx[ge.cursor];
                const HaacInstruction &local =
                    ge.streams->instrs[ge.cursor];
                if (tryIssue(t, g, ge, idx, local, &hint)) {
                    ++ge.cursor;
                    ++issued_total;
                    any = true;
                    if (probe_) {
                        probe_->onIssue(t, g, idx, prog_.instrs[idx],
                                        prog_.outputAddrOf(idx));
                    }
                }
            }
            if (probe_) {
                const SimProbeView view = probeView(t);
                if (!probe_->onCycle(view))
                    break; // aborted: return stats so far
            }
            if (!modelTraffic_ && !any && hint != ~uint64_t(0)) {
                t = std::max(t + 1, hint);
            } else {
                ++t;
            }
            // Writes became drainable only after completion: make sure
            // time advances far enough to drain them.
            if (issued_total == total && modelTraffic_ &&
                writableBytes_ == 0 && !writeEvents_.empty()) {
                t = std::max(t, uint64_t(writeEvents_.top().first));
            }
        }
    }

    finalizeTrafficStats();
    stats_.cycles = std::max({t, lastCompletion_, lastDrainCycle_});
    return stats_;
}

} // namespace

void
SimProbe::onIssue(uint64_t, uint32_t, uint32_t,
                  const HaacInstruction &, uint32_t)
{}

bool
SimProbe::onCycle(const SimProbeView &)
{
    return true;
}

StreamSet
recordSchedule(const HaacProgram &prog, const HaacConfig &cfg)
{
    StreamSet set;
    Engine engine(prog, cfg, nullptr, SimMode::ComputeOnly,
                  /*global_dispatch=*/true);
    engine.run(&set);

    // Derive per-GE local instruction copies and OoRW streams.
    const uint32_t sww = cfg.swwWires();
    for (uint32_t g = 0; g < cfg.numGes; ++g) {
        GeStreams &ge = set.ge[g];
        ge.instrs.reserve(ge.instrIdx.size());
        for (uint32_t idx : ge.instrIdx) {
            HaacInstruction local = prog.instrs[idx];
            const uint32_t base =
                windowBase(prog.outputAddrOf(idx), sww);
            if (local.a < base) {
                ge.oorAddrs.push_back(local.a);
                local.a = kOorAddr;
            }
            if (local.op != HaacOp::Not && local.b < base) {
                ge.oorAddrs.push_back(local.b);
                local.b = kOorAddr;
            }
            if (local.op == HaacOp::And)
                ++ge.tableCount;
            ge.instrs.push_back(local);
        }
        set.totalOor += ge.oorAddrs.size();
    }
    return set;
}

SimStats
runSimulation(const HaacProgram &prog, const HaacConfig &cfg,
              const StreamSet &streams, SimMode mode, SimProbe *probe)
{
    Engine engine(prog, cfg, &streams, mode, /*global_dispatch=*/false,
                  nullptr, probe);
    return engine.run(nullptr);
}

ShardSimResult
runShardSimulation(const HaacProgram &prog, const HaacConfig &cfg,
                   const StreamSet &shard, SimMode mode,
                   const RemoteWireEnv &imports,
                   const std::vector<uint32_t> &exports)
{
    Engine engine(prog, cfg, &shard, mode, /*global_dispatch=*/false,
                  &imports);
    ShardSimResult result;
    result.stats = engine.run(nullptr);
    result.exportReady = engine.exportTimes(exports);
    return result;
}

SimStats
simulate(const HaacProgram &prog, const HaacConfig &cfg, SimMode mode)
{
    StreamSet streams = recordSchedule(prog, cfg);
    return runSimulation(prog, cfg, streams, mode);
}

} // namespace haac
