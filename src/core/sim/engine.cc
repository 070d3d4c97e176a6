#include "core/sim/engine.h"

#include <algorithm>
#include <cassert>
#include <deque>
#include <queue>
#include <string>

namespace haac {

namespace {

constexpr uint32_t kNever32 = ~uint32_t(0);
constexpr uint64_t kNever64 = ~uint64_t(0);

// What a GE asleep until further notice waits on: the address of a
// wire whose producer has not issued, or one of these.
constexpr uint32_t kWaitNothing = kNever32;   ///< not asleep on an event
constexpr uint32_t kWaitDrain = kNever32 - 1; ///< a write-buffer drain

/** DRAM grants are made in batches of at most this many bytes. */
constexpr uint32_t kGrantBatchBytes = 64;

// Outbound writes are whole labels and tables, drained in 64-byte
// chunks, so a non-empty write buffer always holds a label's worth.
static_assert(kTableBytes % kLabelBytes == 0 &&
              kGrantBatchBytes % kLabelBytes == 0);

/** A bit per lane or GE, of any width; next() finds set bits in order. */
class BitSet
{
  public:
    void assign(size_t bits) { words_.assign((bits + 63) / 64, 0); }

    void
    set(size_t i, bool on)
    {
        const uint64_t bit = uint64_t(1) << (i & 63);
        if (on)
            words_[i >> 6] |= bit;
        else
            words_[i >> 6] &= ~bit;
    }

    /**
     * First bit at or after @p from that is set here and not in
     * @p skip (SIZE_MAX: none).
     */
    size_t
    next(size_t from, const BitSet *skip = nullptr) const
    {
        size_t w = from >> 6;
        if (w >= words_.size())
            return SIZE_MAX;
        const auto at = [&](size_t i) {
            return skip ? words_[i] & ~skip->words_[i] : words_[i];
        };
        uint64_t bits = at(w) & (~uint64_t(0) << (from & 63));
        while (bits == 0) {
            if (++w == words_.size())
                return SIZE_MAX;
            bits = at(w);
        }
        return (w << 6) + size_t(__builtin_ctzll(bits));
    }

  private:
    std::vector<uint64_t> words_;
};

/** Inbound streaming queue fed by the shared DRAM (paper §3.1). */
struct StreamQueue
{
    uint32_t grantBytes = 1;   ///< DRAM bytes per entry (addr + data)
    uint64_t batchEntries = 1; ///< entries per full grant batch
    uint64_t totalEntries = 0;
    uint64_t granted = 0;
    uint64_t arrived = 0;
    uint64_t consumed = 0;
    uint64_t capacityEntries = 1;
    std::deque<std::pair<uint64_t, uint32_t>> inflight;

    /** Entries granted and not yet consumed (landed or in flight). */
    uint64_t reserved() const { return granted - consumed; }

    /** Changes only on a grant or a consume (arrivals do not move it). */
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

    /** Entries the next grant takes (wantsGrant() holds). */
    uint64_t
    nextBatch() const
    {
        return std::min({batchEntries, totalEntries - granted,
                         capacityEntries - reserved()});
    }

    bool
    available(uint64_t now, uint64_t need = 1)
    {
        drainArrivals(now);
        return arrived - consumed >= need;
    }

    /**
     * First cycle after @p now at which an entry can land, given the
     * arrivals up to @p now are drained: grants land in FIFO order, and
     * a grant made from the next DRAM step on lands @p latency later.
     */
    uint64_t
    nextArrival(uint64_t now, uint32_t latency) const
    {
        return inflight.empty() ? now + 1 + latency
                                : inflight.front().first;
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

/** Why an issue attempt failed: one SimStats stall counter each. */
enum class Stall : uint8_t
{
    Operand,
    InstrQueue,
    TableQueue,
    OorwQueue,
    Bank,
    WriteBuffer,
};
constexpr size_t kStallKinds = 6;

struct GeRunState
{
    const GeStreams *streams = nullptr;
    size_t cursor = 0;
    StreamQueue instrQ;
    StreamQueue tableQ; ///< evaluator inbound only
    StreamQueue oorQ;

    /**
     * The stall that failed the last issue attempt, and the first cycle
     * it may not hold on: t + 1 if unknown, kNever64 until the event in
     * Engine::waitOn_. Until then the GE sleeps (see Engine::run).
     */
    Stall stall = Stall::Operand;
    uint64_t wake = 0;
};

/**
 * Refuse a config the engine cannot run: before any table is sized
 * from it, since the sharded runtime decodes configs off the wire.
 */
const HaacConfig &
checkedConfig(const HaacConfig &cfg)
{
    // Queue splits, bank indices and window slides divide by these;
    // StreamSet::geOf holds a GE index in 8 bits; the bank table is
    // sized by numGes * banksPerGe.
    if (cfg.numGes == 0 || cfg.numGes > kMaxGes || cfg.banksPerGe == 0 ||
        cfg.banksPerGe > kMaxBanksPerGe || cfg.swwWires() < 2)
        throw SimConfigError(
            "simulator config needs 1 to " + std::to_string(kMaxGes) +
            " GEs, 1 to " + std::to_string(kMaxBanksPerGe) +
            " SWW banks per GE and two SWW wires (numGes " +
            std::to_string(cfg.numGes) + ", banksPerGe " +
            std::to_string(cfg.banksPerGe) + ", swwWires " +
            std::to_string(cfg.swwWires()) + ")");
    // A writing instruction issues only while the write buffer has
    // room; with none it never would.
    if (cfg.writeBufferBytes == 0)
        throw SimConfigError("simulator config needs a write buffer");
    // An issue reserves its output's bank at writeback; the bank table
    // only holds BankTracker::kWindow cycles.
    const uint64_t span =
        uint64_t(cfg.fetchDecodeStages) + cfg.swwReadStages +
        std::max(cfg.computeLatency(true), cfg.computeLatency(false)) +
        cfg.writebackStages;
    if (span >= BankTracker::kWindow)
        throw SimConfigError(
            "simulator config: issue to writeback takes " +
            std::to_string(span) + " cycles, the SWW bank table holds " +
            std::to_string(BankTracker::kWindow));
    return cfg;
}

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
        : prog_(prog), cfg_(checkedConfig(cfg)), streams_(streams),
          mode_(mode), remote_(remote), probe_(probe),
          globalDispatch_(global_dispatch),
          modelTraffic_(mode == SimMode::Combined ||
                        mode == SimMode::TrafficOnly),
          modelCompute_(mode == SimMode::Combined ||
                        mode == SimMode::ComputeOnly),
          banks_(cfg.totalBanks()),
          bankMask_(banks_.banks() & (banks_.banks() - 1)
                        ? 0
                        : banks_.banks() - 1),
          encBytes_(encodedInstrBytes(cfg.swwWires())),
          perCycle_(dramBytesPerCycle(cfg.dram) * cfg.dramBandwidthScale),
          // Budget accrual is capped at a few cycles of bandwidth, but
          // never below one full grant batch: a bandwidth-split shard
          // core must still be able to save up for a transfer, just
          // more slowly. Full-rate configs (DDR4 35.2 B/c and up)
          // already exceed 64 B, so their arbitration is unchanged.
          budgetCap_(std::max(4 * perCycle_, double(kGrantBatchBytes))),
          // The smallest grant any lane can make: one instruction, or
          // one label (an OoRW entry, a table and a drain chunk are at
          // least that).
          minGrantBytes_(double(
              std::min<uint32_t>(encBytes_, uint32_t(kLabelBytes))))
    {}

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
    void setReady(uint32_t addr, uint64_t cycle);
    void wake(uint32_t event);
    void sleep(uint32_t g);
    void wakeUp(uint32_t g);
    void dramStep(uint64_t t);
    void grantLane(size_t lane, uint64_t t);
    void setupQueues();
    void finalizeTrafficStats();

    uint32_t
    bankOf(uint32_t addr) const
    {
        return bankMask_ ? addr & bankMask_ : addr % banks_.banks();
    }

    /** @name DRAM lanes: 3 per GE (instr, table, OoRW) + the drain */
    /// @{
    StreamQueue &
    laneQueue(size_t lane)
    {
        GeRunState &ge = ges_[lane / 3];
        const size_t kind = lane - 3 * (lane / 3);
        return kind == 0 ? ge.instrQ : kind == 1 ? ge.tableQ : ge.oorQ;
    }
    void refreshLane(size_t lane);
    /// @}

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
    uint32_t bankMask_; ///< banks - 1 for a power-of-two count, else 0
    uint32_t encBytes_;
    SimStats stats_;

    std::vector<GeRunState> ges_;
    std::vector<uint32_t> wireReady_;     ///< forwardable cycle per addr
    std::vector<uint32_t> wireDramReady_; ///< cycle the label is in DRAM

    /** @name Sleeping GEs (replay only; see run()) */
    /// @{
    BitSet awake_; ///< GEs with work left that are not asleep
    /** Sleepers with a known wake cycle: (wake, GE), earliest first. */
    std::priority_queue<std::pair<uint64_t, uint32_t>,
                        std::vector<std::pair<uint64_t, uint32_t>>,
                        std::greater<>>
        alarms_;
    uint64_t asleep_[kStallKinds] = {}; ///< sleepers per stall
    /** Per GE, the event it sleeps on (kWaitNothing: none). */
    std::vector<uint32_t> waitOn_;
    uint32_t waiting_ = 0; ///< GEs with an event in waitOn_
    /** The GE whose issue attempt runs now (kNever32: none). */
    uint32_t turn_ = kNever32;
    uint64_t *const stallCounter_[kStallKinds] = {
        &stats_.stallOperand,   &stats_.stallInstrQueue,
        &stats_.stallTableQueue, &stats_.stallOorwQueue,
        &stats_.stallBank,      &stats_.stallWriteBuffer};
    /// @}

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

    const double perCycle_;
    const double budgetCap_;
    const double minGrantBytes_;
    double dramBudget_ = 0;
    BitSet live_;              ///< lanes that want a grant
    BitSet full_;              ///< live lanes wanting a full batch
    std::vector<double> need_; ///< bytes of each live lane's grant
    size_t lanes_ = 1;
    size_t rrPtr_ = 0;
    uint64_t lastCompletion_ = 0;
    uint64_t lastDrainCycle_ = 0;
};

void
Engine::setupQueues()
{
    const uint32_t n = cfg_.numGes;
    ges_.resize(n);
    waitOn_.assign(n, kWaitNothing);
    stats_.issuedPerGe.assign(n, 0);

    // Queue SRAM split per GE: 25% instructions, 50% tables, 25% OoRW.
    const size_t per_ge = cfg_.queueSramBytes / n;
    const auto entries = [](size_t bytes, uint32_t entry) {
        return std::max<uint64_t>(1, bytes / entry);
    };
    const auto sizeQueue = [](StreamQueue &q, uint32_t grant_bytes,
                              uint64_t capacity, uint64_t total) {
        q.grantBytes = grant_bytes;
        q.batchEntries =
            std::max<uint64_t>(1, kGrantBatchBytes / grant_bytes);
        q.capacityEntries = capacity;
        q.totalEntries = total;
    };

    for (uint32_t g = 0; g < n; ++g) {
        GeRunState &ge = ges_[g];
        if (streams_)
            ge.streams = &streams_->ge[g];
        const GeStreams *st = ge.streams;
        sizeQueue(ge.instrQ, encBytes_, entries(per_ge / 4, encBytes_),
                  st ? st->instrs.size() : 0);
        sizeQueue(ge.tableQ, uint32_t(kTableBytes),
                  entries(per_ge / 2, uint32_t(kTableBytes)),
                  st && cfg_.role == Role::Evaluator ? st->tableCount : 0);
        // OoRW entries occupy a label on-chip but cost addr+data DRAM
        // bandwidth (32-bit streamed addresses, §3.1.4), and are
        // fetched one at a time.
        sizeQueue(ge.oorQ, uint32_t(kLabelBytes) + 4,
                  entries(per_ge / 4, uint32_t(kLabelBytes)),
                  st ? st->oorAddrs.size() : 0);
        ge.oorQ.batchEntries = 1;
    }

    lanes_ = size_t(n) * 3 + 1;
    live_.assign(lanes_);
    full_.assign(lanes_);
    need_.assign(lanes_, 0);
    for (size_t lane = 0; lane < lanes_; ++lane)
        refreshLane(lane);

    // Initial SWW residency: inputs at or above the first window base.
    inputBase_ = std::max<uint32_t>(
        1, windowBase(prog_.numInputs + 1, cfg_.swwWires()));
    const uint64_t resident =
        prog_.numInputs >= inputBase_
            ? prog_.numInputs - inputBase_ + 1
            : 0;
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
Engine::setReady(uint32_t addr, uint64_t cycle)
{
    wireReady_[addr] = uint32_t(cycle);
    if (waiting_ > 0)
        wake(addr);
}

void
Engine::sleep(uint32_t g)
{
    const GeRunState &ge = ges_[g];
    awake_.set(g, false);
    ++asleep_[size_t(ge.stall)];
    if (ge.wake != kNever64)
        alarms_.emplace(ge.wake, g);
}

void
Engine::wakeUp(uint32_t g)
{
    awake_.set(g, true);
    --asleep_[size_t(ges_[g].stall)];
}

void
Engine::wake(uint32_t event)
{
    // Each woken GE retries at its next turn, exactly as if it had
    // never slept. A GE whose turn this cycle is still to come was
    // charged for this cycle already; its retry charges it instead.
    for (uint32_t g = 0; g < cfg_.numGes; ++g) {
        if (waitOn_[g] == event) {
            waitOn_[g] = kWaitNothing;
            --waiting_;
            wakeUp(g);
            if (turn_ != kNever32 && g > turn_)
                --*stallCounter_[size_t(ges_[g].stall)];
        }
    }
}

void
Engine::refreshLane(size_t lane)
{
    bool live;
    if (lane == lanes_ - 1) {
        live = writableBytes_ > 0;
        need_[lane] = double(
            std::min<uint64_t>(writableBytes_, kGrantBatchBytes));
    } else {
        const StreamQueue &q = laneQueue(lane);
        live = q.wantsGrant();
        if (live)
            need_[lane] = double(q.nextBatch()) * q.grantBytes;
    }
    live_.set(lane, live);
    full_.set(lane, live && need_[lane] >= kGrantBatchBytes);
}

void
Engine::dramStep(uint64_t t)
{
    dramBudget_ = std::min(dramBudget_ + perCycle_, budgetCap_);

    while (!writeEvents_.empty() && writeEvents_.top().first <= t) {
        writableBytes_ += writeEvents_.top().second;
        writeEvents_.pop();
    }
    refreshLane(lanes_ - 1);

    // Input preload: arrival order is ascending address.
    if (inputLoad_.wantsGrant()) {
        const uint64_t batch =
            std::min<uint64_t>(4, inputLoad_.totalEntries -
                                      inputLoad_.granted);
        const double bytes = double(batch) * inputLoad_.grantBytes;
        if (dramBudget_ >= bytes) {
            dramBudget_ -= bytes;
            const uint64_t arrival = t + cfg_.dramLatency;
            for (uint64_t i = 0; i < batch; ++i)
                setReady(inputBase_ + uint32_t(inputLoad_.granted + i),
                         arrival);
            inputLoad_.granted += batch;
            inputLoad_.arrived += batch; // tracked via wireReady_
        }
    }

    // Round-robin over the lanes that want a grant, starting at rrPtr_
    // and wrapping once. A lane that does not want one, or whose grant
    // exceeds the budget, is passed over, so skipping it — and every
    // full-batch lane while the budget is below a full batch, and all
    // lanes once it is below the smallest grant — leaves the
    // arbitration unchanged.
    const auto arbitrate = [&](size_t from, size_t to) {
        for (size_t lane = from;; ++lane) {
            lane = live_.next(lane, dramBudget_ < kGrantBatchBytes
                                        ? &full_
                                        : nullptr);
            if (lane >= to)
                return true;
            if (dramBudget_ < minGrantBytes_)
                return false;
            if (dramBudget_ >= need_[lane])
                grantLane(lane, t);
        }
    };
    if (arbitrate(rrPtr_, lanes_))
        arbitrate(0, rrPtr_);
    if (++rrPtr_ == lanes_)
        rrPtr_ = 0;
}

void
Engine::grantLane(size_t lane, uint64_t t)
{
    // The lane is live and need_[lane] fits the budget.
    if (lane == lanes_ - 1) {
        // Outbound drain.
        const uint64_t chunk =
            std::min<uint64_t>(writableBytes_, kGrantBatchBytes);
        dramBudget_ -= double(chunk);
        writableBytes_ -= chunk;
        drainedWriteBytes_ += chunk;
        lastDrainCycle_ = t;
        refreshLane(lane);
        if (waiting_ > 0)
            wake(kWaitDrain);
        return;
    }
    const GeRunState &ge = ges_[lane / 3];
    StreamQueue &q = laneQueue(lane);
    uint64_t arrival = t + cfg_.dramLatency;
    if (&q == &ge.oorQ) {
        // OoRW: one entry at a time; the label must be valid in
        // DRAM before the fetch succeeds (§3.1.4 valid bits).
        const uint32_t addr = ge.streams->oorAddrs[size_t(q.granted)];
        const uint32_t ready = wireDramReady_[addr];
        if (ready == kNever32)
            return; // producer not drained yet; retry
        arrival = std::max<uint64_t>(t, ready) + cfg_.dramLatency;
    }
    const uint64_t batch = q.nextBatch();
    dramBudget_ -= double(batch) * q.grantBytes;
    q.inflight.emplace_back(arrival, uint32_t(batch));
    q.granted += batch;
    refreshLane(lane);
}

bool
Engine::tryIssue(uint64_t t, uint32_t g, GeRunState &ge, uint32_t idx,
                 const HaacInstruction &local, uint64_t *hint)
{
    const HaacInstruction &ins = prog_.instrs[idx];
    const uint32_t out = prog_.outputAddrOf(idx);
    const bool is_and = ins.op == HaacOp::And;
    const bool is_not = ins.op == HaacOp::Not;

    // A stall charges its counter now and, while it provably holds,
    // on every cycle before @p wake (t + 1: no such promise) ...
    const auto stall = [&](Stall why, uint64_t wake) {
        ++*stallCounter_[size_t(why)];
        ge.stall = why;
        ge.wake = wake;
        return false;
    };
    // ... or until @p event happens (GEs sleep only in replay).
    const auto stallUntil = [&](Stall why, uint32_t event) {
        if (globalDispatch_)
            return stall(why, t + 1);
        waitOn_[g] = event;
        ++waiting_;
        return stall(why, kNever64);
    };

    // Stream availability. An empty queue stays empty until its next
    // arrival, and a queue that has an entry keeps it until this GE
    // issues, so these stalls hold until the queue's next arrival.
    if (modelTraffic_) {
        if (!ge.instrQ.available(t))
            return stall(Stall::InstrQueue,
                         ge.instrQ.nextArrival(t, cfg_.dramLatency));
        if (is_and && cfg_.role == Role::Evaluator &&
            !ge.tableQ.available(t))
            return stall(Stall::TableQueue,
                         ge.tableQ.nextArrival(t, cfg_.dramLatency));
    }
    const uint32_t oor_need = (local.a == kOorAddr ? 1 : 0) +
                              (!is_not && local.b == kOorAddr ? 1 : 0);
    if (modelTraffic_ && oor_need > 0 &&
        !ge.oorQ.available(t, oor_need))
        return stall(Stall::OorwQueue,
                     ge.oorQ.nextArrival(t, cfg_.dramLatency));
    // Outbound backpressure: don't issue write-producing work into a
    // full write buffer. Only an issue that writes fills it, and none
    // can while it is full, so it stays full until the next drain.
    const bool writes_gated =
        modelTraffic_ &&
        (ins.live || (is_and && cfg_.role == Role::Garbler));
    if (writes_gated &&
        scheduledWriteBytes_ - drainedWriteBytes_ >=
            cfg_.writeBufferBytes)
        return stallUntil(Stall::WriteBuffer, kWaitDrain);

    // Operand readiness (forwarding network / SWW valid bits).
    if (modelCompute_) {
        const uint64_t deadline = t + cfg_.frontendDepth();
        uint64_t latest = 0;
        uint32_t pending = kNever32; // an operand not yet produced
        auto checkOperand = [&](uint32_t addr, bool is_oor) {
            // OoR operands are gated by their queue arrival (which in
            // turn waits for the producer's DRAM write). With ideal
            // memory there is no queue, so fall back to the direct
            // dependence check.
            if (is_oor && modelTraffic_)
                return;
            latest = std::max<uint64_t>(latest, wireReady_[addr]);
            if (wireReady_[addr] == kNever32)
                pending = addr;
        };
        checkOperand(ins.a, local.a == kOorAddr);
        if (!is_not)
            checkOperand(ins.b, local.b == kOorAddr);
        if (latest > deadline) {
            if (hint && latest != kNever32)
                *hint = std::min<uint64_t>(
                    *hint, latest - cfg_.frontendDepth());
            // Ready cycles are set once, and the queue checks above
            // keep passing, so unless the write-buffer gate can fire
            // first the stall holds until the operands are ready — or,
            // for an operand not yet produced, until its producer
            // issues (setReady wakes the GE).
            if (writes_gated)
                return stall(Stall::Operand, t + 1);
            if (pending != kNever32)
                return stallUntil(Stall::Operand, pending);
            return stall(Stall::Operand, latest - cfg_.frontendDepth());
        }

        // SWW bank ports for the in-window operand reads.
        auto readBank = [&](uint32_t addr) {
            return banks_.tryAccess(t, bankOf(addr));
        };
        if (local.a != kOorAddr && !readBank(ins.a))
            return stall(Stall::Bank, t + 1);
        if (!is_not && local.b != kOorAddr && ins.b != ins.a &&
            !readBank(ins.b))
            return stall(Stall::Bank, t + 1);
    }

    // ---- Issue. ----
    const uint32_t lat = modelCompute_ ? cfg_.computeLatency(is_and) : 0;
    const uint64_t frontend = modelCompute_ ? cfg_.frontendDepth() : 0;
    const uint64_t complete = t + frontend + lat;
    const uint64_t written = complete + (modelCompute_
                                             ? cfg_.writebackStages
                                             : 0);

    if (modelTraffic_) {
        // A consume can only make a full queue want a grant again.
        const size_t lane = size_t(g) * 3;
        ++ge.instrQ.consumed;
        refreshLane(lane);
        if (is_and && cfg_.role == Role::Evaluator) {
            ++ge.tableQ.consumed;
            refreshLane(lane + 1);
        }
        if (oor_need > 0) {
            ge.oorQ.consumed += oor_need;
            refreshLane(lane + 2);
        }
    }

    setReady(out, cfg_.forwarding ? complete : written);
    banks_.forceAccess(written, bankOf(out));
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
            uint64_t hint = kNever64;
            bool any = false;
            uint32_t g = rr;
            for (uint32_t i = 0; i < cfg_.numGes && head < total; ++i) {
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
                if (++g == cfg_.numGes)
                    g = 0;
            }
            if (++rr == cfg_.numGes)
                rr = 0;
            if (any || hint == kNever64) {
                ++t;
            } else {
                t = std::max(t + 1, hint);
            }
        }
        issued_total = total;
    } else {
        assert(streams_ && "replay mode requires streams");
        // Only awake GEs are visited. A sleeping GE's stall is known to
        // hold until its wake cycle or event, so each visited cycle
        // charges every sleeper's stall counter in bulk, exactly as its
        // retries would have.
        awake_.assign(cfg_.numGes);
        for (uint32_t g = 0; g < cfg_.numGes; ++g)
            awake_.set(g, !ges_[g].streams->instrs.empty());
        while (issued_total < total ||
               (modelTraffic_ &&
                (writableBytes_ > 0 || !writeEvents_.empty()))) {
            if (modelTraffic_)
                dramStep(t);
            while (!alarms_.empty() && alarms_.top().first <= t) {
                wakeUp(alarms_.top().second);
                alarms_.pop();
            }
            for (size_t k = 0; k < kStallKinds; ++k)
                *stallCounter_[k] += asleep_[k];
            // An operand sleeper's wake cycle is also the hint its
            // retry would give (queue sleepers only sleep with traffic
            // modelled, where time does not skip).
            uint64_t hint = alarms_.empty() ? kNever64 : alarms_.top().first;
            bool any = false;
            for (size_t g = awake_.next(0); g < cfg_.numGes;
                 g = awake_.next(g + 1)) {
                GeRunState &ge = ges_[g];
                const uint32_t idx = ge.streams->instrIdx[ge.cursor];
                const HaacInstruction &local =
                    ge.streams->instrs[ge.cursor];
                turn_ = uint32_t(g);
                if (tryIssue(t, uint32_t(g), ge, idx, local, &hint)) {
                    ++issued_total;
                    any = true;
                    if (++ge.cursor == ge.streams->instrs.size())
                        awake_.set(g, false);
                    if (probe_) {
                        probe_->onIssue(t, uint32_t(g), idx,
                                        prog_.instrs[idx],
                                        prog_.outputAddrOf(idx));
                    }
                } else if (ge.wake > t + 1) {
                    sleep(uint32_t(g));
                }
            }
            turn_ = kNever32;
            if (probe_) {
                const SimProbeView view = probeView(t);
                if (!probe_->onCycle(view))
                    break; // aborted: return stats so far
            }
            if (!modelTraffic_ && !any && hint != kNever64) {
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
