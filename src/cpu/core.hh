/**
 * @file
 * Cycle-level out-of-order core model.
 *
 * Models the structures that bound memory-level parallelism in the
 * paper's baseline (Table 3): issue width, ROB, load and store queues,
 * cache MSHRs (via the attached hierarchy), the dependence chains between
 * index loads / address arithmetic / indirect accesses, and x86-style
 * locked RMW semantics (issue at ROB head with drained store buffer,
 * fencing younger memory ops). Fetch/decode details and branch
 * prediction are intentionally not modeled; every committed micro-op
 * counts as one instruction.
 */

#ifndef DX_CPU_CORE_HH
#define DX_CPU_CORE_HH

#include <array>
#include <cstdint>
#include <deque>
#include <utility>
#include <vector>

#include "cache/cache_if.hh"
#include "common/ring.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "cpu/microop.hh"
#include "cpu/mmio.hh"
#include "sim/component.hh"

namespace dx::cpu
{

class Core final : public Component,
                   public cache::CacheRespSink,
                   public OpEmitter
{
  public:
    struct Config
    {
        unsigned width = 8;        //!< dispatch/commit width
        unsigned robSize = 224;
        unsigned lqSize = 72;
        unsigned sqSize = 56;
        unsigned loadPorts = 2;    //!< loads issued to L1 per cycle
        unsigned storeDrain = 1;   //!< post-commit stores to L1 per cycle
        unsigned mmioLatency = 40; //!< core->device one-way, cycles
        unsigned pollInterval = 60;  //!< wait-loop poll period
        unsigned pollInstrCost = 3;  //!< spin-loop instructions per poll
    };

    struct Stats
    {
        Counter committedOps;
        Counter committedLoads;
        Counter committedStores;
        Counter committedRmws;
        Counter waitCycles;      //!< cycles stalled in kDxWait at head
        Counter robStallCycles;  //!< dispatch blocked: ROB full
        Counter lqStallCycles;
        Counter sqStallCycles;
        std::uint64_t lqOccupancyAccum = 0;
        std::uint64_t robOccupancyAccum = 0;
        std::uint64_t cycles = 0;
    };

    Core(const Config &cfg, int id, cache::CachePort *l1);

    /** Attach the kernel supplying this core's op stream. */
    void
    setKernel(Kernel *kernel)
    {
        kernel_ = kernel;
        verdict_.clear();
    }

    /** Attach the MMIO device (DX100 instance) visible to this core. */
    void setMmioDevice(MmioDevice *dev) { mmio_ = dev; }

    /** Advance one core cycle. */
    void tick();

    /**
     * Quiescence contract (see DESIGN.md): tick() this cycle would
     * change nothing but the closed-form per-cycle stats (cycles,
     * occupancy integrals, the current stall counter, kDxWait
     * waitCycles) — no wheel completion, nothing issuable, nothing
     * dispatchable, no store/MMIO drain, no head retirement.
     *
     * Inline fast path: the scheduler probes every core every cycle,
     * so a held verdict must cost a compare or two at the call site.
     */
    bool
    quiescent() const
    {
        return verdict_.holds(now_ + 1) || quiescentSlow();
    }

    /**
     * Earliest cycle tick() could act again without external stimulus:
     * the next MMIO delivery or kDxWait poll; kNeverCycle when only a
     * cache response can wake us. Only meaningful while quiescent().
     */
    Cycle nextEventAt() const;

    /**
     * Closed-form advance over @p n cycles the caller has proven
     * quiescent, accumulating exactly the stats the naive per-cycle
     * loop would have.
     */
    void skipCycles(Cycle n);

    /** This core's clock (kept in sync with the System clock). */
    Cycle localNow() const { return now_; }

    /** Kernel exhausted and every buffer drained. */
    bool done() const;

    /** Component drain is the same predicate as done(). */
    bool drained() const override { return done(); }

    // Component introspection.
    void registerStats(StatRegistry &reg) const override;

    std::vector<PortRef>
    portRefs() const override
    {
        return {{l1_.name(), l1_.bound()}};
    }

    // OpEmitter: queue an op into the front-end buffer.
    SeqNum emit(const MicroOp &op) override;

    // CacheRespSink: load/store/RMW completions from L1.
    void complete(const std::uint64_t &tag) override;

    const Stats &stats() const { return stats_; }
    int id() const { return id_; }

    /**
     * Audit the dependence lists against the ROB: every edge names an
     * in-ROB consumer, each list's tail is its last edge, and each
     * waiting entry's depsLeft equals the number of edges that reach
     * it (non-waiting entries have none). dx_asserts on a mismatch.
     * For tests; nothing on the simulation path calls it.
     */
    void checkRob() const;

  private:
    enum class EntryState : std::uint8_t
    {
        kWaiting,   //!< dependencies outstanding
        kReady,     //!< in the ready queue
        kIssued,    //!< executing
        kComplete,  //!< result available
    };

    /**
     * A dependence edge: consumerSeq << 2 | depSlot, the slot of
     * MicroOp::deps naming the producer. Each producer keeps a FIFO of
     * the edges waiting on it, linked through the consumers' nextEdge
     * (no allocation per edge); an op naming one producer twice has
     * two edges on its list.
     */
    using Edge = std::uint64_t;
    static constexpr Edge kNoEdge = 0; //!< seq 0 is never allocated
    static_assert(kMaxDeps <= 4, "depSlot is two bits of an Edge");

    struct RobEntry
    {
        MicroOp op;
        EntryState state = EntryState::kWaiting;
        unsigned depsLeft = 0;
        bool headBlocked = false; //!< kRmw/kDxWait: wait for ROB head
        Edge depHead = kNoEdge;   //!< first consumer edge waiting on us
        Edge depTail = kNoEdge;   //!< last one (append point)
        //! Per deps slot: the edge after (this, slot) on the producer's
        //! list.
        std::array<Edge, kMaxDeps> nextEdge{};
    };

    // Pipeline stages, called in tick().
    void refillOpBuffer();
    void dispatch();
    void issue();
    void commit();
    void drainStores();
    void drainMmio();

    /*
     * Each stage's "would it act?" question, asked in one place by the
     * stage itself and by quiescentSlow()/nextEventAt()/skipCycles(),
     * so the probe cannot drift from the tick it stands in for.
     */

    /**
     * The stall counter dispatch() would bump on the front-end head
     * this cycle; null when it would dispatch or the buffer is empty.
     * skipCycles() adds n to the same counter, so the skipped stall
     * counts match the naive loop's bit for bit.
     */
    Counter Stats::*dispatchStall() const;
    /** The ROB head is a kDxWait between polls (waitCycles accrue). */
    bool headWaiting() const;
    /** Head kRmw/kFence @p e may go ahead: ready, older stores drained. */
    bool fenceMayProceed(const RobEntry &e) const;
    /** dispatch() would pull more ops from the kernel. */
    bool refillDue() const;
    /** drainStores() would send the store buffer's head to the L1. */
    bool storeDrainDue() const;

    /** The L1 request of ROB load/RMW @p e (sequence number @p seq). */
    cache::CacheReq memReq(const RobEntry &e, SeqNum seq) const;
    /** The L1 write of post-commit store @p op. */
    cache::CacheReq storeReq(const MicroOp &op) const;

    /**
     * Cross-cycle memo of the quiescent() verdict, cleared by tick(),
     * complete() and setKernel() — the only entry points that mutate
     * core state. A verdict that reads only core-private state (both
     * the ready queue and the store buffer empty) sleeps with no
     * deadline. One gated on a full L1 input queue (ready-queue front
     * load or store drain) watches the L1's departure counter; it is
     * not memoized when the L1 does not track departures.
     */
    mutable QuiescenceMemo verdict_;
    //! L1 pop counter, resolved once at wiring (null if untracked).
    const std::uint64_t *l1PopAddr_ = nullptr;

    // Out-of-line half of quiescent() (the header fast path handles
    // the long-lived memoized shapes).
    bool quiescentSlow() const;

    RobEntry &entry(SeqNum seq);
    const RobEntry &entry(SeqNum seq) const;
    bool inRob(SeqNum seq) const;
    bool depSatisfied(SeqNum dep) const;
    void markComplete(SeqNum seq);
    void wakeDependents(RobEntry &e);
    bool issueMemOp(RobEntry &e, SeqNum seq);
    bool fencePending(SeqNum seq) const;

    const Config cfg_;
    const int id_;
    PortSlot<cache::CacheReq> l1_{"l1"};
    Kernel *kernel_ = nullptr;
    MmioDevice *mmio_ = nullptr;

    Cycle now_ = 0;

    // Front-end buffer between the kernel and dispatch. A deque, not a
    // Ring: one emitChunk() may queue a whole tile of ops, and a ring
    // would keep that peak allocated for the rest of the run.
    std::deque<MicroOp> opBuffer_;
    SeqNum nextSeq_ = 1;     //!< seq of the next op to be *emitted*
    SeqNum bufferHeadSeq_ = 1; //!< seq of opBuffer_.front()

    // ROB ring of bit_ceil(robSize) entries indexed by seq & robMask_;
    // occupancy is still capped at cfg_.robSize. seq of the oldest
    // in-flight op is robHead_.
    std::vector<RobEntry> rob_;
    SeqNum robMask_;
    SeqNum robHead_ = 1;
    SeqNum robTail_ = 1; //!< seq the next dispatched op will get
    unsigned lqUsed_ = 0;
    unsigned sqUsed_ = 0;

    Ring<SeqNum> readyQueue_;
    std::vector<SeqNum> fenceBlocked_; //!< mem ops held by an older fence

    // Execution completion wheel for fixed-latency ALU ops: an op of
    // latency l lands in slot (wheelPos_ + l) mod kWheelSlots.
    static constexpr unsigned kWheelSlots = 64;
    std::array<std::vector<SeqNum>, kWheelSlots> wheel_;
    unsigned wheelPos_ = 0;
    unsigned wheelPending_ = 0; //!< entries across all wheel slots

    // In-flight fencing ops (kRmw/kFence), oldest first.
    Ring<SeqNum> fencing_;

    // Post-commit L1 store writes awaiting completion (SQ slots held).
    unsigned inflightStoreWrites_ = 0;

    // Post-commit store drain: stores awaiting L1 acceptance. The SQ
    // slot is released when the L1 write completes.
    Ring<MicroOp> storeBuffer_;
    // Post-commit MMIO stores: delivered in order after mmioLatency.
    Ring<std::pair<Cycle, MicroOp>> mmioBuffer_;

    Cycle nextPollAt_ = 0;

    Stats stats_;
};

} // namespace dx::cpu

#endif // DX_CPU_CORE_HH
