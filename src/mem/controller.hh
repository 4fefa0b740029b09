/**
 * @file
 * A single-channel DDR4 memory controller with an FR-FCFS scheduler.
 *
 * The controller owns a bounded request buffer (32 entries by default,
 * per paper Table 3) and a write buffer with drain watermarks. Every
 * controller cycle it issues at most one DRAM command, chosen
 * first-ready-first-come-first-served: ready column commands to open rows
 * win over row commands; among equals, the oldest request wins. All DDR4
 * bank/bank-group/rank timing constraints from DramTimings are enforced,
 * including tCCD_S/tCCD_L bank-group spacing, tFAW, write-to-read
 * turnaround, and periodic all-bank refresh.
 *
 * Each spacing rule is one max() on the timer of the scope it applies
 * to (channel, bank group or bank), so a command costs O(1) timer
 * updates; a bank's command is ready at the max over its three scopes.
 */

#ifndef DX_MEM_CONTROLLER_HH
#define DX_MEM_CONTROLLER_HH

#include <algorithm>
#include <array>
#include <cstdint>
#include <deque>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"
#include "mem/address_map.hh"
#include "mem/dram_timings.hh"
#include "mem/request.hh"
#include "sim/component.hh"

namespace dx::mem
{

class MemoryController final : public Component
{
  public:
    struct Config
    {
        DramTimings timings;
        DramGeometry geom;
        unsigned readQueueSize = 32;
        unsigned writeQueueSize = 32;
        unsigned writeHiWatermark = 24;
        unsigned writeLoWatermark = 8;
        unsigned writeBurstMax = 24; //!< writes per drain when reads wait
    };

    struct Stats
    {
        Counter cycles;
        Counter readsServed;
        Counter writesServed;
        Counter rowHits;       //!< column commands needing no ACT
        Counter rowMisses;     //!< column commands that required an ACT
        Counter rowConflicts;  //!< requests that forced a PRE first
        Counter actCommands;
        Counter preCommands;
        Counter refCommands;
        Counter busBusyCycles; //!< data-bus occupancy in controller cycles
        std::uint64_t occupancyAccum = 0; //!< sum of queue sizes per cycle

        double
        rowHitRate() const
        {
            const double total =
                static_cast<double>(rowHits.value() + rowMisses.value());
            return total > 0 ? rowHits.value() / total : 0.0;
        }

        double
        busUtilization() const
        {
            return cycles.value()
                ? static_cast<double>(busBusyCycles.value()) /
                      cycles.value()
                : 0.0;
        }
    };

    /**
     * dx_fatal names the offending field when a _L timing is below its
     * _S twin (the bank-group scope would then undercut the channel
     * scope) or the geometry has more banks per channel, or more bank
     * groups, than the readiness masks and scoped timers hold.
     */
    MemoryController(const Config &cfg, unsigned channelId);

    /** True if a request of the given type can be enqueued right now. */
    bool canAccept(bool write) const;

    /** Enqueue a request; canAccept(write) must be true. */
    void enqueue(const MemRequest &req);

    /** Advance one controller clock cycle. */
    void tick();

    /**
     * Quiescence contract (see DESIGN.md): the next controller tick
     * would be a no-op except for the closed-form per-cycle stats
     * (cycles, occupancyAccum) — no response due, no refresh activity,
     * no write-mode toggle, no command issuable.
     */
    bool
    quiescent() const
    {
        return nextEventAt() > now_ + 1;
    }

    /**
     * Earliest controller cycle at which tick() could act: the head
     * in-flight response, the next refresh deadline, a pending
     * write-mode toggle, or the readiness table's earliest command,
     * clamped to the next tick. Never later than the true event. Each
     * term is O(1) while the table is valid; an invalid table is
     * rebuilt here.
     */
    Cycle
    nextEventAt() const
    {
        return std::max(computeEventHint(), now_ + 1);
    }

    /**
     * Closed-form advance over @p n controller cycles the caller has
     * proven quiescent (nextEventAt() > now() + n).
     */
    void
    skipCycles(Cycle n)
    {
        now_ += n;
        stats_.cycles += n;
        stats_.occupancyAccum +=
            n * (readQueue_.size() + writeQueue_.size());
    }

    /** Current controller cycle. */
    Cycle now() const { return now_; }

    /** Component clock: the controller-domain cycle. */
    Cycle localNow() const { return now_; }

    /** True when both queues and in-flight responses are empty. */
    bool idle() const;

    /** Component drain is the same predicate as idle(). */
    bool drained() const override { return idle(); }

    // Component introspection.
    void registerStats(StatRegistry &reg) const override;

    /**
     * Count every future request-buffer departure (column command
     * issued) into @p sum, the DRAM system's aggregate that waiters
     * blocked on canAccept() watch. Wire before the first request
     * arrives.
     */
    void setDequeueMirror(std::uint64_t *sum) { dequeueMirror_ = sum; }

    const Stats &stats() const { return stats_; }
    const Config &config() const { return cfg_; }
    unsigned channelId() const { return channel_; }

    /**
     * Audit the per-bank FR-FCFS summaries against a re-scan of both
     * queues: every entry's cached bank, each bank's queued and
     * open-row-hit counts and queued-bank mask per queue, and, while
     * it is valid, the readiness table against a fresh recomputation.
     * dx_asserts on a mismatch. For tests; nothing on the simulation
     * path calls it.
     */
    void checkSummaries() const;

  private:
    /** Summary index of a queue: reads and writes. */
    static constexpr unsigned kReads = 0;
    static constexpr unsigned kWrites = 1;

    /** Capacity of the per-bank readiness masks. */
    static constexpr unsigned kMaxBanks = 64;
    /** Capacity of the bank-group timer scope. */
    static constexpr unsigned kMaxBankGroups = 16;

    /**
     * The earliest cycle each command may issue as far as one scope's
     * spacing rules go. Channel: tCCD_S, tRRD_S, tRTW, tCWL+tBL+tWTR_S
     * and tRFC. Bank group: tCCD_L, tRRD_L and tCWL+tBL+tWTR_L. Bank:
     * tRC, tRP and tRCD (tRAS, tRTP and tWR bound Bank::nextPre).
     */
    struct Timers
    {
        Cycle act = 0;
        Cycle rd = 0;
        Cycle wr = 0;
    };

    struct Bank
    {
        std::int64_t openRow = -1;
        Timers timers;      //!< bank scope
        Cycle nextPre = 0;
        unsigned group = 0; //!< index of the bank-group scope
        // FR-FCFS summaries, per queue (kReads/kWrites): entries
        // queued for this bank, and those of them hitting openRow.
        unsigned queued[2] = {0, 0};
        unsigned hits[2] = {0, 0};
    };

    struct Entry
    {
        MemRequest req;
        unsigned bank = 0;      //!< flat bank in channel, set at enqueue
        bool neededAct = false; //!< an ACT was issued on its behalf
    };

    struct PendingResp
    {
        Cycle ready;
        MemRequest req;
    };

    /** The one command class a bank's served-queue entries wait for. */
    enum Cmd : std::uint8_t
    {
        kColumn, //!< the open row has hits: RD/WR (a PRE would unpin)
        kAct,    //!< the bank is closed
        kPre,    //!< the open row has no hits: a conflict PRE
    };

    /** Queue index of the queue the current mode serves. */
    unsigned served() const { return writeMode_ ? kWrites : kReads; }

    bool tryRefresh();

    /**
     * FR-FCFS issue from the served queue, driven by the readiness
     * table: the first command class (column, ACT, PRE) with a ready
     * bank, for the oldest entry of such a bank, if any is ready.
     */
    void issueCommand();

    /**
     * The write-drain hysteresis condition, shared by tick() and
     * nextEventAt() so the two cannot diverge: true when this cycle's
     * mode check would flip writeMode_.
     */
    bool wouldToggleWriteMode() const;

    /** Earliest cycle the tFAW window admits another ACT. */
    Cycle fawReadyAt() const;

    /** When @p bank's command timer @p cmd allows it, over all scopes. */
    Cycle
    timerAt(const Bank &bank, Cycle Timers::*cmd) const
    {
        return std::max({bank.timers.*cmd, groups_[bank.group].*cmd,
                         channelTimers_.*cmd});
    }

    /**
     * The per-bank command rule: when the next command an entry of
     * @p bank waits for is ready. That is the column timer when the
     * entry @p hit the open row, the ACT timer (bounded by the tFAW
     * window's @p faw) when the bank is closed, else the PRE timer.
     */
    Cycle commandReadyAt(const Bank &bank, bool writes, bool hit,
                         Cycle faw) const;

    /** Fill bank @p b's readiness-table entry for the served queue. */
    void setReadiness(unsigned b, Cycle faw) const;

    /** Rebuild the readiness table over the served queue's banks. */
    void buildTable() const;

    /**
     * Earliest bank-timer expiry over banks the served queue uses: the
     * readiness table's minimum, building the table if it is invalid.
     */
    Cycle earliestCommandAt() const;

    /** nextEventAt() before the clamp; 0 means "could act now". */
    Cycle computeEventHint() const;

    /** RD or WR for queue[i], which leaves the queue. */
    void issueColumn(std::vector<Entry> &queue, std::size_t i);
    void issueRead(Entry &e);
    void issueWrite(Entry &e);
    void issueAct(Entry &e);
    void issuePre(unsigned flatBank);

    /** Deliver the responses due by now_. */
    void deliverResponses();

    const Config cfg_;
    const unsigned channel_;
    Cycle now_ = 0;

    std::vector<Bank> banks_;       //!< per (rank, bg, bank) in channel
    std::array<Timers, kMaxBankGroups> groups_{}; //!< bank-group scope
    Timers channelTimers_;          //!< channel scope
    std::uint64_t queuedMask_[2] = {0, 0}; //!< banks with queued entries
    std::vector<Entry> readQueue_;
    std::vector<Entry> writeQueue_;
    std::deque<PendingResp> pending_;

    std::uint64_t *dequeueMirror_ = nullptr; //!< system-wide aggregate

    bool writeMode_ = false;
    unsigned writeBurst_ = 0;
    unsigned readCredit_ = 0;
    bool refreshPending_ = false;
    Cycle nextRefresh_;
    // The last four ACT cycles (tFAW), a ring whose oldest entry is at
    // actNext_ once actCount_ reaches four.
    std::array<Cycle, 4> actWindow_{};
    unsigned actNext_ = 0;
    unsigned actCount_ = 0;

    // Readiness table of the served queue: for each bank in
    // queuedMask_[served()], its next command class and the cycle that
    // command is ready, plus their minimum. This is the channel's only
    // memo: nextEventAt() reads its minimum. Built by nextEventAt() or
    // tick(), patched by enqueue(), and invalidated by an issued
    // command, a refresh or a write-mode switch.
    mutable std::array<Cycle, kMaxBanks> readyAt_{};
    mutable std::array<Cmd, kMaxBanks> readyCmd_{};
    mutable Cycle tableMin_ = kNeverCycle;
    mutable bool tableValid_ = false;

    Stats stats_;
};

} // namespace dx::mem

#endif // DX_MEM_CONTROLLER_HH
