/**
 * @file
 * A cycle-level set-associative write-back cache with MSHRs.
 *
 * Used for the private L1D/L2 and the shared LLC. Misses allocate MSHRs
 * (coalescing secondary accesses as targets) and forward downstream
 * through a CachePort. The LLC acts as the inclusive root: evictions
 * back-invalidate the private levels, which also gives DX100 an exact
 * one-bit "is this line cached anywhere?" snoop (the H bit of §3.6).
 */

#ifndef DX_CACHE_CACHE_HH
#define DX_CACHE_CACHE_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cache/cache_if.hh"
#include "cache/prefetcher.hh"
#include "common/ring.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "sim/component.hh"

namespace dx::cache
{

class Cache final : public Component,
                    public CachePort,
                    public CacheRespSink,
                    public SnoopPort
{
  public:
    struct Config
    {
        std::string name = "cache";
        std::uint64_t sizeBytes = 32 * 1024;
        unsigned assoc = 8;
        unsigned latency = 4;        //!< lookup latency in core cycles
        unsigned mshrs = 16;
        unsigned targetsPerMshr = 8;
        unsigned queueSize = 16;     //!< input queue entries
        unsigned width = 2;          //!< lookups per cycle
        bool inclusiveRoot = false;  //!< back-invalidate children on evict
    };

    struct Stats
    {
        Counter demandHits;    //!< CPU demand only
        Counter demandMisses;  //!< CPU demand only
        Counter demandAccesses;
        Counter dxHits;        //!< DX100-originated traffic
        Counter dxMisses;
        Counter mshrCoalesced;
        Counter writebacks;
        Counter evictions;
        Counter backInvalidates;
        Counter prefetchesIssued;
        Counter prefetchesUseful; //!< demand hit on a prefetched line
        Counter stallMshrFull;
        Counter stallDownstream;
    };

    Cache(const Config &cfg, CachePort *downstream);

    /** Attach a prefetcher (optional). */
    void setPrefetcher(std::unique_ptr<Prefetcher> pf);

    /** Register an upper-level cache for inclusive back-invalidation. */
    void addChild(Cache *child) { children_.push_back(child); }

    // CachePort (upstream-facing).
    bool canAccept(const CacheReq &req) const override;
    void request(const CacheReq &req) override;
    const std::uint64_t *
    popCountAddr() const override
    {
        return &popCount_;
    }

    // CacheRespSink (downstream fill responses).
    void complete(const std::uint64_t &tag) override;

    // Component introspection.
    void registerStats(StatRegistry &reg) const override;

    std::vector<PortRef>
    portRefs() const override
    {
        return {{downstream_.name(), downstream_.bound()}};
    }

    /** Advance one core cycle. */
    void tick();

    /**
     * Quiescence contract (see DESIGN.md): tick() would change nothing
     * but the closed-form per-cycle stats — no processable queue entry,
     * no writeback awaiting drain, no prefetch candidate. A due head
     * that would structurally stall (MSHR/downstream full) *is*
     * quiescent: the retry's only effect is a stall counter, which
     * skipCycles() accumulates closed-form.
     *
     * Inline fast path: the scheduler probes every component every
     * cycle, so a held verdict must cost a compare or two at the call
     * site, not a cross-TU call.
     */
    bool
    quiescent() const
    {
        return verdict_.holds(now_ + 1) || quiescentSlow();
    }

    /**
     * Earliest cycle tick() could act again without external stimulus;
     * kNeverCycle when only a new request or a fill can wake us. Only
     * meaningful while quiescent() — which (re)establishes the verdict
     * whose deadline this fast path returns. A verdict blocked on the
     * downstream port has none: only external stimulus can wake a
     * due-but-stalled head (matches nextEventAtSlow()).
     */
    Cycle
    nextEventAt() const
    {
        return verdict_.until ? verdict_.until : nextEventAtSlow();
    }

    /**
     * Closed-form advance over @p n cycles the caller has proven
     * quiescent (quiescent() holds and nextEventAt() > now + n),
     * accumulating the per-cycle stall counter a due-but-stalled head
     * would have bumped. Inline fast path: no due head, nothing to
     * accumulate but the clock.
     */
    void
    skipCycles(Cycle n)
    {
        // A watched counter is only ever set for a due head stalled on
        // the downstream port, so the accumulated counter is fixed.
        if (verdict_.watch) {
            stats_.stallDownstream += n;
            now_ += n;
            return;
        }
        if (queue_.empty() || queue_.front().readyAt > now_ + 1) {
            now_ += n;
            return;
        }
        skipCyclesSlow(n);
    }

    /** This cache's clock (kept in sync with the System clock). */
    Cycle localNow() const { return now_; }

    /** True if any request, MSHR or writeback is in flight. */
    bool busy() const;

    /**
     * Nothing in flight *and* no prefetch candidates queued: the
     * termination-side twin of quiescent(), used by System::run so a
     * run cannot end with requests still pending.
     */
    bool drained() const override;

    // SnoopPort: residency and invalidation (DX100's H bit).
    bool containsLine(Addr line) const override;
    bool invalidateLine(Addr line) override;

    /** Tag-store residency only (no in-flight fills). */
    bool tagsHold(Addr line) const;

    /**
     * Pre-install a clean line (cache warm-up for regions that are
     * architecturally resident when the region of interest begins).
     */
    void warmInsert(Addr line) { installLine(lineAlign(line), false,
                                             false); }

    const Stats &stats() const { return stats_; }
    const Config &config() const { return cfg_; }
    Prefetcher *prefetcher() { return prefetcher_.get(); }

    /** Render in-flight state (queues, MSHRs) for debugging. */
    std::string debugDump() const;

    /**
     * Audit the MSHR index against mshrs_: every live MSHR sits on
     * exactly its set's chain, chains hold only live MSHRs of their
     * set with distinct lines, the free mask is the complement of the
     * live set, and mshrsInUse_ counts it. dx_asserts on a mismatch.
     * For tests; nothing on the simulation path calls it.
     */
    void checkIndex() const;

  private:
    //! Tag of an invalid way / line of a free MSHR. A line address
    //! never has its low kLineShift bits set, so no real line matches.
    static constexpr Addr kNoLine = ~Addr{0};
    //! End of an MSHR chain.
    static constexpr std::int32_t kNoMshr = -1;

    struct Target
    {
        std::uint64_t tag;
        CacheRespSink *sink;
        bool write;
    };

    struct Mshr
    {
        Addr line = kNoLine;          //!< kNoLine: free
        std::int32_t next = kNoMshr;  //!< next MSHR of the same set
        bool dirtyOnFill = false;
        bool prefetch = false;
        std::vector<Target> targets;
    };

    struct Pending
    {
        CacheReq req;
        Cycle readyAt;
    };

    unsigned setIndex(Addr line) const;
    /** Flat index (set * assoc + way) of @p line's way, or -1. */
    int findWay(Addr line) const;
    /** The MSHR tracking @p line (a walk of its set's chain), or -1. */
    int findMshr(Addr line) const;
    /** Lowest free MSHR index, or -1 when every MSHR is live. */
    int lowestFreeMshr() const;
    /** Claim free MSHR @p idx for @p line and link it into its set. */
    Mshr &allocMshr(int idx, Addr line, bool dirtyOnFill, bool prefetch);
    /** Unlink live MSHR @p idx from its set's chain and free it. */
    void releaseMshr(unsigned idx);

    /** Install a line, evicting the victim; may queue a writeback. */
    void installLine(Addr line, bool dirty, bool prefetched);

    /**
     * What processing @p req this cycle would do. The single source of
     * the lookup/miss/stall decision: processRequest() acts on it, and
     * quiescentSlow()/skipCyclesSlow() read the two stall kinds, so
     * skipped stall counters match the naive loop's bit-for-bit.
     * kAllocate and kDownstreamFull also read the downstream port;
     * every other action reads only this cache's own state.
     */
    enum class Action : std::uint8_t
    {
        kHit,            //!< index: flat way
        kFullLineWrite,  //!< allocate in place without fetching
        kCoalesce,       //!< index: the live MSHR for the line
        kDrop,           //!< local prefetch racing a live fill
        kAllocate,       //!< index: the lowest free MSHR
        kMshrFull,       //!< no free MSHR, or no room in the line's
        kDownstreamFull, //!< the miss cannot be sent downstream
    };
    struct Decision
    {
        Action action;
        int index = -1;
    };
    Decision classify(const CacheReq &req) const;

    /**
     * Process one queued request as classify() decided @p d; false =>
     * stall, leave at head.
     */
    bool processRequest(const CacheReq &req, Decision d);

    /**
     * The downstream fetch a miss on @p req sends from MSHR @p mshr:
     * what processRequest() sends and what classify() asks the
     * downstream port to admit.
     */
    CacheReq fetchReq(const CacheReq &req, int mshr) const;

    // Out-of-line halves of the quiescence API: everything past the
    // header-inlined memo checks.
    bool quiescentSlow() const;
    Cycle nextEventAtSlow() const;
    void skipCyclesSlow(Cycle n);

    /**
     * One-decision memo: quiescent() stores the head's classify()
     * decision. The skipCycles() that follows reads its stall kind
     * instead of re-classifying, and tick() processes the head with it
     * unless it read the downstream port (kAllocate, kDownstreamFull),
     * so a hit is classified once. Every slow quiescent() probe
     * refreshes it, and the entry points that clear verdict_ — every one
     * that changes this cache's state or its queue head — clear it
     * too, so a memo that survives holds for the head as it stands.
     */
    mutable Decision memo_{Action::kHit};
    mutable bool memoValid_ = false;

    /**
     * Cross-cycle memo of the whole quiescent() verdict, so the common
     * long-lived idle shapes cost one compare per scheduler query. An
     * idle cache, a head not yet due or an MSHR-full head sleeps until
     * a deadline (kNeverCycle when only a fill or a request can wake
     * it); a due head stalled on a full downstream port watches the
     * port's departure counter. Cleared by tick(), complete(),
     * invalidateLine() and installLine(); a request() onto an empty
     * queue tightens the deadline to the new head's service time.
     */
    mutable QuiescenceMemo verdict_;
    //! Downstream pop counter, resolved once at wiring (null when the
    //! port does not track departures).
    const std::uint64_t *downstreamPopAddr_ = nullptr;

    void issuePrefetches();
    void drainWritebacks();

    const Config cfg_;
    PortSlot<CacheReq> downstream_{"downstream"};
    std::unique_ptr<Prefetcher> prefetcher_;
    std::vector<Cache *> children_;

    unsigned numSets_;
    // Tag store as flat structure-of-arrays: way w of set s lives at
    // s * assoc + w, so a set's tag search reads one contiguous run.
    std::vector<Addr> tags_;              //!< kNoLine: invalid way
    std::vector<std::uint64_t> lastUse_;  //!< LRU stamp
    std::vector<std::uint8_t> dirty_;
    std::vector<std::uint8_t> prefetched_;

    std::vector<Mshr> mshrs_;
    //! Per set: first MSHR of the chain of live MSHRs whose line maps
    //! to that set (linked through Mshr::next), or kNoMshr.
    std::vector<std::int32_t> mshrHead_;
    //! Bit i set: mshrs_[i] is free.
    std::vector<std::uint64_t> freeMshrs_;
    unsigned mshrsInUse_ = 0; //!< live entries in mshrs_ (O(1) busy())
    //! Input queue, reserved to queueSize so a reference to the head
    //! survives the pushes its processing may trigger upstream.
    Ring<Pending> queue_;
    Ring<Addr> writebacks_; //!< dirty victim lines awaiting drain
    std::uint64_t popCount_ = 0;  //!< input-queue departures

    Cycle now_ = 0;
    std::uint64_t useCounter_ = 0;
    Stats stats_;
};

} // namespace dx::cache

#endif // DX_CACHE_CACHE_HH
