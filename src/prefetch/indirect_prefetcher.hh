/**
 * @file
 * DMP-style indirect (differential-matching) prefetcher model.
 *
 * Reproduces the behaviour class of the paper's comparison point
 * (Fu et al., HPCA'24): a stream detector finds strided index loads
 * B[i]; a pattern matcher correlates recently loaded index *values*
 * with later demand-miss *addresses* to learn (base, scale) of the
 * dependent access A[B[i]]; once confident, every index load triggers a
 * prefetch of A[B[i + d]] using the index value d elements ahead.
 *
 * The model reads the future index value from the functional memory —
 * an idealization standing in for DMP's prefetched index lines. This is
 * generous to DMP (perfect value knowledge once the pattern is
 * learned), so DX100's advantage over it is measured conservatively.
 * Like the real design, it prefetches conditional accesses
 * unconditionally (cache pollution) and leaves the core's instruction
 * stream untouched.
 */

#ifndef DX_PREFETCH_INDIRECT_PREFETCHER_HH
#define DX_PREFETCH_INDIRECT_PREFETCHER_HH

#include <cstdint>
#include <vector>

#include "cache/prefetcher.hh"
#include "common/ring.hh"
#include "common/sim_memory.hh"
#include "sim/component.hh"

namespace dx::prefetch
{

class IndirectPrefetcher final : public Component,
                                 public cache::Prefetcher
{
  public:
    struct Config
    {
        unsigned streamTableSize = 16; //!< power of two: pc bits
        unsigned patternTableSize = 16; //!< at most 64
        unsigned recentValues = 8;   //!< index values kept for matching
        unsigned distance = 16;      //!< index elements ahead
        int confidenceThreshold = 2;
        unsigned queueMax = 64;
        unsigned streamDegree = 2;   //!< also stream-prefetch the index
    };

    struct Stats
    {
        std::uint64_t patternsLearned = 0;
        std::uint64_t indirectPrefetches = 0;
        std::uint64_t streamPrefetches = 0;
    };

    IndirectPrefetcher(const Config &cfg, const SimMemory *mem);

    void observe(const cache::CacheReq &req, bool miss) override;
    bool nextPrefetch(Addr &line) override;
    bool pending() const override { return !queue_.empty(); }

    // Component introspection (passive component: no tick contract).
    void registerStats(StatRegistry &reg) const override;

    const Stats &stats() const { return stats_; }

    /**
     * Audit the pattern table: the confidence-level masks are disjoint,
     * each pattern sits in the mask of its own confidence, their union
     * is exactly the valid suffix (so the invalid patterns are the
     * prefix), and no (pc, scale, base) is held twice. dx_asserts on a
     * mismatch. For tests; nothing on the simulation path calls it.
     */
    void checkTable() const;

  private:
    struct Stream
    {
        bool valid = false;
        std::uint16_t pc = 0;
        Addr lastAddr = 0;
        std::int64_t stride = 0;
        int confidence = 0;
    };

    struct Recent
    {
        std::uint16_t pc = 0;
        std::uint64_t value = 0;
        Addr addr = 0;        //!< address the value was loaded from
        std::int64_t stride = 0;
        unsigned bytes = 4;   //!< index element size
    };

    struct Pattern
    {
        std::uint16_t indexPc = 0;
        std::int64_t base = 0;
        unsigned scale = 4;
        int confidence = 0;
    };

    Stream &streamFor(std::uint16_t pc);
    void matchMiss(Addr missAddr);
    void triggerIndirect(const Recent &r);
    void push(Addr line);
    /** Move valid pattern @p i to @p confidence, keeping levels_. */
    void setConfidence(unsigned i, int confidence);

    Config cfg_;
    const SimMemory *mem_;
    std::vector<Stream> streams_;
    /**
     * Patterns are never invalidated and are allocated from the highest
     * invalid index down, so the valid ones are exactly the suffix
     * [size - validPatterns_, size).
     */
    std::vector<Pattern> patterns_;
    unsigned validPatterns_ = 0;
    //! Per confidence level 0..threshold+2: bit i set when valid
    //! pattern i has that confidence. The lowest set bit of the lowest
    //! non-empty level is the first weakest pattern.
    std::vector<std::uint64_t> levels_;
    Ring<Recent> recent_;
    Ring<Addr> queue_;
    Stats stats_;
};

} // namespace dx::prefetch

#endif // DX_PREFETCH_INDIRECT_PREFETCHER_HH
