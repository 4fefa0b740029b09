/**
 * @file
 * Runtime API and accelerator-unit tests: resource allocation, the
 * TLB, the DMP prefetcher's differential matching (against a reference
 * model of its pattern table), the region directory, tile-size
 * variation, and multi-instance correctness.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <deque>
#include <memory>
#include <vector>

#include "dx100/region_directory.hh"
#include "dx100/tlb.hh"
#include "prefetch/indirect_prefetcher.hh"
#include "workloads/micro.hh"

using namespace dx;
using namespace dx::sim;
using namespace dx::wl;

TEST(Runtime, TileAndRegisterAllocationExhausts)
{
    System sys(SystemConfig::withDx100());
    auto *rt = sys.runtime(0);
    std::vector<unsigned> tiles;
    for (unsigned i = 0; i < sys.dx100(0)->config().numTiles; ++i)
        tiles.push_back(rt->allocTile());
    // All distinct.
    std::sort(tiles.begin(), tiles.end());
    EXPECT_EQ(std::unique(tiles.begin(), tiles.end()), tiles.end());
    // Freeing returns capacity.
    rt->freeTile(tiles[3]);
    EXPECT_EQ(rt->allocTile(), tiles[3]);
}

TEST(Tlb, HugePageRegistrationCoversRegion)
{
    dx100::Tlb tlb(256, 200);
    tlb.installRange(0x40000000, 8 << 20); // 8 MiB = 4 huge pages
    EXPECT_EQ(tlb.lookup(0x40000000), 0u);
    EXPECT_EQ(tlb.lookup(0x40000000 + (7 << 20)), 0u);
    EXPECT_EQ(tlb.misses(), 0u);

    // Untransferred page: one PTE-walk penalty, then resident.
    EXPECT_EQ(tlb.lookup(0x80000000), 200u);
    EXPECT_EQ(tlb.lookup(0x80000000 + 64), 0u);
    EXPECT_EQ(tlb.misses(), 1u);
}

TEST(RegionDirectory, SingleWriterTransfers)
{
    dx100::RegionDirectory dir(100);
    // Instance 0 acquires cold region immediately.
    EXPECT_TRUE(dir.tryAcquireWrite(0, 0x1000, 10));
    // Instance 1 cannot while 0 has a write in flight.
    EXPECT_FALSE(dir.tryAcquireWrite(1, 0x1000, 11));
    dir.releaseWrite(0, 0x1000);
    // Transfer starts; not ready until the latency elapses.
    EXPECT_FALSE(dir.tryAcquireWrite(1, 0x1000, 12));
    EXPECT_FALSE(dir.tryAcquireWrite(1, 0x1000, 50));
    EXPECT_TRUE(dir.tryAcquireWrite(1, 0x1000, 200));
    EXPECT_EQ(dir.transfers(), 1u);
    // Same-owner re-acquire is free.
    dir.releaseWrite(1, 0x1000);
    EXPECT_TRUE(dir.tryAcquireWrite(1, 0x1000, 201));
}

TEST(DmpPrefetcher, LearnsIndirectPatternAndPrefetches)
{
    SimMemory mem;
    const Addr bBase = 0x10000;
    const Addr aBase = 0x400000;
    // B[i] holds indices; A[B[i]] are the dependent accesses.
    std::uint32_t idx[64];
    Rng rng(3);
    for (int i = 0; i < 64; ++i) {
        idx[i] = static_cast<std::uint32_t>(rng.below(4096));
        mem.write<std::uint32_t>(bBase + static_cast<Addr>(i) * 4,
                                 idx[i]);
    }

    prefetch::IndirectPrefetcher::Config cfg;
    prefetch::IndirectPrefetcher pf(cfg, &mem);

    // Feed the observation stream: strided index loads + misses at
    // aBase + idx*4.
    for (int i = 0; i < 40; ++i) {
        cache::CacheReq load;
        load.addr = bBase + static_cast<Addr>(i) * 4;
        load.pc = 11;
        load.value = idx[i];
        pf.observe(load, true);

        cache::CacheReq miss;
        miss.addr = aBase + Addr{idx[i]} * 4;
        miss.pc = 12;
        pf.observe(miss, true);
    }
    EXPECT_GE(pf.stats().patternsLearned, 1u);
    EXPECT_GT(pf.stats().indirectPrefetches, 0u);

    // Prefetched lines must hit future dependent accesses: collect the
    // queue and check against upcoming A[B[i+d]] lines.
    std::set<Addr> targets;
    for (int i = 0; i < 64; ++i)
        targets.insert(lineAlign(aBase + Addr{idx[i]} * 4));
    Addr line;
    unsigned useful = 0, total = 0;
    while (pf.nextPrefetch(line)) {
        ++total;
        // Useful = a dependent A[B[i]] line or an index-stream line.
        const bool indexStream =
            line >= bBase && line < bBase + 64 * 4 + 4096;
        useful += (targets.count(line) || indexStream) ? 1 : 0;
    }
    ASSERT_GT(total, 0u);
    EXPECT_GT(static_cast<double>(useful) / total, 0.5);
}

namespace
{

/**
 * Reference model of the DMP prefetcher: the straightforward form of
 * its pattern table, with a valid bit per pattern, a full scan per
 * candidate and a pointer-chased argmin for the weakest pattern. The
 * observe/matchMiss/triggerIndirect bodies are the simulator's
 * original ones, plus two coverage counters (allocated, replaced).
 */
class ReferenceDmp
{
  public:
    using Config = prefetch::IndirectPrefetcher::Config;

    ReferenceDmp(const Config &cfg, const SimMemory *mem)
        : cfg_(cfg), mem_(mem), streams_(cfg.streamTableSize),
          patterns_(cfg.patternTableSize)
    {
    }

    std::uint64_t patternsLearned = 0;
    std::uint64_t indirectPrefetches = 0;
    std::uint64_t streamPrefetches = 0;
    std::uint64_t allocated = 0; //!< patterns put in an invalid slot
    std::uint64_t replaced = 0;  //!< patterns aged to zero and replaced

    void
    observe(const cache::CacheReq &req, bool miss)
    {
        if (req.origin != mem::Origin::kCpuDemand)
            return;
        if (miss)
            matchMiss(req.addr);
        if (req.write || req.pc == 0)
            return;

        Stream &s = streams_[req.pc % cfg_.streamTableSize];
        if (!s.valid || s.pc != req.pc) {
            s = Stream{};
            s.valid = true;
            s.pc = req.pc;
            s.lastAddr = req.addr;
            return;
        }
        const std::int64_t delta = static_cast<std::int64_t>(req.addr) -
                                   static_cast<std::int64_t>(s.lastAddr);
        s.lastAddr = req.addr;
        if (delta == 0)
            return;
        if (delta == s.stride) {
            if (s.confidence < cfg_.confidenceThreshold + 2)
                ++s.confidence;
        } else {
            if (--s.confidence <= 0) {
                s.stride = delta;
                s.confidence = 1;
            }
            return;
        }
        if (s.confidence < cfg_.confidenceThreshold)
            return;
        const std::int64_t absStride = std::abs(s.stride);
        if (absStride != 4 && absStride != 8)
            return;

        Recent r;
        r.pc = req.pc;
        r.value = req.value;
        r.addr = req.addr;
        r.stride = s.stride;
        r.bytes = static_cast<unsigned>(absStride);
        recent_.push_back(r);
        while (recent_.size() > cfg_.recentValues)
            recent_.pop_front();
        for (unsigned k = 1; k <= cfg_.streamDegree; ++k) {
            push(static_cast<Addr>(
                static_cast<std::int64_t>(req.addr) +
                s.stride * static_cast<std::int64_t>(8 + k)));
            ++streamPrefetches;
        }
        triggerIndirect(r);
    }

    bool
    nextPrefetch(Addr &line)
    {
        if (queue_.empty())
            return false;
        line = queue_.front();
        queue_.pop_front();
        return true;
    }

    bool pending() const { return !queue_.empty(); }

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
        Addr addr = 0;
        std::int64_t stride = 0;
        unsigned bytes = 4;
    };

    struct Pattern
    {
        bool valid = false;
        std::uint16_t indexPc = 0;
        std::int64_t base = 0;
        unsigned scale = 4;
        int confidence = 0;
    };

    void
    push(Addr line)
    {
        if (queue_.size() < cfg_.queueMax)
            queue_.push_back(lineAlign(line));
    }

    void
    matchMiss(Addr missAddr)
    {
        for (const Recent &r : recent_) {
            for (unsigned scale : {4u, 8u}) {
                const std::int64_t base =
                    static_cast<std::int64_t>(missAddr) -
                    static_cast<std::int64_t>(r.value * scale);
                if (base < 0)
                    continue;
                Pattern *free = nullptr;
                Pattern *weakest = &patterns_[0];
                bool handled = false;
                for (auto &p : patterns_) {
                    if (p.valid && p.indexPc == r.pc && p.scale == scale &&
                        p.base == base) {
                        if (p.confidence < cfg_.confidenceThreshold + 2)
                            ++p.confidence;
                        if (p.confidence == cfg_.confidenceThreshold)
                            ++patternsLearned;
                        handled = true;
                        break;
                    }
                    if (!p.valid)
                        free = &p;
                    else if (p.confidence < weakest->confidence)
                        weakest = &p;
                }
                if (handled)
                    continue;
                Pattern *slot = free ? free : weakest;
                if (!free && slot->confidence > 0) {
                    --slot->confidence;
                    continue;
                }
                ++(free ? allocated : replaced);
                slot->valid = true;
                slot->indexPc = r.pc;
                slot->base = base;
                slot->scale = scale;
                slot->confidence = 1;
            }
        }
    }

    void
    triggerIndirect(const Recent &r)
    {
        for (const auto &p : patterns_) {
            if (!p.valid || p.indexPc != r.pc ||
                p.confidence < cfg_.confidenceThreshold) {
                continue;
            }
            const Addr futureAddr = static_cast<Addr>(
                static_cast<std::int64_t>(r.addr) +
                r.stride * static_cast<std::int64_t>(cfg_.distance));
            const std::uint64_t v =
                r.bytes == 4 ? mem_->read<std::uint32_t>(futureAddr)
                             : mem_->read<std::uint64_t>(futureAddr);
            push(static_cast<Addr>(p.base + v * p.scale));
            ++indirectPrefetches;
        }
    }

    Config cfg_;
    const SimMemory *mem_;
    std::vector<Stream> streams_;
    std::vector<Pattern> patterns_;
    std::deque<Recent> recent_;
    std::deque<Addr> queue_;
};

/**
 * Drive the DMP prefetcher and the reference model with one seeded
 * stream: strided index loads from several PCs (4- and 8-byte
 * elements, both directions), the dependent misses A[B[i]] those
 * loads predict, random misses that fill and churn the pattern table,
 * writes and non-demand traffic. After every observe the two must
 * hand out the same prefetch lines and agree on every counter, and
 * the table audit must hold. @p ref is left holding the reference
 * model, whose counters show what the stream covered.
 */
void
runDmpDifferential(const prefetch::IndirectPrefetcher::Config &cfg,
                   std::uint64_t seed, int steps, ReferenceDmp &ref)
{
    SimMemory mem;
    Rng rng(seed);
    struct IndexStream
    {
        std::uint16_t pc;
        Addr base;
        unsigned bytes;
        std::int64_t dir;
        Addr target; //!< base of the dependent array A
        unsigned scale;
        std::int64_t i = 0;
    };
    std::vector<IndexStream> streams;
    for (std::uint16_t k = 0; k < 4; ++k) {
        IndexStream st{static_cast<std::uint16_t>(11 + k),
                       Addr{0x100000} * (k + 1), k % 2 ? 8u : 4u,
                       k == 3 ? -1 : 1, Addr{0x10000000} * (k + 1),
                       k % 3 == 0 ? 8u : 4u};
        for (std::int64_t e = -512; e < 512; ++e) {
            const Addr a = static_cast<Addr>(
                static_cast<std::int64_t>(st.base) + e * st.bytes);
            const std::uint64_t v = rng.below(1 << 16);
            if (st.bytes == 4)
                mem.write<std::uint32_t>(a, static_cast<std::uint32_t>(v));
            else
                mem.write<std::uint64_t>(a, v);
        }
        streams.push_back(st);
    }

    prefetch::IndirectPrefetcher dmp(cfg, &mem);
    ref = ReferenceDmp(cfg, &mem);
    for (int step = 0; step < steps; ++step) {
        cache::CacheReq req;
        bool miss = rng.below(4) != 0;
        IndexStream &st = streams[rng.below(streams.size())];
        switch (rng.below(8)) {
          case 0:
          case 1:
          case 2: {
            // Next index load of one stream (wrapping inside its array).
            st.i = (st.i + 1) % 400;
            req.addr = static_cast<Addr>(
                static_cast<std::int64_t>(st.base) +
                st.dir * st.i * static_cast<std::int64_t>(st.bytes));
            req.pc = st.pc;
            req.value = st.bytes == 4 ? mem.read<std::uint32_t>(req.addr)
                                      : mem.read<std::uint64_t>(req.addr);
            break;
          }
          case 3:
          case 4: {
            // The dependent access that stream's last index predicts.
            const Addr idxAddr = static_cast<Addr>(
                static_cast<std::int64_t>(st.base) +
                st.dir * st.i * static_cast<std::int64_t>(st.bytes));
            const std::uint64_t v =
                st.bytes == 4 ? mem.read<std::uint32_t>(idxAddr)
                              : mem.read<std::uint64_t>(idxAddr);
            req.addr = st.target + v * st.scale;
            req.pc = static_cast<std::uint16_t>(40 + rng.below(3));
            miss = true;
            break;
          }
          case 5:
          case 6:
            req.addr = rng.below(Addr{1} << 32);
            req.pc = 0;
            break;
          default:
            req.addr = rng.below(Addr{1} << 32);
            req.pc = static_cast<std::uint16_t>(rng.below(64));
            req.write = rng.below(2) != 0;
            if (rng.below(2))
                req.origin = mem::Origin::kPrefetch;
            break;
        }

        dmp.observe(req, miss);
        ref.observe(req, miss);
        dmp.checkTable();

        const auto &s = dmp.stats();
        ASSERT_EQ(s.patternsLearned, ref.patternsLearned) << "step " << step;
        ASSERT_EQ(s.indirectPrefetches, ref.indirectPrefetches)
            << "step " << step;
        ASSERT_EQ(s.streamPrefetches, ref.streamPrefetches)
            << "step " << step;
        // Pop a few lines (sometimes none, so the queue cap is hit).
        for (std::uint64_t n = rng.below(6); n > 0; --n) {
            Addr got = 0, want = 0;
            const bool hasGot = dmp.nextPrefetch(got);
            ASSERT_EQ(hasGot, ref.nextPrefetch(want)) << "step " << step;
            if (!hasGot)
                break;
            ASSERT_EQ(got, want) << "step " << step;
        }
        ASSERT_EQ(dmp.pending(), ref.pending()) << "step " << step;
    }
}

} // namespace

TEST(DmpPrefetcher, MatchesReferenceModel)
{
    // Default table (16 patterns, 8 recent values, threshold 2).
    const prefetch::IndirectPrefetcher::Config dflt;
    ReferenceDmp big(dflt, nullptr);
    runDmpDifferential(dflt, 5, 20000, big);
    EXPECT_GT(big.allocated, 15u); // the table filled
    EXPECT_GT(big.replaced, 0u);   // and patterns aged out
    EXPECT_GT(big.patternsLearned, 0u);
    EXPECT_GT(big.indirectPrefetches, 0u);

    // A small, low-threshold table churns constantly.
    prefetch::IndirectPrefetcher::Config small;
    small.patternTableSize = 5;
    small.recentValues = 3;
    small.confidenceThreshold = 1;
    small.queueMax = 8;
    ReferenceDmp churn(small, nullptr);
    runDmpDifferential(small, 9, 20000, churn);
    EXPECT_GT(churn.replaced, 100u);
    EXPECT_GT(churn.patternsLearned, 0u);

    // A full 64-pattern table uses every bit of a level mask.
    prefetch::IndirectPrefetcher::Config wide;
    wide.patternTableSize = 64;
    ReferenceDmp full(wide, nullptr);
    runDmpDifferential(wide, 13, 20000, full);
    EXPECT_GT(full.replaced, 0u);
}

TEST(TileSize, SmallTilesStillCorrect)
{
    for (unsigned t : {1024u, 4096u}) {
        SystemConfig cfg = SystemConfig::withDx100();
        cfg.dx.tileElems = t;
        GatherMicro w(GatherMicro::Mode::kFull, 1 << 14);
        System sys(cfg);
        w.init(sys);
        std::vector<std::unique_ptr<cpu::Kernel>> ks;
        for (unsigned c = 0; c < sys.cores(); ++c) {
            ks.push_back(w.makeKernel(sys, c, true));
            sys.setKernel(c, ks.back().get());
        }
        sys.run();
        EXPECT_TRUE(w.verify(sys)) << "tile " << t;
    }
}

TEST(MultiInstance, TwoInstancesEightCoresCorrect)
{
    SystemConfig cfg = SystemConfig::withDx100(8, 2);
    RmwMicro w(1 << 15, true);
    System sys(cfg);
    w.init(sys);
    std::vector<std::unique_ptr<cpu::Kernel>> ks;
    for (unsigned c = 0; c < sys.cores(); ++c) {
        ks.push_back(w.makeKernel(sys, c, true));
        sys.setKernel(c, ks.back().get());
    }
    const RunStats s = sys.run();
    EXPECT_TRUE(w.verify(sys));
    EXPECT_GT(s.dxInstructions, 0u);
    // Both instances were used (cores 0-3 -> 0, 4-7 -> 1).
    EXPECT_GT(sys.dx100(1)->stats().instructionsRetired.value(), 0u);
}
