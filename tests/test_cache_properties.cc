/**
 * @file
 * Parameterized cache property tests: monotonicity of miss rates in
 * capacity and associativity, write-back conservation (dirty data is
 * never lost), and inclusive-hierarchy invariants under random
 * traffic.
 */

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "cache/cache.hh"
#include "cache/mem_port.hh"
#include "common/rng.hh"
#include "mem/dram_system.hh"

using namespace dx;
using namespace dx::cache;

namespace
{

/** Run a random working-set trace; return demand misses. */
std::uint64_t
missesFor(std::uint64_t cacheBytes, unsigned assoc,
          std::uint64_t workingSet, std::uint64_t accesses,
          std::uint64_t seed)
{
    mem::DramSystem::Config dc;
    dc.ctrl.timings.refreshEnabled = false;
    mem::DramSystem dram(dc);
    DramPort port(dram);

    Cache::Config cfg;
    cfg.sizeBytes = cacheBytes;
    cfg.assoc = assoc;
    cfg.latency = 2;
    cfg.mshrs = 16;
    Cache cache(cfg, &port);

    struct Sink : public CacheRespSink
    {
        std::uint64_t done = 0;
        void complete(const std::uint64_t &) override { ++done; }
    } sink;

    Rng rng(seed);
    std::uint64_t issued = 0;
    CacheReq req; // the next access, sent once the cache admits it
    req.addr = lineAlign(rng.below(workingSet));
    req.sink = &sink;
    while (sink.done < accesses) {
        if (issued < accesses && cache.canAccept(req)) {
            req.tag = issued++;
            cache.request(req);
            req.addr = lineAlign(rng.below(workingSet));
        }
        cache.tick();
        dram.tick();
    }
    return cache.stats().demandMisses.value();
}

} // namespace

TEST(CacheProperties, MissRateMonotoneInCapacity)
{
    const std::uint64_t ws = 256 * 1024;
    std::uint64_t prev = ~std::uint64_t{0};
    for (std::uint64_t size : {32u * 1024, 64u * 1024, 128u * 1024,
                               512u * 1024}) {
        const std::uint64_t m = missesFor(size, 8, ws, 20000, 42);
        EXPECT_LE(m, prev) << "size " << size;
        prev = m;
    }
    // The working set fits the largest cache: only cold misses remain.
    EXPECT_LE(prev, ws / kLineBytes + 16);
}

TEST(CacheProperties, HigherAssociativityNeverMuchWorse)
{
    // With a random trace, conflict misses shrink as associativity
    // grows (allowing small noise).
    const std::uint64_t ws = 128 * 1024;
    const std::uint64_t direct = missesFor(64 * 1024, 1, ws, 20000, 7);
    const std::uint64_t assoc8 = missesFor(64 * 1024, 8, ws, 20000, 7);
    EXPECT_LE(assoc8, direct + direct / 10);
}

TEST(CacheProperties, DirtyEvictionsAllReachMemory)
{
    // Write every line of a 4x-capacity region, then read a disjoint
    // region to force eviction of everything dirty: DRAM must receive
    // exactly one write per dirty line.
    mem::DramSystem::Config dc;
    dc.ctrl.timings.refreshEnabled = false;
    mem::DramSystem dram(dc);
    DramPort port(dram);

    Cache::Config cfg;
    cfg.sizeBytes = 16 * 1024;
    cfg.assoc = 4;
    cfg.latency = 2;
    cfg.mshrs = 8;
    Cache cache(cfg, &port);

    struct Sink : public CacheRespSink
    {
        std::uint64_t done = 0;
        void complete(const std::uint64_t &) override { ++done; }
    } sink;

    auto pump = [&](Addr base, std::uint64_t lines, bool write) {
        std::uint64_t issued = 0;
        const std::uint64_t start = sink.done;
        while (sink.done < start + lines) {
            CacheReq req;
            req.addr = base + issued * kLineBytes;
            req.write = write;
            req.fullLine = write;
            req.tag = issued;
            req.sink = &sink;
            if (issued < lines && cache.canAccept(req)) {
                cache.request(req);
                ++issued;
            }
            cache.tick();
            dram.tick();
        }
    };

    const std::uint64_t dirtyLines = 1024; // 64 KiB of dirty data
    pump(0, dirtyLines, true);
    pump(1 << 20, 2048, false); // evict everything
    for (int t = 0; t < 200000 && !(dram.idle() && !cache.busy()); ++t) {
        cache.tick();
        dram.tick();
    }

    std::uint64_t writes = 0;
    for (unsigned c = 0; c < dram.channels(); ++c)
        writes += dram.channel(c).stats().writesServed.value();
    EXPECT_EQ(writes, dirtyLines);
}

TEST(CacheProperties, InclusiveHierarchyNeverHoldsLineAboveLlc)
{
    // Random traffic through L1->LLC with a tiny inclusive LLC: at any
    // checkpoint, every valid L1 line must be present in the LLC.
    mem::DramSystem::Config dc;
    dc.ctrl.timings.refreshEnabled = false;
    mem::DramSystem dram(dc);
    DramPort port(dram);

    Cache::Config llcCfg;
    llcCfg.name = "LLC";
    llcCfg.sizeBytes = 8 * 1024;
    llcCfg.assoc = 4;
    llcCfg.latency = 4;
    llcCfg.mshrs = 16;
    llcCfg.inclusiveRoot = true;
    Cache llc(llcCfg, &port);

    Cache::Config l1Cfg;
    l1Cfg.name = "L1";
    l1Cfg.sizeBytes = 4 * 1024;
    l1Cfg.assoc = 4;
    l1Cfg.latency = 1;
    l1Cfg.mshrs = 8;
    Cache l1(l1Cfg, &llc);
    llc.addChild(&l1);

    struct Sink : public CacheRespSink
    {
        void complete(const std::uint64_t &) override {}
    } sink;

    Rng rng(11);
    std::vector<Addr> touched;
    for (int step = 0; step < 20000; ++step) {
        // The L1's input queue admits any address, so the coin and the
        // address are drawn only once it has room.
        CacheReq req;
        req.sink = &sink;
        if (l1.canAccept(req) && rng.below(2)) {
            req.addr = lineAlign(rng.below(256 * 1024));
            l1.request(req);
            touched.push_back(lineAlign(req.addr));
        }
        l1.tick();
        llc.tick();
        dram.tick();

        if (step % 1000 == 999) {
            // Inclusion is a tag-store property: a line *installed*
            // in the L1 must be installed (or mid-fill) in the LLC.
            for (const Addr line : touched) {
                if (l1.tagsHold(line)) {
                    EXPECT_TRUE(llc.containsLine(line))
                        << "inclusion violated for 0x" << std::hex
                        << line;
                }
            }
        }
    }
}
