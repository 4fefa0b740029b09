/**
 * @file
 * Remaining unit coverage: SimMemory sparsity and typed access, the
 * FIFO ring, the quiescence memo, the bump allocator, Scale /
 * coreSlice partitioning, the RNG's determinism and distribution
 * sanity, stream-scalar edge cases, and the area/power model
 * identities.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <deque>
#include <map>

#include "common/ring.hh"
#include "common/rng.hh"
#include "common/sim_memory.hh"
#include "model/area_power.hh"
#include "sim/component.hh"
#include "workloads/workload.hh"

using namespace dx;

TEST(SimMemory, SparseFramesAndZeroFill)
{
    SimMemory mem;
    EXPECT_EQ(mem.framesAllocated(), 0u);
    EXPECT_EQ(mem.read<std::uint64_t>(0x123456789), 0u); // read never
    EXPECT_EQ(mem.framesAllocated(), 0u);                // materializes

    mem.write<std::uint32_t>(0x123456789, 42);
    EXPECT_EQ(mem.framesAllocated(), 1u);
    EXPECT_EQ(mem.read<std::uint32_t>(0x123456789), 42u);
}

TEST(SimMemory, CrossFrameAccesses)
{
    SimMemory mem;
    const Addr boundary = SimMemory::kFrameBytes;
    mem.write<std::uint64_t>(boundary - 4, 0x1122334455667788ULL);
    EXPECT_EQ(mem.read<std::uint64_t>(boundary - 4),
              0x1122334455667788ULL);
    EXPECT_EQ(mem.framesAllocated(), 2u);

    std::uint8_t buf[256];
    mem.readBytes(boundary - 128, buf, 256);
    mem.writeBytes(boundary - 128, buf, 256);
}

TEST(SimMemory, ZeroRange)
{
    SimMemory mem;
    mem.write<std::uint64_t>(0x1000, ~0ULL);
    mem.write<std::uint64_t>(0x1008, ~0ULL);
    mem.zero(0x1004, 8);
    EXPECT_EQ(mem.read<std::uint32_t>(0x1000), 0xffffffffu);
    EXPECT_EQ(mem.read<std::uint32_t>(0x1004), 0u);
    EXPECT_EQ(mem.read<std::uint32_t>(0x1008), 0u);
    EXPECT_EQ(mem.read<std::uint32_t>(0x100c), 0xffffffffu);
}

TEST(Ring, FifoAcrossWrapAroundAndGrowth)
{
    // Interleave pushes and pops so the head wraps the array several
    // times, and grow past the first capacity while wrapped.
    Ring<int> ring;
    std::deque<int> model;
    Rng rng(21);
    int next = 0;
    for (int step = 0; step < 5000; ++step) {
        const unsigned pushPct = step < 2500 ? 55 : 45;
        const bool push = model.empty() || rng.below(100) < pushPct;
        if (push) {
            ring.push_back(next);
            model.push_back(next++);
        } else {
            ASSERT_EQ(ring.front(), model.front()) << "step " << step;
            ring.pop_front();
            model.pop_front();
        }
        ASSERT_EQ(ring.size(), model.size());
        ASSERT_EQ(ring.empty(), model.empty());
    }
    EXPECT_GT(next, 2000);
    while (!model.empty()) {
        ASSERT_EQ(ring.front(), model.front());
        ring.pop_front();
        model.pop_front();
    }
    EXPECT_TRUE(ring.empty());
}

TEST(Ring, IndexCountsFromTheHead)
{
    Ring<int> ring;
    ring.reserve(5); // rounds up to 8 slots
    for (int i = 0; i < 6; ++i)
        ring.push_back(i);
    for (int i = 0; i < 4; ++i)
        ring.pop_front();
    for (int i = 6; i < 12; ++i)
        ring.push_back(i); // wraps: 8 live entries in 8 slots
    ASSERT_EQ(ring.size(), 8u);
    for (std::size_t i = 0; i < ring.size(); ++i)
        EXPECT_EQ(ring[i], static_cast<int>(4 + i));
    ring.push_back(12); // full while wrapped: grows, keeping the order
    ring[0] = 40;
    EXPECT_EQ(ring.front(), 40);
    for (std::size_t i = 1; i < ring.size(); ++i)
        EXPECT_EQ(ring[i], static_cast<int>(4 + i));
}

TEST(QuiescenceMemo, ClearedNeverHolds)
{
    QuiescenceMemo memo;
    EXPECT_FALSE(memo.holds(0));
    EXPECT_FALSE(memo.holds(1));
    memo.sleepUntil(kNeverCycle);
    EXPECT_TRUE(memo.holds(1));
    memo.clear();
    EXPECT_FALSE(memo.holds(0));
    EXPECT_FALSE(memo.holds(1));
    EXPECT_EQ(memo.watch, nullptr);
}

TEST(QuiescenceMemo, SleepHoldsUpToItsDeadline)
{
    QuiescenceMemo memo;
    memo.sleepUntil(10);
    EXPECT_TRUE(memo.holds(0));
    EXPECT_TRUE(memo.holds(9));
    EXPECT_FALSE(memo.holds(10));
    EXPECT_FALSE(memo.holds(11));
    EXPECT_EQ(memo.until, 10u);
}

TEST(QuiescenceMemo, BlockedHoldsUntilTheCounterMoves)
{
    std::uint64_t pops = 7;
    QuiescenceMemo memo;
    memo.blockOn(&pops);
    EXPECT_EQ(memo.until, kNeverCycle); // no deadline of its own
    EXPECT_TRUE(memo.holds(1));
    EXPECT_TRUE(memo.holds(1'000'000'000));
    ++pops;
    EXPECT_FALSE(memo.holds(1));
    ++pops; // a counter only moves forward: the verdict never returns
    EXPECT_FALSE(memo.holds(1));
    EXPECT_FALSE(memo.holds(1'000'000'000));
}

TEST(QuiescenceMemo, SleepAfterBlockDropsTheWatch)
{
    std::uint64_t pops = 0;
    QuiescenceMemo memo;
    memo.blockOn(&pops);
    memo.sleepUntil(50);
    EXPECT_EQ(memo.watch, nullptr);
    ++pops;
    EXPECT_TRUE(memo.holds(49));
    EXPECT_FALSE(memo.holds(50));
}

TEST(QuiescenceMemo, ArrivalTightensOnlyAHeldDeadline)
{
    // An arrival due at cycle 20 tightens a held deadline to 20...
    QuiescenceMemo memo;
    memo.sleepUntil(kNeverCycle);
    memo.until = std::min(memo.until, Cycle{20});
    EXPECT_TRUE(memo.holds(19));
    EXPECT_FALSE(memo.holds(20));
    // ...never loosens an earlier one...
    memo.sleepUntil(12);
    memo.until = std::min(memo.until, Cycle{20});
    EXPECT_EQ(memo.until, 12u);
    // ...and leaves a cleared memo holding nothing.
    memo.clear();
    memo.until = std::min(memo.until, Cycle{20});
    EXPECT_FALSE(memo.holds(0));
}

TEST(SimAllocator, AlignsToHugePages)
{
    SimAllocator alloc;
    const Addr a = alloc.alloc(100);
    const Addr b = alloc.alloc(100);
    EXPECT_EQ(a % SimAllocator::kHugePage, 0u);
    EXPECT_EQ(b % SimAllocator::kHugePage, 0u);
    EXPECT_GE(b, a + 100);

    const Addr c = alloc.alloc(64, 64);
    EXPECT_EQ(c % 64, 0u);
}

TEST(ArrayRef, TypedAccessors)
{
    SimMemory mem;
    SimAllocator alloc;
    auto arr = ArrayRef<double>::make(mem, alloc, 16);
    arr.set(3, 2.5);
    EXPECT_EQ(arr.at(3), 2.5);
    EXPECT_EQ(arr.addrOf(3), arr.base() + 24);
    EXPECT_EQ(arr.bytes(), 128u);
}

TEST(CoreSlice, PartitionsExactlyAndInOrder)
{
    for (std::size_t n : {0u, 1u, 7u, 100u, 4096u}) {
        std::size_t covered = 0;
        std::size_t prevEnd = 0;
        for (unsigned c = 0; c < 4; ++c) {
            const auto [b, e] = wl::coreSlice(n, c, 4);
            EXPECT_EQ(b, prevEnd);
            EXPECT_LE(b, e);
            covered += e - b;
            prevEnd = e;
        }
        EXPECT_EQ(covered, n);
        EXPECT_EQ(prevEnd, n);
    }
}

TEST(Scale, FloorsAtSixteen)
{
    EXPECT_EQ(wl::Scale{1.0}.of(1024), 1024u);
    EXPECT_EQ(wl::Scale{0.5}.of(1024), 512u);
    EXPECT_EQ(wl::Scale{0.0001}.of(1024), 16u);
}

TEST(Scale, UnrepresentableSizeIsFatal)
{
    // Casting these products to size_t would be undefined behaviour.
    ScopedFatalThrow guard;
    EXPECT_THROW(wl::Scale{1e300}.of(1024), FatalError);
    EXPECT_THROW(wl::Scale{0x1p64}.of(1), FatalError);
    EXPECT_THROW(wl::Scale{std::nan("")}.of(1024), FatalError);
    EXPECT_EQ(wl::Scale{0x1p40}.of(1024), std::size_t{1} << 50);
}

TEST(Rng, DeterministicAndBounded)
{
    Rng a(99), b(99), c(100);
    bool diverged = false;
    for (int i = 0; i < 1000; ++i) {
        const auto va = a.next();
        EXPECT_EQ(va, b.next());
        if (va != c.next())
            diverged = true;
    }
    EXPECT_TRUE(diverged);

    Rng r(5);
    for (int i = 0; i < 10000; ++i) {
        EXPECT_LT(r.below(17), 17u);
        const double d = r.real();
        EXPECT_GE(d, 0.0);
        EXPECT_LT(d, 1.0);
    }
}

TEST(Rng, RoughlyUniform)
{
    Rng r(7);
    std::map<std::uint64_t, unsigned> hist;
    const int n = 80000;
    for (int i = 0; i < n; ++i)
        ++hist[r.below(8)];
    for (std::uint64_t k = 0; k < 8; ++k) {
        EXPECT_GT(hist[k], n / 8 - n / 40) << "bucket " << k;
        EXPECT_LT(hist[k], n / 8 + n / 40) << "bucket " << k;
    }
}

TEST(AreaPower, TotalsMatchComponentSums)
{
    using M = model::AreaPowerModel;
    double area = 0, power = 0;
    for (const auto &c : M::components()) {
        area += c.areaMm2atlas28;
        power += c.powerMw28;
    }
    EXPECT_DOUBLE_EQ(M::totalArea28(), area);
    EXPECT_DOUBLE_EQ(M::totalPower28(), power);
    // Paper: 4.061 mm^2 / 777.17 mW (their per-component rounding).
    EXPECT_NEAR(M::totalArea28(), 4.061, 0.01);
    EXPECT_NEAR(M::totalPower28(), 777.17, 0.5);
    EXPECT_NEAR(M::totalArea14(), 1.5, 0.01);
    EXPECT_NEAR(M::processorOverhead(4), 0.037, 0.002);
}
