/**
 * @file
 * Memory controller tests: latency, row-buffer behaviour, bank-group
 * spacing, write drain, refresh, and FR-FCFS reordering.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/rng.hh"
#include "mem/dram_system.hh"

using namespace dx;
using namespace dx::mem;

namespace
{

struct Collector : public MemRespSink
{
    struct Done
    {
        std::uint64_t tag;
        Cycle at;
        bool write;
    };

    std::vector<Done> done;
    DramSystem *dram = nullptr;

    void
    complete(const MemRequest &req) override
    {
        done.push_back({req.tag,
                        dram->channel(req.coord.channel).now(),
                        req.write});
    }
};

DramSystem::Config
testConfig(bool refresh = false)
{
    DramSystem::Config cfg;
    cfg.ctrl.timings.refreshEnabled = refresh;
    return cfg;
}

void
run(DramSystem &dram, Cycle coreCycles)
{
    for (Cycle i = 0; i < coreCycles; ++i)
        dram.tick();
}

void
runUntilIdle(DramSystem &dram, Cycle maxCore = 2'000'000)
{
    for (Cycle i = 0; i < maxCore && !dram.idle(); ++i)
        dram.tick();
    ASSERT_TRUE(dram.idle());
}

} // namespace

TEST(Controller, SingleReadLatencyIsActPlusCasPlusBurst)
{
    DramSystem dram(testConfig());
    Collector sink;
    sink.dram = &dram;

    dram.access(0, false, Origin::kCpuDemand, 1, &sink);
    runUntilIdle(dram);

    ASSERT_EQ(sink.done.size(), 1u);
    const auto &t = dram.channel(0).config().timings;
    // Closed bank: ACT at cycle ~1, RD at +tRCD, data at +tCL+tBL.
    const Cycle expect = 1 + t.tRCD + t.tCL + t.tBL;
    EXPECT_NEAR(static_cast<double>(sink.done[0].at),
                static_cast<double>(expect), 2.0);
}

TEST(Controller, RowHitFollowsFasterThanRowMiss)
{
    DramSystem dram(testConfig());
    Collector sink;
    sink.dram = &dram;

    // Two lines in the same row (stride channels*bankGroups lines), then
    // one in a different row of the same bank.
    const AddressMap &map = dram.addressMap();
    const DramCoord c0 = map.decompose(0);
    DramCoord hit = c0;
    hit.column = c0.column + 1;
    DramCoord miss = c0;
    miss.row = c0.row + 1;

    dram.access(map.compose(c0), false, Origin::kCpuDemand, 0, &sink);
    dram.access(map.compose(hit), false, Origin::kCpuDemand, 1, &sink);
    dram.access(map.compose(miss), false, Origin::kCpuDemand, 2, &sink);
    runUntilIdle(dram);

    ASSERT_EQ(sink.done.size(), 3u);
    const auto &s = dram.channel(c0.channel).stats();
    EXPECT_EQ(s.rowHits.value(), 1u);
    EXPECT_EQ(s.rowMisses.value(), 2u);
    EXPECT_EQ(s.rowConflicts.value(), 1u);

    // The same-row access completes tCCD_L after the opener; the
    // conflicting row needs PRE + ACT + CAS.
    const Cycle hitGap = sink.done[1].at - sink.done[0].at;
    const Cycle missGap = sink.done[2].at - sink.done[1].at;
    EXPECT_LT(hitGap, missGap);
}

TEST(Controller, FrfcfsReordersRowHitsAheadOfOlderConflicts)
{
    DramSystem dram(testConfig());
    Collector sink;
    sink.dram = &dram;

    const AddressMap &map = dram.addressMap();
    const DramCoord base = map.decompose(0);

    // Open row R (tag 0), then a conflicting row (tag 1), then another
    // access to R (tag 2). FR-FCFS should serve 0, 2, then 1.
    DramCoord conflict = base;
    conflict.row = base.row + 5;
    DramCoord hit = base;
    hit.column = base.column + 3;

    dram.access(map.compose(base), false, Origin::kCpuDemand, 0, &sink);
    // Let the ACT for row R land before the conflict arrives.
    run(dram, 8);
    dram.access(map.compose(conflict), false, Origin::kCpuDemand, 1,
                &sink);
    dram.access(map.compose(hit), false, Origin::kCpuDemand, 2, &sink);
    runUntilIdle(dram);

    ASSERT_EQ(sink.done.size(), 3u);
    EXPECT_EQ(sink.done[0].tag, 0u);
    EXPECT_EQ(sink.done[1].tag, 2u);
    EXPECT_EQ(sink.done[2].tag, 1u);
}

TEST(Controller, BankGroupInterleavingBeatsSameBankGroupStreams)
{
    // Issue 64 reads to open rows: once to columns spread across bank
    // groups, once confined to a single bank group. The interleaved set
    // must finish faster (tCCD_S vs tCCD_L).
    auto elapsed = [](bool interleave) {
        DramSystem dram(testConfig());
        Collector sink;
        sink.dram = &dram;
        const AddressMap &map = dram.addressMap();

        unsigned issued = 0;
        Cycle core = 0;
        while (issued < 64 || !dram.idle()) {
            while (issued < 64) {
                DramCoord c{};
                c.channel = 0;
                c.bankGroup = interleave ? (issued % 4) : 0;
                c.bank = 0;
                c.row = 0;
                c.column = issued / (interleave ? 4 : 1);
                const Addr a = map.compose(c);
                if (!dram.canAccept(a, false))
                    break;
                dram.access(a, false, Origin::kCpuDemand, issued, &sink);
                ++issued;
            }
            dram.tick();
            ++core;
        }
        return core;
    };

    const Cycle inter = elapsed(true);
    const Cycle same = elapsed(false);
    EXPECT_LT(inter, same);
    // Same-bank-group streams are limited by tCCD_L = 2 * tCCD_S.
    EXPECT_GT(static_cast<double>(same) / inter, 1.5);
}

TEST(Controller, WritesDrainAndComplete)
{
    DramSystem dram(testConfig());
    Collector sink;
    sink.dram = &dram;

    for (unsigned i = 0; i < 24; ++i) {
        dram.access(Addr{i} * kLineBytes, true, Origin::kWriteback, i,
                    &sink);
    }
    runUntilIdle(dram);
    EXPECT_EQ(sink.done.size(), 24u);
    std::uint64_t writes = 0;
    for (unsigned c = 0; c < dram.channels(); ++c)
        writes += dram.channel(c).stats().writesServed.value();
    EXPECT_EQ(writes, 24u);
}

TEST(Controller, ReadsPreferredOverWritesBelowWatermark)
{
    DramSystem dram(testConfig());
    Collector sink;
    sink.dram = &dram;

    // A few writes (below the high watermark) plus a read: the read
    // should complete before any write is drained.
    for (unsigned i = 0; i < 4; ++i) {
        dram.access(Addr{i} * 4096, true, Origin::kWriteback, 100 + i,
                    &sink);
    }
    dram.access(Addr{1} << 20, false, Origin::kCpuDemand, 0, &sink);
    runUntilIdle(dram);

    ASSERT_FALSE(sink.done.empty());
    // Find the read; ensure it is among the first completions on its
    // channel.
    bool readSeen = false;
    for (const auto &d : sink.done) {
        if (d.tag == 0) {
            readSeen = true;
            break;
        }
        // Writes that completed before the read must be on the other
        // channel.
        EXPECT_NE(dram.channelOf(Addr{d.tag - 100} * 4096),
                  dram.channelOf(Addr{1} << 20));
    }
    EXPECT_TRUE(readSeen);
}

TEST(Controller, RefreshClosesRowsPeriodically)
{
    DramSystem dram(testConfig(true));
    Collector sink;
    sink.dram = &dram;

    // Run past one tREFI with no traffic; a REF must have been issued.
    const auto &t = dram.channel(0).config().timings;
    run(dram, (t.tREFI + t.tRFC + 100) * 2);
    EXPECT_GE(dram.channel(0).stats().refCommands.value(), 1u);

    // Requests issued after refresh still complete.
    dram.access(0, false, Origin::kCpuDemand, 1, &sink);
    runUntilIdle(dram);
    EXPECT_EQ(sink.done.size(), 1u);
}

TEST(Controller, BackpressureReportsQueueFull)
{
    DramSystem dram(testConfig());
    // Fill channel 0's read queue (32 entries).
    unsigned enqueued = 0;
    for (unsigned i = 0; enqueued < 32; ++i) {
        const Addr a = Addr{i} * kLineBytes;
        if (dram.channelOf(a) != 0)
            continue;
        ASSERT_TRUE(dram.canAccept(a, false));
        dram.access(a, false, Origin::kCpuDemand, i, nullptr);
        ++enqueued;
    }
    // Next request to channel 0 must be refused.
    Addr a = 0;
    EXPECT_FALSE(dram.canAccept(a, false));
}

TEST(Controller, StreamingReachesHighBusUtilization)
{
    // Sequential lines with the default interleaved mapping should keep
    // the data bus busy most of the time once the queues are primed.
    DramSystem dram(testConfig());
    Collector sink;
    sink.dram = &dram;

    Addr next = 0;
    const Addr total = 4000;
    Addr issued = 0;
    while (issued < total || !dram.idle()) {
        while (issued < total && dram.canAccept(next, false)) {
            dram.access(next, false, Origin::kCpuDemand, issued, &sink);
            next += kLineBytes;
            ++issued;
        }
        dram.tick();
    }

    EXPECT_GT(dram.busUtilization(), 0.85);
    EXPECT_GT(dram.rowHitRate(), 0.9);
}

TEST(Controller, RandomRowsYieldLowRowHitRate)
{
    DramSystem dram(testConfig());
    Collector sink;
    sink.dram = &dram;
    dx::Rng rng(99);

    Addr issued = 0;
    const Addr total = 4000;
    while (issued < total || !dram.idle()) {
        while (issued < total) {
            const Addr a =
                lineAlign(rng.below(dram.geometry().capacity()));
            if (!dram.canAccept(a, false))
                break;
            dram.access(a, false, Origin::kCpuDemand, issued, &sink);
            ++issued;
        }
        dram.tick();
    }

    EXPECT_LT(dram.rowHitRate(), 0.4);
    EXPECT_LT(dram.busUtilization(), 0.7);
}

TEST(Controller, QuiescentRightAfterProductiveTick)
{
    // A tick that issues a command leaves the channel with nothing to
    // do until the next bank timer expires. quiescent() must say so on
    // the very next probe, so the scheduler can skip the wait at once.
    DramSystem dram(testConfig());
    Collector sink;
    sink.dram = &dram;
    dram.access(0, false, Origin::kCpuDemand, 1, &sink);

    MemoryController &ch = dram.channel(0);
    ch.tick();
    ASSERT_EQ(ch.stats().actCommands.value(), 1u);
    ASSERT_GE(ch.nextEventAt(), ch.now() + 2);
    EXPECT_TRUE(ch.quiescent());

    // Ticking on still serves the read.
    runUntilIdle(dram);
    ASSERT_EQ(sink.done.size(), 1u);
}

TEST(Controller, EnqueueToUnservedQueueKeepsNextEvent)
{
    // The readiness table covers only the served queue, so a write
    // arriving while reads are served (and below the drain watermark)
    // leaves the channel's next event where the read's RD is due.
    DramSystem dram(testConfig());
    Collector sink;
    sink.dram = &dram;
    dram.access(0, false, Origin::kCpuDemand, 1, &sink);

    MemoryController &ch = dram.channel(0);
    ch.tick();
    ASSERT_EQ(ch.stats().actCommands.value(), 1u);
    ASSERT_EQ(ch.now(), 1u);
    const Cycle rdAt = 1 + ch.config().timings.tRCD;
    ASSERT_EQ(ch.nextEventAt(), rdAt);

    DramCoord c{};
    c.channel = 0;
    c.bankGroup = 1;
    dram.access(dram.addressMap().compose(c), true, Origin::kCpuDemand, 2,
                &sink);
    EXPECT_EQ(ch.nextEventAt(), rdAt);
    EXPECT_TRUE(ch.quiescent());

    runUntilIdle(dram);
    EXPECT_EQ(sink.done.size(), 2u);
}

namespace
{

/** Completions of a directly driven controller, in order. */
struct OrderSink : public MemRespSink
{
    std::vector<std::uint64_t> tags;
    std::vector<bool> neededAct;

    void
    complete(const MemRequest &req) override
    {
        tags.push_back(req.tag);
        neededAct.push_back(req.neededAct);
    }
};

/**
 * Tick @p ctrl once, audit its FR-FCFS summaries, and name the command
 * it issued ("" for none). "PRE!" is a conflict precharge; a plain
 * "PRE" closes a row for refresh.
 */
std::string
stepCommand(MemoryController &ctrl)
{
    const MemoryController::Stats before = ctrl.stats();
    ctrl.tick();
    ctrl.checkSummaries();
    const MemoryController::Stats &s = ctrl.stats();
    if (s.actCommands.value() != before.actCommands.value())
        return "ACT";
    if (s.rowConflicts.value() != before.rowConflicts.value())
        return "PRE!";
    if (s.preCommands.value() != before.preCommands.value())
        return "PRE";
    if (s.refCommands.value() != before.refCommands.value())
        return "REF";
    if (s.readsServed.value() != before.readsServed.value())
        return "RD";
    if (s.writesServed.value() != before.writesServed.value())
        return "WR";
    return "";
}

} // namespace

TEST(Controller, RowPinningAcrossWriteModeAndRefresh)
{
    MemoryController::Config cfg; // refresh on, tREFI = 12480
    MemoryController ctrl(cfg, 0);
    OrderSink sink;
    std::vector<std::string> log;

    auto enqueue = [&](std::uint64_t tag, bool write, std::uint32_t row,
                       std::uint16_t column) {
        MemRequest req;
        req.write = write;
        req.tag = tag;
        req.sink = &sink;
        req.coord.row = row; // channel 0, bank group 0, bank 0
        req.coord.column = column;
        ctrl.enqueue(req);
        ctrl.checkSummaries();
    };
    auto runTo = [&](Cycle until) {
        while (ctrl.now() < until) {
            if (std::string cmd = stepCommand(ctrl); !cmd.empty())
                log.push_back(cmd);
        }
    };

    // Phase 1: one ACT opens row 10 with hits queued in both queues.
    // Reads drain first, then the empty read queue switches to write
    // mode, where the two row-10 writes pin the row against the older
    // row-20 conflict until both have issued.
    enqueue(0, false, 10, 0);
    enqueue(1, false, 10, 1);
    enqueue(2, true, 10, 2);
    enqueue(3, true, 20, 3);
    enqueue(4, true, 10, 4);
    runTo(1000);
    EXPECT_EQ(log, (std::vector<std::string>{"ACT", "RD", "RD", "WR",
                                             "WR", "PRE!", "ACT", "WR"}));
    EXPECT_EQ(sink.tags, (std::vector<std::uint64_t>{0, 1, 2, 4, 3}));
    EXPECT_EQ(ctrl.stats().rowHits.value(), 3u);
    EXPECT_EQ(ctrl.stats().rowMisses.value(), 2u);
    ASSERT_TRUE(ctrl.idle());

    // Phase 2: just before the refresh deadline, row 30 is opened for
    // two queued hits. Refresh closes it anyway (un-pinning it), and
    // the hits re-open it afterwards, ahead of the row-40 conflict.
    log.clear();
    sink.tags.clear();
    sink.neededAct.clear();
    runTo(cfg.timings.tREFI - 40);
    enqueue(10, false, 30, 0);
    enqueue(11, false, 40, 1);
    enqueue(12, false, 30, 2);
    runTo(cfg.timings.tREFI + 2000);
    EXPECT_EQ(log, (std::vector<std::string>{"PRE!", "ACT", "PRE", "REF",
                                             "ACT", "RD", "RD", "PRE!",
                                             "ACT", "RD"}));
    EXPECT_EQ(sink.tags, (std::vector<std::uint64_t>{10, 12, 11}));
    // Tag 10 needed both ACTs of row 30; tag 12 rode the second one.
    EXPECT_EQ(sink.neededAct, (std::vector<bool>{true, false, true}));
    EXPECT_EQ(ctrl.stats().refCommands.value(), 1u);
    EXPECT_TRUE(ctrl.idle());
}
