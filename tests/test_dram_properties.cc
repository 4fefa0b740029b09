/**
 * @file
 * Property tests for the DRAM controller: a command-trace checker
 * verifies that every issued command respects the DDR4 timing
 * distances under randomized traffic, and conservation properties
 * (every accepted request is served exactly once) hold across
 * parameterized traffic mixes, and four seeded mixes reproduce pinned
 * completion cycles and controller counters exactly.
 */

#include <gtest/gtest.h>

#include <map>
#include <ostream>
#include <vector>

#include "common/rng.hh"
#include "mem/dram_system.hh"

using namespace dx;
using namespace dx::mem;

namespace
{

struct TrafficParams
{
    const char *name;
    unsigned readPct;     //!< percentage of reads
    unsigned regionBytes; //!< address span (locality knob)
    unsigned ratePer8;    //!< injection attempts per 8 core cycles
};

class TrafficTest : public ::testing::TestWithParam<TrafficParams>
{
};

struct CountingSink : public MemRespSink
{
    std::map<std::uint64_t, unsigned> reads;
    std::map<std::uint64_t, unsigned> writes;

    void
    complete(const MemRequest &req) override
    {
        if (req.write)
            ++writes[req.tag];
        else
            ++reads[req.tag];
    }
};

} // namespace

TEST_P(TrafficTest, EveryAcceptedRequestServedExactlyOnce)
{
    const TrafficParams p = GetParam();
    DramSystem::Config cfg;
    DramSystem dram(cfg);
    CountingSink sink;
    Rng rng(p.readPct * 7 + 13);

    std::uint64_t nextTag = 0;
    std::uint64_t expectedReads = 0;
    std::uint64_t writesIssued = 0;

    for (Cycle t = 0; t < 120000; ++t) {
        for (unsigned k = 0; k < p.ratePer8; ++k) {
            if (rng.below(8) != 0)
                continue;
            const bool write = rng.below(100) >= p.readPct;
            const Addr a = lineAlign(rng.below(p.regionBytes));
            if (!dram.canAccept(a, write))
                continue;
            dram.access(a, write, Origin::kCpuDemand, nextTag++,
                        write ? nullptr : &sink);
            if (write)
                ++writesIssued;
            else
                ++expectedReads;
        }
        dram.tick();
    }
    for (Cycle t = 0; t < 4'000'000 && !dram.idle(); ++t)
        dram.tick();
    ASSERT_TRUE(dram.idle()) << "controller failed to drain";

    EXPECT_EQ(sink.reads.size(), expectedReads);
    for (const auto &[tag, count] : sink.reads)
        EXPECT_EQ(count, 1u) << "read tag " << tag;

    std::uint64_t writesServed = 0;
    std::uint64_t readsServed = 0;
    for (unsigned c = 0; c < dram.channels(); ++c) {
        writesServed += dram.channel(c).stats().writesServed.value();
        readsServed += dram.channel(c).stats().readsServed.value();
    }
    EXPECT_EQ(writesServed, writesIssued);
    EXPECT_EQ(readsServed, expectedReads);
}

TEST_P(TrafficTest, CommandAccountingIsConsistent)
{
    const TrafficParams p = GetParam();
    DramSystem::Config cfg;
    cfg.ctrl.timings.refreshEnabled = false;
    DramSystem dram(cfg);
    Rng rng(p.regionBytes);

    std::uint64_t issued = 0;
    for (Cycle t = 0; t < 60000; ++t) {
        const bool write = rng.below(100) >= p.readPct;
        const Addr a = lineAlign(rng.below(p.regionBytes));
        if (dram.canAccept(a, write)) {
            dram.access(a, write, Origin::kCpuDemand, issued++,
                        nullptr);
        }
        dram.tick();
    }
    for (Cycle t = 0; t < 4'000'000 && !dram.idle(); ++t)
        dram.tick();
    ASSERT_TRUE(dram.idle());

    for (unsigned c = 0; c < dram.channels(); ++c) {
        const auto &s = dram.channel(c).stats();
        // Without refresh, every ACT eventually pairs with a PRE (or
        // leaves a row open at the end) and every column command is a
        // hit or a miss — never both.
        EXPECT_LE(s.preCommands.value(), s.actCommands.value());
        EXPECT_GE(s.preCommands.value() + 16, s.actCommands.value());
        EXPECT_EQ(s.rowHits.value() + s.rowMisses.value(),
                  s.readsServed.value() + s.writesServed.value());
        // Misses require activations.
        EXPECT_LE(s.rowMisses.value(), s.actCommands.value());
        // Data-bus occupancy = tBL per column command.
        EXPECT_EQ(s.busBusyCycles.value(),
                  (s.readsServed.value() + s.writesServed.value()) *
                      cfg.ctrl.timings.tBL);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Mixes, TrafficTest,
    ::testing::Values(
        TrafficParams{"read_only_hot", 100, 1 << 16, 8},
        TrafficParams{"read_only_wide", 100, 64 << 20, 8},
        TrafficParams{"mixed_wide", 70, 64 << 20, 8},
        TrafficParams{"write_heavy", 30, 16 << 20, 8},
        TrafficParams{"mixed_trickle", 50, 8 << 20, 1}),
    [](const ::testing::TestParamInfo<TrafficParams> &info) {
        return info.param.name;
    });

TEST(DramTiming, SameBankActToActRespectsTrc)
{
    // Two conflicting rows in one bank: the second read's completion
    // must be at least tRC after the first row's activation window.
    DramSystem::Config cfg;
    cfg.ctrl.timings.refreshEnabled = false;
    DramSystem dram(cfg);
    const AddressMap &map = dram.addressMap();

    struct Sink : public MemRespSink
    {
        std::vector<Cycle> done;
        DramSystem *d = nullptr;
        void
        complete(const MemRequest &req) override
        {
            done.push_back(d->channel(req.coord.channel).now());
        }
    } sink;
    sink.d = &dram;

    DramCoord c0{};
    DramCoord c1{};
    c1.row = 1;
    dram.access(map.compose(c0), false, Origin::kCpuDemand, 0, &sink);
    dram.access(map.compose(c1), false, Origin::kCpuDemand, 1, &sink);
    for (Cycle t = 0; t < 100000 && !dram.idle(); ++t)
        dram.tick();
    ASSERT_EQ(sink.done.size(), 2u);
    const auto &tm = cfg.ctrl.timings;
    // Second access needs: first RD done enough for tRTP+tRP+tRCD.
    EXPECT_GE(sink.done[1] - sink.done[0], tm.tRTP + tm.tRP + tm.tRCD);
}

TEST(DramTiming, FourActivateWindowLimitsActivationBursts)
{
    DramSystem::Config cfg;
    cfg.ctrl.timings.refreshEnabled = false;
    DramSystem dram(cfg);
    const AddressMap &map = dram.addressMap();

    // 8 reads to 8 distinct banks of channel 0: all need ACTs.
    unsigned issued = 0;
    for (unsigned bg = 0; bg < 4 && issued < 8; ++bg) {
        for (unsigned ba = 0; ba < 2 && issued < 8; ++ba) {
            DramCoord c{};
            c.bankGroup = static_cast<std::uint16_t>(bg);
            c.bank = static_cast<std::uint16_t>(ba);
            dram.access(map.compose(c), false, Origin::kCpuDemand,
                        issued++, nullptr);
        }
    }
    Cycle elapsed = 0;
    while (!dram.idle()) {
        dram.tick();
        ++elapsed;
    }
    // 8 ACTs need two tFAW windows at minimum (in controller cycles;
    // 2 core cycles per controller cycle).
    EXPECT_GE(elapsed / 2, cfg.ctrl.timings.tFAW);
}

// Pinned controller traces: four seeded mixes whose every completion
// cycle and controller counter are pinned to values recorded from the
// controller that walked every bank per command, beyond the golden
// corpus's default 1-rank geometry and timings. A mismatch prints the
// actual trace as a pasteable initializer.

namespace
{

/** One seeded traffic mix against a stand-alone DramSystem. */
struct PinnedMix
{
    const char *name;
    DramSystem::Config cfg;
    unsigned writePct;    //!< percentage of writes
    std::uint64_t region; //!< address span in bytes
    unsigned ratePer8;    //!< injection attempts per 8 core cycles
    Cycle cycles;         //!< core cycles of injection
};

/** The pinned outcome of one mix. */
struct PinnedTrace
{
    std::uint64_t requests = 0;
    std::uint64_t hash = 0; //!< running hash of (tag, completion cycle)
    std::uint64_t sum = 0;  //!< sum of completion cycles
    /** Per channel: every MemoryController::Stats counter, in order. */
    std::vector<std::vector<std::uint64_t>> counters;

    bool
    operator==(const PinnedTrace &o) const
    {
        return requests == o.requests && hash == o.hash && sum == o.sum &&
               counters == o.counters;
    }
};

std::ostream &
operator<<(std::ostream &os, const PinnedTrace &t)
{
    os << "{" << t.requests << "u, " << t.hash << "ull, " << t.sum
       << "ull, {";
    for (const auto &ch : t.counters) {
        os << "{";
        for (std::size_t i = 0; i < ch.size(); ++i)
            os << (i ? ", " : "") << ch[i] << "u";
        os << "},";
    }
    return os << "}}";
}

struct CompletionLog : public MemRespSink
{
    const DramSystem *dram = nullptr;
    PinnedTrace *trace = nullptr;

    void
    complete(const MemRequest &req) override
    {
        const Cycle at = dram->localNow();
        trace->hash = (trace->hash ^ (req.tag * 0x9e3779b97f4a7c15ULL)) *
                          0x100000001b3ULL +
                      at;
        trace->sum += at;
    }
};

/**
 * Drive @p mix through the plain or the scheduled tick path (where
 * quiescent channels skip), auditing every controller's summaries and
 * readiness table each core cycle, then drain.
 */
PinnedTrace
runPinned(const PinnedMix &mix, bool scheduled)
{
    DramSystem dram(mix.cfg);
    PinnedTrace trace;
    CompletionLog log;
    log.dram = &dram;
    log.trace = &trace;
    Rng rng(mix.writePct * 1000003 + mix.region);

    const auto step = [&] {
        if (scheduled)
            dram.tickScheduled();
        else
            dram.tick();
        for (unsigned c = 0; c < dram.channels(); ++c)
            dram.channel(c).checkSummaries();
    };
    for (Cycle t = 0; t < mix.cycles; ++t) {
        for (unsigned k = 0; k < mix.ratePer8; ++k) {
            if (rng.below(8) != 0)
                continue;
            const bool write = rng.below(100) < mix.writePct;
            const Addr a = lineAlign(rng.below(mix.region));
            if (!dram.canAccept(a, write))
                continue;
            dram.access(a, write, Origin::kCpuDemand, trace.requests++,
                        &log);
        }
        step();
    }
    for (Cycle t = 0; t < 4'000'000 && !dram.idle(); ++t)
        step();
    EXPECT_TRUE(dram.idle()) << mix.name << " failed to drain";

    for (unsigned c = 0; c < dram.channels(); ++c) {
        const auto &s = dram.channel(c).stats();
        trace.counters.push_back(
            {s.cycles.value(), s.readsServed.value(),
             s.writesServed.value(), s.rowHits.value(),
             s.rowMisses.value(), s.rowConflicts.value(),
             s.actCommands.value(), s.preCommands.value(),
             s.refCommands.value(), s.busBusyCycles.value(),
             s.occupancyAccum});
    }
    return trace;
}

PinnedMix
makeMix(const char *name, unsigned writePct, std::uint64_t region,
        unsigned ratePer8, Cycle cycles)
{
    PinnedMix mix{name, {}, writePct, region, ratePer8, cycles};
    mix.cfg.ctrl.timings.refreshEnabled = false;
    return mix;
}

/** Both tick paths must reproduce the pinned trace exactly. */
void
expectPinned(const PinnedMix &mix, const PinnedTrace &want)
{
    EXPECT_EQ(runPinned(mix, false), want) << mix.name << ", plain tick";
    EXPECT_EQ(runPinned(mix, true), want) << mix.name << ", scheduled";
}

} // namespace

TEST(DramPinnedTrace, RandomReads)
{
    const PinnedMix mix = makeMix("random_reads", 0, 64 << 20, 8, 40000);
    const PinnedTrace want = {6228u, 18136321561057870032ull, 126173014ull,
        {{20538u, 3125u, 0u, 25u, 3100u, 3084u, 3100u, 3084u, 0u, 12500u,
          642424u},
         {20538u, 3103u, 0u, 23u, 3080u, 3064u, 3080u, 3064u, 0u, 12412u,
          642238u}}};
    expectPinned(mix, want);
}

TEST(DramPinnedTrace, WritesCrossingDrainWatermarks)
{
    // Saturating injection with 30% writes keeps the write queue
    // crossing the high and low watermarks, so write-mode switches,
    // tWTR and tRTW all run.
    const PinnedMix mix =
        makeMix("writes_30pct", 30, 16 << 20, 8, 40000);
    const PinnedTrace want = {5847u, 4778125516354539219ull, 119681196ull,
        {{21004u, 1459u, 1453u, 139u, 2773u, 3021u, 3037u, 3021u, 0u, 11648u,
          1290401u},
         {21004u, 1463u, 1472u, 130u, 2805u, 3052u, 3068u, 3052u, 0u, 11740u,
          1289619u}}};
    expectPinned(mix, want);
}

TEST(DramPinnedTrace, TwoRanksWithRefresh)
{
    PinnedMix mix = makeMix("two_ranks_refresh", 20, 64 << 20, 6, 100000);
    mix.cfg.ctrl.geom.ranks = 2;
    mix.cfg.ctrl.timings.refreshEnabled = true;
    const PinnedTrace want = {13998u, 16449682673946794245ull, 705719036ull,
        {{51206u, 3512u, 3508u, 93u, 6927u, 7361u, 7450u, 7423u, 4u, 28080u,
          3168177u},
         {51206u, 3490u, 3488u, 96u, 6882u, 7363u, 7448u, 7420u, 4u, 27912u,
          3171025u}}};
    expectPinned(mix, want);
}

TEST(DramPinnedTrace, ColumnLowestOrder)
{
    PinnedMix mix = makeMix("co_ch_bg_ba_ro", 10, 4 << 20, 8, 40000);
    mix.cfg.order = MapOrder::kCoChBgBaRo;
    const PinnedTrace want = {6426u, 7442766906207410761ull, 131818124ull,
        {{20663u, 1627u, 1592u, 524u, 2695u, 2989u, 3005u, 2989u, 0u, 12876u,
          1190153u},
         {20663u, 1631u, 1576u, 522u, 2685u, 2966u, 2982u, 2966u, 0u, 12828u,
          1179194u}}};
    expectPinned(mix, want);
}
