/**
 * @file
 * Failure-injection and misuse tests: illegal API usage panics
 * (caught as death tests), TLB-miss penalties show up in timing,
 * doorbell protocol violations are detected, and the dispatch window
 * survives adversarial instruction mixes.
 */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "common/rng.hh"
#include "dx100/row_table.hh"
#include "mem/address_map.hh"
#include "mem/controller.hh"
#include "runtime/dx100_api.hh"
#include "sim/system.hh"
#include "workloads/micro.hh"

using namespace dx;
using namespace dx::sim;

namespace
{

struct DirectEmitter : public cpu::OpEmitter
{
    dx100::Dx100 *dev = nullptr;
    SeqNum next = 1;

    SeqNum
    emit(const cpu::MicroOp &op) override
    {
        if (dev && op.kind == cpu::OpKind::kMmioStore)
            dev->mmioWrite(op.addr, op.value, 0);
        return next++;
    }
};

/** Emits a single integer op of a fixed latency. */
struct OneAluOpKernel : public cpu::Kernel
{
    explicit OneAluOpKernel(std::uint8_t latency) : latency(latency) {}

    bool more() const override { return !emitted; }

    void
    emitChunk(cpu::OpEmitter &e) override
    {
        e.intOp(latency);
        emitted = true;
    }

    std::uint8_t latency;
    bool emitted = false;
};

} // namespace

using FailureDeathTest = ::testing::Test;

TEST(FailureDeathTest, NonCommutativeRmwPanics)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    System sys(SystemConfig::withDx100());
    auto *rt = sys.runtime(0);
    const unsigned t1 = rt->allocTile();
    const unsigned t2 = rt->allocTile();
    DirectEmitter e;
    e.dev = sys.dx100(0);
    EXPECT_DEATH(rt->irmw(e, 0, runtime::DataType::kU32,
                          runtime::AluOp::kSub, 0x1000, t1, t2),
                 "associative");
}

TEST(FailureDeathTest, OversizedStreamPanics)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    System sys(SystemConfig::withDx100());
    auto *rt = sys.runtime(0);
    const unsigned t = rt->allocTile();
    DirectEmitter e;
    e.dev = sys.dx100(0);
    EXPECT_DEATH(rt->sld(e, 0, runtime::DataType::kU32, 0x1000, t, 0,
                         rt->tileElems() + 1),
                 "tile");
}

TEST(FailureDeathTest, DoubleFreeTilePanics)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    System sys(SystemConfig::withDx100());
    auto *rt = sys.runtime(0);
    const unsigned t = rt->allocTile();
    rt->freeTile(t);
    EXPECT_DEATH(rt->freeTile(t), "unallocated");
}

TEST(FailureDeathTest, OutOfOrderDoorbellWordsPanic)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    System sys(SystemConfig::withDx100());
    auto *dev = sys.dx100(0);
    // Word 1 before word 0 violates the doorbell protocol.
    EXPECT_DEATH(dev->mmioWrite(dev->config().doorbellAddr(0, 1), 0,
                                0),
                 "doorbell");
}

TEST(FailureDeathTest, CycleLimitOverrunNamesStuckComponents)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    System sys(SystemConfig::withDx100());
    wl::GatherMicro w(wl::GatherMicro::Mode::kFull, 1024);
    w.init(sys);
    std::vector<std::unique_ptr<cpu::Kernel>> kernels;
    for (unsigned c = 0; c < sys.cores(); ++c) {
        kernels.push_back(w.makeKernel(sys, c, true));
        sys.setKernel(c, kernels.back().get());
    }
    // Far too few cycles for the gather: the fatal must report where
    // it stopped and which components still hold work.
    EXPECT_DEATH(sys.run(200),
                 "exceeded cycle limit at cycle 200 \\(limit 200.*"
                 "not drained:.* system\\.core0( |$)");
}

TEST(FailureDeathTest, AluLatencyBeyondCompletionWheelPanics)
{
    // The core's completion wheel has 64 slots: a latency of 64 or more
    // would wrap and complete early instead of late.
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    System sys(SystemConfig::baseline(1));
    OneAluOpKernel k(64);
    sys.setKernel(0, &k);
    EXPECT_DEATH(sys.run(1000), "core0: op latency 64");
}

TEST(FailureDeathTest, LongTimingBelowShortTwinIsFatal)
{
    // The bank-group timer scope carries each _L rule and the channel
    // scope each _S rule, which is exact only while _L >= _S.
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    const auto build = [](auto edit) {
        mem::MemoryController::Config cfg;
        edit(cfg.timings);
        mem::MemoryController ctrl(cfg, 0);
    };
    EXPECT_DEATH(build([](mem::DramTimings &t) { t.tCCD_L = 2; }),
                 "ch0: tCCD_L = 2 is below tCCD_S = 4");
    EXPECT_DEATH(build([](mem::DramTimings &t) { t.tRRD_S = 9; }),
                 "ch0: tRRD_L = 8 is below tRRD_S = 9");
    EXPECT_DEATH(build([](mem::DramTimings &t) { t.tWTR_L = 3; }),
                 "ch0: tWTR_L = 3 is below tWTR_S = 4");
}

TEST(FailureDeathTest, GeometryBeyondReadinessMasksIsFatal)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    const auto build = [](auto edit) {
        mem::MemoryController::Config cfg;
        edit(cfg.geom);
        mem::MemoryController ctrl(cfg, 0);
    };
    EXPECT_DEATH(build([](mem::DramGeometry &g) { g.ranks = 8; }),
                 "ch0: banksPerChannel = 128 exceeds the 64");
    EXPECT_DEATH(build([](mem::DramGeometry &g) {
                     g.bankGroups = 32;
                     g.banksPerGroup = 1;
                 }),
                 "ch0: bankGroups = 32 exceeds the 16");
}

TEST(FailureDeathTest, AddressMapFieldNotPowerOfTwoIsFatal)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    const auto build = [](auto edit) {
        mem::DramGeometry g;
        edit(g);
        mem::AddressMap map(g, mem::MapOrder::kChBgCoBaRo);
    };
    EXPECT_DEATH(build([](mem::DramGeometry &g) { g.channels = 3; }),
                 "channels = 3 is not a power of two");
    EXPECT_DEATH(build([](mem::DramGeometry &g) { g.banksPerGroup = 6; }),
                 "banksPerGroup = 6 is not a power of two");
    EXPECT_DEATH(build([](mem::DramGeometry &g) { g.rowBytes = 6144; }),
                 "rowBytes / kLineBytes = 96 is not a power of two");
}

TEST(FailureDeathTest, RowTableSendOutOfOrderPanics)
{
    // A row's sent columns are a prefix of its column list, so only the
    // row's next unsent column may be sent.
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    const auto sendTwice = [](bool skipAhead) {
        dx100::IndirectTables t({1, 4, 4});
        t.reset(2);
        t.insert(0, 7, 0, 0, 0);
        t.insert(0, 7, 1, 0, 1);
        auto req = *t.nextRequest(0);
        if (skipAhead) {
            ++req.handle; // the row's second column
            ++req.col;
        } else {
            t.send(req); // a stale peek sent again
        }
        t.send(req);
    };
    EXPECT_DEATH(sendTwice(true),
                 "send of column 1, which is not its row's next unsent");
    EXPECT_DEATH(sendTwice(false),
                 "send of column 0, which is not its row's next unsent");
}

TEST(FailureModes, LongestAluLatencyTakesItsFullTime)
{
    System sys(SystemConfig::baseline(1));
    OneAluOpKernel k(63);
    sys.setKernel(0, &k);
    const RunStats s = sys.run(1000);
    EXPECT_EQ(s.instructions, 1u);
    EXPECT_GE(s.cycles, 63u);
}

TEST(FailureModes, TlbMissPenaltyIsVisibleInTiming)
{
    // Same gather, once with PTEs transferred and once without: the
    // unregistered run must pay PTE-walk penalties.
    auto runGather = [](bool registerRegions) {
        System sys(SystemConfig::withDx100());
        auto *rt = sys.runtime(0);
        SimMemory &mem = sys.memory();
        const std::size_t n = 8192;
        // Spread over many huge pages to make walks frequent.
        const Addr a = sys.allocator().alloc(Addr{512} << 21);
        const Addr b = sys.allocator().alloc(n * 4);
        Rng rng(6);
        for (std::size_t i = 0; i < n; ++i) {
            mem.write<std::uint32_t>(
                b + i * 4,
                static_cast<std::uint32_t>(rng.below(1 << 28)));
        }
        if (registerRegions) {
            rt->registerRegion(a, Addr{512} << 21);
            rt->registerRegion(b, n * 4);
        }

        DirectEmitter e;
        e.dev = sys.dx100(0);
        const unsigned idx = rt->allocTile();
        const unsigned dat = rt->allocTile();
        rt->sld(e, 0, runtime::DataType::kU32, b, idx, 0, n);
        rt->ild(e, 0, runtime::DataType::kU32, a, dat, idx);
        Cycle t = 0;
        while (!sys.dx100(0)->idle() && t < 50'000'000) {
            sys.tick();
            ++t;
        }
        return t;
    };

    const Cycle with = runGather(true);
    const Cycle without = runGather(false);
    EXPECT_GT(without, with + 1000);
}

TEST(FailureModes, DispatchSurvivesAdversarialHazardMix)
{
    // A long chain of instructions all hammering the same two tiles:
    // the scoreboard must serialize them without deadlock or loss.
    System sys(SystemConfig::withDx100());
    auto *rt = sys.runtime(0);
    const std::size_t n = 1024;
    const Addr src = sys.allocator().alloc(n * 4);
    rt->registerRegion(src, n * 4);

    DirectEmitter e;
    e.dev = sys.dx100(0);
    const unsigned t1 = rt->allocTile();
    const unsigned t2 = rt->allocTile();
    rt->sld(e, 0, runtime::DataType::kU32, src, t1, 0, n);
    std::uint64_t lastTok = 0;
    for (int round = 0; round < 20; ++round) {
        lastTok = rt->alus(e, 0, runtime::DataType::kU32,
                           runtime::AluOp::kAdd,
                           round % 2 ? t1 : t2, round % 2 ? t2 : t1,
                           1);
    }
    Cycle t = 0;
    while (!sys.dx100(0)->idle() && t < 10'000'000) {
        sys.tick();
        ++t;
    }
    ASSERT_TRUE(sys.dx100(0)->idle());
    EXPECT_TRUE(sys.dx100(0)->mmioReady(lastTok, 0));
    EXPECT_EQ(sys.dx100(0)->stats().instructionsRetired.value(), 21u);
    // Functional result: alternating adds accumulate 20 on the chain.
    EXPECT_EQ(rt->spdValue(t1, 5),
              sys.memory().read<std::uint32_t>(src + 5 * 4) + 20);
}
