/**
 * @file
 * Row Table / Word Table tests: coalescing via word chains, row
 * grouping, capacity handling, drain ordering, peek-then-send, the
 * BCAM S bit, and release.
 */

#include <gtest/gtest.h>

#include <set>

#include "common/rng.hh"
#include "dx100/row_table.hh"

using namespace dx;
using namespace dx::dx100;

namespace
{

IndirectTables::Config
smallCfg()
{
    IndirectTables::Config cfg;
    cfg.slices = 4;
    cfg.rowsPerSlice = 4;
    cfg.colsPerRow = 2;
    return cfg;
}

} // namespace

TEST(RowTable, CoalescesWordsInSameColumn)
{
    IndirectTables t(smallCfg());
    t.reset(8);

    // Three iterations to the same (slice 0, row 5, col 7).
    EXPECT_EQ(t.insert(0, 5, 7, 0, 0),
              IndirectTables::InsertResult::kNewColumn);
    EXPECT_EQ(t.insert(0, 5, 7, 4, 1), IndirectTables::InsertResult::kOk);
    EXPECT_EQ(t.insert(0, 5, 7, 8, 2), IndirectTables::InsertResult::kOk);
    EXPECT_EQ(t.columnsAllocated(), 1u);

    auto req = t.nextRequest(0);
    ASSERT_TRUE(req.has_value());
    EXPECT_EQ(req->row, 5u);
    EXPECT_EQ(req->col, 7u);
    EXPECT_EQ(t.wordsInColumn(req->handle), 3u);
    t.send(*req);

    std::set<std::uint32_t> iters;
    t.completeColumn(req->handle,
                     [&](std::uint32_t i, std::uint16_t) {
                         iters.insert(i);
                     });
    EXPECT_EQ(iters, (std::set<std::uint32_t>{0, 1, 2}));
    EXPECT_TRUE(t.drained());
}

TEST(RowTable, GroupsColumnsUnderOneRow)
{
    IndirectTables t(smallCfg());
    t.reset(8);

    t.insert(1, 9, 0, 0, 0);
    t.insert(1, 9, 1, 0, 1);
    EXPECT_EQ(t.rowsLive(1), 1u); // one BCAM entry, two SRAM columns

    // Third distinct column overflows colsPerRow=2: new row entry.
    t.insert(1, 9, 2, 0, 2);
    EXPECT_EQ(t.rowsLive(1), 2u);
}

TEST(RowTable, SliceFullReportsAndRecovers)
{
    IndirectTables t(smallCfg());
    t.reset(64);

    // Fill slice 2 with 4 distinct rows.
    for (std::uint32_t r = 0; r < 4; ++r)
        EXPECT_EQ(t.insert(2, r, 0, 0, r),
                  IndirectTables::InsertResult::kNewColumn);
    EXPECT_EQ(t.insert(2, 99, 0, 0, 5),
              IndirectTables::InsertResult::kSliceFull);

    // Drain one row; space opens up.
    auto req = t.nextRequest(2);
    ASSERT_TRUE(req.has_value());
    t.send(*req);
    t.completeColumn(req->handle, [](std::uint32_t, std::uint16_t) {});
    EXPECT_EQ(t.insert(2, 99, 0, 0, 5),
              IndirectTables::InsertResult::kNewColumn);
}

TEST(RowTable, DrainsOldestRowFirst)
{
    IndirectTables t(smallCfg());
    t.reset(16);

    t.insert(0, 30, 0, 0, 0);
    t.insert(0, 10, 0, 0, 1);
    t.insert(0, 20, 0, 0, 2);

    const auto sendNext = [&t] {
        auto req = t.nextRequest(0);
        if (req)
            t.send(*req);
        return req;
    };
    auto r1 = sendNext();
    auto r2 = sendNext();
    auto r3 = sendNext();
    ASSERT_TRUE(r1 && r2 && r3);
    EXPECT_EQ(r1->row, 30u);
    EXPECT_EQ(r2->row, 10u);
    EXPECT_EQ(r3->row, 20u);
    EXPECT_FALSE(t.nextRequest(0).has_value());
}

TEST(RowTable, NextRequestPeeksUntilSend)
{
    IndirectTables t(smallCfg());
    t.reset(4);
    t.insert(3, 1, 1, 0, 0);
    t.insert(3, 1, 2, 0, 1);

    // A refused request is simply not sent: peeking again names the
    // same column, however often.
    auto req = t.nextRequest(3);
    ASSERT_TRUE(req.has_value());
    for (int i = 0; i < 3; ++i) {
        auto again = t.nextRequest(3);
        ASSERT_TRUE(again.has_value());
        EXPECT_EQ(again->handle, req->handle);
    }

    t.send(*req);
    auto next = t.nextRequest(3);
    ASSERT_TRUE(next.has_value());
    EXPECT_NE(next->handle, req->handle);
    EXPECT_EQ(next->col, 2u);
    t.send(*next);
    EXPECT_FALSE(t.nextRequest(3).has_value());
}

TEST(RowTable, FullySentRowTakesNoInserts)
{
    IndirectTables t(smallCfg()); // colsPerRow = 2
    t.reset(8);

    // A full row with every column sent has its S bit set: a matching
    // insert, even to a column it holds, allocates a new row entry.
    t.insert(0, 4, 0, 0, 0);
    t.insert(0, 4, 1, 0, 1);
    for (int i = 0; i < 2; ++i)
        t.send(*t.nextRequest(0));
    EXPECT_EQ(t.insert(0, 4, 1, 0, 2),
              IndirectTables::InsertResult::kNewColumn);
    EXPECT_EQ(t.rowsLive(0), 2u);

    // A row that is all sent but not full still takes a new column in
    // place.
    t.insert(1, 6, 0, 0, 3);
    t.send(*t.nextRequest(1));
    EXPECT_EQ(t.insert(1, 6, 0, 0, 4),
              IndirectTables::InsertResult::kNewColumn);
    EXPECT_EQ(t.rowsLive(1), 1u);
    auto req = t.nextRequest(1);
    ASSERT_TRUE(req.has_value());
    EXPECT_EQ(req->row, 6u);
    EXPECT_EQ(req->col, 0u);
    EXPECT_EQ(t.wordsInColumn(req->handle), 1u);
}

TEST(RowTable, CacheHitBitTravelsWithRequest)
{
    IndirectTables t(smallCfg());
    t.reset(4);
    t.insert(0, 2, 3, 0, 0);
    t.setCacheHit(0, true);
    auto req = t.nextRequest(0);
    ASSERT_TRUE(req.has_value());
    EXPECT_TRUE(req->cacheHit);
}

TEST(RowTable, RandomizedAllWordsDeliveredExactlyOnce)
{
    IndirectTables::Config cfg;
    cfg.slices = 8;
    cfg.rowsPerSlice = 64;
    cfg.colsPerRow = 8;
    IndirectTables t(cfg);

    const std::uint32_t n = 4096;
    t.reset(n);
    Rng rng(77);

    std::vector<bool> seen(n, false);
    std::uint32_t inserted = 0;
    std::uint32_t delivered = 0;

    auto drainSome = [&](unsigned count) {
        for (unsigned k = 0; k < count; ++k) {
            for (unsigned s = 0; s < cfg.slices; ++s) {
                auto req = t.nextRequest(s);
                if (!req)
                    continue;
                t.send(*req);
                delivered += t.completeColumn(
                    req->handle, [&](std::uint32_t i, std::uint16_t) {
                        EXPECT_FALSE(seen[i]) << "duplicate " << i;
                        seen[i] = true;
                    });
            }
        }
    };

    while (inserted < n) {
        const unsigned slice = static_cast<unsigned>(rng.below(8));
        const auto row = static_cast<std::uint32_t>(rng.below(512));
        const auto col = static_cast<std::uint32_t>(rng.below(16));
        const auto res = t.insert(slice, row, col,
                                  static_cast<std::uint16_t>(
                                      rng.below(16)),
                                  inserted);
        if (res == IndirectTables::InsertResult::kSliceFull) {
            drainSome(4);
            continue;
        }
        ++inserted;
    }
    while (!t.drained())
        drainSome(1);

    EXPECT_EQ(delivered, n);
    for (std::uint32_t i = 0; i < n; ++i)
        EXPECT_TRUE(seen[i]) << "missing " << i;
}

TEST(RowTable, CoalescingReducesColumnCount)
{
    IndirectTables::Config cfg;
    cfg.slices = 2;
    cfg.rowsPerSlice = 64;
    cfg.colsPerRow = 8;
    IndirectTables t(cfg);

    // 1024 iterations over only 32 distinct columns.
    const std::uint32_t n = 1024;
    t.reset(n);
    Rng rng(5);
    for (std::uint32_t i = 0; i < n; ++i) {
        const auto c = static_cast<std::uint32_t>(rng.below(32));
        auto res = t.insert(c % 2, c / 16, c % 16,
                            static_cast<std::uint16_t>(i % 16), i);
        ASSERT_NE(res, IndirectTables::InsertResult::kSliceFull);
    }
    EXPECT_LE(t.columnsAllocated(), 32u);
    EXPECT_GE(static_cast<double>(n) / t.columnsAllocated(), 30.0);
}
