#include "dx100/row_table.hh"

#include <algorithm>

#include "common/logging.hh"

namespace dx::dx100
{

IndirectTables::IndirectTables(const Config &cfg) : cfg_(cfg)
{
    slices_.assign(cfg_.slices, Slice{});
}

void
IndirectTables::reset(std::uint32_t elems)
{
    for (auto &s : slices_)
        s.rows.clear();
    rows_.clear();
    freeRows_.clear();
    cols_.clear();
    words_.assign(elems, WordEntry{});
    orderCounter_ = 0;
    colsAllocated_ = 0;
    liveRows_ = 0;
}

IndirectTables::InsertResult
IndirectTables::insert(unsigned slice, std::uint32_t row,
                       std::uint32_t col, std::uint16_t wordOff,
                       std::uint32_t iter)
{
    dx_assert(slice < slices_.size(), "slice out of range");
    Slice &s = slices_[slice];

    // BCAM lookup: a live, not-fully-sent row entry with this row
    // address whose SRAM still has room (or already holds the column).
    Row *target = nullptr;
    for (std::uint32_t rowIdx : s.rows) {
        Row &r = rows_[rowIdx];
        if (!r.live || r.sentAll || r.row != row)
            continue;
        // SRAM lookup: unsent entry with this column address?
        for (ColHandle h : r.cols) {
            Col &c = cols_[h];
            if (!c.sent && !c.done && c.col == col) {
                // Chain this word onto the column's linked list.
                words_[iter].prev = c.tail;
                words_[iter].wordOff = wordOff;
                c.tail = static_cast<std::int32_t>(iter);
                return InsertResult::kOk;
            }
        }
        if (r.cols.size() < cfg_.colsPerRow) {
            target = &r;
            break;
        }
    }

    if (!target) {
        if (s.rows.size() >= cfg_.rowsPerSlice)
            return InsertResult::kSliceFull;
        std::uint32_t rowIdx;
        if (!freeRows_.empty()) {
            rowIdx = freeRows_.back();
            freeRows_.pop_back();
        } else {
            rowIdx = static_cast<std::uint32_t>(rows_.size());
            rows_.emplace_back();
        }
        Row &r = rows_[rowIdx];
        r = Row{};
        r.live = true;
        r.slice = slice;
        r.row = row;
        r.order = ++orderCounter_;
        s.rows.push_back(rowIdx);
        ++liveRows_;
        target = &r;
    }

    // Allocate a fresh column entry.
    const ColHandle h = static_cast<ColHandle>(cols_.size());
    Col c;
    c.col = col;
    c.rowIdx = static_cast<std::uint32_t>(target - rows_.data());
    words_[iter].prev = kNoIter;
    words_[iter].wordOff = wordOff;
    c.tail = static_cast<std::int32_t>(iter);
    cols_.push_back(c);
    target->cols.push_back(h);
    ++colsAllocated_;
    return InsertResult::kNewColumn;
}

void
IndirectTables::setCacheHit(ColHandle h, bool hit)
{
    cols_[h].cacheHit = hit;
}

std::optional<IndirectTables::Request>
IndirectTables::nextRequest(unsigned slice)
{
    Slice &s = slices_[slice];
    // Oldest live row first (FIFO order of s.rows).
    for (std::uint32_t rowIdx : s.rows) {
        Row &r = rows_[rowIdx];
        if (!r.live)
            continue;
        for (ColHandle h : r.cols) {
            Col &c = cols_[h];
            if (c.sent || c.done)
                continue;
            c.sent = true;
            // If that was the last unsent column, the row is no longer
            // fill-matchable (BCAM S bit).
            bool allSent = true;
            for (ColHandle h2 : r.cols) {
                if (!cols_[h2].sent && !cols_[h2].done) {
                    allSent = false;
                    break;
                }
            }
            if (allSent && r.cols.size() >= cfg_.colsPerRow)
                r.sentAll = true;
            Request req;
            req.handle = h;
            req.slice = slice;
            req.row = r.row;
            req.col = c.col;
            req.cacheHit = c.cacheHit;
            return req;
        }
    }
    return std::nullopt;
}

void
IndirectTables::unsend(const Request &req)
{
    Col &c = cols_[req.handle];
    dx_assert(c.sent && !c.done, "unsend of an idle column");
    c.sent = false;
    rows_[c.rowIdx].sentAll = false;
}

unsigned
IndirectTables::wordsInColumn(ColHandle h) const
{
    unsigned n = 0;
    for (std::int32_t i = cols_[h].tail; i != kNoIter;
         i = words_[static_cast<std::uint32_t>(i)].prev) {
        ++n;
    }
    return n;
}

unsigned
IndirectTables::rowsLive(unsigned slice) const
{
    unsigned n = 0;
    for (std::uint32_t rowIdx : slices_[slice].rows) {
        if (rows_[rowIdx].live)
            ++n;
    }
    return n;
}

void
IndirectTables::releaseColumn(ColHandle h)
{
    Col &c = cols_[h];
    dx_assert(c.sent && !c.done, "completing an idle column");
    c.done = true;
    Row &r = rows_[c.rowIdx];
    ++r.colsDone;
    maybeReleaseRow(c.rowIdx);
}

void
IndirectTables::maybeReleaseRow(std::uint32_t rowIdx)
{
    Row &r = rows_[rowIdx];
    if (!r.live || r.colsDone < r.cols.size())
        return;
    // All allocated columns are done; if nothing further can be added
    // (row closed) or everything sent, release the BCAM entry.
    for (ColHandle h : r.cols) {
        if (!cols_[h].done)
            return;
    }
    r.live = false;
    --liveRows_;
    Slice &s = slices_[r.slice];
    s.rows.erase(std::find(s.rows.begin(), s.rows.end(), rowIdx));
    freeRows_.push_back(rowIdx);
}

} // namespace dx::dx100
