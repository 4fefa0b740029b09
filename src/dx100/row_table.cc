#include "dx100/row_table.hh"

#include <algorithm>

#include "common/logging.hh"

namespace dx::dx100
{

IndirectTables::IndirectTables(const Config &cfg) : cfg_(cfg)
{
    slices_.resize(cfg_.slices);
}

void
IndirectTables::reset(std::uint32_t elems)
{
    for (auto &fifo : slices_)
        fifo.clear();
    rows_.clear();
    freeRows_.clear();
    cols_.clear();
    words_.assign(elems, WordEntry{});
    colsAllocated_ = 0;
    liveRows_ = 0;
}

IndirectTables::InsertResult
IndirectTables::insert(unsigned slice, std::uint32_t row,
                       std::uint32_t col, std::uint16_t wordOff,
                       std::uint32_t iter)
{
    dx_assert(slice < slices_.size(), "slice out of range");
    std::vector<std::uint32_t> &fifo = slices_[slice];

    // BCAM lookup: a row entry with this row address, not fully sent
    // (S bit), whose SRAM still has room or already holds the column.
    Row *target = nullptr;
    for (std::uint32_t rowIdx : fifo) {
        Row &r = rows_[rowIdx];
        if (r.row != row || r.sent == cfg_.colsPerRow)
            continue;
        // SRAM lookup: unsent entry with this column address?
        for (auto h = r.cols.begin() + r.sent; h != r.cols.end(); ++h) {
            Col &c = cols_[*h];
            if (c.col == col) {
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
        if (fifo.size() >= cfg_.rowsPerSlice)
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
        r.slice = slice;
        r.row = row;
        fifo.push_back(rowIdx);
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
IndirectTables::nextRequest(unsigned slice) const
{
    // Oldest row with an unsent column first (FIFO order).
    for (std::uint32_t rowIdx : slices_[slice]) {
        const Row &r = rows_[rowIdx];
        if (r.sent == r.cols.size())
            continue;
        const ColHandle h = r.cols[r.sent];
        const Col &c = cols_[h];
        return Request{h, r.row, c.col, c.cacheHit};
    }
    return std::nullopt;
}

void
IndirectTables::send(const Request &req)
{
    Row &r = rows_[cols_[req.handle].rowIdx];
    dx_assert(r.sent < r.cols.size() && r.cols[r.sent] == req.handle,
              "send of column ", req.handle,
              ", which is not its row's next unsent column");
    ++r.sent;
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
    return static_cast<unsigned>(slices_[slice].size());
}

void
IndirectTables::releaseColumn(ColHandle h)
{
    Col &c = cols_[h];
    const std::uint32_t rowIdx = c.rowIdx;
    Row &r = rows_[rowIdx];
    // Handles grow with allocation, so a row's columns are ascending
    // and its sent ones are those up to cols[sent - 1].
    dx_assert(!c.done && r.sent > 0 && h <= r.cols[r.sent - 1],
              "completing an idle column");
    c.done = true;
    if (++r.colsDone < r.cols.size())
        return;
    // Every column is done: release the BCAM entry.
    std::vector<std::uint32_t> &fifo = slices_[r.slice];
    fifo.erase(std::find(fifo.begin(), fifo.end(), rowIdx));
    freeRows_.push_back(rowIdx);
    --liveRows_;
}

} // namespace dx::dx100
