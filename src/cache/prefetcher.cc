#include "cache/prefetcher.hh"

#include <bit>

#include "common/logging.hh"

namespace dx::cache
{

StridePrefetcher::StridePrefetcher(const Config &cfg)
    : cfg_(cfg), table_(cfg.tableSize)
{
    dx_assert(std::has_single_bit(cfg.tableSize),
              "stride prefetcher table size must be a power of two");
}

StridePrefetcher::Entry &
StridePrefetcher::entryFor(std::uint16_t pc)
{
    return table_[pc & (cfg_.tableSize - 1)];
}

void
StridePrefetcher::observe(const CacheReq &req, bool miss)
{
    (void)miss;
    if (req.pc == 0 || req.write)
        return;

    Entry &e = entryFor(req.pc);
    if (!e.valid || e.pc != req.pc) {
        e = Entry{};
        e.pc = req.pc;
        e.valid = true;
        e.lastAddr = req.addr;
        return;
    }

    const std::int64_t delta =
        static_cast<std::int64_t>(req.addr) -
        static_cast<std::int64_t>(e.lastAddr);
    e.lastAddr = req.addr;
    if (delta == 0)
        return;

    if (delta == e.stride) {
        if (e.confidence < cfg_.confidenceThreshold + 2)
            ++e.confidence;
    } else {
        if (--e.confidence <= 0) {
            e.stride = delta;
            e.confidence = 1;
        }
        return;
    }

    if (e.confidence < cfg_.confidenceThreshold)
        return;

    // Confident stream: prefetch `degree` lines starting `distance`
    // ahead of the demand stream. For sub-line strides the depth is
    // counted in whole lines so the prefetcher actually runs ahead.
    const std::int64_t lineStride =
        std::abs(e.stride) < static_cast<std::int64_t>(kLineBytes)
            ? (e.stride > 0 ? static_cast<std::int64_t>(kLineBytes)
                            : -static_cast<std::int64_t>(kLineBytes))
            : e.stride;
    for (unsigned k = 0; k < cfg_.degree; ++k) {
        const Addr target = static_cast<Addr>(
            static_cast<std::int64_t>(req.addr) +
            lineStride * static_cast<std::int64_t>(cfg_.distance + k));
        const Addr line = lineAlign(target);
        if (line == e.lastIssued)
            continue;
        e.lastIssued = line;
        if (queue_.size() < cfg_.queueMax)
            queue_.push_back(line);
    }
}

bool
StridePrefetcher::nextPrefetch(Addr &line)
{
    if (queue_.empty())
        return false;
    line = queue_.front();
    queue_.pop_front();
    return true;
}

} // namespace dx::cache
