#include "prefetch/indirect_prefetcher.hh"

#include <bit>
#include <cstdlib>

#include "common/logging.hh"
#include "sim/stat_registry.hh"

namespace dx::prefetch
{

IndirectPrefetcher::IndirectPrefetcher(const Config &cfg,
                                       const SimMemory *mem)
    : Component("dmp"), cfg_(cfg), mem_(mem),
      streams_(cfg.streamTableSize), patterns_(cfg.patternTableSize)
{
    dx_assert(std::has_single_bit(cfg.streamTableSize),
              "DMP stream table size must be a power of two");
    dx_assert(cfg.patternTableSize >= 1 && cfg.patternTableSize <= 64,
              "DMP pattern table must hold 1..64 patterns (one mask word)");
    dx_assert(cfg.confidenceThreshold >= 0,
              "DMP confidence threshold must be non-negative");
    levels_.assign(static_cast<std::size_t>(cfg.confidenceThreshold) + 3,
                   0);
}

void
IndirectPrefetcher::setConfidence(unsigned i, int confidence)
{
    const std::uint64_t bit = std::uint64_t{1} << i;
    levels_[static_cast<unsigned>(patterns_[i].confidence)] &= ~bit;
    levels_[static_cast<unsigned>(confidence)] |= bit;
    patterns_[i].confidence = confidence;
}

IndirectPrefetcher::Stream &
IndirectPrefetcher::streamFor(std::uint16_t pc)
{
    return streams_[pc & (cfg_.streamTableSize - 1)];
}

void
IndirectPrefetcher::push(Addr line)
{
    if (queue_.size() < cfg_.queueMax)
        queue_.push_back(lineAlign(line));
}

void
IndirectPrefetcher::observe(const cache::CacheReq &req, bool miss)
{
    if (req.origin != mem::Origin::kCpuDemand)
        return;

    // 1. Differential matching: correlate this miss address with the
    //    values of recent strided index loads. RMW targets are writes
    //    that read, so they participate too.
    if (miss)
        matchMiss(req.addr);

    if (req.write || req.pc == 0)
        return;

    // 2. Stream detection over the index load's addresses.
    Stream &s = streamFor(req.pc);
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
        return; // not an index-element stream

    // Remember this confirmed index load for matching and triggering.
    Recent r;
    r.pc = req.pc;
    r.value = req.value;
    r.addr = req.addr;
    r.stride = s.stride;
    r.bytes = static_cast<unsigned>(absStride);
    recent_.push_back(r);
    while (recent_.size() > cfg_.recentValues)
        recent_.pop_front();

    // Stream-prefetch the index array itself.
    for (unsigned k = 1; k <= cfg_.streamDegree; ++k) {
        push(static_cast<Addr>(
            static_cast<std::int64_t>(req.addr) +
            s.stride * static_cast<std::int64_t>(8 + k)));
        ++stats_.streamPrefetches;
    }

    triggerIndirect(r);
}

void
IndirectPrefetcher::matchMiss(Addr missAddr)
{
    const auto n = static_cast<unsigned>(patterns_.size());
    for (std::size_t k = 0; k < recent_.size(); ++k) {
        const Recent &r = recent_[k];
        for (unsigned scale : {4u, 8u}) {
            const std::int64_t base =
                static_cast<std::int64_t>(missAddr) -
                static_cast<std::int64_t>(r.value * scale);
            if (base < 0)
                continue;
            // Confirm a pattern (indexPc, scale, base). At most one
            // matches: one is allocated only when none does.
            bool handled = false;
            for (unsigned i = n - validPatterns_; i < n; ++i) {
                const Pattern &p = patterns_[i];
                if (p.base != base || p.indexPc != r.pc || p.scale != scale)
                    continue;
                if (p.confidence < cfg_.confidenceThreshold + 2)
                    setConfidence(i, p.confidence + 1);
                if (p.confidence == cfg_.confidenceThreshold)
                    ++stats_.patternsLearned;
                handled = true;
                break;
            }
            if (handled)
                continue;
            // Allocate the highest invalid pattern; with none left, age
            // the first weakest one, replacing it once it reaches zero.
            unsigned slot;
            if (validPatterns_ < n) {
                // Never used, so still at confidence 0.
                slot = n - 1 - validPatterns_++;
                levels_[0] |= std::uint64_t{1} << slot;
            } else {
                unsigned level = 0;
                while (levels_[level] == 0)
                    ++level;
                slot = static_cast<unsigned>(
                    std::countr_zero(levels_[level]));
                if (level > 0) {
                    setConfidence(slot, static_cast<int>(level) - 1);
                    continue;
                }
            }
            Pattern &p = patterns_[slot];
            p.indexPc = r.pc;
            p.base = base;
            p.scale = scale;
            setConfidence(slot, 1);
        }
    }
}

void
IndirectPrefetcher::triggerIndirect(const Recent &r)
{
    // Confident patterns, in index order.
    std::uint64_t confident = 0;
    for (std::size_t c = static_cast<std::size_t>(cfg_.confidenceThreshold);
         c < levels_.size(); ++c) {
        confident |= levels_[c];
    }
    for (; confident; confident &= confident - 1) {
        const Pattern &p = patterns_[static_cast<unsigned>(
            std::countr_zero(confident))];
        if (p.indexPc != r.pc)
            continue;
        // Future index value, d elements ahead of the demand stream.
        const Addr futureAddr = static_cast<Addr>(
            static_cast<std::int64_t>(r.addr) +
            r.stride * static_cast<std::int64_t>(cfg_.distance));
        const std::uint64_t v =
            r.bytes == 4 ? mem_->read<std::uint32_t>(futureAddr)
                         : mem_->read<std::uint64_t>(futureAddr);
        push(static_cast<Addr>(p.base + v * p.scale));
        ++stats_.indirectPrefetches;
    }
}

bool
IndirectPrefetcher::nextPrefetch(Addr &line)
{
    if (queue_.empty())
        return false;
    line = queue_.front();
    queue_.pop_front();
    return true;
}

void
IndirectPrefetcher::checkTable() const
{
    const auto n = static_cast<unsigned>(patterns_.size());
    dx_assert(validPatterns_ <= n, "dmp: ", validPatterns_,
              " valid patterns in a table of ", n);
    const std::uint64_t all =
        n == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << n) - 1;
    const std::uint64_t suffix =
        validPatterns_ == 0
            ? 0
            : all & (~std::uint64_t{0} << (n - validPatterns_));
    std::uint64_t seen = 0;
    for (std::size_t c = 0; c < levels_.size(); ++c) {
        dx_assert((seen & levels_[c]) == 0, "dmp: level ", c,
                  " shares a pattern with a lower level");
        seen |= levels_[c];
        for (std::uint64_t m = levels_[c]; m; m &= m - 1) {
            const auto i = static_cast<unsigned>(std::countr_zero(m));
            dx_assert(patterns_[i].confidence == static_cast<int>(c),
                      "dmp: pattern ", i, " has confidence ",
                      patterns_[i].confidence, " but sits in level ", c);
        }
    }
    dx_assert(seen == suffix, "dmp: level masks 0x", std::hex,
              seen, " are not the valid suffix of ", std::dec,
              validPatterns_, " patterns");
    for (unsigned i = n - validPatterns_; i < n; ++i) {
        for (unsigned j = i + 1; j < n; ++j) {
            const Pattern &a = patterns_[i];
            const Pattern &b = patterns_[j];
            dx_assert(a.indexPc != b.indexPc || a.scale != b.scale ||
                          a.base != b.base,
                      "dmp: patterns ", i, " and ", j, " are the same");
        }
    }
}

void
IndirectPrefetcher::registerStats(StatRegistry &reg) const
{
    auto g = reg.group(path());
    g.value("patternsLearned", stats_.patternsLearned);
    g.value("indirectPrefetches", stats_.indirectPrefetches);
    g.value("streamPrefetches", stats_.streamPrefetches);
}

} // namespace dx::prefetch
