#include "cache/cache.hh"

#include <algorithm>
#include <bit>
#include <sstream>

#include "common/logging.hh"
#include "sim/stat_registry.hh"

namespace dx::cache
{

Cache::Cache(const Config &cfg, CachePort *downstream)
    : Component(cfg.name), cfg_(cfg)
{
    dx_assert(downstream, "cache needs a downstream port");
    downstream_.bind(*downstream);
    downstreamPopAddr_ = downstream_->popCountAddr();
    const std::uint64_t lines = cfg_.sizeBytes / kLineBytes;
    dx_assert(lines % cfg_.assoc == 0, "size/assoc mismatch");
    numSets_ = static_cast<unsigned>(lines / cfg_.assoc);
    dx_assert((numSets_ & (numSets_ - 1)) == 0,
              "set count must be a power of two");
    const std::size_t ways = std::size_t{numSets_} * cfg_.assoc;
    tags_.assign(ways, kNoLine);
    lastUse_.assign(ways, 0);
    dirty_.assign(ways, 0);
    prefetched_.assign(ways, 0);
    mshrs_.assign(cfg_.mshrs, Mshr{});
    mshrHead_.assign(numSets_, kNoMshr);
    freeMshrs_.assign((cfg_.mshrs + 63) / 64, ~std::uint64_t{0});
    if (const unsigned tail = cfg_.mshrs % 64)
        freeMshrs_.back() = (std::uint64_t{1} << tail) - 1;
    queue_.reserve(cfg_.queueSize);
}

void
Cache::setPrefetcher(std::unique_ptr<Prefetcher> pf)
{
    prefetcher_ = std::move(pf);
}

unsigned
Cache::setIndex(Addr line) const
{
    return static_cast<unsigned>((line >> kLineShift) & (numSets_ - 1));
}

int
Cache::findWay(Addr line) const
{
    const std::size_t base = std::size_t{setIndex(line)} * cfg_.assoc;
    for (std::size_t w = base; w < base + cfg_.assoc; ++w) {
        if (tags_[w] == line)
            return static_cast<int>(w);
    }
    return -1;
}

int
Cache::findMshr(Addr line) const
{
    for (std::int32_t i = mshrHead_[setIndex(line)]; i != kNoMshr;
         i = mshrs_[static_cast<unsigned>(i)].next) {
        if (mshrs_[static_cast<unsigned>(i)].line == line)
            return i;
    }
    return -1;
}

int
Cache::lowestFreeMshr() const
{
    for (std::size_t w = 0; w < freeMshrs_.size(); ++w) {
        if (freeMshrs_[w]) {
            return static_cast<int>(w * 64 +
                                    std::countr_zero(freeMshrs_[w]));
        }
    }
    return -1;
}

Cache::Mshr &
Cache::allocMshr(int idx, Addr line, bool dirtyOnFill, bool prefetch)
{
    const auto i = static_cast<unsigned>(idx);
    freeMshrs_[i / 64] &= ~(std::uint64_t{1} << (i % 64));
    ++mshrsInUse_;
    Mshr &m = mshrs_[i];
    m.line = line;
    m.dirtyOnFill = dirtyOnFill;
    m.prefetch = prefetch;
    m.targets.clear();
    std::int32_t &head = mshrHead_[setIndex(line)];
    m.next = head;
    head = idx;
    return m;
}

void
Cache::releaseMshr(unsigned idx)
{
    Mshr &m = mshrs_[idx];
    std::int32_t *link = &mshrHead_[setIndex(m.line)];
    while (*link != static_cast<std::int32_t>(idx))
        link = &mshrs_[static_cast<unsigned>(*link)].next;
    *link = m.next;
    m.next = kNoMshr;
    m.line = kNoLine;
    freeMshrs_[idx / 64] |= std::uint64_t{1} << (idx % 64);
    dx_assert(mshrsInUse_ > 0, cfg_.name, ": MSHR count underflow");
    --mshrsInUse_;
}

bool
Cache::canAccept(const CacheReq &) const
{
    // One in-order input queue takes every address.
    return queue_.size() < cfg_.queueSize;
}

void
Cache::request(const CacheReq &req)
{
    dx_assert(canAccept(req), cfg_.name, ": input queue overflow");
    if (queue_.empty()) {
        // The push below becomes the new head: every head-derived memo
        // must go, and a held "nothing until" verdict tightens to the
        // new head's service time (an empty queue never watches the
        // downstream port).
        memoValid_ = false;
        verdict_.until = std::min(verdict_.until, now_ + cfg_.latency);
    }
    // Non-empty queue: the head (and thus its stall classification and
    // any quiescence verdict) is untouched — the queue is served in
    // order, so an entry behind the head cannot act before it. The
    // memos survive the arrival.
    queue_.push_back({req, now_ + cfg_.latency});
}

bool
Cache::containsLine(Addr line) const
{
    line = lineAlign(line);
    return findWay(line) >= 0 || findMshr(line) >= 0;
}

bool
Cache::tagsHold(Addr line) const
{
    return findWay(lineAlign(line)) >= 0;
}

bool
Cache::invalidateLine(Addr line)
{
    verdict_.clear();
    memoValid_ = false;
    const int way = findWay(lineAlign(line));
    if (way < 0)
        return false;
    const auto w = static_cast<unsigned>(way);
    const bool dirty = dirty_[w];
    tags_[w] = kNoLine;
    lastUse_[w] = 0;
    dirty_[w] = 0;
    prefetched_[w] = 0;
    return dirty;
}

void
Cache::installLine(Addr line, bool dirty, bool prefetched)
{
    verdict_.clear();
    memoValid_ = false;
    // Refill of a line that is already present (e.g. a full-line write
    // raced with a fill): just merge the dirty bit.
    if (const int way = findWay(line); way >= 0) {
        const auto w = static_cast<unsigned>(way);
        dirty_[w] = dirty_[w] || dirty;
        lastUse_[w] = ++useCounter_;
        return;
    }

    // Victim: the first invalid way, else the first least recently
    // used one.
    const std::size_t base = std::size_t{setIndex(line)} * cfg_.assoc;
    std::size_t victim = base;
    for (std::size_t w = base; w < base + cfg_.assoc; ++w) {
        if (tags_[w] == kNoLine) {
            victim = w;
            break;
        }
        if (lastUse_[w] < lastUse_[victim])
            victim = w;
    }

    if (const Addr old = tags_[victim]; old != kNoLine) {
        ++stats_.evictions;
        bool victimDirty = dirty_[victim];
        if (cfg_.inclusiveRoot) {
            for (Cache *child : children_) {
                if (child->invalidateLine(old))
                    victimDirty = true;
                ++stats_.backInvalidates;
            }
        }
        if (victimDirty) {
            writebacks_.push_back(old);
            ++stats_.writebacks;
        }
    }

    tags_[victim] = line;
    dirty_[victim] = dirty;
    prefetched_[victim] = prefetched;
    lastUse_[victim] = ++useCounter_;
}

Cache::Decision
Cache::classify(const CacheReq &req) const
{
    const Addr line = lineAlign(req.addr);
    if (const int way = findWay(line); way >= 0)
        return {Action::kHit, way};

    // Full-line writes (writebacks from above, bulk stores) allocate
    // without fetching.
    if (req.write && req.fullLine)
        return {Action::kFullLineWrite};

    // Miss. Coalesce into the line's outstanding MSHR if there is one.
    if (const int existing = findMshr(line); existing >= 0) {
        const Mshr &m = mshrs_[static_cast<unsigned>(existing)];
        if (m.targets.size() >= cfg_.targetsPerMshr)
            return {Action::kMshrFull};
        // A *local* prefetch racing a live fill is dropped. (A
        // forwarded prefetch from an upper level carries a sink and
        // must be answered, so it coalesces like a demand.)
        if (req.origin == mem::Origin::kPrefetch && !req.sink)
            return {Action::kDrop};
        return {Action::kCoalesce, existing};
    }

    const int idx = lowestFreeMshr();
    if (idx < 0)
        return {Action::kMshrFull};
    if (!downstream_->canAccept(fetchReq(req, idx)))
        return {Action::kDownstreamFull};
    return {Action::kAllocate, idx};
}

bool
Cache::processRequest(const CacheReq &req, Decision d)
{
    const bool demand = req.origin == mem::Origin::kCpuDemand;
    const bool dxTraffic = req.origin == mem::Origin::kDx100;

    switch (d.action) {
      case Action::kMshrFull:
        ++stats_.stallMshrFull;
        return false;
      case Action::kDownstreamFull:
        ++stats_.stallDownstream;
        return false;
      case Action::kDrop:
        return true;

      case Action::kHit: {
        const auto w = static_cast<unsigned>(d.index);
        if (demand) {
            ++stats_.demandAccesses;
            ++stats_.demandHits;
            if (prefetched_[w]) {
                ++stats_.prefetchesUseful;
                prefetched_[w] = 0;
            }
            if (prefetcher_)
                prefetcher_->observe(req, false);
        } else if (dxTraffic) {
            ++stats_.dxHits;
        }
        if (req.write)
            dirty_[w] = 1;
        lastUse_[w] = ++useCounter_;
        if (req.sink)
            req.sink->complete(req.tag);
        return true;
      }

      case Action::kFullLineWrite:
        installLine(lineAlign(req.addr), true, false);
        if (req.sink)
            req.sink->complete(req.tag);
        return true;

      case Action::kCoalesce: {
        if (demand) {
            ++stats_.demandAccesses;
            ++stats_.demandMisses;
            ++stats_.mshrCoalesced;
            if (prefetcher_)
                prefetcher_->observe(req, true);
        } else if (dxTraffic) {
            ++stats_.dxMisses;
        }
        if (req.sink || req.write) {
            mshrs_[static_cast<unsigned>(d.index)].targets.push_back(
                {req.tag, req.sink, req.write});
        }
        return true;
      }

      case Action::kAllocate:
        break;
    }

    if (demand) {
        ++stats_.demandAccesses;
        ++stats_.demandMisses;
        if (prefetcher_)
            prefetcher_->observe(req, true);
    } else if (dxTraffic) {
        ++stats_.dxMisses;
    }

    Mshr &m = allocMshr(d.index, lineAlign(req.addr), req.write,
                        req.origin == mem::Origin::kPrefetch);
    if (req.sink || req.write)
        m.targets.push_back({req.tag, req.sink, req.write});

    downstream_->request(fetchReq(req, d.index));
    return true;
}

CacheReq
Cache::fetchReq(const CacheReq &req, int mshr) const
{
    CacheReq down;
    down.addr = req.addr;
    down.write = false; // fetch; dirtiness handled on fill
    down.origin = req.origin;
    // Forward the static-instruction id and loaded value so the next
    // level's prefetcher can train on the miss stream.
    down.pc = req.pc;
    down.value = req.value;
    down.tag = static_cast<std::uint64_t>(mshr);
    // The fill comes back to this cache's complete().
    down.sink = const_cast<Cache *>(this);
    return down;
}

void
Cache::complete(const std::uint64_t &tag)
{
    dx_assert(tag < mshrs_.size(), cfg_.name, ": bogus fill tag");
    verdict_.clear();
    memoValid_ = false;
    Mshr &m = mshrs_[tag];
    dx_assert(m.line != kNoLine, cfg_.name, ": fill for idle MSHR");

    installLine(m.line, m.dirtyOnFill, m.prefetch);
    if (m.prefetch)
        ++stats_.prefetchesIssued;

    for (const auto &t : m.targets) {
        if (t.sink)
            t.sink->complete(t.tag);
    }
    releaseMshr(static_cast<unsigned>(tag));
}

void
Cache::drainWritebacks()
{
    while (!writebacks_.empty()) {
        CacheReq wb;
        wb.addr = writebacks_.front();
        wb.write = true;
        wb.fullLine = true;
        wb.origin = mem::Origin::kWriteback;
        wb.sink = nullptr;
        if (!downstream_->canAccept(wb))
            return;
        downstream_->request(wb);
        writebacks_.pop_front();
    }
}

void
Cache::issuePrefetches()
{
    if (!prefetcher_)
        return;
    for (unsigned n = 0; n < 2; ++n) {
        Addr line;
        if (!prefetcher_->nextPrefetch(line))
            return;
        if (containsLine(line))
            continue;
        line = lineAlign(line);
        const int idx = lowestFreeMshr();
        if (idx < 0)
            return;
        CacheReq down;
        down.addr = line;
        down.origin = mem::Origin::kPrefetch;
        down.tag = static_cast<std::uint64_t>(idx);
        down.sink = this;
        if (!downstream_->canAccept(down))
            return;
        allocMshr(idx, line, false, true);
        downstream_->request(down);
    }
}

void
Cache::tick()
{
    // The head's decision from the quiescent() probe still holds if it
    // read only this cache's state (see memo_).
    const bool reuse = memoValid_ && memo_.action != Action::kAllocate &&
                       memo_.action != Action::kDownstreamFull;
    ++now_;
    memoValid_ = false;
    verdict_.clear();
    drainWritebacks();

    for (unsigned n = 0; n < cfg_.width && !queue_.empty(); ++n) {
        Pending &p = queue_.front();
        if (p.readyAt > now_)
            break;
        const Decision d = n == 0 && reuse ? memo_ : classify(p.req);
        if (!processRequest(p.req, d))
            break; // structural stall: retry next cycle
        queue_.pop_front();
        ++popCount_; // a waiter upstream may be watching for space
    }

    issuePrefetches();
}

std::string
Cache::debugDump() const
{
    std::ostringstream os;
    os << cfg_.name << ": queue=" << queue_.size()
       << " writebacks=" << writebacks_.size() << " mshrs:";
    for (unsigned i = 0; i < mshrs_.size(); ++i) {
        const Mshr &m = mshrs_[i];
        if (m.line == kNoLine)
            continue;
        os << " [" << i << " line=0x" << std::hex << m.line << std::dec
           << " targets=" << m.targets.size()
           << (m.prefetch ? " pf" : "")
           << (m.dirtyOnFill ? " dirty" : "") << "]";
    }
    for (std::size_t i = 0; i < queue_.size(); ++i) {
        const Pending &p = queue_[i];
        os << " {q addr=0x" << std::hex << p.req.addr << std::dec
           << " w=" << p.req.write << " org="
           << static_cast<int>(p.req.origin) << "}";
    }
    return os.str();
}

bool
Cache::busy() const
{
    return !queue_.empty() || !writebacks_.empty() || mshrsInUse_ > 0;
}

bool
Cache::drained() const
{
    return !busy() && (!prefetcher_ || !prefetcher_->pending());
}

bool
Cache::quiescentSlow() const
{
    // The inline fast path found no memoized verdict that still holds.
    verdict_.clear();

    if (!writebacks_.empty() ||
        (prefetcher_ && prefetcher_->pending())) {
        return false;
    }
    if (queue_.empty()) {
        verdict_.sleepUntil(kNeverCycle);
        return true;
    }
    if (queue_.front().readyAt > now_ + 1) {
        verdict_.sleepUntil(queue_.front().readyAt);
        return true;
    }
    // Due head: quiescent only if the retry would structurally stall,
    // in which case its sole effect is the stall counter skipCycles()
    // accumulates. Nothing the stall depends on (MSHRs, downstream
    // queue space) can change except through external stimulus, which
    // re-evaluates quiescence.
    memo_ = classify(queue_.front().req);
    memoValid_ = true;
    if (memo_.action == Action::kMshrFull) {
        // Unblocks only via a fill, which clears the memo.
        verdict_.sleepUntil(kNeverCycle);
        return true;
    }
    if (memo_.action == Action::kDownstreamFull) {
        if (downstreamPopAddr_)
            verdict_.blockOn(downstreamPopAddr_);
        return true;
    }
    return false;
}

Cycle
Cache::nextEventAtSlow() const
{
    // The input queue is served in order, so only the head can become
    // due; MSHR fills arrive via complete (external stimulus). A
    // due-but-stalled head also unblocks only via external stimulus,
    // and entries behind it are blocked in order.
    if (queue_.empty())
        return kNeverCycle;
    const Cycle readyAt = queue_.front().readyAt;
    return readyAt > now_ + 1 ? readyAt : kNeverCycle;
}

void
Cache::skipCyclesSlow(Cycle n)
{
    if (!queue_.empty() && queue_.front().readyAt <= now_ + 1) {
        // The memo persists across skips: it is cleared by the entry
        // points that can change the classification, not consumed here.
        const Action stall = memoValid_
                                 ? memo_.action
                                 : classify(queue_.front().req).action;
        if (stall == Action::kMshrFull)
            stats_.stallMshrFull += n;
        else if (stall == Action::kDownstreamFull)
            stats_.stallDownstream += n;
    }
    now_ += n;
}

void
Cache::checkIndex() const
{
    std::vector<bool> linked(mshrs_.size(), false);
    unsigned onChains = 0;
    for (unsigned set = 0; set < numSets_; ++set) {
        for (std::int32_t i = mshrHead_[set]; i != kNoMshr;
             i = mshrs_[static_cast<unsigned>(i)].next) {
            dx_assert(i >= 0 && static_cast<unsigned>(i) < mshrs_.size(),
                      cfg_.name, ": MSHR chain index ", i,
                      " out of range");
            const auto u = static_cast<unsigned>(i);
            dx_assert(!linked[u], cfg_.name, ": MSHR ", i,
                      " linked twice (shared or cyclic chain)");
            linked[u] = true;
            ++onChains;
            const Addr line = mshrs_[u].line;
            dx_assert(line != kNoLine, cfg_.name, ": free MSHR ", i,
                      " on set ", set, "'s chain");
            dx_assert(setIndex(line) == set, cfg_.name, ": MSHR ", i,
                      " chained under set ", set, " but maps to set ",
                      setIndex(line));
            dx_assert(findMshr(line) == i, cfg_.name, ": line ", line,
                      " has two MSHRs");
        }
    }
    for (unsigned i = 0; i < mshrs_.size(); ++i) {
        const bool free = (freeMshrs_[i / 64] >> (i % 64)) & 1;
        const bool live = mshrs_[i].line != kNoLine;
        dx_assert(free != live, cfg_.name, ": free mask disagrees with ",
                  "MSHR ", i);
        dx_assert(!live || linked[i], cfg_.name, ": live MSHR ", i,
                  " is on no chain");
    }
    if (const unsigned tail = cfg_.mshrs % 64) {
        dx_assert((freeMshrs_.back() >> tail) == 0, cfg_.name,
                  ": free mask has bits past the last MSHR");
    }
    dx_assert(onChains == mshrsInUse_, cfg_.name, ": ", onChains,
              " chained MSHRs but mshrsInUse_=", mshrsInUse_);
}

void
Cache::registerStats(StatRegistry &reg) const
{
    StatRegistry::Group g = reg.group(path());
    g.counter("demandHits", stats_.demandHits);
    g.counter("demandMisses", stats_.demandMisses);
    g.counter("demandAccesses", stats_.demandAccesses);
    g.counter("dxHits", stats_.dxHits);
    g.counter("dxMisses", stats_.dxMisses);
    g.counter("mshrCoalesced", stats_.mshrCoalesced);
    g.counter("writebacks", stats_.writebacks);
    g.counter("evictions", stats_.evictions);
    g.counter("backInvalidates", stats_.backInvalidates);
    g.counter("prefetchesIssued", stats_.prefetchesIssued);
    g.counter("prefetchesUseful", stats_.prefetchesUseful);
    g.counter("stallMshrFull", stats_.stallMshrFull);
    g.counter("stallDownstream", stats_.stallDownstream);
}

} // namespace dx::cache
