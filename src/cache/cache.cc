#include "cache/cache.hh"

#include <algorithm>
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
    sets_.assign(numSets_, std::vector<Way>(cfg_.assoc));
    mshrs_.assign(cfg_.mshrs, Mshr{});
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

Cache::Way *
Cache::lookup(Addr line)
{
    auto &set = sets_[setIndex(line)];
    for (auto &way : set) {
        if (way.valid && way.tag == line)
            return &way;
    }
    return nullptr;
}

int
Cache::mshrFor(Addr line) const
{
    for (unsigned i = 0; i < mshrs_.size(); ++i) {
        if (mshrs_[i].valid && mshrs_[i].line == line)
            return static_cast<int>(i);
    }
    return -1;
}

int
Cache::freeMshr() const
{
    for (unsigned i = 0; i < mshrs_.size(); ++i) {
        if (!mshrs_[i].valid)
            return static_cast<int>(i);
    }
    return -1;
}

bool
Cache::canAccept() const
{
    return queue_.size() < cfg_.queueSize;
}

void
Cache::request(const CacheReq &req)
{
    dx_assert(canAccept(), cfg_.name, ": input queue overflow");
    if (queue_.empty()) {
        // The push below becomes the new head: every head-derived memo
        // must go, and a kTimed "nothing until sleepUntil_" verdict
        // tightens to the new head's service time.
        memoValid_ = false;
        if (qMemo_ == QMemo::kTimed)
            sleepUntil_ = std::min(sleepUntil_, now_ + cfg_.latency);
        else
            qMemo_ = QMemo::kNone;
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
    const auto &set = sets_[setIndex(line)];
    for (const auto &way : set) {
        if (way.valid && way.tag == line)
            return true;
    }
    return mshrFor(line) >= 0;
}

bool
Cache::tagsHold(Addr line) const
{
    line = lineAlign(line);
    const auto &set = sets_[setIndex(line)];
    for (const auto &way : set) {
        if (way.valid && way.tag == line)
            return true;
    }
    return false;
}

bool
Cache::invalidateLine(Addr line)
{
    qMemo_ = QMemo::kNone;
    memoValid_ = false;
    line = lineAlign(line);
    auto &set = sets_[setIndex(line)];
    for (auto &way : set) {
        if (way.valid && way.tag == line) {
            const bool dirty = way.dirty;
            way = Way{};
            return dirty;
        }
    }
    return false;
}

void
Cache::installLine(Addr line, bool dirty, bool prefetched)
{
    qMemo_ = QMemo::kNone;
    memoValid_ = false;
    auto &set = sets_[setIndex(line)];

    // Refill of a line that is already present (e.g. a full-line write
    // raced with a fill): just merge the dirty bit.
    for (auto &way : set) {
        if (way.valid && way.tag == line) {
            way.dirty = way.dirty || dirty;
            way.lastUse = ++useCounter_;
            return;
        }
    }

    Way *victim = nullptr;
    for (auto &way : set) {
        if (!way.valid) {
            victim = &way;
            break;
        }
        if (!victim || way.lastUse < victim->lastUse)
            victim = &way;
    }

    if (victim->valid) {
        ++stats_.evictions;
        bool victimDirty = victim->dirty;
        if (cfg_.inclusiveRoot) {
            for (Cache *child : children_) {
                if (child->invalidateLine(victim->tag))
                    victimDirty = true;
                ++stats_.backInvalidates;
            }
        }
        if (victimDirty) {
            writebacks_.push_back(victim->tag);
            ++stats_.writebacks;
        }
    }

    victim->tag = line;
    victim->valid = true;
    victim->dirty = dirty;
    victim->prefetched = prefetched;
    victim->lastUse = ++useCounter_;
}

bool
Cache::processRequest(const CacheReq &req)
{
    const Addr line = lineAlign(req.addr);
    const bool demand = req.origin == mem::Origin::kCpuDemand;
    const bool dxTraffic = req.origin == mem::Origin::kDx100;

    Way *way = lookup(line);
    if (way) {
        if (demand) {
            ++stats_.demandAccesses;
            ++stats_.demandHits;
            if (way->prefetched) {
                ++stats_.prefetchesUseful;
                way->prefetched = false;
            }
            if (prefetcher_)
                prefetcher_->observe(req, false);
        } else if (dxTraffic) {
            ++stats_.dxHits;
        }
        if (req.write)
            way->dirty = true;
        way->lastUse = ++useCounter_;
        if (req.sink)
            req.sink->complete(req.tag);
        return true;
    }

    // Full-line writes (writebacks from above, bulk stores) allocate
    // without fetching.
    if (req.write && req.fullLine) {
        installLine(line, true, false);
        if (req.sink)
            req.sink->complete(req.tag);
        return true;
    }

    // Miss. Coalesce into an existing MSHR if one is outstanding.
    const int existing = mshrFor(line);
    if (existing >= 0) {
        Mshr &m = mshrs_[static_cast<unsigned>(existing)];
        if (m.targets.size() >= cfg_.targetsPerMshr) {
            ++stats_.stallMshrFull;
            return false;
        }
        if (demand) {
            ++stats_.demandAccesses;
            ++stats_.demandMisses;
            ++stats_.mshrCoalesced;
            if (prefetcher_)
                prefetcher_->observe(req, true);
        } else if (dxTraffic) {
            ++stats_.dxMisses;
        } else if (req.origin == mem::Origin::kPrefetch && !req.sink) {
            // A *local* prefetch racing a live fill: drop it. (A
            // forwarded prefetch from an upper level carries a sink
            // and must be answered, so it coalesces like a demand.)
            return true;
        }
        if (req.sink || req.write)
            m.targets.push_back({req.tag, req.sink, req.write});
        return true;
    }

    const int idx = freeMshr();
    if (idx < 0) {
        ++stats_.stallMshrFull;
        return false;
    }
    CacheReq probe;
    probe.addr = line;
    if (!downstream_->canAcceptReq(probe)) {
        ++stats_.stallDownstream;
        return false;
    }

    if (demand) {
        ++stats_.demandAccesses;
        ++stats_.demandMisses;
        if (prefetcher_)
            prefetcher_->observe(req, true);
    } else if (dxTraffic) {
        ++stats_.dxMisses;
    }

    Mshr &m = mshrs_[static_cast<unsigned>(idx)];
    m.valid = true;
    ++mshrsInUse_;
    m.line = line;
    m.dirtyOnFill = req.write;
    m.prefetch = req.origin == mem::Origin::kPrefetch;
    m.targets.clear();
    if (req.sink || req.write)
        m.targets.push_back({req.tag, req.sink, req.write});

    CacheReq down;
    down.addr = req.addr;
    down.write = false; // fetch; dirtiness handled on fill
    down.origin = req.origin;
    // Forward the static-instruction id and loaded value so the next
    // level's prefetcher can train on the miss stream.
    down.pc = req.pc;
    down.value = req.value;
    down.tag = static_cast<std::uint64_t>(idx);
    down.sink = this;
    downstream_->request(down);
    return true;
}

void
Cache::complete(const std::uint64_t &tag)
{
    dx_assert(tag < mshrs_.size(), cfg_.name, ": bogus fill tag");
    qMemo_ = QMemo::kNone;
    memoValid_ = false;
    Mshr &m = mshrs_[tag];
    dx_assert(m.valid, cfg_.name, ": fill for idle MSHR");

    installLine(m.line, m.dirtyOnFill, m.prefetch);
    if (m.prefetch)
        ++stats_.prefetchesIssued;

    for (const auto &t : m.targets) {
        if (t.sink)
            t.sink->complete(t.tag);
    }
    m = Mshr{};
    dx_assert(mshrsInUse_ > 0, cfg_.name, ": MSHR count underflow");
    --mshrsInUse_;
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
        if (!downstream_->canAcceptReq(wb))
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
        const int idx = freeMshr();
        CacheReq probe;
        probe.addr = lineAlign(line);
        if (idx < 0 || !downstream_->canAcceptReq(probe))
            return;

        Mshr &m = mshrs_[static_cast<unsigned>(idx)];
        m.valid = true;
        ++mshrsInUse_;
        m.line = lineAlign(line);
        m.dirtyOnFill = false;
        m.prefetch = true;
        m.targets.clear();

        CacheReq down;
        down.addr = m.line;
        down.write = false;
        down.origin = mem::Origin::kPrefetch;
        down.tag = static_cast<std::uint64_t>(idx);
        down.sink = this;
        downstream_->request(down);
    }
}

void
Cache::tick()
{
    ++now_;
    memoValid_ = false;
    qMemo_ = QMemo::kNone;
    drainWritebacks();

    for (unsigned n = 0; n < cfg_.width && !queue_.empty(); ++n) {
        Pending &p = queue_.front();
        if (p.readyAt > now_)
            break;
        if (!processRequest(p.req))
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
        if (!m.valid)
            continue;
        os << " [" << i << " line=0x" << std::hex << m.line << std::dec
           << " targets=" << m.targets.size()
           << (m.prefetch ? " pf" : "")
           << (m.dirtyOnFill ? " dirty" : "") << "]";
    }
    for (const auto &p : queue_) {
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

Cache::HeadStall
Cache::headStall() const
{
    const CacheReq &req = queue_.front().req;
    const Addr line = lineAlign(req.addr);
    // Hit, or a full-line write allocating in place.
    if (tagsHold(line) || (req.write && req.fullLine))
        return HeadStall::kNone;
    if (const int existing = mshrFor(line); existing >= 0) {
        const Mshr &m = mshrs_[static_cast<unsigned>(existing)];
        return m.targets.size() >= cfg_.targetsPerMshr
                   ? HeadStall::kMshrFull
                   : HeadStall::kNone; // coalesce (or drop)
    }
    if (mshrsInUse_ >= cfg_.mshrs)
        return HeadStall::kMshrFull;
    CacheReq probe;
    probe.addr = line;
    return downstream_->canAcceptReq(probe) ? HeadStall::kNone
                                            : HeadStall::kDownstream;
}

bool
Cache::quiescentSlow() const
{
    // Memoized verdicts: nothing the slow path reads has changed since
    // it last ran (see the QMemo member comment for the argument).
    if (qMemo_ == QMemo::kTimed && now_ + 1 < sleepUntil_)
        return true;
    if (qMemo_ == QMemo::kBlocked &&
        downstream_->popCount() == blockedPops_) {
        return true;
    }
    qMemo_ = QMemo::kNone;

    if (!writebacks_.empty() ||
        (prefetcher_ && prefetcher_->pending())) {
        return false;
    }
    if (queue_.empty()) {
        qMemo_ = QMemo::kTimed;
        sleepUntil_ = kNeverCycle;
        return true;
    }
    if (queue_.front().readyAt > now_ + 1) {
        qMemo_ = QMemo::kTimed;
        sleepUntil_ = queue_.front().readyAt;
        return true;
    }
    // Due head: quiescent only if the retry would structurally stall,
    // in which case its sole effect is the stall counter skipCycles()
    // accumulates. Nothing the stall depends on (MSHRs, downstream
    // queue space) can change except through external stimulus, which
    // re-evaluates quiescence.
    memoStall_ = headStall();
    memoValid_ = true;
    switch (memoStall_) {
      case HeadStall::kNone:
        return false;
      case HeadStall::kMshrFull:
        // Unblocks only via a fill, which clears the memo.
        qMemo_ = QMemo::kTimed;
        sleepUntil_ = kNeverCycle;
        return true;
      case HeadStall::kDownstream: {
        const std::uint64_t pops = downstreamPopAddr_
                                       ? *downstreamPopAddr_
                                       : downstream_->popCount();
        if (pops != kPortPopsUnknown) {
            qMemo_ = QMemo::kBlocked;
            blockedPops_ = pops;
        }
        return true;
      }
    }
    return true; // unreachable
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
        const HeadStall stall = memoValid_ ? memoStall_ : headStall();
        switch (stall) {
          case HeadStall::kMshrFull:
            stats_.stallMshrFull += n;
            break;
          case HeadStall::kDownstream:
            stats_.stallDownstream += n;
            break;
          case HeadStall::kNone:
            break;
        }
    }
    now_ += n;
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
