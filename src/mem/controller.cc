#include "mem/controller.hh"

#include <algorithm>
#include <string>

#include "common/logging.hh"
#include "sim/stat_registry.hh"

namespace dx::mem
{

MemoryController::MemoryController(const Config &cfg, unsigned channelId)
    : Component("ch" + std::to_string(channelId)),
      cfg_(cfg), channel_(channelId),
      banks_(cfg.geom.banksPerChannel()),
      nextRefresh_(cfg.timings.tREFI)
{
    readQueue_.reserve(cfg.readQueueSize);
    writeQueue_.reserve(cfg.writeQueueSize);
}

bool
MemoryController::canAccept(bool write) const
{
    return write ? writeQueue_.size() < cfg_.writeQueueSize
                 : readQueue_.size() < cfg_.readQueueSize;
}

void
MemoryController::enqueue(const MemRequest &req)
{
    dx_assert(canAccept(req.write), "controller queue overflow");
    dx_assert(req.coord.channel == channel_, "request routed to wrong "
              "channel");
    Entry e;
    e.req = req;
    e.req.enqueued = now_;
    e.bank = flatBankFor(req.coord);
    (req.write ? writeQueue_ : readQueue_).push_back(e);
    Bank &bank = banks_[e.bank];
    const unsigned q = req.write ? kWrites : kReads;
    ++bank.queued[q];
    const bool hit =
        bank.openRow == static_cast<std::int64_t>(req.coord.row);
    if (hit)
        ++bank.hits[q];

    // An enqueue only *adds* command candidates, so the cached hint
    // remains a conservative-early bound for everything already
    // queued; fold in a bound for the new entry instead of reingesting
    // both queues. Row-hit pinning is ignored here — it can only delay
    // the entry, and the hint may run early, never late.
    if (eventHintValid_) {
        Cycle ev = commandReadyAt(bank, req.write, hit, fawReadyAt());
        if (wouldToggleWriteMode())
            ev = Cycle{0};
        eventHint_ = std::min(eventHint_, ev);
    }
}

bool
MemoryController::idle() const
{
    return readQueue_.empty() && writeQueue_.empty() && pending_.empty();
}

unsigned
MemoryController::flatBankFor(const DramCoord &c) const
{
    return c.bankInChannel(cfg_.geom);
}

bool
MemoryController::deliverResponses()
{
    bool delivered = false;
    while (!pending_.empty() && pending_.front().ready <= now_) {
        MemRequest req = pending_.front().req;
        pending_.pop_front();
        if (req.sink)
            req.sink->complete(req);
        delivered = true;
    }
    return delivered;
}

bool
MemoryController::wouldToggleWriteMode() const
{
    if (!writeMode_) {
        // Enter write mode on the high watermark or when there is
        // nothing else to do. Read credits guarantee reads a burst of
        // service between write drains even when the write queue is
        // pinned full.
        const bool creditsSpent = readCredit_ == 0 ||
                                  readQueue_.empty();
        return (creditsSpent &&
                writeQueue_.size() >= cfg_.writeHiWatermark) ||
               (readQueue_.empty() && !writeQueue_.empty());
    }
    // Leave write mode at the low watermark, or after a bounded burst
    // when reads are waiting (fairness: a producer that refills the
    // write queue as fast as it drains must not starve reads).
    const bool drained = writeQueue_.size() <= cfg_.writeLoWatermark;
    const bool burstDone = writeBurst_ >= cfg_.writeBurstMax;
    return writeQueue_.empty() ||
           ((drained || burstDone) && !readQueue_.empty());
}

void
MemoryController::tick()
{
    ++now_;
    ++stats_.cycles;
    stats_.occupancyAccum += readQueue_.size() + writeQueue_.size();

    // The event hint is in absolute cycles, so an unproductive tick
    // (nothing delivered, refreshed, toggled or issued — only the clock
    // and the per-cycle stats advanced) leaves it valid.
    bool productive = deliverResponses();

    if (tryRefresh()) {
        eventHintValid_ = false;
        return;
    }

    // Write-drain hysteresis (single source of truth with the
    // nextEventAt() hint: see wouldToggleWriteMode).
    if (wouldToggleWriteMode()) {
        if (!writeMode_) {
            writeMode_ = true;
            writeBurst_ = 0;
        } else {
            writeMode_ = false;
            readCredit_ = cfg_.writeBurstMax;
        }
        productive = true;
    }

    if (writeMode_) {
        productive |= tryIssueFrom(writeQueue_, true);
    } else {
        productive |= tryIssueFrom(readQueue_, false);
    }
    // A productive tick moved state the hint depends on. An
    // unproductive tick with an *overdue* hint means the early bound
    // fired spuriously (the hint may run early, never late) — drop it
    // too, or the now_+1 clamp in nextEventAt() would pin the channel
    // awake until the next productive tick.
    if (productive || (eventHintValid_ && eventHint_ <= now_))
        eventHintValid_ = false;
}

bool
MemoryController::tryRefresh()
{
    if (!cfg_.timings.refreshEnabled)
        return false;

    if (!refreshPending_ && now_ >= nextRefresh_)
        refreshPending_ = true;
    if (!refreshPending_)
        return false;

    // Close all open rows, one PRE per cycle, then issue REF once every
    // bank is precharged and its tRP has elapsed.
    bool allClosed = true;
    for (unsigned b = 0; b < banks_.size(); ++b) {
        if (banks_[b].openRow >= 0) {
            allClosed = false;
            if (banks_[b].nextPre <= now_) {
                issuePre(b);
                return true;
            }
        }
    }
    if (!allClosed)
        return true; // stall issuing demand commands while draining

    Cycle ready = now_;
    for (const auto &bank : banks_)
        ready = std::max(ready, bank.nextAct);
    if (ready > now_)
        return true;

    for (auto &bank : banks_)
        bank.nextAct = now_ + cfg_.timings.tRFC;
    nextRefresh_ += cfg_.timings.tREFI;
    refreshPending_ = false;
    ++stats_.refCommands;
    return true;
}

bool
MemoryController::tryIssueFrom(std::vector<Entry> &queue, bool writes)
{
    if (tryColumn(queue, writes)) {
        if (writes)
            ++writeBurst_;
        else if (readCredit_ > 0)
            --readCredit_;
        return true;
    }
    if (tryActivate(queue))
        return true;
    return tryPrecharge(queue, writes);
}

bool
MemoryController::tryColumn(std::vector<Entry> &queue, bool writes)
{
    const unsigned q = writes ? kWrites : kReads;
    for (std::size_t i = 0; i < queue.size(); ++i) {
        Entry &e = queue[i];
        Bank &bank = banks_[e.bank];
        if (bank.openRow != static_cast<std::int64_t>(e.req.coord.row))
            continue;
        const Cycle ready = writes ? bank.nextWr : bank.nextRd;
        if (ready > now_)
            continue;

        if (writes)
            issueWrite(e);
        else
            issueRead(e);

        if (e.neededAct)
            ++stats_.rowMisses;
        else
            ++stats_.rowHits;

        --bank.queued[q];
        --bank.hits[q];
        queue.erase(queue.begin() + static_cast<std::ptrdiff_t>(i));
        // A waiter upstream may be watching for space.
        if (dequeueMirror_) // unwired in stand-alone controller tests
            ++*dequeueMirror_;
        return true;
    }
    return false;
}

bool
MemoryController::tryActivate(std::vector<Entry> &queue)
{
    if (!actAllowedByFaw())
        return false;
    for (auto &e : queue) {
        const Bank &bank = banks_[e.bank];
        if (bank.openRow >= 0 || bank.nextAct > now_)
            continue;
        issueAct(e.bank, e.req.coord.row, e.req.coord.bankGroup);
        e.neededAct = true;
        // Sibling requests to the same (bank, row) become row hits and
        // need no flag; requests to other rows of this bank will conflict.
        return true;
    }
    return false;
}

bool
MemoryController::tryPrecharge(std::vector<Entry> &queue, bool writes)
{
    const unsigned q = writes ? kWrites : kReads;
    for (const auto &e : queue) {
        const Bank &bank = banks_[e.bank];
        // FR-FCFS: do not close a row that still has pending hits in
        // the queue currently being served (a hit entry is itself never
        // a conflict). Only that queue: letting the idle queue's hits
        // pin rows open deadlocks the drain.
        if (bank.openRow < 0 || bank.hits[q] != 0 || bank.nextPre > now_)
            continue;
        issuePre(e.bank);
        ++stats_.rowConflicts;
        return true;
    }
    return false;
}

bool
MemoryController::actAllowedByFaw() const
{
    return actWindow_.size() < 4 ||
           now_ >= actWindow_.front() + cfg_.timings.tFAW;
}

void
MemoryController::issueAct(unsigned flatBank, std::uint32_t row,
                           std::uint16_t bankGroup)
{
    const auto &t = cfg_.timings;
    Bank &bank = banks_[flatBank];
    bank.openRow = row;
    // The bank was closed, so it had no hits; count the queued entries
    // the new row turns into hits.
    const auto countHits = [&](const std::vector<Entry> &queue) {
        unsigned n = 0;
        for (const auto &e : queue)
            n += e.bank == flatBank && e.req.coord.row == row;
        return n;
    };
    bank.hits[kReads] = countHits(readQueue_);
    bank.hits[kWrites] = countHits(writeQueue_);
    bank.nextRd = std::max(bank.nextRd, now_ + t.tRCD);
    bank.nextWr = std::max(bank.nextWr, now_ + t.tRCD);
    bank.nextPre = std::max(bank.nextPre, now_ + t.tRAS);
    bank.nextAct = std::max(bank.nextAct, now_ + t.tRC());

    // tRRD spacing to every other bank, by bank-group affinity.
    const unsigned perGroup = cfg_.geom.banksPerGroup;
    for (unsigned b = 0; b < banks_.size(); ++b) {
        const unsigned bg = (b / perGroup) % cfg_.geom.bankGroups;
        const unsigned gap = (bg == bankGroup) ? t.tRRD_L : t.tRRD_S;
        banks_[b].nextAct = std::max(banks_[b].nextAct, now_ + gap);
    }

    actWindow_.push_back(now_);
    while (actWindow_.size() > 4)
        actWindow_.pop_front();
    ++stats_.actCommands;
}

void
MemoryController::issuePre(unsigned flatBank)
{
    Bank &bank = banks_[flatBank];
    bank.openRow = -1;
    bank.hits[kReads] = 0;
    bank.hits[kWrites] = 0;
    bank.nextAct = std::max(bank.nextAct, now_ + cfg_.timings.tRP);
    ++stats_.preCommands;
}

void
MemoryController::issueRead(Entry &e)
{
    const auto &t = cfg_.timings;
    Bank &bank = banks_[e.bank];
    bank.nextPre = std::max(bank.nextPre, now_ + t.tRTP);

    const unsigned perGroup = cfg_.geom.banksPerGroup;
    for (unsigned b = 0; b < banks_.size(); ++b) {
        const unsigned bg = (b / perGroup) % cfg_.geom.bankGroups;
        const bool sameGroup = bg == e.req.coord.bankGroup;
        const unsigned ccd = sameGroup ? t.tCCD_L : t.tCCD_S;
        banks_[b].nextRd = std::max(banks_[b].nextRd, now_ + ccd);
        banks_[b].nextWr = std::max(banks_[b].nextWr, now_ + t.tRTW);
    }

    stats_.busBusyCycles += t.tBL;
    ++stats_.readsServed;

    e.req.neededAct = e.neededAct;
    pending_.push_back({now_ + t.tCL + t.tBL, e.req});
}

void
MemoryController::issueWrite(Entry &e)
{
    const auto &t = cfg_.timings;
    Bank &bank = banks_[e.bank];
    bank.nextPre = std::max(bank.nextPre, now_ + t.tCWL + t.tBL + t.tWR);

    const unsigned perGroup = cfg_.geom.banksPerGroup;
    for (unsigned b = 0; b < banks_.size(); ++b) {
        const unsigned bg = (b / perGroup) % cfg_.geom.bankGroups;
        const bool sameGroup = bg == e.req.coord.bankGroup;
        const unsigned ccd = sameGroup ? t.tCCD_L : t.tCCD_S;
        const unsigned wtr = sameGroup ? t.tWTR_L : t.tWTR_S;
        banks_[b].nextWr = std::max(banks_[b].nextWr, now_ + ccd);
        banks_[b].nextRd =
            std::max(banks_[b].nextRd, now_ + t.tCWL + t.tBL + wtr);
    }

    stats_.busBusyCycles += t.tBL;
    ++stats_.writesServed;

    // Writes complete (from the requester's view) once issued.
    e.req.neededAct = e.neededAct;
    if (e.req.sink)
        pending_.push_back({now_ + t.tCWL + t.tBL, e.req});
}

Cycle
MemoryController::fawReadyAt() const
{
    return actWindow_.size() < 4
               ? Cycle{0}
               : actWindow_.front() + cfg_.timings.tFAW;
}

Cycle
MemoryController::commandReadyAt(const Bank &bank, bool writes, bool hit,
                                 Cycle faw)
{
    if (hit)
        return writes ? bank.nextWr : bank.nextRd;
    if (bank.openRow < 0)
        return std::max(bank.nextAct, faw);
    return bank.nextPre;
}

Cycle
MemoryController::earliestCommandAt() const
{
    // For each bank the served queue uses, the timer of the command
    // its entries wait for. A bank whose open row has hits is pinned
    // (mirrors tryPrecharge), so its conflicts add no PRE candidate.
    const unsigned q = writeMode_ ? kWrites : kReads;
    const Cycle faw = fawReadyAt();
    Cycle ev = kNeverCycle;
    for (const Bank &bank : banks_) {
        if (bank.queued[q] != 0) {
            ev = std::min(ev, commandReadyAt(bank, writeMode_,
                                             bank.hits[q] != 0, faw));
        }
    }
    return ev;
}

Cycle
MemoryController::computeEventHint() const
{
    Cycle ev = kNeverCycle;
    if (!pending_.empty())
        ev = std::min(ev, pending_.front().ready);
    if (cfg_.timings.refreshEnabled)
        ev = std::min(ev, refreshPending_ ? Cycle{0} : nextRefresh_);
    if (wouldToggleWriteMode())
        ev = Cycle{0};
    return std::min(ev, earliestCommandAt());
}

void
MemoryController::refreshEventHint() const
{
    eventHint_ = computeEventHint();
    eventHintValid_ = true;
}

void
MemoryController::checkSummaries() const
{
    std::vector<Bank> want(banks_.size());
    const std::vector<Entry> *queues[2] = {&readQueue_, &writeQueue_};
    for (unsigned q : {kReads, kWrites}) {
        for (const auto &e : *queues[q]) {
            dx_assert(e.bank == flatBankFor(e.req.coord), name(),
                      ": entry cached bank ", e.bank, " but maps to ",
                      flatBankFor(e.req.coord));
            dx_assert(e.req.write == (q == kWrites), name(),
                      ": entry in the wrong queue");
            ++want[e.bank].queued[q];
            if (banks_[e.bank].openRow ==
                static_cast<std::int64_t>(e.req.coord.row)) {
                ++want[e.bank].hits[q];
            }
        }
    }
    for (unsigned b = 0; b < banks_.size(); ++b) {
        for (unsigned q : {kReads, kWrites}) {
            dx_assert(banks_[b].queued[q] == want[b].queued[q], name(),
                      ": bank ", b, " queue ", q, " queued ",
                      banks_[b].queued[q], " but re-scan finds ",
                      want[b].queued[q]);
            dx_assert(banks_[b].hits[q] == want[b].hits[q], name(),
                      ": bank ", b, " queue ", q, " hits ",
                      banks_[b].hits[q], " but re-scan finds ",
                      want[b].hits[q]);
        }
    }
}

void
MemoryController::registerStats(StatRegistry &reg) const
{
    auto g = reg.group(path());
    g.counter("cycles", stats_.cycles);
    g.counter("readsServed", stats_.readsServed);
    g.counter("writesServed", stats_.writesServed);
    g.counter("rowHits", stats_.rowHits);
    g.counter("rowMisses", stats_.rowMisses);
    g.counter("rowConflicts", stats_.rowConflicts);
    g.counter("actCommands", stats_.actCommands);
    g.counter("preCommands", stats_.preCommands);
    g.counter("refCommands", stats_.refCommands);
    g.counter("busBusyCycles", stats_.busBusyCycles);
    g.value("occupancyAccum", stats_.occupancyAccum);
    g.gauge("rowHitRate", [this] { return stats_.rowHitRate(); });
    g.gauge("busUtilization",
            [this] { return stats_.busUtilization(); });
}

} // namespace dx::mem
