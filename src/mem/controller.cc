#include "mem/controller.hh"

#include <algorithm>
#include <bit>
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
    // The bank-group scope carries each _L rule and the channel scope
    // each _S rule. A bank takes the max of both, which is the rule's
    // _L for a bank in the commanding bank's group only while
    // _L >= _S.
    const auto &t = cfg_.timings;
    const auto needLongAtLeastShort = [this](const char *field,
                                             unsigned l, unsigned s) {
        if (l < s) {
            dx_fatal(name(), ": ", field, "_L = ", l, " is below ", field,
                     "_S = ", s, "; the scoped DDR4 timers need _L >= _S");
        }
    };
    needLongAtLeastShort("tCCD", t.tCCD_L, t.tCCD_S);
    needLongAtLeastShort("tRRD", t.tRRD_L, t.tRRD_S);
    needLongAtLeastShort("tWTR", t.tWTR_L, t.tWTR_S);
    if (banks_.size() > kMaxBanks) {
        dx_fatal(name(), ": banksPerChannel = ", banks_.size(),
                 " exceeds the ", kMaxBanks, " the readiness masks hold");
    }
    if (cfg_.geom.bankGroups > kMaxBankGroups) {
        dx_fatal(name(), ": bankGroups = ", cfg_.geom.bankGroups,
                 " exceeds the ", kMaxBankGroups,
                 " bank-group timer scopes");
    }
    // A bank's group ignores the rank: ranks share the group timers.
    for (unsigned b = 0; b < banks_.size(); ++b) {
        banks_[b].group =
            (b / cfg_.geom.banksPerGroup) % cfg_.geom.bankGroups;
    }
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
    e.bank = req.coord.bankInChannel(cfg_.geom);
    (req.write ? writeQueue_ : readQueue_).push_back(e);
    Bank &bank = banks_[e.bank];
    const unsigned q = req.write ? kWrites : kReads;
    const std::uint64_t bit = std::uint64_t{1} << e.bank;
    const bool newBank = (queuedMask_[q] & bit) == 0;
    ++bank.queued[q];
    queuedMask_[q] |= bit;
    const bool hit =
        bank.openRow == static_cast<std::int64_t>(req.coord.row);
    if (hit)
        ++bank.hits[q];

    // Patch the one readiness-table entry this bank has. A bank new to
    // the served queue gains one; an open bank's first hit turns its
    // conflict PRE into a column command, whose later timer may have
    // held the minimum, so that rare case rebuilds instead.
    if (tableValid_ && q == served()) {
        if (newBank) {
            setReadiness(e.bank, fawReadyAt());
            tableMin_ = std::min(tableMin_, readyAt_[e.bank]);
        } else if (hit && bank.hits[q] == 1) {
            tableValid_ = false;
        }
    }
}

bool
MemoryController::idle() const
{
    return readQueue_.empty() && writeQueue_.empty() && pending_.empty();
}

void
MemoryController::deliverResponses()
{
    while (!pending_.empty() && pending_.front().ready <= now_) {
        MemRequest req = pending_.front().req;
        pending_.pop_front();
        if (req.sink)
            req.sink->complete(req);
    }
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

    deliverResponses();

    if (tryRefresh()) {
        tableValid_ = false;
        return;
    }

    // Write-drain hysteresis (single source of truth with
    // nextEventAt(): see wouldToggleWriteMode).
    if (wouldToggleWriteMode()) {
        if (!writeMode_) {
            writeMode_ = true;
            writeBurst_ = 0;
        } else {
            writeMode_ = false;
            readCredit_ = cfg_.writeBurstMax;
        }
        tableValid_ = false;
    }

    issueCommand();
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
        ready = std::max(ready, timerAt(bank, &Timers::act));
    if (ready > now_)
        return true;

    // Every bank's ACT timer has passed, so one channel-wide tRFC
    // holds each bank exactly as long as a per-bank one would.
    channelTimers_.act = now_ + cfg_.timings.tRFC;
    nextRefresh_ += cfg_.timings.tREFI;
    refreshPending_ = false;
    ++stats_.refCommands;
    return true;
}

void
MemoryController::issueCommand()
{
    if (earliestCommandAt() > now_)
        return;

    // Ready masks per command class, from the table alone.
    const unsigned q = served();
    std::uint64_t ready[3] = {0, 0, 0};
    for (std::uint64_t m = queuedMask_[q]; m != 0; m &= m - 1) {
        const unsigned b = static_cast<unsigned>(std::countr_zero(m));
        if (readyAt_[b] <= now_)
            ready[readyCmd_[b]] |= std::uint64_t{1} << b;
    }
    const Cmd cmd = ready[kColumn] ? kColumn : ready[kAct] ? kAct : kPre;
    const std::uint64_t mask = ready[cmd];

    // FR-FCFS: the oldest entry of a ready bank; a column command also
    // needs the entry to hit the open row.
    std::vector<Entry> &queue = writeMode_ ? writeQueue_ : readQueue_;
    std::size_t i = 0;
    for (; i < queue.size(); ++i) {
        const Entry &e = queue[i];
        if (((mask >> e.bank) & 1) != 0 &&
            (cmd != kColumn ||
             banks_[e.bank].openRow ==
                 static_cast<std::int64_t>(e.req.coord.row))) {
            break;
        }
    }
    dx_assert(i < queue.size(), name(), ": readiness table names a ready ",
              "bank with no matching entry");

    tableValid_ = false;
    switch (cmd) {
      case kColumn:
        issueColumn(queue, i);
        break;
      case kAct:
        issueAct(queue[i]);
        break;
      case kPre:
        issuePre(queue[i].bank);
        ++stats_.rowConflicts;
        break;
    }
}

void
MemoryController::issueColumn(std::vector<Entry> &queue, std::size_t i)
{
    Entry &e = queue[i];
    const unsigned q = served();
    if (writeMode_) {
        issueWrite(e);
        ++writeBurst_;
    } else {
        issueRead(e);
        if (readCredit_ > 0)
            --readCredit_;
    }

    if (e.neededAct)
        ++stats_.rowMisses;
    else
        ++stats_.rowHits;

    Bank &bank = banks_[e.bank];
    --bank.hits[q];
    if (--bank.queued[q] == 0)
        queuedMask_[q] &= ~(std::uint64_t{1} << e.bank);
    queue.erase(queue.begin() + static_cast<std::ptrdiff_t>(i));
    // A waiter upstream may be watching for space.
    if (dequeueMirror_) // unwired in stand-alone controller tests
        ++*dequeueMirror_;
}

void
MemoryController::issueAct(Entry &e)
{
    const auto &t = cfg_.timings;
    const std::uint32_t row = e.req.coord.row;
    Bank &bank = banks_[e.bank];
    bank.openRow = row;
    // The bank was closed, so it had no hits; count the queued entries
    // the new row turns into hits, in each queue that has any here.
    const auto countHits = [&](const std::vector<Entry> &queue,
                               unsigned q) {
        unsigned n = 0;
        if (bank.queued[q] != 0) {
            for (const auto &other : queue)
                n += other.bank == e.bank && other.req.coord.row == row;
        }
        return n;
    };
    bank.hits[kReads] = countHits(readQueue_, kReads);
    bank.hits[kWrites] = countHits(writeQueue_, kWrites);
    bank.timers.rd = std::max(bank.timers.rd, now_ + t.tRCD);
    bank.timers.wr = std::max(bank.timers.wr, now_ + t.tRCD);
    bank.timers.act = std::max(bank.timers.act, now_ + t.tRC());
    bank.nextPre = std::max(bank.nextPre, now_ + t.tRAS);
    Timers &group = groups_[bank.group];
    group.act = std::max(group.act, now_ + t.tRRD_L);
    channelTimers_.act = std::max(channelTimers_.act, now_ + t.tRRD_S);

    actWindow_[actNext_] = now_;
    actNext_ = (actNext_ + 1) % actWindow_.size();
    if (actCount_ < actWindow_.size())
        ++actCount_;
    ++stats_.actCommands;
    // Sibling requests to the same (bank, row) become row hits and
    // need no flag; requests to other rows of this bank will conflict.
    e.neededAct = true;
}

void
MemoryController::issuePre(unsigned flatBank)
{
    Bank &bank = banks_[flatBank];
    bank.openRow = -1;
    bank.hits[kReads] = 0;
    bank.hits[kWrites] = 0;
    bank.timers.act = std::max(bank.timers.act, now_ + cfg_.timings.tRP);
    ++stats_.preCommands;
}

void
MemoryController::issueRead(Entry &e)
{
    const auto &t = cfg_.timings;
    Bank &bank = banks_[e.bank];
    bank.nextPre = std::max(bank.nextPre, now_ + t.tRTP);
    Timers &group = groups_[bank.group];
    group.rd = std::max(group.rd, now_ + t.tCCD_L);
    channelTimers_.rd = std::max(channelTimers_.rd, now_ + t.tCCD_S);
    channelTimers_.wr = std::max(channelTimers_.wr, now_ + t.tRTW);

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
    const Cycle dataEnd = now_ + t.tCWL + t.tBL;
    bank.nextPre = std::max(bank.nextPre, dataEnd + t.tWR);
    Timers &group = groups_[bank.group];
    group.wr = std::max(group.wr, now_ + t.tCCD_L);
    group.rd = std::max(group.rd, dataEnd + t.tWTR_L);
    channelTimers_.wr = std::max(channelTimers_.wr, now_ + t.tCCD_S);
    channelTimers_.rd = std::max(channelTimers_.rd, dataEnd + t.tWTR_S);

    stats_.busBusyCycles += t.tBL;
    ++stats_.writesServed;

    // Writes complete (from the requester's view) once issued.
    e.req.neededAct = e.neededAct;
    if (e.req.sink)
        pending_.push_back({dataEnd, e.req});
}

Cycle
MemoryController::fawReadyAt() const
{
    return actCount_ < actWindow_.size()
               ? Cycle{0}
               : actWindow_[actNext_] + cfg_.timings.tFAW;
}

Cycle
MemoryController::commandReadyAt(const Bank &bank, bool writes, bool hit,
                                 Cycle faw) const
{
    if (hit)
        return timerAt(bank, writes ? &Timers::wr : &Timers::rd);
    if (bank.openRow < 0)
        return std::max(timerAt(bank, &Timers::act), faw);
    return bank.nextPre;
}

void
MemoryController::setReadiness(unsigned b, Cycle faw) const
{
    // FR-FCFS: a bank whose open row has hits in the served queue is
    // pinned, so its conflicts add no PRE candidate. Only that queue:
    // letting the idle queue's hits pin rows open deadlocks the drain.
    const Bank &bank = banks_[b];
    const bool hit = bank.hits[served()] != 0;
    readyCmd_[b] = hit ? kColumn : bank.openRow < 0 ? kAct : kPre;
    readyAt_[b] = commandReadyAt(bank, writeMode_, hit, faw);
}

void
MemoryController::buildTable() const
{
    const Cycle faw = fawReadyAt();
    tableMin_ = kNeverCycle;
    for (std::uint64_t m = queuedMask_[served()]; m != 0; m &= m - 1) {
        const unsigned b = static_cast<unsigned>(std::countr_zero(m));
        setReadiness(b, faw);
        tableMin_ = std::min(tableMin_, readyAt_[b]);
    }
    tableValid_ = true;
}

Cycle
MemoryController::earliestCommandAt() const
{
    if (!tableValid_)
        buildTable();
    return tableMin_;
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
MemoryController::checkSummaries() const
{
    std::vector<Bank> want(banks_.size());
    const std::vector<Entry> *queues[2] = {&readQueue_, &writeQueue_};
    for (unsigned q : {kReads, kWrites}) {
        for (const auto &e : *queues[q]) {
            const unsigned bank = e.req.coord.bankInChannel(cfg_.geom);
            dx_assert(e.bank == bank, name(), ": entry cached bank ",
                      e.bank, " but maps to ", bank);
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
            dx_assert(((queuedMask_[q] >> b) & 1) == (want[b].queued[q] != 0),
                      name(), ": bank ", b, " queue ", q,
                      " queued-bank mask disagrees with its count");
        }
    }

    if (!tableValid_)
        return;
    const unsigned q = served();
    const Cycle faw = fawReadyAt();
    Cycle min = kNeverCycle;
    for (unsigned b = 0; b < banks_.size(); ++b) {
        if (want[b].queued[q] == 0)
            continue;
        const Bank &bank = banks_[b];
        const bool hit = bank.hits[q] != 0;
        const Cmd cmd = hit ? kColumn : bank.openRow < 0 ? kAct : kPre;
        const Cycle at = commandReadyAt(bank, writeMode_, hit, faw);
        dx_assert(readyCmd_[b] == cmd && readyAt_[b] == at, name(),
                  ": bank ", b, " readiness table holds command ",
                  unsigned{readyCmd_[b]}, " at ", readyAt_[b],
                  " but recomputation finds ", unsigned{cmd}, " at ", at);
        min = std::min(min, at);
    }
    dx_assert(tableMin_ == min, name(), ": readiness table minimum ",
              tableMin_, " but recomputation finds ", min);
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
