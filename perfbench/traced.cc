#include "traced.hh"

#include <algorithm>
#include <chrono>
#include <vector>

#include "common/logging.hh"

#if defined(__x86_64__) || defined(__i386__)
#include <x86intrin.h>
#endif

namespace perfbench
{

using dx::Cycle;
using dx::kNeverCycle;

namespace
{

using Clock = std::chrono::steady_clock;

/**
 * A monotonic timestamp in arbitrary ticks. The loop takes up to eight
 * per simulated cycle, so on x86 it reads the TSC, which costs about
 * half of a steady_clock read; ticks are converted to seconds against
 * steady_clock over the whole run.
 */
inline std::uint64_t
stamp()
{
#if defined(__x86_64__) || defined(__i386__)
    return __rdtsc();
#else
    return static_cast<std::uint64_t>(
        Clock::now().time_since_epoch().count());
#endif
}

/**
 * Ticks one span measurement adds by itself: the mean gap between two
 * back-to-back stamps, measured once per process.
 */
double
stampCost()
{
    static const double cost = [] {
        constexpr unsigned kPairs = 1u << 16;
        std::uint64_t sum = 0;
        for (unsigned i = 0; i < kPairs; ++i) {
            const std::uint64_t a = stamp();
            sum += stamp() - a;
        }
        return static_cast<double>(sum) / kPairs;
    }();
    return cost;
}

/** System's tickOrSkip, counting the slot as ticked or skipped. */
template <typename C>
Cycle
tickOrSkip(C &c, std::uint64_t &ticked, std::uint64_t &skipped)
{
    if (c.quiescent()) {
        const Cycle ev = c.nextEventAt();
        if (ev > c.localNow() + 1) {
            c.skipCycles(1);
            ++skipped;
            return ev;
        }
    }
    c.tick();
    ++ticked;
    return 0;
}

} // namespace

double
LayerTrace::loopS() const
{
    double spans = 0.0;
    for (double s : hostS)
        spans += s;
    return totalS - spans;
}

LayerTrace
tracedRun(dx::sim::System &sys, Cycle maxCycles)
{
    std::vector<dx::cpu::Core *> cores;
    std::vector<dx::cache::Cache *> l1s, l2s;
    std::vector<dx::dx100::Dx100 *> dxs;
    for (unsigned i = 0; i < sys.cores(); ++i) {
        cores.push_back(&sys.core(i));
        l1s.push_back(&sys.l1(i));
        l2s.push_back(&sys.l2(i));
    }
    for (unsigned i = 0; sys.dx100(i); ++i)
        dxs.push_back(sys.dx100(i));
    dx::cache::Cache &llc = sys.llc();
    dx::mem::DramSystem &dram = sys.dram();
    const std::uint64_t slotsPerCycle[kLayerCount] = {
        cores.size(), l1s.size(), l2s.size(), 1, dxs.size(), 1, 0,
    };

    LayerTrace t;
    std::array<std::uint64_t, kLayerCount> ticks{};
    std::array<std::uint64_t, kLayerCount> spans{};
    const double cost = stampCost();

    // The components' clocks start where the System's does; the
    // traced clock counts from there.
    const Cycle start = sys.now();
    Cycle now = start;
    const auto wall0 = Clock::now();
    const std::uint64_t tsc0 = stamp();
    while (!sys.drained()) {
        ++now;
        Cycle ev = kNeverCycle;
        bool allSkipped = true;
        const auto fold = [&](Cycle r) {
            if (r == 0)
                allSkipped = false;
            else
                ev = std::min(ev, r);
        };
        std::uint64_t a = stamp();
        const auto close = [&](Layer l) {
            const std::uint64_t b = stamp();
            ticks[l] += b - a;
            ++spans[l];
            a = b;
        };

        for (auto *c : cores)
            fold(tickOrSkip(*c, t.ticked[kCpu], t.skipped[kCpu]));
        close(kCpu);
        for (auto *c : l1s)
            fold(tickOrSkip(*c, t.ticked[kL1d], t.skipped[kL1d]));
        close(kL1d);
        for (auto *c : l2s)
            fold(tickOrSkip(*c, t.ticked[kL2], t.skipped[kL2]));
        close(kL2);
        fold(tickOrSkip(llc, t.ticked[kLlc], t.skipped[kLlc]));
        close(kLlc);
        // Baseline and DMP systems have no DX100: no span at all, so
        // their dx100 host time is exactly zero.
        if (!dxs.empty()) {
            for (auto *d : dxs)
                fold(tickOrSkip(*d, t.ticked[kDx100],
                                t.skipped[kDx100]));
            close(kDx100);
        }
        const bool dramSkipped = dram.tickScheduled();
        ++(dramSkipped ? t.skipped : t.ticked)[kMem];
        // As in System::tickScheduled, the DRAM hint is only queried
        // when everything else skipped.
        const Cycle horizon = dramSkipped && allSkipped
                                  ? std::min(ev, dram.nextEventAt())
                                  : 0;
        close(kMem);

        if (horizon > now + 1) {
            const Cycle target =
                std::min(horizon - 1, start + maxCycles);
            const Cycle n = target - now;
            if (n > 0) {
                for (auto *c : cores)
                    c->skipCycles(n);
                for (auto *c : l1s)
                    c->skipCycles(n);
                for (auto *c : l2s)
                    c->skipCycles(n);
                llc.skipCycles(n);
                for (auto *d : dxs)
                    d->skipCycles(n);
                dram.skipCycles(n);
                now = target;
                t.ffCycles += n;
                for (unsigned l = 0; l < kLayerCount; ++l)
                    t.skipped[l] += n * slotsPerCycle[l];
                close(kFastForward);
            }
        }
        if (now - start >= maxCycles)
            dx_fatal("traced simulation exceeded cycle limit");
    }
    const std::uint64_t tsc1 = stamp();
    t.totalS = std::chrono::duration<double>(Clock::now() - wall0).count();
    t.cycles = now - start;

    const double secondsPerTick =
        tsc1 > tsc0 ? t.totalS / static_cast<double>(tsc1 - tsc0) : 0.0;
    for (unsigned l = 0; l < kLayerCount; ++l) {
        const double net = static_cast<double>(ticks[l]) -
                           cost * static_cast<double>(spans[l]);
        t.hostS[l] = std::max(net, 0.0) * secondsPerTick;
    }
    return t;
}

} // namespace perfbench
