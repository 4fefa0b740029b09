/**
 * @file
 * The traced run: the scheduled System::run loop re-driven from outside
 * through the public per-component contract (quiescent / nextEventAt /
 * localNow / skipCycles / tick and DramSystem::tickScheduled), with one
 * host-time span per layer group per simulated cycle and per-slot
 * tick/skip counts.
 *
 * It makes the same decisions as System::tickScheduled in the same
 * component order, so every component stat matches the untimed run;
 * only the root clock (system.cycles) stays at zero, because the
 * System's own clock is advanced by System::run alone.
 */

#ifndef DX_PERFBENCH_TRACED_HH
#define DX_PERFBENCH_TRACED_HH

#include <array>
#include <cstdint>

#include "sim/system.hh"

namespace perfbench
{

/** Layer groups timed in the traced loop, in System tick order. */
enum Layer : unsigned
{
    kCpu,
    kL1d, //!< includes the DMP prefetcher, which acts inside L1D ticks
    kL2,
    kLlc,
    kDx100,
    kMem,
    kFastForward, //!< whole-system closed-form skips
    kLayerCount,
};

struct LayerTrace
{
    /** Host seconds per layer group, timer cost subtracted. */
    std::array<double, kLayerCount> hostS{};
    /** Component-cycle slots ticked / skipped (fast-forwards skip). */
    std::array<std::uint64_t, kLayerCount> ticked{};
    std::array<std::uint64_t, kLayerCount> skipped{};
    dx::Cycle cycles = 0;   //!< simulated cycles of the run
    dx::Cycle ffCycles = 0; //!< cycles covered by fast-forwards
    double totalS = 0.0;    //!< host seconds of the whole traced loop

    /** Loop overhead: total minus every layer span (incl. timers). */
    double loopS() const;
};

/**
 * Run @p sys to completion like System::run(maxCycles) does, timing
 * each layer group. dx_fatal (which the caller may turn into an
 * exception) when the cycle limit is exceeded.
 */
LayerTrace tracedRun(dx::sim::System &sys,
                     dx::Cycle maxCycles = dx::Cycle{4} << 30);

} // namespace perfbench

#endif // DX_PERFBENCH_TRACED_HH
