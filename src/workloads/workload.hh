/**
 * @file
 * Workload framework.
 *
 * A Workload owns its input data (generated deterministically into the
 * system's SimMemory), builds per-core kernels in baseline or DX100
 * form, and verifies the run's output against a host-computed
 * reference. The same Workload subclass drives both system
 * configurations so the access patterns differ only in *how* they are
 * executed.
 */

#ifndef DX_WORKLOADS_WORKLOAD_HH
#define DX_WORKLOADS_WORKLOAD_HH

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "cpu/microop.hh"
#include "sim/system.hh"

namespace dx::wl
{

/** Controls workload size so benches can trade fidelity for runtime. */
struct Scale
{
    double factor = 1.0; //!< 1.0 = default "small" sizes

    std::size_t
    of(std::size_t base) const
    {
        // Casting a NaN, a negative value or anything at or above 2^64
        // to size_t is undefined: reject it here, before any workload
        // sizes an array from it.
        const double v = static_cast<double>(base) * factor;
        if (!(v >= 0.0 && v < 0x1p64)) {
            dx_fatal("workload size ", base, " x scale ", factor,
                     " does not fit in size_t");
        }
        const auto n = static_cast<std::size_t>(v);
        return n < 16 ? 16 : n;
    }
};

class Workload
{
  public:
    virtual ~Workload() = default;

    virtual std::string name() const = 0;

    /** Allocate and fill input data; register regions with DX100. */
    virtual void init(sim::System &sys) = 0;

    /** Build the kernel for one core (baseline or DX100 variant). */
    virtual std::unique_ptr<cpu::Kernel>
    makeKernel(sim::System &sys, unsigned core, bool dx100) = 0;

    /** Check the run's output; returns true when correct. */
    virtual bool verify(sim::System &sys) = 0;
};

using WorkloadFactory = std::function<std::unique_ptr<Workload>(Scale)>;

/** The 12 paper workloads in presentation order. */
struct WorkloadEntry
{
    std::string name;
    std::string suite;
    WorkloadFactory make;
};

const std::vector<WorkloadEntry> &paperWorkloads();

/** Find a workload by name (nullptr if unknown). */
const WorkloadEntry *findWorkload(const std::string &name);

// ---------------------------------------------------------------------
// Helpers shared by kernels.
// ---------------------------------------------------------------------

/** [begin, end) slice of n items owned by core c of k. */
inline std::pair<std::size_t, std::size_t>
coreSlice(std::size_t n, unsigned c, unsigned k)
{
    const std::size_t per = (n + k - 1) / k;
    const std::size_t b = std::min<std::size_t>(n, per * c);
    const std::size_t e = std::min<std::size_t>(n, b + per);
    return {b, e};
}

/** Register an array region with every DX100 instance. */
inline void
registerAll(sim::System &sys, Addr base, Addr size)
{
    for (unsigned i = 0; sys.runtime(i); ++i)
        sys.runtime(i)->registerRegion(base, size);
}

} // namespace dx::wl

#endif // DX_WORKLOADS_WORKLOAD_HH
