/**
 * @file
 * The benchmark's workloads: each is a fixed list of simulation cells
 * (one workload kernel on one system configuration), the input variant
 * that sizes them, and the paper anchor numbers the finished cells are
 * compared against.
 */

#ifndef DX_PERFBENCH_CELLS_HH
#define DX_PERFBENCH_CELLS_HH

#include <cstddef>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "sim/system.hh"
#include "workloads/workload.hh"

namespace perfbench
{

/** One (workload kernel, system configuration) simulation. */
struct CellSpec
{
    std::string row;   //!< kernel or index order, e.g. "RBH0", "IS"
    std::string tag;   //!< configuration: baseline, dx100, dmp, ...
    dx::sim::SystemConfig cfg;
    std::function<std::unique_ptr<dx::wl::Workload>()> make;

    std::string id() const { return row + "/" + tag; }
    bool dx100() const { return cfg.dx100Instances > 0; }
};

/**
 * The input variant reachable from outside the simulator: the
 * generator seeds are fixed inside src/workloads, so only the size can
 * change. Micro workloads take an element count, paper_mix a scale.
 */
struct InputVariant
{
    std::size_t elements = 0; //!< micro kernels: indices / elements
    double scale = 0.0;       //!< paper_mix: wl::Scale factor

    /** Stable text form, used as the reference-file key. */
    std::string key() const;
};

/** A measured value next to the paper's number for it. */
struct Anchor
{
    std::string label;
    double paper;
    double measured;
};

/** Finished cells' stats keyed by CellSpec::id(). */
using CellStats = std::map<std::string, dx::sim::RunStats>;

struct WorkloadDef
{
    std::string name;
    InputVariant defaults;
    std::function<std::vector<CellSpec>(const InputVariant &)> cells;
    /** Paper anchors; empty when a cell they need is missing. */
    std::function<std::vector<Anchor>(const CellStats &)> anchors;
    /** Geometric-mean DX100 speedup over the workload's baselines. */
    std::function<double(const CellStats &)> speedupGeomean;
};

/** allmiss_gather, allhit_update, paper_mix. */
const std::vector<WorkloadDef> &workloadDefs();

const WorkloadDef *findWorkloadDef(const std::string &name);

} // namespace perfbench

#endif // DX_PERFBENCH_CELLS_HH
