/**
 * @file
 * Declarative system assembly.
 *
 * TopologyBuilder turns a SystemConfig into a Topology: the owned set
 * of components (cores, caches, DX100 instances, DRAM, glue ports),
 * wired together and adopted into the component naming tree under a
 * caller-supplied root. System's constructor is the only caller; tests
 * use it through System to audit the resulting tree.
 *
 * The builder is where every structural decision lives — cache
 * hierarchy shape, prefetcher substitution (DMP replaces the L1 stride
 * prefetcher), DX100 MMIO/scratchpad window placement, coherency-agent
 * membership, multi-instance region directory — so sim/system.cc holds
 * no hand-wiring.
 */

#ifndef DX_SIM_TOPOLOGY_HH
#define DX_SIM_TOPOLOGY_HH

#include <memory>
#include <vector>

#include "sim/system.hh"

namespace dx::sim
{

/**
 * Everything a built system owns, in destruction-safe order (later
 * members reference earlier ones and are destroyed first).
 */
struct Topology
{
    std::unique_ptr<mem::DramSystem> dram;
    std::unique_ptr<cache::DramPort> dramPort;
    //! Steers scratchpad lines to DX100; null without an instance.
    std::unique_ptr<cache::RangeRouter> router;
    std::unique_ptr<cache::Cache> llc;
    std::vector<std::unique_ptr<cache::Cache>> l2s;
    std::vector<std::unique_ptr<cache::Cache>> l1s;
    std::vector<std::unique_ptr<cpu::Core>> cores;
    std::vector<std::unique_ptr<dx100::Dx100>> dxs;
    std::vector<std::unique_ptr<runtime::Dx100Runtime>> runtimes;
    std::unique_ptr<dx100::RegionDirectory> regionDir;
};

class TopologyBuilder
{
  public:
    /**
     * @p mem is the functional memory backing DMP's value-predicting
     * prefetcher and the DX100 runtimes; it must outlive the topology.
     */
    TopologyBuilder(const SystemConfig &cfg, SimMemory &mem)
        : cfg_(cfg), mem_(mem)
    {
    }

    /**
     * Validate the configuration, instantiate and wire every component,
     * and adopt the tree under @p root:
     *
     *   root.core<i>.{l1d[.dmp], l2}
     *   root.llc
     *   root.dx100 (or dx100_<i> with several instances)
     *   root.dram.ch<c>
     */
    Topology build(Component &root) const;

  private:
    const SystemConfig &cfg_;
    SimMemory &mem_;
};

} // namespace dx::sim

#endif // DX_SIM_TOPOLOGY_HH
