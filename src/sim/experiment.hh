/**
 * @file
 * Shared bench harness: experiment options, one simulation of a
 * workload, the schema-driven RunStats JSON emitter and the bench
 * header. Every figure number is simulated by the running binary;
 * nothing is read back from disk.
 */

#ifndef DX_SIM_EXPERIMENT_HH
#define DX_SIM_EXPERIMENT_HH

#include <string>
#include <vector>

#include "sim/system.hh"
#include "workloads/workload.hh"

namespace dx::sim
{

struct ExpOptions
{
    double scale = 0.5;      //!< workload scale factor
    unsigned jobs = 0;       //!< parallel jobs; 0 = hardware_concurrency
    bool json = false;       //!< also emit BENCH_<name>.json

    /**
     * Parse --scale=<f|small|paper> --jobs=<n> --json. Malformed
     * values route through dx_fatal with a usage hint instead of
     * escaping as exceptions.
     */
    static ExpOptions parse(int argc, char **argv);

    /** Effective parallelism: jobs, or hardware_concurrency when 0. */
    unsigned effectiveJobs() const;
};

/** Render RunStats as a flat JSON object, full double precision. */
std::string statsToJson(const RunStats &s);

/** Simulate a concrete Workload instance on a fresh System. */
RunStats runWorkloadOnce(wl::Workload &w, const SystemConfig &cfg);

/** Geometric mean helper for "geomean" rows. */
double geomean(const std::vector<double> &values);

/** Print a header naming the bench and the configuration used. */
void printBenchHeader(const std::string &title, const ExpOptions &opt);

} // namespace dx::sim

#endif // DX_SIM_EXPERIMENT_HH
