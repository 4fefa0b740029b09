/**
 * @file
 * A std::jthread pool that executes independent simulation jobs
 * concurrently. Each job owns its System (the simulator shares no
 * mutable state across System instances — see System::liveSystems()),
 * so jobs are embarrassingly parallel; results are collected in
 * declaration order regardless of completion order, which keeps every
 * downstream table deterministic.
 *
 * Failure isolation: each worker installs ScopedFatalThrow, so a run
 * that dx_fatal()s (e.g. failed verification) or throws reports its
 * label and error in its JobResult while the rest of the jobs
 * continue. Only dx_panic (a simulator bug) still aborts the process.
 */

#ifndef DX_SIM_PARALLEL_RUNNER_HH
#define DX_SIM_PARALLEL_RUNNER_HH

#include <functional>
#include <string>
#include <vector>

#include "sim/system.hh"

namespace dx::sim
{

/** One unit of work: a labelled closure producing RunStats. */
struct Job
{
    std::string label;                //!< log prefix + failure report
    std::function<RunStats()> work;
};

struct JobResult
{
    bool ok = false;
    RunStats stats;      //!< valid only when ok
    std::string error;   //!< failure description when !ok
};

class ParallelRunner
{
  public:
    /**
     * @param jobs worker count, at least 1 (ExpOptions::effectiveJobs()
     * resolves the hardware_concurrency default).
     */
    explicit ParallelRunner(unsigned jobs);

    /**
     * Execute every job; results[i] always corresponds to jobs[i].
     * With one worker (or one job) the work runs on the calling
     * thread — the serial path — and still produces bit-identical
     * results to any worker count, since each job is self-contained.
     */
    std::vector<JobResult> run(const std::vector<Job> &jobs) const;

    unsigned workers() const { return workers_; }

  private:
    unsigned workers_;
};

} // namespace dx::sim

#endif // DX_SIM_PARALLEL_RUNNER_HH
