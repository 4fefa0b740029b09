#include "sim/parallel_runner.hh"

#include <atomic>
#include <thread>

#include "common/logging.hh"

namespace dx::sim
{

namespace
{

JobResult
executeJob(const Job &job)
{
    // Tag every warn/inform this job emits, and turn dx_fatal into a
    // catchable error so one failed cell cannot kill the matrix.
    ScopedLogPrefix prefix("[" + job.label + "] ");
    ScopedFatalThrow fatalThrows;
    JobResult r;
    try {
        r.stats = job.work();
        r.ok = true;
    } catch (const FatalError &e) {
        r.error = e.what();
    } catch (const std::exception &e) {
        r.error = e.what();
    }
    return r;
}

} // namespace

ParallelRunner::ParallelRunner(unsigned jobs) : workers_(jobs)
{
    dx_assert(jobs > 0, "ParallelRunner needs at least one worker");
}

std::vector<JobResult>
ParallelRunner::run(const std::vector<Job> &jobs) const
{
    std::vector<JobResult> results(jobs.size());
    std::atomic<std::size_t> next{0};

    auto worker = [&]() {
        for (;;) {
            const std::size_t i =
                next.fetch_add(1, std::memory_order_relaxed);
            if (i >= jobs.size())
                return;
            results[i] = executeJob(jobs[i]);
        }
    };

    const unsigned n = static_cast<unsigned>(
        std::min<std::size_t>(workers_, jobs.size()));
    if (n <= 1) {
        worker();
        return results;
    }

    {
        std::vector<std::jthread> pool;
        pool.reserve(n);
        for (unsigned t = 0; t < n; ++t)
            pool.emplace_back(worker);
    } // jthread joins on destruction

    return results;
}

} // namespace dx::sim
