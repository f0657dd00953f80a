/**
 * @file
 * Crash-isolated execution. A broken simulator invariant ends in
 * util::panic(), which aborts the whole process; the benchmark must
 * instead count the cell that hit it as one failed operation and go on
 * with the next cell. So grid cells (and every other call that could
 * panic) run in forked worker processes that stream their results back
 * over a pipe. The parent forks only while it is single-threaded, and
 * the workers inherit its warmed fiber-stack and blob pools.
 */

#ifndef SIMBENCH_ISOLATE_HH
#define SIMBENCH_ISOLATE_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/core/experiment.hh"

namespace simbench
{

/** Monotonic nanoseconds (CLOCK_MONOTONIC, the clock Python's
 *  time.monotonic() reads, so run.py can compare). */
std::int64_t nowNs();

/** One grid cell as a worker process ran it. */
struct CellRecord
{
    /** False when the cell aborted its worker process (or the grid
     *  quarantined it after its retry budget). */
    bool completed = false;
    std::string error;
    match::core::ExperimentResult result;
    /** Span of the GridRunner::run call and of runExperiment inside
     *  it (absolute nowNs() stamps). */
    std::int64_t gridStartNs = 0, gridEndNs = 0;
    std::int64_t cellStartNs = 0, cellEndNs = 0;
};

/** One pass over a cell list. */
struct PassRecord
{
    std::vector<CellRecord> cells;
    double wallSeconds = 0.0;
};

/** Whole passes over a cell list. */
struct RunRecord
{
    std::vector<PassRecord> passes;
    /** User+sys CPU of the worker processes, all their threads. */
    double cpuSeconds = 0.0;
    /** Worker processes forked (1 + cells that aborted one). */
    int workers = 0;
};

/**
 * Run `passes` whole passes over the cells, in order, each cell through
 * its own one-worker GridRunner::run call. One forked worker process
 * runs pass after pass; a cell that kills it is recorded as failed and
 * a fresh worker goes on with the next cell.
 */
RunRecord runPasses(const std::vector<match::core::ExperimentConfig> &cells,
                    int passes);

/**
 * Run `fn` in a forked child and hand back the string it returns.
 * Returns false (with `error` set) when the child died or exited
 * non-zero — a panic inside `fn` cannot take the benchmark down.
 */
bool inChild(const std::function<std::string()> &fn, std::string &out,
             std::string &error);

/** Peak resident set, MB, of the largest worker process reaped so far. */
double childrenPeakRssMb();

} // namespace simbench

#endif // SIMBENCH_ISOLATE_HH
