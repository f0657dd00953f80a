/**
 * @file
 * The benchmark's three fixed grids. Each is a core::GridSpec built the
 * way the figure and ablation benches build theirs; every wall-clock
 * knob (storage backend, drain mode and depth, pinning, retry policy)
 * stays at the program's default so a change of a default shows up in
 * the host-time numbers.
 */

#ifndef SIMBENCH_WORKLOADS_HH
#define SIMBENCH_WORKLOADS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "src/core/grid.hh"

namespace simbench
{

/** One named workload: its grid and what its cells promise. */
struct Workload
{
    std::string name;
    match::core::GridSpec spec;
    /** The cells every pass runs, in order: the spec's enumeration. */
    std::vector<match::core::ExperimentConfig> cells;
    /** Host seconds one pass takes on the reference machine (4 vCPU,
     *  see README). A run of T seconds makes round(T / this) passes,
     *  at least kMinPasses, so every run of a workload does the same
     *  work. */
    double passSeconds = 10.0;
    /** Cells inject one process failure per run. */
    bool injected = false;
};

/** Passes every run makes at least: the cross-pass determinism check
 *  needs two executions of each cell. */
inline constexpr int kMinPasses = 2;

/** Grid seed of the failure-injecting workloads (the benches'
 *  default), independent of --seed. */
inline constexpr std::uint64_t kInjectedSeed = 42;

/**
 * Build a workload's grid: fig5_failfree, fig9_recovery or ckpt_dense
 * (see README.md). `seed` feeds GridSpec::seed of the
 * failure-free grids (noise draws only); `sandbox` is the checkpoint
 * sandbox root (only the disk recomputation writes there). Returns
 * false for an unknown name.
 */
bool makeWorkload(const std::string &name, std::uint64_t seed,
                  const std::string &sandbox, Workload &out);

/** Rank-iterations one completed cell simulates: simulated runs x
 *  nprocs x AppSpec::loopIterations, where a failure-free cell without
 *  storage faults simulates one run and reuses it for the others. */
double rankIterations(const match::core::ExperimentConfig &cell);

/** Short cell label for logs and trace tags. */
std::string cellLabel(const match::core::ExperimentConfig &cell);

} // namespace simbench

#endif // SIMBENCH_WORKLOADS_HH
