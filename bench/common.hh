/**
 * @file
 * Shared driver for the figure-reproduction benchmarks: option parsing,
 * declarative grid specification, thread-parallel grid execution, and
 * paper-style table rendering.
 *
 * Every bench binary prints, for each proxy application, the same
 * series the corresponding paper figure plots: one row per
 * (configuration, design) with the stacked-bar components. Cells run on
 * a GridRunner worker pool; output is bit-identical for any --jobs
 * value because cells are deterministic and rendered in enumeration
 * order after the parallel phase completes.
 */

#ifndef MATCH_BENCH_COMMON_HH
#define MATCH_BENCH_COMMON_HH

#include <initializer_list>
#include <string>
#include <vector>

#include "src/core/grid.hh"

namespace match::bench
{

/**
 * Reject an enum-ish flag value with an error that lists every valid
 * choice — "unknown X" without the menu makes the user go read the
 * source. Shared by --storage, --drain, --pin and --failure-model.
 */
[[noreturn]] void badChoice(const char *flag, const std::string &got,
                            std::initializer_list<const char *> choices);

/**
 * Command-line options shared by the figure benches. Every cell
 * setting a flag names is parsed straight into `spec` (the one
 * configuration schema, ExperimentConfig plus the sweep axes) and every
 * grid fault-tolerance flag into `policy`; the other fields configure
 * the bench itself (output, threads, pinning, exit code).
 */
struct BenchOptions
{
    /** The flags' cell settings and axes: --runs, --seed, --apps,
     *  --sandbox, --storage, --drain, --drain-depth, the failure-scenario
     *  and storage-fault flags, and --transform (which sets the
     *  `transforms` axis). The sandbox defaults to
     *  /dev/shm/match-fti-bench; each cell derives a unique
     *  subdirectory from its execution id. */
    core::GridSpec spec;
    /** --cell-timeout SECS|auto, --cell-retries N, --resume/--no-resume:
     *  wall-clock-only watchdog, retry and journal policy (see
     *  bench/RESUME.md). Never part of configKey. */
    core::GridPolicy policy;

    /** --quick: 2 runs, endpoints-only scaling sweep (64 and 512). */
    bool quick = false;
    /** --csv DIR: also write one CSV per app into DIR. */
    std::string csvDir;
    /** --jobs N: grid worker threads (default 0 = hardware
     *  concurrency). Results and printed output are byte-identical
     *  for every value of N; only wall time changes. */
    int jobs = 0;
    /** --pin none|auto|cores: grid worker placement. `auto` pins
     *  workers round-robin across NUMA nodes/cores when every worker
     *  can own one (each worker's blob pool then stays node-local);
     *  results are identical for every mode. */
    core::PinMode pin = core::PinMode::None;
    /** --strict: exit nonzero when any cell was quarantined (default:
     *  finish the healthy cells and report). */
    bool strict = false;
    /** --perf: measure grid wall-clock under both backends and under
     *  both drain modes at L4 (cache bypassed) and write
     *  BENCH_<name>.json into perfDir. */
    bool perf = false;
    /** --perf-dir DIR: where BENCH_<name>.json lands (default "."). */
    std::string perfDir = ".";

    static BenchOptions parse(int argc, char **argv);

    /** `spec` with the result cache under the sandbox. Benches set
     *  their axes on top of it. */
    core::GridSpec baseSpec() const;

    /** A runner carrying jobs, pin mode and the grid policy — the one
     *  constructor every GridRunner bench should use, so the
     *  watchdog/retry/resume flags reach every grid uniformly. */
    core::GridRunner makeRunner() const;
};

/**
 * Print the structured quarantined-cell report (nothing on a healthy
 * grid) and return the number of quarantined cells. Benches accumulate
 * the count across their grids and feed it to gridExitCode.
 */
int reportCellFailures(const core::GridTiming &timing);

/** Process exit code honoring --strict: nonzero iff any cell was
 *  quarantined and strict mode is on. */
int gridExitCode(const BenchOptions &options, int quarantined);

/** Which axis the figure sweeps. */
enum class Sweep
{
    ScalingSizes, ///< Figures 5-7: P in {64,128,256,512}, small input
    InputSizes,   ///< Figures 8-10: input in {S,M,L}, 64 processes
};

/** What the figure reports. */
enum class Report
{
    Breakdown, ///< stacked application/ckpt-write/recovery components
    Recovery,  ///< recovery time only (Figures 7 and 10)
};

/** Declarative description of one figure bench. */
struct FigureDef
{
    const char *figure; ///< label printed in the header ("Figure 5")
    const char *slug;   ///< perf-record name ("fig5" -> BENCH_fig5.json)
    Sweep sweep;        ///< scaling-size or input-size sweep
    bool inject;        ///< whether a process failure is injected
    Report report;      ///< breakdown or recovery-only rows
};

/**
 * Run one figure's whole grid on a worker pool and print per-app
 * tables (and CSVs when requested). Returns the number of quarantined
 * cells (0 on a healthy grid).
 */
int runFigure(const BenchOptions &options, const FigureDef &def);

/** Parse options and run the figure: the figure benches' whole main. */
int figureMain(const FigureDef &def, int argc, char **argv);

} // namespace match::bench

#endif // MATCH_BENCH_COMMON_HH
