/**
 * @file
 * simbench: host-time benchmark of the MATCH simulator.
 *
 *   simbench --workload NAME --seed S --seconds T --trace 0|1
 *            --sandbox DIR [--trace-out FILE] [--setup-only]
 *
 * Set-up (library start-up, lazy kernel tables, grid enumeration and
 * one untimed warm-up cell) ends with a "simbench-ready <ns>" line on
 * stdout, stamped with CLOCK_MONOTONIC. The timed part then runs
 * round(T / the workload's nominal pass time) whole passes over the
 * workload's grid (at least kMinPasses), checks every completed cell,
 * and prints one JSON object as the last line.
 * With --trace 1 only kMinPasses passes run (the determinism check
 * needs two), the spans of the first are recorded and the per-layer
 * probes follow; the JSON carries the per-layer metrics.
 */

#include <algorithm>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "checks.hh"
#include "isolate.hh"
#include "probes.hh"
#include "trace.hh"
#include "workloads.hh"
#include "src/core/grid.hh"
#include "src/fti/rs_codec.hh"
#include "src/util/crc32c.hh"
#include "src/util/gf256.hh"

namespace
{

using namespace simbench;
using match::core::ExperimentConfig;

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    bool setupOnly = false;
    std::string sandbox;
    std::string traceOut;
};

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "simbench: %s\nusage: simbench --workload NAME --seed S "
                 "--seconds T --trace 0|1 --sandbox DIR [--trace-out FILE] "
                 "[--setup-only]\n",
                 why);
    std::exit(2);
}

Options
parse(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(("missing value for " + arg).c_str());
            return argv[++i];
        };
        if (arg == "--workload")
            o.workload = value();
        else if (arg == "--seed")
            o.seed = std::strtoull(value().c_str(), nullptr, 10);
        else if (arg == "--seconds")
            o.seconds = std::atof(value().c_str());
        else if (arg == "--trace")
            o.trace = value() == "1";
        else if (arg == "--sandbox")
            o.sandbox = value();
        else if (arg == "--trace-out")
            o.traceOut = value();
        else if (arg == "--setup-only")
            o.setupOnly = true;
        else
            usage(("unknown argument " + arg).c_str());
    }
    if (o.sandbox.empty())
        usage("--sandbox is required");
    return o;
}

/** The warm-up cell: the grid's largest job (most ranks, then largest
 *  input), failure-free so that set-up itself cannot abort. It
 *  first-touches the fiber-stack and blob pools the timed cells use. */
ExperimentConfig
warmupCell(const std::vector<ExperimentConfig> &cells)
{
    ExperimentConfig best = cells.front();
    for (const ExperimentConfig &c : cells) {
        if (c.nprocs > best.nprocs ||
            (c.nprocs == best.nprocs && c.input > best.input))
            best = c;
    }
    best.injectFailure = false;
    best.storageFaultWindows = 0;
    return best;
}

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

struct PassTotals
{
    double rankIters = 0.0;
    double wall = 0.0;
    double cpu = 0.0; ///< set once per run, not per pass
    int attempted = 0;
    int failed = 0;
};

/** Count one pass. A cell fails when it aborted, or when its results
 *  differ between passes (`unrepeatable`); only the rest count work. */
void
accumulate(const std::vector<ExperimentConfig> &cells, const PassRecord &pass,
           const std::vector<bool> &unrepeatable, PassTotals &t)
{
    for (std::size_t i = 0; i < cells.size(); ++i) {
        ++t.attempted;
        if (pass.cells[i].completed && !unrepeatable[i])
            t.rankIters += rankIterations(cells[i]);
        else
            ++t.failed;
    }
    t.wall += pass.wallSeconds;
}

void
printJson(bool correct, const PassTotals &t, const std::vector<LayerMetric> &m,
          const Failures &failures)
{
    std::printf("{\"correct\": %s, \"attempted\": %d, \"failed\": %d, "
                "\"metrics\": {",
                correct ? "true" : "false", t.attempted, t.failed);
    for (std::size_t i = 0; i < m.size(); ++i)
        std::printf("%s\"%s\": {\"value\": %.9g, \"unit\": \"%s\"}",
                    i ? ", " : "", m[i].name.c_str(), m[i].value,
                    m[i].unit.c_str());
    std::printf("}, \"check_failures\": %zu}\n", failures.size());
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    const Options opt = parse(argc, argv);
    // A grid worker that dies must not take the parent down with it
    // through a write to its pipe.
    std::signal(SIGPIPE, SIG_IGN);

    // Lazy tables and kernel dispatch are part of set-up.
    (void)match::util::crc32c("simbench", 8);
    (void)match::util::gf256::kernelName();
    (void)match::fti::RsCodec(4, 2);

    Workload workload;
    if (!makeWorkload(opt.workload, opt.seed, opt.sandbox, workload))
        usage(("unknown workload " + opt.workload).c_str());
    const std::vector<ExperimentConfig> &cells = workload.cells;
    {
        const match::core::GridRunner runner(1);
        runner.run({warmupCell(cells)});
    }
    std::printf("simbench-ready %lld\n", static_cast<long long>(nowNs()));
    std::fflush(stdout);
    if (opt.setupOnly)
        return 0;

    // Timed passes: whole grids, as many as fit the run length on the
    // reference machine, so every run does the same work. The traced
    // run reports no end-to-end numbers and makes only the passes the
    // checks need.
    const int pass_count =
        opt.trace ? kMinPasses
                  : std::max(kMinPasses,
                             static_cast<int>(std::lround(
                                 opt.seconds / workload.passSeconds)));
    const std::int64_t timed_start = nowNs();
    const RunRecord run = runPasses(cells, pass_count);
    const std::vector<PassRecord> &passes = run.passes;
    const double peak_rss_mb = childrenPeakRssMb();

    Failures failures;
    const std::vector<bool> unrepeatable =
        unrepeatableCells(cells, passes, failures);
    PassTotals timed;
    for (std::size_t p = 0; p < passes.size(); ++p) {
        PassTotals one;
        accumulate(cells, passes[p], unrepeatable, one);
        accumulate(cells, passes[p], unrepeatable, timed);
        std::fprintf(stderr,
                     "pass %zu: %.3f s wall, %.1f rank-iter/s, %d of %d "
                     "cells failed\n",
                     p + 1, one.wall, one.rankIters / one.wall, one.failed,
                     one.attempted);
    }
    timed.cpu = run.cpuSeconds;

    for (const PassRecord &pass : passes)
        checkCells(workload, cells, pass, failures);
    if (workload.name == "fig9_recovery")
        checkDesignOrder(cells, passes[0], failures);
    checkBackendInvariance(cells.front(), passes[0].cells.front(), failures);
    if (workload.injected)
        checkFinals(cells.front(), failures);

    std::vector<LayerMetric> metrics;
    if (!opt.trace) {
        metrics.push_back(
            {"rank_iters_per_s", timed.rankIters / timed.wall, "1/s"});
        metrics.push_back({"cpu_us_per_rank_iter",
                           timed.cpu / timed.rankIters * 1e6, "us"});
        metrics.push_back({"peak_rss_mb", peak_rss_mb, "MB"});
    } else {
        // The traced run: spans around GridRunner::run and
        // runExperiment of the first pass, then the per-layer probes.
        // The worker stamps these clocks in every pass, traced or not,
        // and the spans are built after the passes end, so tracing
        // adds nothing to the timed work.
        Trace trace;
        const int root =
            trace.add("workload", timed_start, 0, -1, opt.workload);
        const PassRecord &traced = passes.front();
        std::vector<double> cell_s;
        double grid_self = 0.0;
        for (std::size_t i = 0; i < cells.size(); ++i) {
            const CellRecord &rec = traced.cells[i];
            if (!rec.completed)
                continue;
            const int grid = trace.add("core.GridRunner::run", rec.gridStartNs,
                                       rec.gridEndNs, root);
            trace.add("core.runExperiment", rec.cellStartNs, rec.cellEndNs,
                      grid, cellLabel(cells[i]));
            cell_s.push_back(static_cast<double>(rec.cellEndNs -
                                                 rec.cellStartNs) * 1e-9);
            grid_self += static_cast<double>((rec.gridEndNs - rec.gridStartNs) -
                                             (rec.cellEndNs - rec.cellStartNs)) *
                         1e-9;
        }
        metrics.push_back({"core.cell_s", median(cell_s), "s"});
        metrics.push_back({"core.grid_self_s", grid_self, "s"});

        for (const std::string &group : probeGroups()) {
            std::string text, error;
            if (!inChild(
                    [&] {
                        return encodeProbeResult(
                            runProbeGroup(group, opt.seed, opt.sandbox));
                    },
                    text, error)) {
                failures.push_back("probe group " + group + ": " + error);
                continue;
            }
            const ProbeResult probe = decodeProbeResult(text);
            metrics.insert(metrics.end(), probe.metrics.begin(),
                           probe.metrics.end());
            failures.insert(failures.end(), probe.failures.begin(),
                            probe.failures.end());
            // Re-parent the group's spans under this workload's root.
            const int base = static_cast<int>(trace.spans().size());
            for (const Span &s : probe.trace.spans())
                trace.add(s.name, s.startNs, s.endNs,
                          s.parent < 0 ? root : base + s.parent, s.tags);
        }
        trace.finish(root, nowNs());
        if (!opt.traceOut.empty() && !trace.write(opt.traceOut))
            failures.push_back("could not write " + opt.traceOut);
    }

    for (const std::string &f : failures)
        std::fprintf(stderr, "simbench: check failed: %s\n", f.c_str());
    for (std::size_t i = 0; i < cells.size(); ++i) {
        if (!passes[0].cells[i].completed)
            std::fprintf(stderr, "simbench: cell failed: %s: %s\n",
                         cellLabel(cells[i]).c_str(),
                         passes[0].cells[i].error.c_str());
        else if (unrepeatable[i])
            std::fprintf(stderr,
                         "simbench: cell failed: %s: results differ "
                         "between passes\n",
                         cellLabel(cells[i]).c_str());
    }
    printJson(failures.empty(), timed, metrics, failures);
    return 0;
}
