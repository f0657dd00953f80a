/**
 * @file
 * Ablation: ULFM background-overhead sensitivity. The paper attributes
 * ULFM-FTI's application slowdown to the runtime's heartbeat failure
 * detector and failure-aware communication wrappers (Bosilca et al.).
 * This bench sweeps the modelled per-tree-level slowdown and shows how
 * the Figure-5 gap between ULFM-FTI and REINIT-FTI responds.
 */

#include <cstdio>
#include <vector>

#include "bench/common.hh"
#include "src/util/table.hh"

using namespace match;
using namespace match::bench;

int
main(int argc, char **argv)
{
    const auto options = BenchOptions::parse(argc, argv);

    // One flat grid, noise off: per slowdown, HPCCG at 64 and 512
    // processes under ULFM-FTI then REINIT-FTI (adjacent cells).
    std::vector<core::ExperimentConfig> cells;
    for (double slowdown : {0.0, 0.014, 0.028, 0.056}) {
        core::GridSpec spec = options.baseSpec();
        spec.apps = {"HPCCG"};
        spec.scales = {64, 512};
        spec.designs = {ft::Design::UlfmFti, ft::Design::ReinitFti};
        spec.noiseSigma = 0.0;
        spec.costParams.ulfmAppSlowdownPerLevel = slowdown;
        const auto slice = spec.enumerate();
        cells.insert(cells.end(), slice.begin(), slice.end());
    }
    core::GridTiming timing;
    const auto results = options.makeRunner().run(cells, &timing);

    std::printf("=== Ablation: ULFM heartbeat/wrapper slowdown "
                "(HPCCG, small) ===\n\n");
    util::Table table({"SlowdownPerLevel", "#Processes",
                       "ULFM App(s)", "Reinit App(s)", "Overhead(%)"});
    for (std::size_t i = 0; i + 1 < cells.size(); i += 2) {
        const double ulfm = results[i].mean.application;
        const double reinit = results[i + 1].mean.application;
        table.addRow(
            {util::Table::cell(cells[i].costParams.ulfmAppSlowdownPerLevel,
                               3),
             std::to_string(cells[i].nprocs), util::Table::cell(ulfm),
             util::Table::cell(reinit),
             util::Table::cell(100.0 * (ulfm / reinit - 1.0), 1)});
    }
    std::printf("%s\n", table.toString().c_str());
    std::printf("The paper's default (0.028/level) reproduces the "
                "Figure-5 overhead of ~15%% at 64 and ~25%% at 512 "
                "processes; 0 models a heartbeat-free ULFM.\n");
    return gridExitCode(options, reportCellFailures(timing));
}
