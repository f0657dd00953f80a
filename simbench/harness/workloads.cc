#include "workloads.hh"

#include "src/apps/app.hh"
#include "src/storage/transform.hh"

namespace simbench
{

using match::apps::InputSize;
using match::core::ExperimentConfig;
using match::core::GridSpec;

bool
makeWorkload(const std::string &name, std::uint64_t seed,
             const std::string &sandbox, Workload &out)
{
    GridSpec spec;
    // The figure benches' --quick methodology: 2 runs per cell.
    spec.runs = 2;
    spec.sandboxDir = sandbox;
    spec.cacheDir.clear(); // a replayed cell would measure nothing
    spec.inputs = {InputSize::Small};

    bool injected = false;
    if (name == "fig5_failfree") {
        // Figure 5 --quick: six apps x {64, 512} x 3 designs, L1 every
        // 10 iterations.
        spec.endpointsOnly = true;
        out.passSeconds = 12.0;
    } else if (name == "fig9_recovery") {
        // Figures 9/10 --quick: six apps x {S, M, L} at 64 ranks x 3
        // designs, one injected failure per run.
        spec.scales = {64};
        spec.inputs = {InputSize::Small, InputSize::Medium,
                       InputSize::Large};
        injected = true;
        spec.injectFailure = true;
        out.passSeconds = 8.5;
    } else if (name == "ckpt_dense") {
        // The checkpoint write path at its heaviest: every iteration,
        // levels L1-L3, raw and delta+compress envelopes. L4 is left
        // out: its async drain keeps a second vCPU busy, and on a
        // shared host that drew several times the steal time of the
        // other grids and made the workload's wall time unsteady (see
        // README.md). The drain is timed by the storage.drain_flush_ms
        // and fti.ckpt_ms.L4 probes instead.
        spec.scales = {64};
        spec.inputs = {InputSize::Small, InputSize::Large};
        spec.designs = {match::ft::Design::ReinitFti};
        spec.ckptStrides = {1};
        spec.ckptLevels = {1, 2, 3};
        spec.transforms = {match::storage::TransformKind::None,
                           match::storage::TransformKind::DeltaCompress};
        out.passSeconds = 8.5;
    } else {
        return false;
    }
    // Failure-free cells draw only noise from the seed, so their host
    // work is the same for every seed. Where failures are injected the
    // seed places them, which changes both the work and which cells hit
    // the known REINIT-FTI scheduler deadlock; those grids keep the
    // benches' default seed so every run attempts the same work.
    spec.seed = injected ? kInjectedSeed : seed;
    out.name = name;
    // Every cell of the grid, miniVite x delta+compress included: its
    // checkpoints read a freed buffer (see README.md), so those cells
    // give different results in every execution and are counted as
    // failed by the cross-pass check.
    out.cells = spec.enumerate();
    out.spec = std::move(spec);
    out.injected = injected;
    return true;
}

double
rankIterations(const ExperimentConfig &cell)
{
    match::apps::AppParams params;
    params.input = cell.input;
    params.nprocs = cell.nprocs;
    params.ckptStride = cell.ckptStride;
    const int iters =
        match::apps::findApp(cell.app).loopIterations(params);
    // runExperiment simulates run 0 of a failure-free cell without
    // storage faults and copies it into the later runs.
    const int simulated =
        !cell.injectFailure && cell.storageFaultWindows == 0 ? 1 : cell.runs;
    return static_cast<double>(simulated) * cell.nprocs * iters;
}

std::string
cellLabel(const ExperimentConfig &cell)
{
    return cell.app + " " + match::apps::inputSizeName(cell.input) + " p" +
           std::to_string(cell.nprocs) + " " +
           match::ft::designName(cell.design) + " L" +
           std::to_string(cell.ckptLevel) + " " +
           match::storage::transformKindName(cell.transform);
}

} // namespace simbench
