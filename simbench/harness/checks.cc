#include "checks.hh"

#include <cmath>
#include <cstring>
#include <map>
#include <tuple>

#include "src/apps/app.hh"
#include "src/ft/design.hh"
#include "src/fti/fti.hh"

namespace simbench
{

using match::core::ExperimentConfig;
using match::ft::Breakdown;
using match::ft::Design;

namespace
{

bool
sameBits(double a, double b)
{
    return std::memcmp(&a, &b, sizeof(double)) == 0;
}

std::string
describe(const ExperimentConfig &cell, const std::string &what)
{
    return cellLabel(cell) + ": " + what;
}

/** Rows of one breakdown check: the mean and every run. */
void
checkBreakdown(const ExperimentConfig &cell, const Breakdown &bd,
               const std::string &which, bool single_failure,
               bool failure_free, Failures &failures)
{
    for (const double v :
         {bd.application, bd.ckptWrite, bd.ckptRead, bd.recovery}) {
        if (!std::isfinite(v) || v < 0.0)
            failures.push_back(describe(cell, which +
                                                  ": a breakdown component "
                                                  "is negative or not finite"));
    }
    if (failure_free &&
        (bd.recovery != 0.0 || bd.recoveries != 0 || bd.failureFired))
        failures.push_back(
            describe(cell, which + ": recovery without a failure"));
    if (single_failure) {
        const bool recovered = cell.design == Design::RestartFti
                                   ? bd.attempts >= 2
                                   : bd.recoveries >= 1;
        if (!bd.failureFired || !recovered || !(bd.recovery > 0.0))
            failures.push_back(describe(
                cell, which + ": the injected failure did not fire and "
                              "recover"));
    }
}

} // anonymous namespace

bool
sameBreakdown(const Breakdown &a, const Breakdown &b)
{
    return sameBits(a.application, b.application) &&
           sameBits(a.ckptWrite, b.ckptWrite) &&
           sameBits(a.ckptRead, b.ckptRead) &&
           sameBits(a.recovery, b.recovery) && a.attempts == b.attempts &&
           a.recoveries == b.recoveries && a.failureFired == b.failureFired;
}

void
checkCells(const Workload &workload, const std::vector<ExperimentConfig> &cells,
           const PassRecord &pass, Failures &failures)
{
    const bool single = workload.injected;
    const bool failure_free = !workload.injected;
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const CellRecord &rec = pass.cells[i];
        if (!rec.completed)
            continue;
        if (static_cast<int>(rec.result.perRun.size()) != cells[i].runs) {
            failures.push_back(describe(cells[i], "wrong number of runs"));
            continue;
        }
        // The mean aggregates runs; only its components are checked.
        checkBreakdown(cells[i], rec.result.mean, "mean", false, false,
                       failures);
        for (std::size_t r = 0; r < rec.result.perRun.size(); ++r)
            checkBreakdown(cells[i], rec.result.perRun[r],
                           "run " + std::to_string(r), single, failure_free,
                           failures);
    }
}

std::vector<bool>
unrepeatableCells(const std::vector<ExperimentConfig> &cells,
                  const std::vector<PassRecord> &passes, Failures &failures)
{
    std::vector<bool> differs(cells.size(), false);
    const PassRecord &a = passes.front();
    for (std::size_t p = 1; p < passes.size(); ++p) {
        const PassRecord &b = passes[p];
        for (std::size_t i = 0; i < cells.size(); ++i) {
            const CellRecord &x = a.cells[i], &y = b.cells[i];
            if (x.completed != y.completed) {
                failures.push_back(
                    describe(cells[i], "completed in some passes only"));
                continue;
            }
            if (!x.completed)
                continue;
            bool same = x.result.perRun.size() == y.result.perRun.size() &&
                        sameBreakdown(x.result.mean, y.result.mean);
            for (std::size_t r = 0; same && r < x.result.perRun.size(); ++r)
                same = sameBreakdown(x.result.perRun[r], y.result.perRun[r]);
            if (!same)
                differs[i] = true;
        }
    }
    return differs;
}

void
checkDesignOrder(const std::vector<ExperimentConfig> &cells,
                 const PassRecord &pass, Failures &failures)
{
    using Key = std::tuple<std::string, int, int>;
    std::map<Key, std::map<Design, const CellRecord *>> groups;
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const Key key{cells[i].app, static_cast<int>(cells[i].input),
                      cells[i].nprocs};
        groups[key][cells[i].design] = &pass.cells[i];
    }
    for (const auto &[key, by_design] : groups) {
        bool complete = by_design.size() == match::ft::allDesigns.size();
        for (const auto &entry : by_design)
            complete = complete && entry.second->completed;
        if (!complete)
            continue;
        const double reinit =
            by_design.at(Design::ReinitFti)->result.mean.recovery;
        const double ulfm = by_design.at(Design::UlfmFti)->result.mean.recovery;
        const double restart =
            by_design.at(Design::RestartFti)->result.mean.recovery;
        if (!(reinit < ulfm && reinit < restart)) {
            failures.push_back(
                std::get<0>(key) + " input " +
                std::to_string(std::get<1>(key)) + " p" +
                std::to_string(std::get<2>(key)) +
                ": REINIT-FTI recovery is not below ULFM-FTI's and "
                "RESTART-FTI's");
        }
    }
}

void
checkBackendInvariance(const ExperimentConfig &cell, const CellRecord &timed,
                       Failures &failures)
{
    if (!timed.completed)
        return;
    ExperimentConfig again = cell;
    again.storage = match::storage::Kind::Disk;
    again.drain = match::storage::DrainMode::Sync;
    std::string bytes, error;
    const bool ok = inChild(
        [&] {
            const match::core::ExperimentResult r =
                match::core::runExperiment(again);
            std::string out(sizeof(Breakdown) * (1 + r.perRun.size()), '\0');
            std::memcpy(out.data(), &r.mean, sizeof(Breakdown));
            for (std::size_t i = 0; i < r.perRun.size(); ++i)
                std::memcpy(out.data() + (i + 1) * sizeof(Breakdown),
                            &r.perRun[i], sizeof(Breakdown));
            return out;
        },
        bytes, error);
    const std::size_t runs = timed.result.perRun.size();
    if (!ok || bytes.size() != sizeof(Breakdown) * (1 + runs)) {
        failures.push_back(describe(cell, "disk/sync recomputation failed: " +
                                              error));
        return;
    }
    std::vector<Breakdown> got(1 + runs);
    std::memcpy(got.data(), bytes.data(), bytes.size());
    bool same = sameBreakdown(got[0], timed.result.mean);
    for (std::size_t r = 0; same && r < runs; ++r)
        same = sameBreakdown(got[r + 1], timed.result.perRun[r]);
    if (!same)
        failures.push_back(describe(
            cell, "disk backend + sync drain gave a different breakdown"));
}

void
checkFinals(const ExperimentConfig &like, Failures &failures)
{
    namespace apps = match::apps;
    const auto &registry = apps::registry();
    for (std::size_t a = 0; a < registry.size(); ++a) {
        const apps::AppSpec &spec = registry[a];
        const Design design =
            match::ft::allDesigns[a % match::ft::allDesigns.size()];
        apps::AppParams params;
        params.input = apps::InputSize::Small;
        params.nprocs = like.nprocs > 64 ? 64 : like.nprocs;
        params.ckptStride = like.ckptStride;
        const int iters = spec.loopIterations(params);
        const std::string label = spec.name + " " +
                                  match::ft::designName(design) + " p" +
                                  std::to_string(params.nprocs);

        const auto finals = [&](bool inject, std::string &out) {
            std::string error;
            const bool ok = inChild(
                [&] {
                    std::vector<double> values(params.nprocs);
                    apps::AppParams run = params;
                    run.finals = &values;
                    match::ft::DesignRunConfig drc;
                    drc.design = design;
                    drc.nprocs = params.nprocs;
                    drc.ftiConfig.ckptDir = like.sandboxDir;
                    drc.ftiConfig.execId = "finals-" + spec.name;
                    drc.ftiConfig.defaultLevel = like.ckptLevel;
                    drc.ftiConfig.sdcChecks = like.sdcChecks;
                    drc.ftiConfig.backend =
                        match::storage::makeBackend(match::storage::Kind::Mem);
                    drc.ftiConfig.drain =
                        std::make_shared<match::storage::DrainWorker>(
                            like.drain, static_cast<std::size_t>(
                                            like.drainDepth));
                    drc.injectFailure = inject;
                    drc.failIteration = iters / 2 + 1;
                    drc.failRank = params.nprocs / 3;
                    const Breakdown bd = match::ft::runDesign(
                        drc, [&](match::simmpi::Proc &proc,
                                 const match::fti::FtiConfig &cfg) {
                            spec.main(proc, cfg, run);
                        });
                    if (inject && !bd.failureFired)
                        return std::string("not fired");
                    return std::string(
                        reinterpret_cast<const char *>(values.data()),
                        values.size() * sizeof(double));
                },
                out, error);
            if (!ok)
                out = error;
            return ok;
        };
        std::string clean, injected;
        if (!finals(false, clean) || !finals(true, injected)) {
            failures.push_back(label + ": finals run failed: " + clean +
                               injected);
            continue;
        }
        if (injected != clean)
            failures.push_back(label + ": per-rank finals after a recovered "
                                       "failure differ from a failure-free "
                                       "run's");
    }
}

} // namespace simbench
