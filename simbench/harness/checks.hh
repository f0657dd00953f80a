/**
 * @file
 * Correctness checks on what the simulator computed. Cells are checked
 * against properties the method must have, never against a saved copy
 * of earlier output.
 */

#ifndef SIMBENCH_CHECKS_HH
#define SIMBENCH_CHECKS_HH

#include <string>
#include <vector>

#include "isolate.hh"
#include "workloads.hh"

namespace simbench
{

/** Failed checks, one readable line each; empty means all held. */
using Failures = std::vector<std::string>;

/** Field-wise exact (bit-level) equality of two breakdowns. */
bool sameBreakdown(const match::ft::Breakdown &a,
                   const match::ft::Breakdown &b);

/**
 * Per-cell properties of every completed cell of a pass: finite,
 * non-negative components; failure-free cells without recovery;
 * injected cells (one failure per run) that fired and recovered (a
 * RESTART-FTI recovery is a redeployment, so it shows as attempts >= 2).
 */
void checkCells(const Workload &workload,
                const std::vector<match::core::ExperimentConfig> &cells,
                const PassRecord &pass, Failures &failures);

/**
 * The simulator is deterministic: a cell must give bit-identical
 * breakdowns in every pass. Returns, per cell, whether some pass gave
 * a different result; the caller counts such a cell as failed in every
 * pass (its results cannot all be right). A cell that completed in some
 * passes only is a failed check.
 */
std::vector<bool>
unrepeatableCells(const std::vector<match::core::ExperimentConfig> &cells,
                  const std::vector<PassRecord> &passes, Failures &failures);

/**
 * Paper finding 1 on a single-failure grid: REINIT-FTI recovery is
 * below both ULFM-FTI's and RESTART-FTI's for every (app, input, scale)
 * group. Groups holding a failed cell are skipped.
 */
void checkDesignOrder(const std::vector<match::core::ExperimentConfig> &cells,
                      const PassRecord &pass, Failures &failures);

/**
 * Recompute `cell` with the disk backend and the sync drain (in a
 * child process) and require a bit-identical result: the documented
 * invariance of virtual results under every wall-clock setting.
 */
void checkBackendInvariance(const match::core::ExperimentConfig &cell,
                            const CellRecord &timed, Failures &failures);

/**
 * Per app, the per-rank final values (AppParams::finals) of a run with
 * one crash at a fixed site equal a failure-free run's. The design
 * rotates over the apps; level and stride follow `like`.
 */
void checkFinals(const match::core::ExperimentConfig &like,
                 Failures &failures);

} // namespace simbench

#endif // SIMBENCH_CHECKS_HH
