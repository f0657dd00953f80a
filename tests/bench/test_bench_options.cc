/**
 * @file
 * Bench option parsing: every virtual-result flag must land in every
 * cell the benches enumerate from baseSpec(), and the watchdog, retry
 * and resume flags must land in the grid policy.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "bench/common.hh"
#include "src/ft/failure_model.hh"
#include "tests/core/config_fields.hh"

namespace fs = std::filesystem;
using namespace match;
using match::bench::BenchOptions;
using match::core::ExperimentConfig;

namespace
{

BenchOptions
parseArgs(std::vector<std::string> args)
{
    args.insert(args.begin(), "bench");
    std::vector<char *> argv;
    for (std::string &arg : args)
        argv.push_back(arg.data());
    return BenchOptions::parse(static_cast<int>(argv.size()), argv.data());
}

/** Each cell of the options' base grid carries `want`'s base fields
 *  and the parsed transform. */
void
expectEveryCellCarries(const BenchOptions &options,
                       const ExperimentConfig &want,
                       storage::TransformKind transform)
{
    const auto cells = options.baseSpec().enumerate();
    ASSERT_FALSE(cells.empty());
    for (const ExperimentConfig &cell : cells) {
        test::expectSameBaseFields(cell, want);
        EXPECT_EQ(cell.transform, transform);
    }
}

} // namespace

TEST(BenchOptions, DefaultsMatchTheBenchSandboxAndCache)
{
    const BenchOptions options = parseArgs({});
    ExperimentConfig want;
    want.sandboxDir = "/dev/shm/match-fti-bench";
    want.cacheDir = want.sandboxDir + "/cell-cache";
    expectEveryCellCarries(options, want, storage::TransformKind::None);
    EXPECT_EQ(options.spec.apps.size(), apps::registry().size());
}

TEST(BenchOptions, VirtualResultFlagsReachEveryCell)
{
    const std::string sandbox =
        (fs::temp_directory_path() / "match-bench-options").string();
    const BenchOptions options = parseArgs(
        {"--apps", "miniVite,HPCCG", "--runs", "3", "--seed", "7",
         "--sandbox", sandbox, "--storage", "disk", "--drain", "sync",
         "--drain-depth", "1", "--failure-model", "correlated",
         "--mean-failures", "2.5", "--cascade-prob", "0.6",
         "--corrupt-fraction", "0.25", "--sdc-checks", "--scrub-stride",
         "5", "--drain-capacity", "1048576", "--transform", "delta",
         "--storage-fault-windows", "2", "--storage-fault-pfs-bias", "0.5",
         "--storage-fault-mean-epochs", "4", "--storage-fault-strikes",
         "9", "--io-retry-limit", "5"});

    ExperimentConfig want;
    want.runs = 3;
    want.seed = 7;
    want.sandboxDir = sandbox;
    want.cacheDir = sandbox + "/cell-cache";
    want.storage = storage::Kind::Disk;
    want.drain = storage::DrainMode::Sync;
    want.drainDepth = 1;
    want.failureModel = ft::FailureModelKind::Correlated;
    want.meanFailures = 2.5;
    want.cascadeProb = 0.6;
    want.corruptFraction = 0.25;
    want.sdcChecks = true;
    want.scrubStride = 5;
    want.drainCapacityBytes = 1048576;
    want.storageFaultWindows = 2;
    want.storageFaultPfsBias = 0.5;
    want.storageFaultMeanEpochs = 4;
    want.storageFaultStrikes = 9;
    want.ioRetryLimit = 5;
    expectEveryCellCarries(options, want, storage::TransformKind::Delta);
    EXPECT_EQ(options.spec.apps,
              (std::vector<std::string>{"miniVite", "HPCCG"}));
}

TEST(BenchOptions, TraceFlagsReachEveryCell)
{
    const fs::path dir =
        fs::temp_directory_path() / "match-bench-options-traces";
    fs::create_directories(dir);
    const std::vector<ft::FailureEvent> events = {
        {3, 1, ft::FailureKind::Crash}, {7, 2, ft::FailureKind::Corrupt}};
    const std::vector<storage::FaultWindow> windows = {
        {1, 2, storage::PathClass::Pfs, storage::FaultKind::WriteFault, 2}};
    const std::string failure_trace = (dir / "failures.trace").string();
    const std::string fault_trace = (dir / "faults.trace").string();
    ft::writeTraceFile(failure_trace, events);
    storage::writeFaultTraceFile(fault_trace, windows);

    const BenchOptions options =
        parseArgs({"--apps", "miniVite", "--quick", "--failure-trace",
                   failure_trace, "--storage-fault-trace", fault_trace});

    ExperimentConfig want;
    want.runs = 2; // --quick
    want.sandboxDir = "/dev/shm/match-fti-bench";
    want.cacheDir = want.sandboxDir + "/cell-cache";
    want.failureModel = ft::FailureModelKind::Trace;
    want.traceEvents = events;
    want.storageFaultTrace = windows;
    want.storageFaultWindows = 1; // a replayed fault trace engages
    expectEveryCellCarries(options, want, storage::TransformKind::None);
    EXPECT_TRUE(options.quick);
    fs::remove_all(dir);
}

TEST(BenchOptions, GridPolicyFlagsLandInPolicy)
{
    const BenchOptions fixed = parseArgs(
        {"--cell-timeout", "7.5", "--cell-retries", "4", "--no-resume"});
    EXPECT_EQ(fixed.policy.cellTimeoutSeconds, 7.5);
    EXPECT_FALSE(fixed.policy.autoTimeout);
    EXPECT_EQ(fixed.policy.cellRetries, 4);
    EXPECT_FALSE(fixed.policy.resume);
    const core::GridRunner runner = fixed.makeRunner();
    EXPECT_EQ(runner.policy().cellTimeoutSeconds, 7.5);
    EXPECT_EQ(runner.policy().cellRetries, 4);
    EXPECT_FALSE(runner.policy().resume);

    const BenchOptions automatic =
        parseArgs({"--cell-timeout", "auto", "--resume"});
    EXPECT_TRUE(automatic.policy.autoTimeout);
    EXPECT_EQ(automatic.policy.cellTimeoutSeconds, 0.0);
    EXPECT_TRUE(automatic.policy.resume);

    // The policy is wall-clock only: it never reaches a cell.
    ExperimentConfig want;
    want.sandboxDir = "/dev/shm/match-fti-bench";
    want.cacheDir = want.sandboxDir + "/cell-cache";
    expectEveryCellCarries(fixed, want, storage::TransformKind::None);
}
