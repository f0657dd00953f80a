/**
 * @file
 * Test-side table of every ExperimentConfig field: how it is
 * classified (hashed into configKey() or wall-clock only; owned by a
 * GridSpec axis or inherited from the spec's base), a non-default
 * value to set it to, and a field equality. The configKey(), grid and
 * bench-option tests all walk this one table, and configFields()
 * fails the calling test when a field is added to ExperimentConfig
 * without a row here.
 */

#ifndef MATCH_TESTS_CORE_CONFIG_FIELDS_HH
#define MATCH_TESTS_CORE_CONFIG_FIELDS_HH

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <functional>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/core/experiment.hh"

namespace match::test
{

using core::ExperimentConfig;

/** One ExperimentConfig field. */
struct ConfigField
{
    const char *name;
    /** Hashed into configKey() (a virtual-result setting). */
    bool keyed;
    /** Set per cell by GridSpec::enumerate() from an axis. */
    bool perCell;
    /** Give the field a value different from its default. */
    std::function<void(ExperimentConfig &)> perturb;
    /** The field holds the same value in both configs. */
    std::function<bool(const ExperimentConfig &, const ExperimentConfig &)>
        same;
};

namespace detail
{

/** Converts to any member type: brace-initializing an aggregate from N
 *  of these compiles iff the aggregate has at least N fields. */
struct AnyField
{
    template <class T> operator T() const;
};

template <class T, class Seq, class = void>
struct BraceInitializable : std::false_type
{};

template <class T, std::size_t... I>
struct BraceInitializable<
    T, std::index_sequence<I...>,
    std::void_t<decltype(T{(void(I), AnyField{})...})>> : std::true_type
{};

template <class T, std::size_t N = 0>
constexpr std::size_t
aggregateFieldCount()
{
    if constexpr (BraceInitializable<T,
                                     std::make_index_sequence<N + 1>>::value)
        return aggregateFieldCount<T, N + 1>();
    else
        return N;
}

} // namespace detail

#define MATCH_CONFIG_FIELD(field, keyed, perCell, value)                     \
    ConfigField                                                              \
    {                                                                        \
        #field, keyed, perCell,                                              \
            [](ExperimentConfig &c) { c.field = value; },                    \
            [](const ExperimentConfig &a, const ExperimentConfig &b) {       \
                return a.field == b.field;                                   \
            }                                                                \
    }

/** Every ExperimentConfig field, in declaration order. */
inline const std::vector<ConfigField> &
configFields()
{
    static const std::atomic<bool> cancelToken{false};
    static const std::vector<ConfigField> fields = {
        MATCH_CONFIG_FIELD(app, true, true, "miniVite"),
        MATCH_CONFIG_FIELD(input, true, true, apps::InputSize::Medium),
        MATCH_CONFIG_FIELD(nprocs, true, true, 128),
        MATCH_CONFIG_FIELD(design, true, true, ft::Design::UlfmFti),
        MATCH_CONFIG_FIELD(injectFailure, true, false, true),
        MATCH_CONFIG_FIELD(failureModel, true, false,
                           ft::FailureModelKind::Correlated),
        MATCH_CONFIG_FIELD(meanFailures, true, false, 2.5),
        MATCH_CONFIG_FIELD(cascadeProb, true, false, 0.6),
        MATCH_CONFIG_FIELD(corruptFraction, true, false, 0.25),
        MATCH_CONFIG_FIELD(traceEvents, true, false,
                           (std::vector<ft::FailureEvent>{
                               {3, 1, ft::FailureKind::Crash}})),
        MATCH_CONFIG_FIELD(storageFaultWindows, true, false, 2),
        MATCH_CONFIG_FIELD(storageFaultPfsBias, true, false, 0.5),
        MATCH_CONFIG_FIELD(storageFaultMeanEpochs, true, false, 4),
        MATCH_CONFIG_FIELD(storageFaultStrikes, true, false, 9),
        MATCH_CONFIG_FIELD(storageFaultTrace, true, false,
                           (std::vector<storage::FaultWindow>{
                               {1, 2, storage::PathClass::Pfs,
                                storage::FaultKind::WriteFault, 2}})),
        MATCH_CONFIG_FIELD(ioRetryLimit, true, false, 5),
        MATCH_CONFIG_FIELD(sdcChecks, true, false, true),
        MATCH_CONFIG_FIELD(scrubStride, true, false, 5),
        MATCH_CONFIG_FIELD(drainCapacityBytes, true, false,
                           std::size_t{1} << 20),
        MATCH_CONFIG_FIELD(transform, true, true,
                           storage::TransformKind::Delta),
        MATCH_CONFIG_FIELD(deltaRebase, true, false, 3),
        MATCH_CONFIG_FIELD(runs, true, false, 3),
        MATCH_CONFIG_FIELD(seed, true, false, 7u),
        MATCH_CONFIG_FIELD(ckptLevel, true, true, 4),
        MATCH_CONFIG_FIELD(ckptStride, true, true, 5),
        MATCH_CONFIG_FIELD(sandboxDir, false, false, "/elsewhere"),
        MATCH_CONFIG_FIELD(storage, false, false, storage::Kind::Disk),
        MATCH_CONFIG_FIELD(drain, false, false, storage::DrainMode::Sync),
        MATCH_CONFIG_FIELD(drainDepth, false, false, 1),
        ConfigField{"costParams", true, false,
                    [](ExperimentConfig &c) {
                        c.costParams.ulfmAppSlowdownPerLevel = 0.5;
                    },
                    [](const ExperimentConfig &a,
                       const ExperimentConfig &b) {
                        return std::memcmp(&a.costParams, &b.costParams,
                                           sizeof(a.costParams)) == 0;
                    }},
        MATCH_CONFIG_FIELD(noiseSigma, true, false, 0.0),
        MATCH_CONFIG_FIELD(cacheDir, false, false, "/cache"),
        MATCH_CONFIG_FIELD(cancel, false, false, &cancelToken),
    };
    EXPECT_EQ(fields.size(), detail::aggregateFieldCount<ExperimentConfig>())
        << "an ExperimentConfig field has no row in configFields(): "
           "classify it (keyed? per-cell?) in tests/core/config_fields.hh";
    return fields;
}

#undef MATCH_CONFIG_FIELD

/** Every field of `a` and `b` not owned by a GridSpec axis holds the
 *  same value; a mismatch is reported by field name. */
inline void
expectSameBaseFields(const ExperimentConfig &a, const ExperimentConfig &b)
{
    for (const ConfigField &field : configFields()) {
        if (!field.perCell) {
            EXPECT_TRUE(field.same(a, b)) << field.name;
        }
    }
}

} // namespace match::test

#endif // MATCH_TESTS_CORE_CONFIG_FIELDS_HH
