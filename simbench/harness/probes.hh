/**
 * @file
 * Per-layer probes for the traced pass. Each probe times one public
 * call into a layer under src/ (simmpi, apps, ft, fti, storage, util),
 * records a span around it, and checks the call's output against a
 * property computed apart from the program (a published check value,
 * an independent reference, a round trip).
 */

#ifndef SIMBENCH_PROBES_HH
#define SIMBENCH_PROBES_HH

#include <cstdint>
#include <string>
#include <vector>

#include "trace.hh"

namespace simbench
{

/** One per-layer number. */
struct LayerMetric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** What a probe group hands back to the traced pass. */
struct ProbeResult
{
    std::vector<LayerMetric> metrics;
    /** Failed independent checks, one line each (empty: all held). */
    std::vector<std::string> failures;
    Trace trace;
};

/** Names of the probe groups, run one per forked child. */
const std::vector<std::string> &probeGroups();

/** Run one probe group; payload bytes derive from `seed`. */
ProbeResult runProbeGroup(const std::string &group, std::uint64_t seed,
                          const std::string &sandbox);

/** Line-oriented (de)serialization so a group can run in a child. */
std::string encodeProbeResult(const ProbeResult &result);
ProbeResult decodeProbeResult(const std::string &text);

} // namespace simbench

#endif // SIMBENCH_PROBES_HH
