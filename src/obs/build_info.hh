/**
 * @file
 * Build provenance for `--version` / `--build-info` and the daemon
 * `ping` response.
 *
 * Every long-lived deployment eventually asks "which binary is this?"
 * — the answer here is the git describe string, the compile-time
 * feature set (tracing probes, sanitizer), and the project version,
 * all baked in at configure time.
 */

#ifndef MEMBW_OBS_BUILD_INFO_HH
#define MEMBW_OBS_BUILD_INFO_HH

#include <string>
#include <string_view>

namespace membw {

/** Compile-time build provenance, fixed at configure time. */
struct BuildInfo
{
    std::string_view version;     ///< project version (semver)
    std::string_view gitDescribe; ///< `git describe` or "unknown"
    std::string_view sanitizer;   ///< "none", "address", or "thread"
    bool tracing = false;         ///< span-tracing probes compiled in
};

/** The provenance of this binary. */
const BuildInfo &buildInfo();

/** One-line banner for `--version`: "<tool> <version> (<describe>)". */
std::string formatVersionLine(std::string_view tool);

/** Multi-line block for `--build-info`. */
std::string formatBuildInfo(std::string_view tool);

} // namespace membw

#endif // MEMBW_OBS_BUILD_INFO_HH
