/**
 * @file
 * Registry exporters: pretty text (TextTable), JSON, and CSV, plus
 * the whole-file write and read helpers the tools share.
 *
 * All three walk the registry in registration order, so identical
 * runs produce byte-identical output — the property the determinism
 * test in tests/obs_test.cc pins down.
 */

#ifndef MEMBW_OBS_EXPORT_HH
#define MEMBW_OBS_EXPORT_HH

#include <string>

#include "obs/json.hh"
#include "obs/registry.hh"

namespace membw {

/** Render as an aligned text table (name, value, unit, description). */
std::string exportText(const StatsRegistry &registry);

/**
 * Emit the stats array (one object per stat, with name/kind/desc/unit
 * plus kind-specific value fields) into an open writer, as the value
 * following a key() call or as an array element.
 */
void writeStatsArray(const StatsRegistry &registry, JsonWriter &w);

/** Standalone document: {"stats": [...]}. */
std::string exportJson(const StatsRegistry &registry);

/** One line per stat: name,kind,value,unit,description. */
std::string exportCsv(const StatsRegistry &registry);

/** Write @p contents to @p path; fatal() on I/O failure. */
void writeFileOrDie(const std::string &path,
                    const std::string &contents);

/** The whole of @p path; fatal() if it cannot be opened or read. */
std::string readFileOrDie(const std::string &path);

} // namespace membw

#endif // MEMBW_OBS_EXPORT_HH
