#include "obs/build_info.hh"

// Injected by src/obs/CMakeLists.txt; the fallbacks keep non-CMake
// consumers (clangd, fuzz drivers) compiling.
#ifndef MEMBW_VERSION_STRING
#define MEMBW_VERSION_STRING "0.0.0"
#endif
#ifndef MEMBW_GIT_DESCRIBE
#define MEMBW_GIT_DESCRIBE "unknown"
#endif
#ifndef MEMBW_SANITIZE_NAME
#define MEMBW_SANITIZE_NAME "none"
#endif

namespace membw {

const BuildInfo &
buildInfo()
{
    static const BuildInfo info{
        MEMBW_VERSION_STRING,
        MEMBW_GIT_DESCRIBE,
        MEMBW_SANITIZE_NAME,
#ifdef MEMBW_TRACING_ENABLED
        true,
#else
        false,
#endif
    };
    return info;
}

std::string
formatVersionLine(std::string_view tool)
{
    const BuildInfo &b = buildInfo();
    std::string out(tool);
    out += ' ';
    out += b.version;
    out += " (";
    out += b.gitDescribe;
    out += ")";
    return out;
}

std::string
formatBuildInfo(std::string_view tool)
{
    const BuildInfo &b = buildInfo();
    const auto onoff = [](bool v) { return v ? "on" : "off"; };
    std::string out = formatVersionLine(tool);
    out += "\n  tracing:    ";
    out += onoff(b.tracing);
    out += "\n  sanitizer:  ";
    out += b.sanitizer;
    out += "\n";
    return out;
}

} // namespace membw
