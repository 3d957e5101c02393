#include "common/parse.hh"

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>

namespace membw {

Result<Bytes>
tryParseSize(const std::string &text)
{
    if (text.empty())
        return makeError(Errc::BadValue, "empty size");
    errno = 0;
    char *end = nullptr;
    const double v = std::strtod(text.c_str(), &end);
    if (end == text.c_str() || errno == ERANGE || !std::isfinite(v))
        return makeError(Errc::BadValue,
                         "'" + text + "' is not a number");
    if (v <= 0)
        return makeError(Errc::BadValue,
                         "size '" + text + "' must be positive");
    Bytes mult = 1;
    if (*end) {
        switch (*end) {
          case 'k': case 'K': mult = 1_KiB; ++end; break;
          case 'm': case 'M': mult = 1_MiB; ++end; break;
          case 'g': case 'G': mult = 1_GiB; ++end; break;
        }
        if (*end == 'b' || *end == 'B') // 64K and 64KB both work
            ++end;
        if (*end)
            return makeError(Errc::BadValue,
                             "bad size suffix in '" + text +
                                 "' (want K, M, or G)");
    }
    const double bytes = v * static_cast<double>(mult);
    if (bytes >= 9.0e18) // would overflow the 64-bit byte count
        return makeError(Errc::TooLarge,
                         "size '" + text + "' overflows 64 bits");
    return static_cast<Bytes>(bytes);
}

Result<std::uint64_t>
tryParseU64(const std::string &text)
{
    if (text.empty() || text[0] == '-' || text[0] == '+')
        return makeError(Errc::BadValue,
                         "'" + text +
                             "' is not a non-negative integer");
    errno = 0;
    char *end = nullptr;
    const unsigned long long v =
        std::strtoull(text.c_str(), &end, 10);
    if (end == text.c_str() || *end || errno == ERANGE)
        return makeError(Errc::BadValue,
                         "'" + text +
                             "' is not a non-negative integer");
    return static_cast<std::uint64_t>(v);
}

Result<std::int64_t>
tryParseInt(const std::string &text, std::int64_t min,
            std::int64_t max)
{
    errno = 0;
    char *end = nullptr;
    const long long v =
        text.empty() ? 0 : std::strtoll(text.c_str(), &end, 10);
    if (text.empty() || end == text.c_str() || *end ||
        errno == ERANGE)
        return makeError(Errc::BadValue,
                         "'" + text + "' is not an integer");
    if (v < min || v > max)
        return makeError(Errc::BadValue,
                         "'" + text + "' is out of range [" +
                             std::to_string(min) + ", " +
                             std::to_string(max) + "]");
    return static_cast<std::int64_t>(v);
}

Result<double>
tryParseDouble(const std::string &text)
{
    errno = 0;
    char *end = nullptr;
    const double v =
        text.empty() ? 0.0 : std::strtod(text.c_str(), &end);
    if (text.empty() || end == text.c_str() || *end ||
        errno == ERANGE || !std::isfinite(v))
        return makeError(Errc::BadValue,
                         "'" + text + "' is not a finite number");
    return v;
}

Result<double>
tryParseScale(double value)
{
    if (!std::isfinite(value) || value <= 0) {
        char text[32];
        std::snprintf(text, sizeof(text), "%g", value);
        return makeError(Errc::BadValue,
                         std::string("scale ") + text +
                             " is not a finite number > 0");
    }
    return value;
}

Result<double>
tryParseScale(const std::string &text)
{
    Result<double> v = tryParseDouble(text);
    if (!v.ok())
        return v;
    return tryParseScale(v.value());
}

Result<unsigned>
tryParseJobs(const std::string &text)
{
    Result<std::uint64_t> n = tryParseU64(text);
    if (!n.ok())
        return makeError(Errc::BadValue,
                         "'" + text + "' is not a worker count");
    if (n.value() == 0)
        return makeError(Errc::BadValue,
                         "0 workers would run nothing — "
                         "--jobs needs at least 1");
    if (n.value() > maxParallelJobs)
        return makeError(Errc::TooLarge,
                         "'" + text +
                             "' oversubscribes the host: worker "
                             "counts above " +
                             std::to_string(maxParallelJobs) +
                             " are rejected");
    return static_cast<unsigned>(n.value());
}

Result<char>
tryParseExperiment(const std::string &text)
{
    if (text.size() != 1 || text[0] < 'A' || text[0] > 'F')
        return makeError(Errc::BadValue,
                         "'" + text + "' is not an experiment: "
                         "expected a letter A-F");
    return text[0];
}

Result<std::vector<Bytes>>
tryParseSizeList(const std::string &text)
{
    std::vector<Bytes> sizes;
    std::size_t start = 0;
    while (start <= text.size()) {
        const std::size_t comma = text.find(',', start);
        const std::string item =
            text.substr(start, comma == std::string::npos
                                   ? std::string::npos
                                   : comma - start);
        Result<Bytes> size = tryParseSize(item);
        if (!size.ok())
            return makeError(size.error().code,
                             "bad list element: " +
                                 size.error().message);
        sizes.push_back(size.value());
        if (comma == std::string::npos)
            break;
        start = comma + 1;
    }
    if (sizes.empty())
        return makeError(Errc::BadValue, "empty size list");
    return sizes;
}

} // namespace membw
