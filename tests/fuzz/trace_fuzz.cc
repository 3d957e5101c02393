/**
 * @file
 * Fuzz target for the hardened trace loader.
 *
 * Oracle: parseTrace() must classify arbitrary bytes — return Ok or a
 * non-Ok Errc — and may never abort, throw, leak, overflow, or
 * allocate unboundedly.  On accepted inputs the decoded trace must be
 * internally consistent (every reference within the size cap, CRC
 * computable), which catches "parsed but insane" escapes.
 */

#include <cstddef>
#include <cstdint>
#include <cstdlib>

#include "trace/trace_io.hh"

#include "standalone_driver.hh"

extern "C" int
LLVMFuzzerTestOneInput(const std::uint8_t *data, std::size_t size)
{
    using namespace membw;

    const auto result = parseTrace(data, size, "<fuzz>");
    if (!result.ok()) {
        // Classification must be a real code with a message.
        if (result.error().code == Errc::Ok ||
            result.error().message.empty())
            std::abort();
        return 0;
    }

    const Trace &trace = result.value();
    for (const MemRef &ref : trace) {
        if (ref.size == 0 || ref.size > maxTraceRefBytes)
            std::abort(); // validator let a bad record through
        if (ref.addr > ~Addr{0} - (ref.size - 1))
            std::abort();
    }
    (void)traceCrc32(trace);
    return 0;
}
