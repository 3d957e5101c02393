/**
 * @file
 * Fuzz target for the checkpoint reader and every loadState layered
 * on it.
 *
 * Oracle: ChkReader::fromMemory() and the section readers must latch
 * classified errors on arbitrary bytes — never throw, abort, hang, or
 * allocate past the image size.  The same image is offered to every
 * deserializer in the tree (traffic result, registry values, core
 * result, cache hierarchy, MTC), since a real checkpoint file could
 * be fed to any of them by a confused --resume.  An MTC state that
 * loads is then run to the end of its trace.
 */

#include <cstddef>
#include <cstdint>
#include <cstdlib>

#include "cache/hierarchy.hh"
#include "cpu/core.hh"
#include "mtc/min_cache.hh"
#include "obs/epoch_profiler.hh"
#include "resilience/checkpoint.hh"
#include "trace/trace.hh"

#include "standalone_driver.hh"

namespace {

using namespace membw;

void
expectLatched(const ChkReader &r)
{
    if (r.failed() && r.error().code == Errc::Ok)
        std::abort();
}

} // namespace

extern "C" int
LLVMFuzzerTestOneInput(const std::uint8_t *data, std::size_t size)
{
    using namespace membw;

    auto opened = ChkReader::fromMemory(data, size);
    if (!opened.ok()) {
        if (opened.error().code == Errc::Ok)
            std::abort();
        return 0;
    }

    // Each deserializer gets a fresh reader over the same image; all
    // must fail softly (latched error) or succeed, never escape.
    {
        ChkReader r = std::move(opened.value());
        TrafficResult result;
        loadTrafficResult(r, result);
        expectLatched(r);
    }
    {
        auto again = ChkReader::fromMemory(data, size);
        ChkReader r = std::move(again.value());
        (void)loadRegistryValues(r);
        expectLatched(r);
    }
    {
        auto again = ChkReader::fromMemory(data, size);
        ChkReader r = std::move(again.value());
        CoreResult result;
        loadCoreResult(r, result);
        expectLatched(r);
    }
    {
        auto again = ChkReader::fromMemory(data, size);
        ChkReader r = std::move(again.value());
        CacheConfig cfg;
        cfg.name = "L1";
        cfg.size = 1_KiB;
        CacheHierarchy hier(std::vector<CacheConfig>{cfg});
        hier.loadState(r);
        expectLatched(r);
    }
    {
        auto again = ChkReader::fromMemory(data, size);
        ChkReader r = std::move(again.value());
        Trace trace;
        trace.append(0x100, 4, RefKind::Load);
        trace.append(0x104, 4, RefKind::Store);
        MinCacheSim sim(trace, canonicalMtc(1_KiB));
        sim.loadState(r);
        expectLatched(r);
        // A restored state must also replay: a forged image that
        // passes validation runs to the end under the sanitizers.
        if (!r.failed())
            sim.run();
    }
    {
        auto again = ChkReader::fromMemory(data, size);
        ChkReader r = std::move(again.value());
        EpochProfiler prof(1);
        prof.loadState(r);
        expectLatched(r);
    }
    return 0;
}
