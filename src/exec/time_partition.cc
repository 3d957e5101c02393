#include "exec/time_partition.hh"

#include <algorithm>
#include <string>
#include <thread>

#include "common/log.hh"
#include "exec/ladder_kernel.hh"
#include "exec/ladder_sweep.hh"
#include "exec/parallel_sweep.hh"
#include "obs/trace_span.hh"

namespace membw {

unsigned
partitionPartsFor(const CacheConfig &cfg, unsigned jobs,
                  unsigned parts, std::size_t configCount)
{
    unsigned p = parts;
    if (p == 0) {
        // Derive: enough parts per config that the *effective*
        // workers have work even when few configs exist (1 config ->
        // jobs parts; >= jobs configs -> cross-config parallelism
        // suffices).  Every part rescans the whole stream, so parts
        // beyond the host's hardware threads are pure replay
        // overhead — the derivation clamps to hardware concurrency.
        // Explicit `parts` is honored untouched (results are
        // byte-identical at ANY count; the equivalence tests sweep
        // it directly).
        const unsigned hw = std::max(
            1u, std::thread::hardware_concurrency());
        const unsigned eff = std::min(std::max(jobs, 1u), hw);
        const std::size_t k = std::max<std::size_t>(configCount, 1);
        p = static_cast<unsigned>((eff + k - 1) / k);
    }
    const std::uint64_t sets = cfg.sets();
    if (p > sets)
        p = static_cast<unsigned>(sets);
    return std::max(p, 1u);
}

std::vector<LadderPart>
ladderParts(const std::vector<CacheConfig> &configs, unsigned jobs,
            unsigned parts)
{
    std::vector<LadderPart> out;
    for (std::size_t j = 0; j < configs.size(); ++j) {
        const unsigned p =
            partitionPartsFor(configs[j], jobs, parts, configs.size());
        const std::uint64_t sets = configs[j].sets();
        const std::uint64_t span = sets / p;
        const std::uint64_t rem = sets % p;
        std::uint64_t lo = 0;
        for (unsigned part = 0; part < p; ++part) {
            const std::uint64_t s = span + (part < rem ? 1 : 0);
            out.push_back(LadderPart{j, lo, s});
            lo += s;
        }
    }
    return out;
}

CacheStats
runLadderPart(const BlockStream &stream, const CacheConfig &cfg,
              const LadderPart &part)
{
    ladder::ConfigSim sim(cfg, part.setLo, part.setSpan);
    sim.kernel =
        ladder::selectKernel(sim.ways, part.setSpan != cfg.sets());
    // One sim per part: no per-chunk locality to exploit, so replay
    // the whole stream in one call.
    ladder::ChunkRefs all{0, stream.refs};
    sim.kernel(sim, stream, all);
    sim.flush();
    return sim.stats;
}

std::vector<TrafficResult>
mergeLadderParts(const BlockStream &stream, std::size_t nConfigs,
                 const std::vector<LadderPart> &parts,
                 const std::vector<CacheStats> &stats)
{
    // Integer sums are order-independent; part order keeps the merge
    // deterministic anyway.
    std::vector<CacheStats> merged(nConfigs);
    for (std::size_t i = 0; i < parts.size(); ++i)
        ladder::mergeStats(merged[parts[i].cfg], stats[i]);
    std::vector<TrafficResult> out;
    out.reserve(nConfigs);
    for (const CacheStats &m : merged)
        out.push_back(ladder::ladderTraffic(stream, m));
    return out;
}

std::optional<std::vector<TrafficResult>>
partitionedLadderSweep(const BlockStream &stream,
                       const std::vector<CacheConfig> &configs,
                       const PartitionOptions &opts)
{
    if (!ladderCollapsible(stream, configs))
        fatal("partitionedLadderSweep: configs are outside the "
              "one-pass regime (check ladderCollapsible first)");

    const std::vector<LadderPart> parts =
        ladderParts(configs, opts.jobs, opts.parts);

    MEMBW_SPAN_D("time_partition.sweep",
                 "configs=" + std::to_string(configs.size()) +
                     " cells=" + std::to_string(parts.size()) +
                     " jobs=" + std::to_string(opts.jobs));

    SweepOptions sweep;
    sweep.jobs = opts.jobs;
    sweep.cancel = opts.cancel;
    SweepResult<CacheStats> run =
        parallelSweep(parts.size(), sweep, [&](std::size_t i) {
            return runLadderPart(stream, configs[parts[i].cfg],
                                 parts[i]);
        });
    if (run.interrupted)
        return std::nullopt;
    return mergeLadderParts(stream, configs.size(), parts, run.cells);
}

std::optional<TrafficResult>
partitionedLadderRun(const BlockStream &stream, const CacheConfig &cfg,
                     const PartitionOptions &opts)
{
    std::vector<CacheConfig> configs{cfg};
    auto results = partitionedLadderSweep(stream, configs, opts);
    if (!results)
        return std::nullopt;
    return std::move(results->front());
}

WordRunOutcome
partitionedLadderRunWord(const Trace &trace, const CacheConfig &cfg,
                         const PartitionOptions &opts,
                         TrafficResult &result)
{
    if (!ladderKernelSupported(cfg))
        fatal("partitionedLadderRunWord: config outside the ladder "
              "regime (check ladderKernelSupported() first)");

    const std::uint64_t sets = cfg.sets();
    const std::vector<LadderPart> cells =
        ladderParts({cfg}, opts.jobs, opts.parts);

    MEMBW_SPAN_D("time_partition.word_run",
                 "cells=" + std::to_string(cells.size()) +
                     " jobs=" + std::to_string(opts.jobs));

    // The validating kernels count hits+misses (= owned references)
    // and stores per worker; since set partitioning assigns every
    // reference to exactly one worker, the sums reconstruct the trace
    // totals with no separate scan.
    struct WordCell
    {
        CacheStats stats;
        bool ok = true;
    };
    SweepOptions sweep;
    sweep.jobs = opts.jobs;
    sweep.cancel = opts.cancel;
    SweepResult<WordCell> run = parallelSweep(
        cells.size(), sweep, [&](std::size_t i) {
            const LadderPart &cell = cells[i];
            const bool filtered = cell.setSpan != sets;
            ladder::ConfigSim sim(cfg, cell.setLo, cell.setSpan);
            const ladder::WordKernel kernel =
                ladder::selectWordKernel(sim.ways, filtered);
            WordCell out;
            out.ok = kernel(sim, trace.data(), 0, trace.size());
            if (out.ok)
                sim.flush();
            out.stats = sim.stats;
            return out;
        });
    if (run.interrupted)
        return WordRunOutcome::Interrupted;
    for (const WordCell &cell : run.cells)
        if (!cell.ok)
            return WordRunOutcome::NotAllWord;

    CacheStats merged;
    for (const WordCell &cell : run.cells)
        ladder::mergeStats(merged, cell.stats);
    const std::uint64_t refs = merged.hits + merged.misses;
    const std::uint64_t stores = merged.stores;
    result = ladder::ladderTraffic(
        static_cast<std::size_t>(refs), refs - stores, stores,
        static_cast<std::uint64_t>(refs) * wordBytes, merged);
    return WordRunOutcome::Done;
}

} // namespace membw
