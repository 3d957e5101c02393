/**
 * @file
 * The three batch workloads.  A pass is a fixed sequence of calls
 * into the membw modules' public functions, the calls the tools
 * make, each timed from outside; nothing under src/ is instrumented
 * for the benchmark.
 */

#include <cstdio>
#include <functional>
#include <iterator>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "cache/hierarchy.hh"
#include "cache/stack_distance.hh"
#include "common/rng.hh"
#include "cpu/experiment.hh"
#include "cpu/instr_stream.hh"
#include "driver.hh"
#include "exec/collapsed_sweep.hh"
#include "exec/parallel_sweep.hh"
#include "exec/thread_pool.hh"
#include "mtc/min_cache.hh"
#include "mtc/next_use.hh"
#include "obs/manifest.hh"
#include "recorder.hh"
#include "resilience/watchdog.hh"
#include "serve/decompose_service.hh"
#include "serve/sweep_service.hh"
#include "trace/block_stream.hh"
#include "workloads/workload.hh"

using namespace membw;

namespace perfbench {

namespace {

/** Set-up rounds before the first pass; one more precedes every timed
 * pass, so that the rounds of a set-up lasting milliseconds spread
 * over the whole run, as the passes do, and their median (setup_s)
 * does not rest on one noisy second of the host. */
constexpr int firstSetupRounds = 5;
/** Timed passes per run at least (two of each kind when tracing). */
constexpr int minPasses = 4;
/** Answer calls per plain run at least, so p99 has ten beyond it. */
constexpr std::size_t minAnswers = 1000;

/** The SPEC92 kernels of the two sweep workloads, chosen for their
 * different locality: hash probing, streaming stencils, a small
 * working set and bit-vector sorting. */
const std::vector<std::string> sweepKernels = {"Compress", "Swm",
                                               "Espresso", "Eqntott"};

/** What one pass simulated. */
struct PassOut
{
    /** Every simulated statistic as text; its digest is checked. */
    std::string stats;
    Counts counts;
};

struct Check
{
    std::string name;
    bool ok = false;
};

class Batch
{
  public:
    virtual ~Batch() = default;

    /** The input size, printed beside wall_s. */
    virtual std::string input() const = 0;

    /** One set-up round: generate every input. */
    virtual void setup(Recorder &rec, Counts &counts) = 0;

    /** One timed pass over the inputs. */
    virtual void pass(Recorder &rec, ThreadPool &pool, PassOut &out) = 0;

    /** Checks against the direct simulator, run after timing. */
    virtual void verify(std::vector<Check> &checks) = 0;
};

void
addStat(std::string &stats, const std::string &key, std::uint64_t value)
{
    stats += key;
    stats += '=';
    stats += std::to_string(value);
    stats += '\n';
}

std::vector<Trace>
generateTraces(Recorder &rec, Counts &counts, double scale,
               std::uint64_t seed)
{
    std::vector<Trace> traces;
    for (const std::string &name : sweepKernels) {
        Timed t(rec, "workloads.gen");
        WorkloadParams p;
        p.scale = scale;
        p.seed = seed;
        traces.push_back(makeWorkload(name)->trace(p));
        counts.add("workloads.refs",
                   static_cast<double>(traces.back().size()));
    }
    return traces;
}

std::size_t
totalRefs(const std::vector<Trace> &traces)
{
    std::size_t n = 0;
    for (const Trace &t : traces)
        n += t.size();
    return n;
}

/**
 * Fan @p n calls across the pool through parallelSweep, as the tools
 * do.  Each call receives the fan-out's span id and the submission
 * time, so its wait for a worker is measured.
 */
template <typename Fn>
void
fanOut(Recorder &rec, ThreadPool &pool, std::size_t n, Fn &&fn)
{
    Timed fan(rec, "exec.fanout");
    const std::uint32_t parent = fan.id();
    const std::uint64_t submitted = nowNs();
    SweepOptions opt;
    opt.pool = &pool;
    parallelSweep(n, opt, [&](std::size_t i) {
        fn(i, parent, submitted);
        return 0;
    });
}

/*
 * The artifact hooks a sweep calls back into.  They compute what the
 * sweep would compute itself, timed as their own layers under the
 * sweep call that asked for them.
 */

std::function<std::shared_ptr<const BlockStream>(Bytes)>
streamProvider(Recorder &rec, Counts &counts, const Trace &trace,
               std::uint32_t parent)
{
    return [&rec, &counts, &trace, parent](Bytes block) {
        Timed t(rec, "trace.block_stream", parent);
        auto stream = std::make_shared<const BlockStream>(
            buildBlockStream(trace, block));
        counts.add("trace.block_stream_refs",
                   static_cast<double>(stream->refs));
        return stream;
    };
}

std::function<std::shared_ptr<const StackDistanceProfile>(Bytes)>
profileProvider(Recorder &rec, const Trace &trace, std::uint32_t parent)
{
    return [&rec, &trace, parent](Bytes block) {
        Timed t(rec, "cache.stack_distance", parent);
        return std::make_shared<const StackDistanceProfile>(trace, block);
    };
}

void
countRoute(Counts &counts, CellRoute route)
{
    counts.add(route == CellRoute::Ladder    ? "exec.ladder_cells"
               : route == CellRoute::Mattson ? "exec.mattson_cells"
                                             : "exec.direct_cells",
               1);
}

void
addMtc(PassOut &out, const std::string &key, const MinCacheStats &s)
{
    addStat(out.stats, key, s.trafficBelow());
    out.counts.add("mtc.refs", static_cast<double>(s.accesses));
    out.counts.add("mtc.pin_bytes", static_cast<double>(s.trafficBelow()));
    out.counts.add("mtc.bypasses", static_cast<double>(s.bypasses));
}

/**
 * traffic_sweep: the shape of Figure 4 and Tables 7/8.  Each kernel
 * goes through executeSweep as 1-, 4- and 8-way LRU ladders over
 * 1 KiB-2 MiB and 4-128 B blocks, then through the canonical MTC at
 * every size with one shared next-use table.
 */
class TrafficSweep : public Batch
{
  public:
    static constexpr double scale = 0.1;

    TrafficSweep(std::uint64_t seed, unsigned jobs)
        : seed_(seed), jobs_(jobs)
    {
        for (Bytes size = 1_KiB; size <= 2_MiB; size *= 2)
            sizes_.push_back(size);
    }

    std::string
    input() const override
    {
        const std::size_t k = sweepKernels.size();
        return std::to_string(k) + " kernels, " +
               std::to_string(totalRefs(traces_)) + " refs; a pass is " +
               std::to_string(k * assocs_.size()) +
               " executeSweep calls (" +
               std::to_string(k * assocs_.size() * sizes_.size() *
                              blocks_.size()) +
               " LRU cells) and " + std::to_string(k * sizes_.size()) +
               " MTC cells";
    }

    void
    setup(Recorder &rec, Counts &counts) override
    {
        traces_.clear(); // the last round's traces, freed first
        traces_ = generateTraces(rec, counts, scale, seed_);
    }

    void
    pass(Recorder &rec, ThreadPool &pool, PassOut &out) override
    {
        pins_.assign(sweepKernels.size() * assocs_.size(), {});
        for (std::size_t k = 0; k < sweepKernels.size(); ++k) {
            const Trace &trace = traces_[k];
            for (std::size_t a = 0; a < assocs_.size(); ++a) {
                const SweepRequest req = request(k, assocs_[a]);
                SweepOutcome o;
                {
                    Timed t(rec, "exec.sweep", 0, true);
                    SweepExecOptions eo;
                    eo.jobs = jobs_;
                    eo.pool = &pool;
                    eo.streamProvider =
                        streamProvider(rec, out.counts, trace, t.id());
                    eo.profileProvider = profileProvider(rec, trace, t.id());
                    guard(rec, t, "executeSweep",
                          [&] { o = executeSweep(req, trace, eo); });
                    if (o.nFailed) {
                        t.markFailed();
                        rec.fail("executeSweep: " +
                                 std::to_string(o.nFailed) +
                                 " failed cells");
                    }
                }
                std::vector<Bytes> &pins = pins_[k * assocs_.size() + a];
                for (std::size_t i = 0; i < o.nHier; ++i) {
                    countRoute(out.counts, o.collapsed.route(i));
                    pins.push_back(o.cells[i].traffic.pinBytes);
                    out.counts.add("cache.pin_bytes",
                                   static_cast<double>(pins.back()));
                    addStat(out.stats,
                            sweepKernels[k] + "/" +
                                std::to_string(assocs_[a]) + "way/" +
                                std::to_string(i),
                            pins.back());
                }
            }

            NextUseTable table;
            {
                Timed t(rec, "mtc.next_use");
                guard(rec, t, "makeNextUseTable",
                      [&] { table = makeNextUseTable(trace, wordBytes); });
            }
            std::vector<MinCacheStats> mtc(sizes_.size());
            fanOut(rec, pool, sizes_.size(),
                   [&](std::size_t i, std::uint32_t parent,
                       std::uint64_t submitted) {
                       Timed t(rec, "mtc.run", parent, true, submitted);
                       guard(rec, t, "runMinCache", [&] {
                           mtc[i] = runMinCache(
                               trace, canonicalMtc(sizes_[i]), table);
                       });
                   });
            for (std::size_t i = 0; i < sizes_.size(); ++i)
                addMtc(out, sweepKernels[k] + "/mtc/" + std::to_string(i),
                       mtc[i]);
        }
    }

    /** One seeded cell of every ladder against direct simulation. */
    void
    verify(std::vector<Check> &checks) override
    {
        Rng rng(seed_ ^ 0xc4ec4ULL);
        for (std::size_t k = 0; k < sweepKernels.size(); ++k)
            for (std::size_t a = 0; a < assocs_.size(); ++a) {
                const std::vector<Bytes> &pins =
                    pins_[k * assocs_.size() + a];
                const std::string what =
                    "sweep cell = direct simulation, " + sweepKernels[k] +
                    " " + std::to_string(assocs_[a]) + "-way";
                if (pins.empty()) {
                    checks.push_back({what, false});
                    continue;
                }
                const std::size_t cell = rng.below(pins.size());
                const CacheConfig cfg =
                    sweepConfigFor(request(k, assocs_[a]), blocks_, cell);
                checks.push_back(
                    {what + " " + cfg.describe(),
                     runTrace(traces_[k], cfg).pinBytes == pins[cell]});
            }
    }

  private:
    SweepRequest
    request(std::size_t k, unsigned assoc) const
    {
        SweepRequest req;
        req.workload = sweepKernels[k];
        req.scale = scale;
        req.seed = seed_;
        req.l1.assoc = assoc;
        req.sizes = sizes_;
        req.blocks = blocks_;
        req.stableJson = true;
        return req;
    }

    const std::vector<unsigned> assocs_ = {1, 4, 8};
    const std::vector<Bytes> blocks_ = {4, 8, 16, 32, 64, 128};
    std::uint64_t seed_;
    unsigned jobs_;
    std::vector<Bytes> sizes_;
    std::vector<Trace> traces_;
    /** Last pass's pin bytes per (kernel, ladder), in cell order. */
    std::vector<std::vector<Bytes>> pins_;
};

/**
 * factor_isolation: the shape of Tables 9/10 at reduced scale.  Per
 * kernel, three 64 KiB cache cells (direct-mapped 32 B, fully
 * associative LRU 32 B, direct-mapped 4 B) go through CollapsedSweep
 * with a runTrace fallback for the cells it leaves uncovered, and
 * three fully associative MIN cells (32 B and 4 B write-allocate, 4 B
 * write-validate, bypass off) share next-use tables.
 */
class FactorIsolation : public Batch
{
  public:
    static constexpr double scale = 0.05;

    FactorIsolation(std::uint64_t seed, unsigned jobs)
        : seed_(seed), jobs_(jobs)
    {
        const std::pair<unsigned, Bytes> caches[] = {{1, 32}, {0, 32},
                                                     {1, 4}};
        for (const auto &[assoc, block] : caches) {
            CacheConfig c;
            c.size = 64_KiB;
            c.assoc = assoc;
            c.blockBytes = block;
            caches_.push_back(c);
        }
        const std::pair<Bytes, AllocPolicy> mins[] = {
            {32, AllocPolicy::WriteAllocate},
            {4, AllocPolicy::WriteAllocate},
            {4, AllocPolicy::WriteValidate}};
        for (const auto &[block, alloc] : mins) {
            MinCacheConfig m;
            m.size = 64_KiB;
            m.blockBytes = block;
            m.alloc = alloc;
            m.allowBypass = false;
            mins_.push_back(m);
        }
    }

    std::string
    input() const override
    {
        const std::size_t k = sweepKernels.size();
        return std::to_string(k) + " kernels, " +
               std::to_string(totalRefs(traces_)) + " refs; a pass is " +
               std::to_string(k * caches_.size()) + " cache cells and " +
               std::to_string(k * mins_.size()) + " MIN cells at 64 KiB";
    }

    void
    setup(Recorder &rec, Counts &counts) override
    {
        traces_.clear(); // the last round's traces, freed first
        traces_ = generateTraces(rec, counts, scale, seed_);
    }

    void
    pass(Recorder &rec, ThreadPool &pool, PassOut &out) override
    {
        const std::size_t nk = sweepKernels.size();
        const std::size_t nc = caches_.size();
        const std::size_t nm = mins_.size();
        pins_.assign(nk * nc, 0);
        covered_.assign(nk * nc, false);

        std::vector<CollapsedSweep> plans(nk);
        for (std::size_t k = 0; k < nk; ++k) {
            Timed t(rec, "exec.sweep", 0, true);
            CollapseOptions co;
            co.jobs = jobs_;
            co.pool = &pool;
            co.streamProvider =
                streamProvider(rec, out.counts, traces_[k], t.id());
            co.profileProvider = profileProvider(rec, traces_[k], t.id());
            guard(rec, t, "CollapsedSweep", [&] {
                plans[k] = CollapsedSweep(traces_[k], caches_, co);
            });
        }

        // Next-use tables at 32 B and 4 B, shared by the MIN cells.
        std::vector<NextUseTable> tables(nk * 2);
        fanOut(rec, pool, tables.size(),
               [&](std::size_t i, std::uint32_t parent,
                   std::uint64_t submitted) {
                   Timed t(rec, "mtc.next_use", parent, false, submitted);
                   guard(rec, t, "makeNextUseTable", [&] {
                       tables[i] = makeNextUseTable(traces_[i / 2],
                                                    i % 2 ? 4 : 32);
                   });
               });

        // The uncovered cache cells and every MIN cell, fanned together.
        constexpr std::size_t none = static_cast<std::size_t>(-1);
        struct Task
        {
            std::size_t kernel;
            std::size_t cache; ///< none for a MIN cell
            std::size_t min;   ///< none for a cache cell
        };
        std::vector<Task> tasks;
        for (std::size_t k = 0; k < nk; ++k)
            for (std::size_t c = 0; c < nc; ++c) {
                if (plans[k].has(c)) {
                    pins_[k * nc + c] = plans[k].result(c).pinBytes;
                    covered_[k * nc + c] = true;
                } else {
                    tasks.push_back({k, c, none});
                }
            }
        for (std::size_t k = 0; k < nk; ++k)
            for (std::size_t m = 0; m < nm; ++m)
                tasks.push_back({k, none, m});

        std::vector<MinCacheStats> mins(nk * nm);
        fanOut(rec, pool, tasks.size(),
               [&](std::size_t i, std::uint32_t parent,
                   std::uint64_t submitted) {
                   const Task &task = tasks[i];
                   const Trace &trace = traces_[task.kernel];
                   if (task.cache != none) {
                       const CacheConfig &cfg = caches_[task.cache];
                       Timed t(rec,
                               cfg.assoc == 0 ? "cache.direct_fa"
                                              : "cache.direct",
                               parent, true, submitted);
                       guard(rec, t, "runTrace", [&] {
                           pins_[task.kernel * nc + task.cache] =
                               runTrace(trace, cfg).pinBytes;
                       });
                       out.counts.add("cache.direct_refs",
                                      static_cast<double>(trace.size()));
                       return;
                   }
                   const MinCacheConfig &cfg = mins_[task.min];
                   const NextUseTable &table =
                       tables[task.kernel * 2 +
                              (cfg.blockBytes == 32 ? 0 : 1)];
                   Timed t(rec, "mtc.run", parent, true, submitted);
                   guard(rec, t, "runMinCache", [&] {
                       mins[task.kernel * nm + task.min] =
                           runMinCache(trace, cfg, table);
                   });
               });

        for (std::size_t k = 0; k < nk; ++k) {
            for (std::size_t c = 0; c < nc; ++c) {
                countRoute(out.counts, plans[k].route(c));
                out.counts.add("cache.pin_bytes",
                               static_cast<double>(pins_[k * nc + c]));
                addStat(out.stats,
                        sweepKernels[k] + "/" + caches_[c].describe(),
                        pins_[k * nc + c]);
            }
            for (std::size_t m = 0; m < nm; ++m)
                addMtc(out, sweepKernels[k] + "/" + mins_[m].describe(),
                       mins[k * nm + m]);
        }
    }

    /** Every cell a one-pass engine covered, against runTrace. */
    void
    verify(std::vector<Check> &checks) override
    {
        const std::size_t nc = caches_.size();
        for (std::size_t k = 0; k < sweepKernels.size(); ++k)
            for (std::size_t c = 0; c < nc; ++c)
                if (covered_[k * nc + c])
                    checks.push_back(
                        {"collapsed cell = direct simulation, " +
                             sweepKernels[k] + " " + caches_[c].describe(),
                         runTrace(traces_[k], caches_[c]).pinBytes ==
                             pins_[k * nc + c]});
    }

  private:
    std::uint64_t seed_;
    unsigned jobs_;
    std::vector<CacheConfig> caches_;
    std::vector<MinCacheConfig> mins_;
    std::vector<Trace> traces_;
    std::vector<Bytes> pins_;
    std::vector<bool> covered_;
};

/**
 * decompose: the shape of Figure 3 and Table 6.  Experiments A-F x 3
 * phases, plus experiment F on banked SDRAM, for two SPEC92 and two
 * SPEC95 kernels; the runPhase calls fan across the workers as
 * `membw_decompose --experiment all` does.
 */
class Decompose : public Batch
{
  public:
    static constexpr double scale = 0.05;

    explicit Decompose(std::uint64_t seed) : seed_(seed) {}

    std::string
    input() const override
    {
        std::size_t ops = 0;
        for (const InstrStream &s : streams_)
            ops += s.size();
        return std::to_string(std::size(kernels)) + " kernels, " +
               std::to_string(ops) + " micro-ops; a pass is " +
               std::to_string(cells()) + " runPhase calls (" +
               std::to_string(configs) + " machines x " +
               std::to_string(decompositionPhases) + " phases each)";
    }

    void
    setup(Recorder &rec, Counts &counts) override
    {
        streams_.clear();
        for (const Kernel &kernel : kernels) {
            WorkloadParams p;
            p.scale = scale;
            p.seed = seed_;
            WorkloadRun run;
            {
                Timed t(rec, "workloads.gen");
                run = makeWorkload(kernel.name)->run(p);
            }
            counts.add("workloads.refs",
                       static_cast<double>(run.trace.size()));
            Timed t(rec, "cpu.instr_stream");
            streams_.push_back(InstrStream::fromRun(
                run, codeFootprintBytes(kernel.name), seed_));
            counts.add("cpu.instr_stream_ops",
                       static_cast<double>(streams_.back().size()));
        }
    }

    void
    pass(Recorder &rec, ThreadPool &pool, PassOut &out) override
    {
        std::vector<CoreResult> results(cells());
        fanOut(rec, pool, cells(),
               [&](std::size_t i, std::uint32_t parent,
                   std::uint64_t submitted) {
                   const std::size_t k = i / (configs * decompositionPhases);
                   const std::size_t c = i / decompositionPhases % configs;
                   const auto phase =
                       static_cast<unsigned>(i % decompositionPhases);
                   const bool sdram = c == configs - 1;
                   Timed t(rec, spanName(phase, sdram), parent, true,
                           submitted);
                   guard(rec, t, "runPhase", [&] {
                       ExperimentConfig cfg = makeExperiment(
                           sdram ? 'F' : "ABCDEF"[c], kernels[k].spec95);
                       if (sdram) {
                           DecomposeOverrides ov;
                           ov.dram = "sdram";
                           applyDecomposeOverrides(cfg, ov);
                       }
                       Watchdog watchdog(1'000'000);
                       cfg.core.watchdog = &watchdog;
                       results[i] = runPhase(streams_[k], cfg, phase);
                   });
               });

        for (std::size_t i = 0; i < results.size(); ++i) {
            const CoreResult &r = results[i];
            const std::string key = "cell" + std::to_string(i) + "/";
            addStat(out.stats, key + "cycles", r.cycles);
            addStat(out.stats, key + "stall.fetch", r.stalls.fetch);
            addStat(out.stats, key + "stall.window", r.stalls.window);
            addStat(out.stats, key + "stall.data", r.stalls.data);
            addStat(out.stats, key + "stall.mem_port", r.stalls.memPort);
            out.counts.add("cpu.sim_cycles", static_cast<double>(r.cycles));
            out.counts.add("cpu.stall_data_cycles",
                           static_cast<double>(r.stalls.data));
            out.counts.add("cpu.stall_window_cycles",
                           static_cast<double>(r.stalls.window));
            out.counts.add("cpu.l1_misses",
                           static_cast<double>(r.mem.l1Misses));
            out.counts.add("cpu.mem_bus_wait_cycles",
                           static_cast<double>(r.mem.memBusWait));
            out.counts.add("dram.row_hits",
                           static_cast<double>(r.mem.dramRowHits));
            out.counts.add("dram.row_misses",
                           static_cast<double>(r.mem.dramRowMisses));
        }
    }

    /** The timing model has no second engine to check against; its
     * statistics are checked by digest. */
    void verify(std::vector<Check> &) override {}

  private:
    struct Kernel
    {
        const char *name;
        bool spec95;
    };
    static constexpr Kernel kernels[] = {{"Compress", false},
                                         {"Swm", false},
                                         {"Li", true},
                                         {"Perl", true}};
    /** Experiments A-F, then F on banked SDRAM. */
    static constexpr std::size_t configs = 7;

    static std::size_t
    cells()
    {
        return std::size(kernels) * configs * decompositionPhases;
    }

    static const char *
    spanName(unsigned phase, bool sdram)
    {
        if (phase == 0)
            return "cpu.phase_perfect";
        if (phase == 1)
            return "cpu.phase_infinite";
        return sdram ? "dram.phase_full" : "cpu.phase_full";
    }

    std::uint64_t seed_;
    std::vector<InstrStream> streams_;
};

std::unique_ptr<Batch>
makeBatch(const RunOptions &opt)
{
    if (opt.workload == "traffic_sweep")
        return std::make_unique<TrafficSweep>(opt.seed, opt.jobs);
    if (opt.workload == "factor_isolation")
        return std::make_unique<FactorIsolation>(opt.seed, opt.jobs);
    if (opt.workload == "decompose")
        return std::make_unique<Decompose>(opt.seed);
    throw std::invalid_argument("unknown workload '" + opt.workload + "'");
}

std::string
hexDigest(const std::string &text)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(fnv1a64(text)));
    return buf;
}

void
writeCounts(JsonWriter &w, const std::map<std::string, double> &counts)
{
    w.beginObject();
    for (const auto &[name, value] : counts)
        w.field(name, value);
    w.endObject();
}

} // namespace

void
runBatch(const RunOptions &opt, JsonWriter &w)
{
    const std::unique_ptr<Batch> batch = makeBatch(opt);
    Recorder rec;
    ThreadPool pool(opt.jobs);

    // The reference loop runs after every set-up round and after every
    // pass; a pass's host speed is the mean of the loops on either side.
    std::vector<double> setupS, setupRefS;
    std::map<std::string, double> setupCounts;
    auto setupRound = [&] {
        rec.beginPass(-1 - static_cast<int>(setupS.size()), opt.trace);
        Counts counts;
        const std::uint64_t t0 = nowNs();
        batch->setup(rec, counts);
        setupS.push_back(static_cast<double>(nowNs() - t0) / 1e9);
        setupCounts = counts.values();
        setupRefS.push_back(referenceLoopS(opt.jobs));
    };
    for (int r = 0; r < firstSetupRounds; ++r)
        setupRound();

    // One untimed pass first, so pool threads, allocator arenas and
    // page mappings are warm before anything is timed.
    rec.beginPass(warmupPass, false);
    {
        PassOut warm;
        batch->pass(rec, pool, warm);
    }

    struct PassRecord
    {
        int pass;
        bool traced;
        std::uint64_t startNs, endNs;
        double refS;
        double rssMb;
        std::string digest;
        std::map<std::string, double> counts;
    };
    std::vector<PassRecord> passes;
    std::size_t answers = 0;
    const std::uint64_t start = nowNs();
    for (int i = 0;; ++i) {
        const bool traced = opt.trace && i % 2 == 1;
        setupRound();
        rec.beginPass(i, traced);
        PassOut out;
        resetPeakRss();
        const std::uint64_t t0 = nowNs();
        batch->pass(rec, pool, out);
        const std::uint64_t t1 = nowNs();
        const double rssMb = peakRssMb();
        const double refS = (setupRefS.back() + referenceLoopS(opt.jobs)) / 2;
        passes.push_back({i, traced, t0, t1, refS, rssMb,
                          hexDigest(out.stats), out.counts.values()});
        if (!traced)
            answers += rec.answers(i);
        const double elapsed = static_cast<double>(nowNs() - start) / 1e9;
        const bool enough =
            i + 1 >= minPasses && (opt.trace || answers >= minAnswers);
        // The second bound keeps a slow host within the time limit;
        // run.py refuses a p99 that rests on too few answers.
        if ((elapsed >= opt.seconds && enough) ||
            (elapsed >= 3 * opt.seconds && i + 1 >= minPasses))
            break;
    }

    rec.beginPass(verifyPass, false);
    std::vector<Check> checks;
    batch->verify(checks);

    w.beginObject();
    w.field("workload", opt.workload);
    w.field("seed", opt.seed);
    w.field("trace", opt.trace);
    w.field("jobs", static_cast<std::uint64_t>(opt.jobs));
    w.field("input", batch->input());
    w.key("setup_s");
    w.beginArray();
    for (double s : setupS)
        w.value(s);
    w.endArray();
    w.key("setup_ref_s");
    w.beginArray();
    for (double s : setupRefS)
        w.value(s);
    w.endArray();
    w.key("setup_counts");
    writeCounts(w, setupCounts);
    w.key("passes");
    w.beginArray();
    for (const PassRecord &p : passes) {
        w.beginObject();
        w.field("pass", p.pass);
        w.field("traced", p.traced);
        w.field("start_ns", p.startNs);
        w.field("end_ns", p.endNs);
        w.field("wall_s", static_cast<double>(p.endNs - p.startNs) / 1e9);
        w.field("ref_s", p.refS);
        w.field("rss_mb", p.rssMb);
        w.field("digest", p.digest);
        w.key("counts");
        writeCounts(w, p.counts);
        w.endObject();
    }
    w.endArray();
    w.key("checks");
    w.beginArray();
    for (const Check &c : checks) {
        w.beginObject();
        w.field("name", c.name);
        w.field("ok", c.ok);
        w.endObject();
    }
    w.endArray();
    rec.write(w);
    w.endObject();
}

} // namespace perfbench
