#include "serve/decompose_service.hh"

#include <algorithm>
#include <condition_variable>
#include <exception>
#include <mutex>

#include "common/log.hh"
#include "dram/dram.hh"
#include "obs/epoch_profiler.hh"
#include "obs/export.hh"
#include "obs/json.hh"
#include "obs/manifest.hh"
#include "obs/registry.hh"
#include "obs/trace_span.hh"
#include "resilience/fault_injection.hh"

namespace membw {

void
applyDecomposeOverrides(ExperimentConfig &cfg,
                        const DecomposeOverrides &ov)
{
    if (ov.mshrs > 0)
        cfg.mem.mshrs = static_cast<unsigned>(ov.mshrs);
    if (ov.window > 0)
        cfg.core.windowSlots = static_cast<unsigned>(ov.window);
    if (ov.width > 0)
        cfg.core.issueWidth = static_cast<unsigned>(ov.width);
    if (ov.noPrefetch)
        cfg.mem.taggedPrefetch = false;
    if (ov.l1l2 > 0)
        cfg.mem.l1l2BusBytes = static_cast<Bytes>(ov.l1l2);
    if (ov.membus > 0)
        cfg.mem.memBusBytes = static_cast<Bytes>(ov.membus);
    if (!ov.dram.empty()) {
        const DramKind kind =
            ov.dram == "fpm"     ? DramKind::FastPageMode
            : ov.dram == "edo"   ? DramKind::EDO
            : ov.dram == "sdram" ? DramKind::Synchronous
            : ov.dram == "rdram"
                ? DramKind::Rambus
                : (fatal("invalid value '" + ov.dram +
                         "' for --dram: expected fpm, edo, "
                         "sdram, or rdram"),
                   DramKind::FastPageMode);
        cfg.mem.dram = DramConfig::preset(kind, cfg.cpuMHz);
    }
}

ExperimentConfig
decomposeConfig(const DecomposeRequest &req)
{
    ExperimentConfig cfg = makeExperiment(req.letter, req.spec95);
    applyDecomposeOverrides(cfg, req.overrides);
    return cfg;
}

InstrStream
buildDecomposeStream(const std::string &workload, double scale,
                     std::uint64_t seed)
{
    MEMBW_SPAN_D("stream.build", workload);
    WorkloadParams p;
    p.scale = scale;
    p.seed = seed;
    const auto run = makeWorkload(workload)->run(p);
    return InstrStream::fromRun(run, codeFootprintBytes(workload),
                                seed);
}

std::string
decomposeRequestKey(const DecomposeRequest &req)
{
    std::string key = "decompose|";
    key += req.workload;
    key += '|';
    key += decomposeConfig(req).describe();
    key += '|';
    key += std::string(1, req.letter);
    key += req.spec95 ? "|spec95|" : "|spec92|";
    key += formatJsonNumber(req.scale);
    key += '|';
    key += std::to_string(req.seed);
    key += req.stableJson ? "|stable|" : "|full|";
    key += std::to_string(req.watchdogCycles);
    return key;
}

namespace {

/**
 * The streams of one decomposeCells() call.  A stream is built when
 * a cell first needs it, or ahead of need by a worker whose own
 * stream another worker is still building; it is dropped after its
 * job's last cell.  Builds ahead of need keep at most maxAlive
 * streams alive.
 */
class StreamSlots
{
  public:
    StreamSlots(const std::vector<DecomposeJob> &jobs,
                const std::vector<std::size_t> &first,
                std::size_t maxAlive)
        : jobs_(jobs), slots_(jobs.size()), maxAlive_(maxAlive)
    {
        for (std::size_t j = 0; j < jobs.size(); ++j) {
            slots_[j].cellsLeft = first[j + 1] - first[j];
            if (!slots_[j].cellsLeft)
                slots_[j].state = State::Freed; // never needed
        }
    }

    /** Job @p job's stream, built by this thread if nobody has. */
    std::shared_ptr<const InstrStream>
    acquire(std::size_t job)
    {
        std::unique_lock lock(mutex_);
        for (;;) {
            Slot &slot = slots_[job];
            switch (slot.state) {
              case State::Ready:
                return slot.stream;
              case State::Failed:
                std::rethrow_exception(slot.error);
              case State::Idle:
                build(lock, job);
                break;
              case State::Building:
                if (!buildAhead(lock))
                    built_.wait(lock);
                break;
              case State::Freed:
                panic("decomposeCells: stream used after its last "
                      "cell");
            }
        }
    }

    /** One cell of @p job has finished and dropped its stream. */
    void
    release(std::size_t job)
    {
        // Declared before the lock, so the last reference drops
        // after the unlock: no cell waits for the free.
        std::shared_ptr<const InstrStream> last;
        std::lock_guard lock(mutex_);
        Slot &slot = slots_[job];
        if (--slot.cellsLeft)
            return;
        if (slot.state == State::Ready) {
            last = std::move(slot.stream);
            setAlive(alive_ - 1);
        }
        // A stream still building is dropped with the call.
        if (slot.state != State::Building)
            slot.state = State::Freed;
    }

    std::vector<std::size_t>
    streamOps() const
    {
        std::vector<std::size_t> ops;
        for (const Slot &slot : slots_)
            ops.push_back(slot.ops);
        return ops;
    }

  private:
    enum class State : std::uint8_t
    {
        Idle,
        Building,
        Ready,
        Failed,
        Freed
    };

    struct Slot
    {
        State state = State::Idle;
        std::shared_ptr<const InstrStream> stream;
        std::exception_ptr error;
        std::size_t cellsLeft = 0;
        std::size_t ops = 0;
    };

    /** Build @p job's stream outside the lock. */
    void
    build(std::unique_lock<std::mutex> &lock, std::size_t job)
    {
        slots_[job].state = State::Building;
        setAlive(alive_ + 1);
        lock.unlock();
        std::shared_ptr<const InstrStream> stream;
        std::exception_ptr error;
        try {
            stream = jobs_[job].stream();
        } catch (...) {
            error = std::current_exception();
        }
        lock.lock();
        Slot &slot = slots_[job];
        if (error) {
            slot.state = State::Failed;
            slot.error = error;
            setAlive(alive_ - 1);
        } else {
            slot.state = State::Ready;
            slot.ops = stream->size();
            slot.stream = std::move(stream);
        }
        built_.notify_all();
    }

    void
    setAlive(std::size_t alive)
    {
        alive_ = alive;
        tracingCounter("decompose.streams_alive",
                       static_cast<double>(alive));
    }

    /** Build the next unstarted job's stream if the cap allows. */
    bool
    buildAhead(std::unique_lock<std::mutex> &lock)
    {
        while (nextIdle_ < slots_.size() &&
               slots_[nextIdle_].state != State::Idle)
            ++nextIdle_;
        if (nextIdle_ == slots_.size() || alive_ >= maxAlive_)
            return false;
        build(lock, nextIdle_);
        return true;
    }

    const std::vector<DecomposeJob> &jobs_;
    std::mutex mutex_;
    std::condition_variable built_;
    std::vector<Slot> slots_;
    std::size_t alive_ = 0;    ///< streams building or ready
    std::size_t nextIdle_ = 0; ///< no unstarted job lies before it
    const std::size_t maxAlive_;
};

} // namespace

DecomposeJob
decomposeJob(const std::string &workload, double scale,
             std::uint64_t seed, std::vector<ExperimentConfig> configs)
{
    return {[workload, scale, seed] {
                return std::make_shared<const InstrStream>(
                    buildDecomposeStream(workload, scale, seed));
            },
            std::move(configs)};
}

DecomposeJob
decomposeJob(const InstrStream &stream,
             std::vector<ExperimentConfig> configs)
{
    return {[&stream] {
                // Non-owning: the caller keeps the stream alive.
                return std::shared_ptr<const InstrStream>(
                    std::shared_ptr<const InstrStream>(), &stream);
            },
            std::move(configs)};
}

DecomposeSweep
decomposeCells(const std::vector<DecomposeJob> &jobs,
               const SweepOptions &opt)
{
    // first[j]: index of job j's first cell.
    std::vector<std::size_t> first(jobs.size() + 1, 0);
    for (std::size_t j = 0; j < jobs.size(); ++j)
        first[j + 1] =
            first[j] + jobs[j].configs.size() * decompositionPhases;
    const unsigned workers = opt.pool ? opt.pool->threads() : opt.jobs;
    StreamSlots streams(jobs, first, std::size_t{workers} + 1);

    DecomposeSweep out;
    static_cast<SweepResult<CoreResult> &>(out) = parallelSweep(
        first.back(), opt, [&](std::size_t i) {
            const std::size_t job = static_cast<std::size_t>(
                std::upper_bound(first.begin(), first.end(), i) -
                first.begin() - 1);
            const std::size_t cell = i - first[job];
            const std::vector<ExperimentConfig> &configs =
                jobs[job].configs;
            MEMBW_SPAN_D("cell", decomposeCellLabel(configs, cell));
            std::shared_ptr<const InstrStream> stream;
            // Counts the cell done on every exit, failures included.
            struct Release
            {
                StreamSlots &streams;
                std::size_t job;
                std::shared_ptr<const InstrStream> &stream;
                ~Release()
                {
                    stream.reset();
                    streams.release(job);
                }
            } release{streams, job, stream};
            // Keyed by index, like executeSweep's cells, so
            // 'cell:at=N' hits cell N-1 at any --jobs value.
            if (MEMBW_FAULT_POINT_AT("cell", i))
                fatal("injected cell fault (cell " +
                      std::to_string(i) + ")");
            stream = streams.acquire(job);
            return runPhase(*stream, configs[cell / decompositionPhases],
                            static_cast<unsigned>(
                                cell % decompositionPhases));
        });
    out.streamOps = streams.streamOps();
    return out;
}

std::string
decomposeCellLabel(const std::vector<ExperimentConfig> &configs,
                   std::size_t cell)
{
    return std::string("exp=") +
           configs[cell / decompositionPhases].letter + " phase=" +
           phaseName(static_cast<unsigned>(cell % decompositionPhases));
}

std::vector<JobDecompositions>
decomposeEach(const std::vector<DecomposeJob> &jobs, unsigned workers)
{
    SweepOptions opt;
    opt.jobs = workers;
    const DecomposeSweep sweep = decomposeCells(jobs, opt);
    std::vector<JobDecompositions> out(jobs.size());
    const CoreResult *cell = sweep.cells.data();
    for (std::size_t j = 0; j < jobs.size(); ++j) {
        out[j].streamOps = sweep.streamOps[j];
        for (std::size_t e = 0; e < jobs[j].configs.size(); ++e) {
            out[j].results.push_back(
                assembleDecomposition(cell[0], cell[1], cell[2]));
            cell += decompositionPhases;
        }
    }
    return out;
}

DecompositionResult
executeDecompose(const DecomposeRequest &req, const InstrStream &stream,
                 ThreadPool *pool)
{
    ExperimentConfig cfg = decomposeConfig(req);
    cfg.core.watchdogCycles = req.watchdogCycles;
    SweepOptions opt;
    opt.pool = pool;
    const std::vector<CoreResult> cells =
        decomposeCells({decomposeJob(stream, {cfg})}, opt).cells;
    return assembleDecomposition(cells[0], cells[1], cells[2]);
}

std::string
renderDecomposeStatsJson(const DecomposeRequest &req,
                         std::size_t streamRefs,
                         const DecompositionResult &r,
                         double wallSeconds)
{
    StatsRegistry registry;
    publishDecompositionStats(registry, r);

    RunManifest manifest;
    manifest.tool = "membw_decompose";
    manifest.experiment = std::string(1, req.letter);
    manifest.workload = req.workload;
    manifest.config = decomposeConfig(req).describe();
    manifest.seed = req.seed;
    manifest.scale = req.scale;
    manifest.refs = streamRefs;
    manifest.wallSeconds = wallSeconds;
    manifest.omitTiming = req.stableJson;
    writeProfileManifest(manifest, req.stableJson);

    JsonWriter w;
    w.beginObject();
    w.key("manifest");
    manifest.write(w);
    w.key("stats");
    writeStatsArray(registry, w);
    w.endObject();
    return w.str();
}

} // namespace membw
