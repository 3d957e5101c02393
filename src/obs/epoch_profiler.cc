#include "obs/epoch_profiler.hh"

#include <algorithm>
#include <map>
#include <memory>

#include "common/log.hh"
#include "obs/emit.hh"
#include "obs/export.hh"
#include "obs/json.hh"
#include "obs/manifest.hh"
#include "resilience/checkpoint.hh"

namespace membw {

namespace {

/** Buckets in the exported region heat table. */
constexpr std::uint64_t regionBuckets = 256;

/** Hot sets reported per level in the conflict heatmap. */
constexpr std::size_t churnTopK = 16;

constexpr std::uint64_t
churnKey(unsigned level, std::size_t set)
{
    return (static_cast<std::uint64_t>(level) << 48) |
           static_cast<std::uint64_t>(set);
}

} // namespace

EpochProfiler::EpochProfiler(std::uint64_t epochRefs)
    : epochRefs_(epochRefs)
{
    if (epochRefs_ == 0)
        fatal("profile epoch length must be at least 1 reference");
}

EpochProfiler::Run *
EpochProfiler::openRun()
{
    if (runs_.empty() || runs_.back().ended)
        return nullptr;
    return &runs_.back();
}

const EpochProfiler::Run *
EpochProfiler::openRun() const
{
    if (runs_.empty() || runs_.back().ended)
        return nullptr;
    return &runs_.back();
}

void
EpochProfiler::beginRun(const std::string &name)
{
    probeAtRunStart_ = {churn_, region_, dramRowHits_, dramRowMisses_,
                        mtcScanPops_};
    if (Run *open = openRun()) {
        if (open->name == name) {
            // --resume re-entering an interrupted run: keep its
            // columns and previous snapshots; sources re-attach.
            nextTarget_ = open->lastCloseRef + epochRefs_;
            return;
        }
        fatal("profiler run '" + open->name +
              "' is still open; cannot begin '" + name + "'");
    }
    Run run;
    run.name = name;
    runs_.push_back(std::move(run));
    nextTarget_ = epochRefs_;
}

void
EpochProfiler::setRunAttr(const std::string &key, double value)
{
    Run *run = openRun();
    if (!run)
        fatal("profiler attr '" + key + "' set with no open run");
    for (auto &attr : run->attrs) {
        if (attr.first == key) {
            attr.second = value;
            return;
        }
    }
    run->attrs.emplace_back(key, value);
}

void
EpochProfiler::addSource(const std::string &component,
                         std::vector<std::string> metrics,
                         SnapshotFn fn)
{
    Run *run = openRun();
    if (!run)
        fatal("profiler source '" + component +
              "' added with no open run");
    for (Source &s : run->sources) {
        if (s.component == component) {
            if (s.metrics != metrics)
                fatal("profiler source '" + component +
                      "' re-attached with different metrics");
            s.fn = std::move(fn);
            return;
        }
    }
    if (!run->endRef.empty())
        fatal("profiler source '" + component +
              "' added after the run's first epoch closed");
    Source s;
    s.component = component;
    s.metrics = std::move(metrics);
    s.fn = std::move(fn);
    s.prev = s.fn();
    if (s.prev.size() != s.metrics.size())
        fatal("profiler source '" + component + "' returned " +
              std::to_string(s.prev.size()) + " values for " +
              std::to_string(s.metrics.size()) + " metrics");
    s.columns.resize(s.metrics.size());
    run->sources.push_back(std::move(s));
}

void
EpochProfiler::closeEpoch(std::uint64_t refsDone)
{
    Run *run = openRun();
    if (!run) {
        nextTarget_ = ~std::uint64_t{0};
        return;
    }
    if (run->endRef.size() >= maxEpochsPerRun) {
        run->dropped++;
        run->lastCloseRef = refsDone;
        nextTarget_ = refsDone + epochRefs_;
        return;
    }
    const bool clamped = refsDone > nextTarget_;
    for (Source &s : run->sources) {
        std::vector<std::uint64_t> snap = s.fn();
        if (snap.size() != s.metrics.size())
            fatal("profiler source '" + s.component +
                  "' changed its metric count mid-run");
        for (std::size_t m = 0; m < snap.size(); ++m)
            s.columns[m].push_back(snap[m] - s.prev[m]);
        s.prev = std::move(snap);
    }
    run->endRef.push_back(refsDone);
    if (clamped)
        run->clamped++;
    run->lastCloseRef = refsDone;
    nextTarget_ = refsDone + epochRefs_;
    if (verbose_)
        emitLinef("profiler: %s epoch %zu closed at ref %llu%s",
                  run->name.c_str(), run->endRef.size(),
                  static_cast<unsigned long long>(refsDone),
                  clamped ? " (clamped)" : "");
}

void
EpochProfiler::endRun(std::uint64_t refsDone)
{
    Run *run = openRun();
    if (!run)
        return;

    // Final snapshots.  A partial epoch is closed whenever the run
    // advanced past the last boundary *or* any counter moved since
    // it (the end-of-run dirty flush lands after the final
    // reference), so Σ(epochs) == aggregate holds exactly.
    std::vector<std::vector<std::uint64_t>> snaps;
    snaps.reserve(run->sources.size());
    bool moved = refsDone > run->lastCloseRef;
    for (Source &s : run->sources) {
        snaps.push_back(s.fn());
        if (snaps.back().size() != s.metrics.size())
            fatal("profiler source '" + s.component +
                  "' changed its metric count mid-run");
        if (snaps.back() != s.prev)
            moved = true;
    }
    if (moved) {
        if (run->endRef.size() >= maxEpochsPerRun) {
            run->dropped++;
        } else {
            for (std::size_t i = 0; i < run->sources.size(); ++i) {
                Source &s = run->sources[i];
                for (std::size_t m = 0; m < s.metrics.size(); ++m)
                    s.columns[m].push_back(snaps[i][m] - s.prev[m]);
            }
            run->endRef.push_back(refsDone);
        }
        run->lastCloseRef = refsDone;
    }
    for (std::size_t i = 0; i < run->sources.size(); ++i) {
        run->sources[i].prev = snaps[i];
        run->sources[i].aggregate = std::move(snaps[i]);
        run->sources[i].ended = true;
    }
    run->ended = true;
    nextTarget_ = ~std::uint64_t{0};
    if (verbose_)
        emitLinef("profiler: %s run ended (%zu epochs, %llu refs)",
                  run->name.c_str(), run->endRef.size(),
                  static_cast<unsigned long long>(refsDone));
}

void
EpochProfiler::abortRun()
{
    if (!openRun())
        return;
    runs_.pop_back();
    // Roll the structural profiles back to the run's start: the
    // aborted phase re-runs whole on --resume and will re-contribute.
    churn_ = probeAtRunStart_.churn;
    region_ = probeAtRunStart_.region;
    regionLastPage_ = ~std::uint64_t{0};
    regionLastCount_ = nullptr;
    dramRowHits_ = probeAtRunStart_.dramRowHits;
    dramRowMisses_ = probeAtRunStart_.dramRowMisses;
    mtcScanPops_ = probeAtRunStart_.mtcScanPops;
    nextTarget_ = ~std::uint64_t{0};
}

// ---- introspection ------------------------------------------------

std::uint64_t
EpochProfiler::epochsClosed() const
{
    std::uint64_t n = 0;
    for (const Run &r : runs_)
        n += r.endRef.size();
    return n;
}

std::uint64_t
EpochProfiler::clampedEpochs() const
{
    std::uint64_t n = 0;
    for (const Run &r : runs_)
        n += r.clamped;
    return n;
}

std::uint64_t
EpochProfiler::droppedEpochs() const
{
    std::uint64_t n = 0;
    for (const Run &r : runs_)
        n += r.dropped;
    return n;
}

// ---- persistence --------------------------------------------------

namespace {
constexpr std::uint32_t profStateVersion = 1;
}

void
EpochProfiler::saveState(ChkWriter &w) const
{
    w.beginSection(chkTag("PROF"));
    w.u32(profStateVersion);
    w.u64(epochRefs_);
    w.u8(1); // probes compiled in; loadState rejects 0
    w.u64(dramRowHits_);
    w.u64(dramRowMisses_);
    w.u64(mtcScanPops_);
    w.u32(regionLevel_);

    // Both profiles are written as sorted sparse (key, count) pairs
    // so the image is deterministic.  The dense churn table yields
    // that order directly: level-then-set ascending == churnKey
    // ascending, and zero slots (growth slack) are skipped.
    std::uint64_t churnEntries = 0;
    for (const auto &sets : churn_)
        for (std::uint64_t count : sets)
            if (count)
                churnEntries++;
    w.u64(churnEntries);
    for (std::size_t level = 0; level < churn_.size(); ++level)
        for (std::size_t set = 0; set < churn_[level].size(); ++set)
            if (const std::uint64_t count = churn_[level][set]) {
                w.u64(churnKey(static_cast<unsigned>(level), set));
                w.u64(count);
            }

    std::vector<std::pair<std::uint64_t, std::uint64_t>> regions(
        region_.begin(), region_.end());
    std::sort(regions.begin(), regions.end());
    w.u64(regions.size());
    for (const auto &[key, count] : regions) {
        w.u64(key);
        w.u64(count);
    }

    w.u64(runs_.size());
    for (const Run &run : runs_) {
        w.str(run.name);
        w.u8(run.ended ? 1 : 0);
        w.u64(run.clamped);
        w.u64(run.dropped);
        w.u64(run.lastCloseRef);
        w.u64(run.attrs.size());
        for (const auto &[key, value] : run.attrs) {
            w.str(key);
            w.f64(value);
        }
        w.u64(run.endRef.size());
        for (std::uint64_t ref : run.endRef)
            w.u64(ref);
        w.u64(run.sources.size());
        for (const Source &s : run.sources) {
            w.str(s.component);
            w.u64(s.metrics.size());
            for (const std::string &m : s.metrics)
                w.str(m);
            for (std::uint64_t v : s.prev)
                w.u64(v);
            for (const auto &col : s.columns) {
                w.u64(col.size());
                for (std::uint64_t v : col)
                    w.u64(v);
            }
            w.u8(s.ended ? 1 : 0);
            if (s.ended)
                for (std::uint64_t v : s.aggregate)
                    w.u64(v);
        }
    }
    w.endSection();
}

void
EpochProfiler::loadState(ChkReader &r)
{
    r.enterSection(chkTag("PROF"));
    const std::uint32_t version = r.u32();
    const std::uint64_t epochRefs = r.u64();
    const std::uint8_t probes = r.u8();
    if (r.failed())
        return;
    if (version != profStateVersion) {
        r.fail(Errc::Mismatch,
               "profiler checkpoint version " +
                   std::to_string(version) + " unsupported");
        return;
    }
    if (epochRefs != epochRefs_) {
        r.fail(Errc::Mismatch,
               "checkpoint was taken with --profile-epoch " +
                   std::to_string(epochRefs) + ", not " +
                   std::to_string(epochRefs_));
        return;
    }
    if (probes != 1) {
        r.fail(Errc::Mismatch,
               "checkpoint was taken by a build without the "
               "profiling probes");
        return;
    }

    dramRowHits_ = r.u64();
    dramRowMisses_ = r.u64();
    mtcScanPops_ = r.u64();
    regionLevel_ = r.u32();

    // The churn image is sparse (key, count) pairs; rebuilding the
    // dense table from untrusted keys is the one place a small image
    // could demand a huge allocation, so the slot footprint is
    // bounded explicitly (2^24 slots ≈ 128 MB, far past any cache
    // this model sweeps).
    churn_.clear();
    constexpr std::uint64_t maxChurnSlots = std::uint64_t{1} << 24;
    std::uint64_t churnSlots = 0;
    const std::uint64_t nChurn = r.u64();
    if (r.failed() || nChurn > r.remaining() / 16) {
        r.fail(Errc::Corrupt,
               "profiler heatmap entry count implausible");
        return;
    }
    for (std::uint64_t i = 0; i < nChurn && !r.failed(); ++i) {
        const std::uint64_t key = r.u64();
        const std::uint64_t count = r.u64();
        const auto level = static_cast<std::size_t>(key >> 48);
        const auto set = static_cast<std::size_t>(
            key & ((std::uint64_t{1} << 48) - 1));
        if (level >= 256 || set >= maxChurnSlots) {
            r.fail(Errc::Corrupt, "profiler churn key implausible");
            return;
        }
        if (level >= churn_.size())
            churn_.resize(level + 1);
        auto &sets = churn_[level];
        if (set >= sets.size()) {
            churnSlots += set + 1 - sets.size();
            if (churnSlots > maxChurnSlots) {
                r.fail(Errc::Corrupt,
                       "profiler churn footprint implausible");
                return;
            }
            sets.resize(set + 1);
        }
        sets[set] = count;
    }

    region_.clear();
    regionLastPage_ = ~std::uint64_t{0};
    regionLastCount_ = nullptr;
    const std::uint64_t nRegion = r.u64();
    if (r.failed() || nRegion > r.remaining() / 16) {
        r.fail(Errc::Corrupt,
               "profiler heatmap entry count implausible");
        return;
    }
    for (std::uint64_t i = 0; i < nRegion && !r.failed(); ++i) {
        const std::uint64_t key = r.u64();
        region_[key] = r.u64();
    }

    runs_.clear();
    nextTarget_ = ~std::uint64_t{0};
    const std::uint64_t nRuns = r.u64();
    if (r.failed() || nRuns > 4096) {
        r.fail(Errc::Corrupt, "profiler run count implausible");
        return;
    }
    for (std::uint64_t ri = 0; ri < nRuns && !r.failed(); ++ri) {
        Run run;
        run.name = r.str();
        run.ended = r.u8() != 0;
        run.clamped = r.u64();
        run.dropped = r.u64();
        run.lastCloseRef = r.u64();
        const std::uint64_t nAttrs = r.u64();
        if (r.failed() || nAttrs > 256) {
            r.fail(Errc::Corrupt,
                   "profiler attr count implausible");
            return;
        }
        for (std::uint64_t i = 0; i < nAttrs && !r.failed(); ++i) {
            const std::string key = r.str();
            run.attrs.emplace_back(key, r.f64());
        }
        const std::uint64_t nEpochs = r.u64();
        if (r.failed() || nEpochs > maxEpochsPerRun ||
            nEpochs > r.remaining() / 8) {
            r.fail(Errc::Corrupt,
                   "profiler epoch count implausible");
            return;
        }
        run.endRef.reserve(static_cast<std::size_t>(nEpochs));
        for (std::uint64_t i = 0; i < nEpochs && !r.failed(); ++i)
            run.endRef.push_back(r.u64());
        const std::uint64_t nSources = r.u64();
        if (r.failed() || nSources > 256) {
            r.fail(Errc::Corrupt,
                   "profiler source count implausible");
            return;
        }
        for (std::uint64_t si = 0; si < nSources && !r.failed();
             ++si) {
            Source s;
            s.component = r.str();
            const std::uint64_t nMetrics = r.u64();
            if (r.failed() || nMetrics > 256) {
                r.fail(Errc::Corrupt,
                       "profiler metric count implausible");
                return;
            }
            for (std::uint64_t m = 0; m < nMetrics && !r.failed();
                 ++m)
                s.metrics.push_back(r.str());
            s.prev.resize(static_cast<std::size_t>(nMetrics));
            for (auto &v : s.prev)
                v = r.u64();
            s.columns.resize(static_cast<std::size_t>(nMetrics));
            for (auto &col : s.columns) {
                const std::uint64_t n = r.u64();
                if (r.failed() || n != nEpochs) {
                    r.fail(Errc::Corrupt,
                           "profiler column length mismatch");
                    return;
                }
                col.reserve(static_cast<std::size_t>(n));
                for (std::uint64_t i = 0; i < n && !r.failed(); ++i)
                    col.push_back(r.u64());
            }
            s.ended = r.u8() != 0;
            if (s.ended) {
                s.aggregate.resize(
                    static_cast<std::size_t>(nMetrics));
                for (auto &v : s.aggregate)
                    v = r.u64();
            }
            run.sources.push_back(std::move(s));
        }
        runs_.push_back(std::move(run));
    }
    r.leaveSection();
}

// ---- JSON export --------------------------------------------------

namespace {

/** Index of @p name in @p metrics, or npos. */
std::size_t
metricIndex(const std::vector<std::string> &metrics,
            const char *name)
{
    for (std::size_t i = 0; i < metrics.size(); ++i)
        if (metrics[i] == name)
            return i;
    return ~std::size_t{0};
}

} // namespace

void
EpochProfiler::writeDerivedJson(JsonWriter &w, const Run &run) const
{
    // A source exposing both request_bytes (traffic above, D_{i-1})
    // and below_bytes (traffic below, D_i) yields a per-epoch
    // traffic ratio r = ΔD_i / ΔD_{i-1} (Equation 4).  For
    // hierarchy-shaped runs the product over levels collapses to
    // Δbelow(last) / Δrequest(first), giving r_total and — against
    // the run's pin_mbs attribute — per-epoch E_pin (Equation 5).
    struct Ratioed
    {
        const Source *src;
        std::size_t req, below;
    };
    std::vector<Ratioed> levels;
    for (const Source &s : run.sources) {
        const std::size_t req = metricIndex(s.metrics,
                                            "request_bytes");
        const std::size_t below = metricIndex(s.metrics,
                                              "below_bytes");
        if (req != ~std::size_t{0} && below != ~std::size_t{0})
            levels.push_back({&s, req, below});
    }
    if (levels.empty())
        return;

    const std::size_t epochs = run.endRef.size();
    auto ratio = [](std::uint64_t below, std::uint64_t req) {
        return req ? static_cast<double>(below) /
                         static_cast<double>(req)
                   : 0.0;
    };

    w.key("derived");
    w.beginObject();
    w.key("r");
    w.beginObject();
    for (const Ratioed &l : levels) {
        w.key(l.src->component);
        w.beginArray();
        for (std::size_t e = 0; e < epochs; ++e)
            w.value(ratio(l.src->columns[l.below][e],
                          l.src->columns[l.req][e]));
        w.endArray();
    }
    w.endObject();

    double pinMbs = 0;
    for (const auto &[key, value] : run.attrs)
        if (key == "pin_mbs")
            pinMbs = value;
    if (pinMbs > 0) {
        const Ratioed &first = levels.front();
        const Ratioed &last = levels.back();
        w.key("r_total");
        w.beginArray();
        for (std::size_t e = 0; e < epochs; ++e)
            w.value(ratio(last.src->columns[last.below][e],
                          first.src->columns[first.req][e]));
        w.endArray();
        w.key("epin_mbs");
        w.beginArray();
        for (std::size_t e = 0; e < epochs; ++e) {
            const double rt =
                ratio(last.src->columns[last.below][e],
                      first.src->columns[first.req][e]);
            w.value(rt > 0 ? pinMbs / rt : 0.0);
        }
        w.endArray();
    }
    w.endObject();
}

void
EpochProfiler::writeRunJson(JsonWriter &w, const Run &run) const
{
    w.beginObject();
    w.field("name", run.name);
    if (!run.attrs.empty()) {
        w.key("attrs");
        w.beginObject();
        for (const auto &[key, value] : run.attrs)
            w.field(key, value);
        w.endObject();
    }
    w.field("ended", run.ended);
    w.field("epochs",
            static_cast<std::uint64_t>(run.endRef.size()));
    w.field("clamped", run.clamped);
    w.field("dropped", run.dropped);
    w.key("end_ref");
    w.beginArray();
    for (std::uint64_t ref : run.endRef)
        w.value(ref);
    w.endArray();
    w.key("sources");
    w.beginArray();
    for (const Source &s : run.sources) {
        w.beginObject();
        w.field("component", s.component);
        w.key("metrics");
        w.beginArray();
        for (const std::string &m : s.metrics)
            w.value(m);
        w.endArray();
        w.key("columns");
        w.beginArray();
        for (const auto &col : s.columns) {
            w.beginArray();
            for (std::uint64_t v : col)
                w.value(v);
            w.endArray();
        }
        w.endArray();
        if (s.ended) {
            w.key("aggregate");
            w.beginArray();
            for (std::uint64_t v : s.aggregate)
                w.value(v);
            w.endArray();
        }
        w.endObject();
    }
    w.endArray();
    writeDerivedJson(w, run);
    w.endObject();
}

std::string
EpochProfiler::json(const std::string &tool) const
{
    JsonWriter w;
    w.beginObject();
    w.field("schema", std::string("membw-profile-v1"));
    w.field("tool", tool);
    w.field("epoch_refs", epochRefs_);
    w.field("probes_compiled", true);
    w.field("clamped_epochs", clampedEpochs());
    w.field("dropped_epochs", droppedEpochs());

    w.key("runs");
    w.beginArray();
    for (const Run &run : runs_)
        writeRunJson(w, run);
    w.endArray();

    // Per-set conflict heatmap: top-K hot sets per level by
    // tag-churn (eviction) count.
    std::map<unsigned,
             std::vector<std::pair<std::uint64_t, std::uint64_t>>>
        byLevel;
    for (std::size_t level = 0; level < churn_.size(); ++level)
        for (std::size_t set = 0; set < churn_[level].size(); ++set)
            if (const std::uint64_t count = churn_[level][set])
                byLevel[static_cast<unsigned>(level)].emplace_back(
                    set, count);
    w.key("set_churn");
    w.beginArray();
    for (auto &[level, sets] : byLevel) {
        std::uint64_t total = 0;
        for (const auto &[set, count] : sets)
            total += count;
        std::sort(sets.begin(), sets.end(),
                  [](const auto &a, const auto &b) {
                      if (a.second != b.second)
                          return a.second > b.second;
                      return a.first < b.first;
                  });
        w.beginObject();
        w.field("level", static_cast<std::uint64_t>(level));
        w.field("sets_touched",
                static_cast<std::uint64_t>(sets.size()));
        w.field("evictions", total);
        w.key("top");
        w.beginArray();
        for (std::size_t i = 0; i < sets.size() && i < churnTopK;
             ++i) {
            w.beginObject();
            w.field("set", sets[i].first);
            w.field("evictions", sets[i].second);
            w.endObject();
        }
        w.endArray();
        w.endObject();
    }
    w.endArray();

    // Address-region heat: bytes per 1/256th of the touched span.
    w.key("region_heat");
    w.beginObject();
    w.field("grain_bytes", probeRegionGrain);
    if (region_.empty()) {
        w.field("touched_bytes", std::uint64_t{0});
        w.key("buckets");
        w.beginArray();
        w.endArray();
    } else {
        std::uint64_t lo = ~std::uint64_t{0}, hi = 0, touched = 0;
        for (const auto &[page, bytes] : region_) {
            lo = std::min(lo, page);
            hi = std::max(hi, page);
            touched += bytes;
        }
        const std::uint64_t span = hi - lo + 1;
        std::vector<std::uint64_t> buckets(
            static_cast<std::size_t>(
                std::min<std::uint64_t>(regionBuckets, span)),
            0);
        for (const auto &[page, bytes] : region_)
            buckets[static_cast<std::size_t>(
                (page - lo) * buckets.size() / span)] += bytes;
        w.field("touched_bytes", touched);
        w.field("lo_addr", lo * probeRegionGrain);
        w.field("hi_addr", (hi + 1) * probeRegionGrain);
        w.key("buckets");
        w.beginArray();
        for (std::uint64_t b : buckets)
            w.value(b);
        w.endArray();
    }
    w.endObject();

    w.key("probe_totals");
    w.beginObject();
    w.field("dram_row_hits", dramRowHits_);
    w.field("dram_row_misses", dramRowMisses_);
    w.field("mtc_scan_pops", mtcScanPops_);
    w.endObject();

    w.endObject();
    return w.str();
}

void
EpochProfiler::writeFile(const std::string &path,
                         const std::string &tool) const
{
    writeFileOrDie(path, json(tool));
}

// ---- process-wide instance ----------------------------------------

namespace {

struct GlobalProfiler
{
    std::unique_ptr<EpochProfiler> profiler;
    std::string path;
};

GlobalProfiler &
globalProfiler()
{
    static GlobalProfiler g;
    return g;
}

} // namespace

EpochProfiler *
profilerActive()
{
    return globalProfiler().profiler.get();
}

EpochProfiler &
profilerInit(const std::string &path, std::uint64_t epochRefs)
{
    GlobalProfiler &g = globalProfiler();
    if (g.profiler)
        fatal("profiler already initialised");
    g.profiler = std::make_unique<EpochProfiler>(epochRefs);
    g.path = path;
    return *g.profiler;
}

void
profilerWriteNow(const std::string &tool)
{
    GlobalProfiler &g = globalProfiler();
    if (!g.profiler)
        return;
    g.profiler->writeFile(g.path, tool);
}

void
writeProfileManifest(RunManifest &manifest, bool stableJson)
{
    const EpochProfiler *prof = profilerActive();
    if (!prof || stableJson)
        return;
    manifest.set("profile_epoch", std::to_string(prof->epochRefs()));
    manifest.set("profile_epochs",
                 std::to_string(prof->epochsClosed()));
    if (prof->clampedEpochs())
        manifest.set("profile_clamped",
                     std::to_string(prof->clampedEpochs()));
    if (prof->droppedEpochs())
        manifest.set("profile_dropped",
                     std::to_string(prof->droppedEpochs()));
}

} // namespace membw
