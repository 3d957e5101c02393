#include "cache/hierarchy.hh"

#include "common/log.hh"
#include "obs/registry.hh"
#include "obs/trace_span.hh"
#include "resilience/checkpoint.hh"
#include "resilience/exit_codes.hh"

namespace membw {

namespace {

/**
 * Hierarchy aggregates shared by the live and snapshot publishers.
 * @p parent is a StatsRegistry (top-level layout) or a StatsGroup
 * (per-cell sweep subtree); both expose group().
 */
template <typename Parent>
void
publishLevels(Parent &parent,
              const std::vector<const CacheStats *> &levels)
{
    for (std::size_t i = 0; i < levels.size(); ++i) {
        StatsGroup g = parent.group("l" + std::to_string(i + 1));
        publishCacheStats(g, *levels[i]);
    }

    StatsGroup hier = parent.group("hier");
    hier.addCounter("levels", "cache levels simulated")
        .set(levels.size());
    auto &request = hier.addCounter(
        "request_bytes", "processor-side request traffic (D_0)",
        "bytes");
    request.set(levels.front()->requestBytes);
    auto &pin = hier.addCounter(
        "pin_bytes", "traffic below the last level (D_k)", "bytes");
    pin.set(levels.back()->trafficBelow());
    hier.addRatio("traffic_ratio",
                  "total R = pin_bytes / request_bytes", pin,
                  request);
}

} // namespace

CacheHierarchy::CacheHierarchy(const std::vector<CacheConfig> &configs)
{
    if (configs.empty())
        fatal("hierarchy needs at least one level");

    for (std::size_t i = 0; i < configs.size(); ++i) {
        if (i > 0 && configs[i].blockBytes < configs[i - 1].blockBytes)
            fatal("lower-level block size must not shrink");
        caches_.push_back(std::make_unique<Cache>(configs[i]));
    }

    // Wire each level's fills and write-backs into the next level
    // through the non-allocating callback form (one indirect call
    // per transfer).  Every inter-level transfer counts against the
    // per-reference event budget so a run-away fill/prefetch chain
    // trips the watchdog instead of hanging the run.
    links_.reserve(caches_.size());
    for (std::size_t i = 0; i + 1 < caches_.size(); ++i) {
        links_.push_back(DownLink{this, caches_[i + 1].get()});
        caches_[i]->setBelow(&CacheHierarchy::forwardFetch,
                             &CacheHierarchy::forwardWriteback,
                             &links_.back());
    }
}

void
CacheHierarchy::forwardFetch(void *ctx, Addr addr, Bytes bytes)
{
    auto *link = static_cast<DownLink *>(ctx);
    link->hier->noteDownstreamEvent();
    link->below->access(MemRef{addr, bytes, RefKind::Load});
}

void
CacheHierarchy::forwardWriteback(void *ctx, Addr addr, Bytes bytes)
{
    auto *link = static_cast<DownLink *>(ctx);
    link->hier->noteDownstreamEvent();
    link->below->access(MemRef{addr, bytes, RefKind::Store});
}

void
CacheHierarchy::noteDownstreamEvent()
{
    if (++accessEvents_ > maxEvents_)
        maxEvents_ = accessEvents_;
    if (eventBudget_ && accessEvents_ > eventBudget_)
        throw WatchdogError(
            "hierarchy watchdog: one reference triggered more than " +
            std::to_string(eventBudget_) +
            " downstream transfers — a fill/prefetch livelock "
            "between cache levels (raise the budget with "
            "setEventBudget() only if this chain is expected)");
}

void
CacheHierarchy::access(const MemRef &ref)
{
    accessEvents_ = 0;
    caches_[0]->access(ref);
}

void
CacheHierarchy::flush()
{
    for (auto &cache : caches_)
        cache->flush();
}

Bytes
CacheHierarchy::trafficBelow(std::size_t i) const
{
    return caches_[i]->stats().trafficBelow();
}

double
CacheHierarchy::trafficRatio(std::size_t i) const
{
    return caches_[i]->stats().trafficRatio();
}

double
CacheHierarchy::totalTrafficRatio() const
{
    const Bytes above = caches_[0]->stats().requestBytes;
    return above ? static_cast<double>(trafficBelow(levels() - 1)) /
                       static_cast<double>(above)
                 : 0.0;
}

void
CacheHierarchy::publishStats(StatsRegistry &registry) const
{
    std::vector<const CacheStats *> levels;
    for (const auto &cache : caches_)
        levels.push_back(&cache->stats());
    publishLevels(registry, levels);
}

TrafficResult
CacheHierarchy::summarize() const
{
    TrafficResult result;
    result.requestBytes = level(0).stats().requestBytes;
    result.pinBytes = trafficBelow(levels() - 1);
    result.trafficRatio = totalTrafficRatio();
    for (std::size_t i = 0; i < levels(); ++i) {
        result.levelRatios.push_back(trafficRatio(i));
        result.levelTraffic.push_back(trafficBelow(i));
        result.levels.push_back(level(i).stats());
    }
    result.l1 = level(0).stats();
    return result;
}

void
CacheHierarchy::saveState(ChkWriter &w) const
{
    w.beginSection(chkTag("HIER"));
    w.u32(static_cast<std::uint32_t>(caches_.size()));
    w.endSection();
    for (const auto &cache : caches_)
        cache->saveState(w);
}

void
CacheHierarchy::loadState(ChkReader &r)
{
    r.enterSection(chkTag("HIER"));
    const std::uint32_t count = r.u32();
    r.leaveSection();
    if (r.failed())
        return;
    if (count != caches_.size()) {
        r.fail(Errc::Mismatch,
               "checkpoint holds " + std::to_string(count) +
                   " cache levels but the configuration builds " +
                   std::to_string(caches_.size()));
        return;
    }
    for (auto &cache : caches_) {
        cache->loadState(r);
        if (r.failed())
            return;
    }
}

TrafficResult
runTrace(const Trace &trace, const std::vector<CacheConfig> &configs)
{
    return runTrace(trace, configs, TraceProgressFn{});
}

std::string
describeLevels(const std::vector<CacheConfig> &configs)
{
    std::string out;
    for (const CacheConfig &c : configs)
        out += (out.empty() ? "" : " > ") + c.describe();
    return out;
}

TrafficResult
runTrace(const Trace &trace, const std::vector<CacheConfig> &configs,
         const TraceProgressFn &progress)
{
    MEMBW_SPAN_D("cache.run_trace", describeLevels(configs));
    CacheHierarchy hier(configs);
    if (progress) {
        const std::size_t total = trace.size();
        for (std::size_t i = 0; i < total; ++i) {
            hier.access(trace[i]);
            progress(i + 1, total);
        }
    } else {
        for (const MemRef &ref : trace)
            hier.access(ref);
    }
    hier.flush();
    return hier.summarize();
}

TrafficResult
runTrace(const Trace &trace, const CacheConfig &config)
{
    return runTrace(trace, std::vector<CacheConfig>{config});
}

void
saveTrafficResult(ChkWriter &w, const TrafficResult &result)
{
    w.beginSection(chkTag("TRFR"));
    w.u64(result.requestBytes);
    w.u64(result.pinBytes);
    w.f64(result.trafficRatio);
    w.u64(result.levels.size());
    for (std::size_t i = 0; i < result.levels.size(); ++i) {
        w.f64(result.levelRatios[i]);
        w.u64(result.levelTraffic[i]);
        saveCacheStats(w, result.levels[i]);
    }
    w.endSection();
}

void
loadTrafficResult(ChkReader &r, TrafficResult &result)
{
    result = TrafficResult{};
    r.enterSection(chkTag("TRFR"));
    result.requestBytes = r.u64();
    result.pinBytes = r.u64();
    result.trafficRatio = r.f64();
    const std::uint64_t levels = r.u64();
    if (r.failed())
        return;
    // A level costs well over 100 bytes; 1/16th is a safe floor for
    // the pre-allocation cap.
    if (levels == 0 || levels > r.remaining() / 16) {
        r.fail(Errc::Corrupt, "implausible traffic-level count " +
                                  std::to_string(levels));
        return;
    }
    for (std::uint64_t i = 0; i < levels && !r.failed(); ++i) {
        result.levelRatios.push_back(r.f64());
        result.levelTraffic.push_back(r.u64());
        CacheStats stats;
        loadCacheStats(r, stats);
        result.levels.push_back(stats);
    }
    r.leaveSection();
    if (!r.failed())
        result.l1 = result.levels.front();
}

void
publishStats(StatsRegistry &registry, const TrafficResult &result)
{
    std::vector<const CacheStats *> levels;
    for (const CacheStats &s : result.levels)
        levels.push_back(&s);
    publishLevels(registry, levels);
}

void
publishStats(StatsGroup &group, const TrafficResult &result)
{
    std::vector<const CacheStats *> levels;
    for (const CacheStats &s : result.levels)
        levels.push_back(&s);
    publishLevels(group, levels);
}

} // namespace membw
