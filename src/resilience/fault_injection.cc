#include "resilience/fault_injection.hh"

#include <cstdlib>
#include <map>
#include <mutex>
#include <vector>

namespace membw {

namespace {

enum class Trigger
{
    At,    ///< fire once when progress crosses n
    After, ///< fire on every hit with progress > n
    Prob,  ///< fire per hit with probability p
};

struct Clause
{
    std::string site;
    Trigger trigger = Trigger::At;
    std::uint64_t n = 0;
    double p = 0.0;
    bool fired = false;
};

struct Plan
{
    std::vector<Clause> clauses;
    std::uint64_t seed = 0;
    std::map<std::string, std::uint64_t> progress;
};

std::mutex g_mutex;
Plan g_plan;

constexpr const char *knownSites[] = {"io-write", "io-rename", "enospc",
                                      "alloc",    "crash",     "cell"};

bool
siteKnown(const std::string &site)
{
    for (const char *s : knownSites)
        if (site == s)
            return true;
    return false;
}

std::uint64_t
splitmix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

std::uint64_t
siteHash(const std::string &site)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const char c : site) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ull;
    }
    return h;
}

/** Deterministic Bernoulli draw for (seed, site, progress unit). */
bool
probFires(const Clause &c, std::uint64_t seed, std::uint64_t unit)
{
    const std::uint64_t h =
        splitmix64(seed ^ splitmix64(siteHash(c.site) ^ unit));
    // Top 53 bits -> uniform double in [0, 1).
    const double u =
        static_cast<double>(h >> 11) * (1.0 / 9007199254740992.0);
    return u < c.p;
}

/**
 * Advance @p site from its current progress to @p to and evaluate
 * every matching clause over the crossed interval (prev, to].
 * Returns true when a Fail clause fires; a crash-site clause calls
 * _Exit(137) and never returns.  Caller holds g_mutex.
 */
bool
advanceLocked(const char *siteName, std::uint64_t to)
{
    const std::string site(siteName);
    std::uint64_t &cursor = g_plan.progress[site];
    const std::uint64_t prev = cursor;
    if (to <= prev)
        return false; // marks may repeat; only crossings fire
    cursor = to;

    bool fires = false;
    for (Clause &c : g_plan.clauses) {
        if (c.site != site)
            continue;
        switch (c.trigger) {
          case Trigger::At:
            if (!c.fired && prev < c.n && c.n <= to) {
                c.fired = true;
                fires = true;
            }
            break;
          case Trigger::After:
            if (to > c.n)
                fires = true;
            break;
          case Trigger::Prob:
            if (probFires(c, g_plan.seed, to))
                fires = true;
            break;
        }
    }
    if (fires && site == "crash") {
        // Simulated kill -9: no stdio flush, no atexit hooks, the
        // same distinctive status a SIGKILLed child would report.
        std::_Exit(137);
    }
    return fires;
}

Result<std::uint64_t>
parseU64(const std::string &text)
{
    if (text.empty())
        return makeError(Errc::BadValue, "empty number");
    std::uint64_t v = 0;
    for (const char c : text) {
        if (c < '0' || c > '9')
            return makeError(Errc::BadValue,
                             "'" + text + "' is not a number");
        const std::uint64_t digit =
            static_cast<std::uint64_t>(c - '0');
        if (v > (~std::uint64_t{0} - digit) / 10)
            return makeError(Errc::BadValue,
                             "'" + text + "' overflows 64 bits");
        v = v * 10 + digit;
    }
    return v;
}

} // namespace

namespace detail {

std::atomic<bool> faultPlanLive{false};

bool
faultHit(const char *site)
{
    std::lock_guard<std::mutex> lock(g_mutex);
    return advanceLocked(site, g_plan.progress[site] + 1);
}

bool
faultHitAt(const char *site, std::uint64_t index)
{
    // Unit i spans (i, i+1], independent of call order, so indexed
    // sites (sweep cells) fire identically at any --jobs value.
    std::lock_guard<std::mutex> lock(g_mutex);
    bool fires = false;
    for (Clause &c : g_plan.clauses) {
        if (c.site != site)
            continue;
        switch (c.trigger) {
          case Trigger::At:
            if (c.n == index + 1)
                fires = true;
            break;
          case Trigger::After:
            if (index + 1 > c.n)
                fires = true;
            break;
          case Trigger::Prob:
            if (probFires(c, g_plan.seed, index + 1))
                fires = true;
            break;
        }
    }
    if (fires && std::string(site) == "crash")
        std::_Exit(137);
    return fires;
}

bool
faultHitMark(const char *site, std::uint64_t pos)
{
    std::lock_guard<std::mutex> lock(g_mutex);
    return advanceLocked(site, pos);
}

} // namespace detail

Result<bool>
armFaultPlan(const std::string &spec)
{
    Plan plan;
    std::size_t start = 0;
    while (start <= spec.size()) {
        std::size_t end = spec.find(',', start);
        if (end == std::string::npos)
            end = spec.size();
        const std::string clause = spec.substr(start, end - start);
        start = end + 1;
        if (clause.empty()) {
            if (spec.empty())
                break;
            return makeError(Errc::BadValue,
                             "fault spec '" + spec +
                                 "' has an empty clause");
        }

        const std::size_t eq = clause.find('=');
        if (eq == std::string::npos)
            return makeError(Errc::BadValue,
                             "fault clause '" + clause +
                                 "' has no '=' (expected "
                                 "site:trigger=value)");
        const std::string value = clause.substr(eq + 1);

        const std::size_t colon = clause.find(':');
        if (colon == std::string::npos || colon > eq) {
            // Global clause: currently only seed=N.
            const std::string key = clause.substr(0, eq);
            if (key != "seed")
                return makeError(Errc::BadValue,
                                 "unknown fault-spec key '" + key +
                                     "' (expected site:trigger=value "
                                     "or seed=N)");
            auto n = parseU64(value);
            if (!n.ok())
                return makeError(Errc::BadValue,
                                 "fault seed: " + n.error().message);
            plan.seed = n.value();
            continue;
        }

        Clause c;
        c.site = clause.substr(0, colon);
        if (!siteKnown(c.site))
            return makeError(
                Errc::BadValue,
                "unknown fault site '" + c.site +
                    "' (known: io-write, io-rename, enospc, alloc, "
                    "crash, cell)");
        const std::string trigger =
            clause.substr(colon + 1, eq - colon - 1);
        if (trigger == "at" || trigger == "ref") {
            c.trigger = Trigger::At;
            auto n = parseU64(value);
            if (!n.ok())
                return makeError(Errc::BadValue,
                                 "fault clause '" + clause +
                                     "': " + n.error().message);
            if (n.value() == 0)
                return makeError(Errc::BadValue,
                                 "fault clause '" + clause +
                                     "': at= is 1-based");
            c.n = n.value();
        } else if (trigger == "after") {
            c.trigger = Trigger::After;
            auto n = parseU64(value);
            if (!n.ok())
                return makeError(Errc::BadValue,
                                 "fault clause '" + clause +
                                     "': " + n.error().message);
            c.n = n.value();
        } else if (trigger == "p") {
            c.trigger = Trigger::Prob;
            char *rest = nullptr;
            c.p = std::strtod(value.c_str(), &rest);
            if (rest == value.c_str() || *rest != '\0' || c.p < 0.0 ||
                c.p > 1.0)
                return makeError(Errc::BadValue,
                                 "fault clause '" + clause +
                                     "': p= wants a probability in "
                                     "[0, 1]");
        } else {
            return makeError(Errc::BadValue,
                             "unknown fault trigger '" + trigger +
                                 "' in '" + clause +
                                 "' (expected at=, ref=, after=, or "
                                 "p=)");
        }
        plan.clauses.push_back(std::move(c));
    }

    std::lock_guard<std::mutex> lock(g_mutex);
    g_plan = std::move(plan);
    detail::faultPlanLive.store(!g_plan.clauses.empty(),
                                std::memory_order_relaxed);
    return true;
}

void
disarmFaultPlan()
{
    std::lock_guard<std::mutex> lock(g_mutex);
    g_plan = Plan{};
    detail::faultPlanLive.store(false, std::memory_order_relaxed);
}

bool
faultPlanArmed()
{
    return detail::faultPlanLive.load(std::memory_order_relaxed);
}

} // namespace membw
