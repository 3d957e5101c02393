#include "recorder.hh"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

namespace perfbench {

namespace {

const auto processStart = std::chrono::steady_clock::now();

} // namespace

std::uint64_t
nowNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - processStart)
            .count());
}

std::uint32_t
threadIndex()
{
    static std::atomic<std::uint32_t> next{0};
    thread_local const std::uint32_t mine = next.fetch_add(1);
    return mine;
}

double
peakRssMb(const std::string &pid)
{
    std::ifstream status("/proc/" + pid + "/status");
    std::string line;
    while (std::getline(status, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0;
    return 0.0;
}

void
resetPeakRss()
{
    std::ofstream("/proc/self/clear_refs") << "5";
}

double
referenceLoopS(unsigned threads)
{
    constexpr std::uint32_t words = 1u << 16; // 256 KiB, L2-resident
    static const std::vector<std::uint32_t> table = [] {
        std::vector<std::uint32_t> t(words);
        for (std::uint32_t i = 0; i < words; ++i)
            t[i] = i * 2654435761u;
        return t;
    }();
    static std::atomic<std::uint64_t> sink{0}; // keeps the loop's work live
    std::vector<double> secs(threads);
    std::vector<std::thread> copies;
    for (unsigned k = 0; k < threads; ++k)
        copies.emplace_back([&, k] {
            const std::uint64_t t0 = nowNs();
            std::uint64_t a = k + 1, b = k + 7, c = k + 13, d = 0;
            for (std::uint32_t r = 0; r < 3'000'000; ++r) {
                a = a * 6364136223846793005ULL + table[b & (words - 1)];
                b ^= b << 13;
                b ^= b >> 7;
                b ^= b << 17;
                c += table[(a >> 20) & (words - 1)];
                if ((c & 3) == 1)
                    ++d;
                else
                    d ^= c;
            }
            secs[k] = static_cast<double>(nowNs() - t0) / 1e9;
            sink += a ^ b ^ c ^ d;
        });
    for (std::thread &t : copies)
        t.join();
    std::sort(secs.begin(), secs.end());
    return secs[threads / 2];
}

void
Recorder::beginPass(int pass, bool traced)
{
    pass_.store(pass);
    traced_.store(traced);
}

void
Recorder::add(const Span &span)
{
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(span);
}

void
Recorder::add(const Sample &sample)
{
    std::lock_guard<std::mutex> lock(mutex_);
    samples_.push_back(sample);
}

void
Recorder::fail(const std::string &what)
{
    std::lock_guard<std::mutex> lock(mutex_);
    failures_.push_back(what);
}

std::size_t
Recorder::answers(int pass) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::size_t n = 0;
    for (const Sample &s : samples_)
        n += s.pass == pass;
    return n;
}

void
Recorder::write(membw::JsonWriter &w) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    w.key("spans");
    w.beginArray();
    for (const Span &s : spans_) {
        w.beginObject();
        w.field("name", s.name);
        w.field("id", static_cast<std::uint64_t>(s.id));
        w.field("parent", static_cast<std::uint64_t>(s.parent));
        w.field("thread", static_cast<std::uint64_t>(s.thread));
        w.field("pass", s.pass);
        w.field("start_ns", s.startNs);
        w.field("end_ns", s.endNs);
        w.field("submit_ns", s.submitNs);
        w.endObject();
    }
    w.endArray();
    w.key("samples");
    w.beginArray();
    for (const Sample &s : samples_) {
        w.beginObject();
        w.field("name", s.name);
        w.field("pass", s.pass);
        w.field("ms", s.ms);
        w.field("ok", s.ok);
        w.endObject();
    }
    w.endArray();
    w.key("failures");
    w.beginArray();
    for (const std::string &f : failures_)
        w.value(f);
    w.endArray();
}

Timed::Timed(Recorder &rec, const char *name, std::uint32_t parent,
             bool answer, std::uint64_t submitNs)
    : rec_(rec), answer_(answer)
{
    span_.name = name;
    span_.parent = parent;
    span_.pass = rec.pass();
    if (rec.traced())
        span_.id = rec.newId();
    span_.thread = threadIndex();
    span_.startNs = nowNs();
    span_.submitNs = submitNs ? submitNs : span_.startNs;
}

Timed::~Timed()
{
    span_.endNs = nowNs();
    if (answer_)
        rec_.add(Sample{span_.name, span_.pass,
                        static_cast<double>(span_.endNs - span_.startNs) /
                            1e6,
                        ok_});
    if (span_.id)
        rec_.add(span_);
}

void
Counts::add(const std::string &name, double value)
{
    std::lock_guard<std::mutex> lock(mutex_);
    values_[name] += value;
}

std::map<std::string, double>
Counts::values() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return values_;
}

} // namespace perfbench
