/**
 * @file
 * Unit tests for src/trace: references, containers, recorder, I/O.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "common/log.hh"
#include "common/rng.hh"
#include "trace/mem_ref.hh"
#include "trace/recorder.hh"
#include "trace/trace.hh"
#include "trace/trace_io.hh"

namespace membw {
namespace {

TEST(MemRef, Basics)
{
    const MemRef load{0x100, 4, RefKind::Load};
    const MemRef store{0x100, 4, RefKind::Store};
    EXPECT_TRUE(load.isLoad());
    EXPECT_FALSE(load.isStore());
    EXPECT_TRUE(store.isStore());
    EXPECT_FALSE(load == store);
    EXPECT_TRUE((load == MemRef{0x100, 4, RefKind::Load}));
}

TEST(Trace, AppendAndIterate)
{
    Trace t;
    EXPECT_TRUE(t.empty());
    t.append(0x10, 4, RefKind::Load);
    t.append(MemRef{0x20, 4, RefKind::Store});
    EXPECT_EQ(t.size(), 2u);
    EXPECT_EQ(t[0].addr, 0x10u);
    EXPECT_EQ(t[1].kind, RefKind::Store);

    std::size_t n = 0;
    for (const MemRef &r : t) {
        (void)r;
        ++n;
    }
    EXPECT_EQ(n, 2u);
}

TEST(Trace, StatsCountsAndFootprint)
{
    Trace t;
    t.append(0x100, 4, RefKind::Load);
    t.append(0x104, 4, RefKind::Store);
    t.append(0x100, 4, RefKind::Load); // repeat: no new footprint
    const TraceStats s = t.stats();
    EXPECT_EQ(s.refs, 3u);
    EXPECT_EQ(s.loads, 2u);
    EXPECT_EQ(s.stores, 1u);
    EXPECT_EQ(s.requestBytes, 12u);
    EXPECT_EQ(s.footprintBytes, 8u); // two distinct words
    EXPECT_EQ(s.minAddr, 0x100u);
    EXPECT_EQ(s.maxAddr, 0x107u);
}

TEST(Recorder, RegionsAreDisjointAndAligned)
{
    TraceRecorder rec;
    const Region a = rec.allocate("a", 100, 64);
    const Region b = rec.allocate("b", 100, 64);
    EXPECT_EQ(a.base % 64, 0u);
    EXPECT_EQ(b.base % 64, 0u);
    EXPECT_GE(b.base, a.base + a.bytes);
    EXPECT_EQ(a.bytes % wordBytes, 0u);
    EXPECT_EQ(rec.regions().size(), 2u);
}

TEST(Recorder, RegionElementAddressing)
{
    TraceRecorder rec;
    const Region r = rec.allocate("r", 64);
    EXPECT_EQ(r.word(0), r.base);
    EXPECT_EQ(r.word(3), r.base + 12);
    EXPECT_EQ(r.dword(2), r.base + 16);
    EXPECT_EQ(r.words(), 16u);
}

TEST(Recorder, QptDoubleWordSplit)
{
    TraceRecorder rec;
    const Region r = rec.allocate("r", 64);
    rec.loadDouble(r.base);
    rec.storeDouble(r.base + 8);

    const Trace &t = rec.trace();
    ASSERT_EQ(t.size(), 4u);
    EXPECT_EQ(t[0].addr, r.base);
    EXPECT_EQ(t[0].size, wordBytes);
    EXPECT_EQ(t[1].addr, r.base + 4);
    EXPECT_TRUE(t[1].isLoad());
    EXPECT_EQ(t[2].addr, r.base + 8);
    EXPECT_TRUE(t[2].isStore());
    EXPECT_EQ(t[3].addr, r.base + 12);
}

TEST(Recorder, AnnotationsInterleaveComputeAndBranches)
{
    TraceRecorder rec;
    const Region r = rec.allocate("r", 64);
    rec.compute(3);
    rec.load(r.base);
    rec.branch(true);
    rec.compute(2);
    rec.store(r.base + 4);

    const auto &a = rec.annotations();
    ASSERT_EQ(a.size(), 3u);
    EXPECT_EQ(a[0].opsBefore, 3u);
    EXPECT_EQ(a[0].kind, TraceRecorder::Annotation::Kind::Mem);
    EXPECT_EQ(a[0].memIndex, 0u);
    EXPECT_EQ(a[1].kind, TraceRecorder::Annotation::Kind::Branch);
    EXPECT_TRUE(a[1].taken);
    EXPECT_EQ(a[1].opsBefore, 0u);
    EXPECT_EQ(a[2].opsBefore, 2u);
    EXPECT_EQ(a[2].memIndex, 1u);
}

TEST(Recorder, DependentLoadFlag)
{
    TraceRecorder rec;
    const Region r = rec.allocate("r", 64);
    rec.load(r.base);
    rec.loadDependent(r.base + 4);
    const auto &a = rec.annotations();
    ASSERT_EQ(a.size(), 2u);
    EXPECT_FALSE(a[0].dependsOnPrevLoad);
    EXPECT_TRUE(a[1].dependsOnPrevLoad);
}

TEST(Recorder, SkipAnnotationsKeepsTheDataTrace)
{
    TraceRecorder rec;
    rec.skipAnnotations();
    const Region r = rec.allocate("r", 64);
    rec.compute(3);
    rec.load(r.base);
    rec.branch(true);
    rec.store(r.base + 4);
    EXPECT_TRUE(rec.annotations().empty());
    ASSERT_EQ(rec.trace().size(), 2u);
    EXPECT_TRUE(rec.trace()[1].isStore());
}

TEST(Recorder, TakeAnnotationsMovesOutContents)
{
    TraceRecorder rec;
    const Region r = rec.allocate("r", 64);
    rec.load(r.base);
    rec.branch(false);
    const auto a = rec.takeAnnotations();
    EXPECT_EQ(a.size(), 2u);
    EXPECT_TRUE(rec.annotations().empty());
}

TEST(Recorder, TakeTraceMovesOutContents)
{
    TraceRecorder rec;
    const Region r = rec.allocate("r", 64);
    rec.load(r.base);
    Trace t = rec.takeTrace();
    EXPECT_EQ(t.size(), 1u);
    EXPECT_TRUE(rec.trace().empty());
}

TEST(TraceIo, RoundTrip)
{
    Trace t;
    t.append(0x1000, 4, RefKind::Load);
    t.append(0x2004, 4, RefKind::Store);
    t.append(0xffffffffff, 4, RefKind::Load);

    const std::string path = testing::TempDir() + "membw_trace_rt.bin";
    saveTrace(t, path);
    const Trace back = loadTrace(path);
    ASSERT_EQ(back.size(), t.size());
    for (std::size_t i = 0; i < t.size(); ++i)
        EXPECT_TRUE(back[i] == t[i]);
    std::remove(path.c_str());
}

TEST(TraceIo, CompactRoundTrip)
{
    Trace t;
    Addr a = 0x10000;
    for (int i = 0; i < 500; ++i) {
        a += (i % 7 == 0) ? 0x4000 : 4; // mixed strides
        t.append(a, 4, i % 3 == 0 ? RefKind::Store : RefKind::Load);
    }
    t.append(0x123457, 12, RefKind::Load); // odd size + alignment

    const std::string path =
        testing::TempDir() + "membw_trace_compact.bin";
    saveTrace(t, path);
    const Trace back = loadTrace(path);
    ASSERT_EQ(back.size(), t.size());
    for (std::size_t i = 0; i < t.size(); ++i)
        EXPECT_TRUE(back[i] == t[i]) << i;
    std::remove(path.c_str());
}

TEST(TraceIo, MissingFileFails)
{
    EXPECT_THROW(loadTrace("/nonexistent/trace.bin"), FatalError);
    const auto r = tryLoadTrace("/nonexistent/trace.bin");
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error().code, Errc::IoError);
}

TEST(TraceIo, RejectsCorruptMagic)
{
    const std::string path = testing::TempDir() + "membw_bad.bin";
    std::FILE *f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    const char junk[32] = "not a trace file at all";
    std::fwrite(junk, sizeof(junk), 1, f);
    std::fclose(f);
    EXPECT_THROW(loadTrace(path), FatalError);
    const auto r = tryLoadTrace(path);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error().code, Errc::BadMagic);
    std::remove(path.c_str());
}

namespace {

/** Little-endian trace header: magic, version, record count. */
std::vector<std::uint8_t>
traceHeader(std::uint32_t magic, std::uint32_t version,
            std::uint64_t count)
{
    std::vector<std::uint8_t> h(16);
    for (unsigned i = 0; i < 4; ++i)
        h[i] = static_cast<std::uint8_t>(magic >> (8 * i));
    for (unsigned i = 0; i < 4; ++i)
        h[4 + i] = static_cast<std::uint8_t>(version >> (8 * i));
    for (unsigned i = 0; i < 8; ++i)
        h[8 + i] = static_cast<std::uint8_t>(count >> (8 * i));
    return h;
}

constexpr std::uint32_t kMagic = 0x4d425754; // "MBWT"

/** Append @p v to @p image as a little-endian base-128 varint. */
void
putVarint(std::vector<std::uint8_t> &image, std::uint64_t v)
{
    do {
        const std::uint8_t low = v & 0x7f;
        v >>= 7;
        image.push_back(v ? low | 0x80 : low);
    } while (v);
}

/** Append an odd-size escape record: control, address, size. */
void
putOddRecord(std::vector<std::uint8_t> &image, Addr addr,
             std::uint64_t size)
{
    image.push_back(0x02); // control: odd-size load
    putVarint(image, addr);
    putVarint(image, size);
}

Errc
parseCode(const std::vector<std::uint8_t> &image)
{
    return parseTrace(image.data(), image.size(), "<unit>").code();
}

std::vector<std::uint8_t>
slurp(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    EXPECT_NE(f, nullptr) << path;
    std::fseek(f, 0, SEEK_END);
    const long n = std::ftell(f);
    std::rewind(f);
    std::vector<std::uint8_t> bytes(static_cast<std::size_t>(n));
    if (!bytes.empty()) {
        EXPECT_EQ(std::fread(bytes.data(), bytes.size(), 1, f), 1u);
    }
    std::fclose(f);
    return bytes;
}

} // namespace

TEST(TraceIoHardened, ClassifiesTruncatedHeader)
{
    const std::vector<std::uint8_t> stub = {'M', 'B', 'W'};
    EXPECT_EQ(parseCode(stub), Errc::Truncated);
    EXPECT_EQ(parseCode({}), Errc::Truncated);
}

TEST(TraceIoHardened, ClassifiesBadVersion)
{
    EXPECT_EQ(parseCode(traceHeader(kMagic, 99, 0)), Errc::BadVersion);
    // Version 1 (16-byte raw records) is no longer read.
    EXPECT_EQ(parseCode(traceHeader(kMagic, 1, 0)), Errc::BadVersion);
    EXPECT_EQ(parseCode(traceHeader(kMagic, 2, 0)), Errc::Ok);
}

TEST(TraceIoHardened, HugeCountIsRejectedBeforeAllocation)
{
    // A hostile header declaring 2^60 records over an empty body must
    // be rejected by arithmetic, not by attempting the allocation.
    EXPECT_EQ(parseCode(traceHeader(kMagic, 2, 1ull << 60)),
              Errc::Truncated);

    // The largest count over a one-record body: still rejected
    // before the reserve.
    auto wide = traceHeader(kMagic, 2, ~std::uint64_t{0});
    wide.push_back(0x20);
    EXPECT_EQ(parseCode(wide), Errc::Truncated);
}

TEST(TraceIoHardened, ClassifiesTruncatedBody)
{
    // Declares 2 records and carries enough bytes to pass the
    // allocation guard, but record 1 ends inside its address varint.
    auto image = traceHeader(kMagic, 2, 2);
    image.push_back(0x20); // record 0: load at 0x10
    image.push_back(0x02); // record 1: odd-size escape...
    image.push_back(0x80); // ...whose address never ends
    image.push_back(0x80);
    EXPECT_EQ(parseCode(image), Errc::Truncated);
}

TEST(TraceIoHardened, ClassifiesTrailingGarbage)
{
    auto image = traceHeader(kMagic, 2, 1);
    image.push_back(0x20); // load at 0x10
    ASSERT_EQ(parseCode(image), Errc::Ok);
    image.push_back(0xcc); // one stray byte after the records
    EXPECT_EQ(parseCode(image), Errc::Corrupt);
}

TEST(TraceIoHardened, ClassifiesCorruptRecords)
{
    auto corrupt = [](Addr addr, std::uint64_t size) {
        auto image = traceHeader(kMagic, 2, 1);
        putOddRecord(image, addr, size);
        return parseCode(image);
    };
    ASSERT_EQ(corrupt(0x10, 12), Errc::Ok);
    // Zero-byte reference.
    EXPECT_EQ(corrupt(0x10, 0), Errc::Corrupt);
    // Implausibly large reference.
    EXPECT_EQ(corrupt(0x10, maxTraceRefBytes + 1), Errc::Corrupt);
    // Reference that wraps the address space.
    EXPECT_EQ(corrupt(~Addr{0}, 8), Errc::Corrupt);
}

TEST(TraceIoHardened, ClassifiesCompactTruncationAndGarbage)
{
    // Declares more compact records than bytes present.
    EXPECT_EQ(parseCode(traceHeader(kMagic, 2, 100)), Errc::Truncated);

    // A control varint whose continuation bit runs off the end.
    auto cut = traceHeader(kMagic, 2, 1);
    cut.push_back(0x80);
    EXPECT_EQ(parseCode(cut), Errc::Truncated);

    // A varint longer than 64 bits of payload is garbage, not merely
    // truncated.
    auto wide = traceHeader(kMagic, 2, 1);
    for (int i = 0; i < 10; ++i)
        wide.push_back(0x80);
    wide.push_back(0x01);
    EXPECT_EQ(parseCode(wide), Errc::Corrupt);
}

TEST(TraceIoHardened, ParserNeverThrowsOnHostileBytes)
{
    // A deterministic spray of mutations over a valid image: every
    // outcome must be a classified Result, never an exception.
    Trace t;
    for (int i = 0; i < 64; ++i)
        t.append(0x1000 + i * 4, 4,
                 i % 2 ? RefKind::Store : RefKind::Load);
    const std::string path =
        testing::TempDir() + "membw_mutate.bin";
    saveTrace(t, path);
    const std::vector<std::uint8_t> image = slurp(path);
    std::remove(path.c_str());
    ASSERT_EQ(parseCode(image), Errc::Ok);

    std::uint64_t accepted = 0;
    for (std::size_t pos = 0; pos < image.size(); ++pos) {
        for (std::uint8_t flip : {0x01, 0x80, 0xff}) {
            auto mutant = image;
            mutant[pos] ^= flip;
            const auto result =
                parseTrace(mutant.data(), mutant.size(), "<mutant>");
            if (result.ok())
                ++accepted; // silent semantic change: allowed
        }
    }
    // Sanity: the loop ran and most mutations were caught.
    EXPECT_LT(accepted, image.size() * 3);
}

TEST(TraceIoHardened, CrcIsContentNotEncoding)
{
    Trace t;
    Addr a = 0x4000;
    for (int i = 0; i < 300; ++i) {
        a += (i % 5 == 0) ? 4096 : 4;
        t.append(a, 4, i % 3 ? RefKind::Load : RefKind::Store);
    }
    t.append(0x123457, 12, RefKind::Store); // odd-size escape record
    const std::string path = testing::TempDir() + "membw_crc.bin";
    saveTrace(t, path);
    const std::uint32_t direct = traceCrc32(t);
    EXPECT_EQ(traceCrc32(loadTrace(path)), direct);
    std::remove(path.c_str());

    Trace other = t;
    other.append(0x9999, 4, RefKind::Load);
    EXPECT_NE(traceCrc32(other), direct);
}

} // namespace
} // namespace membw
