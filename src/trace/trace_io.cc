#include "trace/trace_io.hh"

#include <cstdint>
#include <cstdio>
#include <memory>
#include <vector>

#include "common/crc.hh"
#include "common/log.hh"
#include "obs/trace_span.hh"
#include "resilience/fault_injection.hh"
#include "resilience/guarded_io.hh"

namespace membw {

namespace {

constexpr std::uint32_t traceMagic = 0x4d425754; // "MBWT"
constexpr std::uint32_t traceVersion = 2;
constexpr std::size_t traceHeaderBytes = 16;

struct FileCloser
{
    void operator()(std::FILE *f) const { if (f) std::fclose(f); }
};
using FilePtr = std::unique_ptr<std::FILE, FileCloser>;

std::uint64_t
zigzag(std::int64_t v)
{
    return (static_cast<std::uint64_t>(v) << 1) ^
           static_cast<std::uint64_t>(v >> 63);
}

std::int64_t
unzigzag(std::uint64_t v)
{
    return static_cast<std::int64_t>(v >> 1) ^
           -static_cast<std::int64_t>(v & 1);
}

void
putVarint(GuardedFile &out, std::uint64_t v)
{
    std::uint8_t buf[10];
    unsigned n = 0;
    do {
        std::uint8_t byte = v & 0x7f;
        v >>= 7;
        if (v)
            byte |= 0x80;
        buf[n++] = byte;
    } while (v);
    (void)out.write(buf, n).orDie();
}

/**
 * Bounds-checked cursor over the untrusted image.  Reads latch no
 * state; each returns a Result so classification happens at the
 * failure site where the record index is known.
 */
struct Cursor
{
    const std::uint8_t *data;
    std::size_t size;
    std::size_t pos = 0;

    std::size_t remaining() const { return size - pos; }

    /** Little-endian fixed-width read; false on truncation. */
    bool
    le(std::uint64_t &out, unsigned nbytes)
    {
        if (nbytes > remaining())
            return false;
        out = 0;
        for (unsigned i = 0; i < nbytes; ++i)
            out |= static_cast<std::uint64_t>(data[pos + i])
                   << (8 * i);
        pos += nbytes;
        return true;
    }

    /** Varint read; 0 = ok, 1 = truncated, 2 = corrupt (>64 bits). */
    int
    varint(std::uint64_t &out)
    {
        out = 0;
        unsigned shift = 0;
        for (;;) {
            if (pos >= size)
                return 1;
            const std::uint8_t c = data[pos++];
            out |= static_cast<std::uint64_t>(c & 0x7f) << shift;
            if (!(c & 0x80))
                return 0;
            shift += 7;
            if (shift >= 64)
                return 2;
        }
    }
};

Error
recordError(Errc code, const std::string &origin, std::uint64_t index,
            const std::string &why)
{
    return makeError(code, "trace '" + origin + "', record " +
                               std::to_string(index) + ": " + why);
}

/** Shared validity check for a decoded (addr, size) pair. */
const char *
refInvalid(Addr addr, Bytes size)
{
    if (size == 0)
        return "zero-byte reference";
    if (size > maxTraceRefBytes)
        return "implausible reference size";
    if (addr > ~Addr{0} - (size - 1))
        return "reference wraps the address space";
    return nullptr;
}

} // namespace

void
saveTrace(const Trace &trace, const std::string &path)
{
    MEMBW_SPAN_D("trace.save",
                 "refs=" + std::to_string(trace.size()));

    // Streamed through GuardedFile: records go to '<path>.tmp' and
    // the file only appears under its real name after a clean commit,
    // so a crash mid-save never leaves a truncated trace behind.
    GuardedFile out;
    (void)out.open(path).orDie();

    const std::uint32_t header[2] = {traceMagic, traceVersion};
    const std::uint64_t count = trace.size();
    (void)out.write(header, sizeof(header)).orDie();
    (void)out.write(&count, sizeof(count)).orDie();

    // Per record a control varint
    //   bit0: store, bit1: size != wordBytes (varint size follows),
    //   bits2..: zigzag word-delta from the previous address.
    Addr prev = 0;
    for (const MemRef &r : trace) {
        const std::int64_t delta =
            (static_cast<std::int64_t>(r.addr) -
             static_cast<std::int64_t>(prev)) /
            static_cast<std::int64_t>(wordBytes);
        const bool odd_size = r.size != wordBytes ||
                              r.addr % wordBytes != 0;
        std::uint64_t control = zigzag(delta) << 2;
        control |= odd_size ? 2 : 0;
        control |= r.isStore() ? 1 : 0;
        if (odd_size) {
            // Rare general case: raw address + size.
            putVarint(out, (2 | (r.isStore() ? 1 : 0)));
            putVarint(out, r.addr);
            putVarint(out, r.size);
        } else {
            putVarint(out, control);
        }
        prev = r.addr;
    }
    (void)out.commit().orDie();
}

Result<Trace>
parseTrace(const std::uint8_t *data, std::size_t size,
           const std::string &origin)
{
    Cursor in{data, size};

    std::uint64_t magic = 0, version = 0, count = 0;
    if (!in.le(magic, 4) || !in.le(version, 4) || !in.le(count, 8))
        return makeError(Errc::Truncated,
                         "trace '" + origin + "' is " +
                             std::to_string(size) +
                             " bytes; the header alone needs " +
                             std::to_string(traceHeaderBytes));
    if (magic != traceMagic)
        return makeError(Errc::BadMagic,
                         "'" + origin + "' is not a membw trace");
    if (version != traceVersion)
        return makeError(Errc::BadVersion,
                         "trace '" + origin +
                             "' has unsupported version " +
                             std::to_string(version) +
                             " (this build reads 2)");

    // Truncation guard BEFORE any allocation: every record takes at
    // least one byte, so a whole file has at least count body bytes.
    const std::size_t body = in.remaining();
    if (count > body)
        return makeError(
            Errc::Truncated,
            "trace '" + origin + "' declares " +
                std::to_string(count) +
                " compact records but only " + std::to_string(body) +
                " bytes follow the header (each record needs at "
                "least one byte)");

    Trace trace;
    // Safe: count is bounded by the bytes actually present.
    trace.reserve(static_cast<std::size_t>(count));

    Addr prev = 0;
    for (std::uint64_t i = 0; i < count; ++i) {
        std::uint64_t control = 0;
        switch (in.varint(control)) {
          case 1:
            return recordError(Errc::Truncated, origin, i,
                               "file ends inside the control varint");
          case 2:
            return recordError(Errc::Corrupt, origin, i,
                               "control varint exceeds 64 bits");
        }
        const RefKind kind =
            (control & 1) ? RefKind::Store : RefKind::Load;
        if (control & 2) {
            std::uint64_t addr = 0, refSize = 0;
            if (in.varint(addr) != 0 || in.varint(refSize) != 0)
                return recordError(
                    Errc::Truncated, origin, i,
                    "file ends inside an address/size varint");
            if (const char *why = refInvalid(addr, refSize))
                return recordError(Errc::Corrupt, origin, i, why);
            trace.append(addr, refSize, kind);
            prev = addr;
            continue;
        }
        // Wrapping unsigned arithmetic: a hostile delta must not be
        // UB, and any 64-bit address is representable anyway.
        const std::uint64_t delta =
            static_cast<std::uint64_t>(unzigzag(control >> 2));
        const Addr addr = prev + delta * wordBytes;
        if (const char *why = refInvalid(addr, wordBytes))
            return recordError(Errc::Corrupt, origin, i, why);
        trace.append(addr, wordBytes, kind);
        prev = addr;
    }
    if (in.remaining())
        return makeError(Errc::Corrupt,
                         "trace '" + origin + "' carries " +
                             std::to_string(in.remaining()) +
                             " trailing bytes after the declared "
                             "records");
    return trace;
}

Result<Trace>
tryLoadTrace(const std::string &path)
{
    MEMBW_SPAN("trace.load");
    FilePtr f(std::fopen(path.c_str(), "rb"));
    if (!f)
        return makeError(Errc::IoError,
                         "cannot open '" + path + "' for reading");
    if (std::fseek(f.get(), 0, SEEK_END) != 0)
        return makeError(Errc::IoError,
                         "cannot seek in '" + path + "'");
    const long sz = std::ftell(f.get());
    if (sz < 0)
        return makeError(Errc::IoError, "cannot size '" + path + "'");
    std::rewind(f.get());
    if (MEMBW_FAULT_POINT("alloc"))
        return makeError(Errc::IoError,
                         "cannot allocate " + std::to_string(sz) +
                             " bytes for '" + path + "' (injected)");
    std::vector<std::uint8_t> image(static_cast<std::size_t>(sz));
    if (!image.empty() &&
        std::fread(image.data(), image.size(), 1, f.get()) != 1)
        return makeError(Errc::IoError,
                         "cannot read '" + path + "'");
    return parseTrace(image.data(), image.size(), path);
}

Trace
loadTrace(const std::string &path)
{
    return tryLoadTrace(path).orDie();
}

std::uint32_t
traceCrc32(const Trace &trace)
{
    Crc32 crc;
    for (const MemRef &r : trace) {
        crc.updateScalar(r.addr);
        crc.updateScalar(static_cast<std::uint32_t>(r.size));
        crc.updateScalar(
            static_cast<std::uint8_t>(r.kind));
    }
    return crc.value();
}

} // namespace membw
