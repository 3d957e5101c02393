/**
 * @file
 * QPT-style trace recorder used by the synthetic workload kernels.
 *
 * The recorder plays the role of QPT in the paper's methodology
 * (Section 4.1): kernels issue logical loads/stores against named
 * regions; the recorder lays regions out in a flat address space and
 * appends word-granularity references to a Trace.  Double-word (8B)
 * accesses are split into two consecutive single-word references,
 * exactly as QPT did.
 */

#ifndef MEMBW_TRACE_RECORDER_HH
#define MEMBW_TRACE_RECORDER_HH

#include <cstddef>
#include <string>
#include <vector>

#include "common/types.hh"
#include "trace/trace.hh"

namespace membw {

/**
 * A named, contiguous allocation in the recorded address space.
 * Handles are cheap value types; the recorder owns the layout.
 */
struct Region
{
    Addr base = 0;
    Bytes bytes = 0;

    /** Address of the word-sized element @p index (element size 4B). */
    Addr word(std::size_t index) const { return base + index * wordBytes; }

    /** Address of an 8-byte element @p index. */
    Addr dword(std::size_t index) const { return base + index * 8; }

    /** Number of 4-byte words in the region. */
    std::size_t words() const { return bytes / wordBytes; }
};

/**
 * Records the data-reference stream of a workload kernel.
 *
 * In addition to memory references, kernels annotate the *instruction*
 * stream — compute-op counts and branches — which the timing model in
 * src/cpu consumes.  Trace-only consumers (src/cache, src/mtc) read
 * just the memory trace.
 */
class TraceRecorder
{
  public:
    /** @param base  starting address for the first region. */
    explicit TraceRecorder(Addr base = 0x10000) : nextBase_(base) {}

    /**
     * Allocate a region of @p bytes (rounded up to a word), aligned to
     * @p align bytes.  Regions are padded apart so distinct arrays
     * never share a cache block unless the kernel aliases them
     * deliberately.
     */
    Region allocate(const std::string &name, Bytes bytes,
                    Bytes align = 64);

    /** Record a word load at @p addr. */
    void load(Addr addr) { record(addr, wordBytes, RefKind::Load); }

    /**
     * Record a word load whose address depends on the previously
     * loaded value (pointer chasing / computed hash probes).  The
     * timing model serializes such loads behind their producers.
     */
    void
    loadDependent(Addr addr)
    {
        record(addr, wordBytes, RefKind::Load, true);
    }

    /** Record a word store at @p addr. */
    void store(Addr addr) { record(addr, wordBytes, RefKind::Store); }

    /** Record an 8-byte load, QPT-split into two word loads. */
    void
    loadDouble(Addr addr)
    {
        record(addr, wordBytes, RefKind::Load);
        record(addr + wordBytes, wordBytes, RefKind::Load);
    }

    /** Record an 8-byte store, QPT-split into two word stores. */
    void
    storeDouble(Addr addr)
    {
        record(addr, wordBytes, RefKind::Store);
        record(addr + wordBytes, wordBytes, RefKind::Store);
    }

    /** The recorded data-reference trace (kept current as we go). */
    const Trace &trace() const { return trace_; }

    /** Move the trace out of the recorder (recorder becomes empty). */
    Trace takeTrace() { return std::move(trace_); }

    /** Names and extents of allocated regions, for diagnostics. */
    struct NamedRegion { std::string name; Region region; };
    const std::vector<NamedRegion> &regions() const { return regions_; }

    // ---- instruction-stream annotations (consumed by src/cpu) ----

    /** Record data references only from now on: compute() and
     * branch() notes are dropped and no annotations are kept.  For
     * trace-only consumers, which would discard them anyway. */
    void skipAnnotations() { annotate_ = false; }

    /** Note @p n non-memory (ALU/FPU) ops since the last event. */
    void compute(unsigned n) { pendingOps_ += n; }

    /** Note a conditional branch with outcome @p taken. */
    void branch(bool taken);

    /** Per-event annotation stream; see cpu/instr_stream.hh. */
    struct Annotation
    {
        enum class Kind : std::uint8_t { Mem, Branch };
        Kind kind = Kind::Mem;
        unsigned opsBefore = 0; ///< compute ops preceding this event
        bool taken = false;     ///< branch outcome (Kind::Branch)
        bool dependsOnPrevLoad = false; ///< serial load chain marker
        std::uint32_t memIndex = 0; ///< trace index (Kind::Mem)
    };

    const std::vector<Annotation> &annotations() const { return annot_; }

    /** Move the annotations out (recorder's list becomes empty). */
    std::vector<Annotation> takeAnnotations() { return std::move(annot_); }

  private:
    void record(Addr addr, Bytes size, RefKind kind,
                bool dependent = false);

    Addr nextBase_;
    Trace trace_;
    std::vector<NamedRegion> regions_;
    std::vector<Annotation> annot_;
    unsigned pendingOps_ = 0;
    bool annotate_ = true;
};

} // namespace membw

#endif // MEMBW_TRACE_RECORDER_HH
