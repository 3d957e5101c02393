#include "trace/recorder.hh"

#include "common/bitops.hh"
#include "common/log.hh"

namespace membw {

Region
TraceRecorder::allocate(const std::string &name, Bytes bytes, Bytes align)
{
    if (bytes == 0)
        fatal("region '" + name + "' must be non-empty");
    if (!isPowerOfTwo(align))
        fatal("region alignment must be a power of two");

    Region region;
    region.base = alignUp(nextBase_, align);
    region.bytes = alignUp(bytes, wordBytes);

    // Pad regions a block apart so arrays don't share 128B blocks.
    nextBase_ = alignUp(region.base + region.bytes + 128, align);

    regions_.push_back({name, region});
    return region;
}

void
TraceRecorder::record(Addr addr, Bytes size, RefKind kind,
                      bool dependent)
{
    if (annotate_) {
        Annotation a;
        a.kind = Annotation::Kind::Mem;
        a.opsBefore = pendingOps_;
        a.dependsOnPrevLoad = dependent;
        a.memIndex = static_cast<std::uint32_t>(trace_.size());
        pendingOps_ = 0;
        annot_.push_back(a);
    }
    trace_.append(addr, size, kind);
}

void
TraceRecorder::branch(bool taken)
{
    if (!annotate_)
        return;
    Annotation a;
    a.kind = Annotation::Kind::Branch;
    a.opsBefore = pendingOps_;
    a.taken = taken;
    pendingOps_ = 0;
    annot_.push_back(a);
}

} // namespace membw
