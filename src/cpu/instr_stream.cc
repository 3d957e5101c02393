#include "cpu/instr_stream.hh"

#include <algorithm>
#include <bit>
#include <map>
#include <mutex>
#include <vector>

#include "common/bitops.hh"
#include "common/log.hh"
#include "common/rng.hh"
#include "cpu/branch_pred.hh"
#include "cpu/phase_memo.hh"

namespace membw {

namespace {

/**
 * Loop-structured program-counter generator.  Sequential advance
 * plus taken-branch targets: mostly back edges to recent loop heads,
 * occasionally a "call" into fresh code — giving the small hot
 * I-working-set that loop-dominated codes exhibit.
 */
class PcModel
{
  public:
    PcModel(Bytes code_bytes, std::uint64_t seed)
        : codeBytes_(code_bytes), rng_(seed ^ 0x1F37C4)
    {
        // Larger programs spread control flow across more code:
        // scale the fresh-jump probability with the footprint, so a
        // small interpreter core stays I-hot while Perl/Vortex-class
        // codes pressure their I-caches.
        freshProb_ = 0.005 + static_cast<double>(code_bytes) /
                                static_cast<double>(16_MiB);
        if (freshProb_ > 0.03)
            freshProb_ = 0.03;
        loopHeads_.push_back(0);
    }

    Addr next()
    {
        const Addr pc = codeBase + offset_;
        offset_ = (offset_ + 4) % codeBytes_;
        return pc;
    }

    void
    takenBranch()
    {
        if (!rng_.chance(freshProb_)) {
            // Back edge: return to a recent loop head.
            const std::size_t pick = rng_.below(loopHeads_.size());
            offset_ = loopHeads_[loopHeads_.size() - 1 - pick];
        } else {
            // Call/jump into fresh code; remember it as a new head.
            offset_ =
                (rng_.below(codeBytes_ / 64) * 64) % codeBytes_;
            rememberHead(offset_);
        }
    }

    void
    notTakenBranch()
    {
        // Fall through; the next sequential op is a potential head.
        rememberHead(offset_);
    }

  private:
    void
    rememberHead(Addr offset)
    {
        loopHeads_.push_back(offset);
        if (loopHeads_.size() > 8)
            loopHeads_.erase(loopHeads_.begin());
    }

    Bytes codeBytes_;
    Rng rng_;
    double freshProb_ = 0.03;
    Addr offset_ = 0;
    std::vector<Addr> loopHeads_;
};

} // namespace

MicroOp::MicroOp(OpKind kind, Addr addr, Addr pc, Bytes size,
                 bool taken, bool dependsOnPrevLoad)
    : addr_(addr), pcOffset_(static_cast<std::uint32_t>(pc - codeBase))
{
    if (!isPowerOfTwo(size) || size > 32_KiB)
        fatal("micro-op size must be a power of two up to 32 KiB");
    if (pc < codeBase || pc - codeBase > UINT32_MAX)
        fatal("micro-op pc lies outside the code region");
    bits_ = static_cast<std::uint8_t>(
        static_cast<unsigned>(kind) | (taken ? takenBit : 0) |
        (dependsOnPrevLoad ? dependentBit : 0) |
        floorLog2(size) << sizeShift);
}

struct InstrStream::Derived
{
    std::mutex mutex;
    std::map<unsigned, std::vector<std::uint64_t>> mispredicts;
};

namespace {

/** Smallest power-of-two block [addr, addr + size) fits in: the
 * first and last byte must agree above the block's offset bits. */
Bytes
blockNeeded(Addr addr, Bytes size)
{
    return Bytes{1} << std::bit_width(addr ^ (addr + size - 1));
}

} // namespace

InstrStream::InstrStream()
    : derived_(std::make_unique<Derived>()),
      memo_(std::make_unique<PhaseMemo>())
{
}

InstrStream::~InstrStream() = default;
InstrStream::InstrStream(InstrStream &&) noexcept = default;
InstrStream &InstrStream::operator=(InstrStream &&) noexcept = default;

InstrStream
InstrStream::fromRun(const WorkloadRun &run, Bytes codeBytes,
                     std::uint64_t seed)
{
    using Kind = TraceRecorder::Annotation::Kind;

    if (codeBytes < 256)
        fatal("code footprint must be at least 256 bytes");
    if (codeBytes > Bytes{1} << 32)
        fatal("code footprint must be at most 4 GiB");

    InstrStream stream;
    std::size_t ops = 0;
    for (const auto &a : run.annotations)
        ops += a.opsBefore + 1;
    stream.ops_.reserve(ops);
    PcModel pcs(codeBytes, seed);
    Addr last_load = 0;

    for (const auto &a : run.annotations) {
        for (unsigned i = 0; i < a.opsBefore; ++i)
            stream.ops_.emplace_back(OpKind::Compute, 0, pcs.next(),
                                     wordBytes, false, false);

        if (a.kind == Kind::Branch) {
            stream.ops_.emplace_back(OpKind::Branch, 0, pcs.next(),
                                     wordBytes, a.taken, false);
            stream.branches_++;
            if (a.taken)
                pcs.takenBranch();
            else
                pcs.notTakenBranch();
            stream.spanFreeBlock_ =
                std::max(stream.spanFreeBlock_,
                         blockNeeded(last_load + wrongPathOffset,
                                     wordBytes));
            continue;
        }

        if (a.memIndex >= run.trace.size())
            fatal("annotation references a missing trace entry");
        const MemRef &ref = run.trace[a.memIndex];
        stream.ops_.emplace_back(
            ref.isLoad() ? OpKind::Load : OpKind::Store, ref.addr,
            pcs.next(), ref.size, false,
            a.dependsOnPrevLoad && ref.isLoad());
        stream.spanFreeBlock_ = std::max(stream.spanFreeBlock_,
                                         blockNeeded(ref.addr, ref.size));
        if (ref.isLoad()) {
            stream.loads_++;
            last_load = ref.addr;
        } else {
            stream.stores_++;
        }
    }
    return stream;
}

const std::vector<std::uint64_t> &
InstrStream::mispredicts(unsigned bpredEntries) const
{
    std::lock_guard lock(derived_->mutex);
    const auto found = derived_->mispredicts.find(bpredEntries);
    if (found != derived_->mispredicts.end())
        return found->second;

    BranchPredictor bpred(bpredEntries);
    std::vector<std::uint64_t> bits((branches_ + 63) / 64);
    std::uint64_t branch_pc = 0;
    std::uint64_t b = 0;
    for (const MicroOp &op : ops_) {
        if (op.kind() != OpKind::Branch)
            continue;
        // A synthetic per-branch PC sequence, as a trace would
        // carry one.
        branch_pc = branch_pc * 1664525 + 1013904223;
        if (!bpred.predictAndUpdate(branch_pc, op.taken()))
            bits[b / 64] |= std::uint64_t{1} << (b % 64);
        ++b;
    }
    return derived_->mispredicts.emplace(bpredEntries, std::move(bits))
        .first->second;
}

std::size_t
InstrStream::bytes() const
{
    std::size_t total = ops_.capacity() * sizeof(MicroOp);
    {
        std::lock_guard lock(derived_->mutex);
        for (const auto &[entries, bits] : derived_->mispredicts)
            total += bits.capacity() * sizeof(std::uint64_t);
    }
    return total + memo_->bytes();
}

} // namespace membw
