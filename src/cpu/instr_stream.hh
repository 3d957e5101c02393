/**
 * @file
 * Micro-op stream consumed by the timing core.
 *
 * A workload run's memory trace plus its compute/branch annotations
 * are flattened into a single program-ordered stream of micro-ops —
 * the timing model's analogue of SimpleScalar's decoded instruction
 * stream.  Every decomposition phase reads the stream end to end, so
 * each op is packed into 16 bytes, and the work that depends only on
 * the stream (branch outcomes, whole phase results) is done once per
 * stream and shared by every phase run over it.
 */

#ifndef MEMBW_CPU_INSTR_STREAM_HH
#define MEMBW_CPU_INSTR_STREAM_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "common/types.hh"
#include "workloads/workload.hh"

namespace membw {

/** Micro-op kinds the core models. */
enum class OpKind : std::uint8_t
{
    Compute, ///< ALU/FPU op; depends on the most recent load
    Load,    ///< memory read
    Store,   ///< memory write (retired through the write buffer)
    Branch,  ///< conditional branch; may redirect fetch
};

/** Where the synthetic code region lives (above all data regions). */
constexpr Addr codeBase = Addr{1} << 40;

/** A mispredicted branch's wrong-path load (experiments D-F) reads
 * one word this far past the most recent load. */
constexpr Addr wrongPathOffset = 16 * wordBytes;

/**
 * One micro-op in 16 bytes: the effective address, the instruction's
 * offset into the code region, and one byte holding the kind, log2
 * of the access size and the two flags.
 */
class MicroOp
{
  public:
    MicroOp() = default;

    /** @p size must be a power of two up to 32 KiB (fatal otherwise);
     * @p pc must lie in the 4 GiB above codeBase. */
    MicroOp(OpKind kind, Addr addr, Addr pc, Bytes size, bool taken,
            bool dependsOnPrevLoad);

    OpKind kind() const { return static_cast<OpKind>(bits_ & kindMask); }
    Addr addr() const { return addr_; }   ///< effective address
    Addr pc() const { return codeBase + pcOffset_; } ///< for I-fetch
    Bytes size() const { return Bytes{1} << (bits_ >> sizeShift); }
    bool taken() const { return bits_ & takenBit; } ///< branch outcome
    /** Serial load chain (Load only). */
    bool dependsOnPrevLoad() const { return bits_ & dependentBit; }

  private:
    static constexpr std::uint8_t kindMask = 0x3;
    static constexpr std::uint8_t takenBit = 0x4;
    static constexpr std::uint8_t dependentBit = 0x8;
    static constexpr unsigned sizeShift = 4;

    Addr addr_ = 0;
    std::uint32_t pcOffset_ = 0;
    std::uint8_t bits_ = static_cast<std::uint8_t>(2 << sizeShift);
};

static_assert(sizeof(MicroOp) <= 16, "MicroOp must stay packed");

class PhaseMemo;

/** Program-ordered micro-op sequence. */
class InstrStream
{
  public:
    InstrStream();
    ~InstrStream();
    InstrStream(InstrStream &&) noexcept;
    InstrStream &operator=(InstrStream &&) noexcept;

    /**
     * Flatten a workload run into micro-ops.
     *
     * Instruction addresses are synthesized with a loop-structured
     * model: ops advance sequentially through a code region of
     * @p codeBytes; taken branches mostly return to recently seen
     * loop heads (back edges) and occasionally call into fresh code.
     * The code region is placed far above the data regions so I- and
     * D-streams only interact through shared caches.
     */
    static InstrStream fromRun(const WorkloadRun &run,
                               Bytes codeBytes = 32_KiB,
                               std::uint64_t seed = 1);

    std::size_t size() const { return ops_.size(); }
    const MicroOp &operator[](std::size_t i) const { return ops_[i]; }

    auto begin() const { return ops_.begin(); }
    auto end() const { return ops_.end(); }

    std::uint64_t loadCount() const { return loads_; }
    std::uint64_t storeCount() const { return stores_; }
    std::uint64_t branchCount() const { return branches_; }

    /**
     * Mispredict bit of every branch, in branch order (bit b of word
     * b / 64), under a BranchPredictor of @p bpredEntries entries.
     * The predictor indexes by its own history and a synthetic
     * branch-PC sequence, never by a cycle, so the bits depend only
     * on the stream and the table size.  Built on the first call per
     * size; thread-safe; the reference stays valid for the stream's
     * lifetime.  fatal() if @p bpredEntries is not a power of two.
     */
    const std::vector<std::uint64_t> &
    mispredicts(unsigned bpredEntries) const;

    /**
     * The smallest power-of-two block size that no data reference
     * spans, counting the wrong-path load the core would issue after
     * any branch.  A cache with blocks at least this large never
     * fails its block-span check on this stream.
     */
    Bytes spanFreeBlock() const { return spanFreeBlock_; }

    /** The per-stream memo of phase results (see runPhase()). */
    PhaseMemo &phaseMemo() const { return *memo_; }

    /** Host bytes held: the ops, the branch bits built so far and
     * the memoized phase results. */
    std::size_t bytes() const;

  private:
    struct Derived;

    std::vector<MicroOp> ops_;
    std::uint64_t loads_ = 0;
    std::uint64_t stores_ = 0;
    std::uint64_t branches_ = 0;
    Bytes spanFreeBlock_ = 1;
    std::unique_ptr<Derived> derived_; ///< products built on first use
    std::unique_ptr<PhaseMemo> memo_;
};

} // namespace membw

#endif // MEMBW_CPU_INSTR_STREAM_HH
