/**
 * @file
 * Main-memory DRAM interface models.
 *
 * Section 2.3 observes that "high-bandwidth DRAM chips have already
 * appeared on the market (extended data-out, enhanced, synchronous,
 * and Rambus DRAMs)" and concludes DRAM banks are "unlikely to become
 * a long-term performance bottleneck" — the pins are.  This module
 * implements the four interface generations as row-buffer bank
 * models so that claim can be measured (ablation_dram_interface)
 * instead of assumed.
 *
 * The default membw timing model keeps the paper's flat 90ns /
 * infinite-bank memory; a DramModel can be plugged into the
 * MemorySystem to replace it.
 */

#ifndef MEMBW_DRAM_DRAM_HH
#define MEMBW_DRAM_DRAM_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hh"
#include "obs/mem_probe.hh"

namespace membw {

/** Mid-1990s DRAM interface generations (Prince [34]). */
enum class DramKind : std::uint8_t
{
    FastPageMode, ///< classic FPM: page hits via CAS-only cycles
    EDO,          ///< extended data-out: shorter page-hit cycles
    Synchronous,  ///< SDRAM: clocked bursts from an open row
    Rambus,       ///< RDRAM: narrow, very fast packet channel
};

/** Timing/geometry bundle for one DRAM subsystem. */
struct DramConfig
{
    DramKind kind = DramKind::FastPageMode;
    unsigned banks = 4;        ///< independent banks (row buffers)
    Bytes rowBytes = 2_KiB;    ///< row-buffer (page) size
    double cpuMHz = 300.0;     ///< for ns -> CPU-cycle conversion

    /** Preset timing numbers for @p kind at @p cpuMHz. */
    static DramConfig preset(DramKind kind, double cpuMHz);

    // Derived timing (filled by preset(); all in nanoseconds).
    double rowAccessNs = 60.0;  ///< row activate + first column
    double pageHitNs = 35.0;    ///< subsequent column in open row
    double prechargeNs = 35.0;  ///< close row before a new activate
    double beatNs = 35.0;       ///< per-transfer-beat time
    Bytes beatBytes = 8;        ///< interface width per beat

    std::string describe() const;
};

/** Per-run counters. */
struct DramStats
{
    std::uint64_t accesses = 0;
    std::uint64_t rowHits = 0;
    std::uint64_t rowMisses = 0;
    Cycle busyCycles = 0;

    double
    rowHitRate() const
    {
        return accesses ? static_cast<double>(rowHits) / accesses
                        : 0.0;
    }
};

/** Completion report for one DRAM access. */
struct DramAccess
{
    Cycle firstBeat = 0; ///< critical word available
    Cycle done = 0;      ///< full transfer complete
};

/**
 * Row-buffer bank model.  Each bank keeps its open row and a
 * busy-until time; accesses to an open row pay the page-hit latency,
 * others precharge + activate.  Transfers stream at beatNs per
 * beatBytes.
 */
class DramModel
{
  public:
    explicit DramModel(const DramConfig &config);

    /** Service a @p bytes transfer at @p addr, not before @p when. */
    DramAccess access(Addr addr, Bytes bytes, Cycle when);

    const DramStats &stats() const { return stats_; }
    const DramConfig &config() const { return config_; }

    /** Attach @p probe (null to detach) reporting row outcomes. */
    void setProbe(MemProbe *probe) { probe_ = probe; }

  private:
    struct Bank
    {
        Addr openRow = addrInvalid;
        Cycle busyUntil = 0;
    };

    Cycle ns(double v) const;

    DramConfig config_;
    std::vector<Bank> banks_;
    DramStats stats_;
    MemProbe *probe_ = nullptr;
};

} // namespace membw

#endif // MEMBW_DRAM_DRAM_HH
