#include "dram/dram.hh"

#include <algorithm>
#include <cmath>

#include "common/bitops.hh"
#include "common/log.hh"

namespace membw {

DramConfig
DramConfig::preset(DramKind kind, double cpuMHz)
{
    DramConfig c;
    c.kind = kind;
    c.cpuMHz = cpuMHz;
    switch (kind) {
      case DramKind::FastPageMode:
        // ~60ns RAC parts: 35ns page-mode column cycles, 8B module.
        c.rowAccessNs = 60.0;
        c.pageHitNs = 35.0;
        c.prechargeNs = 35.0;
        c.beatNs = 35.0;
        c.beatBytes = 8;
        c.banks = 2;
        break;
      case DramKind::EDO:
        // EDO overlaps column address with data-out: ~25ns cycles.
        c.rowAccessNs = 60.0;
        c.pageHitNs = 25.0;
        c.prechargeNs = 35.0;
        c.beatNs = 25.0;
        c.beatBytes = 8;
        c.banks = 2;
        break;
      case DramKind::Synchronous:
        // 100MHz SDRAM: CAS-3 (~30ns), 10ns burst beats, 4 banks.
        c.rowAccessNs = 50.0;
        c.pageHitNs = 30.0;
        c.prechargeNs = 30.0;
        c.beatNs = 10.0;
        c.beatBytes = 8;
        c.banks = 4;
        break;
      case DramKind::Rambus:
        // 500MB/s byte-wide channel: 2ns/byte packets, more banks.
        c.rowAccessNs = 50.0;
        c.pageHitNs = 26.0;
        c.prechargeNs = 30.0;
        c.beatNs = 2.0;
        c.beatBytes = 1;
        c.banks = 8;
        break;
    }
    return c;
}

std::string
DramConfig::describe() const
{
    const char *names[] = {"FPM", "EDO", "SDRAM", "RDRAM"};
    return std::string(names[static_cast<int>(kind)]) + "/" +
           std::to_string(banks) + "banks/" +
           std::to_string(rowBytes >> 10) + "KBrows";
}

DramModel::DramModel(const DramConfig &config) : config_(config)
{
    if (config_.banks == 0 || !isPowerOfTwo(config_.banks))
        fatal("DRAM banks must be a non-zero power of two");
    if (!isPowerOfTwo(config_.rowBytes))
        fatal("DRAM row size must be a power of two");
    banks_.resize(config_.banks);
}

Cycle
DramModel::ns(double v) const
{
    return static_cast<Cycle>(
        std::ceil(v * config_.cpuMHz / 1000.0));
}

DramAccess
DramModel::access(Addr addr, Bytes bytes, Cycle when)
{
    stats_.accesses++;

    const Addr row = addr / config_.rowBytes;
    // Rows interleave across banks so streams hit all banks.
    const std::size_t bank_idx =
        static_cast<std::size_t>(row & (config_.banks - 1));
    Bank &bank = banks_[bank_idx];

    Cycle start = std::max(when, bank.busyUntil);
    Cycle first_latency;
    if (bank.openRow == row) {
        stats_.rowHits++;
        MEMBW_PROBE(probe_, onDramAccess(true));
        first_latency = ns(config_.pageHitNs);
    } else {
        stats_.rowMisses++;
        MEMBW_PROBE(probe_, onDramAccess(false));
        first_latency =
            ns(bank.openRow == addrInvalid ? config_.rowAccessNs
                                           : config_.prechargeNs +
                                                 config_.rowAccessNs);
        bank.openRow = row;
    }

    const Cycle beats = divCeil(bytes, config_.beatBytes);
    DramAccess result;
    result.firstBeat = start + first_latency + ns(config_.beatNs);
    result.done =
        start + first_latency + beats * ns(config_.beatNs);
    bank.busyUntil = result.done;
    stats_.busyCycles += result.done - start;
    return result;
}

} // namespace membw
