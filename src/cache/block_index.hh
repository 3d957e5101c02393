/**
 * @file
 * Flat open-addressed block-address index: the lookup table of a
 * cache whose sets are too wide to scan (see Cache).
 */

#ifndef MEMBW_CACHE_BLOCK_INDEX_HH
#define MEMBW_CACHE_BLOCK_INDEX_HH

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/types.hh"

namespace membw {

/**
 * blockAddr -> line slot, in one array of (key, slot) entries with
 * linear probing.  The capacity is the power of two at or above twice
 * the keys it is sized for, so at most half the entries are in use
 * and every probe ends at an empty entry.  Keys hash by Fibonacci
 * multiplication (the high bits of the product), which spreads block
 * addresses that share their low bits, such as the blocks of arrays
 * aligned to a large power of two.  erase() uses backward-shift
 * deletion, so there are no tombstones.  addrInvalid marks an empty
 * entry and is never a key.
 */
class BlockIndex
{
  public:
    static constexpr std::uint32_t none = ~std::uint32_t{0};

    /** Size the table for up to @p keys keys, all entries empty. */
    void
    init(std::size_t keys)
    {
        const std::size_t cap =
            std::bit_ceil(std::max<std::size_t>(2 * keys, 2));
        shift_ = 64 - static_cast<unsigned>(std::countr_zero(cap));
        mask_ = cap - 1;
        entries_.assign(cap, Entry{});
    }

    /** Empty every entry. */
    void clear() { std::fill(entries_.begin(), entries_.end(), Entry{}); }

    std::size_t capacity() const { return entries_.size(); }

    /** The entry where the probe for @p key starts. */
    std::size_t
    home(Addr key) const
    {
        return static_cast<std::size_t>(
            (key * 0x9E3779B97F4A7C15ull) >> shift_);
    }

    /** The slot stored with @p key, or none. */
    std::uint32_t
    find(Addr key) const
    {
        for (std::size_t i = home(key);; i = (i + 1) & mask_) {
            const Entry &e = entries_[i];
            if (e.key == key)
                return e.slot;
            if (e.key == addrInvalid)
                return none;
        }
    }

    /** Add @p key, which must be absent, with @p slot. */
    void
    insert(Addr key, std::uint32_t slot)
    {
        std::size_t i = home(key);
        while (entries_[i].key != addrInvalid)
            i = (i + 1) & mask_;
        entries_[i] = Entry{key, slot};
    }

    /** Remove @p key, which must be present. */
    void
    erase(Addr key)
    {
        std::size_t hole = home(key);
        while (entries_[hole].key != key)
            hole = (hole + 1) & mask_;
        // Pull back each later entry of the run whose home does not
        // lie cyclically in (hole, j]: its probe passes the hole.
        for (std::size_t j = (hole + 1) & mask_;
             entries_[j].key != addrInvalid; j = (j + 1) & mask_) {
            if (((j - home(entries_[j].key)) & mask_) >=
                ((j - hole) & mask_)) {
                entries_[hole] = entries_[j];
                hole = j;
            }
        }
        entries_[hole] = Entry{};
    }

  private:
    struct Entry
    {
        Addr key = addrInvalid;
        std::uint32_t slot = 0;
    };

    std::vector<Entry> entries_;
    std::size_t mask_ = 0;
    unsigned shift_ = 63;
};

} // namespace membw

#endif // MEMBW_CACHE_BLOCK_INDEX_HH
