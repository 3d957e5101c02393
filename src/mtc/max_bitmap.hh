/**
 * @file
 * Hierarchical bitmap with find-max: the victim order of the MIN
 * cache (see MinCacheSim).
 */

#ifndef MEMBW_MTC_MAX_BITMAP_HH
#define MEMBW_MTC_MAX_BITMAP_HH

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace membw {

/**
 * A set of bit positions with O(1) set and clear and near-O(1)
 * find-max and find-below (one word per level).
 *
 * Level 0 holds one bit per position; bit j of a level-(l+1) word is
 * set iff word j of level l is non-zero.  All levels live in one
 * contiguous word array, level 0 first, each at a fixed offset; the
 * top level is a single word.
 */
class MaxBitmap
{
  public:
    /** Make the bitmap empty over positions [0, @p bits). */
    void
    init(std::size_t bits)
    {
        std::size_t words = bits > 64 ? (bits + 63) / 64 : 1;
        std::size_t total = 0;
        levels_ = 0;
        for (;;) {
            offset_[levels_++] = total;
            total += words;
            if (words == 1)
                break;
            words = (words + 63) / 64;
        }
        words_.assign(total, 0);
    }

    void
    set(std::size_t i)
    {
        // A word that was already non-zero has its bit set in every
        // level above.
        for (unsigned l = 0; l < levels_; ++l, i >>= 6) {
            std::uint64_t &word = words_[offset_[l] + (i >> 6)];
            const bool had = word != 0;
            word |= bit(i);
            if (had)
                break;
        }
    }

    void
    clear(std::size_t i)
    {
        for (unsigned l = 0; l < levels_; ++l, i >>= 6) {
            std::uint64_t &word = words_[offset_[l] + (i >> 6)];
            word &= ~bit(i);
            if (word != 0)
                break;
        }
    }

    bool test(std::size_t i) const { return words_[i >> 6] & bit(i); }

    /** Highest set bit, or false when the bitmap is empty. */
    bool
    findMax(std::size_t &out) const
    {
        if (words_.back() == 0)
            return false;
        std::size_t i = 0;
        for (unsigned l = levels_; l-- > 0;)
            i = (i << 6) + highest(words_[offset_[l] + i]);
        out = i;
        return true;
    }

    /** Highest set bit below @p i, or false when there is none. */
    bool
    findBelow(std::size_t i, std::size_t &out) const
    {
        // Climb until some level has a set bit below i's ancestor in
        // the same word, then descend along the highest set bits.
        for (unsigned l = 0; l < levels_; ++l, i >>= 6) {
            const std::uint64_t word =
                words_[offset_[l] + (i >> 6)] & (bit(i) - 1);
            if (word == 0)
                continue;
            i = (i & ~std::size_t{63}) + highest(word);
            while (l-- > 0)
                i = (i << 6) + highest(words_[offset_[l] + i]);
            out = i;
            return true;
        }
        return false;
    }

    /** Call @p f with every set position, in ascending order; a
     * zero bit one level up skips 64 positions. */
    template <class F>
    void
    forEach(F f) const
    {
        auto visit = [&](std::size_t w) {
            for (std::uint64_t word = words_[w]; word; word &= word - 1)
                f(w * 64 + static_cast<std::size_t>(std::countr_zero(word)));
        };
        if (levels_ == 1)
            return visit(0);
        const std::size_t words0 = offset_[1];
        for (std::size_t u = 0; u < (words0 + 63) / 64; ++u)
            for (std::uint64_t up = words_[words0 + u]; up; up &= up - 1)
                visit(u * 64 + static_cast<std::size_t>(std::countr_zero(up)));
    }

  private:
    static std::uint64_t bit(std::size_t i)
    {
        return std::uint64_t{1} << (i & 63);
    }
    static std::size_t highest(std::uint64_t word)
    {
        return 63 - static_cast<std::size_t>(std::countl_zero(word));
    }

    /** Every level's words; level l starts at offset_[l]. */
    std::vector<std::uint64_t> words_;
    /** Eleven levels of 64-way fan-out cover any 64-bit position. */
    std::array<std::size_t, 11> offset_{};
    unsigned levels_ = 0;
};

} // namespace membw

#endif // MEMBW_MTC_MAX_BITMAP_HH
