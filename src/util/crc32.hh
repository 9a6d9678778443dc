/**
 * @file
 * CRC32 hash used by the DMS hash engine and by the dpCore's
 * single-cycle CRC32 hashcode instruction (Section 2.2).
 *
 * The chip implements the reflected IEEE 802.3 polynomial
 * (0xEDB88320); we use the same so that software partitioning on the
 * Xeon baseline and hardware partitioning in the DMS agree bit for
 * bit, which the partitioning tests rely on.
 */

#ifndef DPU_UTIL_CRC32_HH
#define DPU_UTIL_CRC32_HH

#include <array>
#include <cstddef>
#include <cstdint>

namespace dpu::util {

namespace detail {

constexpr std::array<std::uint32_t, 256>
makeCrcTable()
{
    std::array<std::uint32_t, 256> table{};
    for (std::uint32_t i = 0; i < 256; ++i) {
        std::uint32_t c = i;
        for (int k = 0; k < 8; ++k)
            c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
        table[i] = c;
    }
    return table;
}

inline constexpr auto crcTable = makeCrcTable();

/** Slicing tables: slice[k][b] is the CRC state after byte b is
 *  followed by k zero bytes, so a word's bytes fold in one step. */
constexpr std::array<std::array<std::uint32_t, 256>, 8>
makeSliceTables()
{
    std::array<std::array<std::uint32_t, 256>, 8> slice{};
    slice[0] = crcTable;
    for (std::size_t k = 1; k < slice.size(); ++k)
        for (std::uint32_t i = 0; i < 256; ++i)
            slice[k][i] = (slice[k - 1][i] >> 8) ^
                          crcTable[slice[k - 1][i] & 0xff];
    return slice;
}

inline constexpr auto crcSlice = makeSliceTables();

/** Fold the four little-endian bytes of @p w, the last of them
 *  followed by @p k zero bytes. */
constexpr std::uint32_t
foldWord(std::uint32_t w, std::size_t k)
{
    return crcSlice[k + 3][w & 0xff] ^
           crcSlice[k + 2][(w >> 8) & 0xff] ^
           crcSlice[k + 1][(w >> 16) & 0xff] ^ crcSlice[k][w >> 24];
}

} // namespace detail

/** Incrementally extend a CRC32 over @p len bytes. */
inline std::uint32_t
crc32Update(std::uint32_t crc, const void *data, std::size_t len)
{
    const auto *p = static_cast<const std::uint8_t *>(data);
    crc = ~crc;
    for (std::size_t i = 0; i < len; ++i)
        crc = detail::crcTable[(crc ^ p[i]) & 0xff] ^ (crc >> 8);
    return ~crc;
}

/** One-shot CRC32 of a buffer. */
inline std::uint32_t
crc32(const void *data, std::size_t len)
{
    return crc32Update(0, data, len);
}

/** CRC32 of a single little-endian 32-bit key (the hot DMS path):
 *  crc32(&key, 4) in four independent table lookups. */
constexpr std::uint32_t
crc32Key(std::uint32_t key)
{
    return ~detail::foldWord(~key, 0);
}

/** CRC32 of a single little-endian 64-bit key: crc32(&key, 8) in
 *  eight independent table lookups. */
constexpr std::uint32_t
crc32Key64(std::uint64_t key)
{
    return ~(detail::foldWord(~std::uint32_t(key), 4) ^
             detail::foldWord(std::uint32_t(key >> 32), 0));
}

} // namespace dpu::util

#endif // DPU_UTIL_CRC32_HH
