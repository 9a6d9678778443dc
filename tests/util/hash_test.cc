/**
 * @file
 * Vector tests for CRC32 (against the published IEEE 802.3 check
 * value, and the sliced key hashes against the buffer CRC) and
 * MurmurHash64A (self-consistency and avalanche sanity),
 * plus distribution checks the DMS partitioner depends on.
 */

#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <vector>

#include "sim/rng.hh"
#include "util/crc32.hh"
#include "util/murmur64.hh"

using namespace dpu::util;

TEST(Crc32, StandardCheckValue)
{
    // The canonical CRC-32 check: crc32("123456789") = 0xCBF43926.
    const char *s = "123456789";
    EXPECT_EQ(crc32(s, 9), 0xcbf43926u);
}

TEST(Crc32, EmptyIsZero)
{
    EXPECT_EQ(crc32(nullptr, 0), 0u);
}

TEST(Crc32, IncrementalMatchesOneShot)
{
    std::vector<std::uint8_t> buf(1024);
    dpu::sim::Rng rng(42);
    for (auto &b : buf)
        b = std::uint8_t(rng.next());

    std::uint32_t whole = crc32(buf.data(), buf.size());
    std::uint32_t inc = 0;
    inc = crc32Update(inc, buf.data(), 100);
    inc = crc32Update(inc, buf.data() + 100, 924);
    EXPECT_EQ(whole, inc);
}

TEST(Crc32, KeyHashMatchesBufferHash)
{
    // The sliced key hashes must equal the byte-wise buffer CRC, for
    // the low 32 bits and for the whole 64-bit key.
    auto matches = [](std::uint64_t k) {
        const std::uint32_t k32 = std::uint32_t(k);
        return crc32Key(k32) == crc32(&k32, 4) &&
               crc32Key64(k) == crc32(&k, 8);
    };
    std::vector<std::uint64_t> keys = {0, ~0ull, 0xdeadbeef};
    for (int b = 0; b < 64; ++b)
        keys.push_back(1ull << b);
    dpu::sim::Rng rng(2024);
    for (int i = 0; i < 1'000'000; ++i)
        keys.push_back(rng.next());
    for (std::uint64_t k : keys)
        ASSERT_TRUE(matches(k)) << std::hex << k;
}

TEST(Crc32, RadixBitsAreBalanced)
{
    // The DMS radix partitioner takes low bits of the CRC of the key
    // (Section 3.1). Over sequential keys the 32 buckets should be
    // near-uniform, unlike taking low bits of the raw key.
    std::array<int, 32> buckets{};
    const int n = 32000;
    for (int i = 0; i < n; ++i)
        ++buckets[crc32Key(std::uint32_t(i)) & 31];
    for (int b : buckets) {
        EXPECT_GT(b, n / 32 * 7 / 10);
        EXPECT_LT(b, n / 32 * 13 / 10);
    }
}

TEST(Murmur64, DeterministicAndLengthSensitive)
{
    std::uint64_t k = 0x0123456789abcdefull;
    EXPECT_EQ(murmur64(&k, 8), murmur64(&k, 8));
    EXPECT_NE(murmur64(&k, 8), murmur64(&k, 7));
}

TEST(Murmur64, AvalancheOnSingleBitFlip)
{
    dpu::sim::Rng rng(7);
    for (int trial = 0; trial < 64; ++trial) {
        std::uint64_t a = rng.next();
        std::uint64_t b = a ^ (1ull << (trial % 64));
        std::uint64_t ha = murmur64Key(a);
        std::uint64_t hb = murmur64Key(b);
        int flipped = __builtin_popcountll(ha ^ hb);
        EXPECT_GT(flipped, 10);
        EXPECT_LT(flipped, 54);
    }
}

TEST(Murmur64, MulCountMatchesAlgorithm)
{
    // 8-byte key: len*m, (k*m, k*m, h*m), final h*m = 5 multiplies.
    EXPECT_EQ(murmur64MulCount(8), 5u);
    // 12-byte key adds the tail h*m.
    EXPECT_EQ(murmur64MulCount(12), 6u);
    EXPECT_EQ(murmur64MulCount(0), 2u);
}
