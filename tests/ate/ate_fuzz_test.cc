/**
 * @file
 * Randomized ATE property test: all 32 cores fire random mixes of
 * hardware RPCs (loads, stores, fetch-adds, compare-and-swaps) at
 * shared words pinned to random owner cores. Because every mutation
 * of a word goes through its single owner's pipeline, the final
 * state must satisfy owner-serialized semantics: fetch-add sums are
 * exact, and each CAS chain forms a valid hand-off sequence.
 */

#include <gtest/gtest.h>

#include <vector>

#include "rt/sync.hh"
#include "sim/rng.hh"
#include "soc/soc.hh"

using namespace dpu;

class AteFuzz : public ::testing::TestWithParam<int>
{
};

TEST_P(AteFuzz, MixedAtomicsAreOwnerSerialized)
{
    sim::Rng seeder{std::uint64_t(GetParam()) * 917 + 11};
    soc::Soc s;

    // 8 shared counters, each pinned to a random owner's DMEM.
    const unsigned n_words = 8;
    std::vector<unsigned> owner(n_words);
    std::vector<mem::Addr> addr(n_words);
    for (unsigned w = 0; w < n_words; ++w) {
        owner[w] = unsigned(seeder.below(32));
        addr[w] = mem::dmemAddr(owner[w], 1024 + w * 8);
        s.core(owner[w]).dmem().store<std::uint64_t>(1024 + w * 8,
                                                     0);
    }

    // Expected fetch-add totals, and CAS success counts.
    std::vector<std::uint64_t> fa_expect(n_words, 0);
    std::vector<std::uint64_t> cas_wins(n_words, 0);
    std::uint64_t plan_seed = seeder.next();

    for (unsigned id = 0; id < 32; ++id) {
        s.start(id, [&, id](core::DpCore &c) {
            sim::Rng rng{plan_seed ^ (id * 7919)};
            ate::Ate &ate = s.ateFor(id);
            for (int op = 0; op < 60; ++op) {
                unsigned w = unsigned(rng.below(n_words));
                switch (rng.below(3)) {
                  case 0: {
                    std::int64_t d =
                        std::int64_t(rng.below(100)) + 1;
                    ate.fetchAdd(c, owner[w], addr[w] + 0, d, 8);
                    // (accounted below, host-side)
                    break;
                  }
                  case 1:
                    (void)ate.remoteLoad(c, owner[w], addr[w], 8);
                    break;
                  default: {
                    // CAS on a separate hand-off word: grab it if
                    // free (0), release after a pause. The pause is
                    // drawn unconditionally so the host-side replay
                    // consumes the identical RNG stream.
                    sim::Cycles pause =
                        sim::Cycles(20 + rng.below(60));
                    std::uint64_t got = ate.compareSwap(
                        c, owner[w],
                        mem::dmemAddr(owner[w], 2048 + w * 8), 0,
                        id + 1, 8);
                    if (got == 0) {
                        c.sleepCycles(pause);
                        ate.remoteStore(
                            c, owner[w],
                            mem::dmemAddr(owner[w], 2048 + w * 8),
                            0, 8);
                        ++cas_wins[w];
                    }
                    break;
                  }
                }
                if (rng.below(4) == 0)
                    c.sleepCycles(rng.below(200));
            }
        });
    }

    // Host-side replay of the fetch-add plan (same per-core RNG
    // streams) to compute the exact expected sums.
    for (unsigned id = 0; id < 32; ++id) {
        sim::Rng rng{plan_seed ^ (id * 7919)};
        for (int op = 0; op < 60; ++op) {
            unsigned w = unsigned(rng.below(n_words));
            switch (rng.below(3)) {
              case 0:
                fa_expect[w] += rng.below(100) + 1;
                break;
              case 1:
                break;
              default:
                (void)rng.below(60); // the unconditional pause draw
                break;
            }
            if (rng.below(4) == 0)
                (void)rng.below(200);
        }
    }

    s.run();
    ASSERT_TRUE(s.allFinished());

    for (unsigned w = 0; w < n_words; ++w) {
        std::uint64_t v =
            s.core(owner[w]).dmem().load<std::uint64_t>(1024 +
                                                        w * 8);
        EXPECT_EQ(v, fa_expect[w]) << "word " << w;
        // Every CAS winner released; the hand-off word ends free.
        EXPECT_EQ(s.core(owner[w]).dmem().load<std::uint64_t>(
                      2048 + w * 8), 0u);
    }
    (void)cas_wins;
}

INSTANTIATE_TEST_SUITE_P(Seeds, AteFuzz, ::testing::Range(0, 4));
