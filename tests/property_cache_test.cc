/**
 * @file
 * Property tests: structural cache invariants under randomized access
 * streams, for every replacement policy (parameterized), MSHR-book
 * answers with and without a clock floor, plus pair table invariants
 * under random update/query interleavings.
 *
 * These catch classes of bugs single-scenario unit tests miss: state
 * corruption that only appears after long histories, tag aliasing,
 * counter wraparound and eviction bookkeeping drift.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <unordered_map>
#include <unordered_set>

#include "common/rng.hh"
#include "garibaldi/dppn_table.hh"
#include "garibaldi/pair_table.hh"
#include "mem/cache.hh"

namespace garibaldi
{
namespace
{

class CachePropertyTest : public ::testing::TestWithParam<PolicyKind>
{
  protected:
    static CacheParams
    params(PolicyKind kind)
    {
        CacheParams p;
        p.name = "prop";
        p.sizeBytes = 16 * 1024; // 256 lines
        p.assoc = 8;             // 32 sets
        p.policy = kind;
        p.policyParams.sampleShift = 1;
        return p;
    }
};

TEST_P(CachePropertyTest, NoDuplicateTagsWithinSets)
{
    Cache cache(params(GetParam()));
    Pcg32 rng(17, 1);
    for (int i = 0; i < 20000; ++i) {
        MemAccess a;
        a.paddr = Addr{rng.nextBounded(1024)} << kLineShift;
        a.pc = rng.next() & ~3u;
        a.isInstr = rng.chance(0.3);
        a.isWrite = rng.chance(0.2);
        if (!cache.access(a))
            cache.insert(a);
    }
    for (std::uint32_t s = 0; s < cache.numSets(); ++s) {
        std::set<Addr> tags;
        for (std::uint32_t w = 0; w < cache.assoc(); ++w) {
            const CacheLine &l = cache.lineAt(s, w);
            if (l.valid) {
                EXPECT_TRUE(tags.insert(l.tag).second)
                    << "duplicate tag in set " << s;
            }
        }
    }
}

TEST_P(CachePropertyTest, LinesMapToTheirSet)
{
    Cache cache(params(GetParam()));
    Pcg32 rng(23, 2);
    for (int i = 0; i < 10000; ++i) {
        MemAccess a;
        a.paddr = Addr{rng.next()} << kLineShift;
        a.pc = rng.next();
        if (!cache.access(a))
            cache.insert(a);
    }
    for (std::uint32_t s = 0; s < cache.numSets(); ++s)
        for (std::uint32_t w = 0; w < cache.assoc(); ++w) {
            const CacheLine &l = cache.lineAt(s, w);
            if (l.valid) {
                EXPECT_EQ(cache.setOf(l.tag << kLineShift), s);
            }
        }
}

TEST_P(CachePropertyTest, AccountingBalances)
{
    Cache cache(params(GetParam()));
    Pcg32 rng(31, 3);
    std::uint64_t inserts = 0;
    for (int i = 0; i < 30000; ++i) {
        MemAccess a;
        a.paddr = Addr{rng.nextBounded(2048)} << kLineShift;
        a.pc = rng.next() & ~3u;
        if (!cache.access(a)) {
            cache.insert(a);
            ++inserts;
        }
    }
    const CacheStats &s = cache.stats();
    EXPECT_EQ(s.hits + s.misses, s.accesses);
    // Every insertion either filled an invalid frame or evicted:
    // resident lines = inserts - evictions.
    std::uint64_t resident = 0;
    for (std::uint32_t set = 0; set < cache.numSets(); ++set)
        for (std::uint32_t w = 0; w < cache.assoc(); ++w)
            resident += cache.lineAt(set, w).valid;
    EXPECT_EQ(resident, inserts - s.evictions);
    EXPECT_LE(resident,
              std::uint64_t{cache.numSets()} * cache.assoc());
}

TEST_P(CachePropertyTest, HitAfterInsertUntilEvicted)
{
    Cache cache(params(GetParam()));
    Pcg32 rng(41, 4);
    // Shadow model: track the resident set via eviction results.
    std::unordered_set<Addr> resident;
    for (int i = 0; i < 20000; ++i) {
        MemAccess a;
        a.paddr = Addr{rng.nextBounded(512)} << kLineShift;
        a.pc = rng.next() & ~3u;
        bool hit = cache.access(a);
        EXPECT_EQ(hit, resident.count(a.lineAddr()) != 0)
            << "iteration " << i;
        if (!hit) {
            Eviction ev = cache.insert(a);
            resident.insert(a.lineAddr());
            if (ev.valid)
                resident.erase(ev.lineAddr);
        }
    }
}

TEST_P(CachePropertyTest, DirtyOnlyIfWritten)
{
    Cache cache(params(GetParam()));
    Pcg32 rng(43, 5);
    std::unordered_set<Addr> written;
    for (int i = 0; i < 20000; ++i) {
        MemAccess a;
        a.paddr = Addr{rng.nextBounded(1024)} << kLineShift;
        a.pc = rng.next() & ~3u;
        a.isWrite = rng.chance(0.25);
        if (a.isWrite)
            written.insert(a.lineAddr());
        if (!cache.access(a)) {
            Eviction ev = cache.insert(a);
            if (ev.valid && ev.dirty) {
                EXPECT_TRUE(written.count(ev.lineAddr))
                    << "clean line evicted dirty";
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllPolicies, CachePropertyTest,
    ::testing::Values(PolicyKind::LRU, PolicyKind::Random,
                      PolicyKind::SRRIP, PolicyKind::DRRIP,
                      PolicyKind::SHiP, PolicyKind::Hawkeye,
                      PolicyKind::Mockingjay),
    [](const ::testing::TestParamInfo<PolicyKind> &pinfo) {
        return std::string(policyKindName(pinfo.param));
    });

// --------------------------------------------------------------------
// MSHR book under a clock floor: the same booking/query stream fed to a
// floored and an unfloored cache must get the same answers.
// --------------------------------------------------------------------

CacheParams
mshrParams()
{
    CacheParams p;
    p.name = "mshr";
    p.sizeBytes = 16 * 1024;
    p.assoc = 8;
    p.mshrs = 16;
    return p;
}

// L2/LLC shape: several cores query at clocks anywhere at or above the
// floor (non-monotone), and only pendingReady() is asked.
TEST(PendingFloorProperty, PendingReadyUnchangedBySkewedQueries)
{
    Cache floored(mshrParams()), plain(mshrParams());
    Pcg32 rng(91, 3);
    Cycle floor = 0;
    std::uint64_t merges = 0;
    for (int i = 0; i < 200000; ++i) {
        floor += rng.nextBounded(4);
        floored.advanceClockFloor(floor);
        Cycle now = floor + rng.nextBounded(2000);
        Addr line = Addr{rng.nextBounded(4096)} << kLineShift;
        if (rng.chance(0.4)) {
            Cycle ready = now + 1 + rng.nextBounded(rng.chance(0.1) ? 20000
                                                                    : 600);
            floored.addPending(line, ready, now);
            plain.addPending(line, ready, now);
        } else {
            Cycle a = floored.pendingReady(line, now);
            ASSERT_EQ(a, plain.pendingReady(line, now))
                << "step " << i << " line " << line << " now " << now;
            merges += a != 0;
        }
    }
    EXPECT_GT(merges, 1000u); // the stream really exercises merges
    EXPECT_EQ(floored.stats().mshrMerges, plain.stats().mshrMerges);
    // The floor is what keeps the book small: compaction drops every
    // fill that completed at or before it.
    EXPECT_LT(floored.pendingEntries(), plain.pendingEntries());
}

// L1 shape: one core queries at a monotone clock and asks mshrsFull()
// as well; the floor trails that clock.
TEST(PendingFloorProperty, MshrsFullUnchangedAtMonotoneClock)
{
    Cache floored(mshrParams()), plain(mshrParams());
    Pcg32 rng(23, 9);
    Cycle now = 0;
    std::uint64_t full = 0;
    for (int i = 0; i < 200000; ++i) {
        now += rng.nextBounded(6);
        floored.advanceClockFloor(now - std::min<Cycle>(now,
                                                        rng.nextBounded(50)));
        Addr line = Addr{rng.nextBounded(256)} << kLineShift;
        switch (rng.nextBounded(3)) {
          case 0: {
            Cycle ready = now + 1 + rng.nextBounded(400);
            floored.addPending(line, ready, now);
            plain.addPending(line, ready, now);
            break;
          }
          case 1:
            ASSERT_EQ(floored.pendingReady(line, now),
                      plain.pendingReady(line, now)) << "step " << i;
            break;
          default: {
            bool f = floored.mshrsFull(now);
            ASSERT_EQ(f, plain.mshrsFull(now)) << "step " << i;
            full += f;
          }
        }
    }
    EXPECT_GT(full, 1000u); // MSHR pressure really happened
}

// --------------------------------------------------------------------
// Pair table properties under random interleavings.
// --------------------------------------------------------------------

class PairTablePropertyTest : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(PairTablePropertyTest, InvariantsUnderRandomTraffic)
{
    GaribaldiParams gp;
    gp.pairTableEntries = 512;
    gp.dppnEntries = 256;
    gp.k = GetParam();
    DppnTable dppn(gp.dppnEntries);
    PairTable pt(gp, dppn);
    Pcg32 rng(51 + GetParam(), 6);

    unsigned cost_max = (1u << gp.missCostBits) - 1;
    for (int i = 0; i < 50000; ++i) {
        Addr il = Addr{rng.nextBounded(2048)} << kLineShift;
        unsigned color = rng.nextBounded(8);
        switch (rng.nextBounded(4)) {
          case 0:
          case 1: {
              Addr dl = Addr{rng.nextBounded(4096)} << kLineShift;
              pt.updateOnDataAccess(il, dl, rng.chance(0.5), color,
                                    rng.nextBounded(64));
              break;
          }
          case 2:
            pt.onInstrMiss(il);
            break;
          default: {
              PairQueryResult q = pt.query(il, color);
              // Aged cost can never exceed the raw counter range.
              EXPECT_LE(q.agedCost, cost_max);
              break;
          }
        }
        if ((i & 1023) == 0) {
            PairTable::DebugEntry d = pt.debugEntry(il);
            EXPECT_LE(d.missCost, cost_max);
            EXPECT_LT(d.color, 8u);
            for (unsigned f = 0; f < gp.k; ++f) {
                if (d.fields[f].valid) {
                    EXPECT_LE(d.fields[f].sctr,
                              (1u << gp.sctrBits) - 1);
                }
            }
        }
    }
}

TEST_P(PairTablePropertyTest, QueriesNeverMutate)
{
    GaribaldiParams gp;
    gp.pairTableEntries = 64;
    gp.dppnEntries = 64;
    gp.k = GetParam();
    DppnTable dppn(gp.dppnEntries);
    PairTable pt(gp, dppn);
    Pcg32 rng(77 + GetParam(), 7);
    for (int i = 0; i < 200; ++i) {
        Addr il = Addr{rng.nextBounded(256)} << kLineShift;
        pt.updateOnDataAccess(il, Addr{rng.nextBounded(256)}
                                      << kLineShift,
                              rng.chance(0.5), rng.nextBounded(8), 32);
        PairTable::DebugEntry before = pt.debugEntry(il);
        for (unsigned c = 0; c < 8; ++c)
            pt.query(il, c);
        PairTable::DebugEntry after = pt.debugEntry(il);
        EXPECT_EQ(before.missCost, after.missCost);
        EXPECT_EQ(before.color, after.color);
        for (unsigned f = 0; f < gp.k; ++f) {
            EXPECT_EQ(before.fields[f].valid, after.fields[f].valid);
            EXPECT_EQ(before.fields[f].sctr, after.fields[f].sctr);
            EXPECT_EQ(before.fields[f].oldBit, after.fields[f].oldBit);
        }
    }
}

TEST_P(PairTablePropertyTest, PrefetchCandidatesAreLineAligned)
{
    GaribaldiParams gp;
    gp.pairTableEntries = 256;
    gp.dppnEntries = 128;
    gp.k = GetParam();
    DppnTable dppn(gp.dppnEntries);
    PairTable pt(gp, dppn);
    Pcg32 rng(99 + GetParam(), 8);
    std::vector<Addr> out;
    for (int i = 0; i < 5000; ++i) {
        Addr il = Addr{rng.nextBounded(512)} << kLineShift;
        pt.updateOnDataAccess(il,
                              (Addr{rng.next()} << kLineShift) &
                                  kPhysAddrMask,
                              rng.chance(0.5), rng.nextBounded(8), 32);
        out.clear();
        pt.collectPrefetchCandidates(il, out);
        EXPECT_LE(out.size(), std::size_t{gp.k});
        for (Addr a : out) {
            EXPECT_EQ(a % kLineBytes, 0u);
            EXPECT_LE(a, kPhysAddrMask);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(KValues, PairTablePropertyTest,
                         ::testing::Values(0u, 1u, 2u, 4u, 8u),
                         [](const ::testing::TestParamInfo<unsigned> &i) {
                             return "k" + std::to_string(i.param);
                         });

} // namespace
} // namespace garibaldi
