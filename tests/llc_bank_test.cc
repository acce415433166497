/**
 * @file
 * Banked-LLC tests: the address→bank mapping partitions the line space,
 * per-bank statistics sum to the aggregate the rest of the system
 * consumes, a one-bank set is a transparent wrapper over the monolithic
 * cache, and banked full-system runs stay deterministic.
 */

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "mem/hierarchy.hh"
#include "mem/llc_bank_set.hh"
#include "sim/experiment.hh"
#include "sweep/sweep_runner.hh"
#include "sweep/sweep_spec.hh"
#include "workloads/catalog.hh"

namespace garibaldi
{
namespace
{

CacheParams
llcParams(std::uint64_t size_bytes = 256 * 1024, std::uint32_t assoc = 8)
{
    CacheParams p;
    p.name = "llc";
    p.sizeBytes = size_bytes;
    p.assoc = assoc;
    p.latency = 40;
    return p;
}

MemAccess
load(Addr paddr, bool instr = false, Addr pc = 0x400000)
{
    MemAccess a;
    a.paddr = paddr;
    a.pc = pc;
    a.isInstr = instr;
    return a;
}

TEST(LlcBankSet, MappingPartitionsLineSpace)
{
    LlcBankSet banks(llcParams(), 4, /*interleave_shift=*/0);
    ASSERT_EQ(banks.numBanks(), 4u);
    // Consecutive lines round-robin over banks; every line has exactly
    // one home.
    for (Addr line = 0; line < 64; ++line) {
        Addr addr = line * kLineBytes;
        EXPECT_EQ(banks.bankOf(addr), line % 4);
    }
}

TEST(LlcBankSet, InterleaveShiftGroupsConsecutiveLines)
{
    // With shift s, 2^s consecutive lines share a bank before the
    // rotation advances.
    LlcBankSet banks(llcParams(), 2, /*interleave_shift=*/3);
    for (Addr line = 0; line < 64; ++line) {
        Addr addr = line * kLineBytes;
        EXPECT_EQ(banks.bankOf(addr), (line >> 3) & 1);
    }
}

TEST(LlcBankSet, GeometrySplitsCapacity)
{
    LlcBankSet banks(llcParams(256 * 1024, 8), 4, 0);
    // 256 KB / 64 B = 4096 lines; 4096 / (4 banks * 8 ways) = 128 sets.
    EXPECT_EQ(banks.setsPerBank(), 128u);
    EXPECT_EQ(banks.totalSets(), 512u);
    EXPECT_EQ(banks.assoc(), 8u);
}

TEST(LlcBankSet, BankSpreadsOverAllItsSets)
{
    // The set index must splice the bank bits out: a bank's resident
    // lines would otherwise cluster in 1/banks of its sets.
    LlcBankSet banks(llcParams(64 * 1024, 1), 4, 0);
    std::uint32_t sets = banks.setsPerBank();
    // Fill bank 0 with its first `sets` lines (stride = 4 lines).
    for (std::uint32_t i = 0; i < sets; ++i) {
        MemAccess a = load(Addr{i} * 4 * kLineBytes);
        banks.access(a);
        banks.insert(a);
    }
    // Direct-mapped and spliced: all lines must be simultaneously
    // resident (no aliasing among them).
    for (std::uint32_t i = 0; i < sets; ++i)
        EXPECT_TRUE(banks.contains(Addr{i} * 4 * kLineBytes));
}

TEST(LlcBankSet, OneBankIsTransparentWrapper)
{
    // A 1-bank set must behave exactly like the raw monolithic Cache:
    // same hits, misses, evictions, residency on an identical stream.
    CacheParams p = llcParams(64 * 1024, 4);
    Cache mono(p);
    LlcBankSet banked(p, 1, 0);

    Pcg32 rng(7, 3);
    for (int i = 0; i < 20000; ++i) {
        Addr paddr = (Addr{rng.next()} & 0xfffff) << kLineShift >> 2;
        MemAccess a = load(paddr, (rng.next() & 3) == 0,
                           0x400000 + (rng.next() & 0xffc0));
        a.isWrite = (rng.next() & 7) == 0;
        bool hit_mono = mono.access(a);
        bool hit_bank = banked.access(a);
        ASSERT_EQ(hit_mono, hit_bank) << "access " << i;
        if (!hit_mono) {
            Eviction em = mono.insert(a);
            Eviction eb = banked.insert(a);
            ASSERT_EQ(em.valid, eb.valid);
            ASSERT_EQ(em.lineAddr, eb.lineAddr);
            ASSERT_EQ(em.dirty, eb.dirty);
        }
    }
    const CacheStats &sm = mono.stats();
    CacheStats sb = banked.stats();
    EXPECT_EQ(sm.accesses, sb.accesses);
    EXPECT_EQ(sm.hits, sb.hits);
    EXPECT_EQ(sm.misses, sb.misses);
    EXPECT_EQ(sm.evictions, sb.evictions);
    EXPECT_EQ(sm.instrMisses, sb.instrMisses);
    EXPECT_EQ(sm.writebacksOut, sb.writebacksOut);
}

TEST(LlcBankSet, PerBankStatsSumToTotals)
{
    LlcBankSet banks(llcParams(128 * 1024, 4), 4, 0);
    Pcg32 rng(11, 5);
    std::uint64_t issued = 0;
    for (int i = 0; i < 50000; ++i) {
        MemAccess a = load((Addr{rng.next()} & 0x3ffff) << kLineShift);
        ++issued;
        if (!banks.access(a))
            banks.insert(a);
    }
    CacheStats total = banks.stats();
    CacheStats manual;
    for (std::uint32_t b = 0; b < banks.numBanks(); ++b)
        manual.accumulate(banks.bank(b).stats());
    EXPECT_EQ(total.accesses, issued);
    EXPECT_EQ(total.accesses, manual.accesses);
    EXPECT_EQ(total.hits, manual.hits);
    EXPECT_EQ(total.misses, manual.misses);
    EXPECT_EQ(total.evictions, manual.evictions);
    EXPECT_EQ(total.hits + total.misses, total.accesses);
    // Every bank saw traffic under a uniform random stream.
    for (std::uint32_t b = 0; b < banks.numBanks(); ++b)
        EXPECT_GT(banks.bank(b).stats().accesses, 0u);
}

HierarchyParams
bankedHier(std::uint32_t llc_banks)
{
    HierarchyParams h;
    h.numCores = 2;
    h.coresPerL2 = 2;
    h.l1i.sizeBytes = 4 * 1024;
    h.l1i.assoc = 4;
    h.l1d = h.l1i;
    h.l2.sizeBytes = 32 * 1024;
    h.l2.assoc = 8;
    h.llc.sizeBytes = 128 * 1024;
    h.llc.assoc = 8;
    h.llcBanks = llc_banks;
    h.l1dNextLinePrefetcher = false;
    h.l2GhbPrefetcher = false;
    h.l1iIspyPrefetcher = false;
    return h;
}

TEST(HierarchyBanks, BankedStatsAggregateInStatSet)
{
    MemoryHierarchy mem(bankedHier(4));
    Pcg32 rng(3, 9);
    for (int i = 0; i < 5000; ++i) {
        MemAccess a = load((Addr{rng.next()} & 0xffff) << kLineShift);
        a.core = static_cast<CoreId>(i & 1);
        mem.access(a, Cycle{static_cast<Cycle>(i) * 4});
    }
    StatSet s = mem.stats();
    EXPECT_EQ(s.get("llc.banks"), 4.0);
    double sum = 0;
    for (int b = 0; b < 4; ++b)
        sum += s.get("llc.bank" + std::to_string(b) + ".accesses");
    EXPECT_EQ(s.get("llc.accesses"), sum);
    EXPECT_GT(sum, 0.0);
}

TEST(HierarchyBanks, MonolithicStatSetHasNoBankKeys)
{
    MemoryHierarchy mem(bankedHier(1));
    mem.access(load(0x100000), 0);
    StatSet s = mem.stats();
    // llcBanks=1 must present exactly the seed's stat surface.
    EXPECT_FALSE(s.has("llc.banks"));
    EXPECT_FALSE(s.has("llc.bank0.accesses"));
    EXPECT_EQ(s.get("llc.accesses"), 1.0);
}

TEST(HierarchyBanks, BankedRunIsDeterministic)
{
    SystemConfig cfg = defaultConfig(2);
    cfg.coresPerL2 = 2;
    cfg.l2Bytes = 256 * 1024;
    cfg.llcBytesPerCore = 192 * 1024;
    cfg.llcBanks = 4;
    ExperimentContext ctx(cfg, 3000, 10000);
    Mix m = homogeneousMix("tpcc", 2);
    SimResult a = ctx.runPolicy(PolicyKind::LRU, false, m);
    SimResult b = ctx.runPolicy(PolicyKind::LRU, false, m);
    EXPECT_EQ(a.mem.get("llc.accesses"), b.mem.get("llc.accesses"));
    EXPECT_EQ(a.mem.get("llc.hits"), b.mem.get("llc.hits"));
    EXPECT_DOUBLE_EQ(a.ipcHarmonicMean(), b.ipcHarmonicMean());
    EXPECT_GT(a.ipcHarmonicMean(), 0.0);
}

TEST(HierarchyBanks, GaribaldiComposesWithBanks)
{
    SystemConfig cfg = defaultConfig(2);
    cfg.coresPerL2 = 2;
    cfg.l2Bytes = 256 * 1024;
    cfg.llcBytesPerCore = 192 * 1024;
    cfg.llcBanks = 2;
    ExperimentContext ctx(cfg, 3000, 12000);
    Mix m = homogeneousMix("verilator", 2);
    SimResult r = ctx.runPolicy(PolicyKind::Mockingjay, true, m);
    // The companion hooks fan out per bank: protection machinery still
    // observes traffic and the run completes sanely.
    EXPECT_GT(r.garibaldi.get("paired_updates"), 0.0);
    EXPECT_GT(r.mem.get("llc.accesses"), 0.0);
    EXPECT_GT(r.ipcHarmonicMean(), 0.0);
}

TEST(LlcBankSet, MshrRemainderSplitSumsToTotal)
{
    // 10 MSHRs over 4 banks must keep total capacity 10 (3+3+2+2),
    // not shrink to 4 x 2 = 8 by flooring every share.
    CacheParams p = llcParams();
    p.mshrs = 10;
    LlcBankSet banks(p, 4, 0);
    std::uint32_t sum = 0, lo = ~0u, hi = 0;
    for (std::uint32_t b = 0; b < banks.numBanks(); ++b) {
        std::uint32_t m = banks.bank(b).config().mshrs;
        sum += m;
        lo = std::min(lo, m);
        hi = std::max(hi, m);
    }
    EXPECT_EQ(sum, 10u);
    EXPECT_EQ(lo, 2u);
    EXPECT_EQ(hi, 3u);

    // Exactly divisible budgets split evenly.
    p.mshrs = 8;
    LlcBankSet even(p, 4, 0);
    for (std::uint32_t b = 0; b < even.numBanks(); ++b)
        EXPECT_EQ(even.bank(b).config().mshrs, 2u);

    // More banks than MSHRs: every bank keeps at least one.
    p.mshrs = 2;
    LlcBankSet sparse(p, 4, 0);
    for (std::uint32_t b = 0; b < sparse.numBanks(); ++b)
        EXPECT_GE(sparse.bank(b).config().mshrs, 1u);
}

TEST(LlcBankSet, MshrPressureIsPerBank)
{
    // Full-MSHR checks must consult the owning bank's book: per-bank
    // capacities are a fraction of the whole-LLC budget, so a fixed
    // (monolithic) check under- or over-reports pressure.
    CacheParams p = llcParams();
    p.mshrs = 8; // 2 per bank
    LlcBankSet banks(p, 4, 0);
    // Two in-flight fills on bank 0 (lines 0 and 4 with 4 banks).
    banks.addPending(Addr{0} * kLineBytes, 1 << 20);
    banks.addPending(Addr{4} * kLineBytes, 1 << 20);
    EXPECT_TRUE(banks.mshrsFull(Addr{0} * kLineBytes, 0));
    EXPECT_TRUE(banks.mshrsFull(Addr{8} * kLineBytes, 0));
    // Bank 1 is idle: no pressure there.
    EXPECT_FALSE(banks.mshrsFull(Addr{1} * kLineBytes, 0));
    // Expired fills are pruned before declaring pressure.
    EXPECT_FALSE(banks.mshrsFull(Addr{0} * kLineBytes, (1 << 20) + 1));
}

TEST(CacheContention, PortModelQueuesAndDrains)
{
    CacheParams p = llcParams();
    p.bankServiceCycles = 10;
    p.bankPorts = 1;
    Cache bank(p);
    ASSERT_TRUE(bank.contentionEnabled());
    // First probe at cycle 0 starts immediately and holds the tag
    // slot until cycle 10; a second same-cycle probe queues.
    EXPECT_EQ(bank.occupyTagPort(0), 0u);
    EXPECT_EQ(bank.occupyTagPort(0), 10u);
    // After the backlog drains the slot is free again.
    EXPECT_EQ(bank.occupyTagPort(25), 0u);
    // Tag and data arrays are independent resources.
    EXPECT_EQ(bank.occupyDataPort(25, 25), 0u);
    const CacheStats &s = bank.stats();
    EXPECT_EQ(s.bankReservations, 4u);
    EXPECT_EQ(s.queuedAccesses, 1u);
    EXPECT_EQ(s.tagQueueCycles, 10u);
    EXPECT_EQ(s.dataQueueCycles, 0u);
}

TEST(CacheContention, ExtraPortsAbsorbConflicts)
{
    CacheParams p = llcParams();
    p.bankServiceCycles = 10;
    p.bankPorts = 2;
    Cache bank(p);
    // Two same-cycle probes take the two ports; the third queues
    // behind the earliest-freeing one.
    EXPECT_EQ(bank.occupyTagPort(0), 0u);
    EXPECT_EQ(bank.occupyTagPort(0), 0u);
    EXPECT_EQ(bank.occupyTagPort(0), 10u);
}

TEST(CacheContention, OutOfOrderArrivalsBackfillPastCapacity)
{
    CacheParams p = llcParams();
    p.bankServiceCycles = 10;
    Cache bank(p);
    EXPECT_EQ(bank.occupyTagPort(5000), 0u); // slot busy until 5010
    // A request from far in the "past" (cores interleave with bounded
    // skew) slots into capacity the array had back then instead of
    // queueing behind a future reservation.
    EXPECT_EQ(bank.occupyTagPort(4900), 0u);
    EXPECT_EQ(bank.stats().bankBackfills, 1u);
    // Skew within the slack still queues normally (and the backfill
    // did not advance the slot's busy window).
    EXPECT_EQ(bank.occupyTagPort(5005), 5u);
    EXPECT_EQ(bank.stats().queuedAccesses, 1u);
}

TEST(CacheContention, FutureFillBookingDoesNotPoisonBackfill)
{
    CacheParams p = llcParams();
    p.bankServiceCycles = 8;
    Cache bank(p);
    EXPECT_EQ(bank.occupyTagPort(0), 0u);
    // A reservation whose start time lies in the future (at > issued)
    // must not raise the issue-order high-water mark, or every later
    // same-cycle probe would "backfill" for free and a saturated bank
    // would report no queuing at all.
    bank.occupyDataPort(/*at=*/300, /*issued=*/0);
    EXPECT_EQ(bank.occupyTagPort(0), 8u); // genuine same-cycle queue
    EXPECT_EQ(bank.stats().bankBackfills, 0u);
}

TEST(CacheContention, DisabledModelChargesNothing)
{
    Cache bank(llcParams()); // bankServiceCycles = 0
    EXPECT_FALSE(bank.contentionEnabled());
    EXPECT_EQ(bank.occupyTagPort(0), 0u);
    EXPECT_EQ(bank.occupyTagPort(0), 0u);
    EXPECT_EQ(bank.occupyDataPort(0, 0), 0u);
    const CacheStats &s = bank.stats();
    EXPECT_EQ(s.bankReservations, 0u);
    EXPECT_EQ(s.queuedAccesses, 0u);
    // The queue counters are still exported, as zeros.
    StatSet exported = s.toStatSet();
    ASSERT_TRUE(exported.has("queue_cycles"));
    ASSERT_TRUE(exported.has("bank_reservations"));
    EXPECT_EQ(exported.get("queue_cycles"), 0.0);
    EXPECT_EQ(exported.get("bank_reservations"), 0.0);
}

HierarchyParams
contentionHier(std::uint32_t llc_banks, Cycle svc)
{
    HierarchyParams h;
    h.numCores = 2;
    h.coresPerL2 = 2;
    h.l1i.sizeBytes = 4 * 1024;
    h.l1i.assoc = 4;
    h.l1d = h.l1i;
    h.l2.sizeBytes = 32 * 1024;
    h.l2.assoc = 8;
    h.llc.sizeBytes = 128 * 1024;
    h.llc.assoc = 8;
    h.llcBanks = llc_banks;
    h.llcBankServiceCycles = svc;
    h.l1dNextLinePrefetcher = false;
    h.l2GhbPrefetcher = false;
    h.l1iIspyPrefetcher = false;
    return h;
}

/** Latency of a second same-cycle access after a first one. */
Cycle
secondAccessLatency(Cycle svc, Addr first, Addr second)
{
    MemoryHierarchy mem(contentionHier(2, svc));
    MemAccess a = load(first);
    a.core = 0;
    mem.access(a, 0);
    MemAccess b = load(second);
    b.core = 1;
    return mem.access(b, 0).latency;
}

TEST(HierarchyContention, SameBankConflictQueuesDifferentBankDoesNot)
{
    // With 2 banks and shift 0, lines 0 and 2 share bank 0 while line
    // 1 lives in bank 1.
    const Addr line0 = 0 * kLineBytes;
    const Addr line1 = 1 * kLineBytes;
    const Addr line2 = 2 * kLineBytes;
    // Same bank: the second access queues behind the first's tag slot.
    EXPECT_GT(secondAccessLatency(20, line0, line2),
              secondAccessLatency(0, line0, line2));
    // Different banks: contention on adds nothing.
    EXPECT_EQ(secondAccessLatency(20, line0, line1),
              secondAccessLatency(0, line0, line1));
}

TEST(HierarchyContention, MshrStallsChargedToOwningBank)
{
    HierarchyParams h = contentionHier(4, 1);
    h.llc.mshrs = 4; // one MSHR per bank
    MemoryHierarchy mem(h);
    // Hammer distinct bank-0 lines (stride 4 with 4 banks) in one
    // cycle: the single bank-0 MSHR saturates after the first miss.
    for (Addr line = 0; line < 32; line += 4) {
        MemAccess a = load(line * kLineBytes);
        mem.access(a, 0);
    }
    StatSet s = mem.stats();
    EXPECT_GT(s.get("llc.bank0.mshr_stall_cycles"), 0.0);
    for (int b = 1; b < 4; ++b)
        EXPECT_EQ(s.get("llc.bank" + std::to_string(b) +
                        ".mshr_stall_cycles"),
                  0.0);
    EXPECT_EQ(s.get("llc.mshr_stall_cycles"),
              s.get("llc.bank0.mshr_stall_cycles"));
}

TEST(HierarchyContention, QueueStatsExportedWithModelOnOrOff)
{
    MemoryHierarchy off(contentionHier(2, 0));
    off.access(load(0x1000), 0);
    StatSet s_off = off.stats();
    ASSERT_TRUE(s_off.has("llc.queue_cycles"));
    EXPECT_EQ(s_off.get("llc.queue_cycles"), 0.0);
    EXPECT_EQ(s_off.get("llc.bank_reservations"), 0.0);

    MemoryHierarchy on(contentionHier(2, 4));
    on.access(load(0x1000), 0);
    StatSet s = on.stats();
    EXPECT_TRUE(s.has("llc.queue_cycles"));
    EXPECT_TRUE(s.has("llc.bank_reservations"));
    EXPECT_GT(s.get("llc.bank_reservations"), 0.0);
}

TEST(HierarchyContention, ContentionOffMatchesBanks1Latency)
{
    // The contention-off banked LLC must be timing-neutral: under LRU
    // the bank splice partitions the monolithic sets exactly, so a
    // 4-bank run reports the same hits, misses and IPC as banks=1.
    SystemConfig cfg = defaultConfig(2);
    cfg.coresPerL2 = 2;
    cfg.l2Bytes = 256 * 1024;
    cfg.llcBytesPerCore = 192 * 1024;
    Mix m = homogeneousMix("tpcc", 2);

    cfg.llcBanks = 1;
    ExperimentContext mono_ctx(cfg, 3000, 10000);
    SimResult mono = mono_ctx.runPolicy(PolicyKind::LRU, false, m);

    cfg.llcBanks = 4;
    cfg.llcBankServiceCycles = 0; // model off
    ExperimentContext banked_ctx(cfg, 3000, 10000);
    SimResult banked = banked_ctx.runPolicy(PolicyKind::LRU, false, m);

    EXPECT_EQ(mono.mem.get("llc.accesses"),
              banked.mem.get("llc.accesses"));
    EXPECT_EQ(mono.mem.get("llc.hits"), banked.mem.get("llc.hits"));
    EXPECT_DOUBLE_EQ(mono.ipcHarmonicMean(), banked.ipcHarmonicMean());
}

TEST(HierarchyContention, ContentionOnSlowsConflictingRun)
{
    // Sanity: with the model on, a real multi-core run can only get
    // slower (queuing adds latency, never removes it).
    SystemConfig cfg = defaultConfig(2);
    cfg.coresPerL2 = 2;
    cfg.l2Bytes = 256 * 1024;
    cfg.llcBytesPerCore = 192 * 1024;
    cfg.llcBanks = 2;
    Mix m = homogeneousMix("tpcc", 2);

    ExperimentContext off_ctx(cfg, 3000, 10000);
    SimResult off = off_ctx.runPolicy(PolicyKind::LRU, false, m);

    cfg.llcBankServiceCycles = 16;
    ExperimentContext on_ctx(cfg, 3000, 10000);
    SimResult on = on_ctx.runPolicy(PolicyKind::LRU, false, m);

    EXPECT_GT(on.mem.get("llc.queue_cycles"), 0.0);
    EXPECT_LE(on.ipcHarmonicMean(), off.ipcHarmonicMean());
}

TEST(BankedStats, DerivedRatesComeFromSummedCounters)
{
    // Set-level ratios must be computed from summed raw counters; the
    // mean of per-bank ratios weights a cold bank like a hot one.
    LlcBankSet banks(llcParams(64 * 1024, 4), 2, 0);
    // Bank 0: one miss then many hits on line 0.
    MemAccess hot = load(0);
    banks.access(hot);
    banks.insert(hot);
    for (int i = 0; i < 99; ++i)
        banks.access(hot);
    // Bank 1: a single miss on line 1.
    MemAccess cold = load(1 * kLineBytes);
    banks.access(cold);
    banks.insert(cold);

    CacheStats total = banks.stats();
    double summed = static_cast<double>(total.hits) / total.accesses;
    EXPECT_DOUBLE_EQ(total.hitRate(), summed);
    EXPECT_DOUBLE_EQ(total.toStatSet().get("hit_rate"), summed);
    double mean_of_ratios = (banks.bank(0).stats().hitRate() +
                             banks.bank(1).stats().hitRate()) / 2.0;
    EXPECT_NE(summed, mean_of_ratios); // 99/101 vs ~0.495
}

TEST(BankedStats, WindowRatesRecomputedFromSubtractedCounters)
{
    // Detailed-window rates must be hits/accesses of the window, not
    // the (meaningless) difference of cumulative rates.
    SystemConfig cfg = defaultConfig(2);
    cfg.coresPerL2 = 2;
    cfg.l2Bytes = 256 * 1024;
    cfg.llcBytesPerCore = 192 * 1024;
    cfg.llcBanks = 2;
    ExperimentContext ctx(cfg, 5000, 10000);
    Mix m = homogeneousMix("tpcc", 2);
    SimResult r = ctx.runPolicy(PolicyKind::LRU, false, m);
    EXPECT_DOUBLE_EQ(r.mem.get("llc.hit_rate"),
                     r.mem.get("llc.hits") /
                         r.mem.get("llc.accesses"));
    EXPECT_DOUBLE_EQ(r.mem.get("l1d.hit_rate"),
                     r.mem.get("l1d.hits") /
                         r.mem.get("l1d.accesses"));
}

TEST(HierarchyContention, PerBankStatsAttributeTrafficAndQueueing)
{
    MemoryHierarchy mem(contentionHier(2, 8));
    // Same-cycle flood of bank-0 lines (even line numbers) queues
    // there; bank 1 sees nothing.
    for (Addr line = 0; line < 16; line += 2)
        mem.access(load(line * kLineBytes), 0);
    StatSet s = mem.stats();
    EXPECT_EQ(s.get("llc.bank0.accesses"), 8.0);
    EXPECT_EQ(s.get("llc.bank1.accesses"), 0.0);
    EXPECT_GT(s.get("llc.bank0.queue_cycles"), 0.0);
    EXPECT_EQ(s.get("llc.bank1.queue_cycles"), 0.0);
    EXPECT_EQ(s.get("llc.queue_cycles"), s.get("llc.bank0.queue_cycles"));
}

TEST(ContentionSweep, DeterministicAcrossJobCounts)
{
    // The contention model keeps the sweep engine's byte-identity
    // guarantee: per-bank busy state lives inside each job's private
    // System, so --jobs must not change a single table cell.
    SystemConfig cfg = defaultConfig(2);
    cfg.coresPerL2 = 2;
    cfg.l2Bytes = 256 * 1024;
    cfg.llcBytesPerCore = 192 * 1024;
    Mix m = homogeneousMix("tpcc", 2);

    auto run_with_jobs = [&](unsigned jobs) {
        SweepSpec spec(cfg);
        spec.llcBanks({1, 2})
            .llcBankServiceCycles({0, 8})
            .mixes({m});
        ExperimentContext ctx(cfg, 2000, 6000);
        SweepRunner runner(ctx);
        SweepOptions opts;
        opts.jobs = jobs;
        return runner.run(spec, opts).toCsv();
    };
    EXPECT_EQ(run_with_jobs(1), run_with_jobs(8));
}

TEST(LlcBankSet, RejectsBadGeometry)
{
    CacheParams p = llcParams();
    EXPECT_EXIT({ LlcBankSet b(p, 3, 0); },
                testing::ExitedWithCode(1), "power of two");
    EXPECT_EXIT({ LlcBankSet b(p, 0, 0); },
                testing::ExitedWithCode(1), "non-zero");
}

} // namespace
} // namespace garibaldi
