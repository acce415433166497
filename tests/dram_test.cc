/**
 * @file
 * DRAM channel-contention unit suite: FCFS queue math, posted-write
 * semantics, arrival-high-water-mark backfill keying (same-cycle
 * bursts and saturated backlogs are never written off as free),
 * multi-slot channel capacity, channel-mapping reductions, the
 * cumulative-vs-windowed queue-delay identity, DRAM-fed LLC MSHR
 * residency, and --jobs determinism with every new knob enabled.
 *
 * DDR5 timing-model suite: row-buffer hit/miss/conflict sequencing
 * and the strict hit < miss < conflict latency ordering, read<->write
 * turnaround charging (and idle-gap absorption), tREFI/tRFC refresh
 * blocking (and row closing), knobs-off stat-surface/timing identity,
 * the backfill completesAt == booked-slot-end bugfix pin (Dram level
 * and through DRAM-fed LLC MSHR residency), and windowed recompute of
 * the new raw counters.
 */

#include <gtest/gtest.h>

#include "common/intmath.hh"
#include "mem/dram.hh"
#include "mem/hierarchy.hh"
#include "sim/experiment.hh"
#include "sim/metrics.hh"
#include "sweep/sweep_runner.hh"
#include "sweep/sweep_spec.hh"
#include "workloads/mix.hh"

namespace garibaldi
{
namespace
{

DramParams
oneChannel(Cycle svc = 4, std::uint32_t ports = 1)
{
    DramParams p;
    p.channels = 1;
    p.serviceCycles = svc;
    p.channelPorts = ports;
    return p;
}

Addr
line(Addr n)
{
    return n << kLineShift;
}

// --------------------------------------------------------------------
// FCFS queue math and posted writes
// --------------------------------------------------------------------

TEST(Dram, IdleReadPaysBaseLatency)
{
    DramParams p;
    Dram d(p);
    EXPECT_EQ(d.request(0x1000, false, 1000).latency, p.baseLatency);
}

TEST(Dram, FcfsQueueMath)
{
    DramParams p = oneChannel();
    Dram d(p);
    // The i-th same-cycle arrival waits behind i earlier transfers.
    for (Addr i = 0; i < 8; ++i)
        EXPECT_EQ(d.request(line(i), false, 100).latency,
                  p.baseLatency + i * 4);
    EXPECT_EQ(d.stats().get("queued_cycles"),
              4.0 * (0 + 1 + 2 + 3 + 4 + 5 + 6 + 7));
}

TEST(Dram, PostedWritesReturnZeroButConsumeBandwidth)
{
    DramParams p = oneChannel();
    Dram d(p);
    EXPECT_EQ(d.request(line(1), true, 100).latency, 0u);
    EXPECT_EQ(d.writes(), 1u);
    // The posted write occupied the wire: a same-cycle read queues
    // behind it.
    EXPECT_EQ(d.request(line(2), false, 100).latency, p.baseLatency + 4);
}

TEST(Dram, BandwidthRecoversAfterGap)
{
    DramParams p = oneChannel();
    Dram d(p);
    d.request(line(0), false, 100);
    d.request(line(1), false, 100);
    EXPECT_EQ(d.request(line(2), false, 100000).latency, p.baseLatency);
}

// --------------------------------------------------------------------
// Arrival-high-water-mark backfill keying
// --------------------------------------------------------------------

TEST(Dram, SameCycleBurstNeverBackfills)
{
    // The busy-horizon keying this replaces wrote off every same-cycle
    // arrival past a 64-cycle backlog (i.e. the 17th at svc=4) as a
    // free "backfill".  The arrival high-water mark never triggers for
    // same-cycle traffic, so the whole burst queues FCFS.
    DramParams p = oneChannel();
    Dram d(p);
    for (Addr i = 0; i < 40; ++i)
        EXPECT_EQ(d.request(line(i), false, 100).latency,
                  p.baseLatency + i * 4);
    EXPECT_EQ(d.stats().get("backfills"), 0.0);
}

TEST(Dram, SaturatedBacklogChargesStragglers)
{
    DramParams p = oneChannel();
    Dram d(p);
    // 30 transfers at t=1000 book the channel until 1000 + 120.
    for (Addr i = 0; i < 30; ++i)
        d.request(line(i), false, 1000);
    // A straggler from the bounded-skew past backfills — but the
    // channel was saturated back then too, so it pays the backlog
    // booked beyond the arrival high-water mark instead of riding
    // free (the headline fix of this model).
    DramAccess r = d.request(line(100), false, 900);
    EXPECT_TRUE(r.backfilled);
    EXPECT_EQ(r.latency, p.baseLatency + 120);
    EXPECT_EQ(d.stats().get("backfills"), 1.0);
    EXPECT_EQ(d.stats().get("backfill_queued_cycles"), 120.0);
}

TEST(Dram, StragglerSharesResidualWireTime)
{
    DramParams p = oneChannel();
    Dram d(p);
    // One transfer at t=10000 commits the wire to 10004.
    d.request(line(0), false, 10000);
    // A straggler overlaps it: not charged the 9900-cycle phantom gap
    // (the arrival key, not the busy horizon, decides), but the wire
    // only fits one transfer at a time, so it pays the residual
    // service tail beyond the high-water mark.
    DramAccess r = d.request(line(1), false, 100);
    EXPECT_TRUE(r.backfilled);
    EXPECT_EQ(r.latency, p.baseLatency + 4);
}

TEST(Dram, BackfillConsumesBandwidth)
{
    DramParams p = oneChannel();
    Dram d(p);
    d.request(line(0), false, 10000); // slot busy until 10004
    d.request(line(1), false, 100);   // straggler: slot now 10008
    // The straggler's transfer was not free: an in-order arrival
    // behind it waits for both.
    EXPECT_EQ(d.request(line(2), false, 10000).latency, p.baseLatency + 8);
}

// --------------------------------------------------------------------
// Multi-slot channels
// --------------------------------------------------------------------

TEST(Dram, MultiSlotChannelOverlapsTransfers)
{
    DramParams p = oneChannel(4, 2);
    Dram d(p);
    EXPECT_EQ(d.request(line(0), false, 100).latency, p.baseLatency);
    EXPECT_EQ(d.request(line(1), false, 100).latency, p.baseLatency);
    // Third same-cycle transfer waits for the earliest slot.
    EXPECT_EQ(d.request(line(2), false, 100).latency, p.baseLatency + 4);
}

TEST(Dram, BackfillUsesFreeSlotCapacity)
{
    DramParams p = oneChannel(4, 2);
    Dram d(p);
    d.request(line(0), false, 10000); // slot 0 busy until 10004
    // The straggler finds slot 1 idle behind the high-water mark: the
    // channel genuinely had capacity back then, so no queue at all.
    DramAccess r = d.request(line(1), false, 100);
    EXPECT_TRUE(r.backfilled);
    EXPECT_EQ(r.latency, p.baseLatency);
    EXPECT_EQ(d.stats().get("queued_cycles"), 0.0);
}

// --------------------------------------------------------------------
// completesAt keys on the booked slot end (backfill bugfix)
// --------------------------------------------------------------------

TEST(Dram, BackfillCompletesAtIsBookedSlotEnd)
{
    DramParams p = oneChannel();
    Dram d(p);
    d.request(line(0), false, 10000); // slot busy until 10004
    // The straggler's transfer books the wire 10004 -> 10008, but its
    // charged queue is only the backlog past the high-water mark
    // (4 cycles).  The old report keyed completesAt on now + queue +
    // serviceCycles = 108 — releasing DRAM-fed MSHR entries almost
    // 10k cycles before the wire time the slot vector committed to.
    DramAccess r = d.request(line(1), false, 100);
    ASSERT_TRUE(r.backfilled);
    EXPECT_EQ(r.latency, p.baseLatency + 4);
    EXPECT_EQ(r.completesAt, 10008u);

    // A backfilled posted write books the next slot end the same way.
    DramAccess w = d.request(line(2), true, 100);
    ASSERT_TRUE(w.backfilled);
    EXPECT_EQ(w.latency, 0u);
    EXPECT_EQ(w.completesAt, 10012u);
}

TEST(Dram, BackfillCompletesAtNeverPrecedesDataReturn)
{
    // With free capacity behind the high-water mark the booked slot
    // ends long before the device latency elapses: completesAt is the
    // later of the two (data availability for reads).
    DramParams p = oneChannel(4, 2);
    Dram d(p);
    d.request(line(0), false, 10000);
    DramAccess r = d.request(line(1), false, 100);
    ASSERT_TRUE(r.backfilled);
    EXPECT_EQ(r.latency, p.baseLatency);
    EXPECT_EQ(r.completesAt, 100 + p.baseLatency);
}

TEST(Dram, InOrderCompletesAtUnchanged)
{
    // The non-backfill report is the PR-4 identity: wire end for
    // writes, now + latency for reads (device latency covers the
    // service slot).
    DramParams p = oneChannel();
    Dram d(p);
    DramAccess w = d.request(line(0), true, 100);
    EXPECT_EQ(w.completesAt, 100 + p.serviceCycles);
    DramAccess r = d.request(line(1), false, 100);
    EXPECT_EQ(r.completesAt, 100 + r.latency);
}

// --------------------------------------------------------------------
// Row-buffer hit/miss/conflict split
// --------------------------------------------------------------------

TEST(DramTiming, RowLegSequencingAndStrictOrdering)
{
    DramParams p = oneChannel();
    p.rowBits = 2; // 4 lines per row
    Dram d(p);
    // Accesses spaced far apart so queue delay is zero and the
    // returned latency is the pure device leg.
    Cycle miss = d.request(line(0), false, 1000).latency;   // closed: row miss
    Cycle hit = d.request(line(1), false, 2000).latency;    // same row: hit
    Cycle hit2 = d.request(line(3), false, 3000).latency;   // still row 0
    Cycle conf = d.request(line(4), false, 4000).latency;   // row 1: conflict
    Cycle back = d.request(line(0), false, 5000).latency;   // row 0 again
    EXPECT_EQ(miss, p.rowMissLatency());
    EXPECT_EQ(hit, p.rowHitLatency());
    EXPECT_EQ(hit2, p.rowHitLatency());
    EXPECT_EQ(conf, p.rowConflictLatency());
    EXPECT_EQ(back, p.rowConflictLatency());
    // The split is strict by construction: thirds of baseLatency.
    EXPECT_LT(p.rowHitLatency(), p.rowMissLatency());
    EXPECT_LT(p.rowMissLatency(), p.rowConflictLatency());
    EXPECT_EQ(p.rowConflictLatency(), p.baseLatency);

    StatSet s = d.stats();
    EXPECT_EQ(s.get("row_hits"), 2.0);
    EXPECT_EQ(s.get("row_misses"), 1.0);
    EXPECT_EQ(s.get("row_conflicts"), 2.0);
    EXPECT_EQ(s.get("row_accesses"), 5.0);
    EXPECT_DOUBLE_EQ(s.get("row_hit_rate"), 2.0 / 5.0);
    // Per-leg raw counters carry the device leg only (queue delay is
    // reported orthogonally, so refresh stalls cannot invert the
    // ordering).
    EXPECT_EQ(s.get("row_hit_reads"), 2.0);
    EXPECT_EQ(s.get("row_hit_lat_cycles"),
              2.0 * static_cast<double>(p.rowHitLatency()));
    EXPECT_EQ(s.get("row_miss_reads"), 1.0);
    EXPECT_EQ(s.get("row_conflict_reads"), 2.0);
    EXPECT_DOUBLE_EQ(s.get("avg_row_hit_latency"),
                     static_cast<double>(p.rowHitLatency()));
    EXPECT_LT(s.get("avg_row_hit_latency"),
              s.get("avg_row_miss_latency"));
    EXPECT_LT(s.get("avg_row_miss_latency"),
              s.get("avg_row_conflict_latency"));
    // The per-leg histograms saw the same reads.
    EXPECT_EQ(d.rowLegLatency(Dram::kRowHit).count(), 2u);
    EXPECT_EQ(d.rowLegLatency(Dram::kRowMiss).count(), 1u);
    EXPECT_EQ(d.rowLegLatency(Dram::kRowConflict).count(), 2u);

    // A queued same-row read pays queue + device end to end, but its
    // queue lands in queued_cycles only — never in the leg book.
    EXPECT_EQ(d.request(line(1), false, 5000).latency,
              p.serviceCycles + p.rowHitLatency());
    StatSet s2 = d.stats();
    EXPECT_EQ(s2.get("row_hit_lat_cycles"),
              3.0 * static_cast<double>(p.rowHitLatency()));
    EXPECT_EQ(s2.get("queued_cycles"), 4.0);
    EXPECT_EQ(s2.get("read_lat_cycles"),
              s2.get("row_hit_lat_cycles") +
                  s2.get("row_miss_lat_cycles") +
                  s2.get("row_conflict_lat_cycles") + 4.0);
}

TEST(DramTiming, WritesMoveRowStateButChargeNoLatency)
{
    DramParams p = oneChannel();
    p.rowBits = 2;
    Dram d(p);
    // A posted write opens its row (it is a real column access) ...
    EXPECT_EQ(d.request(line(0), true, 1000).latency, 0u);
    // ... so a later read of the same row is a hit, and a write to a
    // different row closes it for the next reader.
    EXPECT_EQ(d.request(line(1), false, 2000).latency, p.rowHitLatency());
    EXPECT_EQ(d.request(line(8), true, 3000).latency, 0u);
    EXPECT_EQ(d.request(line(2), false, 4000).latency, p.rowConflictLatency());
    StatSet s = d.stats();
    EXPECT_EQ(s.get("row_accesses"), 4.0); // writes counted too
    // Latency legs accumulate for reads only (writes return 0).
    EXPECT_EQ(s.get("row_hit_reads") + s.get("row_miss_reads") +
                  s.get("row_conflict_reads"),
              2.0);
}

// --------------------------------------------------------------------
// Read<->write turnaround
// --------------------------------------------------------------------

TEST(DramTiming, TurnaroundChargedOnDirectionFlip)
{
    DramParams p = oneChannel();
    p.turnaroundCycles = 12;
    Dram d(p);
    // write -> read flip: the read's grant waits for the write's slot
    // end plus the turnaround.
    EXPECT_EQ(d.request(line(0), true, 100).latency, 0u);
    EXPECT_EQ(d.request(line(1), false, 100).latency,
              p.baseLatency + p.serviceCycles + p.turnaroundCycles);
    // read -> read: no flip, plain FCFS behind the previous transfer.
    EXPECT_EQ(d.request(line(2), false, 100).latency,
              p.baseLatency + 2 * p.serviceCycles + p.turnaroundCycles);
    StatSet s = d.stats();
    EXPECT_EQ(s.get("turnarounds"), 1.0);
    EXPECT_EQ(s.get("turnaround_cycles"), 12.0);
    // Turnaround stalls land inside the queue leg, so the
    // queued-cycles identity holds unchanged.
    EXPECT_DOUBLE_EQ(s.get("avg_queue_delay"),
                     s.get("queued_cycles") /
                         (s.get("reads") + s.get("writes")));
}

TEST(DramTiming, TurnaroundAbsorbedByIdleGap)
{
    DramParams p = oneChannel();
    p.turnaroundCycles = 12;
    Dram d(p);
    d.request(line(0), true, 100);
    // The bus flipped long ago relative to the idle gap: no stall.
    EXPECT_EQ(d.request(line(1), false, 10000).latency, p.baseLatency);
    StatSet s = d.stats();
    EXPECT_EQ(s.get("turnarounds"), 1.0); // the flip still happened
    EXPECT_EQ(s.get("turnaround_cycles"), 0.0);
}

// --------------------------------------------------------------------
// Refresh (tREFI/tRFC)
// --------------------------------------------------------------------

TEST(DramTiming, RefreshWindowBlocksChannel)
{
    DramParams p = oneChannel();
    p.refreshIntervalCycles = 1000;
    p.refreshPenaltyCycles = 100;
    Dram d(p);
    // Inside the window [1000, 1100): grant pushed to the window end.
    EXPECT_EQ(d.request(line(0), false, 1050).latency, p.baseLatency + 50);
    // Exactly at a window start: the full tRFC.
    EXPECT_EQ(d.request(line(1), false, 2000).latency, p.baseLatency + 100);
    // Between windows: untouched.
    EXPECT_EQ(d.request(line(2), false, 2500).latency, p.baseLatency);
    StatSet s = d.stats();
    EXPECT_EQ(s.get("refresh_blocked"), 2.0);
    EXPECT_EQ(s.get("refresh_stall_cycles"), 150.0);
    EXPECT_EQ(s.get("queued_cycles"), 150.0);
}

TEST(DramTiming, RefreshStallGrantedPastBlastIsRowMiss)
{
    // The refresh epoch is keyed on the *grant* instant: an access
    // that ARRIVES before the tREFI boundary but is GRANTED after the
    // blast finds its row precharged — it is charged a refresh stall
    // and a row miss together, never a stalled "hit" on a row the
    // blast already closed.
    DramParams p = oneChannel(/*svc=*/100);
    p.rowBits = 2;
    p.refreshIntervalCycles = 1000;
    p.refreshPenaltyCycles = 100;
    Dram d(p);
    EXPECT_EQ(d.request(line(0), false, 900).latency, p.rowMissLatency());
    // Same row, arrives at 950: the wire frees at 1000 — inside the
    // refresh window — so the grant lands at 1100, past the blast.
    EXPECT_EQ(d.request(line(1), false, 950).latency,
              150 + p.rowMissLatency());
    StatSet s = d.stats();
    EXPECT_EQ(s.get("refresh_blocked"), 1.0);
    EXPECT_EQ(s.get("refresh_stall_cycles"), 100.0);
    EXPECT_EQ(s.get("row_hits"), 0.0);
    EXPECT_EQ(s.get("row_misses"), 2.0);
}

TEST(DramTiming, BackfillTurnaroundAbsorbedBySlack)
{
    // A backfilled flip books the bus-quiet time into the slot, but
    // the stall stats stay requester-visible: the slack behind the
    // arrival high-water mark absorbs the push exactly like an
    // in-order idle gap, keeping turnaround_cycles a subset of
    // queued_cycles on both paths.
    DramParams p = oneChannel(4, 2);
    p.turnaroundCycles = 12;
    Dram d(p);
    d.request(line(0), true, 10000); // write: slot 0, busDir = W
    DramAccess r = d.request(line(1), false, 100); // flip, idle slot 1
    ASSERT_TRUE(r.backfilled);
    EXPECT_EQ(r.latency, p.baseLatency);
    StatSet s = d.stats();
    EXPECT_EQ(s.get("turnarounds"), 1.0); // the flip still happened
    EXPECT_EQ(s.get("turnaround_cycles"), 0.0);
    EXPECT_EQ(s.get("queued_cycles"), 0.0);
}

TEST(DramTiming, BackfillRefreshPushAbsorbedBySlack)
{
    // Same requester-visible discipline for refresh on the backfill
    // path: the push books real wire displacement (visible through
    // completesAt, the booked slot end) but charges no stall while it
    // stays inside the slack behind the high-water mark.
    DramParams p = oneChannel(4, 2);
    p.refreshIntervalCycles = 1000;
    p.refreshPenaltyCycles = 100;
    Dram d(p);
    d.request(line(0), false, 996);   // slot 0 busy until 1000
    d.request(line(1), false, 10500); // slot 1; high-water mark 10500
    // The straggler wins slot 0 whose horizon (1000) sits inside the
    // refresh window [1000, 1100): the transfer books 1100..1104, yet
    // the 10.5k-cycle slack absorbs the push — nobody waited.
    DramAccess r = d.request(line(2), false, 100);
    ASSERT_TRUE(r.backfilled);
    EXPECT_EQ(r.latency, p.baseLatency);
    EXPECT_EQ(r.completesAt, 1104u); // displaced wire time is booked
    StatSet s = d.stats();
    EXPECT_EQ(s.get("refresh_blocked"), 0.0);
    EXPECT_EQ(s.get("refresh_stall_cycles"), 0.0);
}

TEST(DramTiming, RefreshClosesTheOpenRow)
{
    DramParams p = oneChannel();
    p.rowBits = 2;
    p.refreshIntervalCycles = 1000;
    p.refreshPenaltyCycles = 100;
    Dram d(p);
    EXPECT_EQ(d.request(line(0), false, 900).latency, p.rowMissLatency());
    // Same row after the tREFI boundary: the blast precharged it, so
    // this is a row miss again, not a hit (and at 1150 the window
    // itself has already passed — pure row-close effect).
    EXPECT_EQ(d.request(line(1), false, 1150).latency, p.rowMissLatency());
    EXPECT_EQ(d.stats().get("row_hits"), 0.0);
    EXPECT_EQ(d.stats().get("row_misses"), 2.0);
}

// --------------------------------------------------------------------
// Knobs off: flat timing, zeroed timing-leg stats
// --------------------------------------------------------------------

TEST(DramTiming, KnobsOffKeepFlatTimingAndStatSurface)
{
    DramParams p = oneChannel();
    Dram d(p);
    // Flat device latency, plain FCFS queue math — the PR-4 model.
    EXPECT_EQ(d.request(line(0), true, 100).latency, 0u);
    EXPECT_EQ(d.request(line(1), false, 100).latency,
              p.baseLatency + p.serviceCycles);
    EXPECT_EQ(d.request(line(2), false, 10000).latency, p.baseLatency);
    // The timing-leg stats are exported with every leg off, and read 0.
    StatSet s = d.stats();
    for (const char *name :
         {"row_hits", "row_misses", "row_conflicts", "row_accesses",
          "row_hit_rate", "turnarounds", "turnaround_cycles",
          "refresh_blocked", "refresh_stall_cycles"}) {
        ASSERT_TRUE(s.has(name)) << name;
        EXPECT_EQ(s.get(name), 0.0) << name;
    }
    // The full-read-latency book runs regardless: two reads, the first
    // queued behind the posted write's transfer.
    EXPECT_EQ(s.get("read_lat_cycles"),
              static_cast<double>(2 * p.baseLatency + p.serviceCycles));
}

// --------------------------------------------------------------------
// Channel mapping
// --------------------------------------------------------------------

TEST(Dram, ChannelMaskMatchesModuloForPow2)
{
    for (std::uint32_t ch : {1u, 2u, 4u, 8u}) {
        DramParams p;
        p.channels = ch;
        Dram d(p);
        for (Addr a = 0; a < 64; ++a) {
            Addr addr = line(a * 97);
            EXPECT_EQ(d.channelOf(addr),
                      static_cast<std::uint32_t>(mix64(addr) % ch));
        }
    }
}

TEST(Dram, NonPow2ChannelsCoverAllChannels)
{
    DramParams p;
    p.channels = 3;
    Dram d(p);
    std::vector<int> hits(3, 0);
    for (Addr a = 0; a < 999; ++a) {
        std::uint32_t ch = d.channelOf(line(a));
        ASSERT_LT(ch, 3u);
        ++hits[ch];
    }
    for (int h : hits)
        EXPECT_GT(h, 200); // roughly uniform spread
}

TEST(Dram, ChannelsSpreadLoad)
{
    DramParams p;
    p.channels = 2;
    Dram d(p);
    int queued = 0;
    for (Addr a = 0; a < 8; ++a)
        queued += d.request(line(a), false, 50).latency > p.baseLatency;
    // With 2 channels, at most 6 of 8 same-instant requests queue.
    EXPECT_LT(queued, 7);
}

// --------------------------------------------------------------------
// Queue-delay accounting identity (cumulative vs windowed)
// --------------------------------------------------------------------

TEST(Dram, AvgQueueDelayMatchesRawCounters)
{
    DramParams p = oneChannel();
    Dram d(p);
    // Mixed traffic: bursts, writes, charged and free backfills.
    for (Addr i = 0; i < 20; ++i)
        d.request(line(i), false, 1000);
    d.request(line(30), true, 1000);
    d.request(line(31), false, 900); // charged backfill
    d.request(line(32), false, 5000);
    d.request(line(33), false, 4900); // cheap backfill
    StatSet s = d.stats();
    double accesses = s.get("reads") + s.get("writes");
    EXPECT_GT(s.get("backfills"), 0.0);
    // The exported mean is exactly queued cycles over ALL accesses —
    // charged backfills included — which is the identity the
    // simulator's windowed recompute relies on.
    EXPECT_DOUBLE_EQ(s.get("avg_queue_delay"),
                     s.get("queued_cycles") / accesses);
}

TEST(Dram, WindowedAvgQueueDelayIsRecomputedFromCounters)
{
    SystemConfig cfg = defaultConfig(2);
    cfg.coresPerL2 = 2;
    cfg.dram.channels = 1; // saturate so queue delay is non-trivial
    ExperimentContext ctx(cfg, 2000, 4000);
    SimResult r = ctx.runPolicy(PolicyKind::LRU, false,
                                homogeneousMix("tpcc", 2));
    double windowed = safeRate(r.mem.get("dram.queued_cycles"),
                               r.mem.get("dram.reads") +
                                   r.mem.get("dram.writes"));
    EXPECT_GT(r.mem.get("dram.queued_cycles"), 0.0);
    EXPECT_DOUBLE_EQ(r.mem.get("dram.avg_queue_delay"), windowed);
}

// --------------------------------------------------------------------
// DRAM-fed LLC MSHR residency
// --------------------------------------------------------------------

HierarchyParams
contentionHier()
{
    HierarchyParams h;
    h.numCores = 2;
    h.coresPerL2 = 2;
    h.l1i.sizeBytes = 4 * 1024;
    h.l1i.assoc = 4;
    h.l1i.latency = 3;
    h.l1d = h.l1i;
    h.l2.sizeBytes = 32 * 1024;
    h.l2.assoc = 8;
    h.l2.latency = 18;
    h.llc.sizeBytes = 128 * 1024;
    h.llc.assoc = 8;
    h.llc.latency = 40;
    h.l1dNextLinePrefetcher = false;
    h.l2GhbPrefetcher = false;
    h.l1iIspyPrefetcher = false;
    h.llcBankServiceCycles = 4;
    h.llcBankPorts = 1;
    h.dram.channels = 1;
    return h;
}

MemAccess
load(CoreId core, Addr paddr)
{
    MemAccess a;
    a.core = core;
    a.paddr = paddr;
    a.pc = 0x400000;
    return a;
}

TEST(Hierarchy, DramFedMshrsBookChannelCompletion)
{
    // Two same-cycle demand misses: the second pays a 4-cycle tag-port
    // wait, a 4-cycle DRAM channel queue and a 4-cycle data-port wait.
    // The LLC MSHR is held until the channel's fill completion plus
    // the array write; the port waits are request-path legs and do not
    // stretch it.
    MemoryHierarchy mem(contentionHier());
    mem.access(load(0, 0x100000), 0);
    mem.access(load(1, 0x200000), 0);
    DramParams dram;
    // The tag grant at 4 has no bearing; the fill leaves the channel
    // at 0 + 4 (queue) + baseLatency and lands after the 40-cycle
    // array write.
    EXPECT_EQ(mem.llc().pendingReady(0x200000, 1),
              4 + dram.baseLatency + 40);
}

TEST(Hierarchy, DramFedMshrsHoldBackfilledFillsToBookedSlotEnd)
{
    // A backfilled fill's MSHR entry must live until the wire time the
    // channel's slot vector actually committed to, not the request-path
    // sum: core 0 books the single channel at t=10000 (slot ends 10004),
    // core 1's straggler miss at t=100 backfills behind it — its fill
    // occupies 10004..10008 and the bank MSHR entry is held until 10008
    // plus the 40-cycle array write.
    MemoryHierarchy mem(contentionHier());
    mem.access(load(0, 0x100000), 10000);
    mem.access(load(1, 0x200000), 100);
    EXPECT_EQ(mem.llc().pendingReady(0x200000, 100), 10008u + 40u);
}

// --------------------------------------------------------------------
// Windowed recompute of the timing-model raw counters
// --------------------------------------------------------------------

TEST(DramTiming, WindowedRowStatsRecomputedFromCounters)
{
    SystemConfig cfg = defaultConfig(2);
    cfg.coresPerL2 = 2;
    cfg.dram.channels = 1;
    cfg.dram.rowBits = 7;
    cfg.dram.turnaroundCycles = 12;
    cfg.dram.refreshIntervalCycles = 11700;
    cfg.dram.refreshPenaltyCycles = 885;
    ExperimentContext ctx(cfg, 2000, 4000);
    SimResult r = ctx.runPolicy(PolicyKind::LRU, false,
                                homogeneousMix("tpcc", 2));
    EXPECT_GT(r.mem.get("dram.row_accesses"), 0.0);
    // Every derived rate is rebuilt from the window's subtracted raw
    // counters (a difference of ratios is not the ratio of
    // differences).
    EXPECT_DOUBLE_EQ(r.mem.get("dram.row_hit_rate"),
                     safeRate(r.mem.get("dram.row_hits"),
                              r.mem.get("dram.row_accesses")));
    EXPECT_DOUBLE_EQ(r.mem.get("dram.avg_row_hit_latency"),
                     safeRate(r.mem.get("dram.row_hit_lat_cycles"),
                              r.mem.get("dram.row_hit_reads")));
    EXPECT_DOUBLE_EQ(
        r.mem.get("dram.avg_row_conflict_latency"),
        safeRate(r.mem.get("dram.row_conflict_lat_cycles"),
                 r.mem.get("dram.row_conflict_reads")));
    EXPECT_DOUBLE_EQ(r.mem.get("dram.avg_read_latency"),
                     safeRate(r.mem.get("dram.read_lat_cycles"),
                              r.mem.get("dram.reads")));
    // The acceptance ordering: whenever a leg saw reads, its device
    // latency sits strictly between its neighbours'.
    ASSERT_GT(r.mem.get("dram.row_hit_reads"), 0.0);
    ASSERT_GT(r.mem.get("dram.row_conflict_reads"), 0.0);
    EXPECT_LT(r.mem.get("dram.avg_row_hit_latency"),
              r.mem.get("dram.avg_row_conflict_latency"));
    if (r.mem.get("dram.row_miss_reads") > 0.0) {
        EXPECT_LT(r.mem.get("dram.avg_row_hit_latency"),
                  r.mem.get("dram.avg_row_miss_latency"));
        EXPECT_LT(r.mem.get("dram.avg_row_miss_latency"),
                  r.mem.get("dram.avg_row_conflict_latency"));
    }
}

// --------------------------------------------------------------------
// Determinism across --jobs with every new knob on
// --------------------------------------------------------------------

TEST(DramSweep, JobsIndependenceWithDramKnobs)
{
    SystemConfig base = defaultConfig(2);
    base.coresPerL2 = 2;
    base.llcBankServiceCycles = 2;
    base.llcBankPorts = 1;

    SweepSpec spec(base);
    spec.dramChannels({1, 2})
        .dramChannelPorts({1, 2})
        .mixes({homogeneousMix("tpcc", 2)});

    ExperimentContext ctx(base, 1000, 2000);
    SweepRunner runner(ctx);
    SweepOptions opts;
    opts.extraMetrics.push_back(
        {"dram_queue_delay", [](const SimResult &r, const SweepJob &) {
             return r.mem.get("dram.avg_queue_delay");
         }});

    opts.jobs = 1;
    ResultsTable r1 = runner.run(spec, opts);
    opts.jobs = 8;
    ResultsTable r8 = runner.run(spec, opts);

    EXPECT_EQ(r1.toCsv(), r8.toCsv());
    EXPECT_EQ(r1.toJson(), r8.toJson());
    ASSERT_EQ(r1.rowCount(), 4u);
    // More channel slots can only shed queue delay: dramch=1/ports=1
    // must be the worst point of the little grid.
    double worst = r1.value({{"dramch", "1"}, {"dramports", "1"}},
                            "dram_queue_delay");
    double best = r1.value({{"dramch", "2"}, {"dramports", "2"}},
                           "dram_queue_delay");
    EXPECT_GE(worst, best);
}

TEST(DramSweep, JobsIndependenceWithTimingKnobs)
{
    SystemConfig base = defaultConfig(2);
    base.coresPerL2 = 2;

    SweepSpec spec(base);
    spec.dramChannels({1, 2})
        .dramRowBits({0, 7})
        .dramTurnaround({12})
        .dramRefresh({{0, 0}, {2000, 200}})
        .mixes({homogeneousMix("tpcc", 2)});

    ExperimentContext ctx(base, 1000, 2000);
    SweepRunner runner(ctx);
    SweepOptions opts;
    opts.extraMetrics.push_back(
        {"row_hit_rate", [](const SimResult &r, const SweepJob &) {
             return r.mem.get("dram.row_hit_rate");
         }});

    opts.jobs = 1;
    ResultsTable r1 = runner.run(spec, opts);
    opts.jobs = 8;
    ResultsTable r8 = runner.run(spec, opts);

    EXPECT_EQ(r1.toCsv(), r8.toCsv());
    EXPECT_EQ(r1.toJson(), r8.toJson());
    ASSERT_EQ(r1.rowCount(), 8u);
    // Row stats read 0 with the row model off (rowbits=0) and lie in
    // [0, 1] with it on (rowbits=7).
    EXPECT_EQ(r1.value({{"dramch", "1"}, {"rowbits", "0"},
                        {"refresh", "off"}},
                       "row_hit_rate"),
              0.0);
    double rate = r1.value({{"dramch", "1"}, {"rowbits", "7"},
                            {"refresh", "2000/200"}},
                           "row_hit_rate");
    EXPECT_GE(rate, 0.0);
    EXPECT_LE(rate, 1.0);
}

} // namespace
} // namespace garibaldi
