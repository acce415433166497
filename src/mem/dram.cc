#include "mem/dram.hh"

#include <algorithm>
#include <limits>

#include "common/audit.hh"
#include "common/intmath.hh"
#include "common/logging.hh"
#include "common/stat_kind.hh"

namespace garibaldi
{

SIM_STATS(Dram,
    SIM_STAT("reads", counter),
    SIM_STAT("writes", counter),
    SIM_STAT("queued_cycles", counter),
    SIM_STAT("backfills", counter),
    SIM_STAT("backfill_queued_cycles", counter),
    SIM_STAT("avg_queue_delay", rate("queued_cycles", "reads+writes")),
    SIM_STAT("row_hits", counter),
    SIM_STAT("row_misses", counter),
    SIM_STAT("row_conflicts", counter),
    SIM_STAT("row_accesses", counter),
    SIM_STAT("row_hit_rate", rate("row_hits", "row_accesses")),
    SIM_STAT("row_hit_reads", counter),
    SIM_STAT("row_hit_lat_cycles", counter),
    SIM_STAT("avg_row_hit_latency",
             rate("row_hit_lat_cycles", "row_hit_reads")),
    SIM_STAT("row_hit_lat_p50", quantile),
    SIM_STAT("row_hit_lat_p95", quantile),
    SIM_STAT("row_hit_lat_p99", quantile),
    SIM_STAT("row_miss_reads", counter),
    SIM_STAT("row_miss_lat_cycles", counter),
    SIM_STAT("avg_row_miss_latency",
             rate("row_miss_lat_cycles", "row_miss_reads")),
    SIM_STAT("row_miss_lat_p50", quantile),
    SIM_STAT("row_miss_lat_p95", quantile),
    SIM_STAT("row_miss_lat_p99", quantile),
    SIM_STAT("row_conflict_reads", counter),
    SIM_STAT("row_conflict_lat_cycles", counter),
    SIM_STAT("avg_row_conflict_latency",
             rate("row_conflict_lat_cycles", "row_conflict_reads")),
    SIM_STAT("row_conflict_lat_p50", quantile),
    SIM_STAT("row_conflict_lat_p95", quantile),
    SIM_STAT("row_conflict_lat_p99", quantile),
    SIM_STAT("read_lat_cycles", counter),
    SIM_STAT("avg_read_latency", rate("read_lat_cycles", "reads")),
    SIM_STAT("turnarounds", counter),
    SIM_STAT("turnaround_cycles", counter),
    SIM_STAT("refresh_blocked", counter),
    SIM_STAT("refresh_stall_cycles", counter));

namespace
{
/** openRow sentinel: all banks precharged (row ids are 58-bit max). */
constexpr std::uint64_t kNoOpenRow =
    std::numeric_limits<std::uint64_t>::max();
} // namespace

Dram::Dram(const DramParams &params_)
    : params(params_),
      busyUntil(std::size_t{params_.channels} * params_.channelPorts, 0),
      lastArrival(params_.channels, 0),
      openRow(params_.channels, kNoOpenRow),
      busDir(params_.channels, -1),
      refreshEpoch(params_.channels, 0)
{
    if (params.channels == 0)
        fatal("DRAM needs at least one channel");
    if (params.channelPorts == 0)
        fatal("DRAM channels need at least one transfer slot");
    if (params.rowModelOn() && params.baseLatency < 3)
        fatal("DRAM row-buffer split needs baseLatency >= 3 (the "
              "hit/miss/conflict thirds collapse below that)");
    if (params.refreshPenaltyCycles > 0 &&
        params.refreshIntervalCycles == 0)
        fatal("DRAM refreshPenaltyCycles > 0 needs a non-zero "
              "refreshIntervalCycles (tREFI)");
    if (params.refreshOn() &&
        params.refreshPenaltyCycles >= params.refreshIntervalCycles)
        fatal("DRAM refresh penalty (tRFC) must be smaller than the "
              "refresh interval (tREFI); the channel would never "
              "unblock");
}

std::uint32_t
Dram::channelOf(Addr line_addr) const
{
    std::uint64_t h = mix64(line_addr);
    if (isPowerOf2(params.channels))
        return static_cast<std::uint32_t>(h) & (params.channels - 1);
    return fastRange(h, params.channels);
}

Cycle
Dram::afterRefresh(Cycle t) const
{
    // Windows are [k*tREFI, k*tREFI + tRFC) for k >= 1; tRFC < tREFI
    // (constructor-checked), so at most the window containing t moves
    // the grant.
    Cycle k = t / params.refreshIntervalCycles;
    if (k == 0)
        return t;
    Cycle window = k * params.refreshIntervalCycles;
    if (t < window + params.refreshPenaltyCycles)
        return window + params.refreshPenaltyCycles;
    return t;
}

DramAccess
Dram::request(Addr line_addr, bool is_write, Cycle now)
{
    std::uint32_t ch = channelOf(line_addr);
    Cycle *slots = &busyUntil[std::size_t{ch} * params.channelPorts];

    // Earliest-free slot wins; ties break on the lowest index so the
    // model is deterministic for any access order the simulator's
    // global-time heap produces.
    std::uint32_t best = 0;
    for (std::uint32_t i = 1; i < params.channelPorts; ++i)
        if (slots[i] < slots[best])
            best = i;

    // Bus-direction turnaround: the penalty applies to the slot the
    // transfer wins, so an idle gap longer than the penalty absorbs it
    // (the bus turned around while nothing was queued).
    bool flip = params.turnaroundOn() && busDir[ch] >= 0 &&
                (busDir[ch] == 1) != is_write;
    busDir[ch] = is_write ? 1 : 0;

    // Requests can arrive slightly out of time order (cores are
    // interleaved with bounded skew).  The backfill test is keyed on
    // the channel's *arrival* high-water mark, NOT on its busy horizon:
    // a same-cycle burst or an in-order backlog always queues FCFS (a
    // saturated channel's backlog is never written off as free), and
    // only a genuine straggler — issued more than kBackfillSlack behind
    // the newest arrival seen — is served from the capacity the channel
    // had back then.
    Cycle queue = 0;
    Cycle grant; // instant the transfer wins the wire
    bool refresh_push = false; // the grant moved past a tRFC window
    bool backfill = now + kBackfillSlack < lastArrival[ch];
    if (backfill) {
        // Bandwidth is conserved: the straggler's transfer still takes
        // serviceCycles of wire time, charged to the earliest slot
        // without the max(now, busy) clamp — reservations booked after
        // its arrival must not read as its own queue.  Its queue delay
        // is the backlog already committed beyond the high-water mark:
        // zero while the schedule has slack behind the newest arrival,
        // the real queue depth once the channel is saturated.
        // Turnaround quiet time and refresh pushes book real wire
        // displacement, but the stall stats stay requester-visible —
        // only the portion of the push that lands beyond the
        // high-water mark is wait anyone experiences; the slack window
        // absorbs the rest exactly like an in-order idle gap.
        auto backlog = [this, ch](Cycle h) {
            return h > lastArrival[ch] ? h - lastArrival[ch] : Cycle{0};
        };
        Cycle horizon = slots[best];
        Cycle charged = backlog(horizon);
        if (flip) {
            horizon += params.turnaroundCycles;
            ++nTurnarounds;
            turnaroundStallCycles += backlog(horizon) - charged;
            charged = backlog(horizon);
        }
        if (params.refreshOn()) {
            Cycle aligned = afterRefresh(horizon);
            refresh_push = aligned > horizon;
            horizon = aligned;
            if (backlog(horizon) > charged) {
                ++nRefreshBlocked;
                refreshStallCycles += backlog(horizon) - charged;
            }
        }
        queue = backlog(horizon);
        grant = horizon;
        slots[best] = horizon + params.serviceCycles;
        ++nBackfills;
        backfillQueuedCycles += queue;
    } else {
        lastArrival[ch] = std::max(lastArrival[ch], now);
        Cycle start = std::max(now, slots[best]);
        if (flip) {
            Cycle turned = std::max(now, slots[best] +
                                             params.turnaroundCycles);
            ++nTurnarounds;
            turnaroundStallCycles += turned - start;
            start = turned;
        }
        if (params.refreshOn()) {
            Cycle aligned = afterRefresh(start);
            if (aligned > start) {
                ++nRefreshBlocked;
                refreshStallCycles += aligned - start;
                start = aligned;
                refresh_push = true;
            }
        }
        queue = start - now;
        grant = start;
        slots[best] = start + params.serviceCycles;
    }
    queuedCycles += queue;
    queueDelay.add(queue);
    // Both stall books are components of the queue delay a requester
    // observed (backfills count only the push beyond the high-water
    // mark), so their sums must stay subsets of queued_cycles or the
    // avg_queue_delay identity silently breaks.
    audit::checkStallSubset("dram", turnaroundStallCycles,
                            refreshStallCycles, queuedCycles);

    // Device-latency leg from the channel's open-row state.  Row state
    // advances in arrival order (like every other book here), but the
    // refresh epoch is keyed on the *grant* instant: an access whose
    // grant was pushed past a tREFI boundary finds the blast already
    // precharged its row, so the first access granted after each
    // refresh is a row miss, never a hit.
    Cycle device = params.baseLatency;
    int leg = -1;
    if (params.rowModelOn()) {
        if (params.refreshOn()) {
            Cycle epoch = grant / params.refreshIntervalCycles;
            if (epoch > refreshEpoch[ch]) {
                refreshEpoch[ch] = epoch;
                openRow[ch] = kNoOpenRow;
            }
        }
        std::uint64_t row = lineNumber(line_addr) >> params.rowBits;
        if (openRow[ch] == row) {
            leg = kRowHit;
            device = params.rowHitLatency();
        } else if (openRow[ch] == kNoOpenRow) {
            leg = kRowMiss;
            device = params.rowMissLatency();
        } else {
            leg = kRowConflict;
            device = params.rowConflictLatency();
        }
        ++rowCount[leg];
        openRow[ch] = row; // open-page policy: the row stays open
    }

    // The slot end just booked — the instant the wire is really
    // released.  On the backfill path this can sit far beyond
    // now + queue + serviceCycles (queue only counts the backlog past
    // the high-water mark), and MSHR books keyed on completesAt must
    // see the booked time, not the shorter request-path sum.
    Cycle wire_end = slots[best];

    DramAccess out;
    out.backfilled = backfill;
    out.queue = queue;
    out.device = device;
    out.rowLeg = static_cast<std::int8_t>(leg);
    out.turned = flip;
    out.refreshStalled = refresh_push;
    if (is_write) {
        ++nWrites;
        out.latency = 0; // posted: bandwidth consumed, no core stall
        out.completesAt = wire_end;
        return out;
    }
    ++nReads;
    out.latency = queue + device;
    out.completesAt = std::max(now + out.latency, wire_end);
    readLatCycles += out.latency;
    if (leg >= 0) {
        // Per-leg books take the device leg only — queue delay is
        // reported orthogonally (total = queue + device).  Refresh
        // stalls concentrate on the miss leg (the first access granted
        // after each blast is a miss), so folding queue in would let
        // the miss mean overtake the conflict mean and invert the
        // structural hit < miss < conflict ordering.
        ++legReads[leg];
        legReadCycles[leg] += device;
        legLatency[leg].add(device);
    }
    return out;
}

StatSet
Dram::stats() const
{
    StatSet s;
    s.add("reads", static_cast<double>(nReads));
    s.add("writes", static_cast<double>(nWrites));
    s.add("queued_cycles", static_cast<double>(queuedCycles));
    s.add("backfills", static_cast<double>(nBackfills));
    s.add("backfill_queued_cycles",
          static_cast<double>(backfillQueuedCycles));
    // Every access (including zero-delay backfills) feeds the
    // histogram, so this mean is queued_cycles / (reads + writes) —
    // the same identity the simulator's windowed recompute uses.
    s.add("avg_queue_delay", queueDelay.mean());
    // Timing-leg stats: each reads 0 while its leg is off.
    double hits = static_cast<double>(rowCount[kRowHit]);
    double misses = static_cast<double>(rowCount[kRowMiss]);
    double conflicts = static_cast<double>(rowCount[kRowConflict]);
    double accesses = hits + misses + conflicts;
    s.add("row_hits", hits);
    s.add("row_misses", misses);
    s.add("row_conflicts", conflicts);
    s.add("row_accesses", accesses);
    s.add("row_hit_rate", accesses > 0 ? hits / accesses : 0.0);
    static const char *const kLegName[3] = {"hit", "miss",
                                            "conflict"};
    for (int leg = 0; leg < 3; ++leg) {
        // The "row_" prefix stays literal at every add site so
        // the stat lint's name skeletons ("row_*_lat_cycles")
        // can't collide with the read_lat stats.
        std::string p = kLegName[leg];
        s.add("row_" + p + "_reads",
              static_cast<double>(legReads[leg]));
        s.add("row_" + p + "_lat_cycles",
              static_cast<double>(legReadCycles[leg]));
        // Device-leg latency per leg (queue excluded; see
        // rowLegLatency); the windowed recompute rebuilds this
        // from the two raw counters above.
        s.add("avg_row_" + p + "_latency", legLatency[leg].mean());
        // Percentile landmarks of the same distribution.  The
        // _p50/_p95/_p99 suffix marks them as gauges for anything
        // windowing the stat set (percentiles of a cumulative
        // histogram cannot be differenced across snapshots).
        QuantileSummary q = legLatency[leg].quantiles();
        s.add("row_" + p + "_lat_p50",
              static_cast<double>(q.p50));
        s.add("row_" + p + "_lat_p95",
              static_cast<double>(q.p95));
        s.add("row_" + p + "_lat_p99",
              static_cast<double>(q.p99));
    }
    // Full read latency (queue + device): the end-to-end view the
    // per-leg device books deliberately exclude queue from.
    s.add("read_lat_cycles", static_cast<double>(readLatCycles));
    s.add("avg_read_latency",
          nReads > 0
              ? static_cast<double>(readLatCycles) /
                    static_cast<double>(nReads)
              : 0.0);
    s.add("turnarounds", static_cast<double>(nTurnarounds));
    s.add("turnaround_cycles", static_cast<double>(turnaroundStallCycles));
    s.add("refresh_blocked", static_cast<double>(nRefreshBlocked));
    s.add("refresh_stall_cycles", static_cast<double>(refreshStallCycles));
    return s;
}

} // namespace garibaldi
