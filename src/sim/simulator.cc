#include "sim/simulator.hh"

#include <algorithm>
#include <queue>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "garibaldi/garibaldi.hh"
#include "obs/telemetry.hh"
#include "obs/trace.hh"
#include "sim/metrics.hh"

namespace garibaldi
{

double
SimResult::ipcSum() const
{
    double s = 0;
    for (const auto &c : cores)
        s += c.ipc;
    return s;
}

double
SimResult::ipcHarmonicMean() const
{
    if (cores.empty())
        return 0;
    double denom = 0;
    for (const auto &c : cores) {
        if (c.ipc <= 0)
            return 0;
        denom += 1.0 / c.ipc;
    }
    return static_cast<double>(cores.size()) / denom;
}

CpiStack
SimResult::totalCpi() const
{
    CpiStack total;
    for (const auto &c : cores)
        total.merge(c.cpi);
    return total;
}

Cycle
SimResult::ifetchStallCycles() const
{
    return totalCpi().ifetchCycles();
}

Simulator::Simulator(System &system)
    : sys(system)
{
}

std::uint64_t
Simulator::instructionsRetired() const
{
    std::uint64_t total = 0;
    for (CoreId c = 0; c < sys.numCores(); ++c)
        total += sys.core(c).stats().instructions;
    return total;
}

void
Simulator::telemetrySample(TelemetrySink &telemetry, Cycle now)
{
    StatSet gari;
    if (sys.garibaldi())
        gari = sys.garibaldi()->stats();
    telemetry.sample(now, sys.hierarchy().stats(), gari,
                     instructionsRetired());
}

void
Simulator::runWindow(std::uint64_t instructions_per_core,
                     TelemetrySink *telemetry)
{
    // Advance whichever core is earliest in simulated time, so accesses
    // from different cores interleave at the shared levels the way they
    // would on real hardware.  Ties break on core id => deterministic.
    using HeapEntry = std::pair<Cycle, CoreId>;
    std::priority_queue<HeapEntry, std::vector<HeapEntry>,
                        std::greater<>> heap;
    std::vector<std::uint64_t> remaining(sys.numCores(),
                                         instructions_per_core);
    for (CoreId c = 0; c < sys.numCores(); ++c)
        heap.emplace(sys.core(c).now(), c);

    // Ops are pulled from each core's stream a chunk at a time (one
    // virtual fill() per chunk instead of one next() per op).  Each
    // core's op sequence is exactly what per-op next() calls would
    // produce — streams are per-core, so interleaving fetches across
    // cores differently from execution order is invisible — and a
    // buffer never outlives the window: fetched ops never exceed the
    // window's per-core quota, and the loop drains remaining[] to zero.
    constexpr std::size_t kOpChunk = 64;
    std::vector<std::vector<MicroOp>> opBuf(sys.numCores());
    std::vector<std::size_t> opCursor(sys.numCores(), 0);
    std::vector<std::uint64_t> unfetched(sys.numCores(),
                                         instructions_per_core);
    for (CoreId c = 0; c < sys.numCores(); ++c)
        opBuf[c].reserve(kOpChunk);

    // The popped core runs until it passes the next-earliest core's
    // clock (plus a small hysteresis that amortizes heap traffic).
    // While every core still has quota this keeps cross-core skew
    // bounded by one instruction's stall, which the DRAM bandwidth
    // model needs for sane queueing.  The exception is a window's
    // end: a core whose quota runs out leaves the heap, and the rest
    // run on alone until theirs do, so at the boundary core clocks
    // spread far past the hysteresis (about 2.5% of the cycles of a
    // 4-core lbm run) and the finished cores contend for nothing in
    // that tail.
    constexpr Cycle kHysteresis = 32;
    // Earliest clock among cores whose quota for this window ran out:
    // they resume from it in the next window.
    Cycle parked = ~Cycle{0};

    while (!heap.empty()) {
        auto [when, c] = heap.top();
        heap.pop();
        // The popped clock is a monotone non-decreasing lower bound on
        // global simulated time (every other core is at or beyond it),
        // which makes it the natural telemetry boundary: every event
        // counted before this point happened before `when` plus at most
        // the bounded cross-core skew.
        if (telemetry && when >= telemetry->dueAt())
            telemetrySample(*telemetry, when);
        // Every access issues at its core's clock and clocks only
        // advance, so the earliest clock of any core that will still
        // run — those in the heap and those parked until the next
        // window — bounds every later transaction.
        sys.hierarchy().advanceClockFloor(std::min(when, parked));
        CoreModel &core = sys.core(c);
        MicroOpStream &stream = sys.stream(c);
        Cycle horizon = (heap.empty() ? core.now() + 100000
                                      : heap.top().first) + kHysteresis;
        while (remaining[c] > 0 && core.now() <= horizon) {
            if (opCursor[c] == opBuf[c].size()) {
                std::size_t n = static_cast<std::size_t>(
                    std::min<std::uint64_t>(kOpChunk, unfetched[c]));
                opBuf[c].resize(n);
                stream.fill(opBuf[c].data(), n);
                unfetched[c] -= n;
                opCursor[c] = 0;
            }
            core.step(opBuf[c][opCursor[c]++]);
            --remaining[c];
        }
        if (remaining[c] > 0)
            heap.emplace(core.now(), c);
        else
            parked = std::min(parked, core.now());
    }
}

SimResult
Simulator::run(std::uint64_t warmup_per_core,
               std::uint64_t detailed_per_core)
{
    if (detailed_per_core == 0)
        fatal("detailed window must be non-zero");

    if (warmup_per_core > 0)
        runWindow(warmup_per_core);

    // Snapshot shared-structure stats so the detailed window reports
    // only its own events; cores have explicit reset support.
    StatSet mem_before = sys.hierarchy().stats();
    StatSet gari_before;
    if (sys.garibaldi())
        gari_before = sys.garibaldi()->stats();
    auto sum_tlb = [this]() {
        StatSet agg;
        for (CoreId c = 0; c < sys.numCores(); ++c) {
            StatSet per_core = sys.core(c).tlbs().stats();
            for (const auto &[name, value] : per_core.entries()) {
                double prev = agg.has(name) ? agg.get(name) : 0.0;
                agg.add(name, prev + value);
            }
        }
        return agg;
    };
    StatSet tlb_before = sum_tlb();
    for (CoreId c = 0; c < sys.numCores(); ++c)
        sys.core(c).resetStats();

    // Observability opens with the measurement window: the tracer is
    // deaf through warmup (records would never be reported anyway) and
    // the telemetry sink's first window starts at the earliest core
    // clock — the same instant the snapshots above were taken, so its
    // deltas are exact window deltas.
    ObsSubsystem *obs = sys.obs();
    TelemetrySink *telemetry = obs ? obs->telemetry() : nullptr;
    if (obs && obs->tracer())
        obs->tracer()->setMeasuring(true);
    if (telemetry) {
        Cycle start = sys.core(0).now();
        for (CoreId c = 1; c < sys.numCores(); ++c)
            start = std::min(start, sys.core(c).now());
        telemetry->begin(start, mem_before, gari_before, 0);
    }

    runWindow(detailed_per_core, telemetry);

    SimResult res;
    for (CoreId c = 0; c < sys.numCores(); ++c) {
        const CoreStats &cs = sys.core(c).stats();
        CoreResult cr;
        cr.instructions = cs.instructions;
        cr.cycles = sys.core(c).windowCycles();
        cr.ipc = cs.ipc(cr.cycles);
        cr.cpi = cs.cpi;
        cr.branches = cs.branches;
        cr.mispredicts = cs.mispredicts;
        cr.loads = cs.loads;
        cr.stores = cs.stores;
        cr.ifetchLines = cs.ifetchLines;
        res.cores.push_back(cr);
    }

    // Counter stats subtract cleanly; derived rates do NOT (a
    // difference of ratios is not the ratio of differences), and
    // gauges (point-in-time readings) must not be differenced at all.
    // windowedStatDelta (sim/metrics.hh) applies the full discipline —
    // shared with the telemetry sink's per-window records so the two
    // reports can never drift apart.
    res.mem = windowedStatDelta(sys.hierarchy().stats(), mem_before);
    if (sys.garibaldi()) {
        // helper.coverage flows through the same safeRate recompute as
        // the hierarchy rates; the threshold unit's gauges keep their
        // end-of-window readings via their declared kind (a difference
        // of two gauge readings is noise — quickstart used to print it
        // as such).
        res.garibaldi =
            windowedStatDelta(sys.garibaldi()->stats(), gari_before);
    }
    res.tlb = subtractCounters(sum_tlb(), tlb_before);

    if (obs) {
        if (telemetry) {
            // Flush the final partial window at the latest core clock —
            // the instant the last event of the run could have landed.
            Cycle end = sys.core(0).now();
            for (CoreId c = 1; c < sys.numCores(); ++c)
                end = std::max(end, sys.core(c).now());
            StatSet gari_now;
            if (sys.garibaldi())
                gari_now = sys.garibaldi()->stats();
            telemetry->finish(end, sys.hierarchy().stats(), gari_now,
                              instructionsRetired());
        }
        if (obs->tracer())
            obs->tracer()->setMeasuring(false);
        obs->writeOutputs();
        res.obs = obs->stats();
    }
    return res;
}

} // namespace garibaldi
