#include "mem/hierarchy.hh"

#include <algorithm>

#include "common/audit.hh"
#include "common/intmath.hh"
#include "common/logging.hh"
#include "common/stat_kind.hh"
#include "obs/trace.hh"

namespace garibaldi
{

SIM_STATS(MemoryHierarchy,
    SIM_STAT_GATED("llc.banks", gauge, "numBanks"),
    SIM_STAT("mshr_stalls", counter),
    SIM_STAT("coherence_penalty_cycles", counter));

MemoryHierarchy::MemoryHierarchy(const HierarchyParams &params_)
    : params(params_),
      // Only the criticality-filtered instruction partition consults
      // the tracker; other configurations keep a minimal table.
      instrCrit(params_.llc.instrPartitionWays > 0 &&
                        params_.llc.partitionCriticalOnly
                    ? params_.instrCritEntries
                    : 0)
{
    if (params.numCores == 0)
        fatal("hierarchy needs at least one core");
    if (params.coresPerL2 == 0)
        fatal("coresPerL2 must be non-zero");

    std::uint32_t clusters =
        static_cast<std::uint32_t>(divCeil(params.numCores,
                                           params.coresPerL2));
    for (CoreId c = 0; c < params.numCores; ++c) {
        CacheParams p1i = params.l1i;
        p1i.name = "l1i" + std::to_string(c);
        l1is.push_back(std::make_unique<Cache>(p1i));
        CacheParams p1d = params.l1d;
        p1d.name = "l1d" + std::to_string(c);
        l1ds.push_back(std::make_unique<Cache>(p1d));
        l1dPf.push_back(params.l1dNextLinePrefetcher
                            ? std::make_unique<NextLinePrefetcher>(1)
                            : nullptr);
        l1iPf.push_back(params.l1iIspyPrefetcher
                            ? std::make_unique<IspyPrefetcher>()
                            : nullptr);
    }
    for (std::uint32_t cl = 0; cl < clusters; ++cl) {
        CacheParams p2 = params.l2;
        p2.name = "l2." + std::to_string(cl);
        l2s.push_back(std::make_unique<Cache>(p2));
        l2Pf.push_back(params.l2GhbPrefetcher
                           ? std::make_unique<GhbPrefetcher>()
                           : nullptr);
    }
    CacheParams pllc = params.llc;
    pllc.name = "llc";
    pllc.bankServiceCycles = params.llcBankServiceCycles;
    pllc.bankPorts = params.llcBankPorts;
    llcSet = std::make_unique<LlcBankSet>(pllc, params.llcBanks,
                                          params.llcBankInterleaveShift);
    dramModel = std::make_unique<Dram>(params.dram);
    dir = std::make_unique<Directory>(clusters);
}

void
MemoryHierarchy::setLlcCompanion(LlcCompanion *companion_)
{
    companion = companion_;
    llcSet->setCompanion(companion_);
}

void
MemoryHierarchy::addLlcListener(LlcEventListener *listener)
{
    llcListeners.push_back(listener);
}

bool
MemoryHierarchy::instrIsCritical(Addr line_addr)
{
    // Emissary-flavored criticality proxy: instruction lines that miss
    // the LLC repeatedly are the ones stalling the decoders.  The
    // tracker is a bounded decaying table, so arbitrarily long runs see
    // stale lines age out instead of the book growing forever.
    return instrCrit.increment(lineNumber(line_addr)) >= 2;
}

AccessOutcome
MemoryHierarchy::access(const MemAccess &acc, Cycle now)
{
    Transaction txn(acc, now);
    execute(txn);
    return txn.outcome();
}

void
MemoryHierarchy::submitBatch(const TimedAccess *batch, std::size_t count,
                             AccessOutcome *outcomes)
{
    for (std::size_t i = 0; i < count; ++i) {
        Transaction txn(batch[i].acc, batch[i].now);
        execute(txn);
        if (outcomes)
            outcomes[i] = txn.outcome();
    }
}

void
MemoryHierarchy::advanceClockFloor(Cycle floor)
{
    if (floor <= clockFloor)
        return;
    clockFloor = floor;
    for (auto &l2c : l2s)
        l2c->advanceClockFloor(floor);
    if (!llcSet->contentionEnabled())
        for (std::uint32_t b = 0; b < llcSet->numBanks(); ++b)
            llcSet->bank(b).advanceClockFloor(floor);
}

void
MemoryHierarchy::execute(Transaction &txn)
{
    SIM_ASSERT(txn.issued >= clockFloor, "transaction issued at ",
               txn.issued, " precedes the published clock floor ",
               clockFloor);
    txn.cluster = clusterOf(txn.req.core);
    Cache &l1 = txn.req.isInstr ? *l1is[txn.req.core]
                                : *l1ds[txn.req.core];

    if (stageL1Probe(txn, l1)) {
        if (tracer)
            tracer->onTransaction(txn);
        return;
    }

    if (!txn.req.isPrefetch && l1.mshrsFull(txn.issued))
        ++mshrStalls;

    stageL2(txn);
    stageL1Fill(txn, l1);
    stageL1Prefetch(txn);

    // Trace hook: the transaction's legs are final here.  Prefetch
    // sub-transactions spawned above re-enter execute() and trace
    // themselves; the export's canonical (issued, core, seq) merge
    // puts everything back in stream order.
    if (tracer)
        tracer->onTransaction(txn);
}

bool
MemoryHierarchy::stageL1Probe(Transaction &txn, Cache &l1)
{
    if (!l1.access(txn.req))
        return false;
    Cycle ready = l1.pendingReady(txn.lineAddr, txn.issued);
    txn.l1Cycles = l1.latency();
    if (ready > txn.issued + txn.l1Cycles)
        txn.l1Cycles = ready - txn.issued;
    txn.level = HitLevel::L1;
    return true;
}

void
MemoryHierarchy::stageL2(Transaction &txn)
{
    Cache &l2c = *l2s[txn.cluster];
    bool hit = l2c.access(txn.req);

    if (hit) {
        Cycle ready = l2c.pendingReady(txn.lineAddr, txn.issued);
        txn.l2Cycles = l2c.latency();
        if (ready > txn.issued + txn.l2Cycles)
            txn.l2Cycles = ready - txn.issued;
        txn.level = HitLevel::L2;

        // Store into a line shared by another cluster: upgrade.
        if (txn.req.isWrite && !txn.req.isPrefetch &&
            dir->sharerCount(txn.lineAddr) > 1) {
            invalScratch.clear();
            Cycle pen = dir->onUpgrade(txn.lineAddr, txn.cluster,
                                       invalScratch);
            applyInvalidations(invalScratch, txn.lineAddr, txn.issued);
            txn.coherenceCycles += pen;
            coherencePenaltyCycles += pen;
        }
    } else {
        stageLlc(txn);

        if (txn.allocate) {
            Eviction ev = l2c.insert(txn.req);
            if (ev.valid) {
                dir->onEvict(ev.lineAddr, txn.cluster);
                if (ev.dirty)
                    writebackToLlc(ev, txn.req.core, txn.issued);
            }
            l2c.addPending(txn.lineAddr, txn.issued + txn.latency(),
                           txn.issued);

            invalScratch.clear();
            Cycle pen = dir->onFill(txn.lineAddr, txn.cluster,
                                    txn.req.isWrite, invalScratch);
            applyInvalidations(invalScratch, txn.lineAddr, txn.issued);
            txn.coherenceCycles += pen;
            coherencePenaltyCycles += pen;
        }
    }

    // GHB watches demand data traffic at the L2.
    if (!txn.req.isPrefetch && !txn.req.isInstr && l2Pf[txn.cluster])
        issueGhbPrefetches(txn, l2c, hit);
}

void
MemoryHierarchy::stageLlc(Transaction &txn)
{
    Cache &bank = llcSet->bankFor(txn.lineAddr);
    // Bank port arbitration: the probe occupies a tag slot of the
    // owning bank; a transaction arriving while every slot is busy
    // queues, and the wait lands in its load-to-use latency.
    Cycle port_wait = bank.occupyTagPort(txn.issued);

    bool hit = bank.access(txn.req);
    txn.llcAccessed = true;
    txn.llcHit = hit;
    if (tracer)
        txn.llcBank = llcSet->bankOf(txn.lineAddr);

    Cycle fill_ready = 0;
    if (hit) {
        fill_ready = bank.pendingReady(txn.lineAddr, txn.issued);
        // The hit consumes one data-array slot, starting once its tag
        // grant lands.  Like the DRAM channel model, bandwidth is
        // booked in issue order — never at a future completion
        // instant, which would make the scalar busy horizon read as
        // busy across the whole gap and charge phantom waits to
        // intervening accesses.
        port_wait += bank.occupyDataPort(txn.issued + port_wait,
                                         txn.issued);
    } else if (bank.contentionEnabled() && !txn.req.isPrefetch &&
               bank.mshrsFull(txn.issued)) {
        // Only misses allocate an MSHR, and pressure is per bank — the
        // owning bank's book holds a fraction of the whole-LLC budget,
        // so the check must not go through a fixed (monolithic) cache.
        txn.mshrCycles += params.mshrFullPenalty;
        bank.noteMshrStall(params.mshrFullPenalty);
    }
    // Charged before the listener fan-out so monitors observe the
    // full queue delay.
    txn.queueCycles += port_wait;

    if (!txn.req.isPrefetch) {
        for (LlcEventListener *listener : llcListeners)
            listener->onLlcAccess(txn, hit);
        if (companion)
            companion->observeAccess(txn.req, hit, txn.issued);
    }

    if (hit) {
        txn.llcCycles = llcSet->latency();
        // Port waits overlap an in-flight fill's wait; charge
        // whichever dominates, not their sum.
        if (fill_ready > txn.issued + txn.llcCycles + port_wait)
            txn.llcCycles = fill_ready - txn.issued - port_wait;
        txn.level = HitLevel::LLC;
        return;
    }

    stageDramFill(txn);
}

void
MemoryHierarchy::stageDramFill(Transaction &txn)
{
    // Pair-wise prefetch (Fig. 5(c)): triggered while an unprotected
    // demand instruction miss is being served.
    if (companion && !txn.req.isPrefetch && txn.req.isInstr) {
        pfScratch.clear();
        companion->instrMissPrefetch(txn.lineAddr, pfScratch);
        // Indexed loop: no pfScratch writer is reachable from the
        // prefetch path, and indexing stays safe even if that changes.
        for (std::size_t i = 0; i < pfScratch.size(); ++i)
            llcOnlyPrefetch(pfScratch[i], txn.req.core, txn.issued);
    }

    DramAccess fill = dramModel->request(txn.lineAddr, false,
                                         txn.issued);
    txn.dramCycles = fill.latency;
    txn.dramCompletesAt = fill.completesAt;
    txn.dramQueueCycles = fill.queue;
    txn.dramRowLeg = fill.rowLeg;
    txn.dramTurnaround = fill.turned;
    txn.dramRefreshStalled = fill.refreshStalled;
    txn.llcCycles += llcSet->latency();
    txn.level = HitLevel::Mem;
    if (!txn.allocate)
        return;

    if (txn.req.isInstr && llcSet->config().instrPartitionWays > 0 &&
        llcSet->config().partitionCriticalOnly) {
        txn.critical = instrIsCritical(txn.lineAddr);
    }

    Eviction ev = llcSet->insert(txn.req, false, txn.critical);
    if (ev.valid && ev.dirty)
        dramModel->request(ev.lineAddr, true, txn.issued);
    // The fill write consumes one data-array slot.  Bandwidth is booked
    // in issue order (the DRAM model posts writebacks at issue time the
    // same way): booking at the far-future arrival instant would turn
    // the scalar busy horizon into a phantom busy window over the whole
    // DRAM latency.
    txn.queueCycles += llcSet->bankFor(txn.lineAddr)
                           .occupyDataPort(txn.issued, txn.issued);
    if (!(llcSet->oracleFiltersInstr() && txn.req.isInstr)) {
        // The bank's MSHR entry is keyed on the channel: the fill's
        // data leaves DRAM at completesAt — never earlier than the
        // booked service-slot end, even for backfills — and lands one
        // array latency later, so channel backpressure (and no
        // request-path leg such as a port wait) stretches occupancy.
        llcSet->addPending(txn.lineAddr,
                           txn.dramCompletesAt + llcSet->latency(),
                           txn.issued);
    }
    txn.llcCycles += llcSet->drainQbsCycles(txn.lineAddr);
}

void
MemoryHierarchy::stageL1Fill(Transaction &txn, Cache &l1)
{
    // NINE fill into L1; displaced dirty lines write back into L2.
    Eviction ev = l1.insert(txn.req);
    if (ev.valid && ev.dirty)
        writebackToL2(ev, txn.req.core, txn.issued);
    l1.addPending(txn.lineAddr, txn.issued + txn.latency(),
                  txn.issued);

    // Accumulate: an LLC-bank MSHR stall charged earlier in the
    // pipeline must not be overwritten by the L1's own penalty.
    if (!txn.req.isPrefetch && l1.mshrsFull(txn.issued))
        txn.mshrCycles += params.mshrFullPenalty;
}

void
MemoryHierarchy::stageL1Prefetch(Transaction &txn)
{
    if (txn.req.isPrefetch)
        return;
    CoreId core = txn.req.core;
    Prefetcher *pf = nullptr;
    if (txn.req.isInstr && l1iPf[core])
        pf = l1iPf[core].get();
    else if (!txn.req.isInstr && l1dPf[core])
        pf = l1dPf[core].get();
    if (!pf)
        return;

    pfScratch.clear();
    pf->observe(txn.req, false, pfScratch);

    // Issue the candidates as fresh transactions.  Prefetch
    // transactions never re-enter this stage nor any other pfScratch
    // writer, so iterating the scratch buffer directly is safe and the
    // walk terminates.
    for (std::size_t i = 0; i < pfScratch.size(); ++i) {
        MemAccess acc;
        acc.core = core;
        acc.paddr = pfScratch[i];
        acc.isInstr = txn.req.isInstr;
        acc.isPrefetch = true;
        Transaction sub(acc, txn.issued);
        execute(sub);
    }
}

void
MemoryHierarchy::issueGhbPrefetches(const Transaction &txn, Cache &l2c,
                                    bool l2_hit)
{
    pfScratch.clear();
    l2Pf[txn.cluster]->observe(txn.req, l2_hit, pfScratch);
    // Indexed loop: see stageDramFill's pair-prefetch note.
    for (std::size_t i = 0; i < pfScratch.size(); ++i) {
        Addr a = pfScratch[i];
        MemAccess acc;
        acc.core = txn.req.core;
        acc.paddr = a;
        acc.isPrefetch = true;
        if (l2c.access(acc))
            continue;
        // GHB targets the L2: pass through the LLC without allocating
        // there.
        Transaction sub(acc, txn.issued);
        sub.cluster = txn.cluster;
        stageLlc(sub);
        Eviction ev = l2c.insert(acc);
        if (ev.valid) {
            dir->onEvict(ev.lineAddr, txn.cluster);
            if (ev.dirty)
                writebackToLlc(ev, txn.req.core, txn.issued);
        }
        l2c.addPending(lineAlign(a), txn.issued + sub.latency(),
                       txn.issued);
    }
}

void
MemoryHierarchy::llcOnlyPrefetch(Addr line_addr, CoreId core, Cycle now)
{
    MemAccess pf;
    pf.core = core;
    pf.paddr = line_addr;
    pf.isPrefetch = true;
    Cache &bank = llcSet->bankFor(lineAlign(line_addr));
    // The probe is a real tag lookup: it competes for the bank's tag
    // slots even though nothing waits on a prefetch.
    bank.occupyTagPort(now);
    if (llcSet->access(pf))
        return;
    DramAccess fill = dramModel->request(lineAlign(line_addr), false,
                                         now);
    Eviction ev = llcSet->insert(pf);
    if (ev.valid && ev.dirty)
        dramModel->request(ev.lineAddr, true, now);
    // Prefetch fills consume data-array bandwidth like demand fills
    // (booked in issue order); nobody waits on them, so the delay
    // charges no transaction.
    bank.occupyDataPort(now, now);
    // Same MSHR book as demand fills: the channel's booked completion.
    llcSet->addPending(lineAlign(line_addr),
                       fill.completesAt + llcSet->latency(), now);
}

void
MemoryHierarchy::writebackToLlc(const Eviction &ev, CoreId core,
                                Cycle now)
{
    // Writebacks arbitrate for the owning bank's tag array like any
    // other probe and write the data array whether they merge into a
    // resident line or allocate below; the wait delays no demand
    // transaction.
    Cache &bank = llcSet->bankFor(lineAlign(ev.lineAddr));
    bank.occupyTagPort(now);
    bank.occupyDataPort(now, now);
    if (llcSet->contains(ev.lineAddr)) {
        llcSet->setDirty(ev.lineAddr);
        return;
    }
    // Allocate-on-writeback; flagged as prefetch so predictive policies
    // treat the unproven line as far-reuse.
    MemAccess wb;
    wb.core = core;
    wb.paddr = ev.lineAddr;
    wb.isInstr = ev.isInstr;
    wb.isPrefetch = true;
    Eviction displaced = llcSet->insert(wb, /*dirty=*/true);
    if (displaced.valid && displaced.dirty)
        dramModel->request(displaced.lineAddr, true, now);
}

void
MemoryHierarchy::writebackToL2(const Eviction &ev, CoreId core, Cycle now)
{
    std::uint32_t cluster = clusterOf(core);
    Cache &l2c = *l2s[cluster];
    if (l2c.contains(ev.lineAddr)) {
        l2c.setDirty(ev.lineAddr);
        return;
    }
    MemAccess wb;
    wb.core = core;
    wb.paddr = ev.lineAddr;
    wb.isInstr = ev.isInstr;
    wb.isPrefetch = true;
    Eviction displaced = l2c.insert(wb, /*dirty=*/true);
    if (displaced.valid) {
        dir->onEvict(displaced.lineAddr, cluster);
        if (displaced.dirty)
            writebackToLlc(displaced, core, now);
    }
    invalScratch.clear();
    dir->onFill(ev.lineAddr, cluster, /*is_write=*/true, invalScratch);
    applyInvalidations(invalScratch, ev.lineAddr, now);
}

void
MemoryHierarchy::applyInvalidations(
    const std::vector<std::uint32_t> &clusters, Addr line_addr, Cycle now)
{
    for (std::uint32_t cl : clusters) {
        // The directory already dropped these sharers when it issued
        // the invalidation list; only the cached copies remain.
        bool dirty = l2s[cl]->invalidate(line_addr);
        if (dirty) {
            Eviction ev;
            ev.valid = true;
            ev.lineAddr = lineAlign(line_addr);
            ev.dirty = true;
            writebackToLlc(ev, cl * params.coresPerL2, now);
        }
        CoreId first = cl * params.coresPerL2;
        CoreId last = std::min<CoreId>(first + params.coresPerL2,
                                       params.numCores);
        for (CoreId c = first; c < last; ++c) {
            l1ds[c]->invalidate(line_addr);
            l1is[c]->invalidate(line_addr);
        }
    }
}

StatSet
MemoryHierarchy::stats() const
{
    StatSet s;
    CacheStats l1i_sum, l1d_sum, l2_sum;
    for (const auto &c : l1is)
        l1i_sum.accumulate(c->stats());
    for (const auto &c : l1ds)
        l1d_sum.accumulate(c->stats());
    for (const auto &c : l2s)
        l2_sum.accumulate(c->stats());
    s.addAll("l1i.", l1i_sum.toStatSet());
    s.addAll("l1d.", l1d_sum.toStatSet());
    s.addAll("l2.", l2_sum.toStatSet());
    s.addAll("llc.", llcSet->stats().toStatSet());
    if (llcSet->numBanks() > 1) {
        s.add("llc.banks", static_cast<double>(llcSet->numBanks()));
        for (std::uint32_t b = 0; b < llcSet->numBanks(); ++b)
            s.addAll("llc.bank" + std::to_string(b) + ".",
                     llcSet->bank(b).stats().toStatSet());
    }
    s.addAll("dram.", dramModel->stats());
    s.addAll("dir.", dir->stats());
    s.add("mshr_stalls", static_cast<double>(mshrStalls));
    s.add("coherence_penalty_cycles",
          static_cast<double>(coherencePenaltyCycles));
    return s;
}

} // namespace garibaldi
