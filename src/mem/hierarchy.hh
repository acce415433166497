/**
 * @file
 * Full memory hierarchy of the modeled machine (Table 1): per-core
 * L1I/L1D, an L2 shared by each 4-core cluster, a non-inclusive banked
 * LLC shared by all cores, a MESI directory, hardware prefetchers (L1D
 * next-line, L2 GHB, L1I I-SPY-like) and DDR5 DRAM.
 *
 * Accesses flow through an explicit staged pipeline over a first-class
 * Transaction (transaction.hh):
 *
 *   L1 probe → L2 probe → LLC probe → DRAM fill → upkeep
 *
 * Each stage records its timing leg on the transaction; writebacks,
 * directory invalidations and prefetch issue are explicit upkeep steps
 * rather than recursion.  The LLC exposes the Garibaldi companion hooks
 * and a virtual-listener fan-out used by the characterization monitors
 * (Fig. 3/4 reproduction).
 */

#ifndef GARIBALDI_MEM_HIERARCHY_HH
#define GARIBALDI_MEM_HIERARCHY_HH

#include <memory>
#include <vector>

#include "common/sharing.hh"
#include "mem/cache.hh"
#include "mem/coherence.hh"
#include "mem/dram.hh"
#include "mem/flat_tables.hh"
#include "mem/llc_bank_set.hh"
#include "mem/prefetch/ghb.hh"
#include "mem/prefetch/ispy.hh"
#include "mem/prefetch/next_line.hh"
#include "mem/transaction.hh"

namespace garibaldi
{

class Tracer;

/** Topology and per-level parameters. */
struct HierarchyParams
{
    std::uint32_t numCores = 8;
    std::uint32_t coresPerL2 = 4;
    CacheParams l1i;
    CacheParams l1d;
    CacheParams l2;
    CacheParams llc;
    DramParams dram;
    bool l1dNextLinePrefetcher = true;
    bool l2GhbPrefetcher = true;
    bool l1iIspyPrefetcher = true;
    /** Extra stall cycles charged when a cache's MSHRs are full. */
    Cycle mshrFullPenalty = 8;

    /** LLC bank count (power of two; 1 = monolithic seed behavior). */
    std::uint32_t llcBanks = 1;
    /** Line-number bit where LLC bank interleaving starts. */
    std::uint32_t llcBankInterleaveShift = 0;
    /**
     * Per-bank contention model: tag/data slot occupancy per access in
     * cycles (0 = off; timing identical to the uncontended hierarchy)
     * and ports per bank array.  When on, transactions arriving at a
     * busy bank queue, and LLC MSHR pressure is charged per bank.
     */
    Cycle llcBankServiceCycles = 0;
    std::uint32_t llcBankPorts = 1;
    /** Tracked lines in the bounded instruction-criticality table. */
    std::uint32_t instrCritEntries = 32768;
};

/** The assembled cache/memory system. */
class MemoryHierarchy
{
  public:
    explicit MemoryHierarchy(const HierarchyParams &params);

    /** Service a demand access; returns the load-to-use outcome. */
    AccessOutcome access(const MemAccess &acc, Cycle now);

    /**
     * Service @p count demand accesses in submission order — exactly
     * equivalent to calling access() on each element in turn (pinned by
     * the batch-identity unit test); the batch entry exists so drivers
     * with a ready run of accesses amortize the per-call overhead into
     * one hierarchy crossing.  When @p outcomes is non-null it receives
     * one entry per element.
     */
    void submitBatch(const TimedAccess *batch, std::size_t count,
                     AccessOutcome *outcomes = nullptr);

    /** Run @p txn through the staged pipeline. */
    void execute(Transaction &txn);

    /**
     * Clock-floor contract: the driver promises that every transaction
     * it submits from now on is issued at or after @p floor (audit mode
     * checks it in execute()).  Monotone; lower values are ignored.
     *
     * The floor lets the MSHR books that are only asked pendingReady()
     * — the L2s, and the LLC banks when the bank contention model is
     * off — drop completed fills, which keeps them at O(fills in
     * flight) on long runs; their answers cannot change.  The L1s and
     * a contention-mode LLC, which also ask mshrsFull(), keep the
     * fallback expiry horizon: the contention LLC asks it on many
     * cores' clocks, where dropping an entry can change which lazy
     * prune fires.  Drivers that never publish a floor get the
     * fallback everywhere.
     */
    void advanceClockFloor(Cycle floor);

    /** Attach the Garibaldi module to the LLC banks. */
    void setLlcCompanion(LlcCompanion *companion);

    /** Subscribe to demand LLC accesses (monitors). */
    void addLlcListener(LlcEventListener *listener);

    /**
     * Attach the transaction tracer (obs/trace.hh); null detaches.
     * When unset (the default) the only cost on the access path is
     * one predictable null-pointer branch per finished transaction.
     */
    void setTracer(Tracer *t) { tracer = t; }

    std::uint32_t clusterOf(CoreId core) const
    {
        return core / params.coresPerL2;
    }
    std::uint32_t numClusters() const
    {
        return static_cast<std::uint32_t>(l2s.size());
    }

    Cache &l1i(CoreId core) { return *l1is.at(core); }
    Cache &l1d(CoreId core) { return *l1ds.at(core); }
    Cache &l2(std::uint32_t cluster) { return *l2s.at(cluster); }
    LlcBankSet &llc() { return *llcSet; }
    const LlcBankSet &llc() const { return *llcSet; }
    Dram &dram() { return *dramModel; }
    Directory &directory() { return *dir; }

    /** Aggregated statistics across all levels. */
    StatSet stats() const;

    const HierarchyParams &config() const { return params; }

  private:
    // ---- pipeline stages ---------------------------------------------
    /** L1 probe; @return true when the access was serviced there. */
    bool stageL1Probe(Transaction &txn, Cache &l1);
    /** L2 probe + descent into the LLC/DRAM stages on a miss. */
    void stageL2(Transaction &txn);
    /** LLC probe: listener/companion fan-out, hit leg, miss descent. */
    void stageLlc(Transaction &txn);
    /** LLC miss tail: pairwise prefetch, DRAM read, LLC fill. */
    void stageDramFill(Transaction &txn);
    /** L1 fill + writeback upkeep + MSHR-pressure penalty. */
    void stageL1Fill(Transaction &txn, Cache &l1);
    /** Collect + issue L1-attached prefetcher candidates. */
    void stageL1Prefetch(Transaction &txn);

    // ---- upkeep helpers ----------------------------------------------
    void issueGhbPrefetches(const Transaction &txn, Cache &l2c,
                            bool l2_hit);
    void llcOnlyPrefetch(Addr line_addr, CoreId core, Cycle now);
    void writebackToLlc(const Eviction &ev, CoreId core, Cycle now);
    void writebackToL2(const Eviction &ev, CoreId core, Cycle now);
    void applyInvalidations(const std::vector<std::uint32_t> &clusters,
                            Addr line_addr, Cycle now);
    bool instrIsCritical(Addr line_addr);

    // Sharing classification: the component *handles* are wired at
    // construction and never reseated (shared-const); the mutable state
    // lives inside the pointed-to components, which carry their own
    // classifications.  Scratch buffers and the criticality table are
    // touched only by the worker driving this hierarchy's transaction.
    SIM_SHARED_CONST HierarchyParams params;
    SIM_SHARED_CONST std::vector<std::unique_ptr<Cache>> l1is;
    SIM_SHARED_CONST std::vector<std::unique_ptr<Cache>> l1ds;
    SIM_SHARED_CONST std::vector<std::unique_ptr<Cache>> l2s;
    SIM_SHARED_CONST std::unique_ptr<LlcBankSet> llcSet;
    SIM_SHARED_CONST std::unique_ptr<Dram> dramModel;
    SIM_SHARED_CONST std::unique_ptr<Directory> dir;
    SIM_SHARED_CONST std::vector<std::unique_ptr<NextLinePrefetcher>> l1dPf;
    SIM_SHARED_CONST std::vector<std::unique_ptr<IspyPrefetcher>> l1iPf;
    SIM_SHARED_CONST std::vector<std::unique_ptr<GhbPrefetcher>> l2Pf;
    SIM_SHARED_CONST LlcCompanion *companion = nullptr;
    SIM_SHARED_CONST Tracer *tracer = nullptr;
    SIM_SHARED_CONST std::vector<LlcEventListener *> llcListeners;
    SIM_PER_WORKER std::vector<Addr> pfScratch; // prefetch scratch
    SIM_PER_WORKER std::vector<std::uint32_t>
        invalScratch; // directory sharer lists
    SIM_PER_WORKER DecayingCounterTable instrCrit;
    /** Published clock floor: a lower bound on every later issue. */
    SIM_PER_WORKER Cycle clockFloor = 0;
    SIM_EPOCH_MERGED(sum) std::uint64_t mshrStalls = 0;
    SIM_EPOCH_MERGED(sum) std::uint64_t coherencePenaltyCycles = 0;
};

} // namespace garibaldi

#endif // GARIBALDI_MEM_HIERARCHY_HH
