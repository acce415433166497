/**
 * @file
 * Set-associative cache with pluggable replacement, MSHR-style pending
 * miss merging, per-line instruction bits, optional way partitioning
 * (Fig. 14(d) baseline), the instruction-oracle mode of Fig. 3(d), and
 * the Garibaldi companion hooks (QBS protection + pairwise prefetch).
 *
 * The pending-fill book and the oracle's seen-set are open-addressed
 * flat tables (flat_tables.hh): no node allocation or hashing through
 * std::unordered_map on the access path.
 */

#ifndef GARIBALDI_MEM_CACHE_HH
#define GARIBALDI_MEM_CACHE_HH

#include <cstddef>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "common/sharing.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "mem/cache_line.hh"
#include "mem/flat_tables.hh"
#include "mem/llc_companion.hh"
#include "mem/policy/replacement.hh"
#include "mem/request.hh"

namespace garibaldi
{

/** Static configuration of one cache. */
struct CacheParams
{
    std::string name = "cache";
    std::uint64_t sizeBytes = 32 * 1024;
    std::uint32_t assoc = 8;
    Cycle latency = 3;        //!< hit latency in cycles
    std::uint32_t mshrs = 10; //!< outstanding distinct line misses
    PolicyKind policy = PolicyKind::LRU;
    PolicyParams policyParams{};

    /** LLC ways per set reserved for (critical) instruction lines. */
    std::uint32_t instrPartitionWays = 0;
    /** Partition admits only criticality-marked instruction lines. */
    bool partitionCriticalOnly = false;
    /** Fig. 3(d) I-oracle: instructions always hit after first touch. */
    bool instrOracle = false;

    /**
     * Bank-interleaving splice: when this cache is one bank of an
     * interleaved set, @c indexSkipBits bank-select bits starting at
     * line-number bit @c indexSkipShift are removed from the set index
     * (the tag keeps the full line number).  Zero bits = monolithic
     * indexing, bit-identical to the unbanked cache.
     */
    std::uint32_t indexSkipShift = 0;
    std::uint32_t indexSkipBits = 0;

    /**
     * Bank contention model (LLC banks): when @c bankServiceCycles is
     * non-zero, every tag probe occupies one of @c bankPorts tag-array
     * slots for that many cycles, and every hit read or fill write
     * occupies a data-array slot likewise.  A request finding all slots
     * busy queues until the earliest one frees and reports the wait.
     * Zero (the default) disables the model entirely: no occupancy is
     * tracked and timing is bit-identical to the uncontended cache.
     */
    Cycle bankServiceCycles = 0;
    std::uint32_t bankPorts = 1;
};

/** Aggregate counters of one cache. */
struct CacheStats
{
    std::uint64_t accesses = 0;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t instrAccesses = 0;
    std::uint64_t instrHits = 0;
    std::uint64_t instrMisses = 0;
    std::uint64_t writebacksOut = 0;  //!< dirty lines pushed below
    std::uint64_t evictions = 0;
    std::uint64_t instrEvictions = 0;
    std::uint64_t prefetchInserts = 0;
    std::uint64_t prefetchUseful = 0; //!< demand hit on prefetched line
    std::uint64_t mshrMerges = 0;     //!< demand found line in flight
    std::uint64_t qbsQueries = 0;
    std::uint64_t qbsProtections = 0;
    std::uint64_t partitionInstrInserts = 0;

    // Bank-contention counters (all zero when the model is off).
    std::uint64_t bankReservations = 0; //!< tag/data slot grants
    std::uint64_t bankBackfills = 0;    //!< out-of-order grants in past capacity
    std::uint64_t queuedAccesses = 0;   //!< grants that had to wait
    std::uint64_t tagQueueCycles = 0;   //!< cycles queued for a tag slot
    std::uint64_t dataQueueCycles = 0;  //!< cycles queued for a data slot
    std::uint64_t mshrStallCycles = 0;  //!< per-bank MSHR-full penalties

    double hitRate() const
    {
        return accesses ? static_cast<double>(hits) / accesses : 0.0;
    }
    double instrMissRate() const
    {
        return instrAccesses
            ? static_cast<double>(instrMisses) / instrAccesses : 0.0;
    }

    /** Add every counter of @p other into this (bank aggregation). */
    void accumulate(const CacheStats &other);

    StatSet toStatSet() const;
};

/** What an insertion displaced (for writebacks and directory upkeep). */
struct Eviction
{
    bool valid = false;
    Addr lineAddr = 0;
    bool dirty = false;
    bool isInstr = false;
};

/** Set-associative cache. */
class Cache
{
  public:
    explicit Cache(const CacheParams &params);

    /**
     * Demand or prefetch lookup.  Updates replacement state and stats.
     * @return true on hit.  Oracle-mode instruction accesses are
     * resolved against the oracle set instead of the arrays.
     */
    bool access(const MemAccess &acc);

    /** Probe without any state change (tests, directory checks). */
    bool contains(Addr line_addr) const;

    /**
     * Insert the line for @p acc, evicting if needed.
     * @param dirty insert in dirty state (writeback allocation)
     * @param critical instruction criticality mark (partition filter)
     * @return what was displaced
     */
    Eviction insert(const MemAccess &acc, bool dirty = false,
                    bool critical = false);

    /** Mark a resident line dirty (store hit / writeback hit). */
    void setDirty(Addr line_addr);

    /** Invalidate a resident line (coherence). @return was dirty. */
    bool invalidate(Addr line_addr);

    /**
     * Record an in-flight miss for @p line completing at @p ready.
     * The entry occupies one MSHR until @p ready passes (pruned
     * lazily), so what the caller books here is what mshrsFull()
     * measures: the LLC banks book the DRAM channel's fill completion
     * instant, making MSHR pressure track real memory backpressure.
     *
     * @param now the caller's clock when it is booking; audit mode
     *        checks the booked completion never lies in the past
     *        (ready >= now), which every timing path guarantees and
     *        the PR-5 completesAt fix restored for backfills.  The
     *        default 0 keeps clockless callers (tests, warm state
     *        seeding) working — the check degenerates to ready >= 0.
     */
    void addPending(Addr line_addr, Cycle ready, Cycle now = 0);

    /**
     * Completion time of an in-flight fill of @p line, or 0 when none.
     * Entries whose time passed are pruned.
     */
    Cycle pendingReady(Addr line_addr, Cycle now);

    /** True when all MSHRs are busy at @p now. */
    bool mshrsFull(Cycle now);

    /**
     * Promise that no later pendingReady()/mshrsFull() query runs at a
     * clock below @p floor, letting the MSHR book drop fills that
     * completed at or before it (PendingTable::advanceFloor).
     */
    void advanceClockFloor(Cycle floor) { pending.advanceFloor(floor); }
    /** Entries held by the MSHR book, live or already completed. */
    std::size_t pendingEntries() const { return pending.size(); }

    // ---- bank contention model (bankServiceCycles > 0) ---------------
    /** The contention model is active on this cache. */
    bool contentionEnabled() const { return params.bankServiceCycles > 0; }
    /**
     * Occupy a tag-array slot for one probe arriving at @p now.
     * @return cycles queued behind earlier occupants (0 when a slot is
     * free or the model is off).
     */
    Cycle
    occupyTagPort(Cycle now)
    {
        if (!contentionEnabled())
            return 0;
        return reserveSlot(tagBusyUntil, now, now, stat.tagQueueCycles);
    }
    /**
     * Occupy a data-array slot (hit read / fill write) starting at
     * @p at on behalf of a transaction issued at @p issued (the
     * backfill ordering clock).  Callers book bandwidth in issue
     * order — @p at trails @p issued by at most a tag-grant wait;
     * booking at a far-future completion instant would turn the
     * scalar busy horizon into a phantom busy window.  Returns 0 when
     * the model is off, like occupyTagPort().
     */
    Cycle
    occupyDataPort(Cycle at, Cycle issued)
    {
        if (!contentionEnabled())
            return 0;
        return reserveSlot(dataBusyUntil, at, issued,
                           stat.dataQueueCycles);
    }
    /** Record @p penalty cycles of MSHR-full stall against this bank. */
    void noteMshrStall(Cycle penalty) { stat.mshrStallCycles += penalty; }

    /** Attach the Garibaldi module (LLC only). */
    void setCompanion(LlcCompanion *companion);

    /** Extra cycles accumulated by QBS queries since last drain. */
    Cycle drainQbsCycles();

    /** Oracle-mode: does this cache filter instruction insertions? */
    bool oracleFiltersInstr() const { return params.instrOracle; }

    std::uint32_t numSets() const { return nSets; }
    std::uint32_t assoc() const { return params.assoc; }
    Cycle latency() const { return params.latency; }
    const CacheParams &config() const { return params; }
    const CacheStats &stats() const { return stat; }
    ReplacementPolicy &policy() { return repl; }

    /** Line metadata at (set, way); for tests and monitors. */
    const CacheLine &lineAt(std::uint32_t set, std::uint32_t way) const;

    /** Set index of a line address. */
    std::uint32_t setOf(Addr line_addr) const;

  private:
    /** Sentinel for an invalid frame in the probe array (line numbers
     *  are < 2^58, so it can never collide with a real tag). */
    static constexpr Addr kInvalidProbeTag = ~Addr{0};
    /** Alignment of the set store: every set block starts on a host
     *  cache line (block sizes are multiples of 64 for assoc % 2 == 0). */
    static constexpr std::size_t kSetAlign = 64;

    /** Frees the aligned set store. */
    struct AlignedDelete
    {
        void
        operator()(std::byte *p) const
        {
            ::operator delete[](p, std::align_val_t{kSetAlign});
        }
    };

    /** The set's probe-tag row (assoc entries). */
    Addr *probeRow(std::uint32_t set) const;
    /** The set's frames (assoc entries). */
    CacheLine *frameRow(std::uint32_t set) const;

    /** Validated set count of @p params (fatal on a bad geometry). */
    static std::uint32_t setCount(const CacheParams &params);
    Cycle reserveSlot(std::vector<Cycle> &busy_until, Cycle at,
                      Cycle issued, std::uint64_t &queue_cycles);
    /** Way of @p tag in @p set, or assoc when absent (probe array). */
    std::uint32_t probeWay(std::uint32_t set, Addr tag) const;
    /**
     * Fused insert-path scan: one pass over the set's probe row finds
     * the resident way of @p tag (or assoc) and, in the same pass, the
     * lowest invalid way (or assoc) via @p first_invalid — the
     * residency check and the invalid-way victim scan share the scan.
     */
    std::uint32_t probeWayAndInvalid(std::uint32_t set, Addr tag,
                                     std::uint32_t &first_invalid) const;
    CacheLine *findInSet(std::uint32_t set, Addr tag);
    CacheLine *findLine(Addr line_addr);
    const CacheLine *findLine(Addr line_addr) const;
    CacheLine &frame(std::uint32_t set, std::uint32_t way);
    std::uint32_t pickVictim(std::uint32_t set, const MemAccess &acc,
                             bool instr_class,
                             std::uint32_t first_invalid);
    std::uint32_t pickPartitionVictim(std::uint32_t set, bool instr_class);

    // Sharing classification (src/common/sharing.hh): a Cache instance
    // is owned by exactly one worker between epoch barriers — caches
    // are sharded by level/bank, so everything that mutates per access
    // is SIM_PER_WORKER; only the aggregate stats merge across shards.
    SIM_SHARED_CONST CacheParams params;
    SIM_SHARED_CONST std::uint32_t nSets;
    /**
     * Set-major frame storage, one block per set: the set's probe row —
     * per-frame line-number tags, kInvalidProbeTag when the frame is
     * invalid — followed by its CacheLine frames.  The per-access tag
     * scan touches only the probe row (one or two host cache lines),
     * and the frame it then reads or fills sits in the same block, so
     * a probe and its frame share a page rather than living in two
     * arrays megabytes apart.  The frames stay authoritative for
     * everything but the scan (lineAt, dirty bits, eviction metadata).
     */
    SIM_PER_WORKER std::unique_ptr<std::byte[], AlignedDelete> setStore;
    SIM_SHARED_CONST std::size_t setBytes = 0; //!< bytes per set block
    SIM_EPOCH_MERGED(sum) CacheStats stat;
    SIM_SHARED_CONST LlcCompanion *companion = nullptr;
    SIM_PER_WORKER Cycle qbsCycles = 0;
    SIM_PER_WORKER Tick useTick = 0;
    SIM_PER_WORKER PendingTable pending;
    SIM_PER_WORKER ReplacementPolicy repl;
    SIM_PER_WORKER FlatLineSet oracleSeen;
    /** Per-slot busy-until cycles; sized at construction (empty when
     *  the contention model is off) so the demand path never allocates. */
    SIM_PER_WORKER std::vector<Cycle> tagBusyUntil;
    SIM_PER_WORKER std::vector<Cycle> dataBusyUntil;
    /** Newest *issue time* seen by reserveSlot (not reservation-start
     *  time, which fills schedule in the future); requests issued more
     *  than kBackfillSlack behind it backfill past capacity. */
    SIM_PER_WORKER Cycle lastArrival = 0;
};

} // namespace garibaldi

#endif // GARIBALDI_MEM_CACHE_HH
