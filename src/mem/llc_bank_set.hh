/**
 * @file
 * Address-interleaved banked LLC: N per-bank Cache instances behind the
 * uniform per-level interface the access pipeline speaks.  Bank selection
 * takes @c interleaveShift + log2(banks) worth of line-number bits; each
 * bank splices those bits out of its set index (tags keep full line
 * numbers, so evictions/writebacks carry real addresses).  With one bank
 * the set degenerates to exactly the monolithic cache: same geometry,
 * same replacement state, same statistics.
 */

#ifndef GARIBALDI_MEM_LLC_BANK_SET_HH
#define GARIBALDI_MEM_LLC_BANK_SET_HH

#include <memory>
#include <vector>

#include "common/sharing.hh"
#include "mem/cache.hh"

namespace garibaldi
{

/** The sharded shared LLC. */
class LlcBankSet
{
  public:
    /**
     * @param llc whole-LLC geometry (capacity split across banks)
     * @param banks bank count (power of two)
     * @param interleave_shift line-number bit where bank selection
     *        starts (0 = consecutive lines round-robin over banks)
     */
    LlcBankSet(const CacheParams &llc, std::uint32_t banks,
               std::uint32_t interleave_shift);

    std::uint32_t numBanks() const
    {
        return static_cast<std::uint32_t>(banks_.size());
    }

    /** Bank servicing @p line_addr. */
    std::uint32_t
    bankOf(Addr line_addr) const
    {
        return static_cast<std::uint32_t>(
            (lineNumber(line_addr) >> interleaveShift) & bankMask);
    }

    Cache &bank(std::uint32_t i) { return *banks_[i]; }
    const Cache &bank(std::uint32_t i) const { return *banks_[i]; }
    Cache &bankFor(Addr line_addr) { return *banks_[bankOf(line_addr)]; }

    // ---- uniform per-level interface (forwarded to the owning bank) --
    bool access(const MemAccess &acc)
    {
        return bankFor(acc.lineAddr()).access(acc);
    }
    bool contains(Addr line_addr) const
    {
        return banks_[bankOf(lineAlign(line_addr))]->contains(line_addr);
    }
    Eviction insert(const MemAccess &acc, bool dirty = false,
                    bool critical = false)
    {
        return bankFor(acc.lineAddr()).insert(acc, dirty, critical);
    }
    void setDirty(Addr line_addr) { bankFor(line_addr).setDirty(line_addr); }
    bool invalidate(Addr line_addr)
    {
        return bankFor(line_addr).invalidate(line_addr);
    }
    void addPending(Addr line_addr, Cycle ready, Cycle now = 0)
    {
        bankFor(line_addr).addPending(line_addr, ready, now);
    }
    Cycle pendingReady(Addr line_addr, Cycle now)
    {
        return bankFor(line_addr).pendingReady(line_addr, now);
    }
    /** Drain QBS query cycles charged against @p line_addr's bank. */
    Cycle drainQbsCycles(Addr line_addr)
    {
        return bankFor(line_addr).drainQbsCycles();
    }
    /**
     * MSHR pressure of the bank owning @p line_addr.  Always route
     * full-MSHR checks through here: the per-bank books are a fraction
     * of the whole-LLC budget, so consulting any single fixed bank
     * (e.g. bank 0) under- or over-reports pressure when banks > 1.
     * Entry lifetimes come from addPending and end at the DRAM
     * channel's fill completion instant, so a congested memory system
     * keeps this true for longer.
     */
    bool mshrsFull(Addr line_addr, Cycle now)
    {
        return bankFor(line_addr).mshrsFull(now);
    }

    /** The per-bank contention model is active (uniform over banks). */
    bool contentionEnabled() const
    {
        return banks_[0]->contentionEnabled();
    }

    /** Attach the Garibaldi module to every bank. */
    void setCompanion(LlcCompanion *companion);

    bool oracleFiltersInstr() const
    {
        return banks_[0]->oracleFiltersInstr();
    }
    Cycle latency() const { return banks_[0]->latency(); }
    std::uint32_t assoc() const { return banks_[0]->assoc(); }
    /** Per-bank set count. */
    std::uint32_t setsPerBank() const { return banks_[0]->numSets(); }
    /** Set count across all banks (monitor sizing). */
    std::uint32_t totalSets() const
    {
        return setsPerBank() * numBanks();
    }
    /** Per-bank configuration (partition/oracle flags are uniform). */
    const CacheParams &config() const { return banks_[0]->config(); }

    /** Counters summed over all banks. */
    CacheStats stats() const;

  private:
    // The bank *structure* is fixed at construction (shared-const);
    // the pointed-to Cache objects are the bank shards themselves,
    // each owned by one worker (see Cache's member classification).
    SIM_SHARED_CONST std::vector<std::unique_ptr<Cache>> banks_;
    SIM_SHARED_CONST std::uint32_t interleaveShift;
    SIM_SHARED_CONST Addr bankMask;
};

} // namespace garibaldi

#endif // GARIBALDI_MEM_LLC_BANK_SET_HH
