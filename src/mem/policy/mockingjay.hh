/**
 * @file
 * Mockingjay (Shah, Jain & Lin, HPCA'22), simplified: a sampled cache
 * measures per-PC reuse distances; a reuse-distance predictor (RDP)
 * drives per-line Estimated-Time-Remaining (ETR) counters that emulate
 * Belady's MIN — the victim is the line whose next use is farthest away
 * (largest |ETR|).  Prefetched lines are inserted as far-reuse until
 * demanded (prefetch-aware, as in the paper).
 */

#ifndef GARIBALDI_MEM_POLICY_MOCKINGJAY_HH
#define GARIBALDI_MEM_POLICY_MOCKINGJAY_HH

#include <vector>

#include "mem/flat_tables.hh"
#include "mem/policy/policy_base.hh"

namespace garibaldi
{

/** Mockingjay replacement. */
class MockingjayPolicy final : public PolicyBase
{
  public:
    MockingjayPolicy(std::uint32_t num_sets, std::uint32_t assoc,
                     const PolicyParams &params);

    void onAccess(std::uint32_t set, const MemAccess &acc,
                  bool hit);
    void onHit(std::uint32_t set, std::uint32_t way,
               const MemAccess &acc);
    std::uint32_t victim(std::uint32_t set, const MemAccess &acc);
    void onInsert(std::uint32_t set, std::uint32_t way,
                  const MemAccess &acc);
    void promote(std::uint32_t set, std::uint32_t way);
    void onEvict(std::uint32_t set, std::uint32_t way);

    /** Predicted reuse distance for a PC (set-access units); for tests. */
    std::uint32_t predictedRd(Addr pc) const;

    /** Effective ETR of (set, way); for tests. */
    int effectiveEtr(std::uint32_t set, std::uint32_t way) const;

  private:
    static constexpr unsigned kRdpBits = 14;
    static constexpr std::size_t kRdpSize = std::size_t{1} << kRdpBits;
    static constexpr std::uint16_t kUnknownRd = 0xffff;

    static std::size_t pcIndex(Addr pc);
    bool isSampled(std::uint32_t set) const;
    void train(std::size_t sig, std::uint32_t observed);

    /**
     * Sampled cache of one sampled set: an open-addressed SoA table
     * (line number → last PC signature + timestamp) with the
     * flat_tables sentinel/tombstone scheme.  Capacity is fixed at
     * construction — occupancy is bounded by historyLen + 1 — and
     * arrays are allocated on the set's first access.  Replaces the
     * per-set unordered_map: identical find/insert/stalest-evict
     * semantics (timestamps are unique within a set, so the stalest
     * entry is order-independent), no node allocation.
     */
    struct SampledSet
    {
        std::vector<Addr> keys;
        std::vector<std::uint32_t> pcSigs;
        std::vector<std::uint64_t> stamps;
        std::uint32_t filled = 0;
        std::uint32_t tombs = 0;
        std::uint64_t tick = 0;
    };

    /** Drop @p ss's tombstones by re-inserting the live entries. */
    void rehashSample(SampledSet &ss) const;

    struct LineState
    {
        Tick promoted = 0;    //!< QBS promotion stamp (victim tie-break)
        int etr = 0;          //!< in granularity units, signed
        bool valid = false;
        bool prefetched = false;
    };
    static_assert(sizeof(LineState) == 16, "LineState packing");

    LineState &line(std::uint32_t set, std::uint32_t way)
    {
        return lines[std::size_t{set} * assoc + way];
    }

    const LineState &line(std::uint32_t set, std::uint32_t way) const
    {
        return lines[std::size_t{set} * assoc + way];
    }

    int etrFromRd(std::uint32_t rd) const;

    unsigned sampleShift;
    std::uint32_t historyLen;
    int maxEtr;   //!< positive saturation for ETR counters
    int minEtr;   //!< negative saturation
    std::uint32_t granularity; //!< set accesses per ETR decrement

    std::vector<std::uint16_t> rdp;
    /** Indexed by set >> sampleShift (only sampled sets are stored). */
    std::vector<SampledSet> samples;
    std::size_t sampleCap; //!< per-sampled-set table capacity (pow2)
    std::vector<LineState> lines;
    std::vector<std::uint32_t> agingCount; //!< per-set access counter
    Tick promoteTick = 0;
};

} // namespace garibaldi

#endif // GARIBALDI_MEM_POLICY_MOCKINGJAY_HH
