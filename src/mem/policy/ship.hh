/**
 * @file
 * SHiP-PC (Wu et al., MICRO'11): signature-based hit prediction layered
 * on SRRIP.  Lines carry their inserting PC signature and an outcome
 * bit; a table of saturating counters learns, per signature, whether
 * lines are re-referenced before eviction.
 */

#ifndef GARIBALDI_MEM_POLICY_SHIP_HH
#define GARIBALDI_MEM_POLICY_SHIP_HH

#include <vector>

#include "common/sat_counter.hh"
#include "mem/policy/rrip.hh"

namespace garibaldi
{

/** SHiP-PC on top of SRRIP-HP. */
class ShipPolicy final : public SrripPolicy
{
  public:
    ShipPolicy(std::uint32_t num_sets, std::uint32_t assoc,
               unsigned counter_bits);

    void onHit(std::uint32_t set, std::uint32_t way,
               const MemAccess &acc);
    void onInsert(std::uint32_t set, std::uint32_t way,
                  const MemAccess &acc);
    void onEvict(std::uint32_t set, std::uint32_t way);

    /** SHCT counter value for a PC, exposed for tests. */
    unsigned shctOf(Addr pc) const { return shct[signature(pc)].value(); }

  private:
    static constexpr unsigned kShctBits = 14;
    static constexpr std::size_t kShctSize = std::size_t{1} << kShctBits;

    static std::size_t signature(Addr pc);

    struct LineState
    {
        std::uint32_t sig = 0;
        bool outcome = false; // re-referenced since insertion
        bool valid = false;
    };

    LineState &state(std::uint32_t set, std::uint32_t way)
    {
        return lineState[std::size_t{set} * assoc + way];
    }

    std::vector<SatCounter> shct;
    std::vector<LineState> lineState;
};

} // namespace garibaldi

#endif // GARIBALDI_MEM_POLICY_SHIP_HH
