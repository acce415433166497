/**
 * @file
 * Re-Reference Interval Prediction policies (Jaleel et al., ISCA'10):
 * SRRIP (static) and DRRIP (set-dueling between SRRIP and BRRIP).
 */

#ifndef GARIBALDI_MEM_POLICY_RRIP_HH
#define GARIBALDI_MEM_POLICY_RRIP_HH

#include <vector>

#include "common/rng.hh"
#include "mem/policy/policy_base.hh"

namespace garibaldi
{

/**
 * SRRIP-HP: insert with "long" re-reference prediction (max-1), promote
 * to "near-immediate" (0) on hit, evict the first "distant" (max) line,
 * aging the whole set when none is distant.
 */
class SrripPolicy : public PolicyBase
{
  public:
    SrripPolicy(std::uint32_t num_sets, std::uint32_t assoc,
                unsigned counter_bits);

    void onHit(std::uint32_t set, std::uint32_t way,
               const MemAccess &acc);
    std::uint32_t victim(std::uint32_t set, const MemAccess &acc);
    void onInsert(std::uint32_t set, std::uint32_t way,
                  const MemAccess &acc);
    void promote(std::uint32_t set, std::uint32_t way);

    /** RRPV of (set, way); exposed for tests. */
    unsigned
    rrpvOf(std::uint32_t set, std::uint32_t way) const
    {
        return rrpv[std::size_t{set} * assoc + way];
    }

  protected:
    unsigned &at(std::uint32_t set, std::uint32_t way)
    {
        return rrpv[std::size_t{set} * assoc + way];
    }

    /** Insert with a specific RRPV (used by DRRIP's BRRIP mode). */
    void insertWith(std::uint32_t set, std::uint32_t way, unsigned value);

    unsigned maxRrpv;
    std::vector<unsigned> rrpv;
};

/**
 * DRRIP: dedicated leader sets run SRRIP and BRRIP; a PSEL counter
 * picks the winning insertion policy for follower sets.
 */
class DrripPolicy final : public SrripPolicy
{
  public:
    DrripPolicy(std::uint32_t num_sets, std::uint32_t assoc,
                unsigned counter_bits, std::uint64_t seed);

    void onAccess(std::uint32_t set, const MemAccess &acc,
                  bool hit);
    void onInsert(std::uint32_t set, std::uint32_t way,
                  const MemAccess &acc);

    /** Current PSEL value, exposed for the dueling convergence test. */
    int pselValue() const { return psel; }

  private:
    enum class SetRole : std::uint8_t { Follower, SrripLeader,
                                        BrripLeader };

    SetRole roleOf(std::uint32_t set) const;

    Pcg32 rng;
    int psel = 0;
    int pselMax = 511;
    unsigned leaderStride;
};

} // namespace garibaldi

#endif // GARIBALDI_MEM_POLICY_RRIP_HH
