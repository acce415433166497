#include "mem/policy/rrip.hh"

#include "common/logging.hh"

namespace garibaldi
{

SrripPolicy::SrripPolicy(std::uint32_t num_sets, std::uint32_t assoc_,
                         unsigned counter_bits)
    : PolicyBase(assoc_),
      maxRrpv((1u << counter_bits) - 1),
      rrpv(std::size_t{num_sets} * assoc_, (1u << counter_bits) - 1)
{
    if (counter_bits < 1 || counter_bits > 8)
        panic("RRIP counter bits out of range: ", counter_bits);
}

void
SrripPolicy::onHit(std::uint32_t set, std::uint32_t way, const MemAccess &)
{
    at(set, way) = 0;
}

std::uint32_t
SrripPolicy::victim(std::uint32_t set, const MemAccess &)
{
    // Find the first distant line, aging everyone until one appears.
    while (true) {
        for (std::uint32_t w = 0; w < assoc; ++w)
            if (at(set, w) >= maxRrpv)
                return w;
        for (std::uint32_t w = 0; w < assoc; ++w)
            ++at(set, w);
    }
}

void
SrripPolicy::insertWith(std::uint32_t set, std::uint32_t way,
                        unsigned value)
{
    at(set, way) = value;
}

void
SrripPolicy::onInsert(std::uint32_t set, std::uint32_t way,
                      const MemAccess &)
{
    insertWith(set, way, maxRrpv - 1); // "long" re-reference interval
}

void
SrripPolicy::promote(std::uint32_t set, std::uint32_t way)
{
    at(set, way) = 0;
}

DrripPolicy::DrripPolicy(std::uint32_t num_sets, std::uint32_t assoc_,
                         unsigned counter_bits, std::uint64_t seed)
    : SrripPolicy(num_sets, assoc_, counter_bits), rng(seed, 0xd22137),
      leaderStride(num_sets >= 64 ? num_sets / 32 : 2)
{
}

DrripPolicy::SetRole
DrripPolicy::roleOf(std::uint32_t set) const
{
    // Interleave 32 SRRIP leaders and 32 BRRIP leaders across the sets.
    if (set % leaderStride == 0)
        return SetRole::SrripLeader;
    if (set % leaderStride == leaderStride / 2)
        return SetRole::BrripLeader;
    return SetRole::Follower;
}

void
DrripPolicy::onAccess(std::uint32_t set, const MemAccess &, bool hit)
{
    // Leader-set misses steer PSEL: SRRIP-leader miss votes for BRRIP
    // and vice versa (standard set-dueling polarity).
    if (hit)
        return;
    switch (roleOf(set)) {
      case SetRole::SrripLeader:
        if (psel < pselMax)
            ++psel;
        break;
      case SetRole::BrripLeader:
        if (psel > -pselMax - 1)
            --psel;
        break;
      default:
        break;
    }
}

void
DrripPolicy::onInsert(std::uint32_t set, std::uint32_t way,
                      const MemAccess &)
{
    bool use_brrip;
    switch (roleOf(set)) {
      case SetRole::SrripLeader:
        use_brrip = false;
        break;
      case SetRole::BrripLeader:
        use_brrip = true;
        break;
      default:
        use_brrip = psel >= 0;
        break;
    }
    if (use_brrip) {
        // BRRIP: distant mostly, long with 1/32 probability.
        unsigned v = rng.nextBounded(32) == 0 ? maxRrpv - 1 : maxRrpv;
        insertWith(set, way, v);
    } else {
        insertWith(set, way, maxRrpv - 1);
    }
}

} // namespace garibaldi
