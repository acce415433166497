#include "mem/policy/random.hh"

namespace garibaldi
{

RandomPolicy::RandomPolicy(std::uint32_t num_sets, std::uint32_t assoc_,
                           std::uint64_t seed)
    : PolicyBase(assoc_), rng(seed, 0x5eedf00d),
      shielded(num_sets, -1)
{
}

std::uint32_t
RandomPolicy::victim(std::uint32_t set, const MemAccess &)
{
    std::uint32_t w = rng.nextBounded(assoc);
    if (static_cast<std::int32_t>(w) == shielded[set] && assoc > 1)
        w = (w + 1) % assoc;
    shielded[set] = -1;
    return w;
}

void
RandomPolicy::promote(std::uint32_t set, std::uint32_t way)
{
    shielded[set] = static_cast<std::int32_t>(way);
}

} // namespace garibaldi
