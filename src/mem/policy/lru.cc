#include "mem/policy/lru.hh"

namespace garibaldi
{

LruPolicy::LruPolicy(std::uint32_t num_sets, std::uint32_t assoc_)
    : PolicyBase(assoc_),
      stamps(std::size_t{num_sets} * assoc_, 0)
{
}

void
LruPolicy::onHit(std::uint32_t set, std::uint32_t way, const MemAccess &)
{
    stamp(set, way) = ++tick;
}

std::uint32_t
LruPolicy::victim(std::uint32_t set, const MemAccess &)
{
    std::uint32_t best = 0;
    Tick best_stamp = stamp(set, 0);
    for (std::uint32_t w = 1; w < assoc; ++w) {
        if (stamp(set, w) < best_stamp) {
            best_stamp = stamp(set, w);
            best = w;
        }
    }
    return best;
}

void
LruPolicy::onInsert(std::uint32_t set, std::uint32_t way, const MemAccess &)
{
    stamp(set, way) = ++tick;
}

void
LruPolicy::promote(std::uint32_t set, std::uint32_t way)
{
    stamp(set, way) = ++tick;
}

void
LruPolicy::onEvict(std::uint32_t set, std::uint32_t way)
{
    stamp(set, way) = 0;
}

} // namespace garibaldi
