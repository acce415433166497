/**
 * @file
 * Random replacement; useful as a sanity baseline and in tests.
 */

#ifndef GARIBALDI_MEM_POLICY_RANDOM_HH
#define GARIBALDI_MEM_POLICY_RANDOM_HH

#include <vector>

#include "common/rng.hh"
#include "mem/policy/policy_base.hh"

namespace garibaldi
{

/**
 * Uniform-random victim selection.  promote() shields the promoted way
 * from the immediately following victim() call so QBS retries make
 * progress.
 */
class RandomPolicy final : public PolicyBase
{
  public:
    RandomPolicy(std::uint32_t num_sets, std::uint32_t assoc,
                 std::uint64_t seed);

    void onHit(std::uint32_t, std::uint32_t, const MemAccess &) {}
    std::uint32_t victim(std::uint32_t set, const MemAccess &acc);
    void onInsert(std::uint32_t, std::uint32_t, const MemAccess &) {}
    void promote(std::uint32_t set, std::uint32_t way);

  private:
    Pcg32 rng;
    std::vector<std::int32_t> shielded; // per-set way to avoid, or -1
};

} // namespace garibaldi

#endif // GARIBALDI_MEM_POLICY_RANDOM_HH
