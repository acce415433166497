/**
 * @file
 * What every concrete replacement policy shares: the tunables and a
 * small base (no vtable) holding the cache geometry plus the no-op
 * defaults of the two optional hooks.
 *
 * The concrete classes are never used through this base; a cache owns
 * them through the closed ReplacementPolicy type (replacement.hh),
 * which switches on the kind and calls the concrete member directly.
 */

#ifndef GARIBALDI_MEM_POLICY_POLICY_BASE_HH
#define GARIBALDI_MEM_POLICY_POLICY_BASE_HH

#include <cstdint>

#include "common/types.hh"
#include "mem/request.hh"

namespace garibaldi
{

/** Tunables shared by the predictive policies. */
struct PolicyParams
{
    /**
     * RRPV / ETR counter width in bits.  3 matches Mockingjay's signed
     * ETR range ([-4, 3]) and gives SRRIP-family policies an 8-level
     * RRPV — the width every archived trace and golden was produced
     * with.  (An earlier comment claimed the paper's Table 3 prescribes
     * 5; nothing in the methodology we reproduce bears that out, and
     * the default was never 5.)  Pinned by PolicyParamsDefaultsPinned:
     * changing it invalidates every policy trace hash.
     */
    unsigned counterBits = 3;
    /** Sample one of every 2^sampleShift sets for history-based policies. */
    unsigned sampleShift = 3;
    /** History length as a multiple of associativity (paper: 8x). */
    unsigned historyAssocMult = 8;
    /** Seed for randomized policies. */
    std::uint64_t seed = 1;
};

/**
 * Base of the concrete policies.  Each one provides the hooks the
 * cache calls:
 *  - onAccess() for every demand lookup (training hook, before outcome),
 *  - onHit() when the lookup hits,
 *  - victim() when an insertion needs a frame and no way is invalid,
 *  - onInsert() after the new line is placed,
 *  - promote() to reset a line's eviction priority to the lowest
 *    (the QBS protection action),
 *  - onEvict() when a line leaves the cache.
 * onAccess() and onEvict() default to no-ops here; a policy that needs
 * them declares its own, which hides these.
 */
class PolicyBase
{
  public:
    explicit PolicyBase(std::uint32_t assoc_) : assoc(assoc_) {}

    /** Training hook invoked for every demand lookup. */
    void onAccess(std::uint32_t, const MemAccess &, bool) {}

    /** A line was evicted or invalidated from (set, way). */
    void onEvict(std::uint32_t, std::uint32_t) {}

  protected:
    std::uint32_t assoc;
};

} // namespace garibaldi

#endif // GARIBALDI_MEM_POLICY_POLICY_BASE_HH
