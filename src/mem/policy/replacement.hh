/**
 * @file
 * Replacement policy selector, the closed policy type a cache owns, and
 * its factory.
 *
 * The interface is intentionally richer than gem5's: PC-indexed
 * predictive policies (SHiP, Hawkeye, Mockingjay) observe every access
 * to train, and the QBS-style promote() hook lets Garibaldi reset a
 * protected victim's eviction priority without the policy knowing why
 * (§4.2 of the paper).
 */

#ifndef GARIBALDI_MEM_POLICY_REPLACEMENT_HH
#define GARIBALDI_MEM_POLICY_REPLACEMENT_HH

#include <cstdint>
#include <memory>
#include <string>
#include <variant>

#include "mem/policy/hawkeye.hh"
#include "mem/policy/lru.hh"
#include "mem/policy/mockingjay.hh"
#include "mem/policy/policy_base.hh"
#include "mem/policy/random.hh"
#include "mem/policy/rrip.hh"
#include "mem/policy/ship.hh"

namespace garibaldi
{

/** Replacement policy selector (order matches ReplacementPolicy's
 *  alternatives). */
enum class PolicyKind : std::uint8_t
{
    LRU = 0,
    Random,
    SRRIP,
    DRRIP,
    SHiP,
    Hawkeye,
    Mockingjay,
};

/** Human-readable policy name. */
const char *policyKindName(PolicyKind kind);

/** Parse a policy name ("lru", "drrip", "mockingjay", ...). */
PolicyKind parsePolicyKind(const std::string &name);

/**
 * One cache's replacement policy: a closed type over the seven
 * PolicyKinds.  Every hook visits the variant — a switch on the kind —
 * so the call lands on the concrete class's own plain (inlinable)
 * member; there is no vtable.  DRRIP and SHiP are alternatives of their
 * own, so the members they redefine shadow SRRIP's exactly as the
 * static type of each arm says.  Hook semantics are listed on
 * PolicyBase.
 */
class ReplacementPolicy
{
  public:
    /** Instantiate @p kind for the given geometry. */
    ReplacementPolicy(PolicyKind kind, std::uint32_t num_sets,
                      std::uint32_t assoc, const PolicyParams &params = {});

    void
    onAccess(std::uint32_t set, const MemAccess &acc, bool hit)
    {
        std::visit([&](auto &p) { p.onAccess(set, acc, hit); }, impl);
    }

    void
    onHit(std::uint32_t set, std::uint32_t way, const MemAccess &acc)
    {
        std::visit([&](auto &p) { p.onHit(set, way, acc); }, impl);
    }

    std::uint32_t
    victim(std::uint32_t set, const MemAccess &acc)
    {
        return std::visit([&](auto &p) { return p.victim(set, acc); },
                          impl);
    }

    void
    onInsert(std::uint32_t set, std::uint32_t way, const MemAccess &acc)
    {
        std::visit([&](auto &p) { p.onInsert(set, way, acc); }, impl);
    }

    void
    promote(std::uint32_t set, std::uint32_t way)
    {
        std::visit([&](auto &p) { p.promote(set, way); }, impl);
    }

    void
    onEvict(std::uint32_t set, std::uint32_t way)
    {
        std::visit([&](auto &p) { p.onEvict(set, way); }, impl);
    }

    /** Policy name for reports (the alternatives follow PolicyKind). */
    const char *
    name() const
    {
        return policyKindName(static_cast<PolicyKind>(impl.index()));
    }

  private:
    using Impl = std::variant<LruPolicy, RandomPolicy, SrripPolicy,
                              DrripPolicy, ShipPolicy, HawkeyePolicy,
                              MockingjayPolicy>;

    static Impl build(PolicyKind kind, std::uint32_t num_sets,
                      std::uint32_t assoc, const PolicyParams &params);

    Impl impl;
};

/** Instantiate a policy for the given geometry. */
std::unique_ptr<ReplacementPolicy>
makePolicy(PolicyKind kind, std::uint32_t num_sets, std::uint32_t assoc,
           const PolicyParams &params = {});

} // namespace garibaldi

#endif // GARIBALDI_MEM_POLICY_REPLACEMENT_HH
