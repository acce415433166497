#include "mem/policy/replacement.hh"

#include <type_traits>

#include "common/logging.hh"

namespace garibaldi
{

const char *
policyKindName(PolicyKind kind)
{
    switch (kind) {
      case PolicyKind::LRU:
        return "lru";
      case PolicyKind::Random:
        return "random";
      case PolicyKind::SRRIP:
        return "srrip";
      case PolicyKind::DRRIP:
        return "drrip";
      case PolicyKind::SHiP:
        return "ship";
      case PolicyKind::Hawkeye:
        return "hawkeye";
      case PolicyKind::Mockingjay:
        return "mockingjay";
      default:
        return "?";
    }
}

PolicyKind
parsePolicyKind(const std::string &name)
{
    if (name == "lru")
        return PolicyKind::LRU;
    if (name == "random")
        return PolicyKind::Random;
    if (name == "srrip")
        return PolicyKind::SRRIP;
    if (name == "drrip")
        return PolicyKind::DRRIP;
    if (name == "ship")
        return PolicyKind::SHiP;
    if (name == "hawkeye")
        return PolicyKind::Hawkeye;
    if (name == "mockingjay")
        return PolicyKind::Mockingjay;
    fatal("unknown replacement policy '", name, "'");
}

namespace
{
/** The variant alternative at @p K's index is @p T. */
template <typename V, PolicyKind K, typename T>
constexpr bool kAlternativeIs = std::is_same_v<
    std::variant_alternative_t<static_cast<std::size_t>(K), V>, T>;
} // namespace

ReplacementPolicy::Impl
ReplacementPolicy::build(PolicyKind kind, std::uint32_t num_sets,
                         std::uint32_t assoc, const PolicyParams &params)
{
    // name() reads the alternative index back as the PolicyKind.
    static_assert(kAlternativeIs<Impl, PolicyKind::LRU, LruPolicy> &&
                  kAlternativeIs<Impl, PolicyKind::Random, RandomPolicy> &&
                  kAlternativeIs<Impl, PolicyKind::SRRIP, SrripPolicy> &&
                  kAlternativeIs<Impl, PolicyKind::DRRIP, DrripPolicy> &&
                  kAlternativeIs<Impl, PolicyKind::SHiP, ShipPolicy> &&
                  kAlternativeIs<Impl, PolicyKind::Hawkeye,
                                 HawkeyePolicy> &&
                  kAlternativeIs<Impl, PolicyKind::Mockingjay,
                                 MockingjayPolicy>,
                  "ReplacementPolicy alternatives must follow PolicyKind");
    switch (kind) {
      case PolicyKind::LRU:
        return Impl(std::in_place_type<LruPolicy>, num_sets, assoc);
      case PolicyKind::Random:
        return Impl(std::in_place_type<RandomPolicy>, num_sets, assoc,
                    params.seed);
      case PolicyKind::SRRIP:
        return Impl(std::in_place_type<SrripPolicy>, num_sets, assoc,
                    params.counterBits);
      case PolicyKind::DRRIP:
        return Impl(std::in_place_type<DrripPolicy>, num_sets, assoc,
                    params.counterBits, params.seed);
      case PolicyKind::SHiP:
        return Impl(std::in_place_type<ShipPolicy>, num_sets, assoc,
                    params.counterBits);
      case PolicyKind::Hawkeye:
        return Impl(std::in_place_type<HawkeyePolicy>, num_sets, assoc,
                    params);
      case PolicyKind::Mockingjay:
        return Impl(std::in_place_type<MockingjayPolicy>, num_sets,
                    assoc, params);
      default:
        panic("ReplacementPolicy: bad kind");
    }
}

ReplacementPolicy::ReplacementPolicy(PolicyKind kind,
                                     std::uint32_t num_sets,
                                     std::uint32_t assoc,
                                     const PolicyParams &params)
    : impl(build(kind, num_sets, assoc, params))
{
}

std::unique_ptr<ReplacementPolicy>
makePolicy(PolicyKind kind, std::uint32_t num_sets, std::uint32_t assoc,
           const PolicyParams &params)
{
    return std::make_unique<ReplacementPolicy>(kind, num_sets, assoc,
                                               params);
}

} // namespace garibaldi
