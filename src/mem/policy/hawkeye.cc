#include "mem/policy/hawkeye.hh"

#include "common/intmath.hh"

namespace garibaldi
{

HawkeyePolicy::HawkeyePolicy(std::uint32_t num_sets, std::uint32_t assoc_,
                             const PolicyParams &params)
    : PolicyBase(assoc_),
      sampleShift(params.sampleShift),
      predictor(kPredictorSize, SatCounter(3, 4)),
      lines(std::size_t{num_sets} * assoc_),
      historyLen(params.historyAssocMult * assoc_)
{
}

bool
HawkeyePolicy::isSampled(std::uint32_t set) const
{
    return (set & ((1u << sampleShift) - 1)) == 0;
}

std::size_t
HawkeyePolicy::pcIndex(Addr pc)
{
    return static_cast<std::size_t>(mix64(pc >> 2)) &
           (kPredictorSize - 1);
}

bool
HawkeyePolicy::isFriendly(Addr pc) const
{
    return predictor[pcIndex(pc)].isSet();
}

void
HawkeyePolicy::onAccess(std::uint32_t set, const MemAccess &acc, bool)
{
    if (!isSampled(set) || acc.isPrefetch)
        return;
    auto [it, inserted] = samplers.try_emplace(set);
    Sampler &s = it->second;
    if (inserted)
        s.optgen = std::make_unique<OptGen>(assoc, historyLen);

    Addr tag = acc.lineAddr();
    auto prev = s.lastPc.find(tag);
    bool opt_hit = s.optgen->access(tag);
    if (prev != s.lastPc.end()) {
        // Train the PC that brought the line in: OPT hit => that PC's
        // lines are worth caching.
        if (opt_hit)
            predictor[prev->second].increment();
        else
            predictor[prev->second].decrement();
    }
    s.lastPc[tag] = static_cast<std::uint32_t>(pcIndex(acc.pc));
    if (s.lastPc.size() > 8 * historyLen)
        s.lastPc.clear(); // coarse bound; sampler state is advisory
}

void
HawkeyePolicy::onHit(std::uint32_t set, std::uint32_t way,
                     const MemAccess &acc)
{
    LineState &ls = line(set, way);
    ls.friendly = isFriendly(acc.pc);
    ls.pcSig = static_cast<std::uint32_t>(pcIndex(acc.pc));
    if (ls.friendly)
        ls.rrpv = 0;
    else
        ls.rrpv = kMaxRrpv;
}

std::uint32_t
HawkeyePolicy::victim(std::uint32_t set, const MemAccess &)
{
    // Prefer cache-averse lines (rrpv == max); else evict the oldest
    // friendly line and detrain its PC.
    for (std::uint32_t w = 0; w < assoc; ++w)
        if (line(set, w).rrpv >= kMaxRrpv)
            return w;
    std::uint32_t best = 0;
    unsigned best_rrpv = 0;
    for (std::uint32_t w = 0; w < assoc; ++w) {
        if (line(set, w).rrpv >= best_rrpv) {
            best_rrpv = line(set, w).rrpv;
            best = w;
        }
    }
    // Evicting a friendly line means OPT disagreed: detrain.
    LineState &ls = line(set, best);
    if (ls.valid && ls.friendly)
        predictor[ls.pcSig].decrement();
    return best;
}

void
HawkeyePolicy::onInsert(std::uint32_t set, std::uint32_t way,
                        const MemAccess &acc)
{
    LineState &ls = line(set, way);
    ls.valid = true;
    ls.pcSig = static_cast<std::uint32_t>(pcIndex(acc.pc));
    ls.friendly = !acc.isPrefetch && isFriendly(acc.pc);
    if (ls.friendly) {
        // Age other friendly lines so older friendlies become victims
        // in preference to fresh ones.
        for (std::uint32_t w = 0; w < assoc; ++w) {
            if (w != way && line(set, w).valid &&
                line(set, w).rrpv < kMaxRrpv - 1) {
                ++line(set, w).rrpv;
            }
        }
        ls.rrpv = 0;
    } else {
        ls.rrpv = kMaxRrpv;
    }
}

void
HawkeyePolicy::promote(std::uint32_t set, std::uint32_t way)
{
    LineState &ls = line(set, way);
    ls.friendly = true;
    ls.rrpv = 0;
}

void
HawkeyePolicy::onEvict(std::uint32_t set, std::uint32_t way)
{
    line(set, way) = LineState{};
}

} // namespace garibaldi
