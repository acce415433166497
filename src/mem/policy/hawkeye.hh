/**
 * @file
 * Hawkeye (Jain & Lin, ISCA'16): OPTgen runs on sampled sets to label
 * each sampled access as OPT-hit or OPT-miss; a PC-indexed predictor
 * learns which load instructions are "cache-friendly"; the main cache
 * uses RRIP-style counters with friendly/averse insertion.
 */

#ifndef GARIBALDI_MEM_POLICY_HAWKEYE_HH
#define GARIBALDI_MEM_POLICY_HAWKEYE_HH

#include <memory>
#include <unordered_map>
#include <vector>

#include "common/sat_counter.hh"
#include "mem/policy/optgen.hh"
#include "mem/policy/policy_base.hh"

namespace garibaldi
{

/** Hawkeye replacement. */
class HawkeyePolicy final : public PolicyBase
{
  public:
    HawkeyePolicy(std::uint32_t num_sets, std::uint32_t assoc,
                  const PolicyParams &params);

    void onAccess(std::uint32_t set, const MemAccess &acc,
                  bool hit);
    void onHit(std::uint32_t set, std::uint32_t way,
               const MemAccess &acc);
    std::uint32_t victim(std::uint32_t set, const MemAccess &acc);
    void onInsert(std::uint32_t set, std::uint32_t way,
                  const MemAccess &acc);
    void promote(std::uint32_t set, std::uint32_t way);
    void onEvict(std::uint32_t set, std::uint32_t way);

    /** Predictor verdict for a PC, exposed for tests. */
    bool isFriendly(Addr pc) const;

  private:
    static constexpr unsigned kPredictorBits = 13;
    static constexpr std::size_t kPredictorSize =
        std::size_t{1} << kPredictorBits;
    static constexpr unsigned kMaxRrpv = 7;

    /** Per-sampled-set training state. */
    struct Sampler
    {
        std::unique_ptr<OptGen> optgen;
        /** tag -> PC signature of the previous access to that tag. */
        std::unordered_map<Addr, std::uint32_t> lastPc;
    };

    bool isSampled(std::uint32_t set) const;
    static std::size_t pcIndex(Addr pc);

    struct LineState
    {
        unsigned rrpv = kMaxRrpv;
        std::uint32_t pcSig = 0;
        bool friendly = false;
        bool valid = false;
    };

    LineState &line(std::uint32_t set, std::uint32_t way)
    {
        return lines[std::size_t{set} * assoc + way];
    }

    unsigned sampleShift;
    std::vector<SatCounter> predictor;
    std::unordered_map<std::uint32_t, Sampler> samplers;
    std::vector<LineState> lines;
    std::uint32_t historyLen;
};

} // namespace garibaldi

#endif // GARIBALDI_MEM_POLICY_HAWKEYE_HH
