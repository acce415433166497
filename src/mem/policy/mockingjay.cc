#include "mem/policy/mockingjay.hh"

#include <algorithm>
#include <cstdlib>

#include "common/intmath.hh"
#include "common/logging.hh"

namespace garibaldi
{

MockingjayPolicy::MockingjayPolicy(std::uint32_t num_sets,
                                   std::uint32_t assoc_,
                                   const PolicyParams &params)
    : PolicyBase(assoc_),
      sampleShift(params.sampleShift),
      historyLen(params.historyAssocMult * assoc_),
      maxEtr((1 << (params.counterBits - 1)) - 1),
      minEtr(-(1 << (params.counterBits - 1))),
      granularity(std::max<std::uint32_t>(
          1, historyLen / static_cast<std::uint32_t>(maxEtr))),
      rdp(kRdpSize, kUnknownRd),
      samples(num_sets >= (1u << params.sampleShift)
                  ? num_sets >> params.sampleShift : 1),
      sampleCap(flat::tableCapacity(historyLen + 1)),
      lines(std::size_t{num_sets} * assoc_),
      agingCount(num_sets, 0)
{
    if (params.counterBits < 2 || params.counterBits > 8)
        panic("Mockingjay ETR bits out of range: ", params.counterBits);
}

std::size_t
MockingjayPolicy::pcIndex(Addr pc)
{
    return static_cast<std::size_t>(mix64(pc >> 2)) & (kRdpSize - 1);
}

bool
MockingjayPolicy::isSampled(std::uint32_t set) const
{
    return (set & ((1u << sampleShift) - 1)) == 0;
}

void
MockingjayPolicy::train(std::size_t sig, std::uint32_t observed)
{
    std::uint16_t &p = rdp[sig];
    std::uint32_t clamped =
        std::min<std::uint32_t>(observed, 2 * historyLen);
    if (p == kUnknownRd) {
        p = static_cast<std::uint16_t>(clamped);
    } else {
        // Exponential smoothing toward the new observation.
        p = static_cast<std::uint16_t>((3u * p + clamped) / 4u);
    }
}

std::uint32_t
MockingjayPolicy::predictedRd(Addr pc) const
{
    std::uint16_t p = rdp[pcIndex(pc)];
    // Unseen signatures bootstrap as moderately near so new program
    // phases are not starved before training catches up.
    return p == kUnknownRd ? assoc : p;
}

int
MockingjayPolicy::etrFromRd(std::uint32_t rd) const
{
    int units = static_cast<int>(rd / granularity);
    return std::min(units, maxEtr);
}

void
MockingjayPolicy::onAccess(std::uint32_t set, const MemAccess &acc, bool)
{
    // Aging: every `granularity` accesses to a set, every resident
    // line's time-remaining shrinks by one unit.
    if (++agingCount[set] >= granularity) {
        agingCount[set] = 0;
        for (std::uint32_t w = 0; w < assoc; ++w) {
            LineState &ls = line(set, w);
            if (ls.valid && ls.etr > minEtr)
                --ls.etr;
        }
    }

    if (!isSampled(set) || acc.isPrefetch)
        return;

    SampledSet &ss = samples[set >> sampleShift];
    if (ss.keys.empty()) {
        // First touch of this sampled set: allocate its table.
        ss.keys.assign(sampleCap, flat::kEmptyKey);
        ss.pcSigs.assign(sampleCap, 0);
        ss.stamps.assign(sampleCap, 0);
    }
    ++ss.tick;
    Addr key = lineNumber(acc.lineAddr());
    std::size_t mask = sampleCap - 1;
    std::size_t i = static_cast<std::size_t>(mix64(key)) & mask;
    std::size_t slot = sampleCap;     // match, if any
    std::size_t free_slot = sampleCap; // insertion point otherwise
    while (true) {
        if (ss.keys[i] == key) {
            slot = i;
            break;
        }
        if (ss.keys[i] == flat::kEmptyKey) {
            if (free_slot == sampleCap)
                free_slot = i;
            break;
        }
        if (ss.keys[i] == flat::kTombKey && free_slot == sampleCap)
            free_slot = i;
        i = (i + 1) & mask;
    }

    if (slot != sampleCap) {
        std::uint64_t dist = ss.tick - ss.stamps[slot];
        train(ss.pcSigs[slot],
              static_cast<std::uint32_t>(std::min<std::uint64_t>(
                  dist, 2 * historyLen)));
        ss.pcSigs[slot] = static_cast<std::uint32_t>(pcIndex(acc.pc));
        ss.stamps[slot] = ss.tick;
        return;
    }

    if (ss.keys[free_slot] == flat::kTombKey)
        --ss.tombs;
    ss.keys[free_slot] = key;
    ss.pcSigs[free_slot] = static_cast<std::uint32_t>(pcIndex(acc.pc));
    ss.stamps[free_slot] = ss.tick;
    ++ss.filled;
    if (ss.filled > historyLen) {
        // Evict the stalest sample; it left the window unreused, so
        // its PC is trained toward scan-like (far) behavior.  The
        // newest stamp belongs to the entry just written, so the
        // minimum is always an older one (stamps are unique per set).
        std::size_t oldest = sampleCap;
        std::uint64_t oldest_stamp = ~std::uint64_t{0};
        for (std::size_t s = 0; s < sampleCap; ++s) {
            if (ss.keys[s] < flat::kTombKey &&
                ss.stamps[s] < oldest_stamp) {
                oldest_stamp = ss.stamps[s];
                oldest = s;
            }
        }
        train(ss.pcSigs[oldest], 2 * historyLen);
        ss.keys[oldest] = flat::kTombKey;
        --ss.filled;
        ++ss.tombs;
    }
    if ((ss.filled + ss.tombs + 1) * 4 >= sampleCap * 3)
        rehashSample(ss);
}

void
MockingjayPolicy::rehashSample(SampledSet &ss) const
{
    std::vector<Addr> old_keys(sampleCap, flat::kEmptyKey);
    std::vector<std::uint32_t> old_sigs(sampleCap, 0);
    std::vector<std::uint64_t> old_stamps(sampleCap, 0);
    old_keys.swap(ss.keys);
    old_sigs.swap(ss.pcSigs);
    old_stamps.swap(ss.stamps);
    ss.filled = 0;
    ss.tombs = 0;
    std::size_t mask = sampleCap - 1;
    for (std::size_t s = 0; s < sampleCap; ++s) {
        if (old_keys[s] >= flat::kTombKey)
            continue;
        std::size_t j =
            static_cast<std::size_t>(mix64(old_keys[s])) & mask;
        while (ss.keys[j] != flat::kEmptyKey)
            j = (j + 1) & mask;
        ss.keys[j] = old_keys[s];
        ss.pcSigs[j] = old_sigs[s];
        ss.stamps[j] = old_stamps[s];
        ++ss.filled;
    }
}

void
MockingjayPolicy::onHit(std::uint32_t set, std::uint32_t way,
                        const MemAccess &acc)
{
    LineState &ls = line(set, way);
    ls.prefetched = false;
    ls.etr = etrFromRd(predictedRd(acc.pc));
}

std::uint32_t
MockingjayPolicy::victim(std::uint32_t set, const MemAccess &)
{
    // Belady mimicry: evict the line whose (predicted) next use is the
    // farthest in either direction — overdue lines (negative ETR) are
    // as dead as far-future ones.
    std::uint32_t best = 0;
    int best_abs = -1;
    bool best_overdue = false;
    Tick best_promoted = ~Tick{0};
    for (std::uint32_t w = 0; w < assoc; ++w) {
        const LineState &ls = line(set, w);
        int a = std::abs(ls.etr);
        bool overdue = ls.etr < 0;
        bool better = a > best_abs;
        if (a == best_abs) {
            // Ties: prefer overdue lines, then lines that were not
            // recently QBS-promoted (so protection makes progress even
            // when ETR quantization flattens the set).
            if (overdue && !best_overdue)
                better = true;
            else if (overdue == best_overdue &&
                     ls.promoted < best_promoted)
                better = true;
        }
        if (better) {
            best_abs = a;
            best_overdue = overdue;
            best_promoted = ls.promoted;
            best = w;
        }
    }
    return best;
}

void
MockingjayPolicy::onInsert(std::uint32_t set, std::uint32_t way,
                           const MemAccess &acc)
{
    LineState &ls = line(set, way);
    ls.valid = true;
    ls.prefetched = acc.isPrefetch;
    // Prefetch-aware: a prefetched line has not proven reuse, so it is
    // inserted as far-reuse and becomes the preferred victim until a
    // demand hit re-predicts it.
    ls.etr = acc.isPrefetch ? maxEtr : etrFromRd(predictedRd(acc.pc));
}

void
MockingjayPolicy::promote(std::uint32_t set, std::uint32_t way)
{
    LineState &ls = line(set, way);
    ls.etr = 0; // |ETR| minimal => least likely victim
    ls.promoted = ++promoteTick;
    ls.prefetched = false;
}

void
MockingjayPolicy::onEvict(std::uint32_t set, std::uint32_t way)
{
    line(set, way) = LineState{};
}

int
MockingjayPolicy::effectiveEtr(std::uint32_t set, std::uint32_t way) const
{
    return line(set, way).etr;
}

} // namespace garibaldi
