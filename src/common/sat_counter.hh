/**
 * @file
 * Saturating counter, the workhorse of branch predictors, SHiP/Hawkeye
 * predictors and the Garibaldi pair-table miss-cost and sctr fields.
 */

#ifndef GARIBALDI_COMMON_SAT_COUNTER_HH
#define GARIBALDI_COMMON_SAT_COUNTER_HH

#include <cstdint>

#include "common/logging.hh"

namespace garibaldi
{

/**
 * An n-bit unsigned saturating counter.  Increments stick at 2^n - 1,
 * decrements stick at 0.  Both fields are 16 bits wide (every width
 * 1..16 fits), so predictor tables of counters stay dense.
 */
class SatCounter
{
  public:
    SatCounter() = default;

    /**
     * @param bits counter width in bits (1..16)
     * @param initial initial value, clamped into range
     */
    explicit SatCounter(unsigned bits, unsigned initial = 0)
    {
        if (bits == 0 || bits > 16)
            panic("SatCounter width out of range: ", bits);
        maxVal = static_cast<std::uint16_t>((1u << bits) - 1);
        set(initial);
    }

    /** Saturating increment. */
    void
    increment(unsigned by = 1)
    {
        set(by > maxVal ? maxVal : val + by);
    }

    /** Saturating decrement. */
    void
    decrement(unsigned by = 1)
    {
        val = static_cast<std::uint16_t>(by > val ? 0 : val - by);
    }

    /** Current value. */
    unsigned value() const { return val; }

    /** Maximum representable value. */
    unsigned max() const { return maxVal; }

    /** True when the counter is in its upper half (weakly/strongly set). */
    bool isSet() const { return val > maxVal / 2; }

    /** Force a value (clamped). */
    void
    set(unsigned v)
    {
        val = static_cast<std::uint16_t>(v > maxVal ? maxVal : v);
    }

    /** Reset to zero. */
    void reset() { val = 0; }

  private:
    std::uint16_t maxVal = 1;
    std::uint16_t val = 0;
};

} // namespace garibaldi

#endif // GARIBALDI_COMMON_SAT_COUNTER_HH
