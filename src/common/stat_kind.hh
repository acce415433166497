/**
 * @file
 * Declared stat semantics: every name a module exports through
 * StatSet::add carries a machine-readable kind, and each kind fixes
 * both the windowing rule (what Simulator::run / TelemetrySink do at a
 * window boundary) and the cross-worker merge op (what the intra-sim
 * parallelism work will do at an epoch barrier).  The vocabulary:
 *
 *   counter            monotone event count.       window: subtract
 *                                                  merge:  sum
 *   rate(num, den)     derived ratio of counters.  window: recompute
 *                      num/den are '+'-joined      merge:  recompute
 *                      sibling counter names,
 *                      resolved under the same
 *                      addAll prefix as the rate.
 *   gauge              point-in-time reading       window: keep-last
 *                      (threshold, color, ...).    merge:  last
 *   quantile           percentile landmark of a    window: keep-last
 *                      cumulative histogram.       merge:  recompute
 *   histogram_summary  derived summary (mean,      window: keep-last
 *                      imbalance) of internal      merge:  recompute
 *                      distribution state.
 *
 * Producers declare their exports once, next to the stats() method,
 * with a SIM_STATS block:
 *
 *   SIM_STATS(Garibaldi,
 *       SIM_STAT("pair_prefetches", counter),
 *       SIM_STAT_GATED("helper.hits", counter, "helpers"),
 *       SIM_STAT_GATED("helper.coverage",
 *                      rate("helper.hits", "helper.hits+helper.misses"),
 *                      "helpers"));
 *
 * SIM_STAT_GATED names the feature-flag token whose conditional must
 * enclose the add() site.  Declared names may contain '*' wildcards
 * for dynamically composed families ("bank*.accesses"); wildcard
 * entries are analyzer-only and never resolve at runtime.
 *
 * scripts/analyze_stats.py parses the same blocks cross-TU, hard-fails
 * on undeclared/unexported/mis-kinded stats, and emits
 * build/stat_map.json — the windowing/merge contract the sharding PR
 * consumes.  sim/metrics.cc asks StatKindRegistry (never a hard-coded
 * name list) how to window each entry, so declarations and the
 * windowing discipline cannot drift.
 */

#ifndef GARIBALDI_COMMON_STAT_KIND_HH
#define GARIBALDI_COMMON_STAT_KIND_HH

#include <cstddef>
#include <initializer_list>
#include <map>
#include <string>

namespace garibaldi
{

enum class StatKind
{
    Counter,
    Rate,
    Gauge,
    Quantile,
    HistogramSummary,
};

/** What a window boundary does to a stat of a given kind. */
enum class WindowRule
{
    Subtract,  //!< after - before
    Recompute, //!< rebuild from the windowed raw counters
    KeepLast,  //!< report the end-of-window reading
};

/** How per-worker replicas of a stat combine at an epoch barrier. */
enum class MergeOp
{
    Sum,       //!< commutative addition of replicas
    Recompute, //!< rebuild from merged raw counters / histograms
    Last,      //!< designated owner's reading wins
};

WindowRule windowRuleOf(StatKind kind);
MergeOp mergeOpOf(StatKind kind);
const char *statKindName(StatKind kind);
const char *windowRuleName(WindowRule rule);
const char *mergeOpName(MergeOp op);

/** Kind plus the rate raws; built via the statkind:: vocabulary. */
struct StatSemantics
{
    StatKind kind;
    const char *num; //!< Rate only: '+'-joined sibling counter names
    const char *den; //!< Rate only: '+'-joined sibling counter names
};

namespace statkind
{

inline constexpr StatSemantics counter{StatKind::Counter, nullptr,
                                       nullptr};
inline constexpr StatSemantics gauge{StatKind::Gauge, nullptr, nullptr};
inline constexpr StatSemantics quantile{StatKind::Quantile, nullptr,
                                        nullptr};
inline constexpr StatSemantics histogram_summary{
    StatKind::HistogramSummary, nullptr, nullptr};

constexpr StatSemantics
rate(const char *num, const char *den)
{
    return StatSemantics{StatKind::Rate, num, den};
}

} // namespace statkind

/** One declared export: name (may hold '*'), semantics, gate token. */
struct StatDecl
{
    const char *name;
    StatSemantics sem;
    const char *gate; //!< feature-flag token, nullptr when unconditional
};

/**
 * Process-wide name -> semantics table, populated before main() by the
 * const SIM_STATS registrars and read-only afterwards.  Exported names
 * reach windowing with addAll prefixes attached ("llc.hit_rate",
 * "dram.row_hit_rate"), so resolution is exact match first, then the
 * longest declared name that is a '.'-boundary suffix of the query.
 */
class StatKindRegistry
{
  public:
    static const StatKindRegistry &instance();

    /**
     * Declaration governing @p name, or nullptr when no declared name
     * matches.  Wildcard declarations never match here.
     */
    const StatDecl *resolve(const std::string &name) const;

    /**
     * Windowing rule for @p name.  Undeclared names (test-synthesized
     * sets) fall back to the naming convention: a canonical quantile
     * suffix keeps its end-of-window reading, everything else
     * subtracts — exactly the pre-registry behavior.
     */
    WindowRule windowRule(const std::string &name) const;

    /** True when @p name windows as a percentile gauge. */
    bool isQuantile(const std::string &name) const;

    /** Declared (non-wildcard) name count; tests pin a floor. */
    std::size_t size() const;

    /**
     * The canonical quantile suffix set ({_p50, _p90, _p95, _p99} —
     * every landmark QuantileSummary exports), null-terminated.  The
     * undeclared-name fallback and the stat analyzer's suffix/kind
     * rule both key off this one table.
     */
    static const char *const *quantileSuffixes();

  private:
    friend class StatDomainRegistrar;
    static StatKindRegistry &mutableInstance();

    std::map<std::string, StatDecl> decls;
};

/** Registers one producer's SIM_STATS block during static init. */
class StatDomainRegistrar
{
  public:
    StatDomainRegistrar(const char *producer,
                        std::initializer_list<StatDecl> decls);
};

// clang-format off
#define SIM_STAT(name, kind) \
    ::garibaldi::StatDecl{name, ::garibaldi::statkind::kind, nullptr}
#define SIM_STAT_GATED(name, kind, gate) \
    ::garibaldi::StatDecl{name, ::garibaldi::statkind::kind, gate}
#define SIM_STATS(producer, ...) \
    static const ::garibaldi::StatDomainRegistrar \
        kStatDomain_##producer{#producer, {__VA_ARGS__}}
// clang-format on

} // namespace garibaldi

#endif // GARIBALDI_COMMON_STAT_KIND_HH
