/**
 * @file
 * Shared pieces of the repository benchmark harness: the workload
 * definitions, the SimResult digest, the run manifest and a tiny JSON
 * writer.  The harness measures the simulator only through the public
 * API of its modules; nothing under src/ knows it exists.
 */

#ifndef SIMBENCH_BENCH_HH
#define SIMBENCH_BENCH_HH

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "common/json.hh"
#include "sim/experiment.hh"
#include "sim/simulator.hh"
#include "sim/system_config.hh"
#include "sweep/results_table.hh"
#include "sweep/sweep_spec.hh"
#include "workloads/mix.hh"

namespace simbench
{

using Clock = std::chrono::steady_clock;

inline double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** One simulation of a single-threaded workload. */
struct SimJob
{
    std::string label;
    garibaldi::SystemConfig config;
    garibaldi::Mix mix;
};

/** A named batch job with a fixed amount of simulated work. */
struct WorkloadDef
{
    std::string name;
    std::uint64_t seed = 0;
    /** Source revision for the manifest, as the caller passes it. */
    std::string revision;
    std::uint64_t warmup = 0;   //!< warmup instructions per core
    std::uint64_t detailed = 0; //!< detailed instructions per core
    /**
     * Simulations of a single-threaded workload, run in order; for the
     * sweep, the one simulation the traced run replays.
     */
    std::vector<SimJob> sims;
    /** Sweep workload: mixes x policies through SweepRunner::run. */
    bool sweep = false;
    garibaldi::SystemConfig base;
    std::vector<garibaldi::Mix> mixes;
    std::vector<garibaldi::PolicyVariant> policies;
    unsigned workers = 1;
    /** Index into sims of the simulation the traced run replays. */
    std::size_t tracedSim = 0;
    /**
     * Simulations only the traced run adds: the other half of a
     * with/without-Garibaldi pair, so every workload reports a gain.
     */
    std::vector<SimJob> traceExtra;
};

/** The sweep's jobs, in SweepSpec expansion order. */
std::vector<garibaldi::SweepJob> sweepJobs(const WorkloadDef &w);

/** Distinct workloads of the sweep's mixes: its solo runs. */
std::vector<std::string> soloWorkloads(const WorkloadDef &w);

/** Garibaldi's simulated gain on one with/without pair. */
struct GainRecord
{
    std::string pair; //!< base label, e.g. "mockingjay"
    std::string what; //!< how the gain is computed
    double pct = 0;
};

/**
 * Gains of every "X" / "X+g" label pair among @p labels, from the
 * matching entries of @p metric (hmean IPC or weighted speedup).
 */
std::vector<GainRecord> pairGains(const std::vector<std::string> &labels,
                                  const std::vector<double> &metric,
                                  const std::string &what);


/** Build workload @p name for @p seed; empty name on unknown. */
WorkloadDef makeWorkload(const std::string &name, std::uint64_t seed);

/**
 * FNV-1a digest over per-core instructions and cycles and every
 * mem/garibaldi/tlb stat of @p r, printed as 16 hex digits.
 */
std::string digestOf(const garibaldi::SimResult &r);

/**
 * Plausibility of a finished run: every core retired exactly
 * @p detailed instructions in a positive number of cycles, at an IPC
 * no higher than the configured issue width.
 */
bool resultValid(const garibaldi::SimResult &r,
                 const garibaldi::SystemConfig &cfg, std::uint64_t detailed);

/** @p gains as a JSON array. */
garibaldi::JsonValue gainsJson(const std::vector<GainRecord> &gains);

/**
 * The run manifest of @p w, with the LLC occupancy at the start of the
 * detailed window when it is known (@p warm_occupancy >= 0).
 */
garibaldi::JsonValue manifestJson(const WorkloadDef &w,
                                  double warm_occupancy);

/**
 * LLC occupancy after warmup alone: a twin of the traced simulation
 * run with a 1-instruction detailed window.
 */
double warmStartOccupancy(const WorkloadDef &w);

/** Peak resident set size of this process in MB. */
double peakRssMb();

/**
 * Run mode: the untraced, timed batch job; JSON on stdout.  With
 * @p warm_check the manifest also carries warmStartOccupancy(), run
 * after the timed part.
 */
int runUntraced(const WorkloadDef &w, bool warm_check);

/** Fraction of valid LLC frames of @p sys. */
double llcOccupancy(garibaldi::System &sys);

/** The configuration ExperimentContext::soloIpc builds for a solo run. */
garibaldi::SystemConfig soloConfig(const garibaldi::SystemConfig &base);

/** Gains of the fig11 pairs from a finished sweep_fig11 table. */
std::vector<GainRecord> sweepGains(const garibaldi::ResultsTable &t,
                                   const WorkloadDef &w);

/** Trace mode: spans and per-layer metrics; JSON on stdout. */
int runTraced(const WorkloadDef &w, const std::string &trace_path);

} // namespace simbench

#endif // SIMBENCH_BENCH_HH
