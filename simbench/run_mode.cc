#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench.hh"
#include "sim/metrics.hh"
#include "sweep/sweep_runner.hh"

using namespace garibaldi;

namespace simbench
{

double
llcOccupancy(System &sys)
{
    LlcBankSet &llc = sys.hierarchy().llc();
    std::uint64_t valid = 0;
    std::uint64_t frames = 0;
    for (std::uint32_t b = 0; b < llc.numBanks(); ++b) {
        const Cache &bank = llc.bank(b);
        for (std::uint32_t s = 0; s < bank.numSets(); ++s)
            for (std::uint32_t way = 0; way < bank.assoc(); ++way) {
                valid += bank.lineAt(s, way).valid ? 1 : 0;
                ++frames;
            }
    }
    return frames ? static_cast<double>(valid) / frames : 0.0;
}

SystemConfig
soloConfig(const SystemConfig &base)
{
    SystemConfig solo = base;
    solo.numCores = 1;
    solo.coresPerL2 = 1;
    solo.llcPolicy = PolicyKind::LRU;
    solo.garibaldiEnabled = false;
    solo.llcInstrPartitionWays = 0;
    solo.llcInstrOracle = false;
    return solo;
}

namespace
{

struct SimRecord
{
    std::string label;
    std::string mix;
    std::string digest;
    bool valid = false;
    double metric = 0; //!< hmean IPC (homogeneous) or weighted speedup
};

JsonValue
simsJson(const std::vector<SimRecord> &sims)
{
    JsonValue arr = JsonValue::array();
    for (const SimRecord &s : sims) {
        JsonValue o = JsonValue::object();
        o.set("label", JsonValue::string(s.label));
        o.set("mix", JsonValue::string(s.mix));
        o.set("digest", JsonValue::string(s.digest));
        o.set("valid", JsonValue::boolean(s.valid));
        o.set("metric", JsonValue::number(s.metric));
        arr.push(std::move(o));
    }
    return arr;
}

/**
 * Median host seconds of @p kSetupReps constructions of System
 * (@p cfg, @p mix), each destroyed before the next.
 */
double
setupSeconds(const SystemConfig &cfg, const Mix &mix)
{
    constexpr int kSetupReps = 5;
    std::vector<double> s;
    for (int i = 0; i < kSetupReps; ++i) {
        auto t0 = Clock::now();
        { System sys(cfg, mix); }
        s.push_back(secondsSince(t0));
    }
    std::sort(s.begin(), s.end());
    return s[s.size() / 2];
}

} // namespace

std::vector<GainRecord>
sweepGains(const ResultsTable &t, const WorkloadDef &w)
{
    // Geomean over mixes of each policy's weighted speedup over LRU,
    // as fig11 tabulates it; the gain is the ratio of two geomeans.
    std::vector<std::string> labels;
    std::vector<double> geo;
    for (const PolicyVariant &p : w.policies) {
        std::vector<double> speedups;
        for (const Mix &m : w.mixes)
            speedups.push_back(
                t.value({{"mix", m.name}, {"policy", p.label}}, "metric") /
                t.value({{"mix", m.name}, {"policy", "lru"}}, "metric"));
        labels.push_back(p.label);
        geo.push_back(geometricMean(speedups));
    }
    return pairGains(labels, geo,
                     "geomean weighted speedup over LRU, fig11 style");
}

int
runUntraced(const WorkloadDef &w, bool warm_check)
{
    std::vector<SimRecord> sims;
    double setup_s = 0;
    double run_s = 0;
    std::uint64_t sim_instr = 0;
    std::vector<GainRecord> gains;

    if (!w.sweep) {
        for (const SimJob &job : w.sims) {
            setup_s += setupSeconds(job.config, job.mix);
            auto sys = std::make_unique<System>(job.config, job.mix);
            Simulator sim(*sys);
            auto t1 = Clock::now();
            SimResult r = sim.run(w.warmup, w.detailed);
            run_s += secondsSince(t1);
            sim_instr += std::uint64_t{sys->numCores()} *
                         (w.warmup + w.detailed);
            sims.push_back({job.label, job.mix.name, digestOf(r),
                            resultValid(r, job.config, w.detailed),
                            r.ipcHarmonicMean()});
        }
        std::vector<std::string> labels;
        std::vector<double> metric;
        for (const SimRecord &s : sims) {
            labels.push_back(s.label);
            metric.push_back(s.metric);
        }
        gains = pairGains(labels, metric, "hmean IPC");
    } else {
        std::vector<SweepJob> jobs = sweepJobs(w);
        std::vector<std::string> solo = soloWorkloads(w);

        // Set-up: every System the sweep builds, solo runs included,
        // constructed here (SweepRunner builds its own inside).
        for (const SweepJob &job : jobs)
            setup_s += setupSeconds(job.config, job.mix);
        for (const std::string &s : solo)
            setup_s += setupSeconds(soloConfig(w.base), homogeneousMix(s, 1));

        std::vector<SimRecord> per_job(jobs.size());
        SweepOptions opts;
        opts.jobs = w.workers;
        opts.extraMetrics.push_back(
            {"valid", [&](const SimResult &r, const SweepJob &job) {
                 per_job[job.index] = {job.coord("policy"), job.mix.name,
                                       digestOf(r),
                                       resultValid(r, job.config, w.detailed),
                                       0.0};
                 return per_job[job.index].valid ? 1.0 : 0.0;
             }});
        ExperimentContext ctx(w.base, w.warmup, w.detailed);
        SweepRunner runner(ctx);
        auto t0 = Clock::now();
        ResultsTable table = runner.run(jobs, opts);
        run_s = secondsSince(t0);
        for (std::size_t i = 0; i < jobs.size(); ++i)
            per_job[i].metric = table.row(i).metrics[0];
        sims = per_job;
        sim_instr = (jobs.size() * w.base.numCores + solo.size()) *
                    (w.warmup + w.detailed);
        gains = sweepGains(table, w);
    }
    double rss = peakRssMb();

    JsonValue j = JsonValue::object();
    j.set("workload", JsonValue::string(w.name));
    j.set("mode", JsonValue::string("run"));
    j.set("sim_instructions",
          JsonValue::number(static_cast<double>(sim_instr)));
    j.set("run_s", JsonValue::number(run_s));
    j.set("setup_s", JsonValue::number(setup_s));
    j.set("peak_rss_mb", JsonValue::number(rss));
    j.set("gain", gainsJson(gains));
    j.set("sims", simsJson(sims));
    j.set("manifest",
          manifestJson(w, warm_check ? warmStartOccupancy(w) : -1.0));
    std::printf("%s\n", j.dump().c_str());
    return 0;
}

} // namespace simbench
