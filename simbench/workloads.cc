#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <thread>

#include "bench.hh"
#include "common/rng.hh"
#include "workloads/catalog.hh"

using namespace garibaldi;

namespace simbench
{

namespace
{

SystemConfig
seeded(std::uint32_t cores, std::uint64_t seed)
{
    SystemConfig cfg = defaultConfig(cores);
    cfg.seed = seed;
    return cfg;
}

/**
 * @p count mixes of @p cores slots that together hold every server
 * workload equally often (count * cores must be a multiple of 16),
 * shuffled from @p seed.  Unlike independent randomServerMix draws,
 * the total composition is the same for every seed, so set-up time,
 * memory and simulation rate do not swing with which workloads a seed
 * happens to draw; only the placement (mix and core) changes.
 */
std::vector<Mix>
balancedServerMixes(std::uint64_t seed, std::uint32_t count,
                    std::uint32_t cores)
{
    const std::vector<std::string> &names = serverWorkloadNames();
    std::vector<std::string> pool;
    while (pool.size() < std::size_t{count} * cores)
        pool.insert(pool.end(), names.begin(), names.end());
    Pcg32 rng(seed, 0xba1a);
    for (std::size_t i = pool.size() - 1; i > 0; --i)
        std::swap(pool[i], pool[rng.nextBounded(
                               static_cast<std::uint32_t>(i + 1))]);
    std::vector<Mix> mixes;
    for (std::uint32_t m = 0; m < count; ++m)
        mixes.push_back(explicitMix(
            "bal" + std::to_string(seed) + "." + std::to_string(m),
            {pool.begin() + std::ptrdiff_t{m} * cores,
             pool.begin() + std::ptrdiff_t{m + 1} * cores}));
    return mixes;
}

} // namespace

WorkloadDef
makeWorkload(const std::string &name, std::uint64_t seed)
{
    WorkloadDef w;
    w.seed = seed;
    if (name == "server_mjg8") {
        // The paper's best case: the largest instruction footprint,
        // Mockingjay with and without Garibaldi on the same seed.
        w.warmup = 100000;
        w.detailed = 100000;
        Mix mix = homogeneousMix("verilator", 8);
        w.sims.push_back({"mockingjay",
                          configWithPolicy(seeded(8, seed),
                                           PolicyKind::Mockingjay, false),
                          mix});
        w.sims.push_back({"mockingjay+g",
                          configWithPolicy(seeded(8, seed),
                                           PolicyKind::Mockingjay, true),
                          mix});
        w.tracedSim = 1;
    } else if (name == "stream_lru8") {
        // Write-heavy streaming: insert, MSHR, directory and DRAM do
        // the work; Garibaldi and the sampled policies are bypassed.
        w.warmup = 100000;
        w.detailed = 100000;
        w.sims.push_back({"lru",
                          configWithPolicy(seeded(8, seed),
                                           PolicyKind::LRU, false),
                          homogeneousMix("lbm", 8)});
        w.traceExtra.push_back({"lru+g",
                                configWithPolicy(seeded(8, seed),
                                                 PolicyKind::LRU, true),
                                homogeneousMix("lbm", 8)});
    } else if (name == "mix_hawkeye32") {
        // Many-core shape: 8 L2 clusters, 24 MB LLC, 32 layouts and
        // page tables, the Hawkeye/OPTgen path.
        w.warmup = 50000;
        w.detailed = 50000;
        Mix mix = balancedServerMixes(seed, 1, 32).front();
        w.sims.push_back({"hawkeye+g",
                          configWithPolicy(seeded(32, seed),
                                           PolicyKind::Hawkeye, true),
                          mix});
        w.traceExtra.push_back({"hawkeye",
                                configWithPolicy(seeded(32, seed),
                                                 PolicyKind::Hawkeye, false),
                                mix});
    } else if (name == "sweep_fig11") {
        // A small fig11-shaped sweep through SweepRunner::run.
        w.sweep = true;
        w.warmup = 50000;
        w.detailed = 50000;
        w.base = seeded(8, seed);
        // 4 mixes x 5 policies = 20 jobs: even waves on 4 workers.
        w.mixes = balancedServerMixes(seed, 4, 8);
        w.policies = {
            {"lru", PolicyKind::LRU, false},
            {"hawkeye", PolicyKind::Hawkeye, false},
            {"hawkeye+g", PolicyKind::Hawkeye, true},
            {"mockingjay", PolicyKind::Mockingjay, false},
            {"mockingjay+g", PolicyKind::Mockingjay, true},
        };
        w.workers = std::min(4u, std::max(1u,
                                 std::thread::hardware_concurrency()));
        // The per-layer replays run on the fig11 pair's Garibaldi side
        // of the first mix.
        w.sims.push_back({"mockingjay+g",
                          configWithPolicy(w.base, PolicyKind::Mockingjay,
                                           true),
                          w.mixes.front()});
    } else {
        return w;
    }
    w.name = name;
    return w;
}

std::vector<SweepJob>
sweepJobs(const WorkloadDef &w)
{
    SweepSpec spec(w.base);
    spec.mixes(w.mixes).policies(w.policies);
    return spec.expand();
}

std::vector<std::string>
soloWorkloads(const WorkloadDef &w)
{
    std::vector<std::string> solo;
    for (const Mix &m : w.mixes)
        for (const std::string &s : m.slots)
            if (std::find(solo.begin(), solo.end(), s) == solo.end())
                solo.push_back(s);
    return solo;
}

std::vector<GainRecord>
pairGains(const std::vector<std::string> &labels,
          const std::vector<double> &metric, const std::string &what)
{
    std::vector<GainRecord> gains;
    for (std::size_t i = 0; i < labels.size(); ++i)
        for (std::size_t k = 0; k < labels.size(); ++k)
            if (labels[k] == labels[i] + "+g" && metric[i] > 0)
                gains.push_back({labels[i], what,
                                 (metric[k] / metric[i] - 1.0) * 100.0});
    return gains;
}

JsonValue
gainsJson(const std::vector<GainRecord> &gains)
{
    JsonValue arr = JsonValue::array();
    for (const GainRecord &g : gains) {
        JsonValue o = JsonValue::object();
        o.set("pair", JsonValue::string(g.pair));
        o.set("what", JsonValue::string(g.what));
        o.set("pct", JsonValue::number(g.pct));
        arr.push(std::move(o));
    }
    return arr;
}

std::string
digestOf(const SimResult &r)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    auto mixIn = [&h](const std::string &s) {
        for (unsigned char c : s) {
            h ^= c;
            h *= 0x100000001b3ull;
        }
    };
    char buf[64];
    for (const CoreResult &c : r.cores) {
        std::snprintf(buf, sizeof(buf), "%llu/%llu;",
                      static_cast<unsigned long long>(c.instructions),
                      static_cast<unsigned long long>(c.cycles));
        mixIn(buf);
    }
    for (const StatSet *s : {&r.mem, &r.garibaldi, &r.tlb}) {
        for (const auto &[name, value] : s->entries()) {
            std::snprintf(buf, sizeof(buf), "=%.17g;", value);
            mixIn(name);
            mixIn(buf);
        }
        mixIn("|");
    }
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

bool
resultValid(const SimResult &r, const SystemConfig &cfg,
            std::uint64_t detailed)
{
    return r.cores.size() == cfg.numCores &&
           std::all_of(r.cores.begin(), r.cores.end(),
                       [&](const CoreResult &c) {
                           return c.instructions == detailed &&
                                  c.cycles > 0 && c.ipc > 0 &&
                                  c.ipc <= cfg.core.issueWidth;
                       });
}

double
warmStartOccupancy(const WorkloadDef &w)
{
    const SimJob &job = w.sims.at(w.tracedSim);
    System sys(job.config, job.mix);
    Simulator(sys).run(w.warmup, 1);
    return llcOccupancy(sys);
}

JsonValue
manifestJson(const WorkloadDef &w, double warm_occupancy)
{
    JsonValue m = JsonValue::object();
#ifdef NDEBUG
    m.set("build_type", JsonValue::string("optimized (NDEBUG)"));
#else
    m.set("build_type", JsonValue::string("assertions on (no NDEBUG)"));
#endif
#ifdef SIM_AUDIT
    m.set("sim_audit", JsonValue::boolean(true));
#else
    m.set("sim_audit", JsonValue::boolean(false));
#endif
#if defined(__clang__)
    m.set("compiler", JsonValue::string(std::string("clang ") +
                                        __clang_version__));
#elif defined(__GNUC__)
    m.set("compiler", JsonValue::string(std::string("gcc ") + __VERSION__));
#else
    m.set("compiler", JsonValue::string("unknown"));
#endif
    m.set("hardware_threads",
          JsonValue::number(std::thread::hardware_concurrency()));
    m.set("source_revision", JsonValue::string(w.revision));
    m.set("workload_seed", JsonValue::number(static_cast<double>(w.seed)));
    m.set("warmup_per_core",
          JsonValue::number(static_cast<double>(w.warmup)));
    m.set("detailed_per_core",
          JsonValue::number(static_cast<double>(w.detailed)));
    JsonValue configs = JsonValue::array();
    if (w.sweep) {
        for (const Mix &mix : w.mixes)
            for (const PolicyVariant &p : w.policies)
                configs.push(JsonValue::string(
                    mix.name + " " + p.label + ": " +
                    configWithPolicy(w.base, p.kind, p.garibaldi)
                        .summary()));
        configs.push(JsonValue::string("sweep workers: " +
                                       std::to_string(w.workers)));
    } else {
        for (const SimJob &job : w.sims)
            configs.push(JsonValue::string(job.label + " [" +
                                           job.mix.name + "]: " +
                                           job.config.summary()));
    }
    m.set("configs", std::move(configs));
    if (warm_occupancy >= 0)
        m.set("llc_occupancy_at_detailed_start",
              JsonValue::number(warm_occupancy));
    return m;
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // Linux: KiB
}

} // namespace simbench
