/**
 * @file
 * The traced run.  It times each layer from outside, through the
 * public calls of its module, and keeps one span per timed boundary in
 * memory (name, start, end, parent, simulation id); the spans are
 * written once at the end in the Chrome trace-event format obs/trace
 * emits.  Counts come from the real run's SimResult; host ns come from
 * replaying what the real run did into fresh instances of each
 * component:
 *
 *  - ops: MicroOpStream::fill on a twin System (same config and seed,
 *    so the same ops the real run consumed);
 *  - core: the ops replayed into a fresh TagePredictor, a fresh
 *    TlbHierarchy and the twin core's PageTable;
 *  - mem: the derived demand stream through MemoryHierarchy::
 *    submitBatch, and the LLC stream captured with addLlcListener
 *    through a fresh LlcBankSet, Directory and Dram;
 *  - garibaldi: a forwarding LlcCompanion installed with
 *    setLlcCompanion on the real run (its SimResult stays identical).
 */

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_set>

#include "bench.hh"
#include "core/branch/tage.hh"
#include "core/tlb.hh"
#include "garibaldi/garibaldi.hh"
#include "mem/coherence.hh"
#include "mem/dram.hh"
#include "mem/hierarchy.hh"
#include "sim/metrics.hh"
#include "sweep/sweep_runner.hh"
#include "sweep/thread_pool.hh"
#include "workloads/catalog.hh"
#include "workloads/synth_workload.hh"

using namespace garibaldi;

namespace simbench
{
namespace
{

/** Spans kept in memory and written once, as Chrome trace events. */
class SpanLog
{
  public:
    /** Record a finished span; @return its id. */
    int
    add(const std::string &name, Clock::time_point start,
        Clock::time_point end, int parent, int sim, int tid = 0)
    {
        std::lock_guard<std::mutex> lk(mtx);
        spans.push_back({name, us(start), us(end), parent, sim, tid});
        return static_cast<int>(spans.size()) - 1;
    }

    /** Start a span that encloses later ones; close() ends it. */
    int
    open(const std::string &name, int parent, int sim, int tid = 0)
    {
        auto now = Clock::now();
        return add(name, now, now, parent, sim, tid);
    }

    void
    close(int id)
    {
        auto now = Clock::now();
        std::lock_guard<std::mutex> lk(mtx);
        spans[static_cast<std::size_t>(id)].end = us(now);
    }

    /** Write the spans, with @p manifest as the trace's otherData. */
    bool
    write(const std::string &path, const JsonValue &manifest) const
    {
        std::lock_guard<std::mutex> lk(mtx);
        std::ofstream out(path);
        if (!out)
            return false;
        out << "{\"traceEvents\":[\n";
        for (std::size_t i = 0; i < spans.size(); ++i) {
            const Span &s = spans[i];
            char buf[160];
            std::snprintf(buf, sizeof(buf),
                          "{\"ph\":\"X\",\"pid\":0,\"tid\":%d,"
                          "\"ts\":%.3f,\"dur\":%.3f,\"name\":\"",
                          s.tid, s.start, std::max(s.end - s.start, 0.001));
            out << (i ? ",\n" : "") << buf << s.name;
            std::snprintf(buf, sizeof(buf),
                          "\",\"args\":{\"id\":%zu,\"parent\":%d,"
                          "\"sim\":%d}}",
                          i, s.parent, s.sim);
            out << buf;
        }
        out << "\n],\"otherData\":" << manifest.dump() << "}\n";
        return static_cast<bool>(out);
    }

  private:
    struct Span
    {
        std::string name;
        double start, end; //!< microseconds since the log began
        int parent, sim, tid;
    };

    double
    us(Clock::time_point t) const
    {
        return std::chrono::duration<double, std::micro>(t - origin)
            .count();
    }

    Clock::time_point origin = Clock::now();
    std::vector<Span> spans;
    mutable std::mutex mtx;
};

/** Runs @p body, records it as a span; @return host seconds. */
template <typename F>
double
timed(SpanLog &log, const std::string &name, int parent, int sim, F &&body)
{
    auto t0 = Clock::now();
    body();
    auto t1 = Clock::now();
    log.add(name, t0, t1, parent, sim);
    return std::chrono::duration<double>(t1 - t0).count();
}

double
nsSince(Clock::time_point t0)
{
    return std::chrono::duration<double, std::nano>(Clock::now() - t0)
        .count();
}

enum Hook { kObserveAccess, kShouldProtect, kInstrMissPrefetch,
            kObserveInsert, kObserveEvict, kNumHooks };
constexpr const char *kHookNames[kNumHooks] = {
    "observe_access", "should_protect", "instr_miss_prefetch",
    "observe_insert", "observe_evict"};

/** What the Garibaldi shim counted and timed over one run. */
struct HookStats
{
    std::uint64_t calls[kNumHooks] = {};
    double ns[kNumHooks] = {};
    std::uint64_t grants = 0;
    std::uint64_t protectUseful = 0;
    std::uint64_t pairPrefetched = 0;
    std::uint64_t pairUseful = 0;
};

/** Forwarding LlcCompanion that times and counts every Garibaldi hook. */
class TimingCompanion : public LlcCompanion
{
  public:
    explicit TimingCompanion(Garibaldi &g) : inner(g) {}

    void
    observeAccess(const MemAccess &acc, bool hit, Cycle now) override
    {
        auto t0 = Clock::now();
        inner.observeAccess(acc, hit, now);
        note(kObserveAccess, t0);
        if (hit) {
            Addr line = acc.lineAddr();
            if (granted.erase(line))
                ++stats.protectUseful;
            if (pairLive.erase(line))
                ++stats.pairUseful;
        }
    }

    bool
    shouldProtect(Addr victim) override
    {
        auto t0 = Clock::now();
        bool grant = inner.shouldProtect(victim);
        note(kShouldProtect, t0);
        if (grant) {
            ++stats.grants;
            granted.insert(lineAlign(victim));
        }
        return grant;
    }

    void
    instrMissPrefetch(Addr instr_line, std::vector<Addr> &out) override
    {
        std::size_t before = out.size();
        auto t0 = Clock::now();
        inner.instrMissPrefetch(instr_line, out);
        note(kInstrMissPrefetch, t0);
        // The hierarchy issues these right away; only the ones that
        // really enter the LLC count as pair-prefetched.
        pairCandidates.clear();
        for (std::size_t i = before; i < out.size(); ++i)
            pairCandidates.insert(lineAlign(out[i]));
    }

    void
    observeInsert(Addr line, bool is_instr, bool prefetched) override
    {
        auto t0 = Clock::now();
        inner.observeInsert(line, is_instr, prefetched);
        note(kObserveInsert, t0);
        if (prefetched && pairCandidates.erase(lineAlign(line))) {
            ++stats.pairPrefetched;
            pairLive.insert(lineAlign(line));
        }
    }

    void
    observeEvict(Addr line, bool is_instr) override
    {
        auto t0 = Clock::now();
        inner.observeEvict(line, is_instr);
        note(kObserveEvict, t0);
        granted.erase(lineAlign(line));
        pairLive.erase(lineAlign(line));
    }

    unsigned maxProtectAttempts() const override
    {
        return inner.maxProtectAttempts();
    }
    Cycle queryCost() const override { return inner.queryCost(); }

    HookStats stats;

  private:
    void
    note(Hook h, Clock::time_point t0)
    {
        stats.ns[h] += nsSince(t0);
        ++stats.calls[h];
    }

    Garibaldi &inner;
    std::unordered_set<Addr> granted;
    std::unordered_set<Addr> pairCandidates;
    std::unordered_set<Addr> pairLive;
};

/** One demand access that reached the LLC during the real run. */
struct LlcRecord
{
    MemAccess acc;
    Cycle now = 0;
    bool hit = false;
};

/** Captures the demand LLC stream (addLlcListener). */
class LlcCapture : public LlcEventListener
{
  public:
    void
    onLlcAccess(const Transaction &txn, bool hit) override
    {
        records.push_back({txn.req, txn.issued, hit});
    }
    std::vector<LlcRecord> records;
};

/** Per-layer metric table, in insertion order. */
class Layers
{
  public:
    void
    set(const std::string &name, double value, const std::string &unit)
    {
        if (!index.count(name)) {
            index[name] = order.size();
            order.push_back({name, value, unit});
        } else {
            order[index[name]].value = value;
        }
    }

    JsonValue
    json() const
    {
        JsonValue o = JsonValue::object();
        for (const Entry &e : order) {
            JsonValue m = JsonValue::object();
            m.set("value", JsonValue::number(e.value));
            m.set("unit", JsonValue::string(e.unit));
            o.set(e.name, std::move(m));
        }
        return o;
    }

  private:
    struct Entry
    {
        std::string name;
        double value;
        std::string unit;
    };
    std::map<std::string, std::size_t> index;
    std::vector<Entry> order;
};

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0.0;
}

double
stat(const StatSet &s, const std::string &name)
{
    return s.has(name) ? s.get(name) : 0.0;
}

std::uint64_t
detailedInstructions(const SimResult &r)
{
    std::uint64_t n = 0;
    for (const CoreResult &c : r.cores)
        n += c.instructions;
    return n;
}

/** What a traced real run leaves behind for the replays. */
struct TracedRun
{
    SimResult result;
    double runSeconds = 0;
    std::uint64_t pages = 0;
    double occupancy = 0;
    std::vector<LlcRecord> llc;
    /** Set when the simulation runs Garibaldi. */
    std::unique_ptr<HookStats> hooks;
};

/**
 * Run @p job with the LLC capture and (when Garibaldi is on) the
 * timing shim attached.
 */
TracedRun
runInstrumented(const WorkloadDef &w, const SimJob &job, SpanLog &log,
                int parent, int sim)
{
    TracedRun tr;
    // Declared before the System that points at them, so they outlive it.
    LlcCapture capture;
    std::unique_ptr<TimingCompanion> shim;
    std::unique_ptr<System> sys;
    timed(log, "system.setup", parent, sim, [&] {
        sys = std::make_unique<System>(job.config, job.mix);
    });
    sys->hierarchy().addLlcListener(&capture);
    if (Garibaldi *g = sys->garibaldi()) {
        shim = std::make_unique<TimingCompanion>(*g);
        sys->hierarchy().setLlcCompanion(shim.get());
    }
    Simulator simulator(*sys);
    tr.runSeconds = timed(log, "sim.run", parent, sim, [&] {
        tr.result = simulator.run(w.warmup, w.detailed);
    });
    for (CoreId c = 0; c < sys->numCores(); ++c)
        tr.pages += sys->core(c).pageTable().allocatedPages();
    tr.occupancy = llcOccupancy(*sys);
    tr.llc = std::move(capture.records);
    if (shim)
        tr.hooks = std::make_unique<HookStats>(shim->stats);
    return tr;
}

/** Untraced run of @p job: digest, metric and host seconds. */
struct PlainRun
{
    SimResult result;
    double runSeconds = 0;
};

PlainRun
runPlain(const WorkloadDef &w, const SimJob &job, SpanLog &log, int parent,
         int sim)
{
    PlainRun pr;
    System sys(job.config, job.mix);
    Simulator simulator(sys);
    pr.runSeconds = timed(log, "sim.run.untraced", parent, sim, [&] {
        pr.result = simulator.run(w.warmup, w.detailed);
    });
    return pr;
}

/**
 * The demand LLC stream captured from the real run, replayed into a
 * fresh LlcBankSet (configured policy, then LRU), a fresh Directory
 * (behind a replayed per-cluster L2) and a fresh Dram.
 */
void
replayLlcStream(const SystemConfig &cfg, const TracedRun &tr,
                double detailed_instr, SpanLog &log, int parent, int sim,
                Layers &L)
{
    const SimResult &res = tr.result;
    const HierarchyParams hp = cfg.hierarchyParams();
    // The captured LLC stream: the configured policy, then LRU.
    auto llcReplay = [&](PolicyKind policy, const char *span) {
        CacheParams p = hp.llc;
        p.name = "llc";
        p.policy = policy;
        p.bankServiceCycles = hp.llcBankServiceCycles;
        p.bankPorts = hp.llcBankPorts;
        LlcBankSet llc(p, hp.llcBanks, hp.llcBankInterleaveShift);
        return timed(log, span, parent, sim, [&] {
            for (const LlcRecord &r : tr.llc)
                if (!llc.access(r.acc))
                    llc.insert(r.acc);
        });
    };
    const double n_llc = static_cast<double>(tr.llc.size());
    double llc_s = llcReplay(hp.llc.policy, "mem.llc");
    double lru_s = llcReplay(PolicyKind::LRU, "mem.llc.lru_baseline");
    L.set("mem.llc.ns_per_access", ratio(llc_s * 1e9, n_llc), "ns");
    L.set("mem.llc.hit_ratio", stat(res.mem, "llc.hit_rate"), "ratio");
    L.set("mem.llc.instr_share",
          ratio(stat(res.mem, "llc.instr_accesses"),
                stat(res.mem, "llc.accesses")),
          "ratio");
    L.set("mem.llc.instr_miss_per_kinstr",
          ratio(stat(res.mem, "llc.instr_misses") * 1000.0,
                detailed_instr),
          "1/kinstr");
    L.set("mem.llc.occupancy", tr.occupancy, "ratio");
    L.set("mem.policy.ns_per_access", ratio((llc_s - lru_s) * 1e9, n_llc),
          "ns");

    // Coherence: the LLC stream is the L2 demand misses; a replayed
    // per-cluster L2 yields the evictions; fills and evictions go to a
    // fresh Directory.
    struct DirOp
    {
        Addr line;
        std::uint32_t cluster;
        bool fill, write;
    };
    std::vector<DirOp> dir_ops;
    {
        std::vector<std::unique_ptr<Cache>> l2s;
        for (std::uint32_t cl = 0; cl * hp.coresPerL2 < cfg.numCores; ++cl)
            l2s.push_back(std::make_unique<Cache>(hp.l2));
        for (const LlcRecord &r : tr.llc) {
            std::uint32_t cl = r.acc.core / hp.coresPerL2;
            Eviction ev = l2s[cl]->insert(r.acc);
            if (ev.valid)
                dir_ops.push_back({ev.lineAddr, cl, false, false});
            dir_ops.push_back({r.acc.lineAddr(), cl, true, r.acc.isWrite});
        }
        Directory dir(static_cast<std::uint32_t>(l2s.size()));
        std::vector<std::uint32_t> inval;
        double dir_s = timed(log, "mem.coherence", parent, sim, [&] {
            for (const DirOp &op : dir_ops) {
                if (op.fill) {
                    inval.clear();
                    dir.onFill(op.line, op.cluster, op.write, inval);
                } else {
                    dir.onEvict(op.line, op.cluster);
                }
            }
        });
        L.set("mem.coherence.ns_per_op",
              ratio(dir_s * 1e9, static_cast<double>(dir_ops.size())),
              "ns");
    }

    // DRAM: the captured LLC misses as reads.
    {
        Dram dram(hp.dram);
        std::uint64_t reads = 0;
        double dram_s = timed(log, "mem.dram", parent, sim, [&] {
            for (const LlcRecord &r : tr.llc)
                if (!r.hit) {
                    dram.request(r.acc.lineAddr(), false, r.now);
                    ++reads;
                }
        });
        L.set("mem.dram.ns_per_request",
              ratio(dram_s * 1e9, static_cast<double>(reads)), "ns");
    }
    L.set("mem.dram.reads_per_kinstr",
          ratio(stat(res.mem, "dram.reads") * 1000.0, detailed_instr),
          "1/kinstr");
    L.set("mem.dram.queue_cycles_per_read",
          ratio(stat(res.mem, "dram.queued_cycles"),
                stat(res.mem, "dram.reads")),
          "cycles");

}

/**
 * Replay the traced simulation layer by layer into fresh components
 * and fill the workloads/core/mem metrics; @return the host seconds
 * the replays attribute to workloads + core + mem.hierarchy.
 * @p faithful is set when the replayed ops reproduce the real run's
 * per-core detailed-window branch, mispredict, fetch-line and memory-op
 * counts exactly.
 */
double
replayLayers(const WorkloadDef &w, const SimJob &job, const TracedRun &tr,
             SpanLog &log, int parent, int sim, Layers &L, bool &faithful)
{
    const SystemConfig &cfg = job.config;
    const SimResult &res = tr.result;
    const std::uint32_t cores = cfg.numCores;
    const std::uint64_t per_core = w.warmup + w.detailed;
    const double detailed_instr =
        static_cast<double>(detailedInstructions(res));

    std::unique_ptr<System> twin;
    timed(log, "twin.setup", parent, sim, [&] {
        twin = std::make_unique<System>(cfg, job.mix);
    });

    double fill_ns = 0, tage_ns = 0, tlb_ns = 0, pt_ns = 0;
    std::uint64_t branches = 0, tlb_accesses = 0;
    std::vector<TimedAccess> demand;
    std::vector<MicroOp> ops(per_core);
    struct Translation
    {
        Addr addr;
        std::uint64_t instr; //!< index of the op that issued it
        bool isInstr, isWrite;
        Addr pc;
    };
    std::vector<Translation> xl;
    std::vector<Addr> paddr;
    faithful = true;
    for (CoreId c = 0; c < cores; ++c) {
        // Ops in the simulator's own chunk size.
        constexpr std::size_t kChunk = 64;
        auto t0 = Clock::now();
        for (std::size_t i = 0; i < per_core; i += kChunk)
            twin->stream(c).fill(ops.data() + i,
                                 std::min<std::size_t>(kChunk,
                                                       per_core - i));
        fill_ns += nsSince(t0);
        log.add("workloads.fill", t0, Clock::now(), parent, sim, 1 + c);

        // TAGE: every branch in retirement order, as CoreModel::step.
        TagePredictor bp;
        std::vector<bool> mispredicted(per_core, false);
        t0 = Clock::now();
        for (std::size_t i = 0; i < per_core; ++i) {
            const MicroOp &op = ops[i];
            if (!op.isBranch)
                continue;
            if (op.isIndirect) {
                mispredicted[i] = bp.predictIndirect(op.pc) !=
                                  op.branchTarget;
                bp.updateIndirect(op.pc, op.branchTarget);
            } else {
                mispredicted[i] = bp.predict(op.pc) != op.branchTaken;
                bp.update(op.pc, op.branchTaken);
            }
        }
        tage_ns += nsSince(t0);
        log.add("core.tage", t0, Clock::now(), parent, sim, 1 + c);
        branches += static_cast<std::uint64_t>(
            std::count_if(ops.begin(), ops.end(),
                          [](const MicroOp &op) { return op.isBranch; }));

        // Translations in CoreModel order: the fetch line when it
        // changes (a mispredict refetches), then the data address.
        xl.clear();
        Addr last_line = ~Addr{0};
        for (std::size_t i = 0; i < per_core; ++i) {
            const MicroOp &op = ops[i];
            Addr line = lineAlign(op.pc);
            if (line != last_line) {
                last_line = line;
                xl.push_back({line, i, true, false, op.pc});
            }
            if (mispredicted[i])
                last_line = ~Addr{0};
            if (op.mem != MicroOp::MemKind::None)
                xl.push_back({op.vaddr, i, false,
                              op.mem == MicroOp::MemKind::Store, op.pc});
        }

        TlbHierarchy tlb(cfg.core.tlb);
        t0 = Clock::now();
        for (const Translation &t : xl) {
            if (t.isInstr)
                tlb.accessInstr(pageNumber(t.addr));
            else
                tlb.accessData(pageNumber(t.addr));
        }
        tlb_ns += nsSince(t0);
        log.add("core.tlb", t0, Clock::now(), parent, sim, 1 + c);
        tlb_accesses += xl.size();

        PageTable &pt = twin->core(c).pageTable();
        paddr.resize(xl.size());
        t0 = Clock::now();
        for (std::size_t k = 0; k < xl.size(); ++k)
            paddr[k] = pt.translate(xl[k].addr);
        pt_ns += nsSince(t0);
        log.add("core.page_table", t0, Clock::now(), parent, sim, 1 + c);

        // The detailed window is ops [warmup, warmup + detailed).
        const CoreResult &cr = res.cores.at(c);
        std::uint64_t d_branches = 0, d_mispredicts = 0, d_mem = 0;
        std::uint64_t d_fetches = 0;
        for (std::size_t i = w.warmup; i < per_core; ++i) {
            d_branches += ops[i].isBranch ? 1 : 0;
            d_mispredicts += mispredicted[i] ? 1 : 0;
            d_mem += ops[i].mem != MicroOp::MemKind::None ? 1 : 0;
        }
        for (const Translation &t : xl)
            d_fetches += t.isInstr && t.instr >= w.warmup ? 1 : 0;
        faithful = faithful && d_branches == cr.branches &&
                   d_mispredicts == cr.mispredicts &&
                   d_fetches == cr.ifetchLines &&
                   d_mem == cr.loads + cr.stores;

        // Issue times: op index scaled by the core's measured CPI.
        double cpi = ratio(static_cast<double>(cr.cycles),
                           static_cast<double>(cr.instructions));
        for (std::size_t k = 0; k < xl.size(); ++k) {
            TimedAccess ta;
            ta.acc.core = c;
            ta.acc.pc = xl[k].pc;
            ta.acc.paddr = paddr[k];
            ta.acc.isInstr = xl[k].isInstr;
            ta.acc.isWrite = xl[k].isWrite;
            ta.now = static_cast<Cycle>(static_cast<double>(xl[k].instr) *
                                        cpi);
            demand.push_back(ta);
        }
    }
    ops = {};
    std::stable_sort(demand.begin(), demand.end(),
                     [](const TimedAccess &a, const TimedAccess &b) {
                         return a.now < b.now;
                     });

    const double total_ops = static_cast<double>(per_core) * cores;
    L.set("workloads.fill.ns_per_op", fill_ns / total_ops, "ns");
    double mem_ops = 0;
    for (const CoreResult &c : res.cores)
        mem_ops += static_cast<double>(c.loads + c.stores);
    L.set("workloads.mem_op_ratio", ratio(mem_ops, detailed_instr),
          "ratio");

    double res_branches = 0, res_mispredicts = 0;
    for (const CoreResult &c : res.cores) {
        res_branches += static_cast<double>(c.branches);
        res_mispredicts += static_cast<double>(c.mispredicts);
    }
    L.set("core.tage.ns_per_branch",
          ratio(tage_ns, static_cast<double>(branches)), "ns");
    L.set("core.tage.mispredict_ratio",
          ratio(res_mispredicts, res_branches), "ratio");
    L.set("core.tlb.ns_per_access",
          ratio(tlb_ns, static_cast<double>(tlb_accesses)), "ns");
    double l1tlb_misses = stat(res.tlb, "itlb_misses") +
                          stat(res.tlb, "dtlb_misses");
    double l1tlb_accesses = l1tlb_misses + stat(res.tlb, "itlb_hits") +
                            stat(res.tlb, "dtlb_hits");
    L.set("core.tlb.miss_ratio", ratio(l1tlb_misses, l1tlb_accesses),
          "ratio");
    L.set("core.page_table.ns_per_translate",
          ratio(pt_ns, static_cast<double>(tlb_accesses)), "ns");
    L.set("core.page_table.pages", static_cast<double>(tr.pages),
          "count");

    // The demand stream through a fresh hierarchy (and a fresh
    // Garibaldi when the workload enables it).
    HierarchyParams hp = cfg.hierarchyParams();
    double hier_s = 0;
    {
        MemoryHierarchy mh(hp);
        std::unique_ptr<Garibaldi> g;
        if (cfg.garibaldiEnabled) {
            g = std::make_unique<Garibaldi>(cfg.garibaldi, cores);
            mh.setLlcCompanion(g.get());
        }
        constexpr std::size_t kBatch = 256;
        hier_s = timed(log, "mem.hierarchy", parent, sim, [&] {
            for (std::size_t i = 0; i < demand.size(); i += kBatch)
                mh.submitBatch(demand.data() + i,
                               std::min(kBatch, demand.size() - i));
        });
    }
    L.set("mem.hierarchy.ns_per_access",
          ratio(hier_s * 1e9, static_cast<double>(demand.size())), "ns");
    L.set("mem.hierarchy.accesses_per_instr",
          ratio(static_cast<double>(demand.size()), total_ops), "ratio");
    demand = {};

    replayLlcStream(cfg, tr, detailed_instr, log, parent, sim, L);
    return (fill_ns + tage_ns + tlb_ns + pt_ns) * 1e-9 + hier_s;
}

/** The garibaldi.* metrics from the shim's counts (zeros without). */
void
garibaldiMetrics(const HookStats *s, Layers &L)
{
    for (int h = 0; h < kNumHooks; ++h) {
        std::string base = std::string("garibaldi.") + kHookNames[h];
        double calls = s ? static_cast<double>(s->calls[h]) : 0.0;
        L.set(base + ".calls", calls, "count");
        L.set(base + ".ns_per_call", s ? ratio(s->ns[h], calls) : 0.0,
              "ns");
    }
    L.set("garibaldi.protect.grant_ratio",
          s ? ratio(static_cast<double>(s->grants),
                    static_cast<double>(s->calls[kShouldProtect]))
            : 0.0,
          "ratio");
    L.set("garibaldi.protect.useful_ratio",
          s ? ratio(static_cast<double>(s->protectUseful),
                    static_cast<double>(s->grants))
            : 0.0,
          "ratio");
    L.set("garibaldi.pair_prefetch.useful_ratio",
          s ? ratio(static_cast<double>(s->pairUseful),
                    static_cast<double>(s->pairPrefetched))
            : 0.0,
          "ratio");
}

/**
 * Median over five passes of the summed construction time of each
 * component of every System in @p configs.
 */
void
measureSetup(const std::vector<std::pair<SystemConfig, Mix>> &configs,
             SpanLog &log, int parent, Layers &L)
{
    constexpr int kReps = 5;
    std::vector<double> hier, work, gari;
    for (int rep = 0; rep < kReps; ++rep) {
        double h = 0, wl = 0, g = 0;
        for (const auto &[cfg, mix] : configs) {
            h += timed(log, "setup.hierarchy", parent, -1, [&] {
                MemoryHierarchy mh(cfg.hierarchyParams());
            });
            wl += timed(log, "setup.workloads", parent, -1, [&] {
                std::vector<std::unique_ptr<SynthWorkload>> streams;
                for (CoreId c = 0; c < cfg.numCores; ++c)
                    streams.push_back(std::make_unique<SynthWorkload>(
                        workloadByName(mix.slots[c]), mix64(cfg.seed + c)));
            });
            if (cfg.garibaldiEnabled)
                g += timed(log, "setup.garibaldi", parent, -1, [&] {
                    Garibaldi module(cfg.garibaldi, cfg.numCores);
                });
        }
        hier.push_back(h);
        work.push_back(wl);
        gari.push_back(g);
    }
    auto median = [](std::vector<double> v) {
        std::sort(v.begin(), v.end());
        return v[v.size() / 2];
    };
    L.set("setup.hierarchy_s", median(hier), "s");
    L.set("setup.workloads_s", median(work), "s");
    L.set("setup.garibaldi_s", median(gari), "s");
}

struct SimOut
{
    std::string label, mix, digest, tracedDigest;
    bool valid = false;
};

JsonValue
simOutsJson(const std::vector<SimOut> &sims)
{
    JsonValue arr = JsonValue::array();
    for (const SimOut &s : sims) {
        JsonValue o = JsonValue::object();
        o.set("label", JsonValue::string(s.label));
        o.set("mix", JsonValue::string(s.mix));
        o.set("digest", JsonValue::string(s.digest));
        o.set("traced_digest", JsonValue::string(s.tracedDigest));
        o.set("valid", JsonValue::boolean(s.valid));
        arr.push(std::move(o));
    }
    return arr;
}

/** What the traced pass over a workload leaves for the common tail. */
struct TracedWorkload
{
    std::vector<SimOut> outs;
    std::vector<GainRecord> gains;
    double untracedInstr = 0, untracedS = 0;
    double tracedInstr = 0, tracedS = 0;
    /** Untraced Simulator::run seconds of the replayed simulation. */
    double replayedPlainS = 0;
    std::vector<std::pair<SystemConfig, Mix>> setupConfigs;
    std::unique_ptr<TracedRun> replaySource;
    std::unique_ptr<HookStats> hooks;
};

/**
 * A workload without the sweep module: every simulation (the traced-only
 * pair partner included) untraced, then instrumented.
 */
TracedWorkload
traceSims(const WorkloadDef &w, SpanLog &log, int root, Layers &L)
{
    TracedWorkload tw;
    std::vector<SimJob> sims = w.sims;
    sims.insert(sims.end(), w.traceExtra.begin(), w.traceExtra.end());
    // Untraced pass first (one worker: the sweep.* numbers of a
    // workload without the sweep module), then the traced pass.
    std::vector<std::string> labels;
    std::vector<double> metric;
    std::vector<PlainRun> plain;
    double job_max = 0;
    auto t_pass = Clock::now();
    for (std::size_t i = 0; i < sims.size(); ++i) {
        plain.push_back(
            runPlain(w, sims[i], log, root, static_cast<int>(i)));
        tw.untracedS += plain.back().runSeconds;
        job_max = std::max(job_max, plain.back().runSeconds);
    }
    double pass_s = secondsSince(t_pass);
    L.set("sweep.idle_pct", 100.0 * (1.0 - ratio(tw.untracedS, pass_s)),
          "%");
    L.set("sweep.job_s.max", job_max, "s");
    L.set("sweep.solo_s_share", 0.0, "%");

    for (std::size_t i = 0; i < sims.size(); ++i) {
        const SimJob &job = sims[i];
        int sim = static_cast<int>(i);
        int span = log.open("simulation." + job.label, root, sim);
        auto tr = std::make_unique<TracedRun>(
            runInstrumented(w, job, log, span, sim));
        log.close(span);
        double instr = static_cast<double>(job.config.numCores) *
                       static_cast<double>(w.warmup + w.detailed);
        tw.untracedInstr += instr;
        tw.tracedInstr += instr;
        tw.tracedS += tr->runSeconds;
        const SimResult &pr = plain[i].result;
        tw.outs.push_back({job.label, job.mix.name, digestOf(pr),
                           digestOf(tr->result),
                           resultValid(pr, job.config, w.detailed) &&
                               resultValid(tr->result, job.config,
                                           w.detailed)});
        labels.push_back(job.label);
        metric.push_back(pr.ipcHarmonicMean());
        tw.setupConfigs.push_back({job.config, job.mix});
        // The hook numbers come from the replayed simulation when
        // it runs Garibaldi, else from the first one that does.
        if (tr->hooks && (i == w.tracedSim || !tw.hooks))
            tw.hooks = std::move(tr->hooks);
        if (i == w.tracedSim) {
            tw.replayedPlainS = plain[i].runSeconds;
            tw.replaySource = std::move(tr);
        }
    }
    tw.gains = pairGains(labels, metric, "hmean IPC");
    return tw;
}

/**
 * sweep_fig11: the sweep untraced, then with solo and job spans, then
 * the replayed simulation on its own, untraced and instrumented.
 */
TracedWorkload
traceSweep(const WorkloadDef &w, SpanLog &log, int root, Layers &L)
{
    TracedWorkload tw;
    const SimJob &replayed = w.sims.at(w.tracedSim);
    std::vector<SweepJob> jobs = sweepJobs(w);
    std::vector<std::string> solo = soloWorkloads(w);
    double instr = static_cast<double>(jobs.size() * w.base.numCores +
                                       solo.size()) *
                   static_cast<double>(w.warmup + w.detailed);
    for (const SweepJob &job : jobs)
        tw.setupConfigs.push_back({job.config, job.mix});
    for (const std::string &s : solo)
        tw.setupConfigs.push_back(
            {soloConfig(w.base), homogeneousMix(s, 1)});

    // Untraced sweep: the reference digests and rate.
    std::vector<std::string> plain_digest(jobs.size());
    std::vector<bool> plain_ok(jobs.size());
    {
        SweepOptions opts;
        opts.jobs = w.workers;
        opts.extraMetrics.push_back(
            {"digest", [&](const SimResult &r, const SweepJob &job) {
                 plain_digest[job.index] = digestOf(r);
                 plain_ok[job.index] = resultValid(r, job.config, w.detailed);
                 return 0.0;
             }});
        ExperimentContext ctx(w.base, w.warmup, w.detailed);
        auto t0 = Clock::now();
        ResultsTable table = SweepRunner(ctx).run(jobs, opts);
        tw.untracedS = secondsSince(t0);
        tw.untracedInstr = instr;
        tw.gains = sweepGains(table, w);
    }

    // Traced sweep: solo runs prewarmed on a pool shaped like the
    // runner's, then the fan-out with one span per job (a job ends
    // when its metric column is extracted, and starts when its
    // worker's previous job ended).
    ExperimentContext ctx(w.base, w.warmup, w.detailed);
    std::vector<double> solo_s(solo.size());
    std::vector<double> job_s(jobs.size());
    std::vector<std::string> traced_digest(jobs.size());
    auto t_sweep = Clock::now();
    const int sweep_span = log.open("sweep.run", root, -1, 100);
    {
        ThreadPool pool(w.workers);
        pool.parallelFor(solo.size(), [&](std::size_t i) {
            auto t0 = Clock::now();
            ctx.soloIpc(solo[i]);
            solo_s[i] = secondsSince(t0);
            log.add("sweep.solo", t0, Clock::now(), sweep_span, -1,
                    100);
        });
    }
    // One lane per worker thread: when its last job ended.
    struct Lane
    {
        Clock::time_point lastEnd;
        int tid;
    };
    std::mutex lanes_mtx;
    std::map<std::thread::id, Lane> lanes;
    const auto t_fan = Clock::now();
    SweepOptions opts;
    opts.jobs = w.workers;
    opts.extraMetrics.push_back(
        {"digest", [&](const SimResult &r, const SweepJob &job) {
             traced_digest[job.index] = digestOf(r);
             auto now = Clock::now();
             std::lock_guard<std::mutex> lk(lanes_mtx);
             Lane &lane = lanes.try_emplace(std::this_thread::get_id(),
                                            Lane{t_fan, static_cast<int>(
                                                            lanes.size())})
                              .first->second;
             job_s[job.index] =
                 std::chrono::duration<double>(now - lane.lastEnd).count();
             log.add("sweep.job", lane.lastEnd, now, sweep_span,
                     static_cast<int>(job.index), 101 + lane.tid);
             lane.lastEnd = now;
             return 0.0;
         }});
    SweepRunner(ctx).run(jobs, opts);
    tw.tracedS = secondsSince(t_sweep);
    log.close(sweep_span);
    tw.tracedInstr = instr;
    for (std::size_t i = 0; i < jobs.size(); ++i)
        tw.outs.push_back({jobs[i].coord("policy"), jobs[i].mix.name,
                           plain_digest[i], traced_digest[i], plain_ok[i]});

    double busy = 0, job_max = 0, solo_total = 0;
    for (double s : job_s) {
        busy += s;
        job_max = std::max(job_max, s);
    }
    for (double s : solo_s)
        solo_total += s;
    L.set("sweep.idle_pct",
          100.0 * (1.0 - ratio(busy + solo_total,
                               static_cast<double>(w.workers) * tw.tracedS)),
          "%");
    L.set("sweep.job_s.max", job_max, "s");
    L.set("sweep.solo_s_share",
          100.0 * ratio(solo_total, solo_total + busy), "%");

    // The replayed simulation, run on its own: untraced for its
    // host time, then instrumented.  Its digest must match the
    // sweep job with the same mix and policy.
    int sim = static_cast<int>(jobs.size());
    int span = log.open("simulation." + replayed.label, root, sim);
    PlainRun plain = runPlain(w, replayed, log, span, sim);
    tw.replayedPlainS = plain.runSeconds;
    tw.replaySource = std::make_unique<TracedRun>(
        runInstrumented(w, replayed, log, span, sim));
    log.close(span);
    std::string job_digest;
    for (std::size_t i = 0; i < jobs.size(); ++i)
        if (jobs[i].mix.name == replayed.mix.name &&
            jobs[i].coord("policy") == replayed.label)
            job_digest = plain_digest[i];
    tw.outs.push_back({replayed.label + " (replayed)", replayed.mix.name,
                       job_digest, digestOf(tw.replaySource->result),
                       resultValid(plain.result, replayed.config,
                                   w.detailed) &&
                           digestOf(plain.result) == job_digest});
    return tw;
}

} // namespace

int
runTraced(const WorkloadDef &w, const std::string &trace_path)
{
    SpanLog log;
    Layers L;
    const int root = log.open("benchmark.trace", -1, -1);
    TracedWorkload tw = w.sweep ? traceSweep(w, log, root, L)
                                : traceSims(w, log, root, L);
    const SimJob &replayed = w.sims.at(w.tracedSim);

    int span = log.open("replay", root, static_cast<int>(w.tracedSim));
    bool faithful = false;
    double attributed = replayLayers(w, replayed, *tw.replaySource, log,
                                     span, static_cast<int>(w.tracedSim),
                                     L, faithful);
    log.close(span);
    span = log.open("setup", root, -1);
    measureSetup(tw.setupConfigs, log, span, L);
    log.close(span);
    if (!tw.hooks)
        tw.hooks = std::move(tw.replaySource->hooks);
    garibaldiMetrics(tw.hooks.get(), L);

    double untraced_rate = ratio(tw.untracedInstr, tw.untracedS);
    double traced_rate = ratio(tw.tracedInstr, tw.tracedS);
    L.set("trace.overhead_pct",
          100.0 * (ratio(untraced_rate, traced_rate) - 1.0), "%");
    L.set("sim.unattributed_pct",
          100.0 * ratio(tw.replayedPlainS - attributed,
                        tw.replayedPlainS),
          "%");
    // The fig11 Mockingjay pair where the workload runs it.
    double gain = tw.gains.empty() ? 0.0 : tw.gains.front().pct;
    for (const GainRecord &g : tw.gains)
        if (g.pair == "mockingjay")
            gain = g.pct;
    L.set("garibaldi_gain_pct", gain, "%");
    log.close(root);

    JsonValue manifest = manifestJson(w, warmStartOccupancy(w));
    if (!log.write(trace_path, manifest)) {
        std::fprintf(stderr, "simbench_harness: cannot write %s\n",
                     trace_path.c_str());
        return 1;
    }

    JsonValue j = JsonValue::object();
    j.set("workload", JsonValue::string(w.name));
    j.set("mode", JsonValue::string("trace"));
    j.set("replay_matches_run", JsonValue::boolean(faithful));
    j.set("gain", gainsJson(tw.gains));
    j.set("sims", simOutsJson(tw.outs));
    j.set("manifest", std::move(manifest));
    j.set("layers", L.json());
    std::printf("%s\n", j.dump().c_str());
    return 0;
}

} // namespace simbench
