/**
 * @file
 * Hot-path throughput microbenchmark: drives MemoryHierarchy::access
 * with a deterministic synthetic stream (instruction fetches + loads +
 * stores over hot/warm/cold regions, interleaved across cores) and
 * reports accesses per second.  CI tracks this number so hot-path
 * regressions are visible; the stream is seeded and identical across
 * runs and build revisions.
 *
 * A second table times one cache's access+insert churn per
 * replacement policy (host ns per access), so a hot-path change in a
 * single policy's hooks or victim scan shows against its own baseline
 * instead of being averaged into the mixed hierarchy number.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <vector>

#include "common/rng.hh"
#include "mem/cache.hh"
#include "mem/hierarchy.hh"

using namespace garibaldi;

namespace
{

HierarchyParams
benchParams(std::uint32_t cores)
{
    HierarchyParams h;
    h.numCores = cores;
    h.coresPerL2 = 4;
    h.l1i.name = "l1i";
    h.l1i.sizeBytes = 32 * 1024;
    h.l1i.assoc = 8;
    h.l1i.latency = 3;
    h.l1d = h.l1i;
    h.l1d.name = "l1d";
    h.l2.name = "l2";
    h.l2.sizeBytes = 512 * 1024;
    h.l2.assoc = 16;
    h.l2.latency = 18;
    h.llc.name = "llc";
    h.llc.sizeBytes = 4 * 1024 * 1024;
    h.llc.assoc = 16;
    h.llc.latency = 40;
    h.llc.policy = PolicyKind::Mockingjay;
    return h;
}

/** One deterministic access of the synthetic stream. */
MemAccess
nextAccess(Pcg32 &rng, CoreId core)
{
    MemAccess a;
    a.core = core;
    std::uint32_t roll = rng.next() & 1023;
    if (roll < 300) {
        // Instruction fetch over a hot 256 KB code region.
        a.isInstr = true;
        a.pc = 0x400000 + (rng.next() & 0x3ffc0);
        a.paddr = a.pc;
    } else {
        a.pc = 0x400000 + (rng.next() & 0x3ffc0);
        a.isWrite = (roll & 7) == 0;
        if (roll < 800) {
            // Hot per-core 128 KB data region: mostly L1/L2 hits.
            a.paddr = 0x10000000 + (Addr{core} << 24) +
                      (rng.next() & 0x1ffc0);
        } else if (roll < 980) {
            // Warm shared 8 MB region: L2/LLC traffic.
            a.paddr = 0x80000000 + (rng.next() & 0x7fffc0);
        } else {
            // Cold region: LLC misses to DRAM.
            a.paddr = 0x200000000ULL + (Addr{rng.next()} << 6);
        }
    }
    return a;
}

double
measure(std::uint32_t cores, std::uint32_t llc_banks,
        std::uint64_t accesses)
{
    HierarchyParams h = benchParams(cores);
    h.llcBanks = llc_banks;
    MemoryHierarchy mem(h);
    Pcg32 rng(42, 7);

    // Accesses are generated into a chunk and handed to the hierarchy
    // in one submitBatch call — same access/now sequence as the
    // per-access loop (submitBatch is pinned byte-identical to it), one
    // hierarchy crossing per chunk.
    constexpr std::size_t kBatch = 64;
    std::vector<TimedAccess> batch(kBatch);
    Cycle now = 0;
    auto drive = [&](std::uint64_t total) {
        for (std::uint64_t i = 0; i < total;) {
            std::size_t n = static_cast<std::size_t>(
                std::min<std::uint64_t>(kBatch, total - i));
            // `now` only rises, so it bounds every access still to
            // come (the Simulator publishes its earliest core clock).
            mem.advanceClockFloor(now);
            for (std::size_t j = 0; j < n; ++j) {
                batch[j].acc = nextAccess(
                    rng, static_cast<CoreId>((i + j) % cores));
                batch[j].now = now;
                now += 2;
            }
            mem.submitBatch(batch.data(), n);
            i += n;
        }
    };

    // Warm the structures so steady-state behavior dominates.
    drive(accesses / 8);

    auto start = std::chrono::steady_clock::now();
    drive(accesses);
    auto stop = std::chrono::steady_clock::now();
    double secs = std::chrono::duration<double>(stop - start).count();
    return static_cast<double>(accesses) / secs;
}

/**
 * Host ns per access of a 1 MB 16-way cache under @p kind: every
 * access that misses is inserted.  The footprint (2^18 lines) churns
 * every set, and its reuse keeps the hit hooks busy too.
 */
double
policyNsPerAccess(PolicyKind kind, std::uint64_t accesses)
{
    CacheParams p;
    p.sizeBytes = 1024 * 1024;
    p.assoc = 16;
    p.policy = kind;
    Cache cache(p);
    Pcg32 rng(7, 11);
    MemAccess a;
    auto churn = [&](std::uint64_t total) {
        for (std::uint64_t i = 0; i < total; ++i) {
            a.paddr = Addr{rng.next() & 0x3ffff} << kLineShift;
            a.pc = 0x400000 + (rng.next() & 0xfffc);
            if (!cache.access(a))
                cache.insert(a);
        }
    };
    churn(accesses / 8); // fill the cache first
    auto start = std::chrono::steady_clock::now();
    churn(accesses);
    auto stop = std::chrono::steady_clock::now();
    return std::chrono::duration<double, std::nano>(stop - start)
               .count() /
           static_cast<double>(accesses);
}

} // namespace

int
main(int argc, char **argv)
{
    std::uint64_t accesses = 2000000;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--quick") == 0)
            accesses = 500000;
    }

    std::printf("micro_pipeline: MemoryHierarchy::access throughput\n");
    std::printf("%-8s %-10s %16s\n", "cores", "llc_banks", "accesses/sec");
    const std::uint32_t bank_counts[] = {1, 2, 4, 8};
    for (std::uint32_t banks : bank_counts) {
        double rate = measure(8, banks, accesses);
        std::printf("%-8u %-10u %16.0f\n", 8u, banks, rate);
    }
    // The headline 16-core mix CI archives and floors.
    double rate16 = measure(16, 1, accesses);
    std::printf("%-8u %-10u %16.0f\n", 16u, 1u, rate16);

    std::printf("\nper-policy cache churn (1 MB, 16-way)\n");
    std::printf("%-8s %-10s %16s\n", "table", "policy", "ns/access");
    for (PolicyKind kind :
         {PolicyKind::LRU, PolicyKind::Random, PolicyKind::SRRIP,
          PolicyKind::DRRIP, PolicyKind::SHiP, PolicyKind::Hawkeye,
          PolicyKind::Mockingjay}) {
        std::printf("%-8s %-10s %16.2f\n", "policy", policyKindName(kind),
                    policyNsPerAccess(kind, accesses));
    }
    return 0;
}
