/**
 * @file
 * Repository benchmark harness.  One invocation runs one workload once:
 *
 *   simbench_harness --workload NAME --seed N [--revision TEXT]
 *                    [--warm-check | --trace PATH]
 *
 * and prints one JSON object on stdout.  run.py drives it, repeats it
 * for the measured interval and turns the records into metrics.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench.hh"

int
main(int argc, char **argv)
{
    std::string workload;
    std::string trace_path;
    std::string revision = "unknown";
    std::uint64_t seed = 0;
    bool have_seed = false;
    bool warm_check = false;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        bool has_value = i + 1 < argc;
        if (a == "--workload" && has_value) {
            workload = argv[++i];
        } else if (a == "--seed" && has_value) {
            char *end = nullptr;
            seed = std::strtoull(argv[++i], &end, 10);
            have_seed = end && *end == '\0';
        } else if (a == "--trace" && has_value) {
            trace_path = argv[++i];
        } else if (a == "--revision" && has_value) {
            revision = argv[++i];
        } else if (a == "--warm-check") {
            warm_check = true;
        } else {
            std::fprintf(stderr, "simbench_harness: bad argument '%s'\n",
                         a.c_str());
            return 2;
        }
    }
    simbench::WorkloadDef w = simbench::makeWorkload(workload, seed);
    w.revision = revision;
    if (w.name.empty() || !have_seed) {
        std::fprintf(stderr, "usage: simbench_harness --workload "
                             "{server_mjg8,stream_lru8,mix_hawkeye32,"
                             "sweep_fig11} --seed N [--revision TEXT] "
                             "[--warm-check | --trace PATH]\n");
        return 2;
    }
    if (!trace_path.empty())
        return simbench::runTraced(w, trace_path);
    return simbench::runUntraced(w, warm_check);
}
