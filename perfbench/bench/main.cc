/**
 * @file
 * perfbench — the repository benchmark's measuring program.
 *
 *   perfbench --workload kv-update|kv-read|alloc-churn
 *                    --seed N --seconds S --trace 0|1
 *                    [--ops N] [--trace-dir DIR]
 *
 * Prints one line per metric ("e2e"/"layer"/"info") and, last, one
 * JSON object: the end-to-end metrics with --trace 0, the per-layer
 * metrics with --trace 1. Exits 1 when a correctness check failed,
 * 2 on bad arguments. --ops replaces the deadline with a fixed op
 * count per client (used by test_replay.py).
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench.h"

using namespace perfbench;

namespace {

int
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench --workload kv-update|kv-read|"
                 "alloc-churn --seed N --seconds S --trace 0|1 [--ops N] "
                 "[--trace-dir DIR]\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        std::string k = argv[i];
        if (i + 1 >= argc)
            return usage();
        const char *v = argv[++i];
        if (k == "--workload")
            a.workload = v;
        else if (k == "--seed")
            a.seed = std::strtoull(v, nullptr, 10);
        else if (k == "--seconds")
            a.seconds = std::strtod(v, nullptr);
        else if (k == "--trace")
            a.trace = std::strcmp(v, "0") != 0;
        else if (k == "--ops")
            a.ops = std::strtoull(v, nullptr, 10);
        else if (k == "--trace-dir")
            a.trace_dir = v;
        else
            return usage();
    }
    if (!(a.seconds > 0) || (a.trace && a.ops))
        return usage();
    if (a.workload == "kv-update")
        return runKvUpdate(a);
    if (a.workload == "kv-read")
        return runKvRead(a);
    if (a.workload == "alloc-churn")
        return runAllocChurn(a);
    return usage();
}
