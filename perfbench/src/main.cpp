/**
 * @file
 * Entry point of the benchmark binary (driven by perfbench/run.py):
 *
 *   fides_perfbench --workload <primitives|bootstrap|serve> --seed <n>
 *                   --seconds <s> --trace <0|1> --out <record.json>
 *
 * Runs one workload in this process and writes its raw record (series,
 * values, spans) to --out. Refuses to run when any FIDES_* environment
 * variable is set: each one changes the measured program.
 */

#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>

#include "harness.hpp"

extern char **environ;

int
main(int argc, char **argv)
{
    using namespace perfbench;
    RunOptions opt;
    std::string out;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string k = argv[i], v = argv[i + 1];
        if (k == "--workload")
            opt.workload = v;
        else if (k == "--seed")
            opt.seed = std::stoull(v);
        else if (k == "--seconds")
            opt.seconds = std::stod(v);
        else if (k == "--trace")
            opt.trace = v == "1";
        else if (k == "--out")
            out = v;
        else {
            std::fprintf(stderr, "unknown argument %s\n", k.c_str());
            return 2;
        }
    }
    for (char **e = environ; *e; ++e) {
        if (std::strncmp(*e, "FIDES_", 6) == 0) {
            std::fprintf(stderr, "refusing to run with %s set\n", *e);
            return 2;
        }
    }
    if (out.empty() || opt.seconds <= 0) {
        std::fprintf(stderr, "usage: --workload W --seed N --seconds S "
                             "--trace 0|1 --out FILE\n");
        return 2;
    }

    Record rec;
    Tracer tr(opt.trace);
    if (opt.workload == "primitives")
        runPrimitives(opt, rec, tr);
    else if (opt.workload == "bootstrap")
        runBootstrap(opt, rec, tr);
    else if (opt.workload == "serve")
        runServe(opt, rec, tr);
    else {
        std::fprintf(stderr, "unknown workload %s\n", opt.workload.c_str());
        return 2;
    }
    rec.values["mem_peak_mb"] = peakRssMb();

    std::ofstream f(out);
    f << rec.json(tr.spans());
    return f.good() ? 0 : 1;
}
