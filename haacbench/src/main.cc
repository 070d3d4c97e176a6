/**
 * @file
 * haac_bench: run one named workload, check every output against the
 * plaintext oracle, and print its metrics.
 *
 *   haac_bench --workload NAME --seed N --seconds S --trace 0|1
 *              [--trace-out FILE] [--inject-defect]
 *
 * Output: one "record" JSON line (every metric under its descriptive
 * name, the per-layer map, and the host/build fingerprint), then, as
 * the last line, the summary {"correct", "attempted", "failed",
 * "metrics"}: the end-to-end metrics of BENCHMARK.json with --trace 0,
 * its per-layer metrics with --trace 1. Exits 1 if any output was
 * wrong or any session failed, 2 on bad arguments, 3 on an error that
 * stopped the run.
 */
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <sstream>
#include <string>

#include "bench.h"
#include "fingerprint.h"

using namespace haac::bench;

namespace {

const char *const kWorkloads[] = {"session_cold", "session_warm",
                                  "session_chained", "compile_sim"};

void
usage()
{
    std::fprintf(stderr,
                 "usage: haac_bench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--trace-out FILE] [--inject-defect]\n"
                 "workloads: session_cold session_warm session_chained "
                 "compile_sim\n");
}

std::string
number(double v)
{
    if (!std::isfinite(v))
        v = 0;
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

std::string
metricJson(const std::string &name, double value, const std::string &unit)
{
    return "\"" + name + "\":{\"value\":" + number(value) +
           ",\"unit\":\"" + unit + "\"}";
}

bool
parseArgs(int argc, char **argv, Args &args)
{
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        auto value = [&]() -> const char * {
            return i + 1 < argc ? argv[++i] : nullptr;
        };
        if (a == "--inject-defect") {
            args.injectDefect = true;
            continue;
        }
        const char *v = value();
        if (v == nullptr)
            return false;
        char *end = nullptr;
        if (a == "--workload") {
            args.workload = v;
            have_workload = false;
            for (const char *w : kWorkloads)
                have_workload = have_workload || args.workload == w;
        } else if (a == "--seed") {
            args.seed = std::strtoull(v, &end, 10);
        } else if (a == "--seconds") {
            args.seconds = std::strtod(v, &end);
            if (!(args.seconds > 0))
                return false;
        } else if (a == "--trace") {
            args.trace = std::strtol(v, &end, 10) != 0;
        } else if (a == "--trace-out") {
            args.traceOut = v;
        } else {
            return false;
        }
        if (end != nullptr && *end != '\0')
            return false;
    }
    return have_workload;
}

} // namespace

int
main(int argc, char **argv)
{
    Args args;
    if (!parseArgs(argc, argv, args)) {
        usage();
        return 2;
    }
    const int64_t steal0 = stealTicks();
    WorkloadResult r;
    try {
        r = args.workload == "compile_sim" ? runCompileSim(args)
                                           : runSessionWorkload(args);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "haac_bench: %s\n", e.what());
        return 3;
    }
    const bool correct = r.failed == 0 && r.attempted > 0;

    std::ostringstream rec;
    rec << "{\"record\":{\"workload\":\"" << args.workload
        << "\",\"seed\":" << args.seed << ",\"seconds\":"
        << number(args.seconds) << ",\"trace\":" << (args.trace ? 1 : 0)
        << ",\"attempted\":" << r.attempted << ",\"failed\":" << r.failed
        << ",\"metrics\":{";
    for (size_t i = 0; i < r.record.size(); ++i)
        rec << (i ? "," : "")
            << metricJson(r.record[i].name, r.record[i].value,
                          r.record[i].unit);
    rec << "},\"layers\":{";
    bool first = true;
    for (const auto &[name, value] : r.layers) {
        rec << (first ? "" : ",") << "\"" << name
            << "\":" << number(value);
        first = false;
    }
    rec << "},\"fingerprint\":" << fingerprintJson(steal0) << "}}";
    std::printf("%s\n", rec.str().c_str());

    std::ostringstream sum;
    sum << "{\"correct\":" << (correct ? "true" : "false")
        << ",\"attempted\":" << r.attempted << ",\"failed\":" << r.failed
        << ",\"metrics\":{";
    if (!args.trace) {
        for (size_t i = 0; i < r.endToEnd.size(); ++i)
            sum << (i ? "," : "")
                << metricJson(r.endToEnd[i].name, r.endToEnd[i].value,
                              r.endToEnd[i].unit);
    } else {
        // Every per-layer metric on every workload; a layer this
        // workload never calls reads 0.
        const auto &all = layerMetrics();
        for (size_t i = 0; i < all.size(); ++i) {
            const auto it = r.layers.find(all[i].name);
            sum << (i ? "," : "")
                << metricJson(all[i].name,
                              it == r.layers.end() ? 0 : it->second,
                              all[i].unit);
        }
    }
    sum << "}}";
    std::printf("%s\n", sum.str().c_str());
    std::fflush(stdout);
    return correct ? 0 : 1;
}
