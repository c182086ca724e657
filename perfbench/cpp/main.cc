// perfbench: the repository benchmark.
//
//   perfbench --workload storm|stream-storm|ingest-wire
//             --seed N --seconds S --trace 0|1
//             [--out-dir DIR] [--commit ID] [--break CHECK]
//             [--expect-fingerprint HEX]
//
// Inputs are generated from --seed before any timed region; the
// workload then measures for --seconds, checks the program's outputs,
// and prints one JSON object as the last line of stdout: end-to-end
// metrics with --trace 0, per-layer metrics with --trace 1. The exit
// code is 1 when any correctness check failed, 2 on bad arguments.

#include <malloc.h>
#include <sched.h>
#include <sys/personality.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#include "bench.h"
#include "util/simd.h"

using namespace perfbench;

namespace {

int
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "storm|stream-storm|ingest-wire --seed N "
                 "--seconds S --trace 0|1 [--out-dir DIR] [--commit ID] "
                 "[--break CHECK] [--expect-fingerprint HEX]\n",
                 why);
    return 2;
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) < 0x20)
            continue;
        out += c;
    }
    return out + "\"";
}

std::string
jsonNumber(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

std::string
metricsJson(const std::map<std::string, Metric> &metrics)
{
    std::string out = "{";
    bool first = true;
    for (const auto &[name, m] : metrics) {
        out += (first ? "" : ", ") + jsonString(name) + ": {\"value\": " +
               jsonNumber(m.value) + ", \"unit\": " + jsonString(m.unit) +
               "}";
        first = false;
    }
    return out + "}";
}

int
cpuCount()
{
    cpu_set_t set;
    if (sched_getaffinity(0, sizeof(set), &set) == 0)
        return CPU_COUNT(&set);
    return 0;
}

/** Whether this process's address space is randomized: run.py starts
    the benchmark under setarch -R when the host allows it. */
bool
addressSpaceRandomized()
{
    int persona = personality(0xffffffff);
    if (persona != -1 && (persona & ADDR_NO_RANDOMIZE) != 0)
        return false;
    std::ifstream in("/proc/sys/kernel/randomize_va_space");
    int level = 2;
    return !(in >> level) || level != 0;
}

std::string
hostJson(const Options &opt)
{
    return std::string("{\"nproc\": ") + std::to_string(cpuCount()) +
           ", \"avx2_compiled\": " +
           (sleuth::simd::compiledAvx2() ? "true" : "false") +
           ", \"avx2_active\": " +
           (sleuth::simd::active() ? "true" : "false") +
           ", \"compiler\": " + jsonString(PERFBENCH_COMPILER) +
           ", \"build_type\": " + jsonString(PERFBENCH_BUILD_TYPE) +
           ", \"aslr\": " + (addressSpaceRandomized() ? "true" : "false") +
           ", \"commit\": " + jsonString(opt.commit) + "}";
}

} // namespace

int
main(int argc, char **argv)
{
    // Every workload sets the program up several times per run. glibc
    // raises its mmap threshold when a large block is freed, so the
    // freed ingest rings (about 20 MiB each) of earlier set-ups would
    // otherwise stay resident or not depending on allocation timing,
    // and the resident set would differ by up to 100 MiB between runs
    // of one seed. A fixed threshold returns such blocks when freed.
    mallopt(M_MMAP_THRESHOLD, 16 << 20);
    Options opt;
    bool have_trace = false;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (i + 1 >= argc)
            return usage(("missing value for " + arg).c_str());
        std::string val = argv[++i];
        char *end = nullptr;
        if (arg == "--workload") {
            opt.workload = val;
        } else if (arg == "--seed") {
            opt.seed = std::strtoull(val.c_str(), &end, 10);
            if (*end != '\0')
                return usage("--seed wants an unsigned integer");
        } else if (arg == "--seconds") {
            opt.seconds = std::strtod(val.c_str(), &end);
            if (*end != '\0' || !(opt.seconds > 0.0) || opt.seconds > 600)
                return usage("--seconds wants a number in (0, 600]");
        } else if (arg == "--trace") {
            if (val != "0" && val != "1")
                return usage("--trace wants 0 or 1");
            opt.trace = val == "1";
            have_trace = true;
        } else if (arg == "--out-dir") {
            opt.outDir = val;
        } else if (arg == "--commit") {
            opt.commit = val;
        } else if (arg == "--break") {
            if (!breakFromString(val, &opt.brk))
                return usage(("unknown check to break: " + val).c_str());
        } else if (arg == "--expect-fingerprint") {
            opt.expectFingerprint = std::strtoull(val.c_str(), &end, 16);
            if (*end != '\0')
                return usage("--expect-fingerprint wants hex");
        } else {
            return usage(("unknown argument " + arg).c_str());
        }
    }
    if (!have_trace)
        return usage("--trace is required");

    RunResult result;
    if (opt.workload == "storm")
        runStorm(opt, &result);
    else if (opt.workload == "stream-storm")
        runStream(opt, &result);
    else if (opt.workload == "ingest-wire")
        runIngestWire(opt, &result);
    else
        return usage(("unknown workload '" + opt.workload + "'").c_str());
    result.detail["rss_peak_mb"] = {peakRssMb(), "MiB"};

    // Every catalogued per-layer metric is reported; layers a workload
    // does not exercise read 0.
    std::map<std::string, Metric> per_layer;
    for (const auto &[name, unit] : perLayerCatalog()) {
        auto it = result.perLayer.find(name);
        per_layer[name] = {it == result.perLayer.end() ? 0.0
                                                       : it->second.value,
                           unit};
    }

    std::printf("host %s\n", hostJson(opt).c_str());
    for (const std::string &n : result.notes)
        std::printf("%s\n", n.c_str());
    for (const auto &[name, m] : result.detail)
        std::printf("%s %s %.6g %s\n", opt.workload.c_str(), name.c_str(),
                    m.value, m.unit.c_str());
    for (const std::string &f : result.failures)
        std::printf("CHECK FAILED: %s\n", f.c_str());

    bool correct = result.failures.empty();
    std::string metrics = metricsJson(opt.trace ? per_layer
                                                : result.endToEnd);
    std::string line = std::string("{\"correct\": ") +
                       (correct ? "true" : "false") +
                       ", \"attempted\": " +
                       std::to_string(result.attempted) +
                       ", \"failed\": " + std::to_string(result.failed) +
                       ", \"metrics\": " + metrics + "}";

    if (!opt.outDir.empty()) {
        std::string path = opt.outDir + "/result-" + opt.workload + "-s" +
                           std::to_string(opt.seed) + "-t" +
                           (opt.trace ? "1" : "0") + ".json";
        std::ofstream out(path);
        std::string failures = "[";
        for (size_t i = 0; i < result.failures.size(); ++i)
            failures += (i ? ", " : "") + jsonString(result.failures[i]);
        failures += "]";
        out << "{\"workload\": " << jsonString(opt.workload)
            << ", \"seed\": " << opt.seed
            << ", \"trace\": " << (opt.trace ? 1 : 0)
            << ", \"seconds\": " << jsonNumber(opt.seconds)
            << ", \"host\": " << hostJson(opt)
            << ", \"correct\": " << (correct ? "true" : "false")
            << ", \"failures\": " << failures
            << ", \"end_to_end\": " << metricsJson(result.endToEnd)
            << ", \"per_layer\": " << metricsJson(per_layer)
            << ", \"detail\": " << metricsJson(result.detail) << "}\n";
    }
    std::printf("%s\n", line.c_str());
    std::fflush(stdout);
    return correct ? 0 : 1;
}
