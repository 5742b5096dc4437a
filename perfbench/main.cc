/**
 * @file
 * azul_perfbench: the repository benchmark (perfbench/README.md).
 *
 *   azul_perfbench --workload cold-open|serve-mixed|cycle-sim
 *                  --seed N --seconds S --trace 0|1 --work-dir DIR
 *
 * Runs one workload and prints its metrics, one per line, then as
 * the last line one JSON object {"correct", "attempted", "failed",
 * "metrics"}. --trace 0 reports the end-to-end metrics; --trace 1
 * reports the per-layer metrics and writes the run's spans as a
 * Chrome trace to DIR/trace-<workload>.json. Any failed check makes
 * the run print no metric table and exit 1.
 */
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "workloads.h"

using namespace perfbench;

namespace {

int
Usage(const char* why)
{
    std::fprintf(stderr,
                 "azul_perfbench: %s\nusage: azul_perfbench --workload "
                 "cold-open|serve-mixed|cycle-sim --seed N --seconds S "
                 "--trace 0|1 --work-dir DIR\n",
                 why);
    return 2;
}

} // namespace

int
main(int argc, char** argv)
{
    RunArgs args;
    bool have_seed = false;
    for (int i = 1; i < argc; i += 2) {
        if (i + 1 >= argc) {
            return Usage("flag without a value");
        }
        const std::string flag = argv[i];
        const std::string value = argv[i + 1];
        char* end = nullptr;
        if (flag == "--workload") {
            args.workload = value;
        } else if (flag == "--seed") {
            args.seed = std::strtoull(value.c_str(), &end, 10);
            have_seed = *end == '\0' && !value.empty();
        } else if (flag == "--seconds") {
            args.seconds = std::strtod(value.c_str(), &end);
            if (*end != '\0' || !(args.seconds > 0.0)) {
                return Usage("--seconds needs a positive number");
            }
        } else if (flag == "--trace") {
            if (value != "0" && value != "1") {
                return Usage("--trace takes 0 or 1");
            }
            args.trace = value == "1";
        } else if (flag == "--work-dir") {
            args.work_dir = value;
        } else {
            return Usage(("unknown flag " + flag).c_str());
        }
    }
    if (!have_seed || args.seconds <= 0.0 || args.work_dir.empty()) {
        return Usage("--seed, --seconds and --work-dir are required");
    }
    void (*run)(const RunArgs&, Tracer&, Outcome&, Metrics&, Metrics&) =
        nullptr;
    if (args.workload == "cold-open") {
        run = RunColdOpen;
    } else if (args.workload == "serve-mixed") {
        run = RunServeMixed;
    } else if (args.workload == "cycle-sim") {
        run = RunCycleSim;
    } else {
        return Usage("unknown workload");
    }
    // The library's environment fallbacks must not change the inputs.
    for (const char* var :
         {"AZUL_MAPPING_CACHE", "AZUL_SIM_THREADS", "AZUL_SIMD", "AZUL_FAULTS",
          "AZUL_ENGINE", "AZUL_SOLVER", "AZUL_PRECOND", "AZUL_PRECISION",
          "AZUL_WARM_START"}) {
        unsetenv(var);
    }
    args.cache_dir =
        args.work_dir + "/mapping-cache-" + std::to_string(getpid());
    std::error_code ec;
    std::filesystem::create_directories(args.work_dir, ec);
    if (ec) {
        return Usage(("cannot create work dir: " + ec.message()).c_str());
    }

    Tracer tracer(args.trace);
    Outcome outcome;
    Metrics e2e;
    Metrics layers;
    run(args, tracer, outcome, e2e, layers);
    std::filesystem::remove_all(args.cache_dir, ec);

    const std::int64_t attempted = std::max<std::int64_t>(outcome.attempted(), 1);
    const std::int64_t failed = outcome.failed();
    const double ok_frac =
        static_cast<double>(attempted - failed) / static_cast<double>(attempted);
    Metrics result;
    if (failed > 0) {
        for (const std::string& m : outcome.messages()) {
            std::fprintf(stderr, "CHECK FAILED: %s\n", m.c_str());
        }
        result.Set("ok_frac", ok_frac, "ratio");
    } else if (args.trace) {
        result = CompleteLayerMetrics(layers);
        const std::string path =
            args.work_dir + "/trace-" + args.workload + ".json";
        if (!tracer.WriteChromeTrace(path)) {
            std::fprintf(stderr, "cannot write %s\n", path.c_str());
            return 1;
        }
        std::printf("chrome trace: %s (%zu spans)\n", path.c_str(),
                    tracer.num_events());
    } else {
        result = e2e;
        result.Set("ok_frac", ok_frac, "ratio");
        result.Set("peak_rss_mb", PeakRssMb(), "MB");
    }
    if (failed == 0) {
        result.Print();
    }
    std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
                "\"metrics\": %s}\n",
                failed == 0 ? "true" : "false",
                static_cast<long long>(attempted),
                static_cast<long long>(failed), result.ToJson().c_str());
    return failed == 0 ? 0 : 1;
}
