// perfbench — runs one workload and prints its metrics as one JSON line.
//
//   perfbench --workload <clean-50k|probe-1k|serve-8x36-w64> --seed <n>
//             --seconds <s> --trace <0|1>
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the workload
// half untraced and half with a PhaseClock attached and prints every
// per-layer metric. Usage errors and exceptions exit non-zero without a
// result line.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "report.h"
#include "workloads.h"

namespace {

int usage(const char* message) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<clean-50k|probe-1k|serve-8x36-w64> --seed <n> --seconds "
               "<s> --trace <0|1>\n",
               message);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0') return usage("bad --seed");
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' || !(options.seconds > 0.0) ||
          options.seconds > 120.0)
        return usage("--seconds must be in (0, 120]");
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return usage("--trace takes 0 or 1");
      options.trace = value == "1";
    } else {
      return usage(("unknown flag " + flag).c_str());
    }
  }

  perfbench::RunResult (*run)(const perfbench::Options&) = nullptr;
  if (options.workload == "clean-50k") run = perfbench::run_clean;
  if (options.workload == "probe-1k") run = perfbench::run_probe;
  if (options.workload == "serve-8x36-w64") run = perfbench::run_serve;
  if (run == nullptr) return usage("unknown --workload");

  try {
    perfbench::RunResult result = run(options);
    if (options.trace) perfbench::complete_per_layer(result);
    std::printf("%s\n", perfbench::to_json(result).c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n",
                 options.workload.c_str(), e.what());
    return 1;
  }
  return 0;
}
