// Benchmark harness: runs one workload against the library in-process and
// prints the result line (a JSON object) last on standard output.
//
//   ktg_perfbench --workload search-serial|search-parallel|serve-mixed
//                 --seed N --seconds S --trace 0|1 [--spans FILE]
//                 [--universe U]

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "harness/common.h"
#include "harness/workloads.h"

namespace {

int Usage(const char* msg) {
  std::fprintf(stderr,
               "error: %s\nusage: ktg_perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--spans FILE] [--universe U]\n",
               msg);
  return 2;
}

void PrintResult(const perfbench::RunResult& r) {
  std::string s = "{\"correct\": ";
  s += r.correct ? "true" : "false";
  s += ", \"attempted\": " + std::to_string(r.attempted);
  s += ", \"failed\": " + std::to_string(r.failed);
  s += ", \"metrics\": {";
  for (size_t i = 0; i < r.metrics.size(); ++i) {
    const auto& m = r.metrics[i];
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g",
                  std::isfinite(m.value) ? m.value : 0.0);
    s += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " + value +
         ", \"unit\": \"" + m.unit + "\"}";
  }
  s += "}}";
  std::printf("%s\n", s.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunConfig cfg;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    if (flag == "--workload") {
      cfg.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      cfg.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--universe") {
      cfg.universe = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      cfg.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      cfg.trace = value == "1";
    } else if (flag == "--spans") {
      cfg.spans_path = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload) return Usage("--workload is required");
  if (!(cfg.seconds > 0)) return Usage("--seconds must be positive");

  perfbench::RunResult r;
  if (cfg.workload == "search-serial") {
    r = perfbench::RunSearchWorkload(cfg, 1);
  } else if (cfg.workload == "search-parallel") {
    r = perfbench::RunSearchWorkload(cfg, 2);
  } else if (cfg.workload == "serve-mixed") {
    r = perfbench::RunServeWorkload(cfg);
  } else {
    return Usage(("unknown workload " + cfg.workload).c_str());
  }
  std::fflush(stderr);
  PrintResult(r);
  return 0;
}
