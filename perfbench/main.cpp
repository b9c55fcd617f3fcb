// wsnbench: one phase of one benchmark run. perfbench/run.py runs it as:
//
//   wsnbench --phase prepare --workload W --seed N --work DIR
//   wsnbench --phase setup   --workload W --seed N --work DIR
//   wsnbench --phase measure --workload W --seed N --seconds S --work DIR
//   wsnbench --phase trace   --workload W --seed N --work DIR --spans FILE
//
// prepare builds untimed inputs, setup times one set-up, measure prints the
// end-to-end metrics (all but setup_s) and trace the per-layer metrics.
// The last line of stdout is one JSON object.
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "workloads.h"

namespace {

// Numbers from an unoptimised or instrumented build are not comparable.
const char* UnfitBuild() {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return "sanitizer build";
#else
#ifndef NDEBUG
  return "assertion-enabled (Debug) build";
#else
  if (std::string(PERFBENCH_SANITIZE) != "") return "sanitizer build";
  const std::string type = PERFBENCH_BUILD_TYPE;
  if (type != "Release" && type != "RelWithDebInfo") return "non-optimised build";
  return nullptr;
#endif
#endif
}

void PrintJsonString(const std::string& s) {
  std::putchar('"');
  for (const char c : s) {
    if (c == '"' || c == '\\') std::putchar('\\');
    std::putchar(c);
  }
  std::putchar('"');
}

int Usage(const char* why) {
  std::fprintf(stderr,
               "wsnbench: %s\nusage: wsnbench --phase prepare|setup|measure|"
               "trace --workload campaign|contention|serve --seed N "
               "[--seconds S] --work DIR [--spans FILE]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunSpec spec;
  std::string phase;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--phase") {
      phase = value;
    } else if (flag == "--workload") {
      spec.workload = value;
    } else if (flag == "--seed") {
      spec.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      spec.seconds = std::atoi(value.c_str());
    } else if (flag == "--work") {
      spec.work_dir = value;
    } else if (flag == "--spans") {
      spec.span_path = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (argc % 2 != 1) return Usage("flags take one value each");
  if (!perfbench::IsWorkload(spec.workload)) return Usage("unknown workload");
  if (spec.work_dir.empty()) return Usage("--work is required");
  if (spec.seconds < 1) return Usage("--seconds must be >= 1");
  if (const char* why = UnfitBuild()) {
    std::fprintf(stderr, "wsnbench: refusing to measure: %s\n", why);
    return 3;
  }

  try {
    if (phase == "prepare") {
      perfbench::Prepare(spec);
      return 0;
    }
    if (phase == "setup") {
      std::printf("{\"setup_s\": %.17g}\n", perfbench::TimeSetUp(spec));
      return 0;
    }
    if (phase != "measure" && phase != "trace") return Usage("unknown phase");

    std::printf("seed %llu\n", static_cast<unsigned long long>(spec.seed));
    std::printf("nproc %ld\n", sysconf(_SC_NPROCESSORS_ONLN));
    std::printf("compute_threads 1\n");
    std::printf("client_threads %d connections %d\n",
                spec.workload == "serve" ? 1 : 0,
                spec.workload == "serve" ? 3 : 0);
    std::printf("build_type %s\n", PERFBENCH_BUILD_TYPE);
    perfbench::Result r =
        phase == "measure" ? perfbench::Measure(spec) : perfbench::Trace(spec);
    r.Check(r.failed == 0, std::to_string(r.failed) + " operations failed");
    for (const auto& note : r.notes) std::printf("%s\n", note.c_str());
    for (const auto& problem : r.problems) {
      std::printf("CHECK FAILED: %s\n", problem.c_str());
    }
    const bool correct = r.problems.empty();
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                correct ? "true" : "false",
                static_cast<unsigned long long>(r.attempted),
                static_cast<unsigned long long>(r.failed));
    if (correct) {
      for (std::size_t i = 0; i < r.metrics.size(); ++i) {
        const auto& m = r.metrics[i];
        if (i > 0) std::printf(", ");
        PrintJsonString(m.name);
        std::printf(": {\"value\": %.17g, \"unit\": ", m.value);
        PrintJsonString(m.unit);
        std::printf("}");
      }
    }
    std::printf("}}\n");
    return correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::fflush(stdout);
    std::fprintf(stderr, "wsnbench: %s\n", e.what());
    return 1;
  }
}
