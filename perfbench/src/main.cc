// perfbench: the repository benchmark driver.
//
//   perfbench --workload <train-207|forecast-1024-topk|serve-207>
//             --seed <n> --seconds <s> --trace <0|1> --out <result.json>
//             [--spans <spans.json>]
//
// Runs one workload for --seconds seconds of measurement on inputs made
// from --seed, checks its outputs, and writes the result (metrics, ops
// attempted and failed, checks, build type, nproc, thread count) to --out.
// With --trace 1 the per-layer metrics are reported instead of the
// end-to-end ones and the span log is written to --spans. perfbench/run.py
// builds this binary, runs it and validates what it writes.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "harness.h"
#include "runtime/context.h"
#include "runtime/parallel.h"

namespace {

int Usage(const char* message) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<train-207|forecast-1024-topk|serve-207> --seed <n> "
               "--seconds <s> --trace <0|1> --out <path> [--spans <path>]\n",
               message);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunConfig config;
  std::string out_path;
  std::string spans_path;
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      config.workload = value;
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value, &end, 10);
      if (*end != '\0') return Usage("--seed must be a whole number");
      have_seed = true;
    } else if (flag == "--seconds") {
      config.seconds = std::strtod(value, &end);
      if (*end != '\0' || !(config.seconds > 0.0) || config.seconds > 60.0) {
        return Usage("--seconds must be a number in (0, 60]");
      }
    } else if (flag == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        return Usage("--trace must be 0 or 1");
      }
      config.trace = value[0] == '1';
    } else if (flag == "--out") {
      out_path = value;
    } else if (flag == "--spans") {
      spans_path = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (argc % 2 != 1) return Usage("every flag takes one value");
  if (!have_seed || out_path.empty()) return Usage("--seed and --out are required");
  if (config.trace && spans_path.empty()) {
    return Usage("--trace 1 needs --spans");
  }
  if (std::strcmp(PERFBENCH_BUILD_TYPE, "Release") != 0) {
    std::fprintf(stderr,
                 "perfbench: refusing to measure a '%s' build; configure "
                 "with -DCMAKE_BUILD_TYPE=Release\n",
                 PERFBENCH_BUILD_TYPE);
    return 3;
  }

  const size_t slash = out_path.find_last_of('/');
  config.scratch_dir = slash == std::string::npos ? "." : out_path.substr(0, slash);

  // Every workload runs its kernels on 4 threads, whatever the machine; the
  // machine's own thread count is recorded beside it.
  config.nproc = static_cast<int>(std::thread::hardware_concurrency());
  config.threads = 4;
  enhancenet::SetNumThreads(config.threads);
  enhancenet::runtime::RuntimeContext::Default().exec().topk.store(0);
  enhancenet::runtime::RuntimeContext::Default().exec().shards.store(1);

  perfbench::SpanRecorder recorder;
  perfbench::SpanRecorder* spans = config.trace ? &recorder : nullptr;
  perfbench::Result result;
  if (config.workload == "train-207") {
    perfbench::RunTrain(config, spans, &result);
  } else if (config.workload == "forecast-1024-topk") {
    perfbench::RunForecast(config, spans, &result);
  } else if (config.workload == "serve-207") {
    perfbench::RunServe(config, spans, &result);
  } else {
    return Usage(("unknown workload '" + config.workload + "'").c_str());
  }

  if (spans != nullptr && !spans->WriteJson(spans_path)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", spans_path.c_str());
    return 1;
  }
  if (!perfbench::WriteResultJson(out_path, config, result)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", out_path.c_str());
    return 1;
  }
  for (const std::string& line : result.checks) std::printf("%s\n", line.c_str());
  for (const std::string& line : result.notes) std::printf("%s\n", line.c_str());
  return 0;
}
