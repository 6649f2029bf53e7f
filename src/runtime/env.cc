#include "runtime/env.h"

#include <cstdlib>
#include <string>
#include <thread>

#include "common/logging.h"

namespace enhancenet {
namespace runtime {
namespace {

// Each accessor owns its static so the variables parse independently: a
// death test for one variable must be able to run before (and without)
// forcing the others through their first parse in the parent process.

bool ParseBool(const char* name, bool default_value) {
  const char* value = std::getenv(name);
  if (value == nullptr || value[0] == '\0') return default_value;
  const std::string choice(value);
  if (choice == "1" || choice == "true" || choice == "on") return true;
  if (choice == "0" || choice == "false" || choice == "off") return false;
  ENHANCENET_CHECK(false) << name << " must be one of 0/false/off or "
                          << "1/true/on (got '" << choice << "')";
  return default_value;
}

int HardwareThreads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

int ParseNumThreads() {
  const char* value = std::getenv("ENHANCENET_NUM_THREADS");
  if (value == nullptr || value[0] == '\0') return HardwareThreads();
  char* end = nullptr;
  const long v = std::strtol(value, &end, 10);
  ENHANCENET_CHECK(end != value && *end == '\0' && v >= 1 && v <= 4096)
      << "ENHANCENET_NUM_THREADS must be an integer in [1, 4096] (got '"
      << value << "')";
  return static_cast<int>(v);
}

int ParseTopK() {
  const char* value = std::getenv("ENHANCENET_TOPK");
  if (value == nullptr || value[0] == '\0') return 0;
  char* end = nullptr;
  const long v = std::strtol(value, &end, 10);
  ENHANCENET_CHECK(end != value && *end == '\0' && v >= 0 &&
                   v < (1L << 24))
      << "ENHANCENET_TOPK must be an integer in [0, 2^24) (got '" << value
      << "')";
  return static_cast<int>(v);
}

int ParseShards() {
  const char* value = std::getenv("ENHANCENET_SHARDS");
  if (value == nullptr || value[0] == '\0') return 1;
  char* end = nullptr;
  const long v = std::strtol(value, &end, 10);
  ENHANCENET_CHECK(end != value && *end == '\0' && v >= 1 && v <= 1024)
      << "ENHANCENET_SHARDS must be an integer in [1, 1024] (got '" << value
      << "')";
  return static_cast<int>(v);
}

double ParseSloMs() {
  const char* value = std::getenv("ENHANCENET_SLO_MS");
  if (value == nullptr || value[0] == '\0') return 0.0;
  char* end = nullptr;
  const double v = std::strtod(value, &end);
  ENHANCENET_CHECK(end != value && *end == '\0' && v > 0.0 && v <= 1e7)
      << "ENHANCENET_SLO_MS must be a number in (0, 1e7] (got '" << value
      << "')";
  return v;
}

}  // namespace

int EnvNumThreads() {
  static const int value = ParseNumThreads();
  return value;
}

bool EnvProfiling() {
  static const bool value = ParseBool("ENHANCENET_PROFILE", false);
  return value;
}

int EnvTopK() {
  static const int value = ParseTopK();
  return value;
}

int EnvShards() {
  static const int value = ParseShards();
  return value;
}

double EnvSloMs() {
  static const double value = ParseSloMs();
  return value;
}

// The benchmark-harness variables re-parse on every call (they are read at
// most a handful of times per process, and tests toggle them at runtime);
// only the library variables above cache for the process lifetime.

bool EnvQuickMode() { return ParseBool("ENHANCENET_QUICK", false); }

bool EnvFullMode() { return ParseBool("ENHANCENET_FULL", false); }

const char* EnvMetricsOut() {
  const char* path = std::getenv("ENHANCENET_METRICS_OUT");
  return (path == nullptr || path[0] == '\0') ? nullptr : path;
}

}  // namespace runtime
}  // namespace enhancenet
