// bench_session: backup and restore throughput of AA-Dedupe sessions, end
// to end (--trace 0) or per layer through the traced replay (--trace 1).
//
//   bench_session --workload first_full|weekly|restore --seed N
//                 --seconds S --trace 0|1 [--smoke] [--out-dir DIR]
//
// Prints host/build metadata and a human-readable table, then as its last
// line one JSON object: {"correct", "attempted", "failed", "metrics"}.
// Exits 1 when any check failed, 2 on bad arguments.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <string>
#include <thread>
#include <utility>

#include "hash/batch_hasher.hpp"
#include "telemetry/build_info.hpp"
#include "telemetry/json.hpp"
#include "workloads.hpp"

namespace {

namespace aad = aadedupe;
using sessionbench::Config;
using sessionbench::Outcome;

int usage(const char* why) {
  std::fprintf(stderr,
               "bench_session: %s\nusage: bench_session --workload "
               "first_full|weekly|restore --seed N --seconds S --trace 0|1 "
               "[--smoke] [--out-dir DIR]\n",
               why);
  return 2;
}

bool parse(int argc, char** argv, Config& config, bool& smoke) {
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      smoke = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      config.workload = value;
      have_workload = true;
    } else if (arg == "--seed") {
      config.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0' || value.empty()) return false;
    } else if (arg == "--seconds") {
      config.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(config.seconds > 0.0)) return false;
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") return false;
      config.trace = value == "1";
    } else if (arg == "--out-dir") {
      config.out_dir = value;
    } else {
      return false;
    }
  }
  return have_workload && sessionbench::is_workload(config.workload);
}

aad::telemetry::JsonValue metadata(const Config& config) {
  aad::telemetry::JsonValue meta;
  meta.make_object();
  meta["workload"] = config.workload;
  meta["seed"] = config.seed;
  meta["seconds"] = config.seconds;
  meta["trace"] = config.trace;
  meta["snapshot_bytes"] = config.snapshot_bytes;
  meta["nproc"] = std::thread::hardware_concurrency();
  meta["worker_threads"] = config.trace ? std::size_t{1} : config.threads;
  const aad::hash::BatchHasher& hasher = aad::hash::default_batch_hasher();
  meta["sha1_rung"] = aad::hash::to_string(hasher.sha1_impl());
  meta["md5_rung"] = aad::hash::to_string(hasher.md5_impl());
  aad::telemetry::BuildInfo::current().fill_json(meta["build"]);
  return meta;
}

}  // namespace

int main(int argc, char** argv) {
  Config config;
  bool smoke = false;
  if (!parse(argc, argv, config, smoke)) return usage("bad arguments");
  const unsigned nproc = std::thread::hardware_concurrency();
  config.threads = nproc == 0 ? 4 : nproc;
  if (smoke) {
    config.snapshot_bytes = 4ull << 20;
    config.weekly_sessions = 2;
    config.history_sessions = 1;
    config.datasets = 2;
    config.isolated_cpu_seconds = 0.002;
    config.warm_up_seconds = 0.0;
  }

  Outcome outcome;
  try {
    outcome = config.trace ? sessionbench::run_traced(config)
                           : sessionbench::run_end_to_end(config);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_session: %s\n", e.what());
    return 1;
  }

  aad::telemetry::JsonValue metrics;
  metrics.make_object();
  std::printf("%-36s %16s  %s\n", "metric", "value", "unit");
  for (const sessionbench::Metric& m : outcome.metrics) {
    std::printf("%-36s %16.6g  %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
    if (!std::isfinite(m.value)) {
      outcome.check(false, "metric " + m.name + " is not finite");
      continue;
    }
    aad::telemetry::JsonValue& entry = metrics[m.name].make_object();
    entry["value"] = m.value;
    entry["unit"] = m.unit;
  }
  aad::telemetry::JsonValue result;
  result.make_object();
  result["correct"] = outcome.failed == 0;
  result["attempted"] = outcome.attempted;
  result["failed"] = outcome.failed;
  result["metrics"] = std::move(metrics);
  std::printf("ops_failed_frac %.6g (%llu of %llu operations)\n",
              static_cast<double>(outcome.failed) /
                  static_cast<double>(outcome.attempted),
              static_cast<unsigned long long>(outcome.failed),
              static_cast<unsigned long long>(outcome.attempted));
  for (const std::string& failure : outcome.failures) {
    std::fprintf(stderr, "FAILED: %s\n", failure.c_str());
  }

  aad::telemetry::JsonValue stamped;
  stamped.make_object();
  stamped["meta"] = metadata(config);
  stamped["result"] = result;
  std::printf("meta %s\n", stamped["meta"].dump(0).c_str());
  const std::string path = config.out_dir + "/result-" + config.workload +
                           "-seed" + std::to_string(config.seed) + "-trace" +
                           (config.trace ? "1" : "0") + ".json";
  std::ofstream(path) << stamped.dump(2) << '\n';

  std::printf("%s\n", result.dump(0).c_str());
  return outcome.failed == 0 ? 0 : 1;
}
