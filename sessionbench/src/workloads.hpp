// The benchmark's workloads: first_full, weekly and restore, each run
// either end to end (tracing off, real AaDedupeScheme sessions) or as the
// traced per-layer replay.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace sessionbench {

struct Config {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".";  // where the traced run writes its spans

  // Sizes (full scale by default; --smoke shrinks them).
  std::uint64_t snapshot_bytes = 128ull << 20;
  std::uint32_t weekly_sessions = 6;   // timed next() sessions per pass
  std::uint32_t history_sessions = 4;  // next() sessions before a restore
  std::uint32_t datasets = 4;          // generated users per run
  double isolated_cpu_seconds = 0.05;  // per isolated-twin measurement
  double warm_up_seconds = 2.0;
  std::size_t threads = 4;             // the nproc pass
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Metrics plus the run's operation tally: every session, scrub, restored
/// file and cross-check is one attempted operation.
struct Outcome {
  std::vector<Metric> metrics;
  std::vector<std::string> failures;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      if (failures.size() < 20) failures.push_back(what);
    }
  }
  void add(std::string name, double value, std::string unit) {
    metrics.push_back(Metric{std::move(name), value, std::move(unit)});
  }
};

bool is_workload(const std::string& name);

Outcome run_end_to_end(const Config& config);
Outcome run_traced(const Config& config);

}  // namespace sessionbench
