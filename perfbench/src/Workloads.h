//===- perfbench/src/Workloads.h - The three benchmark workloads -*- C++ -*-===//
///
/// \file
/// compile_large, gc_matrix and parallel_gc (see perfbench/README.md for
/// why each exists and which layer metric should move which end-to-end
/// metric). A run sets up several times, warms up one pass, then repeats
/// passes over the workload's cells, round-robin, until its time is up.
/// Every pass checks every result against the C++ oracle and checks that
/// the exact counters repeat.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include "Measure.h"

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct RunConfig {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  /// Traced run: alternate untraced and traced passes, report per-layer
  /// metrics from the traced ones and the tracing overhead between them.
  bool Trace = false;
  /// Input size factor; 1 is the benchmark, the self-test uses less.
  double Scale = 1;
};

struct Metric {
  std::string Name;
  double Value;
  std::string Unit;
};

struct Report {
  std::vector<Metric> Metrics;
  /// Checked outcomes: every cell run, task, compile and counter repeat.
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::vector<std::string> Errors;
  /// Recorded facts that are not gated (sample counts, host reference).
  std::vector<Metric> Info;
  /// Each cell's median construct+run time, one row per cell.
  std::vector<Metric> Cells;

  void metric(std::string Name, double Value, std::string Unit) {
    Metrics.push_back({std::move(Name), Value, std::move(Unit)});
  }
  void info(std::string Name, double Value, std::string Unit) {
    Info.push_back({std::move(Name), Value, std::move(Unit)});
  }
  /// Counts one checked outcome; \p Ok false records it as failed.
  void check(bool Ok, const std::string &What) {
    ++Attempted;
    if (!Ok) {
      ++Failed;
      if (Errors.size() < 16)
        Errors.push_back(What);
    }
  }
};

/// Runs \p Cfg.Workload; spans of traced passes go to \p T. Returns false
/// for an unknown workload name.
bool runWorkload(const RunConfig &Cfg, Tracer &T, Report &Out);

/// The per-layer metrics a traced run reports, with their units.
const std::vector<std::pair<const char *, const char *>> &layerMetrics();

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H
