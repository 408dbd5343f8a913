//===- perfbench/src/main.cpp - tfgc_perf command line --------------------===//
///
/// \file
/// tfgc_perf --workload NAME --seed N --seconds S --trace 0|1
///           [--scale F] [--spans-out FILE]
///
/// Runs one workload and prints one JSON object on its last stdout line:
/// the metrics (end-to-end with --trace 0, per-layer with --trace 1), the
/// checked-outcome counts, the first errors, ungated facts, and the build
/// record. perfbench/run.py builds this binary, runs it and validates the
/// object against BENCHMARK.json.
///
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "support/BuildInfo.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

using namespace perfbench;

namespace {

std::string jsonString(const std::string &S) {
  std::string Out = "\"";
  for (char C : S) {
    if (C == '"' || C == '\\') {
      Out += '\\';
      Out += C;
    } else if ((unsigned char)C < 0x20) {
      char Buf[8];
      std::snprintf(Buf, sizeof Buf, "\\u%04x", (unsigned)C);
      Out += Buf;
    } else {
      Out += C;
    }
  }
  return Out + "\"";
}

std::string jsonNumber(double V) {
  if (!std::isfinite(V))
    return "null";
  char Buf[64];
  std::snprintf(Buf, sizeof Buf, "%.17g", V);
  return Buf;
}

std::string metricsObject(const std::vector<Metric> &Ms) {
  std::string Out = "{";
  for (size_t I = 0; I < Ms.size(); ++I)
    Out += (I ? ", " : "") + jsonString(Ms[I].Name) + ": {\"value\": " +
           jsonNumber(Ms[I].Value) + ", \"unit\": " + jsonString(Ms[I].Unit) +
           "}";
  return Out + "}";
}

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: tfgc_perf --workload compile_large|gc_matrix|"
               "parallel_gc --seed N --seconds S --trace 0|1 [--scale F] "
               "[--spans-out FILE]\n");
  std::exit(2);
}

} // namespace

int main(int argc, char **argv) {
  RunConfig Cfg;
  std::string SpansOut;
  for (int I = 1; I < argc; ++I) {
    std::string A = argv[I];
    if (I + 1 >= argc)
      usage();
    const char *V = argv[++I];
    if (A == "--workload")
      Cfg.Workload = V;
    else if (A == "--seed")
      Cfg.Seed = std::strtoull(V, nullptr, 10);
    else if (A == "--seconds")
      Cfg.Seconds = std::atof(V);
    else if (A == "--trace")
      Cfg.Trace = std::atoi(V) != 0;
    else if (A == "--scale")
      Cfg.Scale = std::atof(V);
    else if (A == "--spans-out")
      SpansOut = V;
    else
      usage();
  }
  if (Cfg.Workload.empty() || Cfg.Seconds <= 0 || Cfg.Scale <= 0)
    usage();

  Tracer T;
  Report R;
  if (!runWorkload(Cfg, T, R)) {
    std::fprintf(stderr, "unknown workload '%s'\n", Cfg.Workload.c_str());
    return 2;
  }
  if (Cfg.Trace && !SpansOut.empty() && !T.write(SpansOut)) {
    std::fprintf(stderr, "cannot write %s\n", SpansOut.c_str());
    return 1;
  }

  const tfgc::BuildInfo &B = tfgc::buildInfo();
  std::string Errors = "[";
  for (size_t I = 0; I < R.Errors.size(); ++I)
    Errors += (I ? ", " : "") + jsonString(R.Errors[I]);
  Errors += "]";
  std::printf("{\"workload\": %s, \"seed\": %llu, \"trace\": %d, "
              "\"scale\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"errors\": %s, \"metrics\": %s, \"info\": %s, \"cells\": %s, "
              "\"spans\": %zu, "
              "\"build\": {\"git_sha\": %s, \"dispatch\": %s, "
              "\"sanitizer\": %s, \"build_type\": %s, "
              "\"hardware_threads\": %u}}\n",
              jsonString(Cfg.Workload).c_str(),
              (unsigned long long)Cfg.Seed, Cfg.Trace ? 1 : 0,
              jsonNumber(Cfg.Scale).c_str(),
              (unsigned long long)R.Attempted, (unsigned long long)R.Failed,
              Errors.c_str(), metricsObject(R.Metrics).c_str(),
              metricsObject(R.Info).c_str(), metricsObject(R.Cells).c_str(), T.size(),
              jsonString(B.GitSha).c_str(), jsonString(B.Dispatch).c_str(),
              jsonString(B.Sanitizer).c_str(), jsonString(B.BuildType).c_str(),
              std::thread::hardware_concurrency());
  return 0;
}
