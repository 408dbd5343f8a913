//===- bench/BenchUtil.h - Shared bench harness helpers ---------*- C++ -*-===//
///
/// \file
/// Helpers shared by the experiment binaries (E1..E9). Each binary prints
/// a paper-style table derived from deterministic runs, then (where the
/// experiment is about wall time) runs google-benchmark timings.
///
//===----------------------------------------------------------------------===//

#ifndef TFGC_BENCH_BENCHUTIL_H
#define TFGC_BENCH_BENCHUTIL_H

#include "driver/Compiler.h"
#include "support/BuildInfo.h"
#include "workloads/Programs.h"

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

namespace tfgc::bench {

// -- JSON trajectory output ----------------------------------------------
//
// Every bench binary accepts `--json <path>` (or `--json=<path>`): the
// paper-table counter runs and the google-benchmark timings are then also
// written to <path> as one JSON document, so the repo can accumulate
// BENCH_<name>.json files as a perf trajectory across PRs.

class JsonSink {
public:
  /// Scans argv for --json and strips it (google-benchmark rejects flags
  /// it does not know).
  JsonSink(std::string BenchName, int &Argc, char **Argv)
      : BenchName(std::move(BenchName)) {
    int Out = 1;
    for (int I = 1; I < Argc; ++I) {
      std::string Arg = Argv[I];
      if (Arg == "--json" && I + 1 < Argc) {
        Path = Argv[++I];
      } else if (Arg.rfind("--json=", 0) == 0) {
        Path = Arg.substr(7);
      } else {
        Argv[Out++] = Argv[I];
      }
    }
    Argc = Out;
    active() = this;
  }
  ~JsonSink() {
    if (active() == this)
      active() = nullptr;
  }

  bool enabled() const { return !Path.empty(); }

  /// Labels subsequent record() calls with the workload being tabled.
  void setWorkload(std::string W) { Workload = std::move(W); }

  /// Captures one deterministic run's counters. \p Threads labels rows
  /// from the OS-thread runtime (E15); 0 omits the field (sequential VM).
  void record(const char *Strategy, GcAlgorithm A, size_t HeapBytes,
              const Stats &St, size_t NurseryBytes = 0,
              unsigned Threads = 0) {
    if (!enabled())
      return;
    std::ostringstream OS;
    OS << ", \"algorithm\": \"" << gcAlgorithmName(A)
       << "\", \"heap_bytes\": " << HeapBytes;
    if (NurseryBytes)
      OS << ", \"nursery_bytes\": " << NurseryBytes;
    if (Threads)
      OS << ", \"threads\": " << Threads;
    addRow(Strategy, OS.str(), St);
  }

  /// Captures one table row whose counters come from compiling, not from
  /// a run (metadata sizes, analysis results): keyed on the workload and
  /// \p Label alone.
  void recordCounters(const char *Label, const Stats &St) {
    if (enabled())
      addRow(Label, "", St);
  }

  /// Runs the registered google-benchmark timings (JSON-captured when
  /// enabled) and writes the document. Call after benchmark::Initialize.
  void runBenchmarksAndWrite() {
    if (!enabled()) {
      benchmark::RunSpecifiedBenchmarks();
      return;
    }
    // The JSON reporter stands in as the display reporter (a separate
    // file reporter would demand --benchmark_out); timings go to the
    // document instead of the console in JSON mode.
    std::ostringstream Timings;
    {
      benchmark::JSONReporter Json;
      Json.SetOutputStream(&Timings);
      Json.SetErrorStream(&std::cerr);
      benchmark::RunSpecifiedBenchmarks(&Json);
    }
    std::ofstream Out(Path);
    if (!Out) {
      std::fprintf(stderr, "cannot write %s\n", Path.c_str());
      std::abort();
    }
    std::string TimingsDoc = Timings.str();
    if (TimingsDoc.empty())
      TimingsDoc = "null"; // Bench with no registered timings.
    // Provenance: which tfgc build produced the numbers (google-benchmark's
    // context.library_build_type describes the benchmark library, not
    // tfgc) and how loaded the host was, since timings depend on both.
    const BuildInfo &BI = buildInfo();
    double Load = -1;
    getloadavg(&Load, 1);
    Out << "{\n  \"bench\": \"" << BenchName << "\",\n  \"schema\": 1,\n"
        << "  \"build\": {\"git_sha\": \"" << BI.GitSha
        << "\", \"build_type\": \"" << BI.BuildType << "\", \"sanitizer\": \""
        << BI.Sanitizer << "\"},\n  \"load_avg_1m\": " << Load << ",\n"
        << "  \"table_runs\": [\n";
    for (size_t I = 0; I < Rows.size(); ++I)
      Out << Rows[I] << (I + 1 < Rows.size() ? ",\n" : "\n");
    Out << "  ],\n  \"benchmark\": " << TimingsDoc << "\n}\n";
    std::printf("wrote %s\n", Path.c_str());
  }

  static JsonSink *&active() {
    static JsonSink *S = nullptr;
    return S;
  }

private:
  void addRow(const char *Strategy, const std::string &Key, const Stats &St) {
    std::ostringstream OS;
    OS << "    {\"workload\": \"" << Workload << "\", \"strategy\": \""
       << Strategy << '"' << Key << ", \"counters\": {";
    bool First = true;
    for (const auto &[Name, Value] : St.all()) {
      OS << (First ? "" : ", ") << '"' << Name << "\": " << Value;
      First = false;
    }
    OS << "}}";
    Rows.push_back(OS.str());
  }

  std::string BenchName;
  std::string Path;
  std::string Workload;
  std::vector<std::string> Rows;
};

/// Labels the table rows that follow in the JSON capture (no-op when no
/// sink is active).
inline void jsonWorkload(const std::string &W) {
  if (JsonSink *S = JsonSink::active())
    S->setWorkload(W);
}

/// Runs a program once and returns its stats (aborts on failure — benches
/// must not silently measure broken runs). Counter results feed the
/// active JsonSink, if any.
inline Stats runOnce(const std::string &Source, GcStrategy S,
                     GcAlgorithm A = GcAlgorithm::Copying,
                     size_t HeapBytes = 1 << 16, bool Stress = false,
                     CompileOptions Options = {}, size_t NurseryBytes = 0) {
  ExecResult R =
      execProgram(Source, S, A, HeapBytes, Stress, Options, NurseryBytes);
  if (!R.CompileOk || !R.Run.Ok) {
    std::fprintf(stderr, "bench workload failed under %s: %s%s\n",
                 gcStrategyName(S), R.CompileError.c_str(),
                 R.Run.Error.c_str());
    std::abort();
  }
  // Compile options that change what a run collects join the strategy
  // label, so two configurations of one strategy keep distinct run keys.
  std::string Label = gcStrategyName(S);
  if (!Options.UseLiveness)
    Label += "+no_liveness";
  if (Options.Monomorphise)
    Label += "+monomorphise";
  if (JsonSink *Sink = JsonSink::active())
    Sink->record(Label.c_str(), A, HeapBytes, R.St, NurseryBytes);
  return std::move(R.St);
}

/// Compiles once; reused across benchmark iterations.
inline std::unique_ptr<CompiledProgram>
compileOrDie(const std::string &Source, CompileOptions Options = {}) {
  Compiler C(Options);
  std::string Err;
  auto P = C.compile(Source, &Err);
  if (!P) {
    std::fprintf(stderr, "bench workload failed to compile: %s\n",
                 Err.c_str());
    std::abort();
  }
  return P;
}

/// One timed end-to-end run on a precompiled program. The trailing
/// mutator fast-path knobs (dispatch loop / superinstruction fusion /
/// float self-tagging) default to the production configuration; E13
/// passes the de-optimized baseline to measure the fast path itself.
inline void timedRun(benchmark::State &State, CompiledProgram &P,
                     GcStrategy S, GcAlgorithm A, size_t HeapBytes,
                     bool ZeroFramesOverride = false, bool Stress = false,
                     size_t NurseryBytes = 0,
                     DispatchMode Dispatch = DispatchMode::Auto,
                     bool Fuse = true, bool FloatSelfTag = true,
                     bool TailCalls = true) {
  for (auto _ : State) {
    Stats St;
    std::string Err;
    auto Col = P.makeCollector(S, A, HeapBytes, St, &Err, NurseryBytes);
    if (!Col) {
      State.SkipWithError(Err.c_str());
      return;
    }
    VmOptions VO = defaultVmOptions(S, Stress);
    VO.ZeroFrames = VO.ZeroFrames || ZeroFramesOverride;
    VO.Dispatch = Dispatch;
    VO.FuseSuperinstructions = Fuse;
    VO.FloatSelfTag = FloatSelfTag;
    VO.TailCalls = TailCalls;
    Vm M(P.Prog, P.Image, *P.Types, *Col, VO);
    RunResult R = M.run();
    if (!R.Ok) {
      State.SkipWithError(R.Error.c_str());
      return;
    }
    benchmark::DoNotOptimize(R.Value.data());
    State.counters["collections"] = (double)St.get(StatId::GcCollections);
  }
}

// -- Table printing -----------------------------------------------------

inline void tableHeader(const char *Title, const char *Legend,
                        const std::vector<std::string> &Cols) {
  std::printf("\n=== %s ===\n%s\n", Title, Legend);
  for (const std::string &C : Cols)
    std::printf("%-22s", C.c_str());
  std::printf("\n");
  for (size_t I = 0; I < Cols.size(); ++I)
    std::printf("%-22s", "--------------------");
  std::printf("\n");
}

inline void tableCell(const std::string &V) {
  std::printf("%-22s", V.c_str());
}
inline void tableCell(uint64_t V) { std::printf("%-22llu", (unsigned long long)V); }
inline void tableCell(double V) { std::printf("%-22.3f", V); }
inline void tableEnd() { std::printf("\n"); }

inline std::string human(uint64_t Bytes) {
  char Buf[32];
  if (Bytes >= 1024 * 1024)
    std::snprintf(Buf, sizeof(Buf), "%.1fMiB", (double)Bytes / (1 << 20));
  else if (Bytes >= 1024)
    std::snprintf(Buf, sizeof(Buf), "%.1fKiB", (double)Bytes / 1024);
  else
    std::snprintf(Buf, sizeof(Buf), "%lluB", (unsigned long long)Bytes);
  return Buf;
}

} // namespace tfgc::bench

#endif // TFGC_BENCH_BENCHUTIL_H
