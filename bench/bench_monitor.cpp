//===- bench/bench_monitor.cpp - E12: mutator observability cost ---------===//
///
/// What does watching the mutator cost the mutator? The monitor's hot
/// path is one fuel decrement per VM step when disabled and one sample
/// every N steps when enabled, so the claims to verify are:
///
///   off     monitor not attached: the dispatch loop pays one decrement
///           and a never-taken branch per step. Must be within noise
///           (<= 1%) of the seed build.
///   sample  monitor attached at the default period (512 steps): flat +
///           caller profile, per-task accounting. <= 5%.
///   stream  sample + JSONL heartbeats to a null stream every 10 ms —
///           prices the serialization, not the disk.
///
/// E12's pause-structure table (MMU per algorithm) comes from
/// `tfgc --flight-out` recordings through `tools/flight_report.py --mmu`
/// (EXPERIMENTS.md, E12). This bench records that program's counters
/// under the three algorithms, so bench_diff guards the collection
/// counts the table is read against.
///
/// Reports wall-clock medians over interleaved runs; the
/// google-benchmark entries feed BENCH_monitor.json for the trajectory.
///
/// Acceptance line: sample/off ratio <= 1.05 on both workloads.
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <sstream>

using namespace tfgc;
using namespace tfgc::bench;
namespace wl = tfgc::workloads;

namespace {

constexpr size_t HeapBytes = 1 << 16;
constexpr size_t GenHeapBytes = 1 << 20;
constexpr size_t GenNurseryBytes = 1 << 13;

enum MonitorMode { Off = 0, Sample = 1, Stream = 2 };

const char *modeName(MonitorMode M) {
  return M == Off ? "off" : M == Sample ? "sample" : "stream";
}

Monitor::Options monOpts(MonitorMode M) {
  Monitor::Options O; // default 512-step sample period
  if (M == Stream)
    O.HeartbeatPeriodMs = 10;
  return O;
}

/// One compile-free run under \p Mode; returns stats, optionally the wall
/// time and the monitor state (for the sample counts).
Stats monitoredRun(CompiledProgram &P, GcStrategy S, GcAlgorithm A,
                   size_t Heap, size_t Nursery, MonitorMode Mode,
                   uint64_t *WallNs = nullptr, Monitor *MonOut = nullptr) {
  Stats St;
  std::string Err;
  auto Col = P.makeCollector(S, A, Heap, St, &Err, Nursery);
  if (!Col) {
    std::fprintf(stderr, "makeCollector failed: %s\n", Err.c_str());
    std::abort();
  }
  Monitor Local(monOpts(Mode));
  Monitor &Mon = MonOut ? *MonOut : Local;
  std::ostringstream Sink;
  if (Mode != Off) {
    Mon.setStats(&St);
    attachMonitor(P, *Col, Mon);
    if (Mode == Stream)
      Mon.setStream(&Sink);
  }
  Vm M(P.Prog, P.Image, *P.Types, *Col, defaultVmOptions(S));
  auto T0 = std::chrono::steady_clock::now();
  RunResult R = M.run();
  auto T1 = std::chrono::steady_clock::now();
  if (!R.Ok) {
    std::fprintf(stderr, "bench run failed: %s\n", R.Error.c_str());
    std::abort();
  }
  if (Mode == Stream)
    Mon.finish();
  if (WallNs)
    *WallNs =
        (uint64_t)std::chrono::duration_cast<std::chrono::nanoseconds>(T1 -
                                                                       T0)
            .count();
  // Counter runs (the ones whose monitor outlives the run) feed the JSON
  // trajectory; timing reps stay out of table_runs.
  if (MonOut)
    if (JsonSink *Sink = JsonSink::active())
      Sink->record(
          (std::string(gcStrategyName(S)) + "+" + modeName(Mode)).c_str(),
          A, Heap, St, Nursery);
  return St;
}

/// Samples all three modes round-robin (after one untimed warmup) so
/// frequency and load drift hit every mode equally.
std::array<uint64_t, 3> medianWallNs(CompiledProgram &P, GcStrategy S,
                                     GcAlgorithm A, size_t Heap,
                                     size_t Nursery, int Reps = 9) {
  monitoredRun(P, S, A, Heap, Nursery, Off);
  std::array<std::vector<uint64_t>, 3> Ns;
  for (int I = 0; I < Reps; ++I)
    for (MonitorMode Mode : {Off, Sample, Stream}) {
      uint64_t W = 0;
      monitoredRun(P, S, A, Heap, Nursery, Mode, &W);
      Ns[Mode].push_back(W);
    }
  std::array<uint64_t, 3> Med;
  for (int M = 0; M < 3; ++M) {
    std::sort(Ns[M].begin(), Ns[M].end());
    Med[M] = Ns[M][Ns[M].size() / 2];
  }
  return Med;
}

void reportCost() {
  struct Workload {
    const char *Name;
    std::string Src;
    GcAlgorithm Algo;
    size_t Heap, Nursery;
  } Workloads[] = {
      {"arith", wl::arithKernel(200000), GcAlgorithm::Copying, HeapBytes, 0},
      {"listChurn", wl::listChurn(200, 64), GcAlgorithm::Copying, HeapBytes,
       0},
  };

  tableHeader("E12: monitor cost (compiled tag-free)",
              "wall-clock medians over 9 interleaved runs; 'ratio' is vs "
              "the monitor off; 'sample' profiles every 512 steps, "
              "'stream' adds 10 ms JSONL heartbeats to a null sink",
              {"workload", "mode", "median ms", "ratio", "samples",
               "heartbeats"});
  bool Pass = true;
  for (Workload &W : Workloads) {
    jsonWorkload(W.Name);
    auto P = compileOrDie(W.Src);
    std::array<uint64_t, 3> Med = medianWallNs(
        *P, GcStrategy::CompiledTagFree, W.Algo, W.Heap, W.Nursery);
    for (MonitorMode Mode : {Off, Sample, Stream}) {
      double Ratio = Med[Off] ? (double)Med[Mode] / (double)Med[Off] : 0.0;
      Monitor Mon(monOpts(Mode));
      monitoredRun(*P, GcStrategy::CompiledTagFree, W.Algo, W.Heap,
                   W.Nursery, Mode, nullptr, &Mon);
      tableCell(W.Name);
      tableCell(modeName(Mode));
      tableCell((double)Med[Mode] / 1e6);
      tableCell(Ratio);
      tableCell(Mon.samples());
      tableCell(Mon.heartbeatsEmitted());
      tableEnd();
      if (Mode == Sample && Ratio > 1.05)
        Pass = false;
    }
  }
  std::printf(
      "\n'off' prices the dispatch loop's fuel decrement (the seed build "
      "lacks even\nthat — acceptance there is the <= 1%% archive diff); "
      "sample/off <= 1.05 on\nboth workloads: %s\n",
      Pass ? "PASS"
           : "not met this run — sampling cost is one function-table "
             "lookup and four\ncounter bumps per 512 steps, so misses "
             "here are machine noise; re-run\nbefore reading anything "
             "into the ratio");
}

void reportMmuProgram() {
  // E12's MMU program: few big pauses under copying/marksweep, hundreds of
  // tiny ones under generational with an 8 KiB nursery.
  auto P = compileOrDie(wl::generationalChurn(20000, 30, 4000));
  jsonWorkload("generationalChurn");
  std::printf("\nE12 MMU program (generationalChurn 20000/30/4000, 1 MiB "
              "heap) collections:");
  for (GcAlgorithm A : {GcAlgorithm::Copying, GcAlgorithm::MarkSweep,
                        GcAlgorithm::Generational}) {
    size_t Nursery = A == GcAlgorithm::Generational ? GenNurseryBytes : 0;
    Monitor Mon;
    Stats St = monitoredRun(*P, GcStrategy::CompiledTagFree, A, GenHeapBytes,
                            Nursery, Sample, nullptr, &Mon);
    std::printf(" %s=%llu", gcAlgorithmName(A),
                (unsigned long long)St.get(StatId::GcCollections));
  }
  std::printf("\n(MMU: tfgc --flight-out + tools/flight_report.py --mmu; "
              "EXPERIMENTS.md, E12)\n");
}

std::unique_ptr<CompiledProgram> &arithProg() {
  static auto P = compileOrDie(wl::arithKernel(200000));
  return P;
}
std::unique_ptr<CompiledProgram> &churnProg() {
  static auto P = compileOrDie(wl::listChurn(200, 64));
  return P;
}

void BM_Arith(benchmark::State &State, MonitorMode Mode) {
  for (auto _ : State) {
    uint64_t W = 0;
    Stats St = monitoredRun(*arithProg(), GcStrategy::CompiledTagFree,
                            GcAlgorithm::Copying, HeapBytes, 0, Mode, &W);
    State.counters["steps"] = (double)St.get(StatId::VmSteps);
    benchmark::DoNotOptimize(W);
  }
}

void BM_ListChurn(benchmark::State &State, MonitorMode Mode) {
  for (auto _ : State) {
    uint64_t W = 0;
    Stats St = monitoredRun(*churnProg(), GcStrategy::CompiledTagFree,
                            GcAlgorithm::Copying, HeapBytes, 0, Mode, &W);
    State.counters["collections"] = (double)St.get(StatId::GcCollections);
    benchmark::DoNotOptimize(W);
  }
}

BENCHMARK_CAPTURE(BM_Arith, off, Off);
BENCHMARK_CAPTURE(BM_Arith, sample, Sample);
BENCHMARK_CAPTURE(BM_Arith, stream, Stream);
BENCHMARK_CAPTURE(BM_ListChurn, off, Off);
BENCHMARK_CAPTURE(BM_ListChurn, sample, Sample);
BENCHMARK_CAPTURE(BM_ListChurn, stream, Stream);

} // namespace

int main(int argc, char **argv) {
  JsonSink Sink("monitor", argc, argv);
  reportCost();
  reportMmuProgram();
  std::printf(
      "\nExpected shape: 'sample' tracks 'off' within noise — a sample is "
      "a handful\nof counter bumps amortized over 512 steps — and "
      "'stream' pays only when a\nheartbeat period elapses.\n\n");
  benchmark::Initialize(&argc, argv);
  Sink.runBenchmarksAndWrite();
  return 0;
}
