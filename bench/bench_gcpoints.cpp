//===- bench/bench_gcpoints.cpp - E6: GC-point analysis ------------------===//
///
/// Paper section 5.1: the fixpoint S of functions that may lead to a
/// collection. Sites outside S need no gc_word at all, and many sites in
/// S still share the single no_trace routine. This bench reports both
/// effects per workload, plus the fixpoint iteration count. Every row's
/// counters (gcpoints.*) are recorded for the bench_diff gate.
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "analysis/GcPoints.h"

using namespace tfgc;
using namespace tfgc::bench;
namespace wl = tfgc::workloads;

namespace {

void report(const char *Name, const std::string &Src) {
  auto P = compileOrDie(Src);
  uint64_t NoTrace = P->Compiled.numNoTraceSites();
  uint64_t Total = P->Prog.Sites.size();
  uint64_t Omitted = P->GcPoints.SitesCannotTrigger;
  uint64_t MayCollect = 0;
  for (bool B : P->GcPoints.MayCollect)
    MayCollect += B;
  Stats St;
  St.set("gcpoints.sites", Total);
  St.set("gcpoints.sites_omitted", Omitted);
  St.set("gcpoints.sites_no_trace", NoTrace);
  St.set("gcpoints.fixpoint_iterations", P->GcPoints.FixpointIterations);
  St.set("gcpoints.functions_may_collect", MayCollect);
  St.set("gcpoints.functions", P->Prog.Functions.size());
  jsonWorkload(Name);
  if (JsonSink *Sink = JsonSink::active())
    Sink->recordCounters("gcpoints", St);
  tableCell(Name);
  tableCell(Total);
  tableCell(Omitted);
  tableCell(100.0 * (double)Omitted / (double)Total);
  tableCell(NoTrace);
  tableCell((uint64_t)P->GcPoints.FixpointIterations);
  tableCell(MayCollect);
  tableCell((uint64_t)P->Prog.Functions.size());
  tableEnd();
}

/// Timing: the analysis itself is a compile-time cost; measure it.
void BM_GcPointAnalysis(benchmark::State &State) {
  auto P = compileOrDie(wl::nqueens(6));
  GcPointOptions O;
  O.FloatsAllocate = true;
  for (auto _ : State) {
    GcPointResult R = computeGcPoints(P->Prog, O);
    benchmark::DoNotOptimize(R.SitesCannotTrigger);
  }
}
BENCHMARK(BM_GcPointAnalysis);

} // namespace

int main(int argc, char **argv) {
  JsonSink Sink("gcpoints", argc, argv);
  tableHeader("E6: GC-point analysis (section 5.1)",
              "omitted = sites with no gc_word; no_trace = sites whose "
              "routine is empty (paper 2.4)",
              {"workload", "sites", "omitted", "omitted %", "no_trace",
               "fixpoint iters", "fns in S", "fns total"});
  report("appendPaper", wl::appendPaper(10));
  report("arithKernel", wl::arithKernel(10));
  report("nqueens", wl::nqueens(4));
  report("listChurn", wl::listChurn(10, 2));
  report("binaryTrees", wl::binaryTrees(4, 2));
  report("higherOrder", wl::higherOrder(10));
  report("taskSpinner", wl::taskWorkerAndSpinner());
  std::printf("\nExpected shape: call-heavy, allocation-light code "
              "(nqueens' safe/abs, the spinner)\nhas a high omitted "
              "fraction; allocation-dense code keeps most gc_words but "
              "still\nshares no_trace heavily (the paper's append "
              "observation).\n\n");
  benchmark::Initialize(&argc, argv);
  Sink.runBenchmarksAndWrite();
  return 0;
}
