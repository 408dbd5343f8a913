//===- bench/bench_metadata_size.cpp - E4: metadata size -----------------===//
///
/// The space half of the section-2.4 trade-off: compiled frame/type GC
/// routines are generated code and grow with the program; interpreted
/// descriptors are shared data and stay small; the tagged baseline needs
/// no tables at all but pays one header word per *object* at run time
/// (E2). Also reports gc_word accounting from the code image. Every E4
/// row's counters (meta.*) are recorded for the bench_diff gate.
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

using namespace tfgc;
using namespace tfgc::bench;
namespace wl = tfgc::workloads;

namespace {

void report(const char *Name, const std::string &Src) {
  auto P = compileOrDie(Src);
  Stats St;
  St.set("meta.functions", P->Prog.Functions.size());
  St.set("meta.sites", P->Prog.Sites.size());
  St.set("meta.compiled_bytes", P->Compiled.sizeBytes());
  St.set("meta.interpreted_bytes", P->Interp->sizeBytes());
  St.set("meta.appel_bytes", P->Appel->sizeBytes());
  St.set("meta.frame_routines", P->Compiled.numFrameRoutines());
  St.set("meta.type_routines", P->Compiled.numTypeRoutines());
  St.set("meta.image_words", P->Image.sizeWords());
  St.set("meta.gc_words", P->Image.gcWordBytes() / sizeof(Word));
  St.set("meta.gc_words_omitted", P->Image.omittedGcWords());
  jsonWorkload(Name);
  if (JsonSink *Sink = JsonSink::active())
    Sink->recordCounters("metadata", St);
  tableCell(Name);
  tableCell(P->Prog.Functions.size());
  tableCell(P->Prog.Sites.size());
  tableCell(human(P->Compiled.sizeBytes()));
  tableCell(human(P->Interp->sizeBytes()));
  tableCell(human(P->Appel->sizeBytes()));
  tableCell(P->Compiled.numFrameRoutines());
  tableCell(P->Compiled.numTypeRoutines());
  tableEnd();
}

} // namespace

int main(int argc, char **argv) {
  JsonSink Sink("metadata_size", argc, argv);
  tableHeader("E4: GC metadata size by method",
              "modeled bytes: compiled = straight-line code, interpreted/"
              "Appel = shared descriptors; tagged = 0 (costs live in E2)",
              {"workload", "functions", "sites", "compiled", "interpreted",
               "appel", "frame routines", "type routines"});
  report("appendPaper", wl::appendPaper(10));
  report("listChurn", wl::listChurn(10, 2));
  report("binaryTrees", wl::binaryTrees(4, 2));
  report("variantRecords", wl::variantRecords(10));
  report("higherOrder", wl::higherOrder(10));
  report("polyPaper", wl::polyPaper());
  report("nqueens", wl::nqueens(4));
  report("symbolicDiff", wl::symbolicDiff(2));

  // gc_word accounting: the section 5.1 analysis omits words at sites
  // that cannot trigger collection.
  tableHeader("E4b: gc_word accounting (code image)",
              "gc_words live in the instruction stream at call+8 "
              "(Figure 1); omitted where GC is impossible",
              {"workload", "image words", "gc_words", "omitted",
               "omitted %"});
  struct Row {
    const char *Name;
    std::string Src;
  } Rows[] = {
      {"appendPaper", wl::appendPaper(10)},
      {"nqueens", wl::nqueens(4)},
      {"higherOrder", wl::higherOrder(10)},
  };
  for (const Row &R : Rows) {
    auto P = compileOrDie(R.Src);
    uint64_t Live = P->Image.gcWordBytes() / sizeof(Word);
    uint64_t Omitted = P->Image.omittedGcWords();
    tableCell(R.Name);
    tableCell(P->Image.sizeWords());
    tableCell(Live);
    tableCell(Omitted);
    tableCell(100.0 * (double)Omitted / (double)(Live + Omitted));
    tableEnd();
  }
  std::printf("\nExpected shape: interpreted < compiled on every workload "
              "(descriptors dedup\nprogram-wide; routines are code). Appel "
              "is descriptor-sized but one table per\nprocedure instead of "
              "per call site.\n\n");
  benchmark::Initialize(&argc, argv);
  Sink.runBenchmarksAndWrite();
  return 0;
}
