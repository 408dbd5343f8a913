//===- tools/tfgc.cpp - Command-line driver -------------------------------===//
///
/// Compiles and runs a MiniML program under a selectable GC strategy.
///
///   tfgc [options] file.mml        run a program
///   tfgc [options] -e 'expr'       run inline source
///
/// The options are defined in one table in src/driver/Cli.cpp — run
/// `tfgc --help` for the full list; highlights:
///
///   --strategy=S       tagged | compiled (default) | interpreted | appel
///   --algo=A           copying (default) | marksweep | generational
///   --heap=BYTES       initial heap size (default 1 MiB)
///   --verify           re-trace after every collection; exit 3 on
///                      violations
///   --gc-log / --stats-json=FILE
///                      collection telemetry (log lines,
///                      counters+histograms JSON)
///   --flight-out=FILE  binary event recording: every collection with
///                      its phase times, safepoint handshakes, TLAB
///                      refills (tools/flight_report.py checks it against
///                      --stats-json, computes MMU with --mmu, and
///                      exports a Chrome trace)
///   --monitor          mutator-side sampling profiler (flat/caller
///                      profiles; --monitor-out=FILE streams JSONL)
///   --heap-profile     allocation-site + typed-heap profiling (tag-free:
///                      attribution without per-object headers)
///   --heap-snapshot=F  write the last collection's typed snapshot as
///                      JSON (render with tools/heap_report.py)
///   --retainers=N      retained-size diagnostics: top-N dominators with
///                      a sample root path, computed on the typed object
///                      graph captured at full/major collections (held
///                      in memory; no dump file unless --heap-dump)
///
/// Exit codes: 0 success, 1 compile/runtime error, 2 usage or I/O error,
/// 3 verify violations. Diagnostic files are flushed even on abnormal
/// exit.
///
//===----------------------------------------------------------------------===//

#include "driver/Cli.h"

#include <cstdio>

using namespace tfgc;

int main(int argc, char **argv) {
  std::vector<std::string> Args(argv + 1, argv + argc);
  CliOptions O;
  std::string Err;
  bool HelpOnly = false;
  if (!parseCli(Args, O, Err, HelpOnly)) {
    std::fprintf(stderr, "%s\n%s", Err.c_str(), usageText().c_str());
    return 2;
  }
  if (HelpOnly) {
    std::fputs(usageText().c_str(), stdout);
    return 0;
  }
  return runTfgc(O);
}
