//===- perfbench/src/Workloads.cpp ----------------------------------------===//

#include "Workloads.h"

#include "Programs.h"

#include "analysis/Liveness.h"
#include "driver/Compiler.h"
#include "frontend/Lexer.h"
#include "frontend/Parser.h"
#include "ir/Lower.h"
#include "ir/Verify.h"
#include "sched/ThreadedTasking.h"
#include "support/FlightRecorder.h"
#include "tasking/Tasking.h"
#include "types/Infer.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <functional>
#include <memory>
#include <sched.h>

using namespace perfbench;
using namespace tfgc;

namespace {

const GcStrategy Strategies[] = {
    GcStrategy::Tagged, GcStrategy::CompiledTagFree,
    GcStrategy::InterpretedTagFree, GcStrategy::AppelTagFree};
const char *const StrategyNames[] = {"tagged", "compiled", "interpreted",
                                     "appel"};
const GcAlgorithm Algorithms[] = {GcAlgorithm::Copying, GcAlgorithm::MarkSweep,
                                  GcAlgorithm::Generational};
const char *const AlgorithmNames[] = {"copying", "marksweep", "generational"};
const char *const PhaseSpanNames[NumGcPhases] = {
    "gc.root_scan",  "gc.ptr_reversal", "gc.frame_dispatch",
    "gc.tg_closure_build", "gc.copy_sweep", "gc.remset_scan", "gc.verify"};

/// Compile-pass spans, in Compiler::compile's order, and the per-layer
/// metric each one's self time is reported as.
const char *const CompileSpans[][2] = {
    {"frontend.lex", "frontend.lex_ms"},
    {"frontend.parse", "frontend.parse_ms"},
    {"types.infer", "types.infer_ms"},
    {"ir.lower", "ir.lower_ms"},
    {"ir.verify", "ir.verify_ms"},
    {"analysis.liveness", "analysis.liveness_ms"},
    {"analysis.gcpoints", "analysis.gcpoints_ms"},
    {"gcmeta.code_image", "gcmeta.code_image_ms"},
    {"analysis.reconstruct", "analysis.reconstruct_ms"},
    {"gcmeta.compiled", "gcmeta.compiled_ms"},
    {"gcmeta.interpreted", "gcmeta.interpreted_ms"},
    {"gcmeta.appel", "gcmeta.appel_ms"},
    {"vm.decode", "vm.decode_ms"},
};

/// Per-layer sums of one traced pass, keyed by metric name.
using Layers = std::map<std::string, double>;

double ms(uint64_t Ns) { return (double)Ns / 1e6; }

/// Exact facts of one compiled program; the traced compile and every
/// repeated compile must reproduce the set-up compile's facts.
struct ProgramFacts {
  uint64_t Functions = 0, Sites = 0, ImageWords = 0;
  uint64_t CompiledBytes = 0, InterpretedBytes = 0, AppelBytes = 0;
  uint64_t metadataBytes() const {
    return CompiledBytes + InterpretedBytes + AppelBytes;
  }
  bool operator==(const ProgramFacts &) const = default;
};

ProgramFacts factsOf(const CompiledProgram &P) {
  return {P.Prog.Functions.size(), P.Prog.Sites.size(), P.Image.sizeWords(),
          P.Compiled.sizeBytes(),  P.Interp->sizeBytes(), P.Appel->sizeBytes()};
}

/// Compiler::compile's passes called one by one in its order, each under
/// its own span. Options.Monomorphise is not supported (no workload
/// uses it).
std::unique_ptr<CompiledProgram> compileTraced(const std::string &Source,
                                               const CompileOptions &Options,
                                               Tracer &T, Layers &L,
                                               std::string &Error) {
  DiagnosticEngine Diags;
  auto Fail = [&]() -> std::unique_ptr<CompiledProgram> {
    Error = Diags.render();
    return nullptr;
  };
  std::vector<Token> Tokens;
  {
    Scope S(&T, "frontend.lex");
    Lexer Lex(Source, Diags);
    Tokens = Lex.tokenize();
  }
  if (Diags.hasErrors())
    return Fail();
  L["frontend.tokens"] += (double)Tokens.size();
  std::optional<Program> Ast;
  {
    Scope S(&T, "frontend.parse");
    Parser Parse(std::move(Tokens), Diags);
    Ast = Parse.parseProgram();
  }
  if (!Ast)
    return Fail();
  auto Types = std::make_unique<TypeContext>();
  std::optional<SemaInfo> Sema;
  {
    Scope S(&T, "types.infer");
    TypeChecker Checker(*Types, Diags, Options.RequireMonomorphic);
    Sema = Checker.check(*Ast);
  }
  if (!Sema)
    return Fail();
  std::optional<IrProgram> Ir;
  {
    Scope S(&T, "ir.lower");
    Lowerer Low(*Types, *Sema, Diags);
    Ir = Low.lower(*Ast);
  }
  if (!Ir)
    return Fail();
  {
    Scope S(&T, "ir.verify");
    if (!verifyIr(*Ir, &Error))
      return nullptr;
  }
  auto CP = std::make_unique<CompiledProgram>();
  CP->Options = Options;
  CP->Types = std::move(Types);
  CP->Prog = std::move(*Ir);
  CP->Prog.Types = CP->Types.get();
  {
    Scope S(&T, "analysis.liveness");
    LivenessOptions LiveOpts;
    LiveOpts.UseLiveness = Options.UseLiveness;
    LiveOpts.TraceCallArgs = Options.TaskingSafe;
    computeTraceSets(CP->Prog, LiveOpts);
  }
  {
    Scope S(&T, "analysis.gcpoints");
    if (Options.UseGcPointAnalysis && !Options.TaskingSafe) {
      GcPointOptions GcOpts;
      GcOpts.FloatsAllocate = true;
      CP->GcPoints = computeGcPoints(CP->Prog, GcOpts);
    } else {
      assumeAllSitesTrigger(CP->Prog);
    }
  }
  {
    Scope S(&T, "gcmeta.code_image");
    CP->Image.build(CP->Prog);
  }
  {
    Scope S(&T, "analysis.reconstruct");
    CP->Recon = computeExtractionPaths(CP->Prog);
  }
  {
    Scope S(&T, "gcmeta.compiled");
    CP->Compiled.build(CP->Prog, CP->Recon);
  }
  {
    Scope S(&T, "gcmeta.interpreted");
    CP->Interp = std::make_unique<InterpretedMetadata>(*CP->Types);
    CP->Interp->build(CP->Prog, CP->Recon);
  }
  {
    Scope S(&T, "gcmeta.appel");
    CP->Appel = std::make_unique<AppelMetadata>(*CP->Types);
    CP->Appel->build(CP->Prog, CP->Recon);
  }
  ProgramFacts F = factsOf(*CP);
  L["ir.functions"] += (double)F.Functions;
  L["ir.sites"] += (double)F.Sites;
  L["analysis.omitted_gc_words"] += (double)CP->GcPoints.SitesCannotTrigger;
  L["gcmeta.compiled_bytes"] += (double)F.CompiledBytes;
  L["gcmeta.interpreted_bytes"] += (double)F.InterpretedBytes;
  L["gcmeta.appel_bytes"] += (double)F.AppelBytes;
  return CP;
}

/// Collector and VM counters of one finished run, summed into the pass.
void addCounters(const Stats &St, Layers &L) {
  static const std::pair<const char *, StatId> Sums[] = {
      {"vm.steps", StatId::VmSteps},
      {"vm.calls", StatId::VmCalls},
      {"vm.superinstructions", StatId::VmSuperinstructions},
      {"vm.frame_words_zeroed", StatId::VmFrameWordsZeroed},
      {"core.collections", StatId::GcCollections},
      {"core.words_visited", StatId::GcWordsVisited},
      {"core.objects_visited", StatId::GcObjectsVisited},
      {"core.frames_traced", StatId::GcFramesTraced},
      {"core.slots_traced", StatId::GcSlotsTraced},
      {"core.chain_steps", StatId::GcChainSteps},
      {"core.stack_steals", StatId::GcStackSteals},
      {"tg.hits", StatId::GcTgCacheHits},
      {"tg.misses", StatId::GcTgCacheMisses},
      {"runtime.minor_collections", StatId::GcMinorCollections},
      {"runtime.major_collections", StatId::GcMajorCollections},
      {"runtime.promoted_words", StatId::GcPromotedWords},
      {"runtime.barrier_ops", StatId::GcBarrierOps},
      {"runtime.heap_growths", StatId::GcHeapGrowths},
      {"runtime.bytes_allocated", StatId::HeapBytesAllocatedTotal},
  };
  for (const auto &[Name, Id] : Sums)
    L[Name] += (double)St.get(Id);
  double &Peak = L["runtime.peak_heap_kb"];
  Peak = std::max(Peak, (double)St.get(StatId::HeapCapacityBytes) / 1024.0);
}

/// Collections of one run as spans under \p RunSpan (each pause's phases
/// laid out in phase order inside it, as the Chrome trace export does)
/// and as per-strategy / per-algorithm / per-phase sums.
void addCollections(Tracer &T, int32_t RunSpan, int32_t Cell,
                    uint64_t Offset, const GcEvent *Begin,
                    const GcEvent *End, const char *Strategy,
                    const char *Algorithm, Layers &L) {
  static const std::pair<const char *, GcPhase> PhaseMetrics[] = {
      {"core.root_scan_ms", GcPhase::RootScan},
      {"core.ptr_reversal_ms", GcPhase::PtrReversal},
      {"core.frame_dispatch_ms", GcPhase::FrameDispatch},
      {"core.tg_closure_build_ms", GcPhase::TgClosureBuild},
      {"runtime.copy_sweep_ms", GcPhase::CopySweep},
      {"runtime.remset_scan_ms", GcPhase::RemsetScan},
  };
  uint64_t PauseNs = 0;
  std::array<uint64_t, NumGcPhases> PhaseNs{};
  for (const GcEvent *E = Begin; E != End; ++E) {
    uint64_t Start = E->StartNs + Offset;
    int32_t Pause = T.add("gc.pause", Start, Start + E->PauseNs, RunSpan, Cell);
    uint64_t At = Start;
    for (size_t P = 0; P < NumGcPhases; ++P) {
      if (!E->PhaseNs[P])
        continue;
      T.add(PhaseSpanNames[P], At, At + E->PhaseNs[P], Pause, Cell);
      At += E->PhaseNs[P];
      PhaseNs[P] += E->PhaseNs[P];
    }
    PauseNs += E->PauseNs;
  }
  L[std::string("core.pause_ms.") + Strategy] += ms(PauseNs);
  L[std::string("runtime.pause_ms.") + Algorithm] += ms(PauseNs);
  for (const auto &[Name, Phase] : PhaseMetrics)
    L[Name] += ms(PhaseNs[(size_t)Phase]);
}

/// Exact counters that must repeat on every run of one cell.
struct ExactCounters {
  uint64_t Collections, WordsVisited, Steps;
  bool operator==(const ExactCounters &) const = default;
};

/// One run's state: the pass loop, pooled samples and the checks.
struct Runner {
  const RunConfig &Cfg;
  Tracer &T;
  Report &Out;

  PauseSink Sink;
  std::vector<double> SetupSecs, PassWall, PassCompile, TracedWall;
  std::vector<double> HostRefMs, Coverage;
  std::vector<Layers> TracedLayers;
  std::map<int, std::vector<double>> CellMs;
  std::map<int, std::string> CellNames;
  std::map<int, ExactCounters> Exact;
  uint64_t MetadataBytes = 0;
  HostRef Ref;

  // State of the pass in progress.
  Tracer *PassT = nullptr; ///< Non-null on traced passes.
  bool Timed = false;      ///< Untraced pass past the warm-up.
  Layers L;
  uint64_t PassCompileNs = 0;

  Runner(const RunConfig &Cfg, Tracer &T, Report &Out)
      : Cfg(Cfg), T(T), Out(Out) {
    sched_getaffinity(0, sizeof Allowed, &Allowed);
    for (int C = 0; C < CPU_SETSIZE; ++C)
      if (CPU_ISSET(C, &Allowed))
        Cpus.push_back(C);
  }

  /// The CPUs this process may run on. Pass N runs on Cpus[N % size]: a
  /// shared host slows each CPU by a different amount at any moment, and
  /// the scheduler would otherwise keep a single-threaded run on one CPU
  /// for its whole length, so a run would measure only that CPU's luck.
  cpu_set_t Allowed;
  std::vector<int> Cpus;
  void pinForPass(size_t N) {
    if (Cpus.empty())
      return;
    cpu_set_t One;
    CPU_ZERO(&One);
    CPU_SET(Cpus[N % Cpus.size()], &One);
    sched_setaffinity(0, sizeof One, &One);
  }
  /// Threads inherit the mask, so multi-threaded runs get every CPU back.
  void unpin() { sched_setaffinity(0, sizeof Allowed, &Allowed); }

  /// Sets up once now and once more after every pass, timing each; the
  /// spread-out repetitions sample the host across the whole run, not just
  /// its first instant. Each repetition replaces the last one's result.
  void setup(const std::function<void()> &Fn) {
    Setup = Fn;
    setupOnce();
  }
  void setupOnce() {
    uint64_t T0 = nowNs();
    Setup();
    SetupSecs.push_back((double)(nowNs() - T0) / 1e9);
  }
  std::function<void()> Setup;

  /// One warm-up pass, then passes until Cfg.Seconds have passed (at
  /// least four); traced runs alternate untraced and traced passes, and
  /// run \p Probe after each traced pass.
  void loop(const std::function<void(size_t)> &Pass,
            const std::function<void(size_t)> &Probe = {}) {
    uint64_t Start = nowNs();
    for (size_t N = 0;; ++N) {
      if (N > 4 && (double)(nowNs() - Start) / 1e9 >= Cfg.Seconds)
        break;
      pinForPass(N);
      if (N > 0)
        HostRefMs.push_back(Ref.sampleMs());
      bool Traced = Cfg.Trace && N % 2 == 0 && N > 0;
      PassT = Traced ? &T : nullptr;
      Timed = N > 0 && !Traced;
      Sink.KeepEvents = Traced;
      L.clear();
      PassCompileNs = 0;
      size_t Pauses0 = Sink.Pauses.size();
      size_t Span0 = T.size();
      uint64_t T0 = nowNs();
      int32_t PassSpan = PassT ? T.begin("pass") : -1;
      Pass(N);
      if (PassT)
        T.end(PassSpan);
      double Wall = (double)(nowNs() - T0) / 1e9;
      if (Timed) {
        PassWall.push_back(Wall);
        PassCompile.push_back((double)PassCompileNs / 1e9);
      } else {
        Sink.Pauses.resize(Pauses0);
      }
      if (PassT) {
        finishTracedPass(Span0, Wall);
        if (Probe)
          probe(Probe, N);
        // Later passes repeat the same span shapes; keeping only the first
        // few bounds memory and the spans file.
        if (TracedWall.size() > KeptTracedPasses)
          T.truncate(Span0);
      }
      setupOnce();
    }
    unpin();
  }

  void finishTracedPass(size_t Span0, double Wall) {
    std::map<std::string, uint64_t> Self = T.selfTimes(Span0);
    for (const auto &[Span, Metric] : CompileSpans)
      L[Metric] += ms(Self[Span]);
    L["vm.mutator_ms"] +=
        ms(Self["vm.run"] + Self["rt.threaded"] + Self["rt.coop"]);
    L["runtime.setup_ms"] += ms(Self["runtime.setup"]);
    double Hits = L["tg.hits"], Misses = L["tg.misses"];
    L["core.tg_cache_hit_ratio"] =
        Hits + Misses > 0 ? Hits / (Hits + Misses) : 0;
    // Everything in the pass not under a compile, decode, run, pause or
    // runtime set-up span is the pass span's own self time; the tracer's
    // own bookkeeping
    // ("trace" spans) is left out of both sides.
    double Traced = Wall - (double)Self["trace"] / 1e9;
    Coverage.push_back(1.0 - (double)Self["pass"] / 1e9 / Traced);
    TracedWall.push_back(Wall);
    TracedLayers.push_back(L);
  }

  /// Runs \p Probe outside the pass span and wall time; of its metrics
  /// only the tasking layers' join the pass's.
  void probe(const std::function<void(size_t)> &Probe, size_t N) {
    L.clear();
    size_t Pauses0 = Sink.Pauses.size();
    {
      Scope Sp(PassT, "probe");
      unpin();
      Probe(N);
      pinForPass(N);
    }
    Sink.Pauses.resize(Pauses0);
    for (const auto &[Name, V] : L)
      if (Name.rfind("sched.", 0) == 0 || Name.rfind("tasking.", 0) == 0 ||
          Name.rfind("core.trace_mb_s.", 0) == 0 ||
          Name == "core.parallel_trace_us" || Name == "core.stack_steals")
        TracedLayers.back()[Name] = V;
  }
  static constexpr size_t KeptTracedPasses = 3;

  /// Compiles \p Source (pass by pass with spans on traced passes) and
  /// checks the result's facts against the set-up compile's.
  void compile(const std::string &Name, const std::string &Source,
               const CompileOptions &Options, const ProgramFacts &Want) {
    // The span also covers freeing the result, which is compile work the
    // pass pays for; compile_s times Compiler::compile alone.
    Scope Whole(PassT, "compile");
    std::string Error;
    std::unique_ptr<CompiledProgram> P;
    uint64_t T0 = nowNs();
    if (PassT)
      P = compileTraced(Source, Options, *PassT, L, Error);
    else
      P = Compiler(Options).compile(Source, &Error);
    PassCompileNs += nowNs() - T0;
    Out.check(P != nullptr, Name + ": compile failed: " + Error);
    if (P)
      Out.check(factsOf(*P) == Want,
                Name + ": compile facts differ from the set-up compile");
  }

  void checkExact(int Cell, const ExactCounters &K, const std::string &Name) {
    auto [It, New] = Exact.emplace(Cell, K);
    if (!New)
      Out.check(It->second == K, Name + ": exact counters changed between "
                                        "repetitions");
  }

  /// Constructs (decodes) and runs one sequential-VM cell, checks its
  /// answer and counters, and records its time and collections.
  void runCell(int Id, CompiledProgram &P, int S, int A, size_t HeapBytes,
               const std::string &Expected, const std::string &Name) {
    std::string Label = Name + "/" + StrategyNames[S] + "/" + AlgorithmNames[A];
    Stats St;
    std::string Error;
    std::unique_ptr<Collector> Col;
    {
      Scope Sp(PassT, "runtime.setup", Id);
      Col = P.makeCollector(Strategies[S], Algorithms[A], HeapBytes, St,
                            &Error);
    }
    if (!Col) {
      Out.check(false, Label + ": " + Error);
      return;
    }
    Col->telemetry().setEventSink(&Sink);
    size_t Ev0 = Sink.Events.size();
    uint64_t Offset = nowNs() - Col->telemetry().nowNs();
    uint64_t T0 = nowNs();
    std::unique_ptr<Vm> M;
    {
      Scope Sp(PassT, "vm.decode", Id);
      M = std::make_unique<Vm>(P.Prog, P.Image, *P.Types, *Col,
                               defaultVmOptions(Strategies[S]));
    }
    int32_t RunSpan = PassT ? PassT->begin("vm.run", Id) : -1;
    RunResult R = M->run();
    if (PassT)
      PassT->end(RunSpan);
    uint64_t Ns = nowNs() - T0;
    Out.check(R.Ok && R.Value == Expected,
              Label + ": got '" + (R.Ok ? R.Value : R.Error) +
                  "', expected '" + Expected + "'");
    checkExact(Id,
               {St.get(StatId::GcCollections), St.get(StatId::GcWordsVisited),
                St.get(StatId::VmSteps)},
               Label);
    if (Timed) {
      CellMs[Id].push_back(ms(Ns));
      CellNames[Id] = Label;
    }
    if (PassT) {
      Scope Sp(PassT, "trace", Id);
      addCounters(St, L);
      addCollections(*PassT, RunSpan, Id, Offset, Sink.Events.data() + Ev0,
                     Sink.Events.data() + Sink.Events.size(), StrategyNames[S],
                     AlgorithmNames[A], L);
      Sink.Events.resize(Ev0);
    }
    Scope Sp(PassT, "runtime.setup", Id);
    M.reset();
    Col.reset();
  }

  void report();
};

void Runner::report() {
  Report &O = Out;
  // Pause percentiles over every pause of the timed passes, pooled. Passes
  // rotate CPUs, and a slow CPU makes a pass's pauses about 1.5x longer, so
  // per-pass percentiles are bimodal and a median over them jumps between
  // the two modes from run to run; the pooled percentile moves smoothly
  // with the share of slow passes.
  std::vector<uint64_t> Pooled(Sink.Pauses);
  std::sort(Pooled.begin(), Pooled.end());
  size_t Tail =
      Pooled.size() - (size_t)std::ceil(0.99 * (double)Pooled.size());
  std::vector<double> CellMedians;
  for (const auto &[Id, V] : CellMs) {
    CellMedians.push_back(median(V));
    O.Cells.push_back({CellNames[Id], CellMedians.back(), "ms"});
  }

  if (!Cfg.Trace) {
    O.metric("setup_s", median(SetupSecs), "s");
    O.metric("wall_s", median(PassWall), "s");
    O.metric("compile_s", median(PassCompile), "s");
    O.metric("run_geomean_ms", geomean(CellMedians), "ms");
    O.metric("gc_pause_p50_us", (double)percentile(Pooled, 50) / 1e3, "us");
    O.metric("gc_pause_p99_us", (double)percentile(Pooled, 99) / 1e3, "us");
    O.metric("peak_rss_mb", peakRssMb(), "MB");
    O.metric("metadata_bytes", (double)MetadataBytes, "bytes");
    // A p99 is only meaningful with ten samples beyond it.
    if (Cfg.Scale >= 1)
      O.check(Tail >= 10, "gc_pause_p99_us: " + std::to_string(Tail) +
                              " samples beyond the p99 (needs 10)");
  } else {
    for (const auto &[Name, Unit] : layerMetrics()) {
      std::vector<double> V;
      for (Layers &PL : TracedLayers)
        V.push_back(PL[Name]);
      if (std::string(Name) == "trace.overhead_ratio")
        O.metric(Name, median(TracedWall) / median(PassWall), Unit);
      else if (std::string(Name) == "trace.partition_coverage")
        O.metric(Name, median(Coverage), Unit);
      else
        O.metric(Name, median(V), Unit);
    }
    // compile + decode + mutator + pause must account for the traced wall
    // time within a few percent.
    O.check(median(Coverage) >= 0.95,
            "traced spans cover only " + std::to_string(median(Coverage)) +
                " of the traced pass wall time");
  }
  O.info("fail_frac", O.Attempted ? (double)O.Failed / (double)O.Attempted : 1,
         "ratio");
  O.info("gc_pause_samples", (double)Sink.Pauses.size(), "count");
  O.info("gc_pause_p99_tail_samples", (double)Tail, "count");
  O.info("passes", (double)(PassWall.size() + TracedWall.size()), "count");
  O.info("host_ref_ms", median(HostRefMs), "ms");
}

//===----------------------------------------------------------------------===//
// compile_large
//===----------------------------------------------------------------------===//

/// One generated program of a few thousand functions, compiled every pass
/// and run under the 4 x 3 matrix.
void compileLarge(Runner &R) {
  const unsigned Templates =
      std::max(60u, (unsigned)(2000 * std::min(1.0, R.Cfg.Scale)));
  // Small enough that each pass collects a few thousand times, so the
  // cold first pause of each cell (after the compile has flushed the
  // caches) stays below the p99 rank.
  const size_t HeapBytes = 8 << 10;
  LargeProgram Prog;
  std::unique_ptr<CompiledProgram> P;
  R.setup([&] {
    P.reset();
    Prog = largeProgram(R.Cfg.Seed, Templates);
    std::string Error;
    P = Compiler().compile(Prog.Source, &Error);
    if (!P) {
      std::fprintf(stderr, "compile_large: %s\n", Error.c_str());
      std::exit(1);
    }
  });
  ProgramFacts Facts = factsOf(*P);
  R.MetadataBytes = Facts.metadataBytes();
  R.loop([&](size_t N) {
    R.compile("compile_large", Prog.Source, {}, Facts);
    for (int K = 0; K < 12; ++K) {
      int Id = (int)((K + N) % 12);
      R.runCell(Id, *P, Id / 3, Id % 3, HeapBytes, Prog.Expected, "large");
    }
  });
}

//===----------------------------------------------------------------------===//
// parallel_gc
//===----------------------------------------------------------------------===//

/// Flight events a traced threaded run needs, decoded from drained chunks.
struct FlightLog {
  std::vector<FlightEvent> Events;
  void onChunk(const std::string &Chunk) {
    size_t Header = FlightRecorder::fileHeader().size();
    for (size_t At = Header; At + sizeof(FlightEvent) <= Chunk.size();
         At += sizeof(FlightEvent)) {
      FlightEvent E;
      std::memcpy(&E, Chunk.data() + At, sizeof E);
      switch ((FlightEventType)E.Type) {
      case FlightEventType::ThreadPark:
      case FlightEventType::GcBegin:
      case FlightEventType::GcEnd:
      case FlightEventType::TraceWorkerBegin:
      case FlightEventType::TraceWorkerEnd:
        Events.push_back(E);
        break;
      default:
        break;
      }
    }
  }

  /// Per parallel collection: GcBegin to the first worker start, first
  /// start to last worker end, last end to GcEnd (medians, us); and the
  /// worst task's p99 request-to-park delay (us).
  void summarize(Layers &L) const {
    std::vector<double> Pre, Par, Post;
    std::map<uint8_t, std::vector<uint64_t>> Parks;
    uint64_t Begin = 0, First = UINT64_MAX, Last = 0;
    for (const FlightEvent &E : Events) {
      switch ((FlightEventType)E.Type) {
      case FlightEventType::ThreadPark:
        Parks[E.Tid].push_back(E.ArgA);
        break;
      case FlightEventType::GcBegin:
        Begin = E.TimeNs, First = UINT64_MAX, Last = 0;
        break;
      case FlightEventType::TraceWorkerBegin:
        First = std::min(First, E.TimeNs);
        break;
      case FlightEventType::TraceWorkerEnd:
        Last = std::max(Last, E.TimeNs);
        break;
      case FlightEventType::GcEnd:
        if (First != UINT64_MAX && Last >= First) {
          Pre.push_back((double)(First - Begin) / 1e3);
          Par.push_back((double)(Last - First) / 1e3);
          Post.push_back((double)(E.TimeNs - Last) / 1e3);
        }
        break;
      default:
        break;
      }
    }
    L["sched.pause_pre_trace_us"] = median(Pre);
    L["core.parallel_trace_us"] = median(Par);
    L["sched.pause_post_trace_us"] = median(Post);
    double Worst = 0;
    for (auto &[Tid, Delays] : Parks) {
      std::sort(Delays.begin(), Delays.end());
      Worst = std::max(Worst, (double)percentile(Delays, 99) / 1e3);
    }
    L["sched.tts_p99_us"] = Worst;
  }
};

double traceMbPerS(const Stats &St) {
  uint64_t PauseNs = St.get(StatId::GcPauseNsTotal);
  return PauseNs ? (double)St.get(StatId::GcWordsVisited) * sizeof(Word) *
                       1e3 / (double)PauseNs
                 : 0;
}

/// The tasking worker as 4 tasks: on 4 OS threads sharing a generational
/// heap with parallel tracing, and on the cooperative scheduler (the
/// 1-thread reference).
struct TaskingRuns {
  static constexpr unsigned Tasks = 4;
  static constexpr size_t HeapBytes = 64 << 10;
  CompileOptions Options;
  WorkerProgram W;
  std::unique_ptr<CompiledProgram> P;
  ProgramFacts Facts;
  FuncId Worker = 0;
  PauseSink CoopSink;

  TaskingRuns() { Options.TaskingSafe = true; }

  void build(const RunConfig &Cfg) {
    P.reset();
    W = workerProgram(Cfg.Seed, Tasks, Cfg.Scale);
    std::string Error;
    P = Compiler(Options).compile(W.Source, &Error);
    if (!P) {
      std::fprintf(stderr, "tasking worker: %s\n", Error.c_str());
      std::exit(1);
    }
    Facts = factsOf(*P);
    Worker = findFunction(P->Prog, "worker");
  }

  void checkTasks(Runner &R, const std::vector<TaskResult> &Res, bool Ok,
                  const char *Name) {
    R.Out.check(Ok && Res.size() == Tasks, std::string(Name) + ": run failed");
    for (size_t I = 0; I < Res.size() && I < Tasks; ++I)
      R.Out.check(Res[I].Ok && Res[I].Value == W.Expected[I],
                  std::string(Name) + " task " + std::to_string(I) +
                      ": got '" + (Res[I].Ok ? Res[I].Value : Res[I].Error) +
                      "', expected '" + W.Expected[I] + "'");
  }

  void threaded(Runner &R) {
    Stats St;
    FlightLog Log; // Outlives the recorder, whose final drain feeds it.
    std::unique_ptr<FlightRecorder> Flight;
    if (R.PassT) {
      Scope Sp(R.PassT, "trace", 0);
      Flight = std::make_unique<FlightRecorder>(Tasks, Tasks, 64);
      Flight->setChunkSink([&Log](const std::string &C) { Log.onChunk(C); });
    }
    std::unique_ptr<Collector> Col;
    {
      Scope Sp(R.PassT, "runtime.setup", 0);
      Col = P->makeCollector(GcStrategy::CompiledTagFree,
                             GcAlgorithm::Generational, HeapBytes, St);
    }
    Col->setGcThreads(Tasks);
    Col->setFlightRecorder(Flight.get());
    Col->telemetry().setEventSink(&R.Sink);
    size_t Ev0 = R.Sink.Events.size();
    uint64_t Offset = nowNs() - Col->telemetry().nowNs();
    TaskingOptions TO;
    TO.Policy = SuspendChecks::AtEveryCall;
    TO.Flight = Flight.get();
    uint64_t T0 = nowNs();
    std::unique_ptr<ThreadedRuntime> Rt;
    {
      Scope Sp(R.PassT, "vm.decode", 0);
      Rt = std::make_unique<ThreadedRuntime>(P->Prog, P->Image, *P->Types,
                                             *Col, TO);
      for (const auto &[Seed, Iters] : W.TaskArgs)
        Rt->spawnInt(Worker, {Seed, Iters});
    }
    int32_t RunSpan = R.PassT ? R.PassT->begin("rt.threaded", 0) : -1;
    bool Ok = Rt->runAll();
    if (R.PassT)
      R.PassT->end(RunSpan);
    uint64_t Ns = nowNs() - T0;
    checkTasks(R, Rt->results(), Ok, "threaded");
    if (R.Timed) {
      R.CellMs[0].push_back(ms(Ns));
      R.CellNames[0] = "worker/threads4";
    }
    if (R.PassT) {
      Scope Sp(R.PassT, "trace", 0);
      Flight->finish();
      Log.summarize(R.L);
      addCounters(St, R.L);
      addCollections(*R.PassT, RunSpan, 0, Offset, R.Sink.Events.data() + Ev0,
                     R.Sink.Events.data() + R.Sink.Events.size(), "compiled",
                     "generational", R.L);
      R.Sink.Events.resize(Ev0);
      R.L["sched.world_stops"] += (double)St.get(StatId::TaskWorldStops);
      for (unsigned I = 0; I < Tasks; ++I)
        R.L["sched.tlab_refills"] +=
            (double)St.get("task." + std::to_string(I) + ".tlab_refills");
      R.L["core.trace_mb_s.t4"] = traceMbPerS(St);
    }
    Scope Teardown(R.PassT, "runtime.setup", 0);
    Rt.reset();
    Col.reset();
  }

  void cooperative(Runner &R) {
    Stats St;
    std::unique_ptr<Collector> Col;
    {
      Scope Sp(R.PassT, "runtime.setup", 1);
      Col = P->makeCollector(GcStrategy::CompiledTagFree,
                             GcAlgorithm::Generational, HeapBytes, St);
    }
    Col->telemetry().setEventSink(&CoopSink);
    CoopSink.KeepEvents = R.PassT != nullptr;
    uint64_t Offset = nowNs() - Col->telemetry().nowNs();
    TaskingOptions TO;
    TO.Policy = SuspendChecks::AtEveryCall;
    uint64_t T0 = nowNs();
    std::unique_ptr<TaskingRuntime> Rt;
    {
      Scope Sp(R.PassT, "vm.decode", 1);
      Rt = std::make_unique<TaskingRuntime>(P->Prog, P->Image, *P->Types,
                                            *Col, TO);
      for (const auto &[Seed, Iters] : W.TaskArgs)
        Rt->spawnInt(Worker, {Seed, Iters});
    }
    uint64_t RunT0 = nowNs();
    int32_t RunSpan = R.PassT ? R.PassT->begin("rt.coop", 1) : -1;
    bool Ok = Rt->runAll();
    if (R.PassT)
      R.PassT->end(RunSpan);
    uint64_t End = nowNs();
    checkTasks(R, Rt->results(), Ok, "cooperative");
    R.checkExact(-1,
                 {St.get(StatId::GcCollections),
                  St.get(StatId::GcWordsVisited), St.get(StatId::VmSteps)},
                 "cooperative");
    if (R.Timed) {
      R.CellMs[1].push_back(ms(End - T0));
      R.CellNames[1] = "worker/cooperative";
    }
    if (R.PassT) {
      Scope Sp(R.PassT, "trace", 1);
      addCounters(St, R.L);
      addCollections(*R.PassT, RunSpan, 1, Offset, CoopSink.Events.data(),
                     CoopSink.Events.data() + CoopSink.Events.size(),
                     "compiled", "generational", R.L);
      R.L["tasking.coop_wall_s"] = (double)(End - RunT0) / 1e9;
      R.L["tasking.context_switches"] =
          (double)St.get(StatId::TaskContextSwitches);
      R.L["core.trace_mb_s.t1"] = traceMbPerS(St);
    }
    CoopSink.Pauses.clear();
    CoopSink.Events.clear();
    Scope Teardown(R.PassT, "runtime.setup", 1);
    Rt.reset();
    Col.reset();
  }

  /// Both runs, the first alternating between passes.
  void both(Runner &R, size_t N) {
    if (N % 2) {
      threaded(R);
      cooperative(R);
    } else {
      cooperative(R);
      threaded(R);
    }
  }
};

/// The tasking runs as a workload of their own. Its timings follow the
/// host's steal on the threaded run (see README.md), so BENCHMARK.json
/// does not gate it; gc_matrix's traced run measures the same runs for
/// the sched and tasking layers.
void parallelGc(Runner &R) {
  TaskingRuns TR;
  R.setup([&] { TR.build(R.Cfg); });
  R.MetadataBytes = TR.Facts.metadataBytes();
  R.loop([&](size_t N) {
    R.compile("parallel_gc", TR.W.Source, TR.Options, TR.Facts);
    R.unpin();
    TR.both(R, N);
    R.pinForPass(N);
  });
}

//===----------------------------------------------------------------------===//
// gc_matrix
//===----------------------------------------------------------------------===//

/// Five GC-bound families x 4 strategies x 3 algorithms, round-robin.
/// Traced runs also probe the tasking runs after each traced pass, for
/// the sched and tasking layers.
void gcMatrix(Runner &R) {
  std::vector<Family> Fams;
  std::vector<std::unique_ptr<CompiledProgram>> Progs;
  R.setup([&] {
    Progs.clear();
    Fams = gcFamilies(R.Cfg.Seed, R.Cfg.Scale);
    for (const Family &F : Fams) {
      std::string Error;
      Progs.push_back(Compiler().compile(F.Source, &Error));
      if (!Progs.back()) {
        std::fprintf(stderr, "%s: %s\n", F.Name.c_str(), Error.c_str());
        std::exit(1);
      }
    }
  });
  std::vector<ProgramFacts> Facts;
  for (const auto &P : Progs) {
    Facts.push_back(factsOf(*P));
    R.MetadataBytes += Facts.back().metadataBytes();
  }
  const int Cells = (int)Fams.size() * 12;
  TaskingRuns Probe;
  R.loop(
      [&](size_t N) {
        for (size_t F = 0; F < Fams.size(); ++F)
          R.compile(Fams[F].Name, Fams[F].Source, {}, Facts[F]);
        for (int K = 0; K < Cells; ++K) {
          int Id = (int)((K + N * 7) % (size_t)Cells);
          const Family &F = Fams[(size_t)Id / 12];
          R.runCell(Id, *Progs[(size_t)Id / 12], Id % 12 / 3, Id % 3,
                    F.HeapBytes, F.Expected, F.Name);
        }
      },
      [&](size_t N) {
        if (!Probe.P)
          Probe.build(R.Cfg);
        Probe.both(R, N);
      });
}

} // namespace

const std::vector<std::pair<const char *, const char *>> &
perfbench::layerMetrics() {
  static const std::vector<std::pair<const char *, const char *>> M = {
      {"frontend.lex_ms", "ms"},
      {"frontend.parse_ms", "ms"},
      {"frontend.tokens", "count"},
      {"types.infer_ms", "ms"},
      {"ir.lower_ms", "ms"},
      {"ir.verify_ms", "ms"},
      {"ir.functions", "count"},
      {"ir.sites", "count"},
      {"analysis.liveness_ms", "ms"},
      {"analysis.gcpoints_ms", "ms"},
      {"analysis.reconstruct_ms", "ms"},
      {"analysis.omitted_gc_words", "count"},
      {"gcmeta.code_image_ms", "ms"},
      {"gcmeta.compiled_ms", "ms"},
      {"gcmeta.interpreted_ms", "ms"},
      {"gcmeta.appel_ms", "ms"},
      {"gcmeta.compiled_bytes", "bytes"},
      {"gcmeta.interpreted_bytes", "bytes"},
      {"gcmeta.appel_bytes", "bytes"},
      {"vm.decode_ms", "ms"},
      {"vm.mutator_ms", "ms"},
      {"vm.steps", "count"},
      {"vm.calls", "count"},
      {"vm.superinstructions", "count"},
      {"vm.frame_words_zeroed", "count"},
      {"core.pause_ms.tagged", "ms"},
      {"core.pause_ms.compiled", "ms"},
      {"core.pause_ms.interpreted", "ms"},
      {"core.pause_ms.appel", "ms"},
      {"core.root_scan_ms", "ms"},
      {"core.ptr_reversal_ms", "ms"},
      {"core.frame_dispatch_ms", "ms"},
      {"core.tg_closure_build_ms", "ms"},
      {"core.collections", "count"},
      {"core.words_visited", "count"},
      {"core.objects_visited", "count"},
      {"core.frames_traced", "count"},
      {"core.slots_traced", "count"},
      {"core.chain_steps", "count"},
      {"core.tg_cache_hit_ratio", "ratio"},
      {"runtime.pause_ms.copying", "ms"},
      {"runtime.pause_ms.marksweep", "ms"},
      {"runtime.pause_ms.generational", "ms"},
      {"runtime.copy_sweep_ms", "ms"},
      {"runtime.remset_scan_ms", "ms"},
      {"runtime.minor_collections", "count"},
      {"runtime.major_collections", "count"},
      {"runtime.promoted_words", "count"},
      {"runtime.barrier_ops", "count"},
      {"runtime.heap_growths", "count"},
      {"runtime.bytes_allocated", "bytes"},
      {"runtime.peak_heap_kb", "KiB"},
      {"runtime.setup_ms", "ms"},
      {"sched.world_stops", "count"},
      {"sched.tts_p99_us", "us"},
      {"sched.tlab_refills", "count"},
      {"sched.pause_pre_trace_us", "us"},
      {"core.parallel_trace_us", "us"},
      {"sched.pause_post_trace_us", "us"},
      {"core.stack_steals", "count"},
      {"core.trace_mb_s.t1", "MB/s"},
      {"core.trace_mb_s.t4", "MB/s"},
      {"tasking.coop_wall_s", "s"},
      {"tasking.context_switches", "count"},
      {"trace.overhead_ratio", "ratio"},
      {"trace.partition_coverage", "ratio"},
  };
  return M;
}

bool perfbench::runWorkload(const RunConfig &Cfg, Tracer &T, Report &Out) {
  Runner R(Cfg, T, Out);
  if (Cfg.Workload == "compile_large")
    compileLarge(R);
  else if (Cfg.Workload == "gc_matrix")
    gcMatrix(R);
  else if (Cfg.Workload == "parallel_gc")
    parallelGc(R);
  else
    return false;
  R.report();
  return true;
}
