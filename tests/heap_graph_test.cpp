//===- tests/heap_graph_test.cpp - Heap-graph + lifetime tests ------------===//
///
/// Covers the typed heap-graph capture (support/HeapGraph.h) and the
/// profiler's lifetime tracking: graph/census agreement for every
/// strategy and algorithm under post-GC verification, age-histogram
/// totals, survival-curve monotonicity, promotion attribution summing
/// exactly to gc.promoted_words, the minor-collection capture skip, the
/// every-N gate, differential leak attribution ranking a planted
/// unbounded cache as suspect #1, the per-object retainer rows the
/// capture serves, an edge stream as exact under the interpreted method
/// as under the compiled one, and roots taken from the traced (live)
/// frame slots only.
///
//===----------------------------------------------------------------------===//

#include "TestUtil.h"
#include "support/HeapGraph.h"
#include "support/HeapProfile.h"
#include "workloads/Programs.h"

#include <string>

using namespace tfgc;
using namespace tfgc::test;
namespace wl = tfgc::workloads;

namespace {

/// An unbounded memo cache: the cons onto !cache in memo() is the
/// planted leak (mirrors examples/programs/leaky_cache.mml); scratch
/// data churns and dies young.
const char *LeakySrc = R"(
fun scratch (n : int) : int list =
  if n = 0 then [] else (n * 7) mod 93 :: scratch (n - 1);
fun sum (xs : int list) : int =
  case xs of Nil => 0 | Cons(x, r) => x + sum r;
val cache = ref ([] : int list);
fun memo (key : int) : int =
  let val answer = (key + sum (scratch 10)) mod 1000000007 in
    (cache := answer :: !cache; answer)
  end;
fun serve (i : int) (acc : int) : int =
  if i = 0 then acc
  else serve (i - 1) ((acc + memo i) mod 1000000007);
serve 400 0 + sum (!cache)
)";

struct GraphRun {
  Stats St;
  std::unique_ptr<CompiledProgram> P;
  std::unique_ptr<Collector> Col;
  HeapProfiler Prof;
  HeapGraph Graph;
  uint64_t SinkChunks = 0;
};

/// Runs \p Source with the profiler and (optionally) a sink-backed heap
/// graph attached, by default under stress so collections are frequent.
std::unique_ptr<GraphRun>
runGraphed(const std::string &Source, GcStrategy S, GcAlgorithm A,
           size_t HeapBytes = 1 << 14, bool Verify = false,
           bool AttachGraph = true, uint64_t Every = 1,
           size_t NurseryBytes = 0, bool Stress = true) {
  auto R = std::make_unique<GraphRun>();
  Compiled C = compile(Source);
  EXPECT_TRUE(C.P) << C.Error;
  if (!C.P)
    return nullptr;
  R->P = std::move(C.P);
  std::string Error;
  R->Col =
      R->P->makeCollector(S, A, HeapBytes, R->St, &Error, NurseryBytes);
  EXPECT_TRUE(R->Col) << Error;
  if (!R->Col)
    return nullptr;
  R->Col->setVerifyAfterGc(Verify);
  attachHeapProfiler(*R->P, S, *R->Col, R->Prof);
  if (AttachGraph) {
    // Sink-only destination: no file needed, chunks count via the sink.
    GraphRun *RP = R.get();
    R->Graph.setChunkSink([RP](const std::string &) { ++RP->SinkChunks; });
    R->Graph.setEvery(Every);
    R->Prof.setHeapGraph(&R->Graph);
  }
  Vm M(R->P->Prog, R->P->Image, *R->P->Types, *R->Col,
       defaultVmOptions(S, /*GcStress=*/Stress));
  RunResult Run = M.run();
  EXPECT_TRUE(Run.Ok) << Run.Error << " under " << gcStrategyName(S);
  return R;
}

uint64_t byKindObjects(
    const std::array<HeapProfiler::Tally, NumCensusKinds> &ByKind) {
  uint64_t N = 0;
  for (const HeapProfiler::Tally &T : ByKind)
    N += T.Objects;
  return N;
}

uint64_t byKindWords(
    const std::array<HeapProfiler::Tally, NumCensusKinds> &ByKind) {
  uint64_t N = 0;
  for (const HeapProfiler::Tally &T : ByKind)
    N += T.Words;
  return N;
}

} // namespace

TEST(HeapGraph, GraphInvariantsEveryStrategyAndAlgorithmUnderVerify) {
  // The core guarantee: a captured graph is a faithful census — its
  // node records sum, per reconstructed kind, to exactly the tallies the
  // profiler counted during the same trace, and the per-site retained
  // table covers every live object once. Verify is on, so the pass that
  // re-runs the tracers must not leak nodes or edges into the capture.
  for (GcStrategy S : AllStrategies)
    for (GcAlgorithm A : AllAlgorithms) {
      std::string Label = std::string(gcStrategyName(S)) + "/" +
                          gcAlgorithmName(A);
      auto R = runGraphed(LeakySrc, S, A, 1 << 14, /*Verify=*/true,
                          /*AttachGraph=*/true, /*Every=*/1,
                          A == GcAlgorithm::Generational ? 1 << 12 : 0);
      ASSERT_TRUE(R) << Label;
      EXPECT_EQ(R->St.get(StatId::GcVerifyViolations), 0u) << Label;
      ASSERT_GT(R->Graph.chunksWritten(), 0u) << Label;
      EXPECT_EQ(R->Graph.chunksWritten(), R->SinkChunks) << Label;

      const HeapGraph::CaptureInfo &Cap = R->Graph.lastCapture();
      ASSERT_TRUE(Cap.Valid) << Label;
      EXPECT_NE(Cap.Kind, GcEventKind::Minor) << Label;
      ASSERT_GT(Cap.Nodes, 0u) << Label;
      EXPECT_EQ(byKindObjects(Cap.ByKind), Cap.Nodes) << Label;

      // Retained rows: live tallies partition the node set, the ranking
      // is by retained size descending, and no site retains more than
      // the whole captured heap.
      uint64_t RowObjects = 0, RowWords = 0, PrevRetained = ~0ull;
      for (const SiteRetainedRow &Row : Cap.Retained) {
        RowObjects += Row.LiveObjects;
        RowWords += Row.LiveWords;
        EXPECT_LE(Row.RetainedBytes, PrevRetained) << Label;
        EXPECT_LE(Row.RetainedBytes,
                  byKindWords(Cap.ByKind) * sizeof(Word))
            << Label;
        PrevRetained = Row.RetainedBytes;
      }
      EXPECT_EQ(RowObjects, Cap.Nodes) << Label;
      EXPECT_EQ(RowWords, byKindWords(Cap.ByKind)) << Label;

      // Full-heap algorithms: the last collection is the last capture,
      // so the graph-derived census must equal the snapshot's census.
      if (A != GcAlgorithm::Generational) {
        const HeapProfiler::Snapshot &Snap = R->Prof.snapshot();
        ASSERT_TRUE(Snap.Valid) << Label;
        EXPECT_EQ(Cap.Nodes, Snap.Objects) << Label;
        for (size_t I = 0; I < NumCensusKinds; ++I) {
          EXPECT_EQ(Cap.ByKind[I].Objects, Snap.ByKind[I].Objects)
              << Label << " kind " << censusKindName((CensusKind)I);
          EXPECT_EQ(Cap.ByKind[I].Words, Snap.ByKind[I].Words)
              << Label << " kind " << censusKindName((CensusKind)I);
        }
        // A rooted object graph has root references, and every non-root
        // node was reached over a recorded edge: edges + roots >= nodes.
        EXPECT_GE(Cap.Edges + Cap.RootRefs, Cap.Nodes) << Label;
        EXPECT_GT(Cap.RootRefs, 0u) << Label;
      }
    }
}

TEST(HeapGraph, AgeHistogramTotalsMatchObjectsUnderVerify) {
  // Every object visited by a collection contributes exactly one age
  // observation — across semispace flips, grow-loop retraces, and the
  // verify pass (which must contribute none).
  for (GcStrategy S : AllStrategies)
    for (GcAlgorithm A : AllAlgorithms) {
      std::string Label = std::string(gcStrategyName(S)) + "/" +
                          gcAlgorithmName(A);
      auto R = runGraphed(LeakySrc, S, A, 1 << 14, /*Verify=*/true,
                          /*AttachGraph=*/false, /*Every=*/1,
                          A == GcAlgorithm::Generational ? 1 << 12 : 0);
      ASSERT_TRUE(R) << Label;
      const HeapProfiler::Snapshot &Snap = R->Prof.snapshot();
      ASSERT_TRUE(Snap.Valid) << Label;
      EXPECT_EQ(Snap.AgeObservations, Snap.Objects) << Label;
      uint64_t HistSum = 0;
      for (uint64_t H : Snap.AgeHist)
        HistSum += H;
      EXPECT_EQ(HistSum, Snap.Objects) << Label;
      // Every visited object has, by definition, survived the collection
      // observing it: the age-0 bucket is always empty. (The final
      // snapshot itself may be empty — a generational run can end on a
      // minor whose nursery promoted everything.)
      EXPECT_EQ(Snap.AgeHist[0], 0u) << Label;
      // Aging is cumulative across the run: under constant stress the
      // scratch conses survive a few collections before dying, so the
      // death-age histogram has mass above age 0 regardless of what the
      // final snapshot happened to see.
      uint64_t AgedDeaths = 0;
      for (const HeapProfiler::SiteLifetime &L : R->Prof.lifetimes())
        for (size_t B = 1; B < L.DeathHist.size(); ++B)
          AgedDeaths += L.DeathHist[B];
      EXPECT_GT(AgedDeaths, 0u) << Label;
    }
}

TEST(HeapGraph, SurvivalCurvesMonotoneEveryStrategyAndAlgorithm) {
  // An object that survived 8 collections survived 4, 2, and 1: each
  // site's survival curve is monotone non-increasing by construction,
  // and no site reports more survivors than allocations.
  for (GcStrategy S : AllStrategies)
    for (GcAlgorithm A : AllAlgorithms) {
      std::string Label = std::string(gcStrategyName(S)) + "/" +
                          gcAlgorithmName(A);
      auto R = runGraphed(LeakySrc, S, A, 1 << 14, /*Verify=*/true,
                          /*AttachGraph=*/false, /*Every=*/1,
                          A == GcAlgorithm::Generational ? 1 << 12 : 0);
      ASSERT_TRUE(R) << Label;
      bool AnySurvivor = false;
      for (uint32_t I = 0; I <= R->Prof.numSites(); ++I) {
        const HeapProfiler::SiteLifetime &L = R->Prof.lifetime(I);
        for (size_t K = 1; K < L.Survived.size(); ++K)
          EXPECT_LE(L.Survived[K], L.Survived[K - 1])
              << Label << " site " << I;
        if (I < R->Prof.numSites())
          EXPECT_LE(L.Survived[0], R->Prof.allocCount(I))
              << Label << " site " << I;
        AnySurvivor = AnySurvivor || L.Survived[0] > 0;
      }
      // The immortal cache guarantees survivors under constant stress.
      EXPECT_TRUE(AnySurvivor) << Label;
    }
}

TEST(HeapGraph, PromotionAttributionSumsToPromotedWords) {
  // Generational: the per-site promoted-words attribution is exact —
  // summed over sites it reproduces the collector's gc.promoted_words
  // counter, for every type-reconstruction strategy.
  for (GcStrategy S : AllStrategies) {
    auto R = runGraphed(LeakySrc, S, GcAlgorithm::Generational, 1 << 14,
                        /*Verify=*/true, /*AttachGraph=*/false,
                        /*Every=*/1, /*NurseryBytes=*/1 << 12);
    ASSERT_TRUE(R) << gcStrategyName(S);
    EXPECT_GT(R->St.get(StatId::GcPromotedWords), 0u) << gcStrategyName(S);
    EXPECT_EQ(R->Prof.promotedWordsAttributed(),
              R->St.get(StatId::GcPromotedWords))
        << gcStrategyName(S);
  }
}

TEST(HeapGraph, DeathAccountingBalancesAllocations) {
  // Cumulative per-site conservation: everything allocated either died
  // (in some collection) or is still alive (survived or never visited).
  auto R = runGraphed(LeakySrc, GcStrategy::CompiledTagFree,
                      GcAlgorithm::Copying, 1 << 14, /*Verify=*/true,
                      /*AttachGraph=*/false);
  ASSERT_TRUE(R);
  uint64_t Deaths = 0;
  for (const HeapProfiler::SiteLifetime &L : R->Prof.lifetimes())
    Deaths += L.Deaths;
  EXPECT_GT(Deaths, 0u); // scratch lists die young
  EXPECT_LE(Deaths, R->Prof.allocTotal());
  for (uint32_t I = 0; I < R->Prof.numSites(); ++I)
    EXPECT_LE(R->Prof.lifetime(I).Deaths, R->Prof.allocCount(I))
        << "site " << I;
}

TEST(HeapGraph, LeakSuspectRankedFirstByRetainedGrowth) {
  // Differential leak attribution: across captures the planted cache
  // cons site (in memo) grows monotonically; ranked by retained-size
  // delta it must come out #1. No stress here — under stress every
  // allocation collects and consecutive-capture deltas are one-object
  // noise; natural collections bracket many memo conses per capture.
  auto R = runGraphed(LeakySrc, GcStrategy::CompiledTagFree,
                      GcAlgorithm::Copying, 1 << 13, /*Verify=*/false,
                      /*AttachGraph=*/true, /*Every=*/1,
                      /*NurseryBytes=*/0, /*Stress=*/false);
  ASSERT_TRUE(R);
  ASSERT_GT(R->Graph.chunksWritten(), 1u); // deltas need two captures
  std::vector<SiteRetainedRow> Ranked = R->Graph.rankedDeltas();
  ASSERT_FALSE(Ranked.empty());
  EXPECT_GT(Ranked.front().GrowthBytes, 0);
  ASSERT_LT(Ranked.front().Site, R->Prof.numSites());
  EXPECT_EQ(R->Prof.site(Ranked.front().Site).Func, "memo");
}

TEST(HeapGraph, MinorCollectionsAreNotCaptured) {
  // A minor's trace covers the nursery only; a graph over it would
  // dangle into tenured space, so minors never produce chunks.
  auto R = runGraphed(LeakySrc, GcStrategy::CompiledTagFree,
                      GcAlgorithm::Generational, 1 << 14,
                      /*Verify=*/false, /*AttachGraph=*/true,
                      /*Every=*/1, /*NurseryBytes=*/1 << 12);
  ASSERT_TRUE(R);
  EXPECT_GT(R->St.get(StatId::GcMinorCollections), 0u);
  ASSERT_GT(R->Graph.chunksWritten(), 0u);
  EXPECT_EQ(R->Graph.lastCapture().Kind, GcEventKind::Major);
  EXPECT_LE(R->Graph.chunksWritten(),
            R->St.get(StatId::GcMajorCollections));
}

TEST(HeapGraph, EveryNGateThinsCaptures) {
  auto All = runGraphed(LeakySrc, GcStrategy::CompiledTagFree,
                        GcAlgorithm::Copying, 1 << 14, /*Verify=*/false,
                        /*AttachGraph=*/true, /*Every=*/1);
  auto Thinned = runGraphed(LeakySrc, GcStrategy::CompiledTagFree,
                            GcAlgorithm::Copying, 1 << 14,
                            /*Verify=*/false, /*AttachGraph=*/true,
                            /*Every=*/4);
  ASSERT_TRUE(All);
  ASSERT_TRUE(Thinned);
  ASSERT_GT(All->Graph.chunksWritten(), 4u);
  EXPECT_LE(Thinned->Graph.chunksWritten(),
            All->Graph.chunksWritten() / 4 + 1);
  EXPECT_GT(Thinned->Graph.chunksWritten(), 0u);
}

TEST(HeapGraph, DetachedGraphIsInert) {
  // Without a destination (file or sink), beginCapture never fires: no
  // chunks, no capture info, and the mutator-visible counters match a
  // plain profiled run.
  HeapGraph G;
  EXPECT_FALSE(G.active());
  auto R = runGraphed(LeakySrc, GcStrategy::CompiledTagFree,
                      GcAlgorithm::Copying, 1 << 14, /*Verify=*/false,
                      /*AttachGraph=*/false);
  ASSERT_TRUE(R);
  EXPECT_EQ(R->Graph.chunksWritten(), 0u);
  EXPECT_FALSE(R->Graph.lastCapture().Valid);
}

TEST(HeapGraph, InterpretedEdgesAreAsExactAsCompiled) {
  // The edge stream is typed: a field yields an edge only when its type
  // can hold a reference. The compiled routines omit leaf fields; the
  // descriptor walk visits them too, and must still not report them —
  // else an unboxed int whose bits equal a live address would become a
  // false edge. Ints sit in tuples, lists, constructors and a ref here.
  const char *Src = R"(
datatype shape = Dot of int | Seg of int * int | Box of int * shape;
fun pairs (n : int) : (int * int list) list =
  if n = 0 then [] else (n, [n, n + 1]) :: pairs (n - 1);
fun shapes (n : int) : shape list =
  if n = 0 then [] else Box (n, Seg (n, n * 3)) :: Dot n :: shapes (n - 1);
fun len (xs : int list) : int =
  case xs of Nil => 0 | Cons(_, r) => 1 + len r;
fun churn (i : int) (acc : int) : int =
  if i = 0 then acc else churn (i - 1) (acc + len [i, i, i]);
val keep = (pairs 30, shapes 30, ref 7);
churn 3000 0 +
  (case keep of
     (Cons((_, xs), _), _, r) => len xs + !r
   | (_, _, r) => !r)
)";
  struct First {
    bool Seen = false;
    uint64_t Nodes = 0, Edges = 0, DroppedEdges = 0;
  };
  auto FirstCapture = [&](GcStrategy S) {
    First F;
    Compiled C = compile(Src);
    EXPECT_TRUE(C.P) << C.Error;
    if (!C.P)
      return F;
    Stats St;
    std::string Error;
    auto Col = C.P->makeCollector(S, GcAlgorithm::Copying, 1 << 14, St,
                                  &Error);
    EXPECT_TRUE(Col) << Error;
    if (!Col)
      return F;
    HeapProfiler Prof;
    HeapGraph Graph;
    attachHeapProfiler(*C.P, S, *Col, Prof);
    Graph.setChunkSink([&](const std::string &) {
      if (F.Seen)
        return;
      const HeapGraph::CaptureInfo &Cap = Graph.lastCapture();
      F = {true, Cap.Nodes, Cap.Edges, Cap.DroppedEdges};
    });
    Prof.setHeapGraph(&Graph);
    Vm M(C.P->Prog, C.P->Image, *C.P->Types, *Col, defaultVmOptions(S));
    RunResult Run = M.run();
    EXPECT_TRUE(Run.Ok) << Run.Error << " under " << gcStrategyName(S);
    return F;
  };
  First Comp = FirstCapture(GcStrategy::CompiledTagFree);
  First Interp = FirstCapture(GcStrategy::InterpretedTagFree);
  ASSERT_TRUE(Comp.Seen);
  ASSERT_TRUE(Interp.Seen);
  // The kept structures are live at the first collection.
  EXPECT_GT(Comp.Nodes, 200u);
  EXPECT_GT(Comp.Edges, 200u);
  EXPECT_EQ(Interp.Nodes, Comp.Nodes);
  EXPECT_EQ(Interp.Edges, Comp.Edges);
  EXPECT_EQ(Interp.DroppedEdges, Comp.DroppedEdges);
}

TEST(HeapGraph, RetainersAloneCaptureInMemory) {
  // --retainers without --heap-dump: the capture runs with no file or
  // sink, so nothing is serialized, yet the snapshot's retainer rows come
  // from it — ranked, bounded by the covered heap, each with a path.
  Compiled C = compile(LeakySrc);
  ASSERT_TRUE(C.P) << C.Error;
  Stats St;
  std::string Error;
  auto Col = C.P->makeCollector(GcStrategy::CompiledTagFree,
                                GcAlgorithm::Copying, 1 << 14, St, &Error);
  ASSERT_TRUE(Col) << Error;
  HeapProfiler Prof;
  HeapGraph Graph;
  attachHeapProfiler(*C.P, GcStrategy::CompiledTagFree, *Col, Prof);
  Prof.setHeapGraph(&Graph);
  Prof.setRetainers(4);
  Vm M(C.P->Prog, C.P->Image, *C.P->Types, *Col,
       defaultVmOptions(GcStrategy::CompiledTagFree, /*GcStress=*/true));
  ASSERT_TRUE(M.run().Ok);
  EXPECT_EQ(Graph.chunksWritten(), 0u);
  ASSERT_TRUE(Graph.lastCapture().Valid);
  const HeapProfiler::Snapshot &Snap = Prof.snapshot();
  ASSERT_TRUE(Snap.RetainersComputed);
  ASSERT_FALSE(Snap.Retainers.empty());
  EXPECT_LE(Snap.Retainers.size(), 4u);
  EXPECT_LE(Snap.Retainers.front().RetainedBytes, Snap.CoveredBytes);
  for (const RetainerInfo &RI : Snap.Retainers) {
    EXPECT_GE(RI.RetainedBytes, RI.SelfBytes);
    EXPECT_FALSE(RI.Path.empty());
  }
}

TEST(HeapGraph, RetainersFollowTheCaptureGate) {
  // With every-N captures, retention is computed exactly on the captured
  // collections: the last snapshot has retainers iff it was captured.
  for (uint64_t Every : {1u, 3u, 7u}) {
    Compiled C = compile(LeakySrc);
    ASSERT_TRUE(C.P) << C.Error;
    Stats St;
    std::string Error;
    auto Col = C.P->makeCollector(GcStrategy::CompiledTagFree,
                                  GcAlgorithm::Copying, 1 << 14, St, &Error);
    ASSERT_TRUE(Col) << Error;
    HeapProfiler Prof;
    HeapGraph Graph;
    uint64_t Chunks = 0;
    attachHeapProfiler(*C.P, GcStrategy::CompiledTagFree, *Col, Prof);
    Graph.setChunkSink([&](const std::string &) { ++Chunks; });
    Graph.setEvery(Every);
    Prof.setHeapGraph(&Graph);
    Prof.setRetainers(2);
    Vm M(C.P->Prog, C.P->Image, *C.P->Types, *Col,
         defaultVmOptions(GcStrategy::CompiledTagFree, /*GcStress=*/true));
    ASSERT_TRUE(M.run().Ok);
    ASSERT_GT(Chunks, 0u) << Every;
    const HeapProfiler::Snapshot &Snap = Prof.snapshot();
    EXPECT_EQ(Snap.RetainersComputed, Graph.lastCapture().Seq == Snap.Seq)
        << Every;
    EXPECT_EQ(Snap.RetainersComputed, (Snap.Seq + 1) % Every == 0) << Every;
  }
}

TEST(HeapGraph, DeadSlotAliasingALiveObjectIsNotARoot) {
  // Mark-sweep moves nothing, so a dead frame slot can still hold the
  // exact address of a live object. At the cons in probe, `alias` is dead
  // but holds the list that `keep`'s ref cell retains (and stale slots of
  // earlier frames hold its tail). Roots are the slots the frame routines
  // trace at the GC point, so the ref cell's slot in main is the only
  // root and the cell dominates the whole list. (Appel's descriptors
  // trace every pointer slot of a procedure, dead or not, and the tagged
  // scan every tagged word: their roots include such slots by design.)
  const char *Src = R"(
fun build (n : int) : int list = if n = 0 then [] else n :: build (n - 1);
fun len (xs : int list) : int = case xs of Nil => 0 | Cons(x, r) => 1 + len r;
val keep = ref (build 40);
fun probe (u : int) : int =
  let val alias = !keep in
  let val n = len alias in
    n + len (u :: [])
  end end;
probe 0 + len (!keep)
)";
  for (GcStrategy S :
       {GcStrategy::CompiledTagFree, GcStrategy::InterpretedTagFree}) {
    auto R = runGraphed(Src, S, GcAlgorithm::MarkSweep);
    ASSERT_TRUE(R);
    const HeapGraph::CaptureInfo &Cap = R->Graph.lastCapture();
    ASSERT_TRUE(Cap.Valid) << gcStrategyName(S);
    EXPECT_EQ(Cap.Nodes, 41u) << gcStrategyName(S); // The cell + 40 conses.
    EXPECT_EQ(Cap.RootRefs, 1u) << gcStrategyName(S);
  }
}
