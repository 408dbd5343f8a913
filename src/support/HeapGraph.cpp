//===- support/HeapGraph.cpp ----------------------------------------------===//

#include "support/HeapGraph.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <span>
#include <utility>

using namespace tfgc;

namespace {

void putVarint(std::string &S, uint64_t V) {
  while (V >= 0x80) {
    S.push_back((char)(0x80 | (V & 0x7f)));
    V >>= 7;
  }
  S.push_back((char)V);
}

void putZigzag(std::string &S, int64_t V) {
  putVarint(S, ((uint64_t)V << 1) ^ (uint64_t)(V >> 63));
}

void putStr(std::string &S, const std::string &Str) {
  putVarint(S, Str.size());
  S += Str;
}

constexpr uint32_t NoNode = ~0u;

/// Adjacency lists in compressed-row form: the targets of node V are
/// Dst[Off[V] .. Off[V+1]).
struct Csr {
  std::vector<uint32_t> Off;
  std::vector<uint32_t> Dst;

  std::span<const uint32_t> of(uint32_t V) const {
    return {Dst.data() + Off[V], Dst.data() + Off[V + 1]};
  }

  /// Builds the lists of \p NumNodes nodes from \p ForEach, which calls
  /// its argument Add(From, To) for every arc; arcs keep their order.
  template <typename F> static Csr build(size_t NumNodes, F ForEach) {
    Csr C;
    C.Off.assign(NumNodes + 1, 0);
    ForEach([&](uint32_t From, uint32_t) { ++C.Off[From + 1]; });
    for (size_t V = 0; V < NumNodes; ++V)
      C.Off[V + 1] += C.Off[V];
    C.Dst.resize(C.Off[NumNodes]);
    std::vector<uint32_t> Fill(C.Off.begin(), C.Off.end() - 1);
    ForEach([&](uint32_t From, uint32_t To) { C.Dst[Fill[From]++] = To; });
    return C;
  }
};

} // namespace

bool HeapGraph::openFile(const std::string &Path, std::string *Err) {
  Out.open(Path, std::ios::binary | std::ios::trunc);
  if (!Out) {
    if (Err)
      *Err = "cannot open heap-dump file: " + Path;
    return false;
  }
  OutOpen = true;
  return true;
}

void HeapGraph::configure(const std::vector<AllocSiteDesc> *S,
                          const std::vector<std::string> *F, bool Tagged,
                          unsigned TopN) {
  Sites = S;
  FuncNames = F;
  TaggedHeaders = Tagged;
  TopRetainers = TopN;
}

bool HeapGraph::beginCapture(GcEventKind Kind) {
  // Minors trace the nursery only; a partial graph would dangle into
  // the untraced tenured set, so only full/major collections are
  // eligible (and count against the every-N gate).
  if (!active() || Kind == GcEventKind::Minor)
    return false;
  // Fire on the Nth, 2Nth, ... eligible collection (not the first): a
  // huge N is a true off-switch, which is also what makes the armed
  // state free — see bench_heap_graph.
  ++EligibleSeen;
  if (EligibleSeen % Every != 0)
    return false;
  resetCapture();
  return true;
}

void HeapGraph::resetCapture() {
  Nodes.clear();
  Edges.clear();
  Roots.clear();
}

void HeapGraph::finalizeCapture(
    uint64_t Seq, GcEventKind Kind, uint64_t CoveredBytes,
    const std::array<HeapProfiler::Tally, NumCensusKinds> &ByKind,
    const std::vector<HeapProfiler::SiteLifetime> &Lifetimes,
    const std::vector<uint64_t> &AllocCounts) {
  const size_t SiteCount = Sites ? Sites->size() : 0;
  const size_t NumSlots = SiteCount + 1; // Last slot = unknown bucket.

  // Addresses are unique (one first-visit per object per round).
  std::sort(Nodes.begin(), Nodes.end(),
            [](const NodeRec &A, const NodeRec &B) { return A.Addr < B.Addr; });
  const size_t N = Nodes.size();
  // Address -> node index, by open addressing in a table at most half
  // full: every edge and root is resolved through it.
  const unsigned Bits = (unsigned)std::bit_width(2 * N + 1);
  std::vector<uint32_t> Slot((size_t)1 << Bits, NoNode);
  const size_t Mask = Slot.size() - 1;
  auto Home = [&](Word W) {
    return (size_t)((W * 0x9E3779B97F4A7C15ull) >> (64 - Bits));
  };
  for (uint32_t I = 0; I < (uint32_t)N; ++I) {
    size_t H = Home(Nodes[I].Addr);
    while (Slot[H] != NoNode)
      H = (H + 1) & Mask;
    Slot[H] = I;
  }
  auto FindNode = [&](Word W) -> uint32_t {
    for (size_t H = Home(W);; H = (H + 1) & Mask)
      if (Slot[H] == NoNode || Nodes[Slot[H]].Addr == W)
        return Slot[H];
  };

  // Resolve recorded references against the node set. Children that are
  // no object (nullary constructors, nulls) drop out here.
  std::vector<std::array<uint32_t, 3>> E; // {src, field, dst}
  uint64_t Dropped = 0;
  E.reserve(Edges.size() / 2);
  for (const EdgeRec &Ed : Edges) {
    if (TaggedHeaders && !isTaggedPointer(Ed.Child)) {
      ++Dropped;
      continue;
    }
    uint32_t D = FindNode(Ed.Child);
    if (D == NoNode) {
      ++Dropped;
      continue;
    }
    uint32_t S = FindNode(Ed.Parent);
    if (S == NoNode) {
      ++Dropped; // Parent outside the capture (should not happen).
      continue;
    }
    E.push_back({S, Ed.Field, D});
  }
  std::sort(E.begin(), E.end());
  E.erase(std::unique(E.begin(), E.end()), E.end());

  std::vector<std::pair<uint32_t, uint32_t>> RootsResolved; // (root, node)
  for (size_t I = 0; I < Roots.size(); ++I) {
    if (TaggedHeaders && !isTaggedPointer(Roots[I].Value))
      continue;
    uint32_t D = FindNode(Roots[I].Value);
    if (D != NoNode)
      RootsResolved.push_back({(uint32_t)I, D});
  }

  // -- Dominators (Cooper-Harvey-Kennedy) over the captured graph, from
  // a virtual root N whose successors are the resolved root nodes.
  const uint32_t RootN = (uint32_t)N;
  Csr Succ = Csr::build(N + 1, [&](auto &&Add) {
    for (const auto &[RI, NI] : RootsResolved)
      Add(RootN, NI);
    for (const auto &Ed : E)
      Add(Ed[0], Ed[2]);
  });

  std::vector<int> RpoNum(N + 1, -1);
  std::vector<uint32_t> Order;
  {
    std::vector<uint32_t> Post;
    std::vector<std::pair<uint32_t, uint32_t>> Stack; // (node, next edge)
    std::vector<uint8_t> Visited(N + 1, 0);
    Stack.push_back({RootN, Succ.Off[RootN]});
    Visited[RootN] = 1;
    while (!Stack.empty()) {
      auto &[V, Ei] = Stack.back();
      if (Ei < Succ.Off[V + 1]) {
        uint32_t W = Succ.Dst[Ei++];
        if (!Visited[W]) {
          Visited[W] = 1;
          Stack.push_back({W, Succ.Off[W]});
        }
      } else {
        Post.push_back(V);
        Stack.pop_back();
      }
    }
    Order.assign(Post.rbegin(), Post.rend());
    for (size_t I = 0; I < Order.size(); ++I)
      RpoNum[Order[I]] = (int)I;
  }
  Csr Pred = Csr::build(N + 1, [&](auto &&Add) {
    for (uint32_t V : Order)
      for (uint32_t W : Succ.of(V))
        Add(W, V);
  });

  std::vector<int> Idom(N + 1, -1);
  Idom[RootN] = (int)RootN;
  auto Intersect = [&](int A, int B) {
    while (A != B) {
      while (RpoNum[A] > RpoNum[B])
        A = Idom[A];
      while (RpoNum[B] > RpoNum[A])
        B = Idom[B];
    }
    return A;
  };
  for (bool Changed = true; Changed;) {
    Changed = false;
    for (size_t I = 1; I < Order.size(); ++I) {
      uint32_t V = Order[I];
      int NewIdom = -1;
      for (uint32_t P : Pred.of(V)) {
        if (Idom[P] == -1)
          continue;
        NewIdom = NewIdom == -1 ? (int)P : Intersect((int)P, NewIdom);
      }
      if (NewIdom != -1 && Idom[V] != NewIdom) {
        Idom[V] = NewIdom;
        Changed = true;
      }
    }
  }

  std::vector<uint64_t> Retained(N + 1, 0);
  for (size_t I = 0; I < N; ++I)
    if (RpoNum[I] >= 0)
      Retained[I] = Nodes[I].Words * sizeof(Word);
  for (size_t I = Order.size(); I-- > 1;) {
    uint32_t V = Order[I];
    if (Idom[V] >= 0)
      Retained[(size_t)Idom[V]] += Retained[V];
  }

  // -- Per-object retainer rows: the top objects by retained size (ties
  // in reverse postorder), each with one sample root path climbed from
  // BFS parents and labelled by the first root slot that reaches it.
  std::vector<RetainerInfo> Top;
  if (TopRetainers) {
    std::vector<uint32_t> FirstRoot(N, NoNode); // Index into Roots.
    for (const auto &[RI, NI] : RootsResolved)
      if (FirstRoot[NI] == NoNode)
        FirstRoot[NI] = RI;
    std::vector<int> Parent(N + 1, -1);
    {
      std::vector<uint32_t> Queue{RootN};
      std::vector<uint8_t> Seen(N + 1, 0);
      Seen[RootN] = 1;
      for (size_t Qi = 0; Qi < Queue.size(); ++Qi)
        for (uint32_t W : Succ.of(Queue[Qi]))
          if (!Seen[W]) {
            Seen[W] = 1;
            Parent[W] = (int)Queue[Qi];
            Queue.push_back(W);
          }
    }
    auto Descr = [&](uint32_t V) {
      std::string S = censusKindName((CensusKind)Nodes[V].Kind);
      if (Nodes[V].Site < SiteCount) {
        const AllocSiteDesc &D = (*Sites)[Nodes[V].Site];
        S += "@" + D.Func;
        if (D.Line)
          S += ":" + std::to_string(D.Line);
      }
      return S;
    };
    std::vector<uint32_t> Ranked(Order.begin() + 1, Order.end());
    size_t K = std::min<size_t>(TopRetainers, Ranked.size());
    std::partial_sort(Ranked.begin(), Ranked.begin() + K, Ranked.end(),
                      [&](uint32_t A, uint32_t B) {
                        if (Retained[A] != Retained[B])
                          return Retained[A] > Retained[B];
                        return RpoNum[A] < RpoNum[B];
                      });
    Ranked.resize(K);
    for (uint32_t V : Ranked) {
      RetainerInfo R;
      R.Addr = Nodes[V].Addr;
      R.Site = Nodes[V].Site < SiteCount ? Nodes[V].Site
                                         : HeapProfiler::UnknownSite;
      R.Kind = (CensusKind)Nodes[V].Kind;
      R.SelfBytes = Nodes[V].Words * sizeof(Word);
      R.RetainedBytes = Retained[V];
      // Cap the sample path so a deep list spine reports its head, not a
      // thousand hops.
      std::vector<uint32_t> Chain;
      for (int C = (int)V; C != (int)RootN && C >= 0 && Chain.size() < 64;
           C = Parent[C])
        Chain.push_back((uint32_t)C);
      if (!Chain.empty() && FirstRoot[Chain.back()] != NoNode) {
        const HeapRoot &Root = Roots[FirstRoot[Chain.back()]];
        std::string Fn = FuncNames && Root.Func < FuncNames->size()
                             ? (*FuncNames)[Root.Func]
                             : "fn" + std::to_string(Root.Func);
        R.Path.push_back(Fn + ":slot" + std::to_string(Root.Slot));
      }
      size_t Shown = 0;
      for (size_t I = Chain.size(); I-- > 0 && Shown < 12; ++Shown)
        R.Path.push_back(Descr(Chain[I]));
      Top.push_back(std::move(R));
    }
  }

  // -- Per-site retained with same-site dedup: a node contributes its
  // retained bytes to its site only when no *strict* dominator ancestor
  // shares the site — a list spine of one site counts its head once,
  // not every cons cell's nested subtree. One DFS over the dominator
  // tree with per-site depth counters does it in O(n).
  std::vector<uint64_t> SiteRetainedB(NumSlots, 0);
  {
    Csr Kids = Csr::build(N + 1, [&](auto &&Add) {
      for (uint32_t V = 0; V < (uint32_t)N; ++V)
        if (RpoNum[V] >= 0 && Idom[V] >= 0 && Idom[V] != (int)V)
          Add((uint32_t)Idom[V], V);
    });
    std::vector<uint32_t> SiteDepth(NumSlots, 0);
    // (node, entered) DFS; RootN has no site.
    std::vector<std::pair<uint32_t, bool>> Stack{{RootN, false}};
    while (!Stack.empty()) {
      auto [V, Entered] = Stack.back();
      uint32_t Slot = V < N ? Nodes[V].Site : (uint32_t)NumSlots;
      if (Entered) {
        Stack.pop_back();
        if (Slot < NumSlots)
          --SiteDepth[Slot];
        continue;
      }
      Stack.back().second = true;
      if (Slot < NumSlots) {
        if (SiteDepth[Slot] == 0)
          SiteRetainedB[Slot] += Retained[V];
        ++SiteDepth[Slot];
      }
      for (uint32_t K : Kids.of(V))
        Stack.push_back({K, false});
    }
  }

  // -- Per-site live tallies and the capture summary.
  std::vector<HeapProfiler::Tally> SiteLive(NumSlots);
  Last = CaptureInfo{};
  Last.Valid = true;
  Last.Seq = Seq;
  Last.Kind = Kind;
  Last.Nodes = N;
  Last.Edges = E.size();
  Last.DroppedEdges = Dropped;
  Last.RootRefs = RootsResolved.size();
  Last.Retainers = std::move(Top);
  for (const NodeRec &Nd : Nodes) {
    // Graph-derived census (the chunk footer carries the profiler's own
    // tallies; tests and --check compare the two).
    HeapProfiler::Tally &KT = Last.ByKind[Nd.Kind];
    ++KT.Objects;
    KT.Words += Nd.Words;
    uint32_t Slot = Nd.Site < NumSlots ? Nd.Site : (uint32_t)SiteCount;
    ++SiteLive[Slot].Objects;
    SiteLive[Slot].Words += Nd.Words;
  }

  if (PrevRetained.size() != NumSlots)
    PrevRetained.assign(NumSlots, 0);
  // Baseline for growth ranking: the first capture of the run. New
  // sites discovered later simply have a zero baseline.
  if (FirstRetained.size() < NumSlots)
    FirstRetained.resize(NumSlots, 0);
  if (FirstLiveObjects.size() < NumSlots)
    FirstLiveObjects.resize(NumSlots, 0);
  for (uint32_t Slot = 0; Slot < (uint32_t)NumSlots; ++Slot) {
    if (!SiteLive[Slot].Objects && !SiteRetainedB[Slot] &&
        !PrevRetained[Slot])
      continue;
    SiteRetainedRow Row;
    Row.Site = Slot;
    Row.LiveObjects = SiteLive[Slot].Objects;
    Row.LiveWords = SiteLive[Slot].Words;
    Row.RetainedBytes = SiteRetainedB[Slot];
    Row.DeltaBytes = HavePrev ? (int64_t)SiteRetainedB[Slot] -
                                    (int64_t)PrevRetained[Slot]
                              : 0;
    Row.GrowthBytes = HaveFirst ? (int64_t)SiteRetainedB[Slot] -
                                      (int64_t)FirstRetained[Slot]
                                : 0;
    Row.GrowthObjects = HaveFirst ? (int64_t)SiteLive[Slot].Objects -
                                        (int64_t)FirstLiveObjects[Slot]
                                  : 0;
    Last.Retained.push_back(Row);
  }
  std::sort(Last.Retained.begin(), Last.Retained.end(),
            [](const SiteRetainedRow &A, const SiteRetainedRow &B) {
              if (A.RetainedBytes != B.RetainedBytes)
                return A.RetainedBytes > B.RetainedBytes;
              return A.Site < B.Site;
            });
  if (!HaveFirst) {
    FirstRetained = SiteRetainedB;
    for (uint32_t Slot = 0; Slot < (uint32_t)NumSlots; ++Slot)
      FirstLiveObjects[Slot] = SiteLive[Slot].Objects;
    HaveFirst = true;
  }
  PrevRetained = std::move(SiteRetainedB);
  HavePrev = true;

  // -- Serialize, stream, publish. Flushed per chunk so an abnormal
  // exit (verify violation, crash) keeps everything captured so far. A
  // retainer-only capture has no destination and stays in memory.
  if (OutOpen || Sink) {
    std::string Body = serializeChunk(Seq, Kind, CoveredBytes, RootsResolved,
                                      E, Lifetimes, AllocCounts, ByKind);
    std::string Framed;
    Framed.reserve(Body.size() + 12);
    Framed += "TFGH";
    Framed.push_back((char)1); // version
    Framed.push_back((char)(TaggedHeaders ? 1 : 0));
    Framed.push_back(0);
    Framed.push_back(0);
    uint32_t Len = (uint32_t)Body.size();
    for (int I = 0; I < 4; ++I)
      Framed.push_back((char)((Len >> (8 * I)) & 0xff));
    Framed += Body;
    if (OutOpen) {
      Out.write(Framed.data(), (std::streamsize)Framed.size());
      Out.flush();
    }
    ++Chunks;
    if (Sink)
      Sink(Framed);
  }

  resetCapture();
}

std::string HeapGraph::serializeChunk(
    uint64_t Seq, GcEventKind Kind, uint64_t CoveredBytes,
    const std::vector<std::pair<uint32_t, uint32_t>> &RootsResolved,
    const std::vector<std::array<uint32_t, 3>> &E,
    const std::vector<HeapProfiler::SiteLifetime> &Lifetimes,
    const std::vector<uint64_t> &AllocCounts,
    const std::array<HeapProfiler::Tally, NumCensusKinds> &FooterByKind)
    const {
  const size_t SiteCount = Sites ? Sites->size() : 0;
  std::string B;
  B.reserve(64 + Nodes.size() * 6 + E.size() * 4);

  putVarint(B, Seq);
  B.push_back((char)Kind);
  putVarint(B, CoveredBytes);

  // Site table (chunks are self-contained: /heapdump serves one alone).
  putVarint(B, SiteCount);
  for (size_t I = 0; I < SiteCount; ++I) {
    const AllocSiteDesc &D = (*Sites)[I];
    putStr(B, D.Func);
    putVarint(B, D.Line);
    putVarint(B, D.Col);
    putStr(B, D.TypeStr);
  }
  putVarint(B, FuncNames ? FuncNames->size() : 0);
  if (FuncNames)
    for (const std::string &F : *FuncNames)
      putStr(B, F);

  // Nodes, address-sorted and delta-encoded. Site SiteCount = unknown.
  putVarint(B, Nodes.size());
  Word Prev = 0;
  for (const NodeRec &Nd : Nodes) {
    putVarint(B, (uint64_t)(Nd.Addr - Prev));
    Prev = Nd.Addr;
    B.push_back((char)Nd.Kind);
    putVarint(B, Nd.Site);
    putVarint(B, Nd.Words);
  }

  // Edges, sorted by source; source delta-encoded.
  putVarint(B, E.size());
  uint32_t PrevSrc = 0;
  for (const auto &Ed : E) {
    putVarint(B, Ed[0] - PrevSrc);
    PrevSrc = Ed[0];
    putVarint(B, Ed[1]);
    putVarint(B, Ed[2]);
  }

  // Roots that resolved to a node: function, slot, node index.
  putVarint(B, RootsResolved.size());
  for (const auto &[RI, NI] : RootsResolved) {
    putVarint(B, Roots[RI].Func);
    putVarint(B, Roots[RI].Slot);
    putVarint(B, NI);
  }

  // Per-site live + retained (+ delta vs previous capture).
  putVarint(B, Last.Retained.size());
  for (const SiteRetainedRow &R : Last.Retained) {
    putVarint(B, R.Site);
    putVarint(B, R.LiveObjects);
    putVarint(B, R.LiveWords);
    putVarint(B, R.RetainedBytes);
    putZigzag(B, R.DeltaBytes);
  }

  // Cumulative per-site lifetime stats (empty when site tracking off).
  std::vector<size_t> LifeRows;
  for (size_t I = 0; I < Lifetimes.size(); ++I)
    if (Lifetimes[I].any() || (I < AllocCounts.size() && AllocCounts[I]))
      LifeRows.push_back(I);
  putVarint(B, LifeRows.size());
  for (size_t I : LifeRows) {
    const HeapProfiler::SiteLifetime &L = Lifetimes[I];
    putVarint(B, I);
    for (uint64_t S : L.Survived)
      putVarint(B, S);
    putVarint(B, L.Deaths);
    for (uint64_t D : L.DeathHist)
      putVarint(B, D);
    putVarint(B, L.PromotedObjects);
    putVarint(B, L.PromotedWords);
    putVarint(B, I < AllocCounts.size() ? AllocCounts[I] : 0);
  }

  // Census footer: the profiler's own per-kind tallies — the decoder
  // cross-checks the node-derived sums against these.
  putVarint(B, NumCensusKinds);
  uint64_t TotalObjects = 0, TotalWords = 0;
  for (size_t I = 0; I < NumCensusKinds; ++I) {
    putStr(B, censusKindName((CensusKind)I));
    putVarint(B, FooterByKind[I].Objects);
    putVarint(B, FooterByKind[I].Words);
    TotalObjects += FooterByKind[I].Objects;
    TotalWords += FooterByKind[I].Words;
  }
  putVarint(B, TotalObjects);
  putVarint(B, TotalWords);
  return B;
}

std::vector<SiteRetainedRow> HeapGraph::rankedDeltas() const {
  std::vector<SiteRetainedRow> Rows = Last.Retained;
  std::sort(Rows.begin(), Rows.end(),
            [](const SiteRetainedRow &A, const SiteRetainedRow &B) {
              if (A.GrowthBytes != B.GrowthBytes)
                return A.GrowthBytes > B.GrowthBytes;
              // A dominator that merely holds a growing structure (one
              // ref cell) ties the leaking site on retained growth but
              // stays at a constant object count; the leak accumulates.
              if (A.GrowthObjects != B.GrowthObjects)
                return A.GrowthObjects > B.GrowthObjects;
              return A.Site < B.Site;
            });
  return Rows;
}

void HeapGraph::finish() {
  if (OutOpen) {
    Out.flush();
    Out.close();
    OutOpen = false;
  }
}
