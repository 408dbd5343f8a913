//===- support/HeapGraph.h - Typed heap-graph dumps -------------*- C++ -*-===//
///
/// \file
/// Typed object-graph capture riding the tag-free trace. The paper's
/// machinery reconstructs every live object's shape at collection time;
/// this subsystem additionally records, during selected collections, the
/// *edges* the tracers follow (parent object, field index, child object)
/// and streams the resulting typed graph to a binary dump file
/// (`--heap-dump=FILE`), one self-contained chunk per captured
/// collection. `tools/heap_graph_report.py` decodes, checks, and diffs
/// the chunks.
///
/// The edges come from the tracers' typed hooks: a field yields an edge
/// only when its reconstructed type can hold a reference, so the graph is
/// exact — no word is ever guessed to be a pointer because its bits match
/// a live address. This capture is the runtime's only object graph and
/// its dominator pass the only one: `--retainers=N` (the per-object
/// retained-size report of the profiler snapshot) is computed here too.
///
/// Capture policy: graphs are captured at **full and major** collections
/// only (a minor's trace covers the nursery, so its "graph" would dangle
/// into the untraced tenured set), every `--heap-dump-every=N`-th
/// eligible collection. A retainer-only capture stays in memory; with a
/// file or sink, chunks are serialized and
/// flushed as soon as the collection finishes, so a run that exits
/// abnormally (e.g. verify-violation exit 3) still leaves every captured
/// chunk decodable on disk; the Cli artifact-flush path calls finish() to
/// close the stream on every exit.
///
/// Each chunk carries, besides nodes (address, census kind, alloc site —
/// whose static type string reconstructs the node's type — and size) and
/// edges (field index), the per-site *retained* sizes computed by the
/// dominator pass over the captured graph, their deltas against the
/// previous capture (the differential leak-attribution signal), and the
/// cumulative per-site lifetime statistics the profiler maintains
/// (survival curves, death-age histograms, promotion attribution).
///
/// Chunk framing: `"TFGH"` magic, u8 version, u8 flags (bit0 =
/// tagged headers), u16 reserved, u32 little-endian body length, body.
/// Body fields are LEB128 varints (zigzag for signed); strings are
/// length-prefixed. See serializeChunk() for the field order — the
/// Python decoder mirrors it exactly.
///
//===----------------------------------------------------------------------===//

#ifndef TFGC_SUPPORT_HEAPGRAPH_H
#define TFGC_SUPPORT_HEAPGRAPH_H

#include "support/HeapProfile.h"

#include <array>
#include <cstdint>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

namespace tfgc {

/// One row of the per-site retained-size table of a capture.
struct SiteRetainedRow {
  uint32_t Site = 0; ///< numSites() == the unknown bucket.
  uint64_t LiveObjects = 0;
  uint64_t LiveWords = 0;
  uint64_t RetainedBytes = 0;
  /// Retained delta vs the previous capture (0 for the first capture;
  /// negative when the site shrank). Ranking by this column is the
  /// leak-suspect report.
  int64_t DeltaBytes = 0;
  /// Growth vs the FIRST capture (in-memory only, not serialized — the
  /// report tool recomputes deltas across chunks). Consecutive-capture
  /// deltas are noisy: a stack root transiently pointing into a
  /// structure chops its owner's dominator subtree for one capture, so
  /// the owner's per-interval delta can spike when the root retreats.
  /// First-to-last growth averages such transients out; rankedDeltas()
  /// ranks by it, matching heap_graph_report.py --diff.
  int64_t GrowthBytes = 0;
  /// Live-object growth vs the first capture; breaks retained-growth
  /// ties in rankedDeltas(): a dominator that merely holds a growing
  /// structure (one ref cell) stays at constant object count, while
  /// the site actually leaking accumulates objects.
  int64_t GrowthObjects = 0;
};

class HeapGraph {
public:
  /// Opens the dump stream. Returns false (and sets \p Err) when the
  /// file cannot be created.
  bool openFile(const std::string &Path, std::string *Err);

  /// Capture every N-th eligible (full/major) collection; 0/1 = all.
  void setEvery(uint64_t N) { Every = N ? N : 1; }

  /// Also hand each serialized chunk (framed, same bytes as the file)
  /// to \p S — the introspection server republishes the latest one at
  /// /heapdump.
  void setChunkSink(std::function<void(const std::string &)> S) {
    Sink = std::move(S);
  }

  /// Site/function tables, the header model, and the number of
  /// per-object retainer rows to report (0 = none), borrowed from the
  /// profiler's configuration (stable after driver setup).
  void configure(const std::vector<AllocSiteDesc> *Sites,
                 const std::vector<std::string> *FuncNames,
                 bool TaggedHeaders, unsigned TopRetainers);

  /// True once a consumer (file, sink, or retainer report) exists —
  /// without one every capture hook is a no-op.
  bool active() const { return OutOpen || (bool)Sink || TopRetainers; }

  // -- Capture lifecycle (driven by the HeapProfiler) ----------------------

  /// Called at the start of every collection the profiler sees; returns
  /// true when this collection's graph should be captured (eligible
  /// kind, every-N gate passes, a destination exists). Clears the
  /// capture buffers when it fires.
  bool beginCapture(GcEventKind Kind);

  /// A copying grow-loop retraces from scratch; the aborted round's
  /// partial node/edge capture is dropped.
  void resetCapture();

  /// First-visit hook (new address, i.e. post-move).
  void recordNode(Word Addr, uint32_t Site, CensusKind K, uint64_t Words) {
    Nodes.push_back({Addr, Words, Site, (uint8_t)K});
  }

  /// One traced reference: \p Parent and \p Child are post-move
  /// addresses; \p Field is the payload slot index in the parent.
  /// Non-reference children (immediates) are filtered at finalize.
  void recordEdge(Word Parent, uint32_t Field, Word Child) {
    Edges.push_back({Parent, Child, Field});
  }

  /// One traced frame slot (post-move value), labeled function:slot. The
  /// tracers record exactly the slots the frame metadata traces; roots
  /// matching no captured object drop out at finalize.
  void recordRoot(uint32_t Func, uint32_t Slot, Word Value) {
    Roots.push_back({Func, Slot, Value});
  }

  /// Ends a capture: resolves edges against the node set, runs the
  /// dominator pass for per-site retained sizes and the top retainer
  /// rows, and — when a file or sink exists — serializes the chunk and
  /// appends it to the dump file (flushed immediately) and the sink.
  /// \p Lifetimes/\p AllocCounts may be empty when site tracking is off.
  void finalizeCapture(
      uint64_t Seq, GcEventKind Kind, uint64_t CoveredBytes,
      const std::array<HeapProfiler::Tally, NumCensusKinds> &ByKind,
      const std::vector<HeapProfiler::SiteLifetime> &Lifetimes,
      const std::vector<uint64_t> &AllocCounts);

  /// Flushes and closes the dump stream (idempotent). Wired into the
  /// Cli artifact-flush path so abnormal exits keep the dump.
  void finish();

  // -- Results (tests, introspection) --------------------------------------

  struct CaptureInfo {
    bool Valid = false;
    uint64_t Seq = 0;
    GcEventKind Kind = GcEventKind::Full;
    uint64_t Nodes = 0;
    uint64_t Edges = 0;        ///< Edges that resolved to node pairs.
    uint64_t DroppedEdges = 0; ///< Immediate-valued children, filtered.
    uint64_t RootRefs = 0;     ///< Roots that resolved to a node.
    std::array<HeapProfiler::Tally, NumCensusKinds> ByKind{};
    /// Ranked by RetainedBytes descending.
    std::vector<SiteRetainedRow> Retained;
    /// The top objects by retained size (configure()'s TopRetainers),
    /// ranked descending, each with a sample root path.
    std::vector<RetainerInfo> Retainers;
  };
  const CaptureInfo &lastCapture() const { return Last; }
  uint64_t chunksWritten() const { return Chunks; }

  /// The last capture's rows re-ranked by retained-size growth — the
  /// leak-suspect order `heap_graph_report.py --diff` prints.
  std::vector<SiteRetainedRow> rankedDeltas() const;

private:
  struct NodeRec {
    Word Addr;
    uint64_t Words;
    uint32_t Site;
    uint8_t Kind;
  };
  struct EdgeRec {
    Word Parent;
    Word Child;
    uint32_t Field;
  };

  std::string serializeChunk(
      uint64_t Seq, GcEventKind Kind, uint64_t CoveredBytes,
      const std::vector<std::pair<uint32_t, uint32_t>>
          &RootsResolved, // (root idx into Roots, node idx)
      const std::vector<std::array<uint32_t, 3>> &E,
      const std::vector<HeapProfiler::SiteLifetime> &Lifetimes,
      const std::vector<uint64_t> &AllocCounts,
      const std::array<HeapProfiler::Tally, NumCensusKinds> &FooterByKind)
      const;

  const std::vector<AllocSiteDesc> *Sites = nullptr;
  const std::vector<std::string> *FuncNames = nullptr;
  bool TaggedHeaders = false;
  unsigned TopRetainers = 0;

  std::ofstream Out;
  bool OutOpen = false;
  std::function<void(const std::string &)> Sink;
  uint64_t Every = 1;
  uint64_t EligibleSeen = 0;
  uint64_t Chunks = 0;

  std::vector<NodeRec> Nodes;
  std::vector<EdgeRec> Edges;
  std::vector<HeapRoot> Roots;

  /// Previous capture's retained-by-site (index = site, last = unknown),
  /// for the delta column.
  std::vector<uint64_t> PrevRetained;
  std::vector<uint64_t> FirstRetained;
  std::vector<uint64_t> FirstLiveObjects;
  bool HavePrev = false;
  bool HaveFirst = false;

  CaptureInfo Last;
};

} // namespace tfgc

#endif // TFGC_SUPPORT_HEAPGRAPH_H
