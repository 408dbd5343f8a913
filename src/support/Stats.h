//===- support/Stats.h - Sharded statistic counters -------------*- C++ -*-===//
///
/// \file
/// Counters the collectors, the VM, and the tasking runtime record for the
/// experiments (pause times, bytes copied, chain-walk counts, suspension
/// checks).
///
/// The hot trace path increments counters for *every object and field
/// visited*, so the well-known counters are an enum (StatId) indexed into a
/// flat uint64_t array: add/set/max/get are O(1) array operations with no
/// string hashing and no map nodes. The string-keyed API remains as a thin
/// compatibility shim — fixed names resolve (by binary search over the
/// static name table) to the same slots the StatId overloads use, and
/// genuinely dynamic names fall back to an ordered side map. render()
/// output is byte-identical to the historical std::map implementation:
/// every touched counter, in name order.
///
/// Sharding. Stats is a *facade* over one or more StatsShard domains. Each
/// task (thread-to-be) owns a cache-line-padded shard written with plain
/// unsynchronized stores on the hot path; shard 0 is the collector /
/// safepoint domain that every facade-level StatId write lands in. Read
/// paths (get/has/all/render) fold the shards into one coherent view:
/// Sum for accumulating counters, Max for high-water marks (statFold()).
/// Gauges (heap.used_bytes, pause percentiles, mon.*) are written only
/// through the facade at safepoints, so the fold is the identity for them.
/// Sequential single-task runs therefore fold to values bit-identical to
/// the pre-sharding single-domain implementation.
///
/// Dynamic string-name registration mutates the shared side map and is NOT
/// shard-local, so once more than one shard exists it is only legal inside
/// a Stats::SafepointScope (collection boundaries, heartbeats, run end).
/// A dynamic write outside a safepoint with shards live hard-aborts with a
/// diagnostic rather than silently racing once real threads arrive.
///
//===----------------------------------------------------------------------===//

#ifndef TFGC_SUPPORT_STATS_H
#define TFGC_SUPPORT_STATS_H

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace tfgc {

/// Every statically known counter. Enumerators are kept in alphabetical
/// order of their string names so render() can merge fixed and dynamic
/// counters with a single two-finger walk (see Stats::render).
enum class StatId : uint16_t {
  GcBarrierOps,              // gc.barrier_ops
  GcBytesReclaimed,          // gc.bytes_reclaimed
  GcChainSteps,              // gc.chain_steps
  GcCollections,             // gc.collections
  GcCompiledActions,         // gc.compiled_actions
  GcDescSteps,               // gc.desc_steps
  GcFramesTraced,            // gc.frames_traced
  GcGlogerDummies,           // gc.gloger_dummies
  GcHeapGrowths,             // gc.heap_growths
  GcMajorCollections,        // gc.major_collections
  GcMinorCollections,        // gc.minor_collections
  GcObjectsVisited,          // gc.objects_visited
  GcParallelTraces,          // gc.parallel_traces
  GcParallelWorkers,         // gc.parallel_workers
  GcPauseNsMax,              // gc.pause_ns_max
  GcPauseNsP50,              // gc.pause_ns_p50
  GcPauseNsP90,              // gc.pause_ns_p90
  GcPauseNsP99,              // gc.pause_ns_p99
  GcPauseNsTotal,            // gc.pause_ns_total
  GcPromotedWords,           // gc.promoted_words
  GcPtrReversalSteps,        // gc.ptr_reversal_steps
  GcRemsetEntries,           // gc.remset_entries
  GcSlotsTraced,             // gc.slots_traced
  GcStackSteals,             // gc.stack_steals
  GcTgCacheHits,             // gc.tg_cache_hits
  GcTgCacheMisses,           // gc.tg_cache_misses
  GcTgMemoHits,              // gc.tg_memo_hits
  GcTgNodes,                 // gc.tg_nodes
  GcTgSteps,                 // gc.tg_steps
  GcVerifyPasses,            // gc.verify_passes
  GcVerifyViolations,        // gc.verify_violations
  GcWordsVisited,            // gc.words_visited
  HeapBytesAllocatedTotal,   // heap.bytes_allocated_total
  HeapCapacityBytes,         // heap.capacity_bytes
  HeapObjectsAllocated,      // heap.objects_allocated
  HeapUsedBytes,             // heap.used_bytes
  TaskContextSwitches,       // task.context_switches
  TaskGcRequests,            // task.gc_requests
  TaskSpawned,               // task.spawned
  TaskStepsToWorldStopMax,   // task.steps_to_world_stop_max
  TaskStepsToWorldStopTotal, // task.steps_to_world_stop_total
  TaskSuspendChecks,         // task.suspend_checks
  TaskWorldStops,            // task.world_stops
  VmCalls,                   // vm.calls
  VmFloatBoxes,              // vm.float_boxes
  VmFrameWordsZeroed,        // vm.frame_words_zeroed
  VmMaxFrames,               // vm.max_frames
  VmMaxSlotWords,            // vm.max_slot_words
  VmSteps,                   // vm.steps
  VmSuperinstructions,       // vm.superinstructions_executed
  VmTagOps,                  // vm.tag_ops
  VmTailCalls,               // vm.tail_calls

  NumIds
};

constexpr size_t NumStatIds = (size_t)StatId::NumIds;

/// How shard values combine into the folded global view.
enum class StatFold : uint8_t { Sum, Max };

/// Fold rule per counter: accumulators sum across shards; high-water marks
/// take the max (two tasks with 40 and 60 live frames have a 60-frame
/// maximum, not 100).
constexpr StatFold statFold(StatId Id) {
  switch (Id) {
  case StatId::GcParallelWorkers:
  case StatId::GcPauseNsMax:
  case StatId::TaskStepsToWorldStopMax:
  case StatId::VmMaxFrames:
  case StatId::VmMaxSlotWords:
    return StatFold::Max;
  default:
    return StatFold::Sum;
  }
}

/// One counter domain owned by a single writer (a task's VM, or — shard 0 —
/// the collector/safepoint domain). Cache-line aligned so two tasks'
/// hot-path increments never false-share; all writes are plain
/// unsynchronized stores, made visible to readers only at safepoints.
class alignas(64) StatsShard {
public:
  void add(StatId Id, uint64_t Delta = 1) {
    Fixed[(size_t)Id] += Delta;
    touch(Id);
  }
  void set(StatId Id, uint64_t Value) {
    Fixed[(size_t)Id] = Value;
    touch(Id);
  }
  void max(StatId Id, uint64_t Value) {
    uint64_t &Slot = Fixed[(size_t)Id];
    if (Value > Slot)
      Slot = Value;
    touch(Id);
  }
  uint64_t get(StatId Id) const { return Fixed[(size_t)Id]; }
  bool has(StatId Id) const {
    return (Touched[(size_t)Id >> 6] >> ((size_t)Id & 63)) & 1;
  }
  void clear() {
    Fixed.fill(0);
    Touched.fill(0);
  }

private:
  friend class Stats;
  void touch(StatId Id) {
    Touched[(size_t)Id >> 6] |= (uint64_t)1 << ((size_t)Id & 63);
  }

  std::array<uint64_t, NumStatIds> Fixed{};
  /// Which counters this shard has ever written (render/has parity with
  /// the old map: an explicit set(x, 0) is visible, an untouched counter
  /// is not).
  std::array<uint64_t, (NumStatIds + 63) / 64> Touched{};
};

class Stats {
public:
  static constexpr size_t NumFixed = NumStatIds;

  Stats() : Shards(), Base(nullptr) {
    Shards.emplace_back(std::make_unique<StatsShard>());
    Base = Shards[0].get();
  }
  // Shards are pointer-stable (unique_ptr elements), so moving the facade
  // keeps Base and every cached StatsShard* valid. Copying is deleted:
  // a shard has exactly one writer.
  Stats(Stats &&) = default;
  Stats &operator=(Stats &&) = default;
  Stats(const Stats &) = delete;
  Stats &operator=(const Stats &) = delete;

  /// The stable string name of \p Id (e.g. "gc.objects_visited").
  static std::string_view name(StatId Id);

  /// Resolves \p Name to its StatId, or StatId::NumIds for dynamic names.
  static StatId idForName(std::string_view Name);

  // -- Shards ---------------------------------------------------------------
  /// Shard 0: the collector/safepoint domain every facade write lands in.
  StatsShard &baseShard() { return *Base; }
  /// The shard owned by task \p TaskIndex (created on first use; shard 0 is
  /// reserved for the collector, so task i maps to shard i+1). Creation
  /// mutates the shard vector, so with real threads it must happen before
  /// the threads start (ThreadedRuntime spawns every VM — and thereby
  /// claims every shard — on the launching thread) or under a safepoint.
  StatsShard &shardForTask(uint32_t TaskIndex);
  size_t numShards() const { return Shards.size(); }
  const StatsShard &shard(size_t I) const { return *Shards[I]; }

  /// Folds \p Src into \p Dst per the per-counter fold rules (Sum / Max),
  /// honoring Touched. Used to merge a GC worker's thread-local counter
  /// domain into the collector shard after the workers join.
  static void mergeShard(StatsShard &Dst, const StatsShard &Src) {
    for (size_t I = 0; I < NumStatIds; ++I) {
      StatId Id = (StatId)I;
      if (!Src.has(Id))
        continue;
      if (statFold(Id) == StatFold::Max)
        Dst.max(Id, Src.get(Id));
      else
        Dst.add(Id, Src.get(Id));
    }
  }

  /// Labels the calling thread for diagnostics ("mutator-3"); the
  /// dynamic-name guard failure reports the label and thread id
  /// alongside the offending counter. Defaults to "main".
  static void setThreadLabel(const char *Label);
  static const char *threadLabel();

  // -- O(1) fast path (shard 0) ---------------------------------------------
  void add(StatId Id, uint64_t Delta = 1) { Base->add(Id, Delta); }
  void set(StatId Id, uint64_t Value) { Base->set(Id, Value); }
  void max(StatId Id, uint64_t Value) { Base->max(Id, Value); }

  // -- Folded reads ---------------------------------------------------------
  uint64_t get(StatId Id) const {
    if (Shards.size() == 1)
      return Base->get(Id);
    return foldOne(Id);
  }
  bool has(StatId Id) const {
    for (const auto &S : Shards)
      if (S->has(Id))
        return true;
    return false;
  }

  // -- Safepoint scope for dynamic-name registration ------------------------
  /// Marks a region where the world is stopped (or cooperatively quiescent)
  /// and mutating the shared dynamic-name map is safe. Nestable.
  class SafepointScope {
  public:
    explicit SafepointScope(Stats &S) : S(S) { ++S.SafepointDepth; }
    ~SafepointScope() { --S.SafepointDepth; }
    SafepointScope(const SafepointScope &) = delete;
    SafepointScope &operator=(const SafepointScope &) = delete;

  private:
    Stats &S;
  };
  bool inSafepoint() const { return SafepointDepth > 0; }

  // -- String compatibility shim --------------------------------------------
  // Fixed names land in the same slots as their StatId; unknown names go
  // to an ordered side map so ad-hoc counters still work. Dynamic-name
  // writes are guarded: with >1 shard they must be inside a SafepointScope.
  void add(const std::string &Name, uint64_t Delta = 1) {
    StatId Id = idForName(Name);
    if (Id != StatId::NumIds)
      add(Id, Delta);
    else
      dynamicSlot(Name) += Delta;
  }
  void set(const std::string &Name, uint64_t Value) {
    StatId Id = idForName(Name);
    if (Id != StatId::NumIds)
      set(Id, Value);
    else
      dynamicSlot(Name) = Value;
  }
  void max(const std::string &Name, uint64_t Value) {
    StatId Id = idForName(Name);
    if (Id != StatId::NumIds) {
      max(Id, Value);
      return;
    }
    uint64_t &Slot = dynamicSlot(Name);
    if (Value > Slot)
      Slot = Value;
  }
  uint64_t get(const std::string &Name) const {
    StatId Id = idForName(Name);
    if (Id != StatId::NumIds)
      return get(Id);
    auto It = Dynamic.find(Name);
    return It == Dynamic.end() ? 0 : It->second;
  }
  bool has(const std::string &Name) const {
    StatId Id = idForName(Name);
    if (Id != StatId::NumIds)
      return has(Id);
    return Dynamic.count(Name) != 0;
  }

  /// Snapshot of every touched counter, name-ordered (table/JSON output),
  /// folded across shards.
  std::map<std::string, uint64_t> all() const;

  /// Every fixed counter folded into one value-shard — the allocation-free
  /// snapshot the epoch fold takes inside a collection pause (no string
  /// map nodes; ~half a KB of memcpy-able state).
  StatsShard folded() const;
  /// The dynamic-name side map (read at safepoints alongside folded()).
  const std::map<std::string, uint64_t> &dynamicCounters() const {
    return Dynamic;
  }

  void clear() {
    for (auto &S : Shards)
      S->clear();
    Dynamic.clear();
  }

  /// Renders "name = value" lines for human consumption (folded).
  std::string render() const;

private:
  /// Fold \p Id across every shard per its statFold rule.
  uint64_t foldOne(StatId Id) const;
  /// Resolves the side-map slot for a dynamic name, enforcing the
  /// safepoint rule when more than one shard exists.
  uint64_t &dynamicSlot(const std::string &Name);
  [[noreturn]] void dynamicGuardFailure(const std::string &Name) const;

  std::vector<std::unique_ptr<StatsShard>> Shards;
  StatsShard *Base;
  int SafepointDepth = 0;
  std::map<std::string, uint64_t> Dynamic;
};

} // namespace tfgc

#endif // TFGC_SUPPORT_STATS_H
