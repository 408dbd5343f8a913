//===- support/Monitor.h - Mutator-side observability -----------*- C++ -*-===//
///
/// \file
/// Always-available, off-by-default mutator observability. The paper's
/// claim is that tag-free collection costs the *mutator* nothing; the
/// telemetry layer (Telemetry.h) can only see the collector side of that
/// bargain. The Monitor samples the other side:
///
///  * **Sampling profiler.** The VM dispatch loop keeps a fuel counter
///    and calls recordSample() every samplePeriodSteps() instructions
///    (one decrement + one never-taken branch when no monitor is
///    attached — the same disabled-by-null discipline as the heap
///    profiler's alloc hook). Each sample attributes the current step to
///    its function, its caller (via the frame's dynamic link), and an
///    opcode class, yielding flat and caller-attributed profiles without
///    any per-call bookkeeping.
///
///  * **Rate timeline + live streaming.** With a stream attached
///    (`--monitor-out=FILE`), sample points additionally emit
///    schema-versioned JSONL heartbeats every heartbeat period, timed on
///    the monitor's own steady clock: the current Stats snapshot,
///    allocation/barrier/remset rates over the elapsed bucket, and
///    per-task step/sample numbers. A final summary record (flat and
///    caller profiles, opcode-class mix) is flushed through the same
///    abnormal-exit artifact path as the other diagnostics.
///
/// Pause structure (MMU, mutator fraction) is not the monitor's: the
/// flight recording holds every collection's pause on one timeline, and
/// tools/flight_report.py --mmu computes it from there.
///
/// The support layer does not depend on the IR: function identity is a
/// plain index (names installed via setFunctionNames) and the VM maps
/// opcodes onto the coarse OpClass enum below.
///
//===----------------------------------------------------------------------===//

#ifndef TFGC_SUPPORT_MONITOR_H
#define TFGC_SUPPORT_MONITOR_H

#include "support/Stats.h"

#include <array>
#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <unordered_map>
#include <vector>

namespace tfgc {

class EpochAggregator;

/// Coarse instruction classes for sample attribution (the VM maps each
/// Opcode onto one of these; the support layer never sees the IR).
enum class OpClass : uint8_t {
  Load,       ///< Constants and register moves.
  Prim,       ///< Arithmetic/comparison primitives and print.
  Alloc,      ///< Heap-allocating instructions (tuple/data/closure/ref).
  HeapAccess, ///< Field/tag reads, ref load/store, closure patching.
  Branch,     ///< Jumps and conditional branches.
  Call,       ///< Calls (direct and indirect) and returns.
  Other,
  NumClasses
};
inline constexpr size_t NumOpClasses = (size_t)OpClass::NumClasses;
const char *opClassName(OpClass C);

struct MonitorOptions {
  /// VM steps between profiler samples.
  uint64_t SamplePeriodSteps = 512;
  /// Heartbeat period for the JSONL stream.
  uint64_t HeartbeatPeriodMs = 50;
};

/// The mutator-side monitor. Attach with Collector::setMonitor() *before*
/// constructing VMs (the VM caches the sample period at construction,
/// like the zero-frames flag).
class Monitor {
public:
  /// Caller index meaning "no caller" (the oldest frame).
  static constexpr uint32_t NoFunc = 0xffffffffu;
  static constexpr int StreamSchema = 2;

  using Options = MonitorOptions;

  /// Counters the VM hands over at each sample point (cheap reads there;
  /// the monitor derives per-bucket rates from consecutive snapshots).
  struct SampleCounters {
    uint64_t Steps = 0;         ///< This VM's step count.
    uint64_t AllocBytes = 0;    ///< Collector-wide bytes allocated.
    uint64_t BarrierOps = 0;    ///< Collector-wide write-barrier tests.
    uint64_t RemsetEntries = 0; ///< Remembered-set entries recorded.
  };

  explicit Monitor(Options O = {});

  // -- Wiring ---------------------------------------------------------------
  void setFunctionNames(std::vector<std::string> Names) {
    FuncNames = std::move(Names);
  }
  void setLabel(std::string L) { Label = std::move(L); }
  /// Stats registry snapshotted into heartbeats (not owned; may be null).
  void setStats(const Stats *S) { St = S; }
  /// Starts JSONL streaming: writes the header record immediately,
  /// heartbeats from sample points, and the summary record at finish().
  void setStream(std::ostream *OS);
  /// Attaches the epoch aggregator (not owned; may be null). With an
  /// aggregator, every heartbeat becomes a Heartbeat safepoint: the
  /// shards are folded into a new epoch *before* the record is built, and
  /// the rendered line is forwarded to the introspection server's
  /// /heartbeat — heartbeats fire even without a --monitor-out stream.
  void setAggregator(EpochAggregator *A) { Agg = A; }

  uint64_t samplePeriodSteps() const { return Opts.SamplePeriodSteps; }
  uint64_t heartbeatPeriodMs() const { return Opts.HeartbeatPeriodMs; }

  // -- Sample point (hot-ish: once per samplePeriodSteps VM steps) ----------
  void recordSample(uint32_t Func, uint32_t Caller, OpClass C,
                    uint32_t TaskIdx, const SampleCounters &SC);

  // -- Tasking --------------------------------------------------------------
  /// Exact final step count for a task (recorded at counter flush;
  /// sample-time counts are only period-granular).
  void noteTaskSteps(uint32_t TaskIdx, uint64_t Steps);

  // -- Inspection -----------------------------------------------------------
  uint64_t samples() const { return Samples; }
  uint64_t heartbeatsEmitted() const { return Heartbeats; }
  uint64_t stepsObserved() const;
  uint64_t flatSamples(uint32_t Func) const {
    return Func < Flat.size() ? Flat[Func] : 0;
  }
  uint64_t opClassSamples(OpClass C) const { return ByClass[(size_t)C]; }

  // -- Output ---------------------------------------------------------------
  /// Emits the final summary record and flushes the stream. Idempotent;
  /// called from the driver's artifact-flush path so abnormal exits keep
  /// the stream complete.
  void finish();
  /// Publishes mon.samples and mon.sample_period_steps into \p Out
  /// (deterministic, like the rest of the Stats domain);
  /// Collector::publishTelemetryStats calls this.
  void publishStats(Stats &Out) const;
  /// Human-readable summary: sample count and the top-N functions.
  std::string renderSummary(size_t TopN = 10) const;

private:
  /// Nanoseconds since construction, on the heartbeat's steady clock.
  uint64_t nowNs() const;
  void emitHeader();
  void emitHeartbeat(uint64_t Now, const SampleCounters &SC);
  void writeTasksJson(std::ostream &OS) const;
  const std::string &funcName(uint32_t Func) const;

  Options Opts;
  const Stats *St = nullptr;
  EpochAggregator *Agg = nullptr;
  std::ostream *Stream = nullptr;
  std::vector<std::string> FuncNames;
  std::string Label;

  std::chrono::steady_clock::time_point Epoch;

  // Profile accumulators.
  uint64_t Samples = 0;
  std::vector<uint64_t> Flat;                      ///< Indexed by function.
  std::unordered_map<uint64_t, uint64_t> Edges;    ///< caller<<32 | callee.
  std::array<uint64_t, NumOpClasses> ByClass{};

  // Per-task cells (grown on first touch).
  struct TaskCell {
    uint64_t Steps = 0;
    uint64_t Samples = 0;
  };
  std::vector<TaskCell> Tasks;

  // Heartbeat state: previous bucket's counter snapshot for rates. The
  // first sample opens the first bucket.
  static constexpr uint64_t NoTime = UINT64_MAX;
  uint64_t HeartbeatSeq = 0;
  uint64_t Heartbeats = 0;
  uint64_t LastHbNs = NoTime;
  SampleCounters LastHbCounters;
  uint64_t LastHbSamples = 0;
  bool Finished = false;
};

} // namespace tfgc

#endif // TFGC_SUPPORT_MONITOR_H
