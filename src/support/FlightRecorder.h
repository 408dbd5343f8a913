//===- support/FlightRecorder.h - Always-on binary flight recorder -*- C++ -*-===//
///
/// \file
/// A black-box recorder for the threaded runtime (`--flight-out=FILE`):
/// fixed-size binary events written into per-thread lock-free SPSC ring
/// buffers, so the layers that today have no timeline — the safepoint
/// handshake, TLAB refills, the VM's fuel-counter polls, the parallel
/// trace workers (parked mutators, on their own task rings) — leave a
/// causal, per-thread event record that survives even abnormal exits
/// (the drain path rides the run-end artifact flush).
///
/// Hot-path discipline:
///  * disabled: one null-pointer check per instrumentation site;
///  * enabled: one steady_clock read plus one 32-byte store per event —
///    no allocation, no locks, no shared-memory traffic.
///
/// Ring protocol (DESIGN.md "Flight recording"):
///  * each ring has exactly one producer — a mutator thread (its task
///    ring, trace work it runs while parked included), or "whoever owns
///    the pause" (the GC ring: arm events and the Telemetry
///    begin/phase/end records are all serialized by the safepoint mutex,
///    or by the single thread in sequential and cooperative mode; the
///    cooperative scheduler's one OS thread produces every ring). A
///    collection adds at most NumGcPhases + 2 records to the GC ring,
///    and the rings drain at the end of every pause that left one half
///    full, so a default-sized GC ring never drops a collection;
///  * WriteIdx is a monotone record count (release store by the producer);
///    the slot written is WriteIdx & Mask, so a full ring overwrites the
///    oldest record — newest-N semantics, never a torn record, because
///  * drains happen only at world-stopped points (end of a collection
///    pause, run end), when every producer is parked, joined, or is the
///    draining thread itself. The consumer cursor (ReadIdx) is plain
///    memory touched only by drains.
///
/// File format: a 24-byte header (magic "TFGCFLR1", u32 version, u32
/// record size, u64 reserved) followed by 32-byte little-endian records,
/// time-sorted within each drained chunk and monotone across chunks (all
/// producers quiesce before a drain, so later chunks hold later events).
/// `tools/flight_report.py` decodes it, checks the handshake invariants
/// and (with `--stats`) the collection records against the run's
/// `--stats-json`, renders the time-to-safepoint attribution table, and
/// exports a multi-track Chrome trace — the runtime's only event-trace
/// export.
///
//===----------------------------------------------------------------------===//

#ifndef TFGC_SUPPORT_FLIGHTRECORDER_H
#define TFGC_SUPPORT_FLIGHTRECORDER_H

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

namespace tfgc {

enum class FlightEventType : uint8_t {
  ThreadStart = 1,      ///< Mutator thread entered its run loop.
  ThreadExit = 2,       ///< Mutator finished its task (before leaving the
                        ///< rendezvous set).
  GcRequest = 3,        ///< VM exhausted the heap: ArgA = payload words.
  SafepointArm = 4,     ///< Coordinator armed the stop flag. Arg32 =
                        ///< handshake epoch, ArgA = word demand.
  ThreadPark = 5,       ///< Thread parked. Arg32 = epoch, ArgA = request-
                        ///< to-park delay ns, ArgB = 1 if last parker
                        ///< (owns the pause).
  ThreadResume = 6,     ///< Thread woke from the handshake. Arg32 = epoch.
  PendingHandoff = 7,   ///< An exiting thread completed the rendezvous and
                        ///< ran the pending collection. Arg32 = epoch,
                        ///< ArgA = request-to-handoff delay ns.
  TlabRefill = 8,       ///< TLAB refilled off the shared cursor. ArgA =
                        ///< bytes carved, ArgB = refill ordinal.
  GcBegin = 9,          ///< Collection began. Arg32 = GcEventKind, ArgA =
                        ///< collection seq.
  GcPhase = 10,         ///< One phase of a finished collection, written
                        ///< just before its GcEnd (one per nonzero
                        ///< phase). Arg32 = GcPhase, ArgA = the phase's
                        ///< exclusive ns in that collection.
  GcEnd = 11,           ///< Collection finished. Arg32 = kind, ArgA =
                        ///< pause ns, ArgB = collection seq.
  TraceWorkerBegin = 12,///< Parallel trace worker started, on the ring of
                        ///< the task running it. Arg32 = worker.
  TraceWorkerEnd = 13,  ///< Worker done. Arg32 = worker, ArgA = steals.
  VmEpoch = 14,         ///< Fuel-counter safepoint poll. ArgA = steps.
  Dropped = 15,         ///< Synthesized at drain: ArgA = records the ring
                        ///< overwrote since the previous drain.
};

/// One fixed-size record. Written to disk verbatim (little-endian hosts);
/// `TimeNs` counts from the owning FlightRecorder's construction, so
/// records from different rings sort into one global timeline.
struct FlightEvent {
  uint64_t TimeNs;
  uint8_t Type;
  uint8_t Tid;
  uint16_t Reserved;
  uint32_t Arg32;
  uint64_t ArgA;
  uint64_t ArgB;
};
static_assert(sizeof(FlightEvent) == 32, "records are 32 bytes on disk");

/// One single-producer ring. The producer calls record(); the draining
/// thread (world stopped) calls drain().
class FlightRing {
public:
  /// \p CapacityRecords is rounded up to a power of two (min 8).
  FlightRing(size_t CapacityRecords, uint8_t Tid,
             std::chrono::steady_clock::time_point Origin)
      : Tid(Tid), Origin(Origin) {
    size_t Cap = 8;
    while (Cap < CapacityRecords)
      Cap <<= 1;
    Buf.resize(Cap);
    Mask = Cap - 1;
  }

  size_t capacity() const { return Buf.size(); }
  uint8_t tid() const { return Tid; }

  /// Producer-only. One clock read, one 32-byte store, one release store.
  void record(FlightEventType T, uint32_t Arg32 = 0, uint64_t A = 0,
              uint64_t B = 0) {
    uint64_t W = WriteIdx.load(std::memory_order_relaxed);
    FlightEvent &E = Buf[(size_t)(W & Mask)];
    E.TimeNs = nowNs();
    E.Type = (uint8_t)T;
    E.Tid = Tid;
    E.Reserved = 0;
    E.Arg32 = Arg32;
    E.ArgA = A;
    E.ArgB = B;
    WriteIdx.store(W + 1, std::memory_order_release);
  }

  /// Consumer-only, producers quiescent (world stopped). Appends the
  /// records written since the last drain to \p Out, oldest first; when
  /// the ring wrapped, a Dropped marker (stamped with the oldest surviving
  /// record's time) precedes them. Returns the number of records dropped.
  uint64_t drain(std::vector<FlightEvent> &Out) {
    uint64_t W = WriteIdx.load(std::memory_order_acquire);
    uint64_t Start = ReadIdx;
    uint64_t Lost = 0;
    if (W - Start > Buf.size()) {
      Lost = W - Start - Buf.size();
      Start = W - Buf.size();
    }
    if (Lost) {
      FlightEvent M{};
      M.TimeNs = Buf[(size_t)(Start & Mask)].TimeNs;
      M.Type = (uint8_t)FlightEventType::Dropped;
      M.Tid = Tid;
      M.ArgA = Lost;
      Out.push_back(M);
    }
    for (uint64_t I = Start; I < W; ++I)
      Out.push_back(Buf[(size_t)(I & Mask)]);
    ReadIdx = W;
    DroppedTotal += Lost;
    return Lost;
  }

  uint64_t recordsWritten() const {
    return WriteIdx.load(std::memory_order_relaxed);
  }
  /// Records written but not yet drained (may exceed capacity when the
  /// ring wrapped). World-stopped callers only, like drain().
  uint64_t pending() const {
    return WriteIdx.load(std::memory_order_relaxed) - ReadIdx;
  }
  uint64_t droppedTotal() const { return DroppedTotal; }

private:
  uint64_t nowNs() const {
    return (uint64_t)std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - Origin)
        .count();
  }

  std::vector<FlightEvent> Buf;
  size_t Mask = 0;
  /// Monotone count of records ever written; slot = index & Mask.
  std::atomic<uint64_t> WriteIdx{0};
  /// Consumer cursor; touched only while the world is stopped.
  uint64_t ReadIdx = 0;
  uint64_t DroppedTotal = 0;
  uint8_t Tid;
  std::chrono::steady_clock::time_point Origin;
};

/// Owns every ring plus the output file. Constructed by the driver when
/// --flight-out is given; all rings share one clock origin.
class FlightRecorder {
public:
  /// The GC ring's tid — handshake arms and Telemetry collection mirrors.
  /// Task ring i records as tid i.
  static constexpr uint8_t GcTid = 254;
  static constexpr char Magic[9] = "TFGCFLR1";
  static constexpr uint32_t Version = 1;

  /// One ring per task plus the GC ring, each \p BufferKb KiB. The second
  /// argument is unused: trace workers are tasks and record on their task
  /// rings (it stays for existing three-argument callers).
  FlightRecorder(unsigned NumTasks, unsigned /*Unused*/, size_t BufferKb);
  ~FlightRecorder() { finish(); }
  FlightRecorder(const FlightRecorder &) = delete;
  FlightRecorder &operator=(const FlightRecorder &) = delete;

  FlightRing &taskRing(unsigned I) { return *TaskRings[I]; }
  FlightRing &gcRing() { return *GcRing; }

  /// Opens the output file and writes the header. Returns false with
  /// \p Err set on I/O failure.
  bool openFile(const std::string &Path, std::string &Err);

  /// World-stopped drain: collects every ring's new records, time-sorts
  /// them into one chunk, appends it to the (stdio-buffered) file, and
  /// hands the latest standalone chunk (header + records) to the chunk
  /// sink. Durability comes from finish(), which every exit path runs;
  /// a hard crash can truncate the file but only on a record boundary.
  void drain();

  /// The per-collection drain hook: drains only when some ring has used
  /// more than half its capacity, so a quiet recorder costs a collection
  /// a handful of counter reads, not a sort and a write. Draining on
  /// *half* full (not full) keeps newest-N loss a last resort: a ring
  /// would have to absorb another half capacity before the next
  /// world-stop to overwrite anything.
  void maybeDrain();

  /// Final drain + flush + close. Idempotent; also run by the destructor,
  /// so the recording is valid however the run ends.
  void finish();

  /// Receives each drained chunk as a standalone decodable byte string
  /// (the /flightrecord endpoint body). Called from inside the pause.
  void setChunkSink(std::function<void(const std::string &)> S) {
    ChunkSink = std::move(S);
  }

  uint64_t recordsFiled() const { return Filed; }
  uint64_t droppedTotal() const;

  /// The 24-byte file header.
  static std::string fileHeader();

private:
  std::chrono::steady_clock::time_point Origin;
  /// unique_ptr: rings hold atomics (not movable) and their addresses are
  /// cached by producers.
  std::vector<std::unique_ptr<FlightRing>> TaskRings;
  std::unique_ptr<FlightRing> GcRing;
  std::FILE *File = nullptr;
  std::vector<FlightEvent> Scratch;
  std::function<void(const std::string &)> ChunkSink;
  uint64_t Filed = 0;
};

} // namespace tfgc

#endif // TFGC_SUPPORT_FLIGHTRECORDER_H
