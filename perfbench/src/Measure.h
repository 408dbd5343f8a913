//===- perfbench/src/Measure.h - Clocks, spans, pause samples ---*- C++ -*-===//
///
/// \file
/// Measurement plumbing shared by the workloads. Everything here observes
/// tfgc from outside: spans wrap calls into its public functions, and
/// collections arrive through the Telemetry event-sink hook.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_MEASURE_H
#define PERFBENCH_MEASURE_H

#include "support/Telemetry.h"

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Nanoseconds since the first call (the benchmark's own timebase).
uint64_t nowNs();

double median(std::vector<double> V);
/// Nearest-rank percentile of exact samples: the ceil(P/100 * N)-th
/// smallest value (rank clamped to [1, N]). 0 when empty.
uint64_t percentile(std::vector<uint64_t> &Sorted, double P);
double geomean(const std::vector<double> &V);

/// One span: a named interval with the span that contains it and the
/// cell or task it belongs to.
struct Span {
  const char *Name; ///< Static string (a layer or phase name).
  uint64_t Start;
  uint64_t End;
  int32_t Parent; ///< Index into the span list, -1 for a root.
  int32_t Cell;   ///< Cell, program or task id; -1 when none.
};

/// Spans kept in memory and written out once at exit. Disabled tracers
/// record nothing (the untraced passes pass a null Tracer instead).
class Tracer {
public:
  /// Opens a span under the innermost open span; returns its index.
  int32_t begin(const char *Name, int32_t Cell = -1);
  void end(int32_t Idx);
  /// Adds a closed span reported after the fact (a collection) under
  /// \p Parent.
  int32_t add(const char *Name, uint64_t Start, uint64_t End,
              int32_t Parent, int32_t Cell);

  size_t size() const { return Spans.size(); }
  /// Drops spans [N, size()); they must all be closed.
  void truncate(size_t N) { Spans.resize(N); }
  /// Per-name sum of self time (duration minus the parts covered by
  /// direct children) over spans [From, size()), in ns.
  std::map<std::string, uint64_t> selfTimes(size_t From) const;
  /// Writes `{"spans": [[name, start_ns, end_ns, parent, cell], ...]}`.
  bool write(const std::string &Path) const;

private:
  std::vector<Span> Spans;
  std::vector<int32_t> Open;
};

/// RAII span on an optional tracer.
class Scope {
public:
  Scope(Tracer *T, const char *Name, int32_t Cell = -1)
      : T(T), Idx(T ? T->begin(Name, Cell) : -1) {}
  ~Scope() {
    if (T)
      T->end(Idx);
  }
  Scope(const Scope &) = delete;
  Scope &operator=(const Scope &) = delete;

private:
  Tracer *T;
  int32_t Idx;
};

/// Collects every collection of the collectors it is attached to: the
/// exact pause of each (GcEvent::PauseNs, no histogram bucketing) and,
/// for traced runs, the events themselves.
class PauseSink : public tfgc::GcEventSink {
public:
  void onGcEvent(const tfgc::GcEvent &E) override {
    Pauses.push_back(E.PauseNs);
    if (KeepEvents)
      Events.push_back(E);
  }
  std::vector<uint64_t> Pauses;
  std::vector<tfgc::GcEvent> Events;
  bool KeepEvents = false;
};

/// A fixed pointer-chasing kernel over a random cycle larger than the
/// last-level caches of common hosts. It links no tfgc code, so its time
/// tracks the host's memory speed alone.
class HostRef {
public:
  HostRef();
  /// Runs the kernel once; returns its time in ms.
  double sampleMs();

private:
  std::vector<uint32_t> Next;
  uint32_t Sink = 0;
};

/// Peak resident set size of this process, in MB.
double peakRssMb();

} // namespace perfbench

#endif // PERFBENCH_MEASURE_H
