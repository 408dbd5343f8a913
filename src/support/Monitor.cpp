//===- support/Monitor.cpp ------------------------------------------------===//

#include "support/Monitor.h"

#include "support/Epoch.h"
#include "support/Telemetry.h"

#include <algorithm>
#include <cstdio>
#include <ostream>
#include <sstream>

using namespace tfgc;

const char *tfgc::opClassName(OpClass C) {
  switch (C) {
  case OpClass::Load:       return "load";
  case OpClass::Prim:       return "prim";
  case OpClass::Alloc:      return "alloc";
  case OpClass::HeapAccess: return "heap_access";
  case OpClass::Branch:     return "branch";
  case OpClass::Call:       return "call";
  case OpClass::Other:      return "other";
  case OpClass::NumClasses: break;
  }
  return "?";
}

//===----------------------------------------------------------------------===//
// Monitor
//===----------------------------------------------------------------------===//

Monitor::Monitor(Options O)
    : Opts(O), Epoch(std::chrono::steady_clock::now()) {
  if (Opts.SamplePeriodSteps == 0)
    Opts.SamplePeriodSteps = 1;
  if (Opts.HeartbeatPeriodMs == 0)
    Opts.HeartbeatPeriodMs = 1;
}

uint64_t Monitor::nowNs() const {
  return (uint64_t)std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - Epoch)
      .count();
}

void Monitor::setStream(std::ostream *OS) {
  Stream = OS;
  if (Stream)
    emitHeader();
}

void Monitor::recordSample(uint32_t Func, uint32_t Caller, OpClass C,
                           uint32_t TaskIdx, const SampleCounters &SC) {
  ++Samples;
  if (Func >= Flat.size())
    Flat.resize((size_t)Func + 1, 0);
  ++Flat[Func];
  ++Edges[((uint64_t)Caller << 32) | Func];
  ++ByClass[(size_t)C];
  if (TaskIdx >= Tasks.size())
    Tasks.resize((size_t)TaskIdx + 1);
  Tasks[TaskIdx].Steps = SC.Steps;
  ++Tasks[TaskIdx].Samples;

  if (!Stream && !Agg)
    return;
  uint64_t Now = nowNs();
  if (LastHbNs == NoTime)
    LastHbNs = Now;
  if (Now - LastHbNs >= Opts.HeartbeatPeriodMs * 1'000'000ull)
    emitHeartbeat(Now, SC);
}

void Monitor::noteTaskSteps(uint32_t TaskIdx, uint64_t Steps) {
  if (TaskIdx >= Tasks.size())
    Tasks.resize((size_t)TaskIdx + 1);
  Tasks[TaskIdx].Steps = Steps;
}

uint64_t Monitor::stepsObserved() const {
  uint64_t S = 0;
  for (const TaskCell &T : Tasks)
    S += T.Steps;
  return S;
}

const std::string &Monitor::funcName(uint32_t Func) const {
  static const std::string Unknown = "?";
  static const std::string Root = "<root>";
  if (Func == NoFunc)
    return Root;
  return Func < FuncNames.size() ? FuncNames[Func] : Unknown;
}

namespace {

std::string fmtFrac(double V) {
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "%.6f", V);
  return Buf;
}

} // namespace

void Monitor::emitHeader() {
  *Stream << "{\"type\": \"header\", \"schema\": " << StreamSchema
          << ", \"tool\": \"tfgc-monitor\"";
  if (!Label.empty())
    *Stream << ", \"label\": " << jsonQuote(Label);
  *Stream << ", \"sample_period_steps\": " << Opts.SamplePeriodSteps
          << ", \"heartbeat_period_ms\": " << Opts.HeartbeatPeriodMs
          << "}\n";
  Stream->flush();
}

void Monitor::writeTasksJson(std::ostream &OS) const {
  OS << "[";
  for (size_t I = 0; I < Tasks.size(); ++I) {
    const TaskCell &T = Tasks[I];
    OS << (I ? ", " : "") << "{\"task\": " << I << ", \"steps\": " << T.Steps
       << ", \"samples\": " << T.Samples << "}";
  }
  OS << "]";
}

void Monitor::emitHeartbeat(uint64_t Now, const SampleCounters &SC) {
  // Sample points are cooperative safepoints (the VM flushes its hot
  // counters before calling in): fold a Heartbeat epoch first so the
  // served /metrics and this record describe the same instant.
  if (Agg)
    Agg->fold(SafepointKind::Heartbeat);
  uint64_t DtNs = Now - LastHbNs;
  double DtMs = (double)DtNs / 1e6;
  auto Rate = [&](uint64_t Cur, uint64_t Prev) {
    return DtMs > 0.0 && Cur >= Prev ? (double)(Cur - Prev) / DtMs : 0.0;
  };
  std::ostringstream OS;
  OS << "{\"type\": \"heartbeat\", \"seq\": " << HeartbeatSeq++
     << ", \"t_ns\": " << Now << ", \"dt_ns\": " << DtNs
     << ", \"steps\": " << stepsObserved() << ", \"samples\": " << Samples
     << ", \"alloc_bytes\": " << SC.AllocBytes
     << ", \"alloc_rate_bytes_per_ms\": "
     << fmtFrac(Rate(SC.AllocBytes, LastHbCounters.AllocBytes))
     << ", \"barrier_ops\": " << SC.BarrierOps
     << ", \"barrier_rate_per_ms\": "
     << fmtFrac(Rate(SC.BarrierOps, LastHbCounters.BarrierOps))
     << ", \"remset_entries\": " << SC.RemsetEntries
     << ", \"remset_growth\": "
     << (SC.RemsetEntries >= LastHbCounters.RemsetEntries
             ? SC.RemsetEntries - LastHbCounters.RemsetEntries
             : 0)
     << ", \"sample_rate_per_ms\": "
     << fmtFrac(Rate(Samples, LastHbSamples)) << ", \"tasks\": ";
  writeTasksJson(OS);
  if (St) {
    OS << ", \"counters\": {";
    bool First = true;
    for (const auto &[Name, Value] : St->all()) {
      OS << (First ? "" : ", ") << '"' << Name << "\": " << Value;
      First = false;
    }
    OS << "}";
  }
  OS << "}\n";
  std::string Line = OS.str();
  if (Stream) {
    *Stream << Line;
    Stream->flush();
  }
  if (Agg)
    Agg->noteHeartbeat(Line);
  ++Heartbeats;
  LastHbNs = Now;
  LastHbCounters = SC;
  LastHbSamples = Samples;
}

void Monitor::finish() {
  if (Finished)
    return;
  Finished = true;
  if (!Stream)
    return;

  std::ostream &OS = *Stream;
  OS << "{\"type\": \"summary\", \"schema\": " << StreamSchema;
  if (!Label.empty())
    OS << ", \"label\": " << jsonQuote(Label);
  OS << ", \"steps\": " << stepsObserved() << ", \"samples\": " << Samples
     << ", \"sample_period_steps\": " << Opts.SamplePeriodSteps
     << ", \"heartbeats\": " << Heartbeats;

  OS << ", \"op_classes\": {";
  for (size_t I = 0; I < NumOpClasses; ++I)
    OS << (I ? ", " : "") << '"' << opClassName((OpClass)I)
       << "\": " << ByClass[I];
  OS << "}";

  // Flat profile, top 64 by samples.
  std::vector<std::pair<uint64_t, uint32_t>> Top;
  for (uint32_t F = 0; F < Flat.size(); ++F)
    if (Flat[F])
      Top.push_back({Flat[F], F});
  std::sort(Top.begin(), Top.end(), std::greater<>());
  if (Top.size() > 64)
    Top.resize(64);
  OS << ", \"profile_flat\": [";
  for (size_t I = 0; I < Top.size(); ++I)
    OS << (I ? ", " : "") << "{\"func\": " << jsonQuote(funcName(Top[I].second))
       << ", \"samples\": " << Top[I].first << "}";
  OS << "]";

  // Caller-attributed profile, top 64 edges.
  std::vector<std::pair<uint64_t, uint64_t>> TopEdges;
  for (const auto &[Key, N] : Edges)
    TopEdges.push_back({N, Key});
  std::sort(TopEdges.begin(), TopEdges.end(), std::greater<>());
  if (TopEdges.size() > 64)
    TopEdges.resize(64);
  OS << ", \"profile_callers\": [";
  for (size_t I = 0; I < TopEdges.size(); ++I) {
    uint32_t Caller = (uint32_t)(TopEdges[I].second >> 32);
    uint32_t Callee = (uint32_t)TopEdges[I].second;
    OS << (I ? ", " : "") << "{\"caller\": " << jsonQuote(funcName(Caller))
       << ", \"func\": " << jsonQuote(funcName(Callee))
       << ", \"samples\": " << TopEdges[I].first << "}";
  }
  OS << "]";

  OS << ", \"tasks\": ";
  writeTasksJson(OS);
  OS << "}\n";
  OS.flush();
}

void Monitor::publishStats(Stats &Out) const {
  Out.set("mon.samples", Samples);
  Out.set("mon.sample_period_steps", Opts.SamplePeriodSteps);
}

std::string Monitor::renderSummary(size_t TopN) const {
  std::ostringstream OS;
  OS << "[monitor]";
  if (!Label.empty())
    OS << ' ' << Label;
  OS << " samples=" << Samples << "\n";
  std::vector<std::pair<uint64_t, uint32_t>> Top;
  for (uint32_t F = 0; F < Flat.size(); ++F)
    if (Flat[F])
      Top.push_back({Flat[F], F});
  std::sort(Top.begin(), Top.end(), std::greater<>());
  if (Top.size() > TopN)
    Top.resize(TopN);
  for (const auto &[N, F] : Top)
    OS << "[monitor]   " << funcName(F) << " samples=" << N << " ("
       << fmtFrac(Samples ? (double)N / (double)Samples : 0.0) << ")\n";
  return OS.str();
}
