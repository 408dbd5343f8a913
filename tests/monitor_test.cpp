//===- tests/monitor_test.cpp - Mutator-side monitor tests ----------------===//
///
/// Covers support/Monitor.h: the sample-count/step-count invariant under
/// every strategy and algorithm, JSONL stream schema validity (via the
/// shared in-test JSON parser), heartbeat emission, and the abnormal-exit
/// summary flush through the CLI artifact path. MMU is computed from the
/// flight recording (tools/flight_report.py --mmu); tests/flight_mmu_test.py
/// covers it.
///
//===----------------------------------------------------------------------===//

#include "TestUtil.h"
#include "driver/Cli.h"
#include "support/Monitor.h"
#include "workloads/Programs.h"

#include <cstdio>
#include <fstream>
#include <sstream>

using namespace tfgc;
using namespace tfgc::test;
namespace wl = tfgc::workloads;

namespace {

//===----------------------------------------------------------------------===//
// Real runs: sample/step invariant, stream schema
//===----------------------------------------------------------------------===//

struct MonitoredRun {
  Stats St;
  std::unique_ptr<CompiledProgram> P;
  std::unique_ptr<Collector> Col;
  RunResult R;
};

void runMonitored(const std::string &Source, GcStrategy S, GcAlgorithm A,
                  Monitor &Mon, MonitoredRun &Out,
                  size_t HeapBytes = 1 << 15) {
  Compiled C = compile(Source);
  ASSERT_TRUE(C.P) << C.Error;
  Out.P = std::move(C.P);
  std::string Err;
  Out.Col = Out.P->makeCollector(S, A, HeapBytes, Out.St, &Err);
  ASSERT_TRUE(Out.Col) << Err;
  attachMonitor(*Out.P, *Out.Col, Mon);
  Vm M(Out.P->Prog, Out.P->Image, *Out.P->Types, *Out.Col,
       defaultVmOptions(S));
  Out.R = M.run();
  ASSERT_TRUE(Out.R.Ok) << Out.R.Error;
}

TEST(Monitor, SampleCountMatchesStepsAllStrategiesAndAlgorithms) {
  const std::string Src = wl::listChurn(60, 12);
  for (GcStrategy S : AllStrategies) {
    for (GcAlgorithm A : AllAlgorithms) {
      Monitor::Options O;
      O.SamplePeriodSteps = 64;
      Monitor Mon(O);
      MonitoredRun Run;
      runMonitored(Src, S, A, Mon, Run);
      uint64_t Steps = Run.St.get(StatId::VmSteps);
      ASSERT_GT(Steps, 64u);
      // The fuel countdown takes exactly one sample per period.
      EXPECT_EQ(Mon.samples(), Steps / 64)
          << gcStrategyName(S) << "/" << gcAlgorithmName(A);
      EXPECT_EQ(Mon.stepsObserved(), Steps);
      // Published stats mirror the monitor.
      EXPECT_EQ(Run.St.get("mon.samples"), Mon.samples());
      EXPECT_EQ(Run.St.get("mon.sample_period_steps"), 64u);
    }
  }
}

TEST(Monitor, SamplesAttributeToFunctionsAndOpClasses) {
  Monitor::Options O;
  O.SamplePeriodSteps = 16;
  Monitor Mon(O);
  MonitoredRun Run;
  runMonitored(wl::listChurn(60, 12), GcStrategy::CompiledTagFree,
               GcAlgorithm::Copying, Mon, Run);
  ASSERT_GT(Mon.samples(), 0u);
  uint64_t Flat = 0;
  for (uint32_t F = 0; F < 64; ++F)
    Flat += Mon.flatSamples(F);
  EXPECT_EQ(Flat, Mon.samples());
  uint64_t ByClass = 0;
  for (size_t I = 0; I < NumOpClasses; ++I)
    ByClass += Mon.opClassSamples((OpClass)I);
  EXPECT_EQ(ByClass, Mon.samples());
}

TEST(Monitor, StreamIsSchemaValidJsonl) {
  Monitor::Options O;
  O.SamplePeriodSteps = 32;
  O.HeartbeatPeriodMs = 1;
  Monitor Mon(O);
  std::ostringstream Stream;
  Mon.setStream(&Stream);
  MonitoredRun Run;
  runMonitored(wl::listChurn(100, 20), GcStrategy::CompiledTagFree,
               GcAlgorithm::Generational, Mon, Run, 1 << 14);
  Mon.finish();

  std::istringstream In(Stream.str());
  std::string Line;
  size_t Lines = 0, Headers = 0, Summaries = 0, Heartbeats = 0;
  while (std::getline(In, Line)) {
    ++Lines;
    EXPECT_TRUE(validJson(Line)) << Line.substr(0, 200);
    if (Line.find("\"type\": \"header\"") != std::string::npos)
      ++Headers;
    if (Line.find("\"type\": \"summary\"") != std::string::npos)
      ++Summaries;
    if (Line.find("\"type\": \"heartbeat\"") != std::string::npos)
      ++Heartbeats;
  }
  EXPECT_EQ(Headers, 1u);
  EXPECT_EQ(Summaries, 1u);
  EXPECT_EQ(Heartbeats, Mon.heartbeatsEmitted());
  EXPECT_EQ(Lines, 2 + Heartbeats);
  // The summary carries the profile payloads; pause structure is the
  // flight recording's, so no record carries MMU or GC time.
  EXPECT_NE(Stream.str().find("\"profile_flat\""), std::string::npos);
  EXPECT_NE(Stream.str().find("\"op_classes\""), std::string::npos);
  EXPECT_NE(Stream.str().find("\"schema\": 2"), std::string::npos);
  EXPECT_EQ(Stream.str().find("\"mmu\""), std::string::npos);
  EXPECT_EQ(Stream.str().find("\"gc_ns\""), std::string::npos);
  // finish() is idempotent: a second call appends nothing.
  size_t Size = Stream.str().size();
  Mon.finish();
  EXPECT_EQ(Stream.str().size(), Size);
}

//===----------------------------------------------------------------------===//
// CLI integration: abnormal-exit flush, usage errors
//===----------------------------------------------------------------------===//

std::string tmpPath(const char *Name) {
  return ::testing::TempDir() + "tfgc_monitor_test_" + Name;
}

std::string slurp(const std::string &Path) {
  std::ifstream In(Path);
  std::ostringstream OS;
  OS << In.rdbuf();
  return OS.str();
}

TEST(Monitor, VerifyViolationStillFlushesSummary) {
  // The PR 4 guarantee extended to the monitor stream: a run that exits 3
  // (verify violations) must still end the JSONL stream with a complete
  // summary record.
  std::string Out = tmpPath("abnormal.jsonl");
  std::remove(Out.c_str());
  CliOptions O;
  std::string Err;
  bool HelpOnly = false;
  ASSERT_TRUE(parseCli({"--stress", "--heap=16384", "--verify",
                        "--inject-verify-violation", "--monitor-out=" + Out,
                        "--monitor-sample-steps=32", "-e",
                        wl::listChurn(20, 3)},
                       O, Err, HelpOnly))
      << Err;
  EXPECT_EQ(runTfgc(O), 3);
  std::string Doc = slurp(Out);
  EXPECT_NE(Doc.find("\"type\": \"header\""), std::string::npos) << Out;
  EXPECT_NE(Doc.find("\"type\": \"summary\""), std::string::npos) << Out;
  std::remove(Out.c_str());
}

TEST(Monitor, PeriodWithoutOutIsUsageError) {
  // tools/tfgc.cpp maps a parseCli failure to exit code 2.
  CliOptions O;
  std::string Err;
  bool HelpOnly = false;
  EXPECT_FALSE(parseCli({"--monitor-period-ms=5", "-e", "1"}, O, Err,
                        HelpOnly));
  EXPECT_NE(Err.find("--monitor-out"), std::string::npos) << Err;
}

TEST(Monitor, MonitorFlagsImplyMonitor) {
  CliOptions O;
  std::string Err;
  bool HelpOnly = false;
  ASSERT_TRUE(parseCli({"--monitor-out=/tmp/m.jsonl", "-e", "1"}, O, Err,
                       HelpOnly));
  EXPECT_TRUE(O.Monitor);
  EXPECT_EQ(O.MonitorOutPath, "/tmp/m.jsonl");

  CliOptions O2;
  ASSERT_TRUE(parseCli({"--monitor-sample-steps=128", "-e", "1"}, O2, Err,
                       HelpOnly));
  EXPECT_TRUE(O2.Monitor);
  EXPECT_EQ(O2.MonitorSampleSteps, 128u);
}

} // namespace
