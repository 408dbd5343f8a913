//===- tests/flight_test.cpp - Binary flight recorder tests ---------------===//
///
/// Covers the flight recorder tentpole: FlightRing wraparound semantics
/// (newest-N, Dropped marker, never torn), recorder-attached runs being
/// counter-bit-identical to recorder-off runs across every strategy and
/// algorithm under --verify, the exit-3 abnormal path still flushing a
/// decodable recording, in-process round-trip through FlightRecorder's
/// file writer, a deep-stack run whose every collection survives the
/// default GC ring, a 4-thread end-to-end run whose decoded timeline
/// satisfies the handshake pairing invariants flight_report.py checks
/// and whose trace workers are parked tasks, and a --threads=1 run that
/// records the same handshake events.
///
//===----------------------------------------------------------------------===//

#include "TestUtil.h"
#include "driver/Cli.h"
#include "support/FlightRecorder.h"
#include "workloads/Programs.h"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <set>
#include <sstream>

using namespace tfgc;
using namespace tfgc::test;
namespace wl = tfgc::workloads;

namespace {

std::string tmpPath(const char *Name) {
  return ::testing::TempDir() + "tfgc_flight_test_" + Name;
}

std::string slurp(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  std::ostringstream OS;
  OS << In.rdbuf();
  return OS.str();
}

bool parseOk(const std::vector<std::string> &Args, CliOptions &O) {
  std::string Err;
  bool HelpOnly = false;
  bool Ok = parseCli(Args, O, Err, HelpOnly);
  EXPECT_TRUE(Ok) << Err;
  return Ok;
}

/// Decodes a flight file (header validated) into events.
std::vector<FlightEvent> decodeFlightFile(const std::string &Path) {
  std::string Bytes = slurp(Path);
  EXPECT_GE(Bytes.size(), 24u) << Path;
  EXPECT_EQ(Bytes.compare(0, 8, "TFGCFLR1"), 0) << Path;
  uint32_t Ver, RecBytes;
  std::memcpy(&Ver, Bytes.data() + 8, 4);
  std::memcpy(&RecBytes, Bytes.data() + 12, 4);
  EXPECT_EQ(Ver, FlightRecorder::Version);
  EXPECT_EQ(RecBytes, sizeof(FlightEvent));
  size_t Payload = Bytes.size() - 24;
  EXPECT_EQ(Payload % sizeof(FlightEvent), 0u)
      << Path << " has a torn trailing record";
  std::vector<FlightEvent> Events(Payload / sizeof(FlightEvent));
  std::memcpy(Events.data(), Bytes.data() + 24, Payload);
  return Events;
}

size_t countType(const std::vector<FlightEvent> &Es, FlightEventType T) {
  size_t N = 0;
  for (const FlightEvent &E : Es)
    N += E.Type == (uint8_t)T;
  return N;
}

//===----------------------------------------------------------------------===//
// FlightRing wraparound: newest-N, Dropped marker, deterministic
//===----------------------------------------------------------------------===//

TEST(FlightRing, WraparoundKeepsNewestAndMarksDropped) {
  auto Origin = std::chrono::steady_clock::now();
  FlightRing R(8, /*Tid=*/3, Origin);
  ASSERT_EQ(R.capacity(), 8u);
  for (uint64_t I = 0; I < 20; ++I)
    R.record(FlightEventType::TlabRefill, 0, I);
  EXPECT_EQ(R.recordsWritten(), 20u);

  std::vector<FlightEvent> Out;
  EXPECT_EQ(R.drain(Out), 12u);
  // One Dropped marker then exactly the newest 8, in write order.
  ASSERT_EQ(Out.size(), 9u);
  EXPECT_EQ(Out[0].Type, (uint8_t)FlightEventType::Dropped);
  EXPECT_EQ(Out[0].ArgA, 12u);
  EXPECT_EQ(Out[0].Tid, 3u);
  // The marker carries the oldest survivor's timestamp so the chunk
  // stays sortable.
  EXPECT_EQ(Out[0].TimeNs, Out[1].TimeNs);
  for (size_t I = 1; I < Out.size(); ++I) {
    EXPECT_EQ(Out[I].Type, (uint8_t)FlightEventType::TlabRefill);
    EXPECT_EQ(Out[I].Tid, 3u);
    EXPECT_EQ(Out[I].ArgA, 12 + (I - 1)); // newest-8 = ordinals 12..19
    if (I > 1) {
      EXPECT_GE(Out[I].TimeNs, Out[I - 1].TimeNs);
    }
  }
  EXPECT_EQ(R.droppedTotal(), 12u);

  // A second drain sees only what came after — no re-delivery, no
  // spurious Dropped marker.
  Out.clear();
  EXPECT_EQ(R.drain(Out), 0u);
  EXPECT_TRUE(Out.empty());
  for (uint64_t I = 20; I < 24; ++I)
    R.record(FlightEventType::VmEpoch, 0, I);
  EXPECT_EQ(R.drain(Out), 0u);
  ASSERT_EQ(Out.size(), 4u);
  for (size_t I = 0; I < 4; ++I)
    EXPECT_EQ(Out[I].ArgA, 20 + I);
}

TEST(FlightRing, CapacityRoundsUpToPowerOfTwo) {
  auto Origin = std::chrono::steady_clock::now();
  EXPECT_EQ(FlightRing(1, 0, Origin).capacity(), 8u);
  EXPECT_EQ(FlightRing(9, 0, Origin).capacity(), 16u);
  EXPECT_EQ(FlightRing(64, 0, Origin).capacity(), 64u);
}

//===----------------------------------------------------------------------===//
// FlightRecorder file round-trip
//===----------------------------------------------------------------------===//

TEST(FlightRecorder, FileRoundTripAndChunkSink) {
  std::string Path = tmpPath("roundtrip.bin");
  std::remove(Path.c_str());
  std::string ChunkBody;
  {
    FlightRecorder F(/*NumTasks=*/2, /*Unused=*/0, /*BufferKb=*/1);
    std::string Err;
    ASSERT_TRUE(F.openFile(Path, Err)) << Err;
    F.setChunkSink([&](const std::string &C) { ChunkBody = C; });
    F.taskRing(0).record(FlightEventType::ThreadStart);
    F.taskRing(1).record(FlightEventType::ThreadStart);
    F.gcRing().record(FlightEventType::SafepointArm, 1, 100);
    // A trace worker records on the ring of the task running it.
    F.taskRing(1).record(FlightEventType::TraceWorkerBegin, 0);
    F.finish();
    EXPECT_EQ(F.recordsFiled(), 4u);
    EXPECT_EQ(F.droppedTotal(), 0u);
  }
  std::vector<FlightEvent> Events = decodeFlightFile(Path);
  ASSERT_EQ(Events.size(), 4u);
  // Time-sorted within the chunk, ring identity preserved.
  std::multiset<uint8_t> Tids;
  for (size_t I = 0; I < Events.size(); ++I) {
    Tids.insert(Events[I].Tid);
    if (I) {
      EXPECT_GE(Events[I].TimeNs, Events[I - 1].TimeNs);
    }
  }
  EXPECT_EQ(Tids, (std::multiset<uint8_t>{0, 1, 1, FlightRecorder::GcTid}));
  // The chunk sink saw the same records as a standalone document.
  ASSERT_EQ(ChunkBody.size(), 24 + 4 * sizeof(FlightEvent));
  EXPECT_EQ(ChunkBody.compare(0, 8, "TFGCFLR1"), 0);
  EXPECT_EQ(std::memcmp(ChunkBody.data() + 24, Events.data(),
                        4 * sizeof(FlightEvent)),
            0);
  // finish() is idempotent: destructor already ran it again above.
  std::remove(Path.c_str());
}

//===----------------------------------------------------------------------===//
// Recorder on/off counter bit-identity (satellite 3)
//===----------------------------------------------------------------------===//

/// Extracts the deterministic counters (everything except wall-clock
/// derived "_ns" names) from a --stats-json document.
std::map<std::string, uint64_t> jsonCounters(const std::string &Path) {
  std::string Doc = slurp(Path);
  std::map<std::string, uint64_t> Out;
  size_t At = Doc.find("\"counters\": {");
  EXPECT_NE(At, std::string::npos) << Path;
  if (At == std::string::npos)
    return Out;
  size_t End = Doc.find('}', At);
  std::string Body = Doc.substr(At + 13, End - At - 13);
  size_t Pos = 0;
  while ((Pos = Body.find('"', Pos)) != std::string::npos) {
    size_t Close = Body.find('"', Pos + 1);
    std::string Name = Body.substr(Pos + 1, Close - Pos - 1);
    size_t Colon = Body.find(':', Close);
    uint64_t Value = std::stoull(Body.substr(Colon + 1));
    if (Name.find("_ns") == std::string::npos)
      Out[Name] = Value;
    Pos = Body.find(',', Colon);
    if (Pos == std::string::npos)
      break;
  }
  return Out;
}

TEST(FlightCli, RecorderOnOffCountersBitIdenticalAllStrategiesAllAlgorithms) {
  // The recorder writes no Stats counters and allocates nothing on the
  // heap it observes, so attaching it must not perturb any deterministic
  // counter — under --verify, for every strategy x algorithm.
  auto CliStrategy = [](GcStrategy S) {
    switch (S) {
    case GcStrategy::Tagged:
      return "tagged";
    case GcStrategy::InterpretedTagFree:
      return "interpreted";
    case GcStrategy::AppelTagFree:
      return "appel";
    default:
      return "compiled";
    }
  };
  auto CliAlgo = [](GcAlgorithm A) {
    switch (A) {
    case GcAlgorithm::MarkSweep:
      return "marksweep";
    case GcAlgorithm::Generational:
      return "generational";
    default:
      return "copying";
    }
  };
  for (GcStrategy S : AllStrategies) {
    for (GcAlgorithm A : AllAlgorithms) {
      std::string Label = std::string(gcStrategyName(S)) + "/" +
                          gcAlgorithmName(A);
      std::string StatsOff = tmpPath("onoff_off.json");
      std::string StatsOn = tmpPath("onoff_on.json");
      std::string Flight = tmpPath("onoff.bin");
      for (const std::string &P : {StatsOff, StatsOn, Flight})
        std::remove(P.c_str());

      std::vector<std::string> Base = {
          std::string("--strategy=") + CliStrategy(S),
          std::string("--algo=") + CliAlgo(A), "--heap=32768", "--verify"};
      if (A == GcAlgorithm::Generational)
        Base.push_back("--nursery-bytes=8192");
      std::string Src = wl::listChurn(20, 4);

      CliOptions Off;
      auto OffArgs = Base;
      OffArgs.insert(OffArgs.end(),
                     {"--stats-json=" + StatsOff, "-e", Src});
      ASSERT_TRUE(parseOk(OffArgs, Off)) << Label;
      ASSERT_EQ(runTfgc(Off), 0) << Label;

      CliOptions On;
      auto OnArgs = Base;
      OnArgs.insert(OnArgs.end(), {"--stats-json=" + StatsOn,
                                   "--flight-out=" + Flight, "-e", Src});
      ASSERT_TRUE(parseOk(OnArgs, On)) << Label;
      ASSERT_EQ(runTfgc(On), 0) << Label;

      auto COff = jsonCounters(StatsOff), COn = jsonCounters(StatsOn);
      ASSERT_FALSE(COff.empty()) << Label;
      EXPECT_EQ(COff, COn) << Label;
      // And the ride-along recording decodes.
      std::vector<FlightEvent> Events = decodeFlightFile(Flight);
      EXPECT_GE(Events.size(), 2u) << Label; // >= ThreadStart + ThreadExit
      for (const std::string &P : {StatsOff, StatsOn, Flight})
        std::remove(P.c_str());
    }
  }
}

//===----------------------------------------------------------------------===//
// Sequential end-to-end: decodable file, correct ring usage
//===----------------------------------------------------------------------===//

TEST(FlightCli, SequentialRunProducesCoherentTimeline) {
  std::string Flight = tmpPath("seq.bin");
  std::remove(Flight.c_str());
  CliOptions O;
  ASSERT_TRUE(parseOk({"--stress", "--heap=16384",
                       "--flight-out=" + Flight, "-e", wl::listChurn(20, 3)},
                      O));
  EXPECT_EQ(runTfgc(O), 0);

  std::vector<FlightEvent> Events = decodeFlightFile(Flight);
  // Globally monotone: drains happen only at world-stopped points.
  for (size_t I = 1; I < Events.size(); ++I)
    EXPECT_GE(Events[I].TimeNs, Events[I - 1].TimeNs) << "record " << I;
  // The single mutator brackets the run on task ring 0.
  EXPECT_EQ(countType(Events, FlightEventType::ThreadStart), 1u);
  EXPECT_EQ(countType(Events, FlightEventType::ThreadExit), 1u);
  EXPECT_EQ(Events.front().Type, (uint8_t)FlightEventType::ThreadStart);
  EXPECT_EQ(Events.front().Tid, 0u);
  // Collections mirror as paired GcBegin/GcEnd on the GC ring.
  size_t Begins = countType(Events, FlightEventType::GcBegin);
  EXPECT_GE(Begins, 1u);
  EXPECT_EQ(Begins, countType(Events, FlightEventType::GcEnd));
  EXPECT_GE(countType(Events, FlightEventType::GcPhase), Begins);
  // No handshake machinery and no fuel polls in the sequential VM: the
  // stop flag is never armed, so the poll counter stays disarmed too.
  EXPECT_EQ(countType(Events, FlightEventType::SafepointArm), 0u);
  EXPECT_EQ(countType(Events, FlightEventType::ThreadPark), 0u);
  EXPECT_EQ(countType(Events, FlightEventType::VmEpoch), 0u);
  std::remove(Flight.c_str());
}

//===----------------------------------------------------------------------===//
// Deep stacks: every collection survives the default GC ring
//===----------------------------------------------------------------------===//

TEST(FlightCli, DeepStackKeepsEveryCollectionWithDefaultRings) {
  // A 3000-frame map switches phase per frame in every pause. The GC ring
  // must still hold each collection whole: one GcBegin and one GcEnd per
  // gc.collections, no Dropped marker, and GcPhase records that add up
  // to the pause they belong to.
  const std::string Src = R"(
fun build (n : int) : int list = if n = 0 then [] else n :: build (n - 1);
fun map (f : 'a -> 'b) (xs : 'a list) : 'b list =
  case xs of Nil => [] | Cons(x, r) => f x :: map f r;
fun count (xs : 'a list) : int =
  case xs of Nil => 0 | Cons(x, r) => 1 + count r;
count (map (fn n => (n, n)) (build 3000))
)";
  for (const char *Strategy : {"compiled", "interpreted", "appel"}) {
    std::string Flight = tmpPath("deep.bin");
    std::string StatsJson = tmpPath("deep.json");
    std::remove(Flight.c_str());
    std::remove(StatsJson.c_str());
    CliOptions O;
    ASSERT_TRUE(parseOk({std::string("--strategy=") + Strategy,
                         "--heap=16384", "--flight-out=" + Flight,
                         "--stats-json=" + StatsJson, "-e", Src},
                        O));
    ASSERT_EQ(runTfgc(O), 0) << Strategy;

    uint64_t Collections = jsonCounters(StatsJson)["gc.collections"];
    ASSERT_GE(Collections, 2u) << Strategy;
    std::vector<FlightEvent> Events = decodeFlightFile(Flight);
    EXPECT_EQ(countType(Events, FlightEventType::GcBegin), Collections)
        << Strategy;
    EXPECT_EQ(countType(Events, FlightEventType::GcEnd), Collections)
        << Strategy;
    EXPECT_EQ(countType(Events, FlightEventType::Dropped), 0u) << Strategy;
    uint64_t PhaseSum = 0;
    for (const FlightEvent &E : Events) {
      if (E.Type == (uint8_t)FlightEventType::GcBegin) {
        PhaseSum = 0;
      } else if (E.Type == (uint8_t)FlightEventType::GcPhase) {
        PhaseSum += E.ArgA;
      } else if (E.Type == (uint8_t)FlightEventType::GcEnd) {
        EXPECT_LE(PhaseSum, E.ArgA) << Strategy << " seq " << E.ArgB;
        EXPECT_GE((double)PhaseSum, 0.95 * (double)E.ArgA)
            << Strategy << " seq " << E.ArgB;
      }
    }
    std::remove(Flight.c_str());
    std::remove(StatsJson.c_str());
  }
}

//===----------------------------------------------------------------------===//
// Abnormal exit (exit 3) still flushes a decodable recording
//===----------------------------------------------------------------------===//

TEST(FlightCli, AbnormalExitStillFlushesDecodableRecording) {
  std::string Flight = tmpPath("abnormal.bin");
  std::remove(Flight.c_str());
  CliOptions O;
  ASSERT_TRUE(parseOk({"--stress", "--heap=16384", "--verify",
                       "--inject-verify-violation",
                       "--flight-out=" + Flight, "-e", wl::listChurn(20, 3)},
                      O));
  EXPECT_EQ(runTfgc(O), 3);

  // Same artifact guarantee as --metrics-out: the recording is on disk,
  // header-valid, whole records only, with the run's collections in it.
  std::vector<FlightEvent> Events = decodeFlightFile(Flight);
  ASSERT_GE(Events.size(), 3u);
  EXPECT_GE(countType(Events, FlightEventType::GcBegin), 1u);
  EXPECT_EQ(countType(Events, FlightEventType::ThreadExit), 1u);
  std::remove(Flight.c_str());
}

//===----------------------------------------------------------------------===//
// 4-thread end-to-end: handshake pairing invariants
//===----------------------------------------------------------------------===//

TEST(FlightCli, ThreadedRunSatisfiesHandshakePairing) {
  std::string Flight = tmpPath("threaded.bin");
  std::remove(Flight.c_str());
  CliOptions O;
  ASSERT_TRUE(parseOk({"--threads=4", "--algo=generational", "--heap=65536",
                       "--nursery-bytes=4096", "--verify",
                       "--flight-out=" + Flight, "-e",
                       wl::generationalChurn(60, 8, 80)},
                      O));
  EXPECT_EQ(runTfgc(O), 0);

  std::vector<FlightEvent> Events = decodeFlightFile(Flight);
  for (size_t I = 1; I < Events.size(); ++I)
    EXPECT_GE(Events[I].TimeNs, Events[I - 1].TimeNs) << "record " << I;
  EXPECT_EQ(countType(Events, FlightEventType::ThreadStart), 4u);
  EXPECT_EQ(countType(Events, FlightEventType::ThreadExit), 4u);

  bool AnyDropped = countType(Events, FlightEventType::Dropped) > 0;
  size_t Arms = countType(Events, FlightEventType::SafepointArm);
  EXPECT_EQ(countType(Events, FlightEventType::GcBegin),
            countType(Events, FlightEventType::GcEnd));
  if (!AnyDropped) {
    // Per-epoch pairing (flight_report.py --check asserts the same):
    // parks == resumes, and exactly one pause owner — either the last
    // parker (ThreadPark with ArgB=1) or an exiting thread's handoff.
    std::map<uint32_t, int> Parks, Resumes, Owners;
    for (const FlightEvent &E : Events) {
      if (E.Type == (uint8_t)FlightEventType::ThreadPark) {
        ++Parks[E.Arg32];
        if (E.ArgB)
          ++Owners[E.Arg32];
      } else if (E.Type == (uint8_t)FlightEventType::ThreadResume) {
        ++Resumes[E.Arg32];
      } else if (E.Type == (uint8_t)FlightEventType::PendingHandoff) {
        ++Owners[E.Arg32];
      }
    }
    EXPECT_EQ(Parks, Resumes);
    EXPECT_EQ(Owners.size(), Arms) << "every armed epoch has a pause owner";
    for (const auto &[Epoch, N] : Owners)
      EXPECT_EQ(N, 1) << "epoch " << Epoch;
    // Worker begin/end pair up per collection.
    EXPECT_EQ(countType(Events, FlightEventType::TraceWorkerBegin),
              countType(Events, FlightEventType::TraceWorkerEnd));
  }
  std::remove(Flight.c_str());
}

TEST(FlightCli, TraceWorkersAreParkedTasks) {
  // The parked mutators are the trace workers: every TraceWorkerBegin/End
  // sits on a task ring (tid < 4), inside that task's park->resume window
  // of the collecting epoch, or on the epoch's pause owner.
  std::string Flight = tmpPath("workers.bin");
  std::remove(Flight.c_str());
  CliOptions O;
  ASSERT_TRUE(parseOk({"--threads=4", "--algo=generational", "--heap=65536",
                       "--nursery-bytes=4096", "--flight-out=" + Flight,
                       "-e", wl::generationalChurn(60, 8, 80)},
                      O));
  EXPECT_EQ(runTfgc(O), 0);

  std::vector<FlightEvent> Events = decodeFlightFile(Flight);
  ASSERT_EQ(countType(Events, FlightEventType::Dropped), 0u);
  EXPECT_GT(countType(Events, FlightEventType::TraceWorkerBegin), 0u);
  std::map<uint8_t, uint32_t> Parked; // tid -> epoch parked in
  uint32_t Epoch = UINT32_MAX;
  int Owner = -1;
  for (size_t I = 0; I < Events.size(); ++I) {
    const FlightEvent &E = Events[I];
    switch ((FlightEventType)E.Type) {
    case FlightEventType::SafepointArm:
      Epoch = E.Arg32;
      Owner = -1;
      break;
    case FlightEventType::ThreadPark:
      Parked[E.Tid] = E.Arg32;
      if (E.ArgB)
        Owner = E.Tid;
      break;
    case FlightEventType::PendingHandoff:
      Owner = E.Tid;
      break;
    case FlightEventType::ThreadResume:
      Parked.erase(E.Tid);
      break;
    case FlightEventType::TraceWorkerBegin:
    case FlightEventType::TraceWorkerEnd: {
      EXPECT_LT(E.Tid, 4u) << "record " << I;
      auto It = Parked.find(E.Tid);
      bool InWindow = It != Parked.end() && It->second == Epoch;
      EXPECT_TRUE(InWindow || E.Tid == Owner)
          << "record " << I << ": worker " << E.Arg32 << " on task "
          << (int)E.Tid << " outside epoch " << Epoch;
      break;
    }
    default:
      break;
    }
  }
  std::remove(Flight.c_str());
}

TEST(FlightCli, CooperativeRunRecordsHandshakes) {
  // --threads=1 records the same handshake events as the threaded
  // runtime, so its recording passes the same checks: one park per
  // stats-reported stop delay, and per epoch one arm, parks == resumes,
  // exactly one pause owner.
  std::string Flight = tmpPath("coop.bin");
  std::string StatsJson = tmpPath("coop.json");
  std::remove(Flight.c_str());
  std::remove(StatsJson.c_str());
  CliOptions O;
  ASSERT_TRUE(parseOk({"--threads=1", "--algo=generational", "--heap=65536",
                       "--nursery-bytes=4096", "--flight-out=" + Flight,
                       "--stats-json=" + StatsJson, "-e",
                       wl::generationalChurn(60, 8, 80)},
                      O));
  EXPECT_EQ(runTfgc(O), 0);

  std::vector<FlightEvent> Events = decodeFlightFile(Flight);
  ASSERT_EQ(countType(Events, FlightEventType::Dropped), 0u);
  EXPECT_EQ(countType(Events, FlightEventType::ThreadStart), 1u);
  EXPECT_EQ(countType(Events, FlightEventType::ThreadExit), 1u);
  size_t Parks = countType(Events, FlightEventType::ThreadPark);
  EXPECT_GT(Parks, 0u);
  EXPECT_EQ(Parks, jsonCounters(StatsJson)["task.0.world_stop_delays"]);
  std::map<uint32_t, int> Arms, ParksBy, Resumes, Owners;
  for (const FlightEvent &E : Events) {
    if (E.Type == (uint8_t)FlightEventType::SafepointArm) {
      EXPECT_EQ(E.Tid, FlightRecorder::GcTid);
      ++Arms[E.Arg32];
    } else if (E.Type == (uint8_t)FlightEventType::ThreadPark) {
      EXPECT_EQ(E.Tid, 0u);
      ++ParksBy[E.Arg32];
      if (E.ArgB)
        ++Owners[E.Arg32];
    } else if (E.Type == (uint8_t)FlightEventType::ThreadResume) {
      ++Resumes[E.Arg32];
    } else if (E.Type == (uint8_t)FlightEventType::PendingHandoff) {
      ++Owners[E.Arg32];
    }
  }
  EXPECT_EQ(ParksBy, Resumes);
  EXPECT_EQ(Arms.size(), ParksBy.size());
  for (const auto &[Epoch, N] : Arms) {
    EXPECT_EQ(N, 1) << "epoch " << Epoch;
    EXPECT_EQ(Owners[Epoch], 1) << "epoch " << Epoch;
  }
  std::remove(Flight.c_str());
  std::remove(StatsJson.c_str());
}

//===----------------------------------------------------------------------===//
// Flag validation
//===----------------------------------------------------------------------===//

TEST(FlightCli, FlagValidation) {
  CliOptions O;
  std::string Err;
  bool HelpOnly = false;
  EXPECT_FALSE(parseCli({"--flight-buffer-kb=16", "-e", "1"}, O, Err,
                        HelpOnly));
  EXPECT_NE(Err.find("--flight-out"), std::string::npos) << Err;

  CliOptions O2;
  ASSERT_TRUE(parseOk({"--flight-out=/tmp/f.bin", "--flight-buffer-kb=16",
                       "-e", "1"},
                      O2));
  EXPECT_EQ(O2.FlightOutPath, "/tmp/f.bin");
  EXPECT_EQ(O2.FlightBufferKb, 16u);
}

} // namespace
