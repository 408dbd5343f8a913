//===- tests/threads_test.cpp - OS-thread tasking + safepoints -----------===//
///
/// Exercises the sched/ subsystem end to end: the TLAB primitive and the
/// coordinator's parked-thread job handoff in isolation, then the
/// ThreadedRuntime against the
/// cooperative scheduler (the logical-semantics reference) across every
/// strategy x algorithm, and finally a full-rate handshake stress with a
/// live /metrics scraper hammering the introspection server while four
/// mutator threads allocate as fast as they can.

#include "TestUtil.h"
#include "sched/ThreadedTasking.h"
#include "support/Epoch.h"
#include "support/Introspect.h"
#include "workloads/Programs.h"

#include <arpa/inet.h>
#include <array>
#include <atomic>
#include <netinet/in.h>
#include <set>
#include <sys/socket.h>
#include <thread>
#include <unistd.h>

using namespace tfgc;
using namespace tfgc::test;
namespace wl = tfgc::workloads;

namespace {

//===----------------------------------------------------------------------===//
// Tlab
//===----------------------------------------------------------------------===//

TEST(Tlab, BumpAccountsAndRefusesOverflow) {
  Word Backing[64] = {};
  Tlab T;
  T.Top = Backing;
  T.End = Backing + 64;
  EXPECT_EQ(T.bump(10), Backing);
  EXPECT_EQ(T.bump(54), Backing + 10);
  EXPECT_EQ(T.AllocatedWords, 64u);
  // Window exhausted: the fast path refuses, leaving state untouched for
  // the refill slow path.
  EXPECT_EQ(T.bump(1), nullptr);
  EXPECT_EQ(T.AllocatedWords, 64u);
  T.reset();
  EXPECT_EQ(T.Top, nullptr);
  EXPECT_EQ(T.End, nullptr);
  EXPECT_EQ(T.bump(1), nullptr);
}

//===----------------------------------------------------------------------===//
// SafepointCoordinator: the parked mutators run the pause's trace job
//===----------------------------------------------------------------------===//

TEST(Safepoint, ParkedThreadsRunPostedJobWorkers) {
  // Four threads rendezvous; the last parker posts a 4-wide job whose
  // worker 0 waits until workers 1..3 have started. Those can only start
  // on the three parked threads, so each worker runs on a distinct task
  // and worker 0 runs on the pause owner's.
  constexpr unsigned N = 4;
  SafepointCoordinator Coord(N);
  std::atomic<unsigned> Started{0};
  std::array<std::atomic<int>, N> TaskOf;
  for (auto &T : TaskOf)
    T.store(-1);
  std::atomic<int> Owner{-1};
  auto Collect = [&](size_t, uint64_t) {
    Coord.runOnParked(N, [&](unsigned W, unsigned Task) {
      TaskOf[W].store((int)Task);
      Started.fetch_add(1);
      if (W == 0)
        while (Started.load() < N)
          std::this_thread::yield();
    });
  };
  Coord.requestStop(1);
  std::vector<std::thread> Ts;
  for (unsigned I = 0; I < N; ++I)
    Ts.emplace_back([&, I] {
      Coord.park(
          I,
          [&](const SafepointCoordinator::ParkInfo &PI) {
            if (PI.LastParker)
              Owner.store((int)I);
          },
          Collect);
    });
  for (std::thread &T : Ts)
    T.join();
  EXPECT_EQ(Coord.epoch(), 1u);
  EXPECT_EQ(TaskOf[0].load(), Owner.load());
  std::set<int> Tasks;
  for (auto &T : TaskOf)
    Tasks.insert(T.load());
  EXPECT_EQ(Tasks, (std::set<int>{0, 1, 2, 3}));
}

//===----------------------------------------------------------------------===//
// ThreadedRuntime vs the cooperative reference
//===----------------------------------------------------------------------===//

struct TWorld {
  std::unique_ptr<CompiledProgram> P;
  Stats St;
  std::unique_ptr<Collector> Col;
  std::unique_ptr<ThreadedRuntime> Rt;
};

TWorld makeThreaded(const std::string &Source, GcStrategy S, GcAlgorithm A,
                    size_t HeapBytes, unsigned GcThreads, bool Verify) {
  TWorld W;
  CompileOptions O;
  O.TaskingSafe = true;
  Compiler C(O);
  std::string Err;
  W.P = C.compile(Source, &Err);
  EXPECT_TRUE(W.P != nullptr) << Err;
  W.Col = W.P->makeCollector(S, A, HeapBytes, W.St, &Err);
  EXPECT_TRUE(W.Col != nullptr) << Err;
  W.Col->setVerifyAfterGc(Verify);
  if (GcThreads >= 2)
    W.Col->setGcThreads(GcThreads);
  TaskingOptions TO;
  TO.Policy = SuspendChecks::AtEveryCall;
  TO.ZeroFrames = S == GcStrategy::Tagged || S == GcStrategy::AppelTagFree;
  W.Rt = std::make_unique<ThreadedRuntime>(W.P->Prog, W.P->Image, *W.P->Types,
                                           *W.Col, TO);
  return W;
}

TEST(Threads, ResultsMatchCooperativeAllStrategiesAllAlgorithms) {
  // Expected values from the cooperative scheduler on a roomy heap.
  std::vector<std::string> Expected;
  {
    CompileOptions O;
    O.TaskingSafe = true;
    Compiler C(O);
    std::string Err;
    auto P = C.compile(wl::taskWorker(), &Err);
    ASSERT_TRUE(P != nullptr) << Err;
    Stats St;
    auto Col = P->makeCollector(GcStrategy::CompiledTagFree,
                                GcAlgorithm::Copying, 1 << 20, St, &Err);
    ASSERT_TRUE(Col != nullptr) << Err;
    TaskingOptions TO;
    TO.Policy = SuspendChecks::AtEveryCall;
    TaskingRuntime Rt(P->Prog, P->Image, *P->Types, *Col, TO);
    FuncId Worker = findFunction(P->Prog, "worker");
    ASSERT_NE(Worker, InvalidFunc);
    for (int64_t Seed = 1; Seed <= 4; ++Seed)
      Rt.spawnInt(Worker, {Seed, 40});
    ASSERT_TRUE(Rt.runAll());
    for (const TaskResult &R : Rt.results())
      Expected.push_back(R.Value);
  }

  // Four real threads on a tight heap: every strategy x algorithm must
  // reproduce the same per-task values with census verification on, and
  // every armed GC request must account for exactly one handshake.
  for (GcStrategy S : AllStrategies) {
    for (GcAlgorithm A : AllAlgorithms) {
      TWorld W = makeThreaded(wl::taskWorker(), S, A, 1 << 13, 4, true);
      FuncId Worker = findFunction(W.P->Prog, "worker");
      ASSERT_NE(Worker, InvalidFunc);
      for (int64_t Seed = 1; Seed <= 4; ++Seed)
        W.Rt->spawnInt(Worker, {Seed, 40});
      ASSERT_TRUE(W.Rt->runAll())
          << gcStrategyName(S) << "/" << gcAlgorithmName(A);
      for (size_t I = 0; I < 4; ++I)
        EXPECT_EQ(W.Rt->results()[I].Value, Expected[I])
            << gcStrategyName(S) << "/" << gcAlgorithmName(A) << " task "
            << I;

      // No lost handshakes: armed request == world stop == epoch, and
      // the tight heap forced at least one.
      uint64_t Requests = W.St.get(StatId::TaskGcRequests);
      uint64_t Stops = W.St.get(StatId::TaskWorldStops);
      EXPECT_GT(Stops, 0u) << gcStrategyName(S) << "/" << gcAlgorithmName(A);
      EXPECT_EQ(Requests, Stops)
          << gcStrategyName(S) << "/" << gcAlgorithmName(A);
      EXPECT_EQ(W.Rt->gcEpochs(), Stops)
          << gcStrategyName(S) << "/" << gcAlgorithmName(A);
      EXPECT_EQ(W.St.get("sched.handshake_epochs"), Stops);

      // Census verification ran after every collection and found the
      // heap intact.
      EXPECT_GT(W.St.get(StatId::GcVerifyPasses), 0u);
      EXPECT_EQ(W.St.get(StatId::GcVerifyViolations), 0u)
          << gcStrategyName(S) << "/" << gcAlgorithmName(A);
    }
  }
}

TEST(Threads, PerTaskTlabAndStopDelayStats) {
  TWorld W = makeThreaded(wl::taskWorker(), GcStrategy::CompiledTagFree,
                          GcAlgorithm::Generational, 1 << 13, 4, false);
  FuncId Worker = findFunction(W.P->Prog, "worker");
  for (int64_t Seed = 1; Seed <= 4; ++Seed)
    W.Rt->spawnInt(Worker, {Seed, 40});
  ASSERT_TRUE(W.Rt->runAll());
  ASSERT_GT(W.St.get(StatId::TaskWorldStops), 0u);

  uint64_t Delays = 0;
  for (int I = 0; I < 4; ++I) {
    std::string Base = "task." + std::to_string(I);
    EXPECT_GT(W.St.get(Base + ".mutator_steps"), 0u) << Base;
    // Every thread allocates through its TLAB, so each one refilled at
    // least once and the words it bumped are accounted.
    EXPECT_GT(W.St.get(Base + ".tlab_refills"), 0u) << Base;
    EXPECT_GT(W.St.get(Base + ".tlab_alloc_words"), 0u) << Base;
    Delays += W.St.get(Base + ".world_stop_delays");
    uint64_t P50 = W.St.get(Base + ".world_stop_delay_ns_p50");
    uint64_t P90 = W.St.get(Base + ".world_stop_delay_ns_p90");
    uint64_t P99 = W.St.get(Base + ".world_stop_delay_ns_p99");
    EXPECT_LE(P50, P90) << Base;
    EXPECT_LE(P90, P99) << Base;
  }
  // Each handshake parks every still-live task; the triggering thread
  // records a delay too (request-to-collection time), so the histogram
  // counts at least one entry per stop.
  EXPECT_GE(Delays, W.St.get(StatId::TaskWorldStops));
}

TEST(Threads, ParallelTraceEngagesWithFourStacks) {
  // Four parked stacks and a 4-way tracer: the parallel path must engage
  // (gc.parallel_traces), spin up more than one worker at least once,
  // and the logical results stay correct.
  TWorld W = makeThreaded(wl::taskWorker(), GcStrategy::CompiledTagFree,
                          GcAlgorithm::Copying, 1 << 13, 4, false);
  FuncId Worker = findFunction(W.P->Prog, "worker");
  for (int64_t Seed = 1; Seed <= 4; ++Seed)
    W.Rt->spawnInt(Worker, {Seed, 40});
  ASSERT_TRUE(W.Rt->runAll());
  ASSERT_GT(W.St.get(StatId::GcCollections), 0u);
  EXPECT_GT(W.St.get(StatId::GcParallelTraces), 0u);
  uint64_t Workers = W.St.get(StatId::GcParallelWorkers);
  EXPECT_GE(Workers, 2u);
  EXPECT_LE(Workers, 4u);
}

TEST(Threads, FinishingThreadsHandOffPendingCollections) {
  // Tasks of very different lengths: short tasks exit while long ones
  // still allocate, shrinking the rendezvous population mid-run. A
  // request armed while an exiting thread is the last unparked one must
  // still complete (threadFinished runs the collection).
  TWorld W = makeThreaded(wl::taskWorker(), GcStrategy::CompiledTagFree,
                          GcAlgorithm::Generational, 1 << 13, 4, true);
  FuncId Worker = findFunction(W.P->Prog, "worker");
  for (int64_t N : {5, 15, 30, 45})
    W.Rt->spawnInt(Worker, {N, N});
  ASSERT_TRUE(W.Rt->runAll());
  EXPECT_EQ(W.St.get(StatId::TaskGcRequests),
            W.St.get(StatId::TaskWorldStops));
  EXPECT_EQ(W.St.get(StatId::GcVerifyViolations), 0u);
}

//===----------------------------------------------------------------------===//
// Handshake stress under a live /metrics scraper
//===----------------------------------------------------------------------===//

/// Minimal HTTP/1.1 client: one request, reads to EOF (the server closes).
std::string httpGet(uint16_t Port, const std::string &Target) {
  int Fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (Fd < 0)
    return {};
  sockaddr_in Addr{};
  Addr.sin_family = AF_INET;
  Addr.sin_port = htons(Port);
  Addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(Fd, (sockaddr *)&Addr, sizeof(Addr)) != 0) {
    ::close(Fd);
    return {};
  }
  std::string Req = "GET " + Target +
                    " HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n\r\n";
  (void)!::send(Fd, Req.data(), Req.size(), 0);
  std::string Resp;
  char Buf[4096];
  ssize_t N;
  while ((N = ::recv(Fd, Buf, sizeof(Buf), 0)) > 0)
    Resp.append(Buf, (size_t)N);
  ::close(Fd);
  return Resp;
}

/// Parses `name value` out of a Prometheus exposition; -1 when absent.
int64_t metricValue(const std::string &Body, const std::string &Name) {
  size_t Pos = 0;
  while ((Pos = Body.find(Name, Pos)) != std::string::npos) {
    size_t After = Pos + Name.size();
    bool AtLineStart = Pos == 0 || Body[Pos - 1] == '\n';
    if (AtLineStart && After < Body.size() && Body[After] == ' ')
      return std::atoll(Body.c_str() + After + 1);
    Pos = After;
  }
  return -1;
}

TEST(Threads, HandshakeStressUnderLiveMetricsScraper) {
  // Four mutator threads allocating flat out on a tight heap (hundreds
  // of handshakes), while a scraper thread GETs /metrics every ~2ms.
  // Epoch folds happen inside each pause; every scrape must observe a
  // coherent snapshot with monotone epoch and collection counters.
  TWorld W = makeThreaded(wl::taskWorker(), GcStrategy::CompiledTagFree,
                          GcAlgorithm::Generational, 1 << 13, 4, true);
  FuncId Worker = findFunction(W.P->Prog, "worker");
  for (int64_t Seed = 1; Seed <= 4; ++Seed)
    W.Rt->spawnInt(Worker, {Seed, 45});

  EpochAggregator Agg;
  Agg.attachStats(&W.St);
  Agg.setLabel("threads-stress");
  W.Col->setEpochAggregator(&Agg);
  IntrospectServer Srv;
  std::string Err;
  uint16_t Port = Srv.start(0, Err);
  ASSERT_NE(Port, 0u) << Err;
  Agg.attachServer(&Srv);
  // Epoch 1 before any mutator runs: the world is trivially stopped.
  Agg.fold(SafepointKind::Startup);

  std::atomic<bool> Stop{false};
  std::atomic<uint64_t> Scrapes{0};
  std::atomic<bool> Monotone{true};
  std::thread Scraper([&] {
    int64_t LastSeq = -1, LastCollections = -1;
    while (!Stop.load(std::memory_order_acquire)) {
      std::string Body = httpGet(Port, "/metrics");
      if (!Body.empty() && Body.find("200") != std::string::npos) {
        int64_t Seq = metricValue(Body, "tfgc_epoch_seq");
        int64_t Col = metricValue(Body, "tfgc_gc_collections");
        if (Seq < LastSeq || Col < LastCollections)
          Monotone.store(false, std::memory_order_relaxed);
        LastSeq = std::max(LastSeq, Seq);
        LastCollections = std::max(LastCollections, Col);
        Scrapes.fetch_add(1, std::memory_order_relaxed);
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });

  ASSERT_TRUE(W.Rt->runAll());
  Agg.fold(SafepointKind::RunEnd);
  Stop.store(true, std::memory_order_release);
  Scraper.join();

  EXPECT_GT(Scrapes.load(), 0u);
  EXPECT_TRUE(Monotone.load()) << "epoch or collection counter regressed";

  // No lost handshakes across hundreds of cycles, heap verified after
  // every one of them.
  uint64_t Stops = W.St.get(StatId::TaskWorldStops);
  EXPECT_GT(Stops, 0u);
  EXPECT_EQ(W.St.get(StatId::TaskGcRequests), Stops);
  EXPECT_EQ(W.Rt->gcEpochs(), Stops);
  EXPECT_EQ(W.St.get(StatId::GcVerifyViolations), 0u);

  // The final fold published the run's last word: the served exposition
  // agrees with the in-process stats.
  std::string Body = httpGet(Port, "/metrics");
  EXPECT_EQ(metricValue(Body, "tfgc_gc_collections"),
            (int64_t)W.St.get(StatId::GcCollections));
}

} // namespace
